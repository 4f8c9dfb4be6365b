"""The three benchmark workloads.

Each workload is a function ``(fs, rng) -> list of (task name, task)``.  The
function is the workload's preparation: it builds everything the tasks need
and draws every input from ``rng``, which the caller seeds.  A task takes no
arguments, runs public fluidsym functions through their module attributes and
checks what they return; it returns ``(ok, detail, defect)``, where ``defect``
names a documented defect when the failed check is that defect and is None
otherwise.  One pass over the list is a round; rounds repeat the same tasks
on the same inputs.
"""

from __future__ import annotations

import importlib.resources
import math
from fractions import Fraction

# -- symmetry-solve ------------------------------------------------------------

# The computed algebra is five-dimensional for both closures (README,
# Finding 1); these five named generators span it.
NAMED_GENERATORS = ("v_time", "v_space", "v_dilation", "v_scaling",
                    "v_lorentz_boost")
CLOSURES = (("eckart", Fraction(0), "eckart"),
            ("israel-stewart", Fraction(1), "israel_stewart"))
COMBINATIONS_PER_CLOSURE = 4


def _small_rational(rng) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 6),
                    rng.choice((1, 2, 3, 5, 7)))


def _golden_basis(fs, stem: str) -> list:
    path = importlib.resources.files("fluidsym") / "goldens" / f"generator_basis_{stem}.txt"
    lines = [ln.strip() for ln in path.read_text().splitlines()]
    return [fs.symmetry.field_from_text(ln) for ln in lines
            if ln and not ln.startswith("#")]


def _closure_tasks(fs, theory, lam, golden, rng) -> list:
    sm, ex = fs.symmetry, fs.expr
    # verify_symmetry runs at symbolic k and kappa, not at the solve's points
    system = fs.fluid.build_system(fs.fluid.FluidParams(k=None, kappa=None, lam=lam))
    named = [getattr(sm, n)() for n in NAMED_GENERATORS]
    reference = _golden_basis(fs, golden)
    combos = [[_small_rational(rng) for _ in NAMED_GENERATORS]
              for _ in range(COMBINATIONS_PER_CLOSURE)]
    state = {}

    def solve():
        state["basis"] = sm.solve_determining(lam)
        dim = len(state["basis"])
        return dim == 5, f"dimension {dim}", None

    def span():
        return sm.span_equal(state["basis"], named), "span of the named five", None

    def contains_reference():
        inside = [sm.in_span(g, state["basis"]) for g in reference]
        return all(inside), f"reference generators in span: {inside}", None

    def certify(vector):
        residuals = sm.verify_symmetry(vector(), system)
        nonzero = sum(1 for r in residuals if not r.is_zero())
        return nonzero == 0, f"{nonzero} nonzero residuals", None

    def basis_vector(i):
        return lambda: state["basis"][i]

    def combination(coeffs):
        def build():
            out = None
            for c, v in zip(coeffs, state["basis"]):
                term = v.scale(ex.number(c))
                out = term if out is None else out + term
            return out
        return build

    tasks = [(f"solve-{theory}", solve), (f"span-{theory}", span),
             (f"reference-{theory}", contains_reference)]
    tasks += [(f"certify-{theory}-basis{i}", lambda i=i: certify(basis_vector(i)))
              for i in range(5)]
    tasks += [(f"certify-{theory}-combo{j}", lambda c=c: certify(combination(c)))
              for j, c in enumerate(combos)]
    return tasks


def symmetry_solve(fs, rng) -> list:
    """Solve and certify both closures, then normalise subalgebras.

    The subalgebra tasks are the rest of the paper's pipeline (symmetries,
    then their algebra, then its one-dimensional subalgebras).  They ride in
    this workload's long round rather than in a workload of their own: a
    few seconds of them, timed alone, spread more over the host's slow
    stretches than any other figure (see NOTES.md).
    """
    tasks = []
    for theory, lam, golden in CLOSURES:
        tasks += _closure_tasks(fs, theory, lam, golden, rng)
    return tasks + _subalgebra_tasks(fs, rng)


# -- reduction-check -----------------------------------------------------------

# Group parameter a of cases 4-6: small nonzero rationals.
A_VALUES = tuple(s * Fraction(p, q) for s in (-1, 1)
                 for p, q in ((1, 3), (1, 2), (2, 3), (1, 1), (3, 2), (2, 1)))


def catalog_pairs(fs) -> list:
    return [(theory, case) for theory in ("eckart", "israel-stewart")
            for case in fs.reduction.supported_cases(theory)]


def _pair_tasks(fs, theory, case, a):
    rd = fs.reduction
    state = {}
    label = f"{theory}-{case}"

    def reduce():
        rs = rd.reduced_system(case, theory, a_value=a)
        state["rs"] = rs
        ok = set(rs.rhs) == set(rs.states) and len(rs.states) == 4
        return ok, f"states {rs.states}", None

    def check():
        out = rd.symbolic_check_reduction(case, theory, a_value=a)
        nonzero = sum(1 for r in out["residuals"] if not r.is_zero())
        return nonzero == 0 and out["ok"], f"{nonzero} nonzero residuals", None

    def integrals():
        defects = rd.first_integral_defects(state["rs"])
        bad = sorted(n for n, d in defects.items() if not d.is_zero())
        return bool(defects) and not bad, f"nonzero defects: {bad}", None

    return [(f"reduce-{label}", reduce), (f"check-{label}", check),
            (f"integrals-{label}", integrals)]


def reduction_check(fs, rng) -> list:
    tasks = []
    for theory, case in catalog_pairs(fs):
        a = rng.choice(A_VALUES) if case in (4, 5, 6) else None
        tasks += _pair_tasks(fs, theory, case, a)
    return tasks


# -- stability-sweep -----------------------------------------------------------

# The critical study protocol (cli.CRITICAL_DEFAULTS): rtol 1e-8 and a
# blow-up threshold 1 - v^2 = 6e-2.
RTOL = 1e-8
BLOWUP_DELTA = 6e-2
# Accepted-step budget per trajectory.  Every swept trajectory needs at most
# a few hundred steps; only a start on the case-3 separatrix stalls (see
# NOTES.md), and the budget bounds what that stall costs.
MAX_STEPS = 500
# Cases 1 and 2 run to the study horizons in scaled time; the similarity
# cases run over a window (y0, span) of the similarity variable.  Case 5
# starts at y = 1 because y = 0 is a singular point of its reduction.
HORIZON = {1: 50.0, 2: 100.0}
WINDOW = {3: (0.0, 10.0), 4: (0.0, 10.0), 5: (1.0, 10.0), 6: (0.0, 10.0)}
STARTS_PER_PAIR = 40
# Case 3 is not drawn: about one seeded start in forty lands on its
# separatrix and stalls, so a seeded draw would make run time count stalls.
# A fixed grid plus one start on the separatrix keeps the stall in every run
# at a fixed cost.
CASE3_STARTS = tuple((v0, q0) for v0 in (0.15, 0.35, 0.55, 0.75, 0.9)
                     for q0 in (-0.45, -0.25, -0.05)) + ((0.508, -0.111),)
# Largest first-integral drift accepted on a trajectory that reaches the end
# of its window, relative to the larger of the integral and the largest state
# component.  Eckart case-2 starts that relax onto the sonic state grow rho
# and q to about 1e14 while the integrals stay of order one, so drift relative
# to the integral alone measures cancellation, not the integrator.
DRIFT_TOL = 1e-6
CRITICAL = (("israel-stewart", 1, 0.8785), ("eckart", 2, 0.6230))
BISECTION_TOL = 1e-3


def _latin_starts(rng, n) -> list:
    """n starts in v0 in (0.05, 0.95) x q0 in [-0.5, 0], one per row and
    column of an n x n grid, so every seed covers the box evenly."""
    cols = list(range(n))
    rng.shuffle(cols)
    return [(0.05 + 0.9 * (i + rng.random()) / n, -0.5 * (c + rng.random()) / n)
            for i, c in enumerate(cols)]


def _sweep_pair(fs, theory, case):
    rd, od, ex, fluid = fs.reduction, fs.odesolve, fs.expr, fs.fluid
    params = fluid.FluidParams(lam=Fraction(0 if theory == "eckart" else 1))
    rs = rd.reduced_system(case, theory)
    rhs = od.compile_rhs(rs, params)
    events = od.default_events(rs, params, blowup_delta=BLOWUP_DELTA)
    names = list(rs.first_integrals)
    integrals = ex.compile_exprs([rs.first_integrals[n] for n in names],
                                 [rs.independent] + list(rs.states))

    def start(v0, q0):
        psi0 = math.atanh(v0)
        if case in HORIZON:
            t0 = 0.0
            span = HORIZON[case] / od.scaled_time_factor(params, 1.0, psi0)
        else:
            t0, span = WINDOW[case]
        cfg = od.SolverConfig(span=span, rtol=RTOL, atol=RTOL * 1e-2,
                              max_step=1e9, max_steps=MAX_STEPS,
                              direction=rs.direction)
        u0 = [psi0, 1.0, 1.0, q0]
        tr = od.integrate(rhs, u0, cfg, events, t0=t0)
        cls = od.classify_trajectory(tr)
        t_end, u_end = tr.final()
        if not all(math.isfinite(v) for v in [t_end] + list(u_end)):
            return False, f"non-finite final state {u_end}", None
        if cls not in ("decaying", "blowing-up", "inconclusive"):
            return False, f"unknown class {cls}", None
        if tr.termination == "reached-end":
            before = integrals(t0, *u0)
            after = integrals(t_end, *u_end)
            scale = max(map(abs, u0 + list(u_end)))
            for n, a, b in zip(names, before, after):
                drift = abs(b - a) / max(abs(a), scale)
                if drift > DRIFT_TOL:
                    return False, f"{n} drifted by {drift:.3g}", None
        return True, f"{tr.termination}, {cls}", None

    return start


def _critical_task(fs, theory, case, expected):
    cli, od, fluid = fs.cli, fs.odesolve, fs.fluid
    d = cli.CRITICAL_DEFAULTS[case]
    params = fluid.FluidParams(lam=Fraction(0 if theory == "eckart" else 1))
    run = cli.critical_run_factory(case, theory, params, d["q0"], d["horizon"],
                                   d["blowup_delta"])

    def task():
        res = od.find_critical(run, 0.5, 0.9, tol=BISECTION_TOL)
        ok = abs(res.v_critical - expected) <= BISECTION_TOL
        return ok, f"v_c = {res.v_critical:.6f}", None

    return task


def stability_sweep(fs, rng) -> list:
    tasks = []
    for theory, case in catalog_pairs(fs):
        start = _sweep_pair(fs, theory, case)
        starts = CASE3_STARTS if case == 3 else _latin_starts(rng, STARTS_PER_PAIR)
        tasks += [(f"start-{theory}-{case}", lambda v=v0, q=q0, s=start: s(v, q))
                  for v0, q0 in starts]
    tasks += [(f"critical-{theory}-{case}", _critical_task(fs, theory, case, v))
              for theory, case, v in CRITICAL]
    rng.shuffle(tasks)
    return tasks


# -- subalgebras (the liealg part of symmetry-solve) ---------------------------

ELEMENTS = 120
# Exact-zero strata of the table algebras' reference families, as index sets
# of coefficients set to zero (V1, V2 translations; V3 dilatation; V4 field
# scaling).
STRATA = {
    "eckart": ((2,), (0, 1), (3,), (2, 3), (0, 1, 3)),
    "israel-stewart": ((2,), (0, 1), (0,)),
}
V1, V2, V3 = 0, 1, 2
NON_IDEMPOTENT = "normalize_element is not idempotent on the V3 = 0 stratum"


def _coefficients(rng, n) -> list:
    """n nonzero coefficients of distinct magnitudes in [0.1, 3.0]."""
    return [rng.choice((-1, 1)) * m / 1000 for m in rng.sample(range(100, 3001), n)]


def _normalize_task(fs, alg, w, trip):
    la = fs.liealg

    def task():
        first, _ = la.normalize_element(alg, w)
        second, _ = la.normalize_element(alg, first.coefficients)
        a, b = first.coefficients, second.coefficients
        lead = next((c for c in a if abs(c) > 1e-12), None)
        if lead is None or abs(abs(lead) - 1.0) > 1e-12:
            return False, f"leading coefficient {lead}", None
        ok, detail = trip()
        if not ok:
            return False, detail, None
        if max(abs(x - y) for x, y in zip(a, b)) > 1e-9 * max(1.0, *map(abs, a)):
            defect = NON_IDEMPOTENT if w[V3] == 0 else None
            return False, f"second pass {b} != {a}", defect
        return True, "", None

    return task


def _round_trip(fs, alg, i, eps, w):
    la = fs.liealg

    def trip():
        there = la.adjoint_action(alg, eps, i, w)
        back = la.adjoint_action(alg, -eps, i, there.coefficients).coefficients
        if all(isinstance(c, Fraction) for c in back):
            return list(back) == list(w), f"exact round trip gave {back}"
        err = max(abs(float(x) - float(y)) for x, y in zip(back, w))
        return err <= 1e-9 * max(1.0, *map(abs, w)), f"round trip error {err:.3g}"

    return trip


def _subalgebra_tasks(fs, rng) -> list:
    """ELEMENTS elements, the same mix for every seed; the seed draws values.

    Element k belongs to the Eckart table algebra when k is even and to the
    Israel-Stewart one when k is odd.  Elements with k % 4 >= 2 lie on a
    zero stratum, taken in turn; the rest are generic.  Each round trip runs
    on the three algebras in turn, through each generator in turn, so every
    seed exercises the exact, diagonal and expm paths equally often.  The
    Eckart elements on the V3 = 0 stratum come in pairs with V1 and V2
    swapped, so that exactly one of each pair has |V1| < |V2|, the case in
    which normalize_element's documented defect shows.
    """
    la = fs.liealg
    tables = {t: la.table_algebra(t) for t in STRATA}
    algebras = list(tables.values()) + [la.full_algebra()]
    # the expm path imports scipy on first use; let that happen here
    la.adjoint_action(algebras[-1], 0.5, algebras[-1].dim - 1, [1.0] * algebras[-1].dim)
    tasks = []
    on_stratum = {t: 0 for t in STRATA}
    mirror = None
    for k in range(ELEMENTS):
        theory = ("eckart", "israel-stewart")[k % 2]
        alg = tables[theory]
        w = _coefficients(rng, alg.dim)
        if k % 4 >= 2:
            strata = STRATA[theory]
            zeros = strata[on_stratum[theory] % len(strata)]
            on_stratum[theory] += 1
            for z in zeros:
                w[z] = 0.0
            if theory == "eckart" and zeros == (V3,):
                if mirror is None:
                    mirror = w
                else:
                    w = list(mirror)
                    w[V1], w[V2] = mirror[V2], mirror[V1]
                    mirror = None
        target = algebras[k % 3]
        i = (k // 3) % target.dim
        eps = _small_rational(rng)
        coords = [_small_rational(rng) for _ in range(target.dim)]
        trip = _round_trip(fs, target, i, eps, coords)
        tasks.append((f"normalize-{theory}", _normalize_task(fs, alg, w, trip)))
    return tasks


WORKLOADS = {
    "symmetry-solve": symmetry_solve,
    "reduction-check": reduction_check,
    "stability-sweep": stability_sweep,
}
