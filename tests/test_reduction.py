"""Invariants, reduced systems, and the symbolic verification of every
catalogued reduction."""

import dataclasses
import hashlib
import math
import random
import re
from fractions import Fraction

import pytest

from fluidsym import expr as ex, fluid, odesolve as od, reduction as rd, symmetry as sm


def test_dilatation_invariants():
    inv = rd._CATALOG[3].invariants(None)
    assert (inv.invariants["y"] - ex.sym("x") / ex.sym("t")).is_zero()
    assert (inv.invariants["alpha"] - ex.sym("n") * ex.sym("t")).is_zero()
    for e in inv.invariants.values():
        assert sm.v_dilation().apply(e).is_zero()


def test_traveling_frame_invariants():
    gen = sm.v_time() + sm.v_space().scale(ex.number(2))
    inv = rd._CATALOG[4].invariants(ex.number(2))
    y = inv.invariants["y"]
    assert (y - (ex.sym("x") - 2 * ex.sym("t"))).is_zero()
    assert gen.apply(y).is_zero()


def test_scaling_invariants():
    gen = sm.v_scaling() + sm.v_time() + sm.v_space().scale(ex.number(1))
    inv = rd._CATALOG[6].invariants(ex.number(1))
    assert gen.apply(inv.invariants["theta"]).is_zero()
    assert gen.apply(inv.invariants["sigma"]).is_zero()


def test_mixed_scaling_annihilation_corrected_and_stated():
    a = ex.sym("a")
    gen = sm.v_dilation() + sm.v_scaling().scale(a)
    rho, t, x, n = ex.syms("rho t x n")
    # the product n*x is invariant
    assert gen.apply(n * x).is_zero()
    # corrected density scaling: rho * t^-a
    assert gen.apply(rho * t ** (-a)).is_zero()
    # the stated variant rho * t^a is not annihilated: residual 2a rho t^a
    res = gen.apply(rho * t ** a)
    assert (res - 2 * a * rho * t ** a).is_zero()


def test_traveling_invariant_corrected_and_stated():
    a = ex.sym("a")
    gen = sm.v_time() + sm.v_space().scale(a)
    t, x = ex.sym("t"), ex.sym("x")
    assert gen.apply(x - a * t).is_zero()
    res = gen.apply(t - a * x)
    assert (res - (1 - a ** 2)).is_zero()  # vanishes only for a = +-1


def test_supported_case_lists():
    """supported_cases names the pairs the battery and the benchmark
    iterate; only a case outside the catalog or an unknown theory is
    refused."""
    assert rd.supported_cases("eckart") == (1, 2, 3, 4, 5, 6)
    assert rd.supported_cases("israel-stewart") == (1, 2)
    for theory in ("eckart", "israel-stewart"):
        with pytest.raises(rd.UnsupportedReductionError,
                           match="no reduction is catalogued for this combination"):
            rd.reduced_system(7, theory)
    for call in (lambda: rd.supported_cases("landau"),
                 lambda: rd.reduced_system(1, "landau")):
        with pytest.raises(rd.UnsupportedReductionError, match="unknown theory 'landau'"):
            call()


_ALL_PAIRS = [(theory, case) for theory in ("eckart", "israel-stewart")
              for case in sorted(rd._CATALOG)]

# The singular lines that Israel-Stewart cases 4 and 6 add at the default a:
# q/rho = 2/5 and theta = 2/5.
_RELAXING_SINGULAR = {4: "-(2/5)*rho*q^-1 + 1", 6: "1 - (2/5)*theta^-1"}


def _seeded_group_parameters(theory, case):
    """None (the default a) and, for a case that takes a, two seeded values."""
    if rd._CATALOG[case].default_a is None:
        return [None]
    rng = random.Random(f"{theory}-{case}")
    return [None] + [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(2, 9))
                     for _ in range(2)]


@pytest.mark.parametrize("theory, case_no", _ALL_PAIRS)
def test_symbolic_check_all_supported_reductions(theory, case_no):
    """Every catalog entry derives for both closures: the symbolic check is
    exact zero and every first integral is exact, at the default a and at
    two seeded values of a."""
    for a in _seeded_group_parameters(theory, case_no):
        rep = rd.symbolic_check_reduction(case_no, theory, a_value=a)
        assert rep["ok"], (a, [ex.to_text(r) for r in rep["residuals"] if not r.is_zero()])
        defects = rd.first_integral_defects(rep["system"])
        assert defects and all(v.is_zero() for v in defects.values()), a
    if theory == "israel-stewart" and case_no in _RELAXING_SINGULAR:
        rs = rd.reduced_system(case_no, theory)
        assert [ex.to_text(f) for f in rs.singular] == [_RELAXING_SINGULAR[case_no]]


def _sympy_value(sympy, e, point):
    """e read by sympy from its printed text and evaluated, every atom bound
    to its entry in point, a value or a sympy symbol (sympy alone would read
    beta as a function)."""
    text = ex.to_text(e).replace("^", "**")
    names = set(re.findall(r"[A-Za-z_]\w*", text)) - {"exp", "ln"}
    table = {"exp": sympy.exp, "ln": sympy.log, **{n: point[n] for n in names}}
    return sympy.sympify(text, locals=table)


@pytest.mark.parametrize("theory, case_no", _ALL_PAIRS)
def test_reductions_vanish_at_a_rational_point_under_sympy(theory, case_no):
    """An oracle outside the kernel: sympy reads the four substituted
    residuals, the right-hand sides and the first integrals as printed, and
    evaluates the residuals with each state jet replaced by its right-hand
    side at a seeded rational point, and so each integral's derivative
    along the flow, dI/d(independent) + sum_s dI/ds * rhs_s.  psi = ln r,
    r != 1, makes every exp(k*psi) rational, so each value must be exactly
    0."""
    sympy = pytest.importorskip("sympy")
    rs, res = rd._derivation(case_no, theory, None)
    rng = random.Random(f"oracle-{theory}-{case_no}")

    def rational():
        return sympy.Rational(rng.randint(1, 9), rng.randint(1, 9))

    point = {n: rational() for n in ("t", "x", "y", "k", "kappa", *rs.states[1:])}
    r = rational()
    while r == 1:  # psi = 0 would hide every sinh(psi)^2 term
        r = rational()
    point["psi"] = sympy.log(r)
    space = ex.JetSpace((rs.independent,), rs.states)
    jets = {space.jet(s, rs.independent): _sympy_value(sympy, rs.rhs[s], point)
            for s in rs.states}
    assert all(v.is_Rational for v in jets.values()), jets
    assert [_sympy_value(sympy, r, {**point, **jets}) for r in res] == [0] * 4
    symbols = {n: sympy.Symbol(n) for n in (rs.independent, *rs.states)}
    at_point = {symbols[n]: point[n] for n in symbols}
    for name, I in rs.first_integrals.items():
        e = _sympy_value(sympy, I, symbols)
        along_flow = sympy.diff(e, symbols[rs.independent]) + sum(
            sympy.diff(e, symbols[s]) * jets[space.jet(s, rs.independent)]
            for s in rs.states)
        assert along_flow.subs(at_point) == 0, name


@pytest.mark.parametrize("perturb", [
    lambda e: 2 * e,  # keeps the shared denominator
    lambda e: e + 1 / (1 + ex.sym("y")),  # gives this state its own denominator
], ids=["scaled", "shifted"])
def test_symbolic_check_detects_a_perturbed_right_hand_side(monkeypatch, perturb):
    rs, res = rd._derivation(5, "eckart", None)
    bad = dataclasses.replace(rs, rhs={**rs.rhs, "w": perturb(rs.rhs["w"])})
    monkeypatch.setattr(rd, "_derivation", lambda *args, **kwargs: (bad, res))
    rep = rd.symbolic_check_reduction(5, "eckart")
    assert not rep["ok"]
    assert any(not r.is_zero() for r in rep["residuals"])


def test_first_integrals_are_exact():
    for theory in ("eckart", "israel-stewart"):
        for case_no in rd.supported_cases(theory):
            rs = rd.reduced_system(case_no, theory)
            defects = rd.first_integral_defects(rs)
            assert all(v.is_zero() for v in defects.values()), (theory, case_no)


def test_case3_particle_relation():
    rs = rd.reduced_system(3, "eckart")
    I = rs.first_integrals["particle"]
    expect = ex.parse("alpha*(sinh(psi) + y*cosh(psi))")
    assert (I - expect).is_zero()


def test_case4_density_and_flat_energy():
    rs = rd.reduced_system(4, "eckart")  # default a = -1
    # the energy density is constant along the traveling profile
    assert rs.rhs["rho"].is_zero()
    # particle first integral is n*(sinh - cosh) = -n*exp(-psi), equivalent
    # to n proportional to exp(psi)
    I = rs.first_integrals["particle"]
    expect = -ex.sym("n") * ex.exp(-ex.sym("psi"))
    assert (I - expect).is_zero()


def test_case4_general_speed_has_dynamic_density():
    rs = rd.reduced_system(4, "eckart", a_value=Fraction(-2))
    assert not rs.rhs["rho"].is_zero()
    rep = rd.symbolic_check_reduction(4, "eckart", a_value=Fraction(-2))
    assert rep["ok"]


def test_case5_alternative_scaling_weight():
    rep = rd.symbolic_check_reduction(5, "eckart", a_value=Fraction(2))
    assert rep["ok"]


def test_singular_loci_are_reported(term_by_term):
    rs = rd.reduced_system(3, "eckart")
    assert rs.singular
    env = {"y": 1.0, "psi": 0.4, "alpha": 1.0, "rho": 1.0, "q": 0.0}
    # the locus includes the light-cone factor: at y = 1 some denominator
    # must vanish together with 1 - y^2
    vals = [term_by_term(s, env) for s in rs.singular]
    assert min(abs(v) for v in vals) > 0  # generic point off the locus
    # functional dependence on y present
    env2 = dict(env)
    env2["y"] = 0.5
    vals2 = [term_by_term(s, env2) for s in rs.singular]
    assert any(abs(a - b) > 1e-12 for a, b in zip(vals, vals2))


def test_singular_factors_are_never_constants():
    """A monomial denominator or determinant is nonzero wherever the right-hand
    sides are defined; its monic form is 1 and no guard is built for it."""
    runs = [(theory, case, None) for theory in ("eckart", "israel-stewart")
            for case in rd.supported_cases(theory)]
    runs += [("eckart", case, Fraction(a)) for case in (4, 5, 6) for a in (1, -1)]
    for theory, case, a in runs:
        rs = rd.reduced_system(case, theory, a_value=a)
        assert not any(s.is_rational() for s in rs.singular), (theory, case, a)


def test_right_hand_side_denominators_lie_on_the_singular_locus():
    """Cramer's rule divides by the determinant alone: every right-hand
    side's denominator, made monic, is a constant or the one singular
    factor, so the determinant gives the whole singular locus."""
    runs = [(theory, case, a) for theory in ("eckart", "israel-stewart")
            for case in rd.supported_cases(theory)
            for a in ([None] if rd._CATALOG[case].default_a is None else
                      [None] + [Fraction(v) for v in ("-2", "-1", "-2/3", "1/2", "1", "3")])]
    for theory, case, a in runs:
        rs = rd.reduced_system(case, theory, a_value=a)
        assert len(rs.singular) <= 1, (theory, case, a)
        for s, rhs in rs.rhs.items():
            den = ex.monic(ex.denominator(rhs))
            assert den.is_rational() or (den,) == rs.singular, (theory, case, a, s)


def test_residuals_have_no_denominator():
    """The jet solve and the symmetry condition read the residuals as they
    are: every division in them is by a monomial, which the kernel keeps as
    a negative power, so no denominator is ever left to clear."""
    for lam in (Fraction(0), Fraction(1)):
        for k, kappa in ((None, None), (Fraction(2), Fraction(3, 5))):
            sys = fluid.build_system(fluid.FluidParams(k=k, kappa=kappa, lam=lam))
            assert all(ex.denominator(r) == ex.ONE for r in sys.residuals)
    for lam in (Fraction(0), Fraction(1)):
        sys = fluid.build_system(fluid.FluidParams(k=None, kappa=None, lam=lam))
        for case in range(1, 7):
            entry = rd._CATALOG[case]
            group = [None] if entry.default_a is None else [
                ex.number(Fraction(a)) for a in (-1, Fraction(-2, 3), Fraction(1, 2), 3, 0)]
            for a in group:
                res, _ = rd._substituted_residuals(sys, case, a, entry.invariants(a))
                # t kept symbolic for the check, and set to inst_t for the solve
                if entry.inst_t is not None:
                    res += [ex.subs(r, {"t": ex.number(entry.inst_t)}) for r in res]
                assert all(ex.denominator(r) == ex.ONE for r in res), (lam, case, a)


def test_invariants_functionally_independent():
    """The exact Jacobian of the case-3 invariants has full rank 5."""
    rng = random.Random(123)
    inv = rd._CATALOG[3].invariants(ex.number(Fraction(1)))
    names = ["y", "psi", "alpha", "rho", "q"]
    base = ["t", "x", "psi", "n", "rho", "q"]
    jac = [[ex.diff(inv.invariants[nm], b) for b in base] for nm in names]
    for _ in range(5):
        point = {b: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for b in base}
        rows = [[ex.evaluate(d, point, {}) for d in row] for row in jac]
        _, pivots = ex.rref(rows, len(base))
        assert len(pivots) == len(names)


def test_reference_closed_form_values():
    params = fluid.FluidParams(lam=Fraction(0))
    b = 1.5
    C1 = b * b  # kappa = k = N0 = 1
    # at the ordinate where the inner argument reaches 1 the velocity is 0
    eta = math.atanh(1.0 / b) / b
    out = rd.closed_form_case4(params, C1=C1, C2=0.0, y=eta)
    assert out["v"] == pytest.approx(0.0, abs=1e-12)
    # unit coefficient: far field approaches v = 0, n = N0
    out = rd.closed_form_case4(params, C1=1.0, C2=0.0, y=40.0)
    assert out["v"] == pytest.approx(0.0, abs=1e-12)
    assert out["n"] == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ex.DomainError):
        rd.closed_form_case4(params, C1=-1.0, C2=0.0, y=1.0)
    with pytest.raises(ex.DomainError):
        rd.closed_form_case4(params, C1=1.0, C2=0.0, y=-2.0)


def test_reference_closed_form_residuals_document_defect():
    """The reference profile satisfies particle conservation exactly but
    leaves the energy-momentum residuals nonzero; the defect is intrinsic
    to the published formula, not to the solver (documented discrepancy)."""
    params = fluid.FluidParams(lam=Fraction(0))
    sys = fluid.build_system(params)
    out = rd.closed_form_case4(params, C1=1.0, C2=0.0, y=1.3)
    jets = {}
    for nm in ("psi", "n", "rho", "q"):
        jets[f"{nm}_t"] = out[f"{nm}_y"]
        jets[f"{nm}_x"] = out[f"{nm}_y"]
    st = fluid.FluidState(psi=out["psi"], n=out["n"], rho=out["rho"], q=out["q"])
    res = fluid.residual_at(sys, st, jets)
    assert abs(res[0]) < 1e-10          # particle conservation holds
    assert abs(res[1]) > 1e-3           # energy residual does not vanish
    assert abs(res[2]) > 1e-3           # momentum residual does not vanish


def test_machine_reduction_residuals_vanish_on_case4_flow():
    """States generated by the verified case-4 right-hand sides do satisfy
    the full system, unlike the reference formula."""
    params = fluid.FluidParams(lam=Fraction(0))
    sys = fluid.build_system(params)
    rs = rd.reduced_system(4, "eckart")
    from fluidsym import odesolve as od
    rhs = od.compile_rhs(rs, params)
    u = [0.4, 1.2, 1.0, -0.2]
    derivs = rhs(0.0, u)
    jets = {}
    for nm, d in zip(rs.states, derivs):
        jets[f"{nm}_t"] = d  # a = -1 travelling frame
        jets[f"{nm}_x"] = d
    st = fluid.FluidState(psi=u[0], n=u[1], rho=u[2], q=u[3])
    res = fluid.residual_at(sys, st, jets)
    assert max(abs(r) for r in res) < 1e-12


@pytest.mark.parametrize("theory, fixture", [
    ("eckart", "eckart_system_symbolic"),
    ("israel-stewart", "israel_stewart_system_symbolic")])
def test_translation_cases_match_the_quasilinear_forms(request, theory, fixture):
    """Cases 1 and 2 agree with the time and space forms of the full system
    with the other direction's jets set to zero."""
    sys = request.getfixturevalue(fixture)
    for case_no, form, other in ((1, fluid.quasilinear_time_form, fluid.SPACE_JETS),
                                 (2, fluid.quasilinear_space_form, fluid.TIME_JETS)):
        qf = form(sys)
        zero = {jet: ex.ZERO for jet in other}
        rs = rd.reduced_system(case_no, theory)
        for u in fluid.FIELD_NAMES:
            expect = ex.subs(qf[f"{u}_{rs.independent}"], zero)
            assert (rs.rhs[u] - expect).is_zero(), (case_no, u)
        assert (rs.determinant - ex.subs(qf["_det"], zero)).is_zero(), case_no


@pytest.mark.parametrize("case_no", sorted(rd._CATALOG))
def test_catalog_generator_and_partials_match_the_invariants(case_no):
    """At its default a, each entry's generator annihilates every invariant."""
    entry = rd._CATALOG[case_no]
    a = None if entry.default_a is None else ex.number(entry.default_a)
    inv = entry.invariants(a)
    for name, e in inv.invariants.items():
        assert inv.generator.apply(e).is_zero(), name


@pytest.mark.parametrize("case_no", sorted(rd._CATALOG))
def test_inverse_map_undoes_the_invariants(case_no):
    """Each field's inverse, with y and every state replaced by its
    invariant, is exactly that field, at the default a and at two seeded
    values of a; a field the entry does not list is its own state."""
    for a in _seeded_group_parameters("inverse", case_no):
        inv = rd._CATALOG[case_no].invariants(rd._group_parameter(case_no, a))
        for u in fluid.FIELD_NAMES:
            back = ex.subs(inv.inverse.get(u, ex.sym(u)), inv.invariants)
            assert (back - ex.sym(u)).is_zero(), (a, u)


# the group parameters a the benchmark draws for cases 4-6
_BENCHMARK_A = tuple(s * Fraction(p, q) for s in (-1, 1)
                     for p, q in ((1, 3), (1, 2), (2, 3), (1, 1), (3, 2), (2, 1)))
_REDUCED_RAW_SHA256 = "8da79059e4697f27cdb1d0254d0c891493506fef972a3179eb50b87d9ce2caad"


@pytest.fixture(scope="module")
def pinned_systems():
    """(theory, case, a, system) for the 44 pinned systems: the 8 shipped
    pairs at their default a, and cases 4-6 at each benchmark a."""
    return [(theory, case, a, rd.reduced_system(case, theory, a_value=a))
            for theory in ("eckart", "israel-stewart")
            for case in rd.supported_cases(theory)
            for a in (None,) + (_BENCHMARK_A if case in (4, 5, 6) else ())]


def test_reduced_system_raw_terms_are_pinned(pinned_systems, raw_terms):
    """Every right-hand side, determinant and singular factor of the 44
    systems is built term for term as before, in the same dict order."""
    h = hashlib.sha256()
    for theory, case, a, rs in pinned_systems:
        items = ([raw_terms(rs.rhs[s]) for s in rs.states]
                 + [raw_terms(rs.determinant)] + [raw_terms(f) for f in rs.singular])
        h.update(repr((theory, case, a, items)).encode())
    assert len(pinned_systems) == 44
    assert h.hexdigest() == _REDUCED_RAW_SHA256


def test_reduced_system_monomials_keep_their_atoms_sorted(pinned_systems,
                                                         atoms_sorted):
    """Every monomial of the 44 systems lists its atoms strictly increasing
    by sort key, which the monomial product's merge relies on."""
    for theory, case, a, rs in pinned_systems:
        exprs = list(rs.rhs.values()) + [rs.determinant] + list(rs.singular)
        assert all(atoms_sorted(e) for e in exprs), (theory, case, a)


_SUBSTITUTED_RAW_SHA256 = "4c6d8f8a54017736710e2793a30acce83dedd0e6bb4e6ba38a06fd1e50030742"


def test_substituted_residuals_raw_terms_are_pinned(pinned_systems, raw_terms):
    """The four residuals with the invariant ansatz substituted and t kept
    symbolic, which the symbolic check reads, are built term for term as
    before, in the same dict order, for the same 44 requests."""
    h = hashlib.sha256()
    for theory, case, a, _ in pinned_systems:
        _, res = rd._derivation(case, theory, a)
        h.update(repr((theory, case, a, [raw_terms(r) for r in res])).encode())
    assert h.hexdigest() == _SUBSTITUTED_RAW_SHA256


def test_symbolic_check_derives_once(monkeypatch):
    """One check builds the PDE system once and substitutes the invariant
    ansatz once: the jet solve and the check read the same residuals."""
    calls = {"build_system": 0, "ansatz": 0}

    def counted(key, f):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return f(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(fluid, "build_system", counted("build_system", fluid.build_system))
    monkeypatch.setattr(rd, "_substituted_residuals",
                        counted("ansatz", rd._substituted_residuals))
    assert rd.symbolic_check_reduction(5, "eckart")["ok"]
    assert calls == {"build_system": 1, "ansatz": 1}


_CLOSURES_RAW_SHA256 = "fbc5cf84df614d0d0755ae5d3b2f33ec0bbfc5d92a262081e58b6f68b7913a41"


def test_shared_system_is_built_once_and_never_changed(raw_terms):
    """Equal parameters give the one shared system, and no consumer changes
    it: after every shipped reduction, its symbolic check and its integral
    defects, and the symmetry solve of both closures, the residuals of both
    closures, at symbolic and at unit k and kappa, are built term for term
    as before, in the same dict order."""
    closures = [fluid.FluidParams(k=k, kappa=k, lam=Fraction(lam))
                for lam in (0, 1) for k in (None, Fraction(1))]

    def digest():
        h = hashlib.sha256()
        for p in closures:
            residuals = fluid.build_system(p).residuals
            h.update(repr((p, [raw_terms(r) for r in residuals])).encode())
        return h.hexdigest()

    for p in closures:
        assert fluid.build_system(p) is fluid.build_system(dataclasses.replace(p))
    assert digest() == _CLOSURES_RAW_SHA256
    for theory in ("eckart", "israel-stewart"):
        for case in rd.supported_cases(theory):
            rs = rd.reduced_system(case, theory)
            assert rd.symbolic_check_reduction(case, theory)["ok"]
            assert all(d.is_zero() for d in rd.first_integral_defects(rs).values())
    for lam in (0, 1):
        assert len(sm.solve_determining(Fraction(lam))) == 5
    assert digest() == _CLOSURES_RAW_SHA256


_BOUND_RAW_SHA256 = "5186d15a804c322d20eb57e9e8d9c10f6aa973cd821bc12d0215cb6f2cb2335b"


def test_parameter_bound_raw_terms_are_pinned(pinned_systems, raw_terms):
    """The right-hand sides and singular factors of the same 44 systems with
    numeric k and kappa bound, as the integrator compiles them, are built
    term for term as before, in the same dict order."""
    h = hashlib.sha256()
    for k, kappa in ((1, 1), (Fraction(1, 2), 2), (3, Fraction(3, 7))):
        for theory, case, a, rs in pinned_systems:
            params = fluid.FluidParams(k=Fraction(k), kappa=Fraction(kappa),
                                      lam=fluid.THEORY_LAM[theory])
            items = [raw_terms(od._bind_params(e, params))
                     for e in [rs.rhs[s] for s in rs.states] + list(rs.singular)]
            h.update(repr((k, kappa, theory, case, a, items)).encode())
    assert h.hexdigest() == _BOUND_RAW_SHA256


def _det(matrix):
    """Reference determinant: plain cofactor expansion along the first row,
    every minor expanded afresh."""
    if len(matrix) == 1:
        return matrix[0][0]
    total = ex.ZERO
    for j in range(len(matrix)):
        a = matrix[0][j]
        if a.is_zero():
            continue
        term = a * _det([row[:j] + row[j + 1:] for row in matrix[1:]])
        total = total + term if j % 2 == 0 else total - term
    return total


def _cramer(residuals, jets) -> tuple:
    """Reference solve: the determinant and each Cramer numerator expanded
    separately; returns (solution, det)."""
    parts = [ex.collect(r, jets) for r in residuals]
    mat = [[p.get(((j, 1),), ex.ZERO) for j in jets] for p in parts]
    rhs = [-p.get((), ex.ZERO) for p in parts]
    det = _det(mat)
    return {jet: _det([row[:j] + [rhs[i]] + row[j + 1:] for i, row in enumerate(mat)])
            / det for j, jet in enumerate(jets)}, det


def test_shared_minor_solve_matches_separate_expansions(raw_terms):
    """Differential test: sharing the Cramer minors changes no term and no
    dict order, for the 8 shipped pairs and both full time forms."""
    for theory in ("eckart", "israel-stewart"):
        lam = Fraction(theory == "israel-stewart")
        sys = fluid.build_system(fluid.FluidParams(k=None, kappa=None, lam=lam))
        qf = fluid.quasilinear_time_form(sys)
        ref_sol, ref_det = _cramer(sys.residuals, list(fluid.TIME_JETS))
        assert [raw_terms(qf[j]) for j in fluid.TIME_JETS] + [raw_terms(qf["_det"])] == \
            [raw_terms(ref_sol[j]) for j in fluid.TIME_JETS] + [raw_terms(ref_det)], theory
        for case in rd.supported_cases(theory):
            entry = rd._CATALOG[case]
            a = rd._group_parameter(case, None)
            res, jets = rd._substituted_residuals(sys, case, a, entry.invariants(a))
            if entry.inst_t is not None:
                res = [ex.subs(r, {"t": ex.number(entry.inst_t)}) for r in res]
            sol, det = fluid.solve_for_jets(res, list(jets.values()))
            ref_sol, ref_det = _cramer(res, list(jets.values()))
            assert list(sol) == list(ref_sol), (theory, case)
            assert [raw_terms(v) for v in sol.values()] + [raw_terms(det)] == \
                [raw_terms(v) for v in ref_sol.values()] + [raw_terms(ref_det)], (theory, case)


def _defects_term_by_term(rs) -> dict:
    """Reference: dI/dy + sum_s dI/ds * rhs_s, one addition per state."""
    out = {}
    for name, I in rs.first_integrals.items():
        ddy = ex.diff(I, rs.independent)
        for s in rs.states:
            dI = ex.diff(I, s)
            if not dI.is_zero():
                ddy = ddy + dI * rs.rhs[s]
        out[name] = ddy
    return out


@pytest.mark.parametrize("theory, case", [
    (theory, case) for theory in ("eckart", "israel-stewart")
    for case in rd.supported_cases(theory)])
def test_first_integral_defects_over_one_denominator(theory, case):
    """A perturbed integral has a nonzero defect, equivalent to the
    term-by-term sum; the catalogued integrals stay exact."""
    rs = rd.reduced_system(case, theory)
    bump = ex.sym(rs.states[1]) * ex.sym(rs.independent) + ex.sym(rs.states[3])
    perturbed = dataclasses.replace(rs, first_integrals={
        **rs.first_integrals,
        **{f"{name}+bump": I + bump for name, I in rs.first_integrals.items()}})
    got = rd.first_integral_defects(perturbed)
    ref = _defects_term_by_term(perturbed)
    assert list(got) == list(ref)
    for name, d in got.items():
        assert (d - ref[name]).is_zero(), name
        assert d.is_zero() == (name in rs.first_integrals), name
