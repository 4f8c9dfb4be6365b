"""Integrator quality, events, classification, and critical-velocity search."""

import dataclasses
import functools
import hashlib
import math
import random
import statistics
from fractions import Fraction

import pytest

from fluidsym import expr as ex, fluid, odesolve as od, reduction as rd


def test_exponential_decay_within_tolerance():
    cfg = od.SolverConfig(span=1.0, rtol=1e-8, atol=1e-10)
    tr = od.integrate(lambda t, u: [-u[0]], [1.0], cfg)
    assert tr.termination == "reached-end"
    assert tr.states[-1][0] == pytest.approx(0.3678794411714423, abs=2e-8)


def test_observed_convergence_order():
    order = od.convergence_order(lambda t, u: [-u[0]], [1.0], 1.0,
                                 [math.exp(-1.0)])
    assert order >= 3.9


def test_harmonic_oscillator_energy_drift():
    # at the accepted steps and at 200 dense samples
    for points in (0, 200):
        cfg = od.SolverConfig(span=20 * math.pi, rtol=1e-8, atol=1e-10,
                              max_step=1e9, dense_points=points)
        tr = od.integrate(lambda t, u: [u[1], -u[0]], [1.0, 0.0], cfg)
        drift = max(abs(0.5 * (s[0] ** 2 + s[1] ** 2) - 0.5)
                    for s in tr.states)
        assert drift < 1e-6


def test_determinism_bit_identical():
    cfg = od.SolverConfig(span=3.0, rtol=1e-7, atol=1e-9)
    rhs = lambda t, u: [u[1], -math.sin(u[0])]
    tr1 = od.integrate(rhs, [1.0, 0.2], cfg)
    tr2 = od.integrate(rhs, [1.0, 0.2], cfg)
    assert tr1.ts == tr2.ts
    assert tr1.states == tr2.states


def test_event_bracketing_width():
    # crossing of u = 1/2 during exponential decay at t = ln 2
    delta = 1e-6
    ev = {"half": lambda t, u: u[0] - 0.5}
    cfg = od.SolverConfig(span=2.0, rtol=1e-9, atol=1e-12)
    tr = od.integrate(lambda t, u: [-u[0]], [1.0], cfg, ev)
    assert tr.termination == "event"
    assert tr.event_name == "half"
    t_event = tr.ts[-1]
    assert abs(t_event - math.log(2.0)) < 2 * delta
    # guard changed sign across the final bracket
    assert tr.states[-1][0] - 0.5 <= 0


def test_guards_crossing_in_one_step_fire_in_mapping_order():
    """Two guards cross zero inside the same accepted step: the event is the
    one that comes first in the mapping, whichever crosses first in t."""
    cfg = od.SolverConfig(span=2.0, rtol=1e-3, atol=1e-6, max_step=1e9)
    decay = lambda t, u: [-u[0]]
    guards = {"early": lambda t, u: u[0] - 0.5001, "late": lambda t, u: u[0] - 0.5}
    alone = {name: od.integrate(decay, [1.0], cfg, {name: g})
             for name, g in guards.items()}
    # the guards do not change the steps, so both crossings lie in one step
    assert alone["early"].n_steps == alone["late"].n_steps
    assert alone["early"].ts[-1] < alone["late"].ts[-1]
    for order in (("early", "late"), ("late", "early")):
        tr = od.integrate(decay, [1.0], cfg, {name: guards[name] for name in order})
        assert tr.termination == "event" and tr.event_name == order[0]
        assert tr.ts[-1] == alone[order[0]].ts[-1]


def test_step_failure_reported_not_raised():
    # finite-time singularity u' = u^2 from u0 = 1 blows at t = 1
    cfg = od.SolverConfig(span=2.0, rtol=1e-8, atol=1e-10, max_step=1e9)
    tr = od.integrate(lambda t, u: [u[0] ** 2], [1.0], cfg)
    assert tr.termination == "step-failure"
    assert tr.ts[-1] < 1.01


def test_a_failed_run_ends_with_a_sample_at_its_last_accepted_state():
    """A step failure or an exhausted budget appends the state where the
    integrator stopped, so the last sample is not the last grid point."""
    def f(t, u):  # undefined once u > 0, which it becomes after t = 1/2
        return [math.nan if u[0] > 0.0 else 0.0 if t < 0.5 else 1.0]

    cfg = od.SolverConfig(span=2.0, max_step=1e9, dense_points=2)
    tr = od.integrate(f, [0.0], cfg)
    assert tr.termination == "step-failure" and len(tr.ts) == 2
    assert tr.ts[-1] == pytest.approx(0.5, abs=1e-3) and tr.states[-1] == [0.0]
    tr = od.integrate(lambda t, u: [-u[0]], [1.0],
                      dataclasses.replace(cfg, max_steps=3))
    assert (tr.termination, tr.n_steps, len(tr.ts)) == ("step-failure", 3, 2)
    assert 0.0 < tr.ts[-1] < 1.0
    assert tr.states[-1][0] == pytest.approx(math.exp(-tr.ts[-1]), rel=1e-8)


@pytest.mark.parametrize("field, value", [
    ("rtol", math.nan), ("atol", math.inf), ("max_step", -1.0), ("max_step", math.inf),
    ("span", 0.0), ("span", math.nan), ("dense_points", -5)])
def test_solver_config_rejects_non_finite_or_degenerate_settings(field, value):
    # a nan rtol made every error norm 0 (every step accepted); a zero
    # max_step would take max_steps zero-length steps before failing; a
    # negative dense_points was read as one sample at the end
    with pytest.raises(ValueError, match=field):
        od.SolverConfig(**{field: value})


@pytest.mark.parametrize("switch_on", [0.5, 1.7])
def test_nan_error_estimate_rejects_the_step(switch_on):
    # y' switches from 0 to 1 at t = switch_on, and the derivative is NaN once
    # y > 0.  A step across the switch can end at a finite u5 whose stage 7,
    # f(t + h, u5), is NaN; that step must be rejected, not accepted with a
    # NaN error estimate (which put NaN dense samples into the trajectory).
    def f(t, u):
        if u[0] > 0.0:
            return [math.nan]
        return [0.0 if t < switch_on else 1.0]

    tr = od.integrate(f, [0.0], od.SolverConfig(span=4.0, max_step=1e9))
    assert tr.termination == "step-failure"
    assert all(s[0] <= 0.0 for s in tr.states)
    assert tr.ts[-1] == pytest.approx(switch_on, abs=0.05)


def _row_sums(k, u, h, row):
    """u[m] plus (h * a) * k[j][m] over the entries j: a of row in stage
    order; u = None starts the sums from 0.0 and uses the bare a."""
    acc = list(u) if u is not None else [0.0] * len(k[0])
    for j in sorted(row):
        c = h * row[j] if u is not None else row[j]
        for m in range(len(acc)):
            acc[m] += c * k[j][m]
    return acc


def _tableau_loop_step(f, t, u, h, k1, atol, rtol):
    """The DOP853 step as a loop over the tableau: the reference of the
    generated step."""
    ks = [k1]
    for i in range(1, 12):
        ks.append(f(t + od._C[i] * h, _row_sums(ks, u, h, od._A[i])))
    u_new = _row_sums(ks, u, h, od._A[12])
    ks.append(f(t + h, u_new))
    e5, e3 = (_row_sums(ks, None, h, row) for row in (od._E5, od._E3))
    x5 = x3 = 0.0
    for m in range(len(u)):
        sc = atol + rtol * max(abs(u[m]), abs(u_new[m]))
        x5 = max(x5, abs(e5[m]) / sc)
        x3 = max(x3, abs(e3[m]) / sc)
    den = x5 * x5 + 0.01 * x3 * x3
    norm = abs(h) * x5 * x5 / math.sqrt(den) if den > 0.0 else 0.0
    return u_new, norm, ks


def _tableau_loop_extension(f, t, u, u_new, ks, h):
    """The continuous extension and its evaluation as loops over the
    tableau and the components: the reference of the generated ones."""
    ks = list(ks)
    for i in range(13, 16):
        ks.append(f(t + od._C[i] * h, _row_sums(ks, u, h, od._A[i])))
    r1 = [b - a for a, b in zip(u, u_new)]
    r2 = [h * p - d for p, d in zip(ks[0], r1)]
    r3 = [d - h * q - c for d, q, c in zip(r1, ks[12], r2)]
    rs = [list(u), r1, r2, r3]
    for row in od._D:
        rs.append(_row_sums(ks, [0.0] * len(u), h, row))

    def dense(theta):
        out = []
        for m in range(len(u)):
            y = rs[7][m]
            for i in range(6, -1, -1):
                y = rs[i][m] + (theta if i % 2 == 0 else 1.0 - theta) * y
            out.append(y)
        return out

    return [x for r in rs for x in r], dense


def _random_system(rng, n):
    w = [rng.uniform(-2.0, 2.0) for _ in range(n)]

    def f(t, u):
        return [math.sin(t * w[m] + u[m]) - u[(m + 1) % n] ** 2
                + math.exp(-u[m - 1] * u[m - 1]) for m in range(n)]

    return f


def _bits(values):
    return [float(v).hex() for v in values]


def test_generated_step_matches_the_tableau_loop_bit_for_bit():
    rng = random.Random(20261018)
    for n in range(1, 7):
        step = od._step_functions(n)[0]
        f = _random_system(rng, n)
        for _ in range(40):
            t = rng.uniform(-5.0, 5.0)
            h = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6.0, 0.0)
            u = [rng.uniform(-2.0, 2.0) for _ in range(n)]
            k1 = [rng.uniform(-3.0, 3.0) for _ in range(n)]
            atol, rtol = 10.0 ** rng.uniform(-12, -6), 10.0 ** rng.uniform(-10, -4)
            u_new, norm, ks = step(f, t, u, h, k1, atol, rtol)
            ref_u, ref_norm, ref_ks = _tableau_loop_step(f, t, u, h, k1, atol, rtol)
            assert _bits(u_new) == _bits(ref_u)
            assert [_bits(k) for k in ks] == [_bits(k) for k in ref_ks]
            assert norm.hex() == ref_norm.hex()
            # the last stage is the derivative at the step's end
            assert _bits(ks[12]) == _bits(f(t + h, u_new))


def test_generated_extension_matches_the_tableau_loop_bit_for_bit():
    rng = random.Random(20261019)
    for n in range(1, 7):
        step, extend, dense = od._step_functions(n)
        f = _random_system(rng, n)
        for _ in range(40):
            t = rng.uniform(-5.0, 5.0)
            h = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6.0, 0.0)
            u = [rng.uniform(-2.0, 2.0) for _ in range(n)]
            u_new, _, ks = step(f, t, u, h, f(t, u), 1.0, 1.0)
            r = extend(f, t, u, u_new, ks, h)
            ref_r, ref_dense = _tableau_loop_extension(f, t, u, u_new, ks, h)
            assert _bits(r) == _bits(ref_r)
            thetas = (0.0, 1.0, rng.random())
            out = dense(r, thetas)
            assert len(out) == 3 and all(type(y) is list for y in out)
            assert [_bits(y) for y in out] == [_bits(ref_dense(th)) for th in thetas]


def test_an_extension_that_is_not_finite_is_none():
    _, extend, _ = od._step_functions(1)
    ks = [[1.0]] * 13
    assert extend(lambda t, u: [math.nan], 0.0, [0.0], [1.0], ks, 1.0) is None


def test_tableau_sums():
    """c_i = sum_j a_ij for every stage, the weights b sum to 1 and
    integrate t^q exactly for q <= 7 (order 8), and the two error-weight
    rows and each dense-output row sum to 0, so that a mistyped literal
    fails."""
    assert len(od._A) == len(od._C) == 16
    for c, row in zip(od._C, od._A):
        assert abs(sum(row.values()) - c) <= 1e-14
    b = od._A[12]
    assert abs(sum(b.values()) - 1.0) <= 1e-14
    for q in range(1, 8):
        assert abs(sum(w * od._C[j] ** q for j, w in b.items()) - 1 / (q + 1)) <= 1e-14
    for row in (od._E5, od._E3):
        assert abs(sum(row.values())) <= 1e-14
    for row in od._D:
        assert abs(sum(row.values())) <= 1e-14 * sum(map(abs, row.values()))


def test_dense_output_is_exact_for_polynomials_of_degree_seven():
    """The continuous extension has order 7: on u' = p(t) with deg p <= 6
    it reproduces the exact solution inside the step to roundoff."""
    coeffs = (0.3, -1.0, 2.0, 0.5, -0.25, 1.5, -0.75)

    def p(t, u):
        return [sum(c * t ** i for i, c in enumerate(coeffs))]

    def exact(t):
        return sum(c * t ** (i + 1) / (i + 1) for i, c in enumerate(coeffs))

    step, extend, dense = od._step_functions(1)
    t, h = 0.2, 0.7
    u = [exact(t)]
    u_new, _, ks = step(p, t, u, h, p(t, u), 1.0, 1.0)
    r = extend(p, t, u, u_new, ks, h)
    thetas = (0.0, 0.125, 0.3, 0.5, 0.77, 1.0)
    for theta, y in zip(thetas, dense(r, thetas)):
        assert y[0] == pytest.approx(exact(t + theta * h), abs=1e-14)


@pytest.mark.parametrize("rhs, u0", [
    (lambda t, u: [-u[0], 5.0], [1.0]),
    (lambda t, u: [-u[0]], [1.0, 2.0]),
])
def test_a_right_hand_side_of_the_wrong_length_raises(rhs, u0):
    with pytest.raises(TypeError, match=f"state of size {len(u0)}"):
        od.integrate(rhs, u0, od.SolverConfig(span=1.0))


@pytest.mark.parametrize("u0", [[0.3, 1.0, 1.0], [0.3, 1.0, 1.0, 0.1, 0.0]])
def test_a_start_of_the_wrong_length_for_a_compiled_rhs_raises(u0):
    """The generated function would raise ValueError from its unpack, which
    integrate would end as a silent step failure."""
    rhs = _case1_rhs("eckart")[2]
    with pytest.raises(TypeError, match=f"rhs of size 4 for a state of size {len(u0)}"):
        od.integrate(rhs, u0, od.SolverConfig(span=1.0))


@pytest.mark.parametrize("rhs, u0", [
    (lambda t, u: [-u[0], 5.0], [1.0]),
    (lambda t, u: [-u[0]], [1.0, 2.0]),
    (None, [0.3, 1.0, 1.0]),
])
def test_fixed_step_integrate_checks_lengths(rhs, u0):
    """A right-hand side of the wrong length, and (None) a start of the
    wrong length for a compiled one, raise TypeError, not ValueError."""
    rhs = rhs or _case1_rhs("eckart")[2]
    with pytest.raises(TypeError, match=f"state of size {len(u0)}"):
        od.fixed_step_integrate(rhs, u0, 0.0, 0.5, 4)


def test_compile_rhs_returns_the_generated_function():
    rs, _, rhs = _case1_rhs("eckart")
    assert rhs.__closure__ is None and rhs.__code__.co_argcount == 2
    u = [0.3, 1.1, 0.9, -0.2]
    assert rhs(0.5, u) == rhs(0.5, tuple(u))
    assert len(rhs(0.5, u)) == len(rs.states)


def _counted(rhs):
    def f(t, u):
        f.calls += 1
        return rhs(t, u)

    f.calls = 0
    return f


@pytest.mark.parametrize("rhs, u0, ev", [
    (lambda t, u: [u[1], -u[0]], [1.0, 0.0], {}),
    (lambda t, u: [-u[0]], [1.0], {"half": lambda t, u: u[0] - 0.5}),
    (lambda t, u: [u[0] * u[0]], [1.0], {}),
])
def test_each_attempted_step_evaluates_the_rhs_twelve_times(rhs, u0, ev):
    """Stage 1 of a step is stage 13 of the step before, so an attempt costs
    12 evaluations; the start costs 2 (f and the starting step's trial),
    and each accepted step that samples or locates an event 3 more.  With
    one sample (at the end) only a run that reaches the end or an event
    extends a step; with 10^4 samples every accepted step does."""
    cfg = od.SolverConfig(span=2.0, rtol=1e-8, atol=1e-10, max_step=1e9)
    for points in (1, 10 ** 4):
        f = _counted(rhs)
        tr = od.integrate(f, u0, dataclasses.replace(cfg, dense_points=points), ev)
        assert tr.n_steps > 0
        if points == 1:
            extended = int(tr.termination != "step-failure")
        elif tr.termination == "step-failure":
            continue  # steps near the blow-up are shorter than the spacing
        else:
            extended = tr.n_steps
        assert f.calls == 2 + 12 * (tr.n_steps + tr.n_rejected) + 3 * extended
    f = _counted(rhs)
    od.fixed_step_integrate(f, u0, 0.0, 0.5, 16)
    assert f.calls == 1 + 12 * 16


def test_dense_output_accuracy():
    # the dense output is DOP853's 7th-order continuous extension; with the
    # step clamped its error sits well below the sampling needs
    cfg = od.SolverConfig(span=1.0, rtol=1e-9, atol=1e-12, dense_points=97,
                          max_step=0.05)
    tr = od.integrate(lambda t, u: [-u[0]], [1.0], cfg)
    for t, s in zip(tr.ts, tr.states):
        assert abs(s[0] - math.exp(-t)) < 1e-7


# Accuracy harness: four seeded starts of every catalogued pair under the
# stability study's protocol (blow-up threshold 6e-2, a 500-step budget),
# compared sample by sample with the same integrator at rtol 1e-13.  Errors
# are in tolerance units |x - x_ref| / (atol + rtol |x_ref|).
_HARNESS_RTOL = 1e-8
# Largest median over a pair's starts, and largest single error, in units.
# DOP853's extension reads medians 0.2-8.8 and at most 62; the cubic Hermite
# interpolant over Dormand-Prince 5(4) steps read medians 19-715 and up to
# 1.5e3, and over DOP853 steps medians 5e3-4.6e4.
_MEDIAN_UNITS, _WORST_UNITS = 15.0, 100.0


def _harness_runs(rtol, budget=500):
    rng = random.Random(1530)
    runs = []
    for theory, case in _LIBRARY_PAIRS:
        params = fluid.FluidParams(lam=Fraction(0 if theory == "eckart" else 1))
        rs = rd.reduced_system(case, theory)
        rhs = od.compile_rhs(rs, params)
        ev = od.default_events(rs, params, blowup_delta=6e-2)
        for _ in range(4):
            psi0, q0 = math.atanh(rng.uniform(0.05, 0.95)), rng.uniform(-0.5, 0.0)
            if case in _LIBRARY_HORIZON:
                t0 = 0.0
                span = (_LIBRARY_HORIZON[case]
                        / od.scaled_time_factor(params, 1.0, psi0))
            else:
                t0, span = _LIBRARY_WINDOW[case]
            cfg = od.SolverConfig(span=span, rtol=rtol, atol=rtol * 1e-2,
                                  max_step=1e9, max_steps=budget,
                                  direction=rs.direction, dense_points=200)
            tr = od.integrate(rhs, [psi0, 1.0, 1.0, q0], cfg, ev, t0)
            runs.append(((theory, case), rs, cfg, tr))
    return runs


@functools.lru_cache(maxsize=None)
def _harness_reference():
    return tuple(tr for *_, tr in _harness_runs(1e-13, budget=20_000))


def _harness_errors() -> dict:
    """pair -> the largest error of each start, over the samples both runs
    share (the last point of either run excluded: an event's location
    moves with the tolerance) and the end state where both reach it."""
    per = {}
    for (pair, _, cfg, tr), ref in zip(_harness_runs(_HARNESS_RTOL),
                                       _harness_reference()):
        m = min(len(tr.ts), len(ref.ts)) - 1
        assert tr.ts[:m] == ref.ts[:m]
        pairs = list(zip(tr.states[1:m], ref.states[1:m]))
        if tr.termination == ref.termination == "reached-end":
            pairs.append((tr.states[-1], ref.states[-1]))
        per.setdefault(pair, []).append(max(
            [0.0] + [abs(a - b) / (cfg.atol + cfg.rtol * abs(b))
                     for x, y in pairs for a, b in zip(x, y)]))
    return per


def _harness_violations(per: dict) -> list:
    return [pair for pair, errs in per.items()
            if statistics.median(errs) > _MEDIAN_UNITS or max(errs) > _WORST_UNITS]


def test_dense_samples_match_a_tight_tolerance_reference():
    per = _harness_errors()
    assert len(per) == len(_LIBRARY_PAIRS)
    assert _harness_violations(per) == [], per


def test_the_harness_rejects_cubic_hermite_over_dop853_steps(monkeypatch):
    """The same steps with the cubic Hermite interpolant of the step's end
    values and derivatives as dense output fail the bound on every pair."""
    _harness_reference()
    step = od._step_functions(4)[0]

    def hermite_extend(f, t, u, v, ks, h):
        return u, v, ks[0], ks[12], h

    def hermite(r, thetas):
        u, v, p, q, h = r
        return [[a + h * th * dp + th * th * (3.0 * (b - a) - h * (2.0 * dp + dq))
                 + th ** 3 * (-2.0 * (b - a) + h * (dp + dq))
                 for a, b, dp, dq in zip(u, v, p, q)] for th in thetas]

    monkeypatch.setitem(od._GENERATED, 4, (step, hermite_extend, hermite))
    per = _harness_errors()
    assert sorted(_harness_violations(per)) == sorted(_LIBRARY_PAIRS), per


def test_first_integrals_of_cases_1_and_2_drift_below_the_tolerance():
    """Every sample of the harness runs of cases 1 and 2 keeps each exact
    first integral to rtol, relative to the larger of the integral and the
    largest state component."""
    for (_, case), rs, cfg, tr in _harness_runs(_HARNESS_RTOL):
        if case not in (1, 2):
            continue
        fns = ex.compile_exprs(list(rs.first_integrals.values()),
                               [rs.independent] + list(rs.states))
        start = fns(tr.ts[0], *tr.states[0])
        for t, s in zip(tr.ts, tr.states):
            scale = max(map(abs, tr.states[0] + s))
            for a, b in zip(start, fns(t, *s)):
                assert abs(b - a) <= cfg.rtol * max(abs(a), scale)


def test_predictive_control_rejects_few_steps_on_case4_blowups():
    """On 40 seeded Eckart case-4 starts, which all blow up, the error grows
    about tenfold per step at a fixed h; the predictive controller shrinks h
    ahead of it and rejects 52 attempts against 1,032 accepted steps, where
    a controller on the current error alone rejected 1,018 against 1,059."""
    params = fluid.FluidParams(lam=Fraction(0))
    rs = rd.reduced_system(4, "eckart")
    rhs = od.compile_rhs(rs, params)
    ev = od.default_events(rs, params, blowup_delta=6e-2)
    cfg = od.SolverConfig(span=10.0, rtol=1e-8, atol=1e-10, max_step=1e9,
                          max_steps=500, direction=rs.direction)
    rng = random.Random(2601)
    accepted = rejected = 0
    for i in range(40):
        v0 = 0.05 + 0.9 * (i + rng.random()) / 40
        tr = od.integrate(rhs, [math.atanh(v0), 1.0, 1.0, -0.5 * rng.random()],
                          cfg, ev)
        assert od.classify_trajectory(tr) == "blowing-up"
        accepted += tr.n_steps
        rejected += tr.n_rejected
    assert rejected <= 0.1 * accepted, (rejected, accepted)


def _case1_rhs(theory):
    lam = Fraction(0) if theory == "eckart" else Fraction(1)
    params = fluid.FluidParams(lam=lam)
    rs = rd.reduced_system(1, theory)
    return rs, params, od.compile_rhs(rs, params)


def test_homogeneous_conservation_along_trajectory():
    rs, params, rhs = _case1_rhs("eckart")
    psi0 = math.atanh(0.4)
    names = ["particle", "energy_flux", "momentum_flux"]
    fns = ex.compile_exprs([rs.first_integrals[n] for n in names],
                           ["psi", "n", "rho", "q"])
    # at the accepted steps and at 200 dense samples
    for points in (0, 200):
        cfg = od.SolverConfig(span=2.0, rtol=1e-10, atol=1e-12, max_step=0.02,
                              dense_points=points)
        tr = od.integrate(rhs, [psi0, 1.0, 1.0, -0.05], cfg)
        ref = fns(*tr.states[0])
        for s in tr.states:
            vals = fns(*s)
            for a, b in zip(ref, vals):
                assert abs(a - b) <= 1e-8 * max(1.0, abs(a))


def test_blowup_classification_fires_event():
    rs, params, rhs = _case1_rhs("eckart")
    psi0 = math.atanh(0.5)
    fac = od.scaled_time_factor(params, 1.0, psi0)
    cfg = od.SolverConfig(span=50.0 / fac, rtol=1e-8, atol=1e-10, max_step=1e9)
    ev = od.default_events(rs, params, blowup_delta=6e-2)
    tr = od.integrate(rhs, [psi0, 1.0, 1.0, -0.1], cfg, ev)
    assert od.classify_trajectory(tr) == "blowing-up"
    assert tr.event_name == "v-blowup"


def test_decaying_classification():
    rs, params, rhs = _case1_rhs("israel-stewart")
    psi0 = math.atanh(0.3)
    fac = od.scaled_time_factor(params, 1.0, psi0)
    cfg = od.SolverConfig(span=50.0 / fac, rtol=1e-8, atol=1e-10, max_step=1e9)
    ev = od.default_events(rs, params, blowup_delta=6e-2)
    tr = od.integrate(rhs, [psi0, 1.0, 1.0, -0.1], cfg, ev)
    assert od.classify_trajectory(tr) == "decaying"


def test_the_similarity_flow_crosses_the_light_cone():
    """README Finding 6, in criterion 9's set-up run on to y = 50: the
    light cone y = 1 is no singular point of Eckart case 3 (the singular
    factor reads exactly 16 there), the fast starts cross it and reach the
    end, and the slow starts end in the mirror blow-up v -> -1 before it."""
    params = fluid.FluidParams(lam=Fraction(0))
    rs = rd.reduced_system(3, "eckart")
    assert ex.subs(rs.singular[0], {"y": ex.ONE}) == ex.number(16)
    rhs = od.compile_rhs(rs, params)
    ev = od.default_events(rs, params, blowup_delta=6e-2)
    cfg = od.SolverConfig(span=49.9, rtol=1e-9, atol=1e-11, max_step=1e9,
                          dense_points=300, max_steps=400_000)
    ends = {}
    for v0 in (0.3, 0.5, 0.7, 0.85, 0.9, 0.95):
        tr = od.integrate(rhs, [math.atanh(v0), 1.0, 1.0, 0.0], cfg, ev, t0=0.1)
        ends[v0] = (tr.termination, tr.event_name, round(tr.ts[-1], 4),
                    round(math.tanh(tr.states[-1][0]), 4))
    assert ends == {0.3: ("event", "v-blowup", 0.9803, -0.9695),
                    0.5: ("event", "v-blowup", 0.9843, -0.9695),
                    0.7: ("reached-end", None, 50.0, 0.6048),
                    0.85: ("reached-end", None, 50.0, 0.8223),
                    0.9: ("reached-end", None, 50.0, 0.887),
                    0.95: ("reached-end", None, 50.0, 0.9465)}


def test_empty_trajectory_inconclusive():
    tr = od.Trajectory(ts=[0.0], states=[[0.1, 1, 1, 0]],
                       termination="reached-end")
    assert od.classify_trajectory(tr) == "inconclusive"


def _case4_exact_constant(u_val, du_val, m):
    """The separable traveling-wave flow obeys u*u' = m*u - 2C with
    u = exp(-2 psi); C is fixed by initial data and G(u) - y is constant
    along exact solutions."""
    C = (m * u_val - u_val * du_val) / 2.0
    return C


def test_case4_quadrature_first_integral():
    """Independent oracle: the traveling-wave reduction has an exact
    quadrature; the integrator must follow it to tolerance."""
    params = fluid.FluidParams(lam=Fraction(0))
    rs = rd.reduced_system(4, "eckart")
    rhs = od.compile_rhs(rs, params)
    psi0, n0, rho0, q0 = 0.3, 1.0, 1.0, 0.1
    N0 = n0 * math.exp(-psi0)
    m = 2.0 * 1.0 * N0 / 1.0  # 2 k N0 / kappa
    # d(u)/dy from the compiled right-hand side
    d = rhs(0.0, [psi0, n0, rho0, q0])
    u0 = math.exp(-2 * psi0)
    du0 = -2.0 * u0 * d[0]
    C = _case4_exact_constant(u0, du0, m)

    def G(u):
        return u / m + (2 * C / m ** 2) * math.log(abs(m * u - 2 * C))

    ref = G(u0)
    # at the accepted steps and at 200 dense samples
    for points in (0, 200):
        cfg = od.SolverConfig(span=3.0, rtol=1e-10, atol=1e-12, max_step=1e9,
                              dense_points=points)
        tr = od.integrate(rhs, [psi0, n0, rho0, q0], cfg)
        assert tr.termination == "reached-end"
        for t, s in zip(tr.ts, tr.states):
            u = math.exp(-2 * s[0])
            assert abs(G(u) - t - ref) < 1e-7


def test_tolerance_monotonicity_against_quadrature():
    params = fluid.FluidParams(lam=Fraction(0))
    rs = rd.reduced_system(4, "eckart")
    rhs = od.compile_rhs(rs, params)
    psi0, n0, rho0, q0 = 0.3, 1.0, 1.0, 0.1
    N0 = n0 * math.exp(-psi0)
    m = 2.0 * N0
    d = rhs(0.0, [psi0, n0, rho0, q0])
    u0 = math.exp(-2 * psi0)
    C = _case4_exact_constant(u0, -2.0 * u0 * d[0], m)

    def defect(rtol, points):
        cfg = od.SolverConfig(span=3.0, rtol=rtol, atol=rtol * 1e-2,
                              max_step=1e9, dense_points=points)
        tr = od.integrate(rhs, [psi0, n0, rho0, q0], cfg)
        ref = u0 / m + (2 * C / m ** 2) * math.log(abs(m * u0 - 2 * C))
        worst = 0.0
        for t, s in zip(tr.ts, tr.states):
            u = math.exp(-2 * s[0])
            g = u / m + (2 * C / m ** 2) * math.log(abs(m * u - 2 * C))
            worst = max(worst, abs(g - t - ref))
        return worst

    # at the accepted steps and at 200 dense samples
    for points in (0, 200):
        errs = [defect(rt, points) for rt in (1e-6, 1e-7, 1e-8, 1e-9)]
        for a, b in zip(errs, errs[1:]):
            assert b <= a * 1.05  # tightening never increases the defect


def test_self_convergence_under_tolerance_tightening():
    rs, params, rhs = _case1_rhs("eckart")
    psi0 = math.atanh(0.5)
    results = {}
    for rtol in (1e-6, 1e-7, 1e-8):
        cfg = od.SolverConfig(span=0.5, rtol=rtol, atol=rtol * 1e-2,
                              max_step=1e9, dense_points=50)
        results[rtol] = od.integrate(rhs, [psi0, 1.0, 1.0, -0.1], cfg)
    d1 = max(abs(x[0] - y[0]) for x, y in
             zip(results[1e-6].states, results[1e-7].states))
    d2 = max(abs(x[0] - y[0]) for x, y in
             zip(results[1e-7].states, results[1e-8].states))
    assert d2 < d1  # pointwise convergence as tolerance tightens
    assert d2 <= 10 * 1e-7  # successive difference below 10x the finer rtol


def test_find_critical_requires_bracket():
    rs, params, rhs = _case1_rhs("eckart")

    def run(v0):
        psi0 = math.atanh(v0)
        fac = od.scaled_time_factor(params, 1.0, psi0)
        cfg = od.SolverConfig(span=50.0 / fac, rtol=1e-7, atol=1e-9,
                              max_step=1e9)
        ev = od.default_events(rs, params, blowup_delta=6e-2)
        return od.integrate(rhs, [psi0, 1.0, 1.0, -0.5], cfg, ev)

    # the non-relaxing homogeneous family diverges from every initial state
    with pytest.raises(od.NoBracketError):
        od.find_critical(run, 0.1, 0.9)


def test_find_critical_bisects_relaxing_family():
    rs = rd.reduced_system(1, "israel-stewart")
    params = fluid.FluidParams(lam=Fraction(1))
    rhs = od.compile_rhs(rs, params)
    ev = od.default_events(rs, params, blowup_delta=6e-2)

    def run(v0):
        psi0 = math.atanh(v0)
        fac = od.scaled_time_factor(params, 1.0, psi0)
        cfg = od.SolverConfig(span=50.0 / fac, rtol=1e-7, atol=1e-9,
                              max_step=1e9)
        return od.integrate(rhs, [psi0, 1.0, 1.0, -0.5], cfg, ev)

    res = od.find_critical(run, 0.5, 0.9, tol=5e-3)
    assert res.lo_class == "decaying" and res.hi_class == "blowing-up"
    assert 0.5 < res.v_critical < 0.9
    assert res.hi - res.lo <= 5e-3


@pytest.mark.parametrize("tol", [1e-300, 0.0])
def test_find_critical_stops_at_float_resolution(tol):
    """Below float resolution the bracket cannot shrink: bisection stops
    once its ends are adjacent floats, one run per halving."""
    calls = []
    decaying = od.Trajectory(ts=[0.0] * 6, states=[[0.1]] * 6,
                             termination="reached-end")
    blowing_up = od.Trajectory(ts=[0.0], states=[[3.0]], termination="event",
                               event_name="v-blowup")

    def run(v0):
        calls.append(v0)
        return blowing_up if v0 > 0.878729 else decaying

    res = od.find_critical(run, 0.5, 0.9, tol=tol)
    assert (res.lo_class, res.hi_class) == ("decaying", "blowing-up")
    assert res.lo <= 0.878729 < res.hi == math.nextafter(res.lo, 1.0)
    assert len(calls) == res.iterations + 2
    assert res.iterations < 60  # 0.4 halves to one ulp of 0.88 in about 52


def _crossing_guard(raise_band):
    """u - 1/2 as a guard that raises ValueError for u inside raise_band;
    the calls that raised are recorded on the guard."""
    def g(t, u):
        if raise_band[0] < u[0] < raise_band[1]:
            g.raised.append(t)
            raise ValueError("guard undefined here")
        return u[0] - 0.5

    g.raised = []
    return g


# Every catalogued (theory, case) pair, both orientations and both blow-up
# thresholds over seeded starts, under a 500-step budget that the case-3
# separatrix start (0.508, -0.111) exhausts.  Cases 1 and 2 run to the study
# horizons in scaled time, the similarity cases over a window (y0, span).
_LIBRARY_PAIRS = [("eckart", case) for case in range(1, 7)] + [
    ("israel-stewart", 1), ("israel-stewart", 2)]
_LIBRARY_HORIZON = {1: 50.0, 2: 100.0}
_LIBRARY_WINDOW = {3: (0.0, 10.0), 4: (0.0, 10.0), 5: (1.0, 10.0),
                   6: (0.0, 10.0)}
_LIBRARY_PINNED_SHA256 = ("dadd6fb3ea665631fecab837544f67b7"
                          "e07d883eef1413268eff68299f94052e")


def test_integrate_output_is_pinned_bit_for_bit():
    """integrate's samples, termination, event and step counts hash to the
    recorded value over the reduced systems, a step budget, a finite-time
    blow-up and guards that raise inside and at the end of a step."""
    rng = random.Random(1212)
    runs = []
    for theory, case in _LIBRARY_PAIRS:
        params = fluid.FluidParams(lam=Fraction(0 if theory == "eckart" else 1))
        rs = rd.reduced_system(case, theory)
        rhs = od.compile_rhs(rs, params)
        events = {delta: od.default_events(rs, params, blowup_delta=delta)
                  for delta in (6e-2, 1e-6)}
        starts = [(rng.uniform(0.05, 0.95), rng.uniform(-0.5, 0.0))
                  for _ in range(3)]
        if case == 3:
            starts.append((0.508, -0.111))
        for v0, q0 in starts:
            psi0 = math.atanh(v0)
            if case in _LIBRARY_HORIZON:
                t0 = 0.0
                span = (_LIBRARY_HORIZON[case]
                        / od.scaled_time_factor(params, 1.0, psi0))
            else:
                t0, span = _LIBRARY_WINDOW[case]
            for direction in (1, -1):
                cfg = od.SolverConfig(span=span, rtol=1e-8, atol=1e-10,
                                      max_step=1e9, max_steps=500,
                                      direction=direction, dense_points=200)
                for ev in events.values():
                    runs.append(od.integrate(rhs, [psi0, 1.0, 1.0, q0], cfg,
                                             ev, t0))
    assert any(tr.termination == "step-failure" and tr.n_steps == 500
               for tr in runs)
    assert {tr.termination for tr in runs} == {"reached-end", "event",
                                               "step-failure"}

    decay = lambda t, u: [-u[0]]
    loose = od.SolverConfig(span=2.0, rtol=1e-3, atol=1e-6, max_step=1e9,
                            dense_points=200)
    # the first midpoint of the bracketing step raises and counts as crossed
    inside = _crossing_guard((0.35, 0.4))
    tr = od.integrate(decay, [1.0], loose, {"half": inside})
    assert inside.raised and tr.termination == "event"
    runs.append(tr)
    # the guard raises at the step end before the crossing: nothing brackets
    at_end = _crossing_guard((0.75, 0.8))
    tr = od.integrate(decay, [1.0], loose, {"half": at_end})
    assert at_end.raised and tr.termination == "reached-end"
    runs.append(tr)
    runs.append(od.integrate(lambda t, u: [u[0] * u[0]], [1.0],
                             od.SolverConfig(span=2.0, max_step=1e9,
                                             dense_points=200)))
    runs.append(od.integrate(lambda t, u: [u[1], -u[0]], [1.0, 0.0],
                             od.SolverConfig(span=20.0, max_steps=40,
                                             direction=-1, dense_points=200)))

    h = hashlib.sha256()
    for tr in runs:
        h.update(repr((tr.ts, tr.states, tr.termination, tr.event_name,
                       tr.n_steps, tr.n_rejected)).encode())
    assert h.hexdigest() == _LIBRARY_PINNED_SHA256


def test_a_run_without_a_grid_takes_the_same_steps_and_skips_the_extension():
    """Seeded starts of every shipped pair, with the default guards, run once
    with no sample grid and once with 200 samples.  Both take the same steps
    and stop alike; without a grid the trajectory is the start, each accepted
    step and the stop, and the continuous extension's three evaluations are
    spent only on the step that locates an event: two evaluations start the
    run, and each attempted step costs twelve."""
    rng = random.Random(3131)
    seen = set()
    for theory, case in _LIBRARY_PAIRS:
        params = fluid.FluidParams(lam=Fraction(0 if theory == "eckart" else 1))
        rs = rd.reduced_system(case, theory)
        compiled = od.compile_rhs(rs, params)
        ev = od.default_events(rs, params, blowup_delta=6e-2)
        calls = [0]

        def rhs(t, u):
            calls[0] += 1
            return compiled(t, u)

        for _ in range(3):
            psi0, q0 = math.atanh(rng.uniform(0.05, 0.95)), rng.uniform(-0.5, 0.0)
            if case in _LIBRARY_HORIZON:
                t0 = 0.0
                span = (_LIBRARY_HORIZON[case]
                        / od.scaled_time_factor(params, 1.0, psi0))
            else:
                t0, span = _LIBRARY_WINDOW[case]
            cfg = od.SolverConfig(span=span, rtol=1e-8, atol=1e-10,
                                  max_step=1e9, max_steps=500,
                                  direction=rs.direction)
            calls[0] = 0
            bare = od.integrate(rhs, [psi0, 1.0, 1.0, q0], cfg, ev, t0)
            evals = calls[0]
            grid = od.integrate(rhs, [psi0, 1.0, 1.0, q0],
                                dataclasses.replace(cfg, dense_points=200), ev, t0)
            assert ((bare.n_steps, bare.n_rejected, bare.termination,
                     bare.event_name) == (grid.n_steps, grid.n_rejected,
                                          grid.termination, grid.event_name))
            if bare.termination == "event":
                assert bare.ts[-1] == grid.ts[-1]
            # at the end of the span the accepted state, not the dense output
            # at theta = 1, so the last bits may differ
            for a, b in zip(bare.states[-1], grid.states[-1]):
                assert abs(a - b) <= 1e-12 * max(abs(a), abs(b))
            assert bare.ts[0] == t0 and len(bare.ts) == bare.n_steps + 1
            assert all((b - a) * rs.direction > 0
                       for a, b in zip(bare.ts, bare.ts[1:]))
            located = 3 if bare.termination == "event" else 0
            assert evals == 2 + 12 * (bare.n_steps + bare.n_rejected) + located
            seen.add(bare.termination)
    assert seen == {"reached-end", "event", "step-failure"}


def test_guard_raising_at_the_located_event_ends_in_that_event():
    """The bisection converges to the edge of the band where the guard
    raises; the event is recorded there, not raised."""
    guard = _crossing_guard((0.5, 0.55))
    cfg = od.SolverConfig(span=2.0, rtol=1e-3, atol=1e-6, max_step=1e9)
    tr = od.integrate(lambda t, u: [-u[0]], [1.0], cfg,
                      {"g": guard})
    assert tr.termination == "event" and tr.event_name == "g"
    assert tr.ts[-1] == pytest.approx(math.log(1 / 0.55), abs=2e-3)


def test_guard_raising_at_the_start_reads_nan_and_still_fires_later():
    """A guard undefined at the start point reads nan there, as at a step
    end, instead of raising out of integrate; it fires once it is defined
    and crosses."""
    guard = _crossing_guard((0.9, math.inf))
    cfg = od.SolverConfig(span=2.0, rtol=1e-3, atol=1e-6, max_step=1e9)
    tr = od.integrate(lambda t, u: [-u[0]], [1.0], cfg,
                      {"g": guard})
    assert guard.raised[0] == 0.0
    assert tr.termination == "event" and tr.event_name == "g"
    assert tr.ts[-1] == pytest.approx(math.log(2.0), abs=2e-3)
