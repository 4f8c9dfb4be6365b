"""Integrator quality, events, classification, and critical-velocity search."""

import hashlib
import math
import random
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
    cfg = od.SolverConfig(span=20 * math.pi, rtol=1e-8, atol=1e-10,
                          max_step=1e9)
    tr = od.integrate(lambda t, u: [u[1], -u[0]], [1.0, 0.0], cfg)
    drift = max(abs(0.5 * (s[0] ** 2 + s[1] ** 2) - 0.5) for s in tr.states)
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
    ev = od.EventSpec(guards=(lambda t, u: u[0] - 0.5,), names=("half",),
                      delta=delta)
    cfg = od.SolverConfig(span=2.0, rtol=1e-9, atol=1e-12)
    tr = od.integrate(lambda t, u: [-u[0]], [1.0], cfg, ev)
    assert tr.termination == "event"
    assert tr.event_name == "half"
    t_event = tr.ts[-1]
    assert abs(t_event - math.log(2.0)) < 2 * delta
    # guard changed sign across the final bracket
    assert tr.states[-1][0] - 0.5 <= 0


def test_step_failure_reported_not_raised():
    # finite-time singularity u' = u^2 from u0 = 1 blows at t = 1
    cfg = od.SolverConfig(span=2.0, rtol=1e-8, atol=1e-10, max_step=1e9)
    tr = od.integrate(lambda t, u: [u[0] ** 2], [1.0], cfg)
    assert tr.termination == "step-failure"
    assert tr.ts[-1] < 1.01


@pytest.mark.parametrize("field, value", [
    ("rtol", math.nan), ("atol", math.inf), ("initial_step", 0.0),
    ("initial_step", math.nan), ("max_step", -1.0), ("max_step", math.inf),
    ("span", 0.0), ("span", math.nan)])
def test_solver_config_rejects_non_finite_or_degenerate_settings(field, value):
    # a nan rtol made every error norm 0 (every step accepted); a zero
    # initial step took max_steps zero-length steps before failing
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


def _tableau_loop_step(f, t, u, h, k1):
    """The loop over the Dormand-Prince tableau that the generated step
    replaced, kept as its reference."""
    ks = [k1]
    n = len(u)
    for i in range(1, 7):
        acc = list(u)
        row = od._A[i]
        for j, a in enumerate(row):
            if a:
                kj = ks[j]
                for m in range(n):
                    acc[m] += h * a * kj[m]
        ks.append(f(t + od._C[i] * h, acc))
    u5 = list(u)
    err = [0.0] * n
    for j in range(7):
        b5 = od._B5[j]
        diff = od._B5[j] - od._B4[j]
        kj = ks[j]
        for m in range(n):
            if b5:
                u5[m] += h * b5 * kj[m]
            if diff:
                err[m] += h * diff * kj[m]
    return u5, err, ks


def _scaled_norm(u, u5, err, atol, rtol):
    norm = 0.0
    for m in range(len(u)):
        sc = atol + rtol * max(abs(u[m]), abs(u5[m]))
        norm = max(norm, abs(err[m]) / sc)
    return norm


def test_generated_step_matches_the_tableau_loop_bit_for_bit():
    rng = random.Random(20261018)

    def bits(values):
        return [float(v).hex() for v in values]

    for n in range(1, 7):
        step = od._step_function(n)
        w = [rng.uniform(-2.0, 2.0) for _ in range(n)]

        def f(t, u):
            return [math.sin(t * w[m] + u[m]) - u[(m + 1) % n] ** 2
                    + math.exp(-u[m - 1] * u[m - 1]) for m in range(n)]

        for _ in range(40):
            t = rng.uniform(-5.0, 5.0)
            h = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6.0, 0.0)
            u = [rng.uniform(-2.0, 2.0) for _ in range(n)]
            k1 = [rng.uniform(-3.0, 3.0) for _ in range(n)]
            atol, rtol = 10.0 ** rng.uniform(-12, -6), 10.0 ** rng.uniform(-10, -4)
            u5, norm, ks = step(f, t, u, h, k1, atol, rtol)
            ref_u5, ref_err, ref_ks = _tableau_loop_step(f, t, u, h, k1)
            assert bits(u5) == bits(ref_u5)
            assert [bits(k) for k in ks] == [bits(k) for k in ref_ks]
            assert norm.hex() == _scaled_norm(u, ref_u5, ref_err, atol, rtol).hex()
            # FSAL: the last stage is the derivative at the step's end
            assert bits(ks[6]) == bits(f(t + h, u5))


def _counted(rhs):
    def f(t, u):
        f.calls += 1
        return rhs(t, u)

    f.calls = 0
    return f


@pytest.mark.parametrize("rhs, u0, ev", [
    (lambda t, u: [u[1], -u[0]], [1.0, 0.0], od.EventSpec()),
    (lambda t, u: [-u[0]], [1.0],
     od.EventSpec(guards=(lambda t, u: u[0] - 0.5,), names=("half",))),
    (lambda t, u: [u[0] * u[0]], [1.0], od.EventSpec()),
])
def test_each_attempted_step_evaluates_the_rhs_six_times(rhs, u0, ev):
    # stage 1 of a step is stage 7 of the step before (FSAL), so only the
    # start costs a seventh evaluation
    f = _counted(rhs)
    cfg = od.SolverConfig(span=2.0, rtol=1e-8, atol=1e-10, max_step=1e9)
    tr = od.integrate(f, u0, cfg, ev)
    assert tr.n_steps > 0
    assert f.calls == 1 + 6 * (tr.n_steps + tr.n_rejected)
    f = _counted(rhs)
    od.fixed_step_integrate(f, u0, 0.0, 0.5, 16)
    assert f.calls == 1 + 6 * 16


def test_dense_output_accuracy():
    # the dense output is a cubic Hermite interpolant (O(h^4)); with the
    # step clamped its error sits well below the sampling needs
    cfg = od.SolverConfig(span=1.0, rtol=1e-9, atol=1e-12, dense_points=97,
                          max_step=0.05)
    tr = od.integrate(lambda t, u: [-u[0]], [1.0], cfg)
    for t, s in zip(tr.ts, tr.states):
        assert abs(s[0] - math.exp(-t)) < 1e-7


def _case1_rhs(theory):
    lam = Fraction(0) if theory == "eckart" else Fraction(1)
    params = fluid.FluidParams(lam=lam)
    rs = rd.reduced_system(1, theory)
    return rs, params, od.compile_rhs(rs, params)


def test_homogeneous_conservation_along_trajectory():
    rs, params, rhs = _case1_rhs("eckart")
    psi0 = math.atanh(0.4)
    cfg = od.SolverConfig(span=2.0, rtol=1e-10, atol=1e-12, max_step=0.02)
    tr = od.integrate(rhs, [psi0, 1.0, 1.0, -0.05], cfg)
    names = ["particle", "energy_flux", "momentum_flux"]
    fns = ex.compile_exprs([rs.first_integrals[n] for n in names],
                           ["psi", "n", "rho", "q"])
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

    cfg = od.SolverConfig(span=3.0, rtol=1e-10, atol=1e-12, max_step=1e9)
    tr = od.integrate(rhs, [psi0, n0, rho0, q0], cfg)
    assert tr.termination == "reached-end"
    ref = G(u0)
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

    def defect(rtol):
        cfg = od.SolverConfig(span=3.0, rtol=rtol, atol=rtol * 1e-2,
                              max_step=1e9)
        tr = od.integrate(rhs, [psi0, n0, rho0, q0], cfg)
        ref = u0 / m + (2 * C / m ** 2) * math.log(abs(m * u0 - 2 * C))
        worst = 0.0
        for t, s in zip(tr.ts, tr.states):
            u = math.exp(-2 * s[0])
            g = u / m + (2 * C / m ** 2) * math.log(abs(m * u - 2 * C))
            worst = max(worst, abs(g - t - ref))
        return worst

    errs = [defect(rt) for rt in (1e-6, 1e-7, 1e-8, 1e-9)]
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
_LIBRARY_PINNED_SHA256 = ("af730479e6bbde52119bd387385930fc"
                          "c0996e16edcf453bce5ba72f9a00f268")


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
                                      direction=direction)
                for ev in events.values():
                    runs.append(od.integrate(rhs, [psi0, 1.0, 1.0, q0], cfg,
                                             ev, t0))
    assert any(tr.termination == "step-failure" and tr.n_steps == 500
               for tr in runs)
    assert {tr.termination for tr in runs} == {"reached-end", "event",
                                               "step-failure"}

    decay = lambda t, u: [-u[0]]
    loose = od.SolverConfig(span=2.0, rtol=1e-3, atol=1e-6, max_step=1e9)
    # the first midpoint of the bracketing step raises and counts as crossed
    inside = _crossing_guard((0.4, 0.45))
    tr = od.integrate(decay, [1.0], loose, od.EventSpec((inside,), ("half",)))
    assert inside.raised and tr.termination == "event"
    runs.append(tr)
    # the guard raises at the step end before the crossing: nothing brackets
    at_end = _crossing_guard((0.6, 0.7))
    tr = od.integrate(decay, [1.0], loose, od.EventSpec((at_end,), ("half",)))
    assert at_end.raised and tr.termination == "reached-end"
    runs.append(tr)
    runs.append(od.integrate(lambda t, u: [u[0] * u[0]], [1.0],
                             od.SolverConfig(span=2.0, max_step=1e9)))
    runs.append(od.integrate(lambda t, u: [u[1], -u[0]], [1.0, 0.0],
                             od.SolverConfig(span=20.0, max_steps=40,
                                             direction=-1)))

    h = hashlib.sha256()
    for tr in runs:
        h.update(repr((tr.ts, tr.states, tr.termination, tr.event_name,
                       tr.event_value, tr.n_steps, tr.n_rejected)).encode())
    assert h.hexdigest() == _LIBRARY_PINNED_SHA256


def test_guard_raising_at_the_located_event_ends_in_that_event():
    """The bisection converges to the edge of the band where the guard
    raises; the event is recorded there with value nan, not raised."""
    guard = _crossing_guard((0.5, 0.55))
    cfg = od.SolverConfig(span=2.0, rtol=1e-3, atol=1e-6, max_step=1e9)
    tr = od.integrate(lambda t, u: [-u[0]], [1.0], cfg,
                      od.EventSpec((guard,), ("g",)))
    assert tr.termination == "event" and tr.event_name == "g"
    assert math.isnan(tr.event_value)
    assert tr.ts[-1] == pytest.approx(math.log(1 / 0.55), abs=2e-3)
