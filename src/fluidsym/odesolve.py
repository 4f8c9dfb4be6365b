"""Adaptive explicit Runge-Kutta integration of the reduced systems.

The integrator is the Dormand-Prince 5(4) embedded pair with a cubic
Hermite dense-output interpolant (from the derivatives at both step ends),
step-size control on the embedded error estimate, event localisation by
bisection on the dense output, and deterministic float arithmetic
(identical inputs give identical samples).

The step is generated Python code, straight-line for each state size and
built on first use, with the same sums in the same order as a loop over the
tableau.  The pair is FSAL ("first same as last"): stage 7 is f(t + h, u5),
so an accepted step's last stage is the next step's first, and a step costs
six right-hand-side evaluations.

``default_events`` builds the guards of a reduced system as one name ->
guard table: velocity blow-up, collapse of the density-like states, and the
singular locus.

Critical-velocity searches bisect the initial velocity between a decaying
and a blowing-up trajectory of a reduced system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from . import expr as ex
from . import fluid
from .reduction import ReducedSystem

__all__ = [
    "EventSpec",
    "SolverConfig",
    "Trajectory",
    "classify_trajectory",
    "compile_rhs",
    "convergence_order",
    "find_critical",
    "integrate",
    "scaled_time_factor",
]

# what a right-hand side or a guard raises where it is not defined
_UNDEFINED = (ZeroDivisionError, OverflowError, ValueError)


@dataclass(frozen=True)
class SolverConfig:
    rtol: float = 1e-8
    atol: float = 1e-10
    initial_step: float = 1e-4
    max_step: float = 1.0
    max_steps: int = 200_000
    span: float = 10.0  # length of the integration interval
    direction: int = 1  # +1 forward, -1 backward in the independent variable
    dense_points: int = 200

    def __post_init__(self):
        # 0 < x < inf is false for nan: a nan tolerance would accept every
        # step, a zero step would never advance
        for name in ("rtol", "atol", "initial_step", "max_step", "span"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.max_steps <= 0:
            raise ValueError("max_steps must bound the runtime")


@dataclass(frozen=True)
class EventSpec:
    """Guard functions g(t, u); an event fires when any guard crosses zero
    from positive to non-positive.  delta bounds the bracketing width."""

    guards: tuple = ()
    names: tuple = ()
    delta: float = 1e-6


@dataclass
class Trajectory:
    ts: list
    states: list
    termination: str  # 'reached-end' | 'event' | 'step-failure'
    event_name: str | None = None
    event_value: float | None = None
    n_steps: int = 0
    n_rejected: int = 0

    def final(self):
        return self.ts[-1], self.states[-1]


# Dormand-Prince 5(4) tableau
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
       187 / 2100, 1 / 40)


def _step_source(n: int) -> str:
    """Python source of the Dormand-Prince step for states of size n.

    Every stage input, u5 and the error estimate is the sum, in tableau
    order, of the products (h * c) * k[m] over the nonzero tableau entries
    c, started from u[m] (0.0 for the error), so the step is bit-identical
    to a loop over the tableau.  Row 6 of _A is _B5 and _C[6] is 1.0 (the
    pair is FSAL), so stage 7 is evaluated at u5 itself.
    """
    ms = range(n)
    body = [f"u{m} = u[{m}]" for m in ms]

    def sums(start, row, tag):
        # row[j] multiplies stage k{j + 1}
        terms = [(j + 1, f"{tag}{j + 1}") for j, c in enumerate(row) if c]
        body.extend(f"{name} = h * {row[j - 1]!r}" for j, name in terms)
        return [" + ".join([start.format(m)]
                           + [f"{name} * k{j}_{m}" for j, name in terms])
                for m in ms]

    def stage(s, arg):
        body.append(f"k{s} = f(t + {_C[s - 1]!r} * h, [{', '.join(arg)}])")
        body.extend(f"k{s}_{m} = k{s}[{m}]" for m in ms)

    body.extend(f"k1_{m} = k1[{m}]" for m in ms)
    for s in range(2, 7):
        stage(s, sums("u{}", _A[s - 1], f"a{s}_"))
    u5 = sums("u{}", _B5, "b")
    body.extend(f"v{m} = {code}" for m, code in zip(ms, u5))
    stage(7, [f"v{m}" for m in ms])
    diff = [b5 - b4 for b5, b4 in zip(_B5, _B4)]
    body.extend(f"e{m} = {code}" for m, code in zip(ms, sums("0.0", diff, "d")))
    # x - x == 0.0 holds exactly for the finite floats
    finite = " and ".join(f"{x}{m} - {x}{m} == 0.0"
                          for x in "ve" for m in ms) or "True"
    scaled = [f"abs(e{m}) / (atol + rtol * max(abs(u{m}), abs(v{m})))"
              for m in ms]
    body += [f"if {finite}:",
             f"    norm = max([{', '.join(['0.0'] + scaled)}])",
             "else:",
             "    norm = nan",
             f"return [{', '.join(f'v{m}' for m in ms)}], norm, "
             f"[{', '.join(f'k{s}' for s in range(1, 8))}]"]
    return ("def _step(f, t, u, h, k1, atol, rtol):\n"
            + "".join(f"    {line}\n" for line in body))


_STEPS: dict = {}  # state size -> generated step function


def _step_function(n: int) -> Callable:
    """The Dormand-Prince step for states of size n, generated on first use.

    step(f, t, u, h, k1, atol, rtol) -> (u5, norm, ks): the 5th-order
    solution, the embedded error estimate's max norm scaled by
    atol + rtol * max(|u|, |u5|) (nan when u5 or the estimate is not
    finite), and the seven stage derivatives, of which ks[6] = f(t + h, u5)
    is the next step's k1.
    """
    step = _STEPS.get(n)
    if step is None:
        scope = {"nan": math.nan}
        exec(_step_source(n), scope)
        step = _STEPS[n] = scope["_step"]
    return step


def _dense(u, u5, ks, h, theta):
    """Cubic Hermite interpolant over one step.

    Uses the derivative at both step ends (the pair is FSAL: stage 7 is the
    right-end derivative), giving O(h^4) dense output, below the step error
    at practical tolerances.
    """
    t2 = theta * theta
    t3 = t2 * theta
    ht = h * theta
    out = []
    for a, b, p, q in zip(u, u5, ks[0], ks[6]):
        d = b - a
        out.append(a + ht * p
                   + t2 * (3.0 * d - h * (2.0 * p + q))
                   + t3 * (-2.0 * d + h * (p + q)))
    return out


def _locate(guard: Callable, t, u, u5, ks, h, delta: float) -> float:
    """Bisect the dense output of one step for the guard's crossing.

    Returns the step fraction of the crossed end of the final bracket, which
    is at most delta wide in the independent variable.  A guard that is not
    positive, is nan or raises counts as crossed.
    """
    lo_th, hi_th = 0.0, 1.0
    while (hi_th - lo_th) * abs(h) > delta:
        mid = 0.5 * (lo_th + hi_th)
        try:
            crossed = not guard(t + mid * h, _dense(u, u5, ks, h, mid)) > 0.0
        except _UNDEFINED:
            crossed = True
        if crossed:
            hi_th = mid
        else:
            lo_th = mid
    return hi_th


def integrate(rhs: Callable, u0: Sequence[float], cfg: SolverConfig,
              ev: EventSpec = EventSpec(), t0: float = 0.0) -> Trajectory:
    """Adaptive integration with dense output and event localisation.

    rhs(t, u) -> sequence of derivatives.  Step failures (error control
    underflow, non-finite right-hand sides or an exhausted step budget)
    terminate the trajectory with reason 'step-failure' instead of raising.
    """
    sgn = 1.0 if cfg.direction >= 0 else -1.0
    t_end = t0 + sgn * cfg.span
    u = [float(v) for v in u0]
    t = t0
    # every return before the end of the interval is a failure or an event
    traj = Trajectory(ts=[t], states=[list(u)], termination="step-failure")
    ts, states = traj.ts, traj.states
    sample_dt = (t_end - t0) / max(cfg.dense_points, 1)
    next_sample = t0 + sample_dt
    h = sgn * min(cfg.initial_step, cfg.max_step)
    hmin = 1e-14 * max(1.0, abs(t_end - t0))
    try:
        k1 = list(rhs(t, u))
    except _UNDEFINED:
        return traj
    step = _step_function(len(u))
    g_prev = [g(t, u) for g in ev.guards]
    while (t_end - t) * sgn > 1e-14 * max(1.0, abs(t_end)):
        if traj.n_steps >= cfg.max_steps:
            return traj
        h = sgn * min(abs(h), cfg.max_step)  # exact: h has the sign sgn
        if (t + h - t_end) * sgn > 0:
            h = t_end - t
        try:
            u5, norm, ks = step(rhs, t, u, h, k1, cfg.atol, cfg.rtol)
        except _UNDEFINED:
            norm = math.nan
        if not norm <= 1.0:
            # nan: a stage raised, or u5 or its error estimate is not finite
            h *= 0.25 if math.isnan(norm) else max(0.2, 0.9 * norm ** -0.2)
            traj.n_rejected += 1
            if abs(h) < hmin:
                return traj
            continue
        traj.n_steps += 1
        t_new = t + h
        try:
            g_new = [g(t_new, u5) for g in ev.guards]
        except _UNDEFINED:
            g_new = [math.nan] * len(g_prev)
        for i, (a, b) in enumerate(zip(g_prev, g_new)):
            if a > 0.0 >= b:  # a nan guard value compares false: no crossing
                theta_e = _locate(ev.guards[i], t, u, u5, ks, h, ev.delta)
                te = t + theta_e * h
                ue = _dense(u, u5, ks, h, theta_e)
                while (te - next_sample) * sgn > 0:
                    ts.append(next_sample)
                    states.append(_dense(u, u5, ks, h, (next_sample - t) / h))
                    next_sample += sample_dt
                ts.append(te)
                states.append(ue)
                traj.termination = "event"
                traj.event_name = ev.names[i] if i < len(ev.names) else f"guard{i}"
                try:
                    traj.event_value = ev.guards[i](te, ue)
                except _UNDEFINED:
                    traj.event_value = math.nan
                return traj
        while (t_new - next_sample) * sgn >= 0:
            theta = (next_sample - t) / h
            if 0.0 <= theta <= 1.0:
                ts.append(next_sample)
                states.append(_dense(u, u5, ks, h, theta))
            next_sample += sample_dt
        t, u, g_prev, k1 = t_new, u5, g_new, ks[6]
        h = h * min(5.0, max(0.2, 0.9 * (norm + 1e-16) ** -0.2))
    if abs(ts[-1] - t_end) > 1e-12 * max(1.0, abs(t_end)):
        ts.append(t_end)
        states.append(list(u))
    traj.termination = "reached-end"
    return traj


def fixed_step_integrate(rhs: Callable, u0: Sequence[float], t0: float,
                         t_end: float, nsteps: int) -> list:
    """Classic-order reference integration with the 5th-order propagator and
    constant steps; used for the observed-order study."""
    h = (t_end - t0) / nsteps
    u = [float(v) for v in u0]
    t = t0
    step = _step_function(len(u))
    k1 = list(rhs(t, u))
    for _ in range(nsteps):
        # the error norm is not used; unit tolerances keep it well defined
        u, _, ks = step(rhs, t, u, h, k1, 1.0, 1.0)
        k1 = ks[6]
        t += h
    return u


def _bind_params(e: ex.Expr, params: fluid.FluidParams) -> ex.Expr:
    """Substitute the numeric k and kappa of params into e."""
    bind = {name: ex.number(v) for name, v in
            (("k", params.k), ("kappa", params.kappa)) if v is not None}
    return ex.subs(e, bind) if bind else e


def compile_rhs(rs: ReducedSystem, params: fluid.FluidParams):
    """Compile a reduced system's right-hand sides to a float function.

    Returns rhs(t, u) over the state vector in rs.states order.
    """
    exprs = [_bind_params(rs.rhs[s], params) for s in rs.states]
    args = [rs.independent] + list(rs.states)
    fn = ex.compile_exprs(exprs, args)

    def rhs(t, u):
        return fn(t, *u)

    return rhs


def scaled_time_factor(params: fluid.FluidParams, n0: float, psi0: float) -> float:
    """Conversion factor from physical to scaled time, 4*k*N0/kappa, with
    N0 the conserved n*cosh(psi) of the homogeneous case."""
    k = float(params.k if params.k is not None else 1)
    kappa = float(params.kappa if params.kappa is not None else 1)
    N0 = n0 * math.cosh(psi0)
    return 4.0 * k * N0 / kappa


_PSI_INDEX = 0  # psi is the first state in every catalog entry


def default_events(rs: ReducedSystem, params: fluid.FluidParams,
                   blowup_delta: float = 1e-6) -> EventSpec:
    """The guards of a reduced system, as one name -> guard table: the
    velocity blow-up 1 - v^2 - blowup_delta, the collapse of each
    density-like state, and |factor| - 1e-10 for each singular-locus
    factor (nan where the factor cannot be evaluated)."""
    def blowup(t, u):
        v = math.tanh(u[_PSI_INDEX])
        return (1.0 - v * v) - blowup_delta

    table = {"v-blowup": blowup}
    for i, s in enumerate(rs.states):
        if s in ("n", "rho", "alpha", "beta", "w", "sigma"):
            table[f"{s}-collapse"] = lambda t, u, i=i: u[i] - 1e-12
    args = [rs.independent] + list(rs.states)
    for i, den in enumerate(rs.singular):
        fn = ex.compile_exprs([_bind_params(den, params)], args)

        def singular(t, u, fn=fn):
            try:
                return abs(fn(t, *u)[0]) - 1e-10
            except _UNDEFINED:
                return math.nan

        table[f"singular-locus-{i}"] = singular
    return EventSpec(guards=tuple(table.values()), names=tuple(table),
                     delta=1e-6)


def classify_trajectory(tr: Trajectory) -> str:
    """'decaying' | 'blowing-up' | 'inconclusive'.

    Blowing-up: the blow-up guard fired with v approaching +1 (the guard
    itself is two-sided in 1 - v^2; the mirror branch v -> -1 terminates the
    trajectory but is not the blow-up this classification names).
    Decaying: |v| non-increasing over the final third of samples and no
    event fired.
    """
    if (tr.termination == "event" and tr.event_name == "v-blowup"
            and math.tanh(tr.states[-1][_PSI_INDEX]) > 0):
        return "blowing-up"
    if tr.termination != "reached-end" or len(tr.states) < 6:
        return "inconclusive"
    vs = [abs(math.tanh(s[_PSI_INDEX])) for s in tr.states]
    tail = vs[len(vs) * 2 // 3:]
    tol = 1e-10 + 1e-6 * max(tail)
    if all(b <= a + tol for a, b in zip(tail, tail[1:])):
        return "decaying"
    return "inconclusive"


@dataclass(frozen=True)
class CriticalResult:
    v_critical: float
    lo: float
    hi: float
    lo_class: str
    hi_class: str
    iterations: int
    trajectories: tuple  # (lo trajectory, hi trajectory)


class NoBracketError(RuntimeError):
    pass


def find_critical(run: Callable[[float], Trajectory], lo: float, hi: float,
                  tol: float = 1e-3) -> CriticalResult:
    """Bisect the initial velocity separating decaying from blowing-up runs.

    run(v0) integrates the family member; classification at the endpoints
    must differ (decaying at one end, blowing-up at the other).
    """
    tr_lo = run(lo)
    tr_hi = run(hi)
    c_lo = classify_trajectory(tr_lo)
    c_hi = classify_trajectory(tr_hi)
    if {c_lo, c_hi} != {"decaying", "blowing-up"}:
        raise NoBracketError(
            f"endpoints do not bracket a critical velocity: "
            f"v0={lo} -> {c_lo}, v0={hi} -> {c_hi}")
    flip = c_lo == "blowing-up"
    iterations = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        c_mid = classify_trajectory(run(mid))
        iterations += 1
        # an undecided run counts as blowing up, so the bracket keeps a
        # decaying endpoint
        if (c_mid != "decaying") != flip:
            hi = mid
        else:
            lo = mid
        if iterations > 200:
            break
    return CriticalResult(v_critical=0.5 * (lo + hi), lo=lo, hi=hi,
                          lo_class=c_lo, hi_class=c_hi,
                          iterations=iterations,
                          trajectories=(tr_lo, tr_hi))


def convergence_order(rhs: Callable, u0: Sequence[float], t_end: float,
                      exact: Sequence[float], steps: Sequence[int] = (8, 16, 32, 64)) -> float:
    """Observed order from fixed-step error ratios under step halving.

    Step counts stay coarse so the error ratios are measured above the
    roundoff floor."""
    errs = []
    for ns in steps:
        u = fixed_step_integrate(rhs, u0, 0.0, t_end, ns)
        errs.append(max(abs(a - b) for a, b in zip(u, exact)))
    orders = []
    for a, b in zip(errs, errs[1:]):
        if b == 0:
            continue
        orders.append(math.log2(a / b))
    return min(orders) if orders else float("inf")
