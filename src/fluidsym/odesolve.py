"""Adaptive explicit Runge-Kutta integration of the reduced systems.

The integrator is Hairer's DOP853: the 8th-order Dormand-Prince pair with
its combined 5th/3rd-order error estimate, Gustafsson's predictive
step-size controller, a starting step chosen from the tolerances, and the
7th-order continuous extension as dense output.  Events are located by
bisection on the dense output, and the float arithmetic is deterministic
(identical inputs give identical samples).  A trajectory holds the start,
each accepted step and the stop, unless the caller asks for a sample grid
(``SolverConfig.dense_points``); only then are samples read off the dense
output.

The step, the extension and the extension's evaluation are generated Python
code for each state size, built on first use and straight-line over the
components, with the same sums in the same order as a loop over the tableau
or the state components; each unpacks its vectors into locals once, and the
evaluation takes all the sample fractions of a step at once.  Stage 13 of a
step is f(t + h, u_new), which is the next step's stage 1, so a step costs
twelve right-hand-side evaluations.  The extension's three extra stages run
only on an accepted step that locates an event or, with a sample grid,
emits a sample.

``compile_rhs`` returns the function that ``expr`` generates for a reduced
system, with the signature rhs(t, u) of every right-hand side: the step
calls it directly, with no wrapper in between.

``default_events`` builds the guards of a reduced system as one name ->
guard table: velocity blow-up, collapse of the density-like states, and the
singular locus.

Critical-velocity searches bisect the initial velocity between a decaying
and a blowing-up trajectory of a reduced system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

from . import expr as ex
from . import fluid
from .reduction import ReducedSystem

__all__ = [
    "SolverConfig",
    "Trajectory",
    "classify_trajectory",
    "compile_rhs",
    "convergence_order",
    "default_events",
    "find_critical",
    "integrate",
    "scaled_time_factor",
]

# what a right-hand side or a guard raises where it is not defined
_UNDEFINED = (ZeroDivisionError, OverflowError, ValueError)
_NO_EVENTS = MappingProxyType({})


@dataclass(frozen=True)
class SolverConfig:
    rtol: float = 1e-8
    atol: float = 1e-10
    max_step: float = 1.0
    max_steps: int = 200_000
    span: float = 10.0  # length of the integration interval
    direction: int = 1  # +1 forward, -1 backward in the independent variable
    # samples at every 1/dense_points of the span, read off the dense output;
    # 0 means no grid: the trajectory holds the accepted steps
    dense_points: int = 0

    def __post_init__(self):
        """Reject rtol, atol, max_step or span outside 0 < x < inf, which is
        false for nan (a nan tolerance would accept every step, a zero
        max_step would never advance), a max_steps below 1 and a
        dense_points below 0."""
        for name in ("rtol", "atol", "max_step", "span"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.max_steps <= 0:
            raise ValueError("max_steps must bound the runtime")
        if self.dense_points < 0:
            raise ValueError("dense_points must be 0 (no grid) or a sample count")


@dataclass
class Trajectory:
    """ts and states hold the start, then each accepted step, or with a
    sample grid each sample, then the stop: the end of the span, the located
    event or the last accepted state."""

    ts: list
    states: list
    termination: str  # 'reached-end' | 'event' | 'step-failure'
    event_name: str | None = None
    n_steps: int = 0
    n_rejected: int = 0

    def final(self):
        return self.ts[-1], self.states[-1]


# DOP853 (Hairer, Norsett & Wanner I, II.10; the coefficients of Hairer's
# published code).  Row i of _A holds the nonzero a_ij of stage i + 1 by j;
# row 12 is the 8th-order weights b, so stage 13 is f(t + h, u_new), which is
# the next step's stage 1.  Rows 13-15 are the continuous extension's extra
# stages, _D its four rows of dense-output weights.
_C = (0.0, 0.526001519587677318785587544488e-01,
      0.789002279381515978178381316732e-01, 0.118350341907227396726757197510,
      0.281649658092772603273242802490, 0.333333333333333333333333333333,
      0.25, 0.307692307692307692307692307692, 0.651282051282051282051282051282,
      0.6, 0.857142857142857142857142857142, 1.0, 1.0, 0.1, 0.2,
      0.777777777777777777777777777778)
_A = (
    {},
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
     3: 9.24834003261792003115737966543e-1},
    {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
     4: 1.25467687566822425016691814123e-1},
    {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
     4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
     4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
     6: 8.27378916381402288758473766002e-3},
    {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
     4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
     6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
     4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
     6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
     8: -2.03312017085086261358222928593e-2},
    {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
     4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
     6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
     8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
     4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
     6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
     8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
     10: 6.43392746015763530355970484046e-1},
    {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
     6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
     8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
     10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2},
    {0: 5.61675022830479523392909219681e-2, 6: 2.53500210216624811088794765333e-1,
     7: -2.46239037470802489917441475441e-1, 8: -1.24191423263816360469010140626e-1,
     9: 1.5329179827876569731206322685e-1, 10: 8.20105229563468988491666602057e-3,
     11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    {0: 3.18346481635021405060768473261e-2, 5: 2.83009096723667755288322961402e-2,
     6: 5.35419883074385676223797384372e-2, 7: -5.49237485713909884646569340306e-2,
     10: -1.08347328697249322858509316994e-4, 11: 3.82571090835658412954920192323e-4,
     12: -3.40465008687404560802977114492e-4, 13: 1.41312443674632500278074618366e-1},
    {0: -4.28896301583791923408573538692e-1, 5: -4.69762141536116384314449447206,
     6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
     8: 3.56727187455281109270669543021e-1, 12: -1.39902416515901462129418009734e-3,
     13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138},
)
# the 5th-order error weights, and the 3rd-order ones as b minus Hairer's bhh
_E5 = {0: 0.1312004499419488073250102996e-1, 5: -0.1225156446376204440720569753e+1,
       6: -0.4957589496572501915214079952, 7: 0.1664377182454986536961530415e+1,
       8: -0.3503288487499736816886487290, 9: 0.3341791187130174790297318841,
       10: 0.8192320648511571246570742613e-1, 11: -0.2235530786388629525884427845e-1}
_BHH = {0: 0.244094488188976377952755905512, 8: 0.733846688281611857341361741547,
        11: 0.220588235294117647058823529412e-1}
_E3 = {j: b - _BHH.get(j, 0.0) for j, b in _A[12].items()}
_D = (
    {0: -0.84289382761090128651353491142e+1, 5: 0.56671495351937776962531783590,
     6: -0.30689499459498916912797304727e+1, 7: 0.23846676565120698287728149680e+1,
     8: 0.21170345824450282767155149946e+1, 9: -0.87139158377797299206789907490,
     10: 0.22404374302607882758541771650e+1, 11: 0.63157877876946881815570249290,
     12: -0.88990336451333310820698117400e-1, 13: 0.18148505520854727256656404962e+2,
     14: -0.91946323924783554000451984436e+1, 15: -0.44360363875948939664310572000e+1},
    {0: 0.10427508642579134603413151009e+2, 5: 0.24228349177525818288430175319e+3,
     6: 0.16520045171727028198505394887e+3, 7: -0.37454675472269020279518312152e+3,
     8: -0.22113666853125306036270938578e+2, 9: 0.77334326684722638389603898808e+1,
     10: -0.30674084731089398182061213626e+2, 11: -0.93321305264302278729567221706e+1,
     12: 0.15697238121770843886131091075e+2, 13: -0.31139403219565177677282850411e+2,
     14: -0.93529243588444783865713862664e+1, 15: 0.35816841486394083752465898540e+2},
    {0: 0.19985053242002433820987653617e+2, 5: -0.38703730874935176555105901742e+3,
     6: -0.18917813819516756882830838328e+3, 7: 0.52780815920542364900561016686e+3,
     8: -0.11573902539959630126141871134e+2, 9: 0.68812326946963000169666922661e+1,
     10: -0.10006050966910838403183860980e+1, 11: 0.77771377980534432092869265740,
     12: -0.27782057523535084065932004339e+1, 13: -0.60196695231264120758267380846e+2,
     14: 0.84320405506677161018159903784e+2, 15: 0.11992291136182789328035130030e+2},
    {0: -0.25693933462703749003312586129e+2, 5: -0.15418974869023643374053993627e+3,
     6: -0.23152937917604549567536039109e+3, 7: 0.35763911791061412378285349910e+3,
     8: 0.93405324183624310003907691704e+2, 9: -0.37458323136451633156875139351e+2,
     10: 0.10409964950896230045147246184e+3, 11: 0.29840293426660503123344363579e+2,
     12: -0.43533456590011143754432175058e+2, 13: 0.96324553959188282948394950600e+2,
     14: -0.39177261675615439165231486172e+2, 15: -0.14972683625798562581422125276e+3},
)


class _Source:
    """Straight-line code over the components 0..n-1 of a state."""

    def __init__(self, n: int):
        self.ms = range(n)
        self.body = []

    def unpack(self, names: str, seq: str) -> None:
        self.body.append(f"{', '.join(f'{names}{m}' for m in self.ms)}, = {seq}")

    def sums(self, start: str, row: dict, tag: str | None) -> list:
        """Per component, start plus (h * c) * k{j + 1} over the entries
        j: c of row in stage order; tag names the h * c locals, or None
        for the bare coefficients."""
        terms = []
        for j in sorted(row):
            if tag is None:
                terms.append((j + 1, repr(row[j])))
            else:
                terms.append((j + 1, f"{tag}{j + 1}"))
                self.body.append(f"{tag}{j + 1} = h * {row[j]!r}")
        return [" + ".join([start.format(m)]
                           + [f"{c} * k{j}_{m}" for j, c in terms])
                for m in self.ms]

    def assign(self, name: str, codes: list) -> None:
        self.body.extend(f"{name}{m} = {code}" for m, code in zip(self.ms, codes))

    def stage(self, s: int) -> None:
        """k{s} = f at stage s's time and input; unpacked as k{s}_m."""
        arg = self.sums("u{}", _A[s - 1], f"a{s}_")
        self.body.append(f"k{s} = f(t + {_C[s - 1]!r} * h, [{', '.join(arg)}])")
        self.unpack(f"k{s}_", f"k{s}")

    def finite(self, names: str) -> str:
        # x - x == 0.0 holds exactly for the finite floats
        return " and ".join(f"{x}{m} - {x}{m} == 0.0"
                            for x in names.split() for m in self.ms) or "True"

    def source(self, head: str) -> str:
        return head + "".join(f"    {line}\n" for line in self.body)

    def listed(self, name: str) -> str:
        return f"[{', '.join(f'{name}{m}' for m in self.ms)}]"


def _step_source(n: int) -> str:
    """Python source of the DOP853 step for states of size n.

    Every stage input and u_new is the sum, in stage order, of the products
    (h * a) * k[m] over the nonzero tableau entries a, started from u[m];
    the error estimates are the sums of c * k[m] over the error weights c,
    started from 0.0.  So the step is bit-identical to a loop over the
    tableau.  Stage 13 is evaluated at u_new itself.
    """
    src = _Source(n)
    src.unpack("u", "u")
    src.unpack("k1_", "k1")
    for s in range(2, 13):
        src.stage(s)
    src.assign("v", src.sums("u{}", _A[12], "b"))
    src.body.append(f"k13 = f(t + h, {src.listed('v')})")
    src.unpack("k13_", "k13")
    src.assign("e", src.sums("0.0", _E5, None))
    src.assign("g", src.sums("0.0", _E3, None))
    src.assign("s", [f"atol + rtol * max(abs(u{m}), abs(v{m}))" for m in src.ms])
    x5, x3 = (", ".join(["0.0"] + [f"abs({x}{m}) / s{m}" for m in src.ms])
              for x in "eg")
    src.body += [
        f"if {src.finite('v e g k13_')}:",
        f"    x5 = max([{x5}])",
        f"    x3 = max([{x3}])",
        "    den = x5 * x5 + 0.01 * x3 * x3",
        "    norm = abs(h) * x5 * x5 / sqrt(den) if den > 0.0 else 0.0",
        "else:",
        "    norm = nan",
        f"return {src.listed('v')}, norm, "
        f"[{', '.join(f'k{s}' for s in range(1, 14))}]"]
    return src.source("def _step(f, t, u, h, k1, atol, rtol):\n")


def _extend_source(n: int) -> str:
    """Python source of DOP853's 7th-order continuous extension for states
    of size n: the three extra stages and the dense-output coefficients
    r0 = u, r1 = v - u, r2 = h * k1 - r1, r3 = r1 - h * k13 - r2 and
    r{4 + i} = sum of (h * d) * k[m] over row i of _D, as one flat list of
    8 n floats, or None where r4..r7 are not finite."""
    src = _Source(n)
    src.unpack("u", "u")
    src.unpack("v", "v")
    for s in range(1, 14):
        src.unpack(f"k{s}_", f"ks[{s - 1}]")
    for s in range(14, 17):
        src.stage(s)
    src.assign("r1_", [f"v{m} - u{m}" for m in src.ms])
    src.assign("r2_", [f"h * k1_{m} - r1_{m}" for m in src.ms])
    src.assign("r3_", [f"r1_{m} - h * k13_{m} - r2_{m}" for m in src.ms])
    for i, row in enumerate(_D):
        src.assign(f"r{4 + i}_", src.sums("0.0", row, f"d{4 + i}_"))
    flat = ", ".join([f"u{m}" for m in src.ms]
                     + [f"r{i}_{m}" for i in range(1, 8) for m in src.ms])
    src.body += [f"if {src.finite('r4_ r5_ r6_ r7_')}:",
                 f"    return [{flat}]",
                 "return None"]
    return src.source("def _extend(f, t, u, v, ks, h):\n")


def _dense_source(n: int) -> str:
    """Python source of the extension's evaluation at each step fraction
    theta of a sequence: r0 + theta (r1 + s (r2 + theta (r3 + s (r4 + theta
    (r5 + s (r6 + theta r7)))))) per component, with s = 1 - theta."""
    src = _Source(n)
    names = ["u"] + [f"r{i}_" for i in range(1, 8)]
    src.body.append(f"{', '.join(f'{x}{m}' for x in names for m in src.ms)}, = r")
    out = []
    for m in src.ms:
        code = f"r7_{m}"
        for i in range(6, -1, -1):
            code = f"{names[i]}{m} + {'theta' if i % 2 == 0 else 's'} * ({code})"
        out.append(code)
    src.body += ["out = []",
                 "for theta in thetas:",
                 "    s = 1.0 - theta",
                 f"    out.append([{', '.join(out)}])",
                 "return out"]
    return src.source("def _dense(r, thetas):\n")


_GENERATED: dict = {}  # state size -> (step, extend, dense)


def _step_functions(n: int) -> tuple:
    """The DOP853 step, its continuous extension and the extension's
    evaluation for states of size n, generated on first use.

    step(f, t, u, h, k1, atol, rtol) -> (u_new, norm, ks): the 8th-order
    solution, the error norm |h| e5^2 / sqrt(e5^2 + 0.01 e3^2) of the 5th-
    and 3rd-order estimates' max norms scaled by atol + rtol * max(|u|,
    |u_new|) (nan when u_new, an estimate or f(t + h, u_new) is not finite),
    and the 13 stage derivatives, of which ks[12] = f(t + h, u_new) is the
    next step's k1.  extend(f, t, u, u_new, ks, h) -> the dense-output
    coefficients, or None.  dense(r, thetas) -> the states at the step
    fractions thetas.
    """
    fns = _GENERATED.get(n)
    if fns is None:
        scope = {"nan": math.nan, "sqrt": math.sqrt}
        exec(_step_source(n) + _extend_source(n) + _dense_source(n), scope)
        fns = _GENERATED[n] = scope["_step"], scope["_extend"], scope["_dense"]
    return fns


def _locate(guard: Callable, dense: Callable, r, t, h) -> float:
    """Bisect the dense output r of one step for the guard's crossing.

    Returns the step fraction of the crossed end of the final bracket, which
    is at most 1e-6 wide in the independent variable.  A guard that is not
    positive, is nan or raises counts as crossed.
    """
    lo_th, hi_th = 0.0, 1.0
    while (hi_th - lo_th) * abs(h) > 1e-6:
        mid = 0.5 * (lo_th + hi_th)
        try:
            crossed = not guard(t + mid * h, dense(r, (mid,))[0]) > 0.0
        except _UNDEFINED:
            crossed = True
        if crossed:
            hi_th = mid
        else:
            lo_th = mid
    return hi_th


def _guard_values(guards: tuple, t, u) -> list:
    """The guards at (t, u); all nan where any of them is not defined."""
    try:
        return [g(t, u) for g in guards]
    except _UNDEFINED:
        return [math.nan] * len(guards)


def _check_size(size: int, u) -> None:
    """TypeError unless a right-hand side of size components fits u."""
    if size != len(u):
        raise TypeError(f"rhs of size {size} for a state of size {len(u)}")


def _start_step(rhs: Callable, t, u, k1, sgn: float, cfg: SolverConfig) -> float:
    """|h| of the first step (Hairer, Norsett & Wanner I, II.4), in the max
    norm scaled by atol + rtol * |u|: a trial Euler step of 0.01 |u| / |f|
    estimates |f'|, and the step makes the 8th power of h times the larger
    of |f| and |f'| equal to 0.01.  One right-hand-side evaluation."""
    scale = [cfg.atol + cfg.rtol * abs(v) for v in u]
    d0 = max([0.0] + [abs(v) / s for v, s in zip(u, scale)])
    d1 = max([0.0] + [abs(k) / s for k, s in zip(k1, scale)])
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, cfg.span)
    try:
        k = rhs(t + sgn * h0, [v + sgn * h0 * d for v, d in zip(u, k1)])
        d2 = max([0.0] + [abs(b - a) / s for a, b, s in zip(k1, k, scale)]) / h0
    except _UNDEFINED:
        d2 = math.nan
    if not d2 < math.inf:  # the trial evaluation raised or overflowed
        h1 = h0
    elif max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.125
    return min(100.0 * h0, h1, cfg.span, cfg.max_step)


def integrate(rhs: Callable, u0: Sequence[float], cfg: SolverConfig,
              ev: Mapping[str, Callable] = _NO_EVENTS, t0: float = 0.0) -> Trajectory:
    """Adaptive integration with event localisation, and dense samples
    where the caller asks for them.

    With cfg.dense_points = 0 the trajectory records the start, each
    accepted step and the stop, and the continuous extension runs only on
    the step that locates an event.  With cfg.dense_points = N it records
    the start, samples read off the dense output at every 1/N of the span,
    and the stop.

    rhs(t, u) -> sequence of derivatives, one per state component.  A
    right-hand side of another length, or a start of another length than a
    compiled right-hand side's ``states``, raises TypeError, checked once
    at the first evaluation.  Step failures (error control underflow,
    non-finite right-hand sides or an exhausted step budget) terminate the
    trajectory with reason 'step-failure' instead of raising; its last
    point is then the last accepted state.

    ev maps event names to guards g(t, u).  An event fires when a guard
    crosses zero from positive to non-positive within an accepted step,
    located to 1e-6 in t, and ends the trajectory with that name.  Where any
    guard raises, every guard reads nan there, and nan never crosses.  When
    several guards cross in one step, the first in ev's order fires.
    """
    sgn = 1.0 if cfg.direction >= 0 else -1.0
    t_end = t0 + sgn * cfg.span
    u = [float(v) for v in u0]
    t = t0
    # every return before the end of the interval is a failure or an event
    traj = Trajectory(ts=[t], states=[list(u)], termination="step-failure")
    ts, states = traj.ts, traj.states

    def stopped():
        if ts[-1] != t:
            ts.append(t)
            states.append(list(u))
        return traj

    # with no grid the first sample lies at infinity and is never reached
    sample_dt = ((t_end - t0) / cfg.dense_points if cfg.dense_points
                 else sgn * math.inf)
    next_sample = t0 + sample_dt
    hmin = 1e-14 * max(1.0, abs(t_end - t0))
    _check_size(len(getattr(rhs, "states", u)), u)
    try:
        k1 = list(rhs(t, u))
    except _UNDEFINED:
        return traj
    _check_size(len(k1), u)
    if not all(v - v == 0.0 for v in u + k1):  # false for inf and nan
        return traj
    step, extend, dense = _step_functions(len(u))
    h = sgn * max(_start_step(rhs, t, u, k1, sgn, cfg), hmin)
    # Gustafsson's predictive controller (Hairer & Wanner II, IV.8):
    # h_new = 0.9 h err^(-1/8) min(1, (h / h_acc) (err_acc / err)^(1/8)),
    # kept as the quotient q = h / h_new within [1/6, 3]
    h_acc = err_acc = None
    rejected = False
    names, guards = tuple(ev), tuple(ev.values())
    g_prev = _guard_values(guards, t, u)
    while (t_end - t) * sgn > 1e-14 * max(1.0, abs(t_end)):
        if traj.n_steps >= cfg.max_steps:
            return stopped()
        h = sgn * min(abs(h), cfg.max_step)  # exact: h has the sign sgn
        if (t + h - t_end) * sgn > 0:
            h = t_end - t
        try:
            u_new, norm, ks = step(rhs, t, u, h, k1, cfg.atol, cfg.rtol)
        except _UNDEFINED:
            norm = math.nan
        t_new = t + h
        if norm <= 1.0:
            g_new = _guard_values(guards, t_new, u_new)
            hit = next((i for i, (a, b) in enumerate(zip(g_prev, g_new))
                        if a > 0.0 >= b), None)  # nan compares false
            r = None
            if hit is not None or (t_new - next_sample) * sgn >= 0:
                try:
                    r = extend(rhs, t, u, u_new, ks, h)
                except _UNDEFINED:
                    pass
                if r is None:
                    norm = math.nan  # the dense output is not defined
        if not norm <= 1.0:
            # nan: a stage raised, or u_new, an estimate, f(t + h, u_new) or
            # the dense output is not finite
            h *= 0.25 if math.isnan(norm) else 1.0 / min(3.0, norm ** 0.125 / 0.9)
            traj.n_rejected += 1
            rejected = True
            if abs(h) < hmin:
                return stopped()
            continue
        traj.n_steps += 1
        if hit is not None:
            theta_e = _locate(guards[hit], dense, r, t, h)
            te = t + theta_e * h
            thetas = []
            while (te - next_sample) * sgn > 0:
                ts.append(next_sample)
                thetas.append((next_sample - t) / h)
                next_sample += sample_dt
            ts.append(te)
            states += dense(r, thetas + [theta_e])
            traj.termination = "event"
            traj.event_name = names[hit]
            return traj
        if not cfg.dense_points:
            ts.append(t_new)
            states.append(u_new)
        thetas = []
        while (t_new - next_sample) * sgn >= 0:
            theta = (next_sample - t) / h
            if 0.0 <= theta <= 1.0:
                ts.append(next_sample)
                thetas.append(theta)
            next_sample += sample_dt
        if thetas:
            states += dense(r, thetas)
        q = norm ** 0.125 / 0.9
        if h_acc is not None:
            q = max(q, (h_acc / h) * (norm * norm / err_acc) ** 0.125 / 0.9)
        h_acc, err_acc = h, max(1e-2, norm)
        h_next = h / min(3.0, max(1.0 / 6.0, q))
        if rejected:  # no growth right after a rejection
            h_next = sgn * min(abs(h_next), abs(h))
            rejected = False
        t, u, g_prev, k1, h = t_new, u_new, g_new, ks[12], h_next
    if abs(ts[-1] - t_end) > 1e-12 * max(1.0, abs(t_end)):
        ts.append(t_end)
        states.append(list(u))
    traj.termination = "reached-end"
    return traj


def fixed_step_integrate(rhs: Callable, u0: Sequence[float], t0: float,
                         t_end: float, nsteps: int) -> list:
    """Classic-order reference integration with the 8th-order propagator and
    constant steps; used for the observed-order study.  Sizes are checked
    as in ``integrate``."""
    h = (t_end - t0) / nsteps
    u = [float(v) for v in u0]
    t = t0
    _check_size(len(getattr(rhs, "states", u)), u)
    k1 = list(rhs(t, u))
    _check_size(len(k1), u)
    step = _step_functions(len(u))[0]
    for _ in range(nsteps):
        # the error norm is not used; unit tolerances keep it well defined
        u, _, ks = step(rhs, t, u, h, k1, 1.0, 1.0)
        k1 = ks[12]
        t += h
    return u


def _bind_params(e: ex.Expr, params: fluid.FluidParams) -> ex.Expr:
    """Substitute the numeric k and kappa of params into e."""
    bind = {name: ex.number(v) for name, v in
            (("k", params.k), ("kappa", params.kappa)) if v is not None}
    return ex.subs(e, bind) if bind else e


def compile_rhs(rs: ReducedSystem, params: fluid.FluidParams):
    """Compile a reduced system's right-hand sides to a float function.

    Returns the generated function rhs(t, u) -> tuple of floats itself, over
    the state vector u in rs.states order, which its first line unpacks.
    ``integrate`` checks a start's length against its ``states``.
    """
    exprs = [_bind_params(rs.rhs[s], params) for s in rs.states]
    rhs = ex.compile_exprs(exprs, [rs.independent, rs.states])
    rhs.states = rs.states
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
                   blowup_delta: float = 1e-6) -> dict:
    """The guards of a reduced system, as one name -> guard table: the
    velocity blow-up 1 - v^2 - blowup_delta, the collapse of each
    density-like state, and |factor| - 1e-10 for each singular-locus
    factor (nan where the factor cannot be evaluated)."""
    def blowup(t, u):
        v = math.tanh(u[_PSI_INDEX])
        return (1.0 - v * v) - blowup_delta

    table = {"v-blowup": blowup}
    for i in (1, 2):  # the density-like states, in every catalog entry
        table[f"{rs.states[i]}-collapse"] = lambda t, u, i=i: u[i] - 1e-12
    for i, den in enumerate(rs.singular):
        fn = ex.compile_exprs([_bind_params(den, params)],
                              [rs.independent, rs.states])

        def singular(t, u, fn=fn):
            try:
                return abs(fn(t, u)[0]) - 1e-10
            except _UNDEFINED:
                return math.nan

        table[f"singular-locus-{i}"] = singular
    return table


def classify_trajectory(tr: Trajectory) -> str:
    """'decaying' | 'blowing-up' | 'inconclusive'.

    Blowing-up: the blow-up guard fired with v approaching +1 (the guard
    itself is two-sided in 1 - v^2; the mirror branch v -> -1 terminates the
    trajectory but is not the blow-up this classification names).
    Decaying: |v| non-increasing over the final third of the trajectory's
    points (the accepted steps, or the samples of a grid) and no event
    fired.  Each adjacent pair is compared within a tolerance, so the
    verdict depends on the points given: the same start can read
    'decaying' on `solve`'s 200 samples and 'inconclusive' on the accepted
    steps that `critical` classifies.
    """
    if (tr.termination == "event" and tr.event_name == "v-blowup"
            and math.tanh(tr.states[-1][_PSI_INDEX]) > 0):
        return "blowing-up"
    if tr.termination != "reached-end" or len(tr.states) < 6:
        return "inconclusive"
    tail = [abs(math.tanh(s[_PSI_INDEX]))
            for s in tr.states[len(tr.states) * 2 // 3:]]
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


class NoBracketError(RuntimeError):
    pass


def find_critical(run: Callable[[float], Trajectory], lo: float, hi: float,
                  tol: float = 1e-3) -> CriticalResult:
    """Bisect the initial velocity separating decaying from blowing-up runs.

    run(v0) integrates the family member; classification at the endpoints
    must differ (decaying at one end, blowing-up at the other).  Bisection
    stops once the bracket is no wider than tol or its ends are adjacent
    floats.
    """
    tr_lo = run(lo)
    tr_hi = run(hi)
    c_lo = classify_trajectory(tr_lo)
    c_hi = classify_trajectory(tr_hi)
    if {c_lo, c_hi} != {"decaying", "blowing-up"}:
        def verdict(v0, c, tr):
            if tr.termination == "step-failure":
                c += f" (step-failure after {tr.n_steps} steps)"
            return f"v0={v0} -> {c}"
        raise NoBracketError(
            f"endpoints do not bracket a critical velocity: "
            f"{verdict(lo, c_lo, tr_lo)}, {verdict(hi, c_hi, tr_hi)}")
    flip = c_lo == "blowing-up"
    iterations = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # lo and hi are adjacent floats
        c_mid = classify_trajectory(run(mid))
        iterations += 1
        # an undecided run counts as blowing up, so the bracket keeps a
        # decaying endpoint
        if (c_mid != "decaying") != flip:
            hi = mid
        else:
            lo = mid
    return CriticalResult(v_critical=0.5 * (lo + hi), lo=lo, hi=hi,
                          lo_class=c_lo, hi_class=c_hi,
                          iterations=iterations)


def convergence_order(rhs: Callable, u0: Sequence[float], t_end: float,
                      exact: Sequence[float]) -> float:
    """Observed order from fixed-step error ratios under step halving.

    Step counts stay coarse (2 to 8): an 8th-order step reaches the
    roundoff floor soon after, and the error ratios must be measured above
    it."""
    errs = []
    for ns in (2, 4, 8):
        u = fixed_step_integrate(rhs, u0, 0.0, t_end, ns)
        errs.append(max(abs(a - b) for a, b in zip(u, exact)))
    orders = []
    for a, b in zip(errs, errs[1:]):
        if b == 0:
            continue
        orders.append(math.log2(a / b))
    return min(orders) if orders else float("inf")
