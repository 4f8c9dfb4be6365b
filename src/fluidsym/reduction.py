"""Similarity reductions: invariants, reduced ODE systems, symbolic checks.

Each supported reduction case carries the group invariants of one
one-dimensional subalgebra, the inverse map expressing the physical fields
in terms of invariant states, and the mechanically derived explicit
first-order system those states satisfy.  The derivation is verified by
substituting the invariant ansatz back into the full PDE residuals and
normalizing; catalog entries only ship if that residual is structurally
zero.

Case numbering follows the one-dimensional subalgebra list:
  1  d_t + homogeneous states            (evolution in t)
  2  d_x + stationary states             (evolution in x)
  3  dilatation t*d_t + x*d_x - n*d_n    (y = x/t, alpha = n*t)
  4  d_t + a*d_x                         (y = x - a*t, traveling wave)
  5  dilatation + a*(rho,q) scaling      (y = x/t, beta = n*x, w = rho*t^-a)
  6  (rho,q) scaling + d_t + a*d_x       (y = x - a*t, sigma = rho*exp(-t))
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import expr as ex
from . import fluid
from .expr import Expr, JetSpace
from .fluid import FluidParams, PDESystem
from .symmetry import VectorField
from . import symmetry as sm

__all__ = [
    "InvariantSet",
    "ReducedSystem",
    "UnsupportedReductionError",
    "closed_form_case4",
    "invariants_of",
    "reduced_system",
    "supported_cases",
    "symbolic_check_reduction",
    "verify_invariant",
]


class UnsupportedReductionError(ValueError):
    pass


SUPPORTED = {
    "eckart": (1, 2, 3, 4, 5, 6),
    "israel-stewart": (1, 2),
}

UNSUPPORTED_REASON = {
    ("israel-stewart", 3): "no explicit decoupling of the reduced system is catalogued",
    ("israel-stewart", 4): "the reduced system has no real velocity branch in this catalog",
    ("israel-stewart", 5): "no explicit decoupling of the reduced system is catalogued",
    ("israel-stewart", 6): "no explicit decoupling of the reduced system is catalogued",
}


def supported_cases(theory: str) -> tuple:
    if theory not in SUPPORTED:
        raise UnsupportedReductionError(f"unknown theory '{theory}'")
    return SUPPORTED[theory]


@dataclass(frozen=True)
class InvariantSet:
    generator: VectorField
    similarity_variable: Expr | None  # expression in (t, x), None for cases 1-2
    invariants: dict  # name -> Expr in the base variables
    inverse: dict  # field name -> Expr in (t, x or y, state symbols)
    states: tuple


@dataclass(frozen=True)
class ReducedSystem:
    case: int
    theory: str
    independent: str  # 't', 'x' or 'y'
    states: tuple  # state symbol names, order fixed
    rhs: dict  # state -> Expr in (independent, states)
    determinant: Expr  # clearing determinant of the jet solve
    singular: tuple  # denominator expressions bounding integration
    first_integrals: dict  # name -> Expr in (independent, states)
    invariant_set: InvariantSet | None
    lam: Fraction
    direction: int = 1  # default integration orientation for studies


def verify_invariant(V: VectorField, e: Expr) -> Expr:
    """V acting on e as a first-order operator; zero iff e is invariant."""
    return V.apply(e)


def invariants_of(V: VectorField, a_value: Fraction | None = None) -> InvariantSet:
    """Invariants for catalog generators (closed-form characteristic
    integration is catalogued per generator, not computed for arbitrary
    fields)."""
    a = ex.sym("a") if a_value is None else ex.number(a_value)
    t, x, psi, n, rho, q = ex.syms("t x psi n rho q")
    candidates = [(case, _case_invariants(case, a)) for case in (1, 2, 3, 4, 5, 6)]
    try:
        target = sm._field_to_vector(V, sm.Ansatz(degree=1))
    except ValueError:
        raise UnsupportedReductionError(
            "generator is not in the reduction catalog: " + V.text())
    # pure field scaling: five invariants, but no similarity reduction
    scaling = sm._field_to_vector(sm.v_scaling(), sm.Ansatz(degree=1))
    if target == scaling:
        return InvariantSet(sm.v_scaling(), None,
                            {"t": t, "x": x, "psi": psi, "n": n,
                             "theta": q / rho},
                            {"psi": psi, "n": n},
                            ())
    for case, inv in candidates:
        try:
            gen_vec = sm._field_to_vector(inv.generator, sm.Ansatz(degree=1))
        except ValueError:
            continue
        if gen_vec == target:
            return inv
    raise UnsupportedReductionError(
        "generator is not in the reduction catalog: " + V.text())


def _case_invariants(case: int, a: Expr) -> InvariantSet:
    t, x, psi, n, rho, q = ex.syms("t x psi n rho q")
    if case == 1:
        gen = sm.v_time()
        return InvariantSet(gen, None,
                            {"psi": psi, "n": n, "rho": rho, "q": q, "y": x},
                            {"psi": psi, "n": n, "rho": rho, "q": q},
                            ("psi", "n", "rho", "q"))
    if case == 2:
        gen = sm.v_space()
        return InvariantSet(gen, None,
                            {"psi": psi, "n": n, "rho": rho, "q": q, "y": t},
                            {"psi": psi, "n": n, "rho": rho, "q": q},
                            ("psi", "n", "rho", "q"))
    if case == 3:
        gen = sm.v_dilation()
        y = x / t
        return InvariantSet(gen, y,
                            {"y": y, "psi": psi, "alpha": n * t,
                             "rho": rho, "q": q},
                            {"psi": psi, "n": ex.sym("alpha") / t,
                             "rho": rho, "q": q},
                            ("psi", "alpha", "rho", "q"))
    if case == 4:
        gen = sm.v_time() + sm.v_space().scale(a)
        y = x - a * t
        return InvariantSet(gen, y,
                            {"y": y, "psi": psi, "n": n, "rho": rho, "q": q},
                            {"psi": psi, "n": n, "rho": rho, "q": q},
                            ("psi", "n", "rho", "q"))
    if case == 5:
        gen = sm.v_dilation() + sm.v_scaling().scale(a)
        y = x / t
        w = rho * t ** (-a)
        return InvariantSet(gen, y,
                            {"y": y, "psi": psi, "beta": n * x,
                             "w": w, "theta": q / rho},
                            {"psi": psi,
                             "n": ex.sym("beta") / (ex.sym("y") * t),
                             "rho": ex.sym("w") * t ** a,
                             "q": ex.sym("theta") * ex.sym("w") * t ** a},
                            ("psi", "beta", "w", "theta"))
    if case == 6:
        gen = sm.v_scaling() + sm.v_time() + sm.v_space().scale(a)
        y = x - a * t
        return InvariantSet(gen, y,
                            {"y": y, "psi": psi, "n": n,
                             "sigma": rho * ex.exp(-t), "theta": q / rho},
                            {"psi": psi, "n": n,
                             "rho": ex.sym("sigma") * ex.exp(t),
                             "q": ex.sym("theta") * ex.sym("sigma") * ex.exp(t)},
                            ("psi", "n", "sigma", "theta"))
    raise UnsupportedReductionError(f"no reduction catalogued for case {case}")


def _similarity_partials(case: int, a: Expr) -> tuple:
    """(y_t, y_x) expressed in (t, y)."""
    t, y = ex.sym("t"), ex.sym("y")
    if case in (3, 5):
        return (-y / t, ex.ONE / t)
    if case in (4, 6):
        return (-a, ex.ONE)
    raise UnsupportedReductionError(f"case {case} has no similarity variable")


def _substituted_residuals(sys: PDESystem, case: int, a: Expr,
                           inst_t: Fraction | None) -> tuple:
    """Residuals with the invariant ansatz substituted.

    Returns (list of Exprs in (t, y, states, state-jets), state names).
    When inst_t is given, the explicit scale variable t is instantiated at
    that value (legitimate for deriving the reduced right-hand sides, whose
    validity for all t is re-established by the symbolic check).
    """
    inv = _case_invariants(case, a)
    states = inv.states
    space = JetSpace(("y",), states)
    y_t, y_x = _similarity_partials(case, a)
    bindings = {}
    for fname in fluid.FIELD_NAMES:
        U = inv.inverse[fname]
        bindings[fname] = U
        dU_dt = ex.diff(U, "t")
        dU_dy = ex.diff(U, "y")
        chain_t = dU_dt + dU_dy * y_t
        chain_x = dU_dy * y_x
        for s in states:
            dU_ds = ex.diff(U, s)
            if dU_ds.is_zero():
                continue
            sj = ex.sym(space.jet(s, "y"))
            chain_t = chain_t + dU_ds * sj * y_t
            chain_x = chain_x + dU_ds * sj * y_x
        bindings[f"{fname}_t"] = chain_t
        bindings[f"{fname}_x"] = chain_x
    out = []
    for res in sys.residuals:
        sub = ex.subs(res, bindings)
        if inst_t is not None:
            sub = ex.subs(sub, {"t": ex.number(inst_t)})
        out.append(sub)
    return out, states


_FIRST_INTEGRALS = {
    # name -> expression in (independent, states); machine-verified on build
    1: {
        "particle": "n*cosh(psi)",
        "energy_flux": "rho*cosh(psi)^2 + (1/3)*rho*sinh(psi)^2 + 2*q*sinh(psi)*cosh(psi)",
        "momentum_flux": "(4/3)*rho*sinh(psi)*cosh(psi) + q*cosh(2*psi)",
    },
    2: {
        "particle_flux": "n*sinh(psi)",
        "momentum": "(4/3)*rho*sinh(psi)^2 + (1/3)*rho + 2*q*sinh(psi)*cosh(psi)",
        "energy": "(4/3)*rho*sinh(psi)*cosh(psi) + q*cosh(2*psi)",
    },
    3: {
        "particle": "alpha*(sinh(psi) + y*cosh(psi))",
    },
    4: {
        "particle": "n*(sinh(psi) + a*cosh(psi))",
    },
    5: {
        "particle": "beta*(sinh(psi) + y*cosh(psi))/y",
    },
    6: {
        "particle": "n*(sinh(psi) + a*cosh(psi))",
    },
}


def _group_parameter(case: int, a_value: Fraction | None) -> Fraction:
    """The group parameter a: a_value, by default -1 for the traveling-wave
    cases 4 and 6 and 1 otherwise."""
    if a_value is not None:
        return a_value
    return Fraction(-1) if case in (4, 6) else Fraction(1)


def reduced_system(case: int, theory: str,
                   a_value: Fraction | None = None) -> ReducedSystem:
    """Mechanically derived explicit first-order reduction for one case."""
    if theory not in SUPPORTED:
        raise UnsupportedReductionError(f"unknown theory '{theory}'")
    if case not in SUPPORTED[theory]:
        reason = UNSUPPORTED_REASON.get(
            (theory, case), "no reduction is catalogued for this combination")
        raise UnsupportedReductionError(
            f"case {case} is not supported for theory '{theory}': {reason}")
    lam = Fraction(0) if theory == "eckart" else Fraction(1)
    # keep k and kappa symbolic: numeric values are bound at compile time
    params = FluidParams(k=None, kappa=None, lam=lam)
    sys = fluid.build_system(params)
    if case == 1:
        qf = fluid.quasilinear_time_form(sys)
        zero = {nm: ex.ZERO for nm in fluid.SPACE_JETS}
        rhs = {u: ex.subs(qf[f"{u}_t"], zero) for u in fluid.FIELD_NAMES}
        det = ex.subs(qf["_det"], zero)
        return _finish(case, theory, "t", fluid.FIELD_NAMES, rhs, det, None, lam)
    if case == 2:
        qf = fluid.quasilinear_space_form(sys)
        zero = {nm: ex.ZERO for nm in fluid.TIME_JETS}
        rhs = {u: ex.subs(qf[f"{u}_x"], zero) for u in fluid.FIELD_NAMES}
        det = ex.subs(qf["_det"], zero)
        return _finish(case, theory, "x", fluid.FIELD_NAMES, rhs, det, None, lam,
                       direction=-1)
    a_value = _group_parameter(case, a_value)
    a = ex.number(a_value)
    inst = Fraction(0) if case == 6 else Fraction(1)
    if case == 4:
        inst = None  # t drops out without instantiation
    res, states = _substituted_residuals(sys, case, a, inst)
    space = JetSpace(("y",), states)
    sol, det = fluid.solve_for_jets(res, [space.jet(s, "y") for s in states])
    rhs = {s: sol[space.jet(s, "y")] for s in states}
    inv = _case_invariants(case, a)
    return _finish(case, theory, "y", states, rhs, det, inv, lam, a_value=a_value)


def _finish(case, theory, indep, states, rhs, det, inv, lam,
            a_value=None, direction=1):
    singular = [ex.denominator(r) for r in rhs.values()
                if not ex.denominator(r).equivalent(ex.ONE)]
    singular.append(det)
    integrals = {}
    for name, text in _FIRST_INTEGRALS.get(case, {}).items():
        e = ex.parse(text)
        if a_value is not None:
            e = ex.subs(e, {"a": ex.number(a_value)})
        integrals[name] = e
    seen = set()
    uniq = []
    for s in singular:
        lead = ex.Expr({ex._leading_mono(s.num): s.num[ex._leading_mono(s.num)]},
                       {ex._ONE_MONO: Fraction(1)}) if s.num else ex.ONE
        monic = s / lead
        if monic.key() not in seen:
            seen.add(monic.key())
            uniq.append(monic)
    return ReducedSystem(case=case, theory=theory, independent=indep,
                         states=tuple(states), rhs=rhs, determinant=det,
                         singular=tuple(uniq), first_integrals=integrals,
                         invariant_set=inv, lam=lam, direction=direction)


def first_integral_defects(rs: ReducedSystem) -> dict:
    """d/dy of each first integral along the reduced flow; all zero when
    the integral is exact."""
    space = JetSpace((rs.independent,), rs.states)
    out = {}
    for name, I in rs.first_integrals.items():
        ddy = ex.diff(I, rs.independent)
        for s in rs.states:
            dI = ex.diff(I, s)
            if not dI.is_zero():
                ddy = ddy + dI * rs.rhs[s]
        out[name] = ddy
    return out


def symbolic_check_reduction(case: int, theory: str,
                             a_value: Fraction | None = None) -> dict:
    """Substitute the inverse invariant map into the full residuals,
    eliminate state derivatives with the catalog right-hand sides, and
    normalize.  Returns {'residuals': [Expr]*4, 'ok': bool, 'system':
    ReducedSystem}, the system being the one checked.  Nonzero residuals are
    reported, not raised."""
    rs = reduced_system(case, theory, a_value=a_value)
    lam = rs.lam
    sys = fluid.build_system(FluidParams(k=None, kappa=None, lam=lam))
    if case == 1:
        res = [ex.subs(r, {nm: ex.ZERO for nm in fluid.SPACE_JETS})
               for r in sys.residuals]
        jet_map = {f"{u}_t": rs.rhs[u] for u in fluid.FIELD_NAMES}
    elif case == 2:
        res = [ex.subs(r, {nm: ex.ZERO for nm in fluid.TIME_JETS})
               for r in sys.residuals]
        jet_map = {f"{u}_x": rs.rhs[u] for u in fluid.FIELD_NAMES}
    else:
        a = ex.number(_group_parameter(case, a_value))
        res, _ = _substituted_residuals(sys, case, a, None)
        space = JetSpace(("y",), rs.states)
        jet_map = {space.jet(s, "y"): rs.rhs[s] for s in rs.states}
    # the residuals are affine in the state jets: substitute r0*D + sum
    # c_j*N_j over the shared denominator D of the right-hand sides, then
    # divide by D once
    cleared = ex.ClearedSubstitution(jet_map)
    out = [cleared(r, 1) / cleared.denominator for r in res]
    return {"residuals": out, "ok": all(r.is_zero() for r in out), "system": rs}


def closed_form_case4(params: FluidParams, C1: float, C2: float, y: float,
                      rho0: float = 1.0) -> dict:
    """Reference traveling-wave profile for case 4 with a = -1.

    Returns the state and its exact y-derivatives.  Kept for comparison
    purposes: the profile satisfies particle conservation but leaves the
    energy-momentum residuals nonzero (a documented defect of the source
    formula), which residual_at makes visible.
    """
    k = float(params.k if params.k is not None else 1)
    kappa = float(params.kappa if params.kappa is not None else 1)
    N0 = params.N0
    g = kappa * C1 / (k * N0)
    if g <= 0:
        raise ex.DomainError("kappa*C1/(k*N0) must be positive")
    b = math.sqrt(g)
    eta = y - C2
    th = math.tanh(b * eta)
    inner = b * th
    if inner <= 0:
        raise ex.DomainError("profile argument is non-positive at this ordinate")
    psi = math.log(inner)
    v = math.tanh(psi)
    sech2 = 1.0 - th * th
    psi_y = b * sech2 / th
    v_y = (1.0 - v * v) * psi_y
    n = N0 * math.sqrt((1.0 + v) / (1.0 - v))
    n_y = n * psi_y
    q = (2.0 * kappa / (3.0 * k * N0)) * rho0 * v_y / (1.0 + v) ** 2
    # q_y from the analytic derivative of the profile
    psi_yy = -b * b * sech2 * (1.0 + th * th) / (th * th)
    v_yy = (1.0 - v * v) * (psi_yy - 2.0 * v * psi_y * psi_y)
    q_y = (2.0 * kappa / (3.0 * k * N0)) * rho0 * (
        v_yy / (1.0 + v) ** 2 - 2.0 * v_y * v_y / (1.0 + v) ** 3)
    return {
        "psi": psi, "n": n, "rho": rho0, "q": q, "v": v,
        "psi_y": psi_y, "n_y": n_y, "rho_y": 0.0, "q_y": q_y,
    }
