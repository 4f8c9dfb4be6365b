"""Similarity reductions: invariants, reduced ODE systems, symbolic checks.

Each reduction case is one one-dimensional subalgebra, and its catalog entry
states everything the derivation reads: the generator, the group invariants,
the inverse map giving the physical fields in the invariant states, the
partials (y_t, y_x) of the similarity variable y, the name of the independent
variable, the value t takes while deriving, and the default orientation,
start ordinate and group parameter a.  The translations d_t and d_x are
ordinary entries: their invariants are the fields themselves, and t or x is
the independent variable.

Every case takes one path.  ``reduced_system`` substitutes the invariant
ansatz into the full PDE residuals by the chain rule and solves the result,
which is affine in the state derivatives, for those derivatives.
``symbolic_check_reduction`` substitutes the ansatz again with t kept
symbolic, eliminates the state derivatives with the derived right-hand sides
and normalizes: the residuals are zero exactly when the reduction holds for
all t.  ``SUPPORTED`` is a fixed table; the check runs in ``verify`` and in
the tests.

Case numbering follows the one-dimensional subalgebra list:
  1  d_x: homogeneous states             (evolution in t)
  2  d_t: stationary states              (evolution in x)
  3  dilatation t*d_t + x*d_x - n*d_n    (y = x/t, alpha = n*t)
  4  d_t + a*d_x                         (y = x - a*t, traveling wave)
  5  dilatation + a*(rho,q) scaling      (y = x/t, beta = n*x, w = rho*t^-a)
  6  (rho,q) scaling + d_t + a*d_x       (y = x - a*t, sigma = rho*exp(-t))
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import expr as ex
from . import fluid
from .expr import Expr, JetSpace
from .fluid import FIELD_NAMES, FluidParams, PDESystem
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
    inverse: dict  # field name -> Expr in (t, y, state symbols)
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
    invariant_set: InvariantSet | None  # None for cases 1-2
    lam: Fraction
    direction: int = 1  # default integration orientation for studies
    start: float = 0.0  # default start ordinate of the independent variable


@dataclass(frozen=True)
class _Case:
    """One catalog entry.  The callables take the group parameter a: an
    Expr, or None for a case that takes no a."""
    invariants: Callable  # a -> InvariantSet
    independent: str  # 't', 'x' or 'y'
    partials: Callable  # a -> (y_t, y_x) in (t, y)
    inst_t: Fraction | None  # value of t while deriving; None keeps t
    first_integrals: dict  # name -> text in (independent, states, a)
    default_a: Fraction | None = None  # None: the case takes no a
    direction: int = 1  # default integration orientation
    start: float = 0.0  # default start ordinate, off the singular points


def _catalog() -> dict:
    t, x, y, psi, n, rho, q = ex.syms("t x y psi n rho q")
    alpha, beta, w, sigma, theta = ex.syms("alpha beta w sigma theta")
    fields = {"psi": psi, "n": n, "rho": rho, "q": q}
    # the first integrals are checked exact by first_integral_defects
    traveling_particle = {"particle": "n*(sinh(psi) + a*cosh(psi))"}
    return {
        1: _Case(lambda a: InvariantSet(sm.v_space(), None, {**fields, "y": t},
                                        dict(fields), FIELD_NAMES),
                 "t", partials=lambda a: (ex.ONE, ex.ZERO), inst_t=None,
                 first_integrals={
                     "particle": "n*cosh(psi)",
                     "energy_flux": "rho*cosh(psi)^2 + (1/3)*rho*sinh(psi)^2 + 2*q*sinh(psi)*cosh(psi)",
                     "momentum_flux": "(4/3)*rho*sinh(psi)*cosh(psi) + q*cosh(2*psi)",
                 }),
        2: _Case(lambda a: InvariantSet(sm.v_time(), None, {**fields, "y": x},
                                        dict(fields), FIELD_NAMES),
                 "x", partials=lambda a: (ex.ZERO, ex.ONE), inst_t=None,
                 first_integrals={
                     "particle_flux": "n*sinh(psi)",
                     "momentum": "(4/3)*rho*sinh(psi)^2 + (1/3)*rho + 2*q*sinh(psi)*cosh(psi)",
                     "energy": "(4/3)*rho*sinh(psi)*cosh(psi) + q*cosh(2*psi)",
                 }, direction=-1),
        3: _Case(lambda a: InvariantSet(
                     sm.v_dilation(), x / t,
                     {"y": x / t, "psi": psi, "alpha": n * t, "rho": rho, "q": q},
                     {**fields, "n": alpha / t}, ("psi", "alpha", "rho", "q")),
                 "y", partials=lambda a: (-y / t, ex.ONE / t), inst_t=Fraction(1),
                 first_integrals={"particle": "alpha*(sinh(psi) + y*cosh(psi))"}),
        4: _Case(lambda a: InvariantSet(
                     sm.v_time() + sm.v_space().scale(a), x - a * t,
                     {"y": x - a * t, **fields}, dict(fields), FIELD_NAMES),
                 "y", partials=lambda a: (-a, ex.ONE), inst_t=None,
                 first_integrals=traveling_particle, default_a=Fraction(-1)),
        5: _Case(lambda a: InvariantSet(
                     sm.v_dilation() + sm.v_scaling().scale(a), x / t,
                     {"y": x / t, "psi": psi, "beta": n * x, "w": rho * t ** (-a),
                      "theta": q / rho},
                     {"psi": psi, "n": beta / (y * t), "rho": w * t ** a,
                      "q": theta * w * t ** a},
                     ("psi", "beta", "w", "theta")),
                 "y", partials=lambda a: (-y / t, ex.ONE / t), inst_t=Fraction(1),
                 first_integrals={"particle": "beta*(sinh(psi) + y*cosh(psi))/y"},
                 default_a=Fraction(1), start=1.0),
        6: _Case(lambda a: InvariantSet(
                     sm.v_scaling() + sm.v_time() + sm.v_space().scale(a), x - a * t,
                     {"y": x - a * t, "psi": psi, "n": n, "sigma": rho * ex.exp(-t),
                      "theta": q / rho},
                     {"psi": psi, "n": n, "rho": sigma * ex.exp(t),
                      "q": theta * sigma * ex.exp(t)},
                     ("psi", "n", "sigma", "theta")),
                 "y", partials=lambda a: (-a, ex.ONE), inst_t=Fraction(0),
                 first_integrals=traveling_particle, default_a=Fraction(-1)),
    }


_CATALOG = _catalog()


def _case_invariants(case: int, a: Expr | None) -> InvariantSet:
    return _CATALOG[case].invariants(a)


def _group_parameter(case: int, a_value: Fraction | None) -> Expr | None:
    """The group parameter a: a_value, else the entry's default.  None for a
    case that takes no a, where passing one is an error."""
    default = _CATALOG[case].default_a
    if default is None:
        if a_value is not None:
            raise UnsupportedReductionError(f"case {case} takes no group parameter a")
        return None
    return ex.number(default if a_value is None else a_value)


def verify_invariant(V: VectorField, e: Expr) -> Expr:
    """V acting on e as a first-order operator; zero iff e is invariant."""
    return V.apply(e)


def invariants_of(V: VectorField, a_value: Fraction | None = None) -> InvariantSet:
    """Invariants for catalog generators (closed-form characteristic
    integration is catalogued per generator, not computed for arbitrary
    fields)."""
    a = ex.sym("a") if a_value is None else ex.number(a_value)
    t, x, psi, n, rho, q = ex.syms("t x psi n rho q")
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
    for case in _CATALOG:
        inv = _case_invariants(case, a)
        try:
            gen_vec = sm._field_to_vector(inv.generator, sm.Ansatz(degree=1))
        except ValueError:
            continue
        if gen_vec == target:
            return inv
    raise UnsupportedReductionError(
        "generator is not in the reduction catalog: " + V.text())


def _substituted_residuals(sys: PDESystem, case: int, a: Expr | None,
                           inst_t: Fraction | None) -> tuple:
    """Residuals with the invariant ansatz substituted.

    Returns (list of Exprs in (t, y, states, state jets), {state: jet name}),
    each state jet taken along the entry's independent variable.  When
    inst_t is given, the explicit scale variable t is instantiated at that
    value (legitimate for deriving the reduced right-hand sides, whose
    validity for all t is re-established by the symbolic check).
    """
    entry = _CATALOG[case]
    inv = _case_invariants(case, a)
    space = JetSpace((entry.independent,), inv.states)
    jets = {s: space.jet(s, entry.independent) for s in inv.states}
    y_t, y_x = entry.partials(a)
    bindings = {}
    for fname in FIELD_NAMES:
        U = inv.inverse[fname]
        bindings[fname] = U
        dU_dy = ex.diff(U, "y")
        chain_t = ex.diff(U, "t") + dU_dy * y_t
        chain_x = dU_dy * y_x
        for s, jet in jets.items():
            dU_ds = ex.diff(U, s)
            if dU_ds.is_zero():
                continue
            chain_t = chain_t + dU_ds * ex.sym(jet) * y_t
            chain_x = chain_x + dU_ds * ex.sym(jet) * y_x
        bindings[f"{fname}_t"] = chain_t
        bindings[f"{fname}_x"] = chain_x
    out = []
    for res in sys.residuals:
        sub = ex.subs(res, bindings)
        if inst_t is not None:
            sub = ex.subs(sub, {"t": ex.number(inst_t)})
        out.append(sub)
    return out, jets


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
    entry = _CATALOG[case]
    a = _group_parameter(case, a_value)
    lam = Fraction(0) if theory == "eckart" else Fraction(1)
    # keep k and kappa symbolic: numeric values are bound at compile time
    sys = fluid.build_system(FluidParams(k=None, kappa=None, lam=lam))
    res, jets = _substituted_residuals(sys, case, a, entry.inst_t)
    sol, det = fluid.solve_for_jets(res, list(jets.values()))
    rhs = {s: sol[jet] for s, jet in jets.items()}
    singular = [ex.denominator(r) for r in rhs.values()
                if not ex.denominator(r).equivalent(ex.ONE)]
    singular.append(det)
    integrals = {}
    for name, text in entry.first_integrals.items():
        e = ex.parse(text)
        integrals[name] = e if a is None else ex.subs(e, {"a": a})
    seen = set()
    uniq = []
    for s in singular:
        lead = ex.Expr({ex._leading_mono(s.num): s.num[ex._leading_mono(s.num)]},
                       {ex._ONE_MONO: Fraction(1)}) if s.num else ex.ONE
        monic = s / lead
        if monic.key() not in seen:
            seen.add(monic.key())
            uniq.append(monic)
    inv = _case_invariants(case, a)
    return ReducedSystem(case=case, theory=theory, independent=entry.independent,
                         states=tuple(jets), rhs=rhs, determinant=det,
                         singular=tuple(uniq), first_integrals=integrals,
                         invariant_set=None if inv.similarity_variable is None else inv,
                         lam=lam, direction=entry.direction,
                         start=entry.start)


def first_integral_defects(rs: ReducedSystem) -> dict:
    """d/dy of each first integral along the reduced flow; all zero when
    the integral is exact."""
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
    sys = fluid.build_system(FluidParams(k=None, kappa=None, lam=rs.lam))
    res, jets = _substituted_residuals(sys, case, _group_parameter(case, a_value), None)
    # the residuals are affine in the state jets: substitute r0*D + sum
    # c_j*N_j over the shared denominator D of the right-hand sides, then
    # divide by D once
    cleared = ex.ClearedSubstitution({jet: rs.rhs[s] for s, jet in jets.items()})
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
