"""Similarity reductions: invariants, reduced ODE systems, symbolic checks.

Each reduction case is one one-dimensional subalgebra, and its catalog entry
states everything the derivation reads: the generator, the group invariants,
the inverse map giving the physical fields in the invariant states, the
partials (y_t, y_x) of the similarity variable y, the first integrals, the
name of the independent variable, the value t takes while deriving, and the
default orientation, start ordinate and group parameter a.  Every formula is
an Expr, built from a at derivation time.  The translations d_t and d_x are
ordinary entries: their invariants are the fields themselves, and t or x is
the independent variable.

Every case is derived once.  ``_derivation`` substitutes the invariant
ansatz into the full PDE residuals by the chain rule, with t kept symbolic,
and solves the result, which is affine in the state derivatives, for those
derivatives.  ``symbolic_check_reduction`` replaces the state derivatives in
the same symbolic residuals by the derived right-hand sides and normalizes:
the residuals are zero exactly when the reduction holds for all t.
Every catalogued case derives for both closures.  ``SUPPORTED`` names the
pairs that ``verify``, the reductions demo and the benchmark iterate.

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
from .expr import Expr, JetSpace, cosh, sinh
from .fluid import FIELD_NAMES, FluidParams, PDESystem
from .symmetry import VectorField
from . import symmetry as sm

__all__ = [
    "InvariantSet",
    "ReducedSystem",
    "UnsupportedReductionError",
    "closed_form_case4",
    "reduced_system",
    "supported_cases",
    "symbolic_check_reduction",
]


class UnsupportedReductionError(ValueError):
    pass


# The pairs that the battery, the demos and the benchmark iterate; the
# catalog alone decides what derives (``_derivation``).
SUPPORTED = {
    "eckart": (1, 2, 3, 4, 5, 6),
    "israel-stewart": (1, 2),
}


def supported_cases(theory: str) -> tuple:
    if theory not in SUPPORTED:
        raise UnsupportedReductionError(f"unknown theory '{theory}'")
    return SUPPORTED[theory]


@dataclass(frozen=True)
class InvariantSet:
    generator: VectorField
    invariants: dict  # name -> Expr in the base variables; y is the similarity variable
    inverse: dict  # field name -> Expr in (t, y, state symbols)
    states: tuple


@dataclass(frozen=True)
class ReducedSystem:
    case: int
    theory: str
    independent: str  # 't', 'x' or 'y'
    states: tuple  # state symbol names, order fixed
    rhs: dict  # state -> Expr in (independent, states)
    determinant: Expr  # determinant of the jet solve's coefficient matrix
    singular: tuple  # the determinant made monic, unless it is constant
    first_integrals: dict  # name -> Expr in (independent, states)
    invariant_set: InvariantSet | None  # None for cases 1-2
    lam: Fraction
    direction: int = 1  # default integration orientation for studies
    start: float = 0.0  # default start ordinate of the independent variable


@dataclass(frozen=True)
class _Case:
    """One catalog entry.  The callables build its formulas from the group
    parameter a: an Expr, or None for a case that takes no a."""
    invariants: Callable  # a -> InvariantSet
    independent: str  # 't', 'x' or 'y'
    partials: Callable  # a -> (y_t, y_x) in (t, y)
    inst_t: Fraction | None  # value of t while deriving; None keeps t
    first_integrals: Callable  # a -> {name: Expr in (independent, states)}
    default_a: Fraction | None = None  # None: the case takes no a
    direction: int = 1  # default integration orientation
    start: float = 0.0  # default start ordinate, off the singular points


def _catalog() -> dict:
    t, x, y, psi, n, rho, q = ex.syms("t x y psi n rho q")
    alpha, beta, w, sigma, theta = ex.syms("alpha beta w sigma theta")
    fields = {"psi": psi, "n": n, "rho": rho, "q": q}
    # the first integrals are checked exact by first_integral_defects
    def homogeneous(a):
        sh, ch = sinh(psi), cosh(psi)
        return {"particle": n * ch,
                "energy_flux": rho * ch ** 2 + rho * sh ** 2 / 3 + 2 * q * sh * ch,
                "momentum_flux": 4 * rho * sh * ch / 3 + q * cosh(2 * psi)}
    def stationary(a):
        sh, ch = sinh(psi), cosh(psi)
        return {"particle_flux": n * sh,
                "momentum": 4 * rho * sh ** 2 / 3 + rho / 3 + 2 * q * sh * ch,
                "energy": 4 * rho * sh * ch / 3 + q * cosh(2 * psi)}
    def traveling_particle(a):
        return {"particle": n * (sinh(psi) + a * cosh(psi))}
    return {
        1: _Case(lambda a: InvariantSet(sm.v_space(), {**fields, "y": t},
                                        dict(fields), FIELD_NAMES),
                 "t", partials=lambda a: (ex.ONE, ex.ZERO), inst_t=None,
                 first_integrals=homogeneous),
        2: _Case(lambda a: InvariantSet(sm.v_time(), {**fields, "y": x},
                                        dict(fields), FIELD_NAMES),
                 "x", partials=lambda a: (ex.ZERO, ex.ONE), inst_t=None,
                 first_integrals=stationary, direction=-1),
        3: _Case(lambda a: InvariantSet(
                     sm.v_dilation(),
                     {"y": x / t, "psi": psi, "alpha": n * t, "rho": rho, "q": q},
                     {**fields, "n": alpha / t}, ("psi", "alpha", "rho", "q")),
                 "y", partials=lambda a: (-y / t, ex.ONE / t), inst_t=Fraction(1),
                 first_integrals=lambda a: {
                     "particle": alpha * (sinh(psi) + y * cosh(psi))}),
        4: _Case(lambda a: InvariantSet(
                     sm.v_time() + sm.v_space().scale(a),
                     {"y": x - a * t, **fields}, dict(fields), FIELD_NAMES),
                 "y", partials=lambda a: (-a, ex.ONE), inst_t=None,
                 first_integrals=traveling_particle, default_a=Fraction(-1)),
        5: _Case(lambda a: InvariantSet(
                     sm.v_dilation() + sm.v_scaling().scale(a),
                     {"y": x / t, "psi": psi, "beta": n * x, "w": rho * t ** (-a),
                      "theta": q / rho},
                     {"psi": psi, "n": beta / (y * t), "rho": w * t ** a,
                      "q": theta * w * t ** a},
                     ("psi", "beta", "w", "theta")),
                 "y", partials=lambda a: (-y / t, ex.ONE / t), inst_t=Fraction(1),
                 first_integrals=lambda a: {
                     "particle": beta * (sinh(psi) + y * cosh(psi)) / y},
                 default_a=Fraction(1), start=1.0),
        6: _Case(lambda a: InvariantSet(
                     sm.v_scaling() + sm.v_time() + sm.v_space().scale(a),
                     {"y": x - a * t, "psi": psi, "n": n, "sigma": rho * ex.exp(-t),
                      "theta": q / rho},
                     {"psi": psi, "n": n, "rho": sigma * ex.exp(t),
                      "q": theta * sigma * ex.exp(t)},
                     ("psi", "n", "sigma", "theta")),
                 "y", partials=lambda a: (-a, ex.ONE), inst_t=Fraction(0),
                 first_integrals=traveling_particle, default_a=Fraction(-1)),
    }


_CATALOG = _catalog()


def _group_parameter(case: int, a_value: Fraction | None) -> Expr | None:
    """The group parameter a: a_value, else the entry's default.  None for a
    case that takes no a, where passing one is an error."""
    default = _CATALOG[case].default_a
    if default is None:
        if a_value is not None:
            raise UnsupportedReductionError(f"case {case} takes no group parameter a")
        return None
    return ex.number(default if a_value is None else a_value)


def _substituted_residuals(sys: PDESystem, case: int, a: Expr | None,
                           inv: InvariantSet) -> tuple:
    """Residuals with the invariant ansatz inv substituted, t kept symbolic.

    Returns (list of Exprs in (t, y, states, state jets), {state: jet name}),
    each state jet taken along the entry's independent variable.
    """
    entry = _CATALOG[case]
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
    return [ex.subs(res, bindings) for res in sys.residuals], jets


def _derivation(case: int, theory: str, a_value: Fraction | None) -> tuple:
    """Derive one reduction: build the system, substitute the invariant
    ansatz and solve for the state jets.  Returns (ReducedSystem, the four
    substituted residuals with t kept symbolic), which the symbolic check
    reads."""
    if theory not in fluid.THEORY_LAM:
        raise UnsupportedReductionError(f"unknown theory '{theory}'")
    if case not in _CATALOG:
        raise UnsupportedReductionError(
            f"case {case} is not supported for theory '{theory}': "
            "no reduction is catalogued for this combination")
    entry = _CATALOG[case]
    a = _group_parameter(case, a_value)
    inv = entry.invariants(a)
    lam = fluid.THEORY_LAM[theory]
    # keep k and kappa symbolic: numeric values are bound at compile time
    sys = fluid.build_system(FluidParams(k=None, kappa=None, lam=lam))
    res, jets = _substituted_residuals(sys, case, a, inv)
    # instantiating t is legitimate for deriving the right-hand sides: the
    # symbolic check re-establishes them for all t from res
    solved = res if entry.inst_t is None else [
        ex.subs(r, {"t": ex.number(entry.inst_t)}) for r in res]
    sol, det = fluid.solve_for_jets(solved, list(jets.values()))
    rhs = {s: sol[jet] for s, jet in jets.items()}
    # Cramer's rule divides by det alone, so det = 0 is the whole singular
    # locus; a monomial det is monic 1 and vanishes nowhere
    locus = ex.monic(det)
    rs = ReducedSystem(case=case, theory=theory, independent=entry.independent,
                       states=tuple(jets), rhs=rhs, determinant=det,
                       singular=() if locus.is_rational() else (locus,),
                       first_integrals=entry.first_integrals(a),
                       invariant_set=inv if entry.independent == "y" else None,
                       lam=lam, direction=entry.direction,
                       start=entry.start)
    return rs, res


def reduced_system(case: int, theory: str,
                   a_value: Fraction | None = None) -> ReducedSystem:
    """Mechanically derived explicit first-order reduction for one case."""
    return _derivation(case, theory, a_value)[0]


def _on_flow(rs: ReducedSystem, exprs: list) -> list:
    """Each expression, affine in the state jets, with every jet replaced by
    its right-hand side N_s/D: over the shared denominator D of the
    right-hand sides (``ex.ClearedSubstitution``), r0 + sum c_s*jet_s
    becomes (r0*D + sum c_s*N_s) / D, divided by D once."""
    space = JetSpace((rs.independent,), rs.states)
    cleared = ex.ClearedSubstitution(
        {space.jet(s, rs.independent): rs.rhs[s] for s in rs.states})
    return [cleared(e, 1) / cleared.denominator for e in exprs]


def first_integral_defects(rs: ReducedSystem) -> dict:
    """d/dy of each first integral along the reduced flow; all zero when
    the integral is exact.  The total derivative of each integral along the
    independent variable is affine in the state jets, which ``_on_flow``
    replaces."""
    space = JetSpace((rs.independent,), rs.states)
    total = [space.total_derivative(I, rs.independent)
             for I in rs.first_integrals.values()]
    return dict(zip(rs.first_integrals, _on_flow(rs, total)))


def symbolic_check_reduction(case: int, theory: str,
                             a_value: Fraction | None = None) -> dict:
    """Check one reduction for all t: the residuals its derivation solved,
    with t kept symbolic, have their state jets replaced by the derived
    right-hand sides (``_on_flow``) and are normalized.  Returns
    {'residuals': [Expr]*4, 'ok': bool, 'system': ReducedSystem}, the system
    being the one checked.  Nonzero residuals are reported, not raised."""
    rs, res = _derivation(case, theory, a_value)
    out = _on_flow(rs, res)
    return {"residuals": out, "ok": all(r.is_zero() for r in out), "system": rs}


def closed_form_case4(params: FluidParams, C1: float, C2: float, y: float) -> dict:
    """Reference traveling-wave profile for case 4 with a = -1 and
    N0 = rho0 = 1 (the energy density is constant).

    Returns the state and its exact y-derivatives.  Kept for comparison
    purposes: the profile satisfies particle conservation but leaves the
    energy-momentum residuals nonzero (a documented defect of the source
    formula), which residual_at makes visible.
    """
    k = float(params.k if params.k is not None else 1)
    kappa = float(params.kappa if params.kappa is not None else 1)
    N0 = rho0 = 1.0
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
