"""Residuals of the 1+1 dimensional relativistic heat-conducting fluid.

The four dependent fields are the rapidity ``psi`` (velocity v = tanh psi),
number density ``n``, energy density ``rho`` and heat-flux magnitude ``q``.
The ultrarelativistic ideal-gas equation of state p = rho/3 = n k T is
substituted throughout, eliminating pressure and temperature, and the
second-order transport coefficient is closed as 15*lam/(4*rho): lam = 0
selects the Eckart theory (no heat-flux relaxation), lam = 1 the
Israel-Stewart theory.

Sign convention: the relaxation source enters the heat-flow residual as
``-3 n k q / (kappa rho)``.  With this orientation the spatially homogeneous
Eckart fluid is unstable for every boosted initial state while the
Israel-Stewart fluid is stable below a critical velocity, the behaviour the
rest of the package (reductions, critical-velocity searches) reproduces.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from . import expr as ex
from .expr import JetSpace

__all__ = [
    "FluidParams",
    "FluidState",
    "PDESystem",
    "FIELD_NAMES",
    "JETS",
    "THEORY_LAM",
    "build_system",
    "quasilinear_time_form",
    "quasilinear_space_form",
    "solve_for_jets",
    "residual_at",
]

FIELD_NAMES = ("psi", "n", "rho", "q")
JET_SPACE = JetSpace(("t", "x"), FIELD_NAMES)
JETS = tuple(JET_SPACE.jet(u, d) for u in FIELD_NAMES for d in ("t", "x"))
TIME_JETS = tuple(JET_SPACE.jet(u, "t") for u in FIELD_NAMES)
SPACE_JETS = tuple(JET_SPACE.jet(u, "x") for u in FIELD_NAMES)
# the closure parameter lam of each theory
THEORY_LAM = {"eckart": Fraction(0), "israel-stewart": Fraction(1)}


@dataclass(frozen=True)
class FluidParams:
    """Physical parameters; exact rationals so the symbolic layer stays exact.

    k and kappa may be None, which keeps them as symbols.
    """

    k: Fraction | None = Fraction(1)
    kappa: Fraction | None = Fraction(1)
    lam: Fraction = Fraction(0)

    def __post_init__(self):
        if self.k is not None and self.k <= 0:
            raise ValueError("k must be positive")
        if self.kappa is not None and self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if not (0 <= self.lam <= 1):
            raise ValueError("lam must lie in [0, 1]")


@dataclass(frozen=True)
class FluidState:
    psi: float
    n: float
    rho: float
    q: float

    def __post_init__(self):
        if self.n <= 0 or self.rho <= 0:
            raise ValueError("physical states require n > 0 and rho > 0")

    @property
    def v(self) -> float:
        return math.tanh(self.psi)


@dataclass(frozen=True)
class PDESystem:
    residuals: tuple  # four Expr values, quasilinear in the eight jets
    params: FluidParams


@functools.lru_cache(maxsize=16)
def build_system(params: FluidParams) -> PDESystem:
    """The four normalized residuals.  Equal parameters give the one shared
    system, built once; it is immutable, and no caller may change it."""
    psi, n, rho, q = ex.syms("psi n rho q")
    s = ex.sinh(psi)
    c = ex.cosh(psi)
    j = {name: ex.sym(name) for name in JETS}
    k = ex.sym("k") if params.k is None else ex.number(params.k)
    kappa = ex.sym("kappa") if params.kappa is None else ex.number(params.kappa)
    lam = ex.number(params.lam)

    p_plus_rho = rho * 4 / 3  # p = rho/3
    beta1 = lam * 15 / (4 * rho)  # 5*lam/(4p) with p = rho/3

    d1 = (s * j["n_x"] - c * j["n_t"]
          + n * c * j["psi_x"] - n * s * j["psi_t"])

    d2 = (c * j["rho_t"] - s * j["rho_x"] + s * j["q_t"] - c * j["q_x"]
          + (p_plus_rho * s + 2 * q * c) * j["psi_t"]
          - (p_plus_rho * c + 2 * q * s) * j["psi_x"])

    d3 = ((c * j["rho_x"] - s * j["rho_t"]) / 3
          + s * j["q_x"] - c * j["q_t"]
          - (p_plus_rho * c + 2 * q * s) * j["psi_t"]
          + (p_plus_rho * s + 2 * q * c) * j["psi_x"])

    # T = rho/(3 n k) makes d(ln T) = d(ln rho) - d(ln n)
    dlnT_x = j["rho_x"] / rho - j["n_x"] / n
    dlnT_t = j["rho_t"] / rho - j["n_t"] / n
    d4 = (c * dlnT_x - s * dlnT_t
          + beta1 * (s * j["q_x"] - c * j["q_t"])
          + s * j["psi_x"] - c * j["psi_t"]
          - 3 * n * k * q / (kappa * rho))

    return PDESystem(residuals=(d1, d2, d3, d4), params=params)


def _minor(rows, cols, memo):
    """Determinant of the last len(cols) rows on the columns cols, in that
    order, by cofactor expansion along its first row.  memo maps each
    ordered column tuple to its minor, expanded once; being passed, not
    closed over, it forms no reference cycle."""
    got = memo.get(cols)
    if got is None:
        row = rows[len(rows) - len(cols)]
        if len(cols) == 1:
            got = row[cols[0]]
        else:
            got = ex.ZERO
            for p, c in enumerate(cols):
                a = row[c]
                if a.is_zero():
                    continue
                term = a * _minor(rows, cols[:p] + cols[p + 1:], memo)
                got = got + term if p % 2 == 0 else got - term
        memo[cols] = got
    return got


def solve_for_jets(residuals, jets) -> tuple:
    """Solve residuals affine in the given jets for those jets.

    Each residual gives the row (d r/d jet, -r at zero jets), read off one
    collect in the jets, and the rows are solved exactly by Cramer's rule.
    The determinant and the numerators are row-0 cofactor expansions over
    the columns of [A | b], sharing each minor of the same ordered columns.
    Returns ({jet: Expr}, determinant Expr of the coefficient matrix).
    """
    parts = [ex.collect(r, jets) for r in residuals]
    rows = [[p.get(((j, 1),), ex.ZERO) for j in jets] + [-p.get((), ex.ZERO)]
            for p in parts]
    cols = tuple(range(len(jets)))
    memo: dict = {}
    det = _minor(rows, cols, memo)
    if det.is_zero():
        raise ValueError("characteristic degeneracy: singular coefficient matrix")
    sol = {}
    for j, jet in enumerate(jets):
        sol[jet] = _minor(rows, cols[:j] + (len(jets),) + cols[j + 1:], memo) / det
    return sol, det


def quasilinear_time_form(sys: PDESystem) -> dict:
    """Solve the residuals for the four time derivatives.

    Returns a dict with keys 'psi_t', 'n_t', 'rho_t', 'q_t' (Exprs affine in
    the x-derivative jets) plus '_det' carrying the coefficient determinant.
    """
    out, det = solve_for_jets(sys.residuals, TIME_JETS)
    out["_det"] = det
    return out


def quasilinear_space_form(sys: PDESystem) -> dict:
    """Solve the residuals for the four x derivatives (stationary problems)."""
    out, det = solve_for_jets(sys.residuals, SPACE_JETS)
    out["_det"] = det
    return out


def residual_at(sys: PDESystem, state: FluidState, jets: Mapping[str, float]) -> tuple:
    """Numeric residual values at a state with given first-derivative jets
    (0.0 where not given); symbolic k or kappa raises ValueError."""
    fn = ex.compile_exprs(sys.residuals, [FIELD_NAMES, JETS])
    return fn((state.psi, state.n, state.rho, state.q),
              [float(jets.get(name, 0.0)) for name in JETS])
