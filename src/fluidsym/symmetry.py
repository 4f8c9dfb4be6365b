"""Point-symmetry machinery: prolongation, determining equations, solving.

A candidate generator is written with polynomial coefficient functions of
the base variables (t, x, psi, n, rho, q), one unknown constant per
(base variable, monomial) pair.  The symmetry condition is written once,
in ``_condition``: the first prolongation acts on the fluid residuals and
the four time-derivative jets are eliminated with the quasilinear solved
form; the condition must then vanish identically in the remaining
coordinates.  ``verify_symmetry`` returns the condition of one generator;
its parts are built once per system (``_on_shell``).
The condition is linear in the generator, so ``determining_equations``
evaluates it once per elementary field (one unknown set to one) and reads
the rows off its numerator: the row of (residual k, monomial m) holds, for
each unknown, the coefficient of m in residual k's condition of that
unknown's field.

``solve_determining`` never expands those rows.  It evaluates the condition
of every elementary field at random integer points mod a 61-bit prime, with
exp(psi) an independent value and the time jets on shell, takes the
nullspace of the evaluated rows mod the same prime, reconstructs the
rationals and certifies each vector exactly at symbolic k and kappa, with
each condition cleared only to its own degree in the time jets.  The
prolongations of the elementary fields are built once per ansatz
(``_prolongation_table``), and a point evaluates each distinct prolongation
coefficient and each distinct residual partial once.  Each
evaluated row is the reduction mod p of a consequence of the determining
system and rank mod p never exceeds rank over Q, so the mod-p nullity is an
upper bound on the dimension; the certificates supply as many independent
symmetries, so the certified vectors span the algebra, and the solve
returns the span's reduced basis in the ansatz's unknown order
(``canonical_presentation`` gives the order that is printed).  A failed
reconstruction or certificate means a retry, never a wrong basis;
randomness (Schwartz-Zippel) enters only the expected number of retries.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import expr as ex
from . import fluid
from .expr import Expr
from .fluid import JET_SPACE, PDESystem, TIME_JETS, FIELD_NAMES

__all__ = [
    "Ansatz",
    "VectorField",
    "prolong1",
    "determining_equations",
    "solve_determining",
    "verify_symmetry",
]

BASE_VARS = ("t", "x") + FIELD_NAMES


@dataclass(frozen=True)
class VectorField:
    """Generator sum_i coeffs[i]*d_v, v = BASE_VARS[i], with jet-free coefficients."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    def coefficients(self) -> dict:
        return dict(zip(BASE_VARS, self.coeffs))

    def apply(self, e: Expr) -> Expr:
        """Act on a jet-free expression as a first-order operator."""
        out = ex.ZERO
        for var, coeff in zip(BASE_VARS, self.coeffs):
            if not coeff.is_zero():
                out = out + coeff * ex.diff(e, var)
        return out

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField(a + b for a, b in zip(self.coeffs, other.coeffs))

    def scale(self, c) -> "VectorField":
        c = ex.number(c) if not isinstance(c, Expr) else c
        return VectorField(c * v for v in self.coeffs)

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.coeffs)

    def text(self) -> str:
        parts = []
        for coeff, basis in zip(self.coeffs, (f"d_{v}" for v in BASE_VARS)):
            if coeff.is_zero():
                continue
            txt = ex.to_text(coeff)
            if txt == "1":
                parts.append(basis)
            elif txt == "-1":
                parts.append(f"-{basis}")
            else:
                if "+" in txt or (" - " in txt):
                    txt = f"({txt})"
                parts.append(f"{txt}*{basis}")
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += (" - " + p[1:]) if p.startswith("-") else (" + " + p)
        return out


def field_from_text(text: str) -> VectorField:
    """Parse the d_var component notation emitted by VectorField.text().

    A text that is not linear in d_t, ..., d_q (such as ``d_t*d_x``), or
    whose field lies outside the affine ansatz class, raises ValueError.
    """
    e = ex.parse(text)
    names = [f"d_{v}" for v in BASE_VARS]
    V = VectorField(ex.diff(e, d) for d in names)
    if not (e - sum((c * ex.sym(d) for c, d in zip(V.coeffs, names)), ex.ZERO)).is_zero():
        raise ValueError(f"not a linear combination of {', '.join(names)}")
    # the affine class: each monomial is 1 or one base variable
    if any(len(key) > 1 or any(k != 1 for _, k in key) for _, key in _components(V)):
        raise ValueError("field has monomials outside the ansatz")
    return V


def prolong1(V: VectorField) -> dict:
    """First prolongation via the reduced formula, as {jet name: Expr}.

    phi_u^d = D_d(phi_u) - u_x D_d(xi) - u_t D_d(tau); the second-order jet
    terms of the textbook formula cancel identically, which the test suite
    verifies once symbolically.
    """
    jets = {}
    dtau, dxi = ({d: JET_SPACE.total_derivative(c, d) for d in ("t", "x")}
                 for c in V.coeffs[:2])
    for u, coeff in zip(FIELD_NAMES, V.coeffs[2:]):
        ux = ex.sym(JET_SPACE.jet(u, "x"))
        ut = ex.sym(JET_SPACE.jet(u, "t"))
        for d in ("t", "x"):
            val = JET_SPACE.total_derivative(coeff, d) - ux * dxi[d] - ut * dtau[d]
            jets[JET_SPACE.jet(u, d)] = val
    return jets


def _prolonged(V: VectorField) -> dict:
    """{variable: nonzero coefficient of pr V}, base variables first."""
    return {v: c for v, c in {**V.coefficients(), **prolong1(V)}.items()
            if not c.is_zero()}


@dataclass(frozen=True)
class Ansatz:
    """Polynomial coefficient ansatz: one unknown constant per
    (base variable, monomial) pair, numbered base variable by base variable."""

    degree: int = 1

    @property
    def table(self) -> dict:
        """{unknown: (base-variable index, monomial)}."""
        return _ansatz_table(self.degree)

    def unknowns(self) -> list:
        return list(self.table)

    def elementary_fields(self) -> list:
        """One generator per unknown, with that coefficient set to 1."""
        return [VectorField(m if i == vi else ex.ZERO for i in range(len(BASE_VARS)))
                for vi, m in self.table.values()]

    def assemble(self, coeffs: dict) -> VectorField:
        """Build the generator for an assignment {unknown: Fraction}."""
        vals = [ex.ZERO] * len(BASE_VARS)
        for u, (vi, m) in self.table.items():
            if coeffs.get(u, 0):
                vals[vi] = vals[vi] + ex.number(coeffs[u]) * m
        return VectorField(vals)


@functools.lru_cache(maxsize=None)
def _ansatz_table(degree: int) -> dict:
    """The unknown table of the degree-``degree`` ansatz, built once per
    degree; monomials come in graded order."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    monos = [math.prod((ex.sym(v) for v in vs), start=ex.ONE)
             for d in range(degree + 1)
             for vs in itertools.combinations_with_replacement(BASE_VARS, d)]
    pairs = itertools.product(range(len(BASE_VARS)), monos)
    return {f"c{i}": pair for i, pair in enumerate(pairs)}


@functools.lru_cache(maxsize=None)
def _prolongation_table(degree: int) -> tuple:
    """The first prolongations of the degree-``degree`` ansatz's elementary
    fields, built once per degree: ``(coefficients, fields)``.
    ``coefficients`` holds the distinct nonzero coefficients of every pr V_i
    in first-use order; ``fields[i]`` maps each variable of pr V_i to the
    position of its coefficient there, base variables first."""
    index: dict = {}  # Expr -> position; a dict, so the order is first use
    fields = tuple({v: index.setdefault(c, len(index)) for v, c in _prolonged(V).items()}
                   for V in Ansatz(degree).elementary_fields())
    return tuple(index), fields


# a process works with a few systems: two closures, symbolic or fixed k, kappa
@functools.lru_cache(maxsize=8)
def _on_shell(sys: PDESystem) -> tuple:
    """The parts of the symmetry condition on one system, shared by every
    condition on it: ``(cleared, partials)``.  ``cleared`` substitutes the
    time jets by the quasilinear solved form; ``partials[k]`` maps each base
    variable and jet to the nonzero partial of residual k.  The residuals
    have no denominator: their monomial divisors (1/rho, 1/n) are negative
    powers."""
    qf = fluid.quasilinear_time_form(sys)
    cleared = ex.ClearedSubstitution({tj: qf[tj] for tj in TIME_JETS})
    partials = tuple({v: d for v in BASE_VARS + fluid.JETS
                      if not (d := ex.diff(res, v)).is_zero()}
                     for res in sys.residuals)
    return cleared, partials


def _condition(V: VectorField, sys: PDESystem, degree: int = None) -> list:
    """The on-shell symmetry condition of V, one Expr per residual.

    The first prolongation of V acts on each residual through its partials
    (``_on_shell``), and the action's time jets are substituted over their
    shared denominator D, multiplied by D**degree.  The action is at most
    quadratic in the time jets, and linear when tau and xi are free of the
    fields; without ``degree`` each action is cleared to its own degree.
    """
    cleared, partials = _on_shell(sys)
    coeffs = _prolonged(V)
    acts = (sum((c * dres[v] for v, c in coeffs.items() if v in dres), ex.ZERO)
            for dres in partials)
    return [cleared(act, degree) for act in acts]


def determining_equations(sys: PDESystem, ansatz: Ansatz) -> list:
    """Linear forms (dicts unknown -> Fraction) whose common nullspace is
    the symmetry algebra within the ansatz class.

    Rows are listed per residual, sorted by monomial, with exact duplicates
    dropped.  A condition with a denominator raises ValueError.  Every
    condition is cleared by the same D**2, since a row combines the
    conditions of different fields.
    """
    conditions = []
    for name, V in zip(ansatz.unknowns(), ansatz.elementary_fields()):
        cond = _condition(V, sys, 2)
        if any(ex.denominator(c) != ex.ONE for c in cond):
            raise ValueError(f"symmetry condition of {name} has a denominator")
        conditions.append((name, cond))
    rows = []
    seen = set()
    for k in range(len(sys.residuals)):
        groups: dict = {}
        for name, cond in conditions:
            for m, c in cond[k].num.items():
                atoms, exparg = ex.unpack(m)
                key = (atoms, exparg.key() if exparg is not None else None)
                groups.setdefault(key, {})[name] = Fraction(c)
        for key in sorted(groups, key=str):
            row = groups[key]
            sig = tuple(sorted((u, str(v)) for u, v in row.items()))
            if sig not in seen:
                seen.add(sig)
                rows.append(row)
    return rows


# The solve's sampling: a fixed seed, integer coordinates in [1, _RANGE],
# and one 61-bit prime per attempt.  Each attempt ends in exact
# certificates, so none of these can change the result, only how often the
# solve retries.
_SEED = 1998
_RANGE = 2 ** 20
_PRIMES = (2 ** 61 - 1, 2 ** 61 - 1000051, 2 ** 61 - 2000059, 2 ** 61 - 3000079)
# extra points beyond one per four unknowns, per attempt
_EXTRA_POINTS = 4


def solve_determining(lam, ansatz: Ansatz = None) -> list:
    """Basis of the point-symmetry algebra within the ansatz class, as
    vector fields.

    Takes the closure parameter lam; k and kappa stay symbolic.  Each
    attempt evaluates the symmetry condition of every elementary field at
    random integer points mod the attempt's 61-bit prime
    (``_evaluated_rows``), reading the prolongations from the ansatz's one
    ``_prolongation_table``, which every attempt and closure shares.  It
    takes the nullspace of those rows mod the same prime in the ansatz's
    unknown order, reconstructs its rational entries and certifies every
    vector exactly with ``_condition`` at symbolic k and kappa.

    The result is exact.  Every evaluated row is a consequence of the
    determining system, and each mod-p row is the reduction of the rational
    row at the same point (a point where a denominator is 0 mod p is
    skipped).  The rank of rational rows reduced mod p is at most their rank
    over Q, so the mod-p nullity bounds the algebra's dimension from
    above.  The reconstructed vectors are independent (each has a one on its
    own free column), so when all of them certify they span the algebra.
    The basis returned is the span's reduced basis in the ansatz's unknown
    order, so it does not depend on the prime that succeeded.  An attempt
    whose vectors do not reconstruct or certify is retried with more points
    and the next prime; after ``len(_PRIMES)`` attempts the solve raises
    RuntimeError rather than return an uncertified basis.  The
    Schwartz-Zippel lemma (Schwartz 1980) bounds only how often a random
    point set or prime is degenerate, that is the expected number of retries.
    """
    if ansatz is None:
        ansatz = Ansatz(degree=1)
    sys = fluid.build_system(fluid.FluidParams(k=None, kappa=None, lam=Fraction(lam)))
    unknowns = ansatz.unknowns()
    rng = random.Random(_SEED)
    for attempt, prime in enumerate(_PRIMES):
        count = -(-len(ansatz.table) // 4) + _EXTRA_POINTS * (attempt + 1)
        rows = _evaluated_rows(sys, ansatz, _sample_points(rng, count), prime)
        vectors = []
        for vec in ex.nullspace(rows, unknowns, modulus=prime):
            values = {u: ex.rational_reconstruction(v, prime) for u, v in vec.items()}
            if None in values.values() or not all(
                    c.is_zero() for c in _condition(ansatz.assemble(values), sys)):
                break
            vectors.append(values)
        else:  # one reduced basis, whichever prime gave the vectors
            reduced, _ = ex.rref([[v.get(u, Fraction(0)) for u in unknowns]
                                  for v in vectors], len(unknowns))
            return [ansatz.assemble(dict(zip(unknowns, row))) for row in reduced]
    raise RuntimeError(f"no certified symmetry basis after {len(_PRIMES)} attempts")


def _sample_points(rng: random.Random, count: int) -> list:
    """``count`` random points ``(values, exps)``: integer values for t, x,
    the fields, the x-jets, k and kappa, and exps holding exp(psi)."""
    names = BASE_VARS + fluid.SPACE_JETS + ("k", "kappa")
    return [({v: rng.randint(1, _RANGE) for v in names},
             {"psi": rng.randint(1, _RANGE)}) for _ in range(count)]


def _evaluated_rows(sys: PDESystem, ansatz: Ansatz, points: list, prime: int) -> list:
    """Rows {unknown: value mod prime}, one per (residual k, point P).

    The entry of the elementary field V_i is its condition evaluated at P
    mod the prime: the sum over the base variables and jets of
    coeff_var(pr V_i)(P) times d(residual k)/d var at P, with the time jets
    on shell.  P evaluates each distinct coefficient of the ansatz's
    prolongation table and each distinct partial once, and every entry
    reads those values.  Each value is the exact rational one reduced mod
    the prime (``ex.evaluate`` with a modulus).  Points where a denominator
    or a base under a negative power vanishes mod the prime are skipped.
    """
    cleared, partials = _on_shell(sys)
    coefficients, fields = _prolongation_table(ansatz.degree)
    distinct: dict = {}  # Expr -> position, in first-use order
    dres_at = [{v: distinct.setdefault(d, len(distinct)) for v, d in p.items()}
               for p in partials]
    rows = []
    for values, exps in points:
        try:
            at = dict(values)
            den = ex.evaluate(cleared.denominator, at, exps, modulus=prime)
            if not den:
                continue
            inv = pow(den, -1, prime)
            for tj in TIME_JETS:
                num = ex.evaluate(cleared.numerators[tj], at, exps, modulus=prime)
                at[tj] = num * inv % prime
            dvals = [ex.evaluate(d, at, exps, modulus=prime) for d in distinct]
            cvals = [ex.evaluate(c, at, exps, modulus=prime) for c in coefficients]
        except ex.DomainError:
            continue
        for pos in dres_at:
            d = {v: dvals[i] for v, i in pos.items()}
            row = {u: sum(cvals[i] * d[v] for v, i in field.items() if v in d) % prime
                   for u, field in zip(ansatz.table, fields)}
            rows.append({u: c for u, c in row.items() if c})
    return rows


def verify_symmetry(V: VectorField, sys: PDESystem) -> list:
    """On-shell residual of the symmetry condition, one Expr per equation.

    All residuals structurally zero iff V generates a point symmetry.  Each
    residual is returned multiplied by D**d, D the (nonzero) shared
    denominator of the solved time jets and d the action's degree in the
    time jets, which does not affect the zero test.
    """
    return _condition(V, sys)


def coordinates(V: VectorField, basis: Sequence[VectorField]) -> list | None:
    """Exact coordinates of V in the rational span of a basis, or None if V
    lies outside it; every coefficient must be a rational polynomial."""
    vecs = [_components(f) for f in list(basis) + [V]]
    # one row per component: sum_i a_i basis_i = V, augmented by V
    coords = sorted({k for v in vecs for k in v})
    rows, pivots = ex.rref([[v.get(c, Fraction(0)) for v in vecs] for c in coords],
                           len(basis))
    if len(rows) > len(pivots):
        return None
    out = [Fraction(0)] * len(basis)
    for row, c in zip(rows, pivots):
        out[c] = row[-1]
    return out


def in_span(V: VectorField, basis: Sequence[VectorField]) -> bool:
    """Exact membership of V in the rational span of a basis (polynomial fields)."""
    return coordinates(V, basis) is not None


def span_equal(basis1: Sequence[VectorField], basis2: Sequence[VectorField]) -> bool:
    return all(in_span(v, basis2) for v in basis1) and \
        all(in_span(v, basis1) for v in basis2)


def _components(V: VectorField) -> dict:
    """{(base-variable index, collect key of the monomial): Fraction} of V;
    ValueError unless every coefficient is a rational polynomial."""
    out = {}
    for vi, coeff in enumerate(V.coeffs):
        for key, c in ex.collect(coeff, BASE_VARS).items():
            if not c.is_rational():
                raise ValueError("field is not in the polynomial ansatz class")
            out[(vi, key)] = c.as_fraction()
    return out


def canonical_presentation(basis: Sequence[VectorField]) -> list:
    """Re-present a computed basis in a stable, readable generator order.

    Named generators contained in the span are emitted first (translations,
    dilatation, field scaling, boost), then any remaining independent
    directions from the raw basis.
    """
    out = []
    for g in named_generators():
        if in_span(g, list(basis)) and not in_span(g, out):
            out.append(g)
    for f in basis:
        if not in_span(f, out):
            out.append(f)
    return out


def _field(**coeffs: Expr) -> VectorField:
    """The generator with the given coefficients by base variable, zero elsewhere."""
    return VectorField(coeffs.get(v, ex.ZERO) for v in BASE_VARS)


def named_generators() -> list:
    """The named generators, in the commutator-table ordering."""
    return [v_time(), v_space(), v_dilation(), v_scaling(), v_lorentz_boost()]


def v_time() -> VectorField:
    return _field(t=ex.ONE)


def v_space() -> VectorField:
    return _field(x=ex.ONE)


def v_dilation() -> VectorField:
    return _field(t=ex.sym("t"), x=ex.sym("x"), n=-ex.sym("n"))


def v_scaling() -> VectorField:
    return _field(rho=ex.sym("rho"), q=ex.sym("q"))


def v_rapidity_shift() -> VectorField:
    """d_psi alone; not a symmetry (kept as a negative-control generator)."""
    return _field(psi=ex.ONE)


def v_lorentz_boost() -> VectorField:
    """x*d_t + t*d_x - d_psi: the Lorentz boost in rapidity variables."""
    return _field(t=ex.sym("x"), x=ex.sym("t"), psi=-ex.ONE)
