"""Point-symmetry machinery: prolongation, determining equations, solving.

A candidate generator is written with polynomial coefficient functions of
the base variables (t, x, psi, n, rho, q), one unknown constant per
(coefficient slot, monomial) pair.  The symmetry condition is written once,
in ``_condition``: the first prolongation acts on the fluid residuals and
the four time-derivative jets are eliminated with the quasilinear solved
form; the condition must then vanish identically in the remaining
coordinates.  ``verify_symmetry`` returns the condition of one generator;
the time-jet substitution it uses is built once per system (``_on_shell``).
The condition is linear in the generator, so ``determining_equations``
evaluates it once per elementary field (one unknown set to one) and reads
the rows off its numerator: the row of (residual k, monomial m) holds, for
each unknown, the coefficient of m in residual k's condition of that
unknown's field.

``solve_determining`` never expands those rows.  It evaluates the condition
of every elementary field at random integer points, with exp(psi) an
independent value and the time jets on shell, takes the nullspace of the
evaluated rows mod a 61-bit prime, reconstructs the rationals and certifies
each vector exactly at symbolic k and kappa.  Each evaluated row is a
consequence of the determining system and rank mod p never exceeds rank
over Q, so the mod-p nullity is an upper bound on the dimension; the
certificates supply as many independent symmetries, so the certified
vectors span the algebra.  A failed reconstruction or certificate means a
retry, never a wrong basis; randomness (Schwartz-Zippel) enters only the
expected number of retries.
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
_SLOTS = ("tau", "xi", "phi", "sigma", "gamma", "omega")


@dataclass(frozen=True)
class VectorField:
    """Infinitesimal generator tau*d_t + xi*d_x + phi*d_psi + sigma*d_n
    + gamma*d_rho + omega*d_q with jet-free coefficients."""

    tau: Expr
    xi: Expr
    phi: Expr
    sigma: Expr
    gamma: Expr
    omega: Expr

    def coefficients(self) -> dict:
        return {"t": self.tau, "x": self.xi, "psi": self.phi,
                "n": self.sigma, "rho": self.gamma, "q": self.omega}

    def apply(self, e: Expr) -> Expr:
        """Act on a jet-free expression as a first-order operator."""
        out = ex.ZERO
        for var, coeff in self.coefficients().items():
            if not coeff.is_zero():
                out = out + coeff * ex.diff(e, var)
        return out

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField(self.tau + other.tau, self.xi + other.xi,
                           self.phi + other.phi, self.sigma + other.sigma,
                           self.gamma + other.gamma, self.omega + other.omega)

    def scale(self, c) -> "VectorField":
        c = ex.number(c) if not isinstance(c, Expr) else c
        return VectorField(*(c * v for v in self._tuple()))

    def _tuple(self):
        return (self.tau, self.xi, self.phi, self.sigma, self.gamma, self.omega)

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self._tuple())

    def text(self) -> str:
        names = ("d_t", "d_x", "d_psi", "d_n", "d_rho", "d_q")
        parts = []
        for coeff, basis in zip(self._tuple(), names):
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
    """Parse the d_var component notation emitted by VectorField.text()."""
    e = ex.parse(text)
    return VectorField(*(ex.diff(e, f"d_{v}") for v in BASE_VARS))


@dataclass(frozen=True)
class ProlongedField:
    base: VectorField
    jets: dict  # jet symbol name -> Expr


def prolong1(V: VectorField) -> ProlongedField:
    """First prolongation via the reduced formula.

    phi_u^d = D_d(phi_u) - u_x D_d(xi) - u_t D_d(tau); the second-order jet
    terms of the textbook formula cancel identically, which the test suite
    verifies once symbolically.
    """
    jets = {}
    dxi = {d: JET_SPACE.total_derivative(V.xi, d) for d in ("t", "x")}
    dtau = {d: JET_SPACE.total_derivative(V.tau, d) for d in ("t", "x")}
    per_field = {"psi": V.phi, "n": V.sigma, "rho": V.gamma, "q": V.omega}
    for u, coeff in per_field.items():
        ux = ex.sym(JET_SPACE.jet(u, "x"))
        ut = ex.sym(JET_SPACE.jet(u, "t"))
        for d in ("t", "x"):
            val = JET_SPACE.total_derivative(coeff, d) - ux * dxi[d] - ut * dtau[d]
            jets[JET_SPACE.jet(u, d)] = val
    return ProlongedField(base=V, jets=jets)


@dataclass(frozen=True)
class Ansatz:
    """Polynomial coefficient ansatz: one unknown constant per
    (coefficient slot, monomial) pair, numbered slot by slot."""

    degree: int = 1

    @property
    def table(self) -> dict:
        """{unknown: (slot index, monomial)}."""
        return _ansatz_tables(self.degree)[0]

    @property
    def index(self) -> dict:
        """{(slot index, collect key of the monomial): unknown}."""
        return _ansatz_tables(self.degree)[1]

    def unknowns(self) -> list:
        return list(self.table)

    def elementary_fields(self) -> list:
        """One generator per unknown, with that coefficient set to 1."""
        return [VectorField(*(m if i == si else ex.ZERO for i in range(len(_SLOTS))))
                for si, m in self.table.values()]

    def assemble(self, coeffs: dict) -> VectorField:
        """Build the generator for an assignment {unknown: Fraction}."""
        vals = [ex.ZERO] * len(_SLOTS)
        for u, (si, m) in self.table.items():
            if coeffs.get(u, 0):
                vals[si] = vals[si] + ex.number(coeffs[u]) * m
        return VectorField(*vals)


@functools.lru_cache(maxsize=None)
def _ansatz_tables(degree: int) -> tuple:
    """The unknown table of the degree-``degree`` ansatz and its inverse,
    built once per degree; monomials come in graded order."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    monos = [math.prod((ex.sym(v) for v in vs), start=ex.ONE)
             for d in range(degree + 1)
             for vs in itertools.combinations_with_replacement(BASE_VARS, d)]
    keys = [next(iter(ex.collect(m, BASE_VARS))) for m in monos]
    table, index = {}, {}
    for si in range(len(_SLOTS)):
        for m, key in zip(monos, keys):
            u = f"c{len(table)}"
            table[u] = (si, m)
            index[(si, key)] = u
    return table, index


# Unknowns put first in the echelon solve's column order.  Each nullspace
# vector has a one on its own free column, in column order, so this fixes
# the raw basis and its order: d_t, d_x, field scaling, boost, dilatation at
# degrees 1 and 2 (the degree-2 basis pin depends on it).  The order that
# ``symmetries`` prints comes from ``canonical_presentation``.
_PREFERRED = (("tau", ()), ("xi", ()), ("tau", (("t", 1),)), ("gamma", (("rho", 1),)),
              ("phi", ()), ("sigma", (("n", 1),)), ("omega", (("q", 1),)))


def _unknown_priority(ansatz: Ansatz) -> list:
    first = [ansatz.index[key] for slot, mono in _PREFERRED
             if (key := (_SLOTS.index(slot), mono)) in ansatz.index]
    return first + [u for u in ansatz.unknowns() if u not in first]


# a process works with a few systems: two closures, symbolic or fixed k, kappa
@functools.lru_cache(maxsize=8)
def _on_shell(sys: PDESystem) -> ex.ClearedSubstitution:
    """The substitution of the time jets by the quasilinear solved form,
    built once per system and shared by every condition on it, products of
    numerators included."""
    qf = fluid.quasilinear_time_form(sys)
    return ex.ClearedSubstitution({tj: qf[tj] for tj in TIME_JETS})


def _condition(V: VectorField, sys: PDESystem,
               cleared: ex.ClearedSubstitution) -> list:
    """The on-shell symmetry condition of V, one Expr per residual.

    The first prolongation of V acts on each residual cleared of its
    monomial denominators (1/rho, 1/n); the action is cleared in turn and
    its time jets are substituted over their shared denominator.  The
    action is quadratic in the time jets.
    """
    coeffs = {**V.coefficients(), **prolong1(V).jets}
    out = []
    for res in sys.residuals:
        res = res * ex.denominator(res)
        act = ex.ZERO
        for var, coeff in coeffs.items():
            if not coeff.is_zero():
                d = ex.diff(res, var)
                if not d.is_zero():
                    act = act + coeff * d
        if not act.is_zero():
            if not ex.denominator(act).equivalent(ex.ONE):
                act = act * ex.denominator(act)
            act = cleared(act, 2)
        out.append(act)
    return out


def determining_equations(sys: PDESystem, ansatz: Ansatz) -> list:
    """Linear forms (dicts unknown -> Fraction) whose common nullspace is
    the symmetry algebra within the ansatz class.

    Rows are listed per residual, sorted by monomial, with exact duplicates
    dropped.  A condition with a denominator raises ValueError.
    """
    cleared = _on_shell(sys)
    conditions = []
    for name, V in zip(ansatz.unknowns(), ansatz.elementary_fields()):
        cond = _condition(V, sys, cleared)
        if any(ex.denominator(c) != ex.ONE for c in cond):
            raise ValueError(f"symmetry condition of {name} has a denominator")
        conditions.append((name, cond))
    rows = []
    seen = set()
    for k in range(len(sys.residuals)):
        groups: dict = {}
        for name, cond in conditions:
            for (atoms, exparg), c in cond[k].num.items():
                key = (atoms, exparg.key() if exparg is not None else None)
                groups.setdefault(key, {})[name] = c
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
    random integer points (``_evaluated_rows``), takes the nullspace of
    those rows mod a 61-bit prime in ``_unknown_priority`` order,
    reconstructs its rational entries and certifies every vector exactly
    with ``_condition`` at symbolic k and kappa.

    The result is exact.  Every evaluated row is a consequence of the
    determining system, and the rank of integer rows mod p is at most their
    rank over Q, so the mod-p nullity bounds the algebra's dimension from
    above.  The reconstructed vectors are independent (each has a one on its
    own free column), so when all of them certify they span the algebra.
    The basis returned is the span's unique reduced basis for this column
    order, the one an exact nullspace of the full system gives.  An attempt
    whose vectors do not reconstruct or certify is retried with more points
    and the next prime; after ``len(_PRIMES)`` attempts the solve raises
    RuntimeError rather than return an uncertified basis.  The
    Schwartz-Zippel lemma (Schwartz 1980) bounds only how often a random
    point set or prime is degenerate, that is the expected number of retries.
    """
    if ansatz is None:
        ansatz = Ansatz(degree=1)
    sys = fluid.build_system(fluid.FluidParams(k=None, kappa=None, lam=Fraction(lam)))
    cleared = _on_shell(sys)
    fields = ansatz.elementary_fields()
    priority = _unknown_priority(ansatz)
    rng = random.Random(_SEED)
    for attempt, prime in enumerate(_PRIMES):
        count = -(-len(fields) // 4) + _EXTRA_POINTS * (attempt + 1)
        rows = _evaluated_rows(sys, fields, ansatz.unknowns(),
                               _sample_points(rng, count))
        vectors = []
        for vec in ex.nullspace(rows, priority, modulus=prime):
            values = {u: ex.rational_reconstruction(v, prime) for u, v in vec.items()}
            if None in values.values() or not all(
                    c.is_zero() for c in _condition(ansatz.assemble(values), sys, cleared)):
                break
            vectors.append(values)
        else:
            # Rewrite the certified span in its one reduced basis: the free
            # columns of the rows' exact RREF are the pivots of the basis
            # vectors taken in reverse order (dual matroids), so a prime
            # that moved the pivots cannot change the basis printed.
            cols = priority[::-1]
            reduced, _ = ex.rref([[v.get(u, Fraction(0)) for u in cols]
                                  for v in vectors], len(cols))
            return [ansatz.assemble(dict(zip(cols, row))) for row in reversed(reduced)]
    raise RuntimeError(f"no certified symmetry basis after {len(_PRIMES)} attempts")


def _sample_points(rng: random.Random, count: int) -> list:
    """``count`` random points ``(values, exps)``: integer values for t, x,
    the fields, the x-jets, k and kappa, and exps holding exp(psi)."""
    names = BASE_VARS + fluid.SPACE_JETS + ("k", "kappa")
    return [({v: Fraction(rng.randint(1, _RANGE)) for v in names},
             {"psi": Fraction(rng.randint(1, _RANGE))}) for _ in range(count)]


def _evaluated_rows(sys: PDESystem, fields: list, unknowns: list,
                    points: list) -> list:
    """Integer rows {unknown: value}, one per (residual k, point P).

    The entry of field V_i is its condition evaluated at P: the sum over
    the base variables and jets of coeff_var(pr V_i)(P) times
    d(cleared residual k)/d var at P, with the time jets on shell.  Points
    where a denominator vanishes are skipped.
    """
    cleared = _on_shell(sys)
    variables = BASE_VARS + fluid.JETS
    partials = []
    for res in sys.residuals:
        res = res * ex.denominator(res)
        partials.append({v: d for v in variables
                         if not (d := ex.diff(res, v)).is_zero()})
    coeffs = [{v: c for v, c in {**V.coefficients(), **prolong1(V).jets}.items()
               if not c.is_zero()} for V in fields]
    rows = []
    for values, exps in points:
        try:
            at = dict(values)
            den = ex.evaluate(cleared.denominator, at, exps)
            if not den:
                continue
            for tj in TIME_JETS:
                at[tj] = ex.evaluate(cleared.numerators[tj], at, exps) / den
            dres = [{v: ex.evaluate(d, at, exps) for v, d in p.items()}
                    for p in partials]
            pr = [{v: ex.evaluate(c, at, exps) for v, c in cs.items()}
                  for cs in coeffs]
        except ex.DomainError:
            continue
        for d in dres:
            row = {u: sum(c * d[v] for v, c in cv.items() if v in d)
                   for u, cv in zip(unknowns, pr)}
            scale = math.lcm(*(c.denominator for c in row.values()))
            rows.append({u: int(c * scale) for u, c in row.items() if c})
    return rows


def verify_symmetry(V: VectorField, sys: PDESystem) -> list:
    """On-shell residual of the symmetry condition, one Expr per equation.

    All residuals structurally zero iff V generates a point symmetry.  The
    residuals are returned cleared of the (nonzero) characteristic
    determinant, which does not affect the zero test.
    """
    return _condition(V, sys, _on_shell(sys))


def coordinates(V: VectorField, basis: Sequence[VectorField],
                ansatz: Ansatz = None) -> list | None:
    """Exact coordinates of V in the rational span of a basis, or None if V
    lies outside it.  Fields must lie in the ansatz class (affine by default).
    """
    if ansatz is None:
        ansatz = Ansatz(degree=1)
    vecs = [_field_to_vector(f, ansatz) for f in list(basis) + [V]]
    # one row per ansatz coordinate: sum_i a_i basis_i = V, augmented by V
    coords = sorted({k for v in vecs for k in v})
    rows, pivots = ex.rref([[v.get(c, Fraction(0)) for v in vecs] for c in coords],
                           len(basis))
    if len(rows) > len(pivots):
        return None
    out = [Fraction(0)] * len(basis)
    for row, c in zip(rows, pivots):
        out[c] = row[-1]
    return out


def in_span(V: VectorField, basis: Sequence[VectorField],
            ansatz: Ansatz = None) -> bool:
    """Exact membership of V in the rational span of a basis (affine fields)."""
    return coordinates(V, basis, ansatz) is not None


def span_equal(basis1: Sequence[VectorField], basis2: Sequence[VectorField]) -> bool:
    return all(in_span(v, basis2) for v in basis1) and \
        all(in_span(v, basis1) for v in basis2)


def _field_to_vector(V: VectorField, ansatz: Ansatz) -> dict:
    """Ansatz coordinates {unknown: Fraction} of V; ValueError if V is not
    in the ansatz class."""
    out = {}
    for si, coeff in enumerate(V._tuple()):
        for key, c in ex.collect(coeff, BASE_VARS).items():
            if (si, key) not in ansatz.index:
                raise ValueError("field has monomials outside the ansatz")
            if not c.is_rational():
                raise ValueError("field is not in the polynomial ansatz class")
            out[ansatz.index[(si, key)]] = c.as_fraction()
    return out


def canonical_presentation(basis: Sequence[VectorField]) -> list:
    """Re-present a computed basis in a stable, readable generator order.

    Named generators contained in the span are emitted first (translations,
    dilatation, field scaling, boost), then any remaining independent
    directions from the raw basis.
    """
    named = [v_time(), v_space(), v_dilation(), v_scaling(), v_lorentz_boost()]
    out = []
    for g in named:
        if in_span(g, list(basis)) and not in_span(g, out):
            out.append(g)
    for f in basis:
        if not in_span(f, out):
            out.append(f)
    return out


# Named generators in the commutator-table ordering.
def v_time() -> VectorField:
    return VectorField(ex.ONE, ex.ZERO, ex.ZERO, ex.ZERO, ex.ZERO, ex.ZERO)


def v_space() -> VectorField:
    return VectorField(ex.ZERO, ex.ONE, ex.ZERO, ex.ZERO, ex.ZERO, ex.ZERO)


def v_dilation() -> VectorField:
    return VectorField(ex.sym("t"), ex.sym("x"), ex.ZERO,
                       -ex.sym("n"), ex.ZERO, ex.ZERO)


def v_scaling() -> VectorField:
    return VectorField(ex.ZERO, ex.ZERO, ex.ZERO, ex.ZERO,
                       ex.sym("rho"), ex.sym("q"))


def v_rapidity_shift() -> VectorField:
    """d_psi alone; not a symmetry (kept as a negative-control generator)."""
    return VectorField(ex.ZERO, ex.ZERO, ex.ONE, ex.ZERO, ex.ZERO, ex.ZERO)


def v_lorentz_boost() -> VectorField:
    """x*d_t + t*d_x - d_psi: the Lorentz boost in rapidity variables."""
    return VectorField(ex.sym("x"), ex.sym("t"), -ex.ONE,
                       ex.ZERO, ex.ZERO, ex.ZERO)
