"""Structure of the symmetry algebra: commutators, structure constants,
solvability, the adjoint representation and canonical one-dimensional
subalgebra representatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence

from . import expr as ex
from . import symmetry as sm
from .symmetry import VectorField

__all__ = [
    "AlgebraElement",
    "LieAlgebra",
    "adjoint_action",
    "commutator",
    "is_solvable",
    "normalize_element",
    "structure_constants",
]


def commutator(V: VectorField, W: VectorField) -> VectorField:
    """[V, W]: coefficient-wise V(W_coeff) - W(V_coeff)."""
    return VectorField(V.apply(cw) - W.apply(cv) for cv, cw in zip(V.coeffs, W.coeffs))


@dataclass(frozen=True)
class AlgebraElement:
    coefficients: tuple  # rationals or floats over the basis

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(self.coefficients))


@dataclass(frozen=True)
class LieAlgebra:
    basis: tuple  # VectorFields
    constants: dict  # (i, j, k) -> Fraction with [V_i, V_j] = sum_k c^k_ij V_k

    @property
    def dim(self) -> int:
        return len(self.basis)

    def c(self, i: int, j: int, k: int) -> Fraction:
        return self.constants.get((i, j, k), Fraction(0))

    def bracket_coords(self, a: Sequence, b: Sequence) -> list:
        """[a, b] = sum_i a_i*ad_i b, over the nonzero entries of each ad."""
        out = [0] * self.dim
        for ai, (_, _, entries) in zip(a, self.ad_forms):
            if ai:
                out = [o + ai * v for o, v in zip(out, _apply(entries, b))]
        return out

    def ad_matrix(self, i: int) -> list:
        """Matrix of ad_{V_i}: column j holds the coordinates of [V_i, V_j]."""
        mat = [[Fraction(0)] * self.dim for _ in range(self.dim)]
        for j in range(self.dim):
            for k in range(self.dim):
                mat[k][j] = self.c(i, j, k)
        return mat

    @cached_property
    def ad_forms(self) -> tuple:
        """(ad matrix, ``_closed_form`` kind, nonzero entries) per generator,
        built once; the entries of row r are its ((column, value), ...)."""
        return tuple((m, _closed_form(m),
                      tuple(tuple((j, c) for j, c in enumerate(row) if c) for row in m))
                     for m in map(self.ad_matrix, range(self.dim)))


def structure_constants(basis: Sequence[VectorField]) -> LieAlgebra:
    """Exact structure constants; raises if the basis is not closed."""
    constants = {}
    for i in range(len(basis)):
        for j in range(len(basis)):
            if i == j:
                continue
            com = commutator(basis[i], basis[j])
            if com.is_zero():
                continue
            coords = sm.coordinates(com, basis)
            if coords is None:
                raise ValueError(
                    f"basis not closed under commutator at pair ({i + 1}, {j + 1})")
            for k, c in enumerate(coords):
                if c:
                    constants[(i, j, k)] = c
    return LieAlgebra(basis=tuple(basis), constants=constants)


def derived_series(alg: LieAlgebra) -> list:
    """Dimensions of the derived series, computed on coordinates."""
    def span_close(vectors):
        rows, pivots = ex.rref(vectors, alg.dim)
        return rows[:len(pivots)]

    current = span_close([[Fraction(1) if i == j else Fraction(0)
                           for j in range(alg.dim)] for i in range(alg.dim)])
    dims = [len(current)]
    while True:
        brackets = []
        for a in current:
            for b in current:
                v = alg.bracket_coords(a, b)
                if any(v):
                    brackets.append(v)
        nxt = span_close(brackets)
        dims.append(len(nxt))
        if len(nxt) == 0 or len(nxt) == dims[-2]:
            return dims
        current = nxt


def witness_order_valid(alg: LieAlgebra, order: Sequence[int]) -> bool:
    """Check [V_i, V_j] in span{V_ord[0]..V_ord[p-1]} for every position p
    of ord and every earlier position i."""
    for p in range(len(order)):
        prefix = set(order[:p])
        if any(alg.c(i, order[p], k) for i in order[:p]
               for k in range(alg.dim) if k not in prefix):
            return False
    return True


def is_solvable(alg: LieAlgebra):
    """(solvable?, witness basis ordering) per the triangular criterion.

    On success the returned index order satisfies [V_i, V_j] in
    span{V_1..V_{j-1}} for i < j.  The witness tried is the basis order,
    checked exactly.  It holds for every algebra the package builds (the
    table algebras and ``full_algebra``); where it fails, the witness is
    None.
    """
    if derived_series(alg)[-1] != 0:
        return False, None
    order = list(range(alg.dim))
    return True, order if witness_order_valid(alg, order) else None


def _unit(n, i):
    v = [Fraction(0)] * n
    v[i] = Fraction(1)
    return v


def _closed_form(mat) -> str | None:
    """The closed form of exp(-eps*ad): "diagonal", "nilpotent" (a finite
    series) or "hyperbolic" (ad^3 = ad, as for the Lorentz boost); None for
    any other ad.  Diagonal is tested first: its eigenvalues here lie in
    {-1, 0}, so it satisfies ad^3 = ad too, but it keeps its own exp form."""
    dim = len(mat)
    if all(mat[r][c] == 0 for r in range(dim) for c in range(dim) if r != c):
        return "diagonal"
    power = mat
    for _ in range(dim):
        power = _mat_mul(power, mat)
        if all(not v for row in power for v in row):
            return "nilpotent"
    if _mat_mul(_mat_mul(mat, mat), mat) == mat:
        return "hyperbolic"
    return None


def _series(entries, vec, e):
    """Yield (p, {k: nonzero coordinate k of (-e*ad)^p vec / p!}) for
    p = 1, 2, ... of the finite series exp(-e*ad) vec of a nilpotent ad,
    given by its nonzero ``entries`` per row; the last term yielded is
    empty.  Each term is the last one times -e/p, so no factorial is
    divided out."""
    term = list(vec)
    for p in range(1, len(entries) + 1):
        scale = -e / p
        term = [scale * x if x else 0 for x in _apply(entries, term)]
        nonzero = {k: t for k, t in enumerate(term) if t}
        yield p, nonzero
        if not nonzero:
            return


def _mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def adjoint_action(alg: LieAlgebra, eps, i: int, w) -> AlgebraElement:
    """Ad(exp(eps*V_i)) w = exp(-eps*ad_{V_i}) w, in closed form.

    A nilpotent ad gives a finite series, summed exactly in Fractions (a
    float eps or coordinate is read exactly) over the nonzero entries of ad
    and the nonzero coordinates of each term.  A diagonal ad scales each
    coordinate by an exponential, and an ad with ad^3 = ad gives
    w - sinh(eps)*ad w + (cosh(eps) - 1)*ad^2 w; both are in floats.  Any
    other ad raises ValueError.
    """
    coords = list(w.coefficients if isinstance(w, AlgebraElement) else w)
    mat, kind, entries = alg.ad_forms[i]
    if kind == "diagonal":
        return AlgebraElement(tuple(
            math.exp(-float(eps) * float(mat[k][k])) * float(c) if mat[k][k] else c
            for k, c in enumerate(coords)))
    if kind == "nilpotent":
        acc = [Fraction(c) for c in coords]
        for _, term in _series(entries, acc, Fraction(eps)):
            for k, t in term.items():
                acc[k] += t
        return AlgebraElement(tuple(acc))
    if kind == "hyperbolic":
        vec = [float(c) for c in coords]
        ad1 = _apply(entries, vec)
        ad2 = _apply(entries, ad1)
        sh, ch1 = math.sinh(float(eps)), math.cosh(float(eps)) - 1.0
        return AlgebraElement(tuple(
            v - sh * a + ch1 * b for v, a, b in zip(vec, ad1, ad2)))
    raise ValueError("no closed-form adjoint action for this generator")


def _apply(entries, vec):
    """ad vec, from the nonzero entries of ad and the nonzero coordinates of
    vec."""
    return [sum(c * vec[j] for j, c in row if vec[j]) for row in entries]


def adjoint_table_entry(alg: LieAlgebra, i: int, j: int) -> str:
    """Symbolic text of Ad(exp(eps*V_i)) V_j for table emission."""
    mat, kind, entries = alg.ad_forms[i]
    if kind == "diagonal":
        lam = mat[j][j]
        if lam == 0:
            return f"V{j + 1}"
        coeff = "exp(eps)" if lam == -1 else (
            "exp(-eps)" if lam == 1 else f"exp({-lam}*eps)")
        return f"{coeff}*V{j + 1}"
    if kind == "nilpotent":
        terms = [(1, f"V{j + 1}")]
        for p, term in _series(entries, _unit(alg.dim, j), Fraction(1)):
            epspow = "eps" if p == 1 else f"eps^{p}"
            terms += [(c, f"{epspow}*V{k + 1}") for k, c in term.items()]
        return _sum_text(terms)
    if kind == "hyperbolic":
        ad1 = [row[j] for row in mat]
        ad2 = _apply(entries, ad1)
        terms = []
        for k in range(alg.dim):
            # w - sinh(eps)*ad w + (cosh(eps) - 1)*ad^2 w, collected per V_k
            for c, factor in ((int(k == j) - ad2[k], ""), (ad2[k], "cosh(eps)*"),
                              (-ad1[k], "sinh(eps)*")):
                if c:
                    terms.append((c, f"{factor}V{k + 1}"))
        return _sum_text(terms)
    raise ValueError("no closed-form adjoint entry for this generator")


def _sum_text(terms) -> str:
    """Text of a sum of (rational coefficient, factor text) terms."""
    out = ""
    for c, factor in terms:
        mag = "" if abs(c) == 1 else f"{abs(c)}*"
        sign = (" - " if c < 0 else " + ") if out else ("-" if c < 0 else "")
        out += f"{sign}{mag}{factor}"
    return out


def commutator_table_entry(alg: LieAlgebra, i: int, j: int) -> str:
    coords = [alg.c(i, j, k) for k in range(alg.dim)]
    return _sum_text([(c, f"V{k + 1}") for k, c in enumerate(coords) if c]) or "0"


def normalize_element(alg: LieAlgebra, w) -> tuple:
    """Canonical representative of the one-dimensional subalgebra span{w}.

    Exact rules for the table algebras and ``full_algebra`` (V1, V2
    translations; V3 dilatation; V4 central field scaling), in Fractions:
      * with a V3 part, Ad(exp(eps*V_i)), eps = a_i/a3, absorbs each
        translation into V3;
      * without one, Ad(exp(eps*V3)) scales only the translations, by e^eps;
        when a translation part and a V4 part are both present it is applied
        once, with eps = ln(|a4|/|t|) for the leading translation t, so that
        the two parts have the same size;
      * finally w is divided by |leading coefficient|, keeping its sign.
    Positive multiples of w get one representative, -w gets its negative,
    and a second pass applies nothing.  Returns (AlgebraElement of floats,
    list of (action, float parameter) applied); raises OverflowError when
    one of these floats is out of range.
    """
    coords = [Fraction(c) for c in (w.coefficients if isinstance(w, AlgebraElement) else w)]
    if not any(coords):
        raise ValueError("zero element has no one-dimensional subalgebra")
    word = []
    shifts = [i for i in (0, 1) if coords[i]]
    if coords[2]:
        for i in shifts:
            eps = coords[i] / coords[2]
            coords = list(adjoint_action(alg, eps, i, coords).coefficients)
            word.append((f"Ad(exp(eps*V{i + 1}))", float(eps)))
    elif shifts:
        rest = [c for c in coords[3:] if c]
        ratio = abs(rest[0] / coords[shifts[0]]) if rest else 1
        if ratio != 1:
            coords = [c * ratio if k in shifts else c for k, c in enumerate(coords)]
            try:
                eps = math.log(ratio)
            except (OverflowError, ValueError):  # the ratio is beyond float range
                eps = math.log(ratio.numerator) - math.log(ratio.denominator)
            word.append(("Ad(exp(eps*V3))", eps))
    lead = abs(next(c for c in coords if c))
    if lead != 1:
        coords = [c / lead for c in coords]
        word.append(("scale", float(1 / lead)))
    return AlgebraElement(tuple(float(c) for c in coords)), word


def table_algebra(theory: str) -> LieAlgebra:
    """The algebra of the commutator/adjoint table output.

    The first four named generators for the lam = 0 theory, the first three
    for lam = 1, matching the reference tables cell-for-cell; both are
    genuine subalgebras of the computed five-dimensional symmetry algebra.
    """
    sizes = {"eckart": 4, "israel-stewart": 3}
    if theory not in sizes:
        raise ValueError(f"unknown theory '{theory}'")
    return structure_constants(sm.named_generators()[:sizes[theory]])


def full_algebra() -> LieAlgebra:
    """The five-dimensional point-symmetry algebra shared by both theories."""
    return structure_constants(sm.named_generators())
