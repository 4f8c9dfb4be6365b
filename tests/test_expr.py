"""Exact expression kernel: differentiation, normalization, substitution,
collection, row reduction and nullspace, parsing, compilation."""

import math
import operator
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from fluidsym import expr as ex, odesolve as od, reduction as rd
from fluidsym.expr import JetSpace
from fluidsym.fluid import FluidParams


def test_derivative_of_sinh_is_cosh():
    psi = ex.sym("psi")
    assert ex.diff(ex.sinh(psi), "psi") == ex.cosh(psi)


def test_derivative_of_affine_in_t():
    c1, c4, t = ex.syms("c1 c4 t")
    assert ex.diff(c1 + t * c4, "t") == c4


def test_derivative_of_rational_heat_term():
    n, k, q, kappa, rho = ex.syms("n k q kappa rho")
    e = 3 * n * k * q / (kappa * rho)
    expect = -3 * n * k * q / (kappa * rho ** 2)
    assert ex.diff(e, "rho") == expect


def test_hyperbolic_identity_normalizes_to_zero():
    psi = ex.sym("psi")
    assert (ex.cosh(psi) ** 2 - ex.sinh(psi) ** 2 - 1).is_zero()


def test_double_angle_identity():
    psi = ex.sym("psi")
    assert (2 * ex.sinh(psi) * ex.cosh(psi) - ex.sinh(2 * psi)).is_zero()


def test_equation_of_state_substitution():
    rho = ex.sym("rho")
    p = rho / 3
    assert (p + rho) == 4 * rho / 3


def test_substitute_temperature():
    n, k, q, kappa, rho, T = ex.syms("n k q kappa rho T")
    e = q / (kappa * T)
    out = ex.subs(e, {"T": rho / (3 * n * k)})
    assert out == 3 * n * k * q / (kappa * rho)


def test_substitute_into_cosh():
    psi = ex.sym("psi")
    assert ex.subs(ex.cosh(psi), {"psi": ex.ZERO}) == ex.ONE


def test_singular_substitution_raises():
    rho = ex.sym("rho")
    with pytest.raises(ex.SingularSubstitutionError):
        ex.subs(1 / rho, {"rho": ex.ZERO})


def test_collect_simple():
    A, B, px, nx = ex.syms("A B psi_x n_x")
    parts = ex.collect(A * px + B * nx * px, ["psi_x", "n_x"])
    assert parts[(("psi_x", 1),)] == A
    assert parts[(("n_x", 1), ("psi_x", 1))] == B
    assert len(parts) == 2


def test_collect_zero_gives_empty_map():
    assert ex.collect(ex.ZERO, ["psi_x"]) == {}


def test_collect_rejects_nonpolynomial_basis_usage():
    rho = ex.sym("rho")
    with pytest.raises(ex.NonPolynomialError):
        ex.collect(ex.sym("x") / (1 + rho), ["rho"])


def _collect_resum(parts) -> ex.Expr:
    """Reassemble a collect() result; inverse of collect up to normalization."""
    total = ex.ZERO
    for key, coeff in parts.items():
        mono = ex.ONE
        for name, k in key:
            mono = mono * ex.sym(name) ** k
        total = total + mono * coeff
    return total


def test_collect_then_resum_roundtrip():
    rng = random.Random(7)
    for _ in range(20):
        e = _random_poly(rng)
        parts = ex.collect(e, ["psi_x", "n_x", "rho_x"])
        assert (_collect_resum(parts) - e).is_zero()


def test_cleared_substitution_reuses_shared_denominator():
    p, r = ex.syms("p r")
    den = 1 + p * r
    cs = ex.ClearedSubstitution({"u_x": p / den, "v_x": (r - 1) / den})
    assert cs.denominator == den
    assert cs.numerators == {"u_x": p, "v_x": r - 1}
    e = r * ex.sym("u_x") + ex.sym("v_x") + p
    assert cs(e, 1) == r * p + (r - 1) + p * den


def test_cleared_substitution_multiplies_distinct_denominators():
    p, r = ex.syms("p r")
    cs = ex.ClearedSubstitution({"u_x": 1 / (1 + p), "v_x": 1 / (1 + r)})
    assert (cs.denominator - (1 + p) * (1 + r)).is_zero()
    e = ex.sym("u_x") * ex.sym("v_x")
    assert (cs(e, 2) - (1 + p) * (1 + r)).is_zero()


def test_cleared_substitution_rejects_what_it_cannot_clear():
    u = ex.sym("u_x")
    cs = ex.ClearedSubstitution({"u_x": 1 / (1 + ex.sym("p"))})
    with pytest.raises(ex.NonPolynomialError):
        cs(u ** 3, 2)  # degree above d
    with pytest.raises(ex.NonPolynomialError):
        cs(1 / u, 2)  # negative power of a jet
    with pytest.raises(ex.NonPolynomialError):
        cs(ex.ONE / (1 + u), 2)  # jet in the denominator


def test_cleared_substitution_matches_subs():
    """Differential test: the cleared result over D**d equals ex.subs."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    p, r = ex.syms("p r")
    dens = [ex.ONE, p, 1 + p, p * r + 2, r ** 2 + p + 1, ex.exp(p) + 1]
    coeff = st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 2),
                               st.integers(0, 1)), max_size=3).map(
        lambda terms: sum((c * p ** i * r ** j for c, i, j in terms), ex.ZERO))

    # exponent vectors of the jet monomials of degree <= 2
    monos = [(i, j, k) for i in range(3) for j in range(3) for k in range(3)
             if i + j + k <= 2]

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(
        n_jets=st.integers(2, 3),
        values=st.lists(st.tuples(coeff, st.sampled_from(dens)),
                        min_size=3, max_size=3),
        shared=st.booleans(),
        terms=st.lists(st.tuples(st.sampled_from(monos), coeff), max_size=5),
        e_den=st.sampled_from(dens),
        degree=st.integers(2, 3),
    )
    def check(n_jets, values, shared, terms, e_den, degree):
        jets = ["u_x", "v_x", "w_x"][:n_jets]
        jet_map = {j: num / (values[0][1] if shared else den)
                   for j, (num, den) in zip(jets, values)}
        e = ex.ZERO
        for powers, c in terms:
            mono = c
            for j, k in zip(jets, powers):
                mono = mono * ex.sym(j) ** k
            e = e + mono
        e = e / e_den
        cs = ex.ClearedSubstitution(jet_map)
        den_keys = {ex.denominator(v).key() for v in jet_map.values()}
        if len(den_keys) == 1:
            assert cs.denominator.key() in den_keys
        got = cs(e, degree)
        assert got.atoms().isdisjoint(jets)
        assert (got / cs.denominator ** degree - ex.subs(e, jet_map)).is_zero()

    check()


def test_division_never_cancels_a_common_factor():
    """Normalizing divides by no polynomial: for random Laurent polynomials
    p and q in t, x and ln t with exp(c*t) factors, p*q / q keeps the
    denominator that 1 / q has, and is still exactly p."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    t, x, lt = ex.sym("t"), ex.sym("x"), ex.ln(ex.sym("t"))
    term = st.tuples(st.integers(-3, 3).filter(bool), st.integers(-2, 2),
                     st.integers(-2, 2), st.integers(0, 1), st.integers(-2, 2))
    poly = st.lists(term, min_size=1, max_size=4).map(
        lambda terms: sum((c * t ** i * x ** j * lt ** k * ex.exp(m * t)
                           for c, i, j, k, m in terms), ex.ZERO))

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(p=poly, q=poly)
    def check(p, q):
        hypothesis.assume(not p.is_zero() and not q.is_zero())
        quotient = p * q / q
        assert ex.denominator(quotient) == ex.denominator(1 / q)
        assert (quotient - p).is_zero()

    check()


def _mono_mul_by_sorting(m1, m2):
    """Reference for ``ex._mono_mul``, on monomials read through
    ``ex.unpack``: the atoms gathered in a dict, then sorted by key, and the
    exp arguments added, None when the sum is zero."""
    atoms1, e1 = ex.unpack(m1)
    atoms2, e2 = ex.unpack(m2)
    if not atoms2:
        atoms = atoms1
    elif not atoms1:
        atoms = atoms2
    else:
        acc = dict(atoms1)
        for a, e in atoms2:
            ne = acc.get(a, 0) + e
            if ne:
                acc[a] = ne
            else:
                del acc[a]
        atoms = tuple(sorted(acc.items(), key=lambda it: ex._atom_sort_key(it[0])))
    if e1 is None:
        exparg = e2
    elif e2 is None:
        exparg = e1
    else:
        exparg = e1 + e2
        exparg = None if exparg.is_zero() else exparg
    return (atoms, exparg)


def _unpacked(p):
    """The items of a polynomial in dict order, each monomial read through
    ``ex.unpack``."""
    return [(ex.unpack(m), c) for m, c in p.items()]


def _poly_mul_term_by_term(p1, p2):
    """Reference for ``ex._poly_mul``, keyed by monomials read through
    ``ex.unpack``: each coefficient accumulated as an int or a Fraction, one
    product at a time."""
    if not p1 or not p2:
        return {}
    if p2 == ex._UNIT:
        return dict(_unpacked(p1))
    if p1 == ex._UNIT:
        return dict(_unpacked(p2))
    out = {}
    for m1, c1 in p1.items():
        for m2, c2 in p2.items():
            m = _mono_mul_by_sorting(m1, m2)
            nc = out.get(m, 0) + c1 * c2
            if nc:
                out[m] = ex._exact(nc)
            else:
                out.pop(m, None)
    return out


def _laurent_polys(st):
    """Laurent polynomials in t, x, ln t, ln x and the non-canonical symbol
    k, with int and Fraction coefficients and exp(c*t), exp(c*psi)
    factors, some with few distinct monomials; never zero."""
    t, x, k, psi = ex.syms("t x k psi")
    lt, lx = ex.ln(t), ex.ln(x)
    coeff = st.one_of(st.integers(-4, 4).filter(bool),
                      st.fractions(-3, 3, max_denominator=6).filter(bool))
    term = st.tuples(coeff, *[st.integers(-2, 2)] * 3, st.integers(0, 2),
                     st.integers(0, 1), st.integers(-2, 2), st.integers(-1, 1))
    sparse = st.lists(term, min_size=1, max_size=5).map(
        lambda terms: sum((c * t ** i * x ** j * k ** kk * lt ** a * lx ** b
                           * ex.exp(m * t + w * psi)
                           for c, i, j, kk, a, b, m, w in terms), ex.ZERO))
    # few monomials, so that products cancel and re-form terms
    dense = st.lists(st.tuples(st.sampled_from([1, -1, Fraction(1, 2)]),
                               st.integers(-1, 2), st.integers(0, 1),
                               st.integers(0, 1)), min_size=2, max_size=6).map(
        lambda terms: sum((c * t ** i * lt ** j * ex.exp(m * t)
                           for c, i, j, m in terms), ex.ZERO))
    return st.one_of(sparse, dense).filter(lambda e: not e.is_zero())


def test_kernel_products_match_the_term_by_term_reference():
    """Differential test: products accumulated in ints over one common
    denominator, with monomials multiplied by merging their sorted atoms,
    give the reference's items in the same order with the same coefficient
    types; p*(q - p) and (p + q)*(p - q) make terms cancel."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(p=_laurent_polys(st), q=_laurent_polys(st))
    def check(p, q):
        for a, b in ((p, q), (p, q - p), (p + q, p - q), (q, ex.ONE / 3),
                     (p / q, q)):
            for f1 in (a.num, a.den):
                for f2 in (b.num, b.den):
                    new, old = ex._poly_mul(f1, f2), _poly_mul_term_by_term(f1, f2)
                    assert _unpacked(new) == list(old.items())
                    assert [type(c) for c in new.values()] == \
                        [type(c) for c in old.values()]
                    for m1 in f1:
                        for m2 in f2:
                            assert ex.unpack(ex._mono_mul(m1, m2)) == \
                                _mono_mul_by_sorting(m1, m2)

    check()


def _number_through_a_fraction(value):
    """Reference for ``Expr.number``: every value through a Fraction."""
    c = ex._exact(Fraction(value))
    return ex.Expr({ex._ONE_MONO: c} if c else {}, {ex._ONE_MONO: 1})


def _div_through_a_fraction(a, b):
    """Reference for ``ex._div``: every quotient through a Fraction."""
    return ex._exact(Fraction(a, b))


def _as_expr(value):
    return value if isinstance(value, ex.Expr) else _number_through_a_fraction(value)


def _mul_normalized(e, f):
    """Reference for ``e * f``: both sides as expressions, the polynomials
    multiplied and the quotient normalized."""
    e, f = _as_expr(e), _as_expr(f)
    return ex.Expr._normalized(ex._poly_mul(e.num, f.num), ex._poly_mul(e.den, f.den))


def _truediv_normalized(e, f):
    """Reference for ``e / f``, f nonzero."""
    e, f = _as_expr(e), _as_expr(f)
    return ex.Expr._normalized(ex._poly_mul(e.num, f.den), ex._poly_mul(e.den, f.num))


def _add_normalized(e, f):
    """Reference for ``e + f``: over equal denominators the summed
    numerator is normalized again, else the sides are cross-multiplied."""
    e, f = _as_expr(e), _as_expr(f)
    if e.den == f.den:
        return ex.Expr._normalized(ex._poly_add(e.num, f.num), dict(e.den))
    num = ex._poly_add(ex._poly_mul(e.num, f.den), ex._poly_mul(f.num, e.den))
    return ex.Expr._normalized(num, ex._poly_mul(e.den, f.den))


def _assert_same_build(got, want, raw_terms):
    """Equal values, equal items in the same dict order, equal coefficient
    types, nested exp and ln arguments included."""
    assert got == want
    assert raw_terms(got) == raw_terms(want)
    assert [type(c) for c in _coefficients(got)] == [type(c) for c in _coefficients(want)]


_CONSTANTS = (0, 1, -1, 2, -3, 12, Fraction(1, 2), Fraction(-2, 3), Fraction(4, 2),
              Fraction(7, 5))


def test_constant_products_match_the_general_route(raw_terms):
    """Differential test: a product with a constant (an int, a Fraction or
    a constant expression, on either side) and a quotient by one scale the
    numerator and copy the denominator; the general route multiplies both
    polynomials and normalizes.  Both give the same build."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=120, deadline=None, database=None)
    @hypothesis.given(p=_laurent_polys(st), q=_laurent_polys(st),
                      c=st.sampled_from(_CONSTANTS))
    def check(p, q, c):
        for e in (p, p / q, q / (p + 1) if not (p + 1).is_zero() else q, ex.ZERO):
            for got, want in ((e * c, _mul_normalized(e, c)),
                              (c * e, _mul_normalized(c, e)),
                              (e * ex.number(c), _mul_normalized(e, c)),
                              (ex.number(c) * e, _mul_normalized(c, e))):
                _assert_same_build(got, want, raw_terms)
            if c:
                _assert_same_build(e / c, _truediv_normalized(e, c), raw_terms)
                _assert_same_build(e / ex.number(c), _truediv_normalized(e, c), raw_terms)
            else:
                with pytest.raises(ex.SingularSubstitutionError):
                    e / c

    check()


def test_equal_denominator_sums_match_the_general_route(raw_terms):
    """Differential test: a sum over one denominator, which is normalized
    already, keeps it; the general route normalizes the sum again.  Sums
    that cancel come back as zero over 1 on both routes."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=120, deadline=None, database=None)
    @hypothesis.given(p=_laurent_polys(st), q=_laurent_polys(st), r=_laurent_polys(st),
                      c=st.sampled_from(_CONSTANTS))
    def check(p, q, r, c):
        e, f = p / q, r / q
        assert e.den == f.den
        for a, b in ((e, f), (e, -e), (f, e), (p, r), (p, -p), (p, c), (e, c)):
            _assert_same_build(a + b, _add_normalized(a, b), raw_terms)
            _assert_same_build(a - b, _add_normalized(a, -_as_expr(b)), raw_terms)
        zero = e - e
        assert zero.num == {} and zero.den == {ex._ONE_MONO: 1}

    check()


def test_coefficient_division_matches_the_general_route(raw_terms):
    """``_div`` and ``Expr.number`` take ints without a Fraction; the
    general route builds one.  Both give the same value and type."""
    values = [0, 1, -1, 2, -2, 3, -6, 12, 10 ** 30, -(10 ** 30) - 7,
              Fraction(1, 2), Fraction(-4, 6), Fraction(6, 3), Fraction(-9, 3)]
    for a in values:
        for b in values:
            if b:
                got, want = ex._div(a, b), _div_through_a_fraction(a, b)
                assert got == want and type(got) is type(want), (a, b)
        _assert_same_build(ex.number(a), _number_through_a_fraction(a), raw_terms)
    for v in (0.5, -0.25, 2.0, True):
        _assert_same_build(ex.number(v), _number_through_a_fraction(v), raw_terms)


def _exp_args(e):
    """Every exp argument object of e's monomials, nested ones included."""
    for poly in (e.num, e.den):
        for atoms, arg in map(ex.unpack, poly):
            for a, _ in atoms:
                if a[0] == "ln":
                    yield from _exp_args(a[1])
            if arg is not None:
                yield arg
                yield from _exp_args(arg)


def test_exp_arguments_are_interned(raw_terms):
    """Equal exp arguments built in separate places, by exp(), by a product
    of exponentials and by a monomial's inverse, are one object."""
    psi, x, n = ex.syms("psi x n")
    built = [ex.sinh(psi) * ex.cosh(x), ex.cosh(psi) * ex.exp(x),
             ex.exp(psi) * ex.exp(x), ex.parse("exp(psi + x) + n/exp(psi)"),
             ex.tanh(psi + x), ex.diff(ex.cosh(2 * psi) / n, "psi"),
             ex.subs(ex.sinh(x), {"x": psi}), 1 / (ex.exp(psi) + ex.exp(-x))]
    shared: dict = {}
    seen = 0
    for e in built:
        for arg in _exp_args(e):
            first = shared.setdefault(repr(raw_terms(arg)), arg)
            assert arg is first, ex.to_text(arg)
            seen += 1
    assert seen > 2 * len(shared)


def test_exp_ids_and_atom_fields_are_never_reused(raw_terms):
    """Exp argument ids and atom field indices are handed out once, on first
    use, and kept: after many new arguments and atoms every earlier id and
    field reads back the same object, an equal argument built again gets
    the old id, no two ids hold equal arguments, and products formed before
    and after match the general route."""
    t = ex.sym("t")
    before = ex.exp(t)
    args, atoms = list(ex._EXP_ARGS), list(ex._ATOMS)
    for i in range(2, 40):
        ex.exp(i * t + 1) * ex.sym(f"fresh{i % 4}") * ex.ln(t + i)
    assert len(ex._EXP_ARGS) > len(args) and len(ex._ATOMS) > len(atoms)
    assert all(a is b for a, b in zip(ex._EXP_ARGS, args))
    assert all(a is b for a, b in zip(ex._ATOMS, atoms))
    assert len(set(ex._EXP_ARGS[1:])) == len(ex._EXP_ARGS) - 1
    assert len(set(ex._ATOMS)) == len(ex._ATOMS)
    after = ex.exp(ex.parse("t"))
    assert list(after.num) == list(before.num)
    for got, want in ((before * after, _mul_normalized(before, after)),
                      (before + after, _add_normalized(before, after)),
                      (before / after, _truediv_normalized(before, after))):
        _assert_same_build(got, want, raw_terms)


def test_packed_monomials_unpack_to_sorted_atoms():
    """Round trip: ``ex.unpack`` reads every packed monomial back as atoms
    strictly increasing by sort key, with nonzero exponents, and building
    that product of atoms again gives the same packed monomial; negative
    exponents, ln atoms and nested exp arguments included."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    t, x, psi = ex.syms("t x psi")
    nested = [ex.exp(ex.exp(psi) * t - x), ex.ln(1 + ex.exp(x)) / t ** 2,
              ex.exp(ex.ln(x + 1) - ex.exp(-psi))]

    def rebuilt(mono):
        atoms, exparg = ex.unpack(mono)
        e = ex.ONE
        for (kind, arg), k in atoms:
            e = e * (ex.sym(arg) if kind == "s" else ex.ln(arg)) ** k
        if exparg is not None:
            e = e * ex.exp(exparg)
        ((m, c),) = e.num.items()
        assert c == 1 and e.den == ex._UNIT
        return m

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(p=_laurent_polys(st), which=st.integers(0, len(nested)))
    def check(p, which):
        e = p * nested[which] if which < len(nested) else p
        monos = [*e.num, *e.den]
        for mono in monos:
            atoms, exparg = ex.unpack(mono)
            keys = [ex._atom_sort_key(a) for a, _ in atoms]
            assert keys == sorted(keys) and len(set(keys)) == len(keys)
            assert all(type(k) is int and k for _, k in atoms)
            assert rebuilt(mono) == mono

    check()
    mono, = (t ** -2 * x ** 3 / ex.ln(t) * ex.exp(2 * t - psi)).num
    assert ex.unpack(mono) == (((("s", "t"), -2), (("s", "x"), 3), (("ln", t), -1)),
                               2 * t - psi)


def test_exponents_past_the_field_bound_raise_instead_of_aliasing():
    """Exponent fields are _W = 32 bits wide and hold exponents in
    [-2**30, 2**30): at the bound a product, an inverse or a derivative
    raises ValueError, and a field just inside it never carries into the
    next atom's field."""
    assert ex._W == 32
    bound = 2 ** (ex._W - 2)
    x, y = ex.syms("x y")
    half = x
    for _ in range(ex._W - 3):
        half = half * half
    top = half * (half / x)
    low = (1 / half) * (1 / half)
    assert ex.unpack(next(iter(top.num)))[0] == ((("s", "x"), bound - 1),)
    assert ex.unpack(next(iter(low.num)))[0] == ((("s", "x"), -bound),)
    assert ex.unpack(next(iter((top * y).num)))[0] == \
        ((("s", "x"), bound - 1), (("s", "y"), 1))
    assert ex.unpack(next(iter((low / y).num)))[0] == \
        ((("s", "x"), -bound), (("s", "y"), -1))
    for build in (lambda: top * x, lambda: top * top, lambda: low / x,
                  lambda: 1 / low, lambda: ex.diff(low, "x"), lambda: low * low * y):
        with pytest.raises(ValueError):
            build()


def test_closed_form_powers_match_the_repeated_product(raw_terms):
    """A one-term expression raised to an integer k is built in closed
    form: the packed exponents and the exp argument times k, the
    coefficient to the k.  It is the same build as the product of |k|
    factors, on seeded one-term expressions with exp factors; a power past
    the exponent range raises at once."""
    rng = random.Random(3401)
    t, x, psi = ex.syms("t x psi")
    factors = [t, x, psi, ex.ln(1 + t), ex.exp(psi), ex.exp(2 * t - x / 3)]
    for _ in range(40):
        e = ex.number(Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 5)))
        for f in rng.sample(factors, rng.randint(0, 4)):
            e = e * f ** rng.randint(-3, 3)
        assert len(e.num) == 1 and e.den == ex._UNIT
        for k in range(-5, 6):
            base = e if k >= 0 else ex.ONE / e
            want = ex.ONE
            for _ in range(abs(k)):
                want = want * base
            _assert_same_build(e ** k, want, raw_terms)
    start = time.perf_counter()
    assert ex.unpack(next(iter((t ** 10 ** 7).num))) == (((("s", "t"), 10 ** 7),), None)
    assert time.perf_counter() - start < 1.0
    bound = 2 ** (ex._W - 2)
    assert ex.unpack(next(iter((x ** -bound).num)))[0] == ((("s", "x"), -bound),)
    # the range is checked before the coefficient 2 is raised to 2**29
    for base, k in ((t, bound), (t, -bound - 1), (t * x, 10 ** 400),
                    (2 * x ** 2, bound // 2)):
        with pytest.raises(ValueError):
            base ** k


def test_products_of_exponentials_add_their_arguments():
    """exp arguments that differ only in a coefficient such as -1 and -2,
    whose ints hash alike, still add to the right sum."""
    psi = ex.sym("psi")
    assert ex.exp(-psi) * ex.exp(-psi) == ex.exp(-2 * psi)
    assert ex.exp(-2 * psi) * ex.exp(2 * psi) == ex.ONE
    assert ex.exp(-psi) * ex.exp(-2 * psi) == ex.exp(-3 * psi)
    assert ex.exp(-2 * psi) / ex.exp(-psi) == ex.exp(-psi)


def test_built_monomials_keep_their_atoms_sorted(atoms_sorted):
    """Every monomial lists its atoms strictly increasing by sort key, which
    the monomial product's merge relies on: checked on expressions built by
    parse, diff, subs, products and quotients."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    t, x, rho = ex.syms("t x rho")

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(p=_laurent_polys(st), q=_laurent_polys(st),
                      var=st.sampled_from(["t", "x", "k", "psi"]))
    def check(p, q, var):
        built = [p * q, p / q, ex.diff(p, var), ex.diff(p / q, var),
                 ex.parse(ex.to_text(p)),
                 ex.subs(p, {"t": rho * x, "k": ex.ln(rho) + t, "psi": 2 * x}),
                 ex.subs(q, {"x": t ** 2})]
        assert all(atoms_sorted(e) for e in built)

    check()


def test_nullspace_single_constraint():
    rows = [{"c1": Fraction(1), "c2": Fraction(1)}]
    basis = ex.nullspace(rows, ["c1", "c2"])
    assert len(basis) == 1
    vec = basis[0]
    # spans (1, -1)
    assert vec["c1"] == -vec["c2"]


def test_nullspace_no_constraints():
    basis = ex.nullspace([], ["c1"])
    assert basis == [{"c1": Fraction(1)}]


def test_nullspace_deterministic_order():
    rows = [{"c1": Fraction(2), "c3": Fraction(-1)}]
    b1 = ex.nullspace(rows, ["c1", "c2", "c3"])
    b2 = ex.nullspace(rows, ["c1", "c2", "c3"])
    assert b1 == b2


def test_rref_matches_sympy():
    """Differential test against sympy: pivots and reduced rows, including
    zero rows, rank-deficient and wide matrices, and an augmented part.
    Int entries reduce exactly too: every pivot row holds Fractions."""
    hypothesis = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    st = hypothesis.strategies
    entry = st.one_of(st.just(Fraction(0)),
                      st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)))

    def as_fraction(x):
        return Fraction(int(x.p), int(x.q))

    def sympy_rref(rows):
        reduced, pivots = sympy.Matrix(rows).rref()
        out = [[as_fraction(v) for v in reduced.row(i)] for i in range(len(pivots))]
        return out, list(pivots)

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(
        width=st.integers(1, 7),
        base=st.lists(st.lists(entry, min_size=7, max_size=7), min_size=1, max_size=4),
        combos=st.lists(st.lists(st.integers(-2, 2), min_size=4, max_size=4),
                        max_size=3),
        split=st.integers(0, 7),
        integral=st.booleans(),
    )
    def check(width, base, combos, split, integral):
        base = [row[:width] for row in base]
        if integral:  # the same rows scaled to ints
            base = [[int(6 * v) for v in row] for row in base]
        # dependent rows (all-zero ones when a combination vanishes)
        extra = [[sum(c * row[j] for c, row in zip(cs, base))
                  for j in range(width)] for cs in combos]
        matrix = base + extra
        rows, pivots = ex.rref(matrix, width)
        assert (rows, pivots) == sympy_rref(matrix)
        assert all(type(v) is Fraction for row in rows[:len(pivots)] for v in row)
        # pivoting on a left block carries the rest along as an augmented part
        ncols = min(split, width)
        rows, pivots = ex.rref(matrix, ncols)
        left, left_pivots = sympy_rref([row[:ncols] for row in matrix]) if ncols \
            else ([], [])
        assert pivots == left_pivots
        assert [row[:ncols] for row in rows[:len(pivots)]] == left
        trailing = rows[len(pivots):]
        assert all(not any(row[:ncols]) and any(row) for row in trailing)
        full, full_pivots = sympy_rref(matrix)
        assert bool(trailing) == (len(full_pivots) > len(pivots))
        if not trailing:
            assert rows == full

    check()


def _random_pair(rng, sympy, depth):
    """A seeded random expression built twice, as (Expr, sympy expression),
    over x, y, z with exp/sinh/cosh of k*x and integer powers."""
    if depth == 0 or rng.random() < 0.25:
        kind = rng.randrange(3)
        if kind == 0:
            name = rng.choice("xyz")
            return ex.sym(name), sympy.Symbol(name)
        if kind == 1:
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            return ex.number(c), sympy.Rational(c.numerator, c.denominator)
        k = rng.choice((-2, -1, 1, 2))
        fn = rng.choice(("exp", "sinh", "cosh"))
        return (getattr(ex, fn)(k * ex.sym("x")),
                getattr(sympy, fn)(k * sympy.Symbol("x")))
    a, sa = _random_pair(rng, sympy, depth - 1)
    op = rng.choice("+-*/^")
    if op == "^":
        k = rng.randint(-2, 3) if not a.is_zero() else rng.randint(0, 3)
        return a ** k, sa ** k
    b, sb = _random_pair(rng, sympy, depth - 1)
    if op == "/" and b.is_zero():
        op = "*"
    fn = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": operator.truediv}[op]
    return fn(a, b), fn(sa, sb)


def test_diff_subs_and_zero_test_match_sympy():
    """Differential test against sympy.  exp(x) is transcendental over
    Q(x, y, z), so with exp(x) read as an independent value X both sides
    become rational functions: derivatives and substitutions are compared
    exactly at rational points, and the zero test against sympy's cancel."""
    sympy = pytest.importorskip("sympy")
    x, y, z, big_x = sympy.symbols("x y z X")

    def rational(s):
        return sympy.cancel(s.rewrite(sympy.exp).subs(sympy.exp(x), big_x))

    def agree(e, s, rng):
        """Both sides at two random rational points; points where either
        side has a pole are skipped.  Returns the number compared."""
        r = rational(s)
        compared = 0
        for _ in range(2):
            vals = {v: Fraction(rng.randint(-40, 40), rng.randint(1, 9))
                    for v in ("x", "y", "z", "X")}
            try:
                got = ex.evaluate(e, {v: vals[v] for v in "xyz"}, {"x": vals["X"]})
            except ex.DomainError:
                continue
            want = r.subs({sympy.Symbol(v): sympy.Rational(c.numerator, c.denominator)
                           for v, c in vals.items()})
            if not want.is_Rational:
                continue
            assert got == Fraction(int(want.p), int(want.q))
            compared += 1
        return compared

    rng = random.Random(2024)
    compared = 0
    for _ in range(15):
        e, s = _random_pair(rng, sympy, 3)
        f, sf = _random_pair(rng, sympy, 2)
        g, sg = _random_pair(rng, sympy, 2)
        for name in "xyz":
            compared += agree(ex.diff(e, name), sympy.diff(s, sympy.Symbol(name)), rng)
        compared += agree(ex.subs(e, {"y": f, "z": g}),
                          s.subs({y: sf, z: sg}, simultaneous=True), rng)
        # true identities, and the same identities perturbed
        lhs = [(e + f) * (e - f), ex.diff(e * f, "x"), ex.cosh(2 * ex.sym("x")),
               ex.subs(e * f, {"z": g})]
        rhs = [e * e - f * f, ex.diff(e, "x") * f + e * ex.diff(f, "x"),
               ex.cosh(ex.sym("x")) ** 2 + ex.sinh(ex.sym("x")) ** 2,
               ex.subs(e, {"z": g}) * ex.subs(f, {"z": g})]
        slhs = [(s + sf) * (s - sf), sympy.diff(s * sf, x), sympy.cosh(2 * x),
                (s * sf).subs(z, sg)]
        srhs = [s * s - sf * sf, sympy.diff(s, x) * sf + s * sympy.diff(sf, x),
                sympy.cosh(x) ** 2 + sympy.sinh(x) ** 2, s.subs(z, sg) * sf.subs(z, sg)]
        bump = ex.sym("y") / 7
        for a, b, sa, sb in zip(lhs, rhs, slhs, srhs):
            assert rational(sa - sb) == 0
            assert (a - b).is_zero()
            assert rational(sa + y / 7 - sb) != 0
            assert not (a + bump - b).is_zero()
    assert compared >= 100


_PRIME = 2 ** 61 - 1


def test_rref_mod_p_reconstructs_the_rational_rref():
    """Differential test of the modular path: on small-integer matrices the
    reduced rows mod a 61-bit prime reconstruct to the Fraction ones, with
    the same pivots, and so does the nullspace."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def reconstructed(rows):
        return [[ex.rational_reconstruction(v, _PRIME) for v in row] for row in rows]

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(
        width=st.integers(1, 7),
        matrix=st.lists(st.lists(st.integers(-4, 4), min_size=7, max_size=7),
                        min_size=1, max_size=6),
    )
    def check(width, matrix):
        matrix = [row[:width] for row in matrix]
        exact, pivots = ex.rref([[Fraction(v) for v in row] for row in matrix], width)
        modular, mod_pivots = ex.rref(matrix, width, modulus=_PRIME)
        assert mod_pivots == pivots
        assert all(0 <= v < _PRIME for row in modular for v in row)
        assert reconstructed(modular) == exact
        names = [f"c{j}" for j in range(width)]
        forms = [dict(zip(names, row)) for row in matrix]
        basis = ex.nullspace(forms, names)
        mod_basis = ex.nullspace(forms, names, modulus=_PRIME)
        assert [{u: ex.rational_reconstruction(v, _PRIME) for u, v in vec.items()}
                for vec in mod_basis] == basis

    check()


def test_rref_mod_p_rank_can_only_drop():
    # 3 vanishes mod 3: rank 1 over Q, rank 0 mod 3
    assert ex.rref([[Fraction(3)]], 1)[1] == [0]
    assert ex.rref([[3]], 1, modulus=3) == ([], [])


def test_rational_reconstruction_bounds():
    assert ex.rational_reconstruction(-3 * pow(7, -1, _PRIME) % _PRIME, _PRIME) \
        == Fraction(-3, 7)
    # a denominator above sqrt(p/2) cannot be recovered: the result is None
    # or another fraction, which is why the solve certifies what it gets
    big = Fraction(10 ** 12 - 11, 10 ** 12 + 39)
    a = big.numerator * pow(big.denominator, -1, _PRIME) % _PRIME
    assert ex.rational_reconstruction(a, _PRIME) != big
    assert ex.rational_reconstruction(0, _PRIME) == 0


_EVAL_NAMES = ("t", "x", "n", "rho")


def _evaluation_terms(st, max_size):
    """Strategy for a sum of terms (num, den, factors, c), each the rational
    num/den times the named factors times exp(c*psi); ``_evaluation_sum``
    builds it."""
    term = st.tuples(st.integers(-6, 6), st.integers(1, 4),
                     st.lists(st.sampled_from(_EVAL_NAMES), max_size=3),
                     st.integers(-2, 2))
    return st.lists(term, min_size=1, max_size=max_size)


def _evaluation_sum(terms):
    e = ex.ZERO
    for num, den, factors, c in terms:
        mono = ex.number(Fraction(num, den)) * ex.exp(c * ex.sym("psi"))
        for f in factors:
            mono = mono * ex.sym(f)
        e = e + mono
    return e


def test_evaluate_matches_term_by_term_evaluation(term_by_term):
    """Differential test of the exact point evaluator against the float
    oracle: exp(c*psi) takes the value E**c at the point where psi = ln E."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(
        num=_evaluation_terms(st, 4),
        den=_evaluation_terms(st, 3),
        values=st.lists(st.integers(1, 5).map(lambda v: v * (-1) ** v),
                        min_size=4, max_size=4),
        e_value=st.integers(1, 5),
    )
    def check(num, den, values, e_value):
        denominator = _evaluation_sum(den)
        hypothesis.assume(not denominator.is_zero())
        e = _evaluation_sum(num) / denominator
        point = {n: Fraction(v) for n, v in zip(_EVAL_NAMES, values)}
        exps = {"psi": Fraction(e_value)}
        env = {**{n: float(v) for n, v in point.items()}, "psi": math.log(e_value)}
        try:
            exact = ex.evaluate(e, point, exps)
        except ex.DomainError:
            # no symbol is zero, so only the denominator can vanish
            assert ex.evaluate(ex.denominator(e), point, exps) == 0
            return
        assert float(exact) == pytest.approx(term_by_term(e, env), rel=1e-9, abs=1e-9)

    check()


@pytest.mark.parametrize("prime", [2 ** 61 - 1, 13])
def test_evaluate_mod_p_is_the_exact_value_reduced(prime):
    """Differential test of ``evaluate(..., modulus=p)`` against the exact
    value reduced mod p.  It raises DomainError exactly when the exact
    denominator, a base under a negative power (a symbol's value or exp(psi))
    or a coefficient's denominator is 0 mod p.  Values from -30 to 30 hit
    0 mod 13 often."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def reduced(c: Fraction) -> int:
        return c.numerator * pow(c.denominator, -1, prime) % prime

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(
        num=_evaluation_terms(st, 4),
        den=_evaluation_terms(st, 3),
        values=st.lists(st.integers(-30, 30), min_size=4, max_size=4),
        e_value=st.integers(1, 30),
    )
    def check(num, den, values, e_value):
        denominator = _evaluation_sum(den)
        hypothesis.assume(not denominator.is_zero())
        e = _evaluation_sum(num) / denominator
        point = {n: Fraction(v) for n, v in zip(_EVAL_NAMES, values)}
        exps = {"psi": Fraction(e_value)}
        monos = [(ex.unpack(m), c) for m, c in (*e.num.items(), *e.den.items())]
        bases = [point[a[1]] for (atoms, _), _ in monos for a, k in atoms if k < 0]
        bases += [exps["psi"] for (_, arg), _ in monos
                  if arg is not None and ex.diff(arg, "psi").as_fraction() < 0]
        pole = any(b % prime == 0 for b in bases) or any(
            Fraction(c).denominator % prime == 0 for _, c in monos)
        if pole or ex.evaluate(ex.denominator(e), point, exps).numerator % prime == 0:
            with pytest.raises(ex.DomainError):
                ex.evaluate(e, point, exps, modulus=prime)
            return
        got = ex.evaluate(e, point, exps, modulus=prime)
        assert type(got) is int and 0 <= got < prime
        assert got == reduced(ex.evaluate(e, point, exps))

    check()


@pytest.mark.parametrize("text, point", [
    ("ln(t)", {"t": 2}),
    ("exp(psi/2)", {}),
    ("exp(t)", {"t": 1}),
    ("1/(t - 1)", {"t": 1}),
    ("t^-2", {"t": 0}),
    ("t*y", {"t": 1}),
], ids=["ln-atom", "half-exp-multiple", "exp-of-unlisted-symbol",
        "zero-denominator", "pole", "unbound-symbol"])
def test_evaluate_raises_where_no_exact_value_exists(text, point):
    with pytest.raises(ex.DomainError):
        ex.evaluate(ex.parse(text), {k: Fraction(v) for k, v in point.items()},
                    {"psi": Fraction(2)})


def _random_poly(rng, depth=0):
    names = ["t", "x", "psi", "n", "rho", "q", "psi_x", "n_x", "rho_x"]
    terms = rng.randint(1, 4)
    e = ex.ZERO
    for _ in range(terms):
        c = ex.number(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        mono = c
        for _ in range(rng.randint(0, 3)):
            mono = mono * ex.sym(rng.choice(names))
        e = e + mono
    return e


def _random_expr(rng):
    e = _random_poly(rng)
    if rng.random() < 0.4:
        e = e + ex.sinh(ex.sym("psi")) * _random_poly(rng)
    if rng.random() < 0.3:
        den = _random_poly(rng)
        if not den.is_zero():
            e = e / den + ex.cosh(ex.sym("psi"))
    return e


def test_leibniz_rule_randomized():
    rng = random.Random(13)
    for _ in range(25):
        e1 = _random_expr(rng)
        e2 = _random_expr(rng)
        s = rng.choice(["psi", "n", "x"])
        lhs = ex.diff(e1 * e2, s)
        rhs = e1 * ex.diff(e2, s) + e2 * ex.diff(e1, s)
        assert (lhs - rhs).is_zero()


def test_linearity_of_derivative_randomized():
    rng = random.Random(5)
    for _ in range(20):
        e1, e2 = _random_expr(rng), _random_expr(rng)
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        lhs = ex.diff(a * e1 + e2, "psi")
        rhs = a * ex.diff(e1, "psi") + ex.diff(e2, "psi")
        assert (lhs - rhs).is_zero()


def test_normalization_idempotent_via_rebuild():
    # rebuilding a normalized expression from its own parts is the identity
    rng = random.Random(23)
    for _ in range(20):
        e = _random_expr(rng)
        rebuilt = ex.numerator(e) / ex.denominator(e)
        assert rebuilt == e


def test_numeric_cross_check_of_equivalent_builds(term_by_term):
    # the same function assembled along two different syntactic routes
    # evaluates identically after normalization
    rng = random.Random(31)
    psi, n, rho = ex.syms("psi n rho")
    e1 = (ex.cosh(psi) ** 2 - ex.sinh(psi) ** 2) * (n + rho) ** 2 / (n + rho)
    e2 = n + rho
    assert (e1 - e2).is_zero()
    for _ in range(100):
        env = {"psi": rng.uniform(-2, 2), "n": rng.uniform(0.1, 3),
               "rho": rng.uniform(0.1, 3)}
        v1, v2 = term_by_term(e1, env), term_by_term(e2, env)
        assert abs(v1 - v2) <= 1e-12 * max(1.0, abs(v1))


def test_numeric_eval_matches_math_functions():
    psi = ex.sym("psi")
    e = ex.sinh(psi) * ex.cosh(psi) + ex.ln(ex.sym("rho"))
    expect = math.sinh(0.7) * math.cosh(0.7) + math.log(2.5)
    assert abs(ex.compile_exprs([e], ["psi", "rho"])(0.7, 2.5)[0] - expect) < 1e-14


def test_total_derivative_expansion():
    js = JetSpace(("t", "x"), ("psi", "n", "rho", "q"))
    phi = ex.sym("x") * ex.sym("psi") + ex.sym("n") ** 2
    out = js.total_derivative(phi, "x")
    expect = (ex.sym("psi") + ex.sym("x") * ex.sym("psi_x")
              + 2 * ex.sym("n") * ex.sym("n_x"))
    assert out == expect


def test_total_derivative_trivial_cases():
    js = JetSpace(("t", "x"), ("psi", "n", "rho", "q"))
    assert js.total_derivative(ex.sym("x"), "x") == ex.ONE
    assert js.total_derivative(ex.sym("psi"), "t") == ex.sym("psi_t")


def test_total_derivatives_commute_on_first_order_jets():
    js = JetSpace(("t", "x"), ("psi", "n", "rho", "q"))
    rng = random.Random(3)
    for _ in range(15):
        e = _random_poly(rng)
        com = (js.total_derivative(js.total_derivative(e, "t"), "x")
               - js.total_derivative(js.total_derivative(e, "x"), "t"))
        assert com.is_zero()


def test_symbolic_power_differentiation():
    t, a, rho = ex.syms("t a rho")
    w = rho * t ** a
    assert (t * ex.diff(w, "t") - a * w).is_zero()


def test_exponent_merging_cancels():
    t, a = ex.syms("t a")
    assert (t ** a * t ** (-a) - 1).is_zero()


def test_parser_roundtrip_randomized():
    rng = random.Random(11)
    x, y = ex.syms("x y")
    # a leading minus binds looser than ^: -x^2 is -(x^2)
    fixed = [-x ** 2, -x ** 2 + y, ex.exp(-x ** 2)]
    for e in fixed + [s * _random_expr(rng) for _ in range(25) for s in (1, -1)]:
        text = ex.to_text(e)
        assert ex.parse(text) == e, text
        assert hash(ex.parse(text)) == hash(e), text


def test_hashes_do_not_depend_on_the_string_hash_seed():
    """An expression hashes by its num and den dicts, whose monomials and
    coefficients are numbers, so its hash is the same under every string
    hash seed."""
    src = str(Path(ex.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from fluidsym import expr as ex; "
            "print([hash(ex.parse(text)) for text in sys.argv[2:]])")
    texts = ["x*exp(2*psi) + 1/3", "ln(rho/n)^2 - (5/7)*q*exp(-psi/2)",
             "(t - 1/4)/(x + exp(psi))", "ln(1 + exp(psi))*n^-2"]
    outs = {subprocess.run([sys.executable, "-c", code, src, *texts], capture_output=True,
                           text=True, check=True,
                           env={**os.environ, "PYTHONHASHSEED": seed}).stdout
            for seed in ("0", "1")}
    assert len(outs) == 1, outs


@pytest.mark.parametrize("text", ["1.5", "x.y", "f(x)", "exp", '__import__("os")'])
def test_parser_rejects_text_outside_the_grammar(text):
    with pytest.raises(ValueError):
        ex.parse(text)


def test_parser_function_names():
    assert ex.parse("sinh(psi)") == ex.sinh(ex.sym("psi"))
    assert ex.parse("exp(2*psi)") == ex.exp(2 * ex.sym("psi"))
    assert ex.parse("ln(t)") == ex.ln(ex.sym("t"))
    assert ex.parse("(1/3)*rho") == ex.sym("rho") / 3


def test_compiled_expressions_equal_term_by_term_evaluation(term_by_term):
    """Differential test: hoisting exps, powers and shared denominators into
    locals leaves every compiled value bit-identical (==, no tolerance)."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    names = ("t", "x", "n", "rho")
    psi = ex.sym("psi")
    term = st.tuples(st.integers(-6, 6), st.integers(1, 4),
                     st.lists(st.tuples(st.sampled_from(names), st.integers(-2, 3)),
                              max_size=3),
                     st.integers(-4, 4), st.integers(0, 1))

    def build(terms):
        e = ex.ZERO
        for num, den, factors, c, log_power in terms:
            mono = ex.number(Fraction(num, den)) * ex.exp(c * psi)
            for f, k in factors:
                mono = mono * ex.sym(f) ** k
            e = e + mono * ex.ln(ex.sym("t")) ** log_power
        return e

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(
        nums=st.lists(st.lists(term, min_size=1, max_size=4), min_size=2, max_size=4),
        den=st.lists(term, min_size=2, max_size=4),
        values=st.lists(st.floats(0.1, 3.0), min_size=5, max_size=5),
        signs=st.lists(st.booleans(), min_size=3, max_size=3),
    )
    def check(nums, den, values, signs):
        shared = build(den)
        hypothesis.assume(not shared.is_zero())
        exprs = [build(num) / shared for num in nums] + [build(nums[0])]
        env = dict(zip(("psi", "t") + names[1:], values))
        for name, negative in zip(names[1:], signs):
            env[name] = -env[name] if negative else env[name]
        args = ["t", "psi", "x", "n", "rho"]
        fn = ex.compile_exprs(exprs, args)
        try:
            expected = tuple(term_by_term(e, env) for e in exprs)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                fn(*(env[a] for a in args))
            return
        assert fn(*(env[a] for a in args)) == expected

    check()


def _exp_arguments(e, found):
    """Add the key of every exp argument in e, nested ones included, to found."""
    for p in (e.num, e.den):
        for atoms, exparg in map(ex.unpack, p):
            for a, _ in atoms:
                if a[0] != "s":
                    _exp_arguments(a[1], found)
            if exparg is not None:
                found.add(exparg.key())
                _exp_arguments(exparg, found)


def test_compiled_rhs_calls_exp_once_per_distinct_argument(monkeypatch):
    calls = []
    real_exp = math.exp

    def spy(v):
        calls.append(v)
        return real_exp(v)

    rs = rd.reduced_system(3, "eckart")
    params = FluidParams(lam=Fraction(0))
    monkeypatch.setattr(math, "exp", spy)
    rhs = od.compile_rhs(rs, params)
    rhs(0.4, [0.3, 1.1, 0.9, -0.2])
    distinct = set()
    for s in rs.states:
        _exp_arguments(od._bind_params(rs.rhs[s], params), distinct)
    assert len(distinct) == 8
    assert len(calls) == len(distinct)


def test_compiled_poles_and_overflow_still_raise():
    n, psi, u = ex.syms("n psi u")
    fn = ex.compile_exprs([n ** -2 * ex.exp(4 * psi), 1 / (1 - n)], ["n", "psi"])
    for point in ((0.0, 0.5), (1.0, 0.5)):
        with pytest.raises(ZeroDivisionError):
            fn(*point)
    with pytest.raises(OverflowError):
        fn(0.5, 200.0)
    cfg = od.SolverConfig(span=1.0)
    for e, u0 in ((1 / u, 0.0), (ex.exp(4 * u), 200.0)):
        f = ex.compile_exprs([e], ["t", "u"])
        tr = od.integrate(lambda t, y, f=f: f(t, *y), [u0], cfg)
        assert tr.termination == "step-failure"


def test_compiled_constants_are_floats():
    out = ex.compile_exprs([ex.number(2), ex.number(1), ex.number(Fraction(-1, 3)),
                            ex.ZERO], ["t"])(0.5)
    assert out == (2.0, 1.0, -1 / 3, 0.0)
    assert all(type(v) is float for v in out)


def test_compiled_coefficient_too_large_for_a_float_raises_when_called():
    x = ex.sym("x")
    for c in (10 ** 400, -10 ** 400, Fraction(10 ** 400, 3)):
        fn = ex.compile_exprs([1 + ex.number(c) * x], ["x"])
        with pytest.raises(OverflowError):
            fn(0.5)
    tiny = Fraction(1, 10 ** 400)
    assert ex.compile_exprs([ex.number(tiny) * x], ["x"])(0.5) == (0.0,)


_CATALOG_PAIRS = [("eckart", case) for case in range(1, 7)] + [
    ("israel-stewart", 1), ("israel-stewart", 2)]


@pytest.mark.parametrize("theory, case", _CATALOG_PAIRS)
def test_compiled_systems_equal_term_by_term_evaluation(theory, case, term_by_term):
    """Differential test on the catalogued reduced systems: the compiled
    right-hand sides and every singular-locus guard equal term-by-term
    evaluation (==, no tolerance) at seeded states, q < 0 and y != 0 among
    them."""
    params = FluidParams(lam=Fraction(0 if theory == "eckart" else 1))
    rs = rd.reduced_system(case, theory)
    rhs = od.compile_rhs(rs, params)
    events = od.default_events(rs, params)
    singular = [(events[f"singular-locus-{i}"], od._bind_params(den, params))
                for i, den in enumerate(rs.singular)]
    exprs = [od._bind_params(rs.rhs[s], params) for s in rs.states]
    rng = random.Random(2020 + case)
    for k in range(40):
        t = rng.choice((-1, 1)) * rng.uniform(0.1, 3.0)
        u = [rng.uniform(-1.5, 1.5)] + [rng.uniform(0.1, 3.0)
                                         for _ in rs.states[1:]]
        u[-1] *= -1 if k % 2 else 0.2
        env = dict(zip((rs.independent,) + tuple(rs.states), [t] + u))
        assert rhs(t, u) == tuple(term_by_term(e, env) for e in exprs)
        for guard, den in singular:
            assert guard(t, u) == abs(term_by_term(den, env)) - 1e-10


def test_normalize_is_idempotent_identity():
    import random as _r
    rng = _r.Random(29)
    for _ in range(10):
        e = _random_expr(rng)
        assert ex.Expr._normalized(dict(e.num), dict(e.den)) == e


def _coefficients(e):
    """Every coefficient of e, of its exp arguments and of its ln arguments."""
    for poly in (e.num, e.den):
        for m, c in poly.items():
            atoms, exparg = ex.unpack(m)
            yield c
            for a, _ in atoms:
                if a[0] == "ln":
                    yield from _coefficients(a[1])
            if exparg is not None:
                yield from _coefficients(exparg)


def _exact_coefficient(c) -> bool:
    """An int, or a Fraction that is not integral; never a float."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def test_every_coefficient_is_an_int_or_a_non_integral_fraction():
    """The kernel's coefficient contract: whatever + - * /, **, diff, subs,
    exp, ln and collect produce from rational inputs, every coefficient is
    an int, or a Fraction only when it is not integral, and never a float."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    rational = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    term = st.tuples(rational,
                     st.lists(st.tuples(st.sampled_from(("x", "n")), st.integers(-2, 2)),
                              max_size=2),
                     rational, st.booleans())

    def build(terms):
        e = ex.ZERO
        for c, factors, a, with_ln in terms:
            mono = ex.number(c) * ex.exp(a * ex.sym("psi"))
            for name, k in factors:
                mono = mono * ex.sym(name) ** k
            if with_ln:
                mono = mono * ex.ln(ex.sym("n") + Fraction(1, 2))
            e = e + mono
        return e

    expr = st.lists(term, min_size=1, max_size=3).map(build)

    @hypothesis.settings(max_examples=80, deadline=None, database=None)
    @hypothesis.given(a=expr, b=expr, k=st.integers(-2, 3))
    def check(a, b, k):
        out = [a + b, a - b, a * b, -a, ex.diff(a, "psi"), ex.diff(a, "x"),
               ex.diff(a / (b + 1) if not (b + 1).is_zero() else a, "n"), ex.exp(a)]
        out += ex.collect(a, ["x"]).values()
        if not b.is_zero():
            out += [a / b, b ** -1, ex.ln(b), b ** Fraction(1, 2)]
        if not a.is_zero() or k >= 0:
            out.append(a ** k)
        try:
            out.append(ex.subs(a, {"x": b, "psi": Fraction(1, 3)}))
        except ex.SingularSubstitutionError:
            pass
        for e in out:
            assert all(_exact_coefficient(c) for c in _coefficients(e)), ex.to_text(e)

    check()


def test_exact_values_are_fractions():
    psi, x = ex.syms("psi x")
    for e in (ex.number(4), ex.number(6) / 3, ex.ZERO, ex.number(Fraction(1, 2)),
              ex.parse("(6*x)/(2*x)")):
        assert type(e.as_fraction()) is Fraction
    assert (ex.number(6) / 3).as_fraction() == 2
    for e, value in ((ex.number(3), 3), (2 * x, 6), (ex.exp(2 * psi) / 3, 3),
                     (x / 2, Fraction(3, 2))):
        v = ex.evaluate(e, {"x": Fraction(3)}, {"psi": Fraction(3)})
        assert type(v) is Fraction and v == value


def test_exp_argument_sums_are_shared_and_equal_fresh_sums():
    """A product of exponentials carries the one shared sum of their
    arguments, equal to a freshly built e1 + e2 in == and in text."""
    pairs = [("2*psi + ln(n)", "x - psi/3"), ("psi", "psi"), ("psi/2", "-psi/2"),
             ("ln(rho) - x", "3*x + psi")]
    for t1, t2 in pairs:
        e1, e2 = ex.parse(t1), ex.parse(t2)
        fresh = e1 + e2
        sid = ex._EXP_SUMS[ex._exp_id(e1), ex._exp_id(e2)]
        if fresh.is_zero():
            assert sid == 0
            assert ex.exp(e1) * ex.exp(e2) == ex.ONE
            continue
        shared = ex._EXP_ARGS[sid]
        assert shared == fresh and ex.to_text(shared) == ex.to_text(fresh)
        assert ex._EXP_SUMS[ex._exp_id(ex.parse(t1)), ex._exp_id(ex.parse(t2))] == sid
        product = ex.exp(e1) * ex.exp(e2)
        ((mono, _),) = product.num.items()
        assert ex.unpack(mono)[1] is shared
        assert product == ex.exp(fresh)
        assert ex.to_text(product) == ex.to_text(ex.exp(fresh))
