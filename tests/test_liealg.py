"""Commutators, structure constants, solvability, adjoint representation,
canonical subalgebra representatives."""

import hashlib
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fluidsym import expr as ex, liealg as la, symmetry as sm


@pytest.fixture(scope="module")
def alg_e():
    return la.table_algebra("eckart")


@pytest.fixture(scope="module")
def alg_i():
    return la.table_algebra("israel-stewart")


def test_commutator_examples():
    V1, V3 = sm.v_time(), sm.v_dilation()
    com = la.commutator(V1, V3)
    assert all((a - b).is_zero() for a, b in zip(com._tuple(), V1._tuple()))
    assert la.commutator(sm.v_time(), sm.v_space()).is_zero()


def test_commutator_antisymmetry_on_random_fields():
    rng = random.Random(4)
    fields = [sm.v_time(), sm.v_space(), sm.v_dilation(), sm.v_scaling(),
              sm.v_lorentz_boost()]
    for _ in range(10):
        V = fields[rng.randrange(len(fields))]
        assert la.commutator(V, V).is_zero()
        W = fields[rng.randrange(len(fields))]
        s = la.commutator(V, W) + la.commutator(W, V)
        assert s.is_zero()


def test_structure_constants_match_reference_table(alg_e):
    # nonzero cells: [V1,V3] = V1, [V2,V3] = V2 and antisymmetric partners
    expected = {
        (0, 2, 0): Fraction(1), (2, 0, 0): Fraction(-1),
        (1, 2, 1): Fraction(1), (2, 1, 1): Fraction(-1),
    }
    assert alg_e.constants == expected


def test_three_generator_subtable(alg_i):
    assert alg_i.dim == 3
    assert alg_i.constants == {
        (0, 2, 0): Fraction(1), (2, 0, 0): Fraction(-1),
        (1, 2, 1): Fraction(1), (2, 1, 1): Fraction(-1),
    }


def test_abelian_pair_has_zero_constants():
    alg = la.structure_constants([sm.v_time(), sm.v_space()])
    assert alg.constants == {}


def test_non_closed_basis_raises():
    t = ex.sym("t")
    V = sm.VectorField(ex.ONE, ex.ZERO, ex.ZERO, ex.ZERO, ex.ZERO, ex.ZERO)
    W = sm.VectorField(t * t, ex.ZERO, ex.ZERO, ex.ZERO, ex.ZERO, ex.ZERO)
    with pytest.raises(ValueError, match="not closed"):
        la.structure_constants([V, W])


def test_jacobi_identity(alg_e, alg_i):
    assert la.jacobi_defect(alg_e) == 0
    assert la.jacobi_defect(alg_i) == 0


def test_full_algebra_jacobi_and_closure():
    alg = la.full_algebra()
    assert alg.dim == 5
    assert la.jacobi_defect(alg) == 0


def test_solvability_with_witness(alg_e, alg_i):
    ok, order = la.is_solvable(alg_e)
    assert ok and order is not None
    assert la.witness_order_valid(alg_e, order)
    ok, order = la.is_solvable(alg_i)
    assert ok and order is not None
    assert la.witness_order_valid(alg_i, order)


def test_five_dimensional_algebra_is_solvable():
    alg = la.full_algebra()
    ok, order = la.is_solvable(alg)
    assert ok and order is not None
    assert la.witness_order_valid(alg, order)
    assert la.derived_series(alg) == [5, 2, 0]


def test_rotation_algebra_is_not_solvable():
    # abstract constants of so(3): [e1,e2]=e3, [e2,e3]=e1, [e3,e1]=e2
    basis = (sm.v_time(), sm.v_space(), sm.v_rapidity_shift())  # placeholders
    constants = {}
    for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        constants[(i, j, k)] = Fraction(1)
        constants[(j, i, k)] = Fraction(-1)
    alg = la.LieAlgebra(basis=basis, constants=constants)
    ok, order = la.is_solvable(alg)
    assert not ok and order is None
    assert la.derived_series(alg)[-1] == 3


def test_adjoint_scaling_cell(alg_e):
    out = la.adjoint_action(alg_e, 1.0, 2, la.AlgebraElement((1.0, 0.0, 0.0, 0.0)))
    assert out.coefficients[0] == pytest.approx(math.e, rel=1e-14)
    assert all(abs(c) < 1e-15 for c in out.coefficients[1:])


def test_adjoint_translation_cell_exact(alg_e):
    out = la.adjoint_action(alg_e, Fraction(2), 0,
                            la.AlgebraElement((Fraction(0), Fraction(0),
                                               Fraction(1), Fraction(0))))
    assert out.coefficients == (Fraction(-2), Fraction(0), Fraction(1), Fraction(0))


def test_adjoint_fixes_central_generator(alg_e):
    out = la.adjoint_action(alg_e, 5.0, 3, la.AlgebraElement((1.0, 0.0, 0.0, 0.0)))
    assert out.coefficients[0] == pytest.approx(1.0)


def test_adjoint_semigroup_property(alg_e):
    rng = random.Random(8)
    for _ in range(10):
        e1, e2 = rng.uniform(-1, 1), rng.uniform(-1, 1)
        i = rng.randrange(alg_e.dim)
        w = [rng.uniform(-2, 2) for _ in range(alg_e.dim)]
        once = la.adjoint_action(alg_e, e1 + e2, i, w)
        twice = la.adjoint_action(alg_e, e1, i,
                                  la.adjoint_action(alg_e, e2, i, w))
        for a, b in zip(once.coefficients, twice.coefficients):
            assert abs(float(a) - float(b)) < 1e-12


def test_adjoint_table_entries(alg_e):
    assert la.adjoint_table_entry(alg_e, 2, 0) == "exp(eps)*V1"
    assert la.adjoint_table_entry(alg_e, 0, 2) == "V3 - eps*V1"
    assert la.adjoint_table_entry(alg_e, 3, 0) == "V1"
    assert la.adjoint_table_entry(alg_e, 1, 2) == "V3 - eps*V2"


def _filiform_algebra():
    # [e1,e2] = e3, [e1,e3] = e4: ad_{e1} is nilpotent of index 3, so the
    # series has an eps^2 term
    basis = (sm.v_time(), sm.v_space(), sm.v_scaling(),
             sm.v_rapidity_shift())  # placeholders
    constants = {}
    for (i, j, k) in ((0, 1, 2), (0, 2, 3)):
        constants[(i, j, k)] = Fraction(1)
        constants[(j, i, k)] = Fraction(-1)
    return la.LieAlgebra(basis=basis, constants=constants)


@pytest.mark.parametrize("alg", [la.table_algebra("eckart"), la.full_algebra(),
                                 _filiform_algebra()],
                         ids=["eckart", "full", "filiform"])
def test_adjoint_table_entry_evaluates_to_adjoint_action(alg):
    """The printed series and the evaluated series agree at a rational eps."""
    eps = Fraction(-2, 3)
    closed = [i for i in range(alg.dim) if la._closed_form(alg.ad_matrix(i))]
    assert closed
    for i in closed:
        for j in range(alg.dim):
            entry = ex.parse(la.adjoint_table_entry(alg, i, j))
            got = la.adjoint_action(alg, eps, i, la._unit(alg.dim, j)).coefficients
            for k, c in enumerate(got):
                coeff = ex.subs(ex.diff(entry, f"V{k + 1}"), {"eps": eps})
                if isinstance(c, Fraction):
                    assert coeff.is_rational() and coeff.as_fraction() == c
                else:
                    assert ex.evalf(coeff, {}) == pytest.approx(c, rel=1e-15)


def _taylor_reference(alg, eps, i, w, terms=40):
    """exp(-eps*ad_{V_i}) w summed in Fractions to ``terms`` terms."""
    mat = alg.ad_matrix(i)
    term, acc = list(w), list(w)
    for p in range(1, terms):
        term = [-eps * sum(mat[r][c] * term[c] for c in range(alg.dim)) / p
                for r in range(alg.dim)]
        acc = [a + t for a, t in zip(acc, term)]
    return acc


@pytest.mark.parametrize("alg", [la.table_algebra("eckart"),
                                 la.table_algebra("israel-stewart"),
                                 la.full_algebra()],
                         ids=["eckart", "israel-stewart", "full"])
def test_adjoint_action_matches_the_taylor_series(alg):
    """Every generator has a closed form, and it sums the exponential series."""
    rng = random.Random(29)
    for i in range(alg.dim):
        assert la._closed_form(alg.ad_matrix(i)) is not None
        for eps in (Fraction(-2, 3), Fraction(1, 3), Fraction(3, 2)):
            w = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                 for _ in range(alg.dim)]
            got = la.adjoint_action(alg, eps, i, w).coefficients
            for g, r in zip(got, _taylor_reference(alg, eps, i, w)):
                assert abs(float(g) - float(r)) <= 1e-13 * max(1.0, abs(float(r)))


def _rotation_algebra():
    # so(3): [e1,e2]=e3, [e2,e3]=e1, [e3,e1]=e2, so ad^3 = -ad
    basis = (sm.v_time(), sm.v_space(), sm.v_rapidity_shift())  # placeholders
    constants = {}
    for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        constants[(i, j, k)] = Fraction(1)
        constants[(j, i, k)] = Fraction(-1)
    return la.LieAlgebra(basis=basis, constants=constants)


def test_adjoint_without_closed_form_raises():
    alg = _rotation_algebra()
    assert la._closed_form(alg.ad_matrix(0)) is None
    with pytest.raises(ValueError, match="no closed-form"):
        la.adjoint_action(alg, 0.5, 0, (1.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="no closed-form"):
        la.adjoint_table_entry(alg, 0, 1)


def test_cli_import_needs_neither_numpy_nor_scipy():
    src = str(Path(la.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import fluidsym.cli; "
            "print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'}))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_commutator_table_entries(alg_e):
    assert la.commutator_table_entry(alg_e, 0, 2) == "V1"
    assert la.commutator_table_entry(alg_e, 2, 0) == "-V1"
    assert la.commutator_table_entry(alg_e, 0, 1) == "0"


def test_table_entries_print_negative_coefficients_as_differences():
    basis = (sm.v_time(), sm.v_space(), sm.v_scaling())  # placeholders
    constants = {(0, 1, 0): Fraction(1), (0, 1, 1): Fraction(-2),
                 (1, 0, 0): Fraction(-1), (1, 0, 1): Fraction(2)}
    alg = la.LieAlgebra(basis=basis, constants=constants)
    assert la.commutator_table_entry(alg, 0, 1) == "V1 - 2*V2"
    assert la.commutator_table_entry(alg, 1, 0) == "-V1 + 2*V2"
    assert la.commutator_table_entry(alg, 0, 2) == "0"


def test_adjoint_of_boost_is_hyperbolic_rotation():
    alg = la.full_algebra()
    i = 4  # the boost generator
    eps = 0.37
    out = la.adjoint_action(alg, eps, i, la.AlgebraElement((1.0, 0, 0, 0, 0)))
    assert out.coefficients[0] == pytest.approx(math.cosh(eps), rel=1e-10)
    assert out.coefficients[1] == pytest.approx(math.sinh(eps), rel=1e-10)
    assert all(abs(c) < 1e-12 for c in out.coefficients[2:])


def test_adjoint_orbit_preserves_symmetry(alg_e, eckart_system_symbolic):
    """Adjoint images of a symmetry generator stay symmetries."""
    w = la.AlgebraElement((Fraction(1), Fraction(0), Fraction(1), Fraction(0)))
    for i, epsv in ((0, Fraction(1, 2)), (1, Fraction(-2))):
        out = la.adjoint_action(alg_e, epsv, i, w)
        field = alg_e.field_of(out)
        res = sm.verify_symmetry(field, eckart_system_symbolic)
        assert all(r.is_zero() for r in res)


def test_normalize_element_examples(alg_e):
    # translations plus dilatation reduce to the dilatation
    el, word = la.normalize_element(alg_e, (1.0, 0.7, 1.0, 0.0))
    assert el.coefficients == (0.0, 0.0, 1.0, 0.0)
    assert len(word) == 2
    # a pure field scaling normalizes to the unit scaling generator
    el, _ = la.normalize_element(alg_e, (0.0, 0.0, 0.0, 5.0))
    assert el.coefficients == (0.0, 0.0, 0.0, 1.0)
    # a time translation plus transverse drift keeps its direction
    el, _ = la.normalize_element(alg_e, (2.0, 1.0, 0.0, 0.0))
    assert el.coefficients[0] == pytest.approx(1.0)
    assert el.coefficients[1] == pytest.approx(0.5)
    with pytest.raises(ValueError):
        la.normalize_element(alg_e, (0.0, 0.0, 0.0, 0.0))


def test_normalize_element_coverage_and_idempotence(alg_e):
    """Random elements land in one of the canonical families and the map is
    idempotent."""
    rng = random.Random(42)
    for _ in range(1000):
        w = [rng.uniform(-3, 3) for _ in range(4)]
        if all(abs(c) < 1e-9 for c in w):
            continue
        el, _ = la.normalize_element(alg_e, w)
        c = el.coefficients
        again, word2 = la.normalize_element(alg_e, c)
        assert all(abs(a - b) < 1e-9 for a, b in zip(again.coefficients, c))
        lead = next(v for v in c if abs(v) > 1e-12)
        assert abs(abs(lead) - 1.0) < 1e-9
        if abs(c[2]) > 1e-12:
            # dilatation present: translations absorbed
            assert abs(c[0]) < 1e-9 and abs(c[1]) < 1e-9


def _strata(alg):
    """Every zero pattern of a table algebra's coordinates, as the tuple of
    nonzero positions (V1, V2 translations; V3 dilatation; V4 field scaling)."""
    return [tuple(k for k in range(alg.dim) if mask >> k & 1)
            for mask in range(1, 1 << alg.dim)]


def _eckart_mixed(nonzero) -> bool:
    """The Eckart stratum V3 = 0 with both a V4 part and a translation part."""
    return 2 not in nonzero and 3 in nonzero and (0 in nonzero or 1 in nonzero)


def _draws(alg, nonzero, rng, n):
    """n seeded elements, coordinates +-k/1000, nonzero exactly on nonzero."""
    for _ in range(n):
        yield [rng.choice((-1, 1)) * rng.randint(1, 3000) / 1000 if k in nonzero
               else 0.0 for k in range(alg.dim)]


def _text(el) -> str:
    return ", ".join(f"{c:.12g}" for c in el.coefficients)


def test_normalize_element_output_is_pinned(alg_e, alg_i):
    """The printed representative on every stratum but the Eckart mixed one,
    which is where the representative was not a function of span{w}."""
    rng = random.Random(13)
    lines = []
    for alg in (alg_e, alg_i):
        for nonzero in _strata(alg):
            if alg is alg_e and _eckart_mixed(nonzero):
                continue
            lines += [_text(la.normalize_element(alg, w)[0])
                      for w in _draws(alg, nonzero, rng, 40)]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "46320ca2d74bf2a92c151b453e823866276516b67d5239e0f9dddca4b5c41b46"


@pytest.mark.parametrize("theory", ["eckart", "israel-stewart"])
def test_normalize_element_is_a_function_of_the_span(theory):
    """On every stratum: a second pass changes nothing and applies nothing,
    positive multiples share one representative, and it leads with +-1."""
    alg = la.table_algebra(theory)
    rng = random.Random(17)
    for nonzero in _strata(alg):
        for w in _draws(alg, nonzero, rng, 40):
            el, _ = la.normalize_element(alg, w)
            again, word = la.normalize_element(alg, el.coefficients)
            assert again.coefficients == el.coefficients and word == [], w
            for f in (2.0, 0.5):
                scaled, _ = la.normalize_element(alg, [f * c for c in w])
                assert scaled.coefficients == el.coefficients, (w, f)
            assert abs(next(c for c in el.coefficients if c)) == 1.0, w
            c = el.coefficients
            if c[2]:
                assert c[0] == c[1] == 0.0, w  # translations absorbed
            elif theory == "eckart":
                assert c[3] in (-1.0, 0.0, 1.0), w  # the listed families
