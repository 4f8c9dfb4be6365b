"""Prolongation, determining equations, and symmetry verification."""

import hashlib
import random
import re
from fractions import Fraction

import pytest
from click.testing import CliRunner

from fluidsym import cli, expr as ex, fluid, symmetry as sm
from fluidsym.fluid import JET_SPACE


def test_prolongation_of_dilatation():
    pr = sm.prolong1(sm.v_dilation())
    assert pr["psi_x"] == -ex.sym("psi_x")
    assert pr["n_t"] == -2 * ex.sym("n_t")


def test_prolongation_of_translation_vanishes():
    pr = sm.prolong1(sm.v_time())
    assert all(v.is_zero() for v in pr.values())


def test_prolongation_linearity():
    rng = random.Random(9)
    for _ in range(5):
        V = _random_affine_field(rng)
        W = _random_affine_field(rng)
        a, b = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
        left = sm.prolong1(V.scale(ex.number(a)) + W.scale(ex.number(b)))
        pv, pw = sm.prolong1(V), sm.prolong1(W)
        for jet in left:
            expect = a * pv[jet] + b * pw[jet]
            assert (left[jet] - expect).is_zero()


def _random_affine_field(rng):
    vals = []
    monos = [ex.ONE] + [ex.sym(v) for v in sm.BASE_VARS]
    for _ in range(6):
        e = ex.ZERO
        for m in monos:
            if rng.random() < 0.3:
                e = e + rng.randint(-3, 3) * m
        vals.append(e)
    return sm.VectorField(vals)


def test_second_order_terms_cancel_in_reduced_prolongation():
    """The textbook first-prolongation formula carries second-order jets
    which cancel identically against the total-derivative expansion; the
    reduced formula used by prolong1 must agree with the full one."""
    rng = random.Random(21)
    for _ in range(5):
        V = _random_affine_field(rng)
        pr = sm.prolong1(V)
        tau, xi = V.coeffs[:2]
        for u, coeff in zip(fluid.FIELD_NAMES, V.coeffs[2:]):
            ux, ut = ex.sym(f"{u}_x"), ex.sym(f"{u}_t")
            for d in ("t", "x"):
                # D_d(coeff - xi*u_x - tau*u_t) + xi*u_{xd} + tau*u_{td}
                inner = coeff - xi * ux - tau * ut
                full = JET_SPACE.total_derivative(inner, d)
                full = full + xi * ex.sym(JET_SPACE.jet(u, "x", d))
                full = full + tau * ex.sym(JET_SPACE.jet(u, "t", d))
                assert (full - pr[JET_SPACE.jet(u, d)]).is_zero()


def _sympy_of(sympy, e, table):
    """e read by sympy from its printed text, every name bound to its entry
    in table."""
    text = ex.to_text(e).replace("^", "**")
    names = set(re.findall(r"[A-Za-z_]\w*", text)) - {"exp", "ln"}
    return sympy.sympify(text, locals={"exp": sympy.exp, "ln": sympy.log,
                                       **{n: table[n] for n in names}})


def _textbook_oracle(sympy, seed):
    """The jet symbols up to order two, a seeded rational point with
    psi = ln r, r != 1, on them and on k and kappa, and the textbook first
    prolongation (Olver 1986, Thm. 2.36) of a field, written here in sympy
    alone:

        phi^d_u = D_d(phi_u - tau*u_t - xi*u_x) + tau*u_{dt} + xi*u_{dx},

    with D_d the total derivative over the second-order jets."""
    rng = random.Random(seed)

    def rational():
        return sympy.Rational(rng.randint(-9, 9) or 1, rng.randint(1, 9))

    dirs, fields = ("t", "x"), fluid.FIELD_NAMES
    second = {(u, d, e): f"{u}_{''.join(sorted(d + e))}"
              for u in fields for d in dirs for e in dirs}
    names = (*sm.BASE_VARS, *(f"{u}_{d}" for u in fields for d in dirs),
             *sorted(set(second.values())), "k", "kappa")
    sym = {n: sympy.Symbol(n) for n in names}
    point = {sym[n]: rational() for n in names}
    for n in ("k", "kappa", "n", "rho"):
        point[sym[n]] = abs(point[sym[n]])
    r = abs(rational())
    while r == 1:  # psi = 0 would hide every odd power of sinh(psi)
        r = abs(rational())
    point[sym["psi"]] = sympy.log(r)

    def total(f, d):
        out = sympy.diff(f, sym[d])
        for u in fields:
            out += sym[f"{u}_{d}"] * sympy.diff(f, sym[u])
            for e in dirs:
                out += sym[second[u, d, e]] * sympy.diff(f, sym[f"{u}_{e}"])
        return out

    def prolong(V):
        c = {v: _sympy_of(sympy, e, sym) for v, e in V.coefficients().items()}
        return {f"{u}_{d}": total(c[u] - c["t"] * sym[f"{u}_t"] - c["x"] * sym[f"{u}_x"], d)
                + c["t"] * sym[second[u, d, "t"]] + c["x"] * sym[second[u, d, "x"]]
                for u in fields for d in dirs}, c

    return sym, point, prolong


def test_prolongation_matches_the_textbook_formula_under_sympy():
    """An oracle outside the kernel: at a seeded rational point of the
    second-order jets, prolong1 equals the textbook formula for every
    elementary field of the degree-1 ansatz, the named generators and the
    rapidity shift."""
    sympy = pytest.importorskip("sympy")
    sym, point, prolong = _textbook_oracle(sympy, "prolongation")
    for V in (sm.Ansatz(degree=1).elementary_fields() + sm.named_generators()
              + [sm.v_rapidity_shift()]):
        want, _ = prolong(V)
        got = sm.prolong1(V)
        assert want.keys() == got.keys()
        for jet, phi in want.items():
            diff = (phi - _sympy_of(sympy, got[jet], sym)).subs(point)
            assert sympy.expand(diff) == 0, (V.text(), jet)


@pytest.mark.parametrize("theory", ["eckart", "israel-stewart"])
def test_named_generators_are_symmetries_on_shell_under_sympy(theory):
    """An oracle outside the kernel: sympy reads the four residuals as
    printed, solves them for the time jets at a seeded rational point with
    rational k and kappa, and applies the textbook prolongation there.  The
    condition pr V(residual) vanishes exactly for each named generator and
    not for the rapidity shift."""
    sympy = pytest.importorskip("sympy")
    sym, point, prolong = _textbook_oracle(sympy, f"on-shell-{theory}")
    sys = fluid.build_system(fluid.FluidParams(k=None, kappa=None,
                                               lam=fluid.THEORY_LAM[theory]))
    residuals = [_sympy_of(sympy, r, sym) for r in sys.residuals]
    time_jets = [sym[f"{u}_t"] for u in fluid.FIELD_NAMES]
    off_shell = {s: v for s, v in point.items() if s not in time_jets}
    (solved,) = sympy.solve([r.subs(off_shell) for r in residuals], time_jets, dict=True)
    assert all(v.is_Rational for v in solved.values()), solved
    at = {**point, **solved}
    assert [sympy.expand(r.subs(at)) for r in residuals] == [0] * 4
    variables = [*sm.BASE_VARS, *(f"{u}_{d}" for u in fluid.FIELD_NAMES for d in "tx")]
    partials = [{v: sympy.diff(r, sym[v]).subs(at) for v in variables} for r in residuals]

    def condition(V):
        phi, coeffs = prolong(V)
        values = {v: e.subs(at) for v, e in {**coeffs, **phi}.items()}
        return [sympy.expand(sum(values[v] * dr[v] for v in variables)) for dr in partials]

    for V in sm.named_generators():
        assert condition(V) == [0] * 4, V.text()
    assert any(condition(sm.v_rapidity_shift())), theory


def test_degree_zero_ansatz_yields_translations_only():
    for theory, lam in fluid.THEORY_LAM.items():
        basis = sm.solve_determining(lam, sm.Ansatz(degree=0))
        assert len(basis) == 2
        assert sm.span_equal(basis, [sm.v_time(), sm.v_space()])
        res = CliRunner().invoke(cli.main, ["symmetries", "--theory", theory,
                                            "--ansatz-degree", "0"])
        assert res.exit_code == 0, res.output
        assert res.output == (f"# {theory}: 2-dimensional point-symmetry algebra\n"
                              "V1 = d_t\nV2 = d_x\n")


def test_affine_algebra_contains_reference_generators(eckart_basis,
                                                      israel_stewart_basis):
    reference = [sm.v_time(), sm.v_space(), sm.v_scaling(), sm.v_dilation()]
    for g in reference:
        assert sm.in_span(g, eckart_basis)
    # the dilatation and scaling are symmetries of the relaxing theory too
    for g in reference:
        assert sm.in_span(g, israel_stewart_basis)


def test_affine_algebra_is_five_dimensional_with_boost(eckart_basis,
                                                       israel_stewart_basis):
    """Both theories admit the Lorentz boost x*d_t + t*d_x - d_psi in
    addition to the four commonly listed generators."""
    assert len(eckart_basis) == 5
    assert len(israel_stewart_basis) == 5
    boost = sm.v_lorentz_boost()
    assert sm.in_span(boost, eckart_basis)
    assert sm.in_span(boost, israel_stewart_basis)
    expected = [sm.v_time(), sm.v_space(), sm.v_dilation(), sm.v_scaling(),
                boost]
    assert sm.span_equal(eckart_basis, expected)
    assert sm.span_equal(israel_stewart_basis, expected)


def test_verify_symmetry_examples(eckart_system_symbolic,
                                  israel_stewart_system_symbolic):
    # field scaling is a symmetry
    res = sm.verify_symmetry(sm.v_scaling(), eckart_system_symbolic)
    assert all(r.is_zero() for r in res)
    # bare rapidity shift is not
    res = sm.verify_symmetry(sm.v_rapidity_shift(), eckart_system_symbolic)
    assert any(not r.is_zero() for r in res)
    # the dilatation is a symmetry of the relaxing theory as well, contrary
    # to the reference tables (documented discrepancy)
    res = sm.verify_symmetry(sm.v_dilation(), israel_stewart_system_symbolic)
    assert all(r.is_zero() for r in res)


def test_lorentz_boost_is_symmetry_with_symbolic_parameters(
        eckart_system_symbolic, israel_stewart_system_symbolic):
    for sys in (eckart_system_symbolic, israel_stewart_system_symbolic):
        res = sm.verify_symmetry(sm.v_lorentz_boost(), sys)
        assert all(r.is_zero() for r in res)


def test_determining_rows_are_linear_and_reproducible(eckart_system):
    ansatz = sm.Ansatz(degree=1)
    rows1 = sm.determining_equations(eckart_system, ansatz)
    rows2 = sm.determining_equations(eckart_system, ansatz)
    assert rows1 == rows2
    assert all(all(isinstance(c, Fraction) for c in row.values())
               for row in rows1)
    assert len(rows1) == 4517  # overdetermined: 42 unknowns
    # the rows, in order, as `symmetries --dump-determining` writes them
    text = "".join(" + ".join(f"{c}*{u}" for u, c in sorted(row.items()))
                   + " = 0\n" for row in rows1)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "c8b2a5865d6129e1a875968c67bc1b8403fdb692ee488ff735886b41964b56fe"


def test_determining_rows_reject_a_condition_with_a_denominator(
        eckart_system, monkeypatch):
    def condition(V, sys, degree=None):
        return [ex.ONE / (ex.ONE + ex.sym("t"))] * len(sys.residuals)

    monkeypatch.setattr(sm, "_condition", condition)
    with pytest.raises(ValueError, match="denominator"):
        sm.determining_equations(eckart_system, sm.Ansatz(degree=0))


def test_basis_closed_under_commutator(eckart_basis):
    from fluidsym import liealg as la
    alg = la.structure_constants(eckart_basis)
    assert alg.dim == len(eckart_basis)


def test_numeric_flow_pushes_solutions_near_solutions(eckart_system, term_by_term):
    """Finite-difference witness: push an exact homogeneous solution sample
    along the epsilon-flow of each basis field and re-evaluate residuals."""
    eps = 1e-3
    st = fluid.FluidState(psi=0.35, n=1.1, rho=0.9, q=0.0)
    jets = {j: 0.0 for j in fluid.JETS}
    # equilibrium state: all residuals zero; flow images must stay small
    for V in (sm.v_scaling(), sm.v_dilation(), sm.v_lorentz_boost()):
        coeffs = V.coefficients()
        env = {**vars(st), "t": 0.3, "x": -0.2}
        moved = {}
        for var in ("psi", "n", "rho", "q"):
            delta = term_by_term(coeffs[var], env) if not coeffs[var].is_zero() else 0.0
            moved[var] = env[var] + eps * delta
        st2 = fluid.FluidState(psi=moved["psi"], n=moved["n"],
                               rho=moved["rho"], q=moved["q"])
        res = fluid.residual_at(eckart_system, st2, jets)
        assert max(abs(r) for r in res) < 1e-6


def test_ansatz_counts():
    assert len(sm.Ansatz(degree=1).unknowns()) == 42
    assert len(sm.Ansatz(degree=0).unknowns()) == 6


def test_field_text_roundtrip():
    for V in (sm.v_time(), sm.v_space(), sm.v_dilation(), sm.v_scaling(),
              sm.v_lorentz_boost(), sm.v_rapidity_shift()):
        W = sm.field_from_text(V.text())
        assert all((a - b).is_zero() for a, b in zip(V.coeffs, W.coeffs))


@pytest.mark.parametrize("text, message", [
    ("t^2*d_x", "field has monomials outside the ansatz"),
    ("d_x/t", "field has monomials outside the ansatz"),
    ("k*d_t", "field is not in the polynomial ansatz class"),
    ("exp(t)*d_x", "exp argument contains basis symbols"),
    ("ln(t)*d_x", "ln argument contains basis symbols"),
    ("d_t*d_x", "not a linear combination of d_t, d_x, d_psi, d_n, d_rho, d_q"),
])
def test_field_from_text_rejects_fields_outside_the_affine_class(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        sm.field_from_text(text)


def test_solve_retries_after_a_degenerate_point_set(monkeypatch, eckart_basis):
    """One point repeated gives rank at most 4: the first attempt's vectors
    fail their certificates, and the retry returns the certified basis."""
    sample = sm._sample_points
    counts = []

    def repeated_first(rng, count):
        points = sample(rng, count)
        counts.append(count)
        return [points[0]] * count if len(counts) == 1 else points

    monkeypatch.setattr(sm, "_sample_points", repeated_first)
    basis = sm.solve_determining(Fraction(0))
    assert len(counts) == 2 and counts[1] > counts[0]
    assert [V.text() for V in basis] == [V.text() for V in eckart_basis]


@pytest.mark.parametrize("attempts", [1, None])
def test_solve_never_returns_an_uncertified_vector(monkeypatch, eckart_basis,
                                                   attempts):
    """A vector slipped into the reconstruction fails its certificate: the
    solve retries, and raises once every attempt carries it."""
    components = sm._components(sm.v_rapidity_shift())
    rapidity_shift = {u: components[(vi, key)]
                      for u, (vi, m) in sm.Ansatz().table.items()
                      for key in ex.collect(m, sm.BASE_VARS) if (vi, key) in components}
    assert len(rapidity_shift) == len(components)
    nullspace = ex.nullspace
    calls = []

    def injected(rows, unknowns, modulus=None):
        calls.append(modulus)
        basis = nullspace(rows, unknowns, modulus)
        if attempts is None or len(calls) <= attempts:
            basis = [{u: int(c) % modulus for u, c in rapidity_shift.items()}] + basis
        return basis

    monkeypatch.setattr(ex, "nullspace", injected)
    if attempts is None:
        with pytest.raises(RuntimeError, match="no certified"):
            sm.solve_determining(Fraction(0))
        assert len(calls) == len(sm._PRIMES) == len(set(calls))
    else:
        basis = sm.solve_determining(Fraction(0))
        assert [V.text() for V in basis] == [V.text() for V in eckart_basis]
        assert not sm.in_span(sm.v_rapidity_shift(), basis)


def test_solve_returns_the_reduced_basis_whatever_basis_the_prime_gives(
        monkeypatch, eckart_basis):
    """A prime that moved the pivots would give another basis of the same
    span; the solve still returns the one reduced basis."""
    nullspace = ex.nullspace

    def mixed(rows, unknowns, modulus=None):
        basis = nullspace(rows, unknowns, modulus)
        first = {u: (basis[0].get(u, 0) + 2 * basis[1].get(u, 0)) % modulus
                 for u in {**basis[0], **basis[1]}}
        return [first] + basis[1:]

    monkeypatch.setattr(ex, "nullspace", mixed)
    basis = sm.solve_determining(Fraction(0))
    assert [V.text() for V in basis] == [V.text() for V in eckart_basis]


def test_degree_two_ansatz_gives_the_same_five_generators(monkeypatch):
    """The solve returns the same reduced basis at degrees 1 and 2, and
    `symmetries` prints the packaged computed basis at both."""
    solve, solved = sm.solve_determining, {}

    def recorded(lam, ansatz):
        solved[ansatz.degree] = basis = solve(lam, ansatz)
        return basis

    monkeypatch.setattr(sm, "solve_determining", recorded)
    for theory in fluid.THEORY_LAM:
        stem = theory.replace("-", "_")
        golden = cli._goldens_dir() / f"generator_basis_computed_{stem}.txt"
        for degree in (1, 2):
            res = CliRunner().invoke(cli.main, ["symmetries", "--theory", theory,
                                                "--ansatz-degree", str(degree)])
            assert res.exit_code == 0, res.output
            assert res.output == golden.read_text()
        assert [V.text() for V in solved[1]] == [V.text() for V in solved[2]]


def test_on_shell_substitution_is_built_once_per_system(eckart_system_symbolic):
    same = fluid.build_system(eckart_system_symbolic.params)
    assert sm._on_shell(same) is sm._on_shell(eckart_system_symbolic)


def test_evaluated_rows_agree_with_the_symbolic_condition(eckart_system_symbolic):
    """Both read the parts built by ``_on_shell``: each row of (residual k,
    point P), evaluated mod p, is proportional mod p to the conditions of
    the elementary fields (all cleared by the same D**2), residual k,
    evaluated exactly at P and reduced mod p."""
    sys = eckart_system_symbolic
    ansatz = sm.Ansatz(degree=1)
    fields, unknowns = ansatz.elementary_fields(), ansatz.unknowns()
    points = sm._sample_points(random.Random(7), 2)
    prime = sm._PRIMES[0]
    rows = sm._evaluated_rows(sys, ansatz, points, prime)
    assert len(rows) == len(points) * len(sys.residuals)
    conditions = [sm._condition(V, sys, 2) for V in fields]
    for p, (values, exps) in enumerate(points):
        for k in range(len(sys.residuals)):
            row = rows[p * len(sys.residuals) + k]
            cond = [ex.evaluate(c[k], values, exps) for c in conditions]
            cond = [c.numerator * pow(c.denominator, -1, prime) % prime for c in cond]
            assert row and all(0 < c < prime for c in row.values())
            u0 = next(iter(row))
            ratio = cond[unknowns.index(u0)] * pow(row[u0], -1, prime) % prime
            assert ratio
            assert cond == [ratio * row.get(u, 0) % prime for u in unknowns]


@pytest.mark.parametrize("closure", ["eckart_system_symbolic",
                                     "israel_stewart_system_symbolic"])
def test_own_degree_clearing_agrees_with_degree_two(closure, request):
    """A condition cleared by D**d, d the action's degree in the time jets,
    is zero exactly when the one cleared by D**2 is, and times D**(2 - d)
    is that one."""
    sys = request.getfixturevalue(closure)
    cleared, partials = sm._on_shell(sys)
    named = [sm.v_time(), sm.v_space(), sm.v_dilation(), sm.v_scaling(),
             sm.v_lorentz_boost(), sm.v_rapidity_shift()]
    degrees = set()
    for V in sm.Ansatz(degree=1).elementary_fields() + named:
        pr = {**V.coefficients(), **sm.prolong1(V)}
        for dres, own, full in zip(partials, sm._condition(V, sys),
                                   sm._condition(V, sys, 2)):
            act = sum((pr[v] * d for v, d in dres.items()), ex.ZERO)
            d = max((sum(k for _, k in key)
                     for key in ex.collect(act, fluid.TIME_JETS)), default=0)
            degrees.add(d)
            assert own.is_zero() == full.is_zero()
            assert (own * cleared.denominator ** (2 - d) - full).is_zero()
    assert degrees == {0, 1, 2}


_TABLE_RAW_SHA256 = "29a0b9a7677a4992630113c3122e6182fa9601f867f13ca2dab9c343c6a27bc4"


def test_solve_evaluates_each_distinct_expression_once_per_point(monkeypatch, raw_terms):
    """A degree-1 solve evaluates, per sample point, each distinct
    prolongation coefficient and each distinct residual partial once, plus
    the time jets' shared denominator and four numerators.  Both closures
    share one prolongation table, built once, and neither solve changes
    it: its raw terms, in dict order, are pinned before and after."""
    calls, points = [0], []
    evaluate, sample = ex.evaluate, sm._sample_points

    def counted(*args, **kwargs):
        calls[0] += 1
        return evaluate(*args, **kwargs)

    def recorded(rng, count):
        points.append(count)
        return sample(rng, count)

    def digest(table):
        coefficients, fields = table
        h = hashlib.sha256()
        h.update(repr(([raw_terms(c) for c in coefficients], fields)).encode())
        return h.hexdigest()

    monkeypatch.setattr(ex, "evaluate", counted)
    monkeypatch.setattr(sm, "_sample_points", recorded)
    sm._prolongation_table.cache_clear()
    table = sm._prolongation_table(1)
    assert digest(table) == _TABLE_RAW_SHA256
    for lam in (0, 1):
        calls[0] = 0
        points.clear()
        sm.solve_determining(Fraction(lam))
        sys = fluid.build_system(fluid.FluidParams(k=None, kappa=None, lam=Fraction(lam)))
        partials = dict.fromkeys(d for p in sm._on_shell(sys)[1] for d in p.values())
        per_point = len(table[0]) + len(partials) + 1 + len(fluid.TIME_JETS)
        assert calls[0] == sum(points) * per_point <= 1500
    assert sm._prolongation_table.cache_info().misses == 1
    assert sm._prolongation_table(1) is table
    assert digest(table) == _TABLE_RAW_SHA256


@pytest.fixture(scope="module")
def pinned_closures():
    """(lam, k, kappa, system) for both closures, at symbolic k and kappa
    and at k = 1/2, kappa = 2."""
    return [(lam, k, kappa, fluid.build_system(
                fluid.FluidParams(k=k, kappa=kappa, lam=Fraction(lam))))
            for lam in (0, 1)
            for k, kappa in ((None, None), (Fraction(1, 2), Fraction(2)))]


_TIME_FORM_RAW_SHA256 = "0da8ff0baaf55424242ba345326d55113e2739adc5b413cd3b3682bd038a98b9"
_RAPIDITY_SHIFT_RAW_SHA256 = "855a118d937aebb1be7ef24364505192d8ae38b1f89ab1890dc9bec18f4c3fc9"


def test_quasilinear_time_form_raw_terms_are_pinned(pinned_closures, raw_terms):
    """The solved time jets and the determinant of both closures are built
    term for term as before, in the same dict order."""
    h = hashlib.sha256()
    for lam, k, kappa, sys in pinned_closures:
        qf = fluid.quasilinear_time_form(sys)
        items = [raw_terms(qf[j]) for j in fluid.TIME_JETS + ("_det",)]
        h.update(repr((lam, k, kappa, items)).encode())
    assert h.hexdigest() == _TIME_FORM_RAW_SHA256


def test_rapidity_shift_residual_raw_terms_are_pinned(pinned_closures, raw_terms):
    """The nonzero on-shell residuals of the non-symmetry d_psi are built
    term for term as before, in the same dict order."""
    h = hashlib.sha256()
    for lam, k, kappa, sys in pinned_closures:
        res = sm.verify_symmetry(sm.v_rapidity_shift(), sys)
        items = [(i, raw_terms(r)) for i, r in enumerate(res) if not r.is_zero()]
        assert items
        h.update(repr((lam, k, kappa, items)).encode())
    assert h.hexdigest() == _RAPIDITY_SHIFT_RAW_SHA256


def test_time_form_monomials_keep_their_atoms_sorted(pinned_closures, atoms_sorted):
    """Every monomial of both closures' time forms lists its atoms strictly
    increasing by sort key, which the monomial product's merge relies on."""
    for lam, k, kappa, sys in pinned_closures:
        qf = fluid.quasilinear_time_form(sys)
        assert all(atoms_sorted(e) for e in qf.values()), (lam, k, kappa)
