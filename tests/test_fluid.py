"""Residual construction, quasilinear solved forms, numeric evaluation."""

import math
import random
from fractions import Fraction

import pytest

from fluidsym import expr as ex, fluid
from fluidsym.fluid import FluidParams, FluidState


def test_equilibrium_state_has_zero_residuals(eckart_system):
    st = FluidState(psi=0.0, n=1.0, rho=1.0, q=0.0)
    res = fluid.residual_at(eckart_system, st, {})
    assert all(abs(r) < 1e-14 for r in res)


def test_boosted_equilibrium_is_static(israel_stewart_system):
    st = FluidState(psi=0.8, n=0.7, rho=2.0, q=0.0)
    res = fluid.residual_at(israel_stewart_system, st, {})
    assert all(abs(r) < 1e-14 for r in res)


def test_heat_flow_residual_value_at_rest(eckart_system):
    # q0 != 0 at rest leaves only the relaxation source; its sign is the
    # package convention (source enters with a minus), magnitude 3 n k q/(kappa rho)
    st = FluidState(psi=0.0, n=1.0, rho=2.0, q=0.5)
    res = fluid.residual_at(eckart_system, st, {})
    assert abs(res[0]) < 1e-14 and abs(res[1]) < 1e-14 and abs(res[2]) < 1e-14
    assert res[3] == pytest.approx(-3 * 1 * 1 * 0.5 / (1 * 2.0), rel=1e-12)


def test_random_state_residuals_generically_nonzero(eckart_system):
    rng = random.Random(2)
    st = FluidState(psi=0.3, n=1.2, rho=0.9, q=0.1)
    jets = {j: rng.uniform(-1, 1) for j in fluid.JETS}
    res = fluid.residual_at(eckart_system, st, jets)
    assert max(abs(r) for r in res) > 1e-3


@pytest.mark.parametrize("k, kappa", [(1, 1), (Fraction(3, 2), Fraction(1, 3))])
@pytest.mark.parametrize("lam", [0, 1])
def test_residual_at_equals_term_by_term_evaluation(lam, k, kappa, term_by_term):
    """residual_at is the compiled residuals, bit for bit (==, no tolerance),
    at seeded states and jets; a jet not given reads 0.0."""
    sys = fluid.build_system(FluidParams(k=Fraction(k), kappa=Fraction(kappa),
                                         lam=Fraction(lam)))
    rng = random.Random(28 + lam)
    for m in range(50):
        st = FluidState(psi=rng.uniform(-2, 2), n=rng.uniform(0.1, 3),
                        rho=rng.uniform(0.1, 3), q=rng.uniform(-1, 1))
        jets = {j: rng.uniform(-2, 2) for j in fluid.JETS[m % 2:]}
        env = {**vars(st), **{j: jets.get(j, 0.0) for j in fluid.JETS}}
        assert fluid.residual_at(sys, st, jets) == tuple(
            term_by_term(r, env) for r in sys.residuals)


def test_residual_at_rejects_symbolic_k_and_kappa(eckart_system_symbolic):
    st = FluidState(psi=0.3, n=1.0, rho=1.0, q=0.1)
    with pytest.raises(ValueError, match="unbound symbols"):
        fluid.residual_at(eckart_system_symbolic, st, {})


def test_residual_affine_in_jets(eckart_system, israel_stewart_system):
    for sys in (eckart_system, israel_stewart_system):
        for res in sys.residuals:
            for j1 in fluid.JETS:
                d = ex.diff(res, j1)
                for j2 in fluid.JETS:
                    assert ex.diff(d, j2).is_zero()


def test_theory_switch_is_linear_in_lam():
    lam = Fraction(3, 7)
    sys_l = fluid.build_system(FluidParams(lam=lam))
    sys_0 = fluid.build_system(FluidParams(lam=Fraction(0)))
    psi, rho = ex.sym("psi"), ex.sym("rho")
    expected = (ex.number(lam) * 15 / (4 * rho)
                * (ex.sinh(psi) * ex.sym("q_x") - ex.cosh(psi) * ex.sym("q_t")))
    diff = sys_l.residuals[3] - sys_0.residuals[3]
    assert (diff - expected).is_zero()
    for k in range(3):
        assert (sys_l.residuals[k] - sys_0.residuals[k]).is_zero()


def test_reflection_parity_pattern(eckart_system_symbolic):
    """x -> -x with psi -> -psi and q -> -q: the first two residuals are
    even, the last two odd."""
    sys = eckart_system_symbolic
    sub = {
        "psi": -ex.sym("psi"), "q": -ex.sym("q"),
        # jets transform with one sign per derivative plus the field parity
        "psi_x": ex.sym("psi_x"), "psi_t": -ex.sym("psi_t"),
        "q_x": ex.sym("q_x"), "q_t": -ex.sym("q_t"),
        "n_x": -ex.sym("n_x"), "n_t": ex.sym("n_t"),
        "rho_x": -ex.sym("rho_x"), "rho_t": ex.sym("rho_t"),
    }
    signs = (1, 1, -1, -1)
    for res, sign in zip(sys.residuals, signs):
        image = ex.subs(res, sub)
        assert (image - sign * res).is_zero()


@pytest.mark.parametrize("theory", ["eckart", "israel-stewart"])
def test_first_three_residuals_are_divergences_of_the_conserved_currents(theory):
    """Residual 1 is the particle current's divergence, and residuals 2 and
    3 are the energy and momentum balances of the stress tensor, rotated by
    the rapidity.  sympy reads the residuals as printed; the components
    T^00, T^01 and T^11 are the case-1 and case-2 first integrals, written
    here."""
    sympy = pytest.importorskip("sympy")
    names = (*fluid.FIELD_NAMES, *fluid.JETS, "k", "kappa")
    sym = {n: sympy.Symbol(n) for n in names}
    psi, n, rho, q = (sym[u] for u in fluid.FIELD_NAMES)
    sh, ch = sympy.sinh(psi), sympy.cosh(psi)
    t00 = rho * ch ** 2 + rho * sh ** 2 / 3 + 2 * q * sh * ch
    t01 = 4 * rho * sh * ch / 3 + q * sympy.cosh(2 * psi)
    t11 = 4 * rho * sh ** 2 / 3 + rho / 3 + 2 * q * sh * ch

    def total(f, d):
        return sum(sympy.diff(f, sym[u]) * sym[f"{u}_{d}"] for u in fluid.FIELD_NAMES)

    energy = total(t00, "t") - total(t01, "x")
    momentum = total(t01, "t") - total(t11, "x")
    want = [total(n * sh, "x") - total(n * ch, "t"),
            ch * energy - sh * momentum,
            sh * energy - ch * momentum]
    sys = fluid.build_system(FluidParams(k=None, kappa=None, lam=fluid.THEORY_LAM[theory]))
    for i, (r, w) in enumerate(zip(sys.residuals, want)):
        text = ex.to_text(r).replace("^", "**")
        got = sympy.sympify(text, locals={"exp": sympy.exp, **sym})
        assert sympy.expand((got - w).rewrite(sympy.exp)) == 0, i + 1


def test_quasilinear_time_form_at_rest(eckart_system):
    qf = fluid.quasilinear_time_form(eckart_system)
    nt = ex.subs(qf["n_t"], {"psi": ex.ZERO})
    assert nt == ex.sym("n") * ex.sym("psi_x")


def test_time_determinants_at_rest(eckart_system, israel_stewart_system):
    det0 = ex.subs(fluid.quasilinear_time_form(eckart_system)["_det"],
                   {"psi": ex.ZERO})
    det1 = ex.subs(fluid.quasilinear_time_form(israel_stewart_system)["_det"],
                   {"psi": ex.ZERO})
    assert det0.as_fraction() == 1
    assert det1.as_fraction() == -4


def test_solved_form_puts_system_on_shell(eckart_system):
    qf = fluid.quasilinear_time_form(eckart_system)
    sub = {tj: qf[tj] for tj in fluid.TIME_JETS}
    for res in eckart_system.residuals:
        assert ex.subs(res, sub).is_zero()


def test_heat_flow_has_no_qt_without_relaxation(eckart_system):
    assert ex.diff(eckart_system.residuals[3], "q_t").is_zero()


def test_relaxation_coefficient_of_q_jets():
    sys = fluid.build_system(FluidParams(lam=Fraction(1)))
    coeff = ex.diff(sys.residuals[3], "q_x")
    psi, rho = ex.sym("psi"), ex.sym("rho")
    assert (coeff - 15 * ex.sinh(psi) / (4 * rho)).is_zero()


def test_space_form_matches_time_form_structure(eckart_system):
    qf = fluid.quasilinear_space_form(eckart_system)
    sub = {sj: qf[sj] for sj in fluid.SPACE_JETS}
    for res in eckart_system.residuals:
        assert ex.subs(res, sub).is_zero()


def test_stationary_exchange_pattern(eckart_system_symbolic):
    """Exchanging t <-> x together with sinh <-> cosh negates the three
    conservation residuals exactly; the heat-flow residual picks up a
    relaxation-source sign in addition (the source breaks the exchange)."""
    sys = eckart_system_symbolic
    psi, E = ex.sym("psi"), ex.exp(ex.sym("psi"))
    swap = {
        # sinh <-> cosh is exp(psi) -> exp(psi) with the odd part negated:
        # realised by substituting exp-parts via psi -> artanh swap is not
        # polynomial, so implement the exchange on the jet/monomial level
    }
    s, c = ex.sinh(psi), ex.cosh(psi)
    n, rho, q = ex.syms("n rho q")
    jets = {nm: ex.sym(nm) for nm in fluid.JETS}

    def build(sin_e, cos_e, jt):
        k = ex.sym("k") if sys.params.k is None else ex.number(sys.params.k)
        kap = ex.sym("kappa") if sys.params.kappa is None else ex.number(sys.params.kappa)
        lam = ex.number(sys.params.lam)
        p_plus = rho * 4 / 3
        beta1 = lam * 15 / (4 * rho)
        d1 = sin_e * jt["n_x"] - cos_e * jt["n_t"] + n * cos_e * jt["psi_x"] - n * sin_e * jt["psi_t"]
        d2 = (cos_e * jt["rho_t"] - sin_e * jt["rho_x"] + sin_e * jt["q_t"] - cos_e * jt["q_x"]
              + (p_plus * sin_e + 2 * q * cos_e) * jt["psi_t"]
              - (p_plus * cos_e + 2 * q * sin_e) * jt["psi_x"])
        d3 = ((cos_e * jt["rho_x"] - sin_e * jt["rho_t"]) / 3 + sin_e * jt["q_x"] - cos_e * jt["q_t"]
              - (p_plus * cos_e + 2 * q * sin_e) * jt["psi_t"]
              + (p_plus * sin_e + 2 * q * cos_e) * jt["psi_x"])
        dlnT_x = jt["rho_x"] / rho - jt["n_x"] / n
        dlnT_t = jt["rho_t"] / rho - jt["n_t"] / n
        d4 = (cos_e * dlnT_x - sin_e * dlnT_t + beta1 * (sin_e * jt["q_x"] - cos_e * jt["q_t"])
              + sin_e * jt["psi_x"] - cos_e * jt["psi_t"] - 3 * n * k * q / (kap * rho))
        return (d1, d2, d3, d4)

    swapped_jets = {}
    for u in fluid.FIELD_NAMES:
        swapped_jets[f"{u}_t"] = ex.sym(f"{u}_x")
        swapped_jets[f"{u}_x"] = ex.sym(f"{u}_t")
    exchanged = build(c, s, swapped_jets)  # sinh <-> cosh, t <-> x
    for k in range(3):
        assert (exchanged[k] + sys.residuals[k]).is_zero()
    # the heat-flow residual differs by exactly twice the relaxation source
    kk = ex.sym("k")
    kap = ex.sym("kappa")
    leftover = exchanged[3] + sys.residuals[3]
    assert (leftover - (-2 * 3 * n * kk * q / (kap * rho))).is_zero()


def test_characteristic_determinant_tracks_degeneracy(eckart_system, term_by_term):
    qf = fluid.quasilinear_time_form(eckart_system)
    det = qf["_det"]
    # the determinant vanishes on a codimension-one set: exhibit a root
    # numerically along q at a boosted state
    env = {"psi": 1.0, "n": 1.0, "rho": 1.0}
    f = lambda qv: term_by_term(det, {**env, "q": qv})
    lo, hi = 0.0, 10.0
    assert f(lo) * f(hi) < 0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    assert abs(f(0.5 * (lo + hi))) < 1e-8


def test_invalid_states_rejected():
    with pytest.raises(ValueError):
        FluidState(psi=0.0, n=-1.0, rho=1.0, q=0.0)
    with pytest.raises(ValueError):
        FluidState(psi=0.0, n=1.0, rho=0.0, q=0.0)
    with pytest.raises(ValueError):
        FluidParams(k=Fraction(-1))
    with pytest.raises(ValueError):
        FluidParams(lam=Fraction(2))


def test_velocity_from_rapidity():
    st = FluidState(psi=0.5, n=1.0, rho=1.0, q=0.0)
    assert st.v == pytest.approx(math.tanh(0.5))
