import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fluidsym import expr as ex, fluid, symmetry as sm  # noqa: E402


def _raw(e: ex.Expr):
    """The (num, den) item lists of e in dict order, each monomial read
    through ``ex.unpack``, nested exp and ln arguments included: two Exprs
    give equal raws only if they were built term for term in the same
    order."""
    def poly(p):
        return [([(("s", a[1]) if a[0] == "s" else ("ln", _raw(a[1])), k)
                  for a, k in atoms],
                 None if exparg is None else _raw(exparg), str(c))
                for (atoms, exparg), c in ((ex.unpack(m), c) for m, c in p.items())]
    return poly(e.num), poly(e.den)


def _atoms_sorted(e: ex.Expr) -> bool:
    """Whether every monomial of e, nested exp and ln arguments included,
    lists its atoms strictly increasing by ``_atom_sort_key`` when read
    through ``ex.unpack``."""
    for atoms, exparg in map(ex.unpack, (*e.num, *e.den)):
        keys = [ex._atom_sort_key(a) for a, _ in atoms]
        if any(k1 >= k2 for k1, k2 in zip(keys, keys[1:])):
            return False
        if not all(_atoms_sorted(a[1]) for a, _ in atoms if a[0] == "ln"):
            return False
        if exparg is not None and not _atoms_sorted(exparg):
            return False
    return True


def _term_by_term(e, env):
    """The tests' float oracle of an Expr at the float point env, the
    reference for compile_exprs: every term evaluated on its own, its float
    factors multiplied left to right, sums taken in dict order."""
    def poly(p):
        total = None
        for m, c in p.items():
            atoms, exparg = ex.unpack(m)
            v = c.numerator if c.denominator == 1 else c.numerator / c.denominator
            for a, k in atoms:
                base = env[a[1]] if a[0] == "s" else math.log(_term_by_term(a[1], env))
                v = v * (base if k == 1 else base ** k)
            if exparg is not None:
                v = v * math.exp(_term_by_term(exparg, env))
            total = v if total is None else total + v
        return 0.0 if total is None else total

    num = poly(e.num)
    if len(e.den) == 1 and e.den.get(ex._ONE_MONO) == 1:
        return num
    return num / poly(e.den)


@pytest.fixture(scope="session")
def raw_terms():
    return _raw


@pytest.fixture(scope="session")
def term_by_term():
    return _term_by_term


@pytest.fixture(scope="session")
def atoms_sorted():
    return _atoms_sorted


@pytest.fixture(scope="session")
def eckart_basis():
    return sm.solve_determining(Fraction(0))


@pytest.fixture(scope="session")
def israel_stewart_basis():
    return sm.solve_determining(Fraction(1))


@pytest.fixture(scope="session")
def eckart_system():
    return fluid.build_system(fluid.FluidParams(lam=Fraction(0)))


@pytest.fixture(scope="session")
def israel_stewart_system():
    return fluid.build_system(fluid.FluidParams(lam=Fraction(1)))


@pytest.fixture(scope="session")
def eckart_system_symbolic():
    return fluid.build_system(fluid.FluidParams(k=None, kappa=None, lam=Fraction(0)))


@pytest.fixture(scope="session")
def israel_stewart_system_symbolic():
    return fluid.build_system(fluid.FluidParams(k=None, kappa=None, lam=Fraction(1)))
