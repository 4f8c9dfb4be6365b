"""Exact symbolic expression kernel.

An expression is a ratio of two Laurent polynomials with rational
coefficients over a set of atoms.  A coefficient is an ``int`` when it is
integral and a ``Fraction`` otherwise, never a float; every division of
coefficients goes through ``_div``.  An atom is either a named symbol or a
``ln(...)`` application; ``exp(...)`` factors are carried separately inside
each monomial so that products of exponentials merge by adding their
arguments.  Hyperbolic functions never survive: ``sinh u``, ``cosh u`` and
``tanh u`` are rewritten in terms of ``exp(u)`` on construction, which turns
every hyperbolic identity into Laurent-polynomial arithmetic.

A polynomial is a dict from monomial to coefficient.  A monomial is a pair
of ints: its exponent vector, packed with atom i's signed exponent in bits
``[_W*i, _W*(i + 1))``, and the id of its exp argument (0 for none).  Atoms
get field indices and exp arguments ids by value, on first use, and keep
them, so a monomial product is an integer addition plus a sum of exp
arguments computed once per id pair, and monomials hash and compare in C.
An exponent out of ``[-2**(_W - 2), 2**(_W - 2))`` raises ValueError, so no
field carries into the next.  ``unpack`` is the one reader: it gives the
atoms, ``("s", name)`` or ``("ln", argument)``, with their exponents,
strictly increasing by ``_atom_sort_key``, and the exp argument, which is
the first equal argument built, in its own term order.  No order a reader
sees depends on the order of first use.

Polynomials multiply in ints over the lcm of each factor's coefficient
denominators, one division per term at the end; terms arise and cancel in
the same order as term by term.  A product with a constant, a quotient by
one and a sum over one denominator keep that denominator, which is
normalized already, instead of normalizing again; a sum that cancels is 0
over 1.

Normalizing takes two steps: it divides both sides once by the
denominator's monomial content (a one-term denominator becomes 1), then makes
a denominator of more than one term monic on its leading monomial.  It never
divides one polynomial by another, so the form is not canonical: numerator
and denominator may share a factor (``p*q/q`` keeps ``q``) and one rational
function can have several representations.  ``==`` compares structure: two
expressions are equal, and hash alike, exactly when their ``num`` and
``den`` dicts are, so no hash depends on the string hash seed.  ``key()`` is
only an order, for ln atoms, exp arguments and the determining rows.  The
exact test is ``is_zero()``: a rational function is zero iff its numerator
polynomial is, so ``(a - b).is_zero()`` tests a == b by cross-multiplication.

``ClearedSubstitution`` substitutes a jet map ``{jet: N_j/D_j}`` over one
common denominator ``D``.  It assumes the target expression has degree at
most ``d`` in those jets (by default its own degree) and a jet-free
denominator, and returns the result multiplied through by ``D**d``, so the
denominators never multiply.

``evaluate`` gives the exact value at a rational point, or with a prime
``modulus`` that value reduced mod the prime, computed in ints mod p
throughout; ``rref`` and ``nullspace`` take the same ``modulus``.
"""

from __future__ import annotations

import ast
import functools
import math
import operator
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

__all__ = [
    "ClearedSubstitution",
    "DomainError",
    "Expr",
    "JetSpace",
    "NonPolynomialError",
    "SingularSubstitutionError",
    "collect",
    "evaluate",
    "nullspace",
    "parse",
    "rational_reconstruction",
    "rref",
    "unpack",
]


class DomainError(ValueError):
    """Numeric evaluation hit a pole or an invalid function argument."""


class SingularSubstitutionError(ZeroDivisionError):
    """A substitution produced a structurally zero denominator."""


class NonPolynomialError(ValueError):
    """collect() was asked to decompose over symbols it cannot isolate."""


# Symbols are ordered for deterministic printing and monomial sorting:
# independent variables, the rapidity and its exponential, the remaining
# dependent variables, then everything else alphabetically.
_CANONICAL_ORDER = ("t", "x", "psi", "n", "rho", "q")


def _atom_sort_key(atom) -> tuple:
    if atom[0] == "s":
        name = atom[1]
        try:
            return (0, _CANONICAL_ORDER.index(name), name)
        except ValueError:
            return (1, 0, name)
    # ln atoms sort after all plain symbols, by their argument key
    return (2, 0, atom[1].key())


# -- packed monomials -----------------------------------------------------------

_W = 32  # bits per exponent field
_FIELD = (1 << _W) - 1
_SIGN = 1 << (_W - 1)
_BOUND = 1 << (_W - 2)  # every exponent lies in [-_BOUND, _BOUND)
_ATOMS: list = []  # field index -> atom, in first-use order
# Added to a packed value with fields in [-2*_BOUND, 2*_BOUND), _OFFSET sets
# the top bit of every field whose exponent is in range; the lowest field out
# of range has it clear, as no field below it carries.
_OFFSET = 0
_TOPS = 0


class _UnitTable(dict):
    """atom -> the packed monomial atom**1, a new field on first use."""

    def __missing__(self, atom):
        global _OFFSET, _TOPS
        shift = _W * len(_ATOMS)
        _ATOMS.append(atom)
        _OFFSET |= (3 * _BOUND) << shift
        _TOPS |= _SIGN << shift
        unit = self[atom] = 1 << shift
        return unit


_UNITS = _UnitTable()


_RANGE_ERROR = f"an exponent leaves [-2**{_W - 2}, 2**{_W - 2})"


def _check(packed: int) -> int:
    """packed itself; ValueError if one of its exponents is out of range."""
    if (packed + _OFFSET) & _TOPS != _TOPS:
        raise ValueError(_RANGE_ERROR)
    return packed


@functools.lru_cache(maxsize=4096)
def _atoms(packed: int) -> tuple:
    """The atoms of a packed monomial, ``((atom, exponent), ...)`` strictly
    increasing by ``_atom_sort_key``."""
    fields, i = [], 0
    while packed:
        e = packed & _FIELD
        if e & _SIGN:
            e -= 1 << _W
        if e:
            fields.append((_atom_sort_key(_ATOMS[i]), _ATOMS[i], e))
        packed = (packed - e) >> _W
        i += 1
    fields.sort(key=operator.itemgetter(0))
    return tuple((a, e) for _, a, e in fields)


@functools.lru_cache(maxsize=4096)
def _atom_order(packed: int) -> tuple:
    """The atom part of ``_mono_sort_key``: (degree, ((atom key, -exponent),
    ...))."""
    atoms = _atoms(packed)
    return sum(e for _, e in atoms), tuple((_atom_sort_key(a), -e) for a, e in atoms)


_EXP_ARGS: list = [None]  # exp id -> its argument; 0 is no exp factor
_EXP_IDS: dict = {}  # exp argument -> its id


def _exp_id(arg) -> int:
    """The id of the exp argument arg, given to the first argument equal to
    it and never reused."""
    eid = _EXP_IDS.get(arg)
    if eid is None:
        eid = _EXP_IDS[arg] = len(_EXP_ARGS)
        _EXP_ARGS.append(arg)
    return eid


class _ExpSums(dict):
    """(id1, id2) -> the id of the sum of the two exp arguments, 0 when the
    sum vanishes; computed on first use."""

    def __missing__(self, pair):
        i, j = pair
        if not i or not j:
            eid = i or j
        else:
            s = _EXP_ARGS[i] + _EXP_ARGS[j]
            eid = 0 if s.is_zero() else _exp_id(s)
        self[pair] = eid
        return eid


_EXP_SUMS = _ExpSums()


def unpack(mono) -> tuple:
    """A monomial as ``(atoms, exp argument)``: its atoms as ``((atom,
    exponent), ...)`` strictly increasing by ``_atom_sort_key``, and its exp
    argument, None for none."""
    packed, eid = mono
    return _atoms(packed), _EXP_ARGS[eid]


def _mono_sort_key(mono) -> tuple:
    packed, eid = mono
    degree, vec = _atom_order(packed)
    return (degree, vec, _EXP_ARGS[eid].key() if eid else ())


_ONE_MONO = (0, 0)
_UNIT = {_ONE_MONO: 1}


def _exact(c):
    """The coefficient c (an int or a Fraction) as an int when it is
    integral."""
    return c if type(c) is int or c.denominator != 1 else c.numerator


def _div(a, b):
    """The exact quotient of two coefficients: an int when it is integral,
    else a Fraction, never a float."""
    if type(a) is int and type(b) is int and b and not a % b:
        return a // b
    return _exact(Fraction(a, b))


def _mono_mul(m1, m2):
    """Multiply two monomials: add the packed exponents and the exp
    arguments."""
    return (m1[0] + m2[0], _EXP_SUMS[m1[1], m2[1]])


def _poly_add(p1: dict, p2: dict) -> dict:
    if len(p1) < len(p2):
        p1, p2 = p2, p1
    out = dict(p1)
    for m, c in p2.items():
        nc = out.get(m, 0) + c
        if nc:
            out[m] = _exact(nc)
        else:
            out.pop(m, None)
    return out


def _scaled(p: dict) -> tuple:
    """``(items, L)``: p's items with every coefficient multiplied by L, the
    lcm of the coefficient denominators, so that each is an int."""
    for c in p.values():
        if type(c) is not int:
            L = math.lcm(*[d.denominator for d in p.values()])
            return [(m, d.numerator * (L // d.denominator)) for m, d in p.items()], L
    return p.items(), 1


def _poly_mul(p1: dict, p2: dict) -> dict:
    """The product, accumulated in ints over the factors' common denominator."""
    if not p1 or not p2:
        return {}
    if p2 == _UNIT:
        return dict(p1)
    if p1 == _UNIT:
        return dict(p2)
    items1, L1 = _scaled(p1)
    items2, L2 = _scaled(p2)
    out: dict = {}
    for m1, c1 in items1:
        for m2, c2 in items2:
            m = _mono_mul(m1, m2)
            nc = out.get(m, 0) + c1 * c2
            if nc:
                out[m] = nc
            else:
                out.pop(m, None)
    offset, tops = _OFFSET, _TOPS
    for a, _ in out:  # _check(a), inlined
        if (a + offset) & tops != tops:
            _check(a)
    L = L1 * L2
    if L != 1:
        for m, c in out.items():
            out[m] = _div(c, L)
    return out


def _poly_scale(p: dict, c) -> dict:
    if not c:
        return {}
    return {m: _exact(cc * c) for m, cc in p.items()}


def _poly_neg(p: dict) -> dict:
    return {m: -c for m, c in p.items()}


def _leading_mono(p: dict):
    return max(p, key=_mono_sort_key)


def _mono_inv(m):
    """1 / m as a Laurent monomial."""
    packed, eid = m
    return (_check(-packed), _exp_id(-_EXP_ARGS[eid]) if eid else 0)


class Expr:
    """Immutable normalized rational expression."""

    __slots__ = ("num", "den", "_key", "_hash")

    def __init__(self, num: dict, den: dict):
        # internal constructor; callers use the factory helpers below
        self.num = num
        self.den = den
        self._key = None
        self._hash = None

    # -- construction -----------------------------------------------------

    @staticmethod
    def number(value) -> "Expr":
        if type(value) is not int and type(value) is not Fraction:
            value = Fraction(value)
        c = _exact(value)
        num = {_ONE_MONO: c} if c else {}
        return Expr(num, {_ONE_MONO: 1})

    @staticmethod
    def symbol(name: str) -> "Expr":
        return Expr({(_UNITS["s", name], 0): 1}, {_ONE_MONO: 1})

    @staticmethod
    def _normalized(num: dict, den: dict) -> "Expr":
        if not den:
            raise SingularSubstitutionError("zero denominator")
        if not num:
            return Expr({}, {_ONE_MONO: 1})
        # step 1, one division by the denominator's monomial content: a
        # one-term denominator becomes the unit, which is not even copied
        mono = _common_mono(den)
        c = next(iter(den.values())) if len(den) == 1 else 1
        if mono != _ONE_MONO or c != 1:
            inv = {_mono_inv(mono): _div(1, c)}
            num = _poly_mul(num, inv)
            den = _poly_mul(den, inv)
        if len(den) == 1:
            return Expr(num, den)
        # step 2, the last: make the denominator monic on its leading
        # monomial; no common factor is cancelled (module docstring)
        lc = den[_leading_mono(den)]
        if lc != 1:
            inv_lc = _div(1, lc)
            den = _poly_scale(den, inv_lc)
            num = _poly_scale(num, inv_lc)
        return Expr(num, den)

    # -- canonical key, equality, hashing ---------------------------------

    def key(self):
        if self._key is None:
            def mono_key(m):
                atoms, exparg = unpack(m)
                akey = tuple(
                    (("s", a[1]) if a[0] == "s" else ("ln", a[1].key()), e)
                    for a, e in atoms
                )
                ekey = exparg.key() if exparg is not None else None
                return (akey, ekey)

            def poly_key(p):
                items = sorted(p.items(), key=lambda it: _mono_sort_key(it[0]))
                return tuple((mono_key(m), c.numerator, c.denominator) for m, c in items)

            self._key = (poly_key(self.num), poly_key(self.den))
        return self._key

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((frozenset(self.num.items()), frozenset(self.den.items())))
        return self._hash

    def __eq__(self, other):
        if not isinstance(other, Expr):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_rational(self) -> bool:
        return (not self.num or (len(self.num) == 1 and _ONE_MONO in self.num)) \
            and len(self.den) == 1 and _ONE_MONO in self.den

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("expression is not a plain rational constant")
        if not self.num:
            return Fraction(0)
        return Fraction(_div(self.num[_ONE_MONO], self.den[_ONE_MONO]))

    def atoms(self) -> set:
        """Names of plain symbols occurring anywhere in the expression."""
        names: set = set()

        def visit_poly(p):
            for m in p:
                at, exparg = unpack(m)
                for a, _ in at:
                    if a[0] == "s":
                        names.add(a[1])
                    else:
                        names.update(a[1].atoms())
                if exparg is not None:
                    names.update(exparg.atoms())

        visit_poly(self.num)
        visit_poly(self.den)
        return names

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if self.den == other.den:
            # the shared denominator is normalized already
            num = _poly_add(self.num, other.num)
            return Expr(num, dict(self.den)) if num else Expr({}, {_ONE_MONO: 1})
        num = _poly_add(_poly_mul(self.num, other.den), _poly_mul(other.num, self.den))
        return Expr._normalized(num, _poly_mul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        return Expr(_poly_neg(self.num), dict(self.den))

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        c = _constant(other)
        if c is not None:
            return self._times(c)
        other = _coerce(other)
        c = _constant(self)
        if c is not None:
            return other._times(c)
        return Expr._normalized(_poly_mul(self.num, other.num),
                                _poly_mul(self.den, other.den))

    __rmul__ = __mul__

    def _times(self, c):
        """self * c for a coefficient c: the numerator scaled, the
        denominator, normalized already, copied."""
        if not c or not self.num:
            return Expr({}, {_ONE_MONO: 1})
        return Expr(_poly_scale(self.num, c), dict(self.den))

    def __truediv__(self, other):
        c = _constant(other)
        if c:
            return self._times(_div(1, c))
        other = _coerce(other)
        if other.is_zero():
            raise SingularSubstitutionError("division by structurally zero expression")
        return Expr._normalized(_poly_mul(self.num, other.den),
                                _poly_mul(self.den, other.num))

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __pow__(self, exponent):
        if isinstance(exponent, int) or (isinstance(exponent, Fraction)
                                         and exponent.denominator == 1):
            k = int(exponent)
            if k == 0:
                return ONE
            base = self if k > 0 else ONE / self
            k = abs(k)
            if k == 1:
                return base
            if len(base.num) == 1 and len(base.den) == 1:
                # one term, over the unit: its power in closed form, the
                # exponents range-checked before the coefficient is raised
                ((packed, eid), c), = base.num.items()
                if any(not -_BOUND <= e * k < _BOUND for _, e in _atoms(packed)):
                    raise ValueError(_RANGE_ERROR)
                return Expr({(packed * k, _exp_id(_EXP_ARGS[eid]._times(k)) if eid else 0):
                             _exact(c ** k)}, {_ONE_MONO: 1})
            out = ONE
            for _ in range(k):
                out = out * base
            return out
        # symbolic or non-integer exponent: u^e == exp(e*ln u)
        return exp(_coerce(exponent) * ln(self))

    def __repr__(self):
        return f"Expr({to_text(self)})"


def _common_mono(p: dict):
    """Greatest common Laurent monomial of all terms of p, over the atoms of
    the first term."""
    (packed, exp_common), *rest = p
    atoms_min = dict(_atoms(packed))
    for packed, eid in rest:
        if exp_common != eid:
            exp_common = 0
        d = dict(_atoms(packed))
        for a in list(atoms_min):
            # an absent atom has exponent 0: negative powers are kept, as
            # they divide every monomial
            e = min(atoms_min[a], d.get(a, 0))
            if e:
                atoms_min[a] = e
            else:
                del atoms_min[a]
    return (sum(e * _UNITS[a] for a, e in atoms_min.items()), exp_common)


def _constant(value):
    """The coefficient of a constant: an int, a Fraction or an Expr c/1;
    None for anything else."""
    if type(value) is int or type(value) is Fraction:
        return value
    if type(value) is Expr and value.is_rational():  # a normalized c/1
        return value.num.get(_ONE_MONO, 0)
    return None


def _coerce(value) -> Expr:
    if isinstance(value, Expr):
        return value
    return Expr.number(value)


ZERO = Expr.number(0)
ONE = Expr.number(1)


def number(v) -> Expr:
    return Expr.number(v)


def numerator(e: Expr) -> Expr:
    return Expr(dict(e.num), {_ONE_MONO: 1})


def denominator(e: Expr) -> Expr:
    return Expr(dict(e.den), {_ONE_MONO: 1})


def monic(e: Expr) -> Expr:
    """e divided by the leading term of its numerator, coefficient included:
    a monomial becomes 1, and zero stays zero."""
    if not e.num:
        return e
    lead = _leading_mono(e.num)
    return e / Expr({lead: e.num[lead]}, {_ONE_MONO: 1})


def sym(name: str) -> Expr:
    return Expr.symbol(name)


def syms(names: str) -> list:
    return [Expr.symbol(n) for n in names.split()]


# -- function applications --------------------------------------------------


def exp(arg) -> Expr:
    arg = _coerce(arg)
    if arg.is_zero():
        return ONE
    # exp(k*ln u) with integer k folds back into a power of u
    if len(arg.num) == 1 and len(arg.den) == 1 and _ONE_MONO in arg.den:
        (mono, coeff), = arg.num.items()
        atoms, exparg = unpack(mono)
        if exparg is None and len(atoms) == 1 and atoms[0][0][0] == "ln" \
                and atoms[0][1] == 1 and coeff.denominator == 1:
            return atoms[0][0][1] ** int(coeff)
    return Expr({(0, _exp_id(arg)): 1}, {_ONE_MONO: 1})


def ln(arg) -> Expr:
    arg = _coerce(arg)
    if arg == ONE:
        return ZERO
    if arg.is_zero():
        raise DomainError("ln of structurally zero expression")
    # ln(exp(u)) == u when the argument is a bare exponential
    if len(arg.num) == 1 and len(arg.den) == 1 and _ONE_MONO in arg.den:
        ((packed, eid), coeff), = arg.num.items()
        if coeff == 1 and not packed and eid:
            return _EXP_ARGS[eid]
    return Expr({(_UNITS["ln", arg], 0): 1}, {_ONE_MONO: 1})


def sinh(arg) -> Expr:
    e = exp(arg)
    return (e - ONE / e) / 2


def cosh(arg) -> Expr:
    e = exp(arg)
    return (e + ONE / e) / 2


def tanh(arg) -> Expr:
    e = exp(arg)
    return (e - ONE / e) / (e + ONE / e)


# -- differentiation ---------------------------------------------------------


def _poly_diff(p: dict, name: str) -> Expr:
    """Derivative of a polynomial dict; dict-level fast path for plain
    symbol powers, Expr arithmetic only for chain rule through ln/exp."""
    fast: dict = {}
    slow = ZERO
    for mono, c in p.items():
        packed, eid = mono
        atoms, exparg = unpack(mono)
        for a, e in atoms:
            if a[0] == "s":
                if a[1] == name:
                    m = (_check(packed - _UNITS[a]), eid)
                    nc = fast.get(m, 0) + c * e
                    if nc:
                        fast[m] = _exact(nc)
                    else:
                        fast.pop(m, None)
            else:  # ln(u): chain term e * mono * u' / (u * ln(u))
                du = diff(a[1], name)
                if not du.is_zero():
                    base = Expr({mono: c}, {_ONE_MONO: 1})
                    latom = Expr({(_UNITS[a], 0): 1}, {_ONE_MONO: 1})
                    slow = slow + base * e * du / (a[1] * latom)
        if exparg is not None:
            darg = diff(exparg, name)
            if not darg.is_zero():
                base = Expr({mono: c}, {_ONE_MONO: 1})
                slow = slow + base * darg
    out = Expr(fast, {_ONE_MONO: 1})
    return out + slow if not slow.is_zero() else out


def diff(e: Expr, s: str) -> Expr:
    """Exact partial derivative by the symbol named s, treating all other
    symbols as constants."""
    num_d = _poly_diff(e.num, s)
    if len(e.den) == 1 and _ONE_MONO in e.den:
        return num_d / e.den[_ONE_MONO]
    den_d = _poly_diff(e.den, s)
    den = Expr(dict(e.den), {_ONE_MONO: 1})
    if den_d.is_zero():
        return num_d / den
    num = Expr(dict(e.num), {_ONE_MONO: 1})
    return (num_d * den - num * den_d) / (den * den)


# -- substitution ------------------------------------------------------------


def subs(e: Expr, bindings: Mapping[str, object]) -> Expr:
    """Simultaneous substitution {symbol name: value} followed by
    normalization."""
    return _subs_table(e, {name: _coerce(v) for name, v in bindings.items()})


def _subs_table(e: Expr, table: Mapping[str, Expr]) -> Expr:
    """subs with a table of Exprs.  Each (atom, power) factor and each
    substituted exp factor is computed once per call, in powers and exps."""
    powers, exps = {}, {}  # (atom, power) or exp id -> factor

    def poly_subs(p: dict) -> Expr:
        out = ZERO
        for (packed, eid), c in p.items():
            term = Expr.number(c)
            for a, k in _atoms(packed):
                power = powers.get((a, k))
                if power is None:
                    if a[0] == "s":
                        repl = table.get(a[1])
                        factor = repl if repl is not None else Expr.symbol(a[1])
                    else:
                        factor = ln(_subs_table(a[1], table))
                    power = powers[(a, k)] = factor ** abs(k)
                if k >= 0:
                    term = term * power
                else:
                    if power.is_zero():
                        raise SingularSubstitutionError(
                            f"substitution makes a denominator zero: {a}")
                    term = term / power
            if eid:
                factor = exps.get(eid)
                if factor is None:
                    factor = exps[eid] = exp(_subs_table(_EXP_ARGS[eid], table))
                term = term * factor
            out = out + term
        return out

    num = poly_subs(e.num)
    den = poly_subs(e.den)
    if den.is_zero():
        raise SingularSubstitutionError("substitution makes a denominator zero")
    return num / den


class ClearedSubstitution:
    """Exact substitution of a jet map over one common denominator.

    The map ``{jet: N_j/D_j}`` is brought to one denominator ``D``: when all
    ``D_j`` are structurally equal that ``D`` is reused as is, otherwise
    ``D`` is the product of the distinct ``D_j`` and each ``N_j`` is
    multiplied by the others.  Calling the instance on an expression of
    degree at most ``d`` in the jets, with a jet-free denominator, returns
    the substituted expression multiplied through by ``D**d``; it has no
    jets left and no new denominator.  Without ``d`` the expression's own
    degree in the jets is used, the least power of ``D`` that clears it.
    Any other expression raises NonPolynomialError.  Products of numerators
    are cached per instance.
    """

    def __init__(self, jet_map: Mapping[str, Expr]):
        self.numerators = {jet: numerator(v) for jet, v in jet_map.items()}
        dens = {jet: denominator(v) for jet, v in jet_map.items()}
        distinct = list(dict.fromkeys(dens.values()))
        if len(distinct) == 1:
            (self.denominator,) = distinct
        else:
            self.denominator = ONE
            for d in distinct:
                self.denominator = self.denominator * d
            for jet, num in self.numerators.items():
                for d in distinct:
                    if d != dens[jet]:
                        num = num * d
                self.numerators[jet] = num
        self._factors: dict = {}

    def __call__(self, e: Expr, degree: int = None) -> Expr:
        parts = collect(e, list(self.numerators))
        if degree is None:
            degree = max((sum(k for _, k in key) for key in parts), default=0)
        out = ZERO
        for key, coeff in parts.items():
            deg = sum(k for _, k in key)
            if deg > degree or any(k < 0 for _, k in key):
                raise NonPolynomialError(
                    f"jet monomial {key} is not of degree <= {degree}")
            factor = self._factors.get((key, degree))
            if factor is None:
                factor = ONE
                for name, k in key:
                    for _ in range(k):
                        factor = factor * self.numerators[name]
                for _ in range(degree - deg):
                    factor = factor * self.denominator
                self._factors[(key, degree)] = factor
            out = out + coeff * factor
        return out


# -- numeric evaluation -------------------------------------------------------


def evaluate(e: Expr, point: Mapping[str, Fraction],
             exps: Mapping[str, Fraction], modulus: int = None) -> Fraction | int:
    """Exact value of ``e`` at a rational point.

    Every symbol takes its value from ``point``.  An exp factor must have an
    integer multiple ``c*s`` of a symbol ``s`` of ``exps`` as its argument and
    takes the value ``exps[s]**c``: exp(s) is an independent value, not a
    function of ``point[s]``.  An ln atom, any other exp argument, a pole or
    a vanishing denominator raises DomainError.

    With a prime ``modulus`` the value is computed over the integers mod
    that prime and returned as an int in [0, modulus): every rational
    coefficient and value r/s maps to r * s^-1, so the result is the exact
    value reduced mod the prime.  A value's denominator, a base under a
    negative power or the expression's denominator that is 0 mod the prime
    raises DomainError, as a pole does.
    """
    if modulus is None:
        def power(base, k):
            if k >= 0:
                return base ** k
            if not base:
                raise DomainError("pole: zero raised to negative power")
            return Fraction(base) ** k
    else:
        def power(base, k):
            base = _residue(base, modulus)
            if k == 1:
                return base
            if not base and k < 0:
                raise DomainError("pole mod p: zero raised to negative power")
            return pow(base, k, modulus)

    def poly_val(p: dict):
        total = 0
        for m, c in p.items():
            atoms, exparg = unpack(m)
            v = c if modulus is None else _residue(c, modulus)
            for a, k in atoms:
                if a[0] != "s":
                    raise DomainError("cannot evaluate an ln atom exactly")
                if a[1] not in point:
                    raise DomainError(f"no value provided for symbol '{a[1]}'")
                v *= power(point[a[1]], k)
            if exparg is not None:
                v *= power(*_exp_power(exparg, exps))
            total += v
        return Fraction(total) if modulus is None else total % modulus

    den = poly_val(e.den)
    if not den:
        raise DomainError("denominator evaluates to zero")
    if modulus is None:
        return poly_val(e.num) / den
    return poly_val(e.num) * pow(den, -1, modulus) % modulus


def _exp_power(arg: Expr, exps: Mapping[str, Fraction]) -> tuple:
    """``(exps[s], c)`` for the exp argument ``c*s``, c an integer."""
    if len(arg.num) == 1 and arg.den == _UNIT:
        (m, c), = arg.num.items()
        atoms, exparg = unpack(m)
        if exparg is None and len(atoms) == 1 and atoms[0][1] == 1 \
                and atoms[0][0][0] == "s" and atoms[0][0][1] in exps \
                and type(c) is int:
            return exps[atoms[0][0][1]], c
    raise DomainError(f"cannot evaluate exp({to_text(arg)}) exactly")


def compile_exprs(exprs: Sequence[Expr], params: Sequence):
    """Compile expressions into one fast positional-argument function.

    Returns f(*args) -> tuple of floats.  A parameter is either a name, one
    float argument, or a sequence of names, one argument unpacked into those
    names.  Symbols must all be named in params; ln/exp map to
    math.log/math.exp.

    Subexpressions are hoisted: each distinct exp, ln, power and denominator
    is computed once per call into a local.  A term c*f1*...*fk is the
    product chain |c|, f1, ..., fk, multiplied left to right, with |c| a
    float literal (dropped when it is 1.0) and the sign of c folded into the
    sum: a later term is added or subtracted, a first one negated.  Chain
    prefixes are shared: one counting pass over the terms of all numerators
    and distinct denominators finds every prefix of two or more operands
    that several terms start with, and each term multiplies the local of its
    longest shared prefix by its remaining factors.  The terms of exp and ln
    arguments share no prefixes.

    The results are bit-identical to term-by-term evaluation, which
    multiplies each term's factors left to right from c and adds the terms
    in order: a shared prefix is the same partial product, computed once;
    converting an integral c to float and folding a Fraction p/q give the
    doubles that int * float and p/q give; 1.0 * x == x; and round-to-
    nearest is sign-symmetric, so (-c) * x == -(c * x) and a + (-b) == a - b.
    A pole or overflow still raises ZeroDivisionError or OverflowError when
    the function is called, also for a coefficient too large for a float.
    """
    arg_names = [n for p in params for n in ([p] if isinstance(p, str) else p)]
    missing = set()
    for e in exprs:
        missing |= (e.atoms() - set(arg_names))
    if missing:
        raise ValueError(f"unbound symbols in compiled expression: {sorted(missing)}")
    names = {n: f"_a{i}" for i, n in enumerate(arg_names)}
    hoisted = {}  # code -> local name, in first-use order
    shared = {}  # product chain prefix -> number of terms that start with it

    def local(code: str) -> str:
        if code not in hoisted:
            hoisted[code] = f"_v{len(hoisted)}"
        return hoisted[code]

    def chain(m, c) -> tuple:
        """(c < 0, the operands of the term's product chain)."""
        atoms, exparg = unpack(m)
        try:
            lit = repr(float(abs(c)))
        except OverflowError:  # raised again when the function is called
            lit = (f"{abs(c.numerator)}" if c.denominator == 1
                   else f"({abs(c.numerator)}/{c.denominator})")
        ops = [] if lit == "1.0" and (atoms or exparg is not None) else [lit]
        for a, k in atoms:
            base = names[a[1]] if a[0] == "s" else local(f"_log({code(a[1])})")
            ops.append(base if k == 1 else local(f"{base}**({k})"))
        if exparg is not None:
            ops.append(local(f"_exp({code(exparg)})"))
        return c < 0, tuple(ops)

    def product(ops: tuple, uses: int = 1) -> str:
        # through the longest prefix that more than `uses` terms start with
        j = next((j for j in range(len(ops), 1, -1)
                  if shared.get(ops[:j], 0) > uses), 0)
        if j:
            ops = (local(product(ops[:j], shared[ops[:j]])),) + ops[j:]
        return "*".join(ops)

    def total(terms) -> str:
        out = ""
        for negative, ops in terms:
            if out:
                out += " - " if negative else " + "
            elif negative:
                out = "-"
            out += product(ops)
        return out or "0.0"

    def ratio(num: str, den) -> str:
        if den is None:
            return f"({num})"
        return f"(({num})/{local(f'({total(den)})')})"

    def sides(e: Expr) -> tuple:
        num = [chain(m, c) for m, c in e.num.items()]
        if len(e.den) == 1 and e.den.get(_ONE_MONO) == 1:
            return num, None
        return num, tuple(chain(m, c) for m, c in e.den.items())

    def code(e: Expr) -> str:
        # an exp or ln argument, compiled while the terms are collected,
        # before any prefix is counted
        num, den = sides(e)
        return ratio(total(num), den)

    parts = [sides(e) for e in exprs]
    dens = dict.fromkeys(den for _, den in parts if den is not None)
    for sums in [num for num, _ in parts] + list(dens):
        for _, ops in sums:
            for j in range(2, len(ops) + 1):
                shared[ops[:j]] = shared.get(ops[:j], 0) + 1
    body = "".join(f"{ratio(total(num), den)}, " for num, den in parts)
    head, unpacked = [], []
    for p in params:
        if isinstance(p, str):
            head.append(names[p])
        else:
            head.append(f"_s{len(head)}")
            unpacked.append(f"    [{', '.join(names[n] for n in p)}] = {head[-1]}\n")
    lines = [f"    {name} = {c}\n" for c, name in hoisted.items()]
    src = (f"def _compiled({', '.join(head)}):\n" + "".join(unpacked)
           + "".join(lines) + f"    return ({body})\n")
    scope = {"_exp": math.exp, "_log": math.log}
    exec(src, scope)
    return scope["_compiled"]


# -- total derivatives over a jet space ---------------------------------------


class JetSpace:
    """Naming scheme for jet symbols of dependent variables.

    First-order jets are named ``u_d`` and second-order jets ``u_dd'`` with
    the direction suffix kept sorted so mixed partials are represented once.
    """

    def __init__(self, independents: Sequence[str], dependents: Sequence[str]):
        self.independents = tuple(independents)
        self.dependents = tuple(dependents)

    def jet(self, u: str, *dirs: str) -> str:
        suffix = "".join(sorted(dirs))
        return f"{u}_{suffix}"

    def split_jet(self, name: str):
        if "_" not in name:
            return None
        base, suffix = name.rsplit("_", 1)
        if base in self.dependents and suffix and \
                all(ch in self.independents for ch in suffix):
            return base, suffix
        return None

    def total_derivative(self, e: Expr, direction: str) -> Expr:
        if direction not in self.independents:
            raise ValueError(f"unknown direction '{direction}'")
        out = diff(e, direction)
        for name in sorted(e.atoms()):
            if name == direction:
                continue
            if name in self.dependents:
                out = out + Expr.symbol(self.jet(name, direction)) * diff(e, name)
                continue
            parts = self.split_jet(name)
            if parts is not None:
                base, suffix = parts
                higher = self.jet(base, *(list(suffix) + [direction]))
                out = out + Expr.symbol(higher) * diff(e, name)
        return out


# -- monomial collection -------------------------------------------------------


def collect(e: Expr, basis: Iterable[str]) -> dict:
    """Decompose ``e`` as a Laurent polynomial in the basis symbols.

    Returns a map from basis monomial (tuple of (name, exponent), sorted by
    name) to coefficient Expr.  The denominator and every exp/ln argument must
    be free of basis symbols, otherwise the expression is not polynomial in
    the requested sense and NonPolynomialError is raised.
    """
    basis = set(basis)
    den_syms = Expr(dict(e.den), {_ONE_MONO: 1}).atoms()
    if basis & den_syms:
        raise NonPolynomialError(
            f"denominator contains basis symbols: {sorted(basis & den_syms)}")
    groups: dict = {}
    for (packed, eid), c in e.num.items():
        key_parts = []
        rest = packed
        for a, k in _atoms(packed):
            if a[0] == "s" and a[1] in basis:
                key_parts.append((a[1], k))
                rest -= k * _UNITS[a]
            else:
                inner = a[1].atoms() if a[0] == "ln" else set()
                if inner & basis:
                    raise NonPolynomialError(
                        f"ln argument contains basis symbols: {sorted(inner & basis)}")
        if eid and _EXP_ARGS[eid].atoms() & basis:
            raise NonPolynomialError("exp argument contains basis symbols")
        key = tuple(sorted(key_parts))
        mono = (rest, eid)
        groups.setdefault(key, {})
        g = groups[key]
        g[mono] = g.get(mono, 0) + c
    den = Expr(dict(e.den), {_ONE_MONO: 1})
    out = {}
    for key, poly in groups.items():
        poly = {m: _exact(c) for m, c in poly.items() if c}
        if poly:
            out[key] = Expr(poly, {_ONE_MONO: 1}) / den
    return out


# -- exact linear algebra -------------------------------------------------------


def rref(matrix: Iterable[Sequence[Fraction]], ncols: int,
         modulus: int = None) -> tuple:
    """Exact reduced row echelon form, pivoting on the first ``ncols`` columns.

    Entries must be ``Fraction`` (or int); any columns past ``ncols`` are
    carried along as an augmented part.  With a prime ``modulus`` the
    reduction runs over the integers mod that prime instead, and every entry
    returned is an int in [0, modulus).  Rows are reduced one at a time
    against the pivot rows found so far, so dependent rows are dropped as
    they arrive.  Returns ``(rows, pivots)``: ``rows[i]`` for
    ``i < len(pivots)`` is the pivot row of column ``pivots[i]``
    (increasing), followed by the nonzero rows that vanish on the first
    ``ncols`` columns.  The pivot rows are unique for the fixed column order
    whenever those trailing rows are absent.
    """
    pivots: dict = {}  # pivot column -> (row, its nonzero (column, value) pairs)
    rest = []
    for row in matrix:
        row = list(row) if modulus is None else [_residue(v, modulus) for v in row]
        # pivot rows are zero on every other pivot column, so eliminating
        # them in any order leaves the row zero on all pivot columns
        for c, (_, support) in pivots.items():
            f = row[c]
            if f:
                for j, b in support:
                    row[j] -= f * b
        row = _reduced(row, modulus)
        lead = next((c for c in range(ncols) if row[c]), None)
        if lead is None:
            if any(row):
                rest.append(row)
            continue
        pv = row[lead]
        inv = Fraction(1) / pv if modulus is None else pow(pv, -1, modulus)
        row = _reduced([v * inv for v in row], modulus)
        for c in list(pivots):
            prow = pivots[c][0]
            f = prow[lead]
            if f:
                pivots[c] = _with_support(
                    _reduced([a - f * b for a, b in zip(prow, row)], modulus))
        pivots[lead] = _with_support(row)
    order = sorted(pivots)
    return [pivots[c][0] for c in order] + rest, order


def _residue(v, modulus: int) -> int:
    """v mod a prime, an int in [0, modulus); DomainError if the
    denominator of v is 0 mod that prime."""
    if type(v) is int:
        return v % modulus
    if type(v) is not Fraction:
        v = Fraction(v)
    den = v.denominator % modulus
    if not den:
        raise DomainError("denominator is 0 mod p")
    return v.numerator * pow(den, -1, modulus) % modulus


def _reduced(row: list, modulus: int | None) -> list:
    return row if modulus is None else [v % modulus for v in row]


def _with_support(row: list) -> tuple:
    return row, [(j, v) for j, v in enumerate(row) if v]


def nullspace(rows: Sequence[Mapping[str, Fraction]], unknowns: Sequence[str],
              modulus: int = None) -> list:
    """Exact rational basis of the solution space of homogeneous linear forms.

    Each row maps unknown names to rational coefficients.  The basis is
    produced from the reduced row echelon form with free variables set to one
    in the fixed unknown order, so the output ordering is deterministic.
    With a prime ``modulus`` the forms are reduced mod that prime and the
    basis entries are ints in [0, modulus) (see ``rational_reconstruction``).
    """
    cols = list(unknowns)
    index = {u: i for i, u in enumerate(cols)}
    entry = Fraction if modulus is None else functools.partial(_residue, modulus=modulus)
    mat = []
    for row in rows:
        vec = [entry(0)] * len(cols)
        for name, c in row.items():
            if name not in index:
                raise KeyError(f"row references unknown '{name}'")
            vec[index[name]] = entry(c)
        mat.append(vec)
    reduced, pivots = rref(mat, len(cols), modulus)
    zero, one = (Fraction(0), Fraction(1)) if modulus is None else (0, 1)
    basis = []
    for fc in sorted(set(range(len(cols))) - set(pivots)):
        vec = [zero] * len(cols)
        vec[fc] = one
        for prow, pc in zip(reduced, pivots):
            vec[pc] = -prow[fc] if modulus is None else -prow[fc] % modulus
        basis.append({cols[j]: vec[j] for j in range(len(cols)) if vec[j]})
    return basis


def rational_reconstruction(a: int, modulus: int) -> Fraction | None:
    """The fraction r/s with |r|, s <= sqrt(modulus/2) and r = a*s mod
    ``modulus``, or None if there is none (Wang's extended-Euclid bound)."""
    bound = math.isqrt(modulus // 2)
    r0, r1, s0, s1 = modulus, a % modulus, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > bound or math.gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


# -- printing -------------------------------------------------------------------


def _frac_text(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"({c.numerator}/{c.denominator})"


def _mono_text(mono, coeff: Fraction) -> str:
    atoms, exparg = unpack(mono)
    parts = []
    neg = coeff < 0
    c = -coeff if neg else coeff
    if c != 1 or (not atoms and exparg is None):
        parts.append(_frac_text(c))
    for a, e in atoms:
        base = a[1] if a[0] == "s" else f"ln({to_text(a[1])})"
        parts.append(base if e == 1 else f"{base}^{e}")
    if exparg is not None:
        parts.append(f"exp({to_text(exparg)})")
    body = "*".join(parts)
    return ("-" + body) if neg else body


def _poly_text(p: dict) -> str:
    if not p:
        return "0"
    terms = sorted(p.items(), key=lambda it: _mono_sort_key(it[0]), reverse=True)
    out = _mono_text(*terms[0])
    for m, c in terms[1:]:
        piece = _mono_text(m, c)
        out += (" - " + piece[1:]) if piece.startswith("-") else (" + " + piece)
    return out


def to_text(e: Expr) -> str:
    """Deterministic plain-text infix form; parse(to_text(e)) == e."""
    num = _poly_text(e.num)
    if len(e.den) == 1 and _ONE_MONO in e.den and e.den[_ONE_MONO] == 1:
        return num
    return f"({num})/({_poly_text(e.den)})"


# -- parsing --------------------------------------------------------------------


_FUNCTIONS = {"exp": exp, "ln": ln, "sinh": sinh, "cosh": cosh, "tanh": tanh}


def _rational_power(base: Expr, exponent: Expr) -> Expr:
    if exponent.is_rational():
        f = exponent.as_fraction()
        return base ** (int(f) if f.denominator == 1 else f)
    return base ** exponent


_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: _rational_power}


def parse(text: str) -> Expr:
    """Read the infix text form back; parse(to_text(e)) == e.

    The grammar is Python's expression grammar with ``^`` read as ``**``,
    restricted to binary ``+ - * / ^``, unary ``+`` and ``-``, integer
    literals, names (symbols) and one-argument calls of exp, ln, sinh, cosh
    and tanh.  Precedence is Python's: ``-x^2`` is ``-(x^2)`` and ``^``
    groups to the right.  A rational exponent is applied as an int or a
    Fraction.  Anything else, or nesting past the recursion limit (a sum of
    about a thousand terms), raises ValueError.  The syntax tree is walked,
    never evaluated.
    """
    try:
        return _read(ast.parse(text.replace("^", "**").strip(), mode="eval").body)
    except (SyntaxError, RecursionError) as err:
        raise ValueError(f"cannot parse {text!r}: {err}") from None


def _read(node: ast.AST) -> Expr:
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return _BINARY[type(node.op)](_read(node.left), _read(node.right))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        arg = _read(node.operand)
        return -arg if isinstance(node.op, ast.USub) else arg
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return Expr.number(node.value)
    if isinstance(node, ast.Name) and node.id not in _FUNCTIONS:
        return Expr.symbol(node.id)
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _FUNCTIONS and len(node.args) == 1
            and not node.keywords and not isinstance(node.args[0], ast.Starred)):
        return _FUNCTIONS[node.func.id](_read(node.args[0]))
    raise ValueError(f"unsupported expression {ast.unparse(node)!r}")
