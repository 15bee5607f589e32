"""Coefficient rings with exact arithmetic and the binomial operator.

Three rings are supported: the integers, the rationals, and sparse
multivariate polynomials over the rationals. Elements are plain values
(int, Fraction, Poly); the Ring object is the tag that coerces, formats
and samples them, and supplies binom(a, k), the operator that makes each
of these rings a binomial domain: binom(a, k) is the unique ring solution
of a(a-1)...(a-k+1) = x * k!.

Integer-valued polynomials are handled through the binomial-product basis:
an integer coefficient table keyed by per-variable binomial degrees, which
evaluates inside any binomial ring without leaving it (BinomialTable).
evaluate_tables is the one evaluator of such tables: it takes a set of them
at one point and computes each binom(point[v], r) once for the whole set.
The number rings override binom with integer arithmetic (math.comb, one
falling factorial); the generic loop serves polynomials and the fallbacks.
"""

from __future__ import annotations

import math
import re
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache, reduce
from operator import or_

from .errors import (
    ArityMismatchError,
    MixedRingsError,
    NonBinomialError,
    NonIntegerCoefficientError,
    NotInRingError,
    ScaleLimitError,
)


EXPONENT_BITS = 8  # width of one variable's field in a packed monomial key
MAX_EXPONENT = (1 << (EXPONENT_BITS - 1)) - 1  # 127: the top bit of every field stays clear
_FIELD = (1 << EXPONENT_BITS) - 1


@lru_cache(maxsize=None)
def _guard_mask(nv: int) -> int:
    """The top bit of each of nv fields: set in a key only past MAX_EXPONENT."""
    top = 1 << (EXPONENT_BITS - 1)
    return sum(top << (EXPONENT_BITS * i) for i in range(nv))


def _pack(exps, nv: int) -> int:
    """The packed key of an exponent tuple, checked: nv nonnegative ints <= MAX_EXPONENT."""
    e = tuple(exps)
    if len(e) != nv:
        raise ArityMismatchError(f"exponent tuple {e} does not match {nv} variables")
    key = 0
    for i, d in enumerate(e):
        if not isinstance(d, int) or d < 0:
            raise ArityMismatchError(f"exponent {d!r} in {e} is not a nonnegative integer")
        if d > MAX_EXPONENT:
            raise ScaleLimitError(f"exponent {d} in {e} exceeds MAX_EXPONENT = {MAX_EXPONENT}")
        key |= d << (EXPONENT_BITS * i)
    return key


def _unpack(key: int, nv: int) -> tuple:
    return tuple((key >> (EXPONENT_BITS * i)) & _FIELD for i in range(nv))


def _reduced(variables, num: dict, den: int) -> "Poly":
    """A Poly from nonzero numerators over den > 0, their common factor divided out."""
    if den != 1:
        g = math.gcd(den, *num.values())
        if g != 1:
            num = {k: c // g for k, c in num.items()}
            den //= g
    return Poly._trusted(variables, num, den)


class Poly:
    """Sparse multivariate polynomial over Q.

    A monomial is one packed integer key: the exponent of variable i sits in
    bits [8i, 8i + 8), so the key of a product of monomials is the sum of
    their keys. Exponents are at most MAX_EXPONENT, which keeps the top bit
    of every field clear: a sum of two keys never carries into the next
    variable, and a product past the limit shows as a guard bit and raises
    ScaleLimitError. Coefficients are integer numerators over one common
    denominator, positive and reduced against them; zero numerators are
    dropped, so equality is structural. `terms` is the dense view, exponent
    tuples to Fraction coefficients.
    """

    __slots__ = ("vars", "_num", "_den")

    def __init__(self, variables, terms):
        self.vars = tuple(variables)
        nv = len(self.vars)
        fracs = {}
        for exps, coeff in terms.items():
            c = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
            if c:
                fracs[_pack(exps, nv)] = c
        den = math.lcm(*(c.denominator for c in fracs.values()))
        self._num = {k: c.numerator * (den // c.denominator) for k, c in fracs.items()}
        self._den = den

    @classmethod
    def _trusted(cls, variables, num, den):
        """Wrap as is: keys within the limit, no zero numerator, den positive and reduced."""
        p = cls.__new__(cls)
        p.vars = variables
        p._num = num
        p._den = den
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, variables, value):
        c = Fraction(value)
        return cls._trusted(tuple(variables), {0: c.numerator} if c else {}, c.denominator)

    @classmethod
    def variable(cls, variables, name):
        variables = tuple(variables)
        idx = variables.index(name)
        return cls._trusted(variables, {1 << (EXPONENT_BITS * idx): 1}, 1)

    @property
    def terms(self) -> dict:
        nv = len(self.vars)
        den = self._den
        return {_unpack(k, nv): Fraction(c, den) for k, c in self._num.items()}

    # -- ring structure ----------------------------------------------------

    def _check(self, other):
        if self.vars is not other.vars and self.vars != other.vars:
            raise MixedRingsError(
                f"polynomials over {self.vars} and {other.vars} cannot mix"
            )

    def _as_poly(self, other):
        if isinstance(other, Poly):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.constant(self.vars, other)
        return None

    def _add(self, other, sign):
        """self + sign * other for a Poly other over the same variables."""
        da, db = self._den, other._den
        if da == db:
            out = dict(self._num)
            scale = sign
        else:
            g = math.gcd(da, db)
            fa = db // g
            out = {k: c * fa for k, c in self._num.items()}
            scale = sign * (da // g)
            da *= fa
        get = out.get
        for k, c in other._num.items():
            s = get(k, 0) + c * scale
            if s:
                out[k] = s
            else:
                del out[k]
        return _reduced(self.vars, out, da)

    def _add_int(self, n):
        # n * den changes one numerator by a multiple of den: still reduced
        if not n:
            return self
        out = dict(self._num)
        s = out.get(0, 0) + n * self._den
        if s:
            out[0] = s
        else:
            del out[0]
        return Poly._trusted(self.vars, out, self._den)

    def __add__(self, other):
        if isinstance(other, int):
            return self._add_int(other)
        o = self._as_poly(other)
        if o is None:
            return NotImplemented
        return self._add(o, 1)

    __radd__ = __add__

    def __neg__(self):
        return Poly._trusted(self.vars, {k: -c for k, c in self._num.items()}, self._den)

    def __sub__(self, other):
        if isinstance(other, int):
            return self._add_int(-other)
        o = self._as_poly(other)
        if o is None:
            return NotImplemented
        return self._add(o, -1)

    def __rsub__(self, other):
        return (-self) + other

    def _scale(self, n, d):
        """self * n / d for coprime ints n, d > 0."""
        if not n:
            return Poly._trusted(self.vars, {}, 1)
        den = self._den
        if d != 1:
            return _reduced(self.vars, {k: c * n for k, c in self._num.items()}, den * d)
        if n == 1:
            return self
        # gcd(num, den) = 1 and gcd(n / g, den / g) = 1 keep the result reduced
        g = math.gcd(n, den)
        if g != 1:
            n //= g
            den //= g
        return Poly._trusted(self.vars, {k: c * n for k, c in self._num.items()}, den)

    def __mul__(self, other):
        if isinstance(other, int):
            return self._scale(other, 1)
        if isinstance(other, Fraction):
            return self._scale(other.numerator, other.denominator)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        small, big = self._num, other._num
        if len(small) > len(big):
            small, big = big, small
        if len(small) == 1:
            (k1, c1), = small.items()
            out = {k1 + k: c1 * c for k, c in big.items()}
        else:
            out = {}
            get = out.get
            items = list(big.items())
            for k1, c1 in small.items():
                for k2, c2 in items:
                    k = k1 + k2
                    out[k] = get(k, 0) + c1 * c2
            out = {k: c for k, c in out.items() if c}
        if out and reduce(or_, out) & _guard_mask(len(self.vars)):
            raise ScaleLimitError(f"a product exponent exceeds MAX_EXPONENT = {MAX_EXPONENT}")
        return _reduced(self.vars, out, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers take nonnegative integer exponents")
        result = Poly._trusted(self.vars, {0: 1}, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, Poly):
            return (
                self.vars == other.vars
                and self._den == other._den
                and self._num == other._num
            )
        if isinstance(other, (int, Fraction)):
            if not self._num:
                return other == 0
            return self._den == other.denominator and self._num == {0: other.numerator}
        return NotImplemented

    __hash__ = None  # compared by value; never used as a key

    def __bool__(self):
        return bool(self._num)

    # -- queries and rewriting ---------------------------------------------

    def total_degree(self):
        nv = len(self.vars)
        return max((sum(_unpack(k, nv)) for k in self._num), default=0)

    def is_constant(self):
        return not any(self._num)

    def constant_value(self) -> Fraction:
        return Fraction(self._num.get(0, 0), self._den)

    def evaluate(self, point):
        """Evaluate at a point of arbitrary values supporting + and *.

        The integer numerators are summed first and divided by the common
        denominator once; callers coerce the result.
        """
        if len(point) != len(self.vars):
            raise ArityMismatchError(
                f"point of length {len(point)} for {len(self.vars)} variables"
            )
        if not self._num:
            return 0
        power_cache: dict = {}

        def pw(i, n):
            key = (i, n)
            got = power_cache.get(key)
            if got is None:
                got = point[i] if n == 1 else pw(i, n - 1) * point[i]
                power_cache[key] = got
            return got

        total = 0
        for k, c in self._num.items():
            term = c
            while k:
                # lowest nonzero field first, so variables come in index order
                i = ((k & -k).bit_length() - 1) // EXPONENT_BITS
                d = (k >> (EXPONENT_BITS * i)) & _FIELD
                k -= d << (EXPONENT_BITS * i)
                term = term * pw(i, d)
            total = total + term
        return total * Fraction(1, self._den)

    def __repr__(self):
        if not self._num:
            return "Poly(0)"
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(
                f"{self.vars[i]}^{d}" if d > 1 else self.vars[i]
                for i, d in enumerate(e)
                if d
            )
            bits.append(f"{c}*{mono}" if mono else f"{c}")
        return "Poly(" + " + ".join(bits) + ")"


# -- ring descriptors --------------------------------------------------------


class Ring:
    """Tag object for a coefficient ring; elements are plain values."""

    name = "?"

    @property
    def zero(self):
        return self.from_int(0)

    @property
    def one(self):
        return self.from_int(1)

    def from_int(self, n: int):
        raise NotImplementedError

    def coerce(self, x):
        raise NotImplementedError

    def _div_by_factorial(self, x, k: int):
        raise NotImplementedError

    def binom(self, a, k: int):
        """The unique solution of a(a-1)...(a-k+1) = x * k! in this ring."""
        if not isinstance(k, int) or k < 0:
            raise ValueError("binom needs a nonnegative integer k")
        if k == 0:
            return self.one
        a = self.coerce(a)
        prod = a
        for i in range(1, k):
            prod = prod * (a - i)
        return self._div_by_factorial(prod, k)

    def random_element(self, rng, lo=-9, hi=9):
        raise NotImplementedError

    def format(self, a) -> str:
        try:
            return str(self.coerce(a))
        except ValueError:  # an int of more digits than sys.get_int_max_str_digits()
            raise ScaleLimitError(f"a value in {self.name} has too many digits to write") from None

    def parse(self, s: str):
        raise NotInRingError(f"ring {self.name} has no string form")

    def __repr__(self):
        return f"Ring({self.name})"


# the forms format writes: ASCII digits after an optional minus, then "/q" for a non-integer
_NUMBER = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _int_binom(a: int, k: int) -> int:
    """binom(a, k) for an int a and an int k >= 0; binom(-a, k) = (-1)^k binom(a + k - 1, k)."""
    if a >= 0:
        return math.comb(a, k)
    b = math.comb(k - a - 1, k)
    return -b if k & 1 else b


def _parse_int(s: str) -> int:
    """int(s) for a string of ASCII digits; ScaleLimitError where Python refuses that many."""
    try:
        return int(s)
    except ValueError:
        raise ScaleLimitError(f"an integer of {len(s)} digits is too long to read") from None


class IntegerRing(Ring):
    name = "Z"

    def from_int(self, n):
        return int(n)

    def coerce(self, x):
        if isinstance(x, bool):
            return int(x)
        if isinstance(x, int):
            return x
        if isinstance(x, Fraction):
            if x.denominator == 1:
                return int(x)
            raise NotInRingError(f"{x} is not an integer")
        if isinstance(x, Poly) and x.is_constant():
            return self.coerce(x.constant_value())
        raise NotInRingError(f"{x!r} is not an integer")

    def _div_by_factorial(self, x, k):
        q, r = divmod(x, math.factorial(k))
        if r:
            raise NonBinomialError(f"{x} is not divisible by {k}!")
        return q

    def binom(self, a, k: int):
        """math.comb for int arguments; the generic loop coerces and checks the rest."""
        if type(a) is int and type(k) is int and k >= 0:
            return _int_binom(a, k)
        return super().binom(a, k)

    def random_element(self, rng, lo=-9, hi=9):
        return rng.randint(lo, hi)

    def parse(self, s):
        """The integer a string of ASCII digits with an optional leading minus writes."""
        found = _NUMBER.fullmatch(s)
        if not found or found[2] is not None:
            raise NotInRingError(f"{s!r} is not an integer")
        return _parse_int(s)


class RationalRing(Ring):
    name = "Q"

    def from_int(self, n):
        return Fraction(n)

    def coerce(self, x):
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        if isinstance(x, Poly) and x.is_constant():
            return x.constant_value()
        raise NotInRingError(f"{x!r} is not a rational")

    def _div_by_factorial(self, x, k):
        return x / math.factorial(k)

    def binom(self, a, k: int):
        """For a = p/q: one integer falling factorial prod_i (p - iq) over q^k k!."""
        if type(a) in (int, Fraction) and type(k) is int and k >= 0:
            p, q = a.numerator, a.denominator
            if q == 1:
                return Fraction(_int_binom(p, k))
            num = 1
            for i in range(k):
                num *= p - i * q
            return Fraction(num, q**k * math.factorial(k))
        return super().binom(a, k)

    def random_element(self, rng, lo=-9, hi=9):
        return Fraction(rng.randint(lo, hi), rng.randint(1, 4))

    def parse(self, s):
        """The rational an integer string or a "p/q" string with q > 0 writes."""
        found = _NUMBER.fullmatch(s)
        den = _parse_int(found[2] or "1") if found else 0
        if not den:
            raise NotInRingError(f"{s!r} is not a rational")
        return Fraction(_parse_int(found[1]), den)


class PolyRing(Ring):
    """Q[x1, ..., xn] with a fixed ordered variable list."""

    def __init__(self, variables):
        self.vars = tuple(variables)
        if len(set(self.vars)) != len(self.vars):
            raise ValueError("duplicate variable names")
        self.name = "Q[" + ",".join(self.vars) + "]"

    def from_int(self, n):
        return Poly.constant(self.vars, n)

    def variable(self, name):
        return Poly.variable(self.vars, name)

    def coerce(self, x):
        if isinstance(x, Poly):
            if x.vars != self.vars:
                raise MixedRingsError(
                    f"polynomial over {x.vars} does not live in {self.name}"
                )
            return x
        if isinstance(x, (int, Fraction)):
            return Poly.constant(self.vars, x)
        raise NotInRingError(f"{x!r} is not in {self.name}")

    def _div_by_factorial(self, x, k):
        return x * Fraction(1, math.factorial(k))

    def random_element(self, rng, lo=-3, hi=3):
        # small sparse polynomials keep the property suites fast
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exps = [0] * len(self.vars)
            for _ in range(rng.randint(0, 2)):
                exps[rng.randrange(len(self.vars))] += 1
            terms[tuple(exps)] = Fraction(rng.randint(lo, hi))
        return Poly(self.vars, terms)

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self.vars == other.vars

    def __hash__(self):
        return hash(("PolyRing", self.vars))


ZZ = IntegerRing()
QQ = RationalRing()


# -- integer binomial-basis forms --------------------------------------------


# Each distinct (variable, degree) pair, each distinct tuple of them and each
# distinct tuple of those is stored once and shared by every table, as interned
# strings are: derived tables repeat them heavily (at (3,4) the product tables
# hold 481 keys, 335 of them distinct).
_KEYS: dict = {}


def _interned(key):
    return _KEYS.setdefault(key, key)


def _int_coeff(c, degrees) -> int:
    """c as an int: an int, or a Fraction of denominator 1; NonIntegerCoefficientError else."""
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return c.numerator
    elif isinstance(c, int):
        return int(c)
    raise NonIntegerCoefficientError(f"table coefficient {c!r} at {degrees} is not an integer")


class BinomialTable:
    """Integer coefficients over the binomial-product basis, fixed arity.

    Stored sparsely in two parallel tuples: keys[j] lists the nonzero degrees
    of term j as a tuple of interned (variable, degree) pairs, and values[j]
    is its int coefficient. `coeffs` is the dense view, a tuple of (degree
    tuple, int) pairs; from_dict sorts it. The terms are checked once, on
    construction: each degree is an int from 0 to MAX_EXPONENT, the bound
    Poly puts on its exponents; each coefficient is an integer (an int or an
    integral Fraction, stored as int), else NonIntegerCoefficientError; and
    no degree tuple comes twice, else ArityMismatchError. Evaluation is
    evaluate_tables, which reads the pairs directly.
    """

    __slots__ = ("arity", "keys", "values")

    def __init__(self, arity, coeffs):
        if isinstance(coeffs, Mapping):
            raise ArityMismatchError(
                "BinomialTable takes (degrees, coefficient) pairs, not a mapping; "
                "use BinomialTable.from_dict for a dict"
            )
        keys = []
        values = []
        seen = set()
        for exps, c in coeffs:
            e = tuple(exps)
            if len(e) != arity:
                raise ArityMismatchError(f"key {e} in table of arity {arity}")
            factors = []
            for v, r in enumerate(e):
                if type(r) is not int or r < 0:
                    raise ArityMismatchError(
                        f"binomial degree {r!r} in {e} is not a nonnegative integer"
                    )
                if r > MAX_EXPONENT:
                    raise ScaleLimitError(
                        f"binomial degree {r} in {e} exceeds MAX_EXPONENT = {MAX_EXPONENT}"
                    )
                if r:
                    factors.append(_interned((v, r)))
            if e in seen:
                raise ArityMismatchError(f"degrees {e} come twice in one table")
            seen.add(e)
            keys.append(_interned(tuple(factors)))
            values.append(_int_coeff(c, e))
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "keys", _interned(tuple(keys)))
        object.__setattr__(self, "values", tuple(values))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable BinomialTable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return (BinomialTable, (self.arity, self.coeffs))

    @classmethod
    def from_dict(cls, arity, table):
        return cls(arity, sorted((tuple(e), c) for e, c in table.items() if c))

    @property
    def coeffs(self) -> tuple:
        out = []
        for key, c in zip(self.keys, self.values):
            e = [0] * self.arity
            for v, r in key:
                e[v] = r
            out.append((tuple(e), c))
        return tuple(out)

    def as_dict(self):
        return dict(self.coeffs)

    def evaluate(self, point, ring: Ring):
        """This table at one point: evaluate_tables of the one-table set."""
        return evaluate_tables((self,), point, ring)[0]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.arity, self.keys, self.values) == (other.arity, other.keys, other.values)

    def __hash__(self):
        return hash((self.arity, self.coeffs))

    def __repr__(self):
        return f"BinomialTable(arity={self.arity!r}, coeffs={self.coeffs!r})"


def evaluate_tables(tables, point, ring: Ring) -> list:
    """The value of each table at one point, in order, every value in `ring`.

    Each binom(point[v], r) is computed once and shared by the whole set.
    Each term starts from its int coefficient and is multiplied by its
    binomials; the sum starts at ring.zero, so the values have the ring's
    type even for an empty or a constant-only table. Raises
    ArityMismatchError, naming the first table whose arity is not
    len(point), before evaluating anything.
    """
    n = len(point)
    for t in tables:
        if t.arity != n:
            raise ArityMismatchError(f"point of length {n} for arity {t.arity}")
    binoms: dict = {}
    get = binoms.get
    binom = ring.binom
    zero = ring.zero
    out = []
    for t in tables:
        total = zero
        for key, c in zip(t.keys, t.values):
            for vr in key:
                b = get(vr)
                if b is None:
                    b = binoms[vr] = binom(point[vr[0]], vr[1])
                c = c * b
            total = total + c
        out.append(total)
    return out
