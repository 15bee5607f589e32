"""Coefficient rings with exact arithmetic and the binomial operator.

Three rings are supported: the integers, the rationals, and sparse
multivariate polynomials over the rationals. Elements are plain values
(int, Fraction, Poly); the Ring object is the tag that coerces, formats
and samples them, and supplies binom(a, k), the operator that makes each
of these rings a binomial domain: binom(a, k) is the unique ring solution
of a(a-1)...(a-k+1) = x * k!.

Integer-valued polynomials are handled through the binomial-product basis:
an integer coefficient table keyed by per-variable binomial degrees, which
evaluates inside any binomial ring without leaving it (eval_binomial_form).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import (
    ArityMismatchError,
    MixedRingsError,
    NonBinomialError,
    NotInRingError,
)


class Poly:
    """Sparse multivariate polynomial over Q.

    Terms live in a dict mapping exponent tuples (one slot per variable) to
    nonzero Fraction coefficients. Zero coefficients are dropped on
    construction, so equality is structural.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables, terms):
        self.vars = tuple(variables)
        clean = {}
        nv = len(self.vars)
        for exps, coeff in terms.items():
            c = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
            if not c:
                continue
            e = tuple(exps)
            if len(e) != nv:
                raise ArityMismatchError(
                    f"exponent tuple {e} does not match {nv} variables"
                )
            clean[e] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, variables, value):
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): Fraction(value)})

    @classmethod
    def variable(cls, variables, name):
        variables = tuple(variables)
        idx = variables.index(name)
        exps = [0] * len(variables)
        exps[idx] = 1
        return cls(variables, {tuple(exps): Fraction(1)})

    # -- ring structure ----------------------------------------------------

    def _check(self, other):
        if self.vars != other.vars:
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

    def __add__(self, other):
        o = self._as_poly(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in o.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return Poly(self.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        o = self._as_poly(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Poly(self.vars, {})
            return Poly(self.vars, {e: c * other for e, c in self.terms.items()})
        o = self._as_poly(other)
        if o is None:
            return NotImplemented
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                prev = out.get(e)
                prod = c1 * c2
                out[e] = prod if prev is None else prev + prod
        return Poly(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers take nonnegative integer exponents")
        result = Poly.constant(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.vars == other.vars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            if not self.terms:
                return other == 0
            return self.terms == {(0,) * len(self.vars): Fraction(other)}
        return NotImplemented

    __hash__ = None  # mutable dict inside; never used as a key

    def __bool__(self):
        return bool(self.terms)

    # -- queries and rewriting ---------------------------------------------

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def degree_in(self, index):
        return max((e[index] for e in self.terms), default=0)

    def is_constant(self):
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> Fraction:
        return self.terms.get((0,) * len(self.vars), Fraction(0))

    def at_zero(self, index):
        """Keep only the terms with zero exponent in the given variable."""
        return Poly(self.vars, {e: c for e, c in self.terms.items() if not e[index]})

    def shift(self, index):
        """Substitute variable[index] -> variable[index] + 1."""
        out: dict = {}
        for e, c in self.terms.items():
            d = e[index]
            if not d:
                out[e] = out.get(e, Fraction(0)) + c
                continue
            for t in range(d + 1):
                ne = e[:index] + (t,) + e[index + 1 :]
                out[ne] = out.get(ne, Fraction(0)) + c * math.comb(d, t)
        return Poly(self.vars, out)

    def evaluate(self, point):
        """Evaluate at a point of arbitrary values supporting + and *.

        Individual terms may leave the target ring (the Fraction coefficients
        are not integers in general); callers coerce the final sum.
        """
        if len(point) != len(self.vars):
            raise ArityMismatchError(
                f"point of length {len(point)} for {len(self.vars)} variables"
            )
        power_cache: dict = {}

        def pw(i, n):
            key = (i, n)
            got = power_cache.get(key)
            if got is None:
                got = point[i] if n == 1 else pw(i, n - 1) * point[i]
                power_cache[key] = got
            return got

        total = 0
        for e, c in self.terms.items():
            term = c
            for i, d in enumerate(e):
                if d:
                    term = term * pw(i, d)
            total = total + term
        return total

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        bits = []
        for e in sorted(self.terms):
            c = self.terms[e]
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
        return str(self.coerce(a))

    def parse(self, s: str):
        raise NotInRingError(f"ring {self.name} has no string form")

    def __repr__(self):
        return f"Ring({self.name})"


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

    def random_element(self, rng, lo=-9, hi=9):
        return rng.randint(lo, hi)

    def parse(self, s):
        try:
            return int(s)
        except ValueError as exc:
            raise NotInRingError(f"{s!r} is not an integer") from exc


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

    def random_element(self, rng, lo=-9, hi=9):
        return Fraction(rng.randint(lo, hi), rng.randint(1, 4))

    def parse(self, s):
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise NotInRingError(f"{s!r} is not a rational") from exc


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


def eval_binomial_form(coeffs: Mapping, point, ring: Ring):
    """Evaluate an integer table over the binomial-product basis.

    coeffs maps tuples of per-variable binomial degrees to integers; the value
    at a point (one ring element per variable) is
    sum_r coeffs[r] * prod_i binom(point[i], r_i). Keys shorter than the point
    are padded with zero degrees on the right. Because the coefficients are
    integers and binom stays inside the ring, evaluation never leaves it.
    """
    point = list(point)
    total = ring.zero
    for exps, c in coeffs.items():
        exps = tuple(exps)
        if len(exps) > len(point):
            raise ArityMismatchError(
                f"degree key {exps} is longer than point of length {len(point)}"
            )
        if any(r < 0 for r in exps):
            raise ArityMismatchError(f"negative binomial degree in {exps}")
        term = ring.from_int(int(c))
        for x, r in zip(point, exps):
            if r:
                term = term * ring.binom(x, r)
        total = total + term
    return total


@dataclass(frozen=True)
class BinomialTable:
    """Integer coefficients over the binomial-product basis, fixed arity."""

    arity: int
    coeffs: tuple  # sorted tuple of (degree tuple, int coefficient)

    @classmethod
    def from_dict(cls, arity, table):
        items = tuple(sorted((tuple(e), int(c)) for e, c in table.items() if c))
        for e, _ in items:
            if len(e) != arity:
                raise ArityMismatchError(f"key {e} in table of arity {arity}")
        return cls(arity, items)

    def as_dict(self):
        return dict(self.coeffs)

    def evaluate(self, point, ring: Ring):
        if len(point) != self.arity:
            raise ArityMismatchError(
                f"point of length {len(point)} for arity {self.arity}"
            )
        return eval_binomial_form(self.as_dict(), point, ring)

    def is_zero(self):
        return not self.coeffs


# -- polynomial serialization -------------------------------------------------


def poly_to_obj(p: Poly) -> dict:
    """JSON-ready form: variables header plus terms with decimal-string coefficients."""
    return {
        "variables": list(p.vars),
        "terms": [
            {
                "exps": list(e),
                "num": str(p.terms[e].numerator),
                "den": str(p.terms[e].denominator),
            }
            for e in sorted(p.terms)
        ],
    }


def poly_from_obj(obj: dict) -> Poly:
    variables = tuple(obj["variables"])
    terms = {}
    for t in obj["terms"]:
        terms[tuple(t["exps"])] = Fraction(int(t["num"]), int(t["den"]))
    return Poly(variables, terms)
