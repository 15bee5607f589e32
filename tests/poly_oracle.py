"""Reference code for the polynomial layer, kept only for the tests.

DensePoly is the earlier Poly: one dense exponent tuple per monomial and one
Fraction per coefficient, every result rebuilt through the checking
constructor. eval_binomial_form is the earlier library evaluator of a
binomial-basis table, one ring.binom per degree of every term, and the
reference for BinomialTable.evaluate. eval_tables_per_table is the later
one, each table alone with its own binomial memo and every term started
from ring.from_int, and the reference for rings.evaluate_tables; it takes
its binomials from the generic Ring.binom loop, not from the number rings'
own. DenseBinomialTable is the earlier
BinomialTable, a sorted tuple of (degree tuple, int) pairs evaluated through
eval_binomial_form, and dense_to_binomial_basis is the earlier
to_binomial_basis over DensePoly. poly_from_obj reads the JSON form of a
Poly, and canonical_polys_parse_check reads back every entry of a
`hallpoly --json` object; the command line writes these forms but never
reads them.
hallforge.rings and hallforge.canonical must give exactly what these give,
coefficient and value types included. The strategies at the end draw the
same polynomial as a Poly and as a DensePoly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from hypothesis import strategies as st

from hallforge.errors import ArityMismatchError, MixedRingsError, NonIntegerCoefficientError
from hallforge.jsonio import poly_to_obj, table_from_dict_obj, table_to_obj
from hallforge.rings import Poly, Ring


class DensePoly:
    """The earlier Poly: sparse multivariate polynomial over Q.

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
        if isinstance(other, DensePoly):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            return DensePoly.constant(self.vars, other)
        return None

    def __add__(self, other):
        o = self._as_poly(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in o.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return DensePoly(self.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return DensePoly(self.vars, {e: -c for e, c in self.terms.items()})

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
                return DensePoly(self.vars, {})
            return DensePoly(self.vars, {e: c * other for e, c in self.terms.items()})
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
        return DensePoly(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers take nonnegative integer exponents")
        result = DensePoly.constant(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, DensePoly):
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

    def is_constant(self):
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> Fraction:
        return self.terms.get((0,) * len(self.vars), Fraction(0))

    def at_zero(self, index):
        """Keep only the terms with zero exponent in the given variable."""
        return DensePoly(self.vars, {e: c for e, c in self.terms.items() if not e[index]})

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
        return DensePoly(self.vars, out)

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



def eval_binomial_form(coeffs, point, ring):
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


def eval_table(table, point, ring):
    """One BinomialTable at one point, read through its dense `coeffs` view."""
    if len(point) != table.arity:
        raise ArityMismatchError(
            f"point of length {len(point)} for arity {table.arity}"
        )
    binoms: dict = {}
    total = ring.zero
    for degrees, c in table.coeffs:
        term = ring.from_int(c)
        for v, r in enumerate(degrees):
            if r:
                b = binoms.get((v, r))
                if b is None:
                    b = binoms[(v, r)] = Ring.binom(ring, point[v], r)
                term = term * b
        total = total + term
    return total


def eval_tables_per_table(tables, point, ring) -> list:
    """Each table of a set evaluated alone, in order."""
    return [eval_table(t, point, ring) for t in tables]


@dataclass(frozen=True)
class DenseBinomialTable:
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


def dense_poly_to_obj(p: DensePoly) -> dict:
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


def canonical_polys_parse_check(obj: dict) -> bool:
    """Round-trip check: every polynomial entry parses back to equal data."""
    for key in ("p", "q"):
        arity = len(obj["mul_vars" if key == "p" else "pow_vars"])
        for item in obj[key]:
            poly = poly_from_obj(item["monomial"])
            if poly_to_obj(poly) != item["monomial"]:
                return False
            table = table_from_dict_obj(item["binomial"], arity)
            if table_to_obj(table) != item["binomial"]:
                return False
    return True


def dense_to_binomial_basis(poly: DensePoly) -> dict:
    """Integer coefficients of a polynomial over the binomial-product basis.

    Newton forward differencing per variable: the coefficient table entry at
    degrees (k_1..k_m) is (D_1^k_1 ... D_m^k_m poly) at the origin, where D_i
    is the finite difference in variable i. Raises if any entry is not an
    integer, i.e. if the polynomial is not integer-valued.
    """
    nv = len(poly.vars)
    out: dict = {}

    def expand(q: DensePoly, vi: int, prefix):
        if not q.terms:
            return
        if vi == nv:
            c = q.constant_value()
            if c.denominator != 1:
                raise NonIntegerCoefficientError(
                    f"binomial coefficient {c} at {tuple(prefix)} is not an integer"
                )
            out[tuple(prefix)] = int(c)
            return
        cur = q
        k = 0
        while cur.terms:
            expand(cur.at_zero(vi), vi + 1, prefix + [k])
            cur = cur.shift(vi) - cur
            k += 1

    expand(poly, 0, [])
    return out


# -- strategies -------------------------------------------------------------------

VARS = ("a", "b", "c")
POINT_VARS = ("s", "t")

COEFFS = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=6),
)


def _pair(variables, terms):
    return Poly(variables, terms), DensePoly(variables, terms)


def poly_pairs(variables=VARS, max_exp=3, max_size=6):
    """The same polynomial as (Poly, DensePoly); zero coefficients come up too."""
    exps = st.tuples(*[st.integers(0, max_exp)] * len(variables))
    return st.dictionaries(exps, COEFFS, max_size=max_size).map(
        lambda terms: _pair(variables, terms)
    )


def table_dicts(arity, max_degree=3, max_size=5):
    """Integer tables over the binomial-product basis, zero entries included."""
    keys = st.tuples(*[st.integers(0, max_degree)] * arity)
    return st.dictionaries(keys, st.integers(-4, 4), max_size=max_size)
