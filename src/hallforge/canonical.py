"""Canonical multiplication, power, and structure polynomials.

The coordinates of a product (or power) are polynomial in the coordinates of
the operands. Running the series engine once over a polynomial coefficient
ring with symbolic coordinates derives those polynomials exactly; they are
then converted to integer coefficient tables over the binomial-product basis
(each monomial expanded through Stirling numbers of the second kind), which
is the witness that they are integer-valued and lets them be evaluated inside
any binomial ring. The results keep only the tables: the polynomials are
views of them, rebuilt on first access.

Structure polynomials are the special case for [u_high^a, u_low^b]: the tail
exponents as polynomials in (a, b). They feed the word collector. The series
of u^a, u^-a, u^b and u^-b are built once per basic element straight from
their known coordinates, so each commutator costs three series products and
one self-checking extraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .basis import check_config_types
from .errors import NonIntegerCoefficientError, ScaleLimitError
from .group import FreeNilpotentGroup
from .rings import EXPONENT_BITS, _FIELD, BinomialTable, Poly, PolyRing, Ring, _unpack

DESK_SCALE_LIMIT = 7  # largest rank + class for symbolic derivation


def _check_scale(rank, nclass):
    check_config_types(rank, nclass)
    if rank + nclass > DESK_SCALE_LIMIT:
        raise ScaleLimitError(
            f"rank + class = {rank + nclass} exceeds the desk-scale limit "
            f"{DESK_SCALE_LIMIT} for symbolic derivation"
        )


@lru_cache(maxsize=None)
def _surjection_row(n: int) -> tuple:
    """The pairs (k, S(n,k) k!) for k = 1..n, n >= 1: x^n = sum_k S(n,k) k! binom(x, k).

    S(n,k) k! counts the surjections of an n-set onto a k-set, and satisfies
    T(n,k) = k (T(n-1,k-1) + T(n-1,k)) with T(0,0) = 1 (Stirling numbers of
    the second kind; Graham, Knuth & Patashnik, Concrete Mathematics, ch. 6).
    """
    row = [1]  # T(0, k) for k = 0..0
    for m in range(1, n + 1):
        row = [0] + [k * (row[k - 1] + (row[k] if k < m else 0)) for k in range(1, m + 1)]
    return tuple((k, t) for k, t in enumerate(row) if k)


@lru_cache(maxsize=None)
def _field_row(field: int, shift: int) -> tuple:
    """The row of one packed field (one variable's degree), its degrees packed alike."""
    return tuple((k << shift, t) for k, t in _surjection_row(field >> shift))


def to_binomial_basis(poly: Poly) -> dict:
    """Integer coefficients of a polynomial over the binomial-product basis.

    One pass over the packed monomials: each x_1^n_1 ... x_m^n_m expands as
    the product over its present variables of sum_k S(n_i,k) k! binom(x_i, k),
    and the products are summed, so absent variables are never visited. The
    table maps degree tuples to nonzero integers, in lexicographic order of
    the degrees. Raises NonIntegerCoefficientError, naming the
    lexicographically smallest offending degrees, if any entry is not an
    integer, i.e. if the polynomial is not integer-valued.
    """
    acc: dict = {}
    get = acc.get
    for key, c in poly._num.items():
        terms = [(0, c)]
        while key:
            # one present variable per step; its binomial degrees land in its own field
            shift = ((key & -key).bit_length() - 1) // EXPONENT_BITS * EXPONENT_BITS
            field = key & (_FIELD << shift)
            key -= field
            terms = [(b + k, v * t) for b, v in terms for k, t in _field_row(field, shift)]
        for b, v in terms:
            acc[b] = get(b, 0) + v
    nv = len(poly.vars)
    den = poly._den
    bad = [key for key, v in acc.items() if v % den]
    if bad:
        first = min(bad, key=lambda key: _unpack(key, nv))
        raise NonIntegerCoefficientError(
            f"binomial coefficient {Fraction(acc[first], den)} at "
            f"{_unpack(first, nv)} is not an integer"
        )
    return dict(sorted((_unpack(key, nv), v // den) for key, v in acc.items() if v))


def _table_polys(tables, variables) -> tuple:
    """The polynomials of binomial tables, as Polys over the given variables."""
    ring = PolyRing(variables)
    point = [ring.variable(v) for v in variables]
    return tuple(t.evaluate(point, ring) for t in tables)


@dataclass(frozen=True)
class CanonicalPolynomials:
    """Product and power polynomials for one (rank, class) configuration.

    Product variables are the first-operand coordinates then the second's, in
    flat basis order; power variables are the base coordinates then the single
    exponent variable, which is always last. Only the binomial tables are
    stored; `p` and `q` are read-only views of them as Polys, built on first
    access.
    """

    rank: int
    nclass: int
    mul_vars: tuple[str, ...]
    pow_vars: tuple[str, ...]
    p_tables: tuple[BinomialTable, ...]  # product coordinates, flat order
    q_tables: tuple[BinomialTable, ...]  # power coordinates, flat order

    @cached_property
    def p(self) -> tuple[Poly, ...]:
        return _table_polys(self.p_tables, self.mul_vars)

    @cached_property
    def q(self) -> tuple[Poly, ...]:
        return _table_polys(self.q_tables, self.pow_vars)

    def mul_coords(self, a_coords, b_coords, ring: Ring):
        point = list(a_coords) + list(b_coords)
        return tuple(t.evaluate(point, ring) for t in self.p_tables)

    def pow_coords(self, a_coords, exponent, ring: Ring):
        point = list(a_coords) + [exponent]
        return tuple(t.evaluate(point, ring) for t in self.q_tables)


def coordinate_names(basis, prefix: str):
    return tuple(f"{prefix}{i}_{j}" for (i, j) in basis.pairs)


# Equal derived tables are one object across all derivations, as equal degree
# keys are (rings._KEYS): at (3,4), 16 distinct tables serve all 152 structure
# tails, and deriving a configuration again adds no table. DESK_SCALE_LIMIT
# bounds how many there can be.
_TABLES: dict = {}


def _table(arity, poly) -> BinomialTable:
    table = BinomialTable.from_dict(arity, to_binomial_basis(poly))
    return _TABLES.setdefault(table, table)


def _tables(arity, polys) -> tuple:
    return tuple(_table(arity, poly) for poly in polys)


@lru_cache(maxsize=None, typed=True)
def derive_hall_polynomials(rank: int, nclass: int) -> CanonicalPolynomials:
    """Run the engine over symbolic coordinates to obtain p and q exactly."""
    _check_scale(rank, nclass)
    basis = FreeNilpotentGroup(rank, nclass).basis

    x_names = coordinate_names(basis, "x")
    y_names = coordinate_names(basis, "y")
    mul_ring = PolyRing(x_names + y_names)
    gx = [mul_ring.variable(n) for n in x_names]
    gy = [mul_ring.variable(n) for n in y_names]
    grp = FreeNilpotentGroup(rank, nclass, mul_ring)
    p = grp.mul_coords(gx, gy)

    pow_ring = PolyRing(x_names + ("y",))
    px = [pow_ring.variable(n) for n in x_names]
    grp2 = FreeNilpotentGroup(rank, nclass, pow_ring)
    q = grp2.pow_coords(px, pow_ring.variable("y"))

    return CanonicalPolynomials(
        rank=rank,
        nclass=nclass,
        mul_vars=mul_ring.vars,
        pow_vars=pow_ring.vars,
        p_tables=_tables(len(mul_ring.vars), p),
        q_tables=_tables(len(pow_ring.vars), q),
    )


def associativity_identity_holds(cp: CanonicalPolynomials) -> bool:
    """p(p(x,y),z) == p(x,p(y,z)) as exact polynomial identities."""
    n = len(cp.p)
    basis = FreeNilpotentGroup(cp.rank, cp.nclass).basis
    names = (
        coordinate_names(basis, "x")
        + coordinate_names(basis, "y")
        + coordinate_names(basis, "z")
    )
    ring3 = PolyRing(names)
    xs = [ring3.variable(v) for v in names[:n]]
    ys = [ring3.variable(v) for v in names[n : 2 * n]]
    zs = [ring3.variable(v) for v in names[2 * n :]]
    xy = [poly.evaluate(xs + ys) for poly in cp.p]
    yz = [poly.evaluate(ys + zs) for poly in cp.p]
    left = [poly.evaluate(xy + zs) for poly in cp.p]
    right = [poly.evaluate(xs + yz) for poly in cp.p]
    return all(l == r for l, r in zip(left, right))


@dataclass(frozen=True)
class StructurePolynomials:
    """Tail tables for commutators of basic-element powers.

    For index pairs B and A with weight sum within the class,
    [u_B^a, u_A^b] = product over pairs t of u_t^(tail[B,A][t](a, b)), the tail
    running in index order and supported on weights >= weight(B) + weight(A).
    Only the tables are stored; `polys` is a read-only view of them as Polys
    in (x, y), built on first access.
    """

    rank: int
    nclass: int
    tables: dict  # (pairB, pairA) -> tuple of (pair, BinomialTable)

    @cached_property
    def polys(self) -> dict:
        """(pairB, pairA) -> tuple of (pair, Poly in (x, y))."""
        distinct = list({table: None for tails in self.tables.values() for _, table in tails})
        poly_of = dict(zip(distinct, _table_polys(distinct, ("x", "y"))))
        return {
            key: tuple((pair, poly_of[table]) for pair, table in tails)
            for key, tails in self.tables.items()
        }

    def tail_letters(self, high_pair, low_pair, a, b, ring: Ring):
        key = (tuple(high_pair), tuple(low_pair))
        out = []
        for pair, table in self.tables.get(key, ()):
            e = table.evaluate((a, b), ring)
            if e:
                out.append((pair, e))
        return out


@lru_cache(maxsize=None, typed=True)
def derive_structure_polys(rank: int, nclass: int) -> StructurePolynomials:
    _check_scale(rank, nclass)
    ring2 = PolyRing(("x", "y"))
    grp = FreeNilpotentGroup(rank, nclass, ring2)
    basis = grp.basis

    def powers(pair, v):
        """The series of u^v and u^-v, built from their one nonzero coordinate."""
        coords = [ring2.zero] * len(basis)
        flat = basis.flat(pair)
        coords[flat] = v
        up = grp.series_from_coords(coords)
        coords[flat] = -v
        return up, grp.series_from_coords(coords)

    # Powers of basic elements have known coordinates: their series are built
    # once per entry, with no extraction. Every entry below the class meets
    # some other entry.
    below = [e.pair for e in basis.entries if e.weight < nclass]
    x_powers = {pair: powers(pair, ring2.variable("x")) for pair in below}
    y_powers = {pair: powers(pair, ring2.variable("y")) for pair in below}

    tables = {}
    for eb in basis.entries:
        for ea in basis.entries:
            if eb.pair == ea.pair or eb.weight + ea.weight > nclass:
                continue
            bx, bx_inv = x_powers[eb.pair]
            ay, ay_inv = y_powers[ea.pair]
            # [u_B^x, u_A^y] = u_B^-x u_A^-y u_B^x u_A^y, extracted once (self-checking)
            coords = grp.coords_from_series(bx_inv * ay_inv * bx * ay)
            floor = eb.weight + ea.weight
            entries = []
            for flat, poly in enumerate(coords):
                target = basis.entries[flat]
                if not poly:
                    continue
                if target.weight < floor:
                    raise RuntimeError(
                        f"tail of [{eb.pair}^a, {ea.pair}^b] has support at "
                        f"weight {target.weight} below the weight sum {floor}"
                    )
                entries.append((target.pair, _table(2, poly)))
            tables[(eb.pair, ea.pair)] = tuple(entries)
    return StructurePolynomials(rank=rank, nclass=nclass, tables=tables)
