"""Canonical multiplication, power, and structure polynomials.

The coordinates of a product (or power) are polynomial in the coordinates of
the operands. Running the series engine once over a polynomial coefficient
ring with symbolic coordinates derives those polynomials exactly; they are
then converted to integer coefficient tables over the binomial-product basis
(each monomial expanded through Stirling numbers of the second kind), which
is the witness that they are integer-valued and lets them be evaluated inside
any binomial ring. The results keep only the tables: the polynomials are
views of them, rebuilt on first access.

The weight-c layer (c the class) is central, and there the engine is not
needed: both derivations use its closed forms.

- Hall polynomials: the weight-c basis elements are central and come last in
  the order, so g(x) = g(x') u_top^x_top with x' = x without its weight-c
  coordinates, and p_t = p_t(x', y') + x_t + y_t, q_t = q_t(x', y) + y x_t for
  every weight-c index t. The engine runs on x' only, from one series S(x'):
  S(y') is S(x') over the y fields, and the power base is S(x') itself.
- Structure tails with weight sum c: the commutator map is bilinear into the
  centre, so [u_B^x, u_A^y] = [u_B, u_A]^(xy) and the tail is x y k, with k
  the Hall coordinates of the Lie bracket [L_B, L_A] (lie_coords of the
  integer group, checked by re-expansion).

Structure polynomials are the special case for [u_high^a, u_low^b]: the tail
exponents as polynomials in (a, b), one per pair of HallBasis.bracket_pairs.
They feed the word collector. Below the class, the series of u^a, u^-a, u^b
and u^-b come from unit_series once per basic element of weight at most
c - 2, so each commutator costs three series products and one self-checking
extraction (commutator_coords, which refuses a tail below the weight sum).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .basis import check_config_types, hall_basis
from .errors import NonIntegerCoefficientError, ScaleLimitError
from .group import FreeNilpotentGroup
from .rings import (
    EXPONENT_BITS,
    _FIELD,
    BinomialTable,
    Poly,
    PolyRing,
    Ring,
    _unpack,
    evaluate_tables,
)
from .series import TruncatedSeries, series_pow

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
    nv = len(poly.vars)
    return dict(sorted((_unpack(key, nv), v) for key, v in _packed_binomial_basis(poly).items()))


def _packed_binomial_basis(poly: Poly) -> dict:
    """to_binomial_basis with the degrees left packed as in Poly keys, unordered."""
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
    return {key: v // den for key, v in acc.items() if v}


def _table_polys(tables, variables) -> tuple:
    """The polynomials of binomial tables, as Polys over the given variables."""
    ring = PolyRing(variables)
    return tuple(evaluate_tables(tables, [ring.variable(v) for v in variables], ring))


@dataclass(frozen=True)
class CanonicalPolynomials:
    """Product and power polynomials for one (rank, class) configuration.

    Product variables are the first-operand coordinates then the second's, in
    flat basis order; power variables are the base coordinates then the single
    exponent variable, which is always last. Only the binomial tables are
    stored; `p` and `q` are read-only views of them as Polys, built on first
    access. mul_coords and pow_coords evaluate the whole table set at one
    point (evaluate_tables), so each binomial of a coordinate is computed
    once per product or power.
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
        return tuple(evaluate_tables(self.p_tables, [*a_coords, *b_coords], ring))

    def pow_coords(self, a_coords, exponent, ring: Ring):
        return tuple(evaluate_tables(self.q_tables, [*a_coords, exponent], ring))


def coordinate_names(basis, prefix: str):
    return tuple(f"{prefix}{i}_{j}" for (i, j) in basis.pairs)


# Equal derived tables, and equal structure-tail tuples, are one object across
# all derivations, as equal degree keys are (rings._KEYS): at (3,4), 16
# distinct tables serve all 152 structure tails, and deriving a configuration
# again adds no table. A table is keyed on its arity and the set of its
# packed (degrees, coefficient) pairs, and built only when that key is new.
# DESK_SCALE_LIMIT bounds how many there can be.
_TABLES: dict = {}


def _table(arity, poly) -> BinomialTable:
    packed = _packed_binomial_basis(poly)
    key = (arity, frozenset(packed.items()))
    table = _TABLES.get(key)
    if table is None:
        coeffs = {_unpack(k, arity): v for k, v in packed.items()}
        table = _TABLES[key] = BinomialTable.from_dict(arity, coeffs)
    return table


def _tables(arity, polys) -> tuple:
    return tuple(_table(arity, poly) for poly in polys)


@lru_cache(maxsize=None, typed=True)
def _hall_rings(rank: int, nclass: int) -> tuple[PolyRing, PolyRing]:
    """The product ring (x..., y...) and the power ring (x..., y), built once per configuration."""
    basis = hall_basis(rank, nclass)
    x_names = coordinate_names(basis, "x")
    return PolyRing(x_names + coordinate_names(basis, "y")), PolyRing(x_names + ("y",))


def _moved(s: TruncatedSeries, variables, shift: int = 0) -> TruncatedSeries:
    """s with every Poly coefficient over `variables`, its packed keys moved up `shift` fields."""
    bits = shift * EXPONENT_BITS
    return TruncatedSeries(
        s.rank,
        s.cutoff,
        {
            w: Poly._trusted(variables, {k << bits: v for k, v in c._num.items()}, c._den)
            if isinstance(c, Poly)
            else c
            for w, c in s.coeffs.items()
        },
    )


@lru_cache(maxsize=None, typed=True)
def derive_hall_polynomials(rank: int, nclass: int) -> CanonicalPolynomials:
    """p and q exactly: the engine below the class, closed forms on the central weight-c layer."""
    _check_scale(rank, nclass)
    mul_ring, pow_ring = _hall_rings(rank, nclass)
    grp = FreeNilpotentGroup(rank, nclass, mul_ring)
    n = len(grp.basis)
    top = grp.basis.weight_start(nclass)
    xy = [mul_ring.variable(v) for v in mul_ring.vars]

    # The weight-c coordinates are central and last, so g(x) = g(x') u_top^x_top
    # with x' = x without them: p = p(x', y') + x_top + y_top and
    # q = q(x', y) + y x_top. S(x') serves all three series: over the y fields
    # for S(y'), and as the power base (the x fields sit alike in both rings).
    sx = grp.series_from_coords(xy[:top] + [mul_ring.zero] * (n - top))
    p = list(grp.coords_from_series(sx * _moved(sx, mul_ring.vars, n)))
    y = pow_ring.variable("y")
    power = series_pow(_moved(sx, pow_ring.vars), y, pow_ring)
    q = list(FreeNilpotentGroup(rank, nclass, pow_ring).coords_from_series(power))
    for t in range(top, n):
        p[t] = p[t] + xy[t] + xy[n + t]
        q[t] = q[t] + y * pow_ring.variable(pow_ring.vars[t])

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
    basis = hall_basis(cp.rank, cp.nclass)
    names = _hall_rings(cp.rank, cp.nclass)[0].vars + coordinate_names(basis, "z")
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
    in (x, y), built on first access. tail_letters evaluates one key's tails
    as one table set (evaluate_tables), and returns [] at once for a key
    without tails, which is most calls of the collector.
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
        tails = self.tables.get((tuple(high_pair), tuple(low_pair)))
        if not tails:
            return []
        values = evaluate_tables([table for _, table in tails], (a, b), ring)
        return [(pair, e) for (pair, _), e in zip(tails, values) if e]


@lru_cache(maxsize=None, typed=True)
def derive_structure_polys(rank: int, nclass: int) -> StructurePolynomials:
    _check_scale(rank, nclass)
    ring2 = PolyRing(("x", "y"))
    grp = FreeNilpotentGroup(rank, nclass, ring2)
    zz = FreeNilpotentGroup(rank, nclass)
    basis = grp.basis
    x, y = ring2.variable("x"), ring2.variable("y")
    xy = x * y

    # Powers of basic elements have known coordinates: their series are built
    # once per entry, with no extraction. Only pairs below the class need
    # them, and each entry of weight <= class - 2 meets a generator there.
    below = [e.position for e in basis.entries if e.weight <= nclass - 2]
    x_units = {f: (grp.unit_series(f, -x), grp.unit_series(f, x)) for f in below}
    y_units = {f: (grp.unit_series(f, -y), grp.unit_series(f, y)) for f in below}

    tables = {}
    top = basis.weight_block(nclass)
    for key, (eb, ea) in basis.bracket_pairs.items():
        floor = eb.weight + ea.weight
        if floor == nclass:
            # The commutator map is bilinear into the centre, so
            # [u_B^x, u_A^y] = [u_B, u_A]^(xy) = prod_t u_t^(k_t xy), with k
            # the Hall coordinates of the Lie bracket [L_B, L_A].
            lb, la = basis.lie_element(eb), basis.lie_element(ea)
            exponents = zip(top, (k * xy for k in zz.lie_coords(nclass, lb * la - la * lb)))
        else:
            # [u_B^x, u_A^y] = u_B^-x u_A^-y u_B^x u_A^y, extracted once (self-checking)
            u, v = x_units[eb.position], y_units[ea.position]
            exponents = enumerate(grp.commutator_coords(u, v, floor))
        tails = tuple((basis.entries[f].pair, _table(2, e)) for f, e in exponents if e)
        tables[key] = _TABLES.setdefault(tails, tails)
    return StructurePolynomials(rank=rank, nclass=nclass, tables=tables)
