"""Canonical multiplication, power, and structure polynomials.

The coordinates of a product (or power) are polynomial in the coordinates of
the operands. Running the series engine once over a polynomial coefficient
ring with symbolic coordinates derives those polynomials exactly; they are
then converted to integer coefficient tables over the binomial-product basis
(finite differencing, one variable at a time), which is the witness that they
are integer-valued and lets them be evaluated inside any binomial ring.

Structure polynomials are the special case for [u_high^a, u_low^b]: the tail
exponents as polynomials in (a, b). They feed the word collector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import NonIntegerCoefficientError, ScaleLimitError
from .group import FreeNilpotentGroup
from .rings import BinomialTable, Poly, PolyRing, Ring

DESK_SCALE_LIMIT = 7  # largest rank + class for symbolic derivation


def _check_scale(rank, nclass):
    if rank + nclass > DESK_SCALE_LIMIT:
        raise ScaleLimitError(
            f"rank + class = {rank + nclass} exceeds the desk-scale limit "
            f"{DESK_SCALE_LIMIT} for symbolic derivation"
        )


def to_binomial_basis(poly: Poly) -> dict:
    """Integer coefficients of a polynomial over the binomial-product basis.

    Newton forward differencing per variable: the coefficient table entry at
    degrees (k_1..k_m) is (D_1^k_1 ... D_m^k_m poly) at the origin, where D_i
    is the finite difference in variable i. Raises if any entry is not an
    integer, i.e. if the polynomial is not integer-valued.
    """
    nv = len(poly.vars)
    out: dict = {}

    def expand(q: Poly, vi: int, prefix):
        if not q:
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
        while cur:
            expand(cur.at_zero(vi), vi + 1, prefix + [k])
            cur = cur.shift(vi) - cur
            k += 1

    expand(poly, 0, [])
    return out


@dataclass(frozen=True)
class CanonicalPolynomials:
    """Product and power polynomials for one (rank, class) configuration.

    Product variables are the first-operand coordinates then the second's, in
    flat basis order; power variables are the base coordinates then the single
    exponent variable, which is always last.
    """

    rank: int
    nclass: int
    mul_vars: tuple[str, ...]
    pow_vars: tuple[str, ...]
    p: tuple[Poly, ...]  # product coordinates, flat order
    q: tuple[Poly, ...]  # power coordinates, flat order
    p_tables: tuple[BinomialTable, ...]
    q_tables: tuple[BinomialTable, ...]

    def mul_coords(self, a_coords, b_coords, ring: Ring):
        point = list(a_coords) + list(b_coords)
        return tuple(t.evaluate(point, ring) for t in self.p_tables)

    def pow_coords(self, a_coords, exponent, ring: Ring):
        point = list(a_coords) + [exponent]
        return tuple(t.evaluate(point, ring) for t in self.q_tables)


def coordinate_names(basis, prefix: str):
    return tuple(f"{prefix}{i}_{j}" for (i, j) in basis.pairs)


@lru_cache(maxsize=None)
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

    p_tables = tuple(
        BinomialTable.from_dict(len(mul_ring.vars), to_binomial_basis(poly)) for poly in p
    )
    q_tables = tuple(
        BinomialTable.from_dict(len(pow_ring.vars), to_binomial_basis(poly)) for poly in q
    )
    return CanonicalPolynomials(
        rank=rank,
        nclass=nclass,
        mul_vars=mul_ring.vars,
        pow_vars=pow_ring.vars,
        p=tuple(p),
        q=tuple(q),
        p_tables=p_tables,
        q_tables=q_tables,
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
    """

    rank: int
    nclass: int
    polys: dict  # (pairB, pairA) -> tuple of (pair, Poly in (x, y))
    tables: dict  # (pairB, pairA) -> tuple of (pair, BinomialTable)

    def tail_letters(self, high_pair, low_pair, a, b, ring: Ring):
        key = (tuple(high_pair), tuple(low_pair))
        out = []
        for pair, table in self.tables.get(key, ()):
            e = table.evaluate((a, b), ring)
            if e:
                out.append((pair, e))
        return out


@lru_cache(maxsize=None)
def derive_structure_polys(rank: int, nclass: int) -> StructurePolynomials:
    _check_scale(rank, nclass)
    ring2 = PolyRing(("x", "y"))
    grp = FreeNilpotentGroup(rank, nclass, ring2)
    basis = grp.basis
    a = ring2.variable("x")
    b = ring2.variable("y")

    polys = {}
    tables = {}
    # Most tails repeat: at (3,4), 16 distinct tables serve all 152 tails. A
    # table determines its polynomial, so equal tables share one (poly, table)
    # pair, and the result holds each distinct tail once.
    shared = {}
    for eb in basis.entries:
        for ea in basis.entries:
            if eb.pair == ea.pair or eb.weight + ea.weight > nclass:
                continue
            com = grp.commutator(grp.pow(grp.basic(eb.pair), a), grp.pow(grp.basic(ea.pair), b))
            floor = eb.weight + ea.weight
            entries = []
            for flat, poly in enumerate(com.coords):
                target = basis.entries[flat]
                if not poly:
                    continue
                if target.weight < floor:
                    raise RuntimeError(
                        f"tail of [{eb.pair}^a, {ea.pair}^b] has support at "
                        f"weight {target.weight} below the weight sum {floor}"
                    )
                table = BinomialTable.from_dict(2, to_binomial_basis(poly))
                poly, table = shared.setdefault(table, (poly, table))
                entries.append((target.pair, poly, table))
            polys[(eb.pair, ea.pair)] = tuple((pair, poly) for pair, poly, _ in entries)
            tables[(eb.pair, ea.pair)] = tuple((pair, table) for pair, _, table in entries)
    return StructurePolynomials(rank=rank, nclass=nclass, polys=polys, tables=tables)
