"""Free nilpotent groups in Hall coordinates over a binomial ring.

An element is its exponent vector in the ordered basic-commutator basis:
g = u_1^(a_1) ... u_N^(a_N). All arithmetic runs through the faithful
embedding into truncated series (generators map to 1 + x_j): multiply or
power the series, then read the coordinates back.

Coordinate extraction peels one weight at a time. After the blocks below
weight i have been stripped off on the left, the degree-i component of the
remaining series is exactly sum_j a_ij * lie(u_ij): every basis factor
contributes its Lie element at its own weight and nothing else that low.
The a_ij are solved from an exact linear system that is invertible because
the weight-i Lie elements are independent; the solved block is stripped and
the next weight repeats. The final residue must be exactly 1, which makes
every extraction self-checking.

The solve reads the series only at one pivot word per weight-i basis entry.
Its inverse matrix is stored as sparse integer rows, (pivot index, entry)
pairs over the nonzero entries; an entry that is not integral would stay a
Fraction, but every configuration the engine accepts has an integral
inverse with few nonzero entries per row, so each coordinate costs a few
products. The free Lie ring re-expands brackets with the same solve.

Construction multiplies the powers u_j^(a_j) of the nonzero coordinates in
order, with the degree-aware series product; every power comes from the
augmentation powers cached per basis entry in the engine tables.

The Lie and polynomial layers read three results off the engine and
re-derive none: unit_series, the series of one power u_j^a; commutator_coords,
one checked extraction of u^-1 v^-1 u v that refuses a coordinate below a
weight floor; and lie_coords, the Hall coordinates of a Lie element,
confirmed by re-expansion.

The engine refuses configurations past ENGINE_WORD_LIMIT words before any
table is built, with check_engine_scale from hallforge.basis (re-exported).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from random import Random

from . import linalg
from .basis import ENGINE_WORD_LIMIT, HallBasis, check_engine_scale, hall_basis
from .errors import NotGroupLikeError, ShapeMismatchError
from .rings import ZZ, Ring
from .series import (
    TruncatedSeries,
    augmentation_powers,
    group_commutator_series,
    group_like_inverse,
    series_pow,
)


@dataclass(frozen=True)
class _EngineTables:
    basis: HallBasis
    images: tuple  # embedding image per basis entry
    augs: tuple  # augmentation power list per basis entry
    pivot_words: tuple  # per weight: tuple of words
    solvers: tuple  # per weight: inverse matrix rows as (pivot index, nonzero entry) pairs

    def solve(self, i: int, comp) -> list:
        """The weight-i coordinates of a word -> value dict, as raw sums in basis order.

        Entry j is sum_k q_jk * comp[pivot_words[i-1][k]] over the nonzero
        solver entries q_jk and nonzero values; words that are not weight-i
        pivots are not read, so comp may hold other degrees. A row with no
        nonzero term gives the int 0.
        """
        vals = [comp.get(w, 0) for w in self.pivot_words[i - 1]]
        out = []
        for row in self.solvers[i - 1]:
            acc = 0
            for k, q in row:
                v = vals[k]
                if v:
                    acc = acc + q * v
            out.append(acc)
        return out


@lru_cache(maxsize=None, typed=True)
def _engine_tables(rank: int, nclass: int) -> _EngineTables:
    check_engine_scale(rank, nclass)
    # ring-independent: image coefficients are integers, valid in every ring
    basis = hall_basis(rank, nclass)
    images = tuple(basis.embedding_image(e) for e in basis.entries)
    augs = tuple(augmentation_powers(img) for img in images)

    pivot_words = []
    solvers = []
    for i in range(1, nclass + 1):
        # one sparse row per word that a weight-i Lie element reaches, in word
        # order; the words no element reaches give zero rows, which never pivot
        lies = [basis.lie_element(basis.entries[f]) for f in basis.weight_block(i)]
        rows = {}
        for j, lie in enumerate(lies):
            for w, c in lie.coeffs.items():
                rows.setdefault(w, {})[j] = Fraction(c)
        words = sorted(rows)
        chosen = linalg.independent_rows([rows[w] for w in words])
        if len(chosen) != len(lies):
            raise RuntimeError(
                f"weight-{i} Lie elements are not independent (rank {len(chosen)})"
            )
        pivot_words.append(tuple(words[k] for k in chosen))
        inverse = linalg.invert([rows[words[k]] for k in chosen])
        solvers.append(tuple(
            tuple((k, q.numerator if q.denominator == 1 else q) for k, q in sorted(row.items()))
            for row in inverse
        ))
    return _EngineTables(basis, images, augs, tuple(pivot_words), tuple(solvers))


class GroupElement:
    __slots__ = ("group", "coords", "_series")

    def __init__(self, group, coords, series=None):
        self.group = group
        self.coords = coords
        self._series = series

    def __mul__(self, other):
        return self.group.mul(self, other)

    def __pow__(self, exponent):
        return self.group.pow(self, exponent)

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.group == other.group and list(self.coords) == list(other.coords)

    __hash__ = None

    def __repr__(self):
        return f"GroupElement({list(self.coords)})"


class CoordinateGroup:
    """The element protocol shared by every group object in the library.

    A subclass sets ring and basis; its elements are GroupElements holding
    one ring value per basis entry, in basis order.
    """

    @property
    def dimension(self):
        return len(self.basis)

    def element(self, coords) -> GroupElement:
        coords = tuple(self.ring.coerce(a) for a in coords)
        if len(coords) != self.dimension:
            raise ShapeMismatchError(
                f"{len(coords)} coordinates for a basis of size {self.dimension}"
            )
        return GroupElement(self, coords)

    def identity(self) -> GroupElement:
        return GroupElement(self, (self.ring.zero,) * self.dimension)

    def random_element(self, rng: Random, lo=-9, hi=9) -> GroupElement:
        return self.element(
            [self.ring.random_element(rng, lo, hi) for _ in range(self.dimension)]
        )

    def _own(self, g: GroupElement):
        if not isinstance(g, GroupElement) or g.group != self:
            raise ShapeMismatchError(f"element does not belong to {self!r}")
        return g


class FreeNilpotentGroup(CoordinateGroup):
    """N(rank, class) over a binomial ring, with exact Hall-coordinate arithmetic."""

    def __init__(self, rank: int, nclass: int, ring: Ring = ZZ):
        self._tables = _engine_tables(rank, nclass)
        self.rank = rank
        self.nclass = nclass
        self.ring = ring
        self.basis = self._tables.basis

    # -- identity and construction ------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, FreeNilpotentGroup)
            and self.rank == other.rank
            and self.nclass == other.nclass
            and self.ring == other.ring
        )

    __hash__ = None

    def __repr__(self):
        return f"FreeNilpotentGroup(rank={self.rank}, nclass={self.nclass}, ring={self.ring.name})"

    def basic(self, pair) -> GroupElement:
        flat = self.basis.flat(pair)
        coords = [self.ring.zero] * self.dimension
        coords[flat] = self.ring.one
        return GroupElement(self, tuple(coords))

    def generator(self, j) -> GroupElement:
        return self.basic((1, j))

    def generators(self):
        return [self.generator(j) for j in range(1, self.rank + 1)]

    # -- series round trip ----------------------------------------------------

    def series_from_coords(self, coords) -> TruncatedSeries:
        if len(coords) != len(self.basis):
            raise ShapeMismatchError(
                f"{len(coords)} coordinates for a basis of size {len(self.basis)}"
            )
        s = TruncatedSeries.one(self.rank, self.nclass)
        for flat, a in enumerate(coords):
            if not a:
                continue
            s = s * self.unit_series(flat, a)
        return s

    def unit_series(self, flat: int, a) -> TruncatedSeries:
        """The series of u^a for the basis entry at flat index flat, a in the ring."""
        t = self._tables
        return series_pow(t.images[flat], a, self.ring, aug_powers=t.augs[flat])

    def to_series(self, g: GroupElement) -> TruncatedSeries:
        self._own(g)
        if g._series is None:
            g._series = self.series_from_coords(g.coords)
        return g._series

    def coords_from_series(self, s: TruncatedSeries):
        if s.rank != self.rank or s.cutoff != self.nclass:
            raise ShapeMismatchError("series shape does not match the group")
        if not s.is_group_like():
            raise NotGroupLikeError("series has constant coefficient != 1")
        coords = []
        for i in range(1, self.nclass + 1):
            block = [self.ring.coerce(acc) for acc in self._tables.solve(i, s.coeffs)]
            start = self.basis.weight_start(i)
            for j, a in enumerate(block):
                if not a:
                    continue
                s = self.unit_series(start + j, -a) * s
            coords.extend(block)
        if s != TruncatedSeries.one(self.rank, self.nclass):
            raise NotGroupLikeError("series is not a coordinate image over this ring")
        return tuple(coords)

    def from_series(self, s: TruncatedSeries) -> GroupElement:
        return GroupElement(self, self.coords_from_series(s), series=s)

    def commutator_coords(self, u, v, floor: int) -> tuple:
        """Coordinates of u^-1 v^-1 u v, u and v given as (inverse, series) pairs, from one
        self-checking extraction. A nonzero one below weight floor raises RuntimeError:
        [gamma_i, gamma_j] lies in gamma_{i+j}, so floor i + j never refuses a correct one."""
        (u_inv, u_series), (v_inv, v_series) = u, v
        coords = self.coords_from_series(u_inv * v_inv * u_series * v_series)
        if any(coords[: self.basis.weight_start(floor)]):
            raise RuntimeError(f"commutator has a coordinate below weight {floor}")
        return coords

    def lie_coords(self, w: int, element: TruncatedSeries) -> tuple:
        """Weight-w Hall coordinates of a Lie element: solved at the pivot words, in the
        ring, and confirmed by re-expansion (RuntimeError outside the weight-w span)."""
        coeffs = tuple(self.ring.coerce(c) for c in self._tables.solve(w, element.coeffs))
        residual = element
        for c, flat in zip(coeffs, self.basis.weight_block(w)):
            if c:
                residual = residual - c * self.basis.lie_element(self.basis.entries[flat])
        if residual.coeffs:
            raise RuntimeError(f"element is not in the weight-{w} Hall span")
        return coeffs

    # -- arithmetic -----------------------------------------------------------

    def mul_coords(self, a, b):
        s = self.series_from_coords(a) * self.series_from_coords(b)
        return self.coords_from_series(s)

    def pow_coords(self, a, exponent):
        s = series_pow(self.series_from_coords(a), exponent, self.ring)
        return self.coords_from_series(s)

    def inv_coords(self, a):
        return self.coords_from_series(group_like_inverse(self.series_from_coords(a)))

    def mul(self, g: GroupElement, h: GroupElement) -> GroupElement:
        self._own(g)
        self._own(h)
        s = self.to_series(g) * self.to_series(h)
        return self.from_series(s)

    def pow(self, g: GroupElement, exponent) -> GroupElement:
        self._own(g)
        exponent = self.ring.coerce(exponent)
        s = series_pow(self.to_series(g), exponent, self.ring)
        return self.from_series(s)

    def inv(self, g: GroupElement) -> GroupElement:
        self._own(g)
        return self.from_series(group_like_inverse(self.to_series(g)))

    def commutator(self, g: GroupElement, h: GroupElement) -> GroupElement:
        """[g, h] = g^-1 h^-1 g h."""
        self._own(g)
        self._own(h)
        s = group_commutator_series(self.to_series(g), self.to_series(h))
        return self.from_series(s)

    def conjugate(self, g: GroupElement, h: GroupElement) -> GroupElement:
        """h^-1 g h."""
        s = group_like_inverse(self.to_series(h)) * self.to_series(g) * self.to_series(h)
        return self.from_series(s)

    # -- structure ------------------------------------------------------------

    def gamma_weight(self, g: GroupElement) -> int:
        """Least weight with a nonzero coordinate; class + 1 for the identity."""
        self._own(g)
        for i in range(1, self.nclass + 1):
            if any(g.coords[f] for f in self.basis.weight_block(i)):
                return i
        return self.nclass + 1

    def is_central(self, g: GroupElement) -> bool:
        return self.gamma_weight(g) >= self.nclass

    def weight_block_coords(self, g: GroupElement, i):
        return tuple(g.coords[f] for f in self.basis.weight_block(i))
