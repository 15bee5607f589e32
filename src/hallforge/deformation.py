"""Abelian deformations of the top-weight multiplication layer.

A deformation attaches to each generator a symmetric normalized 2-cocycle
valued in the weight-c coordinate block. The deformed product keeps every
coordinate below the top weight and adds f^k(a_1k, b_1k) to the top block;
the result is again a group. A polynomial cocycle
f = sum c_ij binom(a, i) binom(b, j) is the coboundary of
psi(a) = sum_i c_i1 binom(a, i + 1), an identity in every binomial ring, and
the splitting gives an explicit coordinate isomorphism back to the
undeformed group over the group's own ring, through which deformed powers
are taken. This module builds both directions and the extension cocycle that
realizes the deformed group as a central extension.

Cocycles are PolynomialCocycle tables only, checked as exact identities.
The module holds the algebra: maps, and laws that each take one sample's
inputs and return whether they hold there. It draws nothing; the sampled
checks of these laws are hallforge.verify's, through its one sampler.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import CocycleViolationError, ShapeMismatchError, SplitFailureError
from .group import CoordinateGroup, FreeNilpotentGroup, GroupElement
from .rings import ZZ, BinomialTable, PolyRing, Ring


class PolynomialCocycle:
    """Cocycle given by integer tables over the binomial-product basis.

    One arity-2 table per weight-c coordinate; evaluation stays inside any
    binomial ring, so one object serves Z, Q and polynomial coefficients.
    """

    def __init__(self, components):
        components = tuple(components)
        for t in components:
            if not isinstance(t, BinomialTable) or t.arity != 2:
                raise ShapeMismatchError("cocycle components must be arity-2 tables")
        self.components = components

    @classmethod
    def from_tables(cls, tables):
        return cls(BinomialTable.from_dict(2, t) for t in tables)

    @property
    def n_components(self):
        return len(self.components)

    def value(self, a, b, ring: Ring):
        return tuple(t.evaluate((a, b), ring) for t in self.components)

    def __eq__(self, other):
        if not isinstance(other, PolynomialCocycle):
            return NotImplemented
        return self.components == other.components

    __hash__ = None

    def __repr__(self):
        return f"PolynomialCocycle({[t.as_dict() for t in self.components]})"


def zero_cocycle(n_components: int) -> PolynomialCocycle:
    return PolynomialCocycle.from_tables([{}] * n_components)


def product_cocycle(n_components: int, j: int, scale: int = 1) -> PolynomialCocycle:
    """f(a, b) = scale * a * b in component j, zero elsewhere."""
    tables = [{} for _ in range(n_components)]
    tables[j] = {(1, 1): scale}
    return PolynomialCocycle.from_tables(tables)


@dataclass(frozen=True)
class CocycleReport:
    ok: bool
    failures: tuple


def check_cocycle(f) -> CocycleReport:
    """Cocycle identity, symmetry and normalization, as exact identities over Q[x,y,z]."""
    if not isinstance(f, PolynomialCocycle):
        raise ShapeMismatchError(f"a cocycle is a PolynomialCocycle, not {type(f).__name__}")
    failures = []
    ring3 = PolyRing(("x", "y", "z"))
    x = ring3.variable("x")
    y = ring3.variable("y")
    z = ring3.variable("z")
    zero = ring3.zero
    for idx, t in enumerate(f.components):
        def F(a, b, t=t):
            return t.evaluate((a, b), ring3)

        if F(x + y, z) + F(x, y) != F(x, y + z) + F(y, z):
            failures.append(f"component {idx}: cocycle identity fails")
        if F(x, y) != F(y, x):
            failures.append(f"component {idx}: not symmetric")
        if F(zero, x) != zero or F(x, zero) != zero:
            failures.append(f"component {idx}: not normalized")
    return CocycleReport(ok=not failures, failures=tuple(failures))


class DeformedGroup(CoordinateGroup):
    """The base group with its top-weight product twisted by cocycles.

    Takes one PolynomialCocycle per generator, each valued in the weight-c
    block. mul and inv twist the base product directly; pow takes every
    exponent of the ring through `splitting`, the isomorphism to the base
    group, built on first use. There is no series image.
    """

    def __init__(self, base: FreeNilpotentGroup, cocycles, check=True):
        cocycles = tuple(cocycles)
        if len(cocycles) != base.rank:
            raise ShapeMismatchError(
                f"{len(cocycles)} cocycles for {base.rank} generators"
            )
        n_c = base.basis.counts[-1]
        for k, f in enumerate(cocycles):
            if not isinstance(f, PolynomialCocycle):
                raise ShapeMismatchError(
                    f"cocycle {k + 1} is a {type(f).__name__}, not a PolynomialCocycle"
                )
            if f.n_components != n_c:
                raise ShapeMismatchError(
                    f"cocycle {k + 1} has {f.n_components} components, "
                    f"the weight-{base.nclass} block has {n_c}"
                )
            if check:
                report = check_cocycle(f)
                if not report.ok:
                    raise CocycleViolationError(
                        f"cocycle {k + 1}: " + "; ".join(report.failures)
                    )
        self.base = base
        self.cocycles = cocycles
        self.rank = base.rank
        self.nclass = base.nclass
        self.ring = base.ring
        self.basis = base.basis
        self._top = base.basis.weight_start(base.nclass)

    def __eq__(self, other):
        return (
            isinstance(other, DeformedGroup)
            and self.base == other.base
            and self.cocycles == other.cocycles
        )

    __hash__ = None

    def __repr__(self):
        return f"DeformedGroup({self.base!r})"

    def _corrections(self, a_coords, b_coords):
        """Per-component sum of f^k over the generator coordinate pairs."""
        out = [self.ring.zero] * (self.dimension - self._top)
        for k, f in enumerate(self.cocycles):
            vals = f.value(a_coords[k], b_coords[k], self.ring)
            for j, v in enumerate(vals):
                if v:
                    out[j] = out[j] + v
        return out

    def mul(self, g: GroupElement, h: GroupElement) -> GroupElement:
        self._own(g)
        self._own(h)
        coords = list(self.base.mul_coords(g.coords, h.coords))
        for j, v in enumerate(self._corrections(g.coords, h.coords)):
            if v:
                coords[self._top + j] = coords[self._top + j] + v
        return GroupElement(self, tuple(coords))

    def inv(self, g: GroupElement) -> GroupElement:
        self._own(g)
        coords = list(self.base.inv_coords(g.coords))
        neg = [-a for a in g.coords]
        for j, v in enumerate(self._corrections(g.coords, neg)):
            if v:
                coords[self._top + j] = coords[self._top + j] - v
        return GroupElement(self, tuple(coords))

    @cached_property
    def splitting(self) -> "SplittingIsomorphism":
        """The isomorphism to the base group; SplitFailureError if a cocycle does not split."""
        return SplittingIsomorphism(self)

    def pow(self, g: GroupElement, exponent) -> GroupElement:
        """g^exponent = to_deformed(to_base(g)^exponent), for any exponent of the ring."""
        iso = self.splitting
        return iso.to_deformed(self.base.pow(iso.to_base(g), exponent))

    def _centralizer_element(self, j: int, a, z) -> GroupElement:
        """u_1j^a times the central element with top block z."""
        coords = [self.ring.zero] * self._top + list(z)
        coords[self.basis.flat((1, j))] = a
        return self.element(coords)

    def centralizer_law_holds(self, j: int, a, b, z1, z2) -> bool:
        """u_1j^a z1 and u_1j^b z2 commute, and their product has top block z1 + z2 + f^j(a, b).

        So the centralizer of generator j is an abelian extension, by the
        generator's deformation component.
        """
        x, y = self._centralizer_element(j, a, z1), self._centralizer_element(j, b, z2)
        xy = self.mul(x, y)
        got = tuple(v - p - q for v, p, q in zip(xy.coords[self._top :], z1, z2))
        return xy == self.mul(y, x) and got == self.cocycles[j - 1].value(a, b, self.ring)

    def centralizer_split_holds(self, j: int) -> bool:
        """f^j splits as psi, and u_1j^a u_1j^b has top block psi(a+b)-psi(a)-psi(b) on -8..8."""
        try:
            psi = coboundary_split(self.cocycles[j - 1])
        except SplitFailureError:
            return False
        u, box = self._centralizer_element, range(-8, 9)
        nil = [self.ring.zero] * len(psi.components)
        return all(
            self.mul(u(j, a, nil), u(j, b, nil)).coords[self._top :]
            == psi.coboundary(a, b, self.ring)
            for a in box
            for b in box
        )


@dataclass(frozen=True)
class Splitting:
    """psi with f(a, b) = psi(a + b) - psi(a) - psi(b), one arity-1 table per component.

    Evaluates inside any binomial ring, like a polynomial cocycle; called on
    an integer, it gives the integer values.
    """

    components: tuple

    def value(self, a, ring: Ring):
        return tuple(t.evaluate((a,), ring) for t in self.components)

    def __call__(self, a):
        return self.value(a, ZZ)

    def coboundary(self, a, b, ring: Ring):
        """psi(a + b) - psi(a) - psi(b), per component."""
        sides = zip(self.value(a + b, ring), self.value(a, ring), self.value(b, ring))
        return tuple(s - p - q for s, p, q in sides)


def coboundary_split(f) -> Splitting:
    """Split a polynomial cocycle in closed form: psi(a) = sum_i c_i1 binom(a, i + 1).

    For a normalized f, psi(a + 1) - psi(a) = f(a, 1) = sum_i c_i1 binom(a, i),
    which Pascal's rule sums to the closed form. The coboundary equation is
    then checked as an exact identity over Q[x, y]; it fails, raising
    SplitFailureError, exactly when f is not a symmetric normalized cocycle.
    """
    if not isinstance(f, PolynomialCocycle):
        raise SplitFailureError("only polynomial cocycles split in closed form")
    psi = Splitting(
        tuple(
            BinomialTable.from_dict(1, {(i + 1,): c for (i, j), c in t.coeffs if j == 1})
            for t in f.components
        )
    )
    ring2 = PolyRing(("x", "y"))
    x = ring2.variable("x")
    y = ring2.variable("y")
    for idx, (v, w) in enumerate(zip(f.value(x, y, ring2), psi.coboundary(x, y, ring2))):
        if v != w:
            raise SplitFailureError(
                f"component {idx}: f(x, y) is not psi(x+y) - psi(x) - psi(y) for "
                f"psi = {psi.components[idx].as_dict()}; f is not a symmetric normalized cocycle"
            )
    return psi


class SplittingIsomorphism:
    """Coordinate bijection between a deformed group and its base.

    Splitting the cocycles makes the deformation a coboundary, and the map
    that subtracts sum_k psi^k(a_1k) from the top-weight block (identity on
    everything else) turns the deformed product into the plain one. The
    closed-form splittings are evaluated in the group's ring; building the
    map raises SplitFailureError if a cocycle does not split.
    """

    def __init__(self, deformed: DeformedGroup):
        self.deformed = deformed
        self.base = deformed.base
        self.splittings = tuple(coboundary_split(f) for f in deformed.cocycles)
        self._top = deformed._top

    def _shift(self, coords, sign: int):
        out = list(coords)
        for k, psi in enumerate(self.splittings):
            for j, v in enumerate(psi.value(coords[k], self.deformed.ring)):
                if v:
                    out[self._top + j] = out[self._top + j] + sign * v
        return out

    def to_base(self, g: GroupElement) -> GroupElement:
        self.deformed._own(g)
        return self.base.element(self._shift(g.coords, -1))

    def to_deformed(self, g: GroupElement) -> GroupElement:
        self.base._own(g)
        return self.deformed.element(self._shift(g.coords, +1))

    def holds_at(self, g: GroupElement, h: GroupElement, x: GroupElement) -> bool:
        """Homomorphism at g, h of the deformed group; round trips from g and from x of the base."""
        to_base, to_deformed = self.to_base, self.to_deformed
        return (
            to_base(self.deformed.mul(g, h)) == self.base.mul(to_base(g), to_base(h))
            and to_deformed(to_base(g)) == g
            and to_base(to_deformed(x)) == x
        )


class ExtensionCocycle:
    """The central-extension cocycle of a deformed group over its center.

    Realized on coordinate representatives with zero top-weight block: the
    value at a pair of cosets is the top block of the deformed product of
    the representatives. The deformed group is then coordinatewise the
    extension build (quotient coordinates, center coordinates) with this
    cocycle added to the center component.
    """

    def __init__(self, deformed: DeformedGroup):
        self.deformed = deformed
        self._top = deformed._top
        self.width = deformed.dimension - self._top

    def rep(self, coords):
        """The zero-top-block representative of the coset of coords."""
        zero = self.deformed.ring.zero
        return tuple(coords[: self._top]) + (zero,) * self.width

    def value(self, a_coords, b_coords):
        prod = self.deformed.mul(
            self.deformed.element(self.rep(a_coords)),
            self.deformed.element(self.rep(b_coords)),
        )
        return tuple(prod.coords[self._top :])

    def _quotient_mul(self, a_coords, b_coords):
        return self.rep(self.deformed.base.mul_coords(self.rep(a_coords), self.rep(b_coords)))

    def is_normalized_at(self, coords) -> bool:
        zero = self.deformed.identity().coords
        nil = (self.deformed.ring.zero,) * self.width
        return self.value(zero, coords) == nil and self.value(coords, zero) == nil

    def cocycle_identity_holds(self, a_coords, b_coords, c_coords) -> bool:
        """k(ab, c) + k(a, b) == k(a, bc) + k(b, c) on coset representatives."""
        ab = self._quotient_mul(a_coords, b_coords)
        bc = self._quotient_mul(b_coords, c_coords)
        lhs = [
            p + q for p, q in zip(self.value(ab, c_coords), self.value(a_coords, b_coords))
        ]
        rhs = [
            p + q for p, q in zip(self.value(a_coords, bc), self.value(b_coords, c_coords))
        ]
        return lhs == rhs

    def extension_mul(self, g: GroupElement, h: GroupElement) -> GroupElement:
        """Multiply as (quotient part, center part) pairs twisted by k."""
        self.deformed._own(g)
        self.deformed._own(h)
        lower = self._quotient_mul(g.coords, h.coords)[: self._top]
        kval = self.value(g.coords, h.coords)
        top = [
            z + w + v
            for z, w, v in zip(g.coords[self._top :], h.coords[self._top :], kval)
        ]
        return self.deformed.element(tuple(lower) + tuple(top))
