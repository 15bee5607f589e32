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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from random import Random

from .errors import (
    CocycleViolationError,
    HallforgeError,
    NotAHomomorphismError,
    ShapeMismatchError,
    SplitFailureError,
)
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

    def is_zero(self):
        return all(t.is_zero() for t in self.components)

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


class SampledCocycle:
    """Cocycle given by an arbitrary callable (a, b) -> coordinate tuple.

    Only checkable on samples; used for maps read off from a group product
    rather than given in closed form.
    """

    def __init__(self, fn, n_components: int):
        self.fn = fn
        self.n_components = n_components

    def value(self, a, b, ring: Ring):
        out = tuple(ring.coerce(v) for v in self.fn(a, b))
        if len(out) != self.n_components:
            raise ShapeMismatchError(
                f"cocycle callable returned {len(out)} components, "
                f"expected {self.n_components}"
            )
        return out


@dataclass(frozen=True)
class CocycleReport:
    ok: bool
    mode: str  # "symbolic" or "sampled"
    failures: tuple


def check_cocycle(f, ring: Ring = ZZ, budget: int = 200, rng: Random | None = None) -> CocycleReport:
    """Cocycle identity, symmetry, and normalization.

    Polynomial cocycles are checked as exact identities over Q[x,y,z]; the
    ring argument matters only for sampled cocycles, which are checked on
    `budget` random triples; that budget must be at least 1.
    """
    failures = []
    if isinstance(f, PolynomialCocycle):
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
        return CocycleReport(ok=not failures, mode="symbolic", failures=tuple(failures))

    if budget < 1:
        raise HallforgeError(f"a sampled cocycle check needs a budget of at least 1, got {budget}")
    rng = rng or Random(0)
    zero = ring.zero
    for _ in range(budget):
        a = ring.random_element(rng)
        b = ring.random_element(rng)
        c = ring.random_element(rng)
        lhs = f.value(a + b, c, ring)
        mid = f.value(a, b, ring)
        rhs = f.value(a, b + c, ring)
        end = f.value(b, c, ring)
        if any(l + m != r + e for l, m, r, e in zip(lhs, mid, rhs, end)):
            failures.append(f"cocycle identity fails at ({a}, {b}, {c})")
            break
        if f.value(a, b, ring) != f.value(b, a, ring):
            failures.append(f"not symmetric at ({a}, {b})")
            break
        if any(v != zero for v in f.value(zero, a, ring)):
            failures.append(f"not normalized at {a}")
            break
    return CocycleReport(ok=not failures, mode="sampled", failures=tuple(failures))


class DeformedGroup(CoordinateGroup):
    """The base group with its top-weight product twisted by cocycles.

    Takes one cocycle per generator, each valued in the weight-c block.
    mul and inv twist the base product directly; pow takes every exponent
    of the ring through the splitting isomorphism, built on first use.
    There is no series image.
    """

    def __init__(self, base: FreeNilpotentGroup, cocycles, check=True):
        cocycles = tuple(cocycles)
        if len(cocycles) != base.rank:
            raise ShapeMismatchError(
                f"{len(cocycles)} cocycles for {base.rank} generators"
            )
        n_c = base.basis.counts[-1]
        for k, f in enumerate(cocycles):
            if f.n_components != n_c:
                raise ShapeMismatchError(
                    f"cocycle {k + 1} has {f.n_components} components, "
                    f"the weight-{base.nclass} block has {n_c}"
                )
            if check:
                report = check_cocycle(f, base.ring)
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
    def _iso(self) -> "SplittingIsomorphism":
        return SplittingIsomorphism(self, [coboundary_split(f) for f in self.cocycles])

    def pow(self, g: GroupElement, exponent) -> GroupElement:
        """g^exponent = to_deformed(to_base(g)^exponent), for any exponent of the ring.

        Raises SplitFailureError if a cocycle does not split.
        """
        return self._iso.to_deformed(self.base.pow(self._iso.to_base(g), exponent))


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


def iso_from_splittings(deformed: DeformedGroup, splittings) -> "SplittingIsomorphism":
    return SplittingIsomorphism(deformed, splittings)


class SplittingIsomorphism:
    """Coordinate bijection between a deformed group and its base.

    Splitting the cocycles makes the deformation a coboundary, and the map
    that subtracts sum_k psi^k(a_1k) from the top-weight block (identity on
    everything else) turns the deformed product into the plain one. The
    splittings are evaluated in the group's ring.
    """

    def __init__(self, deformed: DeformedGroup, splittings):
        splittings = tuple(splittings)
        if len(splittings) != deformed.rank:
            raise ShapeMismatchError(
                f"{len(splittings)} splittings for {deformed.rank} generators"
            )
        self.deformed = deformed
        self.base = deformed.base
        self.splittings = splittings
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

    def verify(self, rng: Random, samples: int) -> bool:
        """Homomorphism and two-sided round trips on random samples (at least 1)."""
        if samples < 1:
            raise HallforgeError(f"samples must be at least 1, got {samples}")
        for _ in range(samples):
            g = self.deformed.random_element(rng)
            h = self.deformed.random_element(rng)
            lhs = self.to_base(self.deformed.mul(g, h))
            rhs = self.base.mul(self.to_base(g), self.to_base(h))
            if lhs != rhs:
                raise NotAHomomorphismError(
                    f"image of a product differs from the product of images "
                    f"at {list(g.coords)} * {list(h.coords)}"
                )
            if self.to_deformed(self.to_base(g)) != g:
                raise NotAHomomorphismError("round trip through the base fails")
            x = self.base.random_element(rng)
            if self.to_base(self.to_deformed(x)) != x:
                raise NotAHomomorphismError("round trip through the deformation fails")
        return True


def assemble_extension_cocycle(deformed: DeformedGroup) -> "ExtensionCocycle":
    return ExtensionCocycle(deformed)


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

    def matches_deformed_mul(self, rng: Random, samples: int) -> bool:
        """Extension build against the deformed product on random pairs (at least 1)."""
        if samples < 1:
            raise HallforgeError(f"samples must be at least 1, got {samples}")
        for _ in range(samples):
            g = self.deformed.random_element(rng)
            h = self.deformed.random_element(rng)
            if self.extension_mul(g, h) != self.deformed.mul(g, h):
                return False
        return True


def centralizer_extension_check(deformed: DeformedGroup, j: int, rng: Random, samples: int) -> dict:
    """The centralizer of generator j in a deformed group.

    Its elements are u_1j^a times a central element; the subgroup is abelian,
    and the cocycle its products induce on the exponent a is exactly the
    generator's deformation component: on the samples, and on the box
    -8..8 as the coboundary of the component's closed-form split.
    Samples must be at least 1.
    """
    if samples < 1:
        raise HallforgeError(f"samples must be at least 1, got {samples}")
    grp = deformed
    flat = grp.basis.flat((1, j))
    top = grp._top
    width = grp.dimension - top

    def build(a, z):
        coords = [grp.ring.zero] * grp.dimension
        coords[flat] = a
        for s in range(width):
            coords[top + s] = z[s]
        return grp.element(coords)

    report = {"abelian": True, "matches_component": True}

    for _ in range(samples):
        a = rng.randint(-9, 9)
        b = rng.randint(-9, 9)
        z1 = [rng.randint(-9, 9) for _ in range(width)]
        z2 = [rng.randint(-9, 9) for _ in range(width)]
        x, y = build(a, z1), build(b, z2)
        if grp.mul(x, y) != grp.mul(y, x):
            report["abelian"] = False
        got = tuple(
            v - z - w
            for v, z, w in zip(grp.mul(x, y).coords[top:], z1, z2)
        )
        if got != grp.cocycles[j - 1].value(a, b, grp.ring):
            report["matches_component"] = False

    def induced(a, b):
        return tuple(grp.mul(build(a, [0] * width), build(b, [0] * width)).coords[top:])

    try:
        psi = coboundary_split(grp.cocycles[j - 1])
    except SplitFailureError:
        report["splits"] = False
        report["ok"] = False
        return report
    report["splits"] = True
    report["split_reproduces"] = all(
        induced(a, b) == psi.coboundary(a, b, grp.ring) for a in range(-8, 9) for b in range(-8, 9)
    )
    report["ok"] = report["abelian"] and report["matches_component"] and report["split_reproduces"]
    return report
