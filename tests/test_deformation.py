"""Tests for cocycle checks, deformed multiplication, and splittings."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deformation_oracle import IntegerSplitting, coboundary_tables, psi_tables, squaring_pow
from poly_oracle import eval_tables_per_table
from hallforge.deformation import (
    DeformedGroup,
    ExtensionCocycle,
    PolynomialCocycle,
    check_cocycle,
    coboundary_split,
    product_cocycle,
    zero_cocycle,
)
from hallforge.errors import (
    CocycleViolationError,
    HallforgeError,
    NotInRingError,
    ScaleLimitError,
    ShapeMismatchError,
    SplitFailureError,
)
from hallforge.group import CoordinateGroup, FreeNilpotentGroup
from hallforge.rings import MAX_EXPONENT, QQ, ZZ, Poly, PolyRing
from hallforge.verify import extension_rows, iso_rows


def _typed(values):
    return [(type(v), v.terms if isinstance(v, Poly) else v) for v in values]


def _mixed_cocycle(n_components):
    # 3ab plus the coboundary of binom(., 3), in component 0
    tables = [{} for _ in range(n_components)]
    tables[0] = {(1, 1): 3, (1, 2): 1, (2, 1): 1}
    return PolynomialCocycle.from_tables(tables)


def _family(base):
    n_c = base.basis.counts[-1]
    fam = [product_cocycle(n_c, 0), _mixed_cocycle(n_c)]
    return fam[: base.rank] + [zero_cocycle(n_c)] * (base.rank - 2)


def test_symbolic_cocycle_check_passes():
    assert check_cocycle(product_cocycle(1, 0)).ok
    assert check_cocycle(_mixed_cocycle(2)).ok
    assert check_cocycle(zero_cocycle(3)).ok


def test_asymmetric_map_rejected():
    # a^2 b = (2 binom(a,2) + binom(a,1)) binom(b,1) is not symmetric
    bad = PolynomialCocycle.from_tables([{(2, 1): 2, (1, 1): 1}])
    report = check_cocycle(bad)
    assert not report.ok


def test_non_cocycle_rejected():
    # binom(a,2) b alone fails the cocycle identity at x = y = z = 1
    bad = PolynomialCocycle.from_tables([{(2, 1): 1}])
    assert not check_cocycle(bad).ok


def test_cocycle_table_degrees_are_bounded():
    # a binomial degree d costs about d^2 work per evaluation, so it is capped
    top = PolynomialCocycle.from_tables([{(MAX_EXPONENT, 1): 1}])
    assert top.value(-1, 2, ZZ) == (-2,)
    with pytest.raises(ScaleLimitError):
        PolynomialCocycle.from_tables([{(MAX_EXPONENT + 1, 0): 1}])


class _CallableCocycle:
    """A map (a, b) -> top block given only as code, with no tables to check or split."""

    n_components = 1

    def value(self, a, b, ring):
        return (ring.coerce(a * b),)


@pytest.mark.parametrize("check", [True, False])
@pytest.mark.parametrize("cocycle", [_CallableCocycle(), object()], ids=["callable", "object"])
def test_deformed_group_refuses_non_polynomial_cocycles(check, cocycle):
    # refused whatever check says: pow would need a closed-form split
    with pytest.raises(ShapeMismatchError, match="PolynomialCocycle"):
        DeformedGroup(FreeNilpotentGroup(2, 2), [cocycle, zero_cocycle(1)], check=check)
    with pytest.raises(ShapeMismatchError, match="PolynomialCocycle"):
        check_cocycle(cocycle)


def _non_cocycle_deformation():
    # f(a, b) = a * binom(b, 2) is normalized but fails the cocycle identity
    bad = PolynomialCocycle.from_tables([{(1, 2): 1}])
    return DeformedGroup(FreeNilpotentGroup(2, 2), [bad, zero_cocycle(1)], check=False)


def test_deformed_group_validates_cocycles():
    base = FreeNilpotentGroup(2, 2)
    bad = PolynomialCocycle.from_tables([{(2, 1): 1}])
    with pytest.raises(CocycleViolationError):
        DeformedGroup(base, [bad, zero_cocycle(1)])
    with pytest.raises(ShapeMismatchError):
        DeformedGroup(base, [zero_cocycle(1)])
    with pytest.raises(ShapeMismatchError):
        DeformedGroup(base, [zero_cocycle(2), zero_cocycle(2)])


def test_deformed_group_refuses_class_one():
    # at class 1 the top block is the generator block, and this family twists
    # it into a non-associative product: ((3, 4)(-8, -1))(7, 6) and
    # (3, 4)((-8, -1)(7, 6)) differ
    base = FreeNilpotentGroup(2, 1)
    with pytest.raises(ShapeMismatchError, match="class >= 2"):
        DeformedGroup(base, _family(base))


def test_deformed_axioms_sampled():
    rng = Random(83)
    for rank, nclass in ((2, 2), (2, 3), (3, 2)):
        base = FreeNilpotentGroup(rank, nclass)
        dgrp = DeformedGroup(base, _family(base))
        e = dgrp.identity()
        for _ in range(150):
            g = dgrp.random_element(rng)
            h = dgrp.random_element(rng)
            k = dgrp.random_element(rng)
            assert dgrp.mul(dgrp.mul(g, h), k) == dgrp.mul(g, dgrp.mul(h, k))
            assert dgrp.mul(g, e) == g and dgrp.mul(e, g) == g
            gi = dgrp.inv(g)
            assert dgrp.mul(g, gi) == e and dgrp.mul(gi, g) == e


def test_deformation_only_touches_top_weight():
    rng = Random(84)
    base = FreeNilpotentGroup(2, 3)
    dgrp = DeformedGroup(base, _family(base))
    top = base.basis.weight_start(3)
    for _ in range(80):
        g = dgrp.random_element(rng)
        h = dgrp.random_element(rng)
        plain = base.mul_coords(g.coords, h.coords)
        deformed = dgrp.mul(g, h).coords
        assert deformed[:top] == plain[:top]
        assert deformed != plain or all(
            f.value(g.coords[k], h.coords[k], ZZ)
            == tuple([0] * base.basis.counts[-1])
            for k, f in enumerate(dgrp.cocycles)
        )


def test_zero_cocycles_reproduce_base_exactly():
    rng = Random(85)
    base = FreeNilpotentGroup(2, 3)
    n_c = base.basis.counts[-1]
    dgrp = DeformedGroup(base, [zero_cocycle(n_c)] * 2)
    for _ in range(60):
        g = dgrp.random_element(rng)
        h = dgrp.random_element(rng)
        assert dgrp.mul(g, h).coords == base.mul_coords(g.coords, h.coords)
        assert dgrp.inv(g).coords == base.inv_coords(g.coords)
        n = rng.randint(-6, 6)
        assert dgrp.pow(g, n).coords == base.pow_coords(g.coords, n)


def test_deformed_pow_integer_exponents_only():
    base = FreeNilpotentGroup(2, 2)
    dgrp = DeformedGroup(base, _family(base))
    g = dgrp.random_element(Random(86))
    assert dgrp.pow(g, 3) == dgrp.mul(dgrp.mul(g, g), g)
    with pytest.raises(NotInRingError):
        dgrp.pow(g, Fraction(1, 2))


def test_product_cocycle_splits_exactly():
    psi = coboundary_split(product_cocycle(1, 0))
    for a in range(-15, 16):
        assert psi(a) == (ZZ.binom(a, 2),)


def test_mixed_cocycle_splitting_value():
    psi = coboundary_split(_mixed_cocycle(1))
    for a in range(-12, 13):
        assert psi(a) == (3 * ZZ.binom(a, 2) + ZZ.binom(a, 3),)


def test_cocycle_and_splitting_values_match_the_oracle():
    f = _mixed_cocycle(3)
    psi = coboundary_split(f)
    t = PolyRing(("t",)).variable("t")
    points = {
        ZZ: [(a, b) for a in range(-4, 5) for b in range(-3, 4)],
        QQ: [(Fraction(a, 3), Fraction(-b, 2)) for a in range(-4, 5) for b in range(-3, 4)],
        PolyRing(("t",)): [(t + a, t * b - 1) for a in range(-2, 3) for b in range(-2, 3)],
    }
    for ring, pairs in points.items():
        for a, b in pairs:
            got, want = f.value(a, b, ring), eval_tables_per_table(f.components, (a, b), ring)
            assert type(got) is tuple and _typed(got) == _typed(want)
            got, want = psi.value(a, ring), eval_tables_per_table(psi.components, (a,), ring)
            assert type(got) is tuple and _typed(got) == _typed(want)


def test_splitting_satisfies_coboundary_equation():
    psi = coboundary_split(_mixed_cocycle(2))
    f = _mixed_cocycle(2)
    for a in range(-8, 9):
        for b in range(-8, 9):
            lhs = tuple(
                pa + pb + fv
                for pa, pb, fv in zip(psi(a), psi(b), f.value(a, b, ZZ))
            )
            assert lhs == psi(a + b)


def test_iso_round_trips_and_verifies():
    rng = Random(87)
    for rank, nclass in ((2, 2), (2, 3)):
        base = FreeNilpotentGroup(rank, nclass)
        dgrp = DeformedGroup(base, _family(base))
        iso = dgrp.splitting
        assert all(row.ok for row in iso_rows(iso, rng, 100))
        for _ in range(50):
            g = dgrp.random_element(rng)
            assert iso.to_deformed(iso.to_base(g)) == g
            x = base.random_element(rng)
            assert iso.to_base(iso.to_deformed(x)) == x


@pytest.mark.parametrize("samples", [0, -3])
def test_iso_verify_rejects_non_positive_samples(samples):
    base = FreeNilpotentGroup(2, 2)
    dgrp = DeformedGroup(base, _family(base))
    with pytest.raises(HallforgeError, match="samples"):
        iso_rows(dgrp.splitting, Random(0), samples)


def test_iso_is_a_homomorphism_pointwise():
    rng = Random(88)
    base = FreeNilpotentGroup(2, 2)
    dgrp = DeformedGroup(base, _family(base))
    iso = dgrp.splitting
    assert dgrp.splitting is iso  # built once, shared by pow and the checks
    for _ in range(80):
        g = dgrp.random_element(rng)
        h = dgrp.random_element(rng)
        image = iso.to_base(dgrp.mul(g, h))
        expected = base.mul(iso.to_base(g), iso.to_base(h))
        assert image == expected


def test_extension_cocycle_properties():
    rng = Random(89)
    base = FreeNilpotentGroup(2, 2)
    dgrp = DeformedGroup(base, _family(base))
    ext = ExtensionCocycle(dgrp)
    for _ in range(100):
        a = dgrp.random_element(rng).coords
        b = dgrp.random_element(rng).coords
        c = dgrp.random_element(rng).coords
        assert ext.cocycle_identity_holds(a, b, c)
        assert ext.is_normalized_at(a)
    assert all(row.ok for row in extension_rows(ext, rng, 60))


@pytest.mark.parametrize("samples", [0, -5])
def test_extension_match_refuses_non_positive_samples(samples):
    ext = ExtensionCocycle(_non_cocycle_deformation())
    with pytest.raises(HallforgeError, match="samples"):
        extension_rows(ext, Random(0), samples)


def test_centralizer_extension_reports():
    rng = Random(90)
    for rank, nclass in ((2, 2), (2, 3), (3, 2)):
        base = FreeNilpotentGroup(rank, nclass)
        dgrp = DeformedGroup(base, _family(base))
        width = base.basis.counts[-1]
        for j in range(1, rank + 1):
            for _ in range(20):
                a, b = rng.randint(-9, 9), rng.randint(-9, 9)
                z1 = [rng.randint(-9, 9) for _ in range(width)]
                z2 = [rng.randint(-9, 9) for _ in range(width)]
                assert dgrp.centralizer_law_holds(j, a, b, z1, z2), (rank, nclass, j, a, b, z1, z2)
            assert dgrp.centralizer_split_holds(j), (rank, nclass, j)


def test_group_objects_share_one_element_protocol():
    base = FreeNilpotentGroup(2, 2)
    dgrp = DeformedGroup(base, [zero_cocycle(1)] * 2)
    for grp in (base, dgrp):
        assert isinstance(grp, CoordinateGroup)
        assert grp.dimension == 3
        assert grp.identity().coords == (0, 0, 0)
        assert grp.element([1, 2, 3]).group is grp
        assert grp.random_element(Random(0)).group is grp
    with pytest.raises(ShapeMismatchError):
        dgrp.mul(base.identity(), dgrp.identity())
    with pytest.raises(ShapeMismatchError):
        base.mul(dgrp.identity(), base.identity())


@settings(derandomize=True, max_examples=60, deadline=None)
@given(psi_tables(), st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-3, 3))
def test_split_of_a_coboundary_is_its_splitting(tables, entry, c):
    f = PolynomialCocycle.from_tables(coboundary_tables(tables))
    psi = coboundary_split(f)
    assert [t.as_dict() for t in psi.components] == tables
    oracle = IntegerSplitting(f)
    assert all(psi(a) == oracle(a) for a in range(-20, 21))
    # perturb one coefficient: the split fails exactly when the cocycle check does
    perturbed = coboundary_tables(tables)
    perturbed[0][entry] = perturbed[0].get(entry, 0) + c
    g = PolynomialCocycle.from_tables(perturbed)
    if check_cocycle(g).ok:
        coboundary_split(g)
    else:
        with pytest.raises(SplitFailureError):
            coboundary_split(g)


def test_sampled_cocycles_do_not_split():
    with pytest.raises(SplitFailureError):
        coboundary_split(_CallableCocycle())


@pytest.mark.parametrize("ring", [ZZ, QQ], ids=["ZZ", "QQ"])
@pytest.mark.parametrize("rank, nclass", [(2, 2), (2, 3), (3, 3)])
def test_deformed_pow_matches_repeated_squaring(ring, rank, nclass):
    rng = Random(91)
    base = FreeNilpotentGroup(rank, nclass, ring)
    dgrp = DeformedGroup(base, _family(base))
    for _ in range(8):
        g = dgrp.random_element(rng)
        e = rng.randint(-7, 7)
        got, want = dgrp.pow(g, e).coords, squaring_pow(dgrp, g, e).coords
        assert [(type(v), v) for v in got] == [(type(v), v) for v in want], (g, e)


def test_deformed_square_root_over_rationals():
    rng = Random(92)
    base = FreeNilpotentGroup(2, 3, QQ)
    dgrp = DeformedGroup(base, _family(base))
    for _ in range(10):
        g = dgrp.random_element(rng)
        h = dgrp.pow(g, Fraction(1, 2))
        assert dgrp.mul(h, h) == g


@pytest.mark.parametrize("rank, nclass", [(2, 2), (2, 3), (3, 2)])
def test_deformed_pow_exponent_law_over_polynomials(rank, nclass):
    ring = PolyRing(("s", "t"))
    s, t = ring.variable("s"), ring.variable("t")
    base = FreeNilpotentGroup(rank, nclass, ring)
    dgrp = DeformedGroup(base, _family(base))
    g = dgrp.element(FreeNilpotentGroup(rank, nclass).random_element(Random(93), -3, 3).coords)
    gs = dgrp.pow(g, s)
    assert dgrp.mul(gs, dgrp.pow(g, t)) == dgrp.pow(g, s + t)
    assert dgrp.pow(gs, 2) == dgrp.mul(gs, gs)


def test_deformed_pow_needs_a_split():
    dgrp = _non_cocycle_deformation()
    with pytest.raises(SplitFailureError):
        dgrp.pow(dgrp.identity(), 2)


def test_iso_verifies_over_rationals():
    base = FreeNilpotentGroup(2, 2, QQ)
    dgrp = DeformedGroup(base, [product_cocycle(1, 0), zero_cocycle(1)])
    iso = dgrp.splitting
    half = Fraction(1, 2)
    # psi(1/2) = binom(1/2, 2) = -1/8 leaves the top coordinate
    assert iso.to_base(dgrp.element([half, 0, 0])).coords == (half, 0, Fraction(1, 8))
    assert all(row.ok for row in iso_rows(iso, Random(0), 50))


def test_centralizer_extension_check_reports_a_non_cocycle():
    # a * binom(b, 2) has no closed-form split, so its centralizer check fails
    assert _non_cocycle_deformation().centralizer_split_holds(1) is False
