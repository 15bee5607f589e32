"""Acceptance suite: one test per shipped guarantee, at the stated scale.

Every check is exact; the only tolerance anywhere is the five-minute wall
clock on the group-axiom sweep. Run with `pytest -v tests/test_acceptance.py`
to get one pass/fail line per criterion.
"""

import time
from random import Random

from hallforge.canonical import (
    associativity_identity_holds,
    derive_hall_polynomials,
    derive_structure_polys,
)
from hallforge.deformation import (
    DeformedGroup,
    coboundary_split,
    product_cocycle,
    zero_cocycle,
)
from hallforge.group import FreeNilpotentGroup
from hallforge.lie import (
    bilinear_from_lie,
    centralizer_line_holds,
    compare_graded_lie,
    endomorphism_pair_space,
    free_nilpotent_lie,
    lazard_lie_ring,
)
from hallforge.oracles import Ut3Oracle
from hallforge.rings import ZZ, PolyRing
from hallforge.verify import _axiom_rows, _collection_rows, centralizer_structure_check, iso_rows
from hallforge.words import (
    Collector,
    commutator_power_identity_holds,
    petresco_identity_holds,
    petresco_sequence,
)

AXIOM_CONFIGS = ((2, 2), (2, 3), (3, 2), (2, 4), (2, 5))
POLY_CONFIGS = ((2, 2), (2, 3), (3, 2), (2, 4))
SMALL_CONFIGS = ((2, 2), (2, 3), (3, 2))
AXIOMS = ("associativity", "two-sided identity", "two-sided inverse")


def assert_rows_pass(rows):
    failing = [row for row in rows if not row.ok]
    assert not failing, failing


def test_criterion_1_group_axiom_suite_five_configs():
    rng = Random(101)
    started = time.monotonic()
    for rank, nclass in AXIOM_CONFIGS:
        assert_rows_pass(_axiom_rows(FreeNilpotentGroup(rank, nclass), rng, 1000, AXIOMS))
    elapsed = time.monotonic() - started
    assert elapsed < 300.0, f"axiom sweep took {elapsed:.1f}s"
    print(f"ACCEPTANCE 1 PASS group axioms, 5 configurations, {elapsed:.1f}s")


def test_criterion_2_unitriangular_matrix_oracle():
    grp = FreeNilpotentGroup(2, 2)
    oracle = Ut3Oracle()
    rng = Random(102)
    for _ in range(1000):
        a = [rng.randint(-9, 9) for _ in range(3)]
        b = [rng.randint(-9, 9) for _ in range(3)]
        n = rng.randint(-9, 9)
        assert grp.mul(grp.element(a), grp.element(b)).coords == oracle.mul(a, b)
        assert grp.pow(grp.element(a), n).coords == oracle.pow(a, n)
        assert grp.inv(grp.element(a)).coords == oracle.inv(a)
    print("ACCEPTANCE 2 PASS matrix oracle, 1000 cases")


def test_criterion_3_collection_matches_series_and_polynomials():
    rng = Random(103)
    for rank, nclass in AXIOM_CONFIGS:
        grp = FreeNilpotentGroup(rank, nclass)
        collector = Collector(grp, derive_structure_polys(rank, nclass))
        assert_rows_pass(_collection_rows(grp, collector, rng, 500))
    for rank, nclass in POLY_CONFIGS:
        cp = derive_hall_polynomials(rank, nclass)
        grp = FreeNilpotentGroup(rank, nclass)
        n = grp.dimension
        for _ in range(200):
            a = [rng.randint(-9, 9) for _ in range(n)]
            b = [rng.randint(-9, 9) for _ in range(n)]
            assert cp.mul_coords(a, b, ZZ) == grp.mul_coords(a, b)
            ex = rng.randint(-9, 9)
            assert cp.pow_coords(a, ex, ZZ) == grp.pow_coords(a, ex)
    print("ACCEPTANCE 3 PASS collection and polynomial paths agree")


def test_criterion_4_binomial_basis_integer_coefficients():
    for rank, nclass in POLY_CONFIGS:
        cp = derive_hall_polynomials(rank, nclass)
        # conversion raises if any coefficient falls outside the integers;
        # the tables are part of the derived object, so re-check them here
        for table in list(cp.p_tables) + list(cp.q_tables):
            assert all(
                isinstance(v, int) and v == int(v)
                for v in table.as_dict().values()
            )
        ring = PolyRing(cp.mul_vars)
        n = sum(FreeNilpotentGroup(rank, nclass).basis.counts)
        for j in range(rank):
            assert cp.p[j] == ring.variable(cp.mul_vars[j]) + ring.variable(
                cp.mul_vars[n + j]
            )
    assert associativity_identity_holds(derive_hall_polynomials(2, 2))
    assert associativity_identity_holds(derive_hall_polynomials(2, 3))
    print("ACCEPTANCE 4 PASS canonical polynomials integral in the binomial basis")


def test_criterion_5_power_product_identities():
    rng = Random(105)
    for rank, nclass in ((2, 5), (3, 3)):
        grp = FreeNilpotentGroup(rank, nclass)
        for _ in range(3):
            xs = [grp.random_element(rng, -4, 4) for _ in range(2)]
            taus = petresco_sequence(grp, xs, nclass)
            for k, t in enumerate(taus, start=1):
                assert grp.gamma_weight(t) >= k
            for n in range(1, 7):
                assert petresco_identity_holds(grp, xs, n)
    for rank, nclass in ((2, 4), (3, 3)):
        grp = FreeNilpotentGroup(rank, nclass)
        for _ in range(100):
            h = grp.random_element(rng, -3, 3)
            g = grp.random_element(rng, -3, 3)
            w = grp.mul(grp.mul(grp.inv(h), grp.inv(g)), h)
            taus = petresco_sequence(grp, (w, g), nclass)
            for a in range(-5, 6):
                assert commutator_power_identity_holds(grp, h, g, a, taus=taus)
    print("ACCEPTANCE 5 PASS power-product identities and commutator powers")


def test_criterion_6_graded_lie_constants_match():
    for rank, nclass in POLY_CONFIGS:
        assert compare_graded_lie(
            lazard_lie_ring(rank, nclass), free_nilpotent_lie(rank, nclass)
        )
    print("ACCEPTANCE 6 PASS graded Lie ring matches the free nilpotent one")


def test_criterion_7_endomorphism_pair_line():
    for rank, nclass in SMALL_CONFIGS:
        bil = bilinear_from_lie(free_nilpotent_lie(rank, nclass))
        pairs = endomorphism_pair_space(bil)
        assert len(pairs) == 1
        assert pairs[0].scalar_value() is not None
    print("ACCEPTANCE 7 PASS compatible endomorphism pairs are exactly the scalars")


def test_criterion_8_abelian_deformation_suite():
    rng = Random(108)
    for rank, nclass in SMALL_CONFIGS:
        base = FreeNilpotentGroup(rank, nclass)
        n_c = base.basis.counts[-1]
        family = [product_cocycle(n_c, 0)] + [
            zero_cocycle(n_c) for _ in range(rank - 1)
        ]
        dgrp = DeformedGroup(base, family)
        assert_rows_pass(_axiom_rows(dgrp, rng, 1000, AXIOMS))

        splittings = [coboundary_split(f) for f in family]
        # the first splitting equals binom(a,2) up to an additive homomorphism
        psi = splittings[0]

        def diff(a):
            return tuple(
                v - (ZZ.binom(a, 2) if j == 0 else 0)
                for j, v in enumerate(psi(a))
            )

        for a in range(-10, 11):
            for b in range(-10, 11):
                assert diff(a + b) == tuple(
                    x + y for x, y in zip(diff(a), diff(b))
                )

        assert_rows_pass(iso_rows(dgrp.splitting, rng, 1000))

        zgrp = DeformedGroup(base, [zero_cocycle(n_c)] * rank)
        for _ in range(200):
            a = base.random_element(rng, -9, 9)
            b = base.random_element(rng, -9, 9)
            assert zgrp.mul(
                zgrp.element(list(a.coords)), zgrp.element(list(b.coords))
            ).coords == base.mul(a, b).coords
    print("ACCEPTANCE 8 PASS deformation by the product cocycle behaves")


def test_criterion_9_generator_centralizer_line():
    rng = Random(109)
    for rank, nclass in SMALL_CONFIGS:
        lie = free_nilpotent_lie(rank, nclass)
        grp = FreeNilpotentGroup(rank, nclass)
        for j in range(1, rank + 1):
            assert centralizer_line_holds(lie, j)
            report = centralizer_structure_check(grp, j, rng, samples=40)
            assert report["ok"], (rank, nclass, j, report)
    print("ACCEPTANCE 9 PASS generator centralizers reduce to a coordinate line")
