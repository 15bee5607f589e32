"""Tests for coordinate arithmetic in the free nilpotent group engine.

The differential tests at the end compare construction and the engine's
mul/pow/inv with the reference loops in series_oracle.py.
"""

import itertools
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from series_oracle import (
    CONFIGS,
    RINGS,
    dense_engine_tables,
    exponents,
    oracle_inv_coords,
    oracle_mul_coords,
    oracle_pow_coords,
    oracle_series_from_coords,
    ring_values,
    typed,
    typed_coords,
)

from hallforge import group
from hallforge.canonical import derive_hall_polynomials, derive_structure_polys
from hallforge.errors import (
    BadRankError,
    NotGroupLikeError,
    OutOfClassError,
    ScaleLimitError,
    ShapeMismatchError,
)
from hallforge.group import ENGINE_WORD_LIMIT, FreeNilpotentGroup, check_engine_scale
from hallforge.lie import free_nilpotent_lie, lazard_lie_ring
from hallforge.oracles import Ut3Oracle
from hallforge.rings import QQ, ZZ, PolyRing
from hallforge.series import TruncatedSeries
from hallforge.verify import centralizer_structure_check


def test_frozen_products_rank2_class2():
    g = FreeNilpotentGroup(2, 2)
    x1, x2 = g.generator(1), g.generator(2)
    assert g.mul(x1, x2).coords == (1, 1, 0)
    assert g.mul(x2, x1).coords == (1, 1, 1)
    assert g.commutator(x1, x2).coords == (0, 0, -1)
    assert g.commutator(x2, x1).coords == (0, 0, 1)
    assert g.inv(x1).coords == (-1, 0, 0)


def test_pow_frozen_weight2_coordinate():
    g = FreeNilpotentGroup(2, 2)
    e = g.element([1, 1, 0])
    for n in range(-6, 7):
        assert g.pow(e, n).coords == (n, n, ZZ.binom(n, 2))


def test_matrix_oracle_agreement():
    g = FreeNilpotentGroup(2, 2)
    ut = Ut3Oracle()
    rng = Random(51)
    for _ in range(300):
        a = [rng.randint(-9, 9) for _ in range(3)]
        b = [rng.randint(-9, 9) for _ in range(3)]
        assert g.mul(g.element(a), g.element(b)).coords == ut.mul(a, b)
        n = rng.randint(-9, 9)
        assert g.pow(g.element(a), n).coords == ut.pow(a, n)
        assert g.inv(g.element(a)).coords == ut.inv(a)


def test_group_axioms_sampled():
    rng = Random(52)
    for rank, nclass in ((2, 3), (3, 2)):
        g = FreeNilpotentGroup(rank, nclass)
        e = g.identity()
        for _ in range(100):
            a = g.random_element(rng)
            b = g.random_element(rng)
            c = g.random_element(rng)
            assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))
            assert g.mul(a, e) == a and g.mul(e, a) == a
            ai = g.inv(a)
            assert g.mul(a, ai) == e and g.mul(ai, a) == e


def test_extraction_round_trip():
    rng = Random(53)
    g = FreeNilpotentGroup(2, 4)
    for _ in range(60):
        a = g.random_element(rng)
        assert g.from_series(g.to_series(a)) == a
        assert g.coords_from_series(g.series_from_coords(a.coords)) == a.coords


def test_extraction_rejects_non_group_like():
    g = FreeNilpotentGroup(2, 2)
    bad = TruncatedSeries(2, 2, {(): 1, (1, 2): 1, (2, 1): 1})
    # symmetric weight-2 part cannot come from a coordinate image: after
    # stripping the weight-1 letters nothing in the span of [x2,x1] remains
    with pytest.raises(NotGroupLikeError):
        g.coords_from_series(bad)


def test_rational_ring_coordinates():
    g = FreeNilpotentGroup(2, 3, QQ)
    rng = Random(54)
    for _ in range(50):
        a = g.random_element(rng)
        b = g.random_element(rng)
        ab = g.mul(a, b)
        assert g.mul(g.inv(ab), ab) == g.identity()
        t = QQ.random_element(rng)
        s = QQ.random_element(rng)
        x = g.pow(a, t)
        assert g.mul(x, g.pow(a, s)) == g.pow(a, t + s)


def test_polynomial_ring_coordinates():
    ring = PolyRing(("s", "t"))
    s = ring.variable("s")
    t = ring.variable("t")
    g = FreeNilpotentGroup(2, 2, ring)
    x1 = g.element([s, ring.zero, ring.zero])
    x2 = g.element([ring.zero, t, ring.zero])
    # symbolic generators commute up to the predicted weight-2 tail
    assert g.commutator(x1, x2).coords == (ring.zero, ring.zero, -(s * t))


def test_gamma_weight_and_center():
    g = FreeNilpotentGroup(2, 3)
    assert g.gamma_weight(g.identity()) == 4
    assert g.gamma_weight(g.generator(1)) == 1
    c = g.commutator(g.generator(1), g.generator(2))
    assert g.gamma_weight(c) == 2
    deep = g.commutator(c, g.generator(1))
    assert g.gamma_weight(deep) == 3
    assert g.is_central(deep)
    assert not g.is_central(c)


def test_filtration_under_products():
    rng = Random(55)
    g = FreeNilpotentGroup(2, 4)
    for _ in range(60):
        a = g.random_element(rng, -3, 3)
        b = g.random_element(rng, -3, 3)
        wa, wb = g.gamma_weight(a), g.gamma_weight(b)
        assert g.gamma_weight(g.mul(a, b)) >= min(wa, wb)
        assert g.gamma_weight(g.commutator(a, b)) >= min(5, wa + wb)


def test_weight_block_coords():
    g = FreeNilpotentGroup(2, 3)
    a = g.element([1, 2, 3, 4, 5])
    assert g.weight_block_coords(a, 1) == (1, 2)
    assert g.weight_block_coords(a, 2) == (3,)
    assert g.weight_block_coords(a, 3) == (4, 5)


def test_element_shape_validation():
    g = FreeNilpotentGroup(2, 2)
    with pytest.raises(ShapeMismatchError):
        g.element([1, 2])
    with pytest.raises(ShapeMismatchError):
        g.element([1, 2, 3, 4])


@pytest.mark.parametrize("coords", [(1,), (1, 0, 0, 0)], ids=["short", "long"])
@pytest.mark.parametrize("op", ["mul", "pow", "inv"])
def test_engine_arithmetic_refuses_wrong_coordinate_counts(op, coords):
    g = FreeNilpotentGroup(2, 2)
    calls = {
        "mul": lambda: g.mul_coords(coords, coords),
        "pow": lambda: g.pow_coords(coords, 2),
        "inv": lambda: g.inv_coords(coords),
    }
    with pytest.raises(ShapeMismatchError):
        calls[op]()


def test_conjugate_definition():
    rng = Random(56)
    g = FreeNilpotentGroup(2, 3)
    for _ in range(30):
        a = g.random_element(rng)
        h = g.random_element(rng)
        assert g.conjugate(a, h) == g.mul(g.mul(g.inv(h), a), h)


def test_centralizer_structure_reports():
    rng = Random(57)
    for rank, nclass in ((2, 2), (2, 3), (3, 2)):
        g = FreeNilpotentGroup(rank, nclass)
        for j in range(1, rank + 1):
            rows = centralizer_structure_check(g, j, rng, samples=25)
            assert [row.name for row in rows] == [
                "built_elements_commute", "decomposition_exact", "center_is_weight_c_block"
            ]
            assert all(row.ok for row in rows), rows


# -- size guard -------------------------------------------------------------------


def test_engine_scale_guard_counts_words():
    # (2,9) has 2^10 - 1 = 1023 words, (2,10) has 2047
    check_engine_scale(2, 9)
    check_engine_scale(3, 5)
    check_engine_scale(1, ENGINE_WORD_LIMIT - 1)
    for rank, nclass in ((2, 10), (10, 10), (1, ENGINE_WORD_LIMIT), (10**6, 10**6), (1, 10**18)):
        with pytest.raises(ScaleLimitError):
            check_engine_scale(rank, nclass)


@pytest.mark.parametrize(
    "rank, nclass, error",
    [
        (2.0, 2, BadRankError),
        (True, 2, BadRankError),
        ("3", 2, BadRankError),
        (2, 2.0, OutOfClassError),
        (2, True, OutOfClassError),
        (2, "3", OutOfClassError),
    ],
)
def test_config_must_be_ints(monkeypatch, rank, nclass, error):
    builds = (
        FreeNilpotentGroup,
        derive_hall_polynomials,
        derive_structure_polys,
        lazard_lie_ring,
        free_nilpotent_lie,
    )
    for build in builds:  # cached equal keys must not answer for the wrong type
        build(2, 2)
    FreeNilpotentGroup(2, 1)
    with pytest.raises(error):
        check_engine_scale(rank, nclass)

    def no_basis(*args):
        raise AssertionError("hall_basis ran for a refused configuration")

    monkeypatch.setattr(group, "hall_basis", no_basis)
    for build in builds:
        with pytest.raises(error):
            build(rank, nclass)


def test_huge_group_refused_before_any_table(monkeypatch):
    def no_basis(*args):
        raise AssertionError("hall_basis ran for a refused configuration")

    monkeypatch.setattr(group, "hall_basis", no_basis)
    with pytest.raises(ScaleLimitError):
        FreeNilpotentGroup(10, 10)
    with pytest.raises(ScaleLimitError):
        group._engine_tables(2, 10**9)
    with pytest.raises(ScaleLimitError):
        FreeNilpotentGroup(1, 10**12)


# every class >= 2 configuration with at most 400 words; weight 1 is in each
UP_TO_400_WORDS = [
    (r, c)
    for r in range(2, 20)
    for c in range(2, 9)
    if sum(r**i for i in range(c + 1)) <= 400
]


def test_solver_entries_are_nonzero_ints_up_to_400_words():
    assert len(UP_TO_400_WORDS) == 31
    for rank, nclass in UP_TO_400_WORDS:
        t = group._engine_tables(rank, nclass)
        for i, rows in enumerate(t.solvers, start=1):
            assert len(rows) == len(t.pivot_words[i - 1]) == len(t.basis.weight_block(i))
            for row in rows:
                assert row and [k for k, _ in row] == sorted({k for k, _ in row})
                assert all(type(q) is int and q for _, q in row), (rank, nclass, i, row)


def _typed_solvers(solvers):
    return [[[(k, type(q), q) for k, q in row] for row in rows] for rows in solvers]


def test_engine_tables_match_the_dense_method_up_to_400_words():
    # the sparse set-up picks the same pivot words and the same solver entries,
    # int or Fraction alike, as the dense matrix over every word
    for rank, nclass in UP_TO_400_WORDS:
        t = group._engine_tables(rank, nclass)
        pivot_words, solvers = dense_engine_tables(rank, nclass)
        assert t.pivot_words == pivot_words, (rank, nclass)
        assert _typed_solvers(t.solvers) == _typed_solvers(solvers), (rank, nclass)


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
@pytest.mark.parametrize("rank, nclass", [(2, 4), (3, 3)])
def test_extraction_refuses_a_tampered_word_off_the_pivots(ring, rank, nclass):
    grp = FreeNilpotentGroup(rank, nclass, ring)
    s = grp.to_series(grp.random_element(Random(rank * 10 + nclass)))
    pivots = grp._tables.pivot_words
    for i in range(2, nclass + 1):
        words = itertools.product(range(1, rank + 1), repeat=i)
        off = next(w for w in words if w not in pivots[i - 1])
        coeffs = dict(s.coeffs)
        coeffs[off] = ring.coerce(coeffs.get(off, 0)) + 1
        with pytest.raises(NotGroupLikeError):
            grp.coords_from_series(TruncatedSeries(rank, nclass, coeffs))


# -- the interface the Lie and polynomial layers read -------------------------

XY = PolyRing(("x", "y"))


@pytest.mark.parametrize(
    "ring, exponents",
    [
        (ZZ, [1, -1, 3, -4]),
        (QQ, [Fraction(-1, 2), Fraction(5, 3), -2]),
        (XY, [XY.variable("x"), -XY.variable("y"), XY.variable("x") * XY.variable("y") - 2]),
    ],
    ids=["ZZ", "QQ", "Q[x,y]"],
)
def test_unit_series_is_the_series_of_one_coordinate(ring, exponents):
    grp = FreeNilpotentGroup(3, 3, ring)
    for flat in range(grp.dimension):
        for a in exponents:
            coords = [ring.zero] * grp.dimension
            coords[flat] = ring.coerce(a)
            assert typed(grp.unit_series(flat, a)) == typed(grp.series_from_coords(coords))


def test_commutator_coords_extract_once_and_refuse_below_the_floor():
    grp = FreeNilpotentGroup(2, 3)
    u, v = ((grp.unit_series(f, -1), grp.unit_series(f, 1)) for f in (0, 1))
    want = grp.commutator(grp.generator(1), grp.generator(2)).coords
    assert grp.commutator_coords(u, v, 2) == want
    # [u_11, u_12] has its weight-2 coordinate, which a floor of 3 refuses
    with pytest.raises(RuntimeError, match="below weight 3"):
        grp.commutator_coords(u, v, 3)


def test_lie_coords_solve_in_the_ring_and_refuse_outside_the_span():
    grp = FreeNilpotentGroup(2, 3)
    basis = grp.basis
    x1, x2, u21 = (basis.lie_element(e) for e in basis.entries[:3])
    assert u21 == x2 * x1 - x1 * x2  # u_21 = [x2, x1]
    assert typed_coords(grp.lie_coords(2, 3 * (x1 * x2 - x2 * x1))) == [(int, -3)]
    assert typed_coords(FreeNilpotentGroup(2, 3, QQ).lie_coords(2, u21)) == [(Fraction, 1)]
    # x1 x2 is not a Lie element, so no Hall coordinates re-expand to it
    with pytest.raises(RuntimeError, match="weight-2 Hall span"):
        grp.lie_coords(2, x1 * x2)


# -- differential properties against the reference loops ----------------------


@st.composite
def coordinate_pairs(draw):
    rank, nclass = draw(st.sampled_from(CONFIGS))
    ring = draw(st.sampled_from(RINGS))
    grp = FreeNilpotentGroup(rank, nclass, ring)
    coords = st.lists(ring_values(ring), min_size=grp.dimension, max_size=grp.dimension)
    a, b = draw(coords), draw(coords)
    return grp, tuple(map(ring.coerce, a)), tuple(map(ring.coerce, b)), draw(exponents(ring))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(coordinate_pairs())
def test_series_from_coords_matches_reference(case):
    grp, a, b, _ = case
    assert typed(grp.series_from_coords(a)) == typed(oracle_series_from_coords(grp, a))
    assert typed(grp.series_from_coords(b)) == typed(oracle_series_from_coords(grp, b))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(coordinate_pairs())
def test_engine_arithmetic_matches_reference(case):
    grp, a, b, exponent = case
    assert typed_coords(grp.mul_coords(a, b)) == typed_coords(oracle_mul_coords(grp, a, b))
    assert typed_coords(grp.pow_coords(a, exponent)) == typed_coords(
        oracle_pow_coords(grp, a, exponent)
    )
    assert typed_coords(grp.inv_coords(b)) == typed_coords(oracle_inv_coords(grp, b))
