"""Tests for graded Lie rings, bilinear data, and endomorphism pairs.

The differential tests at the end compare the sparse contraction and the
kernels built from it with the dense reference loops in lie_oracle.py.
"""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from lie_oracle import (
    CONFIGS,
    bilinear_maps,
    lie_rings,
    matrices,
    oracle_bracket,
    oracle_center_basis,
    oracle_centralizer_weight_kernels,
    oracle_check_jacobi,
    oracle_complete_system_check,
    oracle_endo_pair_satisfies,
    oracle_left_kernel,
    oracle_right_kernel,
    oracle_value,
    oracle_width_probe,
    sign_flipped,
    small_ints,
    vectors,
)

from hallforge.errors import ScaleLimitError, ShapeMismatchError
from hallforge.lie import (
    EndoPair,
    GradedLieRing,
    bilinear_from_lie,
    centralizer_line_holds,
    centralizer_weight_kernels,
    compare_graded_lie,
    complete_system_check,
    endo_pair_satisfies,
    endomorphism_pair_space,
    first_difference,
    free_nilpotent_lie,
    lazard_lie_ring,
    width_probe,
)
from hallforge.oracles import witt_dimension


def test_frozen_rank2_class2_brackets():
    lie = lazard_lie_ring(2, 2)
    assert lie.dims == (2, 1)
    assert lie.bracket_basis(1, 0) == {2: 1}
    assert lie.bracket_basis(0, 1) == {2: -1}
    assert lie.bracket_basis(0, 0) == {}


def test_dims_match_necklace_counts():
    for rank, nclass in ((2, 3), (3, 2), (2, 4)):
        lie = free_nilpotent_lie(rank, nclass)
        assert list(lie.dims) == [
            witt_dimension(rank, w) for w in range(1, nclass + 1)
        ]


def test_axioms_both_constructions():
    for rank, nclass in ((2, 2), (2, 3), (3, 2), (2, 4)):
        for lie in (lazard_lie_ring(rank, nclass), free_nilpotent_lie(rank, nclass)):
            assert lie.check_antisymmetry()
            assert lie.check_jacobi()


def test_group_and_algebra_sides_agree():
    for rank, nclass in ((2, 2), (2, 3), (3, 2), (2, 4)):
        assert compare_graded_lie(
            lazard_lie_ring(rank, nclass), free_nilpotent_lie(rank, nclass)
        )


def test_compare_rejects_a_sign_flip_and_names_it():
    # flipping the sign of the weight-2 basis element changes both constants
    base = free_nilpotent_lie(2, 2)
    flipped = sign_flipped(base, [1, 1, -1])
    assert compare_graded_lie(base, flipped) is False
    assert first_difference(base, flipped) == ((1, 0), 2, 1, -1)
    assert first_difference(base, base) is None
    assert compare_graded_lie(base, base) is True


def test_compare_detects_wrong_constants():
    base = free_nilpotent_lie(2, 2)
    wrong_table = {k: dict(v) for k, v in base.table.items()}
    wrong_table[(1, 0)] = {2: 2}
    wrong_table[(0, 1)] = {2: -2}
    wrong = GradedLieRing(base.dims, wrong_table)
    assert not compare_graded_lie(base, wrong)


def test_center_is_top_block():
    for rank, nclass in ((2, 2), (2, 3), (3, 2), (2, 4)):
        assert free_nilpotent_lie(rank, nclass).center_is_top_block()


def test_bracket_of_vectors():
    lie = free_nilpotent_lie(2, 2)
    x = [Fraction(2), Fraction(0), Fraction(0)]
    y = [Fraction(0), Fraction(3), Fraction(0)]
    assert lie.bracket(x, y) == [Fraction(0), Fraction(0), Fraction(-6)]


def test_bilinear_data_shape_rank2_class2():
    bil = bilinear_from_lie(free_nilpotent_lie(2, 2))
    assert bil.domain_dim == 2
    assert bil.codomain_dim == 1
    assert bil.value([Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]) == [
        Fraction(-1)
    ]
    assert bil.is_full()
    assert bil.is_nondegenerate()


def test_bilinear_full_and_nondegenerate():
    for rank, nclass in ((2, 3), (3, 2)):
        bil = bilinear_from_lie(free_nilpotent_lie(rank, nclass))
        assert bil.is_full()
        assert bil.is_nondegenerate()


def test_endomorphism_pairs_are_the_scalar_line():
    for rank, nclass in ((2, 2), (2, 3), (3, 2)):
        bil = bilinear_from_lie(free_nilpotent_lie(rank, nclass))
        pairs = endomorphism_pair_space(bil)
        assert len(pairs) == 1
        assert pairs[0].scalar_value() is not None


def test_identity_pair_satisfies_compatibility():
    bil = bilinear_from_lie(free_nilpotent_lie(2, 3))
    m, n = bil.domain_dim, bil.codomain_dim
    ident = EndoPair(
        tuple(tuple(Fraction(int(i == j)) for j in range(m)) for i in range(m)),
        tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)),
    )
    assert endo_pair_satisfies(bil, ident)
    doubled = EndoPair(
        tuple(tuple(Fraction(2 * int(i == j)) for j in range(m)) for i in range(m)),
        tuple(tuple(Fraction(2 * int(i == j)) for j in range(n)) for i in range(n)),
    )
    assert endo_pair_satisfies(bil, doubled)
    skew = EndoPair(
        tuple(tuple(Fraction(int(i == j) + int(i < j)) for j in range(m)) for i in range(m)),
        tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)),
    )
    assert not endo_pair_satisfies(bil, skew)


def test_complete_system_needs_two_vectors_at_rank2():
    bil = bilinear_from_lie(free_nilpotent_lie(2, 2))
    e0 = [Fraction(1), Fraction(0)]
    e1 = [Fraction(0), Fraction(1)]
    # a single vector cannot detect degeneracy of an alternating map
    assert not complete_system_check(bil, [e0])
    assert complete_system_check(bil, [e0, e1])


def test_full_basis_is_complete():
    for rank, nclass in ((2, 3), (3, 2)):
        bil = bilinear_from_lie(free_nilpotent_lie(rank, nclass))
        vectors = [
            [Fraction(int(i == a)) for i in range(bil.domain_dim)]
            for a in range(bil.domain_dim)
        ]
        assert complete_system_check(bil, vectors)


def test_width_probe_on_image_values():
    bil = bilinear_from_lie(free_nilpotent_lie(2, 2))
    u = bil.value([Fraction(2), Fraction(0)], [Fraction(0), Fraction(3)])
    assert width_probe(bil, u, 1)
    assert width_probe(bil, [Fraction(0)], 1)


def test_width_probe_refuses_a_target_of_the_wrong_length():
    bil = bilinear_from_lie(free_nilpotent_lie(2, 2))
    with pytest.raises(ShapeMismatchError):
        width_probe(bil, [Fraction(1), Fraction(0)], 1)


@pytest.mark.parametrize("rank,nclass", [(4, 3), (3, 4)])
def test_width_probe_finds_a_bracket_value_in_a_huge_box_at_once(rank, nclass):
    # the verify lie row's target, f(e_a, e_b) for the first nonzero tensor
    # entry; the bound-2 box has about 1e7 vectors at (4,3) and 6e9 at (3,4)
    bil = bilinear_from_lie(free_nilpotent_lie(rank, nclass))
    targets = next(t for _, t in sorted(bil.tensor.items()) if t)
    u = [targets.get(t, Fraction(0)) for t in range(bil.codomain_dim)]
    started = time.monotonic()
    assert width_probe(bil, u, 1)
    assert time.monotonic() - started < 1.0


def test_width_probe_refuses_a_search_past_its_limit():
    # at (4,2), f is the wedge product Z^4 x Z^4 -> Λ²Z^4 and the all-ones
    # target has a nonzero Pfaffian, so it is not a single bracket value
    bil = bilinear_from_lie(free_nilpotent_lie(4, 2))
    u = [Fraction(1)] * bil.codomain_dim
    assert not width_probe(bil, u, 1)  # the bound-2 box: 624 candidates
    with pytest.raises(ScaleLimitError, match="2400 nonzero vectors"):
        width_probe(bil, u, 1, bound=3)


def test_width_probe_widens():
    bil = bilinear_from_lie(free_nilpotent_lie(2, 3))
    u = bil.value(
        [Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(0)],
    )
    assert width_probe(bil, u, 2)


@pytest.mark.parametrize(
    "table",
    [{(0, 1): {3: 1}}, {(0, 3): {2: 1}}, {(-1, 0): {2: 1}}],
    ids=["target", "right-factor", "negative"],
)
def test_table_indices_must_lie_in_the_basis(table):
    with pytest.raises(ShapeMismatchError):
        GradedLieRing((2, 1), table)


def test_bilinear_requires_central_top_block():
    # zero brackets on two weights: the center is everything, not the top block
    lie = GradedLieRing((1, 1), {})
    assert not lie.center_is_top_block()
    with pytest.raises(ShapeMismatchError):
        bilinear_from_lie(lie)


def test_centralizer_weight_kernels_rank2_class3():
    lie = free_nilpotent_lie(2, 3)
    kernels = centralizer_weight_kernels(lie, 1)
    assert len(kernels) == 2
    weight1 = kernels[0]
    assert len(weight1) == 1
    vec = weight1[0]
    assert vec[0] != 0 and all(v == 0 for v in vec[1:])
    assert kernels[1] == []


def test_centralizer_line_holds_small_configs():
    for rank, nclass in ((2, 2), (2, 3), (3, 2)):
        lie = free_nilpotent_lie(rank, nclass)
        for j in range(1, rank + 1):
            assert centralizer_line_holds(lie, j)


# -- differential tests against the dense reference loops ------------------------


def _typed(vec):
    return [(type(v), v) for v in vec]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lie_rings(), st.data())
def test_ring_methods_match_reference(lie, data):
    n = lie.total_dim
    x, y = data.draw(vectors(n)), data.draw(vectors(n))
    assert _typed(lie.bracket(x, y)) == _typed(oracle_bracket(lie, x, y))
    assert lie.check_jacobi() == oracle_check_jacobi(lie)
    assert lie.center_basis() == oracle_center_basis(lie)
    for j in range(1, lie.dims[0] + 1):
        assert centralizer_weight_kernels(lie, j) == oracle_centralizer_weight_kernels(lie, j)


@pytest.mark.parametrize("rank,nclass", CONFIGS)
def test_real_rings_match_reference(rank, nclass):
    for lie in (lazard_lie_ring(rank, nclass), free_nilpotent_lie(rank, nclass)):
        assert lie.check_jacobi() is oracle_check_jacobi(lie) is True
        assert lie.center_basis() == oracle_center_basis(lie)
        for j in range(1, rank + 1):
            assert centralizer_weight_kernels(lie, j) == oracle_centralizer_weight_kernels(lie, j)
    bil = bilinear_from_lie(free_nilpotent_lie(rank, nclass))
    assert bil.left_kernel() == oracle_left_kernel(bil) == []
    assert bil.right_kernel() == oracle_right_kernel(bil) == []


def _check_bilinear(bil, data, probe_sizes):
    m = bil.domain_dim
    x, y = data.draw(vectors(m)), data.draw(vectors(m))
    assert _typed(bil.value(x, y)) == _typed(oracle_value(bil, x, y))
    assert bil.left_kernel() == oracle_left_kernel(bil)
    assert bil.right_kernel() == oracle_right_kernel(bil)
    system = data.draw(st.lists(vectors(m), max_size=3))
    assert complete_system_check(bil, system) == oracle_complete_system_check(bil, system)
    # u is either a bracket value, reachable at width one, or arbitrary
    u = data.draw(st.one_of(st.just(oracle_value(bil, x, y)), vectors(bil.codomain_dim)))
    s = data.draw(st.sampled_from(probe_sizes))
    assert width_probe(bil, u, s, bound=1) == oracle_width_probe(bil, u, s, bound=1)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(CONFIGS), st.data())
def test_bilinear_methods_match_reference(config, data):
    _check_bilinear(bilinear_from_lie(free_nilpotent_lie(*config)), data, (0, 1))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(bilinear_maps(), st.data())
def test_degenerate_bilinear_maps_match_reference(bil, data):
    _check_bilinear(bil, data, (0, 1, 2) if bil.domain_dim <= 2 else (0, 1))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(bilinear_maps(), st.sampled_from(CONFIGS)), st.data())
def test_endo_pair_check_matches_reference(bil, data):
    if isinstance(bil, tuple):
        bil = bilinear_from_lie(free_nilpotent_lie(*bil))
    m, n = bil.domain_dim, bil.codomain_dim
    # a scalar pair always satisfies the equations and a drawn pair rarely
    # does; a scalar pair with one phi1 entry nudged satisfies the left-hand
    # equations exactly when that row's generator is in the left kernel, and
    # the right-hand ones when it is in the right kernel
    c = Fraction(data.draw(small_ints))

    def scalar(k):
        return [[c * (i == j) for j in range(k)] for i in range(k)]

    nudged = scalar(m)
    if m:
        i, j = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, m - 1))
        nudged[i][j] += 1
    for pair in (
        EndoPair(scalar(m), scalar(n)),
        EndoPair(nudged, scalar(n)),
        EndoPair(data.draw(matrices(m)), data.draw(matrices(n))),
    ):
        assert endo_pair_satisfies(bil, pair) is oracle_endo_pair_satisfies(bil, pair)
