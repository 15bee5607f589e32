"""Tests for graded Lie rings, bilinear data, and endomorphism pairs.

The differential tests at the end compare the sparse contraction, the
kernels built from it and the compatible-pair solve with the dense
reference loops in lie_oracle.py.
"""

import gc
import weakref
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from lie_oracle import (
    CONFIGS,
    bilinear_maps,
    half_integral_bilinear_maps,
    lie_rings,
    matrices,
    oracle_bracket,
    oracle_check_antisymmetry,
    oracle_center_basis,
    oracle_center_is_top_block,
    oracle_centralizer_weight_kernels,
    oracle_check_jacobi,
    oracle_complete_system_check,
    oracle_endo_pair_satisfies,
    oracle_endomorphism_pair_space,
    oracle_lazard_table,
    oracle_left_kernel,
    oracle_right_kernel,
    oracle_value,
    oracle_weight_two_width,
    sign_flipped,
    small_ints,
    vectors,
)

from hallforge import group
from hallforge import lie as lie_module
from hallforge import linalg
from hallforge.canonical import derive_structure_polys
from hallforge.errors import NotGroupLikeError, ShapeMismatchError
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
    weight_two_width,
)
from hallforge.oracles import witt_dimension


def test_frozen_rank2_class2_brackets():
    lie = lazard_lie_ring(2, 2)
    assert lie.dims == (2, 1)
    assert lie.table[(1, 0)] == {2: 1}
    assert lie.table[(0, 1)] == {2: -1}
    assert (0, 0) not in lie.table


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
    for rank, nclass in ((2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (2, 5), (4, 2), (3, 4)):
        assert compare_graded_lie(
            lazard_lie_ring(rank, nclass), free_nilpotent_lie(rank, nclass)
        )


def _typed(table):
    return {pair: {t: (type(c), c) for t, c in row.items()} for pair, row in table.items()}


@pytest.mark.parametrize(
    "rank, nclass",
    [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (4, 2), (4, 3), (5, 2)],
)
def test_lazard_matches_one_commutator_per_pair(rank, nclass):
    lazard_lie_ring.cache_clear()
    assert _typed(lazard_lie_ring(rank, nclass).table) == _typed(oracle_lazard_table(rank, nclass))


def _solve_off_by_one(real):
    def solve(self, i, comp):
        out = real(self, i, comp)
        if i == 2:
            out[0] += 1
        return out
    return solve


def _coords_with_a_generator(real):
    def coords_from_series(self, s):
        out = list(real(self, s))
        out[0] += 1
        return tuple(out)
    return coords_from_series


EXTRACTION_DEFECTS = pytest.mark.parametrize(
    "owner, name, defect, error",
    [
        # the self-check of the extraction sees a wrong weight-2 coordinate
        (group._EngineTables, "solve", _solve_off_by_one, NotGroupLikeError),
        # a coordinate below weight w_a + w_b is refused by the weight check
        (group.FreeNilpotentGroup, "coords_from_series", _coords_with_a_generator, RuntimeError),
    ],
)


@EXTRACTION_DEFECTS
def test_lazard_raises_on_a_defect_in_extraction(monkeypatch, owner, name, defect, error):
    monkeypatch.setattr(owner, name, defect(getattr(owner, name)))
    lazard_lie_ring.cache_clear()
    try:
        with pytest.raises(error):
            lazard_lie_ring(2, 3)
    finally:
        lazard_lie_ring.cache_clear()


@EXTRACTION_DEFECTS
def test_structure_raises_on_a_defect_in_extraction(monkeypatch, owner, name, defect, error):
    # the structure tails below the class go through the same extraction and
    # weight refusal: at (2,3) the first pair, [u_11^x, u_12^y], is one of them
    monkeypatch.setattr(owner, name, defect(getattr(owner, name)))
    with pytest.raises(error):
        derive_structure_polys.__wrapped__(2, 3)  # past the cache


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


def _bracket(lie, x, y):
    """The bracket of two dense vectors, through the library's sparse contraction."""
    f = lie_module
    return f._dense(f._contract(lie.table, f._sparse(x), f._sparse(y)), lie.total_dim)


def test_bracket_of_vectors():
    lie = free_nilpotent_lie(2, 2)
    x = [Fraction(2), Fraction(0), Fraction(0)]
    y = [Fraction(0), Fraction(3), Fraction(0)]
    assert _bracket(lie, x, y) == [Fraction(0), Fraction(0), Fraction(-6)]


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


@pytest.mark.parametrize("rank,nclass", [(4, 4), (3, 5), (5, 3)])
def test_endomorphism_pairs_at_scale_are_the_scalar_line(rank, nclass):
    # the dense system over (phi1, phi0) would have 13,360 to 51,986 rows of
    # 2725 to 8296 columns here; the solve over phi1 alone takes a fraction
    # of a second
    bil = bilinear_from_lie(free_nilpotent_lie(rank, nclass))
    [pair] = endomorphism_pair_space(bil)
    assert pair.scalar_value() == 1
    assert endo_pair_satisfies(bil, pair)


def test_compatible_pairs_need_a_full_map():
    # flat 3, of weight 2, is central, but no bracket reaches it
    bil = bilinear_from_lie(GradedLieRing((2, 2), {(1, 0): {2: 1}, (0, 1): {2: -1}}))
    assert not bil.is_full()
    with pytest.raises(ShapeMismatchError, match="full map"):
        endomorphism_pair_space(bil)


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


def _weight_one(bil, vec):
    """A weight-1 vector as a domain vector of the bilinear map."""
    return [Fraction(v) for v in vec] + [Fraction(0)] * (bil.domain_dim - len(vec))


def _sum_of_values(bil, pairs):
    u = [Fraction(0)] * bil.codomain_dim
    for x, y in pairs:
        u = [s + v for s, v in zip(u, bil.value(_weight_one(bil, x), _weight_one(bil, y)))]
    return u


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from([(2, 3), (3, 2), (4, 2), (5, 2), (4, 3)]), st.data())
def test_weight_two_width_matches_the_hall_basis_oracle(config, data):
    rank, nclass = config
    bil = bilinear_from_lie(free_nilpotent_lie(rank, nclass))
    s = data.draw(st.integers(0, 3))
    pairs = [(data.draw(vectors(rank)), data.draw(vectors(rank))) for _ in range(s)]
    u = _sum_of_values(bil, pairs)
    width = weight_two_width(bil, u)
    assert width == oracle_weight_two_width(rank, nclass, u)
    assert width <= s


@pytest.mark.parametrize("rank", [2, 3, 4, 5, 6])
def test_weight_two_width_of_the_standard_sum_is_half_the_rank(rank):
    # f(e1, e2) + f(e3, e4) + ... is the alternating normal form of full rank
    bil = bilinear_from_lie(free_nilpotent_lie(rank, 2))
    unit = [[int(i == a) for i in range(rank)] for a in range(rank)]
    u = _sum_of_values(bil, [(unit[a], unit[a + 1]) for a in range(0, rank - 1, 2)])
    assert weight_two_width(bil, u) == oracle_weight_two_width(rank, 2, u) == rank // 2


def test_weight_two_width_of_the_all_ones_target():
    # at (4,2) the all-ones target has a nonzero Pfaffian, so it is no single
    # bracket value; at (3,2) every target is one
    for rank, width in ((3, 1), (4, 2)):
        bil = bilinear_from_lie(free_nilpotent_lie(rank, 2))
        assert weight_two_width(bil, [1] * bil.codomain_dim) == width
        assert weight_two_width(bil, [0] * bil.codomain_dim) == 0


def test_weight_two_width_reads_the_sign_of_each_bracket():
    # with one weight-2 basis element negated, f(e1 + e2, e3 + e4) is still a
    # single bracket value, but its coordinates differ from those of a rank-2
    # alternating matrix in one sign
    lie = free_nilpotent_lie(4, 2)
    [t] = lie.table[(0, 2)]
    signs = [1] * lie.total_dim
    signs[t] = -1
    bil = bilinear_from_lie(sign_flipped(lie, signs))
    assert weight_two_width(bil, bil.value([1, 1, 0, 0], [0, 0, 1, 1])) == 1


def test_weight_two_width_refuses_a_target_of_the_wrong_length():
    bil = bilinear_from_lie(free_nilpotent_lie(2, 2))
    with pytest.raises(ShapeMismatchError, match="length"):
        weight_two_width(bil, [Fraction(1), Fraction(0)])


def test_weight_two_width_refuses_a_target_outside_weight_two():
    # at (2,3) the codomain is one weight-2 and two weight-3 coordinates
    bil = bilinear_from_lie(free_nilpotent_lie(2, 3))
    with pytest.raises(ShapeMismatchError, match="outside the weight-2 block"):
        weight_two_width(bil, [Fraction(1), Fraction(0), Fraction(1)])


@pytest.mark.parametrize(
    "dims, table",
    [
        ((2, 1), {(1, 0): {2: 2}, (0, 1): {2: -2}}),
        ((2, 1), {(1, 0): {2: 1}, (0, 1): {2: 1}}),
        ((3, 2), {(1, 0): {3: 1}, (0, 1): {3: -1}, (2, 0): {4: 1}, (0, 2): {4: -1}}),
        ((2, 1), {(1, 0): {2: 1}, (0, 1): {2: -1}, (0, 0): {2: 1}}),
        ((2,), {}),
    ],
    ids=["coefficient-two", "not-alternating", "unreached-pair", "diagonal", "no-weight-two"],
)
def test_weight_two_width_refuses_a_layer_that_is_not_free(dims, table):
    # a ring loaded from JSON can carry any table; each of these has the top
    # block as its center, so its bilinear data builds
    bil = bilinear_from_lie(GradedLieRing(dims, table))
    with pytest.raises(ShapeMismatchError, match="not the free one"):
        weight_two_width(bil, [0] * bil.codomain_dim)


@pytest.mark.parametrize(
    "table",
    [{(0, 1): {3: 1}}, {(0, 3): {2: 1}}, {(-1, 0): {2: 1}}],
    ids=["target", "right-factor", "negative"],
)
def test_table_indices_must_lie_in_the_basis(table):
    with pytest.raises(ShapeMismatchError):
        GradedLieRing((2, 1), table)


@pytest.mark.parametrize(
    "dims, table",
    [((2, 1, 1), {(1, 0): {3: 1}}), ((2, 1, 1), {(2, 0): {2: 1}}), ((2, 1), {(2, 2): {2: 1}})],
    ids=["weight-three-target", "weight-two-target", "weight-four-pair"],
)
def test_an_ungraded_target_is_refused(dims, table):
    with pytest.raises(ShapeMismatchError, match="not of weight"):
        GradedLieRing(dims, table)


def test_zero_coefficients_are_dropped():
    lie = GradedLieRing((2, 1, 1), {(1, 0): {2: 1, 3: 0}, (0, 1): {2: -1}, (2, 0): {3: 0}})
    assert lie.table == {(1, 0): {2: 1}, (0, 1): {2: -1}}
    assert lie.check_antisymmetry()


def test_jacobi_sees_one_changed_weight_three_constant():
    # [e_a, e_b] and [e_b, e_a] changed together keep the table alternating
    lie = free_nilpotent_lie(3, 4)
    w = lie.weight_of
    (a, b), row = next((p, r) for p, r in lie.table.items() if w[p[0]] + w[p[1]] == 3)
    t, c = next(iter(row.items()))
    table = {p: dict(r) for p, r in lie.table.items()}
    table[(a, b)][t], table[(b, a)][t] = c + 1, -(c + 1)
    changed = GradedLieRing(lie.dims, table)
    assert lie.check_jacobi()
    assert changed.check_antisymmetry()
    assert not changed.check_jacobi()


@pytest.mark.parametrize(
    "table",
    [
        {(1, 0): {2: 1}, (0, 1): {2: -1}, (0, 0): {2: 1}},
        {(1, 0): {2: 1}},
        {(1, 0): {2: 1}, (0, 1): {2: 1}},
    ],
    ids=["diagonal", "missing-transpose", "symmetric"],
)
def test_antisymmetry_fails(table):
    lie = GradedLieRing((2, 1), table)
    assert not lie.check_antisymmetry()
    assert not oracle_check_antisymmetry(lie)


def test_bilinear_requires_central_top_block():
    # zero brackets on two weights: the center is everything, not the top block
    for dims in ((1, 1), (2, 1)):
        lie = GradedLieRing(dims, {})
        assert not lie.center_is_top_block()
        assert not oracle_center_is_top_block(lie)
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
    assert _typed(_bracket(lie, x, y)) == _typed(oracle_bracket(lie, x, y))
    assert lie.check_antisymmetry() == oracle_check_antisymmetry(lie)
    assert lie.check_jacobi() == oracle_check_jacobi(lie)
    assert lie.center_basis() == oracle_center_basis(lie)
    assert lie.center_is_top_block() == oracle_center_is_top_block(lie)
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


def _check_bilinear(bil, data):
    m = bil.domain_dim
    x, y = data.draw(vectors(m)), data.draw(vectors(m))
    assert _typed(bil.value(x, y)) == _typed(oracle_value(bil, x, y))
    assert bil.left_kernel() == oracle_left_kernel(bil)
    assert bil.right_kernel() == oracle_right_kernel(bil)
    system = data.draw(st.lists(vectors(m), max_size=3))
    assert complete_system_check(bil, system) == oracle_complete_system_check(bil, system)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(CONFIGS), st.data())
def test_bilinear_methods_match_reference(config, data):
    _check_bilinear(bilinear_from_lie(free_nilpotent_lie(*config)), data)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(bilinear_maps(), st.data())
def test_degenerate_bilinear_maps_match_reference(bil, data):
    _check_bilinear(bil, data)


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


def _typed_pairs(pairs):
    return [[_typed(row) for mat in (p.phi1, p.phi0) for row in mat] for p in pairs]


@pytest.mark.parametrize("rank,nclass", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 5), (4, 2)])
def test_endomorphism_pairs_match_the_dense_system(rank, nclass):
    bil = bilinear_from_lie(free_nilpotent_lie(rank, nclass))
    pairs = endomorphism_pair_space(bil)
    assert _typed_pairs(pairs) == _typed_pairs(oracle_endomorphism_pair_space(bil))


def _flat(pairs):
    return [[v for mat in (p.phi1, p.phi0) for row in mat for v in row] for p in pairs]


def _check_pair_span(bil) -> list:
    """The compatible pairs of bil, checked against the dense system.

    They are defined for full maps only (else [] after the refusal); on those
    the basis may differ from the dense system's, but the span may not.
    """
    n = bil.codomain_dim
    dense_values = [[targets.get(t, 0) for t in range(n)] for targets in bil.tensor.values()]
    if linalg.rank([{t: v for t, v in enumerate(row) if v} for row in dense_values]) < n:
        with pytest.raises(ShapeMismatchError):
            endomorphism_pair_space(bil)
        return []
    pairs = endomorphism_pair_space(bil)
    assert linalg.rref(_flat(pairs)) == linalg.rref(_flat(oracle_endomorphism_pair_space(bil)))
    return pairs


@settings(max_examples=300, deadline=None, derandomize=True)
@given(bilinear_maps())
def test_endomorphism_pair_span_matches_the_dense_system(bil):
    _check_pair_span(bil)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(half_integral_bilinear_maps())
def test_half_integral_pair_span_matches_the_dense_system(bil):
    # the solve takes an int view of the tensor and of M^-1; a half stays a
    # Fraction there, and every entry of phi1 and phi0 is a Fraction
    pairs = _check_pair_span(bil)
    assert all(type(v) is Fraction for vec in _flat(pairs) for v in vec)


# -- shared, read-only results ------------------------------------------------------


def _cold_results(rank, nclass):
    lazard_lie_ring.cache_clear()
    free_nilpotent_lie.cache_clear()
    lazard, free = lazard_lie_ring(rank, nclass), free_nilpotent_lie(rank, nclass)
    bil = bilinear_from_lie(free)
    return [lazard, free, bil, *endomorphism_pair_space(bil)]


def test_equal_results_are_one_object():
    first, second = _cold_results(3, 2), _cold_results(3, 2)
    assert len(first) == len(second) == 4
    assert all(a is b for a, b in zip(first, second))
    lazard, free, bil, _ = first
    # same table, another label: another ring
    assert compare_graded_lie(lazard, free) and lazard is not free
    # an equal ring built by hand shares the bilinear data; other value types do not
    assert bilinear_from_lie(GradedLieRing(free.dims, free.table, free.label)) is bil
    as_fractions = {p: {t: Fraction(c) for t, c in row.items()} for p, row in free.table.items()}
    other = bilinear_from_lie(GradedLieRing(free.dims, as_fractions, free.label))
    assert other is not bil and other.tensor == bil.tensor


def test_pair_intern_key_hashes_its_entries_once(monkeypatch):
    bil = bilinear_from_lie(free_nilpotent_lie(2, 4))
    [pair] = endomorphism_pair_space(bil)
    calls = []
    real = Fraction.__hash__

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(Fraction, "__hash__", counted)
    key = lie_module._Key((EndoPair, pair.phi1, pair.phi0))
    built = len(calls)
    assert built >= len(pair.phi1) ** 2 + len(pair.phi0) ** 2
    assert hash(key) == hash(key) == hash(key)
    assert len(calls) == built
    plain = (EndoPair, pair.phi1, pair.phi0)
    assert key == plain and hash(key) == hash(plain)
    # equal pairs, solved again, still intern to the one live object
    assert endomorphism_pair_space(bil)[0] is pair
    assert lie_module._SHARED[plain] is pair


def test_results_are_read_only():
    lie = free_nilpotent_lie(2, 3)
    bil = bilinear_from_lie(lie)
    [pair] = endomorphism_pair_space(bil)
    with pytest.raises(TypeError):
        lie.table[(0, 0)] = {1: 1}
    with pytest.raises(TypeError):
        lie.table[(1, 0)][2] = 5
    with pytest.raises(TypeError):
        bil.tensor[(0, 0)] = {0: Fraction(1)}
    with pytest.raises(TypeError):
        bil.tensor[(1, 0)][0] = Fraction(5)
    with pytest.raises(AttributeError):
        lie.extra = 1
    with pytest.raises(FrozenInstanceError):
        pair.phi1 = ()


def test_intern_table_drops_results_nobody_keeps():
    free_nilpotent_lie.cache_clear()
    lie = free_nilpotent_lie(2, 2)
    key = lie._key()
    assert lie_module._SHARED[key] is lie
    ref = weakref.ref(lie)
    del lie
    free_nilpotent_lie.cache_clear()
    gc.collect()
    assert ref() is None
    assert key not in lie_module._SHARED
