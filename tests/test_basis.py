"""Tests for basic-commutator enumeration and the weight grading."""

from fractions import Fraction

import pytest
from series_oracle import min_degree

from hallforge import linalg
from hallforge.basis import hall_basis
from hallforge.errors import BadRankError, OutOfClassError, ScaleLimitError
from hallforge.oracles import witt_dimension


def test_witt_oracle_frozen_values():
    assert [witt_dimension(2, w) for w in range(1, 6)] == [2, 1, 2, 3, 6]
    assert [witt_dimension(3, w) for w in range(1, 5)] == [3, 3, 8, 18]


def test_counts_match_necklace_oracle():
    for rank, nclass in ((2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4)):
        basis = hall_basis(rank, nclass)
        assert list(basis.counts) == [
            witt_dimension(rank, w) for w in range(1, nclass + 1)
        ]
        assert len(basis) == sum(basis.counts)


def test_rank2_class2_entries():
    basis = hall_basis(2, 2)
    assert basis.pairs == ((1, 1), (1, 2), (2, 1))
    entry = basis.entries[basis.flat((2, 1))]
    assert tuple(p.pair for p in entry.parts) == ((1, 2), (1, 1))
    assert entry.label() == "[x2,x1]"


def test_rank2_weight4_block_structure():
    basis = hall_basis(2, 4)
    weight4 = [basis.entries[f] for f in basis.weight_block(4)]
    assert [e.pair for e in weight4] == [(4, 1), (4, 2), (4, 3)]
    assert [tuple(p.pair for p in e.parts) for e in weight4] == [
        ((3, 1), (1, 1)),
        ((3, 1), (1, 2)),
        ((3, 2), (1, 2)),
    ]


def test_basic_commutator_rule_holds_everywhere():
    for rank, nclass in ((2, 5), (3, 4)):
        basis = hall_basis(rank, nclass)
        for e in basis.entries:
            if e.is_leaf:
                continue
            left, right = e.parts
            assert left.position > right.position
            if not left.is_leaf:
                assert left.parts[1].position <= right.position


def test_flat_entry_round_trip():
    basis = hall_basis(3, 3)
    for f, e in enumerate(basis.entries):
        assert basis.flat(e.pair) == f
        assert basis.entries[basis.flat(e.pair)] is e


def test_weight_blocks_partition():
    basis = hall_basis(2, 4)
    seen = []
    for w in range(1, 5):
        block = list(basis.weight_block(w))
        assert all(basis.entries[f].weight == w for f in block)
        seen.extend(block)
    assert seen == list(range(len(basis)))


def test_bad_configurations_rejected():
    with pytest.raises(BadRankError):
        hall_basis(1, 2)
    with pytest.raises(BadRankError):
        hall_basis(0, 3)
    with pytest.raises(OutOfClassError):
        hall_basis(2, 0)
    basis = hall_basis(2, 2)
    with pytest.raises(OutOfClassError):
        basis.flat((3, 1))


@pytest.mark.parametrize("pair", [(True, 1), (1, True)])
def test_flat_refuses_boolean_indices(pair):
    # True == 1, so a boolean index would otherwise name a real entry
    with pytest.raises(OutOfClassError):
        hall_basis(2, 2).flat(pair)


def test_refuses_oversized_configurations():
    # words sum_{i <= class} rank^i: (2,9) 1023, (44,2) 1981, (2,10) 2047, (45,2) 2071
    assert len(hall_basis(2, 9)) == sum(witt_dimension(2, w) for w in range(1, 10))
    assert len(hall_basis(44, 2)) == 44 + 44 * 43 // 2
    for rank, nclass in ((2, 10), (45, 2)):
        with pytest.raises(ScaleLimitError):
            hall_basis(rank, nclass)
    with pytest.raises(BadRankError):
        hall_basis(1, 2)


@pytest.mark.parametrize("rank", [3.0, True, "3", None])
def test_rank_must_be_an_int(rank):
    with pytest.raises(BadRankError):
        hall_basis(rank, 2)


@pytest.mark.parametrize("nclass", [2.0, True, "3", None])
def test_class_must_be_an_int(nclass):
    hall_basis(2, 2)
    hall_basis(2, 1)  # cached equal keys must not answer for the wrong type
    with pytest.raises(OutOfClassError):
        hall_basis(2, nclass)


def test_lie_elements_independent_per_weight():
    basis = hall_basis(2, 4)
    for w in range(1, 5):
        block = list(basis.weight_block(w))
        words = sorted(
            {
                word
                for f in block
                for word in basis.lie_element(basis.entries[f]).coeffs
            }
        )
        rows = [
            [
                Fraction(basis.lie_element(basis.entries[f]).coeff(word))
                for f in block
            ]
            for word in words
        ]
        assert linalg.rank([{j: v for j, v in enumerate(row) if v} for row in rows]) == len(block)


def test_lie_element_weight2_value():
    basis = hall_basis(2, 2)
    lie = basis.lie_element(basis.entries[basis.flat((2, 1))])
    # [x2,x1] expands to the ring commutator x2 x1 - x1 x2
    assert lie.coeff((2, 1)) == 1
    assert lie.coeff((1, 2)) == -1


def test_embedding_image_is_group_like():
    basis = hall_basis(2, 3)
    for e in basis.entries:
        img = basis.embedding_image(e)
        assert img.coeff(()) == 1
        assert min_degree(img) == 0
        stripped = img - 1
        assert min_degree(stripped) == e.weight
