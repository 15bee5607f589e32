"""Tests for collection and the power-product correction words."""

from random import Random

import pytest

from hallforge.canonical import derive_structure_polys
from hallforge.errors import MalformedTailError, ShapeMismatchError
from hallforge.group import FreeNilpotentGroup
from hallforge.words import (
    Collector,
    commutator_power_identity_holds,
    evaluate_word,
    normalize_word,
    petresco_identity_holds,
    petresco_sequence,
    petresco_tau,
    simple_commutators,
)


def _random_word(grp, rng, max_len=6):
    return [
        (grp.basis.pairs[rng.randrange(grp.dimension)], rng.randint(-4, 4))
        for _ in range(rng.randint(0, max_len))
    ]


def test_empty_word_collects_to_identity():
    g = FreeNilpotentGroup(2, 3)
    col = Collector(g, derive_structure_polys(2, 3))
    assert col.collect([]) == g.identity()


def test_sorted_words_collect_verbatim():
    g = FreeNilpotentGroup(2, 3)
    col = Collector(g, derive_structure_polys(2, 3))
    rng = Random(61)
    for _ in range(40):
        flats = sorted(rng.sample(range(g.dimension), rng.randint(1, g.dimension)))
        letters = normalize_word(
            g, [(g.basis.pairs[f], rng.randint(-4, 4)) for f in flats]
        )
        coords = [0] * g.dimension
        for pair, ex in letters:
            coords[g.basis.flat(pair)] = ex
        assert col.collect(letters) == g.element(coords)


def test_collection_matches_series_evaluation():
    rng = Random(62)
    for rank, nclass in ((2, 2), (2, 3), (3, 2), (2, 4)):
        g = FreeNilpotentGroup(rank, nclass)
        col = Collector(g, derive_structure_polys(rank, nclass))
        for _ in range(100):
            word = _random_word(g, rng)
            assert col.collect(word) == evaluate_word(g, word)


def test_collector_rejects_mismatched_tables():
    g = FreeNilpotentGroup(2, 3)
    with pytest.raises(ShapeMismatchError):
        Collector(g, derive_structure_polys(2, 2))


def test_normalize_word_drops_zero_exponents():
    g = FreeNilpotentGroup(2, 2)
    word = [((1, 1), 2), ((1, 2), 0), ((2, 1), 1)]
    assert normalize_word(g, word) == [((1, 1), 2), ((2, 1), 1)]


def test_collect_merges_adjacent_letters():
    g = FreeNilpotentGroup(2, 2)
    col = Collector(g, derive_structure_polys(2, 2))
    word = [((1, 1), 2), ((1, 1), 3), ((2, 1), 1)]
    assert col.collect(word) == g.element([5, 0, 1])


def test_simple_commutators_left_normed():
    g = FreeNilpotentGroup(2, 3)
    weight3 = simple_commutators(g, 3)
    assert len(weight3) == 8
    for el in weight3:
        assert g.gamma_weight(el) >= 3


def test_tau2_is_the_commutator_in_class_two():
    g = FreeNilpotentGroup(2, 2)
    x, y = g.generator(1), g.generator(2)
    assert petresco_tau(g, 2, (x, y)) == g.commutator(x, y)


def test_tau_terms_descend_the_filtration():
    rng = Random(63)
    for rank, nclass in ((2, 4), (3, 3)):
        g = FreeNilpotentGroup(rank, nclass)
        for _ in range(5):
            xs = [g.random_element(rng, -3, 3) for _ in range(2)]
            taus = petresco_sequence(g, xs, nclass)
            for k, t in enumerate(taus, start=1):
                assert g.gamma_weight(t) >= k


def test_petresco_identity_small_exponents():
    rng = Random(64)
    for rank, nclass in ((2, 3), (3, 2)):
        g = FreeNilpotentGroup(rank, nclass)
        for _ in range(5):
            xs = [g.random_element(rng, -3, 3) for _ in range(3)]
            taus = petresco_sequence(g, xs, nclass)
            for n in range(1, 7):
                assert petresco_identity_holds(g, xs, n, taus)


def test_petresco_identity_reads_the_given_sequence():
    g = FreeNilpotentGroup(2, 3)
    xs = (g.generator(1), g.generator(2))
    taus = petresco_sequence(g, xs, 3)
    assert petresco_identity_holds(g, xs, 2, taus)
    # tau_2, a nontrivial commutator, enters at n = 2 once; a sequence without it fails
    assert not petresco_identity_holds(g, xs, 2, [taus[0], g.identity(), taus[2]])


def test_commutator_power_identity():
    rng = Random(65)
    for rank, nclass in ((2, 3), (2, 4)):
        g = FreeNilpotentGroup(rank, nclass)
        for _ in range(10):
            h = g.random_element(rng, -3, 3)
            x = g.random_element(rng, -3, 3)
            w = g.mul(g.mul(g.inv(h), g.inv(x)), h)
            taus = petresco_sequence(g, (w, x), nclass)
            for a in range(-5, 6):
                assert commutator_power_identity_holds(g, h, x, a, taus=taus)


class _FixedTails:
    """Duck-typed structure tables that return one fixed tail for every swap.

    Gives up with RuntimeError after 10,000 calls, so a collector that does
    not refuse a bad tail fails fast instead of looping.
    """

    def __init__(self, rank, nclass, tail):
        self.rank, self.nclass, self.tail, self.calls = rank, nclass, tail, 0

    def tail_letters(self, high_pair, low_pair, a, b, ring):
        self.calls += 1
        if self.calls > 10_000:
            raise RuntimeError("collection did not stop")
        return list(self.tail)


@pytest.mark.parametrize(
    "tail",
    [
        [((1, 2), 1), ((1, 1), 1)],  # below the weight sum: rewrites forever if accepted
        [((2, 2), 1)],  # N(2,3) has a single weight-2 basis element
        [((4, 1), 1)],  # beyond the class
        [([2, 1], 1)],  # a list, not a pair
    ],
    ids=["below-weight-sum", "not-a-basis-pair", "beyond-class", "list"],
)
def test_collector_refuses_malformed_tails(tail):
    g = FreeNilpotentGroup(2, 3)
    col = Collector(g, _FixedTails(2, 3, tail))
    with pytest.raises(MalformedTailError):
        col.collect([((1, 2), 1), ((1, 1), 1)])
