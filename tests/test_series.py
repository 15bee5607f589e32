"""Tests for degree-truncated noncommutative series arithmetic.

The last three tests compare the engine with the reference loops in
series_oracle.py.
"""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from series_oracle import (
    degree_component,
    exponents,
    min_degree,
    oracle_augmentation_powers,
    oracle_inverse,
    oracle_mul,
    oracle_series_pow,
    operands,
    typed,
)

from hallforge.errors import NotGroupLikeError, ShapeMismatchError
from hallforge.rings import QQ, ZZ
from hallforge.series import (
    TruncatedSeries,
    group_commutator_series,
    group_like_inverse,
    series_pow,
)


def _random_series(rank, cutoff, ring, rng):
    coeffs = {}
    for _ in range(rng.randint(1, 5)):
        word = tuple(rng.randint(1, rank) for _ in range(rng.randint(0, cutoff)))
        coeffs[word] = ring.random_element(rng, -4, 4)
    return TruncatedSeries(rank, cutoff, coeffs)


def test_generator_embedding_shape():
    s = TruncatedSeries.generator_embedding(2, 3, 1)
    assert s.coeff(()) == 1
    assert s.coeff((1,)) == 1
    assert s.coeff((2,)) == 0


def test_product_truncates_at_cutoff():
    x = TruncatedSeries(2, 2, {(1,): 1})
    y = TruncatedSeries(2, 2, {(2,): 1})
    p = x * y
    assert p.coeff((1, 2)) == 1
    assert (p * y).coeffs == {}


def test_words_ordered_not_commutative():
    one = TruncatedSeries.one(2, 2)
    x = TruncatedSeries.generator_embedding(2, 2, 1)
    y = TruncatedSeries.generator_embedding(2, 2, 2)
    assert (x * y).coeff((1, 2)) == 1
    assert (x * y).coeff((2, 1)) == 0
    assert x * y != y * x
    assert x * one == x


def test_associativity_sampled():
    rng = Random(31)
    for _ in range(150):
        a = _random_series(2, 3, ZZ, rng)
        b = _random_series(2, 3, ZZ, rng)
        c = _random_series(2, 3, ZZ, rng)
        assert (a * b) * c == a * (b * c)


def test_group_like_inverse_two_sided():
    rng = Random(32)
    one = TruncatedSeries.one(2, 4)
    for _ in range(60):
        s = _random_series(2, 4, ZZ, rng)
        s = (s - s.constant_term) + 1
        assert s * group_like_inverse(s) == one
        assert group_like_inverse(s) * s == one


def test_inverse_needs_unit_constant_term():
    s = TruncatedSeries(2, 2, {(1,): 1})
    with pytest.raises(NotGroupLikeError):
        group_like_inverse(s)


def test_power_binomial_coefficients():
    # (1 + x)^a has coefficient binom(a, k) on x^k
    rng = Random(33)
    s = TruncatedSeries.generator_embedding(1, 5, 1)
    # rank-1 cutoff-5 series live on words in the single letter
    for _ in range(40):
        a = rng.randint(-9, 9)
        p = series_pow(s, a, ZZ)
        for k in range(6):
            assert p.coeff((1,) * k) == ZZ.binom(a, k)


def test_power_additive_sampled():
    rng = Random(34)
    for ring in (ZZ, QQ):
        for _ in range(60):
            s = _random_series(2, 3, ring, rng)
            s = (s - s.constant_term) + ring.one
            a = ring.random_element(rng)
            b = ring.random_element(rng)
            assert series_pow(s, a, ring) * series_pow(s, b, ring) == series_pow(
                s, a + b, ring
            )


def test_power_inverse_consistency():
    rng = Random(35)
    for _ in range(40):
        s = _random_series(2, 3, ZZ, rng)
        s = (s - s.constant_term) + 1
        a = rng.randint(-6, 6)
        assert group_like_inverse(series_pow(s, a, ZZ)) == series_pow(s, -a, ZZ)


def test_commutator_series_lowest_term():
    x = TruncatedSeries.generator_embedding(2, 2, 1)
    y = TruncatedSeries.generator_embedding(2, 2, 2)
    c = group_commutator_series(x, y)
    assert c.coeff(()) == 1
    assert c.coeff((1,)) == 0
    assert c.coeff((2,)) == 0
    assert c.coeff((1, 2)) == 1
    assert c.coeff((2, 1)) == -1


def test_degree_component_and_min_degree():
    s = TruncatedSeries(2, 3, {(): 2, (1, 2): 5, (1,): 0})
    assert min_degree(s) == 0
    assert degree_component(s, 2) == {(1, 2): 5}
    assert min_degree(s - 2) == 2


def test_mixed_rank_rejected():
    a = TruncatedSeries(2, 2, {(1,): 1})
    b = TruncatedSeries(3, 2, {(1,): 1})
    with pytest.raises(ShapeMismatchError):
        a * b


# -- differential properties against the reference loops ----------------------

@settings(derandomize=True, max_examples=150, deadline=None)
@given(operands())
def test_product_matches_reference(case):
    _, a, b = case
    assert typed(a * b) == typed(oracle_mul(a, b))
    assert typed(b * a) == typed(oracle_mul(b, a))
    # a product of a and a translate of it, with many equal words
    c = a + b
    assert typed(a * c) == typed(oracle_mul(a, c))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(operands(group_like=True))
def test_cancelling_products_match_reference(case):
    _, a, b = case
    inv = oracle_inverse(a)
    assert typed(group_like_inverse(a)) == typed(inv)
    # every term past the constant cancels to zero
    one = TruncatedSeries.one(a.rank, a.cutoff)
    assert typed(a * inv) == typed(oracle_mul(a, inv)) == typed(one)
    # every pair of words runs past the cutoff: the product is the zero series
    u, v = a - 1, b - 1
    high, low = oracle_mul(oracle_mul(u, u), u), oracle_mul(v, v)
    assert (high * low).coeffs == oracle_mul(high, low).coeffs == {}


@st.composite
def powers(draw):
    ring, s, _ = draw(operands(group_like=True))
    return ring, s, draw(exponents(ring))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(powers())
def test_series_pow_matches_reference(case):
    ring, s, exponent = case
    want = oracle_series_pow(s, exponent, ring)
    assert typed(series_pow(s, exponent, ring)) == typed(want)
    aug = oracle_augmentation_powers(s)
    assert typed(series_pow(s, exponent, ring, aug_powers=aug)) == typed(want)
