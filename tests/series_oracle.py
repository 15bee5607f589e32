"""Reference loops for the series engine, kept only for the tests.

oracle_mul is the engine's earlier product: every pair of words, with the
cutoff test in the inner loop. oracle_series_pow is its earlier power: one
scaled series per binomial term, added series by series. oracle_inverse is
its earlier inverse, the geometric series summed term by term. The
construction and extraction loops here are the engine's own, run over these
three. Extraction solves each weight with its own dense Fraction inverse
(oracle_solvers), built from the Hall Lie elements at the engine's pivot
words and multiplied entry by entry; it does not read the engine's sparse
solver rows. dense_engine_tables is the engine's earlier set-up: a dense
matrix over every word of each weight, its first independent rows and their
dense inverse, read off the RREF of [M | I] (dense_inverse).
degree_component and min_degree, the series queries only the tests use,
live here too. The engine in hallforge.series and hallforge.group
must return exactly what they return, coefficient types included. The
hypothesis strategies at the end draw small values over ZZ, QQ and a
two-variable PolyRing, at (2,3), (3,3) and (2,4).
"""

import itertools
from fractions import Fraction
from functools import lru_cache

from hypothesis import strategies as st

from hallforge import linalg
from hallforge.basis import hall_basis
from hallforge.errors import NotGroupLikeError
from hallforge.group import _engine_tables
from hallforge.rings import QQ, ZZ, Poly, PolyRing
from hallforge.series import TruncatedSeries


def oracle_mul(a, b):
    cut = a.cutoff
    out = {}
    for w1, c1 in a.coeffs.items():
        room = cut - len(w1)
        for w2, c2 in b.coeffs.items():
            if len(w2) > room:
                continue
            w = w1 + w2
            prod = c1 * c2
            prev = out.get(w)
            out[w] = prod if prev is None else prev + prod
    return TruncatedSeries(a.rank, cut, out)


def oracle_scale(s, c):
    if not c:
        return TruncatedSeries(s.rank, s.cutoff, {})
    return TruncatedSeries(s.rank, s.cutoff, {w: x * c for w, x in s.coeffs.items()})


def oracle_augmentation_powers(s):
    u = s - 1
    powers = [TruncatedSeries.one(s.rank, s.cutoff)]
    cur = powers[0]
    while True:
        cur = oracle_mul(cur, u)
        if not cur.coeffs:
            break
        powers.append(cur)
        if len(powers) > s.cutoff:
            break
    return powers


def oracle_series_pow(s, exponent, ring, aug_powers=None):
    if aug_powers is None:
        aug_powers = oracle_augmentation_powers(s)
    exponent = ring.coerce(exponent)
    total = TruncatedSeries(s.rank, s.cutoff, dict(aug_powers[0].coeffs))
    for k in range(1, len(aug_powers)):
        total = total + oracle_scale(aug_powers[k], ring.binom(exponent, k))
    return total


def oracle_inverse(s):
    u = s - 1
    total = TruncatedSeries.one(s.rank, s.cutoff)
    cur = total
    sign = 1
    while True:
        cur = oracle_mul(cur, u)
        if not cur.coeffs:
            break
        sign = -sign
        total = total + oracle_scale(cur, sign)
    return total


def oracle_series_from_coords(grp, coords):
    t = grp._tables
    s = TruncatedSeries.one(grp.rank, grp.nclass)
    for flat, a in enumerate(coords):
        if not a:
            continue
        s = oracle_mul(s, oracle_series_pow(t.images[flat], a, grp.ring, aug_powers=t.augs[flat]))
    return s


def degree_component(s, i):
    """Coefficients of the words of length exactly i."""
    return {w: c for w, c in s.coeffs.items() if len(w) == i}


def min_degree(s):
    return min((len(w) for w in s.coeffs), default=s.cutoff + 1)


def dense_inverse(matrix):
    """The inverse of a square dense Fraction matrix M, the right half of the RREF of [M | I]."""
    n = len(matrix)
    aug = [row + [Fraction(int(j == k)) for j in range(n)] for k, row in enumerate(matrix)]
    reduced, pivots = linalg.rref(aug)
    assert pivots == list(range(n)), "matrix is singular"
    return [row[n:] for row in reduced]


def dense_engine_tables(rank, nclass):
    """(pivot_words, solvers) as the engine built them from dense matrices.

    Per weight: one row per word of that length, in sorted order, over the
    Lie elements of the weight block; the first independent rows (the
    pivot columns of the transposed RREF) give the pivot words, and each
    solver row holds the nonzero entries of the dense inverse as (index,
    entry) pairs, the entry an int when integral.
    """
    basis = hall_basis(rank, nclass)
    pivot_words, solvers = [], []
    for i in range(1, nclass + 1):
        lies = [basis.lie_element(basis.entries[f]) for f in basis.weight_block(i)]
        words = sorted(itertools.product(range(1, rank + 1), repeat=i))
        matrix = [[Fraction(lie.coeff(w)) for lie in lies] for w in words]
        chosen = linalg.rref([list(col) for col in zip(*matrix)])[1]
        pivot_words.append(tuple(words[k] for k in chosen))
        solvers.append(tuple(
            tuple((k, q.numerator if q.denominator == 1 else q) for k, q in enumerate(row) if q)
            for row in dense_inverse([matrix[k] for k in chosen])
        ))
    return tuple(pivot_words), tuple(solvers)


@lru_cache(maxsize=None)
def oracle_solvers(rank, nclass):
    """Per weight, the dense Fraction inverse of the Hall Lie elements read at the pivot words."""
    basis = hall_basis(rank, nclass)
    pivots = _engine_tables(rank, nclass).pivot_words
    out = []
    for i in range(1, nclass + 1):
        lies = [basis.lie_element(basis.entries[f]) for f in basis.weight_block(i)]
        out.append(dense_inverse([[Fraction(lie.coeff(w)) for lie in lies] for w in pivots[i - 1]]))
    return tuple(out)


def oracle_coords_from_series(grp, s):
    t = grp._tables
    ring = grp.ring
    solvers = oracle_solvers(grp.rank, grp.nclass)
    coords = []
    for i in range(1, grp.nclass + 1):
        comp = degree_component(s, i)
        vals = [comp.get(w, 0) for w in t.pivot_words[i - 1]]
        block = []
        for row in solvers[i - 1]:
            acc = 0
            for q, v in zip(row, vals):
                if v:
                    acc = acc + q * v
            block.append(ring.coerce(acc))
        start = grp.basis.weight_start(i)
        for j, a in enumerate(block):
            if not a:
                continue
            flat = start + j
            strip = oracle_series_pow(t.images[flat], -a, ring, aug_powers=t.augs[flat])
            s = oracle_mul(strip, s)
        coords.extend(block)
    if s != TruncatedSeries.one(grp.rank, grp.nclass):
        raise NotGroupLikeError("series is not a coordinate image over this ring")
    return tuple(coords)


def oracle_mul_coords(grp, a, b):
    s = oracle_mul(oracle_series_from_coords(grp, a), oracle_series_from_coords(grp, b))
    return oracle_coords_from_series(grp, s)


def oracle_pow_coords(grp, a, exponent):
    s = oracle_series_pow(oracle_series_from_coords(grp, a), exponent, grp.ring)
    return oracle_coords_from_series(grp, s)


def oracle_inv_coords(grp, a):
    return oracle_coords_from_series(grp, oracle_inverse(oracle_series_from_coords(grp, a)))


def typed(s):
    """A series' shape and coefficients with their types, so that 1 and Fraction(1) differ."""
    return (s.rank, s.cutoff, {w: (type(c), c) for w, c in s.coeffs.items()})


def typed_coords(coords):
    return [(type(a), a) for a in coords]


# -- strategies -------------------------------------------------------------------

CONFIGS = [(2, 3), (3, 3), (2, 4)]
POLY = PolyRing(("s", "t"))
RINGS = [ZZ, QQ, POLY]


POLYS = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 1)), st.integers(-3, 3), max_size=3
).map(lambda terms: Poly(POLY.vars, terms))


def ring_values(ring):
    """Small ring values; zero comes up often."""
    if ring is ZZ:
        return st.integers(-4, 4)
    if ring is QQ:
        return st.fractions(min_value=-4, max_value=4, max_denominator=3)
    return POLYS


def exponents(ring):
    """Exponents in the ring: ints, plus Fractions over QQ and Polys over the PolyRing."""
    if ring is ZZ:
        return st.integers(-9, 9)
    if ring is QQ:
        return st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=4))
    return st.one_of(st.integers(-3, 3), POLYS)


@st.composite
def series(draw, rank, cutoff, ring, group_like=False):
    word = st.lists(st.integers(1, rank), max_size=cutoff).map(tuple)
    coeffs = draw(st.dictionaries(word, ring_values(ring), max_size=8))
    if group_like:
        coeffs[()] = 1
    return TruncatedSeries(rank, cutoff, coeffs)


@st.composite
def operands(draw, group_like=False):
    rank, cutoff = draw(st.sampled_from(CONFIGS))
    ring = draw(st.sampled_from(RINGS))
    a = draw(series(rank, cutoff, ring, group_like))
    b = draw(series(rank, cutoff, ring, group_like))
    return ring, a, b
