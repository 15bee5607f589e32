"""Tests for the exact linear algebra helpers.

The dense Gauss-Jordan below is the reference: the sparse elimination in
hallforge.linalg must return exactly what it returns. rank,
independent_rows and invert take sparse rows, so the dense test matrices
are converted at the call. Rows of ints must give the same results, with
the same documented types (Fractions, never a float), as rows of Fractions.
"""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from lie_oracle import endomorphism_system

from hallforge import linalg
from hallforge.lie import bilinear_from_lie, free_nilpotent_lie


# -- dense reference ------------------------------------------------------------


def _oracle_rref(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return m, []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for col in range(ncols):
        hit = next((i for i in range(r, nrows) if m[i][col]), None)
        if hit is None:
            continue
        m[r], m[hit] = m[hit], m[r]
        inv = Fraction(1) / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return m, pivots


def _oracle_nullspace(rows):
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = _oracle_rref(rows)
    basis = []
    for free_col in range(ncols):
        if free_col in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[free_col] = Fraction(1)
        for row_i, piv_col in enumerate(pivots):
            v[piv_col] = -red[row_i][free_col]
        basis.append(v)
    return basis


def _oracle_invert(rows):
    n = len(rows)
    aug = [
        [Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    red, pivots = _oracle_rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


def _oracle_independent_rows(rows):
    if not rows:
        return []
    transpose = [[rows[i][j] for i in range(len(rows))] for j in range(len(rows[0]))]
    return _oracle_rref(transpose)[1]


def _frac_rows(rows):
    return [[Fraction(v) for v in row] for row in rows]


def _sparse(rows):
    """Dense rows as the sparse rows the library takes: {column: entry}, no zeros."""
    return [{c: v for c, v in enumerate(row) if v} for row in rows]


def _all_fractions(values) -> bool:
    return all(type(v) is Fraction for v in values)


def _dense(rows, ncols):
    return [[row.get(c, Fraction(0)) for c in range(ncols)] for row in rows]


def test_rank_small_cases():
    assert linalg.rank(_sparse([[1, 0], [0, 1]])) == 2
    assert linalg.rank(_sparse([[1, 2], [2, 4]])) == 1
    assert linalg.rank(_sparse([[0, 0], [0, 0]])) == 0


def test_rref_pivots():
    m, pivots = linalg.rref(_frac_rows([[2, 4, 6], [1, 2, 4]]))
    assert pivots == [0, 2]
    assert m[0][:2] == [1, 2]


def test_nullspace_vectors_annihilate():
    rng = Random(21)
    for _ in range(40):
        rows = _frac_rows(
            [[rng.randint(-4, 4) for _ in range(5)] for _ in range(3)]
        )
        basis = linalg.nullspace(rows)
        assert len(basis) == 5 - linalg.rank(_sparse(rows))
        for vec in basis:
            for row in rows:
                assert sum(a * v for a, v in zip(row, vec)) == 0


def test_invert_round_trip():
    rng = Random(22)
    done = 0
    while done < 20:
        rows = _frac_rows(
            [[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)]
        )
        if linalg.rank(_sparse(rows)) < 4:
            continue
        inv = _dense(linalg.invert(_sparse(rows)), 4)
        for i in range(4):
            for j in range(4):
                prod = sum(rows[i][k] * inv[k][j] for k in range(4))
                assert prod == (1 if i == j else 0)
        done += 1


def test_invert_singular_raises():
    with pytest.raises(ValueError, match="singular"):
        linalg.invert(_sparse([[1, 2], [2, 4]]))
    # three rows over two columns: a 3 x 3 matrix with a zero column
    with pytest.raises(ValueError, match="singular"):
        linalg.invert(_sparse([[1, 0], [0, 1], [1, 1]]))


def test_invert_refuses_a_row_past_the_last_column():
    # two rows that reach column 2 are not a square matrix
    with pytest.raises(ValueError, match="not square"):
        linalg.invert(_sparse([[1, 0, 0], [0, 1, 1]]))


def test_independent_rows():
    rows = _sparse([[1, 0, 0], [2, 0, 0], [0, 1, 0]])
    picked = linalg.independent_rows(rows)
    assert picked == [0, 2]


# -- differential tests against the dense reference -----------------------------


_ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.integers(-3, 3).map(Fraction),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def _matrices(draw, entries=_ENTRIES, zero=Fraction(0)):
    """0-8 rows by 1-8 columns, drawn from a pool that holds a zero row, so
    that zero, duplicate and all-zero rows all come up."""
    ncols = draw(st.integers(1, 8))
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    pool = draw(st.lists(row, min_size=1, max_size=8)) + [[zero] * ncols]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=8))
    return [list(pool[i]) for i in picks]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.one_of(_matrices(), _matrices(st.integers(-3, 3), 0)))
def test_matches_dense_reference(rows):
    # Fraction rows or int rows: the reference values, as Fractions, never a float
    red, pivots = _oracle_rref(rows)
    got_red, got_pivots = linalg.rref(rows)
    assert (got_red, got_pivots) == (red, pivots)
    assert _all_fractions(v for row in got_red for v in row)
    sparse = _sparse(rows)
    assert linalg.rank(sparse) == len(pivots)
    null = linalg.nullspace(rows)
    assert null == _oracle_nullspace(rows) and _all_fractions(v for vec in null for v in vec)
    if rows:
        ker = linalg.kernel(sparse, len(rows[0]))
        assert ker == null and _all_fractions(v for vec in ker for v in vec)
    assert linalg.independent_rows(sparse) == _oracle_independent_rows(rows)
    assert sparse == _sparse(rows)  # the rows are left as they were
    # the sparse rows are n x n when no entry lies past column n - 1
    n = len(rows)
    if any(any(row[n:]) for row in rows):
        with pytest.raises(ValueError, match="not square"):
            linalg.invert(sparse)
        return
    try:
        want = _oracle_invert([(row + [Fraction(0)] * n)[:n] for row in rows])
    except ValueError:
        with pytest.raises(ValueError, match="singular"):
            linalg.invert(sparse)
    else:
        got = linalg.invert(sparse)
        assert all(all(row.values()) for row in got)
        assert _dense(got, n) == want
        assert _all_fractions(v for row in got for v in row.values())


@pytest.mark.parametrize("rank, nclass", [(3, 3), (2, 5)])
def test_endomorphism_system_nullspace_matches_dense(rank, nclass):
    # the dense compatible-pair system of the test oracle: many sparse rows
    # over m^2 + n^2 columns, the largest system the dense reference solves here
    bil = bilinear_from_lie(free_nilpotent_lie(rank, nclass))
    rows = endomorphism_system(bil)
    assert len(rows[0]) == bil.domain_dim ** 2 + bil.codomain_dim ** 2
    assert linalg.nullspace(rows) == _oracle_nullspace(rows)


def test_int_rows_give_fractions_not_floats():
    assert linalg.invert([{0: 2}]) == [{0: Fraction(1, 2)}]
    assert _all_fractions(linalg.invert([{0: 2}])[0].values())
    [vec] = linalg.kernel([{0: 2, 1: 1}], 2)
    assert vec == [Fraction(-1, 2), Fraction(1)] and _all_fractions(vec)


def _typed_rows(rows):
    return [[(c, type(v), v) for c, v in row.items()] for row in rows]


@pytest.mark.parametrize(
    "rows",
    [
        # a pivot of 1 and of -1 with no earlier hits, each cleared by the next row
        [{0: 1, 1: 1}, {1: 1}],
        [{0: -1, 1: 2}, {1: 1}],
        [{0: Fraction(1), 1: Fraction(1, 2)}, {1: Fraction(3)}],
        [{0: Fraction(-1), 1: Fraction(2, 3)}, {1: Fraction(-1)}],
        # mixed: unit pivots of both signs, a scaled pivot and a dependent row
        [{0: 1, 2: Fraction(1, 2)}, {1: -1, 2: 3}, {2: 2}],
        [{1: -1, 2: 1}, {0: Fraction(1), 1: 2}, {0: 1, 1: 1, 2: 1}],
    ],
    ids=["int+1", "int-1", "fraction+1", "fraction-1", "mixed", "mixed-dependent"],
)
def test_no_function_modifies_its_rows(rows):
    # a unit-pivot row stays as it is, so the core must still copy it before
    # a later pivot clears its column
    before = _typed_rows(rows)
    ncols = 1 + max(c for row in rows for c in row)
    linalg.rank(rows)
    linalg.independent_rows(rows)
    ker = linalg.kernel(rows, ncols)
    assert _typed_rows(rows) == before
    assert _all_fractions(v for vec in ker for v in vec)
    try:
        inv = linalg.invert(rows)
    except ValueError:
        pass
    else:
        assert _all_fractions(v for row in inv for v in row.values())
    assert _typed_rows(rows) == before
