"""Exact linear algebra over the rationals by sparse incremental elimination.

Used for coordinate extraction, re-expanding Lie brackets in a Hall basis,
and the kernels and compatible-pair solve of the Lie layer. The largest
systems, the compatible-pair equations over the m^2 entries of phi1, are
very sparse: 522 nonzero rows over 64 columns at (2,5) and 164,604 over
1936 at (44,2), each row with at most two entries. So every function here
runs one Gauss-Jordan core, `_eliminate`, on rows stored as
{column: value} dicts holding only the nonzero entries, and the library
hands its rows to `rank`, `independent_rows`, `invert` and `kernel` in that
form. `rref` and `nullspace` are the dense forms, lists of rows, for
callers outside the library; they convert their rows first. No function
modifies the rows it is given.

Entries may be int or Fraction, mixed freely. A pivot of 1 keeps its row
as it is (copied), a pivot of -1 negates it, and any other pivot scales it
by Fraction(1) / pivot. So rows of ints stay ints through the core for as
long as every pivot they meet is a unit, which keeps the mostly unimodular
compatible-pair equations off Fraction arithmetic, and the core never
divides an int by an int. Types are fixed at the boundary: `kernel` and
`invert` convert their results, and `rref` and `nullspace` convert their
input rows, so they return lists of Fractions or sparse rows of Fractions
whatever the input types, and no float ever appears.

The core reduces each input row in turn against a basis of fully reduced,
normalized rows keyed by pivot column. A row that is still nonzero takes its
smallest column as its pivot, and that column is then cleared from the basis
rows already there. Each basis row stays zero left of its pivot and in every
other pivot column, so the basis sorted by pivot is a reduced row echelon
form of the rows seen so far. The RREF of a matrix is unique, so the pivots,
reduced rows, nullspace vectors and inverses returned here are exactly those
of any other exact elimination order, including dense Gauss-Jordan.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[Fraction]]


def _eliminate(rows) -> tuple[dict[int, dict], list[int]]:
    """Reduce sparse rows ({col: int or Fraction}, no zero values) in order.

    Returns (basis, added): basis maps each pivot column to its normalized,
    fully reduced row, and added lists the indices of the rows that gave a
    new pivot, in input order. Basis entries are ints where the arithmetic
    kept them so, else Fractions.
    """
    basis: dict[int, dict] = {}
    added: list[int] = []
    for index, row in enumerate(rows):
        # basis rows vanish in every other pivot column, so one pass over the
        # row's own pivot entries clears them all; the caller's dict is copied
        # before it would change
        hits = [c for c in row if c in basis]
        if hits:
            row = dict(row)
            for p in hits:
                _subtract(row, row.pop(p), basis[p], p)
        if not row:
            continue
        pivot = min(row)
        pv = row[pivot]
        if pv == 1:
            row = dict(row)  # basis rows change later: never keep the caller's dict
        elif pv == -1:
            row = {c: -v for c, v in row.items()}
        else:
            inv = Fraction(1) / pv
            row = {c: v * inv for c, v in row.items()}
        for brow in basis.values():
            if pivot in brow:
                _subtract(brow, brow.pop(pivot), row, pivot)
        basis[pivot] = row
        added.append(index)
    return basis, added


def _subtract(target: dict, f: int | Fraction, row: dict, skip: int) -> None:
    """target -= f * row on every column but skip, dropping entries that vanish."""
    for c, v in row.items():
        if c != skip:
            x = target.get(c, 0) - f * v
            if x:
                target[c] = x
            else:
                del target[c]


def _sparse(rows):
    return [{c: Fraction(x) for c, x in enumerate(row) if x} for row in rows]


def _dense(row: dict, ncols: int) -> list[Fraction]:
    out = [Fraction(0)] * ncols
    for c, v in row.items():
        out[c] = v
    return out


def rref(rows) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form of dense rows. Returns (reduced rows, pivot columns).

    The reduced matrix has as many rows as the input; its zero rows come last.
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    basis, _ = _eliminate(_sparse(rows))
    pivots = sorted(basis)
    reduced = [_dense(basis[p], ncols) for p in pivots]
    reduced.extend([Fraction(0)] * ncols for _ in range(len(rows) - len(pivots)))
    return reduced, pivots


def rank(rows) -> int:
    """Rank of sparse rows."""
    return len(_eliminate(rows)[0])


def independent_rows(rows) -> list[int]:
    """Indices of a maximal linearly independent subset of sparse rows (first found)."""
    return _eliminate(rows)[1]


def nullspace(rows) -> list[list[Fraction]]:
    """Basis of the right kernel {v : rows @ v = 0} of dense rows."""
    if not rows:
        return []
    return kernel(_sparse(rows), len(rows[0]))


def kernel(rows, ncols: int) -> list[list[Fraction]]:
    """nullspace of sparse rows over ncols columns, as dense vectors.

    With no rows every column is free, so the kernel is the whole space.
    """
    basis, _ = _eliminate(rows)
    free = {c: [Fraction(0)] * ncols for c in range(ncols) if c not in basis}
    for c, v in free.items():
        v[c] = Fraction(1)
    for p, row in basis.items():
        for c, x in row.items():
            if c != p:
                free[c][p] = Fraction(-x)
    return list(free.values())


def invert(rows) -> list[dict[int, Fraction]]:
    """Inverse of the square matrix of n sparse rows over columns 0..n-1, as sparse rows.

    Reduces [rows | identity]: row t of the inverse sits beside pivot t.
    Raises ValueError when a row has a column outside 0..n-1 or the matrix
    is singular.
    """
    n = len(rows)
    if any(not 0 <= c < n for row in rows for c in row):
        raise ValueError("matrix is not square")
    basis, _ = _eliminate({**row, n + i: 1} for i, row in enumerate(rows))
    if any(p >= n for p in basis):
        raise ValueError("matrix is singular")
    return [{c - n: Fraction(x) for c, x in basis[t].items() if c >= n} for t in range(n)]
