"""Graded Lie rings attached to the group, and the bilinear-map analysis.

Two constructions of the same object: the Lazard Lie ring reads structure
constants off group commutators of basic elements (leading-weight
coordinates), and the free nilpotent Lie ring brackets the Hall Lie
elements inside the truncated associative algebra and re-expands exactly.
Both are graded by weight, and comparing them end to end is one of the
strongest convention checks in the library.

On top of a graded Lie ring sits the induced bilinear map from the
quotient by the center into the derived subalgebra, with exact fullness,
non-degeneracy, completeness, weight-2 width and endomorphism-pair
computations.

The bracket and the bilinear map are both sparse (a, b) -> {t: c} tables.
_contract evaluates f(x, y) on sparse vectors, and _map_rows gives the
dense linalg rows of x -> f(x, v) or x -> f(v, x) for a fixed v; every
bracket and kernel system here comes from these two (only the
endomorphism-pair system keeps its own row builder). compare_graded_lie is
exact equality: a sign flip of basis elements is not repaired, and
first_difference names the first structure constant that differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .errors import ShapeMismatchError
from .group import FreeNilpotentGroup, _engine_tables


def _sparse(vec) -> dict:
    """The nonzero entries of a dense vector, as {index: Fraction}."""
    return {i: Fraction(c) for i, c in enumerate(vec) if c}


def _dense(vec: dict, n: int) -> list:
    return [Fraction(vec.get(i, 0)) for i in range(n)]


def _contract(table, x: dict, y: dict) -> dict:
    """f(x, y) on sparse vectors via a sparse (a, b) -> {t: c} table; zeros may remain."""
    out = {}
    for a, ca in x.items():
        for b, cb in y.items():
            targets = table.get((a, b))
            if targets:
                for t, c in targets.items():
                    out[t] = out.get(t, 0) + ca * cb * c
    return out


def _map_rows(table, v: dict, n: int, v_right: bool) -> dict:
    """Rows of x -> f(x, v) (v_right) or x -> f(v, x), keyed by target.

    Each row is dense over the n coordinates of x. A target that f never
    reaches from v gets no row; a row that cancels to zero is kept.
    """
    rows = {}
    for (a, b), targets in table.items():
        col, key = (a, b) if v_right else (b, a)
        cv = v.get(key)
        if cv:
            for t, c in targets.items():
                if t not in rows:
                    rows[t] = [Fraction(0)] * n
                rows[t][col] += cv * c
    return rows


def _common_kernel(table, n: int, maps) -> list:
    """Basis of {x : f(x, v) = 0 (v_right) or f(v, x) = 0, for all (v, v_right) in maps}."""
    rows = [row for v, v_right in maps for row in _map_rows(table, v, n, v_right).values()]
    return linalg.nullspace(rows or [[Fraction(0)] * n])


class GradedLieRing:
    """Weight-graded Lie ring with an exact sparse structure-constant table.

    table maps a pair of flat basis indices to a sparse dict over flat
    target indices; missing pairs bracket to zero. Values are exact
    rationals (integers in every shipped construction).
    """

    def __init__(self, dims, table, label=""):
        self.dims = tuple(dims)
        self.label = label
        self.total_dim = sum(self.dims)
        self.weight_of = []
        for w, n in enumerate(self.dims, start=1):
            self.weight_of.extend([w] * n)
        self._starts = [0]
        for n in self.dims:
            self._starts.append(self._starts[-1] + n)
        self.table = {
            pair: dict(targets) for pair, targets in table.items() if targets
        }
        for (a, b), targets in self.table.items():
            if not all(0 <= i < self.total_dim for i in (a, b, *targets)):
                raise ShapeMismatchError(f"table entry {(a, b)}: {targets} leaves the basis")

    @property
    def nclass(self):
        return len(self.dims)

    def weight_start(self, i):
        return self._starts[i - 1]

    def weight_block(self, i):
        return range(self._starts[i - 1], self._starts[i])

    def bracket_basis(self, a, b):
        """Sparse bracket of two basis elements, as a target -> coeff dict."""
        return dict(self.table.get((a, b), ()))

    def bracket(self, va, vb):
        """Bilinear extension to dense coefficient vectors."""
        if len(va) != self.total_dim or len(vb) != self.total_dim:
            raise ShapeMismatchError("vector length does not match the ring dimension")
        return _dense(_contract(self.table, _sparse(va), _sparse(vb)), self.total_dim)

    def check_antisymmetry(self) -> bool:
        for a in range(self.total_dim):
            for b in range(a, self.total_dim):
                ab = self.bracket_basis(a, b)
                ba = self.bracket_basis(b, a)
                targets = set(ab) | set(ba)
                if any(Fraction(ab.get(t, 0)) + Fraction(ba.get(t, 0)) for t in targets):
                    return False
        return True

    def check_jacobi(self) -> bool:
        n = self.total_dim
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    total = {}
                    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                        inner = _contract(self.table, {x: 1}, {y: 1})
                        for t, v in _contract(self.table, inner, {z: 1}).items():
                            total[t] = total.get(t, 0) + v
                    if any(total.values()):
                        return False
        return True

    def center_basis(self):
        """Exact nullspace of all right-bracket maps, as dense vectors."""
        n = self.total_dim
        return _common_kernel(self.table, n, [({b: 1}, True) for b in range(n)])

    def center_is_top_block(self) -> bool:
        kernel = self.center_basis()
        top = self.weight_block(self.nclass)
        if len(kernel) != self.dims[-1]:
            return False
        return all(
            not v[i] for v in kernel for i in range(self.total_dim) if i not in top
        )

    def __repr__(self):
        return f"GradedLieRing(dims={self.dims}, label={self.label!r})"


@lru_cache(maxsize=None, typed=True)
def lazard_lie_ring(rank: int, nclass: int) -> GradedLieRing:
    """Structure constants from leading coordinates of group commutators."""
    grp = FreeNilpotentGroup(rank, nclass)
    basis = grp.basis
    table = {}
    for a, ea in enumerate(basis.entries):
        for b, eb in enumerate(basis.entries):
            if a == b or ea.weight + eb.weight > nclass:
                continue
            com = grp.commutator(grp.basic(ea.pair), grp.basic(eb.pair))
            w = ea.weight + eb.weight
            if grp.gamma_weight(com) < w:
                raise RuntimeError(
                    f"commutator of weights {ea.weight} and {eb.weight} has "
                    f"coordinates below weight {w}"
                )
            targets = {}
            for t in basis.weight_block(w):
                v = com.coords[t]
                if v:
                    targets[t] = int(v)
            if targets:
                table[(a, b)] = targets
    return GradedLieRing(basis.counts, table, label=f"lazard({rank},{nclass})")


@lru_cache(maxsize=None, typed=True)
def free_nilpotent_lie(rank: int, nclass: int) -> GradedLieRing:
    """Structure constants by bracketing Hall Lie elements and re-expanding."""
    tables = _engine_tables(rank, nclass)
    basis = tables.basis
    table = {}
    for a, ea in enumerate(basis.entries):
        for b, eb in enumerate(basis.entries):
            if a == b or ea.weight + eb.weight > nclass:
                continue
            la = basis.lie_element(ea)
            lb = basis.lie_element(eb)
            prod = la * lb - lb * la
            w = ea.weight + eb.weight
            coeffs = tables.solve(w, prod.coeffs)
            # the solver matches pivot words only; confirm the full expansion
            block = basis.weight_block(w)
            residual = prod
            for c, flat in zip(coeffs, block):
                if c:
                    residual = residual - c * basis.lie_element(basis.entries[flat])
            if residual.coeffs:
                raise RuntimeError(
                    f"bracket of {ea.pair} and {eb.pair} is not in the "
                    f"weight-{w} Hall span"
                )
            targets = {}
            for c, flat in zip(coeffs, block):
                if c:
                    if c.denominator != 1:
                        raise RuntimeError(
                            f"non-integer structure constant {c} at "
                            f"({ea.pair}, {eb.pair})"
                        )
                    targets[flat] = int(c)
            if targets:
                table[(a, b)] = targets
    return GradedLieRing(basis.counts, table, label=f"free({rank},{nclass})")


def first_difference(A: GradedLieRing, B: GradedLieRing):
    """The first structure constant where the tables of A and B differ.

    Returns ((a, b), t, value in A, value in B), or None when the tables are
    equal. Pairs (a, b) with a > b, the order of the basic commutators
    [u_a, u_b], come first, then their transposes, each in index order.
    """
    for pair in sorted(set(A.table) | set(B.table), key=lambda p: (p[0] < p[1], p)):
        ta = A.table.get(pair, {})
        tb = B.table.get(pair, {})
        for t in sorted(set(ta) | set(tb)):
            va, vb = Fraction(ta.get(t, 0)), Fraction(tb.get(t, 0))
            if va != vb:
                return pair, t, va, vb
    return None


def compare_graded_lie(A: GradedLieRing, B: GradedLieRing) -> bool:
    """Exact match of weight dimensions and structure constants.

    Both rings must carry the same Hall convention; no change of basis,
    not even a sign flip, is repaired.
    """
    return A.dims == B.dims and first_difference(A, B) is None


# -- the induced bilinear map --------------------------------------------------


class BilinearMapData:
    """The bracket as a map (quotient by center) x (same) -> derived subring.

    Domain basis: weights below the class; codomain basis: weights 2 and up.
    tensor[(a, b)][t] gives the codomain coefficients on domain basis pairs.
    """

    def __init__(self, lie: GradedLieRing):
        if not lie.center_is_top_block():
            raise ShapeMismatchError(
                "the quotient construction needs the center to be the top block"
            )
        self.lie = lie
        c = lie.nclass
        self.domain_flats = [
            i for i in range(lie.total_dim) if lie.weight_of[i] < c
        ]
        self.codomain_flats = [
            i for i in range(lie.total_dim) if lie.weight_of[i] >= 2
        ]
        self.domain_dim = len(self.domain_flats)
        self.codomain_dim = len(self.codomain_flats)
        self._co_index = {flat: k for k, flat in enumerate(self.codomain_flats)}
        self.tensor = {}
        for a, fa in enumerate(self.domain_flats):
            for b, fb in enumerate(self.domain_flats):
                got = lie.table.get((fa, fb))
                if got:
                    self.tensor[(a, b)] = {
                        self._co_index[t]: Fraction(c) for t, c in got.items()
                    }

    def value(self, x, y):
        """f(x, y) for dense domain vectors, as a dense codomain vector."""
        if len(x) != self.domain_dim or len(y) != self.domain_dim:
            raise ShapeMismatchError("domain vector length mismatch")
        return _dense(_contract(self.tensor, _sparse(x), _sparse(y)), self.codomain_dim)

    def is_full(self) -> bool:
        """The image values span the whole codomain (exact rank)."""
        rows = [_dense(targets, self.codomain_dim) for targets in self.tensor.values()]
        return linalg.rank(rows) == self.codomain_dim

    def left_kernel(self):
        """Basis of {x : f(x, e_b) = 0 for all b}."""
        return self._kernel(True)

    def right_kernel(self):
        """Basis of {y : f(e_a, y) = 0 for all a}."""
        return self._kernel(False)

    def _kernel(self, v_right):
        m = self.domain_dim
        return _common_kernel(self.tensor, m, [({b: 1}, v_right) for b in range(m)])

    def is_nondegenerate(self) -> bool:
        return not self.left_kernel() and not self.right_kernel()


def bilinear_from_lie(lie: GradedLieRing) -> BilinearMapData:
    return BilinearMapData(lie)


@dataclass(frozen=True)
class EndoPair:
    """A pair of matrices (on the domain, on the codomain) compatible with f."""

    phi1: tuple  # domain_dim x domain_dim, rows of Fractions
    phi0: tuple  # codomain_dim x codomain_dim

    def scalar_value(self):
        """The scalar if both matrices are the same multiple of the identity."""
        alpha = None
        for mat in (self.phi1, self.phi0):
            for i, row in enumerate(mat):
                for j, v in enumerate(row):
                    if i == j:
                        if alpha is None:
                            alpha = v
                        elif v != alpha:
                            return None
                    elif v:
                        return None
        return alpha


def endomorphism_pair_space(B: BilinearMapData) -> list:
    """Nullspace basis of the compatibility system on matrix pairs.

    The system states f(phi1 x, y) = phi0 f(x, y) = f(x, phi1 y) on all
    basis pairs. For the bilinear data of a free nilpotent Lie ring the
    space is one-dimensional and consists of the scalar pairs: every
    compatible endomorphism pair acts by a single scalar over Q.
    """
    m, n = B.domain_dim, B.codomain_dim
    nun = m * m + n * n

    def p1(i, j):
        return i * m + j

    def p0(i, j):
        return m * m + i * n + j

    def tens(a, b, t):
        return B.tensor.get((a, b), {}).get(t, Fraction(0))

    rows = []
    for a in range(m):
        for b in range(m):
            for w in range(n):
                row = [Fraction(0)] * nun
                for s in range(m):
                    row[p1(s, a)] += tens(s, b, w)
                for v in range(n):
                    row[p0(w, v)] -= tens(a, b, v)
                if any(row):
                    rows.append(row)
                row = [Fraction(0)] * nun
                for s in range(m):
                    row[p1(s, b)] += tens(a, s, w)
                for v in range(n):
                    row[p0(w, v)] -= tens(a, b, v)
                if any(row):
                    rows.append(row)
    if not rows:
        rows = [[Fraction(0)] * nun]
    out = []
    for vec in linalg.nullspace(rows):
        phi1 = tuple(tuple(vec[p1(i, j)] for j in range(m)) for i in range(m))
        phi0 = tuple(tuple(vec[p0(i, j)] for j in range(n)) for i in range(n))
        out.append(EndoPair(phi1, phi0))
    return out


def endo_pair_satisfies(B: BilinearMapData, pair: EndoPair) -> bool:
    """Direct check of the compatibility equations on all basis pairs.

    phi1 e_a and phi0 e_t are read off as matrix columns, and f is applied
    through the sparse tensor, so no dense product is ever formed.
    """
    m = B.domain_dim

    def column(mat, j):
        return {i: row[j] for i, row in enumerate(mat) if row[j]}

    def nonzero(vec):
        return {i: c for i, c in vec.items() if c}

    cols1 = [column(pair.phi1, a) for a in range(m)]
    cols0 = [column(pair.phi0, t) for t in range(B.codomain_dim)]
    for a in range(m):
        for b in range(m):
            base = {}
            for t, c in B.tensor.get((a, b), {}).items():
                for i, v in cols0[t].items():
                    base[i] = base.get(i, 0) + c * v
            base = nonzero(base)
            if nonzero(_contract(B.tensor, cols1[a], {b: 1})) != base:
                return False
            if nonzero(_contract(B.tensor, {a: 1}, cols1[b])) != base:
                return False
    return True


def complete_system_check(B: BilinearMapData, vectors) -> bool:
    """Whether f(x, E) = f(E, x) = 0 over the given set E forces x = 0."""
    maps = []
    for e in vectors:
        if len(e) != B.domain_dim:
            raise ShapeMismatchError("test vector length mismatch")
        maps += [(_sparse(e), True), (_sparse(e), False)]
    return not _common_kernel(B.tensor, B.domain_dim, maps)


def weight_two_width(B: BilinearMapData, u) -> int:
    """Exact width of a weight-2 target: the least s with u = f(x_1, y_1) + ... + f(x_s, y_s).

    On weight 1 x weight 1 -> weight 2 the free bracket is the wedge product
    into the exterior square of Z^r, so u is an alternating r x r matrix A,
    read off the tensor on the weight-1 pairs. Its width is rank(A) / 2, over
    Z and over Q alike, by the alternating normal form. u must vanish outside
    the weight-2 block, and the layer must be the free one: f(e_a, e_b) =
    -f(e_b, e_a) = +-e_t on weight 2, with each weight-2 target t reached by
    exactly one pair a < b. Anything else raises ShapeMismatchError.
    """
    dims = B.lie.dims
    r, n2 = dims[0], (dims[1] if len(dims) > 1 else 0)
    if len(u) != B.codomain_dim:
        raise ShapeMismatchError("target vector length mismatch")
    if any(u[n2:]):
        raise ShapeMismatchError("target is nonzero outside the weight-2 block")

    def layer(a, b):
        return {t: c for t, c in B.tensor.get((a, b), {}).items() if t < n2}

    wedge = {}  # weight-2 target -> (a, b, c) with a < b and f(e_a, e_b) = c e_t
    for a in range(r):
        for b in range(a + 1, r):
            got = layer(a, b)
            if len(got) == 1:
                [(t, c)] = got.items()
                if abs(c) == 1 and t not in wedge and layer(b, a) == {t: -c}:
                    wedge[t] = (a, b, c)
    if len(wedge) != n2 or len(wedge) != r * (r - 1) // 2 or any(layer(a, a) for a in range(r)):
        raise ShapeMismatchError("the weight-2 layer is not the free one")
    A = [[Fraction(0)] * r for _ in range(r)]
    for t, (a, b, c) in wedge.items():
        A[a][b] = c * Fraction(u[t])
        A[b][a] = -A[a][b]
    return linalg.rank(A) // 2


# -- centralizer kernels -------------------------------------------------------


def centralizer_weight_kernels(lie: GradedLieRing, j: int) -> list:
    """Kernels of bracketing with the weight-1 basis element j, per weight.

    Returns one kernel basis per weight w = 1..c-1, each a list of dense
    vectors over the weight-w block. The free nilpotent expectation: at
    weight 1, exactly the line of the element itself; empty at 2..c-1.
    """
    if not 1 <= j <= lie.dims[0]:
        raise ShapeMismatchError(f"no weight-1 basis element {j}")
    gen = lie.weight_start(1) + (j - 1)
    rows = _map_rows(lie.table, {gen: 1}, lie.total_dim, True)
    out = []
    for w in range(1, lie.nclass):
        block = lie.weight_block(w)
        targets = lie.weight_block(w + 1)
        sub = [row[block.start : block.stop] for t, row in rows.items() if t in targets]
        out.append(linalg.nullspace(sub or [[Fraction(0)] * len(block)]))
    return out


def centralizer_line_holds(lie: GradedLieRing, j: int) -> bool:
    """Exact coordinate statement: the centralizer is the element's own line
    plus the center."""
    kernels = centralizer_weight_kernels(lie, j)
    k1 = kernels[0]
    if len(k1) != 1:
        return False
    vec = k1[0]
    if any(vec[i] for i in range(len(vec)) if i != j - 1) or not vec[j - 1]:
        return False
    return all(not k for k in kernels[1:])
