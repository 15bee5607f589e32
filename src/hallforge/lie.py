"""Graded Lie rings attached to the group, and the bilinear-map analysis.

Two constructions of the same object, over the pairs of
HallBasis.bracket_pairs: the Lazard Lie ring reads structure constants off
group commutators of basic elements (leading-weight coordinates, from the
group's commutator_coords of its unit_series), and the free nilpotent Lie
ring brackets the Hall Lie elements and re-expands exactly (lie_coords).
Both are graded by weight, and comparing them end to end is one of the
strongest convention checks in the library.

On top of a graded Lie ring sits the induced bilinear map from the
quotient by the center into the derived subalgebra, with exact fullness,
non-degeneracy, completeness, weight-2 width and endomorphism-pair
computations.

The bracket and the bilinear map are both sparse (a, b) -> {t: c} tables.
_contract evaluates f(x, y) on sparse vectors, and _map_rows gives the
sparse linalg rows of x -> f(x, v) or x -> f(v, x); no dense row is formed.
Inside, values stay ints where the data are integral: the ring tables of
the shipped constructions are int, so the center and centralizer kernels
reduce int rows, and the compatible-pair solve builds its equations from
an int view of the tensor and of M^-1 (_int_view). linalg returns every
result as Fractions, and so does every public function here.
Results are read-only and shared by value (_SHARED). compare_graded_lie is
exact equality: a sign flip of basis elements is not repaired, and
first_difference names the first structure constant that differs.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product
from types import MappingProxyType

from . import linalg
from .errors import ShapeMismatchError
from .group import FreeNilpotentGroup


def _sparse(vec) -> dict:
    """The nonzero entries of a dense sequence or a sparse mapping, as {index: Fraction}."""
    items = vec.items() if hasattr(vec, "items") else enumerate(vec)
    return {i: Fraction(c) for i, c in items if c}


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


def _combine(coeffs: dict, vectors) -> dict:
    """sum of c * vectors[i] over {i: c} in coeffs, on sparse dicts; zeros may remain."""
    out = {}
    for i, c in coeffs.items():
        for j, v in vectors[i].items():
            out[j] = out.get(j, 0) + c * v
    return out


def _map_rows(table, maps) -> list:
    """Rows of x -> f(x, v) (v_right) or x -> f(v, x): one {target: row} dict per
    (v, v_right) in maps, a row for each target that f reaches from v (empty if
    it cancels). The table is indexed by its fixed factor once for all maps.
    Entries keep the types of the products of table and v values: int over an
    int table and int vectors, which linalg reduces as ints and returns as
    Fractions."""
    index = {}
    for side in {v_right for _, v_right in maps}:
        for (a, b), targets in table.items():
            col, key = (a, b) if side else (b, a)
            index.setdefault((side, key), []).append((col, targets))
    out = []
    for v, v_right in maps:
        rows = {}
        for key, cv in v.items():
            for col, targets in index.get((v_right, key), ()):
                for t, c in targets.items():
                    row = rows.setdefault(t, {})
                    row[col] = row.get(col, 0) + cv * c
        out.append({t: {c: x for c, x in row.items() if x} for t, row in rows.items()})
    return out


def _int_view(row) -> dict:
    """The nonzero entries of a sparse row, each of denominator 1 as its int
    numerator; the others stay Fractions."""
    return {k: v.numerator if v.denominator == 1 else v for k, v in row.items() if v}


def _common_kernel(table, n: int, maps) -> list:
    """Basis of {x : f(x, v) = 0 (v_right) or f(v, x) = 0, for all (v, v_right) in maps}."""
    return linalg.kernel([row for rows in _map_rows(table, maps) for row in rows.values()], n)


# Equal results are one object: each is built in full, then swapped for the live one
# under its key, which covers all the object holds (value types too, never an id()).
_SHARED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class _Key(tuple):
    """An intern key that hashes its items once: Fraction does not cache its hash,
    and the table would otherwise rehash a key on lookup, insert and removal."""

    def __new__(cls, items):
        key = super().__new__(cls, items)
        key._hash = tuple.__hash__(key)
        return key

    def __hash__(self):
        return self._hash


def _share(key: tuple, obj):
    """The live object interned under key, or obj, which is then interned."""
    return _SHARED.setdefault(_Key(key), obj)


class GradedLieRing:
    """Weight-graded Lie ring with an exact sparse structure-constant table.

    table maps a pair of flat basis indices to a sparse dict over flat
    target indices; missing pairs bracket to zero. The table is graded and
    zero-free by construction: zero coefficients are dropped, and every
    target of (a, b) has weight w_a + w_b, since [gamma_i, gamma_j] lies in
    gamma_{i+j}; any other table raises ShapeMismatchError. The checks read
    the grading from there. Values are exact rationals (integers in every
    shipped construction). Table and rows are read-only.
    """

    __slots__ = ("dims", "label", "total_dim", "weight_of", "_starts", "table", "__weakref__")

    def __init__(self, dims, table, label=""):
        self.dims = tuple(dims)
        self.label = label
        self.total_dim = sum(self.dims)
        self.weight_of = tuple(w for w, n in enumerate(self.dims, start=1) for _ in range(n))
        self._starts = tuple(accumulate(self.dims, initial=0))
        rows = ((pair, {t: c for t, c in targets.items() if c}) for pair, targets in table.items())
        self.table = MappingProxyType({pair: MappingProxyType(row) for pair, row in rows if row})
        w = self.weight_of
        for (a, b), targets in self.table.items():
            if not all(0 <= i < self.total_dim for i in (a, b, *targets)):
                raise ShapeMismatchError(f"table entry {(a, b)}: {dict(targets)} leaves the basis")
            if any(w[t] != w[a] + w[b] for t in targets):
                raise ShapeMismatchError(f"table entry {(a, b)}: {dict(targets)} is not of weight "
                                         f"{w[a]} + {w[b]}")

    @property
    def nclass(self):
        return len(self.dims)

    def weight_start(self, i):
        return self._starts[i - 1]

    def weight_block(self, i):
        return range(self._starts[i - 1], self._starts[i])

    def check_antisymmetry(self) -> bool:
        """[b, a] = -[a, b] on every entry; zero-free rows make a diagonal entry fail."""
        return all(self.table.get((b, a), {}) == {t: -c for t, c in row.items()}
                   for (a, b), row in self.table.items())

    def check_jacobi(self) -> bool:
        """Jacobi on every ordered triple of weight sum at most the class: by the
        grading, no other triple has a nonzero term."""
        w, c_max = self.weight_of, self.nclass
        for a in range(self.total_dim):
            for b in range(self.total_dim):
                for c in range(self._starts[max(0, c_max - w[a] - w[b])]):
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
        """The grading puts the top block in the center, so equal dimensions suffice."""
        return len(self.center_basis()) == self.dims[-1]

    def _key(self):
        """Everything the ring holds: dims, label and the table with its value types."""
        table = tuple((pair, tuple((t, type(c), c) for t, c in row.items()))
                      for pair, row in self.table.items())
        return (GradedLieRing, self.dims, self.label, table)

    def __repr__(self):
        return f"GradedLieRing(dims={self.dims}, label={self.label!r})"


def _ring(basis, label: str, bracket) -> GradedLieRing:
    """The shared ring: bracket(ea, eb, w) gives the targets of every pair in basis.bracket_pairs."""
    table = {}
    for ea, eb in basis.bracket_pairs.values():
        targets = bracket(ea, eb, ea.weight + eb.weight)
        if targets:
            table[(ea.position, eb.position)] = targets
    lie = GradedLieRing(basis.counts, table, label)
    return _share(lie._key(), lie)


@lru_cache(maxsize=None, typed=True)
def lazard_lie_ring(rank: int, nclass: int) -> GradedLieRing:
    """Structure constants from leading coordinates of group commutators.

    The series of u_j^-1 and u_j are built once per entry below the class;
    each ordered pair then costs three series products and one checked
    extraction (commutator_coords, refusing coordinates below w_a + w_b).
    """
    grp = FreeNilpotentGroup(rank, nclass)
    units = {f: (grp.unit_series(f, -1), grp.unit_series(f, 1))
             for f in range(grp.basis.weight_start(nclass))}

    def bracket(ea, eb, w):
        coords = grp.commutator_coords(units[ea.position], units[eb.position], w)
        return {t: coords[t] for t in grp.basis.weight_block(w) if coords[t]}

    return _ring(grp.basis, f"lazard({rank},{nclass})", bracket)


@lru_cache(maxsize=None, typed=True)
def free_nilpotent_lie(rank: int, nclass: int) -> GradedLieRing:
    """Structure constants by bracketing Hall Lie elements and re-expanding (lie_coords)."""
    grp = FreeNilpotentGroup(rank, nclass)
    basis = grp.basis

    def bracket(ea, eb, w):
        la, lb = basis.lie_element(ea), basis.lie_element(eb)
        coeffs = grp.lie_coords(w, la * lb - lb * la)
        return {flat: c for c, flat in zip(coeffs, basis.weight_block(w)) if c}

    return _ring(basis, f"free({rank},{nclass})", bracket)


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
    tensor[(a, b)][t] (read-only) gives the codomain coefficients on domain pairs.
    """

    __slots__ = ("lie", "domain_flats", "codomain_flats", "domain_dim", "codomain_dim",
                 "tensor", "__weakref__")

    def __init__(self, lie: GradedLieRing):
        if not lie.center_is_top_block():
            raise ShapeMismatchError(
                "the quotient construction needs the center to be the top block"
            )
        self.lie = lie
        c = lie.nclass
        self.domain_flats = tuple(i for i in range(lie.total_dim) if lie.weight_of[i] < c)
        self.codomain_flats = tuple(i for i in range(lie.total_dim) if lie.weight_of[i] >= 2)
        self.domain_dim = len(self.domain_flats)
        self.codomain_dim = len(self.codomain_flats)
        co_index = {flat: k for k, flat in enumerate(self.codomain_flats)}
        self.tensor = MappingProxyType({
            (a, b): MappingProxyType({co_index[t]: Fraction(c) for t, c in got.items()})
            for a, fa in enumerate(self.domain_flats)
            for b, fb in enumerate(self.domain_flats)
            if (got := lie.table.get((fa, fb)))
        })

    def value(self, x, y):
        """f(x, y) for dense domain vectors, as a dense codomain vector."""
        if len(x) != self.domain_dim or len(y) != self.domain_dim:
            raise ShapeMismatchError("domain vector length mismatch")
        return _dense(_contract(self.tensor, _sparse(x), _sparse(y)), self.codomain_dim)

    def _value_basis(self) -> list:
        """The first domain pairs (a, b), in tensor order, whose values are independent."""
        pairs = list(self.tensor)
        return [pairs[i] for i in linalg.independent_rows([_sparse(self.tensor[p]) for p in pairs])]

    def is_full(self) -> bool:
        """The image values span the whole codomain (exact rank)."""
        return len(self._value_basis()) == self.codomain_dim

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
    return _share((BilinearMapData, lie._key()), BilinearMapData(lie))


@dataclass(frozen=True)
class EndoPair:
    """A pair of matrices (on the domain, on the codomain) compatible with f."""

    __slots__ = ("phi1", "phi0", "__weakref__")

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
    """Basis of the pairs (phi1, phi0) with f(phi1 x, y) = phi0 f(x, y) = f(x, phi1 y).

    Defined for a full map only (else ShapeMismatchError), so phi1 fixes
    phi0: the values T_k of the B._value_basis() pairs (a_k, b_k) are the rows
    of an invertible M, and phi0 T_k = f(phi1 e_a_k, e_b_k) =: F_k. With
    T(a, b) = sum_k c_k T_k, each basis pair gives sparse equations
    f(phi1 e_a, e_b) = sum_k c_k F_k = f(e_a, phi1 e_b) over the m^2 entries
    of phi1 (row-major); their nullspace is the basis, with phi0 e_t =
    sum_k (M^-1)[t][k] F_k. For a free nilpotent Lie ring: the scalar line.

    The equations are built from the int views of the tensor and of M^-1,
    where an entry of denominator 1 is an int and any other stays a
    Fraction; over a free nilpotent Lie ring every coefficient is then an
    int, and the elimination meets mostly unit pivots. phi0 is read off
    through the Fraction M^-1, and every entry of phi1 and phi0 is a Fraction.
    """
    m, n = B.domain_dim, B.codomain_dim
    chosen = B._value_basis()
    if len(chosen) != n:
        raise ShapeMismatchError("compatible pairs need a full map, whose values span the codomain")
    tensor = {p: _int_view(targets) for p, targets in B.tensor.items()}
    minv = linalg.invert([tensor[p] for p in chosen])
    minv_int = [_int_view(row) for row in minv]
    lefts = _map_rows(tensor, [({b: 1}, True) for b in range(m)])  # [b][w] = {s: T(s, b)_w}
    rights = _map_rows(tensor, [({a: 1}, False) for a in range(m)])  # [a][w] = {s: T(a, s)_w}

    def image(rows, j):  # f(phi1 e_j, e_b) from lefts[b], f(e_a, phi1 e_j) from rights[a]
        return {w: {s * m + j: c for s, c in row.items()} for w, row in rows.items()}

    base = [image(lefts[b], a) for a, b in chosen]
    rows = []
    for a, b in product(range(m), repeat=2):
        coords = _combine(tensor.get((a, b), {}), minv_int)
        for eq in (image(lefts[b], a), image(rights[a], b)):
            for k, ck in coords.items():
                for w, brow in base[k].items():
                    row = eq.setdefault(w, {})
                    for col, v in brow.items():
                        row[col] = row.get(col, 0) - ck * v
            rows += ({c: x for c, x in r.items() if x} for r in eq.values())
    zero, out = Fraction(0), []
    for vec in linalg.kernel(rows, m * m):
        phi1 = tuple(tuple(vec[i * m : (i + 1) * m]) for i in range(m))
        F = [{w: sum(v * vec[c] for c, v in row.items()) for w, row in bk.items()} for bk in base]
        cols = [_combine(minv[t], F) for t in range(n)]
        phi0 = tuple(tuple(col.get(w, zero) for col in cols) for w in range(n))
        out.append(_share((EndoPair, phi1, phi0), EndoPair(phi1, phi0)))
    return out


def endo_pair_satisfies(B: BilinearMapData, pair: EndoPair) -> bool:
    """Direct check of the compatibility equations on all basis pairs.

    phi1 e_a and phi0 e_t are read off as matrix columns, and f is applied
    through the sparse tensor, so no dense product is ever formed.
    """
    m = B.domain_dim
    cols1 = [_sparse([row[a] for row in pair.phi1]) for a in range(m)]
    cols0 = [_sparse([row[t] for row in pair.phi0]) for t in range(B.codomain_dim)]
    for a, b in product(range(m), repeat=2):
        base = _sparse(_combine(B.tensor.get((a, b), {}), cols0))
        if _sparse(_contract(B.tensor, cols1[a], {b: 1})) != base:
            return False
        if _sparse(_contract(B.tensor, {a: 1}, cols1[b])) != base:
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
        return B.tensor.get((a, b), {})

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
    A = [{} for _ in range(r)]
    for t, (a, b, c) in wedge.items():
        A[a][b], A[b][a] = c * Fraction(u[t]), -c * Fraction(u[t])
    return linalg.rank([_sparse(row) for row in A]) // 2


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
    [rows] = _map_rows(lie.table, [({gen: 1}, True)])
    out = []
    for w in range(1, lie.nclass):
        block = lie.weight_block(w)
        targets = lie.weight_block(w + 1)
        sub = [{c - block.start: x for c, x in row.items()}
               for t, row in rows.items() if t in targets]
        out.append(linalg.kernel(sub, len(block)))
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
