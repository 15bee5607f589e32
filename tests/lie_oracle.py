"""Reference loops for the Lie layer, kept only for the tests.

These are the dense loops that hallforge.lie used before it was rebuilt on
one sparse contraction: the bracket and the bilinear value as triple loops
over dense vectors, Jacobi through two sparse bracket helpers, and every
kernel system built row by row, one dense row per (vector, target), with
all-zero rows dropped. The library must return exactly what they return.
The Lazard table is built the way lazard_lie_ring built it before it kept
one series per basis entry: one group commutator of two basic elements per
ordered pair, through the public group API.
The weight-2 width oracle reads the alternating matrix of a target from the
Hall basis alone, never from a bracket table. The antisymmetry loop over
all pairs and the support test of the center are the checks GradedLieRing
made before it read the grading from its constructor. The hypothesis
strategies at the end draw small integer tables (graded ones for rings)
and vectors, and the configurations the differential tests run on.
"""

from fractions import Fraction
from itertools import accumulate

from hypothesis import strategies as st

from hallforge import linalg
from hallforge.basis import hall_basis
from hallforge.group import FreeNilpotentGroup
from hallforge.lie import BilinearMapData, EndoPair, GradedLieRing

# (rank, class) of the real rings the differential tests also run on
CONFIGS = ((2, 3), (3, 2), (2, 4))


# -- graded Lie ring ------------------------------------------------------------


def oracle_bracket(lie, va, vb):
    out = [Fraction(0)] * lie.total_dim
    for a, ca in enumerate(va):
        if not ca:
            continue
        for b, cb in enumerate(vb):
            if not cb:
                continue
            for t, c in lie.table.get((a, b), {}).items():
                out[t] += Fraction(ca) * Fraction(cb) * Fraction(c)
    return out


def _bracket_dict_basis(lie, a, b):
    return {t: Fraction(c) for t, c in lie.table.get((a, b), {}).items()}


def _bracket_dict_vec(lie, vec, c):
    """Bracket of a sparse vector with basis element c, as [[vec, e_c]]."""
    out = {}
    for a, ca in vec.items():
        for t, v in lie.table.get((a, c), {}).items():
            out[t] = out.get(t, Fraction(0)) + ca * Fraction(v)
    return {t: v for t, v in out.items() if v}


def oracle_check_antisymmetry(lie):
    """[a, b] + [b, a] = 0 on all n^2 / 2 unordered pairs, the diagonal included."""
    n = lie.total_dim
    for a in range(n):
        for b in range(a, n):
            ab = _bracket_dict_basis(lie, a, b)
            ba = _bracket_dict_basis(lie, b, a)
            if any(ab.get(t, 0) + ba.get(t, 0) for t in set(ab) | set(ba)):
                return False
    return True


def oracle_check_jacobi(lie):
    n = lie.total_dim
    for a in range(n):
        for b in range(n):
            ab = _bracket_dict_basis(lie, a, b)
            for c in range(n):
                total = _bracket_dict_vec(lie, ab, c)
                for t, v in _bracket_dict_vec(lie, _bracket_dict_basis(lie, b, c), a).items():
                    total[t] = total.get(t, Fraction(0)) + v
                for t, v in _bracket_dict_vec(lie, _bracket_dict_basis(lie, c, a), b).items():
                    total[t] = total.get(t, Fraction(0)) + v
                if any(total.values()):
                    return False
    return True


def oracle_center_basis(lie):
    n = lie.total_dim
    rows = []
    for b in range(n):
        for t in range(n):
            row = [Fraction(lie.table.get((a, b), {}).get(t, 0)) for a in range(n)]
            if any(row):
                rows.append(row)
    if not rows:
        basis = []
        for a in range(n):
            v = [Fraction(0)] * n
            v[a] = Fraction(1)
            basis.append(v)
        return basis
    return linalg.nullspace(rows)


def oracle_center_is_top_block(lie):
    """The center has the top block's dimension and no support below it."""
    kernel = oracle_center_basis(lie)
    top = lie.weight_block(lie.nclass)
    if len(kernel) != lie.dims[-1]:
        return False
    return all(not v[i] for v in kernel for i in range(lie.total_dim) if i not in top)


def oracle_centralizer_weight_kernels(lie, j):
    gen = lie.weight_start(1) + (j - 1)
    out = []
    for w in range(1, lie.nclass):
        block = list(lie.weight_block(w))
        targets = list(lie.weight_block(w + 1))
        rows = []
        for t in targets:
            row = [Fraction(lie.table.get((a, gen), {}).get(t, 0)) for a in block]
            if any(row):
                rows.append(row)
        if not rows:
            rows = [[Fraction(0)] * len(block)]
        out.append(linalg.nullspace(rows))
    return out


def oracle_lazard_table(rank, nclass):
    """The Lazard structure constants, one grp.commutator(basic, basic) per ordered pair.

    Same pairs (a != b, weights summing to at most the class), same weight
    refusal and same int values as hallforge.lie.lazard_lie_ring.
    """
    grp = FreeNilpotentGroup(rank, nclass)
    table = {}
    for a, ea in enumerate(grp.basis.entries):
        for b, eb in enumerate(grp.basis.entries):
            w = ea.weight + eb.weight
            if a == b or w > nclass:
                continue
            com = grp.commutator(grp.basic(ea.pair), grp.basic(eb.pair))
            if grp.gamma_weight(com) < w:
                raise RuntimeError(f"commutator of {ea.pair} and {eb.pair} is below weight {w}")
            targets = {t: int(com.coords[t]) for t in grp.basis.weight_block(w) if com.coords[t]}
            if targets:
                table[(a, b)] = targets
    return table


def sign_flipped(lie, signs):
    """The same ring in the basis signs[i] * e_i."""
    return GradedLieRing(
        lie.dims,
        {
            (a, b): {t: c * signs[a] * signs[b] * signs[t] for t, c in row.items()}
            for (a, b), row in lie.table.items()
        },
    )


# -- bilinear map -----------------------------------------------------------------


def oracle_value(B, x, y):
    out = [Fraction(0)] * B.codomain_dim
    for a, ca in enumerate(x):
        if not ca:
            continue
        for b, cb in enumerate(y):
            if not cb:
                continue
            for t, c in B.tensor.get((a, b), {}).items():
                out[t] += Fraction(ca) * Fraction(cb) * c
    return out


def oracle_left_kernel(B):
    rows = []
    for b in range(B.domain_dim):
        for t in range(B.codomain_dim):
            row = [B.tensor.get((a, b), {}).get(t, Fraction(0)) for a in range(B.domain_dim)]
            if any(row):
                rows.append(row)
    if not rows:
        return linalg.nullspace([[Fraction(0)] * B.domain_dim])
    return linalg.nullspace(rows)


def oracle_right_kernel(B):
    rows = []
    for a in range(B.domain_dim):
        for t in range(B.codomain_dim):
            row = [B.tensor.get((a, b), {}).get(t, Fraction(0)) for b in range(B.domain_dim)]
            if any(row):
                rows.append(row)
    if not rows:
        return linalg.nullspace([[Fraction(0)] * B.domain_dim])
    return linalg.nullspace(rows)


def oracle_complete_system_check(B, vectors):
    m = B.domain_dim
    rows = []
    for e in vectors:
        for t in range(B.codomain_dim):
            row = [
                sum(
                    (Fraction(e[b]) * B.tensor.get((a, b), {}).get(t, Fraction(0))
                     for b in range(m)),
                    Fraction(0),
                )
                for a in range(m)
            ]
            if any(row):
                rows.append(row)
            row = [
                sum(
                    (Fraction(e[a]) * B.tensor.get((a, b), {}).get(t, Fraction(0))
                     for a in range(m)),
                    Fraction(0),
                )
                for b in range(m)
            ]
            if any(row):
                rows.append(row)
    if not rows:
        rows = [[Fraction(0)] * m]
    return not linalg.nullspace(rows)


def oracle_weight_two_width(rank, nclass, u):
    """Half the rank of the alternating matrix of a weight-2 target u.

    Codomain coordinate k is the k-th weight-2 Hall entry, whose parts are
    generators i and j, and whose Lie element is x_i x_j - x_j x_i; so u is
    sum_k u_k x_i ^ x_j, and A[i][j] = u_k = -A[j][i].
    """
    basis = hall_basis(rank, nclass)
    A = [[Fraction(0)] * rank for _ in range(rank)]
    for k, flat in enumerate(basis.weight_block(2)):
        i, j = (part.generator - 1 for part in basis.entries[flat].parts)
        A[i][j] += u[k]
        A[j][i] -= u[k]
    return len(linalg.rref(A)[1]) // 2


def endomorphism_system(B):
    """The dense rows of f(phi1 x, y) = phi0 f(x, y) = f(x, phi1 y) on all basis pairs.

    Columns: phi1 row-major, then phi0 row-major. All-zero rows are dropped;
    with none left, one zero row stands for the empty system.
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
    return rows or [[Fraction(0)] * nun]


def oracle_endomorphism_pair_space(B):
    """Nullspace basis of the dense system, split into (phi1, phi0) pairs."""
    m, n = B.domain_dim, B.codomain_dim
    out = []
    for vec in linalg.nullspace(endomorphism_system(B)):
        phi1 = tuple(tuple(vec[i * m + j] for j in range(m)) for i in range(m))
        phi0 = tuple(tuple(vec[m * m + i * n + j] for j in range(n)) for i in range(n))
        out.append(EndoPair(phi1, phi0))
    return out


def oracle_endo_pair_satisfies(B, pair):
    """Both matrices applied densely to unit vectors, f through oracle_value."""
    m = B.domain_dim

    def apply(mat, vec):
        return [
            sum((Fraction(mat[i][j]) * vec[j] for j in range(len(vec))), Fraction(0))
            for i in range(len(mat))
        ]

    for a in range(m):
        ea = [Fraction(int(i == a)) for i in range(m)]
        pa = apply(pair.phi1, ea)
        for b in range(m):
            eb = [Fraction(int(i == b)) for i in range(m)]
            base = apply(pair.phi0, oracle_value(B, ea, eb))
            if oracle_value(B, pa, eb) != base:
                return False
            if oracle_value(B, ea, apply(pair.phi1, eb)) != base:
                return False
    return True


# -- strategies --------------------------------------------------------------------

small_ints = st.integers(-3, 3)


def vectors(n):
    return st.lists(small_ints, min_size=n, max_size=n)


def sparse_tables(n_pairs, n_targets):
    """Sparse (a, b) -> {t: c} tables over integers, zero entries and empty tables included."""
    if n_pairs == 0 or n_targets == 0:
        return st.just({})
    pairs = st.tuples(st.integers(0, n_pairs - 1), st.integers(0, n_pairs - 1))
    targets = st.dictionaries(st.integers(0, n_targets - 1), small_ints, max_size=3)
    return st.dictionaries(pairs, targets, max_size=2 * n_pairs)


def matrices(n):
    """n x n matrices of Fractions, mostly zero."""
    entry = st.sampled_from((0, 0, 0, 1, -1, 2)).map(Fraction)
    return st.lists(st.tuples(*[entry] * n), min_size=n, max_size=n).map(tuple)


@st.composite
def lie_rings(draw):
    """A GradedLieRing with random weight dimensions and a random graded integer table.

    At least half of the pairs (a, b) of weight sum within the class get
    targets in the block of weight w_a + w_b, zero coefficients included;
    half the draws are alternating by construction, with no diagonal entry.
    """
    dims = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    starts = list(accumulate(dims, initial=0))
    weight = [w for w, d in enumerate(dims, start=1) for _ in range(d)]
    alternating = draw(st.booleans())
    n = len(weight)
    pairs = [
        (a, b) for a in range(n) for b in range(n)
        if weight[a] + weight[b] <= len(dims) and dims[weight[a] + weight[b] - 1]
        and (a < b or not alternating)
    ]
    chosen = []
    if pairs:
        chosen = draw(st.lists(st.sampled_from(pairs), min_size=len(pairs) // 2, unique=True))
    table = {}
    for a, b in chosen:
        w = weight[a] + weight[b]
        targets = st.integers(starts[w - 1], starts[w] - 1)
        row = draw(st.dictionaries(targets, small_ints, max_size=3))
        table[(a, b)] = row
        if alternating:
            table[(b, a)] = {t: -c for t, c in row.items()}
    return GradedLieRing(dims, table)


@st.composite
def bilinear_maps(draw, max_domain=3):
    """BilinearMapData with a random integer tensor, degenerate maps included.

    Built around the constructor, which accepts only the bilinear data of a
    ring whose center is its top block.
    """
    m = draw(st.integers(0, max_domain))
    n = draw(st.integers(1, 3))
    B = BilinearMapData.__new__(BilinearMapData)
    B.domain_dim, B.codomain_dim = m, n
    B.tensor = {
        pair: {t: Fraction(c) for t, c in targets.items()}
        for pair, targets in draw(sparse_tables(m, n)).items()
        if targets
    }
    return B


@st.composite
def half_integral_bilinear_maps(draw, max_domain=3):
    """A bilinear_maps draw with each tensor entry halved or kept, at random.

    The entries lie in (1/2)Z, so both the ints and the Fractions of the
    int view in the compatible-pair solve come up, and M^-1 is not integral.
    """
    B = draw(bilinear_maps(max_domain))
    halve = st.booleans()
    B.tensor = {pair: {t: c / 2 if draw(halve) else c for t, c in targets.items()}
                for pair, targets in B.tensor.items()}
    return B
