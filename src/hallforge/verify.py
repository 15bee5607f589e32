"""Property suites behind the `verify` command.

Each suite samples with a caller-provided PRNG and returns CheckResult
rows; run_all stitches the full table for one (rank, class, ring)
configuration. Sample counts default to the documented values and can be
overridden wholesale for quick runs. Everything is exact: a check either
holds on every sample or the row is marked failed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random

from . import linalg
from .canonical import (
    DESK_SCALE_LIMIT,
    associativity_identity_holds,
    derive_hall_polynomials,
    derive_structure_polys,
    to_binomial_basis,
)
from .deformation import (
    DeformedGroup,
    PolynomialCocycle,
    assemble_extension_cocycle,
    centralizer_extension_check,
    check_cocycle,
    coboundary_split_integers,
    iso_from_splittings,
    product_cocycle,
    zero_cocycle,
)
from .group import FreeNilpotentGroup
from .errors import HallforgeError, NotAHomomorphismError
from .lie import (
    EndoPair,
    bilinear_from_lie,
    centralizer_line_holds,
    compare_graded_lie,
    complete_system_check,
    endo_pair_satisfies,
    endomorphism_pair_space,
    first_difference,
    free_nilpotent_lie,
    lazard_lie_ring,
    width_probe,
)
from .oracles import witt_dimension
from .rings import QQ, ZZ, PolyRing, Ring, eval_binomial_form
from .series import TruncatedSeries, group_like_inverse, series_pow
from .words import (
    Collector,
    commutator_power_identity_holds,
    evaluate_word,
    normalize_word,
    petresco_identity_holds,
    petresco_sequence,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _all(name, iterable, detail="") -> CheckResult:
    return CheckResult(name, all(iterable), detail)


def _sample_count(samples: int | None, default: int) -> int:
    """The per-check sample count: default unless overridden; overrides below 1 are refused.

    Every suite calls this before any work, so no check can pass on zero samples.
    """
    if samples is None:
        return default
    if samples < 1:
        raise HallforgeError(f"samples must be at least 1, got {samples}")
    return samples


def _axiom_rows(grp, rng: Random, n: int, names) -> list:
    """Associativity, two-sided identity and two-sided inverse on n sampled triples.

    Draws g, h, k per sample, in that order, and runs every sample, so the
    draws do not depend on the results. names gives the three row names; a
    failing row names its first counterexample.
    """
    e = grp.identity()
    first = [None, None, None]
    for _ in range(n):
        g = grp.random_element(rng)
        h = grp.random_element(rng)
        k = grp.random_element(rng)
        gi = grp.inv(g)
        failed = (
            grp.mul(grp.mul(g, h), k) != grp.mul(g, grp.mul(h, k)),
            grp.mul(g, e) != g or grp.mul(e, g) != g,
            grp.mul(g, gi) != e or grp.mul(gi, g) != e,
        )
        for i, bad in enumerate(failed):
            if bad and first[i] is None:
                first[i] = (g, h, k) if i == 0 else (g,)
    out = []
    for name, found in zip(names, first):
        detail = ""
        if found is not None:
            shown = ", ".join(
                f"{x}=({', '.join(map(str, v.coords))})" for x, v in zip("ghk", found)
            )
            detail = f"first counterexample: {shown}"
        out.append(CheckResult(name, found is None, detail))
    return out


# -- ring suite ------------------------------------------------------------


def ring_suite(rng: Random, samples: int | None = None) -> list:
    n_spec = _sample_count(samples, 1000)
    n_pascal = _sample_count(samples, 500)
    n_vdm = _sample_count(samples, 200)
    out = []
    rings = [ZZ, QQ, PolyRing(("x",))]

    for ring in rings:
        acc = ring.zero
        ok = True
        for n in range(1, 101):
            acc = acc + ring.one
            if acc == ring.zero or acc != ring.from_int(n):
                ok = False
                break
        out.append(CheckResult(f"ring[{ring.name}]: characteristic zero", ok))

        out.append(
            CheckResult(
                f"ring[{ring.name}]: binom(5,2) = 10",
                ring.binom(ring.from_int(5), 2) == ring.from_int(10),
            )
        )
        out.append(
            _all(
                f"ring[{ring.name}]: binom(a,0) = 1",
                (
                    ring.binom(ring.random_element(rng), 0) == ring.one
                    for _ in range(20)
                ),
            )
        )
        out.append(
            _all(
                f"ring[{ring.name}]: binom(-1,k) = (-1)^k",
                (
                    ring.binom(ring.from_int(-1), k) == ring.from_int((-1) ** k)
                    for k in range(11)
                ),
            )
        )
        out.append(
            _all(
                f"ring[{ring.name}]: Pascal identity",
                (
                    ring.binom(a, k) + ring.binom(a, k + 1)
                    == ring.binom(a + ring.one, k + 1)
                    for a in (ring.random_element(rng) for _ in range(n_pascal))
                    for k in (rng.randint(0, 8),)
                ),
            )
        )
        out.append(
            _all(
                f"ring[{ring.name}]: Vandermonde identity",
                (
                    ring.binom(a + b, k)
                    == sum(
                        (ring.binom(a, j) * ring.binom(b, k - j) for j in range(k + 1)),
                        ring.zero,
                    )
                    for _ in range(n_vdm)
                    for a in (ring.random_element(rng),)
                    for b in (ring.random_element(rng),)
                    for k in (rng.randint(0, 6),)
                ),
            )
        )

    px = PolyRing(("x",))
    x = px.variable("x")
    out.append(
        CheckResult(
            "ring[Q[x]]: binom(x,2) = (x^2 - x)/2",
            px.binom(x, 2) == (x * x - x) * Fraction(1, 2),
        )
    )
    ok = True
    for _ in range(n_spec):
        a = rng.randint(-30, 30)
        k = rng.randint(0, 10)
        symbolic = px.binom(x, k).evaluate([Fraction(a)])
        if symbolic != ZZ.binom(a, k):
            ok = False
            break
    out.append(
        CheckResult("ring: polynomial binom specializes to integer binom", ok)
    )
    return out


# -- series suite -----------------------------------------------------------


def _random_series(rank, nclass, ring: Ring, rng: Random) -> TruncatedSeries:
    coeffs = {}
    for _ in range(rng.randint(1, 5)):
        word = tuple(
            rng.randint(1, rank) for _ in range(rng.randint(0, nclass))
        )
        coeffs[word] = ring.random_element(rng, -4, 4)
    return TruncatedSeries(rank, nclass, coeffs)


def _random_group_like(rank, nclass, ring, rng) -> TruncatedSeries:
    s = _random_series(rank, nclass, ring, rng)
    return (s - s.constant_term) + ring.one


def series_suite(rank, nclass, ring: Ring, rng: Random, samples: int | None = None) -> list:
    out = []
    n_assoc = _sample_count(samples, 500)
    one = TruncatedSeries.one(rank, nclass)

    out.append(
        _all(
            "series: multiplication associative",
            (
                (a * b) * c == a * (b * c)
                for _ in range(n_assoc)
                for a in (_random_series(rank, nclass, ring, rng),)
                for b in (_random_series(rank, nclass, ring, rng),)
                for c in (_random_series(rank, nclass, ring, rng),)
            ),
        )
    )
    out.append(
        _all(
            "series: unit element",
            (
                s * one == s and one * s == s
                for _ in range(50)
                for s in (_random_series(rank, nclass, ring, rng),)
            ),
        )
    )
    out.append(
        _all(
            "series: power additive in the exponent",
            (
                series_pow(s, a, ring) * series_pow(s, b, ring)
                == series_pow(s, a + b, ring)
                for _ in range(200)
                for s in (_random_group_like(rank, nclass, ring, rng),)
                for a in (ring.random_element(rng),)
                for b in (ring.random_element(rng),)
            ),
        )
    )
    out.append(
        _all(
            "series: group-like inverse",
            (
                s * group_like_inverse(s) == one and group_like_inverse(s) * s == one
                for _ in range(100)
                for s in (_random_group_like(rank, nclass, ring, rng),)
            ),
        )
    )
    out.append(
        _all(
            "series: inverse of a power is the negative power",
            (
                group_like_inverse(series_pow(s, a, ring))
                == series_pow(s, -a, ring)
                for _ in range(100)
                for s in (_random_group_like(rank, nclass, ring, rng),)
                for a in (ring.random_element(rng),)
            ),
        )
    )

    basis = FreeNilpotentGroup(rank, nclass).basis
    ok = True
    for w in range(1, nclass + 1):
        block = list(basis.weight_block(w))
        words = sorted(
            set(
                word
                for f in block
                for word in basis.lie_element(basis.entries[f]).coeffs
            )
        )
        matrix = [
            [
                Fraction(basis.lie_element(basis.entries[f]).coeff(word))
                for f in block
            ]
            for word in words
        ]
        if linalg.rank(matrix) != len(block):
            ok = False
    out.append(
        CheckResult("series: Hall Lie elements independent per weight", ok)
    )

    n_dep = _sample_count(samples, 200)
    ok = True
    detail = ""
    for t in range(n_dep):
        w1 = rng.randint(1, max(1, nclass - 1))
        w2 = rng.randint(1, max(1, nclass - w1))
        b1 = list(basis.weight_block(w1))
        b2 = list(basis.weight_block(w2))
        c1 = [rng.randint(-3, 3) for _ in b1]
        if t % 4 == 0 and w2 == w1:
            lam = rng.randint(-2, 2)
            c2 = [lam * v for v in c1]
        else:
            c2 = [rng.randint(-3, 3) for _ in b2]
        z = TruncatedSeries(rank, nclass, {})
        for c, f in zip(c1, b1):
            z = z + c * basis.lie_element(basis.entries[f])
        y = TruncatedSeries(rank, nclass, {})
        for c, f in zip(c2, b2):
            y = y + c * basis.lie_element(basis.entries[f])
        if not (z * y - y * z).coeffs:
            rows = [[Fraction(0)] * len(basis) for _ in range(2)]
            for c, f in zip(c1, b1):
                rows[0][f] = Fraction(c)
            for c, f in zip(c2, b2):
                rows[1][f] = Fraction(c)
            if linalg.rank(rows) > 1:
                ok = False
                detail = f"independent pair with zero bracket at weights ({w1},{w2})"
                break
    out.append(
        CheckResult("series: zero bracket forces dependence", ok, detail)
    )
    return out


# -- group suite ------------------------------------------------------------


def group_suite(rank, nclass, ring: Ring, rng: Random, samples: int | None = None) -> list:
    n_triples = _sample_count(samples, 1000)
    n_pow = _sample_count(samples, 500)
    out = []
    grp = FreeNilpotentGroup(rank, nclass, ring)
    e = grp.identity()
    names = ("group: associativity", "group: two-sided identity", "group: two-sided inverse")
    out.extend(_axiom_rows(grp, rng, n_triples, names))

    out.append(
        _all(
            "group: weight-1 coordinates add",
            (
                grp.weight_block_coords(grp.mul(g, h), 1)
                == tuple(
                    a + b
                    for a, b in zip(
                        grp.weight_block_coords(g, 1), grp.weight_block_coords(h, 1)
                    )
                )
                for _ in range(100)
                for g in (grp.random_element(rng),)
                for h in (grp.random_element(rng),)
            ),
        )
    )

    ok_mul = ok_com = True
    for _ in range(min(200, n_triples)):
        g = grp.random_element(rng, -3, 3)
        h = grp.random_element(rng, -3, 3)
        if grp.gamma_weight(grp.mul(g, h)) < min(grp.gamma_weight(g), grp.gamma_weight(h)):
            ok_mul = False
        bound = min(nclass + 1, grp.gamma_weight(g) + grp.gamma_weight(h))
        if grp.gamma_weight(grp.commutator(g, h)) < bound:
            ok_com = False
    out.append(CheckResult("group: product respects the filtration", ok_mul))
    out.append(CheckResult("group: commutator adds filtration weights", ok_com))

    ok_hom = True
    for _ in range(n_pow):
        g = grp.random_element(rng)
        a = ring.random_element(rng)
        b = ring.random_element(rng)
        if grp.mul(grp.pow(g, a), grp.pow(g, b)) != grp.pow(g, a + b):
            ok_hom = False
            break
        if grp.pow(g, 1) != g or grp.pow(g, 0) != e:
            ok_hom = False
            break
    out.append(CheckResult("group: powers additive in the exponent", ok_hom))
    return out


# -- words suite ------------------------------------------------------------


def _random_word(grp, rng, max_len=6):
    letters = []
    for _ in range(rng.randint(0, max_len)):
        pair = grp.basis.pairs[rng.randrange(grp.dimension)]
        letters.append((pair, grp.ring.random_element(rng, -4, 4)))
    return letters


def words_suite(rank, nclass, ring: Ring, rng: Random, samples: int | None = None) -> list:
    n_words = _sample_count(samples, 500)
    out = []
    grp = FreeNilpotentGroup(rank, nclass, ring)
    collector = Collector(grp, derive_structure_polys(rank, nclass))

    out.append(
        CheckResult("words: empty word collects to identity", collector.collect([]) == grp.identity())
    )

    ok = True
    for _ in range(50):
        flats = sorted(rng.sample(range(grp.dimension), rng.randint(1, grp.dimension)))
        letters = [(grp.basis.pairs[f], ring.random_element(rng, -4, 4)) for f in flats]
        letters = normalize_word(grp, letters)
        got = collector.collect(letters)
        coords = [ring.zero] * grp.dimension
        for pair, ex in letters:
            coords[grp.basis.flat(pair)] = ex
        if got != grp.element(coords):
            ok = False
            break
    out.append(CheckResult("words: sorted words collect verbatim", ok))

    ok = True
    detail = ""
    for _ in range(n_words):
        word = _random_word(grp, rng)
        if collector.collect(word) != evaluate_word(grp, word):
            ok = False
            detail = f"word {word} disagrees"
            break
    out.append(CheckResult("words: collection matches series evaluation", ok, detail))

    m = 2 if rank == 2 else 3
    ok_gamma = ok_ident = True
    for _ in range(5):
        xs = [grp.random_element(rng, -4, 4) for _ in range(m)]
        taus = petresco_sequence(grp, xs, nclass)
        if any(grp.gamma_weight(t) < k for k, t in enumerate(taus, start=1)):
            ok_gamma = False
        if not all(petresco_identity_holds(grp, xs, n) for n in range(1, 7)):
            ok_ident = False
    out.append(CheckResult("words: power-product correction terms descend the filtration", ok_gamma))
    out.append(CheckResult("words: power-product identity for n = 1..6", ok_ident))

    ok = True
    for _ in range(10):
        h = grp.random_element(rng, -3, 3)
        g = grp.random_element(rng, -3, 3)
        w = grp.mul(grp.mul(grp.inv(h), grp.inv(g)), h)
        taus = petresco_sequence(grp, (w, g), nclass)
        if not all(
            commutator_power_identity_holds(grp, h, g, a, taus=taus)
            for a in range(-5, 6)
        ):
            ok = False
            break
    out.append(CheckResult("words: commutator-of-power identity for a = -5..5", ok))
    return out


# -- canonical polynomial suite ----------------------------------------------


def poly_suite(rank, nclass, rng: Random, samples: int | None = None) -> list:
    n_points = _sample_count(samples, 200)
    out = []
    cp = derive_hall_polynomials(rank, nclass)
    grp = FreeNilpotentGroup(rank, nclass, ZZ)
    n = grp.dimension

    mul_ring = PolyRing(cp.mul_vars)
    ok = all(
        cp.p[j] == mul_ring.variable(cp.mul_vars[j]) + mul_ring.variable(cp.mul_vars[n + j])
        for j in range(rank)
    )
    out.append(CheckResult("poly: weight-1 product coordinates are sums", ok))

    pow_ring = PolyRing(cp.pow_vars)
    y = pow_ring.variable("y")
    ok = all(
        cp.q[j] == y * pow_ring.variable(cp.pow_vars[j]) for j in range(rank)
    )
    out.append(CheckResult("poly: weight-1 power coordinates scale by the exponent", ok))

    out.append(
        CheckResult(
            "poly: degree of each product coordinate bounded by its weight",
            all(
                poly.total_degree() <= grp.basis.entries[f].weight
                for f, poly in enumerate(cp.p)
            ),
        )
    )

    ok_mul = ok_pow = True
    for _ in range(n_points):
        a = [rng.randint(-6, 6) for _ in range(n)]
        b = [rng.randint(-6, 6) for _ in range(n)]
        if cp.mul_coords(a, b, ZZ) != grp.mul_coords(a, b):
            ok_mul = False
            break
        ex = rng.randint(-6, 6)
        if cp.pow_coords(a, ex, ZZ) != grp.pow_coords(a, ex):
            ok_pow = False
            break
    out.append(CheckResult("poly: product polynomials match the engine", ok_mul))
    out.append(CheckResult("poly: power polynomials match the engine", ok_pow))

    ok = True
    for poly in list(cp.p)[: min(6, n)]:
        table = to_binomial_basis(poly)
        for _ in range(10):
            point = [Fraction(rng.randint(-5, 5)) for _ in poly.vars]
            if eval_binomial_form(table, point, QQ) != QQ.coerce(poly.evaluate(point)):
                ok = False
    out.append(CheckResult("poly: binomial form evaluates like the monomial form", ok))

    st = derive_structure_polys(rank, nclass)
    ok_zero = ok_match = True
    pairs = list(st.tables)
    rng.shuffle(pairs)
    for key in pairs[:6]:
        high, low = key
        if st.tail_letters(high, low, 0, rng.randint(-5, 5), ZZ):
            ok_zero = False
        for _ in range(25):
            a = rng.randint(-4, 4)
            b = rng.randint(-4, 4)
            com = grp.commutator(
                grp.pow(grp.basic(high), a), grp.pow(grp.basic(low), b)
            )
            coords = [ZZ.zero] * n
            for pair, e in st.tail_letters(high, low, a, b, ZZ):
                coords[grp.basis.flat(pair)] = e
            if grp.element(coords) != com:
                ok_match = False
    out.append(CheckResult("poly: tails vanish at exponent zero", ok_zero))
    out.append(CheckResult("poly: tail tables match engine commutators", ok_match))

    if (rank, nclass) in ((2, 2), (2, 3)):
        out.append(
            CheckResult(
                "poly: product polynomials associative as polynomials",
                associativity_identity_holds(cp),
            )
        )
    return out


# -- deformation suite --------------------------------------------------------


def deformation_suite(rank, nclass, rng: Random, samples: int | None = None) -> list:
    n_triples = _sample_count(samples, 1000)
    out = []
    base = FreeNilpotentGroup(rank, nclass, ZZ)
    n_c = base.basis.counts[-1]

    f_ab = product_cocycle(n_c, 0)
    mix_tables = [{} for _ in range(n_c)]
    mix_tables[n_c - 1] = {(1, 1): 3, (1, 2): 1, (2, 1): 1}
    f_mix = PolynomialCocycle.from_tables(mix_tables)
    family = [f_ab, f_mix] + [zero_cocycle(n_c)] * (rank - 2)
    family = family[:rank]

    out.append(
        CheckResult(
            "deform: shipped cocycles pass the symbolic axioms",
            all(check_cocycle(f).ok for f in family),
        )
    )
    bad = PolynomialCocycle.from_tables(
        [{(2, 1): 2, (1, 1): 1}] + [{}] * (n_c - 1)
    )
    out.append(
        CheckResult(
            "deform: an asymmetric map is rejected",
            not check_cocycle(bad).ok,
        )
    )

    dgrp = DeformedGroup(base, family, check=False)
    names = ("deform: associativity", "deform: identity", "deform: inverse")
    out.extend(_axiom_rows(dgrp, rng, n_triples, names))

    top = base.basis.weight_start(nclass)
    out.append(
        _all(
            "deform: coordinates below the top weight are undeformed",
            (
                dgrp.mul(g, h).coords[:top]
                == base.mul_coords(g.coords, h.coords)[:top]
                for _ in range(200)
                for g in (dgrp.random_element(rng),)
                for h in (dgrp.random_element(rng),)
            ),
        )
    )

    zgrp = DeformedGroup(base, [zero_cocycle(n_c)] * rank, check=False)
    out.append(
        _all(
            "deform: zero cocycles reproduce the base group exactly",
            (
                zgrp.mul(g, h).coords == base.mul_coords(g.coords, h.coords)
                and zgrp.inv(g).coords == base.inv_coords(g.coords)
                for _ in range(100)
                for g in (zgrp.random_element(rng),)
                for h in (zgrp.random_element(rng),)
            ),
        )
    )

    psi = coboundary_split_integers(f_ab)
    out.append(
        _all(
            "deform: the product cocycle splits as binom(a,2)",
            (
                psi(a) == tuple(ZZ.binom(a, 2) if j == 0 else 0 for j in range(n_c))
                for a in range(-15, 16)
            ),
        )
    )

    splittings = [coboundary_split_integers(f) for f in family]
    iso = iso_from_splittings(dgrp, splittings)
    try:
        iso.verify(rng, samples=min(200, n_triples))
        out.append(CheckResult("deform: splitting isomorphism verified", True))
    except NotAHomomorphismError as exc:
        out.append(CheckResult("deform: splitting isomorphism verified", False, str(exc)))

    ext = assemble_extension_cocycle(dgrp)
    n_coc = _sample_count(samples, 500)
    out.append(
        _all(
            "deform: extension cocycle identity",
            (
                ext.cocycle_identity_holds(
                    dgrp.random_element(rng).coords,
                    dgrp.random_element(rng).coords,
                    dgrp.random_element(rng).coords,
                )
                for _ in range(n_coc)
            ),
        )
    )
    out.append(
        _all(
            "deform: extension cocycle normalized",
            (
                ext.is_normalized_at(dgrp.random_element(rng).coords)
                for _ in range(50)
            ),
        )
    )
    out.append(
        CheckResult(
            "deform: extension build matches the deformed product",
            ext.matches_deformed_mul(rng, samples=100),
        )
    )

    ok = all(
        centralizer_extension_check(dgrp, j, rng, samples=40)["ok"]
        for j in range(1, rank + 1)
    )
    out.append(CheckResult("deform: generator centralizers are abelian extensions", ok))
    return out


# -- Lie suite ----------------------------------------------------------------


def lie_suite(rank, nclass) -> list:
    out = []
    A = lazard_lie_ring(rank, nclass)
    B = free_nilpotent_lie(rank, nclass)

    out.append(
        CheckResult(
            "lie: weight dimensions match the necklace counts",
            all(
                B.dims[w - 1] == witt_dimension(rank, w)
                for w in range(1, nclass + 1)
            ),
        )
    )
    out.append(CheckResult("lie: group-side bracket antisymmetric", A.check_antisymmetry()))
    out.append(CheckResult("lie: group-side bracket satisfies Jacobi", A.check_jacobi()))
    out.append(CheckResult("lie: algebra-side bracket antisymmetric", B.check_antisymmetry()))
    out.append(CheckResult("lie: algebra-side bracket satisfies Jacobi", B.check_jacobi()))
    equal = compare_graded_lie(A, B)
    detail = ""
    if A.dims != B.dims:
        detail = f"weight dimensions {A.dims} and {B.dims} differ"
    elif not equal:
        (a, b), t, va, vb = first_difference(A, B)
        detail = f"first difference: [e_{a}, e_{b}] at e_{t}: group side {va}, algebra side {vb}"
    out.append(CheckResult("lie: group and algebra structure constants agree", equal, detail))
    out.append(CheckResult("lie: center is the top-weight block", B.center_is_top_block()))

    bil = bilinear_from_lie(B)
    out.append(CheckResult("lie: induced bilinear map is full", bil.is_full()))
    out.append(
        CheckResult("lie: induced bilinear map is non-degenerate", bil.is_nondegenerate())
    )

    pairs = endomorphism_pair_space(bil)
    m, n = bil.domain_dim, bil.codomain_dim
    ident = EndoPair(
        tuple(tuple(Fraction(int(i == j)) for j in range(m)) for i in range(m)),
        tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)),
    )
    out.append(CheckResult("lie: compatible pairs form a line", len(pairs) == 1))
    out.append(
        CheckResult(
            "lie: compatible pairs are scalar pairs",
            all(p.scalar_value() is not None for p in pairs),
        )
    )
    out.append(
        CheckResult(
            "lie: the identity pair is compatible",
            endo_pair_satisfies(bil, ident),
        )
    )

    basis_vectors = [
        [Fraction(int(i == a)) for i in range(bil.domain_dim)]
        for a in range(bil.domain_dim)
    ]
    out.append(
        CheckResult(
            "lie: the full basis is a complete test system",
            complete_system_check(bil, basis_vectors),
        )
    )

    probe_ok = True
    found = False
    for (a, b), targets in sorted(bil.tensor.items()):
        if targets:
            u = [targets.get(t, Fraction(0)) for t in range(bil.codomain_dim)]
            probe_ok = width_probe(bil, u, 1)
            found = True
            break
    out.append(
        CheckResult("lie: bracket values probe at width one", probe_ok and found)
    )

    out.append(
        CheckResult(
            "lie: generator centralizer kernels are single lines",
            all(centralizer_line_holds(B, j) for j in range(1, rank + 1)),
        )
    )
    return out


# -- group-side centralizer suite ----------------------------------------------


def centralizer_structure_check(
    grp: FreeNilpotentGroup, j: int, rng: Random | None = None, samples=40
) -> dict:
    """Sampled checks that the centralizer of u_1j is {u_1j^a * central}.

    Verifies: built centralizer elements commute; every sampled element
    either fails to commute or decomposes exactly as u_1j^a * z with z in
    the weight-class block; and the center is exactly that block.
    """
    rng = rng or Random(0)
    u = grp.generator(j)
    one = grp.identity()
    n_c = grp.basis.counts[-1]
    start_c = grp.basis.weight_start(grp.nclass)
    report = {
        "built_elements_commute": True,
        "decomposition_exact": True,
        "rejects_noncommuting": 0,
        "center_is_weight_c_block": True,
    }

    for _ in range(samples):
        a = grp.ring.random_element(rng)
        z = [grp.ring.zero] * grp.dimension
        for s in range(n_c):
            z[start_c + s] = grp.ring.random_element(rng)
        x = grp.mul(grp.pow(u, a), grp.element(z))
        if grp.commutator(x, u) != one:
            report["built_elements_commute"] = False

    for _ in range(samples):
        x = grp.random_element(rng)
        if grp.commutator(x, u) != one:
            report["rejects_noncommuting"] += 1
            continue
        a = x.coords[grp.basis.flat((1, j))]
        z = grp.mul(grp.pow(u, -a), x)
        if not grp.is_central(z) or grp.mul(grp.pow(u, a), z) != x:
            report["decomposition_exact"] = False

    gens = grp.generators()
    for _ in range(samples):
        z = [grp.ring.zero] * grp.dimension
        for s in range(n_c):
            z[start_c + s] = grp.ring.random_element(rng)
        zc = grp.element(z)
        if any(grp.commutator(zc, g) != one for g in gens):
            report["center_is_weight_c_block"] = False
        x = grp.random_element(rng)
        if not grp.is_central(x):
            if all(grp.commutator(x, g) == one for g in gens):
                report["center_is_weight_c_block"] = False

    report["ok"] = (
        report["built_elements_commute"]
        and report["decomposition_exact"]
        and report["center_is_weight_c_block"]
    )
    return report


def centralizer_suite(rank, nclass, ring: Ring, rng: Random, samples: int | None = None) -> list:
    n = _sample_count(samples, 40)
    grp = FreeNilpotentGroup(rank, nclass, ring)
    out = []
    for j in range(1, rank + 1):
        report = centralizer_structure_check(grp, j, rng, samples=min(n, 40))
        out.append(
            CheckResult(
                f"centralizer: generator {j} decomposes as its powers times the center",
                report["ok"],
            )
        )
    return out


# -- aggregation ----------------------------------------------------------------


def run_all(rank, nclass, ring: Ring = ZZ, seed: int = 0, samples: int | None = None) -> list:
    """Full verification table for one configuration."""
    _sample_count(samples, 1)  # refuse a bad override before any suite runs
    rng = Random(seed)
    out = []
    out.extend(ring_suite(rng, samples))
    out.extend(series_suite(rank, nclass, ring, rng, samples))
    out.extend(group_suite(rank, nclass, ring, rng, samples))
    if rank + nclass <= DESK_SCALE_LIMIT:
        out.extend(words_suite(rank, nclass, ring, rng, samples))
        out.extend(poly_suite(rank, nclass, rng, samples))
    if ring is ZZ:
        out.extend(deformation_suite(rank, nclass, rng, samples))
    out.extend(lie_suite(rank, nclass))
    out.extend(centralizer_suite(rank, nclass, ring, rng, samples))
    return out
