"""Property suites behind the `verify` command.

Each suite samples with a caller-provided PRNG and returns CheckResult
rows; run_all stitches the full table for one (rank, class, ring)
configuration. Every sample count is `_sample_count(samples, default)`: the
documented default, capped at samples, so an override only shrinks a check.
Everything is exact: a check holds on every sample or the row fails.

Every sampled row goes through one sampler, `_sampled_rows`, under three
rules. The draws come first: a draw() callable makes every rng call for
one sample, the laws only evaluate, so what a suite draws never depends on
the results. Every law runs on every sample, so a failing row draws as
much as a passing one and leaves the later rows' samples unchanged. A
failing row names its first counterexample, the drawn inputs of the first
sample on which it failed.

The library modules hold the laws, each evaluated on one sample's inputs;
the loops over samples are all here. iso_rows and extension_rows, the
sampled rows of a deformation's splitting isomorphism and extension
build, serve both this table and `deform iso`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, count
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
    ExtensionCocycle,
    PolynomialCocycle,
    SplittingIsomorphism,
    check_cocycle,
    coboundary_split,
    product_cocycle,
    zero_cocycle,
)
from .group import FreeNilpotentGroup
from .errors import HallforgeError, OutOfClassError
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
    weight_two_width,
)
from .oracles import witt_dimension
from .rings import QQ, ZZ, BinomialTable, PolyRing, Ring
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


def _sample_count(samples: int | None, default: int) -> int:
    """The count for one sampled check: default, capped at samples; samples below 1 are refused.

    Every sampled count goes through this, so no check can pass on zero samples.
    """
    if samples is None:
        return default
    if samples < 1:
        raise HallforgeError(f"samples must be at least 1, got {samples}")
    return min(samples, default)


def _show(value) -> str:
    """Element coordinates as a tuple; lists and tuples element by element."""
    value = getattr(value, "coords", value)
    if isinstance(value, (list, tuple)):
        inner = ", ".join(map(_show, value))
        return f"[{inner}]" if isinstance(value, list) else f"({inner})"
    return str(value)


def _elements(source, rng: Random, names: str, *bounds) -> dict:
    """One source.random_element per letter of names, drawn in that order.

    source is a group or a ring; bounds, if given, are its (lo, hi) entry bounds.
    """
    return {x: source.random_element(rng, *bounds) for x in names}


def _sampled_rows(n: int, draw, laws: dict) -> list:
    """One CheckResult per entry of laws (row name -> law), each law run on all n samples.

    draw() makes every rng call for one sample and returns it as a dict of
    named inputs; a law takes those inputs as keyword arguments and only
    evaluates. Samples are drawn in order and never skipped, so the draws
    do not depend on the results, and every law runs on one sample, with
    the same input objects, before the next is drawn. A failing row's
    detail shows the inputs of its first counterexample.
    """
    if n < 1:
        raise HallforgeError(f"samples must be at least 1, got {n}")
    first = dict.fromkeys(laws)
    for _ in range(n):
        sample = draw()
        for name, law in laws.items():
            if not law(**sample) and first[name] is None:
                first[name] = sample
    out = []
    for name, found in first.items():
        detail = ""
        if found is not None:
            shown = ", ".join(f"{key}={_show(v)}" for key, v in found.items())
            detail = f"first counterexample: {shown}"
        out.append(CheckResult(name, found is None, detail))
    return out


def _axiom_rows(grp, rng: Random, n: int, names) -> list:
    """Associativity, two-sided identity and two-sided inverse on n sampled triples g, h, k."""
    e = grp.identity()
    mul = grp.mul

    def inverse(g, **_):
        gi = grp.inv(g)
        return mul(g, gi) == e and mul(gi, g) == e

    laws = (
        lambda g, h, k: mul(mul(g, h), k) == mul(g, mul(h, k)),
        lambda g, **_: mul(g, e) == g and mul(e, g) == g,
        inverse,
    )
    return _sampled_rows(n, lambda: _elements(grp, rng, "ghk"), dict(zip(names, laws)))


# -- ring suite ------------------------------------------------------------


def ring_suite(rng: Random, samples: int | None = None) -> list:
    out = []
    rings = [ZZ, QQ, PolyRing(("x",))]

    for ring in rings:
        name, binom, one = f"ring[{ring.name}]", ring.binom, ring.one
        sums = enumerate(accumulate([one] * 100), start=1)
        out.append(
            CheckResult(
                f"{name}: characteristic zero",
                all(acc != ring.zero and acc == ring.from_int(n) for n, acc in sums),
            )
        )
        out.append(
            CheckResult(f"{name}: binom(5,2) = 10", binom(ring.from_int(5), 2) == ring.from_int(10))
        )
        out += _sampled_rows(
            _sample_count(samples, 20),
            lambda: _elements(ring, rng, "a"),
            {f"{name}: binom(a,0) = 1": lambda a: binom(a, 0) == one},
        )
        out.append(
            CheckResult(
                f"{name}: binom(-1,k) = (-1)^k",
                all(binom(-one, k) == ring.from_int((-1) ** k) for k in range(11)),
            )
        )
        out += _sampled_rows(
            _sample_count(samples, 500),
            lambda: {**_elements(ring, rng, "a"), "k": rng.randint(0, 8)},
            {
                f"{name}: Pascal identity": (
                    lambda a, k: binom(a, k) + binom(a, k + 1) == binom(a + one, k + 1)
                )
            },
        )
        out += _sampled_rows(
            _sample_count(samples, 200),
            lambda: {**_elements(ring, rng, "ab"), "k": rng.randint(0, 6)},
            {
                f"{name}: Vandermonde identity": lambda a, b, k: binom(a + b, k) == sum(
                    (binom(a, j) * binom(b, k - j) for j in range(k + 1)), ring.zero
                )
            },
        )

    px = PolyRing(("x",))
    x = px.variable("x")
    out.append(
        CheckResult(
            "ring[Q[x]]: binom(x,2) = (x^2 - x)/2",
            px.binom(x, 2) == (x * x - x) * Fraction(1, 2),
        )
    )
    out += _sampled_rows(
        _sample_count(samples, 1000),
        lambda: {"a": rng.randint(-30, 30), "k": rng.randint(0, 10)},
        {
            "ring: polynomial binom specializes to integer binom": (
                lambda a, k: px.binom(x, k).evaluate([Fraction(a)]) == ZZ.binom(a, k)
            )
        },
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


def _refuse_class_one(nclass) -> None:
    """Raise OutOfClassError below class 2: at class 1 every bracket truncates to
    zero and the group is abelian, so no suite has anything to check there. Every
    suite but ring_suite calls it first, and so does run_all."""
    if nclass < 2:
        raise OutOfClassError(f"verify serves class >= 2, got {nclass}")


def series_suite(rank, nclass, ring: Ring, rng: Random, samples: int | None = None) -> list:
    _refuse_class_one(nclass)
    one = TruncatedSeries.one(rank, nclass)
    inverse = group_like_inverse

    def series(names):
        return {x: _random_series(rank, nclass, ring, rng) for x in names}

    def group_like(exponents):
        s = _random_group_like(rank, nclass, ring, rng)
        return {"s": s, **_elements(ring, rng, exponents)}

    def power(s, a):
        return series_pow(s, a, ring)

    out = _sampled_rows(
        _sample_count(samples, 500),
        lambda: series("abc"),
        {"series: multiplication associative": lambda a, b, c: (a * b) * c == a * (b * c)},
    )
    out += _sampled_rows(
        _sample_count(samples, 50),
        lambda: series("s"),
        {"series: unit element": lambda s: s * one == s and one * s == s},
    )
    out += _sampled_rows(
        _sample_count(samples, 200),
        lambda: group_like("ab"),
        {
            "series: power additive in the exponent": (
                lambda s, a, b: power(s, a) * power(s, b) == power(s, a + b)
            )
        },
    )
    out += _sampled_rows(
        _sample_count(samples, 100),
        lambda: group_like(""),
        {"series: group-like inverse": lambda s: s * inverse(s) == one and inverse(s) * s == one},
    )
    out += _sampled_rows(
        _sample_count(samples, 100),
        lambda: group_like("a"),
        {
            "series: inverse of a power is the negative power": (
                lambda s, a: inverse(power(s, a)) == power(s, -a)
            )
        },
    )

    basis = FreeNilpotentGroup(rank, nclass).basis

    def lie(f):
        return basis.lie_element(basis.entries[f])

    def independent(w):
        rows = {}  # word -> {block index: coefficient}
        for j, f in enumerate(basis.weight_block(w)):
            for word, c in lie(f).coeffs.items():
                rows.setdefault(word, {})[j] = Fraction(c)
        return linalg.rank(list(rows.values())) == basis.counts[w - 1]

    out.append(
        CheckResult(
            "series: Hall Lie elements independent per weight",
            all(independent(w) for w in range(1, nclass + 1)),
        )
    )

    # every fourth sample tries a proportional pair when the weights agree
    drawn = count()

    def draw_pair():
        t = next(drawn)
        w1 = rng.randint(1, max(1, nclass - 1))
        w2 = rng.randint(1, max(1, nclass - w1))
        c1 = [rng.randint(-3, 3) for _ in basis.weight_block(w1)]
        if t % 4 == 0 and w2 == w1:
            lam = rng.randint(-2, 2)
            c2 = [lam * v for v in c1]
        else:
            c2 = [rng.randint(-3, 3) for _ in basis.weight_block(w2)]
        return {"w1": w1, "w2": w2, "c1": c1, "c2": c2}

    def zero_bracket_dependent(w1, w2, c1, c2):
        rows = [{f: Fraction(c) for c, f in zip(cs, basis.weight_block(w)) if c}
                for cs, w in ((c1, w1), (c2, w2))]
        z = y = TruncatedSeries(rank, nclass, {})
        for c, f in zip(c1, basis.weight_block(w1)):
            z = z + c * lie(f)
        for c, f in zip(c2, basis.weight_block(w2)):
            y = y + c * lie(f)
        return bool((z * y - y * z).coeffs) or linalg.rank(rows) <= 1

    out += _sampled_rows(
        _sample_count(samples, 200),
        draw_pair,
        {"series: zero bracket forces dependence": zero_bracket_dependent},
    )
    return out


# -- group suite ------------------------------------------------------------


def group_suite(rank, nclass, ring: Ring, rng: Random, samples: int | None = None) -> list:
    _refuse_class_one(nclass)
    grp = FreeNilpotentGroup(rank, nclass, ring)
    e = grp.identity()
    mul, pow_, weight = grp.mul, grp.pow, grp.gamma_weight
    names = ("group: associativity", "group: two-sided identity", "group: two-sided inverse")
    out = _axiom_rows(grp, rng, _sample_count(samples, 1000), names)

    def weight_one(g):
        return grp.weight_block_coords(g, 1)

    out += _sampled_rows(
        _sample_count(samples, 100),
        lambda: _elements(grp, rng, "gh"),
        {
            "group: weight-1 coordinates add": lambda g, h: weight_one(mul(g, h)) == tuple(
                a + b for a, b in zip(weight_one(g), weight_one(h))
            )
        },
    )
    out += _sampled_rows(
        _sample_count(samples, 200),
        lambda: _elements(grp, rng, "gh", -3, 3),
        {
            "group: product respects the filtration": (
                lambda g, h: weight(mul(g, h)) >= min(weight(g), weight(h))
            ),
            "group: commutator adds filtration weights": (
                lambda g, h: weight(grp.commutator(g, h)) >= min(nclass + 1, weight(g) + weight(h))
            ),
        },
    )
    out += _sampled_rows(
        _sample_count(samples, 500),
        lambda: {**_elements(grp, rng, "g"), **_elements(ring, rng, "ab")},
        {
            "group: powers additive in the exponent": lambda g, a, b: (
                mul(pow_(g, a), pow_(g, b)) == pow_(g, a + b)
                and pow_(g, 1) == g
                and pow_(g, 0) == e
            )
        },
    )
    return out


# -- words suite ------------------------------------------------------------


def _random_word(grp, rng, max_len=6):
    letters = []
    for _ in range(rng.randint(0, max_len)):
        pair = grp.basis.pairs[rng.randrange(grp.dimension)]
        letters.append((pair, grp.ring.random_element(rng, -4, 4)))
    return letters


def _collection_rows(grp, collector: Collector, rng: Random, n: int) -> list:
    """Collection against series evaluation on n random words."""
    return _sampled_rows(
        n,
        lambda: {"word": _random_word(grp, rng)},
        {
            "words: collection matches series evaluation": (
                lambda word: collector.collect(word) == evaluate_word(grp, word)
            )
        },
    )


def words_suite(rank, nclass, ring: Ring, rng: Random, samples: int | None = None) -> list:
    _refuse_class_one(nclass)
    grp = FreeNilpotentGroup(rank, nclass, ring)
    collector = Collector(grp, derive_structure_polys(rank, nclass))

    empty = collector.collect([]) == grp.identity()
    out = [CheckResult("words: empty word collects to identity", empty)]

    def draw_sorted():
        flats = sorted(rng.sample(range(grp.dimension), rng.randint(1, grp.dimension)))
        return {"letters": [(grp.basis.pairs[f], ring.random_element(rng, -4, 4)) for f in flats]}

    def collects_verbatim(letters):
        letters = normalize_word(grp, letters)
        coords = [ring.zero] * grp.dimension
        for pair, ex in letters:
            coords[grp.basis.flat(pair)] = ex
        return collector.collect(letters) == grp.element(coords)

    out += _sampled_rows(
        _sample_count(samples, 50),
        draw_sorted,
        {"words: sorted words collect verbatim": collects_verbatim},
    )
    out += _collection_rows(grp, collector, rng, _sample_count(samples, 500))

    m = 2 if rank == 2 else 3

    def draw_tuple():
        xs = [grp.random_element(rng, -4, 4) for _ in range(m)]
        return {"xs": xs, "taus": petresco_sequence(grp, xs, nclass)}

    out += _sampled_rows(
        _sample_count(samples, 5),
        draw_tuple,
        {
            "words: power-product correction terms descend the filtration": lambda xs, taus: all(
                grp.gamma_weight(t) >= k for k, t in enumerate(taus, start=1)
            ),
            "words: power-product identity for n = 1..6": lambda xs, taus: all(
                petresco_identity_holds(grp, xs, n, taus) for n in range(1, 7)
            ),
        },
    )

    def commutator_powers(h, g):
        w = grp.mul(grp.mul(grp.inv(h), grp.inv(g)), h)
        taus = petresco_sequence(grp, (w, g), nclass)
        return all(commutator_power_identity_holds(grp, h, g, a, taus=taus) for a in range(-5, 6))

    out += _sampled_rows(
        _sample_count(samples, 10),
        lambda: _elements(grp, rng, "hg", -3, 3),
        {"words: commutator-of-power identity for a = -5..5": commutator_powers},
    )
    return out


# -- canonical polynomial suite ----------------------------------------------


def poly_suite(rank, nclass, rng: Random, samples: int | None = None) -> list:
    _refuse_class_one(nclass)
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

    def point():
        return [rng.randint(-6, 6) for _ in range(n)]

    out += _sampled_rows(
        _sample_count(samples, 200),
        lambda: {"a": point(), "b": point(), "ex": rng.randint(-6, 6)},
        {
            "poly: product polynomials match the engine": (
                lambda a, b, ex: cp.mul_coords(a, b, ZZ) == grp.mul_coords(a, b)
            ),
            "poly: power polynomials match the engine": (
                lambda a, b, ex: cp.pow_coords(a, ex, ZZ) == grp.pow_coords(a, ex)
            ),
        },
    )

    # n_each points for each of the first six product coordinates, in order
    n_each = _sample_count(samples, 10)
    polys = list(cp.p)[:6]
    tables = [BinomialTable(len(poly.vars), to_binomial_basis(poly).items()) for poly in polys]
    coordinate = iter([f for f in range(len(polys)) for _ in range(n_each)])

    def draw_point():
        f = next(coordinate)
        return {"f": f, "point": [Fraction(rng.randint(-5, 5)) for _ in polys[f].vars]}

    out += _sampled_rows(
        n_each * len(polys),
        draw_point,
        {
            "poly: binomial form evaluates like the monomial form": lambda f, point: (
                tables[f].evaluate(point, QQ) == QQ.coerce(polys[f].evaluate(point))
            )
        },
    )

    st = derive_structure_polys(rank, nclass)
    # the sampled tables are distinct, so there are never more than there are tables
    n_tails = min(_sample_count(samples, 6), len(st.tables))

    def shuffled_tables():
        keys = list(st.tables)
        rng.shuffle(keys)
        yield from keys

    chosen = shuffled_tables()  # shuffles on the first draw

    def draw_tail():
        high, low = next(chosen)
        b = rng.randint(-5, 5)
        ab = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(25)]
        return {"high": high, "low": low, "b": b, "ab": ab}

    def tail_matches(high, low, a, b):
        com = grp.commutator(grp.pow(grp.basic(high), a), grp.pow(grp.basic(low), b))
        coords = [ZZ.zero] * n
        for pair, e in st.tail_letters(high, low, a, b, ZZ):
            coords[grp.basis.flat(pair)] = e
        return grp.element(coords) == com

    out += _sampled_rows(
        n_tails,
        draw_tail,
        {
            "poly: tails vanish at exponent zero": (
                lambda high, low, b, ab: not st.tail_letters(high, low, 0, b, ZZ)
            ),
            "poly: tail tables match engine commutators": (
                lambda high, low, b, ab: all(tail_matches(high, low, a, bb) for a, bb in ab)
            ),
        },
    )

    if (rank, nclass) in ((2, 2), (2, 3)):
        out.append(
            CheckResult(
                "poly: product polynomials associative as polynomials",
                associativity_identity_holds(cp),
            )
        )
    return out


# -- deformation suite --------------------------------------------------------


def iso_rows(iso: SplittingIsomorphism, rng: Random, n: int) -> list:
    """The splitting isomorphism on n sampled g, h of the deformed group and x of its base."""
    return _sampled_rows(
        n,
        lambda: {**_elements(iso.deformed, rng, "gh"), **_elements(iso.base, rng, "x")},
        {"deform: splitting isomorphism verified": iso.holds_at},
    )


def extension_rows(ext: ExtensionCocycle, rng: Random, n: int) -> list:
    """The extension build against the deformed product on n sampled pairs g, h."""
    dgrp = ext.deformed
    return _sampled_rows(
        n,
        lambda: _elements(dgrp, rng, "gh"),
        {
            "deform: extension build matches the deformed product": (
                lambda g, h: ext.extension_mul(g, h) == dgrp.mul(g, h)
            )
        },
    )


def deformation_suite(rank, nclass, rng: Random, samples: int | None = None) -> list:
    _refuse_class_one(nclass)
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
    out += _axiom_rows(dgrp, rng, _sample_count(samples, 1000), names)

    top = base.basis.weight_start(nclass)
    out += _sampled_rows(
        _sample_count(samples, 200),
        lambda: _elements(dgrp, rng, "gh"),
        {
            "deform: coordinates below the top weight are undeformed": lambda g, h: (
                dgrp.mul(g, h).coords[:top] == base.mul_coords(g.coords, h.coords)[:top]
            )
        },
    )

    zgrp = DeformedGroup(base, [zero_cocycle(n_c)] * rank, check=False)
    out += _sampled_rows(
        _sample_count(samples, 100),
        lambda: _elements(zgrp, rng, "gh"),
        {
            "deform: zero cocycles reproduce the base group exactly": lambda g, h: (
                zgrp.mul(g, h).coords == base.mul_coords(g.coords, h.coords)
                and zgrp.inv(g).coords == base.inv_coords(g.coords)
            )
        },
    )

    psi = coboundary_split(f_ab)
    out.append(
        CheckResult(
            "deform: the product cocycle splits as binom(a,2)",
            [t.as_dict() for t in psi.components] == [{(2,): 1}] + [{}] * (n_c - 1),
        )
    )

    out += iso_rows(dgrp.splitting, rng, _sample_count(samples, 200))

    ext = ExtensionCocycle(dgrp)
    out += _sampled_rows(
        _sample_count(samples, 500),
        lambda: _elements(dgrp, rng, "ghk"),
        {
            "deform: extension cocycle identity": (
                lambda g, h, k: ext.cocycle_identity_holds(g.coords, h.coords, k.coords)
            )
        },
    )
    out += _sampled_rows(
        _sample_count(samples, 50),
        lambda: _elements(dgrp, rng, "g"),
        {"deform: extension cocycle normalized": lambda g: ext.is_normalized_at(g.coords)},
    )
    out += extension_rows(ext, rng, _sample_count(samples, 100))

    # n_each samples for each generator in turn, then the split of each on a fixed box
    n_each = _sample_count(samples, 40)
    generator = iter([j for j in range(1, rank + 1) for _ in range(n_each)])

    def draw_centralizer():
        sample = {"j": next(generator), "a": rng.randint(-9, 9), "b": rng.randint(-9, 9)}
        return {**sample, **{z: [rng.randint(-9, 9) for _ in range(n_c)] for z in ("z1", "z2")}}

    name = "deform: generator centralizers are abelian extensions"
    [row] = _sampled_rows(n_each * rank, draw_centralizer, {name: dgrp.centralizer_law_holds})
    unsplit = [j for j in range(1, rank + 1) if not dgrp.centralizer_split_holds(j)]
    if row.ok and unsplit:
        detail = f"generators {unsplit}: the split does not give the products on the box -8..8"
        row = CheckResult(name, False, detail)
    out.append(row)
    return out


# -- Lie suite ----------------------------------------------------------------


def lie_suite(rank, nclass) -> list:
    _refuse_class_one(nclass)
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

    # f(e_1, e_2) + f(e_3, e_4) + ... is an alternating matrix of full rank 2 * (rank // 2)
    u = [Fraction(0)] * bil.codomain_dim
    for a in range(0, rank - 1, 2):
        u = [s + v for s, v in zip(u, bil.value(basis_vectors[a], basis_vectors[a + 1]))]
    out.append(
        CheckResult(
            "lie: f(e1,e2) + f(e3,e4) + ... has weight-2 width rank // 2",
            weight_two_width(bil, u) == rank // 2,
        )
    )

    out.append(
        CheckResult(
            "lie: generator centralizer kernels are single lines",
            all(centralizer_line_holds(B, j) for j in range(1, rank + 1)),
        )
    )
    return out


# -- group-side centralizer suite ----------------------------------------------


def centralizer_structure_check(grp: FreeNilpotentGroup, j: int, rng: Random, samples: int) -> list:
    """Sampled checks that the centralizer of u_1j is {u_1j^a * central}, as three rows.

    built_elements_commute: u_1j^a * z commutes with u_1j for central z.
    decomposition_exact: an element that commutes with u_1j is u_1j^a * z
    with z in the weight-class block. It runs on every sampled x, of which
    few commute with u_1j, and on the built u_1j^a * z of the same sample
    number, which always does. center_is_weight_c_block: the block is
    central, and a sampled x is central or fails to commute with some
    generator. Each row runs on `samples` samples, which must be at least 1.
    """
    u = grp.generator(j)
    one = grp.identity()
    gens = grp.generators()
    pow_ = grp.pow
    start_c = grp.basis.weight_start(grp.nclass)
    built = []  # the (a, z) samples of the first row, read again by the second

    def central():
        z = [grp.ring.zero] * grp.dimension
        for s in range(start_c, grp.dimension):
            z[s] = grp.ring.random_element(rng)
        return grp.element(z)

    def draw_built():
        built.append({**_elements(grp.ring, rng, "a"), "z": central()})
        return built[-1]

    def decomposes(x):
        if grp.commutator(x, u) != one:
            return True
        a = x.coords[grp.basis.flat((1, j))]
        z = grp.mul(pow_(u, -a), x)
        return grp.is_central(z) and grp.mul(pow_(u, a), z) == x

    def center_is_block(z, x):
        commutes = all(grp.commutator(z, g) == one for g in gens)
        return commutes and (grp.is_central(x) or any(grp.commutator(x, g) != one for g in gens))

    rows = _sampled_rows(
        samples,
        draw_built,
        {"built_elements_commute": lambda a, z: grp.commutator(grp.mul(pow_(u, a), z), u) == one},
    )
    again = iter(built)
    rows += _sampled_rows(
        samples,
        lambda: {**_elements(grp, rng, "x"), **next(again)},
        {"decomposition_exact": lambda x, a, z: decomposes(x) and decomposes(pow_(u, a) * z)},
    )
    rows += _sampled_rows(
        samples,
        lambda: {"z": central(), **_elements(grp, rng, "x")},
        {"center_is_weight_c_block": center_is_block},
    )
    return rows


def centralizer_suite(rank, nclass, ring: Ring, rng: Random, samples: int | None = None) -> list:
    _refuse_class_one(nclass)
    grp = FreeNilpotentGroup(rank, nclass, ring)
    out = []
    for j in range(1, rank + 1):
        rows = centralizer_structure_check(grp, j, rng, samples=_sample_count(samples, 40))
        out.append(
            CheckResult(
                f"centralizer: generator {j} decomposes as its powers times the center",
                all(row.ok for row in rows),
                next((row.detail for row in rows if not row.ok), ""),
            )
        )
    return out


# -- aggregation ----------------------------------------------------------------


def run_all(rank, nclass, ring: Ring = ZZ, seed: int = 0, samples: int | None = None) -> list:
    """Full verification table for one configuration of class at least 2."""
    _refuse_class_one(nclass)
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
