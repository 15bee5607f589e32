"""Tests for symbolic derivation of the product and power polynomials."""

import dataclasses
import hashlib
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from poly_oracle import (
    VARS,
    DensePoly,
    dense_to_binomial_basis,
    eval_binomial_form,
    eval_tables_per_table,
    poly_pairs,
    table_dicts,
)

from hallforge import series
from hallforge.basis import DESK_WORD_LIMIT, hall_basis
from hallforge.canonical import (
    associativity_identity_holds,
    coordinate_names,
    derive_hall_polynomials,
    derive_structure_polys,
    to_binomial_basis,
)
from hallforge.errors import NonIntegerCoefficientError, ScaleLimitError
from hallforge.group import FreeNilpotentGroup
from hallforge.rings import QQ, ZZ, BinomialTable, IntegerRing, Poly, PolyRing, Ring


def test_weight_one_polynomials_are_linear():
    for rank, nclass in ((2, 2), (3, 2), (2, 3)):
        cp = derive_hall_polynomials(rank, nclass)
        ring = PolyRing(cp.mul_vars)
        n = sum(FreeNilpotentGroup(rank, nclass).basis.counts)
        for j in range(rank):
            expected = ring.variable(cp.mul_vars[j]) + ring.variable(
                cp.mul_vars[n + j]
            )
            assert cp.p[j] == expected
        pring = PolyRing(cp.pow_vars)
        y = pring.variable("y")
        for j in range(rank):
            assert cp.q[j] == y * pring.variable(cp.pow_vars[j])


def test_frozen_rank2_class2_product_polynomial():
    cp = derive_hall_polynomials(2, 2)
    ring = PolyRing(cp.mul_vars)
    x1_2 = ring.variable("x1_2")
    x2_1 = ring.variable("x2_1")
    y1_1 = ring.variable("y1_1")
    y2_1 = ring.variable("y2_1")
    assert cp.p[2] == x2_1 + y2_1 + x1_2 * y1_1


def test_frozen_rank2_class2_power_table():
    cp = derive_hall_polynomials(2, 2)
    # q_21 in the binomial basis over (x1_1, x1_2, x2_1, y)
    assert cp.q_tables[2].as_dict() == {(0, 0, 1, 1): 1, (1, 1, 0, 2): 1}


def test_binomial_conversion_of_square():
    ring = PolyRing(("x",))
    x = ring.variable("x")
    assert to_binomial_basis(x * x) == {(1,): 1, (2,): 2}
    assert to_binomial_basis(ring.zero) == {}


def test_binomial_conversion_rejects_non_integer_values():
    ring = PolyRing(("x",))
    x = ring.variable("x")
    with pytest.raises(NonIntegerCoefficientError):
        to_binomial_basis(x * Fraction(1, 2))


def test_all_tables_integer_at_small_configs():
    for rank, nclass in ((2, 2), (2, 3), (3, 2)):
        cp = derive_hall_polynomials(rank, nclass)
        for table in list(cp.p_tables) + list(cp.q_tables):
            for coeff in table.as_dict().values():
                assert isinstance(coeff, int)


def test_polynomials_specialize_to_engine():
    rng = Random(71)
    for rank, nclass in ((2, 2), (2, 3), (3, 2)):
        cp = derive_hall_polynomials(rank, nclass)
        grp = FreeNilpotentGroup(rank, nclass)
        n = grp.dimension
        for _ in range(60):
            a = [rng.randint(-6, 6) for _ in range(n)]
            b = [rng.randint(-6, 6) for _ in range(n)]
            assert cp.mul_coords(a, b, ZZ) == grp.mul_coords(a, b)
            ex = rng.randint(-6, 6)
            assert cp.pow_coords(a, ex, ZZ) == grp.pow_coords(a, ex)


def test_polynomials_specialize_over_rationals():
    rng = Random(72)
    cp = derive_hall_polynomials(2, 3)
    grp = FreeNilpotentGroup(2, 3, QQ)
    n = grp.dimension
    for _ in range(30):
        a = [QQ.random_element(rng) for _ in range(n)]
        b = [QQ.random_element(rng) for _ in range(n)]
        assert cp.mul_coords(a, b, QQ) == grp.mul_coords(a, b)
        t = QQ.random_element(rng)
        assert cp.pow_coords(a, t, QQ) == grp.pow_coords(a, t)


def test_degree_bound_per_weight():
    for rank, nclass in ((2, 3), (3, 2)):
        cp = derive_hall_polynomials(rank, nclass)
        basis = FreeNilpotentGroup(rank, nclass).basis
        for f, poly in enumerate(cp.p):
            assert poly.total_degree() <= basis.entries[f].weight


def test_associativity_as_polynomial_identity():
    assert associativity_identity_holds(derive_hall_polynomials(2, 2))


def test_binomial_tables_evaluate_like_monomials():
    rng = Random(73)
    cp = derive_hall_polynomials(2, 3)
    for poly, table in zip(cp.p, cp.p_tables):
        for _ in range(10):
            point = [Fraction(rng.randint(-5, 5)) for _ in poly.vars]
            assert eval_binomial_form(
                table.as_dict(), point, QQ
            ) == QQ.coerce(poly.evaluate(point))


def test_structure_tails_frozen_weight2():
    st = derive_structure_polys(2, 2)
    ring = PolyRing(("x", "y"))
    x = ring.variable("x")
    y = ring.variable("y")
    low_high = dict(st.polys[((1, 1), (1, 2))])
    high_low = dict(st.polys[((1, 2), (1, 1))])
    assert low_high[(2, 1)] == -(x * y)
    assert high_low[(2, 1)] == x * y


def test_structure_tails_vanish_at_zero_exponent():
    st = derive_structure_polys(2, 3)
    for high, low in st.polys:
        assert st.tail_letters(high, low, 0, 3, ZZ) == []
        assert st.tail_letters(high, low, 2, 0, ZZ) == []


def test_structure_tails_match_engine_commutators():
    rng = Random(74)
    for rank, nclass in ((2, 3), (3, 2)):
        st = derive_structure_polys(rank, nclass)
        grp = FreeNilpotentGroup(rank, nclass)
        for high, low in st.polys:
            for _ in range(25):
                a = rng.randint(-4, 4)
                b = rng.randint(-4, 4)
                com = grp.commutator(
                    grp.pow(grp.basic(high), a), grp.pow(grp.basic(low), b)
                )
                coords = [0] * grp.dimension
                for pair, v in st.tail_letters(high, low, a, b, ZZ):
                    coords[grp.basis.flat(pair)] = v
                assert grp.element(coords) == com


def _typed(values):
    return [(type(v), v.terms if isinstance(v, Poly) else v) for v in values]


def _oracle_tails(st, high, low, a, b, ring):
    tails = st.tables.get((high, low), ())
    values = eval_tables_per_table([t for _, t in tails], (a, b), ring)
    return [(pair, e) for (pair, _), e in zip(tails, values) if e]


@pytest.mark.parametrize("rank, nclass", [(2, 3), (3, 2), (2, 4)])
def test_table_products_powers_and_tails_match_the_oracle(rank, nclass):
    cp = derive_hall_polynomials(rank, nclass)
    st = derive_structure_polys(rank, nclass)
    n = len(cp.p_tables)
    t = PolyRing(("t",)).variable("t")
    rng = Random(2026)
    draws = {
        ZZ: lambda: rng.randint(-9, 9),
        QQ: lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
        PolyRing(("t",)): lambda: t * rng.randint(-2, 2) + rng.randint(-2, 2),
    }
    for ring, draw in draws.items():
        for _ in range(4):
            a, b, e = [draw() for _ in range(n)], [draw() for _ in range(n)], draw()
            got = cp.mul_coords(a, b, ring)
            assert type(got) is tuple
            assert _typed(got) == _typed(eval_tables_per_table(cp.p_tables, a + b, ring))
            got = cp.pow_coords(a, e, ring)
            assert _typed(got) == _typed(eval_tables_per_table(cp.q_tables, a + [e], ring))
            for high, low in st.tables:
                x, y = draw(), draw()
                got = st.tail_letters(high, low, x, y, ring)
                want = _oracle_tails(st, high, low, x, y, ring)
                assert [p for p, _ in got] == [p for p, _ in want]
                assert _typed(v for _, v in got) == _typed(v for _, v in want)


def test_tail_letters_without_tails_evaluates_nothing(monkeypatch):
    st = derive_structure_polys(2, 3)
    pairs = hall_basis(2, 3).pairs
    untailed = [(h, l) for h in pairs for l in pairs if not st.tables.get((h, l))]
    assert untailed and len(untailed) < len(pairs) ** 2

    def refuse(self, a, k):
        raise AssertionError("binom called")

    for owner in (Ring, IntegerRing):
        monkeypatch.setattr(owner, "binom", refuse)
    for high, low in untailed:
        assert st.tail_letters(high, low, 3, -2, ZZ) == []
        assert st.tail_letters(list(high), list(low), 3, -2, ZZ) == []
    with pytest.raises(AssertionError, match="binom called"):
        st.tail_letters(*next(iter(st.tables)), 3, -2, ZZ)


def test_tails_start_above_the_weight_sum():
    st = derive_structure_polys(2, 4)
    basis = FreeNilpotentGroup(2, 4).basis
    for (high, low), entries in st.polys.items():
        floor = basis.entries[basis.flat(high)].weight + basis.entries[basis.flat(low)].weight
        for pair, _ in entries:
            assert basis.entries[basis.flat(pair)].weight >= floor


def _engine_polys(rank, nclass):
    """Product and power polynomials from a fresh engine run over PolyRing."""
    basis = FreeNilpotentGroup(rank, nclass).basis
    x_names = coordinate_names(basis, "x")
    mul_ring = PolyRing(x_names + coordinate_names(basis, "y"))
    xy = [mul_ring.variable(v) for v in mul_ring.vars]
    n = len(x_names)
    p = FreeNilpotentGroup(rank, nclass, mul_ring).mul_coords(xy[:n], xy[n:])
    pow_ring = PolyRing(x_names + ("y",))
    xe = [pow_ring.variable(v) for v in pow_ring.vars]
    q = FreeNilpotentGroup(rank, nclass, pow_ring).pow_coords(xe[:n], xe[n])
    return tuple(p), tuple(q)


def _engine_tails(rank, nclass):
    """(pairB, pairA) -> the nonzero coordinates of [u_B^x, u_A^y] from the engine."""
    ring = PolyRing(("x", "y"))
    grp = FreeNilpotentGroup(rank, nclass, ring)
    x, y = ring.variable("x"), ring.variable("y")
    out = {}
    for eb in grp.basis.entries:
        for ea in grp.basis.entries:
            if eb.pair == ea.pair or eb.weight + ea.weight > nclass:
                continue
            com = grp.commutator(grp.pow(grp.basic(eb.pair), x), grp.pow(grp.basic(ea.pair), y))
            out[(eb.pair, ea.pair)] = tuple(
                (grp.basis.entries[f].pair, poly) for f, poly in enumerate(com.coords) if poly
            )
    return out


# every configuration with class >= 2 inside the symbolic limit
STRUCTURE_CONFIGS = (
    (2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (5, 2)
)
# the structure configurations plus two of class 1, where every coordinate is central
HALL_CONFIGS = ((2, 1), (3, 1)) + STRUCTURE_CONFIGS


@pytest.mark.parametrize("rank, nclass", HALL_CONFIGS)
def test_polynomial_views_equal_a_fresh_engine_run(rank, nclass):
    cp = derive_hall_polynomials(rank, nclass)
    p, q = _engine_polys(rank, nclass)
    for tables, polys in ((cp.p_tables, p), (cp.q_tables, q)):
        want = [BinomialTable.from_dict(len(poly.vars), to_binomial_basis(poly)) for poly in polys]
        assert [t.coeffs for t in tables] == [t.coeffs for t in want]
    assert (cp.p, cp.q) == (p, q)
    assert cp.p is cp.p  # built once, then kept


def test_structure_view_equals_engine_tails():
    st = derive_structure_polys(3, 3)
    assert st.polys == _engine_tails(3, 3)
    assert st.polys is st.polys


@pytest.mark.parametrize("rank, nclass", STRUCTURE_CONFIGS)
def test_structure_tables_equal_engine_commutators(rank, nclass):
    want = [
        (key, tuple((pair, BinomialTable.from_dict(2, to_binomial_basis(poly))) for pair, poly in tails))
        for key, tails in _engine_tails(rank, nclass).items()
    ]
    got = list(derive_structure_polys(rank, nclass).tables.items())
    assert [key for key, _ in got] == [key for key, _ in want]
    for (key, tails), (_, want_tails) in zip(got, want):
        assert [pair for pair, _ in tails] == [pair for pair, _ in want_tails], key
        assert [t.coeffs for _, t in tails] == [t.coeffs for _, t in want_tails], key


# SHA-256 over every key, tail pair and table coefficient, in order
STRUCTURE_DIGESTS = {
    (2, 2): "103f17f4b260955f8019937c182946493a8fa89620f0aff25fdfb50c017d5cd3",
    (2, 3): "f21be409cb6d9b0c0a94ecafe75785c05e4726687bc54c2d7d2cf692f9ed1fa4",
    (2, 4): "e3265087ee8bf9509efda7b625efa5edd9391414da4c00839270d2f975c3a512",
    (2, 5): "a818f6385290a1f4ea1fc8eae70e4736ed86e09e64e122e3bbd7c93a60d96bb7",
    (3, 2): "23885b1d2f0275a93d0142eacdc23bba821ec78d61b666a93e9c50890490565d",
    (3, 3): "e01d6d7d9ed9a39ec144219b20a7332de2a60319c6330d59fa447204cc61190a",
    (3, 4): "dc6ea60eddfd9ebabca76798acc867ef0a7f128e90eff996c198b41ddb040832",
    (4, 2): "55d319a70920a13db4d714134345721424b7bd9fb49a54b0b716d5516ca81928",
    (4, 3): "9f8ec27d2530df01017868b9ffd29983b1690eecae6eb311fddfe9b14585195c",
    (5, 2): "bd416743ff5f794a7bc9f387b6f019859293aa883e6b68da22260ae41970a0dc",
}


def test_structure_tables_pinned():
    assert tuple(STRUCTURE_DIGESTS) == STRUCTURE_CONFIGS
    for config, want in STRUCTURE_DIGESTS.items():
        h = hashlib.sha256()
        for key, tails in derive_structure_polys(*config).tables.items():
            h.update(repr(key).encode())
            for pair, table in tails:
                h.update(repr((pair, table.coeffs)).encode())
        assert h.hexdigest() == want, config


# SHA-256 over the variable names and every p and q table coefficient, in order
HALL_DIGESTS = {
    (2, 1): "b4564abe119f95e1b20ba2b88d38841a1760144159443bc6c2c3fa3c37a0b9a1",
    (3, 1): "88adfe8894e13635afb77f5cb44f566d51c0c68226fe9d53ef9095599d2ad223",
    (2, 2): "7f8dafa6ec2dd82b4cec4c13be5d41eaed56a2bc7e466fb840984d99f3f39b0d",
    (2, 3): "897bee7963145b96603faf9ec641bc8f569927f323e5a4ee9fdbc1fe92301945",
    (2, 4): "ebe5b58c2d8bccc85de941de7a49c49768fe878b70b198b1a0db15f89bb7ef69",
    (2, 5): "fef8bb77a3fe1297429f54ff7b6af36788f57aeba467e11c7e6d2d184a7c7314",
    (3, 2): "03570660b77547cc832af5619a424e5e029c1fb2a0d518f10257f0edf39dcbf9",
    (3, 3): "005e5deaa227f2740ae5a8ff37943496fab1373b7238c7276c7b99967121a8fc",
    (3, 4): "044a0f48a79bb81841451f37f344a8309cceac95bb6a97fd7663ae2107512ac9",
    (4, 2): "723d54bb7dfd407094199205117283a2eb34a857c6883c3d740276e40079a9a3",
    (4, 3): "cda55fd72e88d04a43cd7547086ae3d3fe1bddb26c83e3ca0c92ed4a512ff8e6",
    (5, 2): "8f4da9137c0194cdc382bfaf8cc360bb72d412d8b48a2ac4906eef5d72a0b7e9",
}


def _hall_digest(cp):
    h = hashlib.sha256(repr((cp.mul_vars, cp.pow_vars)).encode())
    for table in cp.p_tables + cp.q_tables:
        h.update(repr(table.coeffs).encode())
    return h.hexdigest()


def test_hall_tables_pinned():
    assert tuple(HALL_DIGESTS) == HALL_CONFIGS
    for config, want in HALL_DIGESTS.items():
        assert _hall_digest(derive_hall_polynomials(*config)) == want, config


def _counted(monkeypatch, owner, names):
    """Count the calls of owner's named functions; the counts come back as one dict."""
    calls = {name: 0 for name in names}

    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(owner, name, wrap(name, getattr(owner, name)))
    return calls


def test_structure_derivation_extracts_once_per_commutator(monkeypatch):
    FreeNilpotentGroup(3, 4)  # engine tables built before counting
    extract = FreeNilpotentGroup.coords_from_series
    by_ring = {"ZZ": 0, "PolyRing": 0}

    def counted_extract(grp, s):
        by_ring["ZZ" if grp.ring is ZZ else "PolyRing"] += 1
        return extract(grp, s)

    monkeypatch.setattr(FreeNilpotentGroup, "coords_from_series", counted_extract)
    calls = _counted(monkeypatch, FreeNilpotentGroup, ("pow", "lie_coords"))
    calls.update(_counted(monkeypatch, series, ("augmentation_powers",)))
    st = derive_structure_polys.__wrapped__(3, 4)  # past the cache, same result
    assert len(st.tables) == 78
    # the 54 central tails (weight sum 4) from the Hall coordinates of Lie
    # brackets, with no group extraction; the 24 others extracted over PolyRing
    assert by_ring == {"ZZ": 0, "PolyRing": 24}
    assert calls == {"pow": 0, "lie_coords": 54, "augmentation_powers": 0}


def test_hall_derivation_builds_one_series(monkeypatch):
    FreeNilpotentGroup(3, 4)
    calls = _counted(monkeypatch, FreeNilpotentGroup, ("series_from_coords", "coords_from_series"))
    derive_hall_polynomials.__wrapped__(3, 4)  # past the cache, same result
    # S(x') once; one extraction for the product and one for the power
    assert calls == {"series_from_coords": 1, "coords_from_series": 2}


def test_derivations_share_names_and_tails():
    results = []
    for _ in range(2):
        derive_hall_polynomials.cache_clear()
        derive_structure_polys.cache_clear()
        results.append((derive_hall_polynomials(3, 4), derive_structure_polys(3, 4)))
    (cp1, st1), (cp2, st2) = results
    assert cp1 is not cp2 and st1 is not st2
    assert cp1.mul_vars is cp2.mul_vars
    assert cp1.pow_vars is cp2.pow_vars
    assert st1.tables.keys() == st2.tables.keys()
    assert all(st1.tables[key] is st2.tables[key] for key in st1.tables)


def test_structure_keys_are_built_once_per_configuration():
    results = []
    for _ in range(2):
        derive_structure_polys.cache_clear()
        results.append(derive_structure_polys(3, 4))
    st1, st2 = results
    assert st1 is not st2
    # the keys are those of the basis's bracket pairs, built once per basis
    keys = list(hall_basis(3, 4).bracket_pairs)
    assert list(st1.tables) == list(st2.tables) == keys
    assert all(k1 is k2 is k for k1, k2, k in zip(st1.tables, st2.tables, keys))


def test_results_hold_tables_only():
    with pytest.raises(AttributeError):
        derive_hall_polynomials(2, 2).p = ()
    fields = {f.name for f in dataclasses.fields(derive_hall_polynomials(2, 2))}
    assert fields == {"rank", "nclass", "mul_vars", "pow_vars", "p_tables", "q_tables"}
    fields = {f.name for f in dataclasses.fields(derive_structure_polys(2, 2))}
    assert fields == {"rank", "nclass", "tables"}


@pytest.mark.parametrize("rank, nclass", [(3, 3), (2, 5)])
def test_conversion_matches_reference_on_derived_polynomials(rank, nclass):
    p, q = _engine_polys(rank, nclass)
    tails = [poly for entries in _engine_tails(rank, nclass).values() for _, poly in entries]
    for poly in p + q + tuple(tails):
        got = to_binomial_basis(poly)
        want = dense_to_binomial_basis(DensePoly(poly.vars, poly.terms))
        assert list(got.items()) == list(want.items())


def test_scale_limit_enforced():
    assert DESK_WORD_LIMIT == 160
    with pytest.raises(ScaleLimitError):
        derive_hall_polynomials(4, 4)
    with pytest.raises(ScaleLimitError):
        derive_structure_polys(3, 5)


# words sum_{i <= class} rank^i, the empty word included: (7,2) 57, (2,6) 127,
# (13,2) 183, (2,7) 255, (6,3) 259
@pytest.mark.parametrize("rank, nclass", [(2, 6), (7, 2)])
def test_derivation_serves_configurations_within_the_word_limit(rank, nclass):
    grp = FreeNilpotentGroup(rank, nclass)
    rng = Random(0)
    a, b = ([rng.randint(-3, 3) for _ in grp.basis.entries] for _ in "ab")
    assert derive_hall_polynomials(rank, nclass).mul_coords(a, b, ZZ) == grp.mul_coords(a, b)
    # x2^2 x1^3 = x1^3 x2^2 [x2,x1]^6 ..., the weight-2 tail first
    tails = derive_structure_polys(rank, nclass).tail_letters((1, 2), (1, 1), 2, 3, ZZ)
    assert tails[0] == ((2, 1), 6)


@pytest.mark.parametrize("rank, nclass", [(13, 2), (2, 7), (6, 3)])
def test_derivation_refuses_past_the_word_limit(rank, nclass):
    with pytest.raises(ScaleLimitError, match=f"more than {DESK_WORD_LIMIT} words"):
        derive_hall_polynomials(rank, nclass)
    with pytest.raises(ScaleLimitError, match=f"more than {DESK_WORD_LIMIT} words"):
        derive_structure_polys(rank, nclass)


def _conversion(convert, poly):
    try:
        return convert(poly)
    except NonIntegerCoefficientError as exc:
        return ("raises", str(exc))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(poly_pairs(), table_dicts(len(VARS)))
def test_binomial_basis_matches_reference(pa, table):
    # a drawn polynomial is rarely integer-valued; the evaluated table always is
    a, da = pa
    assert _conversion(to_binomial_basis, a) == _conversion(dense_to_binomial_basis, da)
    ring = PolyRing(VARS)
    p = BinomialTable.from_dict(len(VARS), table).evaluate(
        [ring.variable(v) for v in VARS], ring
    )
    got = to_binomial_basis(p)
    assert got == dense_to_binomial_basis(DensePoly(VARS, p.terms))
    assert got == {e: c for e, c in table.items() if c}
