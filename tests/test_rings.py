"""Tests for the binomial coefficient rings and sparse polynomials.

The differential tests at the end compare Poly and BinomialTable with the
dense reference code in poly_oracle.py.
"""

import pickle
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from poly_oracle import (
    POINT_VARS,
    DenseBinomialTable,
    DensePoly,
    dense_poly_to_obj,
    eval_binomial_form,
    eval_tables_per_table,
    poly_from_obj,
    poly_pairs,
    table_dicts,
)

from hallforge.errors import (
    ArityMismatchError,
    NonIntegerCoefficientError,
    NotInRingError,
    ScaleLimitError,
)
from hallforge.jsonio import poly_to_obj
from hallforge.rings import (
    MAX_EXPONENT,
    QQ,
    ZZ,
    BinomialTable,
    Poly,
    PolyRing,
    Ring,
    evaluate_tables,
)


def test_integer_binom_base_cases():
    assert ZZ.binom(5, 2) == 10
    assert ZZ.binom(0, 0) == 1
    assert ZZ.binom(7, 0) == 1
    assert ZZ.binom(3, 5) == 0
    for k in range(12):
        assert ZZ.binom(-1, k) == (-1) ** k


def test_rational_binom():
    assert QQ.binom(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert QQ.binom(Fraction(-3, 2), 1) == Fraction(-3, 2)
    assert QQ.binom(Fraction(4), 2) == 6


def test_polynomial_binom_closed_form():
    ring = PolyRing(("x",))
    x = ring.variable("x")
    assert ring.binom(x, 2) == (x * x - x) * Fraction(1, 2)
    assert ring.binom(x, 0) == ring.one
    assert ring.binom(x, 1) == x


def test_pascal_identity_sampled():
    rng = Random(11)
    for ring in (ZZ, QQ, PolyRing(("t",))):
        for _ in range(200):
            a = ring.random_element(rng)
            k = rng.randint(0, 8)
            assert ring.binom(a, k) + ring.binom(a, k + 1) == ring.binom(
                a + ring.one, k + 1
            )


def test_vandermonde_identity_sampled():
    rng = Random(12)
    for ring in (ZZ, QQ):
        for _ in range(100):
            a = ring.random_element(rng)
            b = ring.random_element(rng)
            k = rng.randint(0, 6)
            total = ring.zero
            for j in range(k + 1):
                total = total + ring.binom(a, j) * ring.binom(b, k - j)
            assert total == ring.binom(a + b, k)


def test_polynomial_binom_specializes():
    ring = PolyRing(("x",))
    x = ring.variable("x")
    rng = Random(13)
    for _ in range(300):
        a = rng.randint(-30, 30)
        k = rng.randint(0, 10)
        assert ring.binom(x, k).evaluate([Fraction(a)]) == ZZ.binom(a, k)


def test_integer_ring_rejects_fractions():
    with pytest.raises(NotInRingError):
        ZZ.coerce(Fraction(1, 2))
    assert ZZ.coerce(Fraction(4, 2)) == 2


def test_ring_parse_format_round_trip():
    rng = Random(14)
    for _ in range(50):
        n = rng.randint(-10**6, 10**6)
        assert ZZ.parse(ZZ.format(n)) == n
        q = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        assert QQ.parse(QQ.format(q)) == q


# forms Python's int() or Fraction() read but format never writes
NOT_WRITTEN = ["1_000", " 7 ", "7\n", "+5", "\u0663", "1e3", "0x10", "", "-", "1/-2", "3/0", "1.5"]


@pytest.mark.parametrize("s", NOT_WRITTEN)
def test_parse_reads_only_the_written_forms(s):
    with pytest.raises(NotInRingError):
        ZZ.parse(s)
    with pytest.raises(NotInRingError):
        QQ.parse(s)


def test_parse_reads_the_written_forms():
    assert [ZZ.parse(s) for s in ("0", "-0", "007", "-12")] == [0, 0, 7, -12]
    assert [QQ.parse(s) for s in ("5", "-3/4", "4/6", "0/9")] == [5, Fraction(-3, 4), Fraction(2, 3), 0]
    with pytest.raises(NotInRingError):
        ZZ.parse("1/2")


def test_too_many_digits_is_a_scale_limit():
    # Python reads and writes ints of at most sys.get_int_max_str_digits() (4300) digits
    with pytest.raises(ScaleLimitError):
        ZZ.parse("9" * 5000)
    with pytest.raises(ScaleLimitError):
        QQ.parse("1/" + "9" * 5000)
    with pytest.raises(ScaleLimitError):
        ZZ.format(10**5000)
    with pytest.raises(ScaleLimitError):
        QQ.format(Fraction(1, 10**5000))


def test_poly_arithmetic():
    ring = PolyRing(("x", "y"))
    x = ring.variable("x")
    y = ring.variable("y")
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y
    assert p.total_degree() == 2
    assert max(e[0] for e in p.terms) == 2
    assert not (p - p)


def test_poly_evaluate_exact():
    ring = PolyRing(("x", "y"))
    x = ring.variable("x")
    y = ring.variable("y")
    p = x * x * y - 3 * y + 7
    rng = Random(15)
    for _ in range(100):
        a = Fraction(rng.randint(-9, 9))
        b = Fraction(rng.randint(-9, 9))
        assert p.evaluate([a, b]) == a * a * b - 3 * b + 7


def test_eval_binomial_form_pads_short_keys():
    # table encodes binom(a,1)*binom(b,1) + binom(a,2); short key means b-degree 0
    table = {(1, 1): 1, (2,): 1}
    rng = Random(16)
    for _ in range(50):
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        assert eval_binomial_form(table, (a, b), ZZ) == a * b + ZZ.binom(a, 2)


def test_eval_binomial_form_rejects_long_keys():
    with pytest.raises(ArityMismatchError):
        eval_binomial_form({(1, 1, 1): 1}, (2, 3), ZZ)


def test_binomial_table_round_trip():
    t = BinomialTable.from_dict(2, {(1, 1): 3, (2, 0): -1})
    assert t.as_dict() == {(1, 1): 3, (2, 0): -1}
    assert t.evaluate((2, 2), ZZ) == 3 * 4 - 1
    assert t.coeffs
    assert not BinomialTable.from_dict(2, {}).coeffs


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_binomial_table_refuses_a_mapping(arity):
    table = {(1,) + (0,) * (arity - 1): 3}
    with pytest.raises(ArityMismatchError, match="BinomialTable.from_dict"):
        BinomialTable(arity, table)
    assert BinomialTable(arity, table.items()) == BinomialTable.from_dict(arity, table)


def test_binomial_table_degree_limit():
    assert BinomialTable(1, [((MAX_EXPONENT,), 1)]).evaluate((-1,), ZZ) == -1
    for degrees in ((MAX_EXPONENT + 1,), (0, MAX_EXPONENT + 1), (10**5, 0)):
        with pytest.raises(ScaleLimitError):
            BinomialTable(len(degrees), [(degrees, 1)])


@pytest.mark.parametrize("degree", [True, 1.0, -1])
def test_binomial_table_degrees_are_nonnegative_ints(degree):
    with pytest.raises(ArityMismatchError):
        BinomialTable(2, [((degree, 1), 1)])


@pytest.mark.parametrize("coeff", [Fraction(1, 2), Fraction(-7, 3), 2.7, 2.0, "3"])
def test_binomial_table_refuses_non_integer_coefficients(coeff):
    with pytest.raises(NonIntegerCoefficientError):
        BinomialTable(1, [((1,), coeff)])
    with pytest.raises(NonIntegerCoefficientError):
        BinomialTable.from_dict(1, {(1,): coeff})


def test_binomial_table_stores_integral_fractions_as_int():
    t = BinomialTable(2, [((1, 0), Fraction(6, 3)), ((0, 1), Fraction(-4))])
    assert t.coeffs == (((1, 0), 2), ((0, 1), -4))
    assert [type(c) for _, c in t.coeffs] == [int, int]
    assert t == BinomialTable(2, [((1, 0), 2), ((0, 1), -4)])


def test_binomial_table_refuses_repeated_degrees():
    with pytest.raises(ArityMismatchError, match="twice"):
        BinomialTable(2, [((1, 1), 1), ((2, 0), 5), ((1, 1), 3)])
    with pytest.raises(ArityMismatchError, match="twice"):
        BinomialTable(1, [([0], 1), ((0,), 1)])


def test_binomial_table_keys_are_interned_pairs():
    t = BinomialTable(3, [((2, 0, 1), 4), ((0, 0, 0), -1)])
    assert t.keys == (((0, 2), (2, 1)), ())
    u = BinomialTable.from_dict(2, {(2, 5): 1})
    assert u.keys[0][0] is t.keys[0][0]


def test_poly_json_round_trip():
    ring = PolyRing(("x", "y"))
    x = ring.variable("x")
    y = ring.variable("y")
    p = x * x * y - Fraction(3, 2) * y + 7
    assert poly_from_obj(poly_to_obj(p)) == p


# -- exponent checks ---------------------------------------------------------------


def test_poly_rejects_negative_exponents():
    with pytest.raises(ArityMismatchError):
        Poly(("x",), {(-1,): 1})
    obj = {"variables": ["x"], "terms": [{"exps": [-1], "num": "1", "den": "1"}]}
    with pytest.raises(ArityMismatchError):
        poly_from_obj(obj)


def test_poly_rejects_non_integer_exponents():
    for bad in (1.5, 1.0, "1", Fraction(1)):
        with pytest.raises(ArityMismatchError):
            Poly(("x", "y"), {(bad, 0): 1})


def test_poly_exponent_limit_on_construction():
    assert Poly(("x",), {(MAX_EXPONENT,): 1}).terms == {(MAX_EXPONENT,): 1}
    with pytest.raises(ScaleLimitError):
        Poly(("x", "y"), {(0, MAX_EXPONENT + 1): 1})


def test_poly_exponent_limit_on_products():
    ring = PolyRing(("x", "y"))
    x, y = ring.variable("x"), ring.variable("y")
    top = x ** MAX_EXPONENT
    assert top.terms == {(MAX_EXPONENT, 0): 1}
    # past the limit the product raises instead of carrying into y
    with pytest.raises(ScaleLimitError):
        top * (x + y)
    with pytest.raises(ScaleLimitError):
        x ** (MAX_EXPONENT + 1)


# -- differential tests against the dense reference ---------------------------------


def typed_terms(p):
    return p.vars, {e: (type(c), c) for e, c in p.terms.items()}


def same(new, old):
    """A Poly against a DensePoly, or any other value against the reference's."""
    if isinstance(old, DensePoly):
        # equal to the Poly rebuilt from the reference terms: the stored form is canonical
        return (
            isinstance(new, Poly)
            and typed_terms(new) == typed_terms(old)
            and new == Poly(old.vars, old.terms)
        )
    return type(new) is type(old) and new == old


SCALARS = st.one_of(
    st.integers(-5, 5), st.fractions(min_value=-5, max_value=5, max_denominator=5)
)
DIFF = settings(derandomize=True, max_examples=150, deadline=None)


@DIFF
@given(poly_pairs(), poly_pairs())
def test_poly_ring_operations_match_reference(pa, pb):
    (a, da), (b, db) = pa, pb
    assert same(a, da)
    assert same(a + b, da + db)
    assert same(a - b, da - db)
    assert same(-a, -da)
    assert same(a * b, da * db)
    assert same(a == b, da == db)
    assert same(bool(a), bool(da))


@DIFF
@given(poly_pairs(), SCALARS)
def test_poly_scalar_operations_match_reference(pa, k):
    a, da = pa
    assert same(a * k, da * k)
    assert same(k * a, k * da)
    assert same(a + k, da + k)
    assert same(k + a, k + da)
    assert same(a - k, da - k)
    assert same(k - a, k - da)
    assert same(a == k, da == k)
    assert same(a - a + k == k, da - da + k == k)


@DIFF
@given(poly_pairs(max_exp=2, max_size=4), st.integers(0, 4))
def test_poly_power_matches_reference(pa, n):
    a, da = pa
    assert same(a ** n, da ** n)


@DIFF
@given(poly_pairs())
def test_poly_rewriting_and_queries_match_reference(pa):
    a, da = pa
    assert same(a.constant_value(), da.constant_value())
    assert same(a.is_constant(), da.is_constant())
    assert same(a.total_degree(), da.total_degree())
    assert repr(a) == repr(da)


@DIFF
@given(
    poly_pairs(),
    st.lists(st.integers(-4, 4), min_size=3, max_size=3),
    st.lists(st.fractions(-4, 4, max_denominator=4), min_size=3, max_size=3),
    st.lists(poly_pairs(POINT_VARS, max_exp=1, max_size=2), min_size=3, max_size=3),
)
def test_poly_evaluate_matches_reference(pa, ints, fracs, poly_points):
    a, da = pa
    assert same(a.evaluate(ints), da.evaluate(ints))
    assert same(a.evaluate(fracs), da.evaluate(fracs))
    new_point = [p for p, _ in poly_points]
    old_point = [q for _, q in poly_points]
    assert same(a.evaluate(new_point), da.evaluate(old_point))


@DIFF
@given(poly_pairs())
def test_poly_json_matches_reference(pa):
    a, da = pa
    obj = poly_to_obj(a)
    assert obj == dense_poly_to_obj(da)
    assert same(poly_from_obj(obj), da)
    assert pickle.loads(pickle.dumps(a)) == a


def typed_value(v):
    return (type(v), v.terms) if isinstance(v, Poly) else (type(v), v)


@DIFF
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), table_dicts(n), table_dicts(n))))
def test_binomial_table_matches_reference(drawn):
    arity, d1, d2 = drawn
    t1, t2 = BinomialTable.from_dict(arity, d1), BinomialTable.from_dict(arity, d2)
    o1, o2 = DenseBinomialTable.from_dict(arity, d1), DenseBinomialTable.from_dict(arity, d2)
    assert t1.coeffs == o1.coeffs
    assert [type(c) for _, c in t1.coeffs] == [type(c) for _, c in o1.coeffs]
    assert t1.as_dict() == o1.as_dict()
    assert (not t1.coeffs) == o1.is_zero()
    assert (t1 == t2) == (o1 == o2)
    assert hash(t1) == hash(o1)
    assert repr(t1) == repr(o1).replace("DenseBinomialTable", "BinomialTable")
    assert BinomialTable(arity, t1.coeffs) == t1
    assert pickle.loads(pickle.dumps(t1)) == t1


def _points(data, arity):
    poly_ring = PolyRing(POINT_VARS)
    return {
        ZZ: data.draw(st.lists(st.integers(-6, 6), min_size=arity, max_size=arity)),
        QQ: data.draw(
            st.lists(st.fractions(-4, 4, max_denominator=4), min_size=arity, max_size=arity)
        ),
        poly_ring: [
            p for p, _ in data.draw(
                st.lists(poly_pairs(POINT_VARS, max_exp=1, max_size=2), min_size=arity, max_size=arity)
            )
        ],
    }


@DIFF
@given(st.data())
def test_binomial_table_evaluate_matches_eval_binomial_form(data):
    arity = data.draw(st.integers(1, 3))
    table = data.draw(table_dicts(arity))
    t = BinomialTable.from_dict(arity, table)
    for ring, point in _points(data, arity).items():
        want = eval_binomial_form(DenseBinomialTable.from_dict(arity, table).as_dict(), point, ring)
        assert typed_value(t.evaluate(point, ring)) == typed_value(want)


# -- the ring-native binomials against the generic loop ------------------------------


RING_BINOM_POINTS = [*range(-60, 61), Fraction(1, 2), Fraction(-7, 3), Fraction(22, 7),
                     Fraction(-1, 9), Fraction(121, 4), Fraction(-45, 8)]


@pytest.mark.parametrize("k", range(9))
def test_number_ring_binom_matches_the_generic_loop(k):
    for a in RING_BINOM_POINTS:
        want = Ring.binom(QQ, a, k)
        got = QQ.binom(a, k)
        assert type(got) is Fraction and got == want
        if isinstance(a, int):
            want = Ring.binom(ZZ, a, k)
            got = ZZ.binom(a, k)
            assert type(got) is int and got == want


def test_number_ring_binom_keeps_its_refusals_and_coercions():
    for ring in (ZZ, QQ):
        for k in (-1, 1.5, "2", None):
            with pytest.raises(ValueError):
                ring.binom(3, k)
        assert ring.binom(True, 2) == Ring.binom(ring, True, 2) == 0
        assert ring.binom(True, 1) == ring.binom(1, 1) == 1
        assert ring.binom(-4, True) == -4
    assert type(ZZ.binom(True, 1)) is int and type(QQ.binom(True, 1)) is Fraction
    with pytest.raises(NotInRingError):
        ZZ.binom(Fraction(1, 2), 2)
    assert ZZ.binom(Fraction(6), 2) == 15 and type(ZZ.binom(Fraction(6), 2)) is int
    assert ZZ.binom(10**30, 3) == Ring.binom(ZZ, 10**30, 3)


# -- evaluate_tables against the per-table oracle ------------------------------------


def constant_tables(arity):
    """Tables whose one term, if any, has no binomial factor."""
    return st.integers(-4, 4).map(lambda c: {(0,) * arity: c})


@DIFF
@given(st.data())
def test_evaluate_tables_matches_the_per_table_oracle(data):
    arity = data.draw(st.integers(1, 3))
    dicts = data.draw(
        st.lists(st.one_of(table_dicts(arity), constant_tables(arity), st.just({})), max_size=5)
    )
    tables = [BinomialTable.from_dict(arity, d) for d in dicts]
    for ring, point in _points(data, arity).items():
        got = evaluate_tables(tables, point, ring)
        want = eval_tables_per_table(tables, point, ring)
        assert type(got) is list
        assert [typed_value(v) for v in got] == [typed_value(v) for v in want]
        assert [typed_value(t.evaluate(point, ring)) for t in tables] == [
            typed_value(v) for v in want
        ]


def test_evaluate_tables_shares_factors_across_the_set():
    # every table needs binom(a, 2) and binom(b, 1): each is computed once
    tables = [
        BinomialTable.from_dict(2, {(2, 1): 3, (0, 1): -1}),
        BinomialTable.from_dict(2, {(2, 0): 1, (2, 1): 2}),
        BinomialTable.from_dict(2, {(0, 1): 5, (0, 0): 7}),
    ]
    calls = []

    class CountingQQ(type(QQ)):
        def binom(self, a, k):
            calls.append((a, k))
            return super().binom(a, k)

    ring = CountingQQ()
    point = [Fraction(7, 2), Fraction(-3)]
    got = evaluate_tables(tables, point, ring)
    assert sorted(calls) == [(Fraction(-3), 1), (Fraction(7, 2), 2)]
    assert [typed_value(v) for v in got] == [
        typed_value(v) for v in eval_tables_per_table(tables, point, QQ)
    ]


@pytest.mark.parametrize("ring", [ZZ, QQ, PolyRing(POINT_VARS)])
def test_evaluate_tables_of_empty_sets_and_tables(ring):
    assert evaluate_tables([], [1, 2], ring) == []
    empty = BinomialTable(2, [])
    constant = BinomialTable(2, [((0, 0), 3)])
    got = evaluate_tables([empty, constant], [1, 2], ring)
    want = eval_tables_per_table([empty, constant], [1, 2], ring)
    assert [typed_value(v) for v in got] == [typed_value(v) for v in want]
    assert type(got[0]) is type(ring.zero)


@pytest.mark.parametrize("point", [[], [1], [1, 2, 3]])
def test_evaluate_tables_arity_error_matches_the_oracle(point):
    tables = [BinomialTable(len(point), []), BinomialTable.from_dict(2, {(1, 1): 1})]
    with pytest.raises(ArityMismatchError) as want:
        eval_tables_per_table(tables, point, ZZ)
    with pytest.raises(ArityMismatchError) as got:
        evaluate_tables(tables, point, ZZ)
    assert str(got.value) == str(want.value)
    with pytest.raises(ArityMismatchError) as one:
        tables[1].evaluate(point, ZZ)
    assert str(one.value) == str(want.value)
