"""Tests for canonical JSON encoding of every exchangeable object."""

import json
from fractions import Fraction
from random import Random

import pytest

from hallforge.basis import hall_basis
from hallforge.canonical import derive_hall_polynomials
from hallforge.deformation import PolynomialCocycle, product_cocycle, zero_cocycle
from hallforge.errors import NotInRingError, ScaleLimitError, ShapeMismatchError
from hallforge.group import FreeNilpotentGroup
from hallforge.jsonio import (
    basis_from_obj,
    basis_to_obj,
    canonical_dumps,
    canonical_polys_parse_check,
    canonical_polys_to_obj,
    cocycle_family_from_obj,
    cocycle_family_to_obj,
    element_from_obj,
    element_to_obj,
    lie_from_obj,
    lie_to_obj,
    word_from_obj,
    word_to_obj,
)
from hallforge.lie import compare_graded_lie, free_nilpotent_lie, lazard_lie_ring
from hallforge.rings import QQ


def test_canonical_dumps_is_sorted_and_compact():
    s = canonical_dumps({"b": 1, "a": [1, 2]})
    assert s == '{"a":[1,2],"b":1}'


def test_element_round_trip_integer():
    g = FreeNilpotentGroup(2, 3)
    rng = Random(91)
    for _ in range(40):
        el = g.random_element(rng)
        obj = element_to_obj(g, el)
        assert obj["r"] == 2 and obj["c"] == 3
        assert all(isinstance(s, str) for s in obj["coords"])
        assert element_from_obj(g, obj) == el
        # canonical text survives a JSON round trip byte for byte
        text = canonical_dumps(obj)
        assert canonical_dumps(json.loads(text)) == text


def test_element_round_trip_rational():
    g = FreeNilpotentGroup(2, 2, QQ)
    el = g.element([Fraction(1, 2), Fraction(-3, 4), Fraction(5)])
    obj = element_to_obj(g, el)
    assert obj["coords"] == ["1/2", "-3/4", "5"]
    assert element_from_obj(g, obj) == el


def test_element_from_obj_validates():
    g = FreeNilpotentGroup(2, 2)
    with pytest.raises(ShapeMismatchError):
        element_from_obj(g, {"r": 3, "c": 2, "coords": ["0"] * 6})
    with pytest.raises(ShapeMismatchError):
        element_from_obj(g, {"r": 2, "c": 2, "coords": ["0", "0"]})


def test_basis_round_trip():
    for rank, nclass in ((2, 3), (3, 2), (2, 5)):
        basis = hall_basis(rank, nclass)
        obj = basis_to_obj(basis)
        assert basis_from_obj(obj) is hall_basis(rank, nclass)
    bad = basis_to_obj(hall_basis(2, 2))
    bad["entries"][2]["tree"] = [1, 2]
    with pytest.raises(ShapeMismatchError):
        basis_from_obj(bad)


def test_word_round_trip():
    g = FreeNilpotentGroup(2, 3)
    word = [((1, 1), 2), ((2, 1), -3), ((1, 2), 1)]
    obj = word_to_obj(g, word)
    assert word_from_obj(g, obj) == word


def test_cocycle_family_round_trip():
    fam = (product_cocycle(2, 1, scale=3), zero_cocycle(2))
    obj = cocycle_family_to_obj(2, 3, fam)
    back = cocycle_family_from_obj(obj)
    assert back == fam
    assert isinstance(back[0], PolynomialCocycle)


def test_canonical_polys_obj_checks_out():
    for rank, nclass in ((2, 2), (2, 3)):
        obj = canonical_polys_to_obj(derive_hall_polynomials(rank, nclass))
        assert canonical_polys_parse_check(obj)
        assert obj["convention"]["rank"] == rank
        text = canonical_dumps(obj)
        assert canonical_dumps(json.loads(text)) == text


def test_lie_round_trip():
    for rank, nclass in ((2, 2), (2, 3), (3, 2)):
        lie = lazard_lie_ring(rank, nclass)
        back = lie_from_obj(lie_to_obj(lie))
        assert back.dims == lie.dims
        assert back.table == lie.table
        assert compare_graded_lie(back, free_nilpotent_lie(rank, nclass))


TARGET = {"index": 2, "coeff": "1"}
ROW = {"left": 1, "right": 0, "targets": [TARGET]}
LIE = {"dims": [2, 1], "label": "", "table": [ROW]}


def _lie(top={}, row={}, target={}):
    """The one-row Lie object LIE with keys replaced; a value of None drops the key."""

    def put(base, changes):
        return {k: v for k, v in {**base, **changes}.items() if v is not None}

    return put(LIE, {"table": [put(ROW, {"targets": [put(TARGET, target)], **row})], **top})


@pytest.mark.parametrize(
    "parse, obj",
    [
        (basis_from_obj, {}),
        (basis_from_obj, {"r": 2}),
        (basis_from_obj, {"r": [2], "c": 2}),
        (basis_from_obj, {"r": 2, "c": None}),
        (lie_from_obj, _lie(top={"table": None})),
        (lie_from_obj, _lie(top={"label": None})),
        (lie_from_obj, _lie(top={"dims": "21"})),
        (lie_from_obj, _lie(top={"dims": ["2", "1"]})),
        (lie_from_obj, _lie(row={"targets": None})),
        (lie_from_obj, _lie(row={"left": "1"})),
        (lie_from_obj, _lie(target={"index": "2"})),
        (lie_from_obj, _lie(target={"coeff": None})),
        (lie_from_obj, _lie(target={"coeff": "one"})),
        (lie_from_obj, _lie(target={"coeff": "1/0"})),
        (basis_from_obj, {**basis_to_obj(hall_basis(2, 1)), "c": True}),
        (lie_from_obj, _lie(top={"dims": [2, True]})),
        (lie_from_obj, _lie(row={"left": True})),
        (lie_from_obj, _lie(target={"index": True})),
        (lie_from_obj, _lie(target={"coeff": True})),
    ],
    ids=[
        "basis-empty",
        "basis-no-c",
        "basis-list-r",
        "basis-null-c",
        "lie-no-table",
        "lie-no-label",
        "lie-string-dims",
        "lie-string-dim",
        "lie-row-no-targets",
        "lie-row-string-left",
        "lie-string-index",
        "lie-no-coeff",
        "lie-word-coeff",
        "lie-zero-denominator",
        "basis-bool-c",
        "lie-bool-dim",
        "lie-row-bool-left",
        "lie-bool-index",
        "lie-bool-coeff",
    ],
)
def test_malformed_basis_and_lie_objects_are_shape_errors(parse, obj):
    assert lie_from_obj(_lie()).table == {(1, 0): {2: 1}}
    with pytest.raises(ShapeMismatchError):
        parse(obj)


def test_oversized_basis_and_lie_objects_are_refused_before_building(monkeypatch):
    from hallforge import jsonio

    def unreachable(*args, **kwargs):
        raise AssertionError("built before the size check")

    monkeypatch.setattr(jsonio, "hall_basis", unreachable)
    monkeypatch.setattr(jsonio, "GradedLieRing", unreachable)
    with pytest.raises(ScaleLimitError):
        basis_from_obj({"r": 400, "c": 2})
    with pytest.raises(ScaleLimitError):
        lie_from_obj(_lie(top={"dims": [10**7]}))
    with pytest.raises(ShapeMismatchError):
        lie_from_obj(_lie(top={"dims": [10**7, -(10**7)]}))


def test_float_coordinates_rejected():
    g = FreeNilpotentGroup(2, 2)
    with pytest.raises(NotInRingError):
        element_from_obj(g, {"r": 2, "c": 2, "coords": ["0.5", "0", "0"]})
