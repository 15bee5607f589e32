"""Tests for canonical JSON encoding of every exchangeable object."""

import json
from fractions import Fraction
from random import Random

import pytest
from poly_oracle import canonical_polys_parse_check

from hallforge.basis import hall_basis
from hallforge.canonical import derive_hall_polynomials
from hallforge.deformation import PolynomialCocycle, product_cocycle, zero_cocycle
from hallforge.errors import NotInRingError, ShapeMismatchError
from hallforge.group import FreeNilpotentGroup
from hallforge.jsonio import (
    basis_to_obj,
    canonical_dumps,
    canonical_polys_to_obj,
    cocycle_family_from_obj,
    element_from_obj,
    element_to_obj,
    lie_to_obj,
    table_from_dict_obj,
    table_to_obj,
    word_from_obj,
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


def _label(tree):
    """The label of a basic commutator, rebuilt from its tree form."""
    if isinstance(tree, int):
        return f"x{tree}"
    return f"[{_label(tree[0])},{_label(tree[1])}]"


def test_basis_round_trip():
    # the written object decodes back to the basis: pairs, weights, labels, trees
    for rank, nclass in ((2, 3), (3, 2), (2, 5)):
        basis = hall_basis(rank, nclass)
        obj = json.loads(canonical_dumps(basis_to_obj(basis)))
        assert (obj["r"], obj["c"], obj["counts"]) == (rank, nclass, list(basis.counts))
        assert [tuple(e["index"]) for e in obj["entries"]] == list(basis.pairs)
        for e, entry in zip(obj["entries"], basis.entries):
            assert e["weight"] == entry.weight == e["index"][0]
            assert e["label"] == _label(e["tree"]) == entry.label()


def test_word_round_trip():
    g = FreeNilpotentGroup(2, 3)
    text = '[{"index":[1,1],"exp":"2"},{"index":[2,1],"exp":"-3"},{"index":[1,2],"exp":"1"}]'
    assert word_from_obj(g, json.loads(text)) == [((1, 1), 2), ((2, 1), -3), ((1, 2), 1)]


def test_cocycle_family_round_trip():
    fam = (product_cocycle(2, 1, scale=3), zero_cocycle(2))
    obj = {"r": 2, "c": 3, "cocycles": [[table_to_obj(t) for t in f.components] for f in fam]}
    back = cocycle_family_from_obj(json.loads(canonical_dumps(obj)))
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
    # the written rows decode back to the structure constants
    for rank, nclass in ((2, 2), (2, 3), (3, 2)):
        lie = lazard_lie_ring(rank, nclass)
        obj = json.loads(canonical_dumps(lie_to_obj(lie)))
        table = {
            (row["left"], row["right"]): {t["index"]: Fraction(t["coeff"]) for t in row["targets"]}
            for row in obj["table"]
        }
        assert obj["dims"] == list(lie.dims) and obj["label"] == lie.label
        assert table == lie.table
        assert compare_graded_lie(lie, free_nilpotent_lie(rank, nclass))


G21 = FreeNilpotentGroup(2, 1)
DROP = object()


def _put(base, changes):
    """base with keys replaced; a value of DROP drops the key, None is JSON null."""
    return {k: v for k, v in {**base, **changes}.items() if v is not DROP}


def _element(changes={}):
    return element_from_obj(G21, _put({"r": 2, "c": 1, "coords": ["0", "0"]}, changes))


def _word(changes={}):
    return word_from_obj(G21, [_put({"index": [1, 1], "exp": "1"}, changes)])


def _table(changes={}):
    return table_from_dict_obj([_put({"degrees": [1, 1], "coeff": "1"}, changes)], 2)


def _cocycles(value=[]):
    return cocycle_family_from_obj({} if value is DROP else {"cocycles": value})


# each case is one malformation of one field: every reader applies the same
# field rule, so no field may be missing, ill-typed or boolean
@pytest.mark.parametrize(
    "parse, arg",
    [
        (_element, {"r": DROP, "c": DROP, "coords": DROP}),
        (_element, {"c": DROP}),
        (_element, {"c": None}),
        (_element, {"r": [2]}),
        (_element, {"c": True}),
        (_element, {"r": True}),
        (_word, {"exp": DROP}),
        (_word, {"index": DROP}),
        (_word, {"index": "11"}),
        (_word, {"exp": True}),
        (_table, {"coeff": DROP}),
        (_table, {"coeff": "one"}),
        (_table, {"coeff": "1/0"}),
        (_table, {"coeff": True}),
        (_table, {"degrees": True}),
        (_table, {"degrees": "11"}),
        (_cocycles, DROP),
        (_cocycles, "11"),
        (_cocycles, ["11"]),
        (_cocycles, True),
    ],
    ids=[
        "element-empty",
        "element-no-c",
        "element-null-c",
        "element-list-r",
        "element-bool-c",
        "element-bool-r",
        "letter-no-exp",
        "letter-no-index",
        "letter-string-index",
        "letter-bool-exp",
        "table-no-coeff",
        "table-word-coeff",
        "table-zero-denominator",
        "table-bool-coeff",
        "table-bool-degrees",
        "table-string-degrees",
        "cocycles-missing",
        "cocycles-string",
        "cocycles-string-component",
        "cocycles-bool",
    ],
)
def test_malformed_objects_are_shape_errors(parse, arg):
    assert _element() == G21.identity() and _word() == [((1, 1), 1)]
    assert _table().as_dict() == {(1, 1): 1} and _cocycles() == ()
    with pytest.raises(ShapeMismatchError):
        parse(arg)


def test_repeated_table_degrees_are_shape_errors():
    term = {"degrees": [1, 1], "coeff": "1"}
    other = {"degrees": [2, 0], "coeff": "3"}
    assert table_from_dict_obj([term, other], 2).as_dict() == {(1, 1): 1, (2, 0): 3}
    for terms in ([term, dict(term, coeff="5")], [term, other, term]):
        with pytest.raises(ShapeMismatchError, match="twice"):
            table_from_dict_obj(terms, 2)


def test_float_coordinates_rejected():
    g = FreeNilpotentGroup(2, 2)
    with pytest.raises(NotInRingError):
        element_from_obj(g, {"r": 2, "c": 2, "coords": ["0.5", "0", "0"]})
