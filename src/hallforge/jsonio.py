"""JSON forms for everything the command line reads or writes.

All producers go through canonical_dumps so identical data serializes to
identical bytes: keys sorted, compact separators, lists emitted in a
documented deterministic order. Coordinates travel as decimal strings
("p/q" for non-integer rationals) so arbitrary precision survives.

Only the forms the command line reads have readers. Size limits live where
objects are built: hallforge.basis refuses oversized configurations, and
hallforge.rings refuses exponents and degrees above MAX_EXPONENT.
"""

from __future__ import annotations

import json

from .basis import HallBasis, hall_basis
from .canonical import CanonicalPolynomials
from .conventions import convention_header
from .deformation import PolynomialCocycle
from .errors import NotInRingError, ShapeMismatchError
from .group import GroupElement
from .lie import GradedLieRing
from .rings import ZZ, BinomialTable, Poly


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _field(obj, key: str, kind, what: str):
    """obj[key] for a JSON object obj whose key holds a value of type kind.

    No field is boolean, so JSON true and false are refused even where an
    int is expected (bool is an int subtype in Python).
    """
    value = obj.get(key) if isinstance(obj, dict) else None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ShapeMismatchError(f"{what} needs a well-typed {key!r} field")
    return value


# -- group elements ------------------------------------------------------------


def element_to_obj(group, g: GroupElement) -> dict:
    return {
        "r": group.rank,
        "c": group.nclass,
        "coords": [group.ring.format(a) for a in g.coords],
    }


def element_from_obj(group, obj: dict) -> GroupElement:
    coords = _field(obj, "coords", list, "an element object")
    rank, nclass = (_field(obj, key, int, "an element object") for key in ("r", "c"))
    if rank != group.rank or nclass != group.nclass:
        raise ShapeMismatchError(
            f"element is for rank {rank}, class {nclass}; "
            f"the group has rank {group.rank}, class {group.nclass}"
        )
    if not all(isinstance(s, str) for s in coords):
        raise ShapeMismatchError("element coordinates are written as strings")
    return group.element([group.ring.parse(s) for s in coords])


# -- basis ---------------------------------------------------------------------


def basis_to_obj(basis: HallBasis) -> dict:
    return {
        "r": basis.rank,
        "c": basis.nclass,
        "counts": list(basis.counts),
        "entries": [
            {
                "index": list(e.pair),
                "weight": e.weight,
                "label": e.label(),
                "tree": e.tree_obj(),
            }
            for e in basis.entries
        ],
    }


# -- words ---------------------------------------------------------------------


def word_from_obj(group, obj) -> list:
    if not isinstance(obj, list):
        raise ShapeMismatchError("a word is a JSON list of letters")
    out = []
    for item in obj:
        pair = tuple(_field(item, "index", list, "a letter"))
        out.append((pair, group.ring.parse(_field(item, "exp", str, "a letter"))))
    return out


# -- polynomials, binomial tables and cocycles ---------------------------------


def poly_to_obj(p: Poly) -> dict:
    """Variables header plus terms with decimal-string coefficients."""
    return {
        "variables": list(p.vars),
        "terms": [
            {"exps": list(e), "num": str(c.numerator), "den": str(c.denominator)}
            for e, c in sorted(p.terms.items())
        ],
    }


def table_to_obj(table) -> list:
    return [
        {"degrees": list(e), "coeff": str(c)} for e, c in table.coeffs
    ]


def table_from_dict_obj(obj, arity: int):
    if not isinstance(obj, list):
        raise ShapeMismatchError("a binomial table is a JSON list of terms")
    entries = {}
    for item in obj:
        degrees = tuple(_field(item, "degrees", list, "a table term"))
        coeff = _field(item, "coeff", (str, int), "a table term")
        try:
            entries[degrees] = coeff if isinstance(coeff, int) else ZZ.parse(coeff)
        except NotInRingError:
            raise ShapeMismatchError(f"table coefficient {coeff!r} is not an integer") from None
    return BinomialTable.from_dict(arity, entries)


def cocycle_family_from_obj(obj: dict) -> tuple:
    fams = _field(obj, "cocycles", list, "a cocycle file")
    out = []
    for components in fams:
        if not isinstance(components, list):
            raise ShapeMismatchError("each cocycle is a JSON list of component tables")
        out.append(
            PolynomialCocycle(
                table_from_dict_obj(comp, 2) for comp in components
            )
        )
    return tuple(out)


# -- canonical polynomials -----------------------------------------------------


def canonical_polys_to_obj(cp: CanonicalPolynomials) -> dict:
    basis = hall_basis(cp.rank, cp.nclass)
    pairs = basis.pairs
    return {
        "convention": convention_header(cp.rank, cp.nclass),
        "r": cp.rank,
        "c": cp.nclass,
        "mul_vars": list(cp.mul_vars),
        "pow_vars": list(cp.pow_vars),
        "p": [
            {
                "index": list(pair),
                "monomial": poly_to_obj(poly),
                "binomial": table_to_obj(table),
            }
            for pair, poly, table in zip(pairs, cp.p, cp.p_tables)
        ],
        "q": [
            {
                "index": list(pair),
                "monomial": poly_to_obj(poly),
                "binomial": table_to_obj(table),
            }
            for pair, poly, table in zip(pairs, cp.q, cp.q_tables)
        ],
    }


# -- graded Lie rings ----------------------------------------------------------


def lie_to_obj(L: GradedLieRing) -> dict:
    rows = []
    for (a, b) in sorted(L.table):
        targets = L.table[(a, b)]
        rows.append(
            {
                "left": a,
                "right": b,
                "targets": [
                    {"index": t, "coeff": str(targets[t])} for t in sorted(targets)
                ],
            }
        )
    return {"dims": list(L.dims), "label": L.label, "table": rows}
