"""Command-line front end.

Exit codes: 0 on success, 1 for usage errors, 2 when the library reports a
contract violation, 3 when a verification command finds a failing property.
Element arguments are JSON objects (inline or @file) of the form
{"r": 2, "c": 3, "coords": ["1", "0", "-2", ...]} with coordinates written
as decimal strings, rationals as "p/q". All JSON output is canonical:
sorted keys, no whitespace, so equal runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from random import Random

from .basis import hall_basis
from .canonical import DESK_SCALE_LIMIT, derive_hall_polynomials, derive_structure_polys
from .deformation import (
    DeformedGroup,
    assemble_extension_cocycle,
    check_cocycle,
    coboundary_split,
    iso_from_splittings,
)
from .errors import (
    BadRankError,
    HallforgeError,
    NotAHomomorphismError,
    OutOfClassError,
    ScaleLimitError,
    ShapeMismatchError,
)
from .group import FreeNilpotentGroup
from .jsonio import (
    _field,
    basis_to_obj,
    canonical_dumps,
    canonical_polys_to_obj,
    cocycle_family_from_obj,
    element_from_obj,
    element_to_obj,
    lie_to_obj,
    word_from_obj,
)
from .lie import (
    bilinear_from_lie,
    compare_graded_lie,
    endomorphism_pair_space,
    free_nilpotent_lie,
    lazard_lie_ring,
)
from .rings import QQ, ZZ
from .verify import run_all
from .words import Collector, petresco_sequence

RINGS = {"z": ZZ, "q": QQ}


class _Parser(argparse.ArgumentParser):
    """Argument parser that exits with code 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_config(sub, ring=True):
    sub.add_argument("--rank", type=int, required=True, help="number of generators")
    sub.add_argument(
        "--class", dest="nclass", type=int, required=True, help="nilpotency class"
    )
    if ring:
        sub.add_argument(
            "--ring",
            choices=sorted(RINGS),
            default="z",
            help="coordinate ring (default: z)",
        )


def _add_output(sub):
    sub.add_argument("--json", action="store_true", help="emit canonical JSON")
    sub.add_argument("--out", metavar="FILE", help="write the output to FILE")


def _config(args):
    rank, nclass = args.rank, args.nclass
    if rank < 2:
        raise BadRankError("the command line serves rank >= 2")
    if nclass < 2:
        raise OutOfClassError("the command line serves class >= 2")
    if rank + nclass > DESK_SCALE_LIMIT:
        raise ScaleLimitError(
            f"rank + class is limited to {DESK_SCALE_LIMIT} at the command line"
        )
    ring = RINGS[getattr(args, "ring", "z")]
    return rank, nclass, ring


def _load_json(text: str):
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ShapeMismatchError(f"cannot read {text[1:]}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ShapeMismatchError(f"invalid JSON argument: {exc}") from None


def _emit(args, obj, lines=None) -> None:
    if getattr(args, "json", False) or lines is None:
        text = canonical_dumps(obj)
    else:
        text = "\n".join(lines)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _element_lines(grp, g):
    return [
        f"{entry.label()} = {grp.ring.format(v)}"
        for entry, v in zip(grp.basis.entries, g.coords)
    ]


# -- subcommand handlers ---------------------------------------------------


def _cmd_basis(args) -> int:
    rank, nclass, _ = _config(args)
    basis = hall_basis(rank, nclass)
    lines = [f"{len(basis)} basic commutators (rank {rank}, class {nclass})"]
    for entry in basis.entries:
        i, j = entry.pair
        lines.append(f"({i},{j})  weight {entry.weight}  {entry.label()}")
    _emit(args, basis_to_obj(basis), lines)
    return 0


def _cmd_mul(args) -> int:
    rank, nclass, ring = _config(args)
    grp = FreeNilpotentGroup(rank, nclass, ring)
    a = element_from_obj(grp, _load_json(args.left))
    b = element_from_obj(grp, _load_json(args.right))
    out = grp.mul(a, b)
    _emit(args, element_to_obj(grp, out), _element_lines(grp, out))
    return 0


def _cmd_pow(args) -> int:
    rank, nclass, ring = _config(args)
    grp = FreeNilpotentGroup(rank, nclass, ring)
    g = element_from_obj(grp, _load_json(args.element))
    out = grp.pow(g, ring.parse(args.exponent))
    _emit(args, element_to_obj(grp, out), _element_lines(grp, out))
    return 0


def _cmd_inv(args) -> int:
    rank, nclass, ring = _config(args)
    grp = FreeNilpotentGroup(rank, nclass, ring)
    g = element_from_obj(grp, _load_json(args.element))
    out = grp.inv(g)
    _emit(args, element_to_obj(grp, out), _element_lines(grp, out))
    return 0


def _cmd_collect(args) -> int:
    rank, nclass, ring = _config(args)
    grp = FreeNilpotentGroup(rank, nclass, ring)
    collector = Collector(grp, derive_structure_polys(rank, nclass))
    letters = word_from_obj(grp, _load_json(args.word))
    out = collector.collect(letters)
    _emit(args, element_to_obj(grp, out), _element_lines(grp, out))
    return 0


def _cmd_hallpoly(args) -> int:
    rank, nclass, _ = _config(args)
    cp = derive_hall_polynomials(rank, nclass)
    _emit(args, canonical_polys_to_obj(cp))
    return 0


def _cmd_deform(args) -> int:
    rank, nclass, ring = _config(args)
    if ring is not ZZ:
        raise ShapeMismatchError("deformations are served over the integers")
    obj = _load_json("@" + args.cocycle)
    family = cocycle_family_from_obj(obj)
    file_rank, file_class = (_field(obj, key, int, "a cocycle file") for key in ("r", "c"))
    if (file_rank, file_class) != (rank, nclass):
        raise ShapeMismatchError(
            "cocycle file is for another configuration "
            f"(file says rank {file_rank}, class {file_class})"
        )
    if len(family) != rank:
        raise ShapeMismatchError(
            f"cocycle file lists {len(family)} cocycles, need one per generator"
        )
    base = FreeNilpotentGroup(rank, nclass, ZZ)
    n_top = base.basis.counts[-1]
    for f in family:
        if f.n_components != n_top:
            raise ShapeMismatchError(
                f"each cocycle needs {n_top} components at class {nclass}"
            )

    if args.action == "check":
        reports = [check_cocycle(f) for f in family]
        obj = {
            "r": rank,
            "c": nclass,
            "results": [
                {
                    "generator": k + 1,
                    "ok": rep.ok,
                    "mode": rep.mode,
                    "failures": list(rep.failures),
                }
                for k, rep in enumerate(reports)
            ],
            "ok": all(rep.ok for rep in reports),
        }
        lines = [
            f"generator {k + 1}: {'ok' if rep.ok else 'FAIL ' + '; '.join(rep.failures)}"
            for k, rep in enumerate(reports)
        ]
        _emit(args, obj, lines)
        return 0 if obj["ok"] else 3

    dgrp = DeformedGroup(base, family)
    if args.action == "mul":
        if args.left is None or args.right is None:
            raise ShapeMismatchError("the mul action needs two element arguments")
        a = element_from_obj(dgrp, _load_json(args.left))
        b = element_from_obj(dgrp, _load_json(args.right))
        out = dgrp.mul(a, b)
        _emit(args, element_to_obj(dgrp, out), _element_lines(base, out))
        return 0

    # action == "iso"
    splittings = [coboundary_split(f) for f in family]
    iso = iso_from_splittings(dgrp, splittings)
    try:
        iso.verify(Random(args.seed), samples=args.samples)
    except NotAHomomorphismError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 3
    ext = assemble_extension_cocycle(dgrp)
    obj = {
        "r": rank,
        "c": nclass,
        "verified_samples": args.samples,
        "isomorphism": "subtract the splitting of each cocycle on the top block",
        "extension_matches_product": ext.matches_deformed_mul(
            Random(args.seed + 1), samples=min(args.samples, 100)
        ),
    }
    lines = [
        f"splitting isomorphism verified on {args.samples} samples",
        f"extension product matches: {obj['extension_matches_product']}",
    ]
    _emit(args, obj, lines)
    return 0


def _cmd_lie(args) -> int:
    rank, nclass, _ = _config(args)
    if args.action == "constants":
        obj = {
            "group_side": lie_to_obj(lazard_lie_ring(rank, nclass)),
            "algebra_side": lie_to_obj(free_nilpotent_lie(rank, nclass)),
        }
        _emit(args, obj)
        return 0
    if args.action == "compare":
        equal = compare_graded_lie(
            lazard_lie_ring(rank, nclass), free_nilpotent_lie(rank, nclass)
        )
        _emit(args, {"equal": equal}, [f"structure constants equal: {equal}"])
        return 0 if equal else 3
    # action == "pf"
    bil = bilinear_from_lie(free_nilpotent_lie(rank, nclass))
    pairs = endomorphism_pair_space(bil)
    scalars = [p.scalar_value() for p in pairs]
    obj = {
        "dimension": len(pairs),
        "all_scalar": all(s is not None for s in scalars),
        "full": bil.is_full(),
        "nondegenerate": bil.is_nondegenerate(),
    }
    lines = [
        f"solution space dimension: {obj['dimension']}",
        f"all solutions scalar pairs: {obj['all_scalar']}",
        f"map full: {obj['full']}, nondegenerate: {obj['nondegenerate']}",
    ]
    _emit(args, obj, lines)
    return 0


def _cmd_petresco(args) -> int:
    rank, nclass, ring = _config(args)
    grp = FreeNilpotentGroup(rank, nclass, ring)
    xs = [element_from_obj(grp, _load_json(s)) for s in args.elements]
    upto = args.upto if args.upto is not None else nclass
    taus = petresco_sequence(grp, xs, upto)
    obj = {
        "r": rank,
        "c": nclass,
        "taus": [element_to_obj(grp, t) for t in taus],
    }
    lines = []
    for k, t in enumerate(taus, start=1):
        lines.append(f"tau_{k}:")
        lines.extend("  " + s for s in _element_lines(grp, t))
    _emit(args, obj, lines)
    return 0


def _cmd_verify(args) -> int:
    rank, nclass, ring = _config(args)
    results = run_all(rank, nclass, ring, seed=args.seed, samples=args.samples)
    ok = all(r.ok for r in results)
    obj = {
        "rank": rank,
        "class": nclass,
        "ring": ring.name,
        "seed": args.seed,
        "ok": ok,
        "results": [
            {"name": r.name, "ok": r.ok, "detail": r.detail} for r in results
        ],
    }
    lines = []
    for r in results:
        mark = "PASS" if r.ok else "FAIL"
        suffix = f"  ({r.detail})" if r.detail else ""
        lines.append(f"{mark}  {r.name}{suffix}")
    lines.append(f"{sum(r.ok for r in results)}/{len(results)} checks passed")
    _emit(args, obj, lines)
    return 0 if ok else 3


# -- parser ------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="hallforge", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sub = subs.add_parser("basis", help="list the basic commutators")
    _add_config(sub, ring=False)
    _add_output(sub)
    sub.set_defaults(run=_cmd_basis)

    sub = subs.add_parser("mul", help="multiply two elements")
    _add_config(sub)
    _add_output(sub)
    sub.add_argument("left", help="element JSON (inline or @file)")
    sub.add_argument("right", help="element JSON (inline or @file)")
    sub.set_defaults(run=_cmd_mul)

    sub = subs.add_parser("pow", help="raise an element to a ring exponent")
    _add_config(sub)
    _add_output(sub)
    sub.add_argument("element", help="element JSON (inline or @file)")
    sub.add_argument("exponent", help="exponent in the coordinate ring")
    sub.set_defaults(run=_cmd_pow)

    sub = subs.add_parser("inv", help="invert an element")
    _add_config(sub)
    _add_output(sub)
    sub.add_argument("element", help="element JSON (inline or @file)")
    sub.set_defaults(run=_cmd_inv)

    sub = subs.add_parser("collect", help="collect a word into normal form")
    _add_config(sub)
    _add_output(sub)
    sub.add_argument("word", help="word JSON (inline or @file)")
    sub.set_defaults(run=_cmd_collect)

    sub = subs.add_parser(
        "hallpoly", help="derive the canonical product and power polynomials"
    )
    _add_config(sub, ring=False)
    _add_output(sub)
    sub.set_defaults(run=_cmd_hallpoly)

    sub = subs.add_parser("deform", help="work with a deformed multiplication")
    _add_config(sub)
    _add_output(sub)
    sub.add_argument("action", choices=("check", "mul", "iso"))
    sub.add_argument(
        "--cocycle", required=True, metavar="FILE", help="cocycle family JSON file"
    )
    sub.add_argument("left", nargs="?", help="element JSON (mul action)")
    sub.add_argument("right", nargs="?", help="element JSON (mul action)")
    sub.add_argument("--seed", type=int, default=0, help="PRNG seed (iso action)")
    sub.add_argument(
        "--samples", type=int, default=200, help="sample count (iso action)"
    )
    sub.set_defaults(run=_cmd_deform)

    sub = subs.add_parser("lie", help="associated graded Lie ring computations")
    _add_config(sub, ring=False)
    _add_output(sub)
    sub.add_argument("action", choices=("constants", "compare", "pf"))
    sub.set_defaults(run=_cmd_lie)

    sub = subs.add_parser(
        "petresco", help="power-product correction terms of a tuple"
    )
    _add_config(sub)
    _add_output(sub)
    sub.add_argument("elements", nargs="+", help="element JSON (inline or @file)")
    sub.add_argument(
        "--upto", type=int, default=None, help="number of terms (default: class)"
    )
    sub.set_defaults(run=_cmd_petresco)

    sub = subs.add_parser("verify", help="run the property suites")
    _add_config(sub)
    _add_output(sub)
    sub.add_argument("--seed", type=int, default=0, help="PRNG seed")
    sub.add_argument(
        "--samples",
        type=int,
        default=None,
        help="cap every sampled check at this many samples",
    )
    sub.set_defaults(run=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except HallforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
