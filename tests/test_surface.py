"""Every function, class and method of the library is public or has a caller.

The scan walks the AST of src/hallforge/. A definition (dunders excepted,
since Python calls those itself) counts as used when its name is in
hallforge.__all__, or when src/hallforge/ or perfbench/ refers to it by
name: as an ast.Name, as an ast.Attribute, or as a word in a string
constant, which is how perfbench/spans.py names the callables it wraps.
Docstrings are prose, not references, and are skipped. Code that only the
tests call belongs under tests/. KEPT lists each exception with its reason.
"""

import ast
import re
from pathlib import Path

import hallforge

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "hallforge"
CALLERS = (LIBRARY, ROOT / "perfbench")

KEPT = {
    "conjugate": "FreeNilpotentGroup.conjugate: the README advertises conjugation",
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _trees(folder):
    for path in sorted(folder.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def definitions():
    """name -> 'path:line' of each non-dunder def and class under src/hallforge/."""
    out = {}
    for path, tree in _trees(LIBRARY):
        for node in ast.walk(tree):
            if isinstance(node, _DEFINITIONS) and not _is_dunder(node.name):
                out.setdefault(node.name, f"{path.relative_to(ROOT)}:{node.lineno}")
    return out


def references():
    """Every name that src/hallforge/ or perfbench/ uses, outside docstrings."""
    names = set()
    for folder in CALLERS:
        for _, tree in _trees(folder):
            docstrings = set()
            for node in ast.walk(tree):
                if isinstance(node, (ast.Module, *_DEFINITIONS)) and ast.get_docstring(node):
                    docstrings.add(id(node.body[0].value))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and id(node) not in docstrings
                ):
                    names.update(re.findall(r"\w+", node.value))
    return names


def unused():
    public = set(hallforge.__all__)
    used = references()
    return {
        name: where
        for name, where in definitions().items()
        if name not in public and name not in used
    }


def test_scan_sees_the_library():
    defs = definitions()
    used = references()
    assert len(defs) > 200
    # a plain call, a method called through an attribute, a span target named by string
    assert {"check_config_types", "solve", "series_from_coords"} <= used
    assert "hall_basis" in defs and "FreeNilpotentGroup" in defs


def test_every_definition_is_public_or_called():
    stray = {name: where for name, where in unused().items() if name not in KEPT}
    assert not stray, f"defined but neither in __all__ nor called: {stray}"


def test_kept_names_are_still_needed():
    # an exception that gained a caller, or lost its definition, leaves KEPT
    assert set(KEPT) <= set(unused())
