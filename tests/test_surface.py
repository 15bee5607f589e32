"""Every function, class and method of the library is public or has a caller.

The scan walks the AST of src/hallforge/. A definition (dunders excepted,
since Python calls those itself) counts as used when its name is in
hallforge.__all__, or when src/hallforge/ or perfbench/ calls it. A method
(a def in a class body) is called only through an ast.Attribute of its name,
or through a string constant equal to its name, which is how
perfbench/spans.py names the callables it wraps. A function or a class may
also be called by a bare ast.Name. Docstrings are prose, not references,
and are skipped. Code that only the tests call belongs under tests/. KEPT
lists each exception with its reason.
"""

import ast
from pathlib import Path

import hallforge

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "hallforge"
CALLERS = (LIBRARY, ROOT / "perfbench")

KEPT = {
    "FreeNilpotentGroup.conjugate": "the README advertises conjugation",
    "StructurePolynomials.polys": "the README documents the read-only polys view",
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _trees(folder):
    for path in sorted(folder.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def definitions():
    """key -> (name, is_method, 'path:line') of each non-dunder def and class under
    src/hallforge/; a method's key is Class.method, any other key is its name."""
    out = {}
    for path, tree in _trees(LIBRARY):
        for parent in ast.walk(tree):
            for node in ast.iter_child_nodes(parent):
                if isinstance(node, _DEFINITIONS) and not _is_dunder(node.name):
                    method = isinstance(parent, ast.ClassDef)
                    key = f"{parent.name}.{node.name}" if method else node.name
                    where = f"{path.relative_to(ROOT)}:{node.lineno}"
                    out.setdefault(key, (node.name, method, where))
    return out


def _collect(tree, calls, names):
    """Add the references of one module, outside docstrings: every ast.Attribute
    name and string constant to calls, every ast.Name to names."""
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, *_DEFINITIONS)) and ast.get_docstring(node):
            docstrings.add(id(node.body[0].value))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            calls.add(node.attr)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            calls.add(node.value)


def references():
    """(calls, names) over src/hallforge/ and perfbench/; see _collect."""
    calls, names = set(), set()
    for folder in CALLERS:
        for _, tree in _trees(folder):
            _collect(tree, calls, names)
    return calls, names


def unused():
    public = set(hallforge.__all__)
    calls, names = references()
    return {
        key: where
        for key, (name, method, where) in definitions().items()
        if name not in public and name not in calls and (method or name not in names)
    }


def test_scan_sees_the_library():
    defs = definitions()
    calls, names = references()
    assert len(defs) > 200
    # a plain call, a method called through an attribute, a span target named by string
    assert "check_config_types" in names
    assert {"solve", "series_from_coords"} <= calls
    assert "hall_basis" in defs and "FreeNilpotentGroup" in defs
    assert defs["FreeNilpotentGroup.mul"][1] and not defs["hall_basis"][1]


def test_a_method_is_not_called_by_a_bare_name_or_a_word_in_a_string():
    tree = ast.parse(
        "class A:\n"
        "    def entry(self):\n"
        "        'entry is called by entry()'\n"
        "    def named(self): pass\n"
        "    def used(self): pass\n"
        "entry = A()\n"
        "print(entry, 'one entry and named', 'named', entry.used)\n"
    )
    calls, names = set(), set()
    _collect(tree, calls, names)
    assert "entry" in names and "entry" not in calls
    assert {"named", "used"} <= calls


def test_every_definition_is_public_or_called():
    stray = {name: where for name, where in unused().items() if name not in KEPT}
    assert not stray, f"defined but neither in __all__ nor called: {stray}"


def test_kept_names_are_still_needed():
    # an exception that gained a caller, or lost its definition, leaves KEPT
    assert set(KEPT) <= set(unused())
