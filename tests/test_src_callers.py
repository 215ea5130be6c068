"""Every definition in src/hochgysin has a caller outside the tests.

An AST scan lists each module-level function and class and each
non-dunder method of a module-level class, and looks for a reference to
its name outside its own definition: a name or attribute in
src/hochgysin/*.py (an import in __init__.py, an export, counts), or a
name, attribute or dotted string (perfbench/tracer.py names its layers
as strings such as "Subquotient.classify") in perfbench/*.py.  Names are
matched without their class, so a method counts as referenced when any
attribute of that name is.  Tests are not callers: a definition that
only tests reach is deleted or moved into the tests.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "hochgysin").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))

# "Class.member" or "function" -> why it stays without a caller
ALLOWED = {
    "SNFResult.Vinv": "the fourth transform of the U M V = D contract, with U, Uinv and V",
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _definitions(tree):
    """(qualified name, bare name, first line, last line) of each definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield (f"{node.name}.{item.name}", item.name,
                           item.lineno, item.end_lineno)


def _references(tree, strings):
    """(name, line) of each name, attribute and imported name in tree; with
    strings, also each part of a dotted string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno
        elif (strings and isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED.fullmatch(node.value)):
            for part in node.value.split("."):
                yield part, node.lineno


def _uncalled():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SRC + BENCH}
    refs = [(path, name, line)
            for path, tree in trees.items()
            for name, line in _references(tree, strings=path in BENCH)]
    out = []
    for path in SRC:
        for qual, name, first, last in _definitions(trees[path]):
            if not any(n == name and not (p == path and first <= line <= last)
                       for p, n, line in refs):
                out.append(qual)
    return out


def test_every_src_definition_has_a_caller():
    assert [q for q in _uncalled() if q not in ALLOWED] == []


def test_allowed_entries_are_still_uncalled():
    uncalled = _uncalled()
    assert [q for q in ALLOWED if q not in uncalled] == []
