"""Every definition in src/hochgysin has a caller outside the tests.

An AST scan lists each module-level function and class and each
non-dunder method of a module-level class, and looks for a reference to
it outside its own definition, in src/hochgysin/*.py or perfbench/*.py.
A function or class is referenced by a name, an attribute or an
imported name (an import in __init__.py, an export, counts), or by a
part of a dotted string in perfbench (perfbench/tracer.py names its
layers as strings such as "Subquotient.classify").  A method is
referenced only by an attribute `x.member`, or by "Class.member" in a
perfbench dotted string: a bare name, such as a parameter that happens
to share the method's name, does not count.  Attributes are matched
without their class, so a method that shares its name with an
np.ndarray attribute would count as referenced by numpy code; each such
method is listed in NDARRAY_NAMES with the caller that keeps it.  Tests
are not callers: a definition that only tests reach is deleted or moved
into the tests.
"""

import ast
import re
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "hochgysin").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))

# "Class.member" or "function" -> why it stays without a caller
ALLOWED = {}

# "Class.member" whose name is also an np.ndarray attribute -> its caller
NDARRAY_NAMES = {
    "HochschildCochain.shape": "hochschild.py calls it as a.shape(tup) for the block "
                               "shape of a tuple of degrees",
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _definitions(tree):
    """(qualified name, bare name, is a method, first line, last line) of
    each definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, False, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield (f"{node.name}.{item.name}", item.name, True,
                           item.lineno, item.end_lineno)


def _references(tree, strings):
    """(kind, name, line) of each reference in tree: "name" for a name or
    an imported name, "attr" for an attribute; with strings, "part" for
    each part of a dotted string constant and "member" for each pair
    "A.b" of adjacent parts."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield "name", node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield "attr", node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield "name", alias.name, node.lineno
        elif (strings and isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED.fullmatch(node.value)):
            parts = node.value.split(".")
            for part in parts:
                yield "part", part, node.lineno
            for pair in zip(parts, parts[1:]):
                yield "member", ".".join(pair), node.lineno


def _uncalled():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SRC + BENCH}
    refs = [(path, kind, name, line)
            for path, tree in trees.items()
            for kind, name, line in _references(tree, strings=path in BENCH)]
    out = []
    for path in SRC:
        for qual, name, method, first, last in _definitions(trees[path]):
            keys = {("attr", name), ("member", qual)} if method else \
                {("name", name), ("attr", name), ("part", name)}
            if not any((k, n) in keys and not (p == path and first <= line <= last)
                       for p, k, n, line in refs):
                out.append(qual)
    return out


def test_every_src_definition_has_a_caller():
    assert [q for q in _uncalled() if q not in ALLOWED] == []


def test_allowed_entries_are_still_uncalled():
    uncalled = _uncalled()
    assert [q for q in ALLOWED if q not in uncalled] == []


def test_ndarray_names_are_the_methods_numpy_shares():
    numpy_names = set(dir(np.ndarray))
    shared = {qual for path in SRC
              for qual, name, method, _, _ in _definitions(
                  ast.parse(path.read_text(encoding="utf-8")))
              if method and name in numpy_names}
    assert set(NDARRAY_NAMES) == shared
