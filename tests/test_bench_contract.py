"""Every name the benchmark reaches in hochgysin must exist.

`perfbench/tracer.py` names the public entry points of each layer in
LAYERS, and `install()` raises on a missing one, so deleting or renaming
one of them would break the traced benchmark runs.  This reads LAYERS
without installing the tracer.

`perfbench/workloads.py` calls hochgysin only through module attributes
(`exactlin.vec_is_zero`, `hochschild.CochainLayout.build`, ...), so a
deleted or renamed one fails every job of its workload.  This reads the
attribute chains from the file's syntax tree without running it.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKLOADS = PERFBENCH / "workloads.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


NAMES = [(layer, modname, name) for layer, (modname, names, _hook) in _layers().items()
         for name in names]


@pytest.mark.parametrize("layer,modname,name", NAMES,
                         ids=[f"{layer}:{name}" for layer, _, name in NAMES])
def test_layer_function_exists(layer, modname, name):
    module = importlib.import_module(f"hochgysin.{modname}")
    owner_name, _, attr = name.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        assert attr in owner.__dict__, f"{layer}: {modname}.{name} is gone"
        assert callable(getattr(owner, attr))
    else:
        assert callable(getattr(module, attr, None)), f"{layer}: {modname}.{name} is gone"


def _workload_attributes():
    """Sorted dotted chains such as "exactlin.vec_is_zero" that workloads.py
    reads on a hochgysin module it imports."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    modules = {"hochgysin"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "hochgysin":
            modules |= {alias.asname or alias.name for alias in node.names}
    chains = set()
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id in modules:
            chains.add(".".join([node.id, *reversed(parts)]))
    return sorted(chains)


ATTRIBUTES = _workload_attributes()


def test_workload_attributes_were_found():
    assert {"exactlin.vec_is_zero", "torus.symmetrize_matrix",
            "hochschild.CochainLayout.build"} <= set(ATTRIBUTES)


@pytest.mark.parametrize("chain", ATTRIBUTES)
def test_workload_attribute_exists(chain):
    root, *attrs = chain.split(".")
    obj = importlib.import_module("hochgysin" if root == "hochgysin" else f"hochgysin.{root}")
    for attr in attrs:
        assert hasattr(obj, attr), f"workloads.py reaches {chain}, which is gone"
        obj = getattr(obj, attr)
