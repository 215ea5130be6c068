"""Every function the benchmark's tracer wraps must exist.

`perfbench/tracer.py` names the public entry points of each layer in
LAYERS, and `install()` raises on a missing one, so deleting or renaming
one of them would break the traced benchmark runs.  This reads LAYERS
without installing the tracer.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
