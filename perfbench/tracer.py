"""Per-layer spans around the public functions of hochgysin, from outside.

A layer is one module's public entry point (for example `exactlin.snf`
is `smith_normal_form`).  `install()` wraps every function listed in
LAYERS and rebinds each name under which any hochgysin module holds it,
because modules call each other through `from .exactlin import ...`
bindings that a patch of the defining module alone would miss.

Time accounting, per span:

    self = span duration - (durations + bookkeeping of its child spans)

and for the whole traced interval

    wall = sum(self over all spans) + bookkeeping + remainder

where bookkeeping is the tracer's own work (reading shapes and
nonzeros), kept out of every span, and remainder is time spent outside
any span (the benchmark's glue and unwrapped helpers).  Counts (calls,
cells, nonzeros, bytes, bits) depend only on the inputs, so they repeat
exactly for a fixed job list.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter


def _snf_counts(args, kwargs, result):
    m = args[0] if args else kwargs["M"]
    cells = m.rows * m.cols
    return {"cells": cells, "nnz": int((m.data != 0).sum())}, {
        "max_cells": cells,
        # U, U^-1, V, V^-1 are kept as dense object matrices
        "max_transform_cells": 2 * (m.rows * m.rows + m.cols * m.cols)}


def _coboundary_matrix_counts(args, kwargs, result):
    return {"cells": result[0].rows * result[0].cols}, {}


def _bits(x) -> int:
    if isinstance(x, Fraction):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    return abs(int(x)).bit_length()


def _witness_counts(args, kwargs, result):
    witness = result[0]
    if witness is None:
        return {}, {}
    bits = max((_bits(x) for b in witness.blocks.values() for x in b.data.flat),
               default=0)
    return {}, {"max_bits": bits}


# layer -> (module, [function or Class.method names], counter hook)
LAYERS = {
    "simplicial.build": ("simplicial", ["build_torus", "product"], None),
    "dga.cochain_algebra": ("dga", ["cochain_algebra"], None),
    "dga.io": ("dga", ["dga_to_json", "dga_from_json"], None),
    "dga.validate": ("dga", ["validate", "validate_module"], None),
    "exactlin.snf": ("exactlin", ["smith_normal_form"], _snf_counts),
    "exactlin.hermite": ("exactlin", ["column_hermite"], None),
    "exactlin.solve": ("exactlin", ["solve", "solve_with_certificate",
                                    "solve_matrix"], None),
    "exactlin.subquotient": ("exactlin", ["Subquotient.from_gens_rels",
                                          "Subquotient.is_member",
                                          "Subquotient.classify"], None),
    "sections.build": ("sections", ["build_sections"], None),
    "sections.io": ("sections", ["sections_to_json", "sections_from_json"], None),
    "hochschild.coboundary": ("hochschild", ["coboundary"], None),
    "hochschild.coboundary_matrix": ("hochschild", ["coboundary_matrix"],
                                     _coboundary_matrix_counts),
    "hochschild.theta": ("hochschild", ["theta"], None),
    "hochschild.trivialize": ("hochschild", ["trivialize"], _witness_counts),
    "massey.triple": ("massey", ["massey_triple"], None),
    "gysin.extension": ("gysin", ["gysin_extension"], None),
    "gysin.cone_cohomology": ("gysin", ["cone_cohomology"], None),
    "gysin.exactness": ("gysin", ["check_extension_exactness"], None),
    "gysin.theorem_th": ("gysin", ["verify_theorem_th"], None),
    "gysin.split": ("gysin", ["split_extension"], None),
    "torus.monomorphism": ("torus", ["verify_monomorphism"], None),
    "torus.symmetrize": ("torus", ["symmetrize"], None),
}

# counters whose values must repeat exactly for a fixed seed and job list
SUM_COUNTERS = {
    "exactlin.snf": ("cells", "nnz"),
    "hochschild.coboundary_matrix": ("cells",),
    "sections.io": ("bytes",),
    "dga.io": ("bytes",),
}
MAX_COUNTERS = {
    "exactlin.snf": ("max_cells", "max_transform_cells"),
    "hochschild.trivialize": ("max_bits",),
}
# the per-layer metric names of the traced run, with units
CALL_COUNTED = ("exactlin.snf", "exactlin.subquotient", "exactlin.solve",
                "exactlin.hermite", "hochschild.coboundary_matrix",
                "hochschild.coboundary")


def layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for layer in LAYERS:
        out.append((f"{layer}.self_s", "s"))
        if layer in CALL_COUNTED:
            out.append((f"{layer}.calls", "count"))
        for key in SUM_COUNTERS.get(layer, ()):
            out.append((f"{layer}.{key}", "bytes" if key == "bytes" else "count"))
        for key in MAX_COUNTERS.get(layer, ()):
            out.append((f"{layer}.{key}", "bits" if key == "max_bits" else "count"))
    return out


class NullTracer:
    """Stands in for Tracer in untraced passes: spans and counts cost nothing."""

    active = False

    def span(self, layer):
        return _NULL_SPAN

    def count(self, key, n):
        pass


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects self time, calls and counters per layer while `active`."""

    def __init__(self):
        self.active = False
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(int)
        self.bookkeeping_s = 0.0
        self._stack = [[0.0]]   # frames hold the time their children took

    @property
    def covered_s(self) -> float:
        """Time inside top-level spans, their bookkeeping included."""
        return self._stack[0][0]

    def count(self, key, n):
        if self.active:
            self.counters[key] += n

    def span(self, layer):
        return _Span(self, layer)

    def _enter(self):
        self._stack.append([0.0])
        return perf_counter()

    def _leave(self, layer, start, end, entered, sums=None, maxes=None):
        frame = self._stack.pop()
        duration = end - start
        self.self_s[layer] += duration - frame[0]
        self.calls[layer] += 1
        for key, n in (sums or {}).items():
            self.counters[f"{layer}.{key}"] += n
        for key, n in (maxes or {}).items():
            name = f"{layer}.{key}"
            self.counters[name] = max(self.counters[name], n)
        book = (start - entered) + (perf_counter() - end)
        self.bookkeeping_s += book
        self._stack[-1][0] += duration + book

    def wrap(self, layer, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            entered = perf_counter()
            start = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._leave(layer, start, perf_counter(), entered)
                raise
            end = perf_counter()
            sums, maxes = hook(args, kwargs, result) if hook else (None, None)
            tracer._leave(layer, start, end, entered, sums, maxes)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def metrics(self) -> dict:
        out = {}
        for name, _unit in layer_metrics():
            layer, _, key = name.rpartition(".")
            if key == "self_s":
                out[name] = self.self_s.get(layer, 0.0)
            elif key == "calls":
                out[name] = self.calls.get(layer, 0)
            else:
                out[name] = self.counters.get(name, 0)
        return out


class _Span:
    """A span opened by the benchmark's own code (for example JSON text I/O)."""

    def __init__(self, tracer, layer):
        self.tracer = tracer
        self.layer = layer

    def __enter__(self):
        if self.tracer.active:
            self.entered = perf_counter()
            self.start = self.tracer._enter()
        return self

    def __exit__(self, *exc):
        if self.tracer.active:
            self.tracer._leave(self.layer, self.start, perf_counter(), self.entered)
        return False


def install(tracer: Tracer) -> int:
    """Wrap every LAYERS function and rebind all its names; returns the count
    of rebound names.  Raises when a listed function does not exist."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "hochgysin" or name.startswith("hochgysin.")]
    wrappers = {}
    for layer, (modname, names, hook) in LAYERS.items():
        module = importlib.import_module(f"hochgysin.{modname}")
        for name in names:
            owner_name, _, attr = name.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapped = tracer.wrap(layer, fn, hook)
                setattr(owner, attr,
                        staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
            else:
                fn = getattr(module, attr)
                wrappers[id(fn)] = (fn, tracer.wrap(layer, fn, hook))
    rebound = 0
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                rebound += 1
    return rebound
