"""Outside-in tracing of qsnet's layers, and the per-layer metrics of a trace.

A :class:`Tracer` replaces, at every import site inside the package, each
function another layer exports in its ``__all__`` (for example
``qsnet.network.embed_local`` and ``qsnet.scenarios.qfim_pure``) with a
wrapper that records a span. The ``__post_init__`` validation of exported
classes is wrapped on the class itself, because replacing the class at its
import sites would break ``isinstance`` checks. Spans stay in memory until
:meth:`Tracer.dump`; :meth:`Tracer.restore` puts every patched attribute
back. Nothing under ``src/`` changes.

A layer is the module that defines the function. Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import operator
import sys
import time
import types

LAYERS = ("cli", "scenarios", "sampling", "network", "hilbert", "states", "fisher", "reporting")
PACKAGE = "qsnet"


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # [name id, start, end, parent index or -1]
        self.spans: list[list] = []
        self.counters = {"embed_bytes": 0, "dense_bytes": 0, "bytes_written": 0, "max_dim": 0}
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording ------------------------------------------------------------

    def call(self, name: str, fn, /, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.spans)
        span = [ident, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        self._count(name, args, result)
        return result

    def _count(self, name: str, args, result) -> None:
        # Arguments are read after the call, once constructors have
        # validated them.
        counters = self.counters
        counters["max_dim"] = max(counters["max_dim"], _dim(result), *map(_dim, args))
        if name == "hilbert.embed_local":
            self.counters["embed_bytes"] += result.nbytes
        elif name == "network.global_generators":
            self.counters["dense_bytes"] += sum(g.nbytes for g in result)
        elif name in ("reporting.write_json", "reporting.write_csv"):
            self.counters["bytes_written"] += result.stat().st_size

    # -- patching -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        """Wrap every cross-layer import site of the loaded qsnet modules."""
        modules = {n: m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")}
        exported = {}
        for mod_name, mod in modules.items():
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr, None)
                if getattr(obj, "__module__", None) == mod_name:
                    exported[id(obj)] = (f"{mod_name.rsplit('.', 1)[-1]}.{attr}", obj)

        def foreign(obj, mod_name):
            return isinstance(obj, types.FunctionType) and id(obj) in exported and obj.__module__ != mod_name

        for mod_name, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if foreign(obj, mod_name):
                    self._replace(setattr, mod, attr, obj, self._wrap(exported[id(obj)][0], obj))
                elif isinstance(obj, dict):
                    # Dispatch tables such as ``cli._AUDITS`` hold their own
                    # references, taken at import time.
                    for key, value in list(obj.items()):
                        if isinstance(value, tuple) and any(foreign(v, mod_name) for v in value):
                            wrapped = tuple(self._wrap(exported[id(v)][0], v) if foreign(v, mod_name) else v for v in value)
                            self._replace(operator.setitem, obj, key, value, wrapped)
        for name, obj in exported.values():
            if isinstance(obj, type) and "__post_init__" in vars(obj):
                original = vars(obj)["__post_init__"]
                self._replace(setattr, obj, "__post_init__", original, self._wrap(name, original))

    def _replace(self, setter, owner, key, original, value) -> None:
        self._undo.append(functools.partial(setter, owner, key, original))
        setter(owner, key, value)

    def restore(self) -> None:
        """Put back every attribute and table entry :meth:`install` replaced."""
        while self._undo:
            self._undo.pop()()

    def dump(self, path) -> None:
        doc = {"names": self.names, "spans": self.spans, "counters": self.counters}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _dim(value) -> int:
    """Hilbert-space dimension carried by a traced argument or result."""
    shape = getattr(value, "shape", None)
    if shape is not None:
        return max(shape) if shape else 0
    dim = getattr(value, "dim", None) or getattr(value, "total_dim", None)
    if isinstance(dim, int):
        return dim
    if isinstance(value, (list, tuple)) and value and hasattr(value[0], "shape"):
        return max(value[0].shape)
    return 0


# --- metrics from a trace ------------------------------------------------------

FIELDS = ("calls", "self_s", "total_s")
# Functions reported on their own, beside the layer totals.
FUNCTION_METRICS = (
    ("hilbert.embed_local", "calls"),
    ("hilbert.embed_local", "self_s"),
    ("hilbert.matrix_from_json", "self_s"),
    ("network.global_generators", "total_s"),
    ("network.resource_count", "total_s"),
    ("fisher.qfim_pure", "self_s"),
    ("fisher.qfim_mixed", "self_s"),
    ("fisher.qcrb", "calls"),
    ("fisher.qcrb", "self_s"),
    ("states.separable_surrogate", "total_s"),
    ("states.purify", "self_s"),
    ("states.local_purification_probe", "total_s"),
)


def span_times(names: list[str], spans: list[list]):
    """Per-span self time, and whether each span is the outermost of its name.

    Children run inside their parent on one thread, so the time they cover
    is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for ident, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_times = [end - start - covered[i] for i, (_, start, end, _) in enumerate(spans)]
    outermost = []
    for ident, _, _, parent in spans:
        while parent >= 0 and spans[parent][0] != ident:
            parent = spans[parent][3]
        outermost.append(parent < 0)
    return self_times, outermost


def layer_metrics(trace: dict, wall_s: float) -> dict[str, float]:
    """Per-layer and per-function metrics of one traced run.

    ``<layer>.calls`` counts entries into a layer from another layer (or
    from the child wrapper); ``other.self_s`` is the traced wall time no
    layer span accounts for: interpreter start, imports and the wrapper.
    """
    names, spans = trace["names"], trace["spans"]
    self_times, outermost = span_times(names, spans)
    per_name: dict[str, list[float]] = {}  # name -> FIELDS
    layer_calls = dict.fromkeys(LAYERS, 0)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for i, (ident, start, end, parent) in enumerate(spans):
        name = names[ident]
        layer = layer_of(name)
        entry = per_name.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += self_times[i]
        if outermost[i]:
            entry[2] += end - start
        if layer in layer_self:
            layer_self[layer] += self_times[i]
            if parent < 0 or layer_of(names[spans[parent][0]]) != layer:
                layer_calls[layer] += 1
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = layer_calls[layer]
        out[f"{layer}.self_s"] = layer_self[layer]
    out["other.self_s"] = wall_s - sum(layer_self.values())
    for name, field in FUNCTION_METRICS:
        out[f"{name}.{field}"] = per_name.get(name, [0, 0.0, 0.0])[FIELDS.index(field)]
    counters = trace["counters"]
    out["hilbert.embed_bytes"] = counters["embed_bytes"]
    out["network.dense_bytes"] = counters["dense_bytes"]
    out["hilbert.max_dim"] = counters["max_dim"]
    out["reporting.bytes_written"] = counters["bytes_written"]
    out["scenarios.draws"] = per_name.get("sampling.trial_rng", [0])[0]
    return out
