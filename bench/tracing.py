"""Span tracing around the public entry points of each refdyn layer.

The tracer wraps, from outside the package, every public function of each
layer module and the public methods of its public classes (plus `__init__`
and `__call__`, construction and evaluation).  Operator methods such as
`UniPoly.__mul__` stay unwrapped: like `Fraction` arithmetic, their time
counts to the layer that called them.  A function is rebound at every module
global that holds it, because `transitions`, `picard` and `cli` bind core
names with `from .core import ...`.  `refdyn.cli.ThreadPoolExecutor` is
replaced too, so the billiard pool's worker carries the operation id and the
parent span explicitly.  `uninstall` puts every original object back.

Each span records its name, start, end, parent span and operation id.  Self
time is a span's duration minus the time its direct child spans cover; it is
summed per layer as the spans close, and the first `SPAN_CAP` spans are kept
in memory for writing out at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

LAYERS = (
    "cli",
    "core.roots",
    "core.unipoly",
    "core.factor",
    "core.matrix",
    "core.numberfield",
    "core.multipoly",
    "core.series",
    "picard",
    "transitions",
    "reflection_maps",
    "germs",
    "billiards",
    "elliptic",
)

_WRAPPED_DUNDERS = {"__init__": "init", "__call__": "__call__"}
SPAN_CAP = 100_000  # spans kept in memory; later ones are only counted


def _wrappable_methods(cls):
    for attr, raw in list(vars(cls).items()):
        if attr.startswith("_") and attr not in _WRAPPED_DUNDERS:
            continue
        if isinstance(raw, (classmethod, staticmethod)):
            if inspect.isfunction(raw.__func__):
                yield attr, raw
        elif inspect.isfunction(raw):
            yield attr, raw


def targets():
    """(layer, owner, attribute, raw object, span name) for every traced entry
    point; `owner` is the defining module or class."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"refdyn.{layer}")
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out.append((layer, mod, name, obj, f"{layer}.{name}"))
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                for attr, raw in _wrappable_methods(obj):
                    label = _WRAPPED_DUNDERS.get(attr, attr)
                    out.append((layer, obj, attr, raw, f"{layer}.{obj.__name__}.{label}"))
    return out


def _modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n == "refdyn" or n.startswith("refdyn.")]


def bindings() -> dict:
    """Identity snapshot of every global of every refdyn module and every
    attribute of the classes they define, for checking that tracing left
    nothing behind."""
    snap = {}
    for mod in _modules():
        modname = mod.__name__
        for name, obj in vars(mod).items():
            snap[(modname, name)] = obj
            if inspect.isclass(obj) and obj.__module__ == modname:
                for attr, raw in vars(obj).items():
                    snap[(modname, f"{name}.{attr}")] = raw
    return snap


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.counters: Counter = Counter()
        # per span name: [calls, seconds, self seconds, raised]; per layer: [self seconds, raised]
        self._fn: dict[str, list] = {}
        self._layer: dict[str, list] = {layer: [0.0, 0] for layer in LAYERS}
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple] = []
        self._observers = {
            "germs.series_evolve": self._count_steps,
            "billiards.orbit_points": self._orbit_bits,
        }

    # -- aggregates ---------------------------------------------------------------

    def _column(self, table: dict, i: int) -> Counter:
        return Counter({k: v[i] for k, v in table.items()})

    calls = property(lambda self: self._column(self._fn, 0))
    seconds = property(lambda self: self._column(self._fn, 1))
    fn_self = property(lambda self: self._column(self._fn, 2))
    fn_raised = property(lambda self: self._column(self._fn, 3))
    self_s = property(lambda self: self._column(self._layer, 0))
    raised = property(lambda self: self._column(self._layer, 1))

    # -- observers on results ---------------------------------------------------

    def _count_steps(self, vals) -> None:
        with self._lock:
            self.counters["germs.series_evolve.steps"] += len(vals)

    def _orbit_bits(self, points) -> None:
        bits = max(
            max(c.numerator.bit_length(), c.denominator.bit_length())
            for pt in points
            for c in pt.coords
        )
        with self._lock:
            self.counters["billiards.orbit_coord_bits.max"] = max(
                self.counters["billiards.orbit_coord_bits.max"], bits
            )

    # -- operation context ------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._tls.op = op_id
        self._tls.stack = []

    def _wrap(self, fn, name: str, layer: str):
        tls, lock, ids, spans = self._tls, self._lock, self._ids, self.spans
        fn_stats = self._fn.setdefault(name, [0, 0.0, 0.0, 0])
        layer_stats = self._layer[layer]
        observe = self._observers.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tls, "stack", None)
            if stack is None:
                stack = tls.stack = []
            parent = stack[-1] if stack else getattr(tls, "inherited", None)
            frame = [next(ids), 0.0]
            stack.append(frame)
            failed = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                own = dur - frame[1]
                with lock:
                    fn_stats[0] += 1
                    fn_stats[1] += dur
                    fn_stats[2] += own
                    layer_stats[0] += own
                    if failed:
                        fn_stats[3] += 1
                        layer_stats[1] += 1
                    if parent is not None:
                        parent[1] += dur
                    if len(spans) < SPAN_CAP:
                        spans.append((frame[0], name, t0, t1,
                                      parent[0] if parent is not None else None,
                                      getattr(tls, "op", None)))
                    else:
                        tracer.spans_dropped += 1
            if observe is not None:
                observe(result)
            return result

        return traced

    def _executor_class(self):
        tls = self._tls

        class TracedExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = getattr(tls, "stack", None)
                parent = stack[-1] if stack else None
                op = getattr(tls, "op", None)

                def run(*a, **k):
                    tls.op, tls.inherited, tls.stack = op, parent, []
                    try:
                        return fn(*a, **k)
                    finally:
                        tls.op = tls.inherited = None

                return super().submit(run, *args, **kwargs)

        return TracedExecutor

    # -- install / uninstall ----------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _modules()
        for layer, owner, attr, raw, name in targets():
            if inspect.ismodule(owner):
                wrapped = self._wrap(raw, name, layer)
                for mod in modules:
                    for gname, value in list(vars(mod).items()):
                        if value is raw:
                            self._patch(mod, gname, wrapped)
            elif isinstance(raw, (classmethod, staticmethod)):
                self._patch(owner, attr, type(raw)(self._wrap(raw.__func__, name, layer)))
            else:
                self._patch(owner, attr, self._wrap(raw, name, layer))
        cli = sys.modules["refdyn.cli"]
        self._patch(cli, "ThreadPoolExecutor", self._executor_class())

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output -------------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0,
                                     "end": t1, "parent": parent, "op": op}) + "\n")
