"""Outside-in tracer for dunkl_osc.

The tracer wraps the library's functions from outside the package: every
public function of each layer module (plus a few private hooks named in
EXTRA), replaced at every ``dunkl_osc`` module attribute that binds it, so
calls made through ``from .x import f`` bindings are seen too.  Each call
records one span (layer, name, parent, start, end) in memory; spans are
kept on one stack per thread, and work that a thread pool runs is parented
to the pool call that submitted it.  ``summary`` turns the spans into
per-function call counts and busy time, per-layer self time and the few
counters named in the benchmark.  ``uninstall`` restores the originals.

Wrappers pass arguments and results through untouched, so tracing never
changes a numeric output; the benchmark checks that on every traced run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import Counter, defaultdict

LAYERS = ("special", "funcspace", "transforms", "projections", "seminorms",
          "classical_ops", "weights", "harness", "cli")

# private functions wrapped besides each layer's public ones
EXTRA = {"transforms": ("_cached",),
         "harness": ("_gate_members", "_map_ordered")}

# counters taken from a call's arguments: function -> (counter, measure)
COUNTERS = {
    # the cached real kernel that one hankel mat-vec streams, from its shape
    "transforms.hankel": ("transforms.hankel.kernel_bytes",
                          lambda alpha, f, output_grid: 8 * output_grid.n * f.grid.n),
    "special.bessel_j_normalized": ("special.bessel_j_normalized.points",
                                    lambda alpha, u: int(getattr(u, "size", 1))),
    "projections.build_family": ("projections.build_family.rows",
                                 lambda order, f, t_grid, *a, **kw: len(t_grid)),
}


class Span:
    __slots__ = ("layer", "name", "parent", "t0", "t1")

    def __init__(self, layer, name, parent, t0):
        self.layer = layer
        self.name = name
        self.parent = parent
        self.t0 = t0
        self.t1 = t0


def _union_length(intervals, lo, hi) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.pools: list[tuple[Span, int, int]] = []   # (span, threads, units)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, layer: str, name: str, parent: Span | None = None) -> Span:
        stack = self._stack()
        span = Span(layer, name, stack[-1] if stack else parent, time.perf_counter())
        self.spans.append(span)
        stack.append(span)
        return span

    def _exit(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        self._stack().pop()

    def _add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] += value

    # -- wrappers ----------------------------------------------------------

    def _wrapper(self, layer: str, name: str, fn):
        special = {"transforms.dunkl": self._wrap_dunkl,
                   "transforms._cached": self._wrap_cached,
                   "harness._gate_members": self._wrap_gate_members,
                   "harness._map_ordered": self._wrap_map_ordered}.get(f"{layer}.{name}")
        if special is not None:
            return functools.wraps(fn)(special(layer, name, fn))
        counter = COUNTERS.get(f"{layer}.{name}")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                self._add(counter[0], counter[1](*args, **kwargs))
            span = self._enter(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(span)

        return wrapper

    def _wrap_dunkl(self, layer, name, fn):
        # split by route: the direct route rebuilds a full-line kernel per call
        def wrapper(alpha, f, output_grid, route="decomposition"):
            span = self._enter(layer, f"{name}_{route}")
            try:
                return fn(alpha, f, output_grid, route)
            finally:
                self._exit(span)
        return wrapper

    def _wrap_cached(self, layer, name, fn):
        transforms = sys.modules["dunkl_osc.transforms"]

        def wrapper(key, build):
            built = []

            def timed_build():
                t0 = time.perf_counter()
                mat = build()
                built.append(time.perf_counter() - t0)
                return mat

            span = self._enter(layer, name)
            try:
                out = fn(key, timed_build)
            finally:
                self._exit(span)
            self._add("transforms.kernel_cache.lookups", 1)
            if built:
                self._add("transforms.kernel_cache.misses", 1)
                self._add("transforms.kernel_cache.build_s", built[0])
                # resident kernel bytes, from the cached arrays' shapes
                with transforms._cache_lock:
                    resident = sum(m.nbytes for m in transforms._matrix_cache.values())
                with self._lock:
                    self.counts["transforms.kernel_cache.bytes"] = max(
                        self.counts["transforms.kernel_cache.bytes"], resident)
            return out
        return wrapper

    def _wrap_gate_members(self, layer, name, fn):
        def wrapper(*args, **kwargs):
            span = self._enter(layer, name)
            try:
                keep, dropped = fn(*args, **kwargs)
            finally:
                self._exit(span)
            self._add("harness.gate.members_kept", len(keep))
            self._add("harness.gate.members_excluded", len(dropped))
            return keep, dropped
        return wrapper

    def _wrap_map_ordered(self, layer, name, fn):
        def wrapper(unit_fn, items, threads):
            pool = self._enter(layer, name)

            def unit(item):
                # pool threads start with an empty stack: parent to the pool
                span = self._enter("harness", "unit", parent=pool)
                try:
                    return unit_fn(item)
                finally:
                    self._exit(span)

            try:
                return fn(unit, items, threads)
            finally:
                self._exit(pool)
                self.pools.append((pool, max(1, int(threads)), len(items)))
        return wrapper

    # -- install / restore -------------------------------------------------

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module("dunkl_osc." + layer)
            for attr, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in EXTRA.get(layer, ()):
                    continue
                wrapped[id(obj)] = (obj, self._wrapper(layer, attr, obj))
        for modname, mod in list(sys.modules.items()):
            if modname != "dunkl_osc" and not modname.startswith("dunkl_osc."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    # -- summary -----------------------------------------------------------

    def summary(self, traced_wall_s: float) -> dict:
        """Per-function ``<layer>.<fn>.calls`` / ``.busy_s``, per-layer
        ``<layer>.self_s`` (span time minus the union of its child spans),
        the counters, pool efficiency and ``trace.coverage``: the summed
        self time over the thread time available, i.e. the traced wall plus
        one extra wall per extra pool thread while a pool ran."""
        children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[id(s.parent)].append((s.t0, s.t1))
        out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for s in self.spans:
            dur = s.t1 - s.t0
            key = f"{s.layer}.{s.name}"
            out[key + ".calls"] = out.get(key + ".calls", 0) + 1
            # busy time counts the outermost of nested calls of one function
            p = s.parent
            while p is not None and (p.layer, p.name) != (s.layer, s.name):
                p = p.parent
            if p is None:
                out[key + ".busy_s"] = out.get(key + ".busy_s", 0.0) + dur
            kids = children.get(id(s))
            self_s = dur - (_union_length(kids, s.t0, s.t1) if kids else 0.0)
            out[f"{s.layer}.self_s"] += self_s
        out.update(self.counts)
        lookups = self.counts["transforms.kernel_cache.lookups"]
        out["transforms.kernel_cache.hits"] = lookups - self.counts["transforms.kernel_cache.misses"]
        out["transforms.hankel.kernel_gbytes"] = self.counts["transforms.hankel.kernel_bytes"] / 1e9
        unit_s = sum(s.t1 - s.t0 for s in self.spans
                     if (s.layer, s.name) == ("harness", "unit"))
        offered = sum(threads * (span.t1 - span.t0) for span, threads, _ in self.pools)
        out["harness.pool.efficiency"] = unit_s / offered if offered > 0 else 0.0
        extra = sum(max(0, min(threads, units) - 1) * (span.t1 - span.t0)
                    for span, threads, units in self.pools)
        total_self = sum(out[f"{layer}.self_s"] for layer in LAYERS)
        out["trace.coverage"] = total_self / (traced_wall_s + extra)
        out["trace.spans"] = len(self.spans)
        return out
