"""Span tracing for the benchmark's traced run.

The program itself carries no instrumentation, so the tracer wraps the
public functions of every layer module of ``cvn`` and the public methods
and cached properties of ``Polytope`` from outside.  A wrapper is bound in
every ``cvn`` module namespace that holds the original object by name, so
calls through ``from .polytope import feasible`` are seen as well as calls
through the defining module.

Each call becomes one span: name, start, end, parent span and op id.  A
generator gets one span per resume, so the work done between two yields is
charged to it and not to its consumer.  Spans live in flat arrays in
memory and are written out once the run ends.  Self time is a span's
duration minus the durations of its child spans; children of one span
never overlap because the program is single threaded.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

LAYERS = ("words", "graphs", "candidates", "metric", "polytope",
          "envelopes", "geodesics", "svg", "cli")

# cached functions whose hit ratio is reported, by the name used in metrics
CACHES = {
    "graphs.tighten": ("graphs", "_tighten_cached"),
    "graphs.marking_equivalent": ("graphs", "marking_equivalent"),
    "candidates.enumerate_candidates": ("candidates", "enumerate_candidates"),
}

_MARK = "__perfbench_traced__"
_now = time.perf_counter


class Tracer:
    """In-memory span store plus the work counters the layer metrics need."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.open_names = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.current_op = -1

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def is_open(self, name: str) -> bool:
        return self.open_names[self._ids.get(name, -1)] > 0

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self.stack.append(i)
        self.open_names[nid] += 1
        self.start.append(_now())
        return i

    def close(self, i: int) -> None:
        self.end[i] = _now()
        self.stack.pop()
        self.open_names[self.name[i]] -= 1

    def add_span(self, name: str, start: float, end: float, parent: int,
                 op: int = -1) -> int:
        """Append a finished span; used to build synthetic trees."""
        i = len(self.start)
        self.name.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.op.append(op)
        return i

    def __len__(self):
        return len(self.start)

    def self_times(self) -> list[float]:
        """Per span: duration minus the time covered by its child spans."""
        n = len(self.start)
        child = [0.0] * n
        for j in range(n):
            p = self.parent[j]
            if p >= 0:
                child[p] += self.end[j] - self.start[j]
        return [self.end[i] - self.start[i] - child[i] for i in range(n)]

    def self_by_name(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for i, s in enumerate(self.self_times()):
            nm = self.names[self.name[i]]
            out[nm] = out.get(nm, 0.0) + s
        return out

    def total(self, name: str) -> float:
        """Summed duration of the spans of one name, children included.
        Nested spans of the same name count once."""
        nid = self._ids.get(name, -1)
        return sum(self.end[i] - self.start[i] for i in range(len(self))
                   if self.name[i] == nid
                   and (self.parent[i] < 0
                        or not self._inside(self.parent[i], nid)))

    def _inside(self, i: int, nid: int) -> bool:
        while i >= 0:
            if self.name[i] == nid:
                return True
            i = self.parent[i]
        return False

    def dump(self) -> dict:
        """Plain-data form, for sending spans from a child process."""
        return {"names": self.names, "name": self.name.tolist(),
                "start": self.start.tolist(), "end": self.end.tolist(),
                "parent": self.parent.tolist(), "op": self.op.tolist(),
                "calls": dict(self.calls), "counts": dict(self.counts)}

    def merge(self, data: dict, op: int) -> None:
        """Append spans dumped by another tracer under one op id."""
        base = len(self.start)
        ids = [self.name_id(nm) for nm in data["names"]]
        for k in range(len(data["start"])):
            self.name.append(ids[data["name"][k]])
            self.start.append(data["start"][k])
            self.end.append(data["end"][k])
            p = data["parent"][k]
            self.parent.append(base + p if p >= 0 else -1)
            self.op.append(op)
        self.calls.update(data["calls"])
        self.counts.update(data["counts"])

    def write(self, path) -> None:
        """Write every span as a tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op\tname\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                fh.write(f"{self.op[i]}\t{self.names[self.name[i]]}\t"
                         f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t"
                         f"{self.parent[i]}\n")


# ---------------------------------------------------------------------------
# Work counters recorded at span boundaries.
# ---------------------------------------------------------------------------


def _after_feasible(tr, args, kwargs, result):
    hs = args[0] if args else kwargs["halfspaces"]
    tr.counts["polytope.feasible.rows"] += sum(
        1 for h in hs if not h.degenerate)
    tr.counts["polytope.feasible.yes"] += bool(result)


def _after_vertices(tr, args, kwargs, result):
    tr.counts["polytope.vertices.out"] += len(result)


def _after_support(tr, args, kwargs, result):
    tr.counts["envelopes.support.found"] += len(result.simplices)


def _after_geodesic(tr, args, kwargs, result):
    tr.counts["geodesics.breakpoints"] += len(result.breakpoints)


def _after_svg(tr, args, kwargs, result):
    tr.counts["svg.bytes"] += len(result.encode())


def _before_star(tr):
    if tr.is_open("envelopes.support"):
        tr.counts["envelopes.support.checked"] += 1


def _before_support(tr):
    if tr.is_open("geodesics.is_rigid"):
        tr.counts["geodesics.is_rigid.support_calls"] += 1


AFTER = {
    "polytope.feasible": _after_feasible,
    "polytope.vertices": _after_vertices,
    "envelopes.support": _after_support,
    "geodesics.piecewise_rigid_geodesic": _after_geodesic,
    "svg.render_envelope_svg": _after_svg,
}
BEFORE = {
    "envelopes.star_system": _before_star,
    "envelopes.support": _before_support,
}
YIELDS = {"words.conjugacy_classes_up_to": "words.classes_enumerated"}


def _wrap(tr: Tracer, name: str, fn):
    nid = tr.name_id(name)
    after = AFTER.get(name)
    before = BEFORE.get(name)
    if inspect.isgeneratorfunction(fn):
        counter = YIELDS.get(name)

        @functools.wraps(fn)
        def traced_gen(*args, **kwargs):
            tr.calls[name] += 1
            gen = fn(*args, **kwargs)
            while True:
                i = tr.open(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tr.close(i)
                if counter:
                    tr.counts[counter] += 1
                yield item

        setattr(traced_gen, _MARK, True)
        return traced_gen

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tr.calls[name] += 1
        if before:
            before(tr)
        i = tr.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.close(i)
        if after:
            after(tr, args, kwargs, result)
        return result

    setattr(traced, _MARK, True)
    return traced


def layer_functions() -> dict:
    """Public functions defined by each layer module, by traced name."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"cvn.{layer}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_"):
                continue
            if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                continue
            if getattr(obj, "__module__", None) == mod.__name__:
                out[f"{layer}.{attr}"] = obj
    return out


def _cvn_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "cvn" or n.startswith("cvn."))]


class Installed:
    """Wrappers bound into the cvn namespaces; ``remove`` restores them."""

    def __init__(self, tracer: Tracer):
        from cvn.polytope import Polytope

        self.saved: list[tuple[object, str, object]] = []
        originals = layer_functions()
        wrappers = {id(fn): _wrap(tracer, name, fn)
                    for name, fn in originals.items()}
        for mod in _cvn_modules():
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self.saved.append((mod, attr, obj))
                    setattr(mod, attr, w)
        for attr, obj in list(vars(Polytope).items()):
            if attr.startswith("_"):
                continue
            name = f"polytope.{attr}"
            if isinstance(obj, functools.cached_property):
                new = functools.cached_property(_wrap(tracer, name, obj.func))
                new.__set_name__(Polytope, attr)
            elif inspect.isfunction(obj):
                new = _wrap(tracer, name, obj)
            else:
                continue
            self.saved.append((Polytope, attr, obj))
            setattr(Polytope, attr, new)

    def remove(self) -> None:
        for owner, attr, obj in reversed(self.saved):
            setattr(owner, attr, obj)
        self.saved.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.remove()


def leftover_wrappers() -> list[str]:
    """Names in cvn namespaces still bound to a tracing wrapper."""
    from cvn.polytope import Polytope

    bad = []
    for mod in _cvn_modules():
        for attr, obj in vars(mod).items():
            if getattr(obj, _MARK, False):
                bad.append(f"{mod.__name__}.{attr}")
    for attr, obj in vars(Polytope).items():
        fn = obj.func if isinstance(obj, functools.cached_property) else obj
        if getattr(fn, _MARK, False):
            bad.append(f"Polytope.{attr}")
    return bad


def _unwrap(obj):
    return obj.__wrapped__ if getattr(obj, _MARK, False) else obj


def cache_stats() -> dict:
    """(hits, misses) of the reported caches since they were last cleared."""
    out = {}
    for name, (layer, attr) in CACHES.items():
        info = _unwrap(getattr(importlib.import_module(f"cvn.{layer}"),
                               attr)).cache_info()
        out[name] = (info.hits, info.misses)
    return out


def clear_caches() -> None:
    """Empty every lru_cache in the cvn package, wrapped or not."""
    for mod in _cvn_modules():
        for obj in vars(mod).values():
            obj = _unwrap(obj)
            if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info"):
                obj.cache_clear()


def layer_metrics(tr: Tracer, cache_hits: dict, import_s: float) -> dict:
    """The per-layer metrics, computed from spans and counters."""
    selfs = tr.self_by_name()
    calls = tr.calls
    counts = tr.counts
    m: dict[str, float] = {}
    for layer in LAYERS:
        pre = layer + "."
        m[f"{layer}.calls"] = sum(c for n, c in calls.items()
                                  if n.startswith(pre))
        m[f"{layer}.self_s"] = sum(s for n, s in selfs.items()
                                   if n.startswith(pre))

    def ratio(num, den):
        return num / den if den else 0.0

    m["words.conjugacy_classes_up_to.self_s"] = selfs.get(
        "words.conjugacy_classes_up_to", 0.0)
    m["words.classes_enumerated"] = counts["words.classes_enumerated"]
    m["graphs.tighten.calls"] = calls["graphs.tighten"]
    m["graphs.resolutions.self_s"] = selfs.get("graphs.resolutions", 0.0)
    m["graphs.resolutions.total_s"] = tr.total("graphs.resolutions")
    m["graphs.marking_equivalent.calls"] = calls["graphs.marking_equivalent"]
    m["graphs.adjacent_simplices.calls"] = calls["graphs.adjacent_simplices"]
    for name, (hits, misses) in cache_hits.items():
        m[f"{name}.hit_ratio"] = ratio(hits, hits + misses)
    m["metric.conj_length.calls"] = calls["metric.conj_length"]
    m["metric.stretch_report.calls"] = calls["metric.stretch_report"]
    m["polytope.feasible.calls"] = calls["polytope.feasible"]
    m["polytope.feasible.self_s"] = selfs.get("polytope.feasible", 0.0)
    m["polytope.feasible.rows"] = counts["polytope.feasible.rows"]
    m["polytope.feasible.yes_ratio"] = ratio(
        counts["polytope.feasible.yes"], calls["polytope.feasible"])
    m["polytope.vertices.calls"] = calls["polytope.vertices"]
    m["polytope.vertices.self_s"] = selfs.get("polytope.vertices", 0.0)
    m["polytope.vertices.out"] = counts["polytope.vertices.out"]
    m["polytope.skeleton_edges.self_s"] = selfs.get(
        "polytope.skeleton_edges", 0.0)
    m["envelopes.support.calls"] = calls["envelopes.support"]
    m["envelopes.support.checked"] = counts["envelopes.support.checked"]
    m["envelopes.support.found_ratio"] = ratio(
        counts["envelopes.support.found"], counts["envelopes.support.checked"])
    m["geodesics.piecewise_rigid_geodesic.self_s"] = selfs.get(
        "geodesics.piecewise_rigid_geodesic", 0.0)
    m["geodesics.breakpoints"] = counts["geodesics.breakpoints"]
    m["geodesics.is_rigid.self_s"] = selfs.get("geodesics.is_rigid", 0.0)
    m["geodesics.is_rigid.support_calls"] = counts[
        "geodesics.is_rigid.support_calls"]
    m["svg.bytes"] = counts["svg.bytes"]
    m["cli.import_s"] = import_s
    m["trace.spans"] = len(tr)
    return m
