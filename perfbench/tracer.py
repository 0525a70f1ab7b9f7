"""Spans around calls into the package's layers, recorded from outside.

The tracer replaces package functions by timing wrappers for the traced
phase only and restores them afterwards.  A function is replaced under every
name a ``preorder_bca`` module binds it to, so calls between modules are
caught as well as calls from the benchmark.  A target that no longer exists
(a module or function removed by a later change) is recorded as missing;
the metrics of a layer whose targets are all missing are left out of the
report instead of crashing the run.

Each call becomes a span (operation id, layer, parent layer, start, end),
kept in memory.  Self time is a span's duration minus the time of the spans
it caused.  Streams (generators) are timed on every ``next`` and recorded as
one span per stream.  Hot leaves (``index_total``) are timed but not
recorded, so that memory stays small.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

from reference import fubini, star_subsets

PACKAGE = "preorder_bca"


class _Frame:
    __slots__ = ("layer", "child")

    def __init__(self, layer: str):
        self.layer = layer
        self.child = 0.0


class Tracer:
    def __init__(self):
        self.stack: list[_Frame] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.spans: list[tuple] = []
        self.op_id = 0
        self.missing: dict[str, list[str]] = defaultdict(list)
        self.present: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []
        self._star_memo: dict[tuple[int, ...], tuple[int, int]] = {}

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, layer: str) -> tuple[_Frame, _Frame | None]:
        parent = self.stack[-1] if self.stack else None
        frame = _Frame(layer)
        self.stack.append(frame)
        return frame, parent

    def _leave(self, frame: _Frame, parent: _Frame | None, dur: float) -> None:
        self.stack.pop()
        self.self_s[frame.layer] += dur - frame.child
        if parent is not None:
            parent.child += dur

    def _charge_parent(self, parent: _Frame | None, seconds: float) -> None:
        # time spent in the tracer's own hooks is not the caller's work
        if parent is not None:
            parent.child += seconds

    def call_wrapper(self, layer: str, fn, record: bool = True,
                     pre=None, post=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = pre(args) if pre is not None else None
            frame, parent = tracer._enter(layer)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._leave(frame, parent, t1 - t0)
                tracer.calls[layer] += 1
                if record:
                    tracer.spans.append((tracer.op_id, layer,
                                         parent.layer if parent else None,
                                         t0, t1))
            if post is not None:
                post(args, result, token)
                tracer._charge_parent(parent, perf_counter() - t1)
            return result

        return wrapper

    def stream_wrapper(self, layer: str, fn, yielded_key: str, pre=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args)
            tracer.calls[layer] += 1
            return _TracedStream(tracer, layer, fn(*args, **kwargs), yielded_key)

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for layer, module, attr, kind in TARGETS:
            target = self._resolve(module, attr)
            if target is None:
                self.missing[layer].append(f"{module}.{attr}")
                continue
            owner, name, fn = target
            self.present.add(layer)
            wrapper = self._make(layer, kind, fn)
            if isinstance(owner, type):
                self._patches.append((owner, name, fn))
                setattr(owner, name, wrapper)
            else:
                self._patch_everywhere(fn, wrapper)

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._patches):
            setattr(owner, name, fn)
        self._patches.clear()

    def missing_layers(self) -> list[str]:
        return sorted(set(self.missing) - self.present)

    def summary(self) -> list[str]:
        """One line per traced layer, busiest first: self time, calls, how
        many operations reached it, and which layers called it."""
        ops: defaultdict[str, set] = defaultdict(set)
        parents: defaultdict[str, Counter] = defaultdict(Counter)
        for op_id, layer, parent, *_ in self.spans:
            ops[layer].add(op_id)
            parents[layer][parent or "benchmark"] += 1
        lines = []
        for layer in sorted(self.self_s, key=self.self_s.get, reverse=True):
            line = (f"{layer}: self {self.self_s[layer] * 1000:.1f} ms, "
                    f"{self.calls[layer]} calls")
            if layer in ops:  # hot leaves keep no spans
                callers = ", ".join(f"{p} {n}"
                                    for p, n in parents[layer].most_common(3))
                line += f" in {len(ops[layer])} ops, from {callers}"
            lines.append(line)
        return lines

    def _resolve(self, module: str, attr: str):
        try:
            owner = importlib.import_module(f"{PACKAGE}.{module}")
        except ImportError:
            return None
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, name, None) if owner is not None else None
        if not callable(fn):
            return None
        return owner, name, fn

    def _patch_everywhere(self, fn, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE
                                   or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def _make(self, layer: str, kind: str, fn):
        counts = self.counts
        if kind == "call":
            return self.call_wrapper(layer, fn)
        if kind == "leaf":
            return self.call_wrapper(layer, fn, record=False)
        if kind == "sweep":
            def post(args, result, _):
                counts["kernels.sweep_candidates"] += fubini(args[0])
                counts["kernels.argmin_ties"] += len(result[1])
            return self.call_wrapper(layer, fn, post=post)
        if kind == "auto":
            def post(args, result, _):
                counts[f"solver.route_{result.method}"] += 1
            return self.call_wrapper(layer, fn, post=post)
        if kind == "duality":
            def post(args, result, yielded_before):
                counts["completions.duality_streamed"] += (
                    counts["completions.yielded"] - yielded_before)
                counts["completions.argmax"] += len(result.bca_set)
            return self.call_wrapper(
                layer, fn, pre=lambda args: counts["completions.yielded"],
                post=post)
        if kind == "condition_star":
            def post(args, result, _):
                subsets, nonempty = self._star(args[0].rows)
                counts["solver.condition_star_subsets"] += subsets
                counts["solver.condition_star_nonempty"] += nonempty
            return self.call_wrapper(layer, fn, post=post)
        if kind == "completions":
            return self.stream_wrapper(layer, fn, "completions.yielded")
        if kind == "preorders":
            def pre(args):
                n = args[0].n
                counts["completions.patterns_scanned"] += 1 << (n * (n - 1))
            return self.stream_wrapper(layer, fn, "completions.preorders_yielded",
                                       pre=pre)
        raise ValueError(f"unknown target kind {kind!r}")

    def _star(self, rows) -> tuple[int, int]:
        rows = tuple(rows)
        if rows not in self._star_memo:
            self._star_memo[rows] = star_subsets(rows)
        return self._star_memo[rows]


class _TracedStream:
    """Iterable over a stream whose every ``next`` is timed as the layer."""

    def __init__(self, tracer: Tracer, layer: str, inner, yielded_key: str):
        self._tracer = tracer
        self._layer = layer
        self._inner = inner
        self._it = None
        self._key = yielded_key
        self._first = None
        self._busy = 0.0

    def __iter__(self):
        if self._it is None:
            self._it = iter(self._inner)
        return self

    def __next__(self):
        tracer = self._tracer
        if self._it is None:
            self._it = iter(self._inner)
        frame, parent = tracer._enter(self._layer)
        t0 = perf_counter()
        if self._first is None:
            self._first = t0
        try:
            item = next(self._it)
        except StopIteration:
            t1 = perf_counter()
            tracer._leave(frame, parent, t1 - t0)
            tracer.spans.append((tracer.op_id, self._layer,
                                 parent.layer if parent else None,
                                 self._first, t1, self._busy + t1 - t0))
            raise
        except BaseException:
            tracer._leave(frame, parent, perf_counter() - t0)
            raise
        dur = perf_counter() - t0
        tracer._leave(frame, parent, dur)
        self._busy += dur
        tracer.counts[self._key] += 1
        return item


# (layer, module under preorder_bca, attribute, wrapper kind)
TARGETS = [
    ("cli.main", "cli", "main", "call"),
    ("documents.parse", "documents", "parse_document", "call"),
    ("documents.parse", "documents", "document_to_relation", "call"),
    ("documents.emit", "documents", "document_to_json", "call"),
    ("documents.emit", "documents", "document_from_relation", "call"),
    ("documents.emit", "documents", "document_from_total", "call"),
    ("documents.emit", "documents", "render_dot", "call"),
    ("documents.emit", "core", "TotalPreorder.render", "call"),
    ("core.validate", "core", "validate_preorder", "call"),
    ("core.validate", "core", "relation_violations", "call"),
    ("core.layers", "core", "layers", "call"),
    ("kernels.sweep", "_backend", "sweep_min_distance", "sweep"),
    ("metrics.fast_distance", "_backend", "fast_distance", "call"),
    ("completions.stream", "completions", "enumerate_completions", "completions"),
    ("completions.preorders", "completions", "enumerate_preorders", "preorders"),
    ("scoring.index_general", "scoring", "index_general", "call"),
    ("scoring.index_total", "scoring", "index_total", "leaf"),
    ("solver.auto", "solver", "bca_auto", "auto"),
    ("solver.bruteforce", "solver", "bca_bruteforce", "call"),
    ("solver.duality", "solver", "bca_duality", "duality"),
    ("solver.theorem5", "solver", "bca_theorem5", "call"),
    ("solver.condition_star", "solver", "condition_star", "condition_star"),
    ("solver.covering_radius", "solver", "covering_radius", "call"),
]
