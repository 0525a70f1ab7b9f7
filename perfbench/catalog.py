"""Every metric the benchmark reports: unit, direction, whether it is
measured (a clock or a counter read during the run) or computed (derived
from the inputs by formula), and how it is obtained.

``BENCHMARK.json`` lists the same names and units; ``test_smoke.py`` checks
that the two agree.

End to end: an operation's latency is the fastest of its executions in the
run (see ``harness.py``); p50 and p90 are taken over the operations, and
``ops_per_s`` is operations per second of their summed latencies.
``success_rate`` counts every execution, so error_rate = 1 - success_rate.
``peak_rss_mb`` is the benchmark process, or for ``cli`` the largest CLI
process.  ``setup_s`` is the median of nine set-ups spread over the run.

Per layer: times are self time per operation, the time inside the layer's
spans minus the time of the spans they caused, divided by the number of
traced operations.  Counts are per operation as well.  A layer a workload
does not reach reports 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    basis: str  # "measured" or "computed"
    layer: str | None  # tracer layer the value needs, None if none
    value: Callable
    bound: float | None = None


class TraceContext:
    def __init__(self, tracer, ops: int, extras: dict, build_ms: float,
                 overhead_pct: float, verify_s: float):
        self.tracer = tracer
        self.ops = ops
        self.extras = extras
        self.build_ms = build_ms
        self.overhead_pct = overhead_pct
        self.verify_s = verify_s

    def self_ms(self, layer: str) -> float:
        return self.tracer.self_s.get(layer, 0.0) * 1000 / self.ops

    def calls(self, layer: str) -> float:
        return self.tracer.calls.get(layer, 0) / self.ops

    def count(self, key: str) -> float:
        return self.tracer.counts.get(key, 0) / self.ops

    def ratio(self, num: str, den: str) -> float:
        counts = self.tracer.counts
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    def fallback_frac(self) -> float:
        """Share of ``bca_auto`` calls that a route other than theorem 5
        answered."""
        auto = self.tracer.calls.get("solver.auto", 0)
        counts = self.tracer.counts
        fallbacks = counts.get("solver.route_duality", 0) + counts.get(
            "solver.route_bruteforce", 0)
        return fallbacks / auto if auto else 0.0


def _time(name: str, layer: str) -> Metric:
    return Metric(name, "ms/op", "lower", "measured", layer,
                  lambda c: c.self_ms(layer))


def _calls(name: str, layer: str) -> Metric:
    return Metric(name, "1/op", "lower", "measured", layer,
                  lambda c: c.calls(layer))


def _count(name: str, key: str, layer: str, basis: str = "measured",
           better: str = "lower") -> Metric:
    return Metric(name, "1/op", better, basis, layer, lambda c: c.count(key))


def _frac(name: str, num: str, den: str, layer: str, basis: str,
          better: str) -> Metric:
    return Metric(name, "frac", better, basis, layer, lambda c: c.ratio(num, den))


END_TO_END = [
    Metric("latency_p50_ms", "ms", "lower", "measured", None, None, 0.25),
    Metric("latency_p90_ms", "ms", "lower", "measured", None, None, 0.25),
    Metric("ops_per_s", "1/s", "higher", "measured", None, None, 0.25),
    Metric("success_rate", "frac", "higher", "measured", None, None, 0.01),
    Metric("peak_rss_mb", "MB", "lower", "measured", None, None, 0.1),
    Metric("setup_s", "s", "lower", "measured", None, None, 0.25),
]

PER_LAYER = [
    Metric("cli.interpreter_ms", "ms", "lower", "measured", None,
           lambda c: c.extras.get("cli.interpreter_ms", 0.0)),
    Metric("cli.import_ms", "ms", "lower", "measured", None,
           lambda c: c.extras.get("cli.import_ms", 0.0)),
    _time("cli.main_ms", "cli.main"),
    _time("documents.parse_ms", "documents.parse"),
    _time("documents.emit_ms", "documents.emit"),
    _time("core.validate_ms", "core.validate"),
    _time("core.layers_ms", "core.layers"),
    _time("kernels.sweep_ms", "kernels.sweep"),
    _calls("kernels.sweep_calls", "kernels.sweep"),
    _count("kernels.sweep_candidates", "kernels.sweep_candidates",
           "kernels.sweep", basis="computed"),
    _frac("kernels.argmin_frac", "kernels.argmin_ties",
          "kernels.sweep_candidates", "kernels.sweep", "measured", "higher"),
    _calls("metrics.fast_distance_calls", "metrics.fast_distance"),
    _time("metrics.fast_distance_ms", "metrics.fast_distance"),
    _time("completions.stream_ms", "completions.stream"),
    _count("completions.yielded", "completions.yielded", "completions.stream"),
    _frac("completions.argmax_frac", "completions.argmax",
          "completions.duality_streamed", "solver.duality", "measured", "higher"),
    _time("completions.preorders_ms", "completions.preorders"),
    _count("completions.patterns_scanned", "completions.patterns_scanned",
           "completions.preorders", basis="computed"),
    _frac("completions.preorders_yield_frac", "completions.preorders_yielded",
          "completions.patterns_scanned", "completions.preorders", "measured",
          "higher"),
    _time("scoring.index_general_ms", "scoring.index_general"),
    _calls("scoring.index_general_calls", "scoring.index_general"),
    _time("scoring.index_total_ms", "scoring.index_total"),
    _calls("scoring.index_total_calls", "scoring.index_total"),
    _time("solver.auto_ms", "solver.auto"),
    _time("solver.bruteforce_ms", "solver.bruteforce"),
    _time("solver.duality_ms", "solver.duality"),
    _time("solver.theorem5_ms", "solver.theorem5"),
    _time("solver.condition_star_ms", "solver.condition_star"),
    _time("solver.covering_radius_ms", "solver.covering_radius"),
    _count("solver.route_theorem5", "solver.route_theorem5", "solver.auto",
           better="higher"),
    _count("solver.route_duality", "solver.route_duality", "solver.auto"),
    _count("solver.route_bruteforce", "solver.route_bruteforce", "solver.auto"),
    Metric("solver.auto_fallback_frac", "frac", "lower", "measured", "solver.auto",
           lambda c: c.fallback_frac()),
    _count("solver.condition_star_subsets", "solver.condition_star_subsets",
           "solver.condition_star", basis="computed"),
    _frac("solver.condition_star_nonempty_frac", "solver.condition_star_nonempty",
          "solver.condition_star_subsets", "solver.condition_star", "computed",
          "higher"),
    Metric("families.build_ms", "ms", "lower", "measured", None,
           lambda c: c.build_ms),
    Metric("trace.overhead_pct", "%", "lower", "measured", None,
           lambda c: c.overhead_pct),
    Metric("bench.verify_s", "s", "lower", "measured", None,
           lambda c: c.verify_s),
]


def per_layer_values(ctx: TraceContext, missing_layers) -> tuple[dict, list]:
    """Values of every per-layer metric whose layer could be traced, and the
    names of those that could not."""
    values, missing = {}, []
    for m in PER_LAYER:
        if m.layer is not None and m.layer in missing_layers:
            missing.append(m.name)
        else:
            values[m.name] = m.value(ctx)
    return values, missing
