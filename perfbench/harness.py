"""Set-up, the timed closed loop, the traced replay and answer checking.

One caller, one operation at a time, no threads.  The untraced run repeats
the workload's round patterns until ``seconds`` have passed and reports the
end-to-end metrics.  Each operation instance (a position in a pattern) thus
runs several times, at moments spread over the run and on renamed inputs
that cost the same; its latency is the fastest of those executions.  A
shared virtual machine (a 2-vCPU KVM guest, measured) can run the same call
up to 2x slower for stretches of seconds; the fastest of a few executions is
what stays put from run to run.  The quantiles and the throughput are taken
over the instances.

The traced run first repeats rounds untraced for half the time, then replays
the same operations, on fresh renamings, with the tracer installed; the
per-layer metrics come from the replay, and the ratio of the two totals is
the tracing overhead.  Answers are checked after the timed windows, and that
time counts in no end-to-end metric.
"""

from __future__ import annotations

import resource
import statistics
import sys
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

import catalog
from tracer import Tracer

# Set-ups per run: some before the timed window and the rest after the
# answers are checked, so that the median does not hang on one moment of a
# machine whose speed drifts.
SETUPS_BEFORE = 3
SETUPS_AFTER = 6
SHOWN_FAILURES = 5


# Execution numbers of the traced replay start here, so that its inputs are
# renamed afresh instead of repeating the untraced ones.
REPLAY_EXECUTIONS = 1_000_000


@dataclass
class Record:
    op: object
    instance: str
    variant: object
    result: object
    seconds: float
    error: BaseException | None = None


@dataclass
class Outcome:
    attempted: int
    failed: int
    metrics: dict[str, float]
    missing: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def _run(workload, op, instance: str, variant, in_process: bool) -> Record:
    t0 = perf_counter()
    try:
        result = workload.execute(op, variant, in_process)
    except Exception as exc:  # an operation that raises counts as failed
        return Record(op, instance, variant, None, perf_counter() - t0, exc)
    return Record(op, instance, variant, result, perf_counter() - t0)


def _setup(workload, times: int, seconds: list[float], build_ms: list[float]) -> None:
    """Set the workload up ``times`` times, recording each set-up's seconds
    and family build milliseconds."""
    for _ in range(times):
        t0 = perf_counter()
        build_ms.append(workload.setup())
        seconds.append(perf_counter() - t0)


def _timed_loop(workload, seconds: float, in_process: bool) -> list[Record]:
    """Run whole rounds until ``seconds`` have passed.  Stopping only between
    rounds keeps the mix of every run exactly the same."""
    patterns = workload.rounds()
    executions: Counter[str] = Counter()
    records: list[Record] = []
    start = perf_counter()
    i = 0
    while perf_counter() - start < seconds:
        p = i % len(patterns)
        for pos, op in enumerate(patterns[p]):
            instance = f"{p}.{pos}"
            variant = workload.prepare(op, instance, executions[instance])
            executions[instance] += 1
            records.append(_run(workload, op, instance, variant, in_process))
        i += 1
    return records


def _fastest(records: list[Record]) -> list[float]:
    """Milliseconds of each instance's fastest execution."""
    best: dict[str, float] = {}
    for rec in records:
        best[rec.instance] = min(best.get(rec.instance, rec.seconds), rec.seconds)
    return [s * 1000 for s in best.values()]


def _verify(workload, records: list[Record]) -> tuple[int, list[str]]:
    failed, shown = 0, []
    for rec in records:
        if rec.error is not None:
            problem = f"raised {type(rec.error).__name__}: {rec.error}"
        else:
            try:
                problem = workload.check(rec.op, rec.variant, rec.result)
            except Exception as exc:  # an unreadable answer is a wrong one
                problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is not None:
            failed += 1
            if len(shown) < SHOWN_FAILURES:
                shown.append(f"{rec.op.input} {rec.op.call}: {problem}")
    return failed, shown


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6  # ru_maxrss is KiB


def measure(workload, seconds: float) -> Outcome:
    setup_s: list[float] = []
    _setup(workload, SETUPS_BEFORE, setup_s, [])
    in_process = workload.in_process
    workload.warm_up()
    records = _timed_loop(workload, seconds, in_process)
    rss = _peak_rss_mb(children=not in_process)
    latencies = _fastest(records)
    t0 = perf_counter()
    failed, shown = _verify(workload, records)
    verify_s = perf_counter() - t0
    _setup(workload, SETUPS_AFTER, setup_s, [])
    deciles = statistics.quantiles(latencies, n=10)
    metrics = {
        "latency_p50_ms": deciles[4],
        "latency_p90_ms": deciles[8],
        "ops_per_s": len(latencies) / (sum(latencies) / 1000),
        "success_rate": (len(records) - failed) / len(records),
        "peak_rss_mb": rss,
        "setup_s": statistics.median(setup_s),
    }
    notes = [f"{len(records)} executions of {len(latencies)} operation "
             f"instances, verify_s {verify_s:.3f}, "
             f"error_rate {failed / len(records)}"] + shown
    return Outcome(len(records), failed, metrics, notes=notes)


def measure_traced(workload, seconds: float) -> Outcome:
    build_ms: list[float] = []
    _setup(workload, SETUPS_BEFORE, [], build_ms)
    plain = _timed_loop(workload, seconds / 2, True)
    # prepared before the tracer goes in, so that renaming is not traced
    replay = [(rec.op, rec.instance,
               workload.prepare(rec.op, rec.instance, REPLAY_EXECUTIONS + k))
              for k, rec in enumerate(plain)]
    tracer = Tracer()
    tracer.install()
    try:
        traced = []
        for k, (op, instance, variant) in enumerate(replay):
            tracer.op_id = k
            traced.append(_run(workload, op, instance, variant, True))
    finally:
        tracer.uninstall()
    extras = workload.trace_extras()
    overhead_pct = (sum(r.seconds for r in traced)
                    / sum(r.seconds for r in plain) - 1) * 100
    t0 = perf_counter()
    failed, shown = _verify(workload, plain + traced)
    verify_s = perf_counter() - t0
    ctx = catalog.TraceContext(tracer, len(traced), extras,
                               statistics.median(build_ms), overhead_pct, verify_s)
    metrics, missing = catalog.per_layer_values(ctx, tracer.missing_layers())
    notes = [f"ops {len(traced)} traced after {len(plain)} untraced, "
             f"{len(tracer.spans)} spans, error_rate {failed / (2 * len(plain))}"]
    notes += tracer.summary()
    notes += [f"missing target {t}" for targets in tracer.missing.values()
              for t in targets]
    return Outcome(2 * len(plain), failed, metrics, missing, notes + shown)


def print_notes(outcome: Outcome) -> None:
    for line in outcome.notes:
        print(f"# {line}")
    sys.stdout.flush()
