"""TBON benchmark: three closed-loop workloads, end to end or layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sum_waves --seed 1 --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with telemetry and
tracing off (the path users run).  ``--trace 1`` prints the per-layer
metrics: it measures an untraced half-window, installs the layer
wrappers (:mod:`layers`), builds a fresh tree and measures a traced
half-window; the two throughputs give ``trace.overhead_pct``.  The last
stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it say what ran (workload,
seed, tree, tail percentile and its sample count).  The exit code is 0
when every op was correct, 1 on any failed op or node error, 2 when the
checkout holds no program.

``--steadiness`` runs two interleaved sets of runs of one commit and
compares them (see :mod:`steady`).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import threading
import time
from typing import Any

import metrics
import paths

#: Fresh network constructions per end-to-end run: :data:`WARM_ROUNDS`
#: that warm imports and caches (the very first is the slowest) and are
#: not counted, then :data:`SETUP_ROUNDS` before the measured window and
#: as many after it.  ``setup_s`` is the median of the counted ones; the
#: two groups lie a window apart, so a burst of host noise during one
#: does not move the median.
WARM_ROUNDS = 3
SETUP_ROUNDS = 20
#: Equal-count slices of the measured window; throughput, median latency
#: and CPU per op are medians over them (see :func:`metrics.slice_medians`).
SLICES = 20
#: Constructions before the traced half of a traced run.
TRACED_SETUP_ROUNDS = WARM_ROUNDS + 5
WARMUP_S = 1.0
#: Measured window per run; ``run_seconds`` in BENCHMARK.json, the
#: length the bounds there were measured at.
DEFAULT_SECONDS = 35.0


def build(workload: Any, rounds: int, keep_last: bool = True) -> tuple[list[float], list[float]]:
    """Construct the workload's network ``rounds`` times.

    Each construction is timed from ``Network(...)`` until every back-end
    has seen every stream announced, then shut down, except that with
    ``keep_last`` the last one is bound to ``workload`` for the timed
    ops.  Returns the ``Network(...)`` and stream-announcement times of
    every round.
    """
    from repro import Network

    init_s: list[float] = []
    ready_s: list[float] = []
    for i in range(rounds):
        gc.collect()  # the previous tree's garbage is not this construction's cost
        t0 = time.perf_counter()
        net = Network(workload.topology, transport=workload.transport)
        t1 = time.perf_counter()
        streams = workload.open_streams(net)
        for be in net.backends:
            for s in streams:
                be.wait_for_stream(s.stream_id, timeout=30.0)
        t2 = time.perf_counter()
        init_s.append(t1 - t0)
        ready_s.append(t2 - t1)
        if keep_last and i == rounds - 1:
            workload.bind(net, streams)
        else:
            net.shutdown()
    return init_s, ready_s


def measure(workload: Any, seconds: float, warmup_s: float, **hooks: Any) -> Any:
    from workloads import closed_loop

    gc.collect()
    return closed_loop(
        workload.issue,
        workload.complete,
        depth=workload.depth,
        seconds=seconds,
        warmup_s=warmup_s,
        **hooks,
    )


def finish(workload: Any, stats: Any) -> None:
    """Shut the workload's network down; a node error or a failed
    shutdown is recorded in ``stats`` and makes the run incorrect."""
    try:
        workload.net.shutdown()
    except Exception as exc:  # noqa: BLE001 - reported, not raised
        stats.errors.append(f"shutdown: {type(exc).__name__}: {exc}")
    for rank, err in workload.net.node_errors().items():
        stats.errors.append(f"node {rank}: {type(err).__name__}: {err}")


def info(line: str) -> None:
    print(f"# {line}", flush=True)


def run_end_to_end(workload: Any, seconds: float, warmup_s: float) -> dict:
    before = build(workload, WARM_ROUNDS + SETUP_ROUNDS)
    stats = measure(workload, seconds, warmup_s)
    finish(workload, stats)
    # Peak memory of set-up and the timed ops, before the later constructions.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    after = build(workload, SETUP_ROUNDS, keep_last=False)
    setups = [a + b for a, b in zip(*before)][WARM_ROUNDS:] + [a + b for a, b in zip(*after)]
    values: dict[str, float] = {"setup_s": statistics.median(setups), "peak_rss_mb": peak_rss_mb}
    if stats.completed and stats.window_s > 0:
        pct, _, beyond, n = metrics.tail_percentile(stats.latencies)
        tail, k = metrics.sliced_percentile(stats.latencies, pct, SLICES)
        info(
            f"latency_tail_ms is p{pct:g} over {n} samples, {beyond} beyond it; "
            f"median of its value in {k} slices"
        )
        rate, p50, cpu = metrics.slice_medians(
            stats.opened_at, stats.cpu_open, stats.ends, stats.cpus, stats.latencies, SLICES
        )
        info(
            f"window {stats.window_s:.2f} s, {stats.completed / stats.window_s:.4g} ops/s overall, "
            f"{rate:.4g} ops/s median of {SLICES} slices"
        )
        values.update(
            throughput_per_s=rate,
            latency_p50_ms=1e3 * p50,
            latency_tail_ms=1e3 * tail,
            cpu_ms_per_op=1e3 * cpu,
        )
    return report(stats, values, metrics.END_TO_END)


def run_traced(workload: Any, seconds: float, warmup_s: float) -> dict:
    import layers
    from spans import SpanRecorder

    half = seconds / 2.0
    build(workload, 2)
    plain = measure(workload, half, warmup_s)
    finish(workload, plain)

    rec = SpanRecorder()
    values: dict[str, float] = {}

    def window_closed(stats: Any) -> None:
        # Read the layers before the in-flight ops drain into them.
        if stats.completed:
            values.update(
                layers.layer_metrics(
                    rec,
                    ops=stats.completed,
                    window_s=stats.window_s,
                    threads=threading.active_count(),
                )
            )

    uninstall = layers.install(rec)
    try:
        init_s, ready_s = build(workload, TRACED_SETUP_ROUNDS)
        stats = measure(workload, half, warmup_s, on_open=rec.reset, on_close=window_closed)
        finish(workload, stats)
    finally:
        uninstall()
    traced_rate = stats.completed / stats.window_s if stats.window_s > 0 else 0.0
    plain_rate = plain.completed / plain.window_s if plain.window_s > 0 else 0.0
    stats.attempted += plain.attempted
    stats.failed += plain.failed
    stats.errors += plain.errors
    if values and plain_rate > 0:
        values["trace.overhead_pct"] = 100.0 * (plain_rate - traced_rate) / plain_rate
        values["network.init_ms"] = 1e3 * statistics.median(init_s[WARM_ROUNDS:])
        values["network.stream_ready_ms"] = 1e3 * statistics.median(ready_s[WARM_ROUNDS:])
        info(f"throughput untraced {plain_rate:.1f}/s, traced {traced_rate:.1f}/s")
        reasons = layers.NOT_EXERCISED[workload.name]
        for name in metrics.PER_LAYER:
            if values[name] == 0:
                why = reasons.get(name, "no reason known: the layer should have been exercised")
                info(f"{name} reads 0: {why}")
        write_trace(workload, rec, values)
    return report(stats, values, metrics.PER_LAYER)


def write_trace(workload: Any, rec: Any, values: dict[str, float]) -> None:
    """Spans and aggregates of the traced window, written when the run ends."""
    paths.OUT_DIR.mkdir(exist_ok=True)
    out = paths.OUT_DIR / f"trace-{workload.name}-seed{workload.seed}.json"
    doc = {
        "workload": workload.name,
        "seed": workload.seed,
        "metrics": values,
        "spans": {k: {"calls": c, "total_s": t, "self_s": s} for k, (c, t, s) in rec.totals().items()},
        "samples": rec.samples(),
    }
    out.write_text(json.dumps(doc))
    info(f"spans written to {out.relative_to(paths.ROOT)}")


def report(stats: Any, values: dict[str, float], declared: dict) -> dict:
    for err in stats.errors:
        info(f"FAILED {err}")
    correct = stats.failed == 0 and not stats.errors and set(values) == set(declared)
    if not correct:
        values = {**{k: 0.0 for k in declared}, **values}
    return metrics.result_line(
        correct=correct,
        attempted=stats.attempted,
        failed=stats.failed,
        values=values,
        declared=declared,
    )


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="sum_waves", help="sum_waves, paradyn_poll, meanshift (or 'all' with --steadiness)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS, help="measured window per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", action="store_true", help="compare two interleaved sets of runs")
    p.add_argument("--runs", type=int, default=5, help="runs per set with --steadiness")
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        paths.use_checkout_source()
    except paths.ProgramMissing as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.steadiness:
        import steady

        return steady.main(args)

    import workloads
    from repro.telemetry import disable

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    disable()
    workload = workloads.make(args.workload, args.seed)
    info(f"workload={workload.name} seed={args.seed} trace={args.trace} {workload.describe()}")
    info("all socket traffic crosses the loopback interface")
    run = run_traced if args.trace else run_end_to_end
    result = run(workload, args.seconds, WARMUP_S)
    info(f"attempted={result['attempted']} failed={result['failed']}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
