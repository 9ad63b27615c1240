"""Steadiness mode: two interleaved sets of runs of one commit.

``python3 perfbench/run.py --steadiness --workload all --runs 5 --seconds 35``
runs sets A and B alternately (A B, B A, A B, ...) as fresh processes,
run *i* of both sets on seed ``--seed + i``, so the two sets differ only
by noise, as a parent and a change of identical code would.  For each
end-to-end metric it prints both sets' medians and quartiles, the
difference between the set medians, and the interquartile spread of all
runs as a share of their median, next to the metric's bound from
``BENCHMARK.json``.

Noise on a shared machine is mostly per process: a fixed pure-Python
loop can take 0.6 s in one fresh process and 1.0 s in the next while
holding steady inside each.  More work per run and medians over runs is
the remedy; the table shows whether it is enough.
"""

from __future__ import annotations

import json
import subprocess
import sys
from typing import Any

import metrics
import paths

RUN_TIMEOUT_S = 300


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict[str, Any]:
    """One benchmark run in a fresh process; its final JSON object."""
    cmd = [
        sys.executable,
        str(paths.BENCH_DIR / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(
        cmd, cwd=paths.ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd)} printed nothing; stderr:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    return result


def bounds() -> dict[str, float]:
    path = paths.ROOT / "BENCHMARK.json"
    if not path.is_file():
        return {}
    doc = json.loads(path.read_text())
    return {m["name"]: float(m["bound"]) for m in doc.get("end_to_end", [])}


def compare(workload: str, runs: int, seed: int, seconds: float, trace: int) -> bool:
    sets: dict[str, list[dict[str, Any]]] = {"A": [], "B": []}
    for i in range(runs):
        for name in ("A", "B") if i % 2 == 0 else ("B", "A"):
            res = run_once(workload, seed + i, seconds, trace)
            sets[name].append(res)
            print(
                f"  {workload} set {name} seed {seed + i}: correct={res['correct']} "
                f"attempted={res['attempted']} failed={res['failed']}",
                flush=True,
            )
    ok = all(r["correct"] and r["exit_code"] == 0 for rs in sets.values() for r in rs)
    limit = bounds()
    print(f"\n{workload}: {runs} runs per set, {seconds:g} s each")
    print(
        f"{'metric':<30} {'A median [q1, q3]':>32} {'B median [q1, q3]':>32} "
        f"{'B-A':>8} {'spread':>8} {'bound':>6}"
    )
    for metric in sets["A"][0]["metrics"]:
        a = [r["metrics"][metric]["value"] for r in sets["A"]]
        b = [r["metrics"][metric]["value"] for r in sets["B"]]
        qa, qb = metrics.quartiles(a), metrics.quartiles(b)
        diff = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
        spread = metrics.relative_spread(a + b)
        bound = limit.get(metric)
        print(
            f"{metric:<30} {qa[1]:>12.4g} [{qa[0]:.4g}, {qa[2]:.4g}]".ljust(63)
            + f" {qb[1]:>12.4g} [{qb[0]:.4g}, {qb[2]:.4g}]".ljust(33)
            + f" {100 * diff:>+7.1f}% {100 * spread:>7.1f}% "
            + (f"{100 * bound:>5.0f}%" if bound is not None else "")
        )
    return ok


def main(args: Any) -> int:
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        ok &= compare(name, args.runs, args.seed, args.seconds, args.trace)
    return 0 if ok else 1
