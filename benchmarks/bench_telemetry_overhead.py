"""Experiment **telemetry-overhead** — cost of the telemetry plane.

Measures node throughput (the PR 1 fast-path benchmark: one fanout-16
communication process fed a backlog, wait_for_all + sum) in two modes:

* **disabled** — ``TELEMETRY.enabled`` is False, so every instrument
  call site is a single attribute check.  This must stay within noise
  of PR 1's ``BENCH_fastpath.json`` numbers.
* **enabled** — every hot point increments sharded counters and
  observes histograms.  Acceptance (docs/OBSERVABILITY.md): < 5%
  throughput overhead on a quiet machine.

``--bound PCT`` turns the overhead report into an assertion (used by
the CI smoke job with a loose bound to absorb shared-runner noise).

Run: ``PYTHONPATH=src python benchmarks/bench_telemetry_overhead.py
[--quick] [--bound 15]``
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_fastpath import bench_node_throughput  # noqa: E402
from repro.telemetry.registry import TELEMETRY  # noqa: E402


def measure_one(enabled: bool, fanout: int, waves: int) -> float:
    """One node-throughput run with telemetry on or off."""
    prev = TELEMETRY.enabled
    TELEMETRY.enabled = enabled
    try:
        return bench_node_throughput(fanout, waves)
    finally:
        TELEMETRY.enabled = prev


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true", help="CI smoke mode")
    ap.add_argument(
        "--bound",
        type=float,
        default=None,
        help="fail (exit 1) if enabled overhead exceeds this many percent",
    )
    ap.add_argument(
        "--out",
        default=str(REPO_ROOT / "BENCH_telemetry_overhead.json"),
        help="output path",
    )
    args = ap.parse_args()

    waves = 300 if args.quick else 3000
    repeats = 3 if args.quick else 5
    fanout = 16

    # Untimed warm-up: the first NodeRunner pays import and thread-pool
    # setup costs that would otherwise land entirely on the first mode.
    measure_one(False, fanout, min(waves, 300))

    # Interleave the two modes so machine-load drift hits both equally;
    # best-of-repeats per mode filters scheduler hiccups.
    disabled_pps = 0.0
    enabled_pps = 0.0
    for _ in range(repeats):
        disabled_pps = max(disabled_pps, measure_one(False, fanout, waves))
        enabled_pps = max(enabled_pps, measure_one(True, fanout, waves))
    overhead_pct = 100.0 * (1.0 - enabled_pps / disabled_pps)

    results = {
        "meta": {
            "quick": args.quick,
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "node_fanout16": {
            "waves": waves,
            "repeats": repeats,
            "disabled_pps": disabled_pps,
            "enabled_pps": enabled_pps,
            "overhead_pct": overhead_pct,
        },
    }
    Path(args.out).write_text(json.dumps(results, indent=2) + "\n")
    print(
        f"node fanout={fanout}: disabled {disabled_pps:,.0f} pkt/s, "
        f"enabled {enabled_pps:,.0f} pkt/s -> overhead {overhead_pct:.2f}%"
    )
    print(f"wrote {args.out}")

    if args.bound is not None and overhead_pct > args.bound:
        print(f"FAIL: overhead {overhead_pct:.2f}% exceeds bound {args.bound}%")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
