"""Property-based invariants for the seeded chaos engine.

Each test sweeps seeds (``--chaos-seeds N``, or ``--chaos-seed S`` to
replay one): every seed derives its own random topology and fault
schedule inside :func:`repro.reliability.chaos.run_chaos`, so the sweep
covers ~N distinct (topology, schedule) combinations per transport.

The invariants cross-linked from docs/RELIABILITY.md:

* ``test_no_duplicate_wave_delivery`` — a wave result reaches the
  front-end at most once, even after duplicate/reorder faults;
* ``test_liveness_after_recovery`` — every wave from surviving
  back-ends eventually arrives (with exact sums) once the storm heals;
* ``test_membership_consistency`` — all surviving processes agree on
  the post-recovery topology;
* ``test_streams_announced`` — every surviving back-end holds the
  stream created before the storm, however the tree was cut;
* ``test_same_seed_identical_trace`` — same seed, byte-identical fault
  trace (the replay guarantee).

The invariant runs go over ``transport="tcp"`` (the reactor socket
transport).  Trace determinism runs on the thread transport where
per-edge ordinals are fully count-driven; ``crash``/``reset`` timing is
wall-clock and deliberately outside the trace contract.
"""

from __future__ import annotations

import pytest

from repro.core.topology import balanced_topology
from repro.reliability.chaos import (
    ChaosReport,
    ChaosSchedule,
    CrashFault,
    generate_schedule,
    run_chaos,
)

#: Full fault menu for the invariant runs: every kind, crash included.
STORM_KINDS = ("drop", "delay", "duplicate", "reorder", "partition", "reset", "crash")
#: Count-deterministic kinds for the byte-identical-trace guarantee.
TRACE_KINDS = ("drop", "delay", "duplicate", "reorder", "partition")

#: One chaos run per (seed, transport, kinds) serves every invariant
#: test — the properties are independent reads of the same experiment.
_RUNS: dict[tuple, ChaosReport] = {}


def storm_report(seed: int, transport: str = "tcp") -> ChaosReport:
    key = (seed, transport, STORM_KINDS)
    if key not in _RUNS:
        _RUNS[key] = run_chaos(seed, transport=transport, kinds=STORM_KINDS)
    return _RUNS[key]


# -- schedule purity ---------------------------------------------------------
def test_schedule_generation_is_pure():
    topo = balanced_topology(3, 2)
    a = generate_schedule(42, topo, STORM_KINDS, events=20, horizon=10)
    b = generate_schedule(42, topo, STORM_KINDS, events=20, horizon=10)
    assert a == b
    c = generate_schedule(43, topo, STORM_KINDS, events=20, horizon=10)
    assert a != c
    assert all(f.seq >= 1 for f in a.edge_faults)
    for crash in a.crashes:
        assert crash.rank in topo.internals


def test_schedule_rejects_unknown_kinds():
    with pytest.raises(ValueError, match="unknown fault kinds"):
        generate_schedule(1, balanced_topology(2, 2), ("drop", "gamma-rays"))


# -- invariants over the seed sweep ------------------------------------------
def test_no_duplicate_wave_delivery(chaos_seed):
    report = storm_report(chaos_seed)
    assert report.invariants["no_duplicate_delivery"], report.format()


def test_liveness_after_recovery(chaos_seed):
    report = storm_report(chaos_seed)
    assert report.invariants["all_waves_arrive"], report.format()
    assert report.invariants["wave_sums_exact"], report.format()
    assert not report.errors, report.format()


def test_membership_consistency(chaos_seed):
    report = storm_report(chaos_seed)
    assert report.invariants["membership_consistent"], report.format()
    if report.schedule.crashes:
        # A crashed internal node must actually have left the tree.
        assert report.n_processes_after <= report.n_processes_before


def test_streams_announced(chaos_seed):
    report = storm_report(chaos_seed)
    assert report.invariants["streams_announced"], report.format()


def test_same_seed_identical_trace(chaos_seed):
    first = run_chaos(chaos_seed, transport="thread", kinds=TRACE_KINDS)
    second = run_chaos(chaos_seed, transport="thread", kinds=TRACE_KINDS)
    assert first.schedule == second.schedule
    assert first.trace == second.trace
    assert first.ok and second.ok, first.format() + "\n" + second.format()


# -- hand-crafted schedules --------------------------------------------------
def test_crash_schedule_executes():
    """A schedule that is *only* a crash: kill, recover, verify."""
    topo = balanced_topology(3, 2)
    victim = topo.internals[0]
    schedule = ChaosSchedule(seed=0, crashes=(CrashFault(victim, after=1),))
    report = run_chaos(
        0, topology=topo, transport="tcp", schedule=schedule, waves=2
    )
    assert report.ok, report.format()
    assert report.invariants["streams_announced"]
    assert f"crash rank={victim} after=1" in report.trace
    assert report.n_processes_after == report.n_processes_before - 1


def test_report_format_mentions_invariants():
    report = storm_report(1)
    text = report.format()
    for name in report.invariants:
        assert name in text
    assert "verdict:" in text
