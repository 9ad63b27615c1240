"""Tests for the TBON performance models (phase + streaming)."""

from __future__ import annotations

import pytest

from repro.bench.harness import run_logscale_table
from repro.core.errors import SimulationError
from repro.core.topology import balanced_topology, deep_topology, flat_topology
from repro.simulate import (
    REFERENCE_MODEL,
    meanshift_deep_topology,
    meanshift_sim,
    paradyn_report_stream,
)
from repro.simulate.simnet import (
    SimCosts,
    SimStreamingTBON,
    SimTBON,
    WaveMessage,
)


def trivial_leaf(cpu=1.0, nbytes=100.0):
    def leaf_fn(rank):
        return cpu, WaveMessage(nbytes=nbytes, meta=1)

    return leaf_fn


def counting_merge(cpu=0.0, nbytes=100.0):
    def merge_fn(rank, msgs):
        return cpu, WaveMessage(nbytes=nbytes, meta=sum(m.meta for m in msgs))

    return merge_fn


class TestSimTBONPhase:
    def test_root_result_counts_all_leaves(self):
        topo = balanced_topology(3, 2)
        rep = SimTBON(topo, SimCosts(), trivial_leaf(), counting_merge()).run()
        assert rep.root_result.meta == 9

    def test_completion_time_lower_bound(self):
        """Completion >= leaf compute + minimal transit."""
        topo = flat_topology(4)
        costs = SimCosts()
        rep = SimTBON(topo, costs, trivial_leaf(cpu=2.0), counting_merge()).run()
        assert rep.completion_time > 2.0

    def test_parallel_leaves_beat_serial_sum(self):
        """N leaves at 1s each must finish far sooner than N seconds."""
        topo = flat_topology(8)
        rep = SimTBON(topo, SimCosts(), trivial_leaf(cpu=1.0), counting_merge()).run()
        assert rep.completion_time < 2.0

    def test_frontend_serial_ingest_scales_with_fanout(self):
        """Flat root busy time grows linearly with fan-out."""
        costs = SimCosts(per_msg_cpu=1e-3)
        t_small = SimTBON(
            flat_topology(8), costs, trivial_leaf(cpu=0.0), counting_merge()
        ).run()
        t_big = SimTBON(
            flat_topology(64), costs, trivial_leaf(cpu=0.0), counting_merge()
        ).run()
        assert t_big.node_busy[0] > 6 * t_small.node_busy[0]

    def test_deep_tree_distributes_ingest(self):
        costs = SimCosts(per_msg_cpu=1e-3)
        flat = SimTBON(
            flat_topology(64), costs, trivial_leaf(cpu=0.0), counting_merge()
        ).run()
        deep = SimTBON(
            deep_topology(64, 8), costs, trivial_leaf(cpu=0.0), counting_merge()
        ).run()
        assert deep.node_busy[0] < flat.node_busy[0] / 4

    def test_merge_cost_charged_per_node(self):
        topo = balanced_topology(2, 2)
        rep = SimTBON(
            topo, SimCosts(), trivial_leaf(cpu=0.0), counting_merge(cpu=0.5)
        ).run()
        # Three merging nodes (2 internal + root) on the critical path:
        # internal merges run concurrently, root's runs after.
        assert rep.completion_time >= 1.0
        assert rep.completion_time < 1.6

    def test_determinism(self):
        topo = deep_topology(48, 7)
        r1 = SimTBON(topo, SimCosts(), trivial_leaf(), counting_merge()).run()
        r2 = SimTBON(topo, SimCosts(), trivial_leaf(), counting_merge()).run()
        assert r1.completion_time == r2.completion_time
        assert r1.node_busy == r2.node_busy

    def test_busiest_node_is_root_for_flat(self):
        costs = SimCosts(per_msg_cpu=1e-3)
        rep = SimTBON(
            flat_topology(32), costs, trivial_leaf(cpu=0.0), counting_merge()
        ).run()
        rank, _busy = rep.busiest_node()
        assert rank == 0

    def test_nonpositive_speed_rejected(self):
        sim = SimTBON(
            flat_topology(2),
            SimCosts(),
            trivial_leaf(),
            counting_merge(),
            node_speed=lambda rank: 0.0,
        )
        with pytest.raises(SimulationError, match="speed must be positive"):
            sim.run()


class TestStreaming:
    def test_unsaturated_small_flat(self):
        s = SimStreamingTBON(
            flat_topology(4),
            SimCosts(),
            report_bytes=512,
            report_interval=0.5,
            duration=5.0,
            aggregate=False,
            frontend_cpu_per_report=1e-3,
        ).run()
        assert not s.saturated
        assert s.delivered_waves > 0

    def test_saturation_under_heavy_analysis(self):
        s = SimStreamingTBON(
            flat_topology(64),
            SimCosts(),
            report_bytes=512,
            report_interval=0.1,
            duration=5.0,
            aggregate=False,
            frontend_cpu_per_report=5e-3,  # 64 * 10/s * 5ms = 3.2x capacity
        ).run()
        assert s.saturated
        assert s.frontend_utilization > 0.99

    def test_aggregation_prevents_saturation(self):
        kwargs = dict(
            report_bytes=512,
            report_interval=0.1,
            duration=5.0,
            frontend_cpu_per_report=5e-3,
        )
        flat = SimStreamingTBON(
            flat_topology(64), SimCosts(), aggregate=False, **kwargs
        ).run()
        tree = SimStreamingTBON(
            deep_topology(64, 8), SimCosts(), aggregate=True, **kwargs
        ).run()
        assert flat.saturated and not tree.saturated
        # The tree front-end consumes one aggregated wave per interval.
        assert tree.frontend_utilization < 0.2

    def test_offered_vs_delivered_accounting(self):
        s = SimStreamingTBON(
            flat_topology(2),
            SimCosts(),
            report_bytes=64,
            report_interval=1.0,
            duration=3.5,
            aggregate=False,
        ).run()
        # Each daemon reports at t=0,1,2,3 -> 8 offered.
        assert s.offered_waves == 8
        assert s.delivered_waves == 8


class TestPinnedNumbers:
    """The paper-shape series, pinned exactly.

    Recorded from the simulator before it ran on the production
    NodeRunner; any change to the cost model or to the order in which
    the node loop sends shows up here as an inequality.
    """

    @pytest.mark.parametrize(
        "n,flat,deep",
        [
            (16, 0.4336842879999998, 0.34479410399999993),
            (64, 2.398787295999999, 0.4785054559999997),
            (324, 53.837849256, 1.1811628959999996),
        ],
    )
    def test_fig4_reference_model(self, n, flat, deep):
        t_flat = meanshift_sim(flat_topology(n), REFERENCE_MODEL).run().completion_time
        t_deep = (
            meanshift_sim(meanshift_deep_topology(n), REFERENCE_MODEL)
            .run()
            .completion_time
        )
        assert (t_flat, t_deep) == (flat, deep)

    def test_logscale_4096(self):
        table = run_logscale_table(sizes=(4096,))
        assert table.series("flat") == [0.13972956800001413]
        assert table.series("tree") == [0.002380927999999998]

    @pytest.mark.parametrize(
        "n,aggregate,util,backlog,saturated,delivered,offered",
        [
            (32, False, 0.977784319999994, 0.0, False, 800, 800),
            (48, False, 1.0, 0.2906070079999745, True, 817, 1200),
            (512, True, 0.03076728000000003, 0.0, False, 25, 12800),
        ],
    )
    def test_paradyn_report_stream(
        self, n, aggregate, util, backlog, saturated, delivered, offered
    ):
        rep = paradyn_report_stream(n, aggregate=aggregate, duration=5.0).run()
        assert (
            rep.frontend_utilization,
            rep.frontend_backlog,
            rep.saturated,
            rep.delivered_waves,
            rep.offered_waves,
        ) == (util, backlog, saturated, delivered, offered)
