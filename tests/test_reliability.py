"""Tests for failure injection and tree recovery."""

from __future__ import annotations

import time

import pytest

from repro import FIRST_APPLICATION_TAG, Network, balanced_topology
from repro.core.errors import NodeFailureError, RecoveryError, TopologyError
from repro.reliability import FailureInjector, recover_from_failure
from conftest import send_from_all

TAG = FIRST_APPLICATION_TAG


@pytest.fixture
def net3x2():
    net = Network(balanced_topology(3, 2))
    yield net
    net.shutdown()


class TestFailureInjection:
    def test_cannot_kill_frontend(self, net3x2):
        inj = FailureInjector(net3x2)
        with pytest.raises(NodeFailureError):
            inj.kill_node(0)

    def test_cannot_kill_backend(self, net3x2):
        inj = FailureInjector(net3x2)
        with pytest.raises(TopologyError):
            inj.kill_node(net3x2.topology.backends[0])

    def test_double_kill_rejected(self, net3x2):
        inj = FailureInjector(net3x2)
        victim = net3x2.topology.internals[0]
        inj.kill_node(victim)
        with pytest.raises(NodeFailureError):
            inj.kill_node(victim)
        assert inj.is_failed(victim)

    def test_killed_node_stops(self, net3x2):
        victim = net3x2.topology.internals[0]
        FailureInjector(net3x2).kill_node(victim)
        assert not net3x2.nodes[victim].running


class TestRecovery:
    def test_liveness_after_recovery(self, net3x2):
        """Open streams keep aggregating across a kill + recover."""
        s = net3x2.new_stream(transform="sum", sync="wait_for_all")
        for be in net3x2.backends:
            be.wait_for_stream(s.stream_id)
        send_from_all(net3x2, s, TAG, "%d", lambda r: 1)
        assert s.recv(timeout=10).values[0] == 9

        victim = net3x2.topology.internals[1]
        FailureInjector(net3x2).kill_node(victim)
        new_topo = recover_from_failure(net3x2, victim)
        assert victim not in new_topo
        time.sleep(0.3)  # let reconfiguration control packets land

        for be in net3x2.backends:
            be.send(s.stream_id, TAG, "%d", 2)
        assert s.recv(timeout=10).values[0] == 18

    def test_partial_wave_releases_after_recovery(self, net3x2):
        """A wave blocked on the dead subtree completes with survivors."""
        s = net3x2.new_stream(transform="sum", sync="wait_for_all")
        for be in net3x2.backends:
            be.wait_for_stream(s.stream_id)
        victim = net3x2.topology.internals[2]
        lost_backends = net3x2.topology.subtree_backends(victim)
        survivors = [r for r in net3x2.topology.backends if r not in lost_backends]

        # Survivors send; the root wave blocks on the victim's subtree.
        for r in survivors:
            net3x2.backend(r).send(s.stream_id, TAG, "%d", 1)
        time.sleep(0.2)

        FailureInjector(net3x2).kill_node(victim)
        recover_from_failure(net3x2, victim)
        time.sleep(0.3)
        # The lost subtree's backends are re-parented onto the root; any
        # contribution held at the dead node is gone (the documented
        # loss window), so the application resends it — wave 1 completes
        # with the survivors' already-queued partial aggregates.
        for r in lost_backends:
            net3x2.backend(r).send(s.stream_id, TAG, "%d", 1)
        # Then a full second wave from everyone.
        for r in net3x2.topology.backends:
            net3x2.backend(r).send(s.stream_id, TAG, "%d", 10)
        wave1 = s.recv(timeout=10).values[0]
        wave2 = s.recv(timeout=10).values[0]
        assert wave1 == 9
        assert wave2 == 90

    def test_close_completes_after_recovery(self, net3x2):
        s = net3x2.new_stream(transform="sum", sync="wait_for_all")
        for be in net3x2.backends:
            be.wait_for_stream(s.stream_id)
        victim = net3x2.topology.internals[0]
        FailureInjector(net3x2).kill_node(victim)
        recover_from_failure(net3x2, victim)
        time.sleep(0.3)
        s.close(timeout=10)
        assert s.is_closed

    def test_recover_unkilled_node_rejected(self, net3x2):
        victim = net3x2.topology.internals[0]
        with pytest.raises(RecoveryError, match="still running"):
            recover_from_failure(net3x2, victim)

    def test_recover_unknown_rank_rejected(self, net3x2):
        with pytest.raises(RecoveryError):
            recover_from_failure(net3x2, 999)

    def test_failure_under_active_load(self, net3x2):
        """Kill a node while back-ends are mid-burst; the network stays
        live and post-recovery waves aggregate completely."""
        import threading

        s = net3x2.new_stream(transform="sum", sync="wait_for_all")
        for be in net3x2.backends:
            be.wait_for_stream(s.stream_id)
        victim = net3x2.topology.internals[0]
        stop = threading.Event()

        def burst(be):
            while not stop.is_set():
                try:
                    be.send(s.stream_id, TAG, "%d", 1)
                except Exception:
                    return  # channel to the dying node closed mid-send
                time.sleep(0.005)

        threads = net3x2.run_backends(burst, join=False)
        time.sleep(0.1)
        FailureInjector(net3x2).kill_node(victim)
        recover_from_failure(net3x2, victim)
        time.sleep(0.3)
        stop.set()
        for t in threads:
            t.join(5)
        # Close the disturbed stream (flushes all partial waves), then
        # prove the recovered tree serves a fresh stream perfectly.
        s.close(timeout=10)
        s2 = net3x2.new_stream(transform="sum", sync="wait_for_all")
        for be in net3x2.backends:
            be.wait_for_stream(s2.stream_id)
            be.send(s2.stream_id, TAG, "%d", 5)
        assert s2.recv(timeout=10).values[0] == 45

    def test_crash_during_timeout_wave_releases_partial(self, net3x2):
        """Coverage gap: a crash *during* a ``TimeOut`` synchronization
        wave.  The straggler subtree is lost mid-wave; the blocked wave
        must release with the survivors' partial results once the window
        expires (PR 3's partial-wave semantics under failure)."""
        s = net3x2.new_stream(
            transform="sum", sync="time_out", sync_params={"window": 1.0}
        )
        for be in net3x2.backends:
            be.wait_for_stream(s.stream_id)
        victim = net3x2.topology.internals[1]
        lost = net3x2.topology.subtree_backends(victim)
        survivors = [r for r in net3x2.topology.backends if r not in lost]

        # Survivors contribute; the root's window opens on their first
        # aggregate while the wave still waits on the victim's subtree.
        for r in survivors:
            net3x2.backend(r).send(s.stream_id, TAG, "%d", 1)
        time.sleep(0.2)
        FailureInjector(net3x2).kill_node(victim)
        recover_from_failure(net3x2, victim)

        # The straggler subtree is gone: window expiry releases the
        # partial wave with exactly the survivors' contributions.
        assert s.recv(timeout=10).values[0] == len(survivors)

        # And the re-parented tree serves a full wave afterwards.
        time.sleep(0.3)
        for r in net3x2.topology.backends:
            net3x2.backend(r).send(s.stream_id, TAG, "%d", 2)
        assert s.recv(timeout=10).values[0] == 18

    def test_repeated_failures(self, net3x2):
        """Survive losing every internal node, one at a time."""
        s = net3x2.new_stream(transform="sum", sync="wait_for_all")
        for be in net3x2.backends:
            be.wait_for_stream(s.stream_id)
        inj = FailureInjector(net3x2)
        for victim in list(net3x2.topology.internals):
            inj.kill_node(victim)
            recover_from_failure(net3x2, victim)
            time.sleep(0.3)
        assert net3x2.topology.n_internal == 0  # now a flat tree
        for be in net3x2.backends:
            be.send(s.stream_id, TAG, "%d", 3)
        assert s.recv(timeout=10).values[0] == 27
