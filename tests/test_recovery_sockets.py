"""Failure injection and recovery over the socket transport.

Every recovery scenario from ``test_reliability.py`` — which runs on the
thread transport — replayed over the selector-reactor socket transport:
``recover_from_failure`` reconnects surviving edges with backoff,
re-registers the repaired channels with the event loop, and pushes the
new topology to every process.
"""

from __future__ import annotations

import logging
import threading
import time

import pytest

from repro import FIRST_APPLICATION_TAG, Network, balanced_topology
from repro.reliability import FailureInjector, recover_from_failure

TAG = FIRST_APPLICATION_TAG


@pytest.fixture(params=["tcp"], ids=["reactor"])
def socket_net(request):
    """A live depth-2 network over the socket transport."""
    net = Network(balanced_topology(3, 2), transport=request.param)
    yield net
    net.shutdown()


def _settle() -> None:
    """Let reconfiguration control packets land on real sockets."""
    time.sleep(0.5)


class TestFailureInjection:
    def test_killed_node_stops_and_channels_close(self, socket_net):
        victim = socket_net.topology.internals[0]
        FailureInjector(socket_net).kill_node(victim)
        assert not socket_net.nodes[victim].running
        # The dead rank's connections are gone from the transport.
        assert not any(victim in key for key in socket_net.transport._conns)

    def test_kill_and_recover_log_no_channel_errors(self, socket_net, caplog):
        """Regression: the teardown race the chaos work exposed.

        ``kill_node`` on a socket transport used to leave surviving
        peers' reactor channels reporting an abrupt error;
        with the per-edge expected-close gate they see an orderly close,
        so a kill + recover cycle emits no termination warnings.
        """
        victim = socket_net.topology.internals[1]
        with caplog.at_level(logging.WARNING, logger="repro.transport"):
            FailureInjector(socket_net).kill_node(victim)
            recover_from_failure(socket_net, victim)
            _settle()
        noisy = [r for r in caplog.records if "terminated" in r.getMessage()]
        assert noisy == [], [r.getMessage() for r in noisy]
        assert socket_net.node_errors() == {}


class TestRecovery:
    def test_liveness_after_recovery(self, socket_net):
        """Open streams keep aggregating across a kill + recover."""
        s = socket_net.new_stream(transform="sum", sync="wait_for_all")
        for be in socket_net.backends:
            be.wait_for_stream(s.stream_id)
            be.send(s.stream_id, TAG, "%d", 1)
        assert s.recv(timeout=10).values[0] == 9

        victim = socket_net.topology.internals[1]
        FailureInjector(socket_net).kill_node(victim)
        new_topo = recover_from_failure(socket_net, victim)
        assert victim not in new_topo
        _settle()

        for be in socket_net.backends:
            be.send(s.stream_id, TAG, "%d", 2)
        assert s.recv(timeout=10).values[0] == 18

    def test_partial_wave_releases_after_recovery(self, socket_net):
        """A wave blocked on the dead subtree completes with survivors."""
        s = socket_net.new_stream(transform="sum", sync="wait_for_all")
        for be in socket_net.backends:
            be.wait_for_stream(s.stream_id)
        victim = socket_net.topology.internals[2]
        lost = socket_net.topology.subtree_backends(victim)
        survivors = [r for r in socket_net.topology.backends if r not in lost]

        for r in survivors:
            socket_net.backend(r).send(s.stream_id, TAG, "%d", 1)
        time.sleep(0.2)

        FailureInjector(socket_net).kill_node(victim)
        recover_from_failure(socket_net, victim)
        _settle()
        # Contributions held at the dead node are the documented loss
        # window; the application resends them over the repaired edges.
        for r in lost:
            socket_net.backend(r).send(s.stream_id, TAG, "%d", 1)
        for r in socket_net.topology.backends:
            socket_net.backend(r).send(s.stream_id, TAG, "%d", 10)
        assert s.recv(timeout=10).values[0] == 9
        assert s.recv(timeout=10).values[0] == 90

    def test_close_completes_after_recovery(self, socket_net):
        s = socket_net.new_stream(transform="sum", sync="wait_for_all")
        for be in socket_net.backends:
            be.wait_for_stream(s.stream_id)
        victim = socket_net.topology.internals[0]
        FailureInjector(socket_net).kill_node(victim)
        recover_from_failure(socket_net, victim)
        _settle()
        s.close(timeout=10)
        assert s.is_closed

    def test_recover_unkilled_node_rejected(self, socket_net):
        victim = socket_net.topology.internals[0]
        from repro.core.errors import RecoveryError

        with pytest.raises(RecoveryError, match="still running"):
            recover_from_failure(socket_net, victim)

    def test_failure_under_active_load(self, socket_net):
        """Kill a node while back-ends are mid-burst; the network stays
        live and post-recovery waves aggregate completely."""
        s = socket_net.new_stream(transform="sum", sync="wait_for_all")
        for be in socket_net.backends:
            be.wait_for_stream(s.stream_id)
        victim = socket_net.topology.internals[0]
        stop = threading.Event()

        def burst(be):
            while not stop.is_set():
                try:
                    be.send(s.stream_id, TAG, "%d", 1)
                except Exception:
                    return  # channel to the dying node closed mid-send
                time.sleep(0.005)

        threads = socket_net.run_backends(burst, join=False)
        time.sleep(0.1)
        FailureInjector(socket_net).kill_node(victim)
        recover_from_failure(socket_net, victim)
        _settle()
        stop.set()
        for t in threads:
            t.join(5)
        s.close(timeout=10)
        s2 = socket_net.new_stream(transform="sum", sync="wait_for_all")
        for be in socket_net.backends:
            be.wait_for_stream(s2.stream_id)
            be.send(s2.stream_id, TAG, "%d", 5)
        assert s2.recv(timeout=10).values[0] == 45

    def test_repeated_failures(self, socket_net):
        """Survive losing every internal node, one at a time."""
        s = socket_net.new_stream(transform="sum", sync="wait_for_all")
        for be in socket_net.backends:
            be.wait_for_stream(s.stream_id)
        inj = FailureInjector(socket_net)
        for victim in list(socket_net.topology.internals):
            inj.kill_node(victim)
            recover_from_failure(socket_net, victim)
            _settle()
        assert socket_net.topology.n_internal == 0  # now a flat tree
        for be in socket_net.backends:
            be.send(s.stream_id, TAG, "%d", 3)
        assert s.recv(timeout=10).values[0] == 27
