"""Unit tests for the transport layer (Inbox, thread and socket channels)."""

from __future__ import annotations

import queue
import threading

import numpy as np
import pytest

from repro.core.errors import ChannelClosedError, TransportError
from repro.core.events import Direction, Envelope
from repro.core.packet import Packet, make_packet
from repro.core.topology import balanced_topology, flat_topology
from repro.transport.base import Inbox
from repro.transport.local import ThreadTransport
from repro.reliability.chaos import ChaosEngine, ChaosSchedule, ChaosTransport
from repro.simulate.simnet import SimTransport
from repro.transport.reactor import ReactorTransport


class TestInbox:
    def test_fifo_order(self):
        box = Inbox()
        for i in range(5):
            box.put(Envelope(i, Direction.UPSTREAM, make_packet(1, 100, "%d", i)))
        got = [box.get(timeout=1).src for _ in range(5)]
        assert got == [0, 1, 2, 3, 4]

    def test_get_timeout(self):
        with pytest.raises(queue.Empty):
            Inbox().get(timeout=0.05)

    def test_close_unblocks_all_consumers(self):
        box = Inbox()
        results = []

        def consumer():
            try:
                box.get(timeout=5)
            except ChannelClosedError:
                results.append("closed")

        threads = [threading.Thread(target=consumer) for _ in range(3)]
        for t in threads:
            t.start()
        box.close()
        for t in threads:
            t.join(2)
        assert results == ["closed"] * 3

    def test_pending_items_drain_before_close(self):
        box = Inbox()
        box.put(Envelope(1, Direction.UPSTREAM, make_packet(1, 100, "%d", 1)))
        box.close()
        assert box.get(timeout=1).src == 1
        with pytest.raises(ChannelClosedError):
            box.get(timeout=1)

    def test_put_after_closed_get_rejected(self):
        box = Inbox()
        box.close()
        with pytest.raises(ChannelClosedError):
            box.get(timeout=1)
        with pytest.raises(ChannelClosedError):
            box.put(Envelope(1, Direction.UPSTREAM, make_packet(1, 100, "%d", 1)))


class TestThreadTransport:
    def test_edges_enforced(self):
        t = ThreadTransport()
        t.bind(balanced_topology(2, 2))
        with pytest.raises(TransportError):
            t.send(3, 4, Direction.UPSTREAM, make_packet(1, 100, "%d", 1))

    def test_double_bind_rejected(self):
        t = ThreadTransport()
        t.bind(flat_topology(2))
        with pytest.raises(TransportError):
            t.bind(flat_topology(2))

    def test_unbound_access_rejected(self):
        t = ThreadTransport()
        with pytest.raises(TransportError):
            t.inbox(0)
        with pytest.raises(TransportError):
            t.send(0, 1, Direction.DOWNSTREAM, make_packet(1, 100, "%d", 1))

    def test_send_delivers_by_reference(self):
        t = ThreadTransport()
        t.bind(flat_topology(2))
        pkt = make_packet(1, 100, "%d", 42)
        t.send(0, 1, Direction.DOWNSTREAM, pkt)
        env = t.inbox(1).get(timeout=1)
        assert env.packet is pkt  # zero-copy in process

    def test_rebind_keeps_existing_queues(self):
        t = ThreadTransport()
        topo = flat_topology(2)
        t.bind(topo)
        t.send(0, 1, Direction.DOWNSTREAM, make_packet(1, 100, "%d", 7))
        topo2, _new = topo.attach_backend(0)
        t.rebind(topo2)
        # The queued packet survives the rebind.
        assert t.inbox(1).get(timeout=1).packet.values == (7,)
        # The new rank has a fresh inbox.
        assert t.inbox(topo2.backends[-1]).qsize() == 0

    def test_rebind_requires_bind(self):
        with pytest.raises(TransportError):
            ThreadTransport().rebind(flat_topology(2))


class TestReactorTransport:
    @pytest.fixture
    def bound(self):
        t = ReactorTransport()
        t.bind(balanced_topology(2, 2))
        yield t
        t.shutdown()

    def test_roundtrip_preserves_payload(self, bound):
        pkt = Packet(
            1, 100, "%d %af %s", (7, np.array([1.5, -2.5]), "hello"), src=3
        )
        bound.send(3, 1, Direction.UPSTREAM, pkt)
        env = bound.inbox(1).get(timeout=2)
        assert env.src == 3
        assert env.direction is Direction.UPSTREAM
        assert env.packet.values[0] == 7
        assert np.array_equal(env.packet.values[1], [1.5, -2.5])
        assert env.packet.values[2] == "hello"
        assert env.packet is not pkt  # genuinely serialized

    def test_fifo_per_channel(self, bound):
        for i in range(20):
            bound.send(3, 1, Direction.UPSTREAM, make_packet(1, 100, "%d", i))
        got = [bound.inbox(1).get(timeout=2).packet.values[0] for _ in range(20)]
        assert got == list(range(20))

    def test_non_edge_rejected(self, bound):
        with pytest.raises(TransportError):
            bound.send(3, 4, Direction.UPSTREAM, make_packet(1, 100, "%d", 1))

    def test_send_after_shutdown_fails(self):
        t = ReactorTransport()
        t.bind(flat_topology(2))
        t.shutdown()
        with pytest.raises(ChannelClosedError):
            t.send(1, 0, Direction.UPSTREAM, make_packet(1, 100, "%d", 1))

    def test_bidirectional_edges(self, bound):
        down = make_packet(1, 100, "%s", "down")
        up = make_packet(1, 100, "%s", "up")
        bound.send(0, 1, Direction.DOWNSTREAM, down)
        bound.send(1, 0, Direction.UPSTREAM, up)
        assert bound.inbox(1).get(timeout=2).packet.values == ("down",)
        assert bound.inbox(0).get(timeout=2).packet.values == ("up",)


class _SpyTransport(ThreadTransport):
    """Records the Transport members a wrapper must forward to it."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def rebind(self, topology):
        self.calls.append(("rebind", topology))

    def disconnect_rank(self, rank):
        self.calls.append(("disconnect_rank", rank))

    def reset_edge(self, a, b):
        self.calls.append(("reset_edge", a, b))

    def reconnect_edge(self, parent, child):
        self.calls.append(("reconnect_edge", parent, child))


class TestTransportContract:
    @pytest.mark.parametrize("make", [ThreadTransport, ReactorTransport, SimTransport])
    def test_closing_tracks_shutdown(self, make):
        t = make()
        t.bind(flat_topology(2))
        try:
            assert t.closing is False
        finally:
            t.shutdown()
        assert t.closing is True

    def test_chaos_wrapper_forwards_to_inner(self):
        """Every member the base class defaults must reach the inner
        transport, not the wrapper's inherited base implementation."""
        spy = _SpyTransport()
        engine = ChaosEngine(ChaosSchedule(seed=0))
        chaos = ChaosTransport(spy, engine)
        topo = flat_topology(2)
        chaos.bind(topo)
        try:
            chaos.rebind(topo)
            chaos.disconnect_rank(1)
            chaos.reset_edge(0, 1)
            chaos.reconnect_edge(0, 1)
            assert spy.calls == [
                ("rebind", topo),
                ("disconnect_rank", 1),
                ("reset_edge", 0, 1),
                ("reconnect_edge", 0, 1),
            ]
            assert chaos.rebinding is False
            spy.rebinding = True
            assert chaos.rebinding is True
            assert chaos.closing is False
        finally:
            chaos.shutdown()
        assert spy.closing is True
        assert chaos.closing is True
