"""Tests for the fast data plane: serialize-once multicast, batched
inbox drains, cached timer deadlines, and the fixed-width struct fast
path in serialization.
"""

from __future__ import annotations

import queue
import threading
import time

import numpy as np
import pytest

from repro.core.errors import ChannelClosedError, SerializationError
from repro.core.events import (
    CONTROL_STREAM_ID,
    Direction,
    Envelope,
    StreamSpec,
    TAG_STREAM_CREATE,
)
from repro.core.filter_registry import default_registry
from repro.core.node import NodeRunner
from repro.core.packet import HEADER_FMT, Packet, make_packet
from repro.core.serialization import pack_payload, unpack_payload
from repro.core.topology import balanced_topology, flat_topology
from repro.transport.base import Inbox
from repro.transport.local import ThreadTransport
from repro.transport.reactor import ReactorTransport


# -- Packet frame memoization -------------------------------------------------


class TestFrameCache:
    def test_to_bytes_memoized(self):
        p = make_packet(1, 100, "%af", np.arange(32, dtype=np.float64))
        assert p.to_bytes() is p.to_bytes()

    def test_hop_invalidates_frame(self):
        p = make_packet(1, 100, "%d", 5)
        before = p.to_bytes()
        p.hop()
        after = p.to_bytes()
        assert before != after
        q = Packet.from_bytes(after)
        assert q.hops == 1
        assert q.values == (5,)

    def test_cached_frame_matches_fresh_serialization(self):
        p = Packet(3, 105, "%d %s", (7, "x"), src=9, hops=2)
        cached = p.to_bytes()
        fresh = Packet(3, 105, "%d %s", (7, "x"), src=9, hops=2).to_bytes()
        assert cached == fresh


# -- serialize-once multicast over sockets -----------------------------------


class TestSerializeOnceMulticast:
    def test_to_bytes_called_once_per_multicast(self, monkeypatch):
        """Acceptance: a k-way socket multicast invokes to_bytes exactly once."""
        topo = flat_topology(4)  # root 0 with 4 back-end children
        transport = ReactorTransport()
        transport.bind(topo)
        try:
            calls = {"n": 0}
            orig = Packet.to_bytes

            def counting(self):
                calls["n"] += 1
                return orig(self)

            monkeypatch.setattr(Packet, "to_bytes", counting)
            pkt = make_packet(1, 100, "%af", np.arange(64, dtype=np.float64))
            transport.multicast(
                0, topo.children(0), Direction.DOWNSTREAM, pkt
            )
            assert calls["n"] == 1
            # Every child still receives a full, parseable frame.
            for c in topo.children(0):
                env = transport.inbox(c).get(timeout=2)
                assert np.array_equal(env.packet.values[0], np.arange(64))
        finally:
            transport.shutdown()

    def test_node_forward_down_uses_multicast(self, monkeypatch):
        """_forward_down routes fan-out through Transport.multicast."""
        topo = flat_topology(3)
        transport = ThreadTransport()
        transport.bind(topo)
        seen = []
        orig = ThreadTransport.multicast

        def spying(self, src, dsts, direction, packet):
            seen.append(tuple(dsts))
            return orig(self, src, dsts, direction, packet)

        monkeypatch.setattr(ThreadTransport, "multicast", spying)
        node = NodeRunner(0, topo, transport, default_registry)
        _create_stream(node, topo)
        assert seen == []  # the create itself is never forwarded
        node.handle(Envelope(-1, Direction.DOWNSTREAM, make_packet(1, 100, "%d", 5)))
        assert seen == [tuple(topo.children(0))]

    def test_thread_multicast_shares_envelope(self):
        topo = flat_topology(3)
        transport = ThreadTransport()
        transport.bind(topo)
        pkt = make_packet(1, 100, "%d", 5)
        transport.multicast(0, topo.children(0), Direction.DOWNSTREAM, pkt)
        envs = [transport.inbox(c).get(timeout=1) for c in topo.children(0)]
        assert envs[0] is envs[1] is envs[2]  # one envelope, not k
        assert envs[0].packet is pkt


# -- Inbox.get_batch ----------------------------------------------------------


class TestGetBatch:
    def _env(self, i: int) -> Envelope:
        return Envelope(i, Direction.UPSTREAM, make_packet(1, 100, "%d", i))

    def test_drains_all_ready_in_fifo_order(self):
        box = Inbox()
        for i in range(5):
            box.put(self._env(i))
        batch = box.get_batch(max_n=64, timeout=1)
        assert [e.src for e in batch] == [0, 1, 2, 3, 4]

    def test_respects_max_n(self):
        box = Inbox()
        for i in range(10):
            box.put(self._env(i))
        assert [e.src for e in box.get_batch(max_n=4)] == [0, 1, 2, 3]
        assert [e.src for e in box.get_batch(max_n=64)] == list(range(4, 10))

    def test_blocks_for_first_envelope(self):
        box = Inbox()

        def feed():
            time.sleep(0.05)
            box.put(self._env(7))

        threading.Thread(target=feed, daemon=True).start()
        batch = box.get_batch(timeout=2)
        assert [e.src for e in batch] == [7]

    def test_timeout_raises_empty(self):
        with pytest.raises(queue.Empty):
            Inbox().get_batch(timeout=0.05)

    def test_pending_items_drain_before_close(self):
        box = Inbox()
        box.put(self._env(1))
        box.put(self._env(2))
        box.close()
        assert [e.src for e in box.get_batch(timeout=1)] == [1, 2]
        with pytest.raises(ChannelClosedError):
            box.get_batch(timeout=1)

    def test_close_leaves_sentinel_for_other_consumers(self):
        box = Inbox()
        box.put(self._env(1))
        box.close()
        box.get_batch(timeout=1)
        with pytest.raises(ChannelClosedError):
            box.get_batch(timeout=1)
        # A plain get() must also observe the close.
        with pytest.raises(ChannelClosedError):
            box.get(timeout=1)


# -- cached timer deadlines ---------------------------------------------------


def _make_node(topo, transport, rank=0, **kwargs):
    return NodeRunner(rank, topo, transport, default_registry, **kwargs)


def _create_stream(node, topo, sync="wait_for_all", sync_params=()):
    spec = StreamSpec(
        1, tuple(topo.backends), "sum", sync, sync_params=tuple(sync_params)
    )
    node.handle(
        Envelope(
            -1,
            Direction.DOWNSTREAM,
            Packet(CONTROL_STREAM_ID, TAG_STREAM_CREATE, "%o", (spec,)),
        )
    )
    return spec


class TestTimerDeadlineCache:
    def test_zero_deadline_calls_without_timed_filter(self):
        """Acceptance: no next_deadline()/on_timer() per data packet when
        no stream uses a timed sync filter."""
        topo = balanced_topology(2, 2)
        transport = ThreadTransport()
        transport.bind(topo)
        delivered = []
        node = _make_node(topo, transport, deliver_up=delivered.append)
        _create_stream(node, topo, sync="wait_for_all")
        st = node.streams[1]
        calls = {"next_deadline": 0, "on_timer": 0}
        orig_nd, orig_ot = st.sync.next_deadline, st.sync.on_timer
        st.sync.next_deadline = lambda: (
            calls.__setitem__("next_deadline", calls["next_deadline"] + 1),
            orig_nd(),
        )[1]
        st.sync.on_timer = lambda now, ctx: (
            calls.__setitem__("on_timer", calls["on_timer"] + 1),
            orig_ot(now, ctx),
        )[1]
        c1, c2 = topo.children(0)
        for _ in range(50):
            node.handle(
                Envelope(c1, Direction.UPSTREAM, Packet(1, 100, "%d", (1,), src=c1))
            )
            node.handle(
                Envelope(c2, Direction.UPSTREAM, Packet(1, 100, "%d", (2,), src=c2))
            )
            assert node._next_timer_delay() is None
            node._fire_timers()
        assert calls == {"next_deadline": 0, "on_timer": 0}
        assert len(delivered) == 50

    def test_timed_stream_still_scanned(self):
        topo = balanced_topology(2, 2)
        transport = ThreadTransport()
        transport.bind(topo)
        node = _make_node(topo, transport, deliver_up=lambda env: None)
        _create_stream(node, topo, sync="time_out", sync_params=(("window", 0.05),))
        assert 1 in node._timed_streams
        c1 = topo.children(0)[0]
        node.handle(
            Envelope(c1, Direction.UPSTREAM, Packet(1, 100, "%d", (1,), src=c1))
        )
        delay = node._next_timer_delay()
        assert delay is not None and 0 <= delay <= 0.05

    def test_timeout_window_fires_through_run_loop(self):
        """A time_out stream's partial wave is released by the timer even
        with the batched run loop."""
        topo = balanced_topology(2, 2)
        transport = ThreadTransport()
        transport.bind(topo)
        delivered = []
        node = _make_node(topo, transport, deliver_up=delivered.append)
        _create_stream(node, topo, sync="time_out", sync_params=(("window", 0.05),))
        t = threading.Thread(target=node.run, daemon=True)
        node.running = True
        t.start()
        c1 = topo.children(0)[0]
        transport.inbox(0).put(
            Envelope(c1, Direction.UPSTREAM, Packet(1, 100, "%d", (3,), src=c1))
        )
        deadline = time.time() + 5
        while not delivered and time.time() < deadline:
            time.sleep(0.01)
        node.running = False
        transport.inbox(0).close()
        t.join(2)
        assert delivered and delivered[0].packet.values == (3,)

    def test_timer_exception_reported_not_fatal(self):
        """Satellite bugfix: a filter exception raised from on_timer is
        captured in node.error instead of silently killing the thread."""
        topo = balanced_topology(2, 2)
        transport = ThreadTransport()
        transport.bind(topo)
        node = _make_node(topo, transport, deliver_up=lambda env: None)
        _create_stream(node, topo, sync="time_out", sync_params=(("window", 0.01),))

        def exploding(now, ctx):
            raise RuntimeError("timer boom")

        node.streams[1].sync.on_timer = exploding
        t = threading.Thread(target=node.run, daemon=True)
        node.running = True
        t.start()
        c1 = topo.children(0)[0]
        transport.inbox(0).put(
            Envelope(c1, Direction.UPSTREAM, Packet(1, 100, "%d", (1,), src=c1))
        )
        deadline = time.time() + 5
        while node.error is None and time.time() < deadline:
            time.sleep(0.01)
        assert isinstance(node.error, RuntimeError)
        assert t.is_alive()  # the loop survived the timer exception
        node.running = False
        transport.inbox(0).close()
        t.join(2)

    def test_stream_close_unregisters_timed_stream(self):
        from repro.core.events import TAG_STREAM_CLOSE

        topo = flat_topology(2)
        transport = ThreadTransport()
        transport.bind(topo)
        node = _make_node(topo, transport, deliver_up=lambda env: None)
        _create_stream(node, topo, sync="time_out", sync_params=(("window", 0.05),))
        assert 1 in node._timed_streams
        close = Packet(CONTROL_STREAM_ID, TAG_STREAM_CLOSE, "%d", (1,))
        node.handle(Envelope(-1, Direction.DOWNSTREAM, close))
        ack = Packet(CONTROL_STREAM_ID, TAG_STREAM_CLOSE, "%d", (1,))
        for c in topo.children(0):
            node.handle(Envelope(c, Direction.UPSTREAM, ack))
        assert 1 not in node._timed_streams
        assert node._next_timer_delay() is None


# -- fixed-width struct fast path ---------------------------------------------


class TestFixedWidthFastPath:
    @pytest.mark.parametrize(
        "fmt,values",
        [
            ("%d %d %d %d %s", (3, 105, -1, 2, "%d %af %s")),  # the header
            ("%d %f", (7, 2.5)),
            ("%b %b %d", (True, False, -9)),
            ("%ud", (2**63 + 1,)),
            ("%s", ("héllo",)),
            ("%d %ac", (1, b"\x00\xff")),
            ("", ()),
        ],
    )
    def test_roundtrip(self, fmt, values):
        assert unpack_payload(fmt, pack_payload(fmt, values)) == values

    def test_header_fmt_uses_fast_path(self):
        from repro.core.serialization import _fast_path

        assert _fast_path(HEADER_FMT) is not None
        assert _fast_path("%d %f %b %ud") is not None
        assert _fast_path("%d %af") is None  # arrays stay on the slow path
        assert _fast_path("%s %d") is None  # %s only qualifies as the tail

    def test_fast_path_bytes_identical_to_slow_path(self):
        """The fast path must be a pure optimization: same wire bytes."""
        from repro.core.serialization import FORMAT_DIRECTIVES, parse_format

        fmt = "%d %d %d %d %s"
        values = (12, 100, -1, 3, "%af %s")
        fast = pack_payload(fmt, values)
        slow = b"".join(
            d.packer(d.checker(v)) for d, v in zip(parse_format(fmt), values)
        )
        assert fast == slow

    def test_type_errors_preserved(self):
        with pytest.raises(SerializationError):
            pack_payload("%d %f", (True, 1.0))  # bool is not an int
        with pytest.raises(SerializationError):
            pack_payload("%d", (2**63,))
        with pytest.raises(SerializationError):
            pack_payload("%d %s", (1, 42))

    def test_arity_errors_preserved(self):
        with pytest.raises(SerializationError):
            pack_payload("%d %f", (1,))
        with pytest.raises(SerializationError):
            pack_payload("%d %s", (1, "a", "b"))

    def test_truncated_and_trailing_rejected(self):
        data = pack_payload("%d %f", (1, 2.0))
        with pytest.raises(SerializationError):
            unpack_payload("%d %f", data[:-1])
        with pytest.raises(SerializationError):
            unpack_payload("%d %f", data + b"x")
        tail = pack_payload("%d %s", (1, "abc"))
        with pytest.raises(SerializationError):
            unpack_payload("%d %s", tail[:-1])
        with pytest.raises(SerializationError):
            unpack_payload("%d %s", tail + b"x")

    def test_memoryview_input(self):
        data = pack_payload(HEADER_FMT, (1, 2, 3, 4, "%d"))
        assert unpack_payload(HEADER_FMT, memoryview(data)) == (1, 2, 3, 4, "%d")


# -- batched run loop ---------------------------------------------------------


class TestBatchedRunLoop:
    def test_backlog_processed_in_order(self):
        topo = balanced_topology(2, 2)
        transport = ThreadTransport()
        transport.bind(topo)
        delivered = []
        node = _make_node(topo, transport, deliver_up=delivered.append)
        _create_stream(node, topo, sync="wait_for_all")
        c1, c2 = topo.children(0)
        # Pile up a backlog before the loop starts, exercising get_batch.
        for i in range(40):
            transport.inbox(0).put(
                Envelope(c1, Direction.UPSTREAM, Packet(1, 100, "%d", (i,), src=c1))
            )
            transport.inbox(0).put(
                Envelope(c2, Direction.UPSTREAM, Packet(1, 100, "%d", (i,), src=c2))
            )
        t = threading.Thread(target=node.run, daemon=True)
        node.running = True
        t.start()
        deadline = time.time() + 5
        while len(delivered) < 40 and time.time() < deadline:
            time.sleep(0.01)
        node.running = False
        transport.inbox(0).close()
        t.join(2)
        assert [env.packet.values[0] for env in delivered] == [
            2 * i for i in range(40)
        ]
        assert node.error is None

    def test_shutdown_mid_batch_stops_loop(self):
        """Closing the inbox mid-batch: the envelopes ahead of the close
        are handled, the ones behind it are not, and the loop ends."""
        topo = balanced_topology(2, 2)
        transport = ThreadTransport()
        transport.bind(topo)
        delivered = []
        node = _make_node(topo, transport, deliver_up=delivered.append)
        _create_stream(node, topo, sync="wait_for_all")
        c1, c2 = topo.children(0)
        inbox = transport.inbox(0)
        for i in range(3):
            for c in (c1, c2):
                inbox.put(
                    Envelope(c, Direction.UPSTREAM, Packet(1, 100, "%d", (i,), src=c))
                )
        inbox.close()
        inbox.put(Envelope(c1, Direction.UPSTREAM, Packet(1, 100, "%d", (7,), src=c1)))
        t = threading.Thread(target=node.run, daemon=True)
        node.running = True
        t.start()
        t.join(3)
        assert not t.is_alive()
        assert node.running is False
        assert [env.packet.values[0] for env in delivered] == [0, 2, 4]
        assert node.error is None
        assert inbox.qsize() == 2  # the sentinel and the envelope behind it
