"""Reactor-transport tests: frame decoding, coalescing, backpressure,
edge setup and repair, trees.

The reactor multiplexes every TCP channel onto one selector thread
(src/repro/transport/reactor.py).  These tests drive the three layers
separately — the :class:`_FrameDecoder` state machine byte by byte, a
single :class:`_ReactorConnection` over a socketpair with the loop
stopped (so queue/drain behaviour is deterministic), and whole live
trees over ``transport="tcp"``.
"""

from __future__ import annotations

import socket
import threading
import time

import numpy as np
import pytest

from repro import FIRST_APPLICATION_TAG, Network, balanced_topology, flat_topology
from repro.core.errors import ChannelBusyError, ChannelClosedError, TransportError
from repro.core.events import Direction
from repro.core.packet import Packet
from repro.telemetry.registry import GLOBAL, SIZE_BOUNDS, disable, enable
from repro.transport.base import Inbox
from repro.transport import reactor
from repro.transport.reactor import Reactor, ReactorTransport, _FrameDecoder, _ReactorConnection
from repro.transport.tcp import _HDR
from conftest import send_from_all

TAG = FIRST_APPLICATION_TAG


def wire_frame(packet: Packet, direction: Direction = Direction.UPSTREAM, src: int = 3) -> bytes:
    body = packet.to_bytes()
    return _HDR.pack(len(body), direction.wire_code, src) + body


@pytest.fixture
def telemetry():
    enable()
    yield GLOBAL
    disable()


@pytest.fixture
def conn_pair():
    """A _ReactorConnection over a socketpair with the reactor stopped.

    Nothing drains the queue unless the test calls handle_write itself,
    so queue depth and coalescing behaviour are fully deterministic.
    """
    a, b = socket.socketpair()
    inbox = Inbox()
    reactor = Reactor()
    conn = _ReactorConnection(a, inbox, 0, reactor)
    yield conn, b, inbox
    conn.close()
    reactor.stop()
    b.close()


class TestFrameDecoder:
    def test_one_byte_at_a_time(self):
        pkt = Packet(1, TAG, "%d %s", (7, "hello"))
        raw = wire_frame(pkt)
        dec = _FrameDecoder()
        frames = []
        for i in range(len(raw)):
            view = dec.recv_view()
            assert len(view) > 0
            view[0:1] = raw[i : i + 1]
            out = dec.advance(1)
            if out is not None:
                frames.append(out)
                assert i == len(raw) - 1, "frame completed before the last byte"
        assert len(frames) == 1
        dir_code, src, body = frames[0]
        assert dir_code == Direction.UPSTREAM.wire_code
        assert src == 3
        out_pkt = Packet.from_bytes(body)
        assert out_pkt.values == (7, "hello")

    def test_back_to_back_frames_arbitrary_chunks(self):
        pkts = [Packet(1, TAG, "%d", (i,)) for i in range(5)]
        raw = b"".join(wire_frame(p, Direction.DOWNSTREAM, src=i) for i, p in enumerate(pkts))
        decoded = []
        # Prime-sized chunks so frame boundaries never align with reads.
        for chunk_size in (1, 3, 7, 11, len(raw)):
            dec = _FrameDecoder()
            decoded = []
            pos = 0
            while pos < len(raw):
                view = dec.recv_view()
                n = min(len(view), chunk_size, len(raw) - pos)
                view[:n] = raw[pos : pos + n]
                pos += n
                out = dec.advance(n)
                if out is not None:
                    dir_code, src, body = out
                    decoded.append((src, Packet.from_bytes(body).values))
            assert decoded == [(i, (i,)) for i in range(5)], f"chunk={chunk_size}"

    def test_large_frame_grows_buffer(self):
        pkt = Packet(1, TAG, "%s", ("x" * 300_000,))
        raw = wire_frame(pkt)
        dec = _FrameDecoder()
        pos = 0
        out = None
        while pos < len(raw):
            view = dec.recv_view()
            n = min(len(view), 65536, len(raw) - pos)
            view[:n] = raw[pos : pos + n]
            pos += n
            out = dec.advance(n)
        assert out is not None
        assert Packet.from_bytes(out[2]).values == pkt.values

    def test_socketpair_one_byte_at_a_time(self, conn_pair):
        """Satellite requirement: a frame fed byte by byte through a real
        socketpair still decodes exactly once."""
        conn, peer, inbox = conn_pair
        raw = wire_frame(Packet(1, TAG, "%d", (42,)), Direction.DOWNSTREAM, src=-1)
        for i in range(len(raw)):
            # On an AF_UNIX socketpair the byte is readable as soon as
            # sendall returns, so one handle_read per byte is exact.
            peer.sendall(raw[i : i + 1])
            conn.handle_read()
            if i < len(raw) - 1:
                assert inbox.qsize() == 0, f"frame completed early at byte {i}"
        env = inbox.get(timeout=2)
        assert env.packet.values == (42,)
        assert env.direction is Direction.DOWNSTREAM
        assert env.src == -1
        assert inbox.qsize() == 0


class TestWriteCoalescing:
    def test_burst_drains_in_one_sendmsg(self, conn_pair, telemetry):
        """Ten queued frames leave in a single vectored sendmsg."""
        conn, peer, _inbox = conn_pair
        hist = telemetry.histogram("tbon_reactor_frames_per_sendmsg", bounds=SIZE_BOUNDS)
        before = hist.value()
        frames = []
        for i in range(10):
            body = Packet(1, TAG, "%d", (i,)).to_bytes()
            frames.append((len(body), body))
            conn.enqueue(
                _HDR.pack(len(body), Direction.UPSTREAM.wire_code, 0),
                body,
                high_water=64,
            )
        conn.handle_write()
        after = hist.value()
        assert after["count"] - before["count"] == 1, "expected one coalesced sendmsg"
        assert after["sum"] - before["sum"] == 10
        # Every frame arrived intact on the peer.
        expected = sum(_HDR.size + n for n, _ in frames)
        peer.settimeout(5)
        got = b""
        while len(got) < expected:
            got += peer.recv(65536)
        assert len(got) == expected

    def test_coalesce_max_bounds_vector_size(self, conn_pair, telemetry, monkeypatch):
        conn, peer, _inbox = conn_pair
        monkeypatch.setattr(reactor, "COALESCE_MAX", 4)
        hist = telemetry.histogram("tbon_reactor_frames_per_sendmsg", bounds=SIZE_BOUNDS)
        before = hist.value()
        body = Packet(1, TAG, "%d", (0,)).to_bytes()
        header = _HDR.pack(len(body), Direction.UPSTREAM.wire_code, 0)
        for _ in range(10):
            conn.enqueue(header, body, high_water=64)
        conn.handle_write()
        after = hist.value()
        assert after["count"] - before["count"] == 3  # 4 + 4 + 2
        assert after["sum"] - before["sum"] == 10

    def test_live_burst_coalesces(self, telemetry):
        """Under a live multicast burst, frames per sendmsg averages > 1."""
        hist = telemetry.histogram("tbon_reactor_frames_per_sendmsg", bounds=SIZE_BOUNDS)
        before = hist.value()
        transport = ReactorTransport()
        topo = flat_topology(8)
        transport.bind(topo)
        try:
            pkt = Packet(1, TAG, "%d", (1,))
            children = list(topo.children(0))
            for _ in range(200):
                transport.multicast(0, children, Direction.DOWNSTREAM, pkt)
            target = 200 * len(children)
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if sum(transport.inbox(c).qsize() for c in children) >= target:
                    break
                time.sleep(0.001)
            else:
                pytest.fail("burst not fully delivered")
        finally:
            transport.shutdown()
        after = hist.value()
        sent_frames = after["sum"] - before["sum"]
        sendmsg_calls = after["count"] - before["count"]
        assert sent_frames == 200 * 8
        assert sendmsg_calls < sent_frames, "no coalescing happened under burst"


class TestBackpressure:
    def _fill(self, conn, high_water, nbytes=4096):
        body = bytes(nbytes)
        header = _HDR.pack(len(body), Direction.UPSTREAM.wire_code, 0)
        for _ in range(high_water):
            conn.enqueue(header, body, high_water=high_water)
        return header, body

    def test_stalled_send_times_out_busy(self, conn_pair, monkeypatch):
        """A sender the reactor never drains gives up after SEND_STALL_S
        with ChannelBusyError — the only way to get that error."""
        monkeypatch.setattr(reactor, "SEND_STALL_S", 0.1)
        conn, _peer, _inbox = conn_pair
        header, body = self._fill(conn, high_water=4)
        t0 = time.monotonic()
        with pytest.raises(ChannelBusyError):
            conn.enqueue(header, body, high_water=4)
        assert 0.1 <= time.monotonic() - t0 < 5.0
        assert conn._depth == 4

    def test_blocking_send_stalls_then_drains(self, conn_pair, telemetry):
        conn, peer, _inbox = conn_pair
        stalls = telemetry.counter("tbon_reactor_backpressure_stalls_total")
        depth_gauge = telemetry.gauge("tbon_reactor_send_queue_depth")
        stalls_before = stalls.value()
        header, body = self._fill(conn, high_water=4)
        assert depth_gauge.value() == 4

        done = threading.Event()
        errors: list[Exception] = []

        def blocked_sender():
            try:
                conn.enqueue(header, body, high_water=4)
            except Exception as exc:  # surfaced via the errors list
                errors.append(exc)
            done.set()

        t = threading.Thread(target=blocked_sender, daemon=True)
        t.start()
        time.sleep(0.1)
        assert not done.is_set(), "sender should stall at the high-water mark"
        assert stalls.value() - stalls_before == 1

        # Drain: the test plays the reactor role, flushing the queue while
        # emptying the peer's side so the kernel buffer never wedges.
        peer.setblocking(False)
        deadline = time.monotonic() + 10
        while not done.is_set() and time.monotonic() < deadline:
            conn.handle_write()
            try:
                peer.recv(1 << 20)
            except BlockingIOError:
                pass
            time.sleep(0.001)
        t.join(5)
        assert done.is_set() and not errors, f"blocked sender never drained: {errors}"

    def test_loop_thread_enqueue_never_waits(self, conn_pair):
        """A back-end's control reply is enqueued on the reactor thread,
        the only thread that drains the queue: at the high-water mark it
        is queued past the mark at once instead of waiting."""
        conn, _peer, _inbox = conn_pair
        header, body = self._fill(conn, high_water=2)
        loop = threading.Thread(
            target=conn.enqueue,
            args=(header, body),
            kwargs={"high_water": 2},
        )
        conn.reactor._thread = loop  # stands in for the reactor thread
        t0 = time.monotonic()
        loop.start()
        loop.join(5)
        assert not loop.is_alive()
        assert time.monotonic() - t0 < 1.0
        assert conn._depth == 3

    def test_close_releases_blocked_sender(self, conn_pair):
        conn, _peer, _inbox = conn_pair
        header, body = self._fill(conn, high_water=2)
        caught: list[Exception] = []

        def blocked_sender():
            try:
                conn.enqueue(header, body, high_water=2)
            except Exception as exc:  # surfaced via the caught list
                caught.append(exc)

        t = threading.Thread(target=blocked_sender, daemon=True)
        t.start()
        time.sleep(0.05)
        conn.close()
        t.join(5)
        assert len(caught) == 1
        assert isinstance(caught[0], ChannelClosedError)

    def test_slow_child_stalls_visible_in_snapshot(self, telemetry, monkeypatch):
        """Acceptance: a slow child makes the depth gauge and stall counter
        observable through the same GLOBAL registry `repro.cli stats` prints."""
        monkeypatch.setattr(reactor, "SEND_QUEUE_FRAMES", 4)
        monkeypatch.setattr(reactor, "SEND_STALL_S", 60.0)
        stalls = telemetry.counter("tbon_reactor_backpressure_stalls_total")
        stalls_before = stalls.value()
        transport = ReactorTransport()
        topo = flat_topology(2)
        transport.bind(topo)
        try:
            # 64 KiB frames into a 4-frame queue: the producer outruns the
            # reactor's drain pace immediately and must stall at least once.
            pkt = Packet(1, TAG, "%s", ("x" * 65536,))
            children = list(topo.children(0))
            for _ in range(100):
                transport.multicast(0, children, Direction.DOWNSTREAM, pkt)
        finally:
            transport.shutdown()
        assert stalls.value() - stalls_before > 0
        snap = GLOBAL.snapshot()
        assert "tbon_reactor_send_queue_depth" in snap["gauges"]
        assert "tbon_reactor_backpressure_stalls_total" in snap["counters"]


def _io_threads(before: set[threading.Thread]) -> tuple[list[str], list[str]]:
    """Names of the reactor loops started since ``before``, and of every
    accept thread still alive."""
    now = threading.enumerate()
    loops = [t.name for t in now if t not in before and t.name == "tbon-reactor-io"]
    accepts = [t.name for t in now if t.name.startswith("tbon-tcp-accept-")]
    return loops, accepts


def _drain(inbox, n: int) -> list:
    return [inbox.get(timeout=10).packet.values[0] for _ in range(n)]


class TestEdgeSetup:
    """Bind and live repair open edges through one setup path."""

    def test_bind_and_reconnect_leave_one_loop_and_no_acceptor(self):
        before = set(threading.enumerate())
        transport = ReactorTransport()
        transport.bind(balanced_topology(3, 2))
        try:
            assert _io_threads(before) == (["tbon-reactor-io"], [])
            transport.reset_edge(1, 4)
            transport.reconnect_edge(1, 4)
            assert _io_threads(before) == (["tbon-reactor-io"], [])
        finally:
            transport.shutdown()

    def test_reset_closes_and_reconnect_restores_fifo_both_ways(self):
        transport = ReactorTransport()
        transport.bind(flat_topology(2))
        try:
            transport.reset_edge(0, 1)
            for src, dst in ((0, 1), (1, 0)):
                with pytest.raises(ChannelClosedError):
                    transport.send(src, dst, Direction.UPSTREAM, Packet(1, TAG, "%d", (0,)))
            with pytest.raises(TransportError):
                transport.reset_edge(0, 1)  # nothing left to reset
            transport.reconnect_edge(0, 1)
            for i in range(50):
                transport.send(0, 1, Direction.DOWNSTREAM, Packet(1, TAG, "%d", (i,)))
                transport.send(1, 0, Direction.UPSTREAM, Packet(1, TAG, "%d", (-i,)))
            assert _drain(transport.inbox(1), 50) == list(range(50))
            assert _drain(transport.inbox(0), 50) == [-i for i in range(50)]
        finally:
            transport.shutdown()

    def test_reconnects_count_repairs_not_bind(self, telemetry):
        reconnects = telemetry.counter("tbon_recovery_reconnects_total")
        start = reconnects.value()
        transport = ReactorTransport()
        transport.bind(flat_topology(3))
        try:
            assert reconnects.value() == start
            transport.reset_edge(0, 2)
            transport.reconnect_edge(0, 2)
            assert reconnects.value() == start + 1
        finally:
            transport.shutdown()


class TestLiveTree:
    """The tier-1 live-tree path over ``transport="tcp"``."""

    def test_tcp_builds_reactor_and_sum_reduces(self):
        with Network(balanced_topology(2, 2), transport="tcp") as net:
            assert isinstance(net.transport, ReactorTransport)
            s = net.new_stream(transform="sum", sync="wait_for_all")
            send_from_all(net, s, TAG, "%d", lambda r: r * r)
            expected = sum(r * r for r in net.topology.backends)
            assert s.recv(timeout=15).values[0] == expected
            assert net.node_errors() == {}

    def test_multi_wave_fifo(self):
        with Network(flat_topology(4), transport="tcp") as net:
            s = net.new_stream(transform="concat", sync="wait_for_all")

            def leaf(be):
                be.wait_for_stream(s.stream_id)
                for wave in range(10):
                    be.send(s.stream_id, TAG, "%d", wave)

            net.run_backends(leaf)
            for wave in range(10):
                got = np.asarray(s.recv(timeout=15).values).ravel()
                assert got.size == 4 and (got == wave).all(), (
                    f"wave {wave} out of order: {got}"
                )
            assert net.node_errors() == {}


class TestReactorThreadCount:
    @pytest.mark.parametrize("transport, extra", [("thread", 0), ("tcp", 1)])
    def test_threads_are_the_node_loops_plus_the_reactor(self, transport, extra):
        """Back-ends own no thread: a 64-leaf tree adds one thread per
        communication process, plus the reactor on the socket transport."""
        before = set(threading.enumerate())
        with Network(balanced_topology(8, 2), transport=transport) as net:
            added = [t for t in threading.enumerate() if t not in before]
            assert len(net.topology.backends) == 64
            assert len(added) == len(net.nodes) + extra, [t.name for t in added]
            assert not any(t.name.startswith("tbon-backend") for t in added)
            s = net.new_stream(transform="sum", sync="wait_for_all")
            send_from_all(net, s, TAG, "%d", lambda r: 1)
            assert s.recv(timeout=15).values[0] == 64

    def test_io_threads_are_o1(self):
        """Acceptance: reactor I/O threads <= 2 regardless of fanout."""
        fanout = 16
        with Network(flat_topology(fanout), transport="tcp") as net:
            s = net.new_stream(transform="sum", sync="wait_for_all")
            send_from_all(net, s, TAG, "%d", lambda r: 1)
            assert s.recv(timeout=15).values[0] == fanout
            reactor_io = [
                t for t in threading.enumerate() if t.name.startswith("tbon-reactor")
            ]
            assert 1 <= len(reactor_io) <= 2
            assert net.node_errors() == {}

