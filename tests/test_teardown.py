"""Back-end endpoints, failure-isolated fan-out and direct teardown.

A back-end owns no thread: the transport calls ``BackEnd.put`` on the
delivering thread.  A multicast delivers to every live destination before it reports the
dead ones, and ``Network.shutdown()`` closes every endpoint and ends
every stream directly instead of sending a message down the tree — so
neither depends on the tree being intact.  Each live scenario runs on
both transports.
"""

from __future__ import annotations

import logging
import sys
import threading
import time

import pytest

from repro import FIRST_APPLICATION_TAG, Network, balanced_topology, flat_topology
from repro.core.backend import BackEnd
from repro.core.errors import (
    ChannelClosedError,
    NetworkShutdownError,
    StreamClosedError,
    TransportError,
)
from repro.core.events import (
    CONTROL_STREAM_ID,
    Direction,
    Envelope,
    StreamSpec,
    TAG_STREAM_CLOSE,
)
from repro.core.frontend import FrontEnd
from repro.core.packet import Packet
from repro.core.stream import Stream
from repro.reliability import FailureInjector
from repro.transport.base import Transport, deliver_each
from repro.transport.local import ThreadTransport

TAG = FIRST_APPLICATION_TAG


@pytest.fixture(params=["thread", "tcp"])
def net3x2(request):
    net = Network(balanced_topology(3, 2), transport=request.param)
    yield net
    net.shutdown()


class TestFailureIsolatedFanOut:
    def test_multicast_reaches_live_siblings_of_a_dead_child(self, net3x2):
        """Killing the root's first child must not starve the other two
        subtrees of a downstream packet listed after it."""
        s = net3x2.new_stream(transform="sum", sync="wait_for_all")
        for be in net3x2.backends:
            be.wait_for_stream(s.stream_id)
        victim = net3x2.topology.children(net3x2.topology.root)[0]
        dead = set(net3x2.topology.subtree_backends(victim))
        FailureInjector(net3x2).kill_node(victim)
        s.send(TAG, "%d", 42)
        live = [be for be in net3x2.backends if be.rank not in dead]
        assert len(live) == 6
        for be in live:
            assert be.recv(timeout=5, stream_id=s.stream_id).values == (42,)

    def test_deliver_each_reports_every_failure_after_delivering(self):
        delivered = []

        def deliver(dst):
            if dst in (1, 3):
                raise ChannelClosedError(f"rank {dst} is gone")
            delivered.append(dst)

        with pytest.raises(ChannelClosedError) as info:
            deliver_each([1, 2, 3, 4], deliver)
        assert delivered == [2, 4]
        assert "1: rank 1 is gone" in str(info.value)
        assert "3: rank 3 is gone" in str(info.value)

    def test_deliver_each_mixed_failures_are_not_a_teardown(self):
        def deliver(dst):
            raise ChannelClosedError("closed") if dst == 1 else TransportError("bad")

        with pytest.raises(TransportError) as info:
            deliver_each([1, 2], deliver)
        assert not isinstance(info.value, ChannelClosedError)

    def test_base_multicast_continues_past_a_failed_send(self):
        """The base loop (used by the chaos wrapper) is the same loop."""

        class Failing(ThreadTransport):
            def send(self, src, dst, direction, packet):
                if dst == 1:
                    raise ChannelClosedError("dead")
                super().send(src, dst, direction, packet)

        topo = flat_topology(3)
        transport = Failing()
        transport.bind(topo)
        pkt = Packet(1, TAG, "%d", (5,))
        with pytest.raises(ChannelClosedError):
            # Bypass ThreadTransport.multicast to exercise the base loop.
            Transport.multicast(transport, 0, [1, 2, 3], Direction.DOWNSTREAM, pkt)
        for rank in (2, 3):
            assert transport.inbox(rank).get(timeout=1).packet.values == (5,)


class TestDirectTeardown:
    def test_shutdown_after_unrecovered_kill_is_prompt(self, net3x2):
        FailureInjector(net3x2).kill_node(net3x2.topology.internals[0])
        t0 = time.monotonic()
        net3x2.shutdown()
        assert time.monotonic() - t0 < 1.0
        assert all(not n.running for n in net3x2.nodes.values())
        assert all(be.is_shut_down for be in net3x2.backends)

    def test_backend_control_reply_failure_is_logged_not_raised(self, caplog):
        """A back-end's close ack runs on the delivering thread (maybe
        the reactor's); a failed send must not surface there."""

        class Broken(ThreadTransport):
            def send(self, src, dst, direction, packet):
                raise ChannelClosedError("parent channel is gone")

        topo = flat_topology(2)
        transport = Broken()
        be = BackEnd(1, topo, transport)
        transport.set_endpoint(1, be)
        transport.bind(topo)
        close = Packet(CONTROL_STREAM_ID, TAG_STREAM_CLOSE, "%d", (7,))
        with caplog.at_level(logging.WARNING, logger="repro.core.backend"):
            transport.inbox(1).put(Envelope(0, Direction.DOWNSTREAM, close))
        assert any("could not send control reply" in r.getMessage() for r in caplog.records)

    def test_endpoint_must_precede_bind(self):
        topo = flat_topology(2)
        transport = ThreadTransport()
        transport.bind(topo)
        with pytest.raises(TransportError):
            transport.set_endpoint(1, BackEnd(1, topo, transport))


class TestBackEndEndpoint:
    def test_concurrent_puts_lose_nothing_and_keep_per_sender_order(self):
        """Several delivering threads (a parent, a topology push, the
        reactor) may call one back-end's ``put`` at once while receivers
        consume: every packet arrives once, in its sender's order."""
        topo = flat_topology(2)
        transport = ThreadTransport()
        be = BackEnd(1, topo, transport)
        n_senders, per_sender = 6, 300
        got: dict[int, list[int]] = {s: [] for s in range(n_senders)}

        def sender(sid):
            for i in range(per_sender):
                pkt = Packet(1 + sid % 2, TAG, "%d %d", (sid, i))
                be.put(Envelope(0, Direction.DOWNSTREAM, pkt))

        def receiver(stream_id):
            for _ in range(per_sender * n_senders // 2):
                sid, i = be.recv(timeout=10, stream_id=stream_id).values
                got[sid].append(i)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=receiver, args=(s,)) for s in (1, 2)]
            threads += [threading.Thread(target=sender, args=(s,)) for s in range(n_senders)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert all(seq == list(range(per_sender)) for seq in got.values())

    def test_close_wakes_blocked_recv(self):
        be = BackEnd(1, flat_topology(2), ThreadTransport())
        errors = []

        def blocked():
            try:
                be.recv()  # no timeout: only close() can end this
            except Exception as exc:  # recorded for the assertion below
                errors.append(exc)

        t = threading.Thread(target=blocked)
        t.start()
        time.sleep(0.05)
        be.close()
        t.join(2)
        assert not t.is_alive()
        assert [type(e).__name__ for e in errors] == ["NetworkShutdownError"]
        with pytest.raises(ChannelClosedError):
            be.put(Envelope(0, Direction.DOWNSTREAM, Packet(1, TAG, "%d", (1,))))


class TestStreamTeardown:
    def test_shutdown_ends_blocked_and_later_recv(self, net3x2):
        """Queued aggregates are still returned after shutdown; then every
        ``recv`` — blocked at the time or called later — raises."""
        idle = net3x2.new_stream(transform="sum", sync="wait_for_all")
        busy = net3x2.new_stream(transform="sum", sync="wait_for_all")
        net3x2.frontend.dispatch(
            Envelope(0, Direction.UPSTREAM, Packet(busy.stream_id, TAG, "%d", (7,)))
        )
        errors = []
        entered = threading.Event()

        def blocked():
            entered.set()
            try:
                idle.recv()  # no timeout: only shutdown can end this
            except Exception as exc:  # recorded for the assertion below
                errors.append(exc)

        t = threading.Thread(target=blocked, daemon=True)
        t.start()
        entered.wait(2)
        time.sleep(0.05)
        net3x2.shutdown()
        t.join(2)
        assert not t.is_alive()
        assert [type(e) for e in errors] == [NetworkShutdownError]
        assert busy.recv(timeout=2).values == (7,)
        for s in (busy, idle, busy):
            with pytest.raises(NetworkShutdownError):
                s.recv(timeout=2)

    def test_close_ack_wakes_blocked_recv(self):
        """The close ack itself wakes a blocked ``recv`` — no poll."""
        frontend = FrontEnd()
        stream = Stream(None, StreamSpec(1, (1, 2), "sum", "wait_for_all"))
        frontend.register(stream)
        woke = []
        entered = threading.Event()

        def blocked():
            entered.set()
            try:
                stream.recv()
            except StreamClosedError:
                woke.append(time.monotonic())

        t = threading.Thread(target=blocked, daemon=True)
        t.start()
        entered.wait(2)
        time.sleep(0.02)
        acked = time.monotonic()
        ack = Packet(CONTROL_STREAM_ID, TAG_STREAM_CLOSE, "%d", (1,))
        frontend.dispatch(Envelope(0, Direction.UPSTREAM, ack))
        t.join(2)
        assert not t.is_alive()
        assert len(woke) == 1
        assert woke[0] - acked < 0.05
