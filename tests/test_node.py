"""Unit tests for the communication-process event loop (NodeRunner).

These drive :meth:`NodeRunner.handle` directly against a bound thread
transport — no node threads — so control-plane edge cases are exercised
deterministically.
"""

from __future__ import annotations

import queue

import pytest

from repro.core.backend import BackEnd
from repro.core.errors import ProtocolError
from repro.core.events import (
    CONTROL_STREAM_ID,
    Direction,
    Envelope,
    StreamSpec,
    TAG_STREAM_CLOSE,
    TAG_STREAM_CREATE,
)
from repro.core.filter_registry import default_registry
from repro.core.node import NodeRunner
from repro.core.packet import Packet
from repro.core.topology import balanced_topology
from repro.transport.local import ThreadTransport


@pytest.fixture
def setup():
    topo = balanced_topology(2, 2)
    transport = ThreadTransport()
    transport.bind(topo)
    delivered = []
    root = NodeRunner(
        0, topo, transport, default_registry, deliver_up=delivered.append
    )
    internal_rank = topo.internals[0]
    internal = NodeRunner(internal_rank, topo, transport, default_registry)
    return topo, transport, root, internal, delivered


def spec_packet(spec: StreamSpec) -> Packet:
    return Packet(CONTROL_STREAM_ID, TAG_STREAM_CREATE, "%o", (spec,))


def make_spec(topo, stream_id=1, transform="sum", sync="wait_for_all"):
    return StreamSpec(
        stream_id=stream_id,
        members=tuple(topo.backends),
        transform=transform,
        sync=sync,
    )


class TestStreamCreate:
    def test_installs_state_without_forwarding(self, setup):
        topo, transport, root, internal, _d = setup
        spec = make_spec(topo)
        root.handle(Envelope(-1, Direction.DOWNSTREAM, spec_packet(spec)))
        assert 1 in root.streams
        st = root.streams[1]
        assert st.covering == tuple(topo.children(0))
        assert st.ctx.n_children == 2
        assert st.ctx.is_root
        # The network pushes the create to every process itself.
        assert all(transport.inbox(c).qsize() == 0 for c in topo.children(0))

    def test_non_covering_node_and_non_member_backend_install_nothing(self, setup):
        topo, transport, root, internal, _d = setup
        other = topo.children(0)[1]
        assert other != internal.rank
        spec = StreamSpec(1, tuple(topo.subtree_backends(other)), "sum", "wait_for_all")
        env = Envelope(-1, Direction.DOWNSTREAM, spec_packet(spec))
        internal.handle(env)
        assert internal.streams == {}
        outsider = BackEnd(topo.children(internal.rank)[0], topo, transport)
        outsider.put(env)
        assert outsider.streams == {}
        member = BackEnd(spec.members[0], topo, transport)
        member.put(env)
        assert set(member.streams) == {1}

    def test_subset_covering(self, setup):
        topo, transport, root, internal, _d = setup
        left = topo.children(0)[0]
        members = tuple(topo.subtree_backends(left))
        spec = StreamSpec(1, members, "sum", "wait_for_all")
        root.handle(Envelope(-1, Direction.DOWNSTREAM, spec_packet(spec)))
        assert root.streams[1].covering == (left,)
        assert root.streams[1].ctx.n_children == 1


class TestDataPath:
    def test_upstream_reduction_to_frontend(self, setup):
        topo, transport, root, internal, delivered = setup
        spec = make_spec(topo)
        root.handle(Envelope(-1, Direction.DOWNSTREAM, spec_packet(spec)))
        c1, c2 = topo.children(0)
        root.handle(
            Envelope(c1, Direction.UPSTREAM, Packet(1, 100, "%d", (3,), src=c1))
        )
        assert delivered == []  # waiting for the second child
        root.handle(
            Envelope(c2, Direction.UPSTREAM, Packet(1, 100, "%d", (4,), src=c2))
        )
        assert len(delivered) == 1
        assert delivered[0].packet.values == (7,)

    def test_internal_forwards_to_parent(self, setup):
        topo, transport, root, internal, _d = setup
        spec = make_spec(topo)
        internal.handle(Envelope(0, Direction.DOWNSTREAM, spec_packet(spec)))
        for be in topo.children(internal.rank):
            internal.handle(
                Envelope(be, Direction.UPSTREAM, Packet(1, 100, "%d", (1,), src=be))
            )
        env = transport.inbox(0).get(timeout=1)
        assert env.direction is Direction.UPSTREAM
        assert env.packet.values == (2,)
        assert internal.stream_stats()[1] == (2, 1)

    def test_upstream_unknown_stream_rejected(self, setup):
        topo, transport, root, internal, _d = setup
        with pytest.raises(ProtocolError):
            root.handle(
                Envelope(1, Direction.UPSTREAM, Packet(99, 100, "%d", (1,)))
            )

    def test_downstream_unknown_stream_rejected(self, setup):
        topo, transport, root, internal, _d = setup
        with pytest.raises(ProtocolError):
            root.handle(
                Envelope(-1, Direction.DOWNSTREAM, Packet(99, 100, "%d", (1,)))
            )

    def test_downstream_multicast_shares_payload(self, setup):
        topo, transport, root, internal, _d = setup
        spec = make_spec(topo)
        root.handle(Envelope(-1, Direction.DOWNSTREAM, spec_packet(spec)))
        pkt = Packet(1, 100, "%d", (5,))
        root.handle(Envelope(-1, Direction.DOWNSTREAM, pkt))
        kids = topo.children(0)
        got = [transport.inbox(c).get(timeout=1).packet for c in kids]
        assert len(got) == 2
        assert all(g is pkt for g in got)  # one packet object, not k copies


class TestControlEdgeCases:
    def test_unknown_downstream_control_rejected(self, setup):
        topo, transport, root, internal, _d = setup
        bogus = Packet(CONTROL_STREAM_ID, 42, "%d", (0,))
        with pytest.raises(ProtocolError):
            root.handle(Envelope(-1, Direction.DOWNSTREAM, bogus))

    def test_unknown_upstream_control_forwarded_to_root(self, setup):
        topo, transport, root, internal, delivered = setup
        bogus = Packet(CONTROL_STREAM_ID, 42, "%d", (0,))
        internal.handle(Envelope(5, Direction.UPSTREAM, bogus))
        env = transport.inbox(0).get(timeout=1)
        assert env.packet.tag == 42
        root.handle(env)
        assert delivered and delivered[0].packet.tag == 42

    def test_close_without_create_rejected(self, setup):
        topo, transport, root, internal, _d = setup
        close = Packet(CONTROL_STREAM_ID, TAG_STREAM_CLOSE, "%d", (7,))
        with pytest.raises(ProtocolError):
            root.handle(Envelope(-1, Direction.DOWNSTREAM, close))

    def test_duplicate_close_ack_ignored(self, setup):
        topo, transport, root, internal, delivered = setup
        spec = make_spec(topo)
        root.handle(Envelope(-1, Direction.DOWNSTREAM, spec_packet(spec)))
        close = Packet(CONTROL_STREAM_ID, TAG_STREAM_CLOSE, "%d", (1,))
        root.handle(Envelope(-1, Direction.DOWNSTREAM, close))
        c1, c2 = topo.children(0)
        ack = Packet(CONTROL_STREAM_ID, TAG_STREAM_CLOSE, "%d", (1,))
        root.handle(Envelope(c1, Direction.UPSTREAM, ack))
        root.handle(Envelope(c2, Direction.UPSTREAM, ack))
        assert 1 not in root.streams
        # A straggler ack for the closed stream must not blow up.
        root.handle(Envelope(c1, Direction.UPSTREAM, ack))

    def test_inbox_close_stops_loop(self, setup):
        """Shutdown is an inbox close: the envelopes queued ahead of it
        are handled, then the loop ends without sending anything down."""
        import threading

        topo, transport, root, internal, delivered = setup
        root.handle(Envelope(-1, Direction.DOWNSTREAM, spec_packet(make_spec(topo))))
        c1, c2 = topo.children(0)
        inbox = transport.inbox(0)
        for c in (c1, c2):
            inbox.put(Envelope(c, Direction.UPSTREAM, Packet(1, 100, "%d", (5,), src=c)))
        inbox.close()
        inbox.put(Envelope(c1, Direction.UPSTREAM, Packet(1, 100, "%d", (9,), src=c1)))
        t = threading.Thread(target=root.run, daemon=True)
        t.start()
        t.join(3)
        assert not t.is_alive()
        assert root.running is False
        assert [env.packet.values[0] for env in delivered] == [10]
        assert all(transport.inbox(c).qsize() == 0 for c in (c1, c2))

    def test_filter_error_reported_not_raised(self, setup):
        """The run loop catches handler errors and reports upstream."""
        topo, transport, root, internal, delivered = setup
        import threading

        spec = make_spec(topo)
        root.handle(Envelope(-1, Direction.DOWNSTREAM, spec_packet(spec)))
        # Feed garbage through the run loop (mixed formats break sum).
        t = threading.Thread(target=root.run, daemon=True)
        root.running = True
        t.start()
        c1, c2 = topo.children(0)
        transport.inbox(0).put(
            Envelope(c1, Direction.UPSTREAM, Packet(1, 100, "%d", (1,), src=c1))
        )
        transport.inbox(0).put(
            Envelope(c2, Direction.UPSTREAM, Packet(1, 100, "%f", (1.0,), src=c2))
        )
        import time

        deadline = time.time() + 5
        while root.error is None and time.time() < deadline:
            time.sleep(0.01)
        assert root.error is not None
        root.running = False
        transport.inbox(0).close()
        t.join(2)
