"""End-to-end tests over the real-TCP transport (localhost sockets).

The same middleware semantics as the thread transport, but every packet
crosses a genuine TCP connection with length-prefixed frames and full
serialization — exercising the wire format, the serialize-once
multicast path, and the socket lifecycle.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import FIRST_APPLICATION_TAG, Network, balanced_topology, flat_topology
from repro.core import packet as packet_mod
from conftest import object_payload_samples, send_from_all

TAG = FIRST_APPLICATION_TAG


@pytest.fixture
def tcp_net():
    net = Network(balanced_topology(2, 2), transport="tcp")
    yield net
    net.shutdown()
    assert net.node_errors() == {}


class TestTCPReduction:
    def test_sum(self, tcp_net):
        s = tcp_net.new_stream(transform="sum", sync="wait_for_all")
        send_from_all(tcp_net, s, TAG, "%d", lambda r: r * r)
        expected = sum(r * r for r in tcp_net.topology.backends)
        assert s.recv(timeout=15).values[0] == expected

    def test_arrays_cross_the_wire(self, tcp_net):
        s = tcp_net.new_stream(transform="concat", sync="wait_for_all")
        send_from_all(
            tcp_net, s, TAG, "%am", lambda r: np.full((2, 2), float(r))
        )
        out = s.recv(timeout=15).values[0]
        assert out.shape == (8, 2)

    def test_multiple_waves(self, tcp_net):
        s = tcp_net.new_stream(transform="max", sync="wait_for_all")

        def leaf(be):
            be.wait_for_stream(s.stream_id)
            for wave in range(5):
                be.send(s.stream_id, TAG, "%d", wave * 10 + be.rank)

        tcp_net.run_backends(leaf)
        maxima = [s.recv(timeout=15).values[0] for _ in range(5)]
        top = max(tcp_net.topology.backends)
        assert maxima == [top, 10 + top, 20 + top, 30 + top, 40 + top]

    def test_close_handshake_over_tcp(self, tcp_net):
        s = tcp_net.new_stream(transform="sum", sync="wait_for_all")
        send_from_all(tcp_net, s, TAG, "%d", lambda r: 1)
        assert s.recv(timeout=15).values[0] == tcp_net.topology.n_backends
        s.close(timeout=15)
        assert s.is_closed

    def test_downstream_multicast_shares_serialization(self, tcp_net, monkeypatch):
        """A multicast to k children must pack its payload exactly once."""
        s = tcp_net.new_stream(transform="sum", sync="wait_for_all")
        for be in tcp_net.backends:
            be.wait_for_stream(s.stream_id)
        packs = []
        frames = []
        pack, to_bytes = packet_mod.pack_payload, packet_mod.Packet.to_bytes

        def counting_pack(fmt, values):
            packs.append(fmt)
            return pack(fmt, values)

        def counting_to_bytes(self):
            frames.append(self.fmt)
            return to_bytes(self)

        monkeypatch.setattr(packet_mod, "pack_payload", counting_pack)
        monkeypatch.setattr(packet_mod.Packet, "to_bytes", counting_to_bytes)
        seen = {}

        def leaf(be):
            seen[be.rank] = be.recv(timeout=15, stream_id=s.stream_id).values[0]

        threads = tcp_net.run_backends(leaf, join=False)
        s.send(TAG, "%af", np.arange(1000, dtype=np.float64))
        for t in threads:
            t.join(15)
        assert len(seen) == 4
        # One payload: serialized once at the root fan-out, once per
        # internal fan-out (new frame) — but never once per receiver.
        # Root (k=2) + 2 internals (k=2 each): 3 serializations max for
        # 4 deliveries + control traffic packed separately.  The frame
        # memo would hide a per-destination to_bytes from the pack count,
        # so the frame reads are bounded too.
        assert packs.count("%af") <= 3
        assert frames.count("%af") <= 3


class TestObjectPayloadsOverTCP:
    """Every ``%o`` payload type the program sends survives the socket
    path: unpickled through the allowlist at each hop, both directions."""

    @pytest.mark.parametrize("name", sorted(object_payload_samples()))
    def test_round_trip_through_stream_and_backends(self, tcp_net, name):
        value = object_payload_samples()[name]
        want = pickle.dumps(value)
        s = tcp_net.new_stream(transform="passthrough", sync="wait_for_all")
        sid = s.stream_id
        for be in tcp_net.backends:
            be.wait_for_stream(sid)
        s.send(TAG, "%o", value)
        for be in tcp_net.backends:
            (got,) = be.recv(timeout=15, stream_id=sid).values
            assert type(got) is type(value)
            assert pickle.dumps(got) == want
            be.send(sid, TAG, "%o", got)
        for _ in tcp_net.backends:
            (back,) = s.recv(timeout=15).values
            assert type(back) is type(value)
            assert pickle.dumps(back) == want


class TestTCPTopologies:
    @pytest.mark.parametrize("n", [2, 7])
    def test_flat(self, n):
        with Network(flat_topology(n), transport="tcp") as net:
            s = net.new_stream(transform="count", sync="wait_for_all")
            send_from_all(net, s, TAG, "%ud", lambda r: 1)
            assert s.recv(timeout=15).values[0] == n
            assert net.node_errors() == {}

    def test_depth3(self):
        with Network(balanced_topology(2, 3), transport="tcp") as net:
            s = net.new_stream(transform="sum", sync="wait_for_all")
            send_from_all(net, s, TAG, "%d", lambda r: 1)
            assert s.recv(timeout=20).values[0] == 8
            assert net.node_errors() == {}


class TestThreadTCPParity:
    def test_same_results_both_transports(self):
        """The two transports are interchangeable implementations."""
        results = {}
        for transport in ("thread", "tcp"):
            with Network(balanced_topology(2, 2), transport=transport) as net:
                s = net.new_stream(transform="concat", sync="wait_for_all")
                send_from_all(net, s, TAG, "%d", lambda r: r)
                results[transport] = sorted(s.recv(timeout=15).values[0].tolist())
        assert results["thread"] == results["tcp"]
