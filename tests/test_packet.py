"""Unit tests for packets and their serialize-once frame memo."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import SerializationError
from repro.core import packet as packet_mod
from repro.core.events import Direction
from repro.core.packet import Packet, make_packet
from repro.core.topology import flat_topology
from repro.transport.local import ThreadTransport


class TestPacket:
    def test_values_accessible(self):
        p = make_packet(1, 100, "%d %s", 42, "hi")
        assert p.values == (42, "hi")
        assert p[0] == 42
        assert len(p) == 2
        assert p.unpack() == (42, "hi")

    def test_validation_at_construction(self):
        with pytest.raises(SerializationError):
            make_packet(1, 100, "%d", "not-an-int")

    def test_wire_roundtrip(self):
        p = Packet(3, 105, "%d %af %s", (7, np.array([1.0, 2.0]), "x"), src=9)
        q = Packet.from_bytes(p.to_bytes())
        assert q.stream_id == 3
        assert q.tag == 105
        assert q.src == 9
        assert q.fmt == "%d %af %s"
        assert q.values[0] == 7
        assert np.array_equal(q.values[1], [1.0, 2.0])
        assert q.values[2] == "x"

    def test_with_values_same_stream_tag(self):
        p = make_packet(2, 101, "%d", 1)
        q = p.with_values([5])
        assert (q.stream_id, q.tag, q.fmt) == (2, 101, "%d")
        assert q.values == (5,)

    def test_with_values_new_format(self):
        p = make_packet(2, 101, "%d", 1)
        q = p.with_values([1.5], fmt="%f")
        assert q.fmt == "%f"

    def test_hop_counts(self):
        p = make_packet(1, 100, "%d", 1)
        assert p.hops == 0
        p.hop()
        assert p.hops == 1

    def test_nbytes(self):
        """The frame's payload section is the packed payload: 4 + 8n bytes."""
        p = make_packet(1, 100, "%ad", np.arange(10, dtype=np.int64))
        frame = p.to_bytes()
        header_len = int.from_bytes(frame[:4], "little")
        body_at = 4 + header_len
        assert int.from_bytes(frame[body_at : body_at + 4], "little") == 4 + 80
        assert len(frame) == body_at + 4 + 4 + 80

    def test_seq_monotonic(self):
        a = make_packet(1, 100, "%d", 1)
        b = make_packet(1, 100, "%d", 1)
        assert b.seq > a.seq


class TestPayloadRef:
    """The payload a multicast shares: one packet, one memoized frame."""

    def test_serialize_once(self, monkeypatch):
        """k reads of one packet's frame pack the payload once, share one object."""
        packs = []
        orig = packet_mod.pack_payload

        def counting(fmt, values):
            packs.append(fmt)
            return orig(fmt, values)

        monkeypatch.setattr(packet_mod, "pack_payload", counting)
        p = make_packet(1, 100, "%af", np.arange(100, dtype=np.float64))
        frames = [p.to_bytes() for _ in range(8)]
        assert all(f is frames[0] for f in frames)
        assert packs.count("%af") == 1

    def test_multicast_shares_one_buffer(self, monkeypatch):
        """A k-way multicast must serialize exactly once (zero-copy)."""
        packs = []
        orig = packet_mod.pack_payload

        def counting(fmt, values):
            packs.append(fmt)
            return orig(fmt, values)

        monkeypatch.setattr(packet_mod, "pack_payload", counting)
        k = 8
        topo = flat_topology(k)
        transport = ThreadTransport()
        transport.bind(topo)
        p = make_packet(1, 100, "%af", np.arange(64, dtype=np.float64))
        transport.multicast(0, topo.children(0), Direction.DOWNSTREAM, p)
        got = [transport.inbox(c).get(timeout=1).packet for c in topo.children(0)]
        assert len(got) == k
        assert all(q is p for q in got)
        frames = [q.to_bytes() for q in got]
        assert all(f is frames[0] for f in frames)
        assert packs.count("%af") == 1
