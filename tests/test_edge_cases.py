"""Edge-case coverage across modules: concurrency, limits, odd inputs."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import (
    FIRST_APPLICATION_TAG,
    Network,
    Packet,
    SerializationError,
    balanced_topology,
    flat_topology,
)
from repro.core.serialization import pack_payload, unpack_payload

TAG = FIRST_APPLICATION_TAG


class TestFrameMemoConcurrency:
    def test_concurrent_to_bytes_equal_frames(self):
        """Racing to_bytes calls on one packet all return the same frame."""
        pkt = Packet(1, TAG, "%af %d", (np.arange(1000, dtype=np.float64), 7))
        frames = []
        start = threading.Barrier(8)

        def grab():
            start.wait()
            for _ in range(50):
                frames.append(pkt.to_bytes())

        threads = [threading.Thread(target=grab) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(frames) == 8 * 50
        assert all(f == frames[0] for f in frames)
        back = Packet.from_bytes(frames[0])
        assert np.array_equal(back.values[0], np.arange(1000, dtype=np.float64))
        assert back.values[1] == 7


class TestSerializationEdges:
    def test_non_latin1_char_rejected(self):
        with pytest.raises(SerializationError):
            pack_payload("%c", ("€",))

    def test_object_slot_with_numpy_inside(self):
        payload = {"arr": np.arange(5), "nested": [np.float64(2.5)]}
        (out,) = unpack_payload("%o", pack_payload("%o", (payload,)))
        assert np.array_equal(out["arr"], np.arange(5))

    def test_empty_string_list_items(self):
        vals = (["", "a", ""],)
        assert unpack_payload("%as", pack_payload("%as", vals)) == vals

    def test_matrix_with_zero_columns(self):
        m = np.empty((3, 0))
        (out,) = unpack_payload("%am", pack_payload("%am", (m,)))
        assert out.shape == (3, 0)

    def test_unicode_heavy_strings(self):
        s = "𝔘𝔫𝔦𝔠𝔬𝔡𝔢 ✓ ру́сский 中文"
        assert unpack_payload("%s", pack_payload("%s", (s,))) == (s,)

    def test_negative_zero_float(self):
        (out,) = unpack_payload("%f", pack_payload("%f", (-0.0,)))
        assert out == 0.0 and np.signbit(out)


class TestMinimalNetworks:
    def test_single_backend_tree(self):
        """The smallest legal network: root + one back-end."""
        with Network(flat_topology(1)) as net:
            s = net.new_stream(transform="sum", sync="wait_for_all")
            be = net.backends[0]
            be.wait_for_stream(s.stream_id)
            be.send(s.stream_id, TAG, "%d", 41)
            assert s.recv(timeout=5).values[0] == 41
            assert net.node_errors() == {}

    def test_two_networks_coexist(self):
        """Independent networks in one process do not interfere."""
        n1 = Network(flat_topology(2))
        n2 = Network(flat_topology(3))
        try:
            s1 = n1.new_stream(transform="sum", sync="wait_for_all")
            s2 = n2.new_stream(transform="sum", sync="wait_for_all")
            for net, s in ((n1, s1), (n2, s2)):
                for be in net.backends:
                    be.wait_for_stream(s.stream_id)
                    be.send(s.stream_id, TAG, "%d", 1)
            assert s1.recv(timeout=5).values[0] == 2
            assert s2.recv(timeout=5).values[0] == 3
        finally:
            n1.shutdown()
            n2.shutdown()

    def test_stream_ids_unique_per_network(self):
        with Network(flat_topology(2)) as net:
            ids = {net.new_stream(transform="sum").stream_id for _ in range(5)}
            assert len(ids) == 5

    def test_empty_format_packets(self):
        """A zero-slot packet is a legal signal-only message."""
        with Network(flat_topology(2)) as net:
            s = net.new_stream(transform="passthrough", sync="null")

            def leaf(be):
                be.wait_for_stream(s.stream_id)
                be.send(s.stream_id, TAG, "")

            net.run_backends(leaf)
            for _ in range(2):
                pkt = s.recv(timeout=5)
                assert pkt.values == ()
            assert net.node_errors() == {}


class TestConcurrentFrontendUse:
    def test_parallel_stream_creation(self):
        """Racing new_stream calls from several threads stays consistent."""
        with Network(balanced_topology(2, 2)) as net:
            streams = []
            lock = threading.Lock()

            def create():
                s = net.new_stream(transform="sum", sync="wait_for_all")
                with lock:
                    streams.append(s)

            threads = [threading.Thread(target=create) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len({s.stream_id for s in streams}) == 8
            # Every stream is fully functional.
            for s in streams:
                for be in net.backends:
                    be.wait_for_stream(s.stream_id)
                    be.send(s.stream_id, TAG, "%d", 1)
            for s in streams:
                assert s.recv(timeout=10).values[0] == 4
            assert net.node_errors() == {}

    def test_send_recv_from_different_threads(self):
        with Network(flat_topology(4)) as net:
            s = net.new_stream(transform="sum", sync="wait_for_all")
            results = []

            def receiver():
                results.append(s.recv(timeout=10).values[0])

            t = threading.Thread(target=receiver)
            t.start()

            def leaf(be):
                be.wait_for_stream(s.stream_id)
                be.send(s.stream_id, TAG, "%d", 2)

            net.run_backends(leaf)
            t.join(10)
            assert results == [8]
