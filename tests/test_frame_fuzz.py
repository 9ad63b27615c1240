"""Malformed wire bytes raise SerializationError and nothing else.

The reactor loop is the only I/O thread of a process: it catches the
connection and serialization errors of one channel and drops that
channel.  Any other exception escaping ``Packet.from_bytes`` or the
frame decoder would end the loop and with it every channel.  A seeded
fuzz (truncation, 1-3 byte flips, trailing garbage) over real frames
checks the parse side; a live test checks the loop survives a corrupt
frame.
"""

from __future__ import annotations

import random
import time

import numpy as np
import pytest

from repro import FIRST_APPLICATION_TAG, Network, flat_topology
from repro.core.errors import SerializationError
from repro.core.events import CONTROL_STREAM_ID, TAG_STREAM_CREATE, StreamSpec
from repro.core.packet import Packet
from repro.telemetry.trace import TraceContext
from repro.transport.reactor import _FrameDecoder, _envelope
from repro.transport.tcp import _HDR

TAG = FIRST_APPLICATION_TAG


def _real_frames() -> list[bytes]:
    traced = Packet(3, TAG + 2, "%d %ac", (1, b"xyz"), src=5)
    traced.attach_trace(
        TraceContext.start(5, 1.0).mark_arrival(1, 2.0).complete("sum", 3.0)
    )
    spec = StreamSpec(1, (1, 2), "sum", "wait_for_all")
    return [
        Packet(1, TAG, "%d", (7,), src=3).to_bytes(),
        Packet(2, TAG + 1, "%s %af %c", ("hello", np.arange(5.0), "q"), src=4).to_bytes(),
        Packet(CONTROL_STREAM_ID, TAG_STREAM_CREATE, "%o", (spec,)).to_bytes(),
        traced.to_bytes(),
    ]


def _mutate(rng: random.Random, frame: bytes) -> bytes:
    kind = rng.randrange(3)
    if kind == 0:
        return frame[: rng.randrange(len(frame))]
    if kind == 1:
        out = bytearray(frame)
        for _ in range(rng.randint(1, 3)):
            out[rng.randrange(len(out))] = rng.randrange(256)
        return bytes(out)
    return frame + bytes(rng.randrange(256) for _ in range(rng.randint(1, 16)))


def test_packet_from_bytes_fuzz():
    frames = _real_frames()
    rng = random.Random(1)
    rejected = 0
    for i in range(20_000):
        try:
            Packet.from_bytes(_mutate(rng, frames[i % len(frames)]))
        except SerializationError:
            rejected += 1
    assert rejected > 10_000  # the fuzz reaches the error paths


def test_frame_decoder_fuzz_one_byte_at_a_time():
    """Mutated wire frames fed byte by byte, each completed frame turned
    into an envelope exactly as the reactor's read path does."""
    wire = [
        _HDR.pack(len(body), i % 2, 3) + body for i, body in enumerate(_real_frames())
    ]
    rng = random.Random(1)
    rejected = 0
    for i in range(5_000):
        data = _mutate(rng, wire[i % len(wire)])
        decoder = _FrameDecoder()
        try:
            for byte in data:
                decoder.recv_view()[:1] = bytes((byte,))
                frame = decoder.advance(1)
                if frame is not None:
                    _envelope(frame)
        except SerializationError:
            rejected += 1
    assert rejected > 1_000


def test_decoder_rejects_bad_direction_and_oversized_length():
    for header in (_HDR.pack(4, 2, 0), _HDR.pack(0xFFFFFFFF, 0, 0)):
        decoder = _FrameDecoder()
        decoder.recv_view()[:] = header
        with pytest.raises(SerializationError):
            decoder.advance(len(header))


def _wait(pred, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not pred() and time.monotonic() < deadline:
        time.sleep(0.01)
    return pred()


def test_corrupt_frame_drops_one_connection_and_loop_lives():
    with Network(flat_topology(2), transport="tcp") as net:
        transport = net.transport
        bad_leaf, good_leaf = net.topology.backends
        # A well-framed packet whose %s payload is not UTF-8.
        body = Packet(1, TAG, "%s", ("ab",)).to_bytes().replace(b"ab", b"\xff\xfe")
        frame = _HDR.pack(len(body), 0, bad_leaf) + body
        root_side = transport._conns[(net.topology.root, bad_leaf)]
        transport._conns[(bad_leaf, net.topology.root)].sock.send(frame)
        assert _wait(lambda: root_side.closed)
        assert transport._reactor._thread.is_alive()
        s = net.new_stream(members=[good_leaf], transform="sum", sync="wait_for_all")
        be = net.backend(good_leaf)
        be.wait_for_stream(s.stream_id)
        be.send(s.stream_id, TAG, "%d", 5)
        assert s.recv(timeout=5).values == (5,)


_GADGET_RAN: list[str] = []


def _gadget(note: str) -> None:
    _GADGET_RAN.append(note)


class _Gadget:
    def __reduce__(self):
        return _gadget, ("unpickled off the socket",)


def test_pickle_gadget_frame_drops_one_connection_and_loop_lives():
    """A ``%o`` frame naming a non-allowlisted global is a corrupt frame:
    the gadget never runs, one connection drops, the loop lives."""
    with Network(flat_topology(2), transport="tcp") as net:
        transport = net.transport
        bad_leaf, good_leaf = net.topology.backends
        body = Packet(1, TAG, "%o", (_Gadget(),)).to_bytes()
        frame = _HDR.pack(len(body), 0, bad_leaf) + body
        root_side = transport._conns[(net.topology.root, bad_leaf)]
        transport._conns[(bad_leaf, net.topology.root)].sock.send(frame)
        assert _wait(lambda: root_side.closed)
        assert _GADGET_RAN == []
        assert transport._reactor._thread.is_alive()
        s = net.new_stream(members=[good_leaf], transform="sum", sync="wait_for_all")
        be = net.backend(good_leaf)
        be.wait_for_stream(s.stream_id)
        be.send(s.stream_id, TAG, "%d", 5)
        assert s.recv(timeout=5).values == (5,)


def test_char_payload_crosses_the_socket_transport():
    """``%c`` unpacks from the memoryview bodies the reactor hands in."""
    with Network(flat_topology(2), transport="tcp") as net:
        s = net.new_stream(transform="sum", sync="wait_for_all")
        for be in net.backends:
            be.wait_for_stream(s.stream_id)
        s.send(TAG, "%c", "\xe9")
        for be in net.backends:
            assert be.recv(timeout=5).values == ("\xe9",)
