"""Application-level packets and the serialize-once frame memo.

A :class:`Packet` is the unit of data flowing through a TBON: it names a
stream, carries an application *tag*, and holds a typed payload described
by an MRNet-style format string (see :mod:`repro.core.serialization`).

MRNet's high-performance communication layer "uses counted packet
references to place a single packet object into multiple outgoing packet
buffers and performs the requisite garbage collection when the packet is
no longer referenced".  Here CPython's own reference count is that
counter: a k-way multicast hands the *same* object to all k children —
one shared :class:`~repro.core.events.Envelope` in k inboxes on the
thread transport, one frame ``bytes`` in k send queues on the socket
transport — and the object is freed when the last holder drops it.
:meth:`Packet.to_bytes` memoizes the whole frame, so the packet is
serialized at most once per hop count however many channels carry it.
"""

from __future__ import annotations

import itertools
import struct
from typing import Any, Sequence

from ..telemetry.registry import GLOBAL as _TELEMETRY, TELEMETRY as _TEL
from ..telemetry.trace import TraceContext
from .errors import SerializationError
from .serialization import pack_payload, unpack_payload, validate_values

__all__ = ["Packet", "make_packet"]

_packet_seq = itertools.count()

#: Wire format of the per-packet control header (see docs/PROTOCOL.md §2).
HEADER_FMT = "%d %d %d %d %s"

_LEN = struct.Struct("<I")

#: Escape hatch for benchmarking the pre-memoization data plane; leave
#: True in production code.  (See ``benchmarks/bench_fastpath.py``.)
FRAME_CACHE_ENABLED = True

_frame_cache_hits = _TELEMETRY.counter("tbon_frame_cache_total", {"result": "hit"})
_frame_cache_misses = _TELEMETRY.counter("tbon_frame_cache_total", {"result": "miss"})


class Packet:
    """One application-level packet.

    Attributes:
        stream_id: id of the stream this packet belongs to.
        tag: application-defined integer tag (tags below
            :data:`repro.core.events.FIRST_APPLICATION_TAG` are reserved
            for the control plane).
        fmt: MRNet-style format string describing the payload.
        src: rank of the originating endpoint (-1 if unknown).
        hops: number of communication processes traversed so far.
    """

    __slots__ = (
        "stream_id",
        "tag",
        "fmt",
        "src",
        "hops",
        "seq",
        "trace",
        "_values",
        "_frame",
        "_frame_hops",
    )

    def __init__(
        self,
        stream_id: int,
        tag: int,
        fmt: str,
        values: Sequence[Any],
        *,
        src: int = -1,
        hops: int = 0,
        trace: TraceContext | None = None,
        _validated: bool = False,
    ) -> None:
        self.stream_id = int(stream_id)
        self.tag = int(tag)
        self.fmt = fmt
        self.src = int(src)
        self.hops = int(hops)
        self.seq = next(_packet_seq)
        self.trace = trace
        vals = tuple(values) if _validated else validate_values(fmt, values)
        self._values = vals
        self._frame: bytes | None = None
        self._frame_hops = -1

    # -- payload access ------------------------------------------------
    @property
    def values(self) -> tuple[Any, ...]:
        """The typed payload values (coerced per the format string)."""
        return self._values

    def unpack(self) -> tuple[Any, ...]:
        """MRNet-flavoured alias for :attr:`values`."""
        return self._values

    def __getitem__(self, idx: int) -> Any:
        return self._values[idx]

    def __len__(self) -> int:
        return len(self._values)

    # -- serialization ---------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize header + payload to a transport frame body.

        The frame is memoized on the packet: everything below the header
        is immutable, and the only mutable header field is ``hops`` (via
        :meth:`hop`), so the cache is keyed by the hop count at
        serialization time.  A k-way multicast therefore serializes once
        and writes the identical buffer k times — MRNet's serialize-once
        contract.  This memo is the only payload cache: the body is
        packed by :func:`~repro.core.serialization.pack_payload` on a
        miss.
        """
        frame = self._frame
        if (
            frame is not None
            and self._frame_hops == self.hops
            and FRAME_CACHE_ENABLED
        ):
            if _TEL.enabled:
                _frame_cache_hits.inc()
            return frame
        if _TEL.enabled:
            _frame_cache_misses.inc()
        header = pack_payload(
            HEADER_FMT, (self.stream_id, self.tag, self.src, self.hops, self.fmt)
        )
        body = pack_payload(self.fmt, self._values)
        # Inlined pack_payload("%ac %ac", (header, body)) — same bytes,
        # no per-directive dispatch on the per-frame hot path.
        if self.trace is None:
            frame = b"".join(
                (_LEN.pack(len(header)), header, _LEN.pack(len(body)), body)
            )
        else:
            tb = self.trace.to_bytes()
            frame = b"".join(
                (
                    _LEN.pack(len(header)),
                    header,
                    _LEN.pack(len(body)),
                    body,
                    _LEN.pack(len(tb)),
                    tb,
                )
            )
        self._frame = frame
        self._frame_hops = self.hops
        return frame

    @classmethod
    def from_bytes(cls, data: bytes) -> "Packet":
        """Inverse of :meth:`to_bytes` (accepts any bytes-like buffer).

        The frame is two (untraced) or three (traced) length-prefixed
        sections; the parse is hand-rolled because the trace section is
        optional, with the same truncation/trailing-byte errors the
        ``"%ac %ac"`` interpreter path raised.  Malformed bytes raise
        :class:`SerializationError` and nothing else.
        """
        try:
            mv = memoryview(data)
            total = len(mv)
            offset = 0
            sections: list[memoryview] = []
            for _ in range(2):
                if offset + 4 > total:
                    raise SerializationError("truncated packet frame")
                (length,) = _LEN.unpack_from(mv, offset)
                offset += 4
                if offset + length > total:
                    raise SerializationError("truncated packet frame")
                sections.append(mv[offset : offset + length])
                offset += length
            trace: TraceContext | None = None
            if offset < total:
                if offset + 4 > total:
                    raise SerializationError("truncated packet frame")
                (length,) = _LEN.unpack_from(mv, offset)
                offset += 4
                if offset + length > total:
                    raise SerializationError("truncated packet frame")
                trace = TraceContext.from_bytes(bytes(mv[offset : offset + length]))
                offset += length
            if offset != total:
                raise SerializationError(
                    f"{total - offset} trailing byte(s) after packet frame"
                )
            header_raw, body = sections
            stream_id, tag, src, hops, fmt = unpack_payload(HEADER_FMT, header_raw)
            values = unpack_payload(fmt, body)
        except (struct.error, ValueError) as exc:  # e.g. bad UTF-8, bad trace
            raise SerializationError(f"malformed packet frame: {exc}") from exc
        return cls(
            stream_id,
            tag,
            fmt,
            values,
            src=src,
            hops=hops,
            trace=trace,
            _validated=True,
        )

    # -- misc -------------------------------------------------------------
    def with_values(self, values: Sequence[Any], *, fmt: str | None = None) -> "Packet":
        """A new packet on the same stream/tag with a different payload.

        The trace context is deliberately *not* copied: the node event
        loop attaches the critical-path trace to transform outputs
        itself (one sanctioned :meth:`attach_trace` site), so a filter
        building packets with ``with_values`` cannot duplicate hops.
        """
        return Packet(
            self.stream_id,
            self.tag,
            self.fmt if fmt is None else fmt,
            values,
            src=self.src,
            hops=self.hops,
        )

    def hop(self) -> "Packet":
        """Record traversal of one communication process (in place)."""
        self.hops += 1
        return self

    def attach_trace(self, trace: TraceContext | None) -> "Packet":
        """Attach or replace the causal trace context (in place).

        Like :meth:`hop`, this is a sanctioned mutation: the memoized
        frame is invalidated so the trace section is re-serialized.
        Traced packets are sampled (rare), so the extra serialization
        does not affect the multicast fast path.  Outside this module,
        assigning ``.trace`` directly is flagged by tboncheck TB204 —
        use this method.
        """
        self.trace = trace
        self._frame = None
        self._frame_hops = -1
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        vals = ", ".join(
            f"{v!r}" if not hasattr(v, "shape") else f"<array {getattr(v, 'shape')}>"
            for v in self._values[:4]
        )
        if len(self._values) > 4:
            vals += ", ..."
        return (
            f"Packet(stream={self.stream_id}, tag={self.tag}, fmt={self.fmt!r}, "
            f"src={self.src}, [{vals}])"
        )


def make_packet(
    stream_id: int, tag: int, fmt: str, *values: Any, src: int = -1
) -> Packet:
    """Convenience constructor: ``make_packet(s, t, "%d %f", 3, 2.5)``."""
    return Packet(stream_id, tag, fmt, values, src=src)

