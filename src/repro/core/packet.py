"""Application-level packets and counted payload references.

A :class:`Packet` is the unit of data flowing through a TBON: it names a
stream, carries an application *tag*, and holds a typed payload described
by an MRNet-style format string (see :mod:`repro.core.serialization`).

MRNet's high-performance communication layer "uses counted packet
references to place a single packet object into multiple outgoing packet
buffers and performs the requisite garbage collection when the packet is
no longer referenced".  :class:`PayloadRef` reproduces that design: when
an internal node multicasts a packet to *k* children, all *k* channel
entries share one serialized buffer; the buffer's serialization happens
at most once, and explicit reference counts (observable via
:class:`PacketStats`) let tests assert the single-copy property.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from ..analysis.locks import make_lock
from ..telemetry.registry import GLOBAL as _TELEMETRY, TELEMETRY as _TEL
from ..telemetry.trace import TraceContext
from .errors import SerializationError
from .serialization import (
    pack_payload,
    payload_nbytes,
    unpack_payload,
    validate_values,
)

__all__ = ["Packet", "PayloadRef", "PacketStats", "make_packet"]

_packet_seq = itertools.count()

#: Wire format of the per-packet control header (see docs/PROTOCOL.md §2).
HEADER_FMT = "%d %d %d %d %s"

_LEN = struct.Struct("<I")

#: Escape hatch for benchmarking the pre-memoization data plane; leave
#: True in production code.  (See ``benchmarks/bench_fastpath.py``.)
FRAME_CACHE_ENABLED = True

_frame_cache_hits = _TELEMETRY.counter("tbon_frame_cache_total", {"result": "hit"})
_frame_cache_misses = _TELEMETRY.counter("tbon_frame_cache_total", {"result": "miss"})


@dataclass
class PacketStats:
    """Counters for payload-buffer behaviour (zero-copy accounting).

    Attributes:
        serializations: number of times a payload was packed to bytes.
        buffers_live: number of PayloadRef buffers currently referenced.
        max_refcount: the largest refcount ever observed on one buffer
            (``k`` after a k-way multicast that shared a single buffer).
    """

    serializations: int = 0
    buffers_live: int = 0
    max_refcount: int = 0
    _lock: Any = field(default_factory=lambda: make_lock("packet_stats"), repr=False)

    def reset(self) -> None:
        with self._lock:
            self.serializations = 0
            self.buffers_live = 0
            self.max_refcount = 0


#: Process-global stats instance; tests may reset it around a scenario.
GLOBAL_PACKET_STATS = PacketStats()


class PayloadRef:
    """A reference-counted serialized payload buffer.

    The buffer is created lazily on first :meth:`serialize` and shared by
    every holder; :meth:`incref`/:meth:`decref` track ownership the same
    way MRNet's counted packet references do.  When the count reaches
    zero the buffer is dropped (Python's GC would reclaim it anyway — the
    explicit count exists so the single-serialization invariant is
    observable and testable).
    """

    __slots__ = ("_fmt", "_values", "_buffer", "_refcount", "_lock")

    def __init__(self, fmt: str, values: tuple[Any, ...]) -> None:
        self._fmt = fmt
        self._values = values
        self._buffer: bytes | None = None  # tbon: lock=_lock
        self._refcount = 1  # tbon: lock=_lock
        self._lock = make_lock("payload_ref")
        with GLOBAL_PACKET_STATS._lock:
            GLOBAL_PACKET_STATS.buffers_live += 1

    @property
    def refcount(self) -> int:
        return self._refcount

    def incref(self, n: int = 1) -> "PayloadRef":
        with self._lock:
            self._refcount += n
            with GLOBAL_PACKET_STATS._lock:
                if self._refcount > GLOBAL_PACKET_STATS.max_refcount:
                    GLOBAL_PACKET_STATS.max_refcount = self._refcount
        return self

    def decref(self, n: int = 1) -> None:
        with self._lock:
            self._refcount -= n
            if self._refcount < 0:
                raise SerializationError("PayloadRef refcount went negative")
            if self._refcount == 0:
                self._buffer = None
                with GLOBAL_PACKET_STATS._lock:
                    GLOBAL_PACKET_STATS.buffers_live -= 1

    def serialize(self) -> bytes:
        """Pack the payload, caching the buffer so packing happens once."""
        with self._lock:
            if self._buffer is None:
                self._buffer = pack_payload(self._fmt, self._values)
                with GLOBAL_PACKET_STATS._lock:
                    GLOBAL_PACKET_STATS.serializations += 1
            return self._buffer


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
        "_ref",
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
        self._ref: PayloadRef | None = None
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
    def payload_ref(self) -> PayloadRef:
        """Return the shared counted payload reference, creating it lazily."""
        if self._ref is None:
            self._ref = PayloadRef(self.fmt, self._values)
        return self._ref

    def nbytes(self) -> int:
        """Serialized payload size in bytes (without header)."""
        return payload_nbytes(self.fmt, self._values)

    def to_bytes(self) -> bytes:
        """Serialize header + payload to a transport frame body.

        The frame is memoized on the packet: everything below the header
        is immutable, and the only mutable header field is ``hops`` (via
        :meth:`hop`), so the cache is keyed by the hop count at
        serialization time.  A k-way multicast therefore serializes once
        and writes the identical buffer k times — MRNet's serialize-once
        contract, now covering header bytes as well as the counted
        payload reference.
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
        body = self.payload_ref().serialize()
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


def total_nbytes(packets: Iterable[Packet]) -> int:
    """Sum of serialized payload sizes for a batch of packets."""
    return sum(p.nbytes() for p in packets)
