"""In-process thread transport.

A send is a put on the destination rank's endpoint, made on the sending
thread (a queue put, or a direct call into a back-end).  This is the
reference transport for the TBON semantics: channels are FIFO and
reliable by construction, packets move by reference (the in-process
stand-in for MRNet's zero-copy data path — a k-way multicast enqueues
one shared :class:`~repro.core.packet.Packet` object k times, and
CPython's reference count on that one object is the counted reference
MRNet keeps by hand).
"""

from __future__ import annotations

from typing import Any, Sequence

from ..core.events import Direction, Envelope
from ..telemetry.registry import GLOBAL as _TELEMETRY, TELEMETRY as _TEL
from .base import Transport, deliver_each

__all__ = ["ThreadTransport"]

# Packets move by reference here, so bytes/latency make no sense; a
# delivery counter is the only instrument worth its cost on this path.
_m_delivered = _TELEMETRY.counter(
    "tbon_transport_packets_total", {"transport": "thread"}
)


class ThreadTransport(Transport):
    """Queues-as-channels transport for single-process networks."""

    def _put(self, src: int, dst: int, env: Envelope) -> None:
        self._check_edge(src, dst)
        self.inbox(dst).put(env)

    def send(self, src: int, dst: int, direction: Direction, packet: Any) -> None:
        if _TEL.enabled:
            _m_delivered.inc()
        self._put(src, dst, Envelope(src=src, direction=direction, packet=packet))

    def multicast(
        self, src: int, dsts: Sequence[int], direction: Direction, packet: Any
    ) -> None:
        # Envelopes are immutable, so one instance serves every child —
        # a k-way multicast allocates one envelope, not k (the in-process
        # analogue of serializing the wire frame once).
        env = Envelope(src=src, direction=direction, packet=packet)
        if _TEL.enabled:
            _m_delivered.inc(len(dsts))
        deliver_each(dsts, lambda dst: self._put(src, dst, env))

