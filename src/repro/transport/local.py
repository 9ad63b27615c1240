"""In-process thread transport.

Every rank's inbox is a thread-safe queue; a send is a queue put.  This
is the reference transport for the TBON semantics: channels are FIFO and
reliable by construction, packets move by reference (the in-process
stand-in for MRNet's zero-copy data path — a k-way multicast enqueues
one shared :class:`~repro.core.packet.Packet` object k times and bumps
its counted payload reference accordingly).
"""

from __future__ import annotations

from typing import Any, Sequence

from ..core.errors import TransportError
from ..core.events import Direction, Envelope
from ..core.topology import Topology
from ..telemetry.registry import GLOBAL as _TELEMETRY, TELEMETRY as _TEL
from .base import Inbox, Transport

__all__ = ["ThreadTransport"]

# Packets move by reference here, so bytes/latency make no sense; a
# delivery counter is the only instrument worth its cost on this path.
_m_delivered = _TELEMETRY.counter(
    "tbon_transport_packets_total", {"transport": "thread"}
)


class ThreadTransport(Transport):
    """Queues-as-channels transport for single-process networks."""

    def bind(self, topology: Topology) -> None:
        if self.topology is not None:
            raise TransportError("transport already bound")
        self.topology = topology
        self._inboxes = {rank: Inbox() for rank in topology.ranks}

    def rebind(self, topology: Topology) -> None:
        """Adopt a reconfigured topology, creating inboxes for new ranks."""
        if self.topology is None:
            raise TransportError("transport is not bound")
        self.topology = topology
        for rank in topology.ranks:
            self._inboxes.setdefault(rank, Inbox())

    def send(self, src: int, dst: int, direction: Direction, packet: Any) -> None:
        self._check_edge(src, dst)
        if _TEL.enabled:
            _m_delivered.inc()
        self.inbox(dst).put(Envelope(src=src, direction=direction, packet=packet))

    def multicast(
        self, src: int, dsts: Sequence[int], direction: Direction, packet: Any
    ) -> None:
        # Envelopes are immutable, so one instance serves every child —
        # a k-way multicast allocates one envelope, not k (the in-process
        # analogue of serializing the wire frame once).
        env = Envelope(src=src, direction=direction, packet=packet)
        if _TEL.enabled:
            _m_delivered.inc(len(dsts))
        for dst in dsts:
            self._check_edge(src, dst)
            self.inbox(dst).put(env)

    def shutdown(self) -> None:
        self._closing.set()
        for inbox in self._inboxes.values():
            inbox.close()
