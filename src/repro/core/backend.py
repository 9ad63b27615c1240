"""Back-end (leaf) application endpoint.

A back-end is an *application* process at a leaf of the tree: it
receives multicast packets from the front-end and sends data upstream
into the reduction fabric.  :class:`BackEnd` owns no thread: it is its
rank's endpoint, and the transport calls :meth:`BackEnd.put` on the
delivering thread, which handles control traffic at once and queues
data for :meth:`recv` without blocking.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Any, Sequence

from ..analysis.locks import make_lock
from ..telemetry.registry import Registry, TELEMETRY as _TEL
from ..telemetry.trace import TRACER as _TRACER, TraceContext
from .errors import (
    ChannelClosedError,
    NetworkShutdownError,
    StreamClosedError,
    StreamError,
    TransportError,
)
from .events import (
    CONTROL_STREAM_ID,
    Direction,
    Envelope,
    StreamSpec,
    TAG_P2P,
    TAG_STREAM_CLOSE,
    TAG_STREAM_CREATE,
    TAG_TELEMETRY,
    TAG_TOPOLOGY_ATTACH,
)
from .packet import Packet
from .topology import Topology

__all__ = ["BackEnd"]

_LOG = logging.getLogger(__name__)


class BackEnd:
    """Application handle for one leaf process.

    Obtained from :meth:`repro.core.network.Network.backend`; not
    constructed directly by applications.
    """

    def __init__(self, rank: int, topology: Topology, transport: Any):
        self.rank = rank
        self.topology = topology
        self.transport = transport
        self._parent = topology.parent(rank)
        # Data packets route into per-stream deques guarded by one
        # condition; a parallel arrival-order list serves untargeted
        # receives.  This lets independent application components (a
        # monitor loop, a task worker...) consume different streams of
        # the same back-end without stealing each other's packets.
        self._cond = threading.Condition(make_lock("backend_cond"))
        self._per_stream: dict[int, list[Packet]] = {}
        self._arrivals: list[int] = []
        self._streams: dict[int, StreamSpec] = {}
        self._closed_streams: set[int] = set()
        self._stream_events: dict[int, threading.Event] = {}
        self._lock = make_lock("backend_state")
        self._shutdown = threading.Event()
        # Per-endpoint telemetry registry; aggregated by the in-tree
        # stats reduction together with the internal nodes' registries.
        self.telemetry = Registry(f"backend-{rank}")
        self._m_sent = self.telemetry.counter(
            "tbon_backend_packets_total", {"direction": "sent"}
        )
        self._m_received = self.telemetry.counter(
            "tbon_backend_packets_total", {"direction": "received"}
        )

    # -- endpoint (called by the transport on the delivering thread) ----------
    def put(self, env: Envelope) -> None:
        """Act on a control packet, queue a data packet."""
        if self._shutdown.is_set():
            raise ChannelClosedError(f"back-end {self.rank} is shut down")
        packet: Packet = env.packet
        if packet.stream_id == CONTROL_STREAM_ID:
            self._handle_control(packet)
            return
        if _TEL.enabled:
            self._m_received.inc()
        with self._cond:
            self._per_stream.setdefault(packet.stream_id, []).append(packet)
            self._arrivals.append(packet.stream_id)
            self._cond.notify_all()

    def put_many(self, envs: Sequence[Envelope]) -> None:
        for env in envs:
            self.put(env)

    def close(self) -> None:
        """Mark the back-end shut down and wake every blocked receive."""
        with self._cond:
            self._shutdown.set()
            self._cond.notify_all()

    def _reply(self, packet: Packet) -> None:
        """Send a control reply upstream; the delivering thread (maybe
        the reactor's) must not see its failure, so it is logged."""
        try:
            self.transport.send(self.rank, self._parent, Direction.UPSTREAM, packet)
        except TransportError as exc:
            if not self.transport.closing:
                _LOG.warning(
                    "back-end %d could not send control reply upstream: %s",
                    self.rank,
                    exc,
                )

    def _handle_control(self, packet: Packet) -> None:
        if packet.tag == TAG_STREAM_CREATE:
            (spec,) = packet.values
            if self.rank not in spec.members:
                return  # every process gets the push; only members join
            with self._lock:
                self._streams[spec.stream_id] = spec
                self._stream_events.setdefault(spec.stream_id, threading.Event()).set()
        elif packet.tag == TAG_STREAM_CLOSE:
            (stream_id,) = packet.values
            with self._lock:
                self._closed_streams.add(stream_id)
            # Acknowledge upstream; FIFO channels guarantee any data this
            # back-end already sent is ahead of the ack, so nothing is lost.
            self._reply(Packet(CONTROL_STREAM_ID, TAG_STREAM_CLOSE, "%d", (stream_id,)))
        elif packet.tag == TAG_P2P:
            # A routed peer message terminating here: unwrap and queue it
            # under the reserved P2P pseudo-stream (id 0).
            _dst, src, user_tag, fmt = packet.values[:4]
            values = packet.values[4]
            inner = Packet(CONTROL_STREAM_ID, int(user_tag), fmt, values, src=int(src))
            with self._cond:
                self._per_stream.setdefault(CONTROL_STREAM_ID, []).append(inner)
                self._arrivals.append(CONTROL_STREAM_ID)
                self._cond.notify_all()
        elif packet.tag == TAG_TOPOLOGY_ATTACH:
            # Recovery: adopt the reconfigured tree (a new parent).
            (new_topo,) = packet.values
            self.topology = new_topo
            self._parent = new_topo.parent(self.rank)
        elif packet.tag == TAG_TELEMETRY:
            # In-tree stats reduction: answer with this leaf's registry
            # snapshot; parents merge it on the way up (PROTOCOL.md §4).
            (req_id,) = packet.values
            snap = (req_id, self.telemetry.snapshot())
            self._reply(Packet(CONTROL_STREAM_ID, TAG_TELEMETRY, "%d %o", snap))

    # -- application API ------------------------------------------------------
    def wait_for_stream(self, stream_id: int, timeout: float | None = 5.0) -> StreamSpec:
        """Block until the stream-create control packet has arrived."""
        with self._lock:
            ev = self._stream_events.setdefault(stream_id, threading.Event())
        if not ev.wait(timeout):
            raise StreamError(
                f"back-end {self.rank}: stream {stream_id} not announced in time"
            )
        with self._lock:
            return self._streams[stream_id]

    @property
    def streams(self) -> dict[int, StreamSpec]:
        """Streams announced to this back-end so far."""
        with self._lock:
            return dict(self._streams)

    def send(self, stream_id: int, tag: int, fmt: str, *values: Any) -> None:
        """Send one data packet upstream on ``stream_id``.

        Raises:
            StreamError: the stream has not been announced here (this
                back-end is not a member, or :meth:`wait_for_stream` was
                skipped).
            StreamClosedError: the stream is already closed.
            NetworkShutdownError: the network has shut down.
        """
        if self._shutdown.is_set():
            raise NetworkShutdownError(f"back-end {self.rank} is shut down")
        with self._lock:
            if stream_id in self._closed_streams:
                raise StreamClosedError(f"stream {stream_id} is closed")
            if stream_id not in self._streams:
                raise StreamError(
                    f"back-end {self.rank}: unknown stream {stream_id}; "
                    "wait_for_stream() first"
                )
        pkt = Packet(stream_id, tag, fmt, values, src=self.rank)
        if _TEL.enabled:
            self._m_sent.inc()
            if _TRACER.sample():
                # Start a sampled causal trace: the "send" hop anchors
                # t=0 for the wave's critical-path attribution.
                pkt.attach_trace(TraceContext.start(self.rank, time.monotonic()))
        self.transport.send(self.rank, self._parent, Direction.UPSTREAM, pkt)

    def send_p2p(self, dst_rank: int, tag: int, fmt: str, *values: Any) -> None:
        """Send a message to another back-end, routed through the tree.

        The paper's Section 2.1 escape hatch: no direct peer links exist,
        but the internal process-tree can route peer messages (up to the
        lowest common ancestor, then down) — "sub-optimal" but available.
        Delivery surfaces at the destination via
        ``recv(stream_id=P2P_STREAM)`` where ``P2P_STREAM`` is 0.
        """
        if self._shutdown.is_set():
            raise NetworkShutdownError(f"back-end {self.rank} is shut down")
        from .serialization import validate_values

        coerced = validate_values(fmt, values)
        pkt = Packet(
            CONTROL_STREAM_ID,
            TAG_P2P,
            "%d %d %d %s %o",
            (dst_rank, self.rank, tag, fmt, coerced),
            src=self.rank,
        )
        self.transport.send(self.rank, self._parent, Direction.UPSTREAM, pkt)

    def recv_p2p(self, timeout: float | None = None) -> Packet:
        """Receive the next routed peer message (see :meth:`send_p2p`)."""
        return self.recv(timeout=timeout, stream_id=CONTROL_STREAM_ID)

    def _try_pop(self, stream_id: int | None) -> Packet | None:
        """Pop the next packet (for ``stream_id``, or oldest overall).

        Caller holds ``self._cond``.
        """
        if stream_id is not None:
            bucket = self._per_stream.get(stream_id)
            if bucket:
                pkt = bucket.pop(0)
                # Lazily drop one stale arrival token for this stream.
                try:
                    self._arrivals.remove(stream_id)
                except ValueError:
                    pass
                return pkt
            return None
        while self._arrivals:
            sid = self._arrivals.pop(0)
            bucket = self._per_stream.get(sid)
            if bucket:
                return bucket.pop(0)
            # Token was orphaned by a targeted receive; skip it.
        return None

    def recv(
        self, timeout: float | None = None, stream_id: int | None = None
    ) -> Packet:
        """Receive the next downstream data packet.

        Args:
            timeout: seconds to wait (None blocks until shutdown).
            stream_id: restrict to one stream.  Independent consumers of
                different streams on the same back-end must target their
                streams, otherwise they steal each other's packets.

        Raises:
            TimeoutError: nothing arrived in time.
            NetworkShutdownError: shutdown arrived and the data drained.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                pkt = self._try_pop(stream_id)
                if pkt is not None:
                    return pkt
                if self._shutdown.is_set():
                    raise NetworkShutdownError(
                        f"back-end {self.rank} is shut down"
                    )
                wait = None if deadline is None else deadline - time.monotonic()
                if wait is not None and wait <= 0:
                    raise TimeoutError(
                        f"back-end {self.rank}: no packet within {timeout}s"
                    )
                self._cond.wait(wait)

    @property
    def is_shut_down(self) -> bool:
        return self._shutdown.is_set()
