"""Reactor transport: one selector event loop for every TCP channel.

The socket transport behind ``transport="tcp"``.  Every tree edge is one
localhost TCP connection carrying frames of
``u32 length | u8 direction | i32 src | packet bytes`` (the rank-hello
bind handshake and the blocking edge setup live in
:mod:`repro.transport.tcp`), and a serialize-once multicast writes one
memoized wire frame to k channels.  Every socket is driven from a
**single** I/O thread, so a parent pays O(1) I/O threads instead of
O(fanout):

* **Read side** — sockets are non-blocking, so reads are partial by
  nature; :class:`_FrameDecoder` turns PR 1's ``recv_into`` buffer
  discipline into an explicit state machine (header state, then body
  state) over reusable buffers.  Small frames are read in bulk — one
  ``recv`` into a per-connection scratch buffer can carry hundreds of
  frames, which are fed through the decoder from memory and delivered
  to the rank's endpoint as one batch (``put_many``); large
  bodies are received straight into the decoder's body buffer to avoid
  the extra copy.  A completed frame is parsed with
  :meth:`Packet.from_bytes` over a view.
* **Write side** — ``send()`` never touches the socket.  It packs the
  9-byte frame header, appends ``(header, body)`` to the peer's bounded
  send queue and wakes the reactor (one wakeup byte per queue
  *transition*, not per frame).  The reactor drains a queue with a single
  vectored ``sendmsg`` of up to :data:`COALESCE_MAX` coalesced frames,
  and keeps ``EVENT_WRITE`` interest registered only while the queue is
  non-empty, so an idle tree polls nothing.
* **Backpressure** — one policy: the per-peer queue holds at most
  :data:`SEND_QUEUE_FRAMES` frames.  At that high-water mark ``send()``
  blocks on a condition until the reactor drains frames (backpressure
  propagates to the producing node), and raises
  :class:`ChannelBusyError` if the queue has not drained within
  :data:`SEND_STALL_S` (a wedged peer must not hang its sender for
  good).  Endpoints never block (inboxes are unbounded, a back-end only
  appends under its condition), and ``enqueue`` on the reactor thread —
  a back-end's close ack or telemetry reply — queues past the
  high-water mark instead of waiting, so the reactor thread itself can
  never block: a prerequisite for deadlock freedom with one loop
  serving both directions of every edge.

Static discipline: tboncheck rule TB601 forbids direct blocking socket
calls in this module.  All socket I/O goes through the ``_nb_*`` helpers
(which translate EAGAIN into ``None``), and the blocking edge setup —
bind, recovery and reset repair alike — is delegated to
:func:`repro.transport.tcp.open_edges`.
"""

from __future__ import annotations

import logging
import selectors
import socket
import threading
import time
from collections import deque
from typing import Any, Optional, Sequence

from ..analysis.locks import make_lock
from ..core.errors import (
    ChannelBusyError,
    ChannelClosedError,
    SerializationError,
    TransportError,
)
from ..core.events import Direction, Envelope
from ..core.packet import Packet
from ..core.topology import Topology
from ..telemetry.registry import GLOBAL as _TELEMETRY, SIZE_BOUNDS, TELEMETRY as _TEL
from .base import Transport, deliver_each
from .tcp import _HDR, open_edges

__all__ = ["ReactorTransport", "Reactor"]

_LOG = logging.getLogger(__name__)

#: Body remainders at least this big are received straight into the
#: decoder's body buffer; smaller reads go through the per-connection
#: scratch buffer so one ``recv`` can carry a whole burst of frames.
_BULK_DIRECT = 65536
#: Largest frame body accepted: the decoder allocates the announced
#: length up front, so a corrupt header must not claim up to 4 GiB.
_MAX_FRAME_BYTES = 1 << 26
#: Per-peer send-queue high-water mark, in frames queued + in flight.
SEND_QUEUE_FRAMES = 1024
#: Longest a sender waits at the high-water mark before
#: :class:`ChannelBusyError` (guards against a wedged peer turning
#: backpressure into a permanent hang).
SEND_STALL_S = 30.0
#: Frames coalesced into one vectored ``sendmsg``: well under IOV_MAX
#: (1024 on Linux) and big enough to amortize syscalls across a burst.
COALESCE_MAX = 32

# Process-wide reactor instruments (GLOBAL registry, created at import so
# the disabled hot path stays one ``_TEL.enabled`` attribute check).
_m_iterations = _TELEMETRY.counter("tbon_reactor_loop_iterations_total")
_m_coalesced = _TELEMETRY.histogram(
    "tbon_reactor_frames_per_sendmsg", bounds=SIZE_BOUNDS
)
_m_qdepth = _TELEMETRY.gauge("tbon_reactor_send_queue_depth")
_m_stalls = _TELEMETRY.counter("tbon_reactor_backpressure_stalls_total")
_m_tx_bytes = _TELEMETRY.counter(
    "tbon_transport_bytes_total", {"transport": "reactor", "direction": "sent"}
)
_m_rx_bytes = _TELEMETRY.counter(
    "tbon_transport_bytes_total", {"transport": "reactor", "direction": "received"}
)
# Edge repairs (docs/RELIABILITY.md); bind opens edges but repairs none.
_m_reconnects = _TELEMETRY.counter("tbon_recovery_reconnects_total")


def _nb_recv_into(sock: socket.socket, view: memoryview) -> Optional[int]:
    """One ``recv_into`` on a non-blocking socket.

    Returns the byte count (0 = orderly EOF from the peer) or ``None``
    when the socket has nothing ready (EAGAIN) — the reactor's signal to
    move on to the next event instead of blocking.
    """
    try:
        return sock.recv_into(view)
    except (BlockingIOError, InterruptedError):
        return None


def _nb_sendmsg(sock: socket.socket, buffers: Sequence[memoryview]) -> Optional[int]:
    """One vectored ``sendmsg`` on a non-blocking socket.

    Returns the bytes accepted by the kernel, or ``None`` when the socket
    buffer is full (EAGAIN) — the queue stays write-registered and the
    selector re-reports writability once the peer drains.
    """
    try:
        return sock.sendmsg(buffers)
    except (BlockingIOError, InterruptedError):
        return None


def _nb_wake_send(sock: socket.socket) -> None:
    """Write one wakeup byte, tolerating a full pipe or concurrent close.

    A full wakeup pipe means the reactor already has a pending wakeup it
    has not drained yet, so dropping the byte loses nothing.
    """
    try:
        sock.send(b"\x01")
    except (BlockingIOError, InterruptedError):
        pass
    except OSError:
        pass  # torn down concurrently with shutdown


class _FrameDecoder:
    """Incremental state machine over the shared frame format.

    Usage from the reactor loop::

        view = decoder.recv_view()      # where the next recv_into lands
        n = _nb_recv_into(sock, view)
        frame = decoder.advance(n)      # (dir_code, src, body_view) | None

    Two states: filling the 9-byte header, then filling the body whose
    length the header announced.  The body buffer is reused across frames
    (grown to the largest frame seen), so steady-state decoding allocates
    nothing beyond the kernel's copy — PR 1's ``recv_into`` discipline
    carried over to partial, non-blocking reads.  The returned body view
    is only valid until the next ``advance`` that re-enters body state;
    :meth:`Packet.from_bytes` copies what it keeps.
    """

    __slots__ = ("_hdr", "_body", "_got", "_length", "_dir", "_src", "_in_body")

    def __init__(self) -> None:
        self._hdr = bytearray(_HDR.size)
        self._body = bytearray(65536)
        self._got = 0
        self._length = 0
        self._dir = 0
        self._src = 0
        self._in_body = False

    def recv_view(self) -> memoryview:
        """The slice of the current buffer still waiting for bytes."""
        if self._in_body:
            return memoryview(self._body)[self._got : self._length]
        return memoryview(self._hdr)[self._got :]

    def advance(self, n: int) -> Optional[tuple[int, int, memoryview]]:
        """Consume ``n`` bytes just written into :meth:`recv_view`.

        Returns a completed ``(dir_code, src, body_view)`` frame, or
        ``None`` while the frame is still partial.  A malformed header
        raises :class:`SerializationError` before anything is allocated.
        """
        self._got += n
        if not self._in_body:
            if self._got < _HDR.size:
                return None
            self._length, self._dir, self._src = _HDR.unpack(self._hdr)
            if self._dir > 1 or self._length > _MAX_FRAME_BYTES:
                raise SerializationError(f"malformed frame header {bytes(self._hdr)!r}")
            if self._length > len(self._body):
                self._body = bytearray(self._length)
            self._got = 0
            self._in_body = True
            if self._length > 0:
                return None
            # Degenerate zero-length body: the frame is already complete.
        if self._got < self._length:
            return None
        view = memoryview(self._body)[: self._length]
        self._got = 0
        self._in_body = False
        return (self._dir, self._src, view)


def _envelope(frame: tuple[int, int, memoryview]) -> Envelope:
    """The envelope a completed decoder frame carries."""
    dir_code, src, body = frame
    if _TEL.enabled:
        _m_rx_bytes.inc(_HDR.size + len(body))
    return Envelope(src, Direction.from_wire(dir_code), Packet.from_bytes(body))


class _ReactorConnection:
    """One non-blocking socket in the reactor: decoder + bounded send queue.

    Producer threads only touch :meth:`enqueue`; ``handle_read`` /
    ``handle_write`` run exclusively on the reactor thread (plus tests
    that drive them directly with the reactor stopped).
    """

    def __init__(
        self, sock: socket.socket, endpoint: Any, owner_rank: int, reactor: "Reactor"
    ) -> None:
        self.sock = sock
        self.endpoint = endpoint
        self.owner_rank = owner_rank
        self.reactor = reactor
        self.decoder = _FrameDecoder()
        self._lock = make_lock("reactor_sendq")
        self._ready = threading.Condition(self._lock)
        # Pending (header, body) frames; depth counts queued + in-flight
        # frames so backpressure releases only on bytes actually flushed.
        self._queue: deque[tuple[bytes, bytes]] = deque()  # tbon: lock=_lock
        self._depth = 0  # tbon: lock=_lock
        self._write_armed = False  # tbon: lock=_lock
        self.closed = False  # tbon: lock=_lock
        # Set (before close) when recovery tears this edge down on
        # purpose, so _drop() does not log it as a peer crash.
        self.expected_close = False
        # Partially written sendmsg vector (reactor thread only).
        self._inflight: list[memoryview] = []
        self._inflight_frames = 0
        # Bulk-read landing zone (reactor thread only).
        self._scratch = memoryview(bytearray(_BULK_DIRECT))
        sock.setblocking(False)

    # -- producer side (any thread) ------------------------------------------
    def enqueue(self, header: bytes, body: bytes, *, high_water: int) -> None:
        """Queue one frame; at ``high_water`` queued frames, wait up to
        :data:`SEND_STALL_S` for the reactor to drain (never on the
        reactor thread: only it drains the queue)."""
        with self._lock:
            if (
                self._depth >= high_water
                and threading.current_thread() is not self.reactor._thread
            ):
                if _TEL.enabled:
                    _m_stalls.inc()
                deadline = time.monotonic() + SEND_STALL_S
                while self._depth >= high_water:
                    if self.closed:
                        raise ChannelClosedError(
                            f"reactor channel for rank {self.owner_rank} closed"
                        )
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise ChannelBusyError(
                            f"send to rank {self.owner_rank} stalled for "
                            f"{SEND_STALL_S:.1f}s at the high-water mark "
                            f"({high_water} frames)"
                        )
                    self._ready.wait(remaining)
            if self.closed:
                raise ChannelClosedError(
                    f"reactor channel for rank {self.owner_rank} closed"
                )
            self._queue.append((header, body))
            self._depth += 1
            if _TEL.enabled:
                _m_qdepth.set(self._depth)
            if not self._write_armed:
                self._write_armed = True
                self.reactor.request_write(self)

    # -- reactor side --------------------------------------------------------
    def handle_read(self) -> None:
        """Drain readable bytes, delivering every completed frame.

        Two read strategies per the module docstring: a body with at
        least :data:`_BULK_DIRECT` bytes outstanding is received straight
        into the decoder's body buffer (no extra copy); everything else
        goes through one bulk ``recv`` into the scratch buffer, which is
        then fed through the decoder frame by frame — at 64-byte payloads
        that is two syscalls and one inbox lock round-trip for a burst
        that previously cost two syscalls and a lock *per frame*.
        """
        decoder = self.decoder
        scratch = self._scratch
        while True:
            view = decoder.recv_view()
            if len(view) >= _BULK_DIRECT:
                n = _nb_recv_into(self.sock, view)
                if n is None:
                    return
                if n == 0:
                    raise ConnectionError("peer closed")
                frame = decoder.advance(n)
                if frame is not None:
                    self.endpoint.put(_envelope(frame))
                continue
            n = _nb_recv_into(self.sock, scratch)
            if n is None:
                return
            if n == 0:
                raise ConnectionError("peer closed")
            batch: list[Envelope] = []
            off = 0
            while off < n:
                view = decoder.recv_view()
                take = len(view)
                if take > n - off:
                    take = n - off
                view[:take] = scratch[off : off + take]
                off += take
                frame = decoder.advance(take)
                if frame is not None:
                    batch.append(_envelope(frame))
            if len(batch) == 1:
                self.endpoint.put(batch[0])
            elif batch:
                self.endpoint.put_many(batch)

    def handle_write(self) -> None:
        """Flush queued frames: coalesced vectored writes until EAGAIN."""
        while True:
            if not self._inflight:
                with self._lock:
                    take = min(len(self._queue), COALESCE_MAX)
                    if take == 0:
                        # Fully drained: drop EVENT_WRITE interest so an
                        # idle channel costs the selector nothing.
                        self._write_armed = False
                        self.reactor.set_write_interest(self, False)
                        return
                    frames = [self._queue.popleft() for _ in range(take)]
                vector: list[memoryview] = []
                for header, body in frames:
                    vector.append(memoryview(header))
                    vector.append(memoryview(body))
                self._inflight = vector
                self._inflight_frames = take
                if _TEL.enabled:
                    _m_coalesced.observe(take)
            sent = _nb_sendmsg(self.sock, self._inflight)
            if sent is None:
                self.reactor.set_write_interest(self, True)
                return  # kernel buffer full; selector re-reports writable
            if _TEL.enabled:
                _m_tx_bytes.inc(sent)
            vector = self._inflight
            while vector and sent >= len(vector[0]):
                sent -= len(vector[0])
                vector.pop(0)
            if vector:
                if sent:
                    vector[0] = vector[0][sent:]
                self.reactor.set_write_interest(self, True)
                return  # partial write; resume this vector on next wakeup
            done = self._inflight_frames
            self._inflight = []
            self._inflight_frames = 0
            with self._lock:
                self._depth -= done
                if _TEL.enabled:
                    _m_qdepth.set(self._depth)
                self._ready.notify_all()

    def expect_close(self) -> None:
        """Mark the coming teardown of this edge as orderly (recovery)."""
        self.expected_close = True

    def mark_closed(self) -> None:
        """Fail-fast half of :meth:`close`: flag the channel closed and
        release every producer blocked on backpressure, leaving the
        socket itself for the reactor thread to close."""
        with self._lock:
            self.closed = True
            self._ready.notify_all()

    def close(self) -> None:
        """Mark closed and release every producer blocked on backpressure."""
        self.mark_closed()
        try:
            self.sock.close()
        except OSError:
            pass


class Reactor:
    """The single-threaded I/O event loop shared by every connection.

    Producer threads never touch the selector; they append to the
    pending-write list and poke the wakeup pipe (:meth:`request_write`),
    and the reactor thread applies the interest changes itself — selector
    mutation stays single-threaded once the loop runs.
    """

    def __init__(self) -> None:
        self._selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector.register(self._wake_r, selectors.EVENT_READ, None)
        self._plock = make_lock("reactor_pending")
        self._pending: list[_ReactorConnection] = []  # tbon: lock=_plock
        self._pending_register: list[_ReactorConnection] = []  # tbon: lock=_plock
        self._pending_drop: list[_ReactorConnection] = []  # tbon: lock=_plock
        self._conns: list[_ReactorConnection] = []
        self._closing = threading.Event()
        self._started = False
        self._thread = threading.Thread(
            target=self._run, name="tbon-reactor-io", daemon=True
        )

    # -- registration (bind time, before the loop starts) --------------------
    def register(self, conn: _ReactorConnection) -> None:
        self._conns.append(conn)
        self._selector.register(conn.sock, selectors.EVENT_READ, conn)

    def start(self) -> None:
        self._started = True
        self._thread.start()

    # -- live (re-)registration (recovery path, any thread) ------------------
    def register_live(self, conn: _ReactorConnection) -> None:
        """Hand a repaired channel to the running loop.

        Selector mutation stays single-threaded: the connection is
        queued and the loop itself registers it on the next wakeup —
        before it processes any pending write for the same channel, so
        a send racing the repair cannot observe a half-registered
        socket.
        """
        if not self._started:
            self.register(conn)
            return
        with self._plock:
            self._pending_register.append(conn)
        _nb_wake_send(self._wake_w)

    def drop_live(self, conn: _ReactorConnection) -> None:
        """Detach ``conn`` from the running loop and close it (any thread).

        The loop must do the unregistering itself: closing the fd first
        would leave a stale selector entry that collides with the next
        registration when the kernel reuses the fd number.  The
        connection is only *marked* closed here (releasing any producer
        blocked on backpressure); the socket closes on the loop thread.
        """
        if not self._started or self._closing.is_set():
            try:
                self._selector.unregister(conn.sock)
            except (KeyError, ValueError, OSError):
                pass
            conn.close()
            if conn in self._conns:
                self._conns.remove(conn)
            return
        conn.mark_closed()  # sends fail fast from this point on
        with self._plock:
            self._pending_drop.append(conn)
        _nb_wake_send(self._wake_w)

    # -- producer-facing wakeup ----------------------------------------------
    def request_write(self, conn: _ReactorConnection) -> None:
        """Ask the loop to arm EVENT_WRITE for ``conn`` (any thread)."""
        with self._plock:
            self._pending.append(conn)
        _nb_wake_send(self._wake_w)

    # -- reactor thread ------------------------------------------------------
    def set_write_interest(self, conn: _ReactorConnection, on: bool) -> None:
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if on else 0)
        try:
            self._selector.modify(conn.sock, events, conn)
        except (KeyError, ValueError, OSError):
            pass  # connection already unregistered (teardown race)

    def _drain_wakeups(self) -> None:
        buf = memoryview(bytearray(4096))
        while _nb_recv_into(self._wake_r, buf):
            pass
        with self._plock:
            drops, self._pending_drop = self._pending_drop, []
            registers, self._pending_register = self._pending_register, []
            pending, self._pending = self._pending, []
        # Order matters: drops before registers (a reconnect queues the
        # old channel's drop before the new one's register, and the new
        # socket may reuse the old fd), registers before writes (a send
        # racing the repair must find its socket registered).
        for conn in drops:
            try:
                self._selector.unregister(conn.sock)
            except (KeyError, ValueError, OSError):
                pass
            conn.close()
            if conn in self._conns:
                self._conns.remove(conn)
        for conn in registers:
            if conn.closed:
                continue
            self._conns.append(conn)
            try:
                self._selector.register(conn.sock, selectors.EVENT_READ, conn)
            except (KeyError, ValueError, OSError) as exc:
                self._drop(conn, OSError(f"live registration failed: {exc}"))
        for conn in pending:
            if conn.closed:
                continue
            try:
                # Flush opportunistically right now; handle_write arms
                # EVENT_WRITE itself if the kernel buffer pushes back.
                conn.handle_write()
            except (ConnectionError, OSError, ChannelClosedError) as exc:
                self._drop(conn, exc)

    def _run(self) -> None:
        while not self._closing.is_set():
            try:
                events = self._selector.select()
            except OSError:
                break  # selector torn down concurrently with stop()
            if _TEL.enabled:
                _m_iterations.inc()
            if self._closing.is_set():
                break
            for key, mask in events:
                conn = key.data
                if conn is None:
                    self._drain_wakeups()
                    continue
                try:
                    if mask & selectors.EVENT_READ:
                        conn.handle_read()
                    if mask & selectors.EVENT_WRITE:
                        conn.handle_write()
                except (
                    ConnectionError,
                    OSError,
                    ChannelClosedError,
                    SerializationError,
                ) as exc:
                    self._drop(conn, exc)

    def _drop(self, conn: _ReactorConnection, exc: Exception) -> None:
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError, OSError):
            pass
        conn.close()
        if conn in self._conns:
            self._conns.remove(conn)
        if not self._closing.is_set() and not conn.expected_close:
            _LOG.warning(
                "reactor connection for rank %d terminated: %s",
                conn.owner_rank,
                exc,
            )

    def stop(self) -> None:
        """Stop the loop, close every socket, release blocked senders."""
        self._closing.set()
        _nb_wake_send(self._wake_w)
        if self._started:
            self._thread.join(5.0)
        with self._plock:
            leftovers = self._pending_register + self._pending_drop
            self._pending_register = []
            self._pending_drop = []
        for conn in leftovers:
            conn.close()
        for conn in self._conns:
            conn.close()
        try:
            self._selector.close()
        except OSError:
            pass
        self._wake_r.close()
        self._wake_w.close()


class ReactorTransport(Transport):
    """Localhost-TCP channels multiplexed onto one reactor thread.

    FIFO per channel and reliable while the channel is open, with O(1)
    I/O threads per process, coalesced vectored writes, and bounded send
    queues providing real backpressure (see the module docstring and
    docs/PROTOCOL.md §7).  Every edge — at bind, on :meth:`rebind` and on
    :meth:`reconnect_edge` — is opened by :func:`open_edges` on the
    caller's thread, never on the reactor's.

    Args:
        host: bind address (localhost only).
        connect_timeout: accept/connect timeout in seconds.
    """

    def __init__(self, host: str = "127.0.0.1", connect_timeout: float = 10.0):
        super().__init__()
        self.host = host
        self.connect_timeout = connect_timeout
        self._reactor = Reactor()
        # (owner_rank, peer_rank) -> connection used by owner to reach peer
        self._conns: dict[tuple[int, int], _ReactorConnection] = {}
        self._listeners: dict[int, socket.socket] = {}

    def _attach(self, owner: int, peer: int, sock: socket.socket) -> None:
        conn = _ReactorConnection(sock, self._endpoints[owner], owner, self._reactor)
        self._conns[(owner, peer)] = conn
        # register_live degrades to plain register() before the loop
        # starts, so bind and repair share this one attach path.
        self._reactor.register_live(conn)

    def _open(self, edges: Sequence[tuple[int, int]]) -> None:
        open_edges(self.host, self.connect_timeout, edges, self._listeners, self._attach)

    def _repair(self, edges: Sequence[tuple[int, int]]) -> None:
        """Open ``edges`` on the live transport, counted as reconnects."""
        if edges:
            self._open(edges)
            if _TEL.enabled:
                _m_reconnects.inc(len(edges))

    def _close_channels(self, keys: Sequence[tuple[int, int]]) -> bool:
        """Close the channels ``keys`` as an expected teardown; True if
        any was open.

        Every channel is flagged before the first socket closes: closing
        one direction delivers EOF on its paired reverse channel, and the
        reactor must already know that close is expected or it logs a
        spurious termination warning (the teardown race).
        """
        conns = [self._conns.pop(k) for k in keys if k in self._conns]
        for conn in conns:
            conn.expect_close()
        for conn in conns:
            self._reactor.drop_live(conn)
        return bool(conns)

    def bind(self, topology: Topology) -> None:
        super().bind(topology)
        self._open(list(topology.iter_edges()))
        self._reactor.start()

    def rebind(self, topology: Topology) -> None:
        """Adopt a reconfigured topology on live sockets.

        Surviving edges keep their connections (and any frames queued on
        them — no data loss on channels that did not break); channels to
        ranks that left the tree are closed orderly; edges the new tree
        introduces (children re-parented onto the grandparent, attached
        back-ends) are established with backoff before this returns.
        """
        self.rebinding = True
        try:
            keep = {e for p, c in topology.iter_edges() for e in ((p, c), (c, p))}
            self._close_channels([k for k in self._conns if k not in keep])
            for rank in [r for r in self._listeners if r not in topology]:
                self._listeners.pop(rank).close()
            super().rebind(topology)
            self._repair([e for e in topology.iter_edges() if e not in self._conns])
        finally:
            self.rebinding = False

    def disconnect_rank(self, rank: int) -> None:
        """Sever every channel touching ``rank`` (crash semantics).

        Used by failure injection before the node's inbox closes: a
        crashed process takes its sockets with it.  Surviving peers'
        channels see the close as orderly (per-edge expected flag) — the
        recovery layer, not a log warning, is what reports the failure.
        """
        self._close_channels([k for k in self._conns if rank in k])
        srv = self._listeners.pop(rank, None)
        if srv is not None:
            srv.close()

    def reset_edge(self, a: int, b: int) -> None:
        """Tear down the channel pair of edge ``(a, b)`` mid-run.

        The chaos engine's connection-reset fault: frames queued on the
        edge are lost, subsequent sends raise
        :class:`ChannelClosedError` until :meth:`reconnect_edge`
        repairs it.
        """
        if not self._close_channels([(a, b), (b, a)]):
            raise TransportError(f"({a}, {b}) has no live connection to reset")

    def reconnect_edge(self, parent: int, child: int) -> None:
        """Re-establish one tree edge (the repair half of a reset)."""
        self._close_channels([(parent, child), (child, parent)])
        self._repair([(parent, child)])

    def _enqueue(self, src: int, dst: int, header: bytes, body: bytes) -> None:
        self._check_edge(src, dst)
        conn = self._conns.get((src, dst))
        if conn is None or self._closing.is_set():
            raise ChannelClosedError(f"no reactor connection {src}->{dst}")
        conn.enqueue(header, body, high_water=SEND_QUEUE_FRAMES)

    def send(self, src: int, dst: int, direction: Direction, packet: Any) -> None:
        body = packet.to_bytes()
        header = _HDR.pack(len(body), direction.wire_code, src)
        self._enqueue(src, dst, header, body)

    def multicast(
        self, src: int, dsts: Sequence[int], direction: Direction, packet: Any
    ) -> None:
        """Serialize-once multicast: one ``to_bytes``, one header pack, k
        queue appends — the k ``sendmsg`` calls collapse further through
        coalescing on the reactor thread."""
        body = packet.to_bytes()
        header = _HDR.pack(len(body), direction.wire_code, src)
        deliver_each(dsts, lambda dst: self._enqueue(src, dst, header, body))

    def shutdown(self) -> None:
        self._closing.set()
        self._reactor.stop()
        for srv in self._listeners.values():
            srv.close()
        super().shutdown()
