"""Blocking-socket helpers for the socket transport.

The paper's TBONs "use network transport protocols, like TCP, to
implement data multicast, gather and reduction services"; the socket
transport (:mod:`repro.transport.reactor`) runs the identical
middleware over genuine localhost TCP connections, one per tree edge,
all driven by a single selector loop.  This module holds the parts of
it that block — and that tboncheck rule TB601 therefore keeps out of the
reactor module:

* the bind-time edge setup (:func:`establish_edges`): one listening
  socket per rank with children, child→parent connects, and the rank
  hello handshake;
* the recovery-time reconnect (:func:`connect_with_backoff`) and the
  live edge-repair machinery (:class:`_EdgeRepairMixin`).

Wire format per frame (all little-endian), shared with the reactor's
framer through :data:`_HDR`::

    u32 length | u8 direction (0=up, 1=down) | i32 src rank | packet bytes

The transport binds 127.0.0.1 only; it demonstrates the real-socket data
path, not multi-host deployment (see DESIGN.md, out of scope).
"""

from __future__ import annotations

import random
import socket
import struct
import threading
import time
from typing import Any, Sequence

from ..core.errors import TransportError
from ..core.topology import Topology
from ..telemetry.registry import GLOBAL as _TELEMETRY, TELEMETRY as _TEL
from .base import Inbox

__all__ = [
    "establish_edges",
    "connect_with_backoff",
    "send_rank_hello",
    "recv_rank_hello",
]

# Edge repairs, counted in the GLOBAL registry (docs/RELIABILITY.md).
_m_reconnects = _TELEMETRY.counter("tbon_recovery_reconnects_total")

_HDR = struct.Struct("<IBi")
_RANK_HELLO = struct.Struct("<i")


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes from a blocking socket."""
    buf = bytearray(n)
    view = memoryview(buf)
    while view:
        got = sock.recv_into(view)
        if not got:
            raise ConnectionError("peer closed")
        view = view[got:]
    return bytes(buf)


def send_rank_hello(sock: socket.socket, rank: int) -> None:
    """Blocking half of the connect handshake: announce our rank.

    Lives here (not in the reactor module) because bind-time sockets are
    still blocking; the reactor package is forbidden from issuing direct
    blocking socket calls (tboncheck TB601).
    """
    sock.sendall(_RANK_HELLO.pack(rank))


def recv_rank_hello(sock: socket.socket) -> int:
    """Blocking accept half of the handshake: read the peer's rank."""
    (rank,) = _RANK_HELLO.unpack(_recv_exact(sock, _RANK_HELLO.size))
    return rank


def _start_acceptor(
    rank: int,
    srv: socket.socket,
    n: int,
    on_connection: Any,
    errors: list[Exception],
) -> threading.Thread:
    """Accept ``n`` hello-handshaken children on ``srv`` on a new thread.

    Each accepted socket (TCP_NODELAY set, still blocking) is passed to
    ``on_connection(rank, child_rank, sock)``; a failure is appended to
    ``errors`` for the caller to surface after joining the thread.
    """

    def accept_all() -> None:
        try:
            for _ in range(n):
                conn, _addr = srv.accept()
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                on_connection(rank, recv_rank_hello(conn), conn)
        except Exception as exc:  # surfaced after join
            errors.append(exc)

    t = threading.Thread(
        target=accept_all, name=f"tbon-tcp-accept-{rank}", daemon=True
    )
    t.start()
    return t


def establish_edges(
    host: str,
    connect_timeout: float,
    topology: Topology,
    on_connection: Any,
) -> dict[int, socket.socket]:
    """Open every tree-edge socket pair and hand them to ``on_connection``.

    One listening socket per rank with children; children connect
    child→parent and announce themselves with the rank hello.  Each
    established socket (TCP_NODELAY set, still blocking) is passed to
    ``on_connection(owner_rank, peer_rank, sock)`` — once for the
    parent-side socket and once for the child-side socket of each edge.
    Accepting runs on transient per-listener threads so a wide flat
    topology binds in one round trip, not fanout round trips.

    Returns the listener sockets by rank (the caller owns closing them
    at shutdown).
    """
    listeners: dict[int, socket.socket] = {}
    for rank in topology.ranks:
        if topology.children(rank):
            srv = socket.create_server((host, 0))
            srv.settimeout(connect_timeout)
            listeners[rank] = srv

    accept_errors: list[Exception] = []
    acceptors = [
        _start_acceptor(
            rank, srv, len(topology.children(rank)), on_connection, accept_errors
        )
        for rank, srv in listeners.items()
    ]

    for parent, child in topology.iter_edges():
        sock = socket.create_connection(
            listeners[parent].getsockname(), timeout=connect_timeout
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        send_rank_hello(sock, child)
        on_connection(child, parent, sock)

    for t in acceptors:
        t.join(connect_timeout)
    if accept_errors:
        for srv in listeners.values():
            srv.close()
        raise TransportError(f"TCP accept failed: {accept_errors[0]}")
    return listeners


def connect_with_backoff(
    host: str,
    port: int,
    rank: int,
    *,
    connect_timeout: float,
    attempts: int = 6,
    base_delay: float = 0.05,
    max_delay: float = 1.0,
    rng: random.Random | None = None,
) -> socket.socket:
    """Connect to a listener and announce ``rank``, retrying with backoff.

    Recovery-path counterpart of the bind-time ``create_connection``:
    while an edge is being repaired the peer's accept thread may not be
    up yet, so connection refusals are retried with capped exponential
    backoff plus jitter (``delay = min(base * 2^n, cap) * U[0.5, 1.0)``
    — the jitter keeps k children re-parented onto one grandparent from
    hammering its listener in lockstep).  Raises
    :class:`TransportError` once the attempts are exhausted.
    """
    jitter = (rng or random).random
    last: Exception | None = None
    for attempt in range(attempts):
        try:
            sock = socket.create_connection((host, port), timeout=connect_timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            send_rank_hello(sock, rank)
            return sock
        except OSError as exc:
            last = exc
            delay = min(base_delay * (2**attempt), max_delay)
            time.sleep(delay * (0.5 + jitter() / 2))
    raise TransportError(
        f"rank {rank} could not reconnect to {host}:{port} "
        f"after {attempts} attempts: {last}"
    )


class _EdgeRepairMixin:
    """Live-reconfiguration machinery of the socket transport.

    Works on the transport's bookkeeping — ``_conns[(owner, peer)]``,
    ``_listeners[rank]``, ``_endpoints[rank]`` — to do everything recovery
    needs: dropping the dead node's channels, re-listening, reconnecting
    re-parented children with backoff.  The transport supplies two
    hooks, :meth:`_attach` (wrap an established socket in its connection
    type) and :meth:`_drop_conn` (tear one channel down).

    The blocking accept/connect calls here run on the recovery caller's
    thread, never on a reactor event loop — which is also why this lives
    in the tcp module and not the reactor one (tboncheck TB601).
    """

    host: str
    connect_timeout: float
    rebinding: bool
    _endpoints: dict[int, Any]
    _listeners: dict[int, socket.socket]
    _conns: dict[tuple[int, int], Any]
    topology: Topology | None

    def _attach(self, owner: int, peer: int, sock: socket.socket) -> None:
        raise NotImplementedError

    def _drop_conn(self, key: tuple[int, int]) -> Any:
        raise NotImplementedError

    def _listener_for(self, rank: int) -> socket.socket:
        """The rank's listening socket, created lazily for new parents
        (a back-end promoted to carry re-parented children, or a rank
        whose listener died with the crash being repaired)."""
        srv = self._listeners.get(rank)
        if srv is None:
            srv = socket.create_server((self.host, 0))
            srv.settimeout(self.connect_timeout)
            self._listeners[rank] = srv
        return srv

    def _establish_missing(self, edges: Sequence[tuple[int, int]]) -> None:
        """Open sockets for ``edges`` (parent, child), hello-handshaken.

        Mirrors bind-time :func:`establish_edges` — transient accept
        thread per parent, child side connecting with
        :func:`connect_with_backoff` — but against the live transport's
        connection table.
        """
        if not edges:
            return
        by_parent: dict[int, list[int]] = {}
        for parent, child in edges:
            by_parent.setdefault(parent, []).append(child)
        errors: list[Exception] = []
        acceptors = [
            _start_acceptor(
                parent, self._listener_for(parent), len(kids), self._attach, errors
            )
            for parent, kids in by_parent.items()
        ]
        for parent, kids in by_parent.items():
            for child in kids:
                sock = connect_with_backoff(
                    self.host, self._listeners[parent].getsockname()[1], child,
                    connect_timeout=self.connect_timeout,
                )
                self._attach(child, parent, sock)
        for t in acceptors:
            t.join(self.connect_timeout)
        if errors:
            raise TransportError(f"edge repair failed: {errors[0]}")
        still = [e for e in edges if e not in self._conns]
        if still:
            raise TransportError(f"edges failed to re-establish: {still}")
        if _TEL.enabled:
            _m_reconnects.inc(len(edges))

    def _mark_expected(self, keys: list[tuple[int, int]]) -> None:
        """Flag every channel in ``keys`` as expecting an orderly close.

        Must happen *before* the first socket of the batch is closed:
        closing one direction delivers EOF on its paired reverse channel,
        and the reactor must already know that close is expected
        or it logs a spurious termination warning (the teardown race).
        """
        for key in keys:
            conn = self._conns.get(key)
            if conn is not None:
                conn.expect_close()

    def rebind(self, topology: Topology) -> None:
        """Adopt a reconfigured topology on live sockets.

        Surviving edges keep their connections (and any frames queued on
        them — no data loss on channels that did not break); channels to
        ranks that left the tree are closed orderly; edges the new tree
        introduces (children re-parented onto the grandparent, attached
        back-ends) are established with backoff before this returns.
        """
        if self.topology is None:
            raise TransportError("transport is not bound")
        self.rebinding = True
        try:
            keep: set[tuple[int, int]] = set()
            for parent, child in topology.iter_edges():
                keep.add((parent, child))
                keep.add((child, parent))
            stale = [k for k in self._conns if k not in keep]
            self._mark_expected(stale)
            for key in stale:
                self._drop_conn(key)
            for rank in [r for r in self._listeners if r not in topology]:
                self._listeners.pop(rank).close()
            for rank in topology.ranks:
                self._endpoints.setdefault(rank, Inbox())
            self.topology = topology
            self._establish_missing(
                [e for e in topology.iter_edges() if e not in self._conns]
            )
        finally:
            self.rebinding = False

    def disconnect_rank(self, rank: int) -> None:
        """Sever every channel touching ``rank`` (crash semantics).

        Used by failure injection before the node's inbox closes: a
        crashed process takes its sockets with it.  Surviving peers'
        channels see the close as orderly (per-edge expected flag) — the
        recovery layer, not a log warning, is what reports the failure.
        """
        keys = [k for k in self._conns if rank in k]
        self._mark_expected(keys)
        for key in keys:
            self._drop_conn(key)
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
        self._mark_expected([(a, b), (b, a)])
        found = False
        for key in ((a, b), (b, a)):
            if self._drop_conn(key) is not None:
                found = True
        if not found:
            raise TransportError(f"({a}, {b}) has no live connection to reset")

    def reconnect_edge(self, parent: int, child: int) -> None:
        """Re-establish one tree edge (the repair half of a reset)."""
        self._mark_expected([(parent, child), (child, parent)])
        for key in ((parent, child), (child, parent)):
            self._drop_conn(key)
        self._establish_missing([(parent, child)])
