"""Blocking-socket helpers for the socket transport.

The paper's TBONs "use network transport protocols, like TCP, to
implement data multicast, gather and reduction services"; the socket
transport (:mod:`repro.transport.reactor`) runs the identical
middleware over genuine localhost TCP connections, one per tree edge,
all driven by a single selector loop.  This module holds the one part
of it that blocks — and that tboncheck rule TB601 therefore keeps out
of the reactor module: :func:`open_edges`, the edge setup that bind,
recovery, live attach and reset repair all go through (lazy listeners,
one accept thread per parent, child→parent connects with backoff, and
the rank hello handshake).

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
from typing import Callable, Sequence

from ..core.errors import TransportError

__all__ = ["open_edges", "connect_with_backoff"]

_HDR = struct.Struct("<IBi")
_RANK_HELLO = struct.Struct("<i")

#: Connect attempts per edge, and the capped exponential backoff between
#: them: ``delay = min(BASE * 2^n, MAX) * U[0.5, 1.0)``.
CONNECT_ATTEMPTS = 6
BACKOFF_BASE_S = 0.05
BACKOFF_MAX_S = 1.0

#: ``attach(owner_rank, peer_rank, sock)`` takes one established socket.
Attach = Callable[[int, int, socket.socket], None]


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


def _start_acceptor(
    rank: int, srv: socket.socket, n: int, attach: Attach, errors: list[Exception]
) -> threading.Thread:
    """Accept ``n`` hello-handshaken children on ``srv`` on a new thread.

    Each accepted socket (TCP_NODELAY set, still blocking) is passed to
    ``attach(rank, child_rank, sock)``; a failure is appended to
    ``errors`` for the caller to surface after joining the thread.
    """

    def accept_all() -> None:
        try:
            for _ in range(n):
                conn, _addr = srv.accept()
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                (child,) = _RANK_HELLO.unpack(_recv_exact(conn, _RANK_HELLO.size))
                attach(rank, child, conn)
        except Exception as exc:  # surfaced after join
            errors.append(exc)

    t = threading.Thread(
        target=accept_all, name=f"tbon-tcp-accept-{rank}", daemon=True
    )
    t.start()
    return t


def connect_with_backoff(
    host: str, port: int, rank: int, connect_timeout: float
) -> socket.socket:
    """Connect to a listener and announce ``rank``, retrying with backoff.

    While an edge is being repaired the peer's accept thread may not be
    up yet, so connection refusals are retried :data:`CONNECT_ATTEMPTS`
    times with capped exponential backoff plus jitter (the jitter keeps
    k children re-parented onto one grandparent from hammering its
    listener in lockstep).  Raises :class:`TransportError` once the
    attempts are exhausted.
    """
    last: Exception | None = None
    for attempt in range(CONNECT_ATTEMPTS):
        try:
            sock = socket.create_connection((host, port), timeout=connect_timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.sendall(_RANK_HELLO.pack(rank))
            return sock
        except OSError as exc:
            last = exc
            delay = min(BACKOFF_BASE_S * (2**attempt), BACKOFF_MAX_S)
            time.sleep(delay * (0.5 + random.random() / 2))
    raise TransportError(
        f"rank {rank} could not reconnect to {host}:{port} "
        f"after {CONNECT_ATTEMPTS} attempts: {last}"
    )


def open_edges(
    host: str,
    connect_timeout: float,
    edges: Sequence[tuple[int, int]],
    listeners: dict[int, socket.socket],
    attach: Attach,
) -> None:
    """Open a hello-handshaken socket pair for every ``(parent, child)``.

    ``listeners`` maps rank to listening socket and gains one for each
    parent that has none yet (every parent at bind; a back-end promoted
    to carry re-parented children, or a rank whose listener died with
    a crash, during repair) — the caller owns closing them.  One accept
    thread runs per parent, so a wide flat tree binds in one round trip,
    not fanout round trips; children connect child→parent with
    :func:`connect_with_backoff`.  Each established socket (TCP_NODELAY
    set, still blocking) goes to ``attach(owner_rank, peer_rank, sock)``
    — once for the parent side and once for the child side of each
    edge.  Blocks until every edge is up; runs on the caller's thread.
    """
    by_parent: dict[int, int] = {}
    for parent, _child in edges:
        by_parent[parent] = by_parent.get(parent, 0) + 1
    for parent in by_parent:
        if parent not in listeners:
            srv = socket.create_server((host, 0))
            srv.settimeout(connect_timeout)
            listeners[parent] = srv
    errors: list[Exception] = []
    acceptors = [
        _start_acceptor(parent, listeners[parent], n, attach, errors)
        for parent, n in by_parent.items()
    ]
    for parent, child in edges:
        port = listeners[parent].getsockname()[1]
        attach(child, parent, connect_with_backoff(host, port, child, connect_timeout))
    for t in acceptors:
        t.join(connect_timeout)
    if errors or any(t.is_alive() for t in acceptors):
        cause = errors[0] if errors else "accept timed out"
        raise TransportError(f"TCP edge setup failed: {cause}")
