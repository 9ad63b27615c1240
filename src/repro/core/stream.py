"""Front-end stream handles.

MRNet applications communicate over *streams* — "virtual channels"
binding a subset of back-ends to a (transformation, synchronization)
filter pair.  Multiple streams coexist on one tree and may overlap in
membership; each keeps independent filter state at every node.

:class:`Stream` is the front-end's handle: ``send`` multicasts downstream
to the member back-ends, ``recv`` yields the aggregated upstream packets
emerging from the root filter, and ``close`` runs the loss-free
tear-down handshake (close broadcast down, per-subtree flush, acks up).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable

from ..analysis.locks import make_lock
from .errors import NetworkShutdownError, StreamClosedError
from .events import CONTROL_STREAM_ID, StreamSpec, TAG_STREAM_CLOSE
from .packet import Packet

__all__ = ["Stream"]


class Stream:
    """One virtual channel between the front-end and member back-ends."""

    def __init__(self, network: Any, spec: StreamSpec):
        self.network = network
        self.spec = spec
        self.stream_id = spec.stream_id
        self.members = spec.members
        # Aggregates and forwarded errors, in arrival order, guarded by
        # one condition that every state change notifies (like
        # BackEnd.recv): no receive polls.
        self._cond = threading.Condition(make_lock("stream_cond"))
        self._items: "deque[Packet | Exception]" = deque()
        self._closed = threading.Event()  # set by the close ack
        self._ended = False  # tbon: lock=_cond

    # -- called by the front-end dispatcher (root node thread) ------------------
    def _deliver(self, packet: Packet) -> None:
        with self._cond:
            self._items.append(packet)
            self._cond.notify_all()

    def _deliver_error(self, exc: Exception) -> None:
        with self._cond:
            self._items.append(exc)
            self._cond.notify_all()

    def _mark_closed(self) -> None:
        with self._cond:
            self._closed.set()
            self._cond.notify_all()

    def _end(self) -> None:
        """The network shut down: wake every waiter; later waits fail fast."""
        with self._cond:
            self._ended = True
            self._cond.notify_all()

    def _wait(self, ready: Callable[[], bool], timeout: float | None) -> bool:
        """Wait (holding ``_cond``) until ``ready()`` or the network ended.

        Returns False on timeout.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while not ready() and not self._ended:
            wait = None if deadline is None else deadline - time.monotonic()
            if wait is not None and wait <= 0:
                return False
            self._cond.wait(wait)
        return True

    def _shut_down(self) -> NetworkShutdownError:
        return NetworkShutdownError(
            f"stream {self.stream_id}: the network has been shut down"
        )

    def _await_close_ack(self, timeout: float | None) -> None:
        """Wait (holding ``_cond``) for the close ack; raise if it never came."""
        if not self._wait(self._closed.is_set, timeout):
            raise TimeoutError(
                f"stream {self.stream_id}: close not acked in {timeout}s"
            )
        if not self._closed.is_set():
            raise self._shut_down()

    # -- application API -------------------------------------------------------
    def send(self, tag: int, fmt: str, *values: Any) -> None:
        """Multicast one packet downstream to all member back-ends."""
        if self._closed.is_set():
            raise StreamClosedError(f"stream {self.stream_id} is closed")
        pkt = Packet(self.stream_id, tag, fmt, values, src=-1)
        self.network._inject_down(pkt)

    def recv(self, timeout: float | None = None) -> Packet:
        """Receive the next aggregated packet from the root filter.

        Packets already queued are returned first, even after a close or
        a network shutdown.

        Raises:
            TimeoutError: nothing arrived in ``timeout`` seconds.
            FilterError: a filter failed somewhere in the tree (the
                error is forwarded to the front-end).
            StreamClosedError: the stream closed and the queue drained.
            NetworkShutdownError: the network shut down and the queue
                drained.
        """
        with self._cond:
            if not self._wait(
                lambda: bool(self._items) or self._closed.is_set(), timeout
            ):
                raise TimeoutError(
                    f"stream {self.stream_id}: no packet within {timeout}s"
                )
            if not self._items:
                if self._closed.is_set():
                    raise StreamClosedError(f"stream {self.stream_id} is closed")
                raise self._shut_down()
            item = self._items.popleft()
        if isinstance(item, Exception):
            raise item
        return item

    def recv_nowait(self) -> Packet | None:
        """Non-blocking receive; None if nothing is queued."""
        with self._cond:
            if not self._items:
                return None
            item = self._items.popleft()
        if isinstance(item, Exception):
            raise item
        return item

    def drain(self, timeout: float | None = None) -> list[Packet]:
        """Collect packets until the stream's close ack (then return all).

        Convenience for the common "close then read every remaining
        aggregate" pattern; must be called *after* :meth:`close_async`.
        Raises :class:`NetworkShutdownError` if the network shuts down
        before the ack (the queued packets stay readable by ``recv``).
        """
        with self._cond:
            self._await_close_ack(timeout)
            items = list(self._items)
            self._items.clear()
        out: list[Packet] = []
        for item in items:
            if isinstance(item, Exception):
                raise item
            out.append(item)
        return out

    def iter(self, timeout: float | None = None):
        """Iterate over aggregated packets until the stream closes.

        Convenience for consumers of unbounded streams (monitoring,
        epoch queries): yields packets as they arrive; ``timeout``
        bounds each individual wait.  Stops cleanly at close.
        """
        while True:
            try:
                yield self.recv(timeout=timeout)
            except StreamClosedError:
                return

    def close_async(self) -> None:
        """Initiate the close handshake without waiting for the ack."""
        if self._closed.is_set():
            return
        pkt = Packet(
            CONTROL_STREAM_ID, TAG_STREAM_CLOSE, "%d", (self.stream_id,)
        )
        self.network._inject_down(pkt)

    def close(self, timeout: float | None = 10.0) -> None:
        """Close the stream and wait for every subtree to flush and ack."""
        if self._closed.is_set():
            return
        self.close_async()
        with self._cond:
            self._await_close_ack(timeout)

    @property
    def is_closed(self) -> bool:
        return self._closed.is_set()

    def __enter__(self) -> "Stream":
        return self

    def __exit__(self, *exc: Any) -> None:
        if not self._closed.is_set():
            self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Stream(id={self.stream_id}, members={len(self.members)}, "
            f"transform={self.spec.transform!r}, sync={self.spec.sync!r})"
        )
