"""Transport abstraction: FIFO channels between tree processes.

The TBON model connects processes "via FIFO channels [that] serve as
conduits through which application-level packets flow".  A
:class:`Transport` materializes a :class:`~repro.core.topology.Topology`
into per-rank endpoints plus a send primitive along tree edges; everything
above this layer (node event loops, filters, streams) is
transport-independent, so the same middleware runs over in-process
queues (:mod:`repro.transport.local`) or real TCP sockets driven by one
selector loop (:mod:`repro.transport.reactor`).

Guarantees every transport must provide:

* **FIFO per channel** — messages between one (src, dst) pair arrive in
  send order;
* **reliable delivery** while the channel is open;
* **close visibility** — receivers unblock with
  :class:`~repro.core.errors.ChannelClosedError` once a channel closes.

A rank's *endpoint* has ``put(env)``, ``put_many(envs)`` and ``close()``:
an :class:`Inbox` drained by a node thread, or a back-end itself.
"""

from __future__ import annotations

import abc
import queue
import threading
from typing import Any, Callable, Sequence

from ..core.errors import ChannelClosedError, TransportError
from ..core.events import Direction, Envelope
from ..core.topology import Topology

__all__ = ["Inbox", "Transport", "SHUTDOWN_SENTINEL", "deliver_each"]

#: Placed on an inbox to unblock and terminate its consumer.
SHUTDOWN_SENTINEL = object()


def deliver_each(dsts: Sequence[int], deliver: Callable[[int], None]) -> None:
    """Every transport's fan-out loop: ``deliver(dst)`` for each
    destination, so a dead child never starves its siblings, then one
    error naming every failed destination — :class:`ChannelClosedError`
    when each failure was one, so an orderly teardown stays recognisable.
    """
    failed: dict[int, TransportError] = {}
    for dst in dsts:
        try:
            deliver(dst)
        except TransportError as exc:
            failed[dst] = exc
    if failed:
        closed = all(isinstance(e, ChannelClosedError) for e in failed.values())
        raise (ChannelClosedError if closed else TransportError)(
            f"delivery failed to {len(failed)} of {len(dsts)} destination(s): "
            + "; ".join(f"{dst}: {exc}" for dst, exc in failed.items())
        )


class Inbox:
    """A rank's receive queue of :class:`Envelope` objects.

    Thin wrapper over :class:`queue.Queue` adding a shutdown sentinel
    protocol: after :meth:`close`, pending envelopes still drain, then
    every :meth:`get` raises :class:`ChannelClosedError`.
    """

    def __init__(self) -> None:
        self._q: "queue.Queue[Any]" = queue.Queue()
        self._closed = False

    def put(self, env: Envelope) -> None:
        if self._closed:
            raise ChannelClosedError("inbox is closed")
        self._q.put(env)

    def put_many(self, envs: Sequence[Envelope]) -> None:
        """Append several envelopes under one queue-lock round-trip.

        The receive-side mirror of :meth:`get_batch`'s ``_drain_locked``:
        a reader that parsed a burst of frames from one bulk ``recv``
        posts them all with a single lock acquisition and wakeup instead
        of one per packet.
        """
        if self._closed:
            raise ChannelClosedError("inbox is closed")
        if not envs:
            return
        q = self._q
        with q.mutex:
            q.queue.extend(envs)
            q.unfinished_tasks += len(envs)
            q.not_empty.notify(len(envs))

    def get(self, timeout: float | None = None) -> Envelope:
        """Block for the next envelope.

        Raises:
            queue.Empty: the timeout elapsed.
            ChannelClosedError: the inbox was closed and has drained.
        """
        item = self._q.get(timeout=timeout) if timeout is not None else self._q.get()
        if item is SHUTDOWN_SENTINEL:
            self._closed = True
            # Re-post so every other blocked consumer also wakes.
            self._q.put(SHUTDOWN_SENTINEL)
            raise ChannelClosedError("inbox closed")
        return item

    def _drain_locked(self, out: list, max_n: int) -> None:
        """Move up to ``max_n`` ready envelopes into ``out``.

        Takes the queue's internal lock once for the whole drain —
        under load this is the difference between one lock round-trip
        per wakeup and one per packet.  A sentinel encountered mid-drain
        stays queued (behind the already-drained envelopes) so other
        consumers still observe the close.
        """
        q = self._q
        with q.mutex:
            items = q.queue
            while items and len(out) < max_n:
                if items[0] is SHUTDOWN_SENTINEL:
                    self._closed = True
                    break
                out.append(items.popleft())

    def get_batch(self, max_n: int = 64, timeout: float | None = None) -> list[Envelope]:
        """Block for at least one envelope, then drain all ready ones.

        Returns between 1 and ``max_n`` envelopes in arrival order.

        Raises:
            queue.Empty: the timeout elapsed with nothing available.
            ChannelClosedError: the inbox was closed and has drained.
        """
        out: list[Envelope] = []
        self._drain_locked(out, max_n)
        if out:
            return out
        if self._closed:
            raise ChannelClosedError("inbox closed")
        # Nothing ready: block for the first envelope, then sweep again
        # for anything that arrived while we were waking up.
        out.append(self.get(timeout=timeout))
        self._drain_locked(out, max_n)
        return out

    def close(self) -> None:
        self._q.put(SHUTDOWN_SENTINEL)

    def qsize(self) -> int:
        return self._q.qsize()


class Transport(abc.ABC):
    """Factory for the channels of one instantiated network.

    Lifecycle: ``bind(topology)`` once, then :meth:`send` along tree
    edges (and :meth:`rebind` on live reconfiguration), then
    :meth:`shutdown`.  Ranks are the topology's ranks.  Every member the
    node loops, recovery and chaos layers use is declared here, so no
    caller has to probe a transport for a capability.
    """

    #: True while :meth:`rebind` swaps edges — the new topology is
    #: visible before its connections exist, and senders (node event
    #: loops) use this to classify failures in that window as the
    #: documented reconfiguration loss, not node errors.
    rebinding: bool = False

    def __init__(self) -> None:
        self.topology: Topology | None = None
        # rank -> endpoint; bind/rebind add an Inbox where none is set.
        self._endpoints: dict[int, Any] = {}
        # Set first thing in every shutdown(); see :attr:`closing`.
        self._closing = threading.Event()

    @property
    def closing(self) -> bool:
        """True once :meth:`shutdown` has begun tearing channels down.

        Node event loops consult this to tell an orderly teardown (a send
        racing shutdown raises :class:`ChannelClosedError`, which is
        expected) from a genuine mid-run channel failure.
        """
        return self._closing.is_set()

    def bind(self, topology: Topology) -> None:
        """Create channels for every edge of ``topology``.

        The base gives each rank without an endpoint an :class:`Inbox`;
        socket transports extend this with their connections.
        """
        if self.topology is not None:
            raise TransportError("transport already bound")
        self.topology = topology
        for rank in topology.ranks:
            self._endpoints.setdefault(rank, Inbox())

    def rebind(self, topology: Topology) -> None:
        """Adopt a reconfigured ``topology`` on the live transport.

        Used by live attach and failure recovery: surviving ranks keep
        their endpoints and channels (no data loss on what did not
        break), newly attached ranks get fresh ones.
        """
        if self.topology is None:
            raise TransportError("transport is not bound")
        self.topology = topology
        for rank in topology.ranks:
            self._endpoints.setdefault(rank, Inbox())

    def set_endpoint(self, rank: int, endpoint: Any) -> None:
        """Deliver ``rank``'s envelopes to ``endpoint``, not an Inbox.

        Call before the :meth:`bind`/:meth:`rebind` that adds ``rank``.
        """
        if rank in self._endpoints:
            raise TransportError(f"rank {rank} already has an endpoint")
        self._endpoints[rank] = endpoint

    def inbox(self, rank: int) -> Any:
        """The endpoint of ``rank`` (an :class:`Inbox` unless set)."""
        try:
            return self._endpoints[rank]
        except KeyError:
            raise TransportError(f"rank {rank} has no inbox (not bound?)") from None

    @abc.abstractmethod
    def send(self, src: int, dst: int, direction: Direction, packet: Any) -> None:
        """Enqueue ``packet`` from ``src`` to ``dst`` (must be a tree edge)."""

    def multicast(
        self, src: int, dsts: Sequence[int], direction: Direction, packet: Any
    ) -> None:
        """Send one packet to several destinations (all tree edges).

        Transports override this to share per-packet work across the
        fan-out: the reactor transport serializes the wire frame once
        for all k sockets, the thread transport enqueues one shared
        envelope.  Every override loops through :func:`deliver_each`.
        """
        deliver_each(dsts, lambda dst: self.send(src, dst, direction, packet))

    # -- per-edge channel control ------------------------------------------
    # Failure injection and chaos act on individual channels.  The
    # in-process transport has no per-edge channels (a send is a queue
    # put), so for it these are documented no-ops; the socket transport
    # overrides all three.
    def disconnect_rank(self, rank: int) -> None:
        """Sever every channel touching ``rank`` (crash semantics)."""

    def reset_edge(self, a: int, b: int) -> None:
        """Tear down the channel pair of edge ``(a, b)`` mid-run."""

    def reconnect_edge(self, parent: int, child: int) -> None:
        """Re-establish one tree edge (the repair half of a reset)."""

    def shutdown(self) -> None:
        """Close every endpoint: node inboxes drain and end their loops,
        back-ends mark themselves shut down.

        Overrides that release channels set ``self._closing`` before
        tearing anything down, so :attr:`closing` reads True for the
        whole teardown, and end with this.
        """
        self._closing.set()
        for endpoint in self._endpoints.values():
            endpoint.close()

    # -- shared helpers ----------------------------------------------------
    def _check_edge(self, src: int, dst: int) -> None:
        topo = self.topology
        if topo is None:
            raise TransportError("transport is not bound to a topology")
        if topo.parent(dst) != src and topo.parent(src) != dst:
            raise TransportError(f"({src}, {dst}) is not an edge of the tree")
