"""The public TBON network facade (MRNet's ``Network`` class).

Instantiating a :class:`Network` materializes a process tree over a
transport: one :class:`~repro.core.node.NodeRunner` per non-leaf rank,
one :class:`~repro.core.backend.BackEnd` handle per leaf, and a
:class:`~repro.core.frontend.FrontEnd` dispatcher at the root.  The
front-end creates :class:`~repro.core.stream.Stream` objects binding
back-end subsets to filter pairs, mirroring the MRNet API::

    from repro import Network, balanced_topology, FIRST_APPLICATION_TAG

    topo = balanced_topology(fanout=4, depth=2)     # 16 back-ends
    with Network(topo) as net:
        s = net.new_stream(transform="sum", sync="wait_for_all")
        net.run_backends(lambda be: be.send(s.stream_id, TAG, "%d", be.rank))
        total = s.recv(timeout=5.0).values[0]

Everything is in-process by default (:class:`ThreadTransport`); pass
``transport="tcp"`` to run the same tree over real localhost TCP
sockets.
"""

from __future__ import annotations

import itertools
import threading
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from ..analysis.locks import make_lock
from .backend import BackEnd
from .errors import ChannelClosedError, NetworkShutdownError, StreamError, TopologyError
from .events import (
    CONTROL_STREAM_ID,
    Direction,
    Envelope,
    FIRST_STREAM_ID,
    StreamSpec,
    TAG_STREAM_CREATE,
    TAG_TELEMETRY,
    TAG_TOPOLOGY_ATTACH,
)
from .filter_registry import FilterRegistry, default_registry
from .frontend import FrontEnd
from .node import NodeRunner
from .packet import Packet
from .stream import Stream
from .topology import Topology

if TYPE_CHECKING:
    from ..transport.base import Transport

__all__ = ["Network"]


class Network:
    """An instantiated tree-based overlay network.

    Args:
        topology: the process tree to materialize.
        transport: ``"thread"`` (default), ``"tcp"`` (the selector-reactor
            socket transport), or a pre-built
            :class:`~repro.transport.base.Transport` instance.
        registry: filter registry (defaults to the process-wide one with
            MRNet's built-ins).
    """

    def __init__(
        self,
        topology: Topology,
        transport: Any = "thread",
        registry: FilterRegistry | None = None,
    ):
        if topology.n_backends == 0:
            raise TopologyError("a network needs at least one back-end")
        self.topology = topology
        self.registry = registry or default_registry
        self.frontend = FrontEnd()
        self._stream_ids = itertools.count(FIRST_STREAM_ID)
        self._telemetry_ids = itertools.count(1)
        self._shutdown = False
        self._lock = make_lock("network_state")

        if isinstance(transport, str):
            from ..transport import make_transport

            transport = make_transport(transport)
        self.transport: Transport = transport
        # Leaves are application back-ends, each its rank's endpoint.
        self._backends = {r: BackEnd(r, topology, transport) for r in topology.backends}
        for rank, be in self._backends.items():
            transport.set_endpoint(rank, be)
        self.transport.bind(topology)

        # Non-leaf ranks run communication processes.
        self.nodes: dict[int, NodeRunner] = {}
        for rank in topology.ranks:
            if topology.children(rank):
                self.nodes[rank] = NodeRunner(
                    rank,
                    topology,
                    self.transport,
                    self.registry,
                    deliver_up=self.frontend.dispatch if rank == topology.root else None,
                )
        for node in self.nodes.values():
            node.start()

    # -- stream management ----------------------------------------------------
    def new_stream(
        self,
        members: Iterable[int] | None = None,
        *,
        transform: str = "passthrough",
        sync: str = "wait_for_all",
        transform_params: dict | None = None,
        sync_params: dict | None = None,
        down_transform: str = "",
    ) -> Stream:
        """Create a stream over ``members`` (default: every back-end).

        The stream-create control packet is pushed straight into every
        process's endpoint, never through the tree, so no tree cut can
        lose it.  Each node's copy is queued before any back-end's, all
        before this returns, so no data packet can beat its stream's
        creation (FIFO endpoints).
        """
        self._check_alive()
        if members is None:
            member_tuple = tuple(self.topology.backends)
        else:
            member_tuple = tuple(sorted(set(int(m) for m in members)))
            backends = set(self.topology.backends)
            bad = [m for m in member_tuple if m not in backends]
            if bad:
                raise StreamError(f"stream members must be back-ends; bad ranks {bad}")
            if not member_tuple:
                raise StreamError("stream needs at least one member")
        # Fail fast: resolve filter names at the front-end before the
        # spec is pushed (a typo'd name should raise here, not as an
        # asynchronous node error).  "|"-chained names resolve per stage.
        for name in transform.split("|"):
            self.registry.resolve_transform(name.strip() or transform)
        self.registry.resolve_sync(sync)
        if down_transform:
            for name in down_transform.split("|"):
                self.registry.resolve_transform(name.strip() or down_transform)
        spec = StreamSpec(
            stream_id=next(self._stream_ids),
            members=member_tuple,
            transform=transform,
            sync=sync,
            transform_params=tuple(sorted((transform_params or {}).items())),
            sync_params=tuple(sorted((sync_params or {}).items())),
            down_transform=down_transform,
        )
        stream = Stream(self, spec)
        self.frontend.register(stream)
        self._push(Packet(CONTROL_STREAM_ID, TAG_STREAM_CREATE, "%o", (spec,)))
        return stream

    def load_filter(self, name: str, kind: str = "transform") -> None:
        """Dynamically load a filter into every communication process.

        ``name`` may be a registered name or the dlopen-analogue
        ``"module:Attr"`` form.  Every node of this network holds its one
        :class:`FilterRegistry`, so resolving (importing) the name here
        loads it everywhere, and errors surface synchronously.
        """
        self._check_alive()
        if kind not in ("transform", "sync"):
            raise StreamError(f"filter kind must be 'transform' or 'sync', got {kind!r}")
        if kind == "transform":
            self.registry.resolve_transform(name)
        else:
            self.registry.resolve_sync(name)

    def attach_backend(self, parent_rank: int) -> BackEnd:
        """Attach a new back-end under ``parent_rank`` in the live network.

        MRNet's dynamic topology model: "back-end processes may join
        after the internal tree has been instantiated."  The new
        back-end is *not* a member of existing streams (their
        memberships were fixed at creation); streams created afterwards
        may include it.

        Every transport rebinds live; returns the new :class:`BackEnd`
        handle.
        """
        self._check_alive()
        if parent_rank not in self.nodes:
            raise StreamError(
                f"rank {parent_rank} is not a running communication process"
            )
        new_topo, new_rank = self.topology.attach_backend(parent_rank)
        be = self._backends[new_rank] = BackEnd(new_rank, new_topo, self.transport)
        self.transport.set_endpoint(new_rank, be)
        self.transport.rebind(new_topo)
        self.topology = new_topo
        self.push_topology()
        return be

    def push_topology(self) -> None:
        """Deliver the current topology to every process of the network.

        Used by live attach, failure recovery and the chaos engine's
        anti-entropy pass.  The ``TAG_TOPOLOGY_ATTACH`` packet goes
        through :meth:`_push`, not the tree — the tree is what changed.
        Processes adopt the topology idempotently and never forward it.
        """
        self._push(Packet(CONTROL_STREAM_ID, TAG_TOPOLOGY_ATTACH, "%o", (self.topology,)))

    # -- endpoints ---------------------------------------------------------------
    def backend(self, rank: int) -> BackEnd:
        """The application handle for back-end ``rank``."""
        try:
            return self._backends[rank]
        except KeyError:
            raise StreamError(f"rank {rank} is not a back-end") from None

    @property
    def backends(self) -> list[BackEnd]:
        """All back-end handles, in topology (BFS) order."""
        return [self._backends[r] for r in self.topology.backends]

    def run_backends(
        self,
        fn: Callable[[BackEnd], Any],
        ranks: Sequence[int] | None = None,
        *,
        join: bool = True,
        timeout: float | None = 60.0,
    ) -> list[threading.Thread]:
        """Run ``fn(backend)`` on a thread per back-end (the app's leaves).

        With ``join=True`` (default) waits for all threads; exceptions
        inside ``fn`` are re-raised at the caller (first one wins).
        """
        errors: list[Exception] = []
        err_lock = make_lock("run_backends_errors")

        def wrap(be: BackEnd) -> None:
            try:
                fn(be)
            except Exception as exc:
                with err_lock:
                    errors.append(exc)

        targets = self.topology.backends if ranks is None else list(ranks)
        threads = [
            threading.Thread(
                target=wrap, args=(self._backends[r],), name=f"tbon-beapp-{r}", daemon=True
            )
            for r in targets
        ]
        for t in threads:
            t.start()
        if join:
            for t in threads:
                t.join(timeout)
            if errors:
                raise errors[0]
        return threads

    # -- plumbing --------------------------------------------------------------------
    def _push(self, packet: Packet) -> None:
        """Put ``packet`` straight into every live process's endpoint.

        The one control push (stream creates, topology): nodes first,
        then back-ends, one push at a time, so every process sees pushes
        in the same order and works while tree edges are cut.  A crashed
        process not yet recovered has a closed endpoint and is skipped.
        """
        env = Envelope(src=-1, direction=Direction.DOWNSTREAM, packet=packet)
        with self._lock:
            for rank in [*self.nodes, *self.topology.backends]:
                try:
                    self.transport.inbox(rank).put(env)
                except ChannelClosedError:
                    pass

    def _inject_down(self, packet: Packet) -> None:
        """Inject a packet at the root as if sent by the application."""
        self._check_alive()
        self.transport.inbox(self.topology.root).put(
            Envelope(src=-1, direction=Direction.DOWNSTREAM, packet=packet)
        )

    def _check_alive(self) -> None:
        if self._shutdown:
            raise NetworkShutdownError("network has been shut down")

    # -- lifecycle ---------------------------------------------------------------------
    def shutdown(self, timeout: float = 5.0) -> None:
        """Tear the tree down: close every endpoint, end every stream, join
        every process.  Nothing travels through the tree, so a broken tree
        stops promptly, and a ``Stream.recv`` blocked on it returns."""
        if self._shutdown:
            return
        self._shutdown = True
        self.transport.shutdown()
        for stream in self.frontend.open_streams():
            stream._end()
        for node in self.nodes.values():
            node.join(timeout)

    def telemetry_snapshot(self, timeout: float = 10.0) -> dict:
        """Tree-aggregated telemetry snapshot (the in-tree stats reduction).

        Injects a ``TAG_TELEMETRY`` request at the root; every node
        forwards it to its children, back-ends answer with their local
        registry snapshots, and internal nodes fold the replies together
        with their own registries via the ``telemetry_merge`` filter on
        the way back up.  The returned dict has ``counters`` summed,
        ``histograms`` bucket-merged and ``gauges`` maxed over every
        node and back-end (see :mod:`repro.telemetry.registry`), with
        ``sources`` listing the contributors.

        Works with telemetry disabled too (all instruments read zero);
        enable with ``TBON_TELEMETRY=1`` or
        :func:`repro.telemetry.enable` to see real counts.
        """
        import queue as _queue
        import time as _time

        self._check_alive()
        req_id = next(self._telemetry_ids)
        self._inject_down(Packet(CONTROL_STREAM_ID, TAG_TELEMETRY, "%d", (req_id,)))
        deadline = _time.monotonic() + timeout
        while True:
            remaining = deadline - _time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"telemetry snapshot {req_id} did not complete within {timeout}s"
                )
            try:
                reply = self.frontend.telemetry_replies.get(timeout=remaining)
            except _queue.Empty:
                raise TimeoutError(
                    f"telemetry snapshot {req_id} did not complete within {timeout}s"
                ) from None
            rid, snapshot = reply.values
            if int(rid) == req_id:
                return snapshot
            # A stale reply from an abandoned (timed-out) gather: drop it.

    def node_errors(self) -> dict[int, Exception]:
        """Errors captured by communication processes (empty when healthy)."""
        return {r: n.error for r, n in self.nodes.items() if n.error is not None}

    def stats(self) -> dict[str, dict[int, tuple[int, int]]]:
        """Per-stream packet accounting across all communication processes.

        Returns ``{"node <rank>": {stream_id: (packets_in, packets_out)}}``
        for monitoring and tests; aggregation ratios fall straight out
        (a node with (k, 1) per wave is reducing k-fold).
        """
        return {f"node {r}": n.stream_stats() for r, n in self.nodes.items()}

    def __enter__(self) -> "Network":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Network({self.topology!r}, transport={type(self.transport).__name__})"
        )
