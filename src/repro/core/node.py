"""The communication-process event loop.

Every non-leaf rank of the tree (the front-end's root process and all
internal processes) runs a :class:`NodeRunner`: a loop that drains the
rank's inbox, interprets control packets (stream creation, close,
topology) and drives the per-stream filter pipeline on
data packets — synchronization filter first, then the transformation
filter, then forwarding toward the front-end, exactly as Figure 1 of the
paper describes.

The loop is transport-independent: it sees only an
:class:`~repro.transport.base.Inbox` and the
:class:`~repro.transport.base.Transport` contract.  Every node runs on
its own Python thread; on the thread transport its inbox is fed by
in-process queue puts, on the socket transport by the reactor thread.
The discrete-event simulator (:mod:`repro.simulate.simnet`) runs no
thread and no inbox: its ``SimTransport`` calls :meth:`NodeRunner.handle`
directly at each envelope's virtual arrival time, so simulated waves go
through this same routing and filter pipeline.
"""

from __future__ import annotations

import logging
import queue
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from ..telemetry.registry import Registry, SIZE_BOUNDS, TELEMETRY as _TEL
from .errors import (
    ChannelClosedError,
    FilterError,
    ProtocolError,
    TopologyError,
    TransportError,
)
from .events import (
    CONTROL_STREAM_ID,
    Direction,
    Envelope,
    StreamSpec,
    TAG_ERROR,
    TAG_P2P,
    TAG_STREAM_CLOSE,
    TAG_STREAM_CREATE,
    TAG_TELEMETRY,
    TAG_TOPOLOGY_ATTACH,
)
from .filter_registry import FilterRegistry
from .filters import FilterContext, SynchronizationFilter, TransformationFilter
from .packet import Packet
from .topology import Topology

if TYPE_CHECKING:
    from ..transport.base import Transport

__all__ = ["StreamState", "NodeRunner"]

_LOG = logging.getLogger(__name__)

#: Envelopes handled per inbox wakeup: higher amortizes queue locking,
#: lower bounds timer latency under backlog.
BATCH_MAX = 64


@dataclass
class StreamState:
    """Per-(node, stream) runtime state: filters, routing and close status."""

    spec: StreamSpec
    transform: TransformationFilter
    sync: SynchronizationFilter
    down_transform: TransformationFilter | None
    ctx: FilterContext
    covering: tuple[int, ...]  # children whose subtrees hold stream members
    closing: bool = False
    close_acks: set[int] = field(default_factory=set)
    packets_in: int = 0
    packets_out: int = 0
    # Telemetry instruments (shared per filter name via the node registry).
    m_filter_calls: Any = None
    m_filter_wall: Any = None


class NodeRunner:
    """Event loop for one communication process.

    Args:
        rank: this process's rank (0 = the front-end's root process).
        topology: the process tree.
        transport: bound transport providing inbox and sends.
        registry: filter registry for resolving stream filters.
        deliver_up: only at rank 0 — callable receiving final upstream
            packets (and close/error events) for the application
            front-end.
        clock: monotonic time source (overridden by tests).
    """

    def __init__(
        self,
        rank: int,
        topology: Topology,
        transport: Transport,
        registry: FilterRegistry,
        *,
        deliver_up: Callable[[Envelope], None] | None = None,
        clock: Callable[[], float] | None = None,
    ):
        import time as _time

        self.rank = rank
        self.topology = topology
        self.transport = transport
        self.registry = registry
        self.deliver_up = deliver_up
        self.clock = clock or _time.monotonic
        self.streams: dict[int, StreamState] = {}
        self.running = False
        self.error: Exception | None = None
        self._thread: threading.Thread | None = None
        self._is_root = rank == topology.root
        self._children = topology.children(rank)
        self._parent = topology.parent(rank)
        # Timer bookkeeping: only streams whose sync filter actually
        # implements deadlines are scanned, and the earliest deadline is
        # cached between mutations — the wait_for_all/null fast path
        # does zero next_deadline()/on_timer() calls per data packet.
        self._timed_streams: dict[int, StreamState] = {}
        self._deadline_dirty = True
        self._cached_deadline: float | None = None
        # Per-node telemetry registry: the unit the in-tree stats
        # reduction aggregates (docs/OBSERVABILITY.md).  Instruments are
        # created once here; hot paths pay one TELEMETRY.enabled check.
        self.telemetry = Registry(f"node-{rank}")
        self._m_up_in = self.telemetry.counter(
            "tbon_node_packets_total", {"direction": "up", "point": "in"}
        )
        self._m_up_out = self.telemetry.counter(
            "tbon_node_packets_total", {"direction": "up", "point": "out"}
        )
        self._m_down_in = self.telemetry.counter(
            "tbon_node_packets_total", {"direction": "down", "point": "in"}
        )
        self._m_down_out = self.telemetry.counter(
            "tbon_node_packets_total", {"direction": "down", "point": "out"}
        )
        self._m_control = self.telemetry.counter("tbon_node_control_packets_total")
        self._m_timer_fires = self.telemetry.counter("tbon_node_timer_fires_total")
        self._m_batch = self.telemetry.histogram(
            "tbon_node_batch_size", bounds=SIZE_BOUNDS
        )
        self._m_inbox_depth = self.telemetry.gauge("tbon_node_inbox_depth")
        # In-flight TAG_TELEMETRY gathers: req_id -> (waiting children, replies).
        self._tel_pending: dict[int, dict[str, Any]] = {}
        self._tel_merge: TransformationFilter | None = None

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> "NodeRunner":
        """Run the event loop on a daemon thread."""
        self._thread = threading.Thread(
            target=self.run, name=f"tbon-node-{self.rank}", daemon=True
        )
        self.running = True
        self._thread.start()
        return self

    def join(self, timeout: float | None = None) -> None:
        if self._thread is not None:
            self._thread.join(timeout)

    def run(self) -> None:
        """Drain the inbox until it is closed; called by :meth:`start`.

        Each wakeup handles a whole batch of ready envelopes (one queue
        lock round-trip for the batch, one timer check after it) instead
        of paying the full wait/lock/timer cycle per packet.  Both the
        per-envelope handlers and the timer pass report errors through
        ``self.error`` rather than killing the thread silently.
        """
        inbox = self.transport.inbox(self.rank)
        n_batches = 0
        self.running = True
        while self.running:
            timeout = self._next_timer_delay()
            try:
                batch = inbox.get_batch(BATCH_MAX, timeout=timeout)
            except queue.Empty:
                batch = []
            except ChannelClosedError:
                break
            if _TEL.enabled and batch:
                self._m_batch.observe(len(batch))
                n_batches += 1
                if not n_batches % 32:
                    # Residual depth after the drain: backlog the batch
                    # cap left behind (0 = the node is keeping up).
                    # Sampled 1-in-32: qsize() takes the queue mutex and
                    # would contend with producers on every drain.
                    self._m_inbox_depth.set(inbox.qsize())
            for env in batch:
                try:
                    self.handle(env)
                except ChannelClosedError as exc:
                    # A send inside handle() raced channel teardown.  When
                    # the transport reports it is closing this is an
                    # orderly shutdown (the reactor tears all channels
                    # down at once), not a node failure; likewise when
                    # this node itself was just killed (failure injection
                    # severs its channels before the loop notices
                    # running=False).
                    if self.transport.closing or not self.running:
                        self.running = False
                        break
                    self.error = exc
                    self._report_error(exc)
                except Exception as exc:  # surface, don't die silently
                    self.error = exc
                    self._report_error(exc)
                if not self.running:
                    break
            try:
                self._fire_timers()
            except Exception as exc:  # a filter exception from on_timer
                self.error = exc
                self._report_error(exc)
        self.running = False

    # -- timers ----------------------------------------------------------------
    def _register_stream_timers(self, st: StreamState) -> None:
        """Track ``st`` for timer scans iff its sync filter uses deadlines."""
        sync_cls = type(st.sync)
        timed = sync_cls.timed or (
            sync_cls.next_deadline is not SynchronizationFilter.next_deadline
            or sync_cls.on_timer is not SynchronizationFilter.on_timer
        )
        if timed:
            self._timed_streams[st.spec.stream_id] = st
            self._deadline_dirty = True

    def _unregister_stream_timers(self, stream_id: int) -> None:
        if self._timed_streams.pop(stream_id, None) is not None:
            self._deadline_dirty = True

    def _next_timer_delay(self) -> float | None:
        """Seconds until the earliest sync-filter deadline, or None.

        O(1) when no stream has a timed sync filter; otherwise the
        min-deadline is recomputed only after a mutation (push, timer
        fire, close, reconfigure) marked the cache dirty.
        """
        if not self._timed_streams:
            return None
        if self._deadline_dirty:
            earliest: float | None = None
            for st in self._timed_streams.values():
                d = st.sync.next_deadline()
                if d is not None and (earliest is None or d < earliest):
                    earliest = d
            self._cached_deadline = earliest
            self._deadline_dirty = False
        if self._cached_deadline is None:
            return None
        return max(0.0, self._cached_deadline - self.clock())

    def _fire_timers(self) -> None:
        if not self._timed_streams:
            return
        now = self.clock()
        if (
            not self._deadline_dirty
            and (self._cached_deadline is None or now < self._cached_deadline)
        ):
            return  # nothing can be due yet
        for st in list(self._timed_streams.values()):
            batches = st.sync.on_timer(now, st.ctx)
            if batches and _TEL.enabled:
                self._m_timer_fires.inc(len(batches))
            for batch in batches:
                self._run_transform(st, batch)
        self._deadline_dirty = True

    # -- dispatch ----------------------------------------------------------------
    def handle(self, env: Envelope) -> None:
        """Process one envelope.

        :meth:`run` calls this for every inbox envelope; the simulator's
        ``SimTransport`` drives it directly in virtual time.
        """
        packet: Packet = env.packet
        if packet.stream_id == CONTROL_STREAM_ID:
            self._handle_control(env)
        elif env.direction is Direction.UPSTREAM:
            self._handle_data_up(env)
        else:
            self._handle_data_down(env)

    # -- control plane -------------------------------------------------------------
    def _handle_control(self, env: Envelope) -> None:
        packet: Packet = env.packet
        tag = packet.tag
        if _TEL.enabled:
            self._m_control.inc()
        if tag == TAG_STREAM_CREATE:
            self._on_stream_create(packet)
        elif tag == TAG_STREAM_CLOSE:
            if env.direction is Direction.DOWNSTREAM:
                self._on_stream_close_down(packet)
            else:
                self._on_stream_close_ack(env)
        elif tag == TAG_P2P:
            self._on_p2p(packet)
        elif tag == TAG_TOPOLOGY_ATTACH:
            self._on_reconfigure(packet)
        elif tag == TAG_TELEMETRY:
            self._on_telemetry(env)
        elif env.direction is Direction.UPSTREAM:
            # Unknown upstream control (e.g. error reports): forward to root.
            self._send_root_or_up(env.packet)
        else:
            raise ProtocolError(f"unknown control tag {tag} at node {self.rank}")

    def _on_stream_create(self, packet: Packet) -> None:
        """Install stream state if a member lies below; never forward.

        ``Network.new_stream`` pushes the create into every process's
        endpoint directly, so a node with no member below has no part
        in the stream and installs nothing.
        """
        (spec_obj,) = packet.values
        spec: StreamSpec = spec_obj
        covering = tuple(self.topology.covering_children(self.rank, spec.members))
        if not covering:
            return
        ctx = FilterContext(
            node_rank=self.rank,
            stream_id=spec.stream_id,
            n_children=len(covering),
            is_root=self._is_root,
            depth=self.topology.depth(self.rank),
            now=self.clock,
            params=spec.transform_kwargs(),
        )
        transform = self.registry.make_transform(
            spec.transform, **spec.transform_kwargs()
        )
        sync = self.registry.make_sync(spec.sync, **spec.sync_kwargs())
        down = None
        if spec.down_transform:
            down = self.registry.make_transform(
                spec.down_transform, **spec.transform_kwargs()
            )
        st = StreamState(
            spec=spec,
            transform=transform,
            sync=sync,
            down_transform=down,
            ctx=ctx,
            covering=covering,
            m_filter_calls=self.telemetry.counter(
                "tbon_filter_invocations_total", {"filter": spec.transform}
            ),
            m_filter_wall=self.telemetry.histogram(
                "tbon_filter_wall_seconds", {"filter": spec.transform}
            ),
        )
        self.streams[spec.stream_id] = st
        self._register_stream_timers(st)

    def _on_stream_close_down(self, packet: Packet) -> None:
        (stream_id,) = packet.values
        st = self.streams.get(stream_id)
        if st is None:
            raise ProtocolError(f"close for unknown stream {stream_id}")
        st.closing = True
        if not st.covering:
            self._finish_close(st)
            return
        self._forward_down(packet, st.covering)

    def _on_stream_close_ack(self, env: Envelope) -> None:
        (stream_id,) = env.packet.values
        st = self.streams.get(stream_id)
        if st is None:
            return  # already closed (duplicate ack)
        st.close_acks.add(env.src)
        if st.closing and st.close_acks >= set(st.covering):
            self._finish_close(st)

    def _finish_close(self, st: StreamState) -> None:
        """Drain filters, propagate remaining data, then ack upstream."""
        for batch in st.sync.flush(st.ctx):
            self._run_transform(st, batch)
        for out in st.transform.flush(st.ctx):
            self._emit_up(st, out)
        ack = Packet(
            CONTROL_STREAM_ID, TAG_STREAM_CLOSE, "%d", (st.spec.stream_id,)
        )
        del self.streams[st.spec.stream_id]
        self._unregister_stream_timers(st.spec.stream_id)
        if self._is_root:
            if self.deliver_up is not None:
                self.deliver_up(Envelope(self.rank, Direction.UPSTREAM, ack))
        else:
            self.transport.send(self.rank, self._parent, Direction.UPSTREAM, ack)

    def _on_p2p(self, packet: Packet) -> None:
        """Route a back-end-to-back-end message through the tree.

        Section 2.1: "The TBON model does not support direct back-end to
        back-end communication.  However, similar support could be
        easily achieved, albeit in a sub-optimal manner, by using the
        internal process-tree to route back-end to back-end messages."
        The message climbs until its destination lies in the current
        subtree, then descends along the covering path.
        """
        dst = int(packet.values[0])
        if dst not in self.topology:
            raise ProtocolError(f"p2p destination {dst} not in topology")
        if dst in self.topology.subtree_backends(self.rank):
            (child,) = self.topology.covering_children(self.rank, (dst,))
            self.transport.send(self.rank, child, Direction.DOWNSTREAM, packet)
        elif self._is_root:
            raise ProtocolError(f"p2p destination {dst} is not a back-end")
        else:
            self.transport.send(self.rank, self._parent, Direction.UPSTREAM, packet)

    def _on_reconfigure(self, packet: Packet) -> None:
        """Adopt a reconfigured topology (recovery after a failure).

        Delivered straight into this node's inbox by the recovery
        machinery (not routed through the tree — the tree is what
        changed).  Updates routing state and rechecks held waves so
        packets blocked on a lost child release.
        """
        (new_topo,) = packet.values
        self.topology = new_topo
        self._children = new_topo.children(self.rank)
        self._parent = new_topo.parent(self.rank)
        self._deadline_dirty = True
        for st in list(self.streams.values()):
            st.covering = tuple(
                new_topo.covering_children(self.rank, st.spec.members)
            )
            st.ctx.n_children = len(st.covering)
            st.ctx.depth = new_topo.depth(self.rank)
            for batch in st.sync.recheck(st.ctx, st.covering):
                self._run_transform(st, batch)
            if st.closing and st.close_acks >= set(st.covering):
                self._finish_close(st)

    def _on_telemetry(self, env: Envelope) -> None:
        """In-tree stats reduction (docs/PROTOCOL.md §4, TAG_TELEMETRY).

        Downstream ``(req_id,)`` requests fan out to every child;
        upstream ``(req_id, snapshot)`` replies are collected, and once
        all children answered the ``telemetry_merge`` filter folds them
        together with this node's own registry snapshot (sum counters,
        merge histograms, max gauges) before one merged reply ascends —
        the Paradyn pattern of reducing performance data through the
        tree it describes.
        """
        packet = env.packet
        if env.direction is Direction.DOWNSTREAM:
            (req_id,) = packet.values
            self._tel_pending[int(req_id)] = {
                "waiting": set(self._children),
                "replies": [],
            }
            self._forward_down(packet, self._children)
            if not self._children:  # degenerate tree; answer immediately
                self._finish_telemetry(int(req_id))
            return
        req_id = int(packet.values[0])
        pending = self._tel_pending.get(req_id)
        if pending is None:
            # Not a gather this node initiated tracking for (e.g. a late
            # duplicate after reconfiguration): pass it toward the root.
            self._send_root_or_up(packet)
            return
        pending["replies"].append(packet)
        pending["waiting"].discard(env.src)
        if not pending["waiting"]:
            self._finish_telemetry(req_id)

    def _finish_telemetry(self, req_id: int) -> None:
        pending = self._tel_pending.pop(req_id)
        own = Packet(
            CONTROL_STREAM_ID,
            TAG_TELEMETRY,
            "%d %o",
            (req_id, self.telemetry.snapshot()),
        )
        if self._tel_merge is None:
            # Direct instantiation (not via self.registry): the gather
            # must work even under a custom registry without built-ins.
            from ..telemetry.merge_filter import TelemetryMergeFilter

            self._tel_merge = TelemetryMergeFilter()
        ctx = FilterContext(
            node_rank=self.rank,
            stream_id=CONTROL_STREAM_ID,
            n_children=len(self._children),
            is_root=self._is_root,
            depth=self.topology.depth(self.rank),
            now=self.clock,
        )
        for out in self._tel_merge.execute([own, *pending["replies"]], ctx):
            self._send_root_or_up(out)

    def _report_error(self, exc: Exception) -> None:
        pkt = Packet(
            CONTROL_STREAM_ID,
            TAG_ERROR,
            "%d %s %s",
            (self.rank, type(exc).__name__, str(exc)),
        )
        try:
            self._send_root_or_up(pkt)
        except TransportError as report_exc:
            # Reporting itself raced channel teardown.  The error is
            # already recorded in self.error; only the front-end's copy
            # of the TAG_ERROR packet is lost.
            if not self.transport.closing and self.running:
                _LOG.warning(
                    "node %d could not report error upstream: %s",
                    self.rank,
                    report_exc,
                )

    def _send_root_or_up(self, pkt: Packet) -> None:
        if self._is_root:
            if self.deliver_up is not None:
                self.deliver_up(Envelope(self.rank, Direction.UPSTREAM, pkt))
        else:
            self.transport.send(self.rank, self._parent, Direction.UPSTREAM, pkt)

    # -- data plane -------------------------------------------------------------------
    def _handle_data_up(self, env: Envelope) -> None:
        packet: Packet = env.packet
        st = self.streams.get(packet.stream_id)
        if st is None:
            raise ProtocolError(
                f"upstream data for unknown stream {packet.stream_id} at node {self.rank}"
            )
        st.packets_in += 1
        trace = packet.trace
        if trace is not None:
            # Stamp the arrival time now; the hop completes (t_out, filter
            # name) when the wave this packet gates leaves the transform.
            packet.attach_trace(trace.mark_arrival(self.rank, self.clock()))
        packet.hop()
        batches = st.sync.push(packet, env.src, st.ctx)
        if packet.stream_id in self._timed_streams:
            # A push can open or close a delivery window; recompute the
            # min-deadline cache lazily on the next loop iteration.
            self._deadline_dirty = True
        for batch in batches:
            self._run_transform(st, batch)

    def _run_transform(self, st: StreamState, batch: list[Packet]) -> None:
        # Critical-path trace selection: of the traced inputs feeding
        # this wave, the latest arrival is what gated it — its context
        # (plus this node's hop) propagates on every output.
        trace_in = None
        for p in batch:
            t = p.trace
            if t is not None and (trace_in is None or t.t_latest > trace_in.t_latest):
                trace_in = t
        if _TEL.enabled:
            # Up-in arrivals are counted per released batch (one inc of
            # len(batch)) rather than per push: every pushed packet is
            # released through here exactly once (push / on_timer /
            # flush / recheck), so totals converge while the per-packet
            # hot path stays a single flag check.
            self._m_up_in.inc(len(batch))
            if st.m_filter_wall is not None:
                t0 = self.clock()
                outputs = st.transform.execute(batch, st.ctx)
                st.m_filter_wall.observe(self.clock() - t0)
                st.m_filter_calls.inc()
            else:
                outputs = st.transform.execute(batch, st.ctx)
        else:
            outputs = st.transform.execute(batch, st.ctx)
        if trace_in is not None and outputs:
            out_trace = trace_in.complete(st.spec.transform, self.clock())
            for out in outputs:
                out.attach_trace(out_trace)
        for out in outputs:
            self._emit_up(st, out)

    def _edge_vanished(self, dst: int) -> bool:
        """True when ``(self.rank, dst)`` is no longer an edge of the
        transport's *current* tree.

        A send can fail mid-recovery because this node is still routing
        on a topology the transport has already rebound away from (the
        reconfigure control packet is in flight).  Data lost to that
        window is the documented loss window of reference [2]; it is a
        race to be tolerated, not a node failure to be reported.
        """
        if self.transport.rebinding:
            # Mid-rebind the new tree is visible before its repaired
            # connections exist; sends in that window are the loss the
            # recovery docs accept.
            return True
        topo = self.transport.topology
        if topo is None:
            return False
        if self.rank not in topo or dst not in topo:
            return True
        return topo.parent(dst) != self.rank and topo.parent(self.rank) != dst

    def _emit_up(self, st: StreamState, packet: Packet) -> None:
        st.packets_out += 1
        if _TEL.enabled:
            self._m_up_out.inc()
        if self._is_root:
            if self.deliver_up is not None:
                self.deliver_up(Envelope(self.rank, Direction.UPSTREAM, packet))
        else:
            try:
                self.transport.send(
                    self.rank, self._parent, Direction.UPSTREAM, packet
                )
            except ChannelClosedError:
                pass  # the parent crashed and awaits recovery: the loss window
            except (TransportError, TopologyError):
                if not self._edge_vanished(self._parent):
                    raise

    def _handle_data_down(self, env: Envelope) -> None:
        packet: Packet = env.packet
        st = self.streams.get(packet.stream_id)
        if st is None:
            raise ProtocolError(
                f"downstream data for unknown stream {packet.stream_id} at node {self.rank}"
            )
        if _TEL.enabled:
            self._m_down_in.inc()
        # NB: no per-hop mutation here — every child receives the one
        # packet object (CPython's reference count is what counts the
        # sharing), so it must be treated as immutable.
        if st.down_transform is not None:
            outputs = st.down_transform.execute([packet], st.ctx)
        else:
            outputs = [packet]
        for out in outputs:
            self._forward_down(out, st.covering)

    # -- send helpers -----------------------------------------------------------------
    def _forward_down(self, packet: Packet, children: Any) -> None:
        """Multicast one packet object to every child in ``children``.

        The fan-out goes through :meth:`Transport.multicast`, which hands
        all k children the same object (the thread transport one shared
        envelope, the socket transport one memoized frame), so the
        packet is serialized at most once.
        """
        kids = list(children)
        if not kids:
            return
        if _TEL.enabled:
            self._m_down_out.inc(len(kids))
        try:
            self.transport.multicast(self.rank, kids, Direction.DOWNSTREAM, packet)
        except ChannelClosedError:
            # Every failed recipient crashed (live siblings got the
            # packet) and awaits recovery: the reconfiguration loss window.
            pass
        except (TransportError, TopologyError):
            # Tolerate sends racing a recovery rebind: if any recipient's
            # edge is gone from the transport's current tree, the whole
            # fan-out falls in the documented reconfiguration loss window.
            if all(not self._edge_vanished(c) for c in kids):
                raise

    # -- introspection -------------------------------------------------------------------
    def stream_stats(self) -> dict[int, tuple[int, int]]:
        """Mapping stream id -> (packets_in, packets_out) at this node."""
        return {
            sid: (st.packets_in, st.packets_out) for sid, st in self.streams.items()
        }
