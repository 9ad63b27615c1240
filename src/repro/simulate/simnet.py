"""Performance simulation of TBON reductions on the production node loop.

The functional middleware runs real packets through threads or sockets;
this module answers the *performance* questions at scales one machine
cannot host as OS processes (the paper's Fig. 4 reaches 324 leaves, its
overhead argument 4096 back-ends).

The simulator is a third transport, not a second middleware.
:class:`SimTransport` implements the ``Transport`` contract in virtual
time: every rank is a serial :class:`~repro.simulate.engine.Server` (one
CPU) and every channel a link delay (:class:`SimCosts`).  Every non-leaf
rank runs a real :class:`~repro.core.node.NodeRunner` on the virtual
clock, so routing, wave alignment (the production ``wait_for_all`` and
``null`` sync filters) and root delivery are the live system's code.
The simulator only prices the work: serial ingest of every envelope
(what saturates a flat front-end), link transfer, and the CPU that
application *cost callbacks* report for leaf and merge work on
lightweight :class:`WaveMessage` metadata.

:class:`SimTBON` times one reduction phase with the measurement protocol
of Section 3.2, from the front-end's start broadcast until the result
is available at the front-end.  :class:`SimStreamingTBON` offers
periodic reports from every back-end and measures front-end load (the
Section 2.2 claim that one-to-many Paradyn saturated beyond 32 daemons).
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass
from functools import partial
from typing import Any, Callable, Sequence

from ..core.errors import SimulationError
from ..core.events import CONTROL_STREAM_ID, FIRST_APPLICATION_TAG, FIRST_STREAM_ID
from ..core.events import TAG_STREAM_CREATE, Direction, Envelope, StreamSpec
from ..core.filter_registry import default_registry
from ..core.filters import FilterContext, TransformationFilter
from ..core.node import NodeRunner
from ..core.packet import Packet
from ..core.topology import Topology
from ..transport.base import Transport
from .engine import Server, Simulator

__all__ = [
    "SimCosts", "SimTransport", "WaveMessage", "PhaseReport",
    "SimTBON", "StreamingReport", "SimStreamingTBON",
]


@dataclass(frozen=True)
class SimCosts:
    """Calibrated machine constants for the performance model.

    Defaults approximate the paper's testbed: ~3 GHz P4 nodes on
    Gigabit Ethernet.

    Attributes:
        link_latency: one-way message latency in seconds.
        link_bandwidth: link bandwidth in bytes/second (1 Gb/s default).
        per_msg_cpu: fixed CPU cost to receive/dispatch one message.
        per_byte_cpu: CPU cost per received byte (deserialize + copy).
        control_msg_bytes: size of a control message (stream creation,
            the phase-start broadcast).
    """

    link_latency: float = 100e-6
    link_bandwidth: float = 125e6
    per_msg_cpu: float = 30e-6
    per_byte_cpu: float = 2e-9
    control_msg_bytes: int = 64

    def transfer_time(self, nbytes: float) -> float:
        return self.link_latency + nbytes / self.link_bandwidth

    def recv_time(self, nbytes: float) -> float:
        return self.per_msg_cpu + nbytes * self.per_byte_cpu


@dataclass
class WaveMessage:
    """An upstream result in flight: wire size plus application metadata."""

    nbytes: float
    meta: Any


#: Callback computing a leaf's work:  (leaf_rank) -> (cpu_seconds, WaveMessage)
LeafFn = Callable[[int], tuple[float, WaveMessage]]
#: Callback computing a merge: (rank, list[WaveMessage]) -> (cpu_seconds, WaveMessage)
MergeFn = Callable[[int, list[WaveMessage]], tuple[float, WaveMessage]]


def _wave_packet(stream_id: int, msg: WaveMessage) -> Packet:
    return Packet(stream_id, FIRST_APPLICATION_TAG, "%o", (msg,))


class _CostModelFilter(TransformationFilter):
    """A reduction on sizes and metadata: ``merge`` (a :data:`MergeFn`)
    builds the result, ``charge`` owes its CPU (:meth:`SimTransport.charge`)."""

    def transform(self, packets: Sequence[Packet], ctx: FilterContext) -> Packet:
        cpu, out = self.params["merge"](ctx.node_rank, [p.values[0] for p in packets])
        self.params["charge"](ctx.node_rank, cpu)
        return _wave_packet(ctx.stream_id, out)


#: Loaded by name like any application filter (the dlopen-style path).
_COST_MODEL = f"{__name__}:_CostModelFilter"


class SimTransport(Transport):
    """FIFO channels in virtual time: link delays plus per-rank servers.

    A sent envelope travels ``transfer_time(size)``, then occupies the
    destination's server for ``recv_time(size) / speed`` before the
    rank's handler (``NodeRunner.handle`` or a simulated back-end) sees
    it.  The size is the :class:`WaveMessage`'s, else
    ``control_msg_bytes``.  Modelled compute is owed work (:meth:`charge`)
    that :meth:`settle` serves before the rank's next send.
    """

    def __init__(
        self,
        costs: SimCosts | None = None,
        node_speed: Callable[[int], float] | None = None,
    ):
        super().__init__()
        self.costs = costs or SimCosts()
        self.node_speed = node_speed or (lambda rank: 1.0)
        #: rank -> envelope handler, run when the envelope's ingest completes.
        self.handlers: dict[int, Callable[[Envelope], None]] = {}
        self.sim = Simulator()
        self.servers: dict[int, Server] = {}
        self._owed: dict[int, float] = {}

    def bind(self, topology: Topology) -> None:
        self.rebind(topology)

    def rebind(self, topology: Topology) -> None:
        self.topology = topology
        for rank in topology.ranks:
            self.servers.setdefault(rank, Server(self.sim, f"node-{rank}"))

    def _scaled(self, rank: int, seconds: float) -> float:
        speed = self.node_speed(rank)
        if speed <= 0:
            raise SimulationError(f"node {rank} speed must be positive, got {speed}")
        return seconds / speed

    def _nbytes(self, packet: Packet) -> float:
        msg = packet.values[0] if packet.values else None
        return msg.nbytes if isinstance(msg, WaveMessage) else self.costs.control_msg_bytes

    def charge(self, rank: int, cpu_seconds: float) -> None:
        """Owe ``cpu_seconds`` of modelled compute at ``rank``."""
        self._owed[rank] = self._owed.get(rank, 0.0) + self._scaled(rank, cpu_seconds)

    def work(self, rank: int, seconds: float, then: Callable[[], None]) -> None:
        """Serve ``seconds`` at ``rank``, then run ``then`` (at once if none)."""
        if seconds:
            self.servers[rank].submit(seconds, then)
        else:
            then()

    def settle(self, rank: int, then: Callable[[], None]) -> None:
        """Serve ``rank``'s owed work, then run ``then``."""
        self.work(rank, self._owed.pop(rank, 0.0), then)

    def deliver(self, dst: int, env: Envelope) -> None:
        """Ingest ``env`` at ``dst``'s server, then hand it to the handler."""
        ingest = self._scaled(dst, self.costs.recv_time(self._nbytes(env.packet)))
        self.servers[dst].submit(ingest, lambda: self.handlers[dst](env))

    def send(self, src: int, dst: int, direction: Direction, packet: Any) -> None:
        self._check_edge(src, dst)
        env = Envelope(src, direction, packet)
        delay = self.costs.transfer_time(self._nbytes(packet))
        self.settle(src, lambda: self.sim.schedule(delay, lambda: self.deliver(dst, env)))

    def build(
        self,
        topology: Topology,
        sync: str,
        merge: MergeFn | None,
        leaf: Callable[[int, Envelope], None],
        deliver_up: Callable[[Envelope], None],
    ) -> int:
        """Bind ``topology`` (NodeRunners on non-leaf ranks, ``leaf(rank, env)``
        on back-ends) and create one stream over all back-ends reduced by
        ``merge`` (passthrough if None).  Setup is free: the clock restarts
        at 0.  Returns the stream id."""
        self.bind(topology)
        for rank in topology.ranks:
            if topology.children(rank):
                node = NodeRunner(
                    rank, topology, self, default_registry,
                    deliver_up=deliver_up, clock=lambda: self.sim.now,
                )
                self.handlers[rank] = node.handle
            else:
                self.handlers[rank] = partial(leaf, rank)
        transform = "passthrough" if merge is None else _COST_MODEL
        params = (("merge", merge), ("charge", self.charge))
        members = tuple(topology.backends)
        spec = StreamSpec(FIRST_STREAM_ID, members, transform, sync, params)
        create = Packet(CONTROL_STREAM_ID, TAG_STREAM_CREATE, "%o", (spec,))
        for rank in topology.ranks:  # pushed to every process, as Network does
            self.deliver(rank, Envelope(-1, Direction.DOWNSTREAM, create))
        self.sim.run()
        self.sim = Simulator()
        self.servers = {r: Server(self.sim, f"node-{r}") for r in self.servers}
        return spec.stream_id


@dataclass
class PhaseReport:
    """Result of one simulated reduction phase."""

    completion_time: float
    root_result: WaveMessage
    node_busy: dict[int, float]

    def busiest_node(self) -> tuple[int, float]:
        rank = max(self.node_busy, key=lambda r: self.node_busy[r])
        return rank, self.node_busy[rank]


@dataclass
class SimTBON:
    """One-phase reduction simulator over a process tree.

    Args:
        topology: the process tree (any shape).
        costs: machine constants.
        leaf_fn: per-leaf compute model.
        merge_fn: per-node merge model (runs at every non-leaf node on
            the full set of child results — wait_for_all semantics).
        node_speed: per-host CPU speed multiplier (the paper's testbed
            mixed 2.8 and 3.2 GHz Pentium 4s — heterogeneity matters
            because wait_for_all waves complete at the *slowest* child).
    """

    topology: Topology
    costs: SimCosts
    leaf_fn: LeafFn
    merge_fn: MergeFn
    node_speed: Callable[[int], float] | None = None

    def run(self) -> PhaseReport:
        topo = self.topology
        net = SimTransport(self.costs, self.node_speed)
        done: list[tuple[float, WaveMessage]] = []

        def leaf(rank: int, env: Envelope) -> None:
            if env.packet.stream_id == CONTROL_STREAM_ID:
                return  # the stream announcement
            cpu, out = self.leaf_fn(rank)
            net.charge(rank, cpu)
            net.send(rank, topo.parent(rank), Direction.UPSTREAM, _wave_packet(stream, out))

        def at_root(env: Envelope) -> None:
            result = env.packet.values[0]
            net.settle(topo.root, lambda: done.append((net.sim.now, result)))

        stream = net.build(topo, "wait_for_all", self.merge_fn, leaf, at_root)
        # Phase start: one control-sized packet broadcast down the stream.
        start = Packet(stream, FIRST_APPLICATION_TAG, "", ())
        net.deliver(topo.root, Envelope(-1, Direction.DOWNSTREAM, start))
        net.sim.run()
        if not done:
            raise SimulationError("phase never completed (model bug?)")
        ((completion, result),) = done
        busy = {r: s.busy_time for r, s in net.servers.items()}
        return PhaseReport(completion_time=completion, root_result=result, node_busy=busy)


@dataclass
class StreamingReport:
    """Result of a simulated streaming (continuous-load) run.

    Attributes:
        horizon: simulated duration in seconds.
        frontend_utilization: busy fraction of the front-end server.
        frontend_backlog: front-end queue delay at the horizon (seconds
            of unprocessed work) — grows without bound when saturated.
        delivered_waves: aggregated waves the front-end consumed.
        offered_waves: waves offered by the back-ends.
        saturated: True when the front-end cannot keep up.
    """

    horizon: float
    frontend_utilization: float
    frontend_backlog: float
    delivered_waves: int
    offered_waves: int
    saturated: bool


@dataclass
class SimStreamingTBON:
    """Continuous offered load: every back-end reports at a fixed rate.

    With ``aggregate=True`` internal nodes combine one report per child
    into one report of ``agg_bytes(k_children, total_child_bytes)``
    (default: the mean) for ``merge_cpu(k_children, total_bytes)``
    seconds (default: 5 µs per child); with ``aggregate=False`` every
    report travels to the front-end individually (the one-to-many
    baseline — internal nodes, if any, merely forward).  The front-end
    pays ``frontend_cpu_per_report`` of analysis per report it consumes
    (Paradyn: per-function curves, display); aggregation's whole point
    is cutting the *number* of reports it must analyze.
    """

    topology: Topology
    costs: SimCosts
    _: KW_ONLY
    report_bytes: float
    report_interval: float
    duration: float
    aggregate: bool
    merge_cpu: Callable[[int, int], float] | None = None
    agg_bytes: Callable[[int, float], float] | None = None
    frontend_cpu_per_report: float = 0.0

    def _merge(self, rank: int, msgs: list[WaveMessage]) -> tuple[float, WaveMessage]:
        total = sum(m.nbytes for m in msgs)
        k = len(msgs)
        cpu = self.merge_cpu(k, int(total)) if self.merge_cpu else 5e-6 * k
        nbytes = self.agg_bytes(k, total) if self.agg_bytes else total / k
        return cpu, WaveMessage(nbytes, None)

    def run(self) -> StreamingReport:
        topo = self.topology
        net = SimTransport(self.costs)
        offered: list[int] = []
        delivered: list[float] = []
        fe_cpu = self.frontend_cpu_per_report

        def analyze() -> None:  # a job of its own after the root's merge CPU
            net.work(topo.root, fe_cpu, lambda: delivered.append(net.sim.now))

        stream = net.build(
            topo,
            "wait_for_all" if self.aggregate else "null",
            self._merge if self.aggregate else None,
            lambda rank, env: None,
            lambda env: net.settle(topo.root, analyze),
        )

        def report(rank: int) -> None:
            if net.sim.now > self.duration:
                return
            offered.append(rank)
            msg = WaveMessage(self.report_bytes, None)
            net.send(rank, topo.parent(rank), Direction.UPSTREAM, _wave_packet(stream, msg))
            net.sim.schedule(self.report_interval, lambda: report(rank))

        for be in topo.backends:
            net.sim.schedule(0.0, lambda be=be: report(be))
        net.sim.run(until=self.duration)

        fe = net.servers[topo.root]
        backlog = max(0.0, fe.free_at - self.duration)
        util = fe.utilization(self.duration)
        # Saturated if the front-end ends the run with a growing backlog
        # worth more than a handful of report intervals.
        saturated = backlog > 2 * self.report_interval or util >= 0.999
        return StreamingReport(
            horizon=self.duration,
            frontend_utilization=util,
            frontend_backlog=backlog,
            delivered_waves=len(delivered),
            offered_waves=len(offered),
            saturated=saturated,
        )
