"""Seeded, deterministic fault injection for live TBON networks.

The paper's dynamic-topology claim — processes "show up or leave at any
time ... and the network properly reconfigures and re-routes traffic" —
is only testable if faults are *reproducible*.  This module provides the
chaos half of the reliability package: a fault **schedule** generated
from ``random.Random(seed)`` (pure in the seed — same seed, same
schedule, same fault trace) executed by a :class:`ChaosEngine` through a
:class:`ChaosTransport` wrapper that interposes on every data send of
either transport (thread or reactor).

Fault model (docs/RELIABILITY.md):

* ``drop`` — the Nth data packet on a directed edge is discarded;
* ``delay`` — the Nth packet is held in the sender's thread for
  ``arg`` seconds (FIFO per channel is preserved);
* ``duplicate`` — the Nth packet is sent twice;
* ``reorder`` — the Nth packet is held and released *after* the edge's
  next packet (one-packet inversion, the minimal FIFO violation);
* ``partition`` — a seq-window of ``span`` packets is dropped on both
  directions of one edge (a transient link partition);
* ``reset`` — the edge's connections are torn down mid-run
  (ECONNRESET semantics) and then repaired via
  ``reset_edge``/``reconnect_edge`` (a no-op on the thread transport,
  which has no per-edge connections);
* ``crash`` — an internal communication process is killed after its
  Nth data send, then :func:`~repro.reliability.recovery.recover_from_failure`
  repairs the tree.

Faults count **data** packets only: no fault is ever *chosen* for a
control packet.  A crash or reset still loses whatever was queued on the
severed channels, control packets included; stream creates and topology
updates are safe from that because ``Network`` pushes them straight into
every process's endpoint and never sends them along a tree edge.

Determinism: fault *decisions* depend only on per-edge data-packet
ordinals, which are fixed by the schedule plus count-based
synchronization — so ``trace()`` (canonically sorted) is byte-identical
across runs of the same seed (``test_chaos.py::test_same_seed_identical_trace``);
``crash``/``reset`` execute on a controller thread whose wall-clock
timing is *not* part of the trace contract.
"""

from __future__ import annotations

import queue
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..analysis.locks import make_lock
from ..core.errors import (
    ChannelClosedError,
    NodeFailureError,
    RecoveryError,
    TopologyError,
    TransportError,
)
from ..core.events import CONTROL_STREAM_ID, Direction, FIRST_APPLICATION_TAG
from ..core.network import Network
from ..core.topology import Topology, balanced_topology
from ..telemetry.registry import GLOBAL as _REGISTRY, TELEMETRY as _TEL
from ..transport import make_transport
from ..transport.base import Transport
from .failure import FailureInjector
from .recovery import recover_from_failure

__all__ = [
    "ALL_KINDS",
    "ChaosEngine",
    "ChaosReport",
    "ChaosSchedule",
    "ChaosTransport",
    "CrashFault",
    "EdgeFault",
    "generate_schedule",
    "run_chaos",
]

#: Point faults hit one (edge, seq) coordinate.
POINT_KINDS = ("drop", "delay", "duplicate", "reorder", "reset")
ALL_KINDS = POINT_KINDS + ("partition", "crash")
DEFAULT_KINDS = ("drop", "delay", "duplicate", "reorder")

_m_faults = {
    kind: _REGISTRY.counter("tbon_reliability_faults_total", labels={"kind": kind})
    for kind in ("drop", "delay", "duplicate", "reorder", "partition", "reset")
}


# -- schedule ---------------------------------------------------------------
@dataclass(frozen=True)
class EdgeFault:
    """One fault on directed edge ``(src, dst)`` at data-packet ordinal ``seq``.

    ``seq`` is 1-based and counts only data packets sent on that
    direction of the edge.  ``arg`` is the delay in seconds for
    ``delay`` faults; ``span`` widens ``partition`` faults to the
    ordinal window ``[seq, seq + span)``.
    """

    kind: str
    src: int
    dst: int
    seq: int
    arg: float = 0.0
    span: int = 1


@dataclass(frozen=True)
class CrashFault:
    """Kill internal process ``rank`` right after its ``after``-th data send."""

    rank: int
    after: int


@dataclass(frozen=True)
class ChaosSchedule:
    """A complete, replayable fault plan (pure function of its seed)."""

    seed: int
    edge_faults: tuple[EdgeFault, ...] = ()
    crashes: tuple[CrashFault, ...] = ()


def generate_schedule(
    seed: int,
    topology: Topology,
    kinds: Sequence[str] = DEFAULT_KINDS,
    *,
    events: int = 12,
    horizon: int = 40,
) -> ChaosSchedule:
    """Derive a fault schedule from ``seed`` — and from nothing else.

    ``random.Random(seed)`` drives every choice, so the same
    (seed, topology, kinds, events, horizon) tuple always yields the
    same schedule: a CI failure replays locally with one flag
    (``--chaos-seed``).  ``horizon`` bounds the per-edge packet ordinals
    faults may target; schedule traffic of at least that many packets
    per edge to realize every fault.
    """
    bad = [k for k in kinds if k not in ALL_KINDS]
    if bad:
        raise ValueError(f"unknown fault kinds {bad}; choose from {list(ALL_KINDS)}")
    rng = random.Random(seed)
    dir_edges: list[tuple[int, int]] = []
    for parent, child in topology.iter_edges():
        dir_edges.append((child, parent))  # upstream direction first: more traffic
        dir_edges.append((parent, child))
    faults: list[EdgeFault] = []
    if "partition" in kinds and dir_edges:
        parent, child = rng.choice(list(topology.iter_edges()))
        start = rng.randrange(1, max(2, horizon // 2))
        span = rng.randrange(2, 7)
        faults.append(EdgeFault("partition", child, parent, start, span=span))
        faults.append(EdgeFault("partition", parent, child, start, span=span))
    point_kinds = [k for k in kinds if k in POINT_KINDS]
    used: set[tuple[int, int, int]] = set()
    if point_kinds and dir_edges:
        for _ in range(events):
            kind = rng.choice(point_kinds)
            src, dst = rng.choice(dir_edges)
            seq = rng.randrange(1, horizon)
            if (src, dst, seq) in used:
                continue  # keep one fault per (edge, seq) coordinate
            used.add((src, dst, seq))
            arg = round(rng.uniform(0.002, 0.02), 6) if kind == "delay" else 0.0
            faults.append(EdgeFault(kind, src, dst, seq, arg=arg))
    crashes: tuple[CrashFault, ...] = ()
    if "crash" in kinds and topology.internals:
        victim = rng.choice(topology.internals)
        crashes = (CrashFault(victim, rng.randrange(2, max(3, horizon // 2))),)
    faults.sort(key=lambda f: (f.kind, f.src, f.dst, f.seq))
    return ChaosSchedule(seed, tuple(faults), crashes)


# -- engine -----------------------------------------------------------------
_STOP = object()


class ChaosEngine:
    """Executes a :class:`ChaosSchedule` against live sends.

    Fault decisions happen under one lock keyed on per-directed-edge
    data-packet ordinals; the wrapped transport send always runs
    *outside* the lock (the engine never serializes the data plane).
    Structural faults (``crash``, ``reset``) are only *triggered* on the
    send path — a controller thread executes them, because killing a
    node joins its event-loop thread and must not run on it.
    """

    def __init__(self, schedule: ChaosSchedule):
        self.schedule = schedule
        self._lock = make_lock("chaos_engine")
        self._active = True
        self._seq: dict[tuple[int, int], int] = {}  # tbon: lock=_lock
        self._sent_by: dict[int, int] = {}  # tbon: lock=_lock
        self._held: dict[tuple[int, int], tuple] = {}  # tbon: lock=_lock
        self._point: dict[tuple[int, int], dict[int, EdgeFault]] = {}
        self._windows: list[EdgeFault] = []
        for f in schedule.edge_faults:
            if f.kind == "partition":
                self._windows.append(f)
            else:
                self._point.setdefault((f.src, f.dst), {})[f.seq] = f
        self._crashes: dict[int, CrashFault] = {c.rank: c for c in schedule.crashes}
        self._trace: list[str] = []  # tbon: lock=_lock
        self.errors: list[str] = []  # tbon: lock=_lock
        self._network: Network | None = None
        self._tasks: "queue.Queue[Any]" = queue.Queue()
        self._stopped = False
        self._controller = threading.Thread(
            target=self._run_tasks, name="tbon-chaos-controller", daemon=True
        )
        self._controller.start()

    def attach(self, network: Network) -> None:
        """Give the engine the network handle structural faults act on."""
        self._network = network

    # -- the sanctioned fault hook (tboncheck TB701) --------------------
    def _chaos_apply(
        self,
        send: Callable[[int, int, Direction, Any], None],
        src: int,
        dst: int,
        direction: Direction,
        packet: Any,
    ) -> None:
        """Interpose on one send: decide under the lock, act outside it."""
        if packet.stream_id == CONTROL_STREAM_ID:
            send(src, dst, direction, packet)  # control plane is never faulted
            return
        key = (src, dst)
        fault: EdgeFault | None = None
        held_prev: tuple | None = None
        crash: CrashFault | None = None
        with self._lock:
            if self._active:
                seq = self._seq.get(key, 0) + 1
                self._seq[key] = seq
                for w in self._windows:
                    if (w.src, w.dst) == key and w.seq <= seq < w.seq + w.span:
                        fault = w
                        break
                if fault is None:
                    fault = self._point.get(key, {}).pop(seq, None)
                held_prev = self._held.pop(key, None)
                n = self._sent_by.get(src, 0) + 1
                self._sent_by[src] = n
                pending = self._crashes.get(src)
                if pending is not None and n >= pending.after:
                    crash = self._crashes.pop(src)
                if fault is not None:
                    self._fire(fault.kind, src, dst, seq)
                if crash is not None:
                    self._trace.append(
                        f"crash rank={crash.rank} after={crash.after}"
                    )
        kind = fault.kind if fault is not None else ""
        if kind == "reorder":
            # Hold this packet; it rides out behind the edge's next send.
            with self._lock:
                self._held[key] = (send, src, dst, direction, packet)
        elif kind not in ("drop", "partition"):
            if kind == "delay":
                time.sleep(fault.arg)  # in the sender's thread: FIFO preserved
            send(src, dst, direction, packet)
            if kind == "duplicate":
                send(src, dst, direction, packet)
        if held_prev is not None:
            h_send, h_src, h_dst, h_dir, h_pkt = held_prev
            h_send(h_src, h_dst, h_dir, h_pkt)
        if kind == "reset":
            self._tasks.put(("reset", src, dst))
        if crash is not None:
            self._tasks.put(("crash", crash.rank))

    def _fire(self, kind: str, src: int, dst: int, seq: int) -> None:
        self._trace.append(f"{kind} {src}->{dst} seq={seq}")
        if _TEL.enabled and kind in _m_faults:
            _m_faults[kind].inc()

    def trace(self) -> tuple[str, ...]:
        """Canonically sorted fault trace (stable across thread timings)."""
        with self._lock:
            return tuple(sorted(self._trace))

    # -- controller ------------------------------------------------------
    def _run_tasks(self) -> None:
        while True:
            task = self._tasks.get()
            if task is _STOP:
                self._tasks.task_done()
                return
            try:
                if task[0] == "crash":
                    self._do_crash(task[1])
                else:
                    self._do_reset(task[1], task[2])
            finally:
                self._tasks.task_done()

    def _do_crash(self, rank: int) -> None:
        net = self._network
        if net is None or rank not in net.nodes or rank == net.topology.root:
            return
        try:
            FailureInjector(net).kill_node(rank)
            recover_from_failure(net, rank)
        except (NodeFailureError, TopologyError, RecoveryError, TransportError) as exc:
            with self._lock:
                self.errors.append(f"crash rank={rank} failed: {exc!r}")

    def _do_reset(self, src: int, dst: int) -> None:
        net = self._network
        if net is None:
            return
        topo = net.topology
        if src not in topo or dst not in topo:
            return  # edge vanished (a crash beat this reset)
        parent, child = (src, dst) if topo.parent(dst) == src else (dst, src)
        if topo.parent(child) != parent:
            return
        try:
            net.transport.reset_edge(parent, child)
            net.transport.reconnect_edge(parent, child)
        except (TransportError, TopologyError, ChannelClosedError):
            pass  # a reset racing recovery is a no-op, not an error

    # -- lifecycle -------------------------------------------------------
    def heal(self, *, converge_timeout: float = 10.0) -> None:
        """End the storm: stop faulting, flush holds, repair, converge.

        Releases any reorder-held packets, waits for in-flight
        structural faults (crash recovery, edge resets) to finish, then
        broadcasts the final topology to every process (anti-entropy)
        and polls until all survivors agree on it.
        """
        with self._lock:
            self._active = False
            held = list(self._held.values())
            self._held.clear()
        for h_send, h_src, h_dst, h_dir, h_pkt in held:
            try:
                h_send(h_src, h_dst, h_dir, h_pkt)
            except (TransportError, TopologyError, ChannelClosedError):
                pass  # held across a repair: documented loss window
        self._tasks.join()  # controller finished every pending fault
        net = self._network
        if net is None:
            return
        net.push_topology()
        deadline = time.monotonic() + converge_timeout
        while not self.membership_consistent():
            if time.monotonic() >= deadline:
                with self._lock:
                    self.errors.append(
                        f"survivors did not converge on the topology "
                        f"within {converge_timeout}s"
                    )
                return
            time.sleep(0.01)

    def membership_consistent(self) -> bool:
        """Do all surviving processes agree on the network's topology?"""
        net = self._network
        if net is None:
            return False
        want = net.topology
        for node in net.nodes.values():
            if not _same_tree(node.topology, want):
                return False
        for be in net.backends:
            if not _same_tree(be.topology, want):
                return False
        return True

    def stop(self) -> None:
        """Terminate the controller thread (idempotent)."""
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            self._active = False
        self._tasks.put(_STOP)
        self._controller.join(5.0)


def _same_tree(a: Topology, b: Topology) -> bool:
    if a is b:
        return True
    if a.root != b.root or set(a.ranks) != set(b.ranks):
        return False
    return all(tuple(a.children(r)) == tuple(b.children(r)) for r in a.ranks)


# -- transport wrapper ------------------------------------------------------
class ChaosTransport(Transport):
    """The sanctioned fault-injection wrapper around a real transport.

    Every data send funnels through the engine's ``_chaos_apply`` hook
    (tboncheck rule TB701 rejects that hook anywhere else) — the base
    class's multicast loop sends to each recipient in turn, so each gets
    an independent fault decision.  Every other :class:`Transport`
    member — rebinding, channel control, endpoints — delegates
    explicitly to the wrapped transport, so recovery and chaos compose
    on either backend.  (Each one must be spelled out: the base class
    defines them all, so nothing would fall through to the inner
    transport on its own.)
    """

    def __init__(self, inner: Transport, engine: ChaosEngine):
        # No super().__init__(): ``topology`` must track the inner
        # transport (rebind happens there), so it is a property here.
        self.inner = inner
        self.engine = engine

    @property
    def topology(self) -> Topology | None:
        return self.inner.topology

    @property
    def closing(self) -> bool:
        return self.inner.closing

    @property
    def rebinding(self) -> bool:  # type: ignore[override]
        return self.inner.rebinding

    def bind(self, topology: Topology) -> None:
        self.inner.bind(topology)

    def rebind(self, topology: Topology) -> None:
        self.inner.rebind(topology)

    def disconnect_rank(self, rank: int) -> None:
        self.inner.disconnect_rank(rank)

    def reset_edge(self, a: int, b: int) -> None:
        self.inner.reset_edge(a, b)

    def reconnect_edge(self, parent: int, child: int) -> None:
        self.inner.reconnect_edge(parent, child)

    def set_endpoint(self, rank: int, endpoint: Any) -> None:
        self.inner.set_endpoint(rank, endpoint)

    def inbox(self, rank: int) -> Any:
        return self.inner.inbox(rank)

    def send(self, src: int, dst: int, direction: Direction, packet: Any) -> None:
        self.engine._chaos_apply(self.inner.send, src, dst, direction, packet)

    def shutdown(self) -> None:
        self.engine.stop()
        self.inner.shutdown()


# -- harness ----------------------------------------------------------------
@dataclass
class ChaosReport:
    """Outcome of one seeded chaos run (what ``repro.cli chaos`` prints)."""

    seed: int
    transport: str
    schedule: ChaosSchedule
    trace: tuple[str, ...]
    invariants: dict[str, bool]
    errors: tuple[str, ...]
    node_errors: dict[int, str] = field(default_factory=dict)
    n_processes_before: int = 0
    n_processes_after: int = 0

    @property
    def ok(self) -> bool:
        return not self.errors and all(self.invariants.values())

    def format(self) -> str:
        lines = [
            f"chaos seed={self.seed} transport={self.transport} "
            f"faults={len(self.schedule.edge_faults)} "
            f"crashes={len(self.schedule.crashes)}",
            f"processes: {self.n_processes_before} -> {self.n_processes_after}",
            "invariants:",
        ]
        for name, okay in sorted(self.invariants.items()):
            lines.append(f"  [{'PASS' if okay else 'FAIL'}] {name}")
        if self.errors:
            lines.append("errors:")
            lines.extend(f"  {e}" for e in self.errors)
        if self.node_errors:
            lines.append("node errors during the storm (expected noise):")
            lines.extend(f"  rank {r}: {e}" for r, e in sorted(self.node_errors.items()))
        lines.append(f"fault trace ({len(self.trace)} fired):")
        lines.extend(f"  {t}" for t in self.trace)
        lines.append(f"verdict: {'OK' if self.ok else 'FAILED'}")
        return "\n".join(lines)


def _recv_tolerant(stream: Any, timeout: float) -> Any | None:
    """recv() riding out filter errors (storm noise forwarded to the root)."""
    deadline = time.monotonic() + timeout
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return None
        try:
            return stream.recv(timeout=remaining)
        except TimeoutError:
            return None
        except Exception:  # tbon: allow-broad-except(forwarded storm noise is the point; drain past it)
            continue


def run_chaos(
    seed: int,
    *,
    topology: Topology | None = None,
    transport: str = "thread",
    kinds: Sequence[str] = DEFAULT_KINDS,
    waves: int = 4,
    events: int = 12,
    schedule: ChaosSchedule | None = None,
    verify_waves: int = 3,
) -> ChaosReport:
    """One full chaos experiment: storm, heal, verify, report.

    Phases:

    1. **storm** — ``waves`` aggregation waves run while the engine
       executes the schedule; losses and errors here are the point;
    2. **heal** — :meth:`ChaosEngine.heal`: holds flushed, structural
       faults completed, topology broadcast, convergence awaited;
    3. **verify** — a *fresh* stream checks the recovery invariants
       cross-linked from docs/RELIABILITY.md: liveness
       (``all_waves_arrive``), exactness (``wave_sums_exact``), no
       duplicate delivery (``no_duplicate_delivery``), membership
       agreement (``membership_consistent``), and every surviving
       back-end holding the storm stream (``streams_announced``).
    """
    if topology is None:
        shape = random.Random(seed)
        topology = balanced_topology(fanout=2 + shape.randrange(3), depth=2)
    if schedule is None:
        # Horizon tracks the storm length so scheduled ordinals actually
        # occur: each edge carries about one data packet per wave.
        schedule = generate_schedule(
            seed, topology, kinds, events=events, horizon=max(2, waves + 1)
        )
    engine = ChaosEngine(schedule)
    inner = make_transport(transport)
    net = Network(topology, transport=ChaosTransport(inner, engine))
    engine.attach(net)
    errors: list[str] = []
    invariants: dict[str, bool] = {}
    node_errors: dict[int, str] = {}
    n_before = len(net.nodes)
    try:
        storm = net.new_stream(transform="sum", sync="wait_for_all")
        sid = storm.stream_id

        def storm_fn(be: Any) -> None:
            try:
                be.wait_for_stream(sid, timeout=5.0)
                for _ in range(waves):
                    be.send(sid, FIRST_APPLICATION_TAG, "%d", 1)
            except Exception:  # tbon: allow-broad-except(storm-phase sends hitting injected faults are expected)
                pass

        # Downstream storm traffic so both directions of every edge see
        # data packets (upstream waves alone leave half the schedule
        # unrealized).  Back-ends just queue these; nothing reads them.
        for w in range(waves):
            storm.send(FIRST_APPLICATION_TAG, "%d", w)
        net.run_backends(storm_fn, timeout=30.0)
        for _ in range(waves):  # drain what survives; blocked waves are fine
            if _recv_tolerant(storm, 0.3) is None:
                break

        engine.heal()

        verify = net.new_stream(transform="sum", sync="wait_for_all")
        vid = verify.stream_id
        n_be = len(net.topology.backends)
        values = [3, 5, 7, 11, 13][:verify_waves]

        def verify_fn(be: Any) -> None:
            be.wait_for_stream(vid, timeout=10.0)
            for v in values:
                be.send(vid, FIRST_APPLICATION_TAG, "%d", v)

        try:
            net.run_backends(verify_fn, timeout=60.0)
        except Exception as exc:
            errors.append(f"verify-phase backend failed: {exc!r}")
        got = []
        for _ in values:
            pkt = _recv_tolerant(verify, 15.0)
            if pkt is None:
                break
            got.append(int(pkt.values[0]))
        invariants["all_waves_arrive"] = len(got) == len(values)
        invariants["wave_sums_exact"] = got == [v * n_be for v in values]
        invariants["no_duplicate_delivery"] = _recv_tolerant(verify, 0.5) is None
        invariants["membership_consistent"] = engine.membership_consistent()
        invariants["streams_announced"] = all(sid in be.streams for be in net.backends)
        node_errors = {r: repr(e) for r, e in net.node_errors().items()}
    finally:
        try:
            net.shutdown()
        except Exception as exc:
            errors.append(f"shutdown failed: {exc!r}")
    with engine._lock:
        errors.extend(engine.errors)
    return ChaosReport(
        seed=seed,
        transport=transport,
        schedule=schedule,
        trace=engine.trace(),
        invariants=invariants,
        errors=tuple(errors),
        node_errors=node_errors,
        n_processes_before=n_before,
        n_processes_after=len(net.nodes),
    )
