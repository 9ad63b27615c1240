"""The three closed-loop workloads and the generator that drives them.

Each workload is driven by one generator thread (the caller's): it plays
every back-end's application part itself, so the only threads in the
process are the program's own.  An *op* is one wave, poll or merge; its
latency runs from the op's first ``BackEnd.send``/``Stream.send`` to the
front-end ``Stream.recv`` of its last result.

* ``sum_waves`` - thread transport, 64 back-ends (8x2), ``wait_for_all`` +
  ``sum`` of one ``%d`` per back-end, 8 waves in flight.  Per-envelope
  cost dominates: node loop, inbox, sync filter, front-end dispatch.  No
  bytes are serialized and the filter is trivial.
* ``paradyn_poll`` - reactor transport, 64 daemons (8x2).  The front-end
  multicasts a 32-function ``%af`` sample request; each daemon receives
  it and replies on three streams (``sum``, ``max``, ``min``) with a
  32-float vector and a contributor count.  ``time_out`` sync with a 2 s
  window, far above the poll latency, so waves release because every
  child contributed, never on the timer.  One poll in flight.  The only
  workload with downstream multicast, several streams per node and timed
  sync; many small frames in both directions.
* ``meanshift`` - reactor transport, 16 back-ends (4x2), the paper's
  section 3 case study.  Leaf mean-shift outputs are computed from the
  seeded dataset before timing (in child processes, so neither set-up
  time nor peak RSS includes them); each op sends every leaf's
  ``%am %af %am`` payload and ``mean_shift`` merges it up the tree.  The
  numpy kernel at the 5 merge nodes dominates.

All inputs come from the seed; the program only receives them.  Every
result is checked, and a timeout or a wrong result is a failed op.

Run as a script, this module computes leaf mean-shift payloads for the
parent run (see :func:`meanshift_payloads`).
"""

from __future__ import annotations

import pickle
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

OP_TIMEOUT_S = 10.0
#: Child processes that compute the mean-shift leaf payloads.
PAYLOAD_WORKERS = 2


@dataclass
class LoopStats:
    """What one closed-loop window measured."""

    attempted: int = 0  # ops issued, warm-up and drained ones included
    completed: int = 0  # correct ops completed inside the window
    failed: int = 0
    window_s: float = 0.0
    errors: list[str] = field(default_factory=list)
    # Wall and process CPU clocks when the window opened, then per
    # completed op: its latency and both clocks at its completion.
    opened_at: float = 0.0
    cpu_open: float = 0.0
    latencies: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)
    cpus: list[float] = field(default_factory=list)


def closed_loop(
    issue: Callable[[int], None],
    complete: Callable[[int], str | None],
    *,
    depth: int,
    seconds: float,
    warmup_s: float,
    on_open: Callable[[], None] | None = None,
    on_close: Callable[[LoopStats], None] | None = None,
    clock: Callable[[], float] = time.perf_counter,
    cpu_clock: Callable[[], float] = time.process_time,
) -> LoopStats:
    """Keep ``depth`` ops in flight; measure ``seconds`` after ``warmup_s``.

    ``issue(i)`` starts op ``i``; ``complete(i)`` waits for its result
    and returns ``None`` if it is correct, else a description of what was
    wrong.  A ``TimeoutError`` or program error raised by either fails
    that op and every op still in flight, and ends the loop; the window,
    if open, closes there.  The window opens at the first completion
    after the warm-up and closes at the first completion ``seconds``
    later; ops still in flight then are drained and checked but not
    timed.  ``on_open()`` and ``on_close(stats)`` run as a window opens
    and as it closes on time.
    """
    from repro.core.errors import TBONError

    stats = LoopStats()
    inflight: deque[tuple[int, float]] = deque()
    opened = False
    issuing = True

    def start_one() -> None:
        op = stats.attempted
        stats.attempted += 1
        inflight.append((op, clock()))
        issue(op)

    try:
        for _ in range(depth):
            start_one()
        warm_end = clock() + warmup_s
        while inflight:
            op, t0 = inflight[0]
            problem = complete(op)
            inflight.popleft()
            t1 = clock()
            if problem is not None:
                stats.failed += 1
                if len(stats.errors) < 5:
                    stats.errors.append(f"op {op}: {problem}")
            if not opened:
                if t1 >= warm_end:
                    if on_open is not None:
                        on_open()
                    opened = True
                    stats.opened_at, stats.cpu_open = clock(), cpu_clock()
            elif issuing:
                if problem is None:
                    stats.completed += 1
                    stats.latencies.append(t1 - t0)
                    stats.ends.append(t1)
                    stats.cpus.append(cpu_clock())
                if t1 - stats.opened_at >= seconds:
                    stats.window_s = t1 - stats.opened_at
                    issuing = False
                    if on_close is not None:
                        on_close(stats)
            if issuing:
                start_one()
    except (TimeoutError, TBONError) as exc:
        stats.failed += len(inflight)
        stats.errors.append(f"ops {inflight[0][0]}-{inflight[-1][0]}: {type(exc).__name__}: {exc}")
        inflight.clear()
        if opened and issuing:
            stats.window_s = clock() - stats.opened_at
    return stats


class Workload:
    """One workload: its tree, its streams, its seeded inputs and checks."""

    name = ""
    transport = "thread"
    depth = 1  # ops in flight

    def __init__(self, seed: int, tiny: bool = False) -> None:
        from repro import FIRST_APPLICATION_TAG, balanced_topology

        self.tag = FIRST_APPLICATION_TAG
        self.seed = seed
        self.tiny = tiny
        self.topology = balanced_topology(*self.shape())

    def shape(self) -> tuple[int, int]:
        raise NotImplementedError

    def open_streams(self, net: Any) -> list[Any]:
        raise NotImplementedError

    def bind(self, net: Any, streams: list[Any]) -> None:
        """Adopt a freshly built network for the timed ops."""
        self.net = net
        self.streams = streams
        self.backends = net.backends

    def issue(self, op: int) -> None:
        raise NotImplementedError

    def complete(self, op: int) -> str | None:
        raise NotImplementedError

    def describe(self) -> str:
        fanout, depth = self.shape()
        return (
            f"transport={self.transport} tree={fanout}x{depth} "
            f"backends={self.topology.n_backends} inflight={self.depth}"
        )


class SumWaves(Workload):
    name = "sum_waves"
    transport = "thread"
    depth = 8
    POOL = 256

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        rows = rng.integers(-(1 << 20), 1 << 20, size=(self.POOL, self.topology.n_backends))
        self.rows = [[int(v) for v in row] for row in rows]
        self.expected = [int(v) for v in rows.sum(axis=1)]

    def shape(self) -> tuple[int, int]:
        return (2, 2) if self.tiny else (8, 2)

    def open_streams(self, net: Any) -> list[Any]:
        return [net.new_stream(transform="sum", sync="wait_for_all")]

    def issue(self, op: int) -> None:
        sid = self.streams[0].stream_id
        for be, v in zip(self.backends, self.rows[op % self.POOL]):
            be.send(sid, self.tag, "%d", v)

    def complete(self, op: int) -> str | None:
        got = self.streams[0].recv(timeout=OP_TIMEOUT_S).values
        want = self.expected[op % self.POOL]
        if len(got) != 1 or got[0] != want:
            return f"sum {got!r} != {want}"
        return None


class ParadynPoll(Workload):
    name = "paradyn_poll"
    transport = "tcp"
    depth = 1
    POOL = 32
    FUNCS = 32
    WINDOW_S = 2.0

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
        n = self.topology.n_backends
        # Integer-valued samples: float sums are exact in any merge order.
        self.requests = rng.integers(0, 1 << 16, size=(self.POOL, self.FUNCS)).astype(np.float64)
        self.replies = rng.integers(0, 1 << 20, size=(self.POOL, n, self.FUNCS)).astype(np.float64)
        self.want_sum = self.replies.sum(axis=1)
        self.want_max = self.replies.max(axis=1)
        self.want_min = self.replies.min(axis=1)
        self.requests_intact = True

    def shape(self) -> tuple[int, int]:
        return (2, 2) if self.tiny else (8, 2)

    def open_streams(self, net: Any) -> list[Any]:
        sync = {"window": self.WINDOW_S}
        return [
            net.new_stream(transform=t, sync="time_out", sync_params=sync)
            for t in ("sum", "max", "min")
        ]

    def issue(self, op: int) -> None:
        row = op % self.POOL
        request = self.requests[row]
        replies = self.replies[row]
        s_sum = self.streams[0]
        s_sum.send(self.tag, "%af", request)
        ids = [s.stream_id for s in self.streams]
        self.requests_intact = True
        for k, be in enumerate(self.backends):
            got = be.recv(timeout=OP_TIMEOUT_S, stream_id=ids[0]).values[0]
            self.requests_intact &= bool(np.array_equal(got, request))
            for sid in ids:
                be.send(sid, self.tag, "%af %d", replies[k], 1)

    def complete(self, op: int) -> str | None:
        row = op % self.POOL
        got = [s.recv(timeout=OP_TIMEOUT_S).values for s in self.streams]
        n = self.topology.n_backends
        if not self.requests_intact:
            return "a daemon received a corrupted request"
        if got[0][1] != n:
            return f"partial wave: sum carries {got[0][1]} contributors, want {n}"
        for (vec, _count), want, what in zip(
            got, (self.want_sum[row], self.want_max[row], self.want_min[row]), ("sum", "max", "min")
        ):
            if not np.array_equal(vec, want):
                return f"{what} vector differs from the reference"
        return None


class MeanShift(Workload):
    name = "meanshift"
    transport = "tcp"
    depth = 1
    POINTS_PER_CLUSTER = 500
    BANDWIDTH = 50.0

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        from repro.cluster import meanshift_filter  # noqa: F401  (registers mean_shift)

        points = 150 if tiny else self.POINTS_PER_CLUSTER
        self.payloads = meanshift_payloads(seed, self.topology.n_backends, points)
        self.first: tuple[np.ndarray, ...] | None = None

    def shape(self) -> tuple[int, int]:
        return (2, 2) if self.tiny else (4, 2)

    def open_streams(self, net: Any) -> list[Any]:
        return [
            net.new_stream(
                transform="mean_shift",
                sync="wait_for_all",
                transform_params={"bandwidth": self.BANDWIDTH},
            )
        ]

    def issue(self, op: int) -> None:
        from repro.cluster.meanshift_filter import MEANSHIFT_FMT

        sid = self.streams[0].stream_id
        for be, (data, weights, peaks) in zip(self.backends, self.payloads):
            be.send(sid, self.tag, MEANSHIFT_FMT, data, weights, peaks)

    def complete(self, op: int) -> str | None:
        got = tuple(np.asarray(v) for v in self.streams[0].recv(timeout=OP_TIMEOUT_S).values)
        if self.first is None:
            problem = peaks_problem(got[2], self.BANDWIDTH / 2)
            if problem is not None:
                return problem
            self.first = got
            return None
        if not all(np.array_equal(a, b) for a, b in zip(got, self.first)):
            return "merge result differs from the first op's"
        return None


def peaks_problem(peaks: np.ndarray, radius: float) -> str | None:
    """``None`` if there is exactly one peak within ``radius`` of each
    generating center and no other peak."""
    from repro.cluster.datagen import DEFAULT_CENTERS

    if peaks.shape != DEFAULT_CENTERS.shape:
        return f"{len(peaks)} peaks, want {len(DEFAULT_CENTERS)}"
    dist = np.linalg.norm(peaks[:, None, :] - DEFAULT_CENTERS[None, :, :], axis=2)
    near = dist <= radius
    if not (near.sum(axis=0) == 1).all() or not (near.sum(axis=1) == 1).all():
        return f"peaks {peaks.tolist()} do not match the generating centers"
    return None


def meanshift_payloads(seed: int, n_leaves: int, points: int) -> list[tuple]:
    """Leaf mean-shift payloads ``(data, weights, peaks)`` for every leaf.

    Computed in :data:`PAYLOAD_WORKERS` child processes so the parent's set-up time
    and peak RSS exclude the work; children are waited for before
    returning.
    """
    chunks = [list(range(w, n_leaves, PAYLOAD_WORKERS)) for w in range(PAYLOAD_WORKERS)]
    procs = [
        subprocess.Popen(
            [sys.executable, __file__, str(seed), str(points), ",".join(map(str, c))],
            stdout=subprocess.PIPE,
        )
        for c in chunks
        if c
    ]
    by_leaf: dict[int, tuple] = {}
    try:
        for p in procs:
            out, _ = p.communicate(timeout=120)
            if p.returncode != 0:
                raise RuntimeError(f"mean-shift payload worker exited {p.returncode}")
            by_leaf.update(pickle.loads(out))
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.wait()
    return [by_leaf[i] for i in range(n_leaves)]


def _payload_worker(seed: int, points: int, leaves: list[int]) -> dict[int, tuple]:
    from repro.cluster.datagen import ClusterSpec, leaf_dataset
    from repro.cluster.meanshift_filter import leaf_mean_shift

    spec = ClusterSpec(points_per_cluster=points)
    out = {}
    for i in leaves:
        data, weights, peaks, _ = leaf_mean_shift(leaf_dataset(i, spec, seed))
        out[i] = (data, weights, peaks)
    return out


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (SumWaves, ParadynPoll, MeanShift)
}


def make(name: str, seed: int, tiny: bool = False) -> Workload:
    return WORKLOADS[name](seed, tiny)


if __name__ == "__main__":
    import paths

    paths.use_checkout_source()
    seed_arg, points_arg, leaves_arg = sys.argv[1:4]
    result = _payload_worker(int(seed_arg), int(points_arg), [int(x) for x in leaves_arg.split(",")])
    sys.stdout.buffer.write(pickle.dumps(result))
