"""Experiment **fast-path** — data-plane micro-benchmarks.

Measures the serialize-once data plane on the two transports:

1. **Node throughput** — packets/sec through one fanout-16 communication
   process (wait_for_all + sum) fed a backlog: the batched inbox drain
   plus cached timer deadlines.
2. **Socket frame round-trip** — latency/throughput of one 64 B frame
   bounced across a real localhost socket edge of the reactor transport.
3. **Multicast** — sender packets/sec of a k-way multicast (one memoized
   ``to_bytes`` per multicast), on the thread and reactor transports.

A sweep over transport × fanout × payload feeds EXPERIMENTS.md.  Results
are written to ``BENCH_fastpath.json`` at the repo root; compare them
against the previously committed file (the pre-change before/after
tables are archived in EXPERIMENTS.md).

``--reactor`` runs the high-fanout reactor suite instead (sustained
multicast + reduction waves at fanout 64 and 128, I/O thread counts)
and writes ``BENCH_reactor.json``.

Run: ``PYTHONPATH=src python benchmarks/bench_fastpath.py [--quick] [--reactor]``
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench.harness import instrument_capture  # noqa: E402
from repro.core.events import Direction, Envelope, StreamSpec, CONTROL_STREAM_ID, TAG_STREAM_CREATE  # noqa: E402
from repro.core.filter_registry import default_registry  # noqa: E402
from repro.core.node import NodeRunner  # noqa: E402
from repro.core.packet import Packet  # noqa: E402
from repro.core.topology import flat_topology  # noqa: E402
from repro.transport.local import ThreadTransport  # noqa: E402
from repro.transport.reactor import ReactorTransport  # noqa: E402

TAG = 100


def bench_node_throughput(fanout: int, n_waves: int) -> float:
    """Packets/sec through one NodeRunner fed a pre-loaded backlog."""
    topo = flat_topology(fanout)
    transport = ThreadTransport()
    transport.bind(topo)
    done = threading.Event()
    delivered = [0]

    def deliver(env):
        delivered[0] += 1
        if delivered[0] >= n_waves:
            done.set()

    node = NodeRunner(0, topo, transport, default_registry, deliver_up=deliver)
    spec = StreamSpec(1, tuple(topo.backends), "sum", "wait_for_all")
    node.handle(
        Envelope(
            -1,
            Direction.DOWNSTREAM,
            Packet(CONTROL_STREAM_ID, TAG_STREAM_CREATE, "%o", (spec,)),
        )
    )
    inbox = transport.inbox(0)
    children = topo.children(0)
    envs = [
        Envelope(c, Direction.UPSTREAM, Packet(1, TAG, "%d", (i,), src=c))
        for i in range(n_waves)
        for c in children
    ]
    t0 = time.perf_counter()
    node.start()
    for env in envs:
        inbox.put(env)
    done.wait(120)
    elapsed = time.perf_counter() - t0
    node.running = False
    inbox.close()
    node.join(5)
    transport.shutdown()
    if not done.is_set():
        raise RuntimeError("node throughput bench timed out")
    return n_waves * fanout / elapsed


def bench_tcp_roundtrip(n_iters: int, payload: bytes) -> dict:
    """Round-trips/sec of one frame down and back over a reactor socket edge."""
    topo = flat_topology(1)
    transport = ReactorTransport()
    transport.bind(topo)
    try:
        down = transport.inbox(1)
        up = transport.inbox(0)
        t0 = time.perf_counter()
        for i in range(n_iters):
            transport.send(0, 1, Direction.DOWNSTREAM, Packet(1, TAG, "%ac", (payload,)))
            env = down.get(timeout=30)
            transport.send(1, 0, Direction.UPSTREAM, env.packet)
            up.get(timeout=30)
        elapsed = time.perf_counter() - t0
    finally:
        transport.shutdown()
    return {
        "roundtrips_per_sec": n_iters / elapsed,
        "mean_rtt_us": elapsed / n_iters * 1e6,
    }


def bench_multicast(
    kind: str,
    fanout: int,
    payload_size: int,
    n_iters: int,
    repeats: int = 5,
) -> float:
    """Sender packets/sec of a k-way multicast (frames/sec pushed).

    Times the send loop only — the sending node's per-multicast cost
    (serialization + enqueue).  Children's inboxes are filled
    concurrently and every frame's delivery is verified, but the
    receive-side parse is not timed; see
    :func:`bench_multicast_sustained` for the delivered rate.

    Each timed window sends ``n_iters`` multicasts and the inboxes are
    fully drained (untimed) between windows, so small-payload windows
    fit in the send queues and kernel socket buffers instead of
    measuring backpressure; the best of ``repeats`` windows is returned.
    """
    topo = flat_topology(fanout)
    transport = ReactorTransport() if kind == "tcp" else ThreadTransport()
    transport.bind(topo)
    try:
        children = topo.children(0)
        payload = bytes(payload_size)

        def delivered():
            # Frames land in unbounded inboxes (put there directly by the
            # thread transport, or by the reactor thread after parse), so
            # queue sizes count deliveries without a consumer thread
            # competing for the GIL during the timed window.
            return sum(transport.inbox(c).qsize() for c in children)

        best = 0.0
        for rep in range(1, repeats + 1):
            packets = [
                Packet(1, TAG, "%ac", (payload,), src=0) for _ in range(n_iters)
            ]
            t0 = time.perf_counter()
            for pkt in packets:
                transport.multicast(0, children, Direction.DOWNSTREAM, pkt)
            elapsed = time.perf_counter() - t0
            best = max(best, n_iters * fanout / elapsed)
            # Untimed: let the reactor fully catch up before the next window.
            deadline = time.time() + 120
            while delivered() < rep * n_iters * fanout:
                if time.time() > deadline:
                    raise RuntimeError(
                        f"multicast bench lost frames: {delivered()}/"
                        f"{rep * n_iters * fanout}"
                    )
                time.sleep(0.001)
    finally:
        transport.shutdown()
    return best


# ---------------------------------------------------------------------------
# Reactor transport at high fanout
# ---------------------------------------------------------------------------

def _io_thread_count() -> int:
    """Live reactor I/O threads in this process."""
    return sum(1 for t in threading.enumerate() if t.name.startswith("tbon-reactor"))


def bench_multicast_sustained(
    fanout: int,
    payload_size: int,
    n_iters: int,
    repeats: int = 5,
) -> tuple[float, int]:
    """Delivered packets/sec of a k-way multicast, send start → last parse.

    Unlike :func:`bench_multicast` (sender-side cost only), the clock
    stops when every frame has been parsed into a child inbox — the
    reactor enqueues asynchronously, so charging only the send loop
    would credit it for work it had not done yet.

    Returns ``(best packets/sec, I/O thread count)`` — the thread count
    is the O(1)-per-process acceptance datum.
    """
    topo = flat_topology(fanout)
    transport = ReactorTransport()
    transport.bind(topo)
    try:
        children = topo.children(0)
        payload = bytes(payload_size)
        io_threads = _io_thread_count()

        best = 0.0
        for rep in range(1, repeats + 1):
            packets = [
                Packet(1, TAG, "%ac", (payload,), src=0) for _ in range(n_iters)
            ]
            target = rep * n_iters * fanout
            deadline = time.time() + 180
            t0 = time.perf_counter()
            for pkt in packets:
                transport.multicast(0, children, Direction.DOWNSTREAM, pkt)
            while sum(transport.inbox(c).qsize() for c in children) < target:
                if time.time() > deadline:
                    raise RuntimeError("sustained multicast bench lost frames")
                time.sleep(0.0005)
            elapsed = time.perf_counter() - t0
            best = max(best, n_iters * fanout / elapsed)
    finally:
        transport.shutdown()
    return best, io_threads


def bench_reduction_wave(fanout: int, n_waves: int, repeats: int = 3) -> tuple[float, int]:
    """Leaf packets/sec of full sum-reduction waves over a live Network.

    Every back-end sends ``n_waves`` values; the front-end receives
    ``n_waves`` reduced results.  This exercises the whole data plane —
    leaf sends, node filter pipeline, upstream forwarding — over real
    sockets.  Best of ``repeats`` fresh networks: with ~fanout runnable
    application threads the scheduler's mood swamps a single measurement.
    """
    from repro.core.network import Network

    best = 0.0
    io_threads = 0
    for _ in range(repeats):
        topo = flat_topology(fanout)
        net = Network(topo, transport="tcp")
        try:
            io_threads = _io_thread_count()
            s = net.new_stream(transform="sum", sync="wait_for_all")

            def leaf(be):
                be.wait_for_stream(s.stream_id)
                for _ in range(n_waves):
                    be.send(s.stream_id, TAG, "%d", 1)

            t0 = time.perf_counter()
            threads = net.run_backends(leaf, join=False)
            for _ in range(n_waves):
                pkt = s.recv(timeout=300)
                assert pkt.values[0] == fanout
            elapsed = time.perf_counter() - t0
            for t in threads:
                t.join(30)
            errors = net.node_errors()
            if errors:
                raise RuntimeError(f"reduction wave bench node errors: {errors}")
        finally:
            net.shutdown()
        best = max(best, n_waves * fanout / elapsed)
    return best, io_threads


def run_reactor_suite(quick: bool, out_path: str) -> None:
    """Sustained multicast and reduction waves on the reactor at high fanout."""
    results: dict = {
        "meta": {
            "quick": quick,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "suite": "reactor",
        }
    }

    fanouts = (16,) if quick else (64, 128)

    multicast = []
    for fanout in fanouts:
        n = 20 if quick else 100
        reps = 2 if quick else 5
        pps, io = bench_multicast_sustained(fanout, 64, n, repeats=reps)
        multicast.append(
            {
                "fanout": fanout,
                "payload_bytes": 64,
                "iters": n,
                "reactor_pps": pps,
                "reactor_io_threads": io,
            }
        )
        print(f"sustained multicast fanout={fanout} 64B: {pps:,.0f} pkt/s ({io} io threads)")
        if io > 2:
            raise RuntimeError(f"reactor used {io} I/O threads (acceptance bound: 2)")
    results["multicast_sustained"] = multicast

    waves = []
    for fanout in fanouts:
        n_waves = 5 if quick else 30
        reps = 2 if quick else 3
        pps, io = bench_reduction_wave(fanout, n_waves, repeats=reps)
        waves.append(
            {
                "fanout": fanout,
                "waves": n_waves,
                "reactor_pps": pps,
                "reactor_io_threads": io,
            }
        )
        print(f"reduction wave fanout={fanout}: {pps:,.0f} pkt/s ({io} io threads)")
    results["reduction_wave"] = waves

    Path(out_path).write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out_path}")


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true", help="CI smoke mode")
    ap.add_argument(
        "--out", default=str(REPO_ROOT / "BENCH_fastpath.json"), help="output path"
    )
    ap.add_argument(
        "--reactor",
        action="store_true",
        help="run the high-fanout reactor suite instead",
    )
    ap.add_argument(
        "--reactor-out",
        default=str(REPO_ROOT / "BENCH_reactor.json"),
        help="output path for the --reactor suite",
    )
    args = ap.parse_args()

    if args.reactor:
        run_reactor_suite(args.quick, args.reactor_out)
        return

    q = args.quick
    results: dict = {
        "meta": {
            "quick": q,
            "python": platform.python_version(),
            "platform": platform.platform(),
        }
    }

    # 1. fanout-16 node throughput.
    waves = 200 if q else 3000
    with instrument_capture() as cap:
        pps = bench_node_throughput(16, waves)
    results["node_fanout16"] = {"waves": waves, "pps": pps, "telemetry": cap.as_dict()}
    print(f"node fanout=16: {pps:,.0f} pkt/s")

    # 2. reactor socket frame round-trip.
    with instrument_capture() as cap:
        rt = bench_tcp_roundtrip(100 if q else 2000, bytes(64))
    rt["telemetry"] = cap.as_dict()
    results["tcp_roundtrip_64B"] = rt
    print(
        f"tcp roundtrip 64B: {rt['roundtrips_per_sec']:,.0f} rt/s "
        f"({rt['mean_rtt_us']:.1f} us)"
    )

    # 3. fanout-16 socket multicast (the headline number).
    n, reps = (50, 3) if q else (150, 7)
    with instrument_capture() as cap:
        pps = bench_multicast("tcp", 16, 64, n, repeats=reps)
    results["multicast_fanout16_tcp_64B"] = {
        "iters": n,
        "pps": pps,
        "telemetry": cap.as_dict(),
    }
    print(f"tcp multicast fanout=16 64B: {pps:,.0f} pkt/s")

    # 4. sweep for EXPERIMENTS.md: transport x fanout x payload.
    sweep = []
    for kind in ("thread", "tcp"):
        for fanout in (4, 16):
            for nbytes in (64, 65536):
                n = 30 if q else (50 if nbytes == 65536 else 150)
                reps = 2 if q else 5
                pps = bench_multicast(kind, fanout, nbytes, n, repeats=reps)
                sweep.append(
                    {
                        "transport": kind,
                        "fanout": fanout,
                        "payload_bytes": nbytes,
                        "iters": n,
                        "pps": pps,
                    }
                )
                print(f"sweep {kind} fanout={fanout} payload={nbytes}B: {pps:,.0f} pkt/s")
    results["multicast_sweep"] = sweep

    Path(args.out).write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
