"""Command-line interface: ``python -m repro.cli <command>``.

Exposes the experiment harness and a few live demos without writing any
code — the shape a downstream user pokes first.

Commands:

* ``fig4``        — the paper's Figure 4 (simulated at paper scale).
* ``startup``     — T-startup, the 512-daemon Paradyn startup claim.
* ``throughput``  — T-throughput, front-end saturation vs daemon count.
* ``nodecost``    — T-nodecost, internal-node overhead.
* ``logscale``    — A-logscale, tree vs flat latency scaling.
* ``meanshift``   — live distributed mean-shift on this machine.
* ``topology``    — build and inspect a tree (prints the MRNet-style
  topology file).
* ``tboncheck``   — TBON-aware static analysis (wire formats, filter
  protocol, serialize-once contract, lock discipline, exception
  hygiene); see docs/ANALYSIS.md.
* ``stats``       — live telemetry demo: run reduction waves on a real
  tree, gather every node's metrics registry up the tree and print the
  aggregate (Prometheus text + JSON) plus a sampled causal trace; see
  docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np


def _cmd_fig4(args: argparse.Namespace) -> int:
    from .bench.harness import run_fig4
    from .bench.reporting import fmt_seconds
    from .simulate.calibrate import REFERENCE_MODEL, calibrate_mean_shift

    model = REFERENCE_MODEL if args.reference else calibrate_mean_shift()
    scales = tuple(args.scales) if args.scales else (16, 32, 48, 64, 128, 256, 324)
    result = run_fig4(model, scales=scales)
    print(result.table.render(fmt_seconds))
    violations = result.check_shape() if not args.scales else []
    if violations:
        print("\nSHAPE VIOLATIONS:")
        for v in violations:
            print(f"  - {v}")
        return 1
    print("\nshape criteria: OK (single linear; flat bottleneck past 64; "
          "deep ~constant)")
    return 0


def _cmd_startup(args: argparse.Namespace) -> int:
    from .bench.harness import run_startup_table

    table = run_startup_table(daemon_counts=tuple(args.daemons))
    print(table.render(lambda v: f"{v:.2f}"))
    return 0


def _cmd_throughput(args: argparse.Namespace) -> int:
    from .bench.harness import run_throughput_table

    print(run_throughput_table(daemon_counts=tuple(args.daemons), duration=args.duration))
    return 0


def _cmd_nodecost(_args: argparse.Namespace) -> int:
    from .bench.harness import run_nodecost_table

    print(run_nodecost_table())
    return 0


def _cmd_logscale(_args: argparse.Namespace) -> int:
    from .bench.harness import run_logscale_table
    from .bench.reporting import fmt_seconds

    table = run_logscale_table()
    print(table.render(lambda v: fmt_seconds(v) if isinstance(v, float) else str(v)))
    return 0


def _cmd_meanshift(args: argparse.Namespace) -> int:
    from .core.events import FIRST_APPLICATION_TAG
    from .core.network import Network
    from .core.topology import deep_topology
    from .cluster import (
        ClusterSpec,
        MEANSHIFT_FMT,
        full_dataset,
        leaf_dataset,
        leaf_mean_shift,
        mean_shift,
    )

    spec = ClusterSpec()
    n = args.leaves
    topo = deep_topology(n, max_fanout=max(2, int(np.ceil(np.sqrt(n)))))
    print(f"running distributed mean-shift on {topo}")
    t0 = time.perf_counter()
    single = mean_shift(full_dataset(n, spec, seed=args.seed))
    t_single = time.perf_counter() - t0

    with Network(topo) as net:
        s = net.new_stream(
            transform="mean_shift",
            sync="wait_for_all",
            transform_params={"bandwidth": 50.0},
        )
        order = {r: i for i, r in enumerate(topo.backends)}

        def leaf(be):
            be.wait_for_stream(s.stream_id)
            be.recv(timeout=120, stream_id=s.stream_id)
            d, w, pk, _ = leaf_mean_shift(leaf_dataset(order[be.rank], spec, args.seed))
            be.send(s.stream_id, FIRST_APPLICATION_TAG, MEANSHIFT_FMT, d, w, pk)

        threads = net.run_backends(leaf, join=False)
        t0 = time.perf_counter()
        s.send(FIRST_APPLICATION_TAG, "%d", 0)
        pkt = s.recv(timeout=600)
        t_dist = time.perf_counter() - t0
        for t in threads:
            t.join(60)
        peaks = pkt.values[2]
    print(f"single node : {t_single:.2f}s, {len(single.peaks)} peaks")
    print(f"distributed : {t_dist:.2f}s, {len(peaks)} peaks "
          f"(speedup {t_single / t_dist:.2f}x)")
    for p in np.sort(peaks, axis=0):
        print(f"  peak at ({p[0]:.1f}, {p[1]:.1f})")
    return 0


def _cmd_topology(args: argparse.Namespace) -> int:
    from .core.topology import balanced_topology, deep_topology, flat_topology

    if args.shape == "flat":
        topo = flat_topology(args.backends)
    elif args.shape == "balanced":
        depth = args.depth or 2
        topo = balanced_topology(args.fanout, depth)
    else:
        topo = deep_topology(args.backends, args.fanout)
    print(f"# {topo}")
    print(f"# depth={topo.depth()} max_fanout={topo.max_fanout} "
          f"internal_overhead={100 * topo.internal_overhead():.2f}%")
    print(topo.to_spec(), end="")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from .core.events import FIRST_APPLICATION_TAG
    from .core.network import Network
    from .core.topology import balanced_topology
    from .telemetry import (
        enable as telemetry_enable,
        format_trace,
        merge_snapshots,
        set_trace_sampling,
        to_json,
        to_prometheus,
    )

    telemetry_enable()
    set_trace_sampling(1.0)
    topo = balanced_topology(args.fanout, args.depth)
    print(f"# live telemetry gather on {topo} over {args.transport}, "
          f"{args.waves} sum waves")
    traces = []
    with Network(topo, transport=args.transport) as net:
        s = net.new_stream(transform="sum", sync="wait_for_all")

        def leaf(be):
            be.wait_for_stream(s.stream_id)
            for wave in range(args.waves):
                be.send(s.stream_id, FIRST_APPLICATION_TAG, "%d", wave + 1)

        threads = net.run_backends(leaf, join=False)
        for _ in range(args.waves):
            pkt = s.recv(timeout=60)
            if pkt.trace is not None:
                traces.append(pkt.trace)
        for t in threads:
            t.join(30)

        # The in-tree reduction covers per-node registries; the process
        # registry (frame cache, transport sockets, reactor loop /
        # send-queue instruments) is merged into both sides so transport
        # backpressure is visible here and the equality check below
        # still compares like with like.
        from .telemetry.registry import GLOBAL as process_registry

        process_snap = process_registry.snapshot()
        aggregated = merge_snapshots([net.telemetry_snapshot(), process_snap])
        local = merge_snapshots(
            [n.telemetry.snapshot() for n in net.nodes.values()]
            + [be.telemetry.snapshot() for be in net.backends]
            + [process_snap]
        )
        errors = net.node_errors()

    if args.format in ("prom", "both"):
        print("\n== aggregated snapshot (Prometheus text) ==")
        print(to_prometheus(aggregated))
    if args.format in ("json", "both"):
        print("\n== aggregated snapshot (JSON) ==")
        print(to_json(aggregated))
    if traces:
        print("\n== sampled causal trace (critical path of one wave) ==")
        print(format_trace(traces[0]))

    # The root's aggregate must equal the flat sum of every per-node
    # registry — the associativity property the in-tree reduction relies on.
    ok = True
    if errors:
        print(f"\nnode errors: {errors}")
        ok = False
    if aggregated["counters"] != local["counters"]:
        print("\nMISMATCH: tree-aggregated counters != flat per-node sum")
        for key in sorted(set(aggregated["counters"]) | set(local["counters"])):
            a = aggregated["counters"].get(key, 0)
            b = local["counters"].get(key, 0)
            if a != b:
                print(f"  {key}: aggregated={a} flat_sum={b}")
        ok = False
    else:
        up_in = aggregated["counters"].get(
            'tbon_node_packets_total{direction="up",point="in"}', 0
        )
        print(f"\ncheck: tree aggregate == flat per-node sum over "
              f"{len(aggregated['sources'])} sources "
              f"({len(aggregated['counters'])} counters; e.g. "
              f"up/in packets = {up_in}): OK")
    for tr in traces:
        ts = [t for hop in tr.hops for t in (hop.t_in, hop.t_out)]
        if ts != sorted(ts):
            print(f"check: trace {tr.trace_id:#x} hop timestamps decrease: FAIL")
            ok = False
    if traces:
        print(f"check: {len(traces)} sampled trace(s), hop timestamps "
              f"non-decreasing: {'OK' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .core.topology import balanced_topology
    from .reliability.chaos import ALL_KINDS, run_chaos
    from .telemetry import enable as telemetry_enable

    kinds = tuple(k.strip() for k in args.faults.split(",") if k.strip())
    bad = [k for k in kinds if k not in ALL_KINDS]
    if bad:
        print(f"chaos: unknown fault kinds {bad}; choose from {list(ALL_KINDS)}")
        return 2
    telemetry_enable()  # fault/recovery counters show up in `repro stats`
    topo = balanced_topology(args.fanout, args.depth)
    print(f"# chaos storm on {topo} over {args.transport}: "
          f"seed={args.seed} faults={','.join(kinds)}")
    report = run_chaos(
        args.seed,
        topology=topo,
        transport=args.transport,
        kinds=kinds,
        waves=args.waves,
        events=args.events,
    )
    print(report.format())
    return 0 if report.ok else 1


def _cmd_tboncheck(args: argparse.Namespace) -> int:
    from .analysis.engine import main as tboncheck_main

    if not args.list_rules and not args.paths:
        print("tboncheck: no paths given (try: tboncheck src/)")
        return 2
    return tboncheck_main(args.paths, list_rules_only=args.list_rules)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro", description="TBON paper-reproduction harness"
    )
    sub = p.add_subparsers(dest="command", required=True)

    f4 = sub.add_parser("fig4", help="reproduce Figure 4")
    f4.add_argument("--scales", type=int, nargs="*", help="leaf counts to sweep")
    f4.add_argument(
        "--reference", action="store_true",
        help="use the frozen reference calibration instead of measuring",
    )
    f4.set_defaults(fn=_cmd_fig4)

    st = sub.add_parser("startup", help="T-startup (Paradyn 512 daemons)")
    st.add_argument("--daemons", type=int, nargs="*", default=[32, 128, 512])
    st.set_defaults(fn=_cmd_startup)

    tp = sub.add_parser("throughput", help="T-throughput (front-end saturation)")
    tp.add_argument("--daemons", type=int, nargs="*", default=[16, 32, 48, 64, 128, 512])
    tp.add_argument("--duration", type=float, default=5.0)
    tp.set_defaults(fn=_cmd_throughput)

    sub.add_parser("nodecost", help="T-nodecost (internal-node overhead)").set_defaults(
        fn=_cmd_nodecost
    )
    sub.add_parser("logscale", help="A-logscale (tree vs flat)").set_defaults(
        fn=_cmd_logscale
    )

    ms = sub.add_parser("meanshift", help="live distributed mean-shift")
    ms.add_argument("--leaves", type=int, default=9)
    ms.add_argument("--seed", type=int, default=42)
    ms.set_defaults(fn=_cmd_meanshift)

    tg = sub.add_parser("topology", help="build and print a topology")
    tg.add_argument("shape", choices=["flat", "balanced", "deep"])
    tg.add_argument("--backends", type=int, default=16)
    tg.add_argument("--fanout", type=int, default=4)
    tg.add_argument("--depth", type=int)
    tg.set_defaults(fn=_cmd_topology)

    ss = sub.add_parser(
        "stats", help="live telemetry gather demo (docs/OBSERVABILITY.md)"
    )
    ss.add_argument("--fanout", type=int, default=3)
    ss.add_argument("--depth", type=int, default=2)
    ss.add_argument("--waves", type=int, default=3)
    ss.add_argument(
        "--transport",
        choices=["tcp", "thread"],
        default="tcp",
        help="'tcp' runs the tree over localhost sockets",
    )
    ss.add_argument("--format", choices=["prom", "json", "both"], default="both")
    ss.set_defaults(fn=_cmd_stats)

    ch = sub.add_parser(
        "chaos", help="seeded fault-injection run (docs/RELIABILITY.md)"
    )
    ch.add_argument("--seed", type=int, default=1)
    ch.add_argument(
        "--faults",
        default="drop,delay,duplicate,reorder",
        help="comma-separated fault kinds: "
        "drop,delay,duplicate,reorder,partition,reset,crash",
    )
    ch.add_argument("--fanout", type=int, default=3)
    ch.add_argument("--depth", type=int, default=2)
    ch.add_argument("--waves", type=int, default=6)
    ch.add_argument("--events", type=int, default=12)
    ch.add_argument(
        "--transport",
        choices=["tcp", "thread"],
        default="tcp",
        help="'tcp' runs the tree over localhost sockets",
    )
    ch.set_defaults(fn=_cmd_chaos)

    tc = sub.add_parser(
        "tboncheck", help="TBON-aware static analysis (docs/ANALYSIS.md)"
    )
    tc.add_argument("paths", nargs="*", help="files or directories to analyze")
    tc.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    tc.set_defaults(fn=_cmd_tboncheck)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
