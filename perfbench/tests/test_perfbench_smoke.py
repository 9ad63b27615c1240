"""Tiny-size runs of every workload, the closed loop, and the bare-directory exit."""

import json
import shutil
import subprocess
import sys
import time

import pytest

import metrics
import paths
import run
import workloads


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_end_to_end_run(name):
    wl = workloads.make(name, seed=3, tiny=True)
    result = run.run_end_to_end(wl, seconds=0.3, warmup_s=0.05)
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(metrics.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_traced_run(name):
    wl = workloads.make(name, seed=4, tiny=True)
    result = run.run_traced(wl, seconds=0.6, warmup_s=0.05)
    assert result["correct"], result
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert set(values) == set(metrics.PER_LAYER)
    assert values["sync.timer_releases"] == 0
    assert values["node.handle_self_us"] > 0 and values["inbox.wait_us"] > 0
    for layer_name in workloads_exercised(name):
        assert values[layer_name] > 0, layer_name


def workloads_exercised(name):
    always = ["backend.send_us", "stream.recv_wait_ms", "frontend.dispatch_us", "filter.transform_us"]
    if name == "sum_waves":
        return always + ["transport.send_us", "inbox.batch_mean"]
    return always + ["packet.encode_us", "packet.decode_us", "reactor.enqueue_us",
                     "reactor.frames_per_sendmsg", "packet.wire_bytes_per_op"]


def test_seed_fixes_inputs():
    a, b = workloads.make("paradyn_poll", 7, tiny=True), workloads.make("paradyn_poll", 7, tiny=True)
    c = workloads.make("paradyn_poll", 8, tiny=True)
    assert (a.replies == b.replies).all() and not (a.replies == c.replies).all()


def _fake_loop(results, **kw):
    ticks = iter(range(1000))
    issued = []

    def complete(op):
        r = results[op] if op < len(results) else None
        if isinstance(r, Exception):
            raise r
        return r

    stats = workloads.closed_loop(
        issued.append, complete, clock=lambda: next(ticks), cpu_clock=lambda: 0.0, **kw
    )
    return stats, issued


def test_closed_loop_counts_wrong_results_and_keeps_depth():
    # Each clock read is one tick: op 0 opens the window at tick 4, ops 1
    # and 3 complete inside it, op 2 is wrong, op 4 is drained untimed.
    stats, issued = _fake_loop([None, None, "bad", None], depth=2, seconds=6, warmup_s=0)
    assert (stats.completed, stats.failed, stats.window_s) == (2, 1, 6)
    assert stats.attempted == len(issued) == 5  # warm-up and drained ops count too
    assert stats.latencies == [5, 3]
    assert stats.errors == ["op 2: bad"]
    assert issued == [0, 1, 2, 3, 4]


def test_closed_loop_timeout_fails_inflight_ops_and_stops():
    stats, issued = _fake_loop([None, None, TimeoutError("late")], depth=3, seconds=100, warmup_s=0)
    assert stats.failed == 3  # the late op and the two behind it
    assert stats.attempted == 5
    assert "late" in stats.errors[0]


def test_closed_loop_failed_issue_closes_the_window():
    # A back-end that never sees the multicast: issue() itself times out
    # on op 3, after ops 1 and 2 completed inside the window.
    ticks = iter(range(1000))

    def issue(op):
        if op == 3:
            raise TimeoutError("no request")

    stats = workloads.closed_loop(
        issue, lambda op: None, depth=1, seconds=100, warmup_s=0,
        clock=lambda: next(ticks), cpu_clock=lambda: 0.0,
    )
    assert (stats.attempted, stats.completed, stats.failed) == (4, 2, 1)
    assert stats.window_s > 0
    assert "TimeoutError: no request" in stats.errors[0]


class _TimesOutOnce:
    """A tiny workload whose first completion ``after_s`` seconds past
    its first one raises TimeoutError."""

    def __init__(self, name, after_s):
        self.inner = workloads.WORKLOADS[name](5, tiny=True)
        self.after_s = after_s
        self.first = None
        self.fired = False

    def __getattr__(self, attr):
        return getattr(self.inner, attr)

    def complete(self, op):
        now = time.perf_counter()
        if self.first is None:
            self.first = now
        elif not self.fired and now - self.first >= self.after_s:
            self.fired = True
            raise TimeoutError("injected")
        return self.inner.complete(op)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_timeout_mid_window_prints_result_and_exits_1(trace, monkeypatch, capsys):
    monkeypatch.setattr(run, "SETUP_ROUNDS", 2)
    monkeypatch.setattr(run, "WARMUP_S", 0.05)
    # Warm-up ends 0.05 s in, the (first) window 1 s later: 0.5 s is mid-window.
    monkeypatch.setattr(workloads, "make", lambda name, seed: _TimesOutOnce(name, after_s=0.5))
    code = run.main(["--workload", "sum_waves", "--seed", "5", "--seconds", "2", "--trace", trace])
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 1
    # The timeout fell inside the (first) measured window, which still reports.
    assert ("# throughput untraced" if trace == "1" else "# window") in out
    declared = metrics.PER_LAYER if trace == "1" else metrics.END_TO_END
    assert set(result["metrics"]) == set(declared)


def test_node_error_makes_the_run_incorrect():
    class Net:
        def shutdown(self):
            pass

        def node_errors(self):
            return {3: RuntimeError("filter blew up")}

    class Wl:
        net = Net()

    stats = workloads.LoopStats(attempted=2, completed=2)
    run.finish(Wl(), stats)
    result = run.report(stats, {"a_ms": 1.0}, {"a_ms": "ms"})
    assert result["correct"] is False and result["failed"] == 0
    assert stats.errors == ["node 3: RuntimeError: filter blew up"]


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copytree(paths.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(paths.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sum_waves", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
