"""The tail-percentile rule, name validation and the BENCHMARK.json contract."""

import json
import random

import pytest

import metrics
import paths


@pytest.mark.parametrize(
    "n, pct, beyond",
    [
        (40, 50.0, 20),  # p90 would leave only 4 beyond
        (200, 90.0, 20),  # exactly twenty beyond p90
        (1000, 90.0, 100),  # no p95 on the ladder
        (1999, 90.0, 199),  # p99 would leave 19 beyond
        (2000, 99.0, 20),
        (100000, 99.0, 1000),  # the ladder stops at p99
    ],
)
def test_tail_is_highest_percentile_with_twenty_beyond(n, pct, beyond):
    values = list(range(1, n + 1))
    random.Random(n).shuffle(values)
    got_pct, value, got_beyond, count = metrics.tail_percentile(values)
    assert (got_pct, got_beyond, count) == (pct, beyond, n)
    assert value == n - beyond  # nearest rank of 1..n
    assert got_beyond >= metrics.TAIL_MIN_BEYOND


def test_tail_of_few_samples_falls_back_to_median():
    pct, value, beyond, n = metrics.tail_percentile([5.0, 1.0, 3.0])
    assert (pct, value, beyond, n) == (50.0, 3.0, 1, 3)


def test_sliced_percentile_keeps_ten_beyond_in_every_slice():
    # 1..300 in completion order: 3 slices of 100 leave 10 beyond each p90.
    assert metrics.sliced_percentile(list(range(1, 301)), 90.0, 20) == (190, 3)
    # 1..299: slices of 99 and 100 leave 9 or 10 beyond, so 2 slices.
    assert metrics.sliced_percentile(list(range(1, 300)), 90.0, 20)[1] == 2
    assert metrics.sliced_percentile([4.0, 2.0], 99.0, 20) == (4.0, 1)


def test_sliced_percentile_ignores_a_burst_in_one_slice():
    calm = [1.0] * 180 + [2.0] * 20  # p90 of a calm slice of 200 is 1.0
    burst = [9.0] * 200
    values = calm * 2 + burst + calm * 2
    assert metrics.nearest_rank(sorted(values), 90.0)[0] == 9.0
    assert metrics.sliced_percentile(values, 90.0, 5) == (1.0, 5)


def test_slice_medians_ignore_a_stalled_slice():
    # 4 slices of 2 ops: 1 op/s and 0.5 CPU-s/op, except the third slice,
    # which a stall stretched to 10 s and 5 CPU-s/op.
    ends = [1, 2, 3, 4, 10, 14, 15, 16]
    cpus = [0.5, 1, 1.5, 2, 6.5, 11, 11.5, 12]
    lat = [1, 1, 1, 1, 9, 9, 1, 1]
    rate, p50, cpu = metrics.slice_medians(0.0, 0.0, ends, cpus, lat, 4)
    assert (rate, p50, cpu) == (1.0, 1.0, 0.5)
    whole = metrics.slice_medians(0.0, 0.0, ends, cpus, lat, 1)
    assert whole == (0.5, 1.0, 1.5)


def test_slice_medians_with_fewer_ops_than_slices():
    assert metrics.slice_medians(0.0, 0.0, [2.0], [1.0], [0.5], 20) == (0.5, 0.5, 1.0)


@pytest.mark.parametrize(
    "name", ["setup_s", "latency_p50_ms", "node.handle_self_us", "a-b", "9x", "x" * 64]
)
def test_valid_names(name):
    assert metrics.valid_name(name)


@pytest.mark.parametrize(
    "name", ["", "_x", ".x", "-x", "a b", "a/b", "x" * 65, "café", None]
)
def test_invalid_names(name):
    assert not metrics.valid_name(name)


@pytest.mark.parametrize("unit", ["s", "ms", "1/s", "%", "count/op", "B/op"])
def test_valid_units(unit):
    assert metrics.valid_unit(unit)


@pytest.mark.parametrize("unit", ["", "a b", "x" * 17, "ms!"])
def test_invalid_units(unit):
    assert not metrics.valid_unit(unit)


def test_declarations_are_well_formed():
    for table in (metrics.END_TO_END, metrics.PER_LAYER):
        for name, unit in table.items():
            assert metrics.valid_name(name), name
            assert metrics.valid_unit(unit), unit


def test_benchmark_json_matches_declarations():
    doc = json.loads((paths.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert e2e == metrics.END_TO_END
    assert layer == metrics.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    import run

    assert doc["run_seconds"] == run.DEFAULT_SECONDS
    assert all(0 < b <= 0.25 for b in bounds.values())
    import workloads

    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_result_line_rejects_undeclared_and_missing_metrics():
    declared = {"a_ms": "ms"}
    ok = metrics.result_line(correct=True, attempted=3, failed=0, values={"a_ms": 1.5}, declared=declared)
    assert ok == {
        "correct": True,
        "attempted": 3,
        "failed": 0,
        "metrics": {"a_ms": {"value": 1.5, "unit": "ms"}},
    }
    with pytest.raises(ValueError):
        metrics.result_line(correct=True, attempted=3, failed=0, values={"b_ms": 1.0}, declared=declared)
    with pytest.raises(ValueError):
        metrics.result_line(
            correct=True, attempted=1, failed=0, values={"a b": 1.0}, declared={"a b": "ms"}
        )
