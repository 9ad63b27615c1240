"""Shared fixtures for the test suite.

Importing :mod:`repro.filters_ext` and :mod:`repro.cluster` here makes
every registered filter available to every network test without
per-test imports.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.cluster  # noqa: F401 - registers mean_shift/agglomerative
import repro.filters_ext  # noqa: F401 - registers tool filters
from repro import Network, Topology, balanced_topology, flat_topology


def pytest_addoption(parser: pytest.Parser) -> None:
    group = parser.getgroup("chaos", "seeded fault-injection suite")
    group.addoption(
        "--chaos-seeds",
        type=int,
        default=6,
        help="number of seeds the chaos property suite sweeps (1..N)",
    )
    group.addoption(
        "--chaos-seed",
        type=int,
        default=None,
        help="replay exactly one chaos seed (e.g. a failing seed from CI)",
    )


def pytest_generate_tests(metafunc: pytest.Metafunc) -> None:
    """Parametrize any test taking ``chaos_seed`` over the seed sweep.

    ``--chaos-seed N`` pins the sweep to one seed so a CI failure
    reproduces locally with a single flag; otherwise ``--chaos-seeds``
    picks the sweep width (CI soaks with 10, the default tier-1 run
    uses 6).
    """
    if "chaos_seed" in metafunc.fixturenames:
        pinned = metafunc.config.getoption("--chaos-seed")
        if pinned is not None:
            seeds = [pinned]
        else:
            seeds = list(range(1, metafunc.config.getoption("--chaos-seeds") + 1))
        metafunc.parametrize("chaos_seed", seeds)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_topology() -> Topology:
    """Flat tree with 4 back-ends."""
    return flat_topology(4)


@pytest.fixture
def deep2_topology() -> Topology:
    """Balanced 3-ary tree of depth 2 (9 back-ends, 3 internal)."""
    return balanced_topology(3, 2)


@pytest.fixture
def unbalanced_topology() -> Topology:
    r"""Back-ends at different depths; stresses weighting and routing.

    Shape: 0 -> (1, 2); 1 -> (3, 4); 2 -> 5; 4 -> (6, 7).
    Back-ends: 3 and 5 (depth 2), 6 and 7 (depth 3).
    """
    return Topology({0: [1, 2], 1: [3, 4], 2: [5], 4: [6, 7]})


@pytest.fixture
def net(deep2_topology):
    """A live thread-transport network over the depth-2 tree."""
    network = Network(deep2_topology)
    yield network
    network.shutdown()
    assert network.node_errors() == {}


@pytest.fixture
def flat_net(tiny_topology):
    network = Network(tiny_topology)
    yield network
    network.shutdown()
    assert network.node_errors() == {}


def send_from_all(network: Network, stream, tag: int, fmt: str, value_fn):
    """Helper: every back-end sends ``value_fn(rank)`` on ``stream``."""

    def leaf(be):
        be.wait_for_stream(stream.stream_id)
        values = value_fn(be.rank)
        if not isinstance(values, tuple):
            values = (values,)
        be.send(stream.stream_id, tag, fmt, *values)

    network.run_backends(leaf)


def object_payload_samples() -> dict[str, object]:
    """One value of every type the program sends in a ``%o`` slot."""
    import networkx as nx

    from repro.core.events import StreamSpec
    from repro.filters_ext.graph_fold import tree_payload
    from repro.filters_ext.graph_merge import graph_to_payload
    from repro.learn.datasets import make_classification_shard
    from repro.learn.dtree import fit_single
    from repro.simulate.simnet import WaveMessage
    from repro.telemetry.registry import Registry

    reg = Registry("t")
    reg.counter("c_total").inc()
    reg.histogram("h_seconds").observe(0.5)
    g = nx.DiGraph()
    g.add_edge("a", "b", weight=2)
    X, y = make_classification_shard(0, 40)
    return {
        "stream_spec": StreamSpec(3, (1, 2), "sum", "wait_for_all", sync_params={"window": 0.2}),
        "topology": balanced_topology(2, 2),
        "telemetry_snapshot": reg.snapshot(),
        "p2p": (7, 2, 101, "%d %af", (5, np.arange(3.0))),
        "wave_message": WaveMessage(64.0, {"k": 1}),
        "decision_tree": fit_single(X, y, max_depth=2),
        "graph_fold": tree_payload([("r", "main")], [("r", "r")], "host1"),
        "graph_merge": graph_to_payload(g),
        "numpy_array": np.arange(6.0).reshape(2, 3).T,
    }
