"""The one control push: stream creates never ride the tree.

``Network.new_stream`` and ``Network.push_topology`` put their control
packet straight into every live process's endpoint, so a crash that
cuts the tree cannot lose a stream's announcement, a crashed process
awaiting recovery is skipped rather than failing the push, and data
sent towards a crashed child before recovery is the documented loss
window, not a node error.  Each scenario runs on both transports.
"""

from __future__ import annotations

import pytest

from repro import FIRST_APPLICATION_TAG, Network, balanced_topology
from repro.reliability import FailureInjector, recover_from_failure

TAG = FIRST_APPLICATION_TAG


@pytest.fixture(params=["thread", "tcp"])
def net(request):
    net = Network(balanced_topology(2, 2), transport=request.param)
    yield net
    net.shutdown()


def first_child(net: Network) -> int:
    return net.topology.children(net.topology.root)[0]


def wave_sum(net: Network, stream) -> int:
    """Every member sends its rank once; returns the reduced total."""
    for be in net.backends:
        if be.rank in stream.members:
            be.wait_for_stream(stream.stream_id, timeout=2.0)
            be.send(stream.stream_id, TAG, "%d", be.rank)
    return stream.recv(timeout=10).values[0]


def test_create_survives_a_crash_before_the_node_forwards(net):
    """The node above half the back-ends dies before it can pass on
    anything it was sent; its back-ends still join the stream."""
    victim = first_child(net)
    net.nodes[victim].handle = lambda env: None  # consumes, never sends
    s = net.new_stream(transform="sum", sync="wait_for_all")
    FailureInjector(net).kill_node(victim)
    recover_from_failure(net, victim)
    assert wave_sum(net, s) == sum(net.topology.backends)
    assert net.node_errors() == {}


def test_push_skips_a_killed_node_awaiting_recovery(net):
    victim = first_child(net)
    FailureInjector(net).kill_node(victim)
    s = net.new_stream(transform="sum", sync="wait_for_all")
    sibling = net.topology.children(net.topology.root)[1]
    extra = net.attach_backend(sibling)
    recover_from_failure(net, victim)
    assert extra.rank not in s.members and extra.streams == {}
    assert wave_sum(net, s) == sum(s.members)
    later = net.new_stream(transform="sum", sync="wait_for_all")
    assert wave_sum(net, later) == sum(net.topology.backends)
    assert net.node_errors() == {}


def test_send_to_a_crashed_child_is_not_a_node_error(net):
    s = net.new_stream(transform="sum", sync="wait_for_all")
    for be in net.backends:
        be.wait_for_stream(s.stream_id)
    victim = first_child(net)
    dead = set(net.topology.subtree_backends(victim))
    FailureInjector(net).kill_node(victim)
    s.send(TAG, "%d", 42)
    for be in net.backends:
        if be.rank not in dead:
            assert be.recv(timeout=5, stream_id=s.stream_id).values == (42,)
    recover_from_failure(net, victim)
    # A node error would reach the front-end ahead of this wave and make
    # recv raise FilterError.
    assert wave_sum(net, s) == sum(net.topology.backends)
    assert net.node_errors() == {}
