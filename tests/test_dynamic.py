"""Tests for dynamic features: live back-end attach and filter chains."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import (
    FIRST_APPLICATION_TAG,
    FilterLoadError,
    Network,
    StreamError,
    balanced_topology,
)
from repro.core.filter_registry import FilterRegistry, default_registry
from repro.core.filters import SuperFilter, TransformationFilter
from conftest import send_from_all

TAG = FIRST_APPLICATION_TAG


class TestLiveAttach:
    def test_attach_adds_backend(self):
        with Network(balanced_topology(2, 2)) as net:
            n0 = net.topology.n_backends
            parent = net.topology.internals[0]
            new_be = net.attach_backend(parent)
            assert net.topology.n_backends == n0 + 1
            assert new_be.rank in net.topology.backends
            assert net.topology.parent(new_be.rank) == parent

    def test_new_backend_joins_new_streams(self):
        with Network(balanced_topology(2, 2)) as net:
            parent = net.topology.internals[0]
            new_be = net.attach_backend(parent)
            time.sleep(0.2)  # allow reconfiguration to land
            s = net.new_stream(transform="sum", sync="wait_for_all")
            assert new_be.rank in s.members

            def leaf(be):
                be.wait_for_stream(s.stream_id)
                be.send(s.stream_id, TAG, "%d", 1)

            net.run_backends(leaf)
            assert s.recv(timeout=10).values[0] == net.topology.n_backends
            assert net.node_errors() == {}

    def test_existing_streams_unaffected(self):
        """MRNet semantics: memberships are fixed at stream creation."""
        with Network(balanced_topology(2, 2)) as net:
            s = net.new_stream(transform="sum", sync="wait_for_all")
            old_members = s.members
            net.attach_backend(net.topology.internals[0])
            time.sleep(0.2)
            send_from_all_old = [net.backend(r) for r in old_members]
            for be in send_from_all_old:
                be.wait_for_stream(s.stream_id)
                be.send(s.stream_id, TAG, "%d", 1)
            assert s.recv(timeout=10).values[0] == len(old_members)

    def test_attach_under_backend_rejected(self):
        with Network(balanced_topology(2, 2)) as net:
            with pytest.raises(StreamError):
                net.attach_backend(net.topology.backends[0])

    def test_attach_chain(self):
        """Attach several back-ends in sequence, then aggregate over all."""
        with Network(balanced_topology(2, 2)) as net:
            for _ in range(3):
                net.attach_backend(0)
                time.sleep(0.1)
            s = net.new_stream(transform="count", sync="wait_for_all")

            def leaf(be):
                be.wait_for_stream(s.stream_id)
                be.send(s.stream_id, TAG, "%ud", 1)

            net.run_backends(leaf)
            assert s.recv(timeout=10).values[0] == 7
            assert net.node_errors() == {}

    def test_tcp_attach_live(self):
        """Socket transports rebind live since PR 5, so attach works over TCP."""
        net = Network(balanced_topology(2, 2), transport="tcp")
        try:
            new_be = net.attach_backend(net.topology.internals[0])
            time.sleep(0.3)  # allow reconfiguration + reconnects to land
            s = net.new_stream(transform="sum", sync="wait_for_all")
            assert new_be.rank in s.members

            def leaf(be):
                be.wait_for_stream(s.stream_id)
                be.send(s.stream_id, TAG, "%d", 1)

            net.run_backends(leaf)
            assert s.recv(timeout=10).values[0] == net.topology.n_backends
            assert net.node_errors() == {}
        finally:
            net.shutdown()


class _Negate(TransformationFilter):
    def transform(self, packets, ctx):
        p = packets[0]
        return p.with_values([-p.values[0]])


class TestFilterChains:
    def test_pipe_syntax_builds_super_filter(self):
        reg = FilterRegistry()
        from repro.core.builtin_filters import SumFilter

        reg.add_transform("sum", SumFilter)
        reg.add_transform("negate", _Negate)
        f = reg.make_transform("sum|negate")
        assert isinstance(f, SuperFilter)
        assert len(f.stages) == 2

    def test_empty_stage_rejected(self):
        with pytest.raises(FilterLoadError):
            default_registry.make_transform("sum||sum")

    def test_chain_on_live_network(self, net):
        net.registry.add_transform("negate", _Negate, replace=True)
        s = net.new_stream(transform="sum|negate", sync="wait_for_all")
        send_from_all(net, s, TAG, "%d", lambda r: 1)
        # Each node sums, then negates; negations flip at every level:
        # depth-2 tree => internal: -(sum leaves), root: -(sum internals).
        # With 9 leaves of 1: internal -(3), root -((-3)*3) = 9.
        assert s.recv(timeout=10).values[0] == 9

    def test_unknown_stage_fails_fast(self, net):
        with pytest.raises(FilterLoadError):
            net.new_stream(transform="sum|definitely_missing")
