"""Tests for the Supermon-style symbolic data concentrators."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import Network, balanced_topology
from repro.core.errors import FilterError, TBONError
from repro.core.filters import FilterContext
from repro.core.packet import Packet
from repro.tools.concentrator import (
    CONCENTRATOR_FMT,
    Concentrator,
    ConcentratorFilter,
    parse_sexpr,
    _Stats,
)


class TestParser:
    def test_atoms_and_nesting(self):
        assert parse_sexpr("42") == 42.0
        assert parse_sexpr("cpu") == "cpu"
        assert parse_sexpr("(+ 1 2)") == ("+", 1.0, 2.0)
        assert parse_sexpr("(if (> (avg cpu) 50) 1 0)") == (
            "if", (">", ("avg", "cpu"), 50.0), 1.0, 0.0,
        )

    @pytest.mark.parametrize("bad", ["", "(+ 1 2", ")", "(+ 1) extra"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(TBONError):
            parse_sexpr(bad)


class TestStats:
    def test_merge_is_exact(self):
        a = _Stats.from_row(["x"], np.array([2.0]))
        b = _Stats.from_row(["x"], np.array([5.0]))
        c = _Stats.from_row(["x"], np.array([3.0]))
        m = _Stats.merge([_Stats.merge([a, b]), c])
        assert m.sums[0] == 10.0
        assert m.mins[0] == 2.0
        assert m.maxs[0] == 5.0
        assert m.count == 3

    def test_payload_roundtrip(self):
        s = _Stats.from_row(["a", "b"], np.array([1.0, 2.0]))
        s2 = _Stats.from_payload(*s.to_payload())
        assert s2.names == s.names
        assert np.array_equal(s2.sums, s.sums)
        assert s2.count == 1

    def test_name_mismatch_rejected(self):
        a = _Stats.from_row(["x"], np.array([1.0]))
        b = _Stats.from_row(["y"], np.array([1.0]))
        with pytest.raises(FilterError):
            _Stats.merge([a, b])


class TestFilterEvaluation:
    def _packet(self, names, row):
        stats = _Stats.from_row(names, np.asarray(row, dtype=float))
        return Packet(1, 190, CONCENTRATOR_FMT, stats.to_payload())

    def test_root_emits_scalar(self):
        f = ConcentratorFilter(expr="(avg cpu)")
        batch = [self._packet(["cpu"], [10.0]), self._packet(["cpu"], [30.0])]
        (out,) = f.execute(batch, FilterContext(n_children=2, is_root=True))
        assert out.fmt == "%f %ud"
        assert out.values == (20.0, 2)

    def test_internal_forwards_stats(self):
        f = ConcentratorFilter(expr="(avg cpu)")
        batch = [self._packet(["cpu"], [10.0]), self._packet(["cpu"], [30.0])]
        (out,) = f.execute(batch, FilterContext(n_children=2, is_root=False))
        assert out.fmt == CONCENTRATOR_FMT
        s = _Stats.from_payload(*out.values)
        assert s.sums[0] == 40.0 and s.count == 2

    @pytest.mark.parametrize(
        "expr,expected",
        [
            ("(sum x)", 6.0),
            ("(min x)", 1.0),
            ("(max x)", 3.0),
            ("(count)", 3.0),
            ("(* (avg x) (count))", 6.0),
            ("(- (max x) (min x))", 2.0),
            ("(if (>= (sum x) 6) 100 -100)", 100.0),
            ("(/ (sum x) 0)", float("nan")),
        ],
    )
    def test_expression_semantics(self, expr, expected):
        f = ConcentratorFilter(expr=expr)
        batch = [self._packet(["x"], [v]) for v in (1.0, 2.0, 3.0)]
        (out,) = f.execute(batch, FilterContext(n_children=3, is_root=True))
        if expected != expected:  # NaN
            assert out.values[0] != out.values[0]
        else:
            assert out.values[0] == pytest.approx(expected)

    @pytest.mark.parametrize(
        "bad",
        [
            "cpu",                 # bare metric as scalar
            "(median cpu)",        # unknown op
            "(sum cpu mem)",       # wrong arity
            "(if (+ 1 2) 1 0)",    # non-comparison condition
            "(sum nope)",          # unknown metric
        ],
    )
    def test_bad_expressions_raise(self, bad):
        f = ConcentratorFilter(expr=bad)
        batch = [self._packet(["cpu"], [1.0])]
        with pytest.raises(FilterError):
            f.execute(batch, FilterContext(n_children=1, is_root=True))


class TestLive:
    def test_nested_levels_compose_exactly(self):
        with Network(balanced_topology(3, 2)) as net:
            rows = {r: [float(r), float(r * 10)] for r in net.topology.backends}
            c = Concentrator(net, ["cpu", "mem"], lambda rank, wave: rows[rank])
            v, n = c.evaluate("(avg cpu)")
            assert n == 9
            assert v == pytest.approx(np.mean([r[0] for r in rows.values()]))
            v, _ = c.evaluate("(- (max mem) (min mem))")
            mems = [r[1] for r in rows.values()]
            assert v == pytest.approx(max(mems) - min(mems))
            assert net.node_errors() == {}

    def test_sampler_width_checked(self):
        """A wrong-width row fails the evaluation at once, not at timeout."""
        with Network(balanced_topology(2, 2)) as net:
            c = Concentrator(net, ["a", "b"], lambda rank, wave: [1.0])
            t0 = time.monotonic()
            with pytest.raises(TBONError, match="1 values for 2 metrics"):
                c.evaluate("(sum a)", timeout=5)
            assert time.monotonic() - t0 < 1.0
