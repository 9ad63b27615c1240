"""Supermon-style symbolic data concentrators (Sottile & Minnich [26]).

Section 2.3: in Supermon, "monitoring servers can also act as clients
allowing the system to be configured into hierarchies of servers.  These
servers can execute data concentrators, implemented using functional
symbolic expressions from Lisp, on monitored data."

This module reproduces that flavour: a tiny s-expression language is
compiled into a TBON transformation filter, so the *expression itself*
is the aggregation program shipped to every communication process.
Unlike TAG (:mod:`repro.tools.tag`), which plans one stream per SQL
aggregate at the front-end, a concentrator is a single programmable
filter evaluated *at each node* over its children's vectors.

Language (s-expressions over named metric vectors)::

    expr := number
          | symbol                      ; a metric name
          | (op expr ...)               ; op in + - * / min max
          | (sum expr) | (avg expr)     ; vector -> scalar collapse
          | (count)                     ; contributing back-ends
          | (if (cmp expr expr) expr expr)   ; cmp in < <= > >= =

Per wave, each back-end sends its metric row; each node evaluates the
expression over the *concatenation* of its children's rows, collapsing
vectors with ``sum``/``avg``/``min``/``max``.  Collapses are computed
from carried sufficient statistics (sum + count, min, max), so nesting
levels compose exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from ..core.errors import FilterError, TBONError
from ..core.events import FIRST_APPLICATION_TAG
from ..core.filter_registry import register_transform
from ..core.filters import FilterContext, TransformationFilter
from ..core.network import Network
from ..core.packet import Packet

__all__ = ["parse_sexpr", "Concentrator", "ConcentratorFilter", "CONCENTRATOR_FMT"]

_TAG_ROW = FIRST_APPLICATION_TAG + 90
_TAG_TRIGGER = FIRST_APPLICATION_TAG + 91

#: Packet payload: metric names, [sum per metric, min per metric,
#: max per metric] flattened, contributing row count.
CONCENTRATOR_FMT = "%as %af %ud"


# ---------------------------------------------------------------------------
# S-expression parsing
# ---------------------------------------------------------------------------

def _tokenize(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def parse_sexpr(text: str):
    """Parse one s-expression into nested tuples/atoms."""
    tokens = _tokenize(text)
    if not tokens:
        raise TBONError("empty expression")
    pos = 0

    def read():
        nonlocal pos
        if pos >= len(tokens):
            raise TBONError(f"unexpected end of expression in {text!r}")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            items = []
            while pos < len(tokens) and tokens[pos] != ")":
                items.append(read())
            if pos >= len(tokens):
                raise TBONError(f"unbalanced parentheses in {text!r}")
            pos += 1  # consume ")"
            return tuple(items)
        if tok == ")":
            raise TBONError(f"unexpected ')' in {text!r}")
        try:
            return float(tok)
        except ValueError:
            return tok

    expr = read()
    if pos != len(tokens):
        raise TBONError(f"trailing tokens in {text!r}")
    return expr


# ---------------------------------------------------------------------------
# Evaluation over aggregated statistics
# ---------------------------------------------------------------------------

@dataclass
class _Stats:
    """Carried sufficient statistics per metric: sum, min, max + count."""

    names: list[str]
    sums: np.ndarray
    mins: np.ndarray
    maxs: np.ndarray
    count: int

    def metric_index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise FilterError(
                f"unknown metric {name!r}; available: {self.names}"
            ) from None

    @classmethod
    def from_row(cls, names: Sequence[str], row: np.ndarray) -> "_Stats":
        row = np.asarray(row, dtype=np.float64)
        return cls(list(names), row.copy(), row.copy(), row.copy(), 1)

    @classmethod
    def merge(cls, parts: Sequence["_Stats"]) -> "_Stats":
        first = parts[0]
        for p in parts[1:]:
            if p.names != first.names:
                raise FilterError(
                    f"metric names differ across children: {p.names} vs {first.names}"
                )
        return cls(
            first.names,
            np.sum([p.sums for p in parts], axis=0),
            np.min([p.mins for p in parts], axis=0),
            np.max([p.maxs for p in parts], axis=0),
            sum(p.count for p in parts),
        )

    # -- payload conversion ------------------------------------------------
    def to_payload(self) -> tuple[list[str], np.ndarray, int]:
        return (
            self.names,
            np.concatenate([self.sums, self.mins, self.maxs]),
            self.count,
        )

    @classmethod
    def from_payload(cls, names, flat, count) -> "_Stats":
        k = len(names)
        flat = np.asarray(flat)
        return cls(list(names), flat[:k].copy(), flat[k : 2 * k].copy(),
                   flat[2 * k :].copy(), int(count))


_ARITH = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b if b != 0 else float("nan"),
}
_CMP = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "=": lambda a, b: a == b,
}


def _eval(expr, stats: _Stats) -> float:
    """Evaluate an expression to a scalar over the aggregated stats.

    Bare metric symbols are only legal inside a collapse
    (``sum``/``avg``/``min``/``max``) — a metric is a vector across
    back-ends, not a scalar.
    """
    if isinstance(expr, float):
        return expr
    if isinstance(expr, str):
        raise FilterError(
            f"metric {expr!r} used as a scalar; wrap it in sum/avg/min/max"
        )
    if not isinstance(expr, tuple) or not expr:
        raise FilterError(f"malformed expression {expr!r}")
    op = expr[0]
    args = expr[1:]
    if op in ("sum", "avg", "min", "max"):
        if len(args) != 1 or not isinstance(args[0], str):
            raise FilterError(f"({op} ...) takes exactly one metric name")
        i = stats.metric_index(args[0])
        if op == "sum":
            return float(stats.sums[i])
        if op == "avg":
            return float(stats.sums[i] / stats.count) if stats.count else float("nan")
        if op == "min":
            return float(stats.mins[i])
        return float(stats.maxs[i])
    if op == "count":
        if args:
            raise FilterError("(count) takes no arguments")
        return float(stats.count)
    if op in _ARITH:
        if len(args) < 2:
            raise FilterError(f"({op} ...) needs at least two arguments")
        acc = _eval(args[0], stats)
        for a in args[1:]:
            acc = _ARITH[op](acc, _eval(a, stats))
        return acc
    if op == "if":
        if len(args) != 3:
            raise FilterError("(if cond then else) takes three arguments")
        cond = args[0]
        if (
            not isinstance(cond, tuple)
            or len(cond) != 3
            or cond[0] not in _CMP
        ):
            raise FilterError(f"if-condition must be (cmp a b), got {cond!r}")
        test = _CMP[cond[0]](_eval(cond[1], stats), _eval(cond[2], stats))
        return _eval(args[1] if test else args[2], stats)
    raise FilterError(f"unknown operator {op!r}")


@register_transform("concentrator")
class ConcentratorFilter(TransformationFilter):
    """Merge children's metric statistics (the in-tree half).

    The statistics are sufficient for every language construct, so the
    expression only needs evaluating once, at the front-end — but it
    *could* be evaluated at any node (``params["expr"]`` is shipped to
    all of them), which is how Supermon's concentrators thin data
    mid-tree.  When ``params["emit_scalar"]`` is true, non-root nodes
    still forward statistics while the root emits the final scalar.
    """

    def transform(self, packets: Sequence[Packet], ctx: FilterContext) -> Packet:
        parts = [_Stats.from_payload(*p.values) for p in packets]
        merged = _Stats.merge(parts)
        expr_text = self.params.get("expr")
        if ctx.is_root and expr_text and self.params.get("emit_scalar", True):
            value = _eval(parse_sexpr(expr_text), merged)
            return Packet(
                packets[0].stream_id, packets[0].tag, "%f %ud",
                (value, merged.count), src=-1,
            )
        return packets[0].with_values(list(merged.to_payload()))


class Concentrator:
    """Run concentrator expressions over a live network of metric hosts.

    Args:
        net: the network.
        metrics: metric names every host reports (order matters).
        sampler: ``(rank, wave) -> list of metric values``.
    """

    def __init__(self, net: Network, metrics: Sequence[str], sampler):
        self.net = net
        self.metrics = list(metrics)
        self.sampler = sampler

    def evaluate(self, expression: str, timeout: float = 30.0) -> tuple[float, int]:
        """One collection wave + evaluation; returns (value, n_hosts)."""
        parse_sexpr(expression)  # fail fast on syntax errors
        stream = self.net.new_stream(
            transform="concentrator",
            sync="wait_for_all",
            transform_params={"expr": expression},
        )

        def host(be) -> None:
            be.wait_for_stream(stream.stream_id)
            pkt = be.recv(timeout=timeout, stream_id=stream.stream_id)
            wave = pkt.values[0]
            try:
                row = np.asarray(self.sampler(be.rank, wave), dtype=np.float64)
                if len(row) != len(self.metrics):
                    raise TBONError(
                        f"sampler returned {len(row)} values for "
                        f"{len(self.metrics)} metrics"
                    )
            except Exception as exc:
                # The wave can never complete: fail the waiting recv now
                # instead of letting it time out.
                if not isinstance(exc, TBONError):
                    exc = TBONError(f"sampler failed on back-end {be.rank}: {exc!r}")
                stream._deliver_error(exc)
                return
            stats = _Stats.from_row(self.metrics, row)
            be.send(stream.stream_id, _TAG_ROW, CONCENTRATOR_FMT, *stats.to_payload())

        threads = self.net.run_backends(host, join=False)
        try:
            stream.send(_TAG_TRIGGER, "%d", 0)
            pkt = stream.recv(timeout=timeout)
            value, count = pkt.values
            return float(value), int(count)
        finally:
            for t in threads:
                t.join(timeout)
            stream.close(timeout)
