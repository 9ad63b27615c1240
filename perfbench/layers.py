"""Outside-in layer tracing: wrap each layer's public functions.

:func:`install` replaces methods on the program's classes with wrappers
that record spans into a :class:`~spans.SpanRecorder`; the program
itself is not edited and carries no tracing code.  Wrappers must be
installed *before* a :class:`repro.Network` is built, because nodes bind
some methods once at construction (the front-end's ``dispatch`` becomes
the root's ``deliver_up``; a node loop looks up ``Inbox.get_batch`` when
it starts).

Layer -> wrapped functions -> span or counter names:

* ``core.network``: ``Network.__init__`` -> ``network.init``
* ``core.backend``: ``BackEnd.send`` / ``BackEnd.recv`` -> ``backend.send`` / ``backend.recv``
* ``core.stream``: ``Stream.send`` / ``Stream.recv`` -> ``stream.send`` / ``stream.recv``
* ``core.frontend``: ``FrontEnd.dispatch`` -> ``frontend.dispatch``
* ``transport.base``: ``Inbox.put``/``put_many`` stamp arrivals,
  ``Inbox.get``/``get_batch`` turn them into ``inbox.wait`` (queue residence)
* ``core.node``: ``NodeRunner.handle`` -> ``node.handle.root`` / ``node.handle.internal``
* ``core.sync_filters``: ``*.push`` -> ``sync.push``; ``TimeOut.on_timer``
  releases -> counter ``sync.timer_releases``
* filters: ``TransformationFilter.execute`` -> ``filter.transform``
* ``core.packet``: ``Packet.to_bytes`` / ``Packet.from_bytes`` ->
  ``packet.encode`` / ``packet.decode``; memoized frames -> counter ``packet.frame_cache_hits``
* ``transport.local`` / ``transport.reactor``: ``*Transport.send`` -> ``transport.send``
* ``transport.reactor``: ``_ReactorConnection.enqueue`` -> ``reactor.enqueue``
  (+ counters ``reactor.frames``, ``reactor.wire_bytes``, ``reactor.stalls``);
  ``_nb_sendmsg`` -> counter ``reactor.sendmsg``
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable

from spans import SpanRecorder

__all__ = ["install", "layer_metrics", "NOT_EXERCISED"]


def install(rec: SpanRecorder) -> Callable[[], None]:
    """Wrap every traced layer; returns a function that restores them."""
    from repro.core import backend, filters, frontend, network, node, packet, stream
    from repro.core import sync_filters
    from repro.transport import base, local, reactor

    saved: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, new: Any) -> None:
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def span(owner: Any, attr: str, name: str | Callable[..., str]) -> None:
        patch(owner, attr, rec.wrap(getattr(owner, attr), name))

    span(network.Network, "__init__", "network.init")
    span(backend.BackEnd, "send", "backend.send")
    span(backend.BackEnd, "recv", "backend.recv")
    span(stream.Stream, "send", "stream.send")
    span(stream.Stream, "recv", "stream.recv")
    span(frontend.FrontEnd, "dispatch", "frontend.dispatch")
    span(
        node.NodeRunner,
        "handle",
        lambda self, env: "node.handle.root" if self._is_root else "node.handle.internal",
    )
    for cls in (sync_filters.WaitForAll, sync_filters.TimeOut, sync_filters.NullSync):
        span(cls, "push", "sync.push")
    span(filters.TransformationFilter, "execute", "filter.transform")
    span(local.ThreadTransport, "send", "transport.send")
    span(reactor.ReactorTransport, "send", "transport.send")

    on_timer = sync_filters.TimeOut.on_timer

    def timed_release(self: Any, now: float, ctx: Any) -> Any:
        batches = on_timer(self, now, ctx)
        if batches:
            rec.count("sync.timer_releases", len(batches))
        return batches

    patch(sync_filters.TimeOut, "on_timer", timed_release)

    # -- packet codec: spans plus the frame-cache outcome ----------------
    to_bytes = packet.Packet.to_bytes
    cache_on = packet.FRAME_CACHE_ENABLED

    def encode(self: Any) -> bytes:
        if cache_on and self._frame is not None and self._frame_hops == self.hops:
            rec.count("packet.frame_cache_hits")
        token = rec.open("packet.encode")
        try:
            return to_bytes(self)
        finally:
            rec.close(token)

    patch(packet.Packet, "to_bytes", encode)
    from_bytes = packet.Packet.__dict__["from_bytes"].__func__
    patch(packet.Packet, "from_bytes", classmethod(rec.wrap(from_bytes, "packet.decode")))

    # -- inbox residence: stamp on put, settle on get ---------------------
    clock = rec.clock
    in_batch = threading.local()
    inbox_init = base.Inbox.__init__
    put, put_many = base.Inbox.put, base.Inbox.put_many
    get, get_batch = base.Inbox.get, base.Inbox.get_batch

    def init(self: Any) -> None:
        inbox_init(self)
        self._perfbench_stamps = deque()

    def stamped_put(self: Any, env: Any) -> None:
        self._perfbench_stamps.append(clock())
        put(self, env)

    def stamped_put_many(self: Any, envs: Any) -> None:
        self._perfbench_stamps.extend([clock()] * len(envs))
        put_many(self, envs)

    def settle(self: Any, n: int) -> None:
        now = clock()
        stamps = self._perfbench_stamps
        waited = 0.0
        for _ in range(n):
            try:
                waited += now - stamps.popleft()
            except IndexError:  # enqueued before the wrappers existed
                n -= 1
        if n:
            rec.add("inbox.wait", waited, n)

    def settled_get(self: Any, timeout: float | None = None) -> Any:
        env = get(self, timeout)
        if not getattr(in_batch, "on", False):
            settle(self, 1)
        return env

    def settled_get_batch(self: Any, max_n: int = 64, timeout: float | None = None) -> Any:
        in_batch.on = True
        try:
            out = get_batch(self, max_n, timeout)
        finally:
            in_batch.on = False
        settle(self, len(out))
        rec.count("inbox.batches")
        rec.count("inbox.batched", len(out))
        return out

    patch(base.Inbox, "__init__", init)
    patch(base.Inbox, "put", stamped_put)
    patch(base.Inbox, "put_many", stamped_put_many)
    patch(base.Inbox, "get", settled_get)
    patch(base.Inbox, "get_batch", settled_get_batch)

    # -- reactor write path ----------------------------------------------
    enqueue = reactor._ReactorConnection.enqueue

    def traced_enqueue(self: Any, header: bytes, body: bytes, **kw: Any) -> None:
        if self._depth >= kw["high_water"]:
            rec.count("reactor.stalls")
        rec.count("reactor.frames")
        rec.count("reactor.wire_bytes", len(header) + len(body))
        token = rec.open("reactor.enqueue")
        try:
            enqueue(self, header, body, **kw)
        finally:
            rec.close(token)

    patch(reactor._ReactorConnection, "enqueue", traced_enqueue)
    nb_sendmsg = reactor._nb_sendmsg

    def counted_sendmsg(sock: Any, buffers: Any) -> Any:
        sent = nb_sendmsg(sock, buffers)
        if sent is not None:
            rec.count("reactor.sendmsg")
        return sent

    saved.append((reactor, "_nb_sendmsg", nb_sendmsg))
    reactor._nb_sendmsg = counted_sendmsg

    def uninstall() -> None:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)
        saved.clear()

    return uninstall


#: Per-layer metrics a workload does not exercise, with the reason
#: printed next to their 0 reading.
_UPSTREAM_ONCE = "no packet is encoded twice: each upstream packet crosses one edge"
_MULTICAST_ONCE = (
    "no packet is encoded twice: each upstream packet crosses one edge, and a "
    "multicast is encoded once for all children (ReactorTransport.multicast)"
)
_ONE_IN_FLIGHT = (
    "one op in flight never fills a peer's send queue to its high-water mark"
)
NOT_EXERCISED: dict[str, dict[str, str]] = {
    "sum_waves": {
        "backend.recv_wait_us": "no downstream data: back-ends only send",
        "stream.send_us": "no downstream multicast: waves start at the back-ends",
        "packet.encode_us": "thread transport passes packets by reference",
        "packet.decode_us": "thread transport passes packets by reference",
        "packet.wire_bytes_per_op": "thread transport passes packets by reference",
        "packet.frame_cache_hit_ratio": "thread transport passes packets by reference",
        "reactor.enqueue_us": "thread transport",
        "reactor.frames_per_sendmsg": "thread transport",
        "reactor.backpressure_stalls": "thread transport",
        "sync.timer_releases": "wait_for_all has no timer",
    },
    "paradyn_poll": {
        "packet.frame_cache_hit_ratio": _MULTICAST_ONCE,
        "reactor.backpressure_stalls": _ONE_IN_FLIGHT,
        "sync.timer_releases": "every wave is complete long before its 2 s window ends",
    },
    "meanshift": {
        "backend.recv_wait_us": "no downstream data: back-ends only send",
        "stream.send_us": "no downstream multicast: merges start at the back-ends",
        "packet.frame_cache_hit_ratio": _UPSTREAM_ONCE,
        "reactor.backpressure_stalls": _ONE_IN_FLIGHT,
        "sync.timer_releases": "wait_for_all has no timer",
    },
}


def layer_metrics(
    rec: SpanRecorder, *, ops: int, window_s: float, threads: int
) -> dict[str, float]:
    """Per-layer metrics from one traced window of ``ops`` ops.

    ``network.*`` and ``trace.overhead_pct`` are measured by the run
    itself and filled in by the caller.
    """
    tot = rec.totals()

    def span(name: str) -> tuple[int, float, float]:
        return tot.get(name, (0, 0.0, 0.0))

    def mean_us(name: str, *, self_time: bool = False) -> float:
        calls, total, self_t = span(name)
        return 1e6 * (self_t if self_time else total) / calls if calls else 0.0

    def busy(name: str) -> list[float]:
        return [total / window_s for _c, total, _s in rec.per_thread(name).values()]

    handles = [span("node.handle.root"), span("node.handle.internal")]
    handle_calls = sum(h[0] for h in handles)
    handle_total = sum(h[1] for h in handles)
    handle_self = sum(h[2] for h in handles)
    internal = busy("node.handle.internal")
    encodes = span("packet.encode")[0]
    sendmsgs = rec.counter("reactor.sendmsg")
    batches = rec.counter("inbox.batches")
    return {
        "backend.send_us": mean_us("backend.send", self_time=True),
        "backend.recv_wait_us": mean_us("backend.recv"),
        "stream.send_us": mean_us("stream.send", self_time=True),
        "stream.recv_wait_ms": mean_us("stream.recv") / 1e3,
        "frontend.dispatch_us": mean_us("frontend.dispatch", self_time=True),
        "inbox.wait_us": mean_us("inbox.wait"),
        # Node loops drain with get_batch; back-end listeners take one at a time.
        "inbox.batch_mean": rec.counter("inbox.batched") / batches if batches else 0.0,
        "inbox.envelopes_per_op": span("inbox.wait")[0] / ops,
        "node.handle_self_us": 1e6 * handle_self / handle_calls if handle_calls else 0.0,
        "node.root_busy_share": sum(busy("node.handle.root")),
        "node.internal_busy_share": sum(internal) / len(internal) if internal else 0.0,
        "sync.push_us": mean_us("sync.push", self_time=True),
        "sync.timer_releases": rec.counter("sync.timer_releases"),
        "filter.transform_us": mean_us("filter.transform"),
        "filter.transform_share": span("filter.transform")[1] / handle_total if handle_total else 0.0,
        "packet.encode_us": mean_us("packet.encode"),
        "packet.decode_us": mean_us("packet.decode"),
        "packet.wire_bytes_per_op": rec.counter("reactor.wire_bytes") / ops,
        "packet.frame_cache_hit_ratio": (
            rec.counter("packet.frame_cache_hits") / encodes if encodes else 0.0
        ),
        "transport.send_us": mean_us("transport.send", self_time=True),
        "reactor.enqueue_us": mean_us("reactor.enqueue"),
        "reactor.frames_per_sendmsg": rec.counter("reactor.frames") / sendmsgs if sendmsgs else 0.0,
        "reactor.backpressure_stalls": rec.counter("reactor.stalls"),
        "process.threads": float(threads),
    }
