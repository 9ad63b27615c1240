"""Span self-time arithmetic with nested wrappers on two threads."""

import threading

from spans import SpanRecorder


def test_self_time_excludes_children_per_thread():
    tls = threading.local()
    rec = SpanRecorder(clock=lambda: tls.ticks.pop(0))
    both_inside = threading.Barrier(2, timeout=5)

    def innermost():
        pass

    def inner(with_child):
        if with_child:
            both_inside.wait()  # both threads hold open spans at once
            w_innermost()

    def outer(calls):
        for with_child in calls:
            w_inner(with_child)

    w_innermost = rec.wrap(innermost, "innermost")
    w_inner = rec.wrap(inner, "inner")
    w_outer = rec.wrap(outer, "outer")

    def thread_one():
        # outer [0, 10]: inner [1, 3] with innermost [1.5, 2.5], inner [4, 7]
        tls.ticks = [0.0, 1.0, 1.5, 2.5, 3.0, 4.0, 7.0, 10.0]
        w_outer([True, False])

    def thread_two():
        # outer [100, 110]: inner [101, 106] with innermost [102, 104]
        tls.ticks = [100.0, 101.0, 102.0, 104.0, 106.0, 110.0]
        w_outer([True])

    threads = [threading.Thread(target=f, name=f.__name__) for f in (thread_one, thread_two)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(5)
    assert not any(t.is_alive() for t in threads)

    totals = rec.totals()
    assert totals["outer"] == (2, 20.0, 20.0 - 5.0 - 5.0)
    # thread one: 2 + 3 total, 1 + 3 self; thread two: 5 total, 3 self
    assert totals["inner"] == (3, 10.0, 7.0)
    assert totals["innermost"] == (2, 3.0, 3.0)
    assert rec.per_thread("inner") == {"thread_one": (2, 5.0, 4.0), "thread_two": (1, 5.0, 3.0)}
    parents = {(s["thread"], s["name"]): s["parent"] for s in rec.samples()}
    assert parents[("thread_two", "innermost")] == "inner"
    assert parents[("thread_one", "outer")] is None


def test_named_by_arguments_and_counters():
    rec = SpanRecorder()
    f = rec.wrap(lambda x: x * 2, lambda x: "even" if x % 2 == 0 else "odd")
    assert [f(i) for i in range(5)] == [0, 2, 4, 6, 8]
    totals = rec.totals()
    assert totals["even"][0] == 3 and totals["odd"][0] == 2
    rec.count("hits", 2)
    rec.count("hits")
    assert rec.counter("hits") == 3
    rec.reset()
    assert rec.totals() == {} and rec.counter("hits") == 0


def test_span_closes_when_the_call_raises():
    rec = SpanRecorder()

    def boom():
        raise KeyError("x")

    w = rec.wrap(boom, "boom")
    outer = rec.wrap(lambda: _swallow(w), "outer")
    outer()
    assert rec.totals()["boom"][0] == 1
    assert rec.totals()["outer"][0] == 1


def _swallow(fn):
    try:
        fn()
    except KeyError:
        pass
