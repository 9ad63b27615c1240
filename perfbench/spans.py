"""In-memory span recorder with per-thread stacks and self time.

A wrapped call opens a span on its thread's stack and closes it on
return.  A span's *self* time is its duration minus the durations of the
spans it called directly on the same thread, so time is never counted
twice when layers nest (``BackEnd.send`` -> ``ThreadTransport.send`` ->
``Inbox.put``).  Spans on other threads never touch this thread's stack.

Aggregates are kept per thread (no lock on the hot path) and merged on
demand; the first raw spans of every thread are kept too and written out
when the run ends.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable

__all__ = ["SpanRecorder"]

#: Raw spans kept per thread for the trace file.
SAMPLE_LIMIT = 200


class _ThreadState:
    __slots__ = ("thread", "stack", "acc", "counts", "samples")

    def __init__(self, thread: str) -> None:
        self.thread = thread
        #: Open spans, innermost last: [name, child_seconds].
        self.stack: list[list[Any]] = []
        #: name -> [calls, total_seconds, self_seconds]
        self.acc: dict[str, list[float]] = {}
        #: name -> count, for events that are not timed.
        self.counts: dict[str, float] = {}
        #: Raw spans: (name, parent, start, end).
        self.samples: list[tuple[str, str | None, float, float]] = []


class SpanRecorder:
    """Collects spans from any number of threads.

    Args:
        clock: seconds source; tests pass a scripted clock.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []

    def _state(self) -> _ThreadState:
        try:
            return self._tls.state
        except AttributeError:
            st = _ThreadState(threading.current_thread().name)
            self._tls.state = st
            with self._lock:
                self._states.append(st)
            return st

    # -- recording -------------------------------------------------------
    def open(self, name: str) -> tuple[_ThreadState, list[Any], float]:
        """Open span ``name`` on this thread; pass the token to :meth:`close`."""
        st = self._state()
        frame = [name, 0.0]
        st.stack.append(frame)
        return st, frame, self.clock()

    def close(self, token: tuple[_ThreadState, list[Any], float]) -> float:
        """Close the span ``token`` opened; returns its duration."""
        st, frame, start = token
        end = self.clock()
        dur = end - start
        stack = st.stack
        stack.pop()
        parent = None
        if stack:
            outer = stack[-1]
            outer[1] += dur
            parent = outer[0]
        name = frame[0]
        acc = st.acc.get(name)
        if acc is None:
            acc = st.acc[name] = [0, 0.0, 0.0]
        acc[0] += 1
        acc[1] += dur
        acc[2] += dur - frame[1]
        if len(st.samples) < SAMPLE_LIMIT:
            st.samples.append((name, parent, start, end))
        return dur

    def wrap(self, fn: Callable[..., Any], name: str | Callable[..., str]) -> Callable[..., Any]:
        """``fn`` recording one span per call.

        ``name`` is the span name, or a function of the call's arguments
        returning it (so one wrapper can split, say, root and internal
        nodes).
        """
        open_, close = self.open, self.close

        if callable(name):
            name_of = name

            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                token = open_(name_of(*args, **kwargs))
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(token)

        else:

            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                token = open_(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(token)

        return wrapper

    def count(self, name: str, n: float = 1) -> None:
        """Add ``n`` to an untimed per-thread counter."""
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + n

    def add(self, name: str, seconds: float, n: int = 1) -> None:
        """Record ``n`` already-measured events totalling ``seconds``
        (for waits that do not fit a call, such as queue residence)."""
        acc = self._state().acc.get(name)
        if acc is None:
            acc = self._state().acc[name] = [0, 0.0, 0.0]
        acc[0] += n
        acc[1] += seconds
        acc[2] += seconds

    # -- reading ---------------------------------------------------------
    def totals(self) -> dict[str, tuple[int, float, float]]:
        """``name -> (calls, total_s, self_s)`` merged over all threads."""
        merged: dict[str, list[float]] = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, (calls, total, self_t) in list(st.acc.items()):
                m = merged.setdefault(name, [0, 0.0, 0.0])
                m[0] += calls
                m[1] += total
                m[2] += self_t
        return {k: (int(v[0]), v[1], v[2]) for k, v in merged.items()}

    def per_thread(self, name: str) -> dict[str, tuple[int, float, float]]:
        """``thread -> (calls, total_s, self_s)`` for one span name."""
        with self._lock:
            states = list(self._states)
        out: dict[str, tuple[int, float, float]] = {}
        for st in states:
            acc = st.acc.get(name)
            if acc is not None:
                prev = out.get(st.thread, (0, 0.0, 0.0))
                out[st.thread] = (prev[0] + int(acc[0]), prev[1] + acc[1], prev[2] + acc[2])
        return out

    def counter(self, name: str) -> float:
        with self._lock:
            states = list(self._states)
        return sum(st.counts.get(name, 0) for st in states)

    def samples(self) -> list[dict[str, Any]]:
        with self._lock:
            states = list(self._states)
        return [
            {"name": n, "parent": p, "thread": st.thread, "start": s, "end": e}
            for st in states
            for (n, p, s, e) in list(st.samples)
        ]

    def reset(self) -> None:
        """Forget everything recorded so far (threads keep their stacks)."""
        with self._lock:
            for st in self._states:
                st.acc.clear()
                st.counts.clear()
                st.samples.clear()
