"""Runtime lock-order and guarded-attribute instrumentation.

The static rules in :mod:`repro.analysis.rules` check lock discipline
lexically; this module checks it *dynamically*: a TBON runs one event
loop per communication process plus reader threads per TCP connection,
so every lock in the data plane participates in a process-wide partial
order.  Acquiring locks in inconsistent order across threads is a latent
deadlock even when the interleaving that hangs has never been observed.

Three pieces:

* :class:`TrackedLock` — a drop-in ``threading.Lock``/``RLock`` wrapper
  that reports every acquisition to the process-wide
  :class:`LockOrderMonitor`.
* :class:`LockOrderMonitor` — records the directed graph "``a`` was held
  while ``b`` was acquired" across *all* threads and raises
  :class:`LockOrderError` the moment an acquisition would close a cycle
  (the classic potential-deadlock witness), naming the offending path.
* :class:`GuardedBy` — a data descriptor declaring "this attribute is
  protected by that lock"; any access without the owning
  :class:`TrackedLock` held by the current thread raises
  :class:`GuardedAccessError`.

Activation: :func:`make_lock` is the factory the repro code base uses
for its internal locks.  Normally it returns a plain
``threading.Lock``/``RLock`` (zero overhead).  With ``TBON_LOCKCHECK=1``
in the environment it returns named :class:`TrackedLock` instances, so
running the tier-1 suite under that variable turns every test into a
lock-order test::

    TBON_LOCKCHECK=1 PYTHONPATH=src python -m pytest -x -q

Lock-order edges are recorded *by name*, not by instance: the graph
node for every ``_ReactorConnection._lock`` is ``"reactor_sendq"``.  That is the
standard lock-ranking abstraction — two instances of the same class
rank equally — and keeps the graph small and the reports readable.
Reentrant acquisitions of a lock already held by this thread do not add
edges.

This module deliberately imports nothing from :mod:`repro.core` (the
core imports *us* for :func:`make_lock`).
"""

from __future__ import annotations

import os
import threading
from typing import Any

__all__ = [
    "ENV_VAR",
    "GuardedAccessError",
    "GuardedBy",
    "LockOrderError",
    "LockOrderMonitor",
    "TrackedLock",
    "get_monitor",
    "lockcheck_enabled",
    "make_lock",
]

#: Environment variable that switches :func:`make_lock` to tracked locks.
ENV_VAR = "TBON_LOCKCHECK"


class LockOrderError(RuntimeError):
    """An acquisition closed a cycle in the process-wide lock-order graph."""


class GuardedAccessError(RuntimeError):
    """A guarded attribute was accessed without its owning lock held."""


def lockcheck_enabled() -> bool:
    """True when ``TBON_LOCKCHECK`` requests runtime lock instrumentation."""
    return os.environ.get(ENV_VAR, "").strip().lower() not in ("", "0", "false", "no")


class LockOrderMonitor:
    """Process-wide record of cross-thread lock acquisition order.

    The graph has one node per lock *name* and an edge ``a -> b``
    whenever some thread acquired ``b`` while holding ``a``.  A cycle in
    this graph means two threads can deadlock by acquiring the same
    locks in opposite orders; detection is eager, at the acquisition
    that would create the cycle, so the traceback points at the exact
    call site of the inversion.
    """

    def __init__(self) -> None:
        self._edges: dict[str, set[str]] = {}
        self._mu = threading.Lock()
        self._local = threading.local()

    # -- per-thread held stack ------------------------------------------------
    def _stack(self) -> list["TrackedLock"]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def holds(self, lock: "TrackedLock") -> bool:
        """True when the calling thread currently holds ``lock``."""
        return any(held is lock for held in self._stack())

    def held_names(self) -> tuple[str, ...]:
        """Names of locks held by the calling thread, outermost first."""
        return tuple(held.name for held in self._stack())

    # -- graph maintenance ------------------------------------------------------
    def on_acquired(self, lock: "TrackedLock") -> None:
        """Record that the calling thread acquired ``lock``.

        Raises:
            LockOrderError: this acquisition closes a cycle (an existing
                path already leads from ``lock`` back to a held lock).
        """
        stack = self._stack()
        held = [h.name for h in stack if h.name != lock.name]
        if held:
            with self._mu:
                for name in dict.fromkeys(held):
                    self._edges.setdefault(name, set()).add(lock.name)
                for name in held:
                    path = self._find_path(lock.name, name)
                    if path is not None:
                        cycle = " -> ".join(path + [path[0]])
                        raise LockOrderError(
                            f"lock-order inversion: acquiring {lock.name!r} while "
                            f"holding {name!r} closes the cycle {cycle}"
                        )
        stack.append(lock)

    def on_released(self, lock: "TrackedLock") -> None:
        stack = self._stack()
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] is lock:
                del stack[i]
                return

    def _find_path(self, start: str, goal: str) -> list[str] | None:
        """A path ``start -> ... -> goal`` in the edge graph, or None.

        Caller holds ``self._mu``.
        """
        seen = {start}
        frontier: list[list[str]] = [[start]]
        while frontier:
            path = frontier.pop()
            for nxt in self._edges.get(path[-1], ()):
                if nxt == goal:
                    return path + [goal]
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(path + [nxt])
        return None

    def edges(self) -> dict[str, set[str]]:
        """A snapshot of the order graph (for tests and diagnostics)."""
        with self._mu:
            return {a: set(bs) for a, bs in self._edges.items()}

    def reset(self) -> None:
        """Forget all recorded edges (test isolation)."""
        with self._mu:
            self._edges.clear()


_monitor = LockOrderMonitor()


def get_monitor() -> LockOrderMonitor:
    """The process-wide monitor used by default-constructed tracked locks."""
    return _monitor


class TrackedLock:
    """A named ``threading.Lock``/``RLock`` that reports to a monitor.

    Implements the full lock protocol (``acquire``/``release``, context
    manager, ``locked``) plus ``_is_owned`` so it can serve as the
    underlying lock of a ``threading.Condition``.
    """

    def __init__(
        self,
        name: str,
        *,
        reentrant: bool = False,
        monitor: LockOrderMonitor | None = None,
    ) -> None:
        self.name = name
        self.reentrant = reentrant
        self.monitor = monitor or _monitor
        self._lock: Any = threading.RLock() if reentrant else threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        ok = self._lock.acquire(blocking, timeout)
        if ok:
            try:
                self.monitor.on_acquired(self)
            except BaseException:
                self._lock.release()
                raise
        return ok

    def release(self) -> None:
        self.monitor.on_released(self)
        self._lock.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: Any) -> None:
        self.release()

    def locked(self) -> bool:
        inner_locked = getattr(self._lock, "locked", None)
        if inner_locked is not None:
            return bool(inner_locked())
        return self.monitor.holds(self)  # RLock before 3.12 has no locked()

    def _is_owned(self) -> bool:
        """Ownership probe (``threading.Condition`` protocol)."""
        return self.monitor.holds(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "RLock" if self.reentrant else "Lock"
        return f"TrackedLock({self.name!r}, {kind})"


class GuardedBy:
    """Data descriptor enforcing that a lock is held around attribute access.

    Usage::

        class Counter:
            value = GuardedBy("_lock")

            def __init__(self) -> None:
                self._lock = make_lock("counter")
                with self._lock:
                    self.value = 0

    Enforcement requires the owning lock to be a :class:`TrackedLock`
    (i.e. lock checking is active); with a plain ``threading.Lock``
    ownership is unknowable and the descriptor degrades to plain
    attribute storage.  This mirrors :func:`make_lock`: the same code
    runs un-instrumented in production and fully checked under
    ``TBON_LOCKCHECK=1``.
    """

    def __init__(self, lock_attr: str) -> None:
        self.lock_attr = lock_attr
        self.attr = "<unbound>"

    def __set_name__(self, owner: type, name: str) -> None:
        self.attr = name

    def _check(self, obj: Any, op: str) -> None:
        lock = getattr(obj, self.lock_attr, None)
        if isinstance(lock, TrackedLock) and not lock._is_owned():
            raise GuardedAccessError(
                f"{op} of {type(obj).__name__}.{self.attr} without holding "
                f"{self.lock_attr} ({lock.name!r})"
            )

    def __get__(self, obj: Any, objtype: type | None = None) -> Any:
        if obj is None:
            return self
        self._check(obj, "read")
        try:
            return obj.__dict__[self.attr]
        except KeyError:
            raise AttributeError(
                f"{type(obj).__name__!r} object has no attribute {self.attr!r}"
            ) from None

    def __set__(self, obj: Any, value: Any) -> None:
        self._check(obj, "write")
        obj.__dict__[self.attr] = value

    def __delete__(self, obj: Any) -> None:
        self._check(obj, "delete")
        del obj.__dict__[self.attr]


def make_lock(
    name: str,
    *,
    reentrant: bool = False,
    monitor: LockOrderMonitor | None = None,
) -> Any:
    """The lock factory used by repro's internal locks.

    Returns a plain ``threading.Lock`` (or ``RLock``) normally — no
    indirection on the hot path — and a named :class:`TrackedLock` when
    ``TBON_LOCKCHECK`` is set, so the entire middleware participates in
    lock-order recording.  ``name`` identifies the lock *class* in the
    order graph (all instances created with one name rank together).
    """
    if lockcheck_enabled():
        return TrackedLock(name, reentrant=reentrant, monitor=monitor)
    return threading.RLock() if reentrant else threading.Lock()
