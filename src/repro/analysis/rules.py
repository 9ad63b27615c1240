"""TBON-aware AST lint rules.

Each rule encodes an invariant the paper (or docs/PROTOCOL.md) relies on
but a generic linter cannot see:

* **TB1xx — wire format.**  Packet payloads are described by MRNet-style
  format strings (``"%d %f %as"``, Section 2.1).  A bad directive or an
  arity/type mismatch between the format and the packed values is a
  guaranteed runtime :class:`~repro.core.errors.SerializationError` —
  and on the *receiving* side of a stream it surfaces as a corrupted
  reduction, far from the offending call site.  These rules validate
  every format-string literal at ``pack_payload``/``unpack_payload``/
  ``Packet``/``make_packet``/``*.send(...)`` call sites against the real
  directive table in :mod:`repro.core.serialization` (the checker *is*
  the production parser, so the two can never drift).
* **TB2xx — filter protocol.**  "A filter can be any function that
  inputs a set of packets and outputs a single packet"; the middleware
  drives filters through a fixed protocol (``transform``/``execute``,
  ``push``, ``timed``).  A subclass missing its override dies at the
  first wave; a timed sync filter that forgets ``timed = True`` *mostly
  works* — until the event loop's timer fast path skips it and held
  packets never release.  TB204 enforces docs/PROTOCOL.md §5's
  mutation contract: header and payload attributes of a
  :class:`~repro.core.packet.Packet` are frozen after construction
  because the serialized frame is memoized and shared across a
  multicast fan-out; one stray ``pkt.tag = ...`` after first
  serialization silently forks what children see.
* **TB3xx — lock discipline.**  Attributes shared between the node
  event loop, transport reader threads and the application are declared
  with ``# tbon: lock=<name>`` at their initialising assignment; every
  other write must sit inside ``with self.<name>:`` (or carry an
  explicit ``# tbon: lock-free(<reason>)``).
* **TB4xx — exception hygiene.**  Data-plane errors must route through
  ``node.error``/logging, never vanish in a broad ``except``.  A
  handler that binds and uses the exception, re-raises, or calls a
  logger counts as reporting; ``except Exception: pass`` does not.
* **TB5xx — telemetry discipline.**  Instruments must be created
  through a :class:`repro.telemetry.registry.Registry` (its keyed
  get-or-create store is what ``snapshot()`` serializes); a directly
  constructed ``Counter``/``Gauge``/``Histogram`` records data the
  in-tree stats reduction can never see.
"""

from __future__ import annotations

import ast
from typing import Any, Iterator

from ..core.errors import FormatStringError
from ..core.serialization import parse_format
from .findings import Finding, PragmaTable

__all__ = ["ClassIndex", "build_index", "analyze_module"]

# -- project-wide class index ---------------------------------------------------

_TRANSFORM_ROOT = "TransformationFilter"
_SYNC_ROOT = "SynchronizationFilter"


class ClassInfo:
    """Shape of one class definition (for cross-module hierarchy checks)."""

    __slots__ = ("name", "bases", "methods", "class_consts", "path", "line")

    def __init__(self, node: ast.ClassDef, path: str) -> None:
        self.name = node.name
        self.path = path
        self.line = node.lineno
        self.bases = tuple(_base_name(b) for b in node.bases)
        self.methods = frozenset(
            item.name
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        consts: dict[str, Any] = {}
        for item in node.body:
            if isinstance(item, ast.Assign) and isinstance(item.value, ast.Constant):
                for tgt in item.targets:
                    if isinstance(tgt, ast.Name):
                        consts[tgt.id] = item.value.value
            elif (
                isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
                and isinstance(item.value, ast.Constant)
            ):
                consts[item.target.id] = item.value.value
        self.class_consts = consts


def _base_name(node: ast.expr) -> str:
    """The last dotted segment of a base-class expression, or ''."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):  # Generic[...] bases
        return _base_name(node.value)
    return ""


class ClassIndex:
    """Name -> :class:`ClassInfo` across every analyzed file.

    Hierarchy queries resolve base names transitively through the index;
    classes whose bases are unknown (imported from outside the analyzed
    tree) terminate the walk, so the rules only fire on provable
    relationships.
    """

    def __init__(self) -> None:
        self.classes: dict[str, ClassInfo] = {}

    def add(self, info: ClassInfo) -> None:
        # First definition wins on (unlikely) simple-name collisions.
        self.classes.setdefault(info.name, info)

    def _base_names(self, name: str) -> set[str]:
        """All transitive base names of ``name`` (known and unknown)."""
        seen: set[str] = set()
        queue = list(self.classes[name].bases) if name in self.classes else []
        while queue:
            base = queue.pop(0)
            if not base or base in seen:
                continue
            seen.add(base)
            if base in self.classes:
                queue.extend(self.classes[base].bases)
        return seen

    def _ancestry(self, name: str) -> Iterator[ClassInfo]:
        """Known ancestors of ``name`` (excluding itself), BFS order."""
        seen = {name}
        queue = list(self.classes[name].bases) if name in self.classes else []
        while queue:
            base = queue.pop(0)
            if base in seen or base not in self.classes:
                continue
            seen.add(base)
            info = self.classes[base]
            yield info
            queue.extend(info.bases)

    def is_subclass(self, name: str, root: str) -> bool:
        """True when ``root`` appears anywhere in the transitive base names.

        The root class itself need not be part of the analyzed file set —
        ``class F(TransformationFilter)`` is recognized even when only
        ``F``'s module is analyzed, because the *name* terminates the walk.
        """
        return root in self._base_names(name)

    def chain_defines(self, name: str, methods: tuple[str, ...], root: str) -> bool:
        """Does ``name`` or any ancestor *below* ``root`` define one of ``methods``?"""
        infos = [self.classes[name]] if name in self.classes else []
        infos += [i for i in self._ancestry(name) if i.name != root]
        return any(m in info.methods for info in infos for m in methods)

    def chain_const(self, name: str, const: str, root: str) -> Any:
        """The nearest class-level constant ``const`` below ``root``, or None."""
        infos = [self.classes[name]] if name in self.classes else []
        infos += [i for i in self._ancestry(name) if i.name != root]
        for info in infos:
            if const in info.class_consts:
                return info.class_consts[const]
        return None


def build_index(trees: dict[str, ast.Module]) -> ClassIndex:
    index = ClassIndex()
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                index.add(ClassInfo(node, path))
    return index


# -- TB1xx: wire-format validation ----------------------------------------------

#: func name -> index of the format-string argument; values follow per-site.
_PACK_LIKE = {"pack_payload": 0, "validate_values": 0}
_UNPACK_LIKE = {"unpack_payload": 0}
_SEND_METHODS = {"send", "send_p2p"}


def _call_name(func: ast.expr) -> str:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _const_str(node: ast.expr | None) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _literal_value(node: ast.expr) -> tuple[bool, Any]:
    """(known, value) for constants, including negated numeric literals."""
    if isinstance(node, ast.Constant):
        return True, node.value
    if (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and isinstance(node.operand, ast.Constant)
        and isinstance(node.operand.value, (int, float))
        and not isinstance(node.operand.value, bool)
    ):
        return True, -node.operand.value
    return False, None


def _literal_type_error(code: str, value: Any) -> str | None:
    """Mirror of the runtime checkers for values knowable at lint time."""
    if code == "d":
        if isinstance(value, bool) or not isinstance(value, int):
            return f"%d expects an int, got {type(value).__name__}"
        if not -(2**63) <= value < 2**63:
            return f"%d value {value} out of signed 64-bit range"
    elif code == "ud":
        if isinstance(value, bool) or not isinstance(value, int):
            return f"%ud expects an int, got {type(value).__name__}"
        if not 0 <= value < 2**64:
            return f"%ud value {value} out of unsigned 64-bit range"
    elif code == "f":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return f"%f expects a float, got {type(value).__name__}"
    elif code == "s":
        if not isinstance(value, str):
            return f"%s expects a str, got {type(value).__name__}"
    elif code == "c":
        if not isinstance(value, str) or len(value) != 1:
            return f"%c expects a 1-character str, got {value!r}"
    elif code == "b":
        if not isinstance(value, bool):
            return f"%b expects a bool, got {type(value).__name__}"
    elif code == "ac":
        if not isinstance(value, (bytes, bytearray)):
            return f"%ac expects bytes, got {type(value).__name__}"
    return None


class _WireFormatVisitor(ast.NodeVisitor):
    def __init__(self, path: str, findings: list[Finding]) -> None:
        self.path = path
        self.findings = findings

    def _flag(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(rule, self.path, node.lineno, node.col_offset + 1, message)
        )

    def _check_fmt(self, fmt_node: ast.expr) -> tuple[Any, ...] | None:
        """Validate a literal format string; returns directives or None."""
        fmt = _const_str(fmt_node)
        if fmt is None:
            return None
        try:
            return parse_format(fmt)
        except FormatStringError as exc:
            self._flag("TB101", fmt_node, str(exc))
            return None

    def _check_values(
        self,
        fmt_node: ast.expr,
        directives: tuple[Any, ...],
        value_nodes: list[ast.expr],
        countable: bool,
    ) -> None:
        fmt = _const_str(fmt_node)
        if countable and len(value_nodes) != len(directives):
            self._flag(
                "TB102",
                fmt_node,
                f"format {fmt!r} expects {len(directives)} values, "
                f"call packs {len(value_nodes)}",
            )
            return
        for d, node in zip(directives, value_nodes):
            known, value = _literal_value(node)
            if not known:
                continue
            err = _literal_type_error(d.code, value)
            if err:
                self._flag("TB103", node, err)

    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node.func)
        args = node.args
        if name in _PACK_LIKE and len(args) >= 2:
            directives = self._check_fmt(args[0])
            if directives is not None:
                values = args[1]
                if isinstance(values, (ast.Tuple, ast.List)) and not any(
                    isinstance(e, ast.Starred) for e in values.elts
                ):
                    self._check_values(args[0], directives, list(values.elts), True)
        elif name in _UNPACK_LIKE and args:
            self._check_fmt(args[0])
        elif name == "Packet" and len(args) >= 4:
            directives = self._check_fmt(args[2])
            if directives is not None:
                values = args[3]
                if isinstance(values, (ast.Tuple, ast.List)) and not any(
                    isinstance(e, ast.Starred) for e in values.elts
                ):
                    self._check_values(args[2], directives, list(values.elts), True)
        elif name == "make_packet" and len(args) >= 3:
            directives = self._check_fmt(args[2])
            if directives is not None:
                tail = args[3:]
                countable = not any(isinstance(e, ast.Starred) for e in tail)
                self._check_values(args[2], directives, list(tail), countable)
        elif name in _SEND_METHODS and isinstance(node.func, ast.Attribute):
            # BackEnd.send(stream_id, tag, fmt, *v) / Stream.send(tag, fmt, *v)
            # / send_p2p(dst, tag, fmt, *v): locate the first literal that
            # looks like a format string; everything after it is payload.
            for i, arg in enumerate(args):
                s = _const_str(arg)
                if s is not None and s.lstrip().startswith("%"):
                    directives = self._check_fmt(arg)
                    if directives is not None:
                        tail = args[i + 1 :]
                        countable = not any(
                            isinstance(e, ast.Starred) for e in tail
                        )
                        self._check_values(arg, directives, list(tail), countable)
                    break
        self.generic_visit(node)


# -- TB2xx: filter protocol -----------------------------------------------------

#: Packet attributes frozen after construction (docs/PROTOCOL.md §5).
#: ``trace`` has a sanctioned mutator (``Packet.attach_trace``, which
#: invalidates the frame memo); direct assignment is still a violation.
_PACKET_FROZEN_ATTRS = frozenset(
    {
        "stream_id",
        "tag",
        "fmt",
        "src",
        "hops",
        "seq",
        "payload",
        "trace",
        "_values",
        "_frame",
        "_frame_hops",
    }
)


def _check_filter_classes(
    path: str, tree: ast.Module, index: ClassIndex, findings: list[Finding]
) -> None:
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        name = node.name
        if name in (_TRANSFORM_ROOT, _SYNC_ROOT):
            continue
        if index.is_subclass(name, _TRANSFORM_ROOT):
            if not index.chain_defines(name, ("transform", "execute"), _TRANSFORM_ROOT):
                findings.append(
                    Finding(
                        "TB201",
                        path,
                        node.lineno,
                        node.col_offset + 1,
                        f"{name} subclasses TransformationFilter but overrides "
                        "neither transform() nor execute(); the first wave will "
                        "raise NotImplementedError inside the node event loop",
                    )
                )
        if index.is_subclass(name, _SYNC_ROOT):
            if not index.chain_defines(name, ("push",), _SYNC_ROOT):
                findings.append(
                    Finding(
                        "TB202",
                        path,
                        node.lineno,
                        node.col_offset + 1,
                        f"{name} subclasses SynchronizationFilter but does not "
                        "override push(); every arrival will raise "
                        "NotImplementedError",
                    )
                )
            defines_timers = any(
                m in index.classes[name].methods
                for m in ("next_deadline", "on_timer")
            ) if name in index.classes else False
            if defines_timers and index.chain_const(name, "timed", _SYNC_ROOT) is not True:
                findings.append(
                    Finding(
                        "TB203",
                        path,
                        node.lineno,
                        node.col_offset + 1,
                        f"{name} overrides next_deadline/on_timer but does not "
                        "declare 'timed = True'; NodeRunner registers timer "
                        "streams by this flag and a mis-declared filter can "
                        "hold packets forever",
                    )
                )


class _PacketMutationVisitor(ast.NodeVisitor):
    """TB204: assignment to a frozen Packet attribute on a non-self object."""

    def __init__(self, path: str, findings: list[Finding]) -> None:
        self.path = path
        self.findings = findings

    def _check_target(self, target: ast.expr) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._check_target(elt)
            return
        if not isinstance(target, ast.Attribute):
            return
        if target.attr not in _PACKET_FROZEN_ATTRS:
            return
        base = target.value
        if isinstance(base, ast.Name) and base.id in ("self", "cls"):
            return
        self.findings.append(
            Finding(
                "TB204",
                self.path,
                target.lineno,
                target.col_offset + 1,
                f"assignment to .{target.attr} mutates a Packet after "
                "construction; frames are memoized and shared across the "
                "multicast fan-out (serialize-once contract, "
                "docs/PROTOCOL.md §5) — build a new packet with "
                "with_values() instead",
            )
        )

    def visit_Assign(self, node: ast.Assign) -> None:
        for t in node.targets:
            self._check_target(t)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_target(node.target)
        self.generic_visit(node)


# -- TB3xx: lock discipline ------------------------------------------------------


def _self_attr(node: ast.expr) -> str | None:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


class _LockDisciplineVisitor(ast.NodeVisitor):
    """Per-class TB301/TB302 checker (driven by ``# tbon: lock=`` pragmas)."""

    def __init__(
        self,
        path: str,
        pragmas: PragmaTable,
        findings: list[Finding],
    ) -> None:
        self.path = path
        self.pragmas = pragmas
        self.findings = findings

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        guarded: dict[str, tuple[str, int]] = {}  # attr -> (lock, decl line)
        self_assigned: set[str] = set()
        writes: list[tuple[ast.expr, str]] = []  # (target node, attr)

        class Collector(ast.NodeVisitor):
            def __init__(self, outer: "_LockDisciplineVisitor") -> None:
                self.outer = outer
                self.with_stack: list[str] = []
                self.write_locks: dict[int, tuple[str, ...]] = {}

            def _record(self, target: ast.expr) -> None:
                attr = _self_attr(target)
                if attr is None:
                    return
                self_assigned.add(attr)
                lock = self.outer.pragmas.lock_name(target.lineno)
                if lock is not None and attr not in guarded:
                    guarded[attr] = (lock, target.lineno)
                writes.append((target, attr))
                self.write_locks[id(target)] = tuple(self.with_stack)

            def visit_Assign(self, n: ast.Assign) -> None:
                for t in n.targets:
                    self._record(t)
                self.generic_visit(n)

            def visit_AugAssign(self, n: ast.AugAssign) -> None:
                self._record(n.target)
                self.generic_visit(n)

            def visit_AnnAssign(self, n: ast.AnnAssign) -> None:
                self._record(n.target)
                self.generic_visit(n)

            def visit_With(self, n: ast.With) -> None:
                held = [
                    a
                    for item in n.items
                    if (a := _self_attr(item.context_expr)) is not None
                ]
                self.with_stack.extend(held)
                self.generic_visit(n)
                del self.with_stack[len(self.with_stack) - len(held) :]

            visit_AsyncWith = visit_With  # type: ignore[assignment]

            def visit_ClassDef(self, n: ast.ClassDef) -> None:
                # Nested classes get their own visit from the outer walker.
                self.outer.visit_ClassDef(n)

        collector = Collector(self)
        for stmt in node.body:
            collector.visit(stmt)

        for attr, (lock, decl_line) in guarded.items():
            if lock not in self_assigned:
                self.findings.append(
                    Finding(
                        "TB302",
                        self.path,
                        decl_line,
                        1,
                        f"'# tbon: lock={lock}' on {node.name}.{attr}: the class "
                        f"never assigns self.{lock}",
                    )
                )
        for target, attr in writes:
            info = guarded.get(attr)
            if info is None:
                continue
            lock, decl_line = info
            if target.lineno == decl_line:
                continue  # the declaring assignment itself
            if lock in collector.write_locks.get(id(target), ()):
                continue
            self.findings.append(
                Finding(
                    "TB301",
                    self.path,
                    target.lineno,
                    target.col_offset + 1,
                    f"write to {node.name}.{attr} outside 'with self.{lock}:' "
                    f"(declared lock-guarded at line {decl_line})",
                )
            )


# -- TB4xx: exception hygiene -----------------------------------------------------

_BROAD_NAMES = {"Exception", "BaseException"}
_REPORT_CALLS = {
    "warning",
    "error",
    "exception",
    "critical",
    "info",
    "debug",
    "log",
    "print",
}


def _exception_names(type_node: ast.expr) -> list[str]:
    if isinstance(type_node, ast.Tuple):
        return [n for e in type_node.elts for n in _exception_names(e)]
    if isinstance(type_node, ast.Name):
        return [type_node.id]
    if isinstance(type_node, ast.Attribute):
        return [type_node.attr]
    return []


def _handler_reports(handler: ast.ExceptHandler) -> bool:
    """True when the handler re-raises, uses the bound exception, or logs."""
    bound = handler.name
    for stmt in handler.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Raise):
                return True
            if bound and isinstance(node, ast.Name) and node.id == bound:
                return True
            if isinstance(node, ast.Call):
                fn = node.func
                call = fn.attr if isinstance(fn, ast.Attribute) else (
                    fn.id if isinstance(fn, ast.Name) else ""
                )
                if call in _REPORT_CALLS:
                    return True
    return False


class _ExceptionVisitor(ast.NodeVisitor):
    def __init__(self, path: str, findings: list[Finding]) -> None:
        self.path = path
        self.findings = findings

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            if not _handler_reports(node):
                self.findings.append(
                    Finding(
                        "TB401",
                        self.path,
                        node.lineno,
                        node.col_offset + 1,
                        "bare 'except:' swallows everything (including "
                        "KeyboardInterrupt) without reporting; catch specific "
                        "exceptions or add "
                        "'# tbon: allow-broad-except(<reason>)'",
                    )
                )
        elif any(n in _BROAD_NAMES for n in _exception_names(node.type)):
            if not _handler_reports(node):
                self.findings.append(
                    Finding(
                        "TB402",
                        self.path,
                        node.lineno,
                        node.col_offset + 1,
                        "broad 'except Exception' swallows the error without "
                        "routing it through node.error/logging; catch specific "
                        "exceptions or add "
                        "'# tbon: allow-broad-except(<reason>)'",
                    )
                )
        self.generic_visit(node)


# -- TB5xx: telemetry discipline ---------------------------------------------------

_INSTRUMENT_CLASSES = frozenset({"Counter", "Gauge", "Histogram"})


class _TelemetryInstrumentVisitor(ast.NodeVisitor):
    """TB501: instrument classes constructed outside a Registry.

    A ``Counter``/``Gauge``/``Histogram`` built directly bypasses the
    registry's keyed get-or-create store: it never appears in
    ``snapshot()``, so the in-tree stats reduction and ``repro.cli
    stats`` silently miss everything it records.  Only calls to names
    provably imported from a ``telemetry`` module are flagged —
    ``collections.Counter`` and friends stay out of scope.
    """

    def __init__(self, path: str, findings: list[Finding]) -> None:
        self.path = path
        self.findings = findings
        self._instrument_aliases: dict[str, str] = {}  # local name -> class
        self._module_aliases: set[str] = set()  # aliases of telemetry modules

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if "telemetry" in module.split("."):
            for alias in node.names:
                if alias.name in _INSTRUMENT_CLASSES:
                    self._instrument_aliases[alias.asname or alias.name] = alias.name
        self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if "telemetry" in alias.name.split("."):
                # `import repro.telemetry.registry as reg` -> reg.Counter(...)
                self._module_aliases.add(alias.asname or alias.name.split(".")[0])
        self.generic_visit(node)

    def _flag(self, node: ast.Call, cls: str) -> None:
        self.findings.append(
            Finding(
                "TB501",
                self.path,
                node.lineno,
                node.col_offset + 1,
                f"{cls} instantiated directly; instruments must come from a "
                "Registry (registry.counter()/gauge()/histogram()) or they "
                "never appear in snapshot() and the in-tree stats reduction "
                "silently drops their data",
            )
        )

    def visit_Call(self, node: ast.Call) -> None:
        fn = node.func
        if isinstance(fn, ast.Name):
            cls = self._instrument_aliases.get(fn.id)
            if cls is not None:
                self._flag(node, cls)
        elif (
            isinstance(fn, ast.Attribute)
            and fn.attr in _INSTRUMENT_CLASSES
            and isinstance(fn.value, ast.Name)
            and fn.value.id in self._module_aliases
        ):
            self._flag(node, fn.attr)
        self.generic_visit(node)


# -- TB6xx: reactor I/O discipline -------------------------------------------------

#: socket.socket methods that block (or raise BlockingIOError) on the
#: event-loop thread.  Matched by attribute name: inside the reactor
#: package *any* ``.send(...)``-shaped call is suspect enough to flag —
#: false positives are suppressible, a blocked event loop is not.
_BLOCKING_SOCKET_METHODS = frozenset(
    {
        "recv",
        "recv_into",
        "recvfrom",
        "recvfrom_into",
        "recvmsg",
        "recvmsg_into",
        "send",
        "sendall",
        "sendto",
        "sendmsg",
        "sendfile",
    }
)


class _ReactorIOVisitor(ast.NodeVisitor):
    """TB601: direct socket send/recv calls in the reactor package.

    The reactor's contract is that every registered socket is
    non-blocking and all I/O flows through the ``_nb_*`` helpers, which
    translate EAGAIN into a ``None`` return.  A stray ``sock.sendall()``
    or ``sock.recv()`` here either parks the single event-loop thread —
    stalling every channel in the process at once — or raises
    ``BlockingIOError`` from the hot path.  Only functions whose names
    start with ``_nb_`` may touch the socket primitives directly; the
    blocking edge setup (bind, recovery and reset repair, with its rank
    hello) belongs in :mod:`repro.transport.tcp`.
    """

    def __init__(self, path: str, findings: list[Finding]) -> None:
        self.path = path
        self.findings = findings
        self._exempt_depth = 0

    def _visit_func(self, node: Any) -> None:
        exempt = node.name.startswith("_nb_")
        if exempt:
            self._exempt_depth += 1
        self.generic_visit(node)
        if exempt:
            self._exempt_depth -= 1

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func

    def visit_Call(self, node: ast.Call) -> None:
        fn = node.func
        if (
            self._exempt_depth == 0
            and isinstance(fn, ast.Attribute)
            and fn.attr in _BLOCKING_SOCKET_METHODS
        ):
            self.findings.append(
                Finding(
                    "TB601",
                    self.path,
                    node.lineno,
                    node.col_offset + 1,
                    f"direct socket .{fn.attr}() call in the reactor package; "
                    "all reactor I/O must go through the non-blocking _nb_* "
                    "helpers so one peer can never block the event loop",
                )
            )
        self.generic_visit(node)


# -- TB7xx: chaos-hook discipline --------------------------------------------------


class _ChaosHookVisitor(ast.NodeVisitor):
    """TB701: fault-injection hooks used outside the sanctioned wrapper.

    The chaos engine's interposition points are the ``_chaos_*``
    methods, and the only caller allowed to reach them is
    :class:`repro.reliability.chaos.ChaosTransport` — that wrapper is
    what keeps fault injection composable (control plane exempt, one
    decision per send, deterministic per-edge ordinals).  A ``_chaos_*``
    reference anywhere else means production code is injecting faults
    behind the wrapper's back, where none of those guarantees hold.
    """

    def __init__(self, path: str, findings: list[Finding]) -> None:
        self.path = path
        self.findings = findings

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr.startswith("_chaos_"):
            self.findings.append(
                Finding(
                    "TB701",
                    self.path,
                    node.lineno,
                    node.col_offset + 1,
                    f"chaos fault hook .{node.attr} referenced outside "
                    "repro.reliability.chaos; fault injection must go through "
                    "the sanctioned ChaosTransport wrapper",
                )
            )
        self.generic_visit(node)


# -- entry point ----------------------------------------------------------------


def analyze_module(
    path: str,
    tree: ast.Module,
    pragmas: PragmaTable,
    index: ClassIndex,
    *,
    skip_packet_mutation: bool = False,
    skip_telemetry_instruments: bool = False,
    check_reactor_io: bool = False,
    check_chaos_hooks: bool = False,
) -> list[Finding]:
    """Run every rule over one parsed module; returns unsuppressed findings.

    ``skip_packet_mutation`` exempts :mod:`repro.core.packet` itself —
    the one module allowed to touch frame internals (``hop()``, the
    memo fields).  ``skip_telemetry_instruments`` exempts the
    :mod:`repro.telemetry` package, where the Registry's get-or-create
    paths legitimately construct the instrument classes.
    ``check_reactor_io`` turns on TB601 — it applies only to reactor
    modules, where a blocking socket call would stall the whole event
    loop.  ``check_chaos_hooks`` turns on TB701 everywhere *except*
    :mod:`repro.reliability.chaos`, the one module allowed to touch the
    ``_chaos_*`` fault hooks.
    """
    findings: list[Finding] = []
    for line, message in pragmas.errors:
        findings.append(Finding("TB002", path, line, 1, message))
    _WireFormatVisitor(path, findings).visit(tree)
    _check_filter_classes(path, tree, index, findings)
    if not skip_packet_mutation:
        _PacketMutationVisitor(path, findings).visit(tree)
    _LockDisciplineVisitor(path, pragmas, findings).visit(tree)
    _ExceptionVisitor(path, findings).visit(tree)
    if not skip_telemetry_instruments:
        _TelemetryInstrumentVisitor(path, findings).visit(tree)
    if check_reactor_io:
        _ReactorIOVisitor(path, findings).visit(tree)
    if check_chaos_hooks:
        _ChaosHookVisitor(path, findings).visit(tree)
    return [f for f in findings if not pragmas.suppressed(f.rule, f.line)]
