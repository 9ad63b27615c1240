"""MRNet-style format-string packet serialization.

MRNet describes application-level packets by *format strings* similar to
``printf`` directives; a packet's payload is a sequence of typed values
matching its format string.  This module implements that wire format for
the Python reproduction:

==========  =====================================  ==================
Directive   Python value                           Wire encoding
==========  =====================================  ==================
``%c``      1-character :class:`str`               1 byte (latin-1)
``%b``      :class:`bool`                          1 byte
``%d``      :class:`int` (signed, 64-bit range)    ``<q``
``%ud``     :class:`int` (unsigned, 64-bit range)  ``<Q``
``%f``      :class:`float`                         ``<d``
``%s``      :class:`str` (UTF-8)                   ``<I`` length + bytes
``%ac``     :class:`bytes`                         ``<I`` length + bytes
``%ad``     1-D ``int64``  :class:`numpy.ndarray`  ``<I`` count + raw
``%aud``    1-D ``uint64`` :class:`numpy.ndarray`  ``<I`` count + raw
``%af``     1-D ``float64`` :class:`numpy.ndarray` ``<I`` count + raw
``%ad32``   1-D ``int32``  :class:`numpy.ndarray`  ``<I`` count + raw
``%af32``   1-D ``float32`` :class:`numpy.ndarray` ``<I`` count + raw
``%as``     list of :class:`str`                   ``<I`` count + strings
``%am``     2-D ``float64`` :class:`numpy.ndarray` ``<II`` shape + raw
``%o``      picklable object, allowlisted (ext.)   ``<I`` length + pickle
==========  =====================================  ==================

All multi-byte integers are little-endian.  Array directives accept any
sequence convertible by :func:`numpy.asarray` and always yield contiguous
NumPy arrays on unpack, so payloads can be consumed with zero further
copies (a Python stand-in for MRNet's zero-copy data paths).

``%o`` is a Python-native extension used by complex filters (e.g. graph
folding) whose state does not map onto flat arrays; it is documented as
such and never required by the core protocol.  Its bytes may come off a
socket, so unpacking admits only an allowlist of globals: builtin value
types, numpy's array/dtype/scalar reconstructors (under ``numpy._core``
and ``numpy.core``), and classes — not functions or modules — defined in
``repro.*``.  Any other global raises :class:`SerializationError` before
it is called.
"""

from __future__ import annotations

import io
import pickle
import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Sequence

import numpy as np
import numpy.typing as npt

from .errors import FormatStringError, SerializationError

__all__ = [
    "Directive",
    "parse_format",
    "pack_payload",
    "unpack_payload",
    "validate_values",
    "FORMAT_DIRECTIVES",
]

_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_U64 = struct.Struct("<Q")
_F64 = struct.Struct("<d")
_SHAPE2 = struct.Struct("<II")

_MAX_LEN = 2**32 - 1


@dataclass(frozen=True)
class Directive:
    """One parsed format directive.

    Attributes:
        code: the directive text without the ``%`` (e.g. ``"ad"``).
        packer: function serializing one value to bytes.
        unpacker: function ``(buf, offset) -> (value, new_offset)``.
        checker: validates/coerces a value before packing; raises
            :class:`SerializationError` on type mismatch.
    """

    code: str
    packer: Callable[[Any], bytes]
    unpacker: Callable[[bytes, int], tuple[Any, int]]
    checker: Callable[[Any], Any]


def _check_char(v: Any) -> str:
    if not isinstance(v, str) or len(v) != 1:
        raise SerializationError(f"%c expects a 1-character str, got {v!r}")
    if ord(v) > 0xFF:
        raise SerializationError(
            f"%c is a single byte (latin-1); {v!r} does not fit — use %s"
        )
    return v


def _check_bool(v: Any) -> bool:
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    raise SerializationError(f"%b expects a bool, got {type(v).__name__}")


def _check_int(v: Any) -> int:
    if isinstance(v, bool):
        raise SerializationError("%d expects an int, got bool")
    if isinstance(v, (int, np.integer)):
        i = int(v)
        if -(2**63) <= i < 2**63:
            return i
        raise SerializationError(f"%d value {i} out of signed 64-bit range")
    raise SerializationError(f"%d expects an int, got {type(v).__name__}")


def _check_uint(v: Any) -> int:
    if isinstance(v, bool):
        raise SerializationError("%ud expects an int, got bool")
    if isinstance(v, (int, np.integer)):
        i = int(v)
        if 0 <= i < 2**64:
            return i
        raise SerializationError(f"%ud value {i} out of unsigned 64-bit range")
    raise SerializationError(f"%ud expects an int, got {type(v).__name__}")


def _check_float(v: Any) -> float:
    if isinstance(v, bool):
        raise SerializationError("%f expects a float, got bool")
    if isinstance(v, (int, float, np.integer, np.floating)):
        return float(v)
    raise SerializationError(f"%f expects a float, got {type(v).__name__}")


def _check_str(v: Any) -> str:
    if not isinstance(v, str):
        raise SerializationError(f"%s expects a str, got {type(v).__name__}")
    return v


def _check_bytes(v: Any) -> bytes:
    if isinstance(v, (bytes, bytearray, memoryview)):
        return bytes(v)
    raise SerializationError(f"%ac expects bytes, got {type(v).__name__}")


def _check_array(dtype: np.dtype[Any], code: str) -> Callable[[Any], npt.NDArray[Any]]:
    def check(v: Any) -> npt.NDArray[Any]:
        try:
            arr = np.ascontiguousarray(v, dtype=dtype)
        except (TypeError, ValueError) as exc:
            raise SerializationError(f"%{code} expects a {dtype} array: {exc}") from exc
        if arr.ndim != 1:
            raise SerializationError(f"%{code} expects a 1-D array, got ndim={arr.ndim}")
        return arr

    return check


def _check_matrix(v: Any) -> npt.NDArray[np.float64]:
    try:
        arr = np.ascontiguousarray(v, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"%am expects a float64 matrix: {exc}") from exc
    if arr.ndim != 2:
        raise SerializationError(f"%am expects a 2-D array, got ndim={arr.ndim}")
    return arr


def _check_strlist(v: Any) -> list[str]:
    if not isinstance(v, (list, tuple)):
        raise SerializationError(f"%as expects a list of str, got {type(v).__name__}")
    out: list[str] = []
    for item in v:
        if not isinstance(item, str):
            raise SerializationError(f"%as expects str items, got {type(item).__name__}")
        out.append(item)
    return out


def _pack_len_bytes(data: bytes) -> bytes:
    if len(data) > _MAX_LEN:
        raise SerializationError(f"payload item too large: {len(data)} bytes")
    return _U32.pack(len(data)) + data


def _unpack_len_bytes(buf: bytes, off: int) -> tuple[bytes, int]:
    (n,) = _U32.unpack_from(buf, off)
    off += _U32.size
    if off + n > len(buf):
        raise SerializationError("truncated payload (length prefix exceeds buffer)")
    # bytes() is a no-op copy for bytes input and materializes memoryview
    # slices (the TCP receive path hands us views over a reused buffer).
    return bytes(buf[off : off + n]), off + n


def _pack_array(arr: npt.NDArray[Any]) -> bytes:
    return _U32.pack(arr.shape[0]) + arr.tobytes()


def _unpack_array(
    dtype: np.dtype[Any],
) -> Callable[[bytes, int], tuple[npt.NDArray[Any], int]]:
    itemsize = dtype.itemsize

    def unpack(buf: bytes, off: int) -> tuple[npt.NDArray[Any], int]:
        (n,) = _U32.unpack_from(buf, off)
        off += _U32.size
        nbytes = n * itemsize
        if off + nbytes > len(buf):
            raise SerializationError("truncated array payload")
        arr = np.frombuffer(buf, dtype=dtype, count=n, offset=off).copy()
        return arr, off + nbytes

    return unpack


def _pack_matrix(arr: npt.NDArray[np.float64]) -> bytes:
    rows, cols = arr.shape
    return _SHAPE2.pack(rows, cols) + arr.tobytes()


def _unpack_matrix(buf: bytes, off: int) -> tuple[npt.NDArray[np.float64], int]:
    rows, cols = _SHAPE2.unpack_from(buf, off)
    off += _SHAPE2.size
    nbytes = rows * cols * 8
    if off + nbytes > len(buf):
        raise SerializationError("truncated matrix payload")
    arr = np.frombuffer(buf, dtype=np.float64, count=rows * cols, offset=off)
    return arr.reshape(rows, cols).copy(), off + nbytes


def _pack_strlist(items: list[str]) -> bytes:
    parts = [_U32.pack(len(items))]
    for s in items:
        parts.append(_pack_len_bytes(s.encode("utf-8")))
    return b"".join(parts)


def _unpack_strlist(buf: bytes, off: int) -> tuple[list[str], int]:
    (n,) = _U32.unpack_from(buf, off)
    off += _U32.size
    out: list[str] = []
    for _ in range(n):
        raw, off = _unpack_len_bytes(buf, off)
        out.append(raw.decode("utf-8"))
    return out, off


def _unpack_scalar(st: struct.Struct) -> Callable[[bytes, int], tuple[Any, int]]:
    def unpack(buf: bytes, off: int) -> tuple[Any, int]:
        (v,) = st.unpack_from(buf, off)
        return v, off + st.size

    return unpack


def _pack_object(v: Any) -> bytes:
    try:
        return _pack_len_bytes(pickle.dumps(v, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception as exc:  # pickling failures carry many types
        raise SerializationError(f"%o value is not picklable: {exc}") from exc


#: Builtin value types a ``%o`` pickle may name.
_PICKLE_BUILTINS = frozenset(
    {
        "bool", "int", "float", "complex", "str", "bytes", "bytearray",
        "tuple", "list", "dict", "set", "frozenset", "range", "slice",
    }
)
#: numpy's array, dtype and scalar reconstructors (numpy 2 moved
#: ``numpy.core`` to ``numpy._core``; both spellings appear in pickles).
_PICKLE_NUMPY = frozenset(
    {("numpy", "ndarray"), ("numpy", "dtype")}
    | {
        (f"{core}.{mod}", name)
        for core in ("numpy.core", "numpy._core")
        for mod, name in (
            ("multiarray", "_reconstruct"),
            ("multiarray", "scalar"),
            ("numeric", "_frombuffer"),
        )
    }
)


class _SafeUnpickler(pickle.Unpickler):
    """Resolves only builtin value types, numpy's reconstructors and
    ``repro`` classes: a frame off the socket cannot name a callable
    that runs code (``os.system``, ``builtins.eval``...)."""

    def find_class(self, module: str, name: str) -> Any:
        if module == "builtins" and name in _PICKLE_BUILTINS:
            return super().find_class(module, name)
        if (module, name) in _PICKLE_NUMPY:
            return super().find_class(module, name)
        if module.startswith("repro."):
            obj = super().find_class(module, name)
            if isinstance(obj, type) and obj.__module__.startswith("repro."):
                return obj
        raise SerializationError(f"%o payload may not load {module}.{name}")


def _unpack_object(buf: bytes, off: int) -> tuple[Any, int]:
    raw, off = _unpack_len_bytes(buf, off)
    try:
        return _SafeUnpickler(io.BytesIO(raw)).load(), off
    except SerializationError:
        raise
    except Exception as exc:
        raise SerializationError(f"%o payload failed to unpickle: {exc}") from exc


#: Mapping from directive code (without ``%``) to its :class:`Directive`.
FORMAT_DIRECTIVES: dict[str, Directive] = {
    "c": Directive(
        "c",
        packer=lambda v: v.encode("latin-1"),
        # chr(byte) is the latin-1 decoding, on bytes and memoryviews alike.
        unpacker=lambda buf, off: (chr(buf[off]), off + 1),
        checker=_check_char,
    ),
    "b": Directive(
        "b",
        packer=lambda v: b"\x01" if v else b"\x00",
        unpacker=lambda buf, off: (buf[off] != 0, off + 1),
        checker=_check_bool,
    ),
    "d": Directive(
        "d",
        packer=_I64.pack,
        unpacker=_unpack_scalar(_I64),
        checker=_check_int,
    ),
    "ud": Directive(
        "ud",
        packer=_U64.pack,
        unpacker=_unpack_scalar(_U64),
        checker=_check_uint,
    ),
    "f": Directive(
        "f",
        packer=_F64.pack,
        unpacker=_unpack_scalar(_F64),
        checker=_check_float,
    ),
    "s": Directive(
        "s",
        packer=lambda v: _pack_len_bytes(v.encode("utf-8")),
        unpacker=lambda buf, off: (
            (lambda raw_off: (raw_off[0].decode("utf-8"), raw_off[1]))(
                _unpack_len_bytes(buf, off)
            )
        ),
        checker=_check_str,
    ),
    "ac": Directive(
        "ac",
        packer=_pack_len_bytes,
        unpacker=_unpack_len_bytes,
        checker=_check_bytes,
    ),
    "ad": Directive(
        "ad",
        packer=_pack_array,
        unpacker=_unpack_array(np.dtype(np.int64)),
        checker=_check_array(np.dtype(np.int64), "ad"),
    ),
    # 32-bit array variants: half the wire size when the application
    # knows its range/precision — MRNet's "high-performance means
    # controlling both space and time usage".
    "ad32": Directive(
        "ad32",
        packer=_pack_array,
        unpacker=_unpack_array(np.dtype(np.int32)),
        checker=_check_array(np.dtype(np.int32), "ad32"),
    ),
    "af32": Directive(
        "af32",
        packer=_pack_array,
        unpacker=_unpack_array(np.dtype(np.float32)),
        checker=_check_array(np.dtype(np.float32), "af32"),
    ),
    "aud": Directive(
        "aud",
        packer=_pack_array,
        unpacker=_unpack_array(np.dtype(np.uint64)),
        checker=_check_array(np.dtype(np.uint64), "aud"),
    ),
    "af": Directive(
        "af",
        packer=_pack_array,
        unpacker=_unpack_array(np.dtype(np.float64)),
        checker=_check_array(np.dtype(np.float64), "af"),
    ),
    "as": Directive(
        "as",
        packer=_pack_strlist,
        unpacker=_unpack_strlist,
        checker=_check_strlist,
    ),
    "am": Directive(
        "am",
        packer=_pack_matrix,
        unpacker=_unpack_matrix,
        checker=_check_matrix,
    ),
    "o": Directive(
        "o",
        packer=_pack_object,
        unpacker=_unpack_object,
        checker=lambda v: v,
    ),
}

# Longest-match-first ordering for the parser ("aud" before "ad" etc.).
_CODES_BY_LENGTH = sorted(FORMAT_DIRECTIVES, key=len, reverse=True)

# -- fixed-width fast path ----------------------------------------------------
#
# Formats made of fixed-width scalar directives (optionally ending in one
# variable-length %s/%ac) compile to a single precompiled struct.Struct,
# so the whole payload packs/unpacks in one C call instead of one Python
# call per directive.  The control-plane packet header
# ("%d %d %d %d %s") is on every wire frame, so this path runs per frame.

_FIXED_STRUCT_CODES = {"b": "?", "d": "q", "ud": "Q", "f": "d"}


class _FastPath:
    """Precompiled pack/unpack for a fixed-width (+ optional tail) format."""

    __slots__ = ("st", "checkers", "tail", "n")

    def __init__(
        self,
        st: struct.Struct,
        checkers: tuple[Callable[[Any], Any], ...],
        tail: str | None,
    ) -> None:
        self.st = st
        self.checkers = checkers
        self.tail = tail
        self.n = len(checkers) + (1 if tail else 0)

    def pack(self, fmt: str, values: Sequence[Any]) -> bytes:
        if len(values) != self.n:
            raise SerializationError(
                f"format {fmt!r} expects {self.n} values, got {len(values)}"
            )
        try:
            if self.tail is None:
                return self.st.pack(
                    *(c(v) for c, v in zip(self.checkers, values))
                )
            tail_d = FORMAT_DIRECTIVES[self.tail]
            raw = tail_d.checker(values[-1])
            if self.tail == "s":
                raw = raw.encode("utf-8")
            return b"".join(
                (
                    self.st.pack(*(c(v) for c, v in zip(self.checkers, values))),
                    _U32.pack(len(raw)),
                    raw,
                )
            )
        except struct.error as exc:  # pragma: no cover - checkers coerce first
            raise SerializationError(f"fixed-width pack failed: {exc}") from exc

    def unpack(self, fmt: str, data: bytes) -> tuple[Any, ...]:
        st = self.st
        if self.tail is None:
            if len(data) != st.size:
                raise SerializationError(
                    f"payload size mismatch for {fmt!r}: "
                    f"expected {st.size} bytes, got {len(data)}"
                )
            return st.unpack(data)
        try:
            head = st.unpack_from(data, 0)
        except struct.error as exc:
            raise SerializationError(f"truncated payload for {fmt!r}: {exc}") from exc
        raw, off = _unpack_len_bytes(data, st.size)
        if off != len(data):
            raise SerializationError(
                f"trailing bytes after payload: consumed {off} of {len(data)}"
            )
        tail = raw.decode("utf-8") if self.tail == "s" else bytes(raw)
        return (*head, tail)


@lru_cache(maxsize=1024)
def _fast_path(fmt: str) -> _FastPath | None:
    """The precompiled fast path for ``fmt``, or None if it doesn't qualify."""
    codes = [d.code for d in parse_format(fmt)]
    tail: str | None = None
    if codes and codes[-1] in ("s", "ac"):
        tail = codes[-1]
        codes = codes[:-1]
    if any(c not in _FIXED_STRUCT_CODES for c in codes):
        return None
    st = struct.Struct("<" + "".join(_FIXED_STRUCT_CODES[c] for c in codes))
    checkers = tuple(FORMAT_DIRECTIVES[c].checker for c in codes)
    return _FastPath(st, checkers, tail)


@lru_cache(maxsize=1024)
def parse_format(fmt: str) -> tuple[Directive, ...]:
    """Parse a format string into a tuple of :class:`Directive`.

    Directives are ``%``-prefixed and may be separated by whitespace
    (``"%d %f %as"``); whitespace is optional (``"%d%f"``).  Raises
    :class:`FormatStringError` for unknown directives or stray text.
    """
    if not isinstance(fmt, str):
        raise FormatStringError(f"format must be a str, got {type(fmt).__name__}")
    directives: list[Directive] = []
    i = 0
    n = len(fmt)
    while i < n:
        ch = fmt[i]
        if ch.isspace():
            i += 1
            continue
        if ch != "%":
            raise FormatStringError(f"unexpected character {ch!r} at position {i} in {fmt!r}")
        i += 1
        for code in _CODES_BY_LENGTH:
            if fmt.startswith(code, i):
                directives.append(FORMAT_DIRECTIVES[code])
                i += len(code)
                break
        else:
            raise FormatStringError(f"unknown directive at position {i - 1} in {fmt!r}")
    return tuple(directives)


def validate_values(fmt: str, values: Sequence[Any]) -> tuple[Any, ...]:
    """Validate and coerce ``values`` against ``fmt``.

    Returns the coerced values (arrays become contiguous ndarrays,
    numpy scalars become Python scalars).  Raises
    :class:`SerializationError` on arity or type mismatch.
    """
    directives = parse_format(fmt)
    if len(values) != len(directives):
        raise SerializationError(
            f"format {fmt!r} expects {len(directives)} values, got {len(values)}"
        )
    return tuple(d.checker(v) for d, v in zip(directives, values))


def pack_payload(fmt: str, values: Sequence[Any]) -> bytes:
    """Serialize ``values`` according to ``fmt`` into a byte string."""
    fast = _fast_path(fmt)
    if fast is not None:
        return fast.pack(fmt, values)
    directives = parse_format(fmt)
    if len(values) != len(directives):
        raise SerializationError(
            f"format {fmt!r} expects {len(directives)} values, got {len(values)}"
        )
    parts: list[bytes] = []
    for d, v in zip(directives, values):
        parts.append(d.packer(d.checker(v)))
    return b"".join(parts)


def unpack_payload(fmt: str, data: bytes) -> tuple[Any, ...]:
    """Deserialize a byte string produced by :func:`pack_payload`.

    Raises :class:`SerializationError` if the buffer is truncated or has
    trailing bytes (both indicate a format/payload mismatch).
    """
    fast = _fast_path(fmt)
    if fast is not None:
        return fast.unpack(fmt, data)
    directives = parse_format(fmt)
    values: list[Any] = []
    off = 0
    for d in directives:
        try:
            v, off = d.unpacker(data, off)
        except (struct.error, IndexError) as exc:
            raise SerializationError(f"truncated payload for %{d.code}: {exc}") from exc
        values.append(v)
    if off != len(data):
        raise SerializationError(
            f"trailing bytes after payload: consumed {off} of {len(data)}"
        )
    return tuple(values)

