"""Unit tests for the MRNet-style format-string serialization."""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import FormatStringError, SerializationError
from repro.core.serialization import (
    FORMAT_DIRECTIVES,
    pack_payload,
    parse_format,
    unpack_payload,
    validate_values,
)
from conftest import object_payload_samples


class TestParseFormat:
    def test_single_directives(self):
        for code in FORMAT_DIRECTIVES:
            (d,) = parse_format(f"%{code}")
            assert d.code == code

    def test_whitespace_optional(self):
        assert [d.code for d in parse_format("%d %f %s")] == ["d", "f", "s"]
        assert [d.code for d in parse_format("%d%f%s")] == ["d", "f", "s"]

    def test_longest_match_wins(self):
        # %aud must not parse as %ad + stray text.
        assert [d.code for d in parse_format("%aud")] == ["aud"]
        assert [d.code for d in parse_format("%ad")] == ["ad"]
        assert [d.code for d in parse_format("%aud %ad")] == ["aud", "ad"]
        # Trailing text after a directive (no %) is rejected.
        with pytest.raises(FormatStringError):
            parse_format("%audxx")

    def test_unknown_directive_rejected(self):
        with pytest.raises(FormatStringError):
            parse_format("%z")

    def test_stray_text_rejected(self):
        with pytest.raises(FormatStringError):
            parse_format("%d hello %f")

    def test_empty_format_is_valid(self):
        assert parse_format("") == ()

    def test_non_string_rejected(self):
        with pytest.raises(FormatStringError):
            parse_format(42)  # type: ignore[arg-type]


ROUNDTRIP_CASES = [
    ("%c", ("x",)),
    ("%b", (True,)),
    ("%b", (False,)),
    ("%d", (-(2**62),)),
    ("%d", (0,)),
    ("%ud", (2**63 + 11,)),
    ("%f", (3.14159,)),
    ("%f", (float("inf"),)),
    ("%s", ("",)),
    ("%s", ("héllo wörld",)),
    ("%ac", (b"\x00\xff\x10",)),
    ("%ad", (np.array([-1, 2, 3], dtype=np.int64),)),
    ("%aud", (np.array([1, 2**64 - 1], dtype=np.uint64),)),
    ("%af", (np.array([1.5, -2.5]),)),
    ("%af", (np.empty(0),)),
    ("%as", (["a", "b", ""],)),
    ("%as", ([],)),
    ("%am", (np.arange(6, dtype=np.float64).reshape(2, 3),)),
    ("%am", (np.empty((0, 2)),)),
    ("%o", ({"nested": [1, (2, 3)]},)),
    ("%d %f %s %ad", (7, 2.5, "mix", np.array([9], dtype=np.int64))),
]


def _documented_size(code, v):
    """Wire size of one value per the directive table in serialization.py."""
    if code in ("c", "b"):
        return 1
    if code in ("d", "ud", "f"):
        return 8
    if code == "s":
        return 4 + len(v.encode("utf-8"))
    if code == "ac":
        return 4 + len(v)
    if code in ("ad", "aud", "af", "ad32", "af32"):
        return 4 + np.asarray(v).nbytes
    if code == "am":
        return 8 + np.asarray(v).nbytes
    if code == "as":
        return 4 + sum(4 + len(x.encode("utf-8")) for x in v)
    assert code == "o"
    return 4 + len(pickle.dumps(v, protocol=pickle.HIGHEST_PROTOCOL))


class TestRoundTrip:
    @pytest.mark.parametrize("fmt,values", ROUNDTRIP_CASES)
    def test_roundtrip(self, fmt, values):
        data = pack_payload(fmt, values)
        out = unpack_payload(fmt, data)
        assert len(out) == len(values)
        for a, b in zip(values, out):
            if isinstance(a, np.ndarray):
                assert np.array_equal(a, b)
                assert b.dtype == a.dtype
            else:
                assert a == b

    @pytest.mark.parametrize("fmt,values", ROUNDTRIP_CASES)
    def test_nbytes_matches_packed_size(self, fmt, values):
        """The packed size is what the module docstring's table documents."""
        assert len(pack_payload(fmt, values)) == sum(
            _documented_size(d.code, v) for d, v in zip(parse_format(fmt), values)
        )

    def test_scalar_coercion(self):
        out = validate_values("%d %f", (np.int64(3), np.float32(1.5)))
        assert out == (3, 1.5)
        assert isinstance(out[0], int)
        assert isinstance(out[1], float)

    def test_array_coercion_from_list(self):
        (arr,) = validate_values("%af", ([1, 2, 3],))
        assert isinstance(arr, np.ndarray)
        assert arr.dtype == np.float64


class TestErrors:
    def test_arity_mismatch(self):
        with pytest.raises(SerializationError):
            pack_payload("%d %d", (1,))
        with pytest.raises(SerializationError):
            pack_payload("%d", (1, 2))

    def test_type_mismatches(self):
        for fmt, bad in [
            ("%c", "toolong"),
            ("%c", 7),
            ("%b", 1),
            ("%d", 1.5),
            ("%d", True),
            ("%d", 2**63),
            ("%ud", -1),
            ("%f", "nope"),
            ("%s", 42),
            ("%ac", "text"),
            ("%as", "not-a-list"),
            ("%as", [1, 2]),
            ("%ad", np.ones((2, 2))),
            ("%am", np.ones(3)),
        ]:
            with pytest.raises(SerializationError):
                pack_payload(fmt, (bad,))

    def test_truncated_payload(self):
        data = pack_payload("%d %f", (1, 2.0))
        with pytest.raises(SerializationError):
            unpack_payload("%d %f", data[:-1])

    def test_trailing_bytes(self):
        data = pack_payload("%d", (1,))
        with pytest.raises(SerializationError):
            unpack_payload("%d", data + b"x")

    def test_wrong_format_on_unpack(self):
        data = pack_payload("%s", ("abcdefgh",))
        with pytest.raises(SerializationError):
            unpack_payload("%ad %ad %ad", data)

    def test_unpicklable_object(self):
        with pytest.raises(SerializationError):
            pack_payload("%o", (lambda x: x,))


# -- property-based: any payload survives a pack/unpack cycle ------------------

_scalar_fmt_values = st.one_of(
    st.tuples(st.just("%d"), st.integers(min_value=-(2**63), max_value=2**63 - 1)),
    st.tuples(st.just("%ud"), st.integers(min_value=0, max_value=2**64 - 1)),
    st.tuples(
        st.just("%f"), st.floats(allow_nan=False, width=64)
    ),
    st.tuples(st.just("%s"), st.text(max_size=64)),
    st.tuples(st.just("%b"), st.booleans()),
    st.tuples(st.just("%ac"), st.binary(max_size=64)),
    st.tuples(
        st.just("%ad"),
        st.lists(
            st.integers(min_value=-(2**63), max_value=2**63 - 1), max_size=16
        ).map(lambda v: np.asarray(v, dtype=np.int64)),
    ),
    st.tuples(
        st.just("%af"),
        st.lists(st.floats(allow_nan=False, width=64), max_size=16).map(
            lambda v: np.asarray(v, dtype=np.float64)
        ),
    ),
    st.tuples(st.just("%as"), st.lists(st.text(max_size=8), max_size=8)),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_scalar_fmt_values, min_size=0, max_size=6))
def test_property_roundtrip(slots):
    fmt = " ".join(f for f, _v in slots)
    values = tuple(v for _f, v in slots)
    out = unpack_payload(fmt, pack_payload(fmt, values))
    assert len(out) == len(values)
    for a, b in zip(values, out):
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b)
        else:
            assert a == b


class Test32BitArrays:
    """%ad32/%af32: half-width arrays for space control."""

    def test_roundtrip_preserves_dtype(self):
        v = (
            np.array([-5, 7], dtype=np.int32),
            np.array([1.5, -2.25], dtype=np.float32),
        )
        out = unpack_payload("%ad32 %af32", pack_payload("%ad32 %af32", v))
        assert out[0].dtype == np.int32 and np.array_equal(out[0], v[0])
        assert out[1].dtype == np.float32 and np.array_equal(out[1], v[1])

    def test_half_the_wire_size(self):
        wide = len(pack_payload("%af", (np.zeros(100),)))
        narrow = len(pack_payload("%af32", (np.zeros(100, np.float32),)))
        assert narrow - 4 == (wide - 4) / 2

    def test_longest_match_parsing(self):
        assert [d.code for d in parse_format("%ad32%ad")] == ["ad32", "ad"]
        assert [d.code for d in parse_format("%af32 %af")] == ["af32", "af"]

    def test_lossy_coercion_is_explicit(self):
        # float64 data packs fine into %af32 (numpy casts), but the
        # round trip is float32 precision — callers opt in knowingly.
        (out,) = unpack_payload(
            "%af32", pack_payload("%af32", (np.array([1 / 3]),))
        )
        assert out.dtype == np.float32
        assert abs(float(out[0]) - 1 / 3) < 1e-7


_GADGET_RAN: list[str] = []


def _gadget(note: str) -> None:
    _GADGET_RAN.append(note)


class _Gadget:
    def __init__(self, fn, *args):
        self.fn, self.args = fn, args

    def __reduce__(self):
        return self.fn, self.args


class TestObjectAllowlist:
    """``%o`` unpickles only allowlisted globals (see the module docstring)."""

    def test_reduce_gadget_rejected_and_never_runs(self, tmp_path):
        import os

        marker = tmp_path / "ran"
        for gadget in (
            _Gadget(_gadget, "called"),
            _Gadget(os.system, f"touch {marker}"),
            _Gadget(eval, "__import__('os')"),
            _Gadget(pack_payload, "%d", (1,)),  # a repro function, not a class
        ):
            data = pack_payload("%o", (gadget,))
            with pytest.raises(SerializationError, match="may not load"):
                unpack_payload("%o", data)
        assert _GADGET_RAN == []
        assert not marker.exists()

    def test_every_object_payload_round_trips(self):
        from repro.core.topology import NodeRole

        values = [
            *object_payload_samples().values(),
            NodeRole.BACK_END,
            {"n": 3, "names": ["x"], "arr": np.arange(4), "f": np.float32(1.5)},
            {1, 2},
            frozenset({3}),
            bytearray(b"ab"),
            complex(1, 2),
            range(3),
            slice(1, 5, 2),
            np.dtype(np.int32),
            np.int64(9),
        ]
        for v in values:
            (out,) = unpack_payload("%o", pack_payload("%o", (v,)))
            assert type(out) is type(v)
            assert pickle.dumps(out) == pickle.dumps(v)
