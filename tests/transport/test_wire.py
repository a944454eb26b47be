"""TLV value codec: roundtrips, bounds, malformed input."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import CodecError
from repro.transport import wire

from tests.transport.test_zero_copy import buffer_forms


values = st.one_of(
    st.booleans(),
    st.integers(min_value=-(2 ** 63), max_value=2 ** 63),
    st.floats(allow_nan=False),
    st.text(max_size=200),
    st.binary(max_size=200),
)


class TestVarint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2 ** 32, 2 ** 60])
    def test_roundtrip(self, value):
        encoded = wire.encode_varint(value)
        decoded, offset = wire.decode_varint(encoded)
        assert decoded == value
        assert offset == len(encoded)

    def test_small_values_one_byte(self):
        assert len(wire.encode_varint(127)) == 1
        assert len(wire.encode_varint(128)) == 2

    def test_negative_rejected(self):
        with pytest.raises(CodecError):
            wire.encode_varint(-1)

    def test_truncated_raises(self):
        with pytest.raises(CodecError):
            wire.decode_varint(b"\x80")       # continuation with no next byte

    def test_overlong_rejected(self):
        with pytest.raises(CodecError):
            wire.decode_varint(b"\xff" * 12)

    @given(st.integers(min_value=0, max_value=2 ** 64))
    def test_roundtrip_property(self, value):
        assert wire.decode_varint(wire.encode_varint(value))[0] == value


# -- reference varint codec (the loop the unrolled one replaced) -------------

def ref_encode_varint(value):
    if value < 0:
        raise CodecError(f"varint requires a non-negative int, got {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def ref_decode_varint(buf, offset=0):
    result = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(buf):
            raise CodecError("truncated varint")
        if shift > 70:
            raise CodecError("varint too long")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def outcome(decode, buf, offset):
    try:
        return decode(buf, offset)
    except CodecError as exc:
        return str(exc)


class TestVarintAgainstReference:
    def test_exhaustive_to_two_to_the_21(self):
        encode, decode = wire.encode_varint, wire.decode_varint
        for value in range(2 ** 21 + 1):
            encoded = encode(value)
            if encoded != ref_encode_varint(value) \
                    or decode(encoded) != (value, len(encoded)):
                pytest.fail(f"varint codec diverges at {value}")

    @given(st.integers(min_value=2 ** 21, max_value=2 ** 80))
    def test_encode_matches_reference_beyond(self, value):
        assert wire.encode_varint(value) == ref_encode_varint(value)

    @given(st.integers(min_value=0, max_value=2 ** 80),
           st.integers(min_value=0, max_value=12),
           st.binary(max_size=3), st.binary(max_size=3))
    def test_decode_matches_reference_at_every_truncation(
            self, value, pad, before, after):
        # Canonical, then padded with redundant continuation groups: up
        # to 11 bytes decode, 12 and over are "too long".
        raw = bytearray(ref_encode_varint(value))
        for _ in range(pad):
            raw[-1] |= 0x80
            raw.append(0)
        for cut in range(len(raw) + 1):
            tail = after if cut == len(raw) else b""
            whole = before + bytes(raw[:cut]) + tail
            for buf in buffer_forms(whole):
                assert outcome(wire.decode_varint, buf, len(before)) \
                    == outcome(ref_decode_varint, buf, len(before))

    def test_too_long_and_truncated_are_told_apart(self):
        for buf in buffer_forms(b"\x80" * 11):
            assert outcome(wire.decode_varint, buf, 0) == "truncated varint"
        for buf in buffer_forms(b"\x80" * 11 + b"\x00"):
            assert outcome(wire.decode_varint, buf, 0) == "varint too long"
        for buf in buffer_forms(b"\x80" * 10 + b"\x00"):
            assert wire.decode_varint(buf) == (0, 11)

    def test_padded_counts_and_lengths_still_decode(self):
        # The call sites with an inlined one-byte fast path fall back to
        # decode_varint for anything longer, padded or not.
        frames = b"\x82\x00" + b"\x81\x00a" + b"\x81\x80\x00b"
        for buf in buffer_forms(frames):
            decoded, pos = wire.decode_frames(buf)
            assert [bytes(frame) for frame in decoded] == [b"a", b"b"]
            assert pos == len(frames)
        attrs = b"\x81\x00" + b"\x81\x00k" + b"\x02\x84\x00"
        for buf in buffer_forms(attrs):
            assert wire.decode_attr_map(buf) == ({"k": 2}, len(attrs))
        for count in (128, 300):
            encoded = wire.encode_attr_map(
                {f"n{i:03d}": i for i in range(count)})
            assert len(wire.decode_attr_map(encoded)[0]) == count
            batch = wire.encode_frames([b"x" * 200] * count)
            assert len(wire.decode_frames(batch)[0]) == count


class TestZigzag:
    @pytest.mark.parametrize("value", [0, 1, -1, 2, -2, 100, -100, 2 ** 40,
                                       -(2 ** 40)])
    def test_roundtrip(self, value):
        assert wire.zigzag_decode(wire.zigzag_encode(value)) == value

    def test_small_magnitudes_stay_small(self):
        assert wire.zigzag_encode(-1) == 1
        assert wire.zigzag_encode(1) == 2

    @given(st.integers())
    def test_roundtrip_property(self, value):
        assert wire.zigzag_decode(wire.zigzag_encode(value)) == value


class TestValues:
    @pytest.mark.parametrize("value", [
        True, False, 0, -1, 12345, -(2 ** 40), 0.0, -2.5, math.inf,
        "", "hello", "unicode: héllo ☃", b"", b"\x00\xff", b"raw" * 50,
    ])
    def test_roundtrip(self, value):
        encoded = wire.encode_value(value)
        decoded, offset = wire.decode_value(encoded)
        assert decoded == value
        assert type(decoded) is type(value)
        assert offset == len(encoded)

    def test_bool_is_not_confused_with_int(self):
        decoded, _ = wire.decode_value(wire.encode_value(True))
        assert decoded is True
        decoded, _ = wire.decode_value(wire.encode_value(1))
        assert decoded == 1 and not isinstance(decoded, bool)

    def test_unsupported_type_rejected(self):
        with pytest.raises(CodecError):
            wire.encode_value([1, 2, 3])

    def test_none_rejected(self):
        with pytest.raises(CodecError):
            wire.encode_value(None)

    def test_oversized_string_rejected(self):
        with pytest.raises(CodecError):
            wire.encode_value("x" * 70000)

    def test_unknown_tag_rejected(self):
        with pytest.raises(CodecError):
            wire.decode_value(b"\x63\x00")

    def test_truncated_float_rejected(self):
        encoded = wire.encode_value(1.5)
        with pytest.raises(CodecError):
            wire.decode_value(encoded[:5])

    def test_invalid_bool_byte_rejected(self):
        with pytest.raises(CodecError):
            wire.decode_value(b"\x01\x07")

    def test_invalid_utf8_rejected(self):
        bad = bytes((4,)) + wire.encode_varint(2) + b"\xff\xfe"
        with pytest.raises(CodecError):
            wire.decode_value(bad)

    @given(values)
    def test_roundtrip_property(self, value):
        decoded, _ = wire.decode_value(wire.encode_value(value))
        if isinstance(value, float):
            assert decoded == pytest.approx(value, nan_ok=True)
        else:
            assert decoded == value
        assert type(decoded) is type(value)


class TestAttrMap:
    def test_roundtrip(self):
        attrs = {"hr": 72.5, "patient": "p-1", "alarm": False, "raw": b"\x01",
                 "count": 9}
        decoded, offset = wire.decode_attr_map(wire.encode_attr_map(attrs))
        assert decoded == attrs

    def test_empty_map(self):
        decoded, _ = wire.decode_attr_map(wire.encode_attr_map({}))
        assert decoded == {}

    def test_encoding_is_key_order_independent(self):
        a = wire.encode_attr_map({"x": 1, "y": 2})
        b = wire.encode_attr_map({"y": 2, "x": 1})
        assert a == b

    def test_empty_name_rejected(self):
        with pytest.raises(CodecError):
            wire.encode_attr_map({"": 1})

    def test_duplicate_on_wire_rejected(self):
        # Hand-craft a map body with the same key twice.
        body = (wire.encode_varint(2)
                + wire.encode_str("k") + wire.encode_value(1)
                + wire.encode_str("k") + wire.encode_value(2))
        with pytest.raises(CodecError):
            wire.decode_attr_map(body)

    def test_huge_count_rejected(self):
        with pytest.raises(CodecError):
            wire.decode_attr_map(wire.encode_varint(10 ** 9))

    @given(st.dictionaries(
        st.text(min_size=1, max_size=6),
        st.one_of(st.integers(min_value=-2 ** 16, max_value=2 ** 16),
                  st.sampled_from([-8193, -8192, -65, -64, -1, 0, 63, 64,
                                   8191, 8192, 2 ** 70, -2 ** 70]),
                  st.floats(allow_nan=False)),
        max_size=6))
    def test_int_and_float_fast_paths_match_write_value(self, attrs):
        expected = [wire.encode_varint(len(attrs))]
        for name in sorted(attrs):
            expected.append(wire.encode_str(name))
            expected.append(wire.encode_value(attrs[name]))
        assert wire.encode_attr_map(attrs) == b"".join(expected)


    @given(st.dictionaries(st.text(min_size=1, max_size=20), values,
                           max_size=12))
    def test_roundtrip_property(self, attrs):
        decoded, _ = wire.decode_attr_map(wire.encode_attr_map(attrs))
        assert set(decoded) == set(attrs)
        for key, value in attrs.items():
            if isinstance(value, float):
                assert decoded[key] == pytest.approx(value, nan_ok=True)
            else:
                assert decoded[key] == value


class TestNameInterning:
    """The write side's ``name -> chunk`` table: bounded, and invisible
    in the bytes."""

    def test_chunk_is_what_write_str_appends(self):
        for name in ("hr", "unicode: ☃", "n" * 300):
            assert wire.name_chunk(name) == wire.encode_str(name)
            assert wire.name_chunk(name) is wire.name_chunk(name)

    def test_table_stays_under_its_cap_and_still_encodes(self):
        from repro.core.events import Event, decode_event, encode_event
        from repro.ids import service_id_from_name
        sender = service_id_from_name("churn")
        total = wire._NAME_CACHE_MAX + 300
        for index in range(total):
            attrs = {f"attr-{index}": index, "steady": 1.5}
            event = Event(f"churn.type-{index}", attrs, sender, index, 0.0)
            encoded = encode_event(event)
            assert len(wire._NAME_CHUNKS) <= wire._NAME_CACHE_MAX
            if index % 97 == 0 or index > total - 3:
                decoded, _ = decode_event(encoded)
                assert decoded == event
                assert encoded[:1 + len(event.type)] \
                    == wire.encode_str(event.type)
        assert wire.encode_attr_map({"attr-0": 0}) \
            == b"\x01" + wire.encode_str("attr-0") + wire.encode_value(0)

    def test_bad_names_raise_cached_or_not(self):
        too_long = "n" * (wire._MAX_BLOB + 1)
        longest = "n" * wire._MAX_BLOB
        for _ in range(2):                     # second pass: table is warm
            for name in ("", too_long):
                with pytest.raises(CodecError):
                    wire.name_chunk(name)
                with pytest.raises(CodecError):
                    wire.encode_attr_map({name: 1})
                assert name not in wire._NAME_CHUNKS
            assert wire.encode_attr_map({longest: 1})[1:4] == b"\xff\xff\x03"
        multibyte = "é" * (wire._MAX_BLOB // 2 + 1)     # 65 536 bytes
        with pytest.raises(CodecError):
            wire.encode_attr_map({multibyte: 1})


class TestFrameLists:
    """Batch framing: length-prefixed opaque frame lists."""

    def test_roundtrip(self):
        frames = [b"", b"a", b"\x01\x02\x03", b"x" * 300]
        decoded, pos = wire.decode_frames(wire.encode_frames(frames))
        assert decoded == frames
        assert pos == len(wire.encode_frames(frames))

    def test_empty_list(self):
        assert wire.decode_frames(wire.encode_frames([])) == ([], 1)

    def test_truncated_frame_rejected(self):
        encoded = wire.encode_frames([b"abcdef"])
        with pytest.raises(CodecError):
            wire.decode_frames(encoded[:-2])

    def test_huge_count_rejected(self):
        with pytest.raises(CodecError):
            wire.decode_frames(wire.encode_varint(10 ** 9))

    @given(st.lists(st.binary(max_size=64), max_size=20))
    def test_roundtrip_property(self, frames):
        decoded, _ = wire.decode_frames(wire.encode_frames(frames))
        assert decoded == frames
