"""Binary value codec shared by packets, events, filters and policies.

This is a small hand-rolled TLV (tag-length-value) format.  The paper makes
a point of keeping byte arrays at the transport boundary so that nothing
depends on Java serialisation; in the same spirit nothing here depends on
``pickle`` — every value that crosses a network path is encoded explicitly.

Supported value types mirror what sensors and management components need:
``bool``, ``int`` (arbitrary precision via zig-zag varint), ``float``
(IEEE-754 double), ``str`` (UTF-8) and ``bytes``.

All multi-byte fixed-width fields are big-endian ("network order").

Wire format reference (shared by the packet, bus-protocol and event
layers)::

    varint        LEB128: 7 value bits per byte, LSB group first, high bit
                  set on every byte except the last.
    string        varint byte-length, then UTF-8 bytes (no tag).
    value         1-byte tag, then a tag-specific body:
                    tag 1  bool    1 byte (0 or 1)
                    tag 2  int     varint of the zig-zag mapped value
                    tag 3  float   8 bytes, IEEE-754 double, big-endian
                    tag 4  str     varint length + UTF-8 bytes
                    tag 5  bytes   varint length + raw bytes
    attr map      varint entry count, then per entry: string name + value,
                  names sorted bytewise (canonical — encoding a map twice
                  yields identical bytes).
    frame list    varint frame count, then per frame: varint length + the
                  opaque frame bytes (the BATCH body).

Zero-copy discipline: a format is written once, in a ``write_*``
function that appends chunks to a caller-supplied list instead of
returning joined bytes, so multi-layer encoders (event -> frame -> batch
-> packet) can delay the single ``b"".join`` to the reliable-payload
boundary; its ``encode_*`` twin is derived from it (:func:`encoder`).
Every ``decode_*`` function accepts any object supporting the
buffer protocol (``bytes``, ``bytearray``, ``memoryview``) and slices
without materialising intermediate copies; the only copies taken are for
values that escape into long-lived objects (``bytes`` attribute values,
and the event's own extent: :func:`repro.core.events.decode_event`
flattens a non-``bytes`` buffer once to parse it and the event keeps
that copy, so a hop that forwards the event emits those bytes instead of
encoding them again — an event is serialised once, by whoever built it).

Both directions intern the deployment's small vocabulary of names: the
reader maps wire bytes to ``str`` (``_NAME_CACHE``), the writer maps a
name to its length-prefixed chunk (:func:`name_chunk`), each bounded and
cleared when full.  Varints of one to three bytes, which is every count,
length and realistic sequence number, are built and parsed without a
loop.
"""

from __future__ import annotations

import struct

from typing import Callable, Mapping, Sequence, TypeVar

from repro.errors import CodecError

Value = bool | int | float | str | bytes
#: Anything the decode entry points accept.
Buffer = bytes | bytearray | memoryview
_T = TypeVar("_T")


def as_bytes(buf: Buffer) -> bytes:
    """Materialise a decoded buffer slice into real ``bytes``.

    The boundary rule for the zero-copy path: a body that escapes the
    decode layer (device byte-protocols, user callbacks) must not alias
    the datagram buffer and must support the full bytes API.
    """
    # repro-lint: ignore[RL003] this IS the documented escape boundary
    return buf if type(buf) is bytes else bytes(buf)

_TAG_BOOL = 1
_TAG_INT = 2
_TAG_FLOAT = 3
_TAG_STR = 4
_TAG_BYTES = 5

_MAX_BLOB = 0xFFFF          # single string/bytes value cap (64 KiB)
_MAX_ATTRS = 0xFFFF
#: Cap on frames in one batch (same field width as the attribute count).
MAX_FRAMES = _MAX_ATTRS

# Pre-built single-byte chunks so the scatter-gather writers never
# allocate for fixed fields.
_BOOL_CHUNKS = (bytes((_TAG_BOOL, 0)), bytes((_TAG_BOOL, 1)))
_INT_TAG = bytes((_TAG_INT,))
_STR_TAG = bytes((_TAG_STR,))
_BYTES_TAG = bytes((_TAG_BYTES,))
_FLOAT_STRUCT = struct.Struct("!Bd")
_FLOAT_BODY = struct.Struct("!d")
#: One-byte varints (values 0..127) are by far the most common on this
#: wire (attribute counts, frame counts, small lengths); interning them
#: keeps the writers allocation-free on the hot path.
_VARINT_1 = tuple(bytes((b,)) for b in range(0x80))

#: Two- and three-byte varints (sequence numbers and lengths past 127)
#: are packed in one C call instead of a ``bytearray`` loop.
_VARINT_2 = struct.Struct("BB").pack
_VARINT_3 = struct.Struct("BBB").pack
#: Tagged ints whose zig-zag value fits one varint byte (-64..63) are
#: interned whole, indexed by that value.
_SMALL_INTS = tuple(bytes((_TAG_INT, b)) for b in range(0x80))

#: Interned wire bytes -> attribute name (see decode_attr_map).
_NAME_CACHE: dict[bytes, str] = {}
_NAME_CACHE_MAX = 4096
#: The write side's twin: attribute name or event type -> its
#: length-prefixed wire chunk (see name_chunk).  Same cap, same
#: clear-on-full rule.
_NAME_CHUNKS: dict[str, bytes] = {}


def encode_varint(value: int) -> bytes:
    """Encode an unsigned integer as LEB128."""
    if 0 <= value < 0x80:
        return _VARINT_1[value]
    if value < 0:
        raise CodecError(f"varint requires a non-negative int, got {value}")
    if value < 0x4000:
        return _VARINT_2(value & 0x7F | 0x80, value >> 7)
    if value < 0x200000:
        return _VARINT_3(value & 0x7F | 0x80, value >> 7 & 0x7F | 0x80,
                         value >> 14)
    groups = []
    while value > 0x7F:
        groups.append(value & 0x7F | 0x80)
        value >>= 7
    groups.append(value)
    return bytes(groups)


def write_varint(out: list[bytes], value: int) -> None:
    """Append a LEB128 unsigned integer's chunk to ``out`` (no joining)."""
    out.append(encode_varint(value))


def encoder(write: Callable[[list[bytes], _T], None]) -> Callable[[_T], bytes]:
    """Derive ``encode_X`` from ``write_X``: its chunks on a fresh list,
    joined once.  Every codec module builds its ``encode_*`` twins here,
    so none of them can drift from the writer that defines the format."""
    def encode(value: _T) -> bytes:
        out: list[bytes] = []
        write(out, value)
        return b"".join(out)
    encode.__name__ = encode.__qualname__ = write.__name__.replace(
        "write_", "encode_", 1)
    encode.__module__ = write.__module__
    encode.__doc__ = f"The joined bytes of :func:`{write.__name__}`."
    return encode


def decode_varint(buf: Buffer, offset: int = 0) -> tuple[int, int]:
    """Decode a LEB128 unsigned integer; returns (value, new offset).

    The first two bytes are unrolled — one- and two-byte varints are
    nearly every count, length and sequence number on this wire — and
    longer ones finish in the loop.
    """
    size = len(buf)
    if offset >= size:
        raise CodecError("truncated varint")
    result = buf[offset]
    pos = offset + 1
    if result < 0x80:
        return result, pos
    if pos >= size:
        raise CodecError("truncated varint")
    byte = buf[pos]
    pos += 1
    if byte < 0x80:
        return result & 0x7F | byte << 7, pos
    result = result & 0x7F | (byte & 0x7F) << 7
    shift = 14
    while True:
        if pos >= size:
            raise CodecError("truncated varint")
        if shift > 70:
            raise CodecError("varint too long")
        byte = buf[pos]
        pos += 1
        if byte < 0x80:
            return result | byte << shift, pos
        result |= (byte & 0x7F) << shift
        shift += 7


def zigzag_encode(value: int) -> int:
    """Map a signed int onto an unsigned one (small magnitudes stay small)."""
    return (value << 1) ^ (value >> (value.bit_length() + 1)) if value < 0 else value << 1


def zigzag_decode(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


def write_value(out: list[bytes], value: Value) -> None:
    """Append one tagged value's chunks to ``out`` (no joining)."""
    # bool must be tested before int: bool is an int subclass.
    if isinstance(value, bool):
        out.append(_BOOL_CHUNKS[1 if value else 0])
    elif isinstance(value, int):
        out.append(_INT_TAG)
        out.append(encode_varint(zigzag_encode(value)))
    elif isinstance(value, float):
        out.append(_FLOAT_STRUCT.pack(_TAG_FLOAT, value))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        if len(raw) > _MAX_BLOB:
            raise CodecError(f"string too long for wire: {len(raw)} bytes")
        out.append(_STR_TAG)
        out.append(encode_varint(len(raw)))
        out.append(raw)
    elif isinstance(value, bytes):
        if len(value) > _MAX_BLOB:
            raise CodecError(f"bytes too long for wire: {len(value)} bytes")
        out.append(_BYTES_TAG)
        out.append(encode_varint(len(value)))
        out.append(value)
    else:
        raise CodecError(f"unsupported value type: {type(value).__name__}")


encode_value = encoder(write_value)


def decode_value(buf: Buffer, offset: int = 0) -> tuple[Value, int]:
    """Decode one tagged value; returns (value, new offset)."""
    if offset >= len(buf):
        raise CodecError("truncated value: missing tag")
    tag = buf[offset]
    pos = offset + 1
    if tag == _TAG_BOOL:
        if pos >= len(buf):
            raise CodecError("truncated bool")
        raw = buf[pos]
        if raw not in (0, 1):
            raise CodecError(f"invalid bool byte: {raw}")
        return bool(raw), pos + 1
    # One-byte varints cover almost every length/int on this wire; the
    # inline fast path skips a function call per value on the hot path.
    if tag == _TAG_INT:
        if pos < len(buf) and buf[pos] < 0x80:
            encoded = buf[pos]
            pos += 1
        else:
            encoded, pos = decode_varint(buf, pos)
        return (encoded >> 1) ^ -(encoded & 1), pos
    if tag == _TAG_FLOAT:
        if pos + 8 > len(buf):
            raise CodecError("truncated float")
        (value,) = _FLOAT_BODY.unpack_from(buf, pos)
        return value, pos + 8
    if tag == _TAG_STR:
        if pos < len(buf) and buf[pos] < 0x80:
            length = buf[pos]
            pos += 1
        else:
            length, pos = decode_varint(buf, pos)
        if pos + length > len(buf):
            raise CodecError("truncated string")
        try:
            return str(buf[pos:pos + length], "utf-8"), pos + length
        except UnicodeDecodeError as exc:
            raise CodecError(f"invalid UTF-8 in string value: {exc}") from exc
    if tag == _TAG_BYTES:
        if pos < len(buf) and buf[pos] < 0x80:
            length = buf[pos]
            pos += 1
        else:
            length, pos = decode_varint(buf, pos)
        if pos + length > len(buf):
            raise CodecError("truncated bytes")
        # The one deliberate copy: bytes values escape into long-lived
        # Event objects, so they must not alias the datagram buffer.
        # repro-lint: ignore[RL003] value escapes the decode layer
        return bytes(buf[pos:pos + length]), pos + length
    raise CodecError(f"unknown value tag: {tag}")


def write_str(out: list[bytes], text: str) -> None:
    """Append a bare length-prefixed UTF-8 string's chunks (no tag)."""
    raw = text.encode("utf-8")
    if len(raw) > _MAX_BLOB:
        raise CodecError(f"string too long for wire: {len(raw)} bytes")
    out.append(encode_varint(len(raw)))
    out.append(raw)


encode_str = encoder(write_str)


def decode_str(buf: Buffer, offset: int = 0) -> tuple[str, int]:
    if offset < len(buf) and buf[offset] < 0x80:   # one-byte length fast path
        length = buf[offset]
        pos = offset + 1
    else:
        length, pos = decode_varint(buf, offset)
    if pos + length > len(buf):
        raise CodecError("truncated string")
    try:
        return str(buf[pos:pos + length], "utf-8"), pos + length
    except UnicodeDecodeError as exc:
        raise CodecError(f"invalid UTF-8: {exc}") from exc


def write_frames(out: list[bytes], frames: Sequence[Buffer]) -> None:
    """Append a frame list's chunks to ``out`` without joining (batch
    framing): a varint frame count followed by varint-length-prefixed
    frames.  The frames are opaque here — the bus protocol layer decides
    what they mean — and are appended as-is (callers own their lifetime);
    only the count and length prefixes are fresh chunks.
    """
    if len(frames) > MAX_FRAMES:
        raise CodecError(f"too many frames in batch: {len(frames)}")
    out.append(encode_varint(len(frames)))
    for frame in frames:
        out.append(encode_varint(len(frame)))
        out.append(frame)


encode_frames = encoder(write_frames)


def decode_frames(buf: Buffer, offset: int = 0) -> tuple[list[Buffer], int]:
    """Decode a batch of frames; returns (frames, new offset).

    Frames are slices of ``buf`` — zero-copy ``memoryview`` slices when
    the caller passes a ``memoryview`` — and must be copied by the caller
    if they outlive the underlying buffer.
    """
    size = len(buf)
    if offset < size and buf[offset] < 0x80:    # one-byte count fast path
        count = buf[offset]
        pos = offset + 1
    else:
        count, pos = decode_varint(buf, offset)
    if count > MAX_FRAMES:
        raise CodecError(f"frame count too large: {count}")
    frames: list[Buffer] = []
    for _ in range(count):
        if pos < size and buf[pos] < 0x80:
            end = pos + 1 + buf[pos]
            pos += 1
        else:
            length, pos = decode_varint(buf, pos)
            end = pos + length
        if end > size:
            raise CodecError("truncated frame in batch")
        frames.append(buf[pos:end])
        pos = end
    return frames, pos


def _encode_name(name: str) -> bytes:
    """Build, validate and intern ``name``'s chunk (name_chunk's miss
    path); bounded so name churn cannot grow the table without limit."""
    if not name:
        raise CodecError("names on the wire must be non-empty")
    raw = name.encode("utf-8")
    if len(raw) > _MAX_BLOB:
        raise CodecError(f"string too long for wire: {len(raw)} bytes")
    chunk = b"".join((encode_varint(len(raw)), raw))
    if len(_NAME_CHUNKS) >= _NAME_CACHE_MAX:
        _NAME_CHUNKS.clear()
    _NAME_CHUNKS[name] = chunk
    return chunk


def name_chunk(name: str) -> bytes:
    """The length-prefixed wire chunk of an attribute name or event type.

    What :func:`write_str` would append for ``name``, as one interned
    chunk: a deployment's vocabulary of names is small and every event
    repeats it, so the writer skips the UTF-8 encode, the length check and
    a chunk per name — the interning :func:`decode_attr_map` gives the
    reader.  Names are never empty.
    """
    chunk = _NAME_CHUNKS.get(name)
    return chunk if chunk is not None else _encode_name(name)


def write_attr_map(out: list[bytes], attributes: Mapping[str, Value]) -> None:
    """Append an attribute map's chunks with a stable (sorted) key order.

    One interned chunk per name (:func:`name_chunk`, inlined) and, for
    the exact ``int`` and ``float`` values sensor readings are made of,
    one chunk per value; everything else (``bool``, ``str``, ``bytes``,
    subclasses) goes through :func:`write_value`.
    """
    if len(attributes) > _MAX_ATTRS:
        raise CodecError(f"too many attributes: {len(attributes)}")
    append = out.append
    append(encode_varint(len(attributes)))
    interned = _NAME_CHUNKS.get
    for name in sorted(attributes):
        chunk = interned(name)
        append(chunk if chunk is not None else _encode_name(name))
        value = attributes[name]
        kind = type(value)
        if kind is int:
            encoded = value << 1 if value >= 0 else ~(value << 1)
            if encoded < 0x80:
                append(_SMALL_INTS[encoded])
            elif encoded < 0x4000:
                # Tag + two varint bytes in one pack: -8192..8191, where
                # heart rates and the like live.
                append(_VARINT_3(_TAG_INT, encoded & 0x7F | 0x80,
                                 encoded >> 7))
            else:
                append(_INT_TAG)
                append(encode_varint(encoded))
        elif kind is float:
            append(_FLOAT_STRUCT.pack(_TAG_FLOAT, value))
        else:
            write_value(out, value)


encode_attr_map = encoder(write_attr_map)


def decode_attr_map(buf: Buffer, offset: int = 0) -> tuple[dict[str, Value], int]:
    """Decode an attribute map.

    Enforces the canonical-form constraints the encoder guarantees
    (non-empty names, no duplicates), so decoded maps can back an event
    without re-validation.
    """
    size = len(buf)
    if offset < size and buf[offset] < 0x80:    # one-byte count fast path
        count = buf[offset]
        pos = offset + 1
    else:
        count, pos = decode_varint(buf, offset)
    if count > _MAX_ATTRS:
        raise CodecError(f"attribute count too large: {count}")
    attributes: dict[str, Value] = {}
    for _ in range(count):
        # Inlined decode_str: one short name per attribute is the hottest
        # token on the whole decode path.
        if pos < size and buf[pos] < 0x80:
            length = buf[pos]
            pos += 1
        else:
            length, pos = decode_varint(buf, pos)
        end = pos + length
        if end > size:
            raise CodecError("truncated string")
        # Interned names: a deployment's attribute vocabulary is small
        # and every event repeats it, so the cache skips the UTF-8
        # decode and validation, and identity-equal names make the
        # matching tables' dict lookups cheap.  Cached names are never
        # empty; bounded so name churn cannot grow it without limit.
        raw_name = buf[pos:end]
        if type(raw_name) is not bytes:
            # repro-lint: ignore[RL003] intern-cache keys must be real bytes
            raw_name = bytes(raw_name)
        name = _NAME_CACHE.get(raw_name)
        if name is None:
            try:
                name = str(raw_name, "utf-8")
            except UnicodeDecodeError as exc:
                raise CodecError(f"invalid UTF-8: {exc}") from exc
            if not name:
                raise CodecError("empty attribute name on wire")
            if len(_NAME_CACHE) >= _NAME_CACHE_MAX:
                _NAME_CACHE.clear()
            _NAME_CACHE[raw_name] = name
        # Fully inlined decode_value dispatch (the differential suite in
        # tests/transport/test_zero_copy.py pins equivalence with
        # decode_value); the per-value call overhead is the
        # second-hottest token on the event decode path.
        pos = end
        if pos >= size:
            raise CodecError("truncated value: missing tag")
        tag = buf[pos]
        pos += 1
        if tag == _TAG_INT:
            if pos < size and buf[pos] < 0x80:
                encoded = buf[pos]
                pos += 1
            else:
                encoded, pos = decode_varint(buf, pos)
            value: Value = (encoded >> 1) ^ -(encoded & 1)
        elif tag == _TAG_FLOAT:
            if pos + 8 > size:
                raise CodecError("truncated float")
            value = _FLOAT_BODY.unpack_from(buf, pos)[0]
            pos += 8
        elif tag == _TAG_STR:
            if pos < size and buf[pos] < 0x80:
                vlen = buf[pos]
                pos += 1
            else:
                vlen, pos = decode_varint(buf, pos)
            if pos + vlen > size:
                raise CodecError("truncated string")
            try:
                value = str(buf[pos:pos + vlen], "utf-8")
            except UnicodeDecodeError as exc:
                raise CodecError(
                    f"invalid UTF-8 in string value: {exc}") from exc
            pos += vlen
        elif tag == _TAG_BYTES:
            if pos < size and buf[pos] < 0x80:
                vlen = buf[pos]
                pos += 1
            else:
                vlen, pos = decode_varint(buf, pos)
            if pos + vlen > size:
                raise CodecError("truncated bytes")
            # repro-lint: ignore[RL003] value escapes the decode layer
            value = bytes(buf[pos:pos + vlen])
            pos += vlen
        elif tag == _TAG_BOOL:
            if pos >= size:
                raise CodecError("truncated bool")
            raw = buf[pos]
            if raw not in (0, 1):
                raise CodecError(f"invalid bool byte: {raw}")
            value = raw == 1
            pos += 1
        else:
            raise CodecError(f"unknown value tag: {tag}")
        if name in attributes:
            raise CodecError(f"duplicate attribute on wire: {name!r}")
        attributes[name] = value
    return attributes, pos
