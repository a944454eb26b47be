"""Datagram framing.

Every datagram the SMC exchanges is one :class:`Packet`: a fixed 25-byte
header followed by an opaque payload.  The header carries the 48-bit sender
service id (paper Section IV), a sequence number and a cumulative
acknowledgement for the reliability layer, and a CRC-32 over the whole
packet so corrupted datagrams are dropped rather than misparsed.

Layout (big-endian)::

    0        2     3     4      5          11       15       19         21      25
    | magic  | ver | typ | flag | sender6  | seq4   | ack4   | paylen2  | crc4  | payload...

Packet types (the ``typ`` byte)::

    DATA       reliable, sequenced payload (bus protocol inside)
    ACK        cumulative acknowledgement, no payload (SACK block optional)
    RAW        fire-and-forget payload (unacknowledged sensors)
    BEACON     discovery: periodic presence broadcast by the SMC core
    ANNOUNCE   discovery: device advertising itself
    JOIN_REQ   discovery: device requesting admission
    JOIN_ACK   discovery: admission granted
    JOIN_NAK   discovery: admission refused (auth failure / at capacity)
    HEARTBEAT  discovery: member liveness refresh
    LEAVE      discovery: polite departure
    LEAVE_INTENT  discovery: departure announced ahead of time (drain)

When the ``SACK`` flag is set, the payload begins with a selective-ack
block — ``u8 count`` followed by ``count`` inclusive ``(start, end)``
``u32`` sequence ranges the receiver holds beyond its cumulative ack —
and the opaque payload follows the block.  Decoders that predate the flag
parse the same bytes as an ordinary packet whose payload happens to start
with the block, and the reliability layer ignores ACK payloads, so the
extension is wire-compatible in both directions (same magic, same
version, same header).

Construction: every field is validated once, where it enters the program
— by ``Packet(...)`` for values a caller supplies, by :meth:`Packet.decode`
against the datagram, by the reliable channel's own serial arithmetic —
and the latter two then build through :meth:`Packet.trusted`.
"""

from __future__ import annotations

import enum
import struct
import zlib
from dataclasses import dataclass, field

from repro.errors import PacketError
from repro.ids import ServiceId, wire_service_id

MAGIC = b"\xa5\x5e"
VERSION = 1

#: The 48-bit sender id is read and written as a u16 + u32 pair, so
#: neither direction builds a 6-byte object per datagram.
_HEADER = struct.Struct("!2sBBBHIIIHI")
HEADER_SIZE = _HEADER.size            # 25 bytes
#: Everything before the checksum, which is the header's last field and
#: covers the header with that field zeroed.
_HEADER_NO_CRC = struct.Struct("!2sBBBHIIIH")
_CRC_FIELD = struct.Struct("!I")
_CRC_OFFSET = _HEADER_NO_CRC.size
_ZERO_CRC = bytes(_CRC_FIELD.size)
MAX_PAYLOAD = 0xFFFF

_SACK_RANGE = struct.Struct("!II")
#: Hard cap on SACK ranges per packet (the count is a single byte).
MAX_SACK_RANGES = 255


def _encode_sack(sack: tuple[tuple[int, int], ...]) -> bytes:
    parts = [bytes((len(sack),))]
    parts.extend(_SACK_RANGE.pack(start, end) for start, end in sack)
    return b"".join(parts)


def _sack_wire_size(sack: tuple[tuple[int, int], ...]) -> int:
    return 1 + _SACK_RANGE.size * len(sack) if sack else 0


def _decode_sack(payload: "bytes | memoryview"
                 ) -> "tuple[tuple[tuple[int, int], ...], bytes | memoryview]":
    """Split a SACK-flagged payload into (ranges, remaining payload)."""
    if not payload:
        raise PacketError("SACK flag set but payload is empty")
    count = payload[0]
    end = 1 + _SACK_RANGE.size * count
    if len(payload) < end:
        raise PacketError(
            f"SACK block truncated: {count} ranges need {end} bytes, "
            f"payload carries {len(payload)}")
    ranges = tuple(_SACK_RANGE.unpack_from(payload, 1 + _SACK_RANGE.size * i)
                   for i in range(count))
    for start, stop in ranges:
        if not start or not stop:      # 0 is "nothing acknowledged", never a seq
            raise PacketError(f"SACK range out of range: {start}-{stop}")
    return ranges, payload[end:]


class PacketType(enum.IntEnum):
    """Kinds of datagram the SMC exchanges."""

    DATA = 1        # reliable, sequenced payload (bus protocol inside)
    ACK = 2         # cumulative acknowledgement, no payload
    RAW = 3         # fire-and-forget payload (unacknowledged sensors)
    BEACON = 4      # discovery: periodic presence broadcast by the SMC core
    ANNOUNCE = 5    # discovery: device advertising itself
    JOIN_REQ = 6    # discovery: device requesting admission
    JOIN_ACK = 7    # discovery: admission granted
    JOIN_NAK = 8    # discovery: admission refused (auth failure)
    HEARTBEAT = 9   # discovery: member liveness refresh
    LEAVE = 10      # discovery: polite departure
    LEAVE_INTENT = 11  # discovery: departure announced ahead of time (drain)


#: Wire byte -> packet type, so decode skips enum construction per datagram.
_TYPE_FROM_BYTE = {int(ptype): ptype for ptype in PacketType}


class PacketFlags(enum.IntFlag):
    """Header flag bits."""

    NONE = 0
    #: Payload is a fragment of a larger message (reserved; the simulated
    #: network models IP-level fragmentation itself).
    FRAGMENT = 1
    #: Receiver should not acknowledge (paper: a temperature sensor "may
    #: periodically transmit data and not require any acknowledgement").
    NO_ACK = 2
    #: Payload starts with a selective-acknowledgement block (see module
    #: docstring).  Set/cleared automatically from :attr:`Packet.sack`.
    SACK = 4


#: Flag bits -> flags, so decode skips ``IntFlag`` arithmetic per datagram.
_FLAGS_FROM_BITS = tuple(PacketFlags(bits) for bits in range(8))
_SACK_BIT = int(PacketFlags.SACK)
#: Caller- or wire-chosen bits.  SACK mirrors the field; unnamed bits drop.
_FREE_BITS = int(PacketFlags.FRAGMENT | PacketFlags.NO_ACK)


@dataclass(frozen=True)
class Packet:
    """One parsed datagram."""

    type: PacketType
    sender: ServiceId
    seq: int = 0
    ack: int = 0
    #: Sent packets carry ``bytes``; decoded packets carry a zero-copy
    #: ``memoryview`` slice of the datagram (content-compares equal).
    payload: "bytes | memoryview" = b""
    flags: PacketFlags = PacketFlags.NONE
    #: Selective-ack ranges: inclusive (start, end) sequence pairs the
    #: receiver holds beyond its cumulative ack.  Ranges may wrap the
    #: 32-bit sequence space (start serially <= end).
    sack: tuple[tuple[int, int], ...] = ()
    version: int = field(default=VERSION, compare=False)

    def __post_init__(self) -> None:
        if len(self.sack) > MAX_SACK_RANGES:
            raise PacketError(f"too many SACK ranges: {len(self.sack)}")
        for start, end in self.sack:
            if not 0 < start <= 0xFFFFFFFF or not 0 < end <= 0xFFFFFFFF:
                raise PacketError(f"SACK range out of range: {start}-{end}")
        if len(self.payload) + _sack_wire_size(self.sack) > MAX_PAYLOAD:
            raise PacketError(
                f"payload too large: {len(self.payload)} bytes"
                + (f" + {_sack_wire_size(self.sack)}-byte SACK block"
                   if self.sack else ""))
        if not 0 <= self.seq <= 0xFFFFFFFF:
            raise PacketError(f"seq out of range: {self.seq}")
        if not 0 <= self.ack <= 0xFFFFFFFF:
            raise PacketError(f"ack out of range: {self.ack}")
        # The flag bit mirrors the field, whichever way the packet was built.
        flags = PacketFlags(self.flags)
        flags = flags | PacketFlags.SACK if self.sack else flags & ~PacketFlags.SACK
        object.__setattr__(self, "flags", flags)

    @classmethod
    def trusted(cls, type: PacketType, sender: ServiceId, seq: int, ack: int,
                payload: "bytes | memoryview" = b"",
                sack: tuple[tuple[int, int], ...] = (),
                flag_bits: int = 0) -> "Packet":
        """Build a packet from fields already validated: by :meth:`decode`
        against the datagram, or by the reliable channel (its own serial
        arithmetic; payloads size-checked on the way in).  Checks nothing;
        the SACK flag still mirrors the field.  Anything built from a
        caller's values goes through ``Packet(...)``.
        """
        flag_bits &= _FREE_BITS
        if sack:
            flag_bits |= _SACK_BIT
        packet = object.__new__(cls)
        # One dict fill in place of eight frozen-dataclass setattr calls;
        # ``version`` stays the class default (decode accepts no other).
        packet.__dict__.update(
            type=type, sender=sender, seq=seq, ack=ack, payload=payload,
            flags=_FLAGS_FROM_BITS[flag_bits], sack=sack)
        return packet

    def encode(self) -> bytes:
        """Serialise to wire bytes, computing the checksum.

        Scatter-gather: the checksum streams over (header with a zeroed
        checksum field, SACK block, payload) without concatenating them
        first, and the datagram is joined exactly once.
        """
        sack_block = _encode_sack(self.sack) if self.sack else b""
        payload = self.payload
        sender = self.sender
        header = _HEADER_NO_CRC.pack(
            MAGIC, self.version, self.type, self.flags,
            sender >> 32, sender & 0xFFFFFFFF, self.seq, self.ack,
            len(sack_block) + len(payload))
        crc = zlib.crc32(_ZERO_CRC, zlib.crc32(header))
        if sack_block:
            crc = zlib.crc32(sack_block, crc)
        if payload:
            crc = zlib.crc32(payload, crc)
        return b"".join((header, _CRC_FIELD.pack(crc), sack_block, payload))

    @classmethod
    def decode(cls, datagram: "bytes | bytearray | memoryview") -> "Packet":
        """Parse wire bytes, verifying magic, length and checksum.

        Accepts any buffer.  A decoded packet's payload, when it has one,
        is a zero-copy ``memoryview`` slice of ``datagram`` (which stays
        alive through the view); downstream decoders slice it further
        without copying.
        """
        size = len(datagram)
        if size < HEADER_SIZE:
            raise PacketError(f"datagram shorter than header: {size}")
        (magic, version, ptype, flag_bits, sender_hi, sender_lo, seq, ack,
         paylen, crc) = _HEADER.unpack_from(datagram)
        if magic != MAGIC:
            raise PacketError(f"bad magic: {magic!r}")
        if version != VERSION:
            raise PacketError(f"unsupported packet version: {version}")
        if size != HEADER_SIZE + paylen:
            raise PacketError(
                f"length mismatch: header says {paylen}, "
                f"datagram carries {size - HEADER_SIZE}")
        # Streamed over the received bytes; no header re-pack to zero it.
        expected = zlib.crc32(_ZERO_CRC, zlib.crc32(datagram[:_CRC_OFFSET]))
        payload: "bytes | memoryview" = b""
        if paylen:
            payload = memoryview(datagram)[HEADER_SIZE:]
            if not payload.readonly:
                # Zero-copy slicing is only safe over an immutable backing
                # buffer; writable input (bytearray) is copied once here.
                # repro-lint: ignore[RL003] mutable backing buffer: must copy
                payload = bytes(payload)
            expected = zlib.crc32(payload, expected)
        if crc != expected:
            raise PacketError(f"checksum mismatch: {crc:#010x} != {expected:#010x}")
        packet_type = _TYPE_FROM_BYTE.get(ptype)
        if packet_type is None:
            raise PacketError(f"unknown packet type: {ptype}")
        sack: tuple[tuple[int, int], ...] = ()
        if flag_bits & _SACK_BIT:
            sack, payload = _decode_sack(payload)
        return cls.trusted(packet_type,
                           wire_service_id(sender_hi << 32 | sender_lo),
                           seq, ack, payload, sack, flag_bits)

    @property
    def wire_size(self) -> int:
        return HEADER_SIZE + _sack_wire_size(self.sack) + len(self.payload)

    def __repr__(self) -> str:
        return (f"<Packet {self.type.name} from={self.sender} seq={self.seq} "
                f"ack={self.ack} len={len(self.payload)}>")
