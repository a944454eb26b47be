"""Packet framing: header layout, checksum, malformed datagrams."""

import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PacketError
from repro.ids import ServiceId
from repro.transport.packets import (
    HEADER_SIZE,
    MAGIC,
    VERSION,
    Packet,
    PacketFlags,
    PacketType,
)

SENDER = ServiceId(0xAABBCCDDEEFF)
#: The header layout, stated independently of the codec under test.
_REF_HEADER = struct.Struct("!2sBBB6sIIHI")


class TestEncodeDecode:
    def test_roundtrip_minimal(self):
        packet = Packet(type=PacketType.ACK, sender=SENDER)
        decoded = Packet.decode(packet.encode())
        assert decoded == packet

    def test_roundtrip_full(self):
        packet = Packet(type=PacketType.DATA, sender=SENDER, seq=123,
                        ack=99, payload=b"payload bytes",
                        flags=PacketFlags.NO_ACK)
        decoded = Packet.decode(packet.encode())
        assert decoded.type == PacketType.DATA
        assert decoded.sender == SENDER
        assert decoded.seq == 123
        assert decoded.ack == 99
        assert decoded.payload == b"payload bytes"
        assert decoded.flags == PacketFlags.NO_ACK

    def test_header_size(self):
        packet = Packet(type=PacketType.ACK, sender=SENDER)
        assert len(packet.encode()) == HEADER_SIZE
        assert packet.wire_size == HEADER_SIZE

    def test_all_packet_types_roundtrip(self):
        for ptype in PacketType:
            decoded = Packet.decode(
                Packet(type=ptype, sender=SENDER, payload=b"x").encode())
            assert decoded.type == ptype

    @given(st.integers(0, 0xFFFFFFFF), st.integers(0, 0xFFFFFFFF),
           st.binary(max_size=1000))
    def test_roundtrip_property(self, seq, ack, payload):
        packet = Packet(type=PacketType.DATA, sender=SENDER, seq=seq,
                        ack=ack, payload=payload)
        assert Packet.decode(packet.encode()) == packet


class TestValidation:
    def test_oversized_payload_rejected(self):
        with pytest.raises(PacketError):
            Packet(type=PacketType.DATA, sender=SENDER, payload=b"x" * 70000)

    def test_seq_out_of_range_rejected(self):
        with pytest.raises(PacketError):
            Packet(type=PacketType.DATA, sender=SENDER, seq=2 ** 32)

    def test_short_datagram_rejected(self):
        with pytest.raises(PacketError):
            Packet.decode(b"\xa5\x5e\x01")

    def test_bad_magic_rejected(self):
        raw = bytearray(Packet(type=PacketType.ACK, sender=SENDER).encode())
        raw[0] = 0x00
        with pytest.raises(PacketError):
            Packet.decode(bytes(raw))

    def test_bad_version_rejected(self):
        raw = bytearray(Packet(type=PacketType.ACK, sender=SENDER).encode())
        raw[2] = 99
        with pytest.raises(PacketError):
            Packet.decode(bytes(raw))

    def test_unknown_type_rejected(self):
        raw = bytearray(Packet(type=PacketType.ACK, sender=SENDER).encode())
        raw[3] = 200
        with pytest.raises(PacketError):
            Packet.decode(bytes(raw))

    def test_length_mismatch_rejected(self):
        raw = Packet(type=PacketType.DATA, sender=SENDER,
                     payload=b"abc").encode()
        with pytest.raises(PacketError):
            Packet.decode(raw + b"extra")

    def test_corrupted_payload_fails_checksum(self):
        raw = bytearray(Packet(type=PacketType.DATA, sender=SENDER,
                               payload=b"sensitive medical data").encode())
        raw[-3] ^= 0xFF
        with pytest.raises(PacketError):
            Packet.decode(bytes(raw))

    def test_corrupted_header_fails_checksum(self):
        raw = bytearray(Packet(type=PacketType.DATA, sender=SENDER, seq=5,
                               payload=b"x").encode())
        raw[10] ^= 0x01          # flip a bit inside the sender id
        with pytest.raises(PacketError):
            Packet.decode(bytes(raw))

    @given(st.binary(min_size=0, max_size=200))
    def test_random_garbage_never_parses_silently(self, garbage):
        # Either it raises PacketError, or (astronomically unlikely) it is
        # a valid packet; it must never raise anything else.
        try:
            Packet.decode(garbage)
        except PacketError:
            pass


class TestSack:
    """Selective-ack block: flagged payload prefix, wire-compatible."""

    def test_ack_with_sack_roundtrips(self):
        packet = Packet(type=PacketType.ACK, sender=SENDER, ack=5,
                        sack=((7, 9), (12, 12)))
        decoded = Packet.decode(packet.encode())
        assert decoded.sack == ((7, 9), (12, 12))
        assert decoded.ack == 5
        assert decoded.flags & PacketFlags.SACK
        assert decoded.payload == b""
        assert decoded == packet

    def test_sack_coexists_with_payload(self):
        packet = Packet(type=PacketType.DATA, sender=SENDER, seq=3, ack=1,
                        sack=((5, 6),), payload=b"body bytes")
        decoded = Packet.decode(packet.encode())
        assert decoded.sack == ((5, 6),)
        assert decoded.payload == b"body bytes"

    def test_plain_packets_unchanged(self):
        # Backward compatibility: a packet without SACK encodes and
        # decodes exactly as before the field existed.
        packet = Packet(type=PacketType.ACK, sender=SENDER, ack=9)
        assert len(packet.encode()) == HEADER_SIZE
        decoded = Packet.decode(packet.encode())
        assert decoded.sack == ()
        assert not decoded.flags & PacketFlags.SACK

    def test_sack_flag_mirrors_field(self):
        # The flag is derived from the field, never set independently.
        with_sack = Packet(type=PacketType.ACK, sender=SENDER,
                           sack=((1, 2),))
        assert with_sack.flags & PacketFlags.SACK
        without = Packet(type=PacketType.ACK, sender=SENDER)
        assert not without.flags & PacketFlags.SACK

    def test_wraparound_range_roundtrips(self):
        packet = Packet(type=PacketType.ACK, sender=SENDER,
                        ack=2**32 - 5, sack=((2**32 - 2, 3),))
        assert Packet.decode(packet.encode()).sack == ((2**32 - 2, 3),)

    def test_wire_size_counts_sack_block(self):
        packet = Packet(type=PacketType.ACK, sender=SENDER, sack=((1, 4),))
        assert packet.wire_size == HEADER_SIZE + 1 + 8
        assert len(packet.encode()) == packet.wire_size

    def test_zero_range_rejected(self):
        with pytest.raises(PacketError):
            Packet(type=PacketType.ACK, sender=SENDER, sack=((0, 3),))

    def test_too_many_ranges_rejected(self):
        ranges = tuple((i + 1, i + 1) for i in range(256))
        with pytest.raises(PacketError):
            Packet(type=PacketType.ACK, sender=SENDER, sack=ranges)

    def test_truncated_sack_block_rejected(self):
        # Handcraft a SACK-flagged packet whose payload claims 5 ranges
        # but carries none.
        payload = b"\x05"
        fields = (MAGIC, VERSION, int(PacketType.ACK), int(PacketFlags.SACK),
                  SENDER.to_bytes48(), 0, 0, len(payload))
        crc = zlib.crc32(_REF_HEADER.pack(*fields, 0) + payload) & 0xFFFFFFFF
        with pytest.raises(PacketError):
            Packet.decode(_REF_HEADER.pack(*fields, crc) + payload)


# -- hostile bytes -----------------------------------------------------------

_REF_SACK_RANGE = struct.Struct("!II")


def reference_decode(datagram):
    """The decoder as it stood before the validate-once path, verbatim in
    its checks: re-pack the header to zero the CRC field, then build
    through the validating constructor.  The reference the fast decoder
    must agree with on every input."""
    if len(datagram) < HEADER_SIZE:
        raise PacketError("short")
    (magic, version, ptype, flags, sender6, seq, ack,
     paylen, crc) = _REF_HEADER.unpack_from(datagram)
    if magic != MAGIC:
        raise PacketError("magic")
    if version != VERSION:
        raise PacketError("version")
    if len(datagram) != HEADER_SIZE + paylen:
        raise PacketError("length")
    payload = bytes(memoryview(datagram)[HEADER_SIZE:])
    header_no_crc = _REF_HEADER.pack(magic, version, ptype, flags, sender6,
                                     seq, ack, paylen, 0)
    if crc != zlib.crc32(payload, zlib.crc32(header_no_crc)) & 0xFFFFFFFF:
        raise PacketError("checksum")
    try:
        packet_type = PacketType(ptype)
    except ValueError:
        raise PacketError("type") from None
    sack = ()
    if flags & PacketFlags.SACK:
        if not payload:
            raise PacketError("sack: empty")
        end = 1 + _REF_SACK_RANGE.size * payload[0]
        if len(payload) < end:
            raise PacketError("sack: truncated")
        sack = tuple(_REF_SACK_RANGE.unpack_from(payload, 1 + 8 * i)
                     for i in range(payload[0]))
        payload = payload[end:]
    return Packet(type=packet_type, sender=ServiceId.from_bytes48(sender6),
                  seq=seq, ack=ack, payload=payload, sack=sack,
                  flags=PacketFlags(flags) & ~PacketFlags.SACK,
                  version=version)


def reseal(raw):
    """Recompute the checksum of a (mutated) datagram so the mutation
    reaches the checks behind the CRC."""
    raw = bytearray(raw)
    raw[HEADER_SIZE - 4:HEADER_SIZE] = bytes(4)
    raw[HEADER_SIZE - 4:HEADER_SIZE] = struct.pack("!I", zlib.crc32(raw))
    return bytes(raw)


def outcome(decode, datagram):
    try:
        return decode(datagram)
    except PacketError:
        return PacketError


_GOLDEN = [
    Packet(type=PacketType.ACK, sender=SENDER, ack=7).encode(),
    Packet(type=PacketType.DATA, sender=SENDER, seq=8, ack=7,
           payload=b"sixty bytes of vitals" * 3).encode(),
    Packet(type=PacketType.ACK, sender=SENDER, ack=2**32 - 3,
           sack=((2**32 - 1, 2), (5, 9))).encode(),
    Packet(type=PacketType.DATA, sender=SENDER, seq=3, ack=1,
           sack=((5, 6),), payload=b"body", flags=PacketFlags.NO_ACK).encode(),
    Packet(type=PacketType.HEARTBEAT, sender=ServiceId(0)).encode(),
]

_mutation = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 120)),
    st.tuples(st.just("extend"), st.binary(min_size=1, max_size=9)),
    st.tuples(st.just("flags"), st.integers(0, 255)),
    st.tuples(st.just("type"), st.integers(0, 255)),
    st.tuples(st.just("paylen"), st.integers(0, 0xFFFF)),
    st.tuples(st.just("sack-count"), st.integers(0, 255)),
    st.tuples(st.just("zero-bound"), st.integers(0, 3)),
    st.tuples(st.just("byte"), st.tuples(st.integers(0, 120),
                                         st.integers(0, 255))),
)


def mutate(raw, mutation):
    kind, arg = mutation
    raw = bytearray(raw)
    if kind == "truncate":
        del raw[arg:]
    elif kind == "extend":
        raw += arg
    elif kind == "flags" and len(raw) > 4:
        raw[4] = arg
    elif kind == "type" and len(raw) > 3:
        raw[3] = arg
    elif kind == "paylen" and len(raw) >= 21:
        raw[19:21] = struct.pack("!H", arg)
    elif kind == "sack-count" and len(raw) > HEADER_SIZE:
        raw[HEADER_SIZE] = arg
    elif kind == "zero-bound" and len(raw) >= HEADER_SIZE + 1 + 4 * (arg + 1):
        offset = HEADER_SIZE + 1 + 4 * arg
        raw[offset:offset + 4] = bytes(4)
    elif kind == "byte" and raw:
        position, value = arg
        raw[position % len(raw)] = value
    return bytes(raw)


class TestHostileBytes:
    """Whatever arrives, ``Packet.decode`` returns exactly what the
    validating reference returns, or raises ``PacketError`` where it
    raises — never ``struct.error`` / ``IndexError`` / ``ValueError``."""

    @settings(max_examples=300)
    @given(golden=st.sampled_from(_GOLDEN),
           mutations=st.lists(_mutation, min_size=1, max_size=3),
           sealed=st.booleans(),
           buffer=st.sampled_from([bytes, bytearray, memoryview]))
    def test_mutated_golden_datagrams(self, golden, mutations, sealed, buffer):
        raw = golden
        for mutation in mutations:
            raw = mutate(raw, mutation)
        if sealed and len(raw) >= HEADER_SIZE:
            raw = reseal(raw)
        expected = outcome(reference_decode, raw)
        got = outcome(Packet.decode, buffer(raw))
        assert got == expected
        if expected is not PacketError:
            assert got.flags == expected.flags and got.sack == expected.sack
            assert bytes(got.payload) == bytes(expected.payload)
            assert got.version == expected.version

    @settings(max_examples=200)
    @given(body=st.binary(max_size=64), sealed=st.booleans())
    def test_arbitrary_bytes_behind_a_plausible_prefix(self, body, sealed):
        # Pure noise almost never passes the magic check; noise behind a
        # valid magic/version prefix exercises everything after it.
        raw = MAGIC + bytes([VERSION]) + body
        if sealed and len(raw) >= HEADER_SIZE:
            raw = reseal(raw)
        assert outcome(Packet.decode, raw) == outcome(reference_decode, raw)

    def test_specific_hostile_datagrams(self):
        sacked = _GOLDEN[2]
        cases = {
            "truncated SACK block": reseal(
                mutate(mutate(sacked, ("truncate", HEADER_SIZE + 9)),
                       ("paylen", 9))),
            "SACK range with a 0 start": reseal(mutate(sacked,
                                                       ("zero-bound", 0))),
            "SACK range with a 0 end": reseal(mutate(sacked,
                                                     ("zero-bound", 3))),
            "SACK flag, empty payload": reseal(mutate(_GOLDEN[0],
                                                      ("flags", 4))),
            "bad type byte": reseal(mutate(_GOLDEN[1], ("type", 0))),
        }
        for what, raw in cases.items():
            with pytest.raises(PacketError):
                Packet.decode(raw)
            assert outcome(reference_decode, raw) is PacketError, what

    def test_unknown_flag_bits_are_dropped_not_rejected(self):
        raw = reseal(mutate(_GOLDEN[1], ("flags", 0xF8 | 2)))
        decoded = Packet.decode(raw)
        assert decoded == reference_decode(raw)
        assert decoded.flags == PacketFlags.NO_ACK

    def test_sack_flag_with_zero_ranges_clears_the_flag(self):
        raw = reseal(mutate(mutate(_GOLDEN[1], ("flags", 4)),
                            ("sack-count", 0)))
        decoded = Packet.decode(raw)
        assert decoded == reference_decode(raw)
        assert decoded.sack == () and not decoded.flags & PacketFlags.SACK

    def test_writable_input_is_not_aliased(self):
        raw = bytearray(_GOLDEN[1])
        decoded = Packet.decode(raw)
        before = bytes(decoded.payload)
        raw[HEADER_SIZE:] = bytes(len(raw) - HEADER_SIZE)
        assert bytes(decoded.payload) == before

    def test_trusted_path_mirrors_the_sack_flag(self):
        built = Packet.trusted(PacketType.ACK, SENDER, 0, 5, b"", ((7, 9),))
        assert built == Packet(type=PacketType.ACK, sender=SENDER, ack=5,
                               sack=((7, 9),))
        assert built.encode() == Packet(type=PacketType.ACK, sender=SENDER,
                                        ack=5, sack=((7, 9),)).encode()
        plain = Packet.trusted(PacketType.DATA, SENDER, 4, 2, b"x",
                               flag_bits=int(PacketFlags.SACK))
        assert not plain.flags & PacketFlags.SACK
        assert plain.version == VERSION
