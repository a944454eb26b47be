"""48-bit service identifiers.

The paper (Section IV) derives a 48-bit ID for each service from the
transport layer's unicast socket address and port: the IPv4 address
contributes 32 bits and the port 16 bits.  We reproduce that scheme exactly
for socket-backed transports, and provide a deterministic hash-based variant
for simulated transports where no socket exists.

ServiceIds are plain ``int`` subclasses so they remain hashable, ordered and
cheap, while printing in the familiar colon-separated hex form used for
hardware addresses.
"""

from __future__ import annotations

import ipaddress
import zlib

from repro.errors import AddressError

_MASK_48 = (1 << 48) - 1


class ServiceId(int):
    """A 48-bit identifier for an SMC service.

    Instances are immutable integers constrained to 48 bits.  They print as
    six colon-separated hex octets (``0a:00:00:01:1f:90``).
    """

    def __new__(cls, value: int) -> "ServiceId":
        if not isinstance(value, int) or isinstance(value, bool):
            raise AddressError(f"ServiceId requires an int, got {type(value).__name__}")
        if not 0 <= value <= _MASK_48:
            raise AddressError(f"ServiceId out of 48-bit range: {value:#x}")
        return super().__new__(cls, value)

    def __repr__(self) -> str:
        return f"ServiceId({str(self)})"

    def __str__(self) -> str:
        raw = int(self).to_bytes(6, "big")
        return ":".join(f"{b:02x}" for b in raw)

    def to_bytes48(self) -> bytes:
        """Return the big-endian 6-byte wire form of this id."""
        return int(self).to_bytes(6, "big")

    @classmethod
    def from_bytes48(cls, raw: bytes) -> "ServiceId":
        """Parse a 6-byte big-endian wire form."""
        if len(raw) != 6:
            raise AddressError(f"ServiceId wire form must be 6 bytes, got {len(raw)}")
        return cls(int.from_bytes(raw, "big"))


#: Interned 48-bit value -> ServiceId.  Construction (int subclass plus
#: range validation) is measurable per datagram and per event, and a cell
#: sees the same few senders; bounded against a sender flood.
_WIRE_IDS: dict[int, ServiceId] = {}
_WIRE_IDS_MAX = 4096


def wire_service_id(value: int) -> ServiceId:
    """The interned :class:`ServiceId` for a 6-byte wire field (which is
    what keeps ``value`` within 48 bits)."""
    service_id = _WIRE_IDS.get(value)
    if service_id is None:
        if len(_WIRE_IDS) >= _WIRE_IDS_MAX:
            _WIRE_IDS.clear()
        service_id = _WIRE_IDS[value] = ServiceId(value)
    return service_id


def service_id_from_socket(host: str, port: int) -> ServiceId:
    """Derive a ServiceId from an IPv4 address and port (paper Section IV).

    The IPv4 address supplies the high 32 bits and the port the low 16,
    mirroring the prototype's "48 bit ID ... generated from the transport
    layer's unicast socket and the port number".
    """
    if not 0 <= port <= 0xFFFF:
        raise AddressError(f"port out of range: {port}")
    try:
        packed = int(ipaddress.IPv4Address(host))
    except ipaddress.AddressValueError as exc:
        raise AddressError(f"not an IPv4 address: {host!r}") from exc
    return ServiceId((packed << 16) | port)


def service_id_from_name(name: str) -> ServiceId:
    """Derive a stable ServiceId for a named simulated service.

    Simulated transports have no socket to derive an id from, so we hash the
    node name into 48 bits.  The mapping is deterministic across runs (it
    uses CRC32, not Python's randomised ``hash``) which keeps simulations
    reproducible.
    """
    if not name:
        raise AddressError("service name must be non-empty")
    data = name.encode("utf-8")
    high = zlib.crc32(data)
    low = zlib.crc32(data[::-1] + b"\x00")
    return ServiceId(((high << 16) ^ low) & _MASK_48)


def service_id_address(service_id: ServiceId) -> tuple[str, int]:
    """Invert :func:`service_id_from_socket` back to ``(host, port)``.

    Only meaningful for ids created from sockets; for name-derived ids the
    result is a syntactically valid but arbitrary address.
    """
    value = int(service_id)
    port = value & 0xFFFF
    host = str(ipaddress.IPv4Address(value >> 16))
    return host, port
