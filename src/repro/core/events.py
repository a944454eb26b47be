"""The event model.

An :class:`Event` is an immutable, typed attribute map stamped with its
sender's 48-bit service id and a per-sender sequence number.  The sequence
number is what lets the bus and subscribers enforce the paper's semantics:
per-sender FIFO ordering and exactly-once-while-member delivery (duplicates
created by retransmission are recognised and suppressed by ``(sender,
seqno)``).

Event *types* are dotted names (``health.hr.alarm``); management event
types used by the SMC core live under the ``smc.`` prefix and are defined
here so every subsystem agrees on them.

The wire codec is explicit TLV (via :mod:`repro.transport.wire`) — events
cross the network as plain bytes, never as pickled objects.
"""

from __future__ import annotations

import struct

from types import MappingProxyType
from typing import Mapping

from repro.errors import BusError, CodecError
from repro.ids import ServiceId, wire_service_id
from repro.matching.filters import TYPE_ATTR
from repro.transport import wire
from repro.transport.wire import Value

# -- management event types (the SMC vocabulary) ---------------------------

#: Discovery announces an admitted device (Section II-B).
NEW_MEMBER_TYPE = "smc.member.new"
#: Discovery declares a device gone; proxies self-destruct on this.
PURGE_MEMBER_TYPE = "smc.member.purge"
#: A member re-announced (or heartbeated) from a new transport address:
#: it roamed.  Its channel moved with it; ``requeued`` counts the
#: payloads queued or in flight on that channel.
MEMBER_MOVED_TYPE = "smc.member.moved"
#: A member's state changed (joining/healthy/degraded/draining/gone) or
#: it re-declared its capacity.  Attributes: ``member``, ``name``,
#: ``state``, ``previous``, ``capacity``, and ``reason`` (purge, drain)
#: or ``silence_s`` (the silence that made it DEGRADED).
MEMBER_STATE_TYPE = "smc.member.state"
#: Prefix for management command events the policy service emits.
COMMAND_TYPE_PREFIX = "smc.cmd."
#: Policy service lifecycle events.
POLICY_DEPLOYED_TYPE = "smc.policy.deployed"
POLICY_VIOLATION_TYPE = "smc.policy.violation"


_VALUE_TYPES = (bool, int, float, str, bytes)


class _EventFields:
    """An event's storage.  :func:`_trusted` fills one of these with plain
    slot stores and then turns it into an :class:`Event` — same slot
    layout, so the class swap is legal — whose ``__setattr__`` refuses
    every later store."""

    __slots__ = ("type", "attributes", "sender", "seqno", "timestamp",
                 "_view", "_wire")


def _trusted(event_type: str, attributes: Mapping[str, Value],
             sender: ServiceId, seqno: int, timestamp: float,
             raw: bytes | None) -> "Event":
    """The one construction body: build an event from fields already
    validated — by ``Event(...)`` for values a caller supplies, by
    :func:`decode_event` against the wire.  Checks nothing.  ``raw`` is
    the validated wire extent a decoded event keeps for
    :func:`write_event` to forward, None for an event built here.
    """
    event = _EventFields()
    event.type = event_type
    event.attributes = MappingProxyType(attributes)
    event.sender = sender
    event.seqno = seqno
    event.timestamp = timestamp
    event._view = None
    event._wire = raw
    event.__class__ = Event
    return event


class Event(_EventFields):
    """One immutable event.

    Attribute values are restricted to the wire-codec types (bool, int,
    float, str, bytes).  The reserved name ``type`` may not appear in the
    attribute map — the event type is exposed to content filters under that
    name automatically via :meth:`attrs_view`.
    """

    __slots__ = ()

    def __new__(cls, type: str, attributes: Mapping[str, Value],
                sender: ServiceId, seqno: int, timestamp: float) -> "Event":
        if not type:
            raise BusError("event type must be non-empty")
        if seqno < 0:
            raise BusError(f"event seqno must be >= 0, got {seqno}")
        attrs = dict(attributes)
        if TYPE_ATTR in attrs:
            raise BusError(
                f"attribute name {TYPE_ATTR!r} is reserved for the event type")
        for name, value in attrs.items():
            if not name or not isinstance(name, str):
                raise BusError(f"bad attribute name: {name!r}")
            if not isinstance(value, _VALUE_TYPES):
                raise BusError(
                    f"attribute {name!r} has unsupported type "
                    f"{type_name(value)}")
        return _trusted(type, attrs, sender, seqno, timestamp, None)

    def __setattr__(self, key: str, _value) -> None:
        raise AttributeError(f"Event is immutable (tried to set {key!r})")

    def attrs_view(self) -> Mapping[str, Value]:
        """Attributes plus the reserved ``type`` entry, for matching."""
        view = self._view
        if view is None:
            view = {TYPE_ATTR: self.type, **self.attributes}
            _set_view(self, view)
        return view

    def key(self) -> tuple[ServiceId, int]:
        """The (sender, seqno) pair that identifies this event uniquely."""
        return (self.sender, self.seqno)

    def get(self, name: str, default: Value | None = None) -> Value | None:
        return self.attributes.get(name, default)

    def __eq__(self, other) -> bool:
        # Compare the mapping proxies directly (they delegate to the
        # underlying dicts) — the dedup and soak paths compare events at
        # volume, so no throwaway dicts per comparison.
        return (isinstance(other, Event)
                and self.type == other.type
                and self.sender == other.sender
                and self.seqno == other.seqno
                and self.attributes == other.attributes)

    def __hash__(self) -> int:
        return hash((self.type, self.sender, self.seqno))

    def __repr__(self) -> str:
        return (f"<Event {self.type} from={self.sender} seq={self.seqno} "
                f"attrs={dict(self.attributes)!r}>")


def type_name(value) -> str:
    return type(value).__name__


#: The slot's own store: the one write an event takes after construction
#: (the lazily built matching view), past ``Event.__setattr__``.
_set_view = _EventFields._view.__set__


# -- codec -------------------------------------------------------------------

_TS_STRUCT = struct.Struct("!d")


def write_event(out: list[bytes], event: Event) -> None:
    """Append an event's wire chunks to ``out`` without joining.

    The scatter-gather half of the codec: framing and batching layers
    stack their own chunks around these and the whole payload is joined
    exactly once at the reliable-payload boundary.

    An event that came off the wire is *forwarded*, not re-encoded: the
    extent :func:`decode_event` validated and kept is appended as one
    chunk, so every DELIVER of a member-published event costs the core no
    TLV work and carries the publisher's bytes unchanged.  Events built
    in this process (``Event(...)``) are encoded here, names and the
    event type as interned chunks (:func:`repro.transport.wire.name_chunk`).
    """
    raw = event._wire
    if raw is not None:
        out.append(raw)
        return
    out.append(wire.name_chunk(event.type))
    out.append(event.sender.to_bytes48())
    out.append(wire.encode_varint(event.seqno))
    out.append(_TS_STRUCT.pack(event.timestamp))
    wire.write_attr_map(out, event.attributes)


encode_event = wire.encoder(write_event)


def decode_event(buf: wire.Buffer, offset: int = 0) -> tuple[Event, int]:
    """Parse an event from any wire buffer; returns (event, new offset).

    Accepts ``bytes``, ``bytearray`` or a ``memoryview``.  A non-bytes
    buffer is materialised exactly once here — the event object is where
    decoded data becomes long-lived, and this is the single inbound
    socket-buffer -> runtime copy the cost model charges
    (``INBOUND_COPIES``).  The packet and batch-framing layers above
    stay zero-copy ``memoryview`` slices; flattening at this leaf is
    deliberate: CPython pays a fixed per-operation penalty for
    ``str``/``bytes`` construction from views that exceeds the one
    ``memcpy`` at event-payload sizes, so parsing runs over ``bytes``.
    The fixed fields are decoded inline (every event on every hop passes
    through here; the per-call overhead of the modular wire functions is
    measurable at event rates), with the one-byte-varint fast path that
    covers realistic type-name lengths and sequence numbers.

    The event keeps the extent it was parsed from — ``buf[offset:pos]``,
    nothing beyond the parsed event — for :func:`write_event` to forward.
    That is the copy described above, not a second one: when the event
    is the whole buffer, as at every call site in the cell, the slice is
    that object itself (a mid-buffer decode copies just the extent).
    What changes is its lifetime: it used to die with this call and now
    lives as long as the event.  Decoding retains on every hop, the
    subscriber's too: there is one decode path and it takes no switch,
    though nothing on the subscriber side forwards today
    (``BusClient.publish`` builds a new event).  So an application that
    keeps a delivered 1 KB event holds about 2 KB — the decoded values
    and the 1 KB they were decoded from — and one that keeps events for
    long should keep the fields it needs instead.
    """
    if type(buf) is not bytes:
        buf = bytes(buf)
    size = len(buf)
    # Event type (inlined wire.decode_str).
    if offset < size and buf[offset] < 0x80:
        length = buf[offset]
        pos = offset + 1
    else:
        length, pos = wire.decode_varint(buf, offset)
    end = pos + length
    if end > size:
        raise CodecError("truncated string")
    # Interned type names: a deployment speaks a small vocabulary of
    # event types, each repeated on every event — the cache skips the
    # UTF-8 decode and yields identity-equal strings, which the matching
    # tables then hash-compare on the fast path.
    raw_type = buf[pos:end]
    event_type = _TYPE_CACHE.get(raw_type)
    if event_type is None:
        try:
            event_type = str(raw_type, "utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError(f"invalid UTF-8: {exc}") from exc
        if not event_type:
            raise CodecError("empty event type on wire")
        if len(_TYPE_CACHE) >= _TYPE_CACHE_MAX:
            _TYPE_CACHE.clear()
        _TYPE_CACHE[raw_type] = event_type
    pos = end
    # Sender id, interned: a cell sees the same few senders on every event.
    if pos + 6 > size:
        raise CodecError("truncated event: missing sender id")
    sender = wire_service_id(int.from_bytes(buf[pos:pos + 6], "big"))
    pos += 6
    # Sequence number (inlined wire.decode_varint fast path).
    if pos < size and buf[pos] < 0x80:
        seqno = buf[pos]
        pos += 1
    else:
        seqno, pos = wire.decode_varint(buf, pos)
    if pos + 8 > size:
        raise CodecError("truncated event: missing timestamp")
    (timestamp,) = _TS_STRUCT.unpack_from(buf, pos)
    pos += 8
    attributes, pos = wire.decode_attr_map(buf, pos)
    if TYPE_ATTR in attributes:
        raise CodecError(f"reserved attribute {TYPE_ATTR!r} on wire")
    # The wire layer already enforced every Event invariant (non-empty
    # type and names, codec value types, seqno >= 0 by varint), so build
    # the event directly instead of paying Event(...)'s revalidation.
    return _trusted(event_type, attributes, sender, seqno, timestamp,
                    buf[offset:pos]), pos


#: Interned wire bytes -> event type string; bounded like the sender
#: cache (:func:`repro.ids.wire_service_id`) so adversarial type churn
#: cannot grow it without limit.
_TYPE_CACHE: dict[bytes, str] = {}
_TYPE_CACHE_MAX = 1024
