"""The event model and codec."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import BusError, CodecError
from repro.core.events import (
    Event,
    decode_event,
    encode_event,
)
from repro.ids import service_id_from_name

SENDER = service_id_from_name("sensor-1")


def make_event(**overrides):
    defaults = dict(type="health.hr", attributes={"hr": 120.5},
                    sender=SENDER, seqno=7, timestamp=1.5)
    defaults.update(overrides)
    return Event(**defaults)


class TestEvent:
    def test_fields(self):
        event = make_event()
        assert event.type == "health.hr"
        assert event.attributes["hr"] == 120.5
        assert event.sender == SENDER
        assert event.seqno == 7

    def test_immutable_fields(self):
        event = make_event()
        with pytest.raises(AttributeError):
            event.type = "other"

    def test_attribute_map_is_readonly(self):
        event = make_event()
        with pytest.raises(TypeError):
            event.attributes["hr"] = 0

    def test_constructor_snapshot(self):
        attrs = {"hr": 1}
        event = make_event(attributes=attrs)
        attrs["hr"] = 999
        assert event.attributes["hr"] == 1

    def test_attrs_view_includes_type(self):
        view = make_event().attrs_view()
        assert view["type"] == "health.hr"
        assert view["hr"] == 120.5

    def test_type_attribute_reserved(self):
        with pytest.raises(BusError):
            make_event(attributes={"type": "spoofed"})

    def test_empty_type_rejected(self):
        with pytest.raises(BusError):
            make_event(type="")

    def test_negative_seqno_rejected(self):
        with pytest.raises(BusError):
            make_event(seqno=-1)

    def test_bad_attribute_value_rejected(self):
        with pytest.raises(BusError):
            make_event(attributes={"x": [1, 2]})

    def test_bad_attribute_name_rejected(self):
        with pytest.raises(BusError):
            make_event(attributes={"": 1})

    def test_key_identifies_event(self):
        assert make_event().key() == (SENDER, 7)

    def test_get_with_default(self):
        event = make_event()
        assert event.get("hr") == 120.5
        assert event.get("missing", 0) == 0

    def test_equality_ignores_timestamp(self):
        assert make_event(timestamp=1.0) == make_event(timestamp=2.0)

    def test_hashable(self):
        assert len({make_event(), make_event()}) == 1


class TestCodec:
    def test_roundtrip(self):
        event = make_event(attributes={"hr": 120.5, "alarm": True,
                                       "patient": "p-1", "raw": b"\x00\x01"})
        decoded, offset = decode_event(encode_event(event))
        assert decoded == event
        assert decoded.timestamp == event.timestamp

    def test_empty_attributes(self):
        decoded, _ = decode_event(encode_event(make_event(attributes={})))
        assert dict(decoded.attributes) == {}

    def test_truncated_rejected(self):
        encoded = encode_event(make_event())
        with pytest.raises(CodecError):
            decode_event(encoded[:8])

    def test_spoofed_type_attribute_on_wire_rejected(self):
        from repro.transport import wire
        import struct
        raw = (wire.encode_str("t") + SENDER.to_bytes48()
               + wire.encode_varint(1) + struct.pack("!d", 0.0)
               + wire.encode_attr_map({"type": "fake"}))
        with pytest.raises(CodecError):
            decode_event(raw)

    @given(st.dictionaries(
        st.text(min_size=1, max_size=10).filter(lambda s: s != "type"),
        st.one_of(st.booleans(), st.integers(-1000, 1000),
                  st.floats(allow_nan=False, allow_infinity=False),
                  st.text(max_size=30), st.binary(max_size=30)),
        max_size=8),
        st.integers(0, 2 ** 30))
    def test_roundtrip_property(self, attrs, seqno):
        event = Event("bench.t", attrs, SENDER, seqno, 0.25)
        decoded, _ = decode_event(encode_event(event))
        assert decoded == event


class TestConstruction:
    """``Event(...)`` and ``decode_event`` build through one trusted body
    (slot stores on the fields base, then a class swap): what comes out
    is a plain, frozen ``Event`` either way."""

    ATTRS = {"hr": 131, "spo2": 97.5, "patient": "p-1", "raw": b"\x00",
             "alarm": True}

    def both(self):
        built = Event("health.hr", self.ATTRS, SENDER, 300, 1.5)
        decoded, _ = decode_event(encode_event(built))
        return built, decoded

    def test_both_are_exactly_events(self):
        for event in self.both():
            assert type(event) is Event

    def test_equal_and_hash_equal(self):
        built, decoded = self.both()
        assert built == decoded and decoded == built
        assert hash(built) == hash(decoded)
        assert len({built, decoded}) == 1
        assert decoded.timestamp == built.timestamp
        assert dict(decoded.attributes) == dict(built.attributes)

    def test_every_slot_rejects_assignment(self):
        slots = [name for cls in Event.__mro__
                 for name in getattr(cls, "__slots__", ())]
        assert {"type", "attributes", "sender", "seqno", "timestamp"} \
            < set(slots)
        assert any(name.startswith("_") for name in slots)
        for event in self.both():
            for name in slots:
                with pytest.raises(AttributeError):
                    setattr(event, name, None)
            with pytest.raises(AttributeError):
                event.brand_new = 1
            with pytest.raises(AttributeError):
                event.__class__ = object

    def test_attribute_map_is_readonly_either_way(self):
        for event in self.both():
            with pytest.raises(TypeError):
                event.attributes["hr"] = 0

    def test_attrs_view_is_cached(self):
        for event in self.both():
            view = event.attrs_view()
            assert view == {"type": "health.hr", **self.ATTRS}
            assert event.attrs_view() is view

    def test_no_instance_dict(self):
        for event in self.both():
            assert not hasattr(event, "__dict__")

    @pytest.mark.parametrize("overrides, message", [
        (dict(type=""), "event type must be non-empty"),
        (dict(seqno=-1), "event seqno must be >= 0, got -1"),
        (dict(attributes={"type": "spoofed"}),
         "attribute name 'type' is reserved for the event type"),
        (dict(attributes={"": 1}), "bad attribute name: ''"),
        (dict(attributes={7: 1}), "bad attribute name: 7"),
        (dict(attributes={"x": [1, 2]}),
         "attribute 'x' has unsupported type list"),
        (dict(attributes={"x": None}),
         "attribute 'x' has unsupported type NoneType"),
    ])
    def test_constructor_errors_are_the_parents(self, overrides, message):
        with pytest.raises(BusError) as raised:
            make_event(**overrides)
        assert str(raised.value) == message

    def test_value_subclasses_accepted_as_before(self):
        import enum

        class Level(enum.IntEnum):
            HIGH = 3

        class Tag(str):
            pass

        event = make_event(attributes={"level": Level.HIGH, "tag": Tag("x")})
        assert event.attributes["level"] is Level.HIGH
        decoded, _ = decode_event(encode_event(event))
        assert decoded.attributes == {"level": 3, "tag": "x"}
        assert type(decoded.attributes["level"]) is int

    def test_positional_and_keyword_construction(self):
        positional = Event("health.hr", {"hr": 1}, SENDER, 7, 1.5)
        keyword = Event(type="health.hr", attributes={"hr": 1},
                        sender=SENDER, seqno=7, timestamp=1.5)
        assert positional == keyword
        with pytest.raises(TypeError):
            Event("health.hr", {"hr": 1}, SENDER, 7)
