"""Device wire protocols and their translators."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.events import Event
from repro.devices.protocols import (
    BloodPressureProtocol,
    HeartRateProtocol,
    NotifyProtocol,
    PumpProtocol,
    SpO2Protocol,
    TemperatureProtocol,
    seal,
    standard_translators,
    unseal,
)
from repro.ids import service_id_from_name

SENDER = service_id_from_name("policy")


def cmd_event(operation, **attrs):
    return Event(f"smc.cmd.{operation}", attrs, SENDER, 1, 0.0)


class TestFraming:
    def test_seal_unseal(self):
        assert unseal(seal(b"\x48\x01payload")) == b"\x48\x01payload"

    def test_corrupt_checksum_rejected(self):
        frame = bytearray(seal(b"\x48\x01payload"))
        frame[2] ^= 0xFF
        assert unseal(bytes(frame)) is None

    def test_too_short_rejected(self):
        assert unseal(b"") is None
        assert unseal(b"\x01") is None

    @given(st.binary(min_size=1, max_size=100))
    def test_roundtrip_property(self, body):
        assert unseal(seal(body)) == body


class TestHeartRate:
    def test_reading_roundtrip(self):
        proto = HeartRateProtocol("p-1")
        event_type, attrs = proto.decode_reading(
            proto.encode_reading(121.5, alarm=True))
        assert event_type == "health.hr"
        assert attrs == {"hr": 121.5, "alarm": True, "patient": "p-1"}

    def test_corrupt_reading_rejected(self):
        proto = HeartRateProtocol("p-1")
        frame = bytearray(proto.encode_reading(80.0))
        frame[-2] ^= 0x10
        assert proto.decode_reading(bytes(frame)) is None

    def test_wrong_magic_rejected(self):
        hr = HeartRateProtocol("p-1")
        temp = TemperatureProtocol("p-1")
        assert hr.decode_reading(temp.encode_reading(37.0)) is None

    def test_threshold_command_roundtrip(self):
        proto = HeartRateProtocol("p-1")
        data = proto.encode_command(cmd_event("set_threshold", value=130))
        assert proto.decode_command(data) == ("set_threshold", 130.0)

    def test_period_command_roundtrip(self):
        proto = HeartRateProtocol("p-1")
        data = proto.encode_command(cmd_event("set_period", value=2.5))
        assert proto.decode_command(data) == ("set_period", 2.5)

    def test_irrelevant_command_not_encoded(self):
        proto = HeartRateProtocol("p-1")
        assert proto.encode_command(cmd_event("deliver_dose", dose_ml=1)) is None

    def test_out_of_range_threshold_not_encoded(self):
        proto = HeartRateProtocol("p-1")
        assert proto.encode_command(cmd_event("set_threshold",
                                              value=-5)) is None
        assert proto.encode_command(cmd_event("set_threshold",
                                              value="high")) is None

    def test_command_filters_respect_targets(self):
        proto = HeartRateProtocol("p-1", listen_targets=["monitor"])
        filters = proto.command_filters()
        view = {"type": "smc.cmd.set_threshold", "target": "monitor"}
        assert any(f.matches(view) for f in filters)
        view_other = {"type": "smc.cmd.set_threshold", "target": "pump"}
        assert not any(f.matches(view_other) for f in filters)

    @given(st.floats(min_value=0, max_value=250))
    def test_reading_precision_property(self, bpm):
        proto = HeartRateProtocol("p")
        _, attrs = proto.decode_reading(proto.encode_reading(bpm))
        assert attrs["hr"] == pytest.approx(bpm, abs=0.06)


class TestOtherSensors:
    def test_bp_roundtrip(self):
        proto = BloodPressureProtocol("p-1")
        _, attrs = proto.decode_reading(proto.encode_reading(118.4, 76.6))
        assert attrs["systolic"] == 118 and attrs["diastolic"] == 77

    def test_spo2_roundtrip(self):
        proto = SpO2Protocol("p-1")
        _, attrs = proto.decode_reading(proto.encode_reading(97.2, 71.4))
        assert attrs["spo2"] == 97 and attrs["pulse"] == 71.4

    def test_temperature_roundtrip(self):
        proto = TemperatureProtocol("p-1")
        _, attrs = proto.decode_reading(proto.encode_reading(38.75))
        assert attrs["celsius"] == 38.75

    def test_temperature_ack_frames(self):
        proto = TemperatureProtocol("p-1")
        assert proto.is_ack(proto.encode_ack())
        assert not proto.is_ack(proto.encode_reading(37.0))


class TestPump:
    def test_dose_command_roundtrip(self):
        proto = PumpProtocol("p-1")
        data = proto.encode_command(cmd_event("deliver_dose", dose_ml=2.5))
        assert proto.decode_dose(data) == 2.5

    def test_protocol_refuses_overdose(self):
        proto = PumpProtocol("p-1", max_dose_ml=5.0)
        assert proto.encode_command(cmd_event("deliver_dose",
                                              dose_ml=50.0)) is None
        assert proto.encode_command(cmd_event("deliver_dose",
                                              dose_ml=0.0)) is None
        assert proto.encode_command(cmd_event("deliver_dose",
                                              dose_ml="lots")) is None

    def test_status_roundtrip(self):
        proto = PumpProtocol("p-1")
        _, attrs = proto.decode_reading(proto.encode_status(1.25, 88.5))
        assert attrs["delivered_ml"] == 1.25
        assert attrs["reservoir_ml"] == 88.5


class TestNotify:
    def test_text_roundtrip(self):
        proto = NotifyProtocol("", listen_targets=["nurse"])
        data = proto.encode_command(cmd_event("notify", msg="hello nurse"))
        assert proto.decode_text(data) == "hello nurse"

    def test_long_message_truncated(self):
        proto = NotifyProtocol("")
        data = proto.encode_command(cmd_event("notify", msg="x" * 1000))
        assert len(proto.decode_text(data)) == 255

    def test_non_string_message_rejected(self):
        proto = NotifyProtocol("")
        assert proto.encode_command(cmd_event("notify", msg=42)) is None

    def test_display_has_no_readings(self):
        proto = NotifyProtocol("")
        assert proto.decode_reading(b"whatever") is None


class TestStandardSet:
    def test_covers_the_ehealth_device_types(self):
        types = {t.device_type for t in standard_translators("p")}
        assert types == {"sensor.hr", "sensor.bp", "sensor.spo2",
                         "sensor.temp", "actuator.pump", "actuator.display"}

    def test_unique_magics(self):
        magics = [t.magic for t in standard_translators("p")]
        assert len(set(magics)) == len(magics)
