"""Device wire protocols and their proxy translators.

Each simple device speaks a tiny binary protocol of its own — the
heterogeneity the proxy layer exists to mask.  A translator implements the
:class:`~repro.core.proxy.DeviceTranslator` interface: readings become
typed events ("the temperature sensor ... may periodically send a series
of bytes representing a temperature reading, which the proxy converts into
an object representing an event carrying that temperature"), and selected
``smc.cmd.*`` events become device command bytes.

Every frame is ``magic, opcode, body..., xor-checksum`` so corrupted frames
are detectably dropped, and every translator is parameterised with the
patient id so readings arrive on the bus already attributed.
"""

from __future__ import annotations

import struct

from repro.core.events import COMMAND_TYPE_PREFIX, Event
from repro.matching.filters import Filter

SET_THRESHOLD_OP = "set_threshold"
SET_PERIOD_OP = "set_period"
DOSE_OP = "deliver_dose"
NOTIFY_OP = "notify"

_OP_READING = 0x01
_OP_SET_THRESHOLD = 0x02
_OP_SET_PERIOD = 0x03
_OP_ACK = 0x04
_OP_DOSE = 0x05
_OP_STATUS = 0x06
_OP_TEXT = 0x07


def _checksum(frame: bytes) -> int:
    value = 0
    for byte in frame:
        value ^= byte
    return value


def seal(frame: bytes) -> bytes:
    """Append the xor checksum."""
    return frame + bytes((_checksum(frame),))


def unseal(frame: bytes) -> bytes | None:
    """Verify and strip the checksum; None when corrupt/too short."""
    if len(frame) < 2:
        return None
    body, check = frame[:-1], frame[-1]
    if _checksum(body) != check:
        return None
    return body


class _BaseProtocol:
    """Shared plumbing: magic/opcode framing and command targeting."""

    magic: int = 0x00
    device_type: str = ""
    event_type: str = ""

    def __init__(self, patient: str, listen_targets: list[str] | None = None) -> None:
        self.patient = patient
        #: Role/member names whose commands this device obeys.
        self.listen_targets = list(listen_targets or [])

    # -- frame helpers -----------------------------------------------------

    def _open(self, data: bytes, expected_op: int) -> bytes | None:
        body = unseal(data)
        if body is None or len(body) < 2:
            return None
        if body[0] != self.magic or body[1] != expected_op:
            return None
        return body[2:]

    def _frame(self, op: int, payload: bytes = b"") -> bytes:
        return seal(bytes((self.magic, op)) + payload)

    def encode_ack(self) -> bytes:
        return self._frame(_OP_ACK)

    def is_ack(self, data: bytes) -> bool:
        return self._open(data, _OP_ACK) is not None

    def _target_filters(self, operation: str) -> list[Filter]:
        command_type = COMMAND_TYPE_PREFIX + operation
        if not self.listen_targets:
            return [Filter.where(command_type)]
        return [Filter.where(command_type, target=target)
                for target in self.listen_targets]


class HeartRateProtocol(_BaseProtocol):
    """Heart-rate sensor: bpm in tenths, alarm flag, settable threshold."""

    magic = 0x48            # 'H'
    device_type = "sensor.hr"
    event_type = "health.hr"

    def encode_reading(self, bpm: float, alarm: bool = False) -> bytes:
        tenths = max(0, min(0xFFFF, round(bpm * 10)))
        return self._frame(_OP_READING,
                           struct.pack("!HB", tenths, 1 if alarm else 0))

    def decode_reading(self, data: bytes) -> tuple[str, dict] | None:
        body = self._open(data, _OP_READING)
        if body is None or len(body) != 3:
            return None
        tenths, alarm = struct.unpack("!HB", body)
        return self.event_type, {
            "hr": tenths / 10.0,
            "alarm": bool(alarm),
            "patient": self.patient,
        }

    def encode_command(self, event: Event) -> bytes | None:
        if event.type == COMMAND_TYPE_PREFIX + SET_THRESHOLD_OP:
            value = event.get("value")
            if isinstance(value, (int, float)) and 0 <= value <= 6553:
                return self._frame(_OP_SET_THRESHOLD,
                                   struct.pack("!H", round(value * 10)))
        if event.type == COMMAND_TYPE_PREFIX + SET_PERIOD_OP:
            value = event.get("value")
            if isinstance(value, (int, float)) and 0 < value <= 3600:
                return self._frame(_OP_SET_PERIOD,
                                   struct.pack("!H", round(value * 100)))
        return None

    def decode_command(self, data: bytes) -> tuple[str, float] | None:
        """Device-side command parse: (operation, value)."""
        body = self._open(data, _OP_SET_THRESHOLD)
        if body is not None and len(body) == 2:
            return SET_THRESHOLD_OP, struct.unpack("!H", body)[0] / 10.0
        body = self._open(data, _OP_SET_PERIOD)
        if body is not None and len(body) == 2:
            return SET_PERIOD_OP, struct.unpack("!H", body)[0] / 100.0
        return None

    def command_filters(self) -> list[Filter]:
        return (self._target_filters(SET_THRESHOLD_OP)
                + self._target_filters(SET_PERIOD_OP))


class BloodPressureProtocol(_BaseProtocol):
    """Blood-pressure cuff: systolic/diastolic mmHg."""

    magic = 0x42            # 'B'
    device_type = "sensor.bp"
    event_type = "health.bp"

    def encode_reading(self, systolic: float, diastolic: float) -> bytes:
        return self._frame(_OP_READING, struct.pack(
            "!HH", max(0, min(0xFFFF, round(systolic))),
            max(0, min(0xFFFF, round(diastolic)))))

    def decode_reading(self, data: bytes) -> tuple[str, dict] | None:
        body = self._open(data, _OP_READING)
        if body is None or len(body) != 4:
            return None
        systolic, diastolic = struct.unpack("!HH", body)
        return self.event_type, {
            "systolic": systolic, "diastolic": diastolic,
            "patient": self.patient,
        }

    def encode_command(self, event: Event) -> bytes | None:
        if event.type == COMMAND_TYPE_PREFIX + SET_PERIOD_OP:
            value = event.get("value")
            if isinstance(value, (int, float)) and 0 < value <= 3600:
                return self._frame(_OP_SET_PERIOD,
                                   struct.pack("!H", round(value * 100)))
        return None

    def decode_command(self, data: bytes) -> tuple[str, float] | None:
        body = self._open(data, _OP_SET_PERIOD)
        if body is not None and len(body) == 2:
            return SET_PERIOD_OP, struct.unpack("!H", body)[0] / 100.0
        return None

    def command_filters(self) -> list[Filter]:
        return self._target_filters(SET_PERIOD_OP)


class SpO2Protocol(_BaseProtocol):
    """Pulse oximeter: oxygen saturation percent and pulse."""

    magic = 0x4F            # 'O'
    device_type = "sensor.spo2"
    event_type = "health.spo2"

    def encode_reading(self, percent: float, pulse: float) -> bytes:
        return self._frame(_OP_READING, struct.pack(
            "!BH", max(0, min(100, round(percent))),
            max(0, min(0xFFFF, round(pulse * 10)))))

    def decode_reading(self, data: bytes) -> tuple[str, dict] | None:
        body = self._open(data, _OP_READING)
        if body is None or len(body) != 3:
            return None
        percent, pulse_tenths = struct.unpack("!BH", body)
        return self.event_type, {
            "spo2": percent, "pulse": pulse_tenths / 10.0,
            "patient": self.patient,
        }

    def encode_command(self, event: Event) -> bytes | None:
        return None

    def command_filters(self) -> list[Filter]:
        return []


class TemperatureProtocol(_BaseProtocol):
    """Body-temperature sensor — the paper's own example of a device that
    "may periodically transmit data and not require any acknowledgement"."""

    magic = 0x54            # 'T'
    device_type = "sensor.temp"
    event_type = "health.temp"

    def encode_reading(self, celsius: float) -> bytes:
        centi = max(0, min(0xFFFF, round(celsius * 100)))
        return self._frame(_OP_READING, struct.pack("!H", centi))

    def decode_reading(self, data: bytes) -> tuple[str, dict] | None:
        body = self._open(data, _OP_READING)
        if body is None or len(body) != 2:
            return None
        (centi,) = struct.unpack("!H", body)
        return self.event_type, {
            "celsius": centi / 100.0, "patient": self.patient,
        }

    def encode_command(self, event: Event) -> bytes | None:
        return None

    def command_filters(self) -> list[Filter]:
        return []


class PumpProtocol(_BaseProtocol):
    """Drug pump actuator: dose commands in, status confirmations out.

    ``max_dose_ml`` is a protocol-level safety bound: the translator
    refuses to encode a command exceeding it, whatever policy asked for.
    """

    magic = 0x50            # 'P'
    device_type = "actuator.pump"
    event_type = "health.pump"

    def __init__(self, patient: str, listen_targets: list[str] | None = None,
                 max_dose_ml: float = 5.0) -> None:
        super().__init__(patient, listen_targets)
        self.max_dose_ml = max_dose_ml

    def encode_command(self, event: Event) -> bytes | None:
        if event.type != COMMAND_TYPE_PREFIX + DOSE_OP:
            return None
        dose = event.get("dose_ml")
        if not isinstance(dose, (int, float)) or not 0 < dose <= self.max_dose_ml:
            return None
        return self._frame(_OP_DOSE, struct.pack("!H", round(dose * 100)))

    def decode_dose(self, data: bytes) -> float | None:
        """Device-side parse of a dose command."""
        body = self._open(data, _OP_DOSE)
        if body is None or len(body) != 2:
            return None
        return struct.unpack("!H", body)[0] / 100.0

    def encode_status(self, delivered_ml: float, reservoir_ml: float) -> bytes:
        return self._frame(_OP_STATUS, struct.pack(
            "!HH", round(delivered_ml * 100),
            max(0, min(0xFFFF, round(reservoir_ml * 100)))))

    def decode_reading(self, data: bytes) -> tuple[str, dict] | None:
        body = self._open(data, _OP_STATUS)
        if body is None or len(body) != 4:
            return None
        delivered, reservoir = struct.unpack("!HH", body)
        return self.event_type, {
            "delivered_ml": delivered / 100.0,
            "reservoir_ml": reservoir / 100.0,
            "patient": self.patient,
        }

    def command_filters(self) -> list[Filter]:
        return self._target_filters(DOSE_OP)


class NotifyProtocol(_BaseProtocol):
    """Nurse display / alarm buzzer: renders notify commands as text."""

    magic = 0x4E            # 'N'
    device_type = "actuator.display"
    event_type = "health.display"

    def encode_command(self, event: Event) -> bytes | None:
        if event.type != COMMAND_TYPE_PREFIX + NOTIFY_OP:
            return None
        message = event.get("msg", "")
        if not isinstance(message, str):
            return None
        raw = message.encode("utf-8")[:255]
        return self._frame(_OP_TEXT, bytes((len(raw),)) + raw)

    def decode_text(self, data: bytes) -> str | None:
        """Device-side parse of a displayed message."""
        body = self._open(data, _OP_TEXT)
        if body is None or len(body) < 1 or len(body) != 1 + body[0]:
            return None
        try:
            return body[1:].decode("utf-8")
        except UnicodeDecodeError:
            return None

    def decode_reading(self, data: bytes) -> tuple[str, dict] | None:
        return None

    def command_filters(self) -> list[Filter]:
        return self._target_filters(NOTIFY_OP)


def standard_translators(patient: str) -> list[_BaseProtocol]:
    """The default translator set an e-health cell registers at bootstrap.

    Sensors obey commands addressed to the ``monitor`` role; actuators to
    their own roles (``pump``, ``nurse``).
    """
    return [
        HeartRateProtocol(patient, listen_targets=["monitor"]),
        BloodPressureProtocol(patient, listen_targets=["monitor"]),
        SpO2Protocol(patient),
        TemperatureProtocol(patient),
        PumpProtocol(patient, listen_targets=["pump"]),
        NotifyProtocol(patient, listen_targets=["nurse"]),
    ]
