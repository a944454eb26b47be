"""Concrete proxy types.

The paper's design explicitly supports both ends of the spectrum: "we can
build complex proxies for simple sensors (capable of performing translation
between the device protocol and higher level event types) or simple proxies
for complex sensors (resembling a mere forwarding mechanism between the
services)".

* :class:`ServiceProxy` — the simple proxy: the member speaks the bus
  protocol natively (PUBLISH/SUBSCRIBE frames), so outbound events are
  forwarded as DELIVER frames untouched.
* :class:`SensorProxy` — the complex proxy: the member is a dumb sensor
  emitting raw protocol bytes; the proxy translates readings into typed
  events, registers subscriptions on the device's behalf, translates
  command events back into device bytes, and optionally forwards
  application-level acknowledgements to the device.  Command-consuming
  devices (drug pumps, displays) use it too.
"""

from __future__ import annotations

from repro.ids import ServiceId
from repro.matching.filters import Filter
from repro.transport.endpoint import PacketEndpoint

from repro.core import protocol
from repro.core.bus import EventBus
from repro.core.events import Event
from repro.core.proxy import DeviceTranslator, Proxy, deliver_frame
from repro.core.protocol import BusOp


class ServiceProxy(Proxy):
    """Forwarding proxy for members that speak the bus protocol natively."""

    # The DELIVER framing carries nothing member-specific, so the bus
    # encodes it once per dispatch and shares it across the fan-out.
    shared_outbound = True

    def encode_outbound(self, event: Event) -> bytes | None:
        return deliver_frame(event)


class SensorProxy(Proxy):
    """Translating proxy for a simple sensor device.

    ``forward_acks`` reproduces the paper's per-proxy design choice: "it is
    the design choice of the proxy as to whether it should forward this
    acknowledgement to the device itself (for example, a temperature sensor
    may periodically transmit data and not require any acknowledgement
    prior to the next reading)".  When True, each accepted reading is
    answered with a DEVICE_CMD acknowledgement frame from the translator.
    """

    def __init__(self, bus: EventBus, endpoint: PacketEndpoint,
                 member_id: ServiceId, member_name: str,
                 translator: DeviceTranslator,
                 *, forward_acks: bool = False) -> None:
        self.translator = translator
        self.forward_acks = forward_acks
        super().__init__(bus, endpoint, member_id, member_name,
                         translator.device_type)

    def initial_subscriptions(self) -> list[list[Filter]]:
        filters = self.translator.command_filters()
        return [filters] if filters else []

    def encode_outbound(self, event: Event) -> bytes | None:
        command = self.translator.encode_command(event)
        if command is None:
            return None
        self.stats.commands_translated += 1
        return protocol.frame(BusOp.DEVICE_CMD, command)

    def on_device_data(self, data: bytes) -> None:
        """Translate one raw reading into a typed event and publish it.

        "Incoming data from devices are also sent to the proxy, to perform
        pre-processing of that data into fully fledged data objects before
        forwarding to other internal services."
        """
        decoded = self.translator.decode_reading(data)
        if decoded is None:
            self.stats.malformed_payloads += 1
            return
        event_type, attributes = decoded
        self.stats.readings_translated += 1
        self.publish_translated(event_type, attributes)
        if self.forward_acks:
            ack = getattr(self.translator, "encode_ack", None)
            if ack is not None:
                self.endpoint.send_raw(
                    self.member_address,
                    protocol.frame(BusOp.DEVICE_CMD, ack()))
