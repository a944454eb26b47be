"""Device chassis.

A device is a node of its own: it owns a transport endpoint and a
discovery agent, joins whatever cell it hears beaconing, and then does its
job until it loses the cell.  Two chassis flavours mirror the paper's
proxy-complexity spectrum:

* :class:`RawSensorDevice` — a *simple* device: it emits raw protocol
  bytes (DEVICE_DATA frames) on a timer and obeys DEVICE_CMD bytes; all
  event intelligence lives in its (complex) proxy on the SMC core.
* :class:`SmartDevice` — a *complex* device: it runs a
  :class:`~repro.core.client.BusClient` and publishes/subscribes typed
  events itself; its (simple) proxy merely forwards.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import protocol as bus_protocol
from repro.core.client import BusClient
from repro.core.protocol import BusOp
from repro.discovery.agent import AgentConfig, DiscoveryAgent
from repro.errors import CodecError, ConfigurationError
from repro.sim.kernel import Scheduler
from repro.transport import wire
from repro.transport.base import Address
from repro.transport.endpoint import PacketEndpoint


@dataclass
class DeviceStats:
    readings_sent: int = 0
    commands_received: int = 0
    joins: int = 0
    losses: int = 0


class Device:
    """Base: endpoint + discovery agent + join/leave bookkeeping."""

    def __init__(self, endpoint: PacketEndpoint, scheduler: Scheduler,
                 agent_config: AgentConfig) -> None:
        self.endpoint = endpoint
        self.scheduler = scheduler
        self.name = agent_config.name
        self.device_type = agent_config.device_type
        self.stats = DeviceStats()
        self.agent = DiscoveryAgent(endpoint, scheduler, agent_config)
        self.agent.on_joined = self._joined
        self.agent.on_left = self._left

    def start(self) -> None:
        self.agent.start()

    def stop(self) -> None:
        self.agent.stop()

    @property
    def joined(self) -> bool:
        return self.agent.joined

    @property
    def core_address(self) -> Address | None:
        """The cell core's address, as the agent knows it."""
        return self.agent.core_address

    # -- membership hooks -------------------------------------------------

    def _joined(self, _cell_name: str, _core_address: Address) -> None:
        self.stats.joins += 1
        self.on_joined()

    def _left(self, reason: str) -> None:
        self.stats.losses += 1
        self.on_left(reason)

    def on_joined(self) -> None:
        """Subclass hook: membership established."""

    def on_left(self, reason: str) -> None:
        """Subclass hook: membership lost."""


class RawSensorDevice(Device):
    """A simple device emitting protocol bytes on a timer.

    ``reliable=False`` sends readings as fire-and-forget RAW packets — the
    paper's unacknowledged temperature sensor.  Reliable mode queues them
    on the acknowledged channel.
    """

    def __init__(self, endpoint: PacketEndpoint, scheduler: Scheduler,
                 agent_config: AgentConfig, *, period_s: float = 1.0,
                 reliable: bool = True) -> None:
        if period_s <= 0:
            raise ConfigurationError(f"period_s must be > 0, got {period_s}")
        super().__init__(endpoint, scheduler, agent_config)
        self.period_s = period_s
        self.reliable = reliable
        self._report_timer = None
        endpoint.set_payload_handler(self._on_payload)

    # -- reporting loop ----------------------------------------------------

    def on_joined(self) -> None:
        self._start_reporting()

    def on_left(self, reason: str) -> None:
        self._stop_reporting()

    def _start_reporting(self) -> None:
        self._stop_reporting()
        self._report_timer = self.scheduler.every(self.period_s, self._report)

    def _stop_reporting(self) -> None:
        if self._report_timer is not None:
            self._report_timer.cancel()
            self._report_timer = None

    def _report(self) -> None:
        if not self.joined or self.core_address is None:
            return
        reading = self.make_reading(self.scheduler.now())
        if reading is None:
            return
        payload = bus_protocol.frame(BusOp.DEVICE_DATA, reading)
        if self.reliable:
            self.endpoint.send_reliable(self.core_address, payload)
        else:
            self.endpoint.send_raw(self.core_address, payload)
        self.stats.readings_sent += 1

    def set_period(self, period_s: float) -> None:
        """Change the reporting period (a management command's doing)."""
        if period_s <= 0:
            raise ConfigurationError(f"period_s must be > 0, got {period_s}")
        self.period_s = period_s
        if self._report_timer is not None:
            self._start_reporting()

    # -- subclass hooks ---------------------------------------------------

    def make_reading(self, now: float) -> bytes | None:
        """Produce the raw bytes of one reading (None skips this tick)."""
        raise NotImplementedError

    def handle_command(self, data: bytes) -> None:
        """React to raw command bytes from the proxy."""

    # -- inbound ------------------------------------------------------------

    def _on_payload(self, peer, payload: bytes) -> None:
        """Obey every DEVICE_CMD frame of one payload: the proxy
        coalesces two or more commands into a BATCH like any other
        proxy's (:func:`~repro.core.protocol.walk` states the policy)."""
        try:
            _batched, frames, _bad = bus_protocol.walk(payload)
        except CodecError:
            return
        for op, body in frames:
            if op == BusOp.DEVICE_CMD:
                self.stats.commands_received += 1
                # Device protocol parsers expect real bytes; the zero-copy
                # decode path hands up memoryview slices.
                self.handle_command(wire.as_bytes(body))


class SmartDevice(Device):
    """A complex device speaking the bus protocol through a BusClient.

    One client lives for the whole device lifetime: its sequence counter
    must survive transient disconnections, because the cell masks those
    (the member was never purged, so the bus's duplicate-suppression
    watermark for this sender is still in force).  The agent keeps it
    pointed at the core: address on every join, channel reset and
    subscriptions re-issued when the join opened a new session
    (:meth:`~repro.discovery.agent.DiscoveryAgent._open_session`).
    """

    def __init__(self, endpoint: PacketEndpoint, scheduler: Scheduler,
                 agent_config: AgentConfig) -> None:
        super().__init__(endpoint, scheduler, agent_config)
        self.client = BusClient(endpoint, scheduler, bus_address=None)
        self.agent.client = self.client

    def on_joined(self) -> None:
        self.on_connected(self.client, rejoined=self.stats.joins > 1)

    def on_connected(self, client: BusClient, *, rejoined: bool) -> None:
        """Subclass hook: the bus client is ready (subscribe/publish here).

        ``rejoined`` is True when this is a re-connection after a transient
        loss; the subscriptions made before it are already back in place.
        """
