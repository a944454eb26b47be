"""Client-side harness for deployed cells: one device on real sockets.

A :class:`LoopbackDevice` is the device half of deployment mode — the
stack a real sensor or PDA application would run, a
:class:`~repro.devices.base.SmartDevice` (PacketEndpoint → DiscoveryAgent
+ BusClient) on its own UdpTransport, assembled onto the same
:class:`~repro.sim.kernel.RealtimeScheduler` so one selector loop drives
any number of devices alongside (or across the loopback from) a
:class:`~repro.deploy.server.CellServer`.

Devices join by rendezvous (:meth:`~repro.discovery.agent.DiscoveryAgent.
announce_to` at the server's unicast address) because loopback has no
broadcast domain; once admitted, the server's directed beacons keep the
agent's out-of-range watchdog fed.  A device the cell purged (silent too
long) hears no more beacons, notices, and rejoins on the next
:meth:`~LoopbackDevice.start` — as a new session, like any SmartDevice.

This is what the localhost benchmark and the CI smoke job drive by the
hundred.
"""

from __future__ import annotations

from typing import Callable

from repro.core.events import Event
from repro.devices.base import SmartDevice
from repro.discovery.agent import AgentConfig
from repro.matching.filters import Filter
from repro.sim.kernel import RealtimeScheduler
from repro.transport.base import Address
from repro.transport.endpoint import PacketEndpoint
from repro.transport.udp import UdpTransport


class LoopbackDevice(SmartDevice):
    """One device-side stack on real UDP, joined by rendezvous."""

    def __init__(self, scheduler: RealtimeScheduler, core_address: Address,
                 config: AgentConfig, bind_host: str = "127.0.0.1",
                 window: int | None = None, batch: int = 0) -> None:
        if batch < 0:
            raise ValueError(f"batch must be >= 0, got {batch}")
        #: Where to announce: the cell core's unicast address.
        self.rendezvous = core_address
        # Devices never bind the discovery port — beacons arrive directed
        # at the unicast socket.
        self.transport = UdpTransport(bind_host=bind_host,
                                      listen_for_broadcast=False)
        endpoint_kwargs = {} if window is None else {"window": window}
        super().__init__(PacketEndpoint(self.transport, scheduler,
                                        **endpoint_kwargs),
                         scheduler, config)
        self._registered = False
        #: Publishes buffered per flush; 0 sends each publish immediately.
        #: Buffered publishes ride one BATCH frame via
        #: :meth:`~repro.core.client.BusClient.publish_batch` — one packet
        #: per flush instead of one per event, which is what lets a
        #: harness drive thousands of devices through one socket.
        self.batch = batch
        self._buffer: list[tuple[str, dict | None]] = []

    # -- lifecycle -----------------------------------------------------------

    def _listen(self, listening: bool) -> None:
        """Put the socket on (or take it off) the scheduler's selector."""
        if listening == self._registered:
            return
        self._registered = listening
        if listening:
            self.scheduler.register_pollables(self.transport.pollables())
        else:
            for pollable in self.transport.pollables():
                self.scheduler.unregister_pollable(pollable)

    def start(self) -> None:
        """Register the socket and announce at the rendezvous address."""
        self._listen(True)
        self.agent.announce_to(self.rendezvous)

    def leave(self) -> None:
        """Politely LEAVE the cell (the agent stays constructed)."""
        self.flush()
        self.stop()

    def leave_gracefully(self, reason: str = "drain") -> None:
        """Send LEAVE_INTENT and let the cell drain our queue.

        Pair with :meth:`close` (or :meth:`leave`) once the cell purges
        us — e.g. after waiting for delivery to quiesce.
        """
        self.flush()
        self.agent.leave_gracefully(reason)

    def close(self) -> None:
        self.leave()
        self._listen(False)
        self.transport.close()

    # -- fault-injection hooks ----------------------------------------------

    def crash(self) -> None:
        """Die without a word: drop the socket, send no LEAVE.

        The cell sees an abrupt ghost — exactly what the chaos harness
        needs to prove the DEGRADED detection and purge paths.  The agent
        object survives (for inspecting its stats) but is stopped.
        """
        self.freeze()                # no LEAVE, no further heartbeats
        self.transport.close()
        self.client.bus_address = None

    def freeze(self) -> None:
        """Simulate a process stall: stop reading the socket and stop all
        agent timers, but keep every resource for :meth:`thaw`."""
        self._listen(False)
        self.agent.freeze()

    def thaw(self) -> None:
        """Resume after :meth:`freeze`: re-register the socket, restart
        the agent's timers."""
        self._listen(True)
        self.agent.thaw()

    # -- conveniences --------------------------------------------------------

    @property
    def service_id(self) -> int:
        return self.endpoint.service_id

    def publish(self, event_type: str, attributes: dict | None = None):
        """Publish one event; buffered until :meth:`flush` when batching.

        Unbatched, this is the old behaviour (one reliable payload per
        publish, returns the stamped event or None).  With ``batch > 0``
        the event joins the buffer and None is returned — events are
        stamped at flush time, all with one send.
        """
        if not self.batch:
            return self.client.publish(event_type, attributes)
        self._buffer.append((event_type, attributes))
        if len(self._buffer) >= self.batch:
            self.flush()
        return None

    def flush(self) -> list[Event]:
        """Send every buffered publish as one BATCH; returns the events."""
        if not self._buffer:
            return []
        items, self._buffer = self._buffer, []
        return self.client.publish_batch(items)

    @property
    def pending(self) -> int:
        """Publishes buffered and not yet flushed."""
        return len(self._buffer)

    def subscribe(self, filters: Filter,
                  callback: Callable[[Event], None]) -> int:
        return self.client.subscribe(filters, callback)


def make_devices(scheduler: RealtimeScheduler, core_address: Address,
                 count: int, *, device_type: str = "service",
                 name_prefix: str = "dev",
                 announce_retry_s: float = 0.2,
                 beacon_timeout_s: float = 10.0,
                 batch: int = 0) -> list[LoopbackDevice]:
    """Build ``count`` devices aimed at one cell (benchmark/CI helper)."""
    return [
        LoopbackDevice(scheduler, core_address,
                       AgentConfig(name=f"{name_prefix}-{index}",
                                   device_type=device_type,
                                   announce_retry_s=announce_retry_s,
                                   beacon_timeout_s=beacon_timeout_s),
                       batch=batch)
        for index in range(count)
    ]
