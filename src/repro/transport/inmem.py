"""In-memory transport for unit tests.

An :class:`InMemoryHub` connects any number of named transports.  Datagrams
are delivered through the scheduler (``call_soon`` by default, or after a
fixed delay), never synchronously from inside ``send`` — keeping the
callback ordering identical to the real transports so tests exercise the
same re-entrancy behaviour the deployed system has.

The hub can drop or delay traffic on demand, which the delivery-semantics
tests use to force retransmissions without a full network simulation.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import AddressError, ConfigurationError
from repro.ids import service_id_from_name
from repro.sim.kernel import Scheduler
from repro.transport.base import Transport


class InMemoryHub:
    """Connects in-memory transports by node name."""

    def __init__(self, scheduler: Scheduler, delay_s: float = 0.0) -> None:
        if delay_s < 0:
            raise ConfigurationError(f"negative delay: {delay_s}")
        self.scheduler = scheduler
        self.delay_s = delay_s
        self._transports: dict[str, InMemoryTransport] = {}
        #: Optional filter invoked per datagram; returning False drops it.
        self.drop_filter: Callable[[str, str, bytes], bool] | None = None
        self.datagrams_dropped = 0

    def create(self, name: str) -> "InMemoryTransport":
        """Create and register a transport for node ``name``."""
        if name in self._transports:
            raise ConfigurationError(f"duplicate node name: {name}")
        transport = InMemoryTransport(self, name)
        self._transports[name] = transport
        return transport

    def names(self) -> list[str]:
        return sorted(self._transports)

    def _route(self, src: str, dest: str, payload: bytes) -> None:
        if dest not in self._transports:
            raise AddressError(f"unknown destination: {dest!r}")
        self._schedule(src, dest, payload)

    def _route_broadcast(self, src: str, payload: bytes) -> None:
        for name in sorted(self._transports):
            if name != src:
                self._schedule(src, name, payload)

    def _schedule(self, src: str, dest: str, payload: bytes) -> None:
        if self.drop_filter is not None and not self.drop_filter(src, dest, payload):
            self.datagrams_dropped += 1
            return
        if self.delay_s:
            self.scheduler.call_later(self.delay_s, self._deliver, src, dest, payload)
        else:
            self.scheduler.call_soon(self._deliver, src, dest, payload)

    def _deliver(self, src: str, dest: str, payload: bytes) -> None:
        transport = self._transports.get(dest)
        if transport is not None and not transport.closed:
            transport._deliver(src, payload)

    def inject(self, src: str, dest: str, payload: bytes) -> None:
        """Deliver a datagram *bypassing* the drop filter.

        The fault harness's re-injection seam: a filter that decided to
        delay, duplicate or corrupt a datagram consumes the original and
        schedules the mutated copy through here — without the bypass the
        copy would hit the same filter again.
        """
        self.scheduler.call_soon(self._deliver, src, dest, payload)


class InMemoryTransport(Transport):
    """A hub-attached transport addressed by node name."""

    def __init__(self, hub: InMemoryHub, name: str) -> None:
        super().__init__(service_id=service_id_from_name(name),
                         local_address=name, scheduler=hub.scheduler)
        self._hub = hub

    def _send_datagram(self, dest, payload: bytes) -> None:
        if not isinstance(dest, str):
            raise AddressError(f"in-memory addresses are names, got {dest!r}")
        self._hub._route(self.local_address, dest, payload)

    def _broadcast_datagram(self, payload: bytes) -> None:
        self._hub._route_broadcast(self.local_address, payload)
