"""The proxy bootstrap mechanism (paper Section III-C).

"By specifying that all communication between the event bus and the SMC
services takes place via a proxy, there must be a mechanism for creating a
proxy when a new service joins the SMC.  The most straightforward method of
achieving this is to register a service responsible for the creation of
proxies ... which will react to New Member events generated by the
discovery service; these events must carry enough information for the
proxy-creation process to be able to generate the appropriate proxy type."

:class:`ProxyBootstrap` is that service.  It also owns the data-plane
payload router on the SMC core: ordered payloads arriving from a member's
channel are handed to that member's proxy; traffic from non-members is
counted and dropped (admission precedes participation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigurationError
from repro.ids import ServiceId
from repro.matching.filters import Filter
from repro.transport.base import Address
from repro.transport.endpoint import PacketEndpoint

from repro.core import protocol
from repro.core.bus import EventBus
from repro.core.events import NEW_MEMBER_TYPE, Event
from repro.core.proxies import SensorProxy, ServiceProxy
from repro.core.proxy import DeviceTranslator, Proxy
from repro.sim.hosts import INBOUND_COPIES

#: factory(bus, endpoint, member_id, member_name, member_address) -> Proxy
ProxyFactory = Callable[[EventBus, PacketEndpoint, ServiceId, str, Address],
                        Proxy]


@dataclass
class BootstrapStats:
    proxies_created: int = 0
    creation_failures: int = 0
    payloads_routed: int = 0
    payloads_from_nonmembers: int = 0


class ProxyBootstrap:
    """Creates proxies on New Member events; routes member payloads."""

    def __init__(self, bus: EventBus, endpoint: PacketEndpoint) -> None:
        self.bus = bus
        self.endpoint = endpoint
        self.stats = BootstrapStats()
        self._factories: dict[str, ProxyFactory] = {}
        # "The bootstrap mechanism must therefore be initialised on the
        # creation of the event bus": subscribe as soon as we exist.
        bus.subscribe_local(Filter.where(NEW_MEMBER_TYPE), self._on_new_member)
        endpoint.set_payload_handler(self._on_payload)

    # -- registry -----------------------------------------------------------

    def register_factory(self, device_type: str,
                         factory: ProxyFactory) -> None:
        """Map a device type string to a proxy factory."""
        if device_type in self._factories:
            raise ConfigurationError(
                f"factory already registered for {device_type!r}")
        self._factories[device_type] = factory

    def register_translator(self, translator: DeviceTranslator,
                            *, forward_acks: bool = False) -> None:
        """Convenience: register a SensorProxy factory for a translator's
        device type."""

        def factory(bus: EventBus, endpoint: PacketEndpoint,
                    member_id: ServiceId, member_name: str,
                    member_address: Address) -> Proxy:
            return SensorProxy(bus, endpoint, member_id, member_name,
                               member_address, translator,
                               forward_acks=forward_acks)

        self.register_factory(translator.device_type, factory)

    # -- New Member reaction -------------------------------------------------

    def _on_new_member(self, event: Event) -> None:
        member_raw = event.get("member")
        if not isinstance(member_raw, int):
            self.stats.creation_failures += 1
            return
        member = ServiceId(member_raw)
        if self.bus.is_member(member):
            # Re-announcement of a live member (e.g. duplicate discovery
            # event); the existing proxy keeps its queue.
            return
        name = str(event.get("name", ""))
        device_type = str(event.get("device_type", ""))
        address = self._resolve_address(member, event)
        # A device type nobody registered speaks the bus protocol itself.
        factory = self._factories.get(device_type, _service_proxy_factory)
        try:
            proxy = factory(self.bus, self.endpoint, member, name, address)
        except Exception:
            self.stats.creation_failures += 1
            raise
        capacity = event.get("capacity")
        if isinstance(capacity, int) and capacity > 0:
            proxy.capacity = capacity
        self.stats.proxies_created += 1

    def _resolve_address(self, member: ServiceId, event: Event) -> Address:
        """Prefer the transport-learned address; fall back to the event's.

        The discovery service heard the member's packets, so the endpoint
        normally already knows the real address.  The New Member event
        carries a textual address as backup.
        """
        if self.endpoint.knows_peer(member):
            return self.endpoint.address_of(member)
        address_text = str(event.get("address", ""))
        address = _parse_address(address_text)
        self.endpoint.learn_peer(member, address)
        return address

    # -- payload routing -----------------------------------------------------

    def _on_payload(self, peer: ServiceId, payload: bytes) -> None:
        if self.bus.is_member(peer):
            self.stats.payloads_routed += 1
            # Inbound payload copies (socket -> runtime, wire decode).
            self.bus.meter.charge_copy(INBOUND_COPIES * len(payload))
            self.bus.proxy_of(peer).on_payload(payload)
        else:
            self.stats.payloads_from_nonmembers += 1
            # Publication attempts from non-members (e.g. a purged member's
            # in-flight traffic) are dropped here, before decoding — but
            # they still count toward the bus's publication accounting so
            # that ``published == matched + unmatched + duplicates_dropped
            # + from_unknown_member`` holds as an invariant.
            publications = protocol.count_publications(payload)
            self.bus.stats.published += publications
            self.bus.stats.from_unknown_member += publications


def _service_proxy_factory(bus: EventBus, endpoint: PacketEndpoint,
                           member_id: ServiceId, member_name: str,
                           member_address: Address) -> Proxy:
    return ServiceProxy(bus, endpoint, member_id, member_name,
                        member_address, device_type="service")


def _parse_address(text: str) -> Address:
    """Parse the textual address carried by a New Member event.

    ``"host:port"`` becomes a UDP tuple; anything else is a node name.
    """
    host, sep, port = text.rpartition(":")
    if sep and port.isdigit():
        return (host, int(port))
    return text


def format_address(address: Address) -> str:
    """Inverse of :func:`_parse_address`, used by discovery when it builds
    New Member events."""
    if isinstance(address, tuple) and len(address) == 2:
        return f"{address[0]}:{address[1]}"
    return str(address)
