"""The proxy bootstrap mechanism (paper Section III-C).

"By specifying that all communication between the event bus and the SMC
services takes place via a proxy, there must be a mechanism for creating a
proxy when a new service joins the SMC.  The most straightforward method of
achieving this is to register a service responsible for the creation of
proxies ... which will react to New Member events generated by the
discovery service; these events must carry enough information for the
proxy-creation process to be able to generate the appropriate proxy type."

:class:`ProxyBootstrap` is that service.  Where the member is comes from
the endpoint alone, which heard its packets: a New Member event for a peer
it never heard from is a creation failure.  It also owns the data-plane
payload router on the SMC core: ordered payloads arriving from a member's
channel are handed to that member's proxy; traffic from non-members is
counted and dropped (admission precedes participation).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.ids import ServiceId
from repro.matching.filters import Filter
from repro.transport.base import Address
from repro.transport.endpoint import PacketEndpoint

from repro.core import protocol
from repro.core.bus import EventBus
from repro.core.events import NEW_MEMBER_TYPE, Event
from repro.core.proxies import SensorProxy, ServiceProxy
from repro.core.proxy import DeviceTranslator
from repro.sim.hosts import INBOUND_COPIES


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
        # device type -> (translator, forward_acks)
        self._translators: dict[str, tuple[DeviceTranslator, bool]] = {}
        # "The bootstrap mechanism must therefore be initialised on the
        # creation of the event bus": subscribe as soon as we exist.
        bus.subscribe_local(Filter.where(NEW_MEMBER_TYPE), self._on_new_member)
        endpoint.set_payload_handler(self._on_payload)

    def register_translator(self, translator: DeviceTranslator,
                            *, forward_acks: bool = False) -> None:
        """Give members of the translator's device type a SensorProxy."""
        if translator.device_type in self._translators:
            raise ConfigurationError(
                f"translator already registered for "
                f"{translator.device_type!r}")
        self._translators[translator.device_type] = (translator, forward_acks)

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
        if not self.endpoint.knows_peer(member):
            self.stats.creation_failures += 1     # nowhere to reach it
            return
        name = str(event.get("name", ""))
        entry = self._translators.get(str(event.get("device_type", "")))
        try:
            if entry is None:     # the member speaks the bus protocol
                proxy = ServiceProxy(self.bus, self.endpoint, member, name,
                                     "service")
            else:
                translator, forward_acks = entry
                proxy = SensorProxy(self.bus, self.endpoint, member, name,
                                    translator, forward_acks=forward_acks)
        except Exception:
            self.stats.creation_failures += 1
            raise
        capacity = event.get("capacity")
        if isinstance(capacity, int) and capacity > 0:
            proxy.capacity = capacity
        self.stats.proxies_created += 1

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


def format_address(address: Address) -> str:
    """An address as text (``"host:port"`` for UDP), as discovery puts it
    in New Member, Member Moved and BEACON bodies."""
    if isinstance(address, tuple) and len(address) == 2:
        return f"{address[0]}:{address[1]}"
    return str(address)
