"""Transport riding the simulated network.

``SimTransport`` is the byte-array transport interface bound to one node of
a :class:`~repro.sim.radio.SimNetwork`.  All link behaviour — latency,
serialisation, loss, fragmentation, radio range, and host CPU charging —
lives in the network model; this class only adapts the interfaces.
:func:`ideal_network` builds the one-medium network of zero-cost hosts
that the transport-only experiments and the delivery-semantics tests run
on.
"""

from __future__ import annotations

from repro.errors import AddressError
from repro.ids import service_id_from_name
from repro.sim.hosts import ZERO_COST_PROFILE, SimHost
from repro.sim.kernel import Scheduler
from repro.sim.radio import IDEAL, LinkProfile, SimNetwork
from repro.sim.rng import RngRegistry
from repro.transport.base import Transport


class SimTransport(Transport):
    """A node's endpoint on the simulated network."""

    def __init__(self, network: SimNetwork, name: str) -> None:
        super().__init__(service_id=service_id_from_name(name),
                         local_address=name, scheduler=network.scheduler)
        self._network = network
        network.set_receiver(name, self._deliver)

    @property
    def host(self) -> SimHost:
        """The simulated host this transport runs on."""
        return self._network.host_of(self.local_address)

    def _send_datagram(self, dest, payload: bytes) -> None:
        if not isinstance(dest, str):
            raise AddressError(f"sim addresses are node names, got {dest!r}")
        self._network.send(self.local_address, dest, payload)

    def _broadcast_datagram(self, payload: bytes) -> None:
        self._network.broadcast(self.local_address, payload)


def ideal_network(scheduler: Scheduler, profile: LinkProfile = IDEAL,
                  seed: int = 0) -> SimNetwork:
    """A network of one ``profile`` medium (the ideal link by default)
    whose nodes run on zero-cost hosts: ``network.add_node(name)`` attaches
    one and returns its transport."""
    network = SimNetwork(scheduler, RngRegistry(seed))
    medium = network.add_medium(profile.name, profile)

    def add_node(name: str) -> SimTransport:
        network.attach(name, SimHost(scheduler, ZERO_COST_PROFILE, name),
                       medium)
        return SimTransport(network, name)

    network.add_node = add_node
    return network
