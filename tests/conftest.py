"""Shared fixtures.

Unit tests run on a virtual-time :class:`Simulator`; network-flavoured
tests get a simulated network: ``net``, the ideal link between zero-cost
hosts (faults are its own methods; ``net.tap`` sees every datagram), or
``simnet`` / ``usb_net``, which model a radio and the paper's cable.
Everything is deterministic — no test depends on wall-clock time or real
sockets except the explicitly-marked UDP integration tests.
"""

import pytest

from repro.ids import service_id_from_name
from repro.sim.hosts import LAPTOP_PROFILE, PDA_PROFILE, SENSOR_PROFILE, SimHost
from repro.sim.kernel import Simulator
from repro.sim.radio import USB_IP, WIFI_11B, SimNetwork
from repro.sim.rng import RngRegistry
from repro.transport.endpoint import PacketEndpoint
from repro.transport.simnet import SimTransport, ideal_network


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def net(sim):
    """The ideal network: ``net.add_node(name)`` returns a node's transport."""
    return ideal_network(sim)


@pytest.fixture
def sid():
    """Factory for deterministic service ids."""
    return service_id_from_name


@pytest.fixture
def simnet(sim):
    """A simulated network with one WiFi medium and a node factory."""
    network = SimNetwork(sim, RngRegistry(1234))
    medium = network.add_medium("wifi", WIFI_11B)

    def add_node(name, profile=SENSOR_PROFILE, position=(0.0, 0.0)):
        network.attach(name, SimHost(sim, profile, name), medium, position)
        return SimTransport(network, name)

    network.add_node = add_node
    return network


@pytest.fixture
def usb_net(sim):
    """The paper's wired testbed: PDA + laptop over USB-IP."""
    network = SimNetwork(sim, RngRegistry(99))
    medium = network.add_medium("usb", USB_IP)
    network.attach("pda", SimHost(sim, PDA_PROFILE, "pda"), medium)
    network.attach("laptop", SimHost(sim, LAPTOP_PROFILE, "laptop"), medium)
    return network


@pytest.fixture
def endpoints(sim, net):
    """Factory for PacketEndpoints joined through the ideal network."""

    def make(name, **kwargs):
        return PacketEndpoint(net.add_node(name), sim, **kwargs)

    return make
