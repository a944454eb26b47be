"""Fixtures for core-layer tests: a bus core with manual admission.

Discovery is tested separately; here membership events are injected by
hand so proxy/bootstrap/client behaviour is isolated from the discovery
protocol.
"""

import pytest

from repro.autonomic.manager import build_bus_manager
from repro.core.bootstrap import ProxyBootstrap
from repro.core.bus import EventBus
from repro.core.client import BusClient
from repro.core.events import NEW_MEMBER_TYPE, PURGE_MEMBER_TYPE
from repro.core.sharding import ShardedEventBus
from repro.matching.engine import make_engine
from repro.transport.endpoint import PacketEndpoint


class CoreKit:
    """A bus core on node "core" plus helpers to admit/purge members.

    ``shards > 1`` builds the core around a :class:`ShardedEventBus`, so
    any kit-based suite can be re-run against the partitioned bus.
    ``autonomic`` (an AutonomicConfig) attaches the MAPE-K control plane
    over the kit's bus and endpoint; the manager is *not* started on a
    timer — deterministic suites tick it explicitly so
    ``run_until_idle`` still terminates.
    """

    def __init__(self, sim, net, window=None, shards=1, autonomic=None):
        self.sim = sim
        self.net = net
        endpoint_kwargs = {} if window is None else {"window": window}
        self.window = window
        self.core_endpoint = PacketEndpoint(net.add_node("core"), sim,
                                            **endpoint_kwargs)
        if shards > 1:
            self.bus = ShardedEventBus(sim, shards, "forwarding")
        else:
            self.bus = EventBus(sim, make_engine("forwarding"))
        self.bootstrap = ProxyBootstrap(self.bus, self.core_endpoint)
        self.discovery = self.bus.local_publisher("manual-discovery")
        self.autonomic = None
        if autonomic is not None:
            self.autonomic = build_bus_manager(sim, self.bus,
                                               self.core_endpoint, autonomic)

    def device_endpoint(self, name, **kwargs) -> PacketEndpoint:
        if self.window is not None:
            kwargs.setdefault("window", self.window)
        return PacketEndpoint(self.net.add_node(name), self.sim, **kwargs)

    def admit(self, endpoint, name=None, device_type="service"):
        """Publish the New Member event for a device endpoint."""
        node_name = endpoint.local_address
        self.core_endpoint.learn_peer(endpoint.service_id, node_name)
        self.discovery.publish(NEW_MEMBER_TYPE, {
            "member": int(endpoint.service_id),
            "name": name or str(node_name),
            "device_type": device_type,
            "address": str(node_name),
        })
        self.sim.run_until_idle()
        return endpoint.service_id

    def purge(self, member_id, reason="test"):
        self.discovery.publish(PURGE_MEMBER_TYPE, {
            "member": int(member_id), "name": "-", "reason": reason,
        })
        self.sim.run_until_idle()

    def client(self, name, **kwargs) -> BusClient:
        endpoint = self.device_endpoint(name, **kwargs)
        client = BusClient(endpoint, self.sim, "core")
        self.admit(endpoint, name=name)
        return client


@pytest.fixture
def kit(sim, net):
    return CoreKit(sim, net)
