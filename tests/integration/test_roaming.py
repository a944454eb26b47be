"""A member that roams keeps its session: one channel per peer, moved.

A roam is a member's datagrams arriving from a new source address while
its own stack — endpoint, channels, client, agent — carries on (a NAT
rebind, or a patient-worn monitor handed between access points).  The
cell moves the member's one channel to the new address with its queue
and sequence space intact, so nothing is parked out of order on one side
or acked as a duplicate on the other.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bootstrap import ProxyBootstrap
from repro.core.bus import EventBus
from repro.devices.base import SmartDevice
from repro.discovery.agent import AgentConfig
from repro.discovery.lifecycle import LifecycleState
from repro.discovery.service import DiscoveryConfig, DiscoveryService
from repro.ids import service_id_from_name
from repro.matching.filters import Filter
from repro.sim.kernel import Simulator
from repro.transport.endpoint import PacketEndpoint
from repro.transport.inmem import InMemoryHub


def rebind(hub, transport, address):
    """Move ``transport`` to a new hub ``address``, keeping its service id
    and everything above it: its later datagrams come from ``address``
    and what is sent there reaches the same stack."""
    del hub._transports[transport.local_address]
    transport._local_address = address
    hub._transports[address] = transport


def test_smart_device_keeps_its_session_across_a_rebind(sim, hub):
    core = PacketEndpoint(hub.create("core"), sim)
    bus = EventBus(sim)
    ProxyBootstrap(bus, core)
    service = DiscoveryService(bus, core, sim, DiscoveryConfig(
        cell_name="cell", beacon_period_s=0.5, heartbeat_period_s=0.5,
        purge_after_s=4.0, sweep_period_s=0.25))
    device = SmartDevice(PacketEndpoint(hub.create("dev"), sim), sim,
                         AgentConfig(name="dev", device_type="service",
                                     beacon_timeout_s=2.0))
    service.start()
    device.start()
    sim.run(2.0)
    at_cell, at_device = [], []
    bus.subscribe_local(Filter.where("vitals.hr"),
                        lambda event: at_cell.append(event.get("n")))
    device.client.subscribe(Filter.where("cmd.display"),
                            lambda event: at_device.append(event.get("n")))
    nurse = bus.local_publisher("nurse")
    sim.run(2.5)
    device.client.publish("vitals.hr", {"n": 0})
    nurse.publish("cmd.display", {"n": 0})
    sim.run(3.0)
    assert (at_cell, at_device) == ([0], [0])

    rebind(hub, device.endpoint.transport, "dev-rebound")
    sim.run(3.6)                        # the next heartbeat is the roam
    member = service.table.get(device.endpoint.service_id)
    assert member.address == "dev-rebound"
    for n in (1, 2):
        device.client.publish("vitals.hr", {"n": n})
        nurse.publish("cmd.display", {"n": n})
    sim.run(6.0)

    assert at_cell == [0, 1, 2]
    assert at_device == [0, 1, 2]
    assert member.lifecycle is LifecycleState.HEALTHY
    assert service.stats.roams == 1
    assert core.address_of(device.endpoint.service_id) == "dev-rebound"
    assert core.live_channels() == [core.existing_channel("dev-rebound")]


# -- generated interleavings: two endpoints, roams and handovers ---------------

OPS = st.lists(st.one_of(
    st.just(("publish",)),
    st.just(("deliver",)),
    st.just(("roam",)),
    st.just(("handover",)),
    st.just(("fault", "drop")),
    st.just(("fault", "duplicate")),
    st.tuples(st.just("advance"), st.sampled_from([0.01, 0.2, 1.0, 3.0])),
), max_size=30)


class RoamRig:
    """One cell-side and one member-side endpoint on an in-memory hub.

    The member roams by moving its transport to a fresh address (the
    address it left becomes a black hole); a handover gives a retired
    member address to a stranger peer, once the cell has heard the member
    somewhere else.  A fault arms the hub to drop or duplicate its next
    datagram.
    """

    def __init__(self):
        self.sim = Simulator()
        self.hub = InMemoryHub(self.sim)
        self.cell = PacketEndpoint(self.hub.create("cell"), self.sim)
        self.member = PacketEndpoint(self.hub.create("a0"), self.sim)
        self.member_id = self.member.service_id
        self.up, self.down, self.strangers = [], [], {}
        self.at_cell, self.at_member, self.from_strangers = [], [], []
        self.cell.set_payload_handler(self._cell_got)
        self.member.set_payload_handler(
            lambda peer, data: self.at_member.append(bytes(data)))
        self.retired = []
        self.fault = None
        self.hub.drop_filter = self._filter
        self.publish()
        self.settle()                   # the cell has heard the member

    def _cell_got(self, peer, data):
        if peer == self.member_id:
            self.at_cell.append(bytes(data))
        else:
            self.from_strangers.append((peer, bytes(data)))

    def _filter(self, src, dest, data):
        fault, self.fault = self.fault, None
        if fault == "duplicate":
            self.hub.inject(src, dest, data)
        return fault != "drop"

    def settle(self):
        self.sim.run(self.sim.now())

    def publish(self):
        payload = b"up%d" % len(self.up)
        self.up.append(payload)
        self.member.send_reliable("cell", payload)

    def deliver(self):
        payload = b"down%d" % len(self.down)
        self.down.append(payload)
        self.cell.send_reliable(self.cell.address_of(self.member_id), payload)

    def roam(self):
        old = self.member.local_address
        rebind(self.hub, self.member.transport, "a%d" % (len(self.retired) + 1))
        self.hub.create(old).set_receiver(lambda src, data: None)
        self.retired.append(old)

    def handover(self):
        free = [address for address in self.retired
                if address not in self.strangers
                and address != self.cell.address_of(self.member_id)]
        if not free:
            return
        address = free[0]
        transport = self.hub._transports[address]
        transport._service_id = service_id_from_name("stranger-" + address)
        stranger = PacketEndpoint(transport, self.sim)
        stranger.send_reliable("cell", b"hello from " + address.encode())
        self.strangers[address] = stranger

    def run(self, op):
        if op[0] == "fault":
            self.fault = op[1]
        elif op[0] == "advance":
            self.sim.run(self.sim.now() + op[1])
        else:
            getattr(self, op[0])()
        self.settle()
        self.check_one_channel_per_peer()

    def check_one_channel_per_peer(self):
        cell = self.cell
        assert {address: peer for peer, address
                in cell._peer_addresses.items()} == cell._address_peers
        assert set(cell._channels) <= set(cell._address_peers)
        for address, channel in cell._channels.items():
            assert channel.peer_address == address

    def finish(self):
        """Heal the hub, have the member speak from where it is, and give
        every queue time to drain (a desynchronised channel would
        retransmit forever)."""
        self.fault = None
        self.publish()
        self.sim.run(self.sim.now() + 30.0)
        self.check_one_channel_per_peer()
        for endpoint in (self.cell, self.member, *self.strangers.values()):
            assert all(channel.unacked_count() == 0
                       for channel in endpoint.live_channels())


@settings(max_examples=150, deadline=None)
@given(OPS)
def test_generated_roams_keep_exactly_once_fifo_and_one_channel(ops):
    rig = RoamRig()
    for op in ops:
        rig.run(op)
    rig.finish()
    cell, member = rig.cell, rig.member
    # Exactly once, per-sender FIFO, both directions.
    assert rig.at_cell == rig.up
    assert rig.at_member == rig.down
    assert sorted(rig.from_strangers) == sorted(
        (stranger.service_id, b"hello from " + address.encode())
        for address, stranger in rig.strangers.items())
    # One channel per peer, at its current address.
    assert cell.address_of(rig.member_id) == member.local_address
    channels = {channel.peer_address for channel in cell.live_channels()}
    assert channels == {member.local_address, *rig.strangers}
    # Teardown leaves no channel, forward or reverse entry on either side.
    cell.close_channel(rig.member_id)
    member.reset_channel_to("cell")
    assert member.local_address not in cell._channels
    assert member.local_address not in cell._address_peers
    assert not cell.knows_peer(rig.member_id)
    assert member._channels == {} and member._address_peers == {}
    assert not member.knows_peer(cell.service_id)
