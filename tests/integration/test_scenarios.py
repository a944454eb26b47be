"""Full-stack scenarios over the simulated wireless testbed.

These are the paper's narrative scenarios run end to end: a body-area
network assembling itself, the nurse walking out of the room, a sensor's
battery dying, and policies steering actuators — all over simulated
Bluetooth with real radio range.
"""

import pytest

from repro.devices import (
    DrugPump,
    HeartRateSensor,
    NurseDisplay,
    VitalSignsGenerator,
)
from repro.devices.waveforms import tachycardia
from repro.ids import service_id_from_name
from repro.matching.filters import Filter
from repro.transport.packets import Packet, PacketType
from repro.sim.hosts import PDA_PROFILE, SENSOR_PROFILE, SimHost
from repro.sim.kernel import Simulator
from repro.sim.mobility import WalkAway
from repro.sim.radio import BLUETOOTH, SimNetwork
from repro.sim.rng import RngRegistry
from repro.smc.cell import CellConfig, SelfManagedCell
from repro.transport.endpoint import PacketEndpoint
from repro.transport.simnet import SimTransport

POLICIES = '''
role nurse : actuator.display ;
role pump : actuator.pump ;
role monitor : sensor.hr ;
inst oblig Tachy {
    on health.hr ;
    if hr > 130 ;
    do notify(msg="tachycardia", target=nurse) -> log(what="alarm") ;
    subject monitor ;
    target nurse ;
}
auth- NoSensorDosing { subject monitor ; target pump ; action * ; }
'''


@pytest.fixture
def ban(request):
    """A Bluetooth body-area network builder with a fresh simulator."""
    sim = Simulator()
    network = SimNetwork(sim, RngRegistry(2006))
    medium = network.add_medium("bt", BLUETOOTH)

    def node(name, profile=SENSOR_PROFILE, position=(0.0, 0.0)):
        network.attach(name, SimHost(sim, profile, name), medium, position)
        return PacketEndpoint(SimTransport(network, name), sim)

    return sim, network, node


def build_cell(sim, network, purge_after=15.0):
    network.attach("pda", SimHost(sim, PDA_PROFILE, "pda"),
                   network._media["bt"], (0.0, 0.0))
    cell = SelfManagedCell(SimTransport(network, "pda"), sim,
                           CellConfig(cell_name="patient", patient="p-1",
                                      purge_after_s=purge_after,
                                      silent_after_s=4.0))
    cell.load_policies(POLICIES)
    return cell


class TestBodyAreaScenario:
    def test_cell_self_assembles_and_alarms(self, ban):
        sim, network, node = ban
        cell = build_cell(sim, network)
        vitals = VitalSignsGenerator(RngRegistry(9), patient="p-1",
                                     episodes=[tachycardia(20.0, 20.0,
                                                           165.0)])
        sensor = HeartRateSensor(node("hr-1"), sim, "hr-1", vitals,
                                 period_s=1.0)
        display = NurseDisplay(node("nurse"), sim, "nurse")
        pump = DrugPump(node("pump"), sim, "pump", "p-1")
        cell.start()
        for device in (sensor, display, pump):
            device.start()
        sim.run(60.0)
        assert set(cell.member_names()) == {"hr-1", "nurse", "pump"}
        assert display.messages, "nurse should have been alerted"
        assert cell.log, "policy log should have entries"
        # The auth- policy kept the pump untouched.
        assert pump.delivered_total_ml() == 0.0

    def test_nurse_walkaway_masked(self, ban):
        sim, network, node = ban
        cell = build_cell(sim, network, purge_after=20.0)
        display = NurseDisplay(
            node("nurse", position=WalkAway(t_leave=30.0, t_return=40.0,
                                            distance=100.0)),
            sim, "nurse")
        cell.start()
        display.start()
        purges = []
        cell.subscribe(Filter.where("smc.member.purge"), purges.append)
        sim.run(70.0)
        assert purges == []                 # absence masked, not purged
        assert "nurse" in cell.member_names()

    def test_battery_death_purges_and_queued_events_dropped(self, ban):
        sim, network, node = ban
        cell = build_cell(sim, network, purge_after=10.0)
        display = NurseDisplay(node("nurse"), sim, "nurse")
        cell.start()
        display.start()
        sim.run(5.0)
        member = display.endpoint.service_id
        proxy = cell.bus.proxy_of(member)

        network.set_node_up("nurse", False)      # battery dies
        # Events queue for the dead display until the purge fires.
        for index in range(3):
            cell.publisher("policy").publish(
                "smc.cmd.notify", {"target": "nurse", "msg": f"m{index}"})
        sim.run(40.0)
        assert not cell.bus.is_member(member)
        assert proxy.destroyed
        assert proxy.stats.dropped_on_destroy >= 2

    def test_roaming_nurse_purge_drops_queues_at_every_address(self, ban):
        """Regression for the roaming-channel leak, driven by mobility.

        The nurse's pad walks out of Bluetooth range (WalkAway), then its
        traffic briefly re-appears from a corridor relay address with the
        same service id — the cell moves the pad's one channel, queue
        and all, to the relay address.  When the purge finally fires, the
        proxy's close_channel must drop every queued event and leave no
        channel at either address (once, a roamed peer kept a channel at
        each, and only the latest was torn down).
        """
        sim, network, node = ban
        cell = build_cell(sim, network, purge_after=15.0)
        display = NurseDisplay(
            node("nurse", position=WalkAway(t_leave=20.0, t_return=90.0,
                                            distance=100.0, walk_s=2.0)),
            sim, "nurse")
        # An in-range relay node the roamed traffic will arrive from.  It
        # only forwards: a relay answering as a peer of its own would take
        # the address over, and a handover resets the pad's channel there.
        relay = node("corridor").transport
        relay.set_receiver(lambda src, data: None)
        cell.start()
        display.start()
        sim.run(19.0)
        member = display.endpoint.service_id
        assert cell.bus.is_member(member)
        proxy = cell.bus.proxy_of(member)

        sim.run(25.0)                       # nurse is now out of range
        for index in range(3):              # events queue at "nurse"
            cell.publisher("policy").publish(
                "smc.cmd.notify", {"target": "nurse", "msg": f"m{index}"})
        sim.run(26.0)
        # The pad's traffic surfaces from the corridor with the same id.
        roamed = Packet(type=PacketType.DATA,
                        sender=service_id_from_name("nurse"), seq=1,
                        payload=b"roamed")
        relay.send("pda", roamed.encode())
        sim.run(27.0)
        endpoint = cell.endpoint
        assert endpoint.address_of(member) == "corridor"
        assert endpoint.existing_channel("nurse") is None
        assert endpoint.peer_channel(member).unacked_count() >= 3

        sim.run(60.0)                       # silence -> purge
        assert not cell.bus.is_member(member)
        assert proxy.destroyed
        assert proxy.stats.dropped_on_destroy >= 3
        assert endpoint.peer_channel(member) is None
        assert endpoint.existing_channel("nurse") is None
        assert endpoint.existing_channel("corridor") is None

    def test_rejoin_after_battery_swap(self, ban):
        sim, network, node = ban
        cell = build_cell(sim, network, purge_after=8.0)
        display = NurseDisplay(node("nurse"), sim, "nurse")
        cell.start()
        display.start()
        sim.run(5.0)
        network.set_node_up("nurse", False)
        sim.run(30.0)
        assert "nurse" not in cell.member_names()
        network.set_node_up("nurse", True)
        sim.run(60.0)
        assert "nurse" in cell.member_names()
        # And the display works again after the new session.
        cell.publisher("policy").publish(
            "smc.cmd.notify", {"target": "nurse", "msg": "back online"})
        sim.run(70.0)
        assert display.last_message() == "back online"


class TestDeterminism:
    def test_identical_seeds_identical_outcomes(self):
        def run_once():
            sim = Simulator()
            network = SimNetwork(sim, RngRegistry(77))
            medium = network.add_medium("bt", BLUETOOTH)
            network.attach("pda", SimHost(sim, PDA_PROFILE, "pda"), medium)
            cell = SelfManagedCell(SimTransport(network, "pda"), sim,
                                   CellConfig(cell_name="d", patient="p"))
            cell.load_policies(POLICIES)
            network.attach("hr-1", SimHost(sim, SENSOR_PROFILE, "hr-1"),
                           medium)
            vitals = VitalSignsGenerator(RngRegistry(77), patient="p",
                                         episodes=[tachycardia(10.0, 20.0,
                                                               170.0)])
            sensor = HeartRateSensor(
                PacketEndpoint(SimTransport(network, "hr-1"), sim), sim,
                "hr-1", vitals, period_s=1.0)
            cell.start()
            sensor.start()
            sim.run(40.0)
            return (cell.bus.stats.published,
                    [round(t, 9) for t, *_ in cell.log])

        assert run_once() == run_once()
