"""The assembled Self-Managed Cell."""

import pytest

from repro.core.events import NEW_MEMBER_TYPE
from repro.core.proxies import SensorProxy
from repro.devices.actuators import ManualSensor, NurseDisplay
from repro.devices.protocols import HeartRateProtocol
from repro.errors import ConfigurationError
from repro.ids import ServiceId
from repro.matching.filters import Filter
from repro.matching.siena import SienaTranslationBackend
from repro.sim.hosts import PDA_PROFILE, SENSOR_PROFILE, SimHost
from repro.smc.cell import CellConfig, SelfManagedCell
from repro.transport.endpoint import PacketEndpoint
from repro.transport.simnet import SimTransport

POLICY_SRC = '''
role nurse : actuator.display ;
role monitor : sensor.hr ;
inst oblig Tachy {
    on health.hr ;
    if hr > 120 ;
    do notify(msg="alarm", target=nurse) -> log(what="hr", hr=$hr) ;
    subject monitor ;
    target nurse ;
}
'''


@pytest.fixture
def make_cell(sim, simnet):
    def factory(**config):
        simnet.add_node("pda", profile=PDA_PROFILE)
        defaults = dict(cell_name="ward", patient="p-1")
        defaults.update(config)
        return SelfManagedCell(SimTransport(simnet, "pda"), sim,
                               CellConfig(**defaults))
    return factory


@pytest.fixture
def device_endpoint(sim, simnet):
    def factory(name):
        simnet.add_node(name, profile=SENSOR_PROFILE)
        return PacketEndpoint(SimTransport(simnet, name), sim)
    return factory


class TestAssembly:
    def test_start_stop(self, make_cell):
        cell = make_cell()
        cell.start()
        assert cell.discovery.running
        cell.stop()
        assert not cell.discovery.running

    def test_double_start_rejected(self, make_cell):
        cell = make_cell()
        cell.start()
        with pytest.raises(ConfigurationError):
            cell.start()

    def test_engine_selection(self, make_cell):
        cell = make_cell(engine="siena")
        assert isinstance(cell.engine, SienaTranslationBackend)

    def test_cost_meter_wired_to_sim_host(self, make_cell):
        cell = make_cell(engine="siena")
        assert cell.engine._meter is cell.transport.host
        assert cell.bus.meter is cell.transport.host

    def test_standard_translators_registered(self, make_cell, sim):
        cell = make_cell()
        discovery = cell.publisher("discovery")
        for member, device_type in ((101, "sensor.hr"), (102, "actuator.pump")):
            cell.endpoint.learn_peer(ServiceId(member), f"node-{member}")
            discovery.publish(NEW_MEMBER_TYPE, {
                "member": member, "name": device_type,
                "device_type": device_type, "address": f"node-{member}"})
        sim.run_until_idle()
        for member in (101, 102):
            assert isinstance(cell.bus.proxy_of(ServiceId(member)),
                              SensorProxy)

    def test_quench_optional(self, make_cell):
        assert make_cell().quench is None

    def test_quench_enabled(self, sim, simnet):
        simnet.add_node("pda2", profile=PDA_PROFILE)
        cell = SelfManagedCell(SimTransport(simnet, "pda2"), sim,
                               CellConfig(cell_name="q", enable_quench=True))
        assert cell.quench is not None
        assert cell.bus.quench is cell.quench


class TestEndToEndPolicyFlow:
    def test_sensor_to_nurse_via_policy(self, sim, make_cell,
                                        device_endpoint):
        cell = make_cell()
        cell.load_policies(POLICY_SRC)
        sensor = ManualSensor(device_endpoint("hr-1"), sim, "hr-1",
                              "sensor.hr")
        display = NurseDisplay(device_endpoint("nurse"), sim, "nurse")
        cell.start()
        sensor.start()
        display.start()
        sim.run(4.0)
        assert set(cell.member_names()) == {"hr-1", "nurse"}

        proto = HeartRateProtocol("p-1")
        sensor.send_reading(proto.encode_reading(90.0))    # quiet
        sensor.send_reading(proto.encode_reading(150.0))   # alarm
        sim.run(10.0)
        assert display.last_message() == "alarm"
        assert len(cell.log) == 1
        assert cell.log[0][2]["hr"] == 150.0

    def test_cell_subscribe_helper(self, sim, make_cell):
        cell = make_cell()
        got = []
        cell.subscribe(Filter.where("t"), got.append)
        cell.publisher("svc").publish("t", {"v": 1})
        sim.run_until_idle()
        assert len(got) == 1

    def test_repr_is_informative(self, make_cell):
        cell = make_cell()
        text = repr(cell)
        assert "ward" in text and "forwarding" in text
