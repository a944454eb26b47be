"""Device models over a simulated cell: sensors, actuators, waveforms."""

import pytest

from repro.core import protocol
from repro.core.events import Event
from repro.core.protocol import BusOp
from repro.devices.actuators import DrugPump, ManualSensor, NurseDisplay
from repro.devices.protocols import PumpProtocol
from repro.devices.sensors import (
    ECGMonitor,
    ECGSink,
    HeartRateSensor,
    TemperatureSensor,
)
from repro.devices.waveforms import (
    Episode,
    VitalSignsGenerator,
    desaturation,
    fever,
    tachycardia,
)
from repro.matching.filters import Filter
from repro.sim.hosts import PDA_PROFILE, SENSOR_PROFILE, SimHost
from repro.sim.rng import RngRegistry
from repro.smc.cell import CellConfig, SelfManagedCell
from repro.transport.endpoint import PacketEndpoint
from repro.transport.simnet import SimTransport


@pytest.fixture
def cell_net(sim, simnet):
    """A started cell on node 'pda' plus an endpoint factory."""
    simnet.add_node("pda", profile=PDA_PROFILE)
    cell = SelfManagedCell(SimTransport(simnet, "pda"), sim,
                           CellConfig(cell_name="ward", patient="p-1",
                                      purge_after_s=5.0))
    cell.start()

    def endpoint(name):
        simnet.add_node(name, profile=SENSOR_PROFILE)
        return PacketEndpoint(SimTransport(simnet, name), sim)

    return cell, endpoint


class TestWaveforms:
    def test_deterministic_for_seed(self):
        a = VitalSignsGenerator(RngRegistry(5), patient="p")
        b = VitalSignsGenerator(RngRegistry(5), patient="p")
        for t in (0.0, 10.0, 100.0):
            assert a.sample(t).hr == b.sample(t).hr

    def test_baseline_ranges(self):
        vitals = VitalSignsGenerator(RngRegistry(1), patient="p")
        for t in range(0, 600, 30):
            sample = vitals.sample(float(t))
            assert 50 < sample.hr < 100
            assert 90 < sample.spo2 <= 100
            assert 35.5 < sample.temp < 38.0
            assert sample.diastolic < sample.systolic

    def test_tachycardia_episode_peaks(self):
        vitals = VitalSignsGenerator(RngRegistry(1), patient="p",
                                     episodes=[tachycardia(100.0, 60.0,
                                                           160.0)])
        assert vitals.sample(130.0).hr > 140
        assert vitals.sample(50.0).hr < 100
        assert vitals.sample(200.0).hr < 100

    def test_desaturation_trough(self):
        vitals = VitalSignsGenerator(RngRegistry(1), patient="p",
                                     episodes=[desaturation(100.0, 40.0,
                                                            84.0)])
        assert vitals.sample(120.0).spo2 < 90

    def test_fever_rises(self):
        vitals = VitalSignsGenerator(RngRegistry(1), patient="p",
                                     episodes=[fever(0.0, 1000.0, 39.5)])
        assert vitals.sample(500.0).temp > 38.5

    def test_bad_episode_rejected(self):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            Episode("hr", 0.0, 0.0, 100.0)

    def test_ecg_burst_shape(self):
        vitals = VitalSignsGenerator(RngRegistry(1), patient="p")
        samples = vitals.ecg_samples(0.0, 128)
        assert len(samples) == 128
        assert max(samples) > 0.5          # an R spike is present


class TestSensorsInCell:
    def test_heart_rate_readings_reach_bus(self, sim, cell_net):
        cell, endpoint = cell_net
        vitals = VitalSignsGenerator(RngRegistry(2), patient="p-1")
        sensor = HeartRateSensor(endpoint("hr-1"), sim, "hr-1", vitals,
                                 period_s=0.5)
        got = []
        cell.subscribe(Filter.where("health.hr"), got.append)
        sensor.start()
        sim.run(5.0)
        assert sensor.joined
        assert len(got) >= 6
        assert all(e.get("patient") == "p-1" for e in got)

    def test_threshold_command_retunes_device(self, sim, cell_net):
        cell, endpoint = cell_net
        vitals = VitalSignsGenerator(RngRegistry(2), patient="p-1")
        sensor = HeartRateSensor(endpoint("hr-1"), sim, "hr-1", vitals,
                                 threshold_bpm=120.0)
        sensor.start()
        sim.run(3.0)
        cell.publisher("policy").publish(
            "smc.cmd.set_threshold", {"target": "monitor", "value": 65})
        sim.run(6.0)
        assert sensor.threshold_bpm == 65.0
        assert sensor.stats.commands_received >= 1

    def test_period_command_changes_rate(self, sim, cell_net):
        cell, endpoint = cell_net
        vitals = VitalSignsGenerator(RngRegistry(2), patient="p-1")
        sensor = HeartRateSensor(endpoint("hr-1"), sim, "hr-1", vitals,
                                 period_s=1.0)
        sensor.start()
        sim.run(3.0)
        cell.publisher("policy").publish(
            "smc.cmd.set_period", {"target": "monitor", "value": 0.25})
        sim.run(4.0)
        assert sensor.period_s == 0.25

    def test_unreliable_temperature_sensor(self, sim, cell_net):
        cell, endpoint = cell_net
        vitals = VitalSignsGenerator(RngRegistry(2), patient="p-1")
        sensor = TemperatureSensor(endpoint("temp-1"), sim, "temp-1", vitals,
                                   period_s=1.0, reliable=False)
        got = []
        cell.subscribe(Filter.where("health.temp"), got.append)
        sensor.start()
        sim.run(6.0)
        assert len(got) >= 3

    def test_sensor_stops_reporting_when_cell_lost(self, sim, simnet,
                                                   cell_net):
        cell, endpoint = cell_net
        vitals = VitalSignsGenerator(RngRegistry(2), patient="p-1")
        sensor = HeartRateSensor(endpoint("hr-1"), sim, "hr-1", vitals,
                                 period_s=0.5)
        sensor.start()
        sim.run(3.0)
        sent_before = sensor.stats.readings_sent
        simnet.set_link_blocked("pda", "hr-1", True)
        sim.run(10.0)          # agent loses beacons, stops reporting
        assert not sensor.joined
        resting = sensor.stats.readings_sent
        sim.run(12.0)
        assert sensor.stats.readings_sent == resting
        assert sent_before <= resting


class TestECGBypass:
    def test_stream_bypasses_bus(self, sim, cell_net):
        cell, endpoint = cell_net
        sink = ECGSink(endpoint("station"))
        vitals = VitalSignsGenerator(RngRegistry(2), patient="p-1")
        monitor = ECGMonitor(endpoint("ecg-1"), sim, "ecg-1", vitals,
                             sink_address="station", period_s=0.2)
        bus_events = []
        cell.subscribe(Filter.for_type_prefix("health."), bus_events.append)
        monitor.start()
        sim.run(5.0)
        assert monitor.joined                      # it IS a member
        assert sink.bursts_received > 10           # data flows to the sink
        assert sink.samples_received == sink.bursts_received * 64
        assert bus_events == []                    # but not via the bus

    def test_waveform_values_survive_transport(self, sim, cell_net):
        cell, endpoint = cell_net
        sink = ECGSink(endpoint("station"))
        vitals = VitalSignsGenerator(RngRegistry(2), patient="p-1")
        monitor = ECGMonitor(endpoint("ecg-1"), sim, "ecg-1", vitals,
                             sink_address="station", period_s=0.5,
                             samples_per_burst=32)
        monitor.start()
        sim.run(3.0)
        assert len(sink.last_burst) == 32
        assert all(-3.0 < v < 3.0 for v in sink.last_burst)


class TestActuators:
    def test_pump_executes_dose_command(self, sim, cell_net):
        cell, endpoint = cell_net
        pump = DrugPump(endpoint("pump-1"), sim, "pump-1", "p-1",
                        reservoir_ml=10.0)
        pump.start()
        sim.run(3.0)
        cell.publisher("clinician").publish(
            "smc.cmd.deliver_dose", {"target": "pump", "dose_ml": 2.0})
        sim.run(6.0)
        assert pump.delivered_total_ml() == 2.0
        assert pump.reservoir_ml == 8.0

    def test_pump_hourly_rate_limit(self, sim, cell_net):
        cell, endpoint = cell_net
        pump = DrugPump(endpoint("pump-1"), sim, "pump-1", "p-1",
                        max_hourly_ml=5.0)
        pump.start()
        sim.run(3.0)
        clinician = cell.publisher("clinician")
        for _ in range(4):
            clinician.publish("smc.cmd.deliver_dose",
                              {"target": "pump", "dose_ml": 2.0})
        sim.run(10.0)
        assert pump.delivered_total_ml() == 4.0     # 2 doses, then refused
        assert pump.refused_doses == 2

    def test_batched_commands_all_reach_the_pump(self, sim, cell_net):
        # One publish_batch is one slice for the pump's proxy, which wraps
        # two or more frames in BATCH like any proxy: the dumb device has
        # to unpack it, or the channel acks doses nobody delivers.
        cell, endpoint = cell_net
        pump = DrugPump(endpoint("pump-1"), sim, "pump-1", "p-1")
        pump.start()
        sim.run(3.0)
        dose = ("smc.cmd.deliver_dose", {"target": "pump", "dose_ml": 2.0})
        cell.publisher("clinician").publish_batch([dose, dose])
        sim.run(6.0)
        assert pump.delivered_total_ml() == 4.0
        assert pump.stats.commands_received == 2

    def test_capacity_split_batch_reaches_the_pump_in_order(self, sim,
                                                             cell_net):
        # Five commands toward a member that holds two: BATCH, BATCH, and
        # a lone unwrapped frame, executed in publication order.
        cell, endpoint = cell_net
        pump = DrugPump(endpoint("pump-1"), sim, "pump-1", "p-1")
        pump.start()
        sim.run(3.0)
        proxy = cell.bus.proxy_of(pump.endpoint.service_id)
        proxy.capacity = 2
        flushed = proxy.stats.batches_flushed
        doses = [0.5, 1.0, 1.5, 2.0, 2.5]
        cell.publisher("clinician").publish_batch(
            [("smc.cmd.deliver_dose", {"target": "pump", "dose_ml": dose})
             for dose in doses])
        sim.run(6.0)
        assert [record.dose_ml for record in pump.doses] == doses
        assert proxy.stats.batches_flushed == flushed + 1
        assert proxy.endpoint.peer_channel(proxy.member_id).stats.sent >= 3

    def test_bad_frame_in_a_batch_costs_only_itself(self, sim, cell_net):
        _, endpoint = cell_net
        pump = DrugPump(endpoint("pump-1"), sim, "pump-1", "p-1")
        dose = Event("smc.cmd.deliver_dose", {"dose_ml": 1.0}, 1, 1, 0.0)
        command = protocol.frame(
            BusOp.DEVICE_CMD, PumpProtocol("p-1").encode_command(dose))
        nested = protocol.frame_batch([command, command])
        pump._on_payload(None, protocol.frame_batch(
            [command, b"", b"\xff", nested, command]))
        assert pump.delivered_total_ml() == 2.0

    def test_pump_refuses_empty_reservoir(self, sim, cell_net):
        cell, endpoint = cell_net
        pump = DrugPump(endpoint("pump-1"), sim, "pump-1", "p-1",
                        reservoir_ml=1.0, max_hourly_ml=100.0)
        pump.start()
        sim.run(3.0)
        cell.publisher("clinician").publish(
            "smc.cmd.deliver_dose", {"target": "pump", "dose_ml": 3.0})
        sim.run(6.0)
        assert pump.delivered_total_ml() == 0.0
        assert pump.refused_doses == 1

    def test_nurse_display_shows_messages(self, sim, cell_net):
        cell, endpoint = cell_net
        display = NurseDisplay(endpoint("nurse"), sim, "nurse")
        display.start()
        sim.run(3.0)
        cell.publisher("policy").publish(
            "smc.cmd.notify", {"target": "nurse", "msg": "code blue"})
        sim.run(6.0)
        assert display.last_message() == "code blue"

    def test_manual_sensor_send_reading(self, sim, cell_net):
        cell, endpoint = cell_net
        device = ManualSensor(endpoint("m"), sim, "m", "sensor.hr")
        assert device.send_reading(b"x") is False     # not joined yet
        device.start()
        sim.run(3.0)
        from repro.devices.protocols import HeartRateProtocol
        got = []
        cell.subscribe(Filter.where("health.hr"), got.append)
        assert device.send_reading(
            HeartRateProtocol("p-1").encode_reading(99.0)) is True
        sim.run(5.0)
        assert [e.get("hr") for e in got] == [99.0]


class TestSmartDeviceNewSession:
    """Purge -> rejoin -> publish / deliver on the ideal network: the
    agent's new-session rule resets the channel and re-issues the
    subscriptions, whichever stack the client sits in."""

    def test_purged_smart_devices_work_again_after_rejoining(self, sim, net):
        from repro.core.bootstrap import ProxyBootstrap
        from repro.core.bus import EventBus
        from repro.devices.base import SmartDevice
        from repro.discovery.agent import AgentConfig
        from repro.discovery.service import DiscoveryConfig, DiscoveryService

        core = PacketEndpoint(net.add_node("core"), sim)
        bus = EventBus(sim)
        ProxyBootstrap(bus, core)
        service = DiscoveryService(bus, core, sim, DiscoveryConfig(
            cell_name="cell", beacon_period_s=0.5, heartbeat_period_s=0.5,
            purge_after_s=4.0, sweep_period_s=0.25))

        connections = []

        class Recorder(SmartDevice):
            def on_connected(self, client, *, rejoined):
                connections.append((self.name, rejoined))

        publisher, subscriber = (
            Recorder(PacketEndpoint(net.add_node(name), sim), sim,
                     AgentConfig(name=name, device_type="service",
                                 beacon_timeout_s=2.0))
            for name in ("pub", "sub"))
        service.start()
        publisher.start()
        subscriber.start()
        sim.run(2.0)
        got = []
        subscriber.client.subscribe(Filter.where("vitals.hr"),
                                    lambda event: got.append(event.get("n")))
        publisher.client.publish("vitals.hr", {"n": 1})
        sim.run(3.0)
        assert got == [1]

        net.set_node_up("core", False)          # the cell drops off the air
        sim.run(12.0)
        assert len(service.table) == 0
        assert not publisher.joined and not subscriber.joined
        assert publisher.client.publish("vitals.hr", {"n": 99}) is None
        net.set_node_up("core", True)
        sim.run(20.0)
        assert publisher.joined and subscriber.joined
        assert connections == [("pub", False), ("sub", False),
                               ("pub", True), ("sub", True)]

        publisher.client.publish("vitals.hr", {"n": 2})
        sim.run(22.0)
        assert got == [1, 2]
        proxy = bus.proxy_of(publisher.endpoint.service_id)
        assert proxy.stats.events_published == 1        # a fresh proxy
        assert core.existing_channel("pub").stats.out_of_order == 0
