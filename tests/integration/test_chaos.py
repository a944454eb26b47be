"""Seeded chaos soak: the fault harness proving the lifecycle machinery.

One simulated cell, seven devices, and a :class:`~repro.sim.faults.
FaultPlan` that crashes a member mid-heartbeat-interval, freezes another
through a GC-pause window, flaps a third's link, corrupts/duplicates/
delays a publisher's datagrams, and drains a subscriber gracefully —
all at seeded instants, so a failure is a reproduction recipe.

Invariants asserted after the storm:

* every ghost is detected DEGRADED within the advertised bound
  (3 x heartbeat + one sweep period) and eventually purged;
* BusStats conservation — ``published == matched + unmatched +
  duplicates_dropped + from_unknown_member`` — survives every fault;
* a never-faulted subscriber receives every event from a never-faulted
  publisher exactly once, in FIFO order, and a mangled link degrades to
  *loss only* (the CRC eats corruption; dedup eats duplicates);
* the draining member's queue flushes completely before teardown:
  zero matched-event loss on planned departure.

A second class replays the core faults in deployment mode: real UDP
sockets, a sharded cell with match workers, a SIGKILLed worker and a
crashed device — same invariants.
"""

import os
import signal
import time

import pytest

from repro.core.bootstrap import ProxyBootstrap
from repro.core.bus import EventBus
from repro.core.client import BusClient
from repro.core.events import MEMBER_STATE_TYPE, PURGE_MEMBER_TYPE
from repro.discovery.agent import AgentConfig, DiscoveryAgent
from repro.discovery.lifecycle import LifecycleState
from repro.discovery.service import DiscoveryConfig, DiscoveryService
from repro.matching.filters import Filter
from repro.sim.faults import FaultPlan, HubFaults
from repro.smc.cell import CellConfig

CHAOS_EVENTS = 200     # steady publisher, clean link
NOISE_EVENTS = 100     # noisy publisher, mangled link


def assert_conservation(stats):
    assert stats.published == (stats.matched + stats.unmatched
                               + stats.duplicates_dropped
                               + stats.from_unknown_member), stats


class ChaosCell:
    """A cell plus named devices on one hub, with fast lifecycle timers."""

    HEARTBEAT_S = 0.2
    SWEEP_S = 0.1

    def __init__(self, sim, endpoints):
        self.sim = sim
        core = endpoints("core")
        self.bus = EventBus(sim)
        ProxyBootstrap(self.bus, core)
        self.service = DiscoveryService(
            self.bus, core, sim,
            DiscoveryConfig(cell_name="chaos-ward",
                            beacon_period_s=0.2,
                            heartbeat_period_s=self.HEARTBEAT_S,
                            silent_after_s=0.6, purge_after_s=2.0,
                            sweep_period_s=self.SWEEP_S,
                            drain_deadline_s=5.0))
        self.agents = {}
        self.clients = {}
        self.purges = []            # (name, reason)
        self.bus.subscribe_local(
            Filter.where(PURGE_MEMBER_TYPE),
            lambda e: self.purges.append((e.get("name"), e.get("reason"))))
        self.silences = []          # silence_s of each DEGRADED move
        self.bus.subscribe_local(
            Filter.where(MEMBER_STATE_TYPE, state="degraded"),
            lambda e: self.silences.append(e.get("silence_s")))
        self._endpoints = endpoints

    def device(self, name, with_client=False):
        endpoint = self._endpoints(name)
        agent = DiscoveryAgent(endpoint, self.sim,
                               AgentConfig(name=name, device_type="service",
                                           beacon_timeout_s=3.0))
        self.agents[name] = agent
        if with_client:
            client = BusClient(endpoint, self.sim, None)
            agent.on_joined = (lambda _c, addr, c=client:
                               setattr(c, "bus_address", addr))
            self.clients[name] = client
        return agent

    def start(self):
        self.service.start()
        for agent in self.agents.values():
            agent.start()

    def record(self, name):
        return self.service.table.get(self.agents[name].endpoint.service_id)

    def purge_reasons(self, name):
        return [reason for who, reason in self.purges if who == name]


def test_chaos_soak_detection_conservation_and_drain(sim, hub, endpoints):
    cell = ChaosCell(sim, endpoints)
    cell.device("steady-pub", with_client=True)
    cell.device("steady-sub", with_client=True)
    cell.device("drainer", with_client=True)
    cell.device("ghost", with_client=True)
    cell.device("sleeper")
    cell.device("walker")
    cell.device("noisy", with_client=True)
    cell.start()

    # Everyone joins on a clean network, then the subscriptions settle.
    sim.run(2.5)
    assert all(agent.joined for agent in cell.agents.values())
    chaos_inbox, noise_inbox, drain_inbox, ghost_inbox = [], [], [], []
    cell.clients["steady-sub"].subscribe(
        Filter.where("chaos.data"), lambda e: chaos_inbox.append(e.get("n")))
    cell.clients["steady-sub"].subscribe(
        Filter.where("noise.data"), lambda e: noise_inbox.append(e.get("n")))
    cell.clients["drainer"].subscribe(
        Filter.where("chaos.data"), lambda e: drain_inbox.append(e.get("n")))
    cell.clients["ghost"].subscribe(
        Filter.where("chaos.data"), lambda e: ghost_inbox.append(e.get("n")))
    ghost_proxy = cell.bus.proxy_of(cell.agents["ghost"].endpoint.service_id)
    drain_proxy = cell.bus.proxy_of(
        cell.agents["drainer"].endpoint.service_id)

    # The traffic: a clean stream and a mangled stream, both seqno'd.
    chaos_sent, noise_sent = [], []

    def publish(client_name, event_type, sent, n):
        event = cell.clients[client_name].publish(event_type, {"n": n})
        if event is not None:
            sent.append(n)

    for n in range(CHAOS_EVENTS):
        sim.call_at(3.0 + n * 0.05, publish, "steady-pub", "chaos.data",
                    chaos_sent, n)
    for n in range(NOISE_EVENTS):
        sim.call_at(4.0 + n * 0.1, publish, "noisy", "noise.data",
                    noise_sent, n)

    # The storm, compiled up-front from one seed.
    faults = HubFaults(hub, rng_seed=1337)
    plan = FaultPlan(sim, seed=1337)
    plan.at(4.0, "mangle core|noisy",
            lambda: faults.mangle("core", "noisy", corrupt_rate=0.1,
                                  duplicate_rate=0.1, delay_s=0.01))
    plan.crash(plan.jittered(5.0, 0.2), faults, "ghost")
    plan.freeze(6.0, faults, "sleeper", 1.2)
    plan.flap(8.0, faults, "core", "walker", 0.3, 3)
    plan.at(14.5, "clear mangle core|noisy",
            lambda: faults.clear_mangle("core", "noisy"))
    plan.at(14.5, "drain drainer",
            lambda: cell.agents["drainer"].leave_gracefully())
    assert len(plan.log) == 12          # the full reproduction recipe

    sim.run(25.0)

    # -- ghost detection within the advertised bound -----------------------
    threshold = cell.service.config.silent_after_s
    assert cell.silences, "no degradation ever detected"
    assert all(lat <= threshold + cell.SWEEP_S + 1e-9
               for lat in cell.silences)
    assert cell.service.stats.degradations >= 2     # ghost and sleeper
    assert cell.purge_reasons("ghost") == ["timeout"]
    assert cell.record("ghost") is None
    # The ghost's queued deliveries died with its proxy — that is the
    # crash cost, and it is confined to the crashed member.
    assert ghost_proxy.destroyed
    assert ghost_proxy.stats.dropped_on_destroy > 0

    # -- transient victims recovered ---------------------------------------
    assert cell.record("sleeper").lifecycle is LifecycleState.HEALTHY
    assert cell.record("walker").lifecycle is LifecycleState.HEALTHY
    assert cell.agents["sleeper"].joined
    assert cell.agents["walker"].joined

    # -- healthy members saw no loss, no duplication, no reordering --------
    assert chaos_sent == list(range(CHAOS_EVENTS))
    assert chaos_inbox == list(range(CHAOS_EVENTS))
    assert noise_sent == list(range(NOISE_EVENTS))
    assert sorted(noise_inbox) == list(range(NOISE_EVENTS))
    assert len(noise_inbox) == len(set(noise_inbox))
    assert faults.injected > 0, "the mangle never actuated"
    assert hub.datagrams_dropped > 0, "the storm never dropped a datagram"

    # -- the graceful departure lost nothing -------------------------------
    assert cell.purge_reasons("drainer") == ["drain"]
    assert drain_inbox == list(range(CHAOS_EVENTS))
    assert drain_proxy.destroyed
    assert drain_proxy.stats.dropped_on_destroy == 0
    assert cell.service.stats.drains_completed == 1
    assert cell.service.stats.drain_timeouts == 0

    # -- exact accounting through it all -----------------------------------
    assert_conservation(cell.bus.stats)


def test_chaos_soak_is_deterministic(sim, hub, endpoints):
    """Same seed, same storm: the plan's log is the reproduction recipe."""
    faults = HubFaults(hub, rng_seed=7)
    plan = FaultPlan(sim, seed=7)
    instants = [plan.jittered(1.0, 0.5) for _ in range(5)]
    plan2 = FaultPlan(sim, seed=7)
    assert [plan2.jittered(1.0, 0.5) for _ in range(5)] == instants
    payload = bytes(range(64))
    faults.mangle("a", "b", corrupt_rate=1.0)
    faults2 = HubFaults(hub, rng_seed=7)
    faults2.mangle("a", "b", corrupt_rate=1.0)
    assert faults._rng.random() == faults2._rng.random()


class TestUdpChaos:
    """The same faults on real sockets: sharded cell, match workers."""

    @pytest.fixture
    def server(self):
        from repro.deploy.server import CellServer, ServerConfig
        config = ServerConfig(
            cell=CellConfig(cell_name="chaos-udp", shards=4,
                            beacon_period_s=0.05, heartbeat_period_s=0.05,
                            silent_after_s=0.3, purge_after_s=1.5,
                            sweep_period_s=0.05),
            discovery_port=0, guard_period_s=0.05, workers=2)
        cell_server = CellServer(config)
        cell_server.start()
        yield cell_server
        cell_server.close()

    @staticmethod
    def wait(server, condition, timeout=15.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            server.run_for(0.02)
            if condition():
                return True
        return condition()

    def test_worker_sigkill_and_device_crash_mid_stream(self, server):
        from repro.deploy.harness import LoopbackDevice
        devices = {
            name: LoopbackDevice(
                server.scheduler, server.address,
                AgentConfig(name=name, device_type="service",
                            announce_retry_s=0.05, beacon_timeout_s=10.0))
            for name in ("chaos-pub", "chaos-sub", "chaos-ghost")
        }
        try:
            for device in devices.values():
                device.start()
            assert self.wait(server, lambda: all(
                d.joined for d in devices.values())), "devices never joined"

            inbox = []
            devices["chaos-sub"].subscribe(
                Filter.where("ward.hr"), lambda e: inbox.append(e.get("n")))
            server.run_for(0.2)

            for n in range(30):
                devices["chaos-pub"].publish("ward.hr", {"n": n})
                server.run_for(0.01)

            # SIGKILL a match worker mid-stream; the guard respawns it and
            # the stream continues.
            victim = server.worker_pool.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            for n in range(30, 60):
                devices["chaos-pub"].publish("ward.hr", {"n": n})
                server.run_for(0.01)
            assert self.wait(
                server,
                lambda: server.worker_pool.stats.respawns >= 1), \
                "worker never respawned"
            assert victim not in server.worker_pool.worker_pids()

            assert self.wait(server, lambda: len(inbox) == 60), \
                f"subscriber saw {len(inbox)}/60 events"
            assert sorted(inbox) == list(range(60))
            assert len(set(inbox)) == 60

            # A device crashes without a word: degraded, then purged.
            discovery = server.cell.discovery
            silences = []
            server.cell.subscribe(
                Filter.where(MEMBER_STATE_TYPE, state="degraded"),
                lambda e: silences.append(e.get("silence_s")))
            ghost_id = devices["chaos-ghost"].service_id
            devices["chaos-ghost"].crash()
            assert self.wait(server, lambda: silences), \
                "crash never detected DEGRADED"
            threshold = discovery.config.silent_after_s
            assert all(lat <= threshold + discovery.config.sweep_period_s
                       + 0.5           # realtime scheduler slop
                       for lat in silences)
            assert self.wait(
                server, lambda: discovery.table.get(ghost_id) is None), \
                "ghost never purged"

            # A planned departure drains cleanly even on real sockets.
            devices["chaos-pub"].leave_gracefully()
            assert self.wait(
                server,
                lambda: discovery.stats.drains_completed >= 1), \
                "graceful drain never completed"
            assert discovery.stats.drain_timeouts == 0

            assert_conservation(server.cell.bus.stats)
        finally:
            for device in devices.values():
                device.close()
