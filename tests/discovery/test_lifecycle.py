"""The member state machine: DEGRADED detection, graceful drain, capacity,
jittered backoff, and the beacon-silence watchdog.

Everything runs on the simulator + the ideal network, whose own fault
methods take nodes down and block links, so each scenario is
deterministic.
(``sim.run(t)`` runs to *absolute* virtual time ``t``.)
"""

import dataclasses

import pytest

from repro.core.bootstrap import ProxyBootstrap
from repro.core.bus import EventBus
from repro.core.client import BusClient
from repro.core.events import (
    MEMBER_STATE_TYPE,
    NEW_MEMBER_TYPE,
    PURGE_MEMBER_TYPE,
)
from repro.discovery.agent import (
    REJECTION_BACKOFF_S,
    AgentConfig,
    AgentState,
    DiscoveryAgent,
)
from repro.discovery.lifecycle import (
    LifecycleState,
    advance,
    can_advance,
)
from repro.discovery.membership import MemberRecord
from repro.discovery.messages import LeaveIntentBody
from repro.discovery.service import DiscoveryConfig, DiscoveryService
from repro.errors import ConfigurationError, DiscoveryError
from repro.matching.filters import Filter
from repro.transport.packets import PacketType


def make_service(sim, endpoint, bus=None, authenticator=None, **config):
    defaults = dict(cell_name="cell", beacon_period_s=0.5,
                    heartbeat_period_s=0.5, silent_after_s=1.5,
                    purge_after_s=4.0, sweep_period_s=0.25)
    defaults.update(config)
    bus = bus or EventBus(sim)
    service = DiscoveryService(bus, endpoint, sim,
                               DiscoveryConfig(**defaults), authenticator)
    return service, bus


def make_agent(sim, endpoint, name="dev", **config):
    defaults = dict(name=name, device_type="service", beacon_timeout_s=2.0)
    defaults.update(config)
    return DiscoveryAgent(endpoint, sim, AgentConfig(**defaults))


def state_log(bus):
    """Collect (state, previous, name, capacity, reason) per state event."""
    log = []
    bus.subscribe_local(
        Filter.where(MEMBER_STATE_TYPE),
        lambda e: log.append((e.get("state"), e.get("previous"),
                              e.get("name"), e.get("capacity"),
                              e.get("reason"))))
    return log


def degraded_silences(bus):
    """The ``silence_s`` each DEGRADED state event reports."""
    silences = []
    bus.subscribe_local(
        Filter.where(MEMBER_STATE_TYPE, state="degraded"),
        lambda e: silences.append(e.get("silence_s")))
    return silences


class TestLifecycleTable:
    def test_legal_transitions(self):
        assert advance(LifecycleState.JOINING,
                       LifecycleState.HEALTHY) is LifecycleState.HEALTHY
        assert can_advance(LifecycleState.HEALTHY, LifecycleState.DEGRADED)
        assert can_advance(LifecycleState.DEGRADED, LifecycleState.HEALTHY)
        assert can_advance(LifecycleState.DEGRADED, LifecycleState.DRAINING)
        assert can_advance(LifecycleState.DRAINING, LifecycleState.GONE)

    def test_gone_is_terminal_and_draining_never_recovers(self):
        for target in LifecycleState:
            assert not can_advance(LifecycleState.GONE, target)
        assert not can_advance(LifecycleState.DRAINING,
                               LifecycleState.HEALTHY)
        with pytest.raises(DiscoveryError):
            advance(LifecycleState.DRAINING, LifecycleState.HEALTHY)

    def test_record_enforces_table(self):
        record = MemberRecord(member_id=1, name="x", device_type="service",
                              address="x", admitted_at=0.0, last_heard=0.0)
        assert record.lifecycle is LifecycleState.JOINING
        record.advance_lifecycle(LifecycleState.HEALTHY)
        record.advance_lifecycle(LifecycleState.DRAINING)
        with pytest.raises(DiscoveryError):
            record.advance_lifecycle(LifecycleState.DEGRADED)

    def test_degraded_threshold_defaults_to_three_heartbeats(self):
        assert DiscoveryConfig(cell_name="c", heartbeat_period_s=0.5
                               ).silent_after_s == pytest.approx(1.5)
        assert DiscoveryConfig(cell_name="c", heartbeat_period_s=0.5,
                               silent_after_s=9.0
                               ).silent_after_s == pytest.approx(9.0)
        assert DiscoveryConfig(cell_name="c").silent_after_s == \
            pytest.approx(3.0)

    def test_config_validates_lifecycle_fields(self):
        with pytest.raises(ConfigurationError):
            DiscoveryConfig(cell_name="c", silent_after_s=0.0)
        with pytest.raises(ConfigurationError):
            DiscoveryConfig(cell_name="c", drain_deadline_s=-1.0)


class TestDegradedDetection:
    def test_first_heartbeat_promotes_joining_to_healthy(self, sim, endpoints):
        service, bus = make_service(sim, endpoints("core"))
        log = state_log(bus)
        agent = make_agent(sim, endpoints("dev"))
        service.start()
        agent.start()
        sim.run(2.0)
        record = service.table.get(agent.endpoint.service_id)
        assert record.lifecycle is LifecycleState.HEALTHY
        assert ("healthy", "joining", "dev", 0, None) in log

    def test_ghost_degraded_within_three_heartbeats(self, sim, net,
                                                    endpoints):
        service, bus = make_service(sim, endpoints("core"))
        log = state_log(bus)
        silences = degraded_silences(bus)
        agent = make_agent(sim, endpoints("dev"))
        service.start()
        agent.start()
        sim.run(2.2)     # joined and healthy, mid-heartbeat-interval
        assert agent.joined
        net.set_node_up("dev", False)
        sim.run(5.0)     # past the degraded threshold, before the purge
        assert ("degraded", "healthy", "dev", 0, None) in log
        # The measured detection latency respects the advertised bound:
        # threshold (3 x heartbeat) plus at most one sweep period.
        threshold = service.config.silent_after_s
        assert len(silences) == 1
        assert all(threshold < lat
                   <= threshold + service.config.sweep_period_s + 1e-9
                   for lat in silences)
        assert service.stats.degradations == 1
        # Left dead, the ghost is still purged at the masking timeout.
        sim.run(12.0)
        assert service.table.get(agent.endpoint.service_id) is None
        assert ("gone", "degraded", "dev", 0, "timeout") in log

    def test_degraded_member_recovers_to_healthy(self, sim, net, endpoints):
        service, bus = make_service(sim, endpoints("core"))
        log = state_log(bus)
        agent = make_agent(sim, endpoints("dev"), beacon_timeout_s=10.0)
        service.start()
        agent.start()
        sim.run(2.0)
        net.set_node_up("dev", False)
        sim.run(4.0)     # past the degraded threshold, before the purge
        record = service.table.get(agent.endpoint.service_id)
        assert record.lifecycle is LifecycleState.DEGRADED
        net.set_node_up("dev", True)
        sim.run(5.0)     # next heartbeat lands
        assert record.lifecycle is LifecycleState.HEALTHY
        assert ("healthy", "degraded", "dev", 0, None) in log
        assert service.stats.recoveries == 1

    def test_lifecycle_counts(self, sim, endpoints):
        service, _ = make_service(sim, endpoints("core"))
        agent = make_agent(sim, endpoints("dev"))
        service.start()
        agent.start()
        sim.run(2.0)
        counts = service.table.lifecycle_counts()
        assert counts["healthy"] == 1
        assert counts["joining"] == counts["degraded"] == 0


class TestCapacity:
    def test_announce_carries_capacity_into_record_and_event(self, sim,
                                                             endpoints):
        core = endpoints("core")
        service, bus = make_service(sim, core)
        bootstrap = ProxyBootstrap(bus, core)
        new_member = []
        bus.subscribe_local(Filter.where(NEW_MEMBER_TYPE),
                            lambda e: new_member.append(e.get("capacity")))
        agent = make_agent(sim, endpoints("dev"), capacity=4)
        service.start()
        agent.start()
        sim.run(2.0)
        member = agent.endpoint.service_id
        assert service.table.get(member).capacity == 4
        assert new_member == [4]
        assert bus.proxy_of(member).capacity == 4
        assert bootstrap.stats.proxies_created == 1

    def test_heartbeat_refreshes_capacity(self, sim, endpoints):
        service, bus = make_service(sim, endpoints("core"))
        log = state_log(bus)
        agent = make_agent(sim, endpoints("dev"), capacity=4)
        service.start()
        agent.start()
        sim.run(2.0)
        agent.config = dataclasses.replace(agent.config, capacity=8)
        sim.run(3.0)     # next heartbeat carries the new figure
        member = agent.endpoint.service_id
        assert service.table.get(member).capacity == 8
        # A same-state event announced the new figure.
        assert ("healthy", "healthy", "dev", 8, None) in log


class TestJitteredBackoff:
    def test_backoff_is_exponential_jittered_and_capped(self, sim,
                                                        endpoints):
        agent = make_agent(sim, endpoints("dev"))
        for attempt in range(8):
            nominal = min(8.0, 1.0 * 2 ** attempt)
            for _ in range(5):
                delay = agent._backoff(1.0, attempt, 8.0)
                assert 0.5 * nominal <= delay < 1.5 * nominal

    def test_different_devices_desynchronise(self, sim, endpoints):
        a = make_agent(sim, endpoints("dev-a"), name="dev-a")
        b = make_agent(sim, endpoints("dev-b"), name="dev-b")
        delays_a = [a._backoff(1.0, i, 8.0) for i in range(4)]
        delays_b = [b._backoff(1.0, i, 8.0) for i in range(4)]
        assert delays_a != delays_b
        # ... but each device's own schedule is reproducible.
        a2 = make_agent(sim, endpoints("dev-a2"), name="dev-a")
        assert [a2._backoff(1.0, i, 8.0) for i in range(4)] == delays_a

    def test_unanswered_announces_spread_out(self, sim, endpoints):
        """With no cell answering, retries decelerate instead of drumming
        at a fixed period."""
        agent = make_agent(sim, endpoints("dev"), announce_retry_s=0.5)
        endpoints("core")              # address exists, nobody answers
        agent.announce_to("core")
        sim.run(4.0)
        early = agent.stats.announces_sent
        sim.run(8.0)
        late = agent.stats.announces_sent - early
        assert early >= 3             # eager at first...
        assert late < early           # ...then backing off

    def test_rejected_agents_retry_with_growing_backoff(self, sim,
                                                        endpoints):
        class DenyAll:
            def authenticate(self, member_id, announce):
                return False, "no"

        service, _ = make_service(sim, endpoints("core"),
                                  authenticator=DenyAll())
        agent = make_agent(sim, endpoints("dev"))
        service.start()
        agent.start()
        sim.run(12.0 * REJECTION_BACKOFF_S)
        assert agent.stats.rejections >= 2
        assert agent.state in (AgentState.REJECTED, AgentState.ANNOUNCING,
                               AgentState.SEARCHING)

    def test_config_validates_backoff_fields(self):
        with pytest.raises(ConfigurationError):
            AgentConfig(name="d", device_type="s", announce_retry_s=0)
        with pytest.raises(ConfigurationError):
            AgentConfig(name="d", device_type="s", capacity=-1)


class TestBeaconWatchdog:
    """Satellite coverage for DiscoveryAgent._check_beacons."""

    def test_falls_out_of_range_on_beacon_silence(self, sim, net,
                                                  endpoints):
        service, _ = make_service(sim, endpoints("core"))
        agent = make_agent(sim, endpoints("dev"), beacon_timeout_s=1.5)
        left = []
        agent.on_left = left.append
        service.start()
        agent.start()
        sim.run(2.0)
        assert agent.joined
        net.block_one_way("core", "dev", True)   # beacons lost; uplink fine
        sim.run(5.0)
        assert agent.state is AgentState.SEARCHING
        assert left == ["beacon silence"]
        assert agent.stats.losses == 1

    def test_rejoins_on_next_beacon(self, sim, net, endpoints):
        service, _ = make_service(sim, endpoints("core"))
        agent = make_agent(sim, endpoints("dev"), beacon_timeout_s=1.5)
        service.start()
        agent.start()
        sim.run(2.0)
        net.block_one_way("core", "dev", True)
        sim.run(5.0)
        assert not agent.joined
        heard_before = agent.stats.beacons_heard
        net.block_one_way("core", "dev", False)
        sim.run(7.0)
        assert agent.joined
        assert agent.stats.beacons_heard > heard_before
        assert agent.stats.joins == 2
        # The cell never purged us (outage shorter than the lease), so the
        # membership session continued.
        assert not agent.last_join_was_new

    def test_no_loss_counted_while_beacons_flow(self, sim, endpoints):
        service, _ = make_service(sim, endpoints("core"))
        agent = make_agent(sim, endpoints("dev"), beacon_timeout_s=1.5)
        service.start()
        agent.start()
        sim.run(10.0)
        assert agent.joined
        assert agent.stats.losses == 0


class TestStopIdempotence:
    def test_double_stop_sends_one_leave(self, sim, endpoints):
        service, _ = make_service(sim, endpoints("core"))
        agent = make_agent(sim, endpoints("dev"))
        service.start()
        agent.start()
        sim.run(2.0)
        agent.stop()
        agent.stop()
        sim.run(3.0)
        assert service.stats.leaves == 1
        assert agent.state is AgentState.STOPPED
        agent.stop()              # and again, after the cell reacted
        sim.run(4.0)
        assert service.stats.leaves == 1

    def test_stop_while_draining_sends_no_leave(self, sim, endpoints):
        service, _ = make_service(sim, endpoints("core"),
                                  drain_deadline_s=1.0)
        agent = make_agent(sim, endpoints("dev"))
        service.start()
        agent.start()
        sim.run(2.0)
        agent.leave_gracefully()
        sim.run(2.2)
        agent.stop()              # already announced intent; no LEAVE
        sim.run(5.0)
        assert service.stats.leaves == 0
        assert service.stats.drains == 1


class TestAgentFreeze:
    def test_freeze_stops_heartbeats_thaw_resumes(self, sim, endpoints):
        service, _ = make_service(sim, endpoints("core"))
        agent = make_agent(sim, endpoints("dev"), beacon_timeout_s=30.0)
        service.start()
        agent.start()
        sim.run(2.0)
        agent.freeze()
        before = agent.stats.heartbeats_sent
        sim.run(4.0)
        assert agent.stats.heartbeats_sent == before
        record = service.table.get(agent.endpoint.service_id)
        assert record.lifecycle is LifecycleState.DEGRADED
        agent.thaw()
        sim.run(5.0)
        assert agent.stats.heartbeats_sent > before
        assert record.lifecycle is LifecycleState.HEALTHY


class TestGracefulDrain:
    def _cell(self, sim, endpoints, **config):
        core = endpoints("core")
        service, bus = make_service(sim, core, **config)
        bootstrap = ProxyBootstrap(bus, core)
        return core, service, bus, bootstrap

    def _joined_pair(self, sim, endpoints, service):
        """A publisher and a subscriber device, both joined."""
        publisher = make_agent(sim, endpoints("pub"), name="pub",
                               beacon_timeout_s=30.0)
        subscriber = make_agent(sim, endpoints("sub"), name="sub",
                                beacon_timeout_s=30.0)
        pub_client = BusClient(publisher.endpoint, sim, None)
        sub_client = BusClient(subscriber.endpoint, sim, None)
        publisher.on_joined = lambda _c, addr: setattr(
            pub_client, "bus_address", addr)
        subscriber.on_joined = lambda _c, addr: setattr(
            sub_client, "bus_address", addr)
        service.start()
        publisher.start()
        subscriber.start()
        return publisher, subscriber, pub_client, sub_client

    def test_drain_flushes_backlog_then_purges_with_zero_loss(
            self, sim, net, endpoints):
        _, service, bus, _ = self._cell(sim, endpoints,
                                        drain_deadline_s=30.0)
        log = state_log(bus)
        purges = []
        bus.subscribe_local(Filter.where(PURGE_MEMBER_TYPE),
                            lambda e: purges.append(e.get("reason")))
        _pub, subscriber, pub_client, sub_client = self._joined_pair(
            sim, endpoints, service)

        inbox = []
        sim.run(2.0)
        sub_client.subscribe(Filter.where("ward.data"),
                             lambda e: inbox.append(e.get("n")))
        sim.run(3.0)
        member = subscriber.endpoint.service_id
        proxy = bus.proxy_of(member)

        # Cut the core -> subscriber direction so deliveries pile up on
        # the channel (heartbeats still flow sub -> core).
        net.block_one_way("core", "sub", True)
        for n in range(10):
            pub_client.publish("ward.data", {"n": n})
        sim.run(4.0)
        assert inbox == []                # queued, undeliverable

        subscriber.leave_gracefully()
        sim.run(5.0)
        record = service.table.get(member)
        assert record.lifecycle is LifecycleState.DRAINING
        # Subscriptions were re-homed away *before* teardown: no new
        # matches can join the queue.
        assert bus.subscriptions_of(member) == set()
        assert proxy.draining
        assert not purges                 # still flushing: not purged yet

        net.block_one_way("core", "sub", False)
        sim.run(12.0)
        # Every queued delivery landed, then the purge fired, and the
        # proxy found an empty channel: zero matched-event loss.
        assert sorted(inbox) == list(range(10))
        assert purges == ["drain"]
        assert proxy.destroyed
        assert proxy.stats.dropped_on_destroy == 0
        assert service.stats.drains_completed == 1
        assert ("draining", "healthy", "sub", 0, "drain") in log
        assert ("gone", "draining", "sub", 0, "drain") in log

    def test_drain_deadline_degrades_to_purge(self, sim, net, endpoints):
        _, service, bus, _ = self._cell(sim, endpoints, drain_deadline_s=1.0)
        purges = []
        bus.subscribe_local(Filter.where(PURGE_MEMBER_TYPE),
                            lambda e: purges.append(e.get("reason")))
        _pub, subscriber, pub_client, sub_client = self._joined_pair(
            sim, endpoints, service)
        sim.run(2.0)
        sub_client.subscribe(Filter.where("ward.data"), lambda e: None)
        sim.run(3.0)
        member = subscriber.endpoint.service_id
        proxy = bus.proxy_of(member)

        net.block_one_way("core", "sub", True)
        for n in range(5):
            pub_client.publish("ward.data", {"n": n})
        sim.run(4.0)
        subscriber.leave_gracefully()
        sim.run(8.0)                      # never healed: deadline fires
        assert purges == ["drain-deadline"]
        assert service.stats.drain_timeouts == 1
        assert proxy.destroyed
        assert proxy.stats.dropped_on_destroy > 0

    def test_leave_intent_is_idempotent(self, sim, endpoints):
        _, service, bus, _ = self._cell(sim, endpoints)
        agent = make_agent(sim, endpoints("dev"))
        service.start()
        agent.start()
        sim.run(2.0)
        member = agent.endpoint.service_id
        # Datagrams repeat; a re-sent LEAVE_INTENT must not double-count.
        agent.endpoint.send_control(agent.core_address,
                                    PacketType.LEAVE_INTENT,
                                    LeaveIntentBody("drain").encode())
        agent.endpoint.send_control(agent.core_address,
                                    PacketType.LEAVE_INTENT,
                                    LeaveIntentBody("drain").encode())
        sim.run(2.3)
        assert service.stats.drains == 1
        sim.run(5.0)                      # empty queue: drains right away
        assert service.table.get(member) is None
        assert service.stats.drains_completed == 1

    def test_drain_with_no_backlog_purges_promptly(self, sim, endpoints):
        _, service, bus, _ = self._cell(sim, endpoints)
        agent = make_agent(sim, endpoints("dev"))
        service.start()
        agent.start()
        sim.run(2.0)
        agent.leave_gracefully("battery swap")
        sim.run(3.5)
        assert service.table.get(agent.endpoint.service_id) is None
        assert service.stats.drains_completed == 1
