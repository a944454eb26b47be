"""Full discovery lifecycle on real sockets, driven only by the scheduler.

Unlike test_udp_full_stack.py (which pumps transports manually via
``poll()``), every socket here is registered with the RealtimeScheduler's
selector — the deployment-mode configuration.  That makes this suite the
end-to-end regression for the broadcast-socket pollable fix: before it,
a scheduler-driven cell was deaf on the discovery plane.

Timers are aggressive (tens of milliseconds) so the whole
announce → admit → heartbeat → degraded → recover → purge arc runs in
about a second of wall time.
"""

import time

import pytest

from repro.core.bus import EventBus
from repro.core.bootstrap import ProxyBootstrap
from repro.core.events import (
    MEMBER_STATE_TYPE,
    NEW_MEMBER_TYPE,
    PURGE_MEMBER_TYPE,
)
from repro.discovery.agent import AgentConfig, DiscoveryAgent
from repro.discovery.lifecycle import LifecycleState
from repro.discovery.service import DiscoveryConfig, DiscoveryService
from repro.matching.filters import Filter
from repro.sim.kernel import RealtimeScheduler
from repro.transport.endpoint import PacketEndpoint
from repro.transport.udp import UdpTransport


@pytest.fixture
def stack():
    """Cell core + one device, every socket selector-registered."""
    scheduler = RealtimeScheduler()
    core_t = UdpTransport(listen_for_broadcast=True, discovery_port=0,
                          directed_only=True)
    dev_t = UdpTransport()
    core_t.set_broadcast_peers([dev_t.local_address])
    scheduler.register_pollables(core_t.pollables())
    scheduler.register_pollables(dev_t.pollables())

    core_ep = PacketEndpoint(core_t, scheduler)
    bus = EventBus(scheduler, name="lifecycle-bus")
    ProxyBootstrap(bus, core_ep)
    service = DiscoveryService(
        bus, core_ep, scheduler,
        DiscoveryConfig(cell_name="lifecycle-cell",
                        beacon_period_s=0.04, heartbeat_period_s=0.04,
                        silent_after_s=0.25, purge_after_s=0.6,
                        sweep_period_s=0.05))
    agent = DiscoveryAgent(
        PacketEndpoint(dev_t, scheduler), scheduler,
        AgentConfig(name="dev", device_type="service",
                    announce_retry_s=0.04, beacon_timeout_s=5.0))

    log = []
    # A state move is logged as (type, new state), the rest by type.
    bus.subscribe_local(Filter.for_type_prefix("smc.member"),
                        lambda e: log.append(
                            (e.type, e.get("state"))
                            if e.type == MEMBER_STATE_TYPE else e.type))

    def wait(condition, timeout=5.0):
        # No manual transport.poll(): only the selector moves datagrams.
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            scheduler.run_for(0.02)
            if condition():
                return True
        return condition()

    yield scheduler, service, bus, agent, log, wait
    core_t.close()
    dev_t.close()


class TestSchedulerDrivenLifecycle:
    def test_full_arc_announce_to_purge(self, stack):
        scheduler, service, bus, agent, log, wait = stack
        service.start()
        agent.start()

        # announce -> admit: the device finds the cell through a real
        # BEACON on its unicast socket (directed broadcast domain).
        assert wait(lambda: agent.joined), "device never joined"
        member = agent.endpoint.service_id
        assert wait(lambda: bus.is_member(member)), "proxy never built"
        record = service.table.get(member)
        assert wait(lambda: record.lifecycle is LifecycleState.HEALTHY)

        # heartbeat: liveness flows with no manual pumping.
        seen = service.stats.heartbeats_seen
        assert wait(lambda: service.stats.heartbeats_seen > seen + 2), \
            "heartbeats not arriving through the selector"

        # silent: mute the device's heartbeats; the sweep masks it.
        degraded = (MEMBER_STATE_TYPE, "degraded")
        recovered = (MEMBER_STATE_TYPE, "healthy")
        agent._heartbeat_timer.cancel()
        assert wait(lambda: record.lifecycle is LifecycleState.DEGRADED), \
            "member never masked DEGRADED"
        # The event reaches local subscribers one loop iteration after
        # the state flips, which may be the next run_for.
        assert wait(lambda: degraded in log)
        assert bus.is_member(member), "masking must not purge the proxy"

        # recover: heartbeats resume before the purge deadline.
        agent._start_heartbeats(0.04)
        assert wait(lambda: record.lifecycle is LifecycleState.HEALTHY), \
            "silent member never recovered"
        assert wait(lambda: log.count(recovered) == 2)   # join, recovery

        # purge: go quiet for good this time.
        agent._heartbeat_timer.cancel()
        assert wait(lambda: member not in service.table), \
            "member never purged"
        assert wait(lambda: not bus.is_member(member)), \
            "proxy survived the purge"
        last_recovery = len(log) - 1 - log[::-1].index(recovered)
        assert log.index(NEW_MEMBER_TYPE) < log.index(degraded) \
            < last_recovery < log.index(PURGE_MEMBER_TYPE)
        service.stop()

    def test_beacons_arrive_via_broadcast_socket(self, stack):
        # The device-discovers-cell direction already proves the cell's
        # *directed* sends; this proves the cell's broadcast *listener*
        # drains under the selector: a device ANNOUNCEs at the discovery
        # port (the real broadcast-domain path) and still gets admitted.
        scheduler, service, bus, agent, log, wait = stack
        service.start()
        discovery_addr = ("127.0.0.1", service.endpoint.transport.discovery_port)
        agent.announce_to(discovery_addr)
        assert wait(lambda: service.stats.announces_seen >= 1), \
            "announce to the discovery port never drained"
        service.stop()


class TestPurgedDevicesRejoin:
    """The new-session rule on real sockets: a purged device that is
    re-admitted starts a fresh channel and gets its subscriptions back."""

    def test_loopback_devices_publish_and_receive_after_a_purge(self):
        from repro.deploy import CellServer, ServerConfig, make_devices
        from repro.smc.cell import CellConfig

        server = CellServer(ServerConfig(
            cell=CellConfig(cell_name="rejoin-cell",
                            beacon_period_s=0.04, heartbeat_period_s=0.04,
                            silent_after_s=0.25, purge_after_s=0.6,
                            sweep_period_s=0.05),
            discovery_port=0, healthz_host=None))
        server.start()
        publisher, subscriber = devices = make_devices(
            server.scheduler, server.address, 2,
            announce_retry_s=0.05, beacon_timeout_s=0.3)
        bus = server.cell.bus
        table = server.cell.discovery.table

        def wait(condition, timeout=5.0):
            deadline = time.monotonic() + timeout
            while time.monotonic() < deadline:
                server.run_for(0.02)
                if condition():
                    return True
            return condition()

        def all_joined():
            return (all(device.joined for device in devices)
                    and len(bus.members()) == len(devices))

        try:
            for device in devices:
                device.start()
            assert wait(all_joined), "devices never joined"
            got = []
            subscriptions = bus.stats.subscriptions_active
            subscriber.subscribe(Filter.where("vitals.hr"),
                                 lambda event: got.append(event.get("n")))
            assert wait(lambda: bus.stats.subscriptions_active
                        == subscriptions + 1)
            publisher.publish("vitals.hr", {"n": 1})
            assert wait(lambda: got == [1]), "event 1 never delivered"

            # Purged by timeout: both stall past purge_after_s, and learn
            # of it from the beacons that stopped coming.
            for device in devices:
                device.freeze()
            assert wait(lambda: len(table) == 0), "devices never purged"
            for device in devices:
                device.thaw()
            assert wait(lambda: not any(d.joined for d in devices)), \
                "purged devices never noticed"
            assert publisher.publish("vitals.hr", {"n": 99}) is None
            assert publisher.client.stats.publishes_disconnected == 1

            # Re-announce: a new session for each.
            for device in devices:
                device.start()
            assert wait(all_joined), "purged devices never rejoined"
            assert all(device.agent.last_join_was_new for device in devices)
            assert wait(lambda: bus.stats.subscriptions_active
                        == subscriptions + 1), \
                "subscription not re-issued on the new session"
            publisher.publish("vitals.hr", {"n": 2})
            assert wait(lambda: got == [1, 2]), \
                f"event after the rejoin never delivered: {got}"
            proxy = bus.proxy_of(publisher.service_id)
            assert proxy.stats.events_published > 0
            channel = server.cell.endpoint.existing_channel(
                publisher.transport.local_address)
            assert channel.stats.out_of_order == 0
        finally:
            for device in devices:
                device.close()
            server.close()
