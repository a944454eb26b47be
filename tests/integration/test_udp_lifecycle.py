"""Full discovery lifecycle on real sockets, driven only by the scheduler.

Unlike test_udp_full_stack.py (which pumps transports manually via
``poll()``), every socket here is registered with the RealtimeScheduler's
selector — the deployment-mode configuration.  That makes this suite the
end-to-end regression for the broadcast-socket pollable fix: before it,
a scheduler-driven cell was deaf on the discovery plane.

Timers are aggressive (tens of milliseconds) so the whole
announce → admit → heartbeat → silent → recover → purge arc runs in
about a second of wall time.
"""

import time

import pytest

from repro.core.bus import EventBus
from repro.core.bootstrap import ProxyBootstrap
from repro.core.events import (
    MEMBER_RECOVERED_TYPE,
    MEMBER_SILENT_TYPE,
    NEW_MEMBER_TYPE,
    PURGE_MEMBER_TYPE,
)
from repro.discovery.agent import AgentConfig, DiscoveryAgent
from repro.discovery.membership import MemberState
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
    bus.subscribe_local(Filter.for_type_prefix("smc.member"),
                        lambda e: log.append(e.type))

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
        assert record.state is MemberState.ACTIVE

        # heartbeat: liveness flows with no manual pumping.
        seen = service.stats.heartbeats_seen
        assert wait(lambda: service.stats.heartbeats_seen > seen + 2), \
            "heartbeats not arriving through the selector"

        # silent: mute the device's heartbeats; the sweep masks it.
        agent._heartbeat_timer.cancel()
        assert wait(lambda: record.state is MemberState.SILENT), \
            "member never masked SILENT"
        # The event reaches local subscribers one loop iteration after
        # the state flips, which may be the next run_for.
        assert wait(lambda: MEMBER_SILENT_TYPE in log)
        assert bus.is_member(member), "masking must not purge the proxy"

        # recover: heartbeats resume before the purge deadline.
        agent._start_heartbeats(0.04)
        assert wait(lambda: record.state is MemberState.ACTIVE), \
            "silent member never recovered"
        assert wait(lambda: MEMBER_RECOVERED_TYPE in log)

        # purge: go quiet for good this time.
        agent._heartbeat_timer.cancel()
        assert wait(lambda: member not in service.table), \
            "member never purged"
        assert wait(lambda: not bus.is_member(member)), \
            "proxy survived the purge"
        assert log.index(NEW_MEMBER_TYPE) < log.index(MEMBER_SILENT_TYPE) \
            < log.index(MEMBER_RECOVERED_TYPE) < log.index(PURGE_MEMBER_TYPE)
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
