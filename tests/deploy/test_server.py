"""Deployment layer: edge controls, the cell server and its healthz.

Edge units (admission, backpressure) run on the simulator + in-memory
hub; the CellServer tests stand up real loopback sockets, because the
server *is* the real-socket assembly — but with OS-chosen ports and
sub-second timers they stay fast and collision-free.
"""

import time
from dataclasses import asdict

import pytest

from repro.autonomic import AutonomicConfig
from repro.core import protocol
from repro.core.bootstrap import ProxyBootstrap
from repro.core.bus import EventBus
from repro.core.protocol import BusOp
from repro.core.proxies import ServiceProxy
from repro.core.quench import QuenchController
from repro.deploy import (
    BackpressureGuard,
    CapacityAuthenticator,
    CellServer,
    ServerConfig,
    make_devices,
    read_healthz,
)
from repro.discovery.membership import MembershipTable, MemberRecord
from repro.discovery.messages import AnnounceBody, HeartbeatBody
from repro.discovery.service import DiscoveryConfig, DiscoveryService
from repro.errors import ConfigurationError
from repro.ids import service_id_from_name
from repro.matching.filters import Filter
from repro.smc.cell import CellConfig
from repro.transport.packets import PacketType


class TestCapacityAuthenticator:
    def _table_with(self, count):
        table = MembershipTable()
        for index in range(count):
            table.admit(MemberRecord(
                member_id=service_id_from_name(f"m{index}"),
                name=f"m{index}", device_type="service", address=f"a{index}",
                admitted_at=0.0, last_heard=0.0))
        return table

    def test_admits_below_capacity(self):
        auth = CapacityAuthenticator(2)
        auth.bind_table(self._table_with(1))
        ok, reason = auth.authenticate(service_id_from_name("new"),
                                       AnnounceBody("new", "service", b""))
        assert ok

    def test_naks_at_capacity(self):
        auth = CapacityAuthenticator(2)
        auth.bind_table(self._table_with(2))
        ok, reason = auth.authenticate(service_id_from_name("new"),
                                       AnnounceBody("new", "service", b""))
        assert not ok
        assert "capacity" in reason
        assert auth.stats.capacity_rejections == 1

    def test_delegates_to_inner_when_room(self):
        class Deny:
            def authenticate(self, member_id, announce):
                return False, "bad credentials"

        auth = CapacityAuthenticator(5, inner=Deny())
        auth.bind_table(self._table_with(0))
        ok, reason = auth.authenticate(service_id_from_name("new"),
                                       AnnounceBody("new", "service", b""))
        assert not ok and reason == "bad credentials"
        assert auth.stats.capacity_rejections == 0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ConfigurationError):
            CapacityAuthenticator(0)


class TestBackpressureGuard:
    def _stack(self, sim, hub, endpoints, **bounds):
        core = endpoints("core", window=2)
        dev = endpoints("dev")
        dev.set_payload_handler(lambda peer, data: None)   # swallow frames
        bus = EventBus(sim)
        dev_id = dev.service_id
        core.learn_peer(dev_id, "dev")
        proxy = ServiceProxy(bus, core, dev_id, "dev", "service")
        guard = BackpressureGuard(bus, core, **bounds)
        return core, bus, dev_id, proxy, guard

    def test_bounds_validated(self, sim, hub, endpoints):
        core = endpoints("core")
        bus = EventBus(sim)
        for bad in (dict(quench_backlog=4, wake_backlog=4, shed_backlog=8),
                    dict(quench_backlog=4, wake_backlog=0, shed_backlog=8),
                    dict(quench_backlog=8, wake_backlog=2, shed_backlog=4)):
            with pytest.raises(ConfigurationError):
                BackpressureGuard(bus, core, **bad)

    def test_quench_then_wake_hysteresis(self, sim, hub, endpoints):
        core, bus, dev_id, proxy, guard = self._stack(
            sim, hub, endpoints, quench_backlog=4, wake_backlog=2,
            shed_backlog=64)
        hub.drop_filter = lambda src, dest, data: False   # strand sends
        for index in range(6):
            core.send_reliable("dev", bytes([index]))
        guard.sweep()
        assert guard.edge_quenched() == {dev_id}
        assert guard.stats.quench_advisories == 1
        guard.sweep()                     # still over: no duplicate
        assert guard.stats.quench_advisories == 1
        # The member drains: acks arrive, backlog falls below wake.
        hub.drop_filter = None
        sim.run_until_idle(max_time=sim.now() + 60.0)
        guard.sweep()
        assert guard.edge_quenched() == set()
        assert guard.stats.wake_advisories == 1

    def test_shed_trims_pending_tail(self, sim, hub, endpoints):
        core, bus, dev_id, proxy, guard = self._stack(
            sim, hub, endpoints, quench_backlog=3, wake_backlog=1,
            shed_backlog=6)
        hub.drop_filter = lambda src, dest, data: False
        for index in range(10):           # window 2 -> 8 pending
            core.send_reliable("dev", bytes([index]))
        channel = core.existing_channel("dev")
        assert channel.unacked_count() == 10
        guard.sweep()
        # The sweep quenches first (its advisory frame joins the pending
        # queue: 8 + 1), then sheds the oldest pending beyond 6.
        assert guard.stats.payloads_shed == 3
        assert channel.stats.backlog_shed == 3
        assert channel.unacked_count() == 8            # 2 in flight + 6

    def test_a_declared_capacity_clamps_the_bounds(self, sim, hub, endpoints):
        """Under the 64/16/256 defaults a member that declared capacity 4
        is quenched at 4 queued payloads and shed past 16 (4 x capacity);
        a heartbeat re-declaring 8 moves the bounds once its state event
        reaches the proxy, one turn after discovery hears it."""
        core, dev = endpoints("core", window=2), endpoints("dev")
        dev.set_payload_handler(lambda peer, data: None)
        bus = EventBus(sim)
        ProxyBootstrap(bus, core)
        service = DiscoveryService(bus, core, sim,
                                   DiscoveryConfig(cell_name="cell"))
        service.start()
        guard = BackpressureGuard(bus, core)
        dev.send_control("core", PacketType.ANNOUNCE,
                         AnnounceBody("dev", "service", b"", 4).encode())
        sim.run(sim.now())
        proxy = bus.proxy_of(dev.service_id)

        def strand(count):
            for index in range(count):
                core.send_reliable("dev", bytes([index]))

        hub.drop_filter = lambda src, dest, data: src != "core"
        strand(3)
        channel = core.existing_channel("dev")
        guard.sweep()
        assert guard.edge_quenched() == set()
        strand(1)
        guard.sweep()                     # 4 queued: quenched
        assert guard.edge_quenched() == {dev.service_id}
        strand(20)                        # 2 in flight, 23 pending
        guard.sweep()
        assert channel.stats.backlog_shed == 7        # down to 16 pending

        dev.send_control("core", PacketType.HEARTBEAT,
                         HeartbeatBody(8).encode())
        sim.step()                        # discovery hears the heartbeat
        assert service.table.get(dev.service_id).capacity == 8
        assert proxy.capacity == 4
        strand(2)
        guard.sweep()                     # still shed past 16
        assert channel.stats.backlog_shed == 9
        sim.step()                        # the state event reaches the proxy
        assert proxy.capacity == 8
        strand(2)
        guard.sweep()                     # now shed past 32 only
        assert channel.stats.backlog_shed == 9
        assert channel.unacked_count() == 2 + 18

    def test_purged_member_forgotten(self, sim, hub, endpoints):
        core, bus, dev_id, proxy, guard = self._stack(
            sim, hub, endpoints, quench_backlog=2, wake_backlog=1,
            shed_backlog=64)
        hub.drop_filter = lambda src, dest, data: False
        for index in range(4):
            core.send_reliable("dev", bytes([index]))
        guard.sweep()
        assert guard.edge_quenched() == {dev_id}
        bus.unregister_member(dev_id)
        guard.sweep()
        assert guard.edge_quenched() == set()


class TestQuenchOwnership:
    """A member's quench bit has one owner, its proxy: the guard, the
    quench controller and a drain each state a reason, and the member is
    advised only when the set of reasons goes empty <-> non-empty."""

    def _stack(self, sim, hub, endpoints):
        core = endpoints("core", window=2)
        dev = endpoints("dev")
        advised = []

        def on_payload(_peer, data):
            op, body = protocol.unframe(data)
            if op == BusOp.QUENCH:
                advised.append(protocol.parse_quench(body))

        dev.set_payload_handler(on_payload)
        bus = EventBus(sim)
        core.learn_peer(dev.service_id, "dev")
        proxy = ServiceProxy(bus, core, dev.service_id, "dev", "service")
        guard = BackpressureGuard(bus, core, quench_backlog=4,
                                  wake_backlog=2, shed_backlog=64)
        return core, bus, proxy, guard, advised

    def _strand(self, hub, core, count=6):
        hub.drop_filter = lambda src, dest, data: False
        for index in range(count):
            core.send_reliable("dev", protocol.frame(BusOp.DEVICE_CMD,
                                                     bytes([index])))

    def _flush(self, sim, hub):
        hub.drop_filter = None
        sim.run_until_idle(max_time=sim.now() + 60.0)

    def test_drain_of_an_edge_quenched_member_sends_one_on_no_off(
            self, sim, hub, endpoints):
        core, bus, proxy, guard, advised = self._stack(sim, hub, endpoints)
        self._strand(hub, core)
        guard.sweep()
        assert guard.edge_quenched() == {proxy.member_id}
        proxy.begin_drain()
        self._flush(sim, hub)
        guard.sweep()                     # backlog gone; still draining
        self._flush(sim, hub)
        assert advised == [True]
        assert guard.edge_quenched() == set() and proxy.quenched
        assert guard.stats.quench_advisories == 1
        assert guard.stats.wake_advisories == 0

    def test_elvin_wake_under_a_backlog_quench_sends_no_off(
            self, sim, hub, endpoints):
        core, bus, proxy, guard, advised = self._stack(sim, hub, endpoints)
        controller = QuenchController(bus)
        controller.register_advertisement(proxy.member_id, Filter.where("t"))
        self._strand(hub, core)
        guard.sweep()
        assert proxy.quench_reasons == {"unsubscribed", "backlog"}
        assert guard.stats.quench_advisories == 0     # already told
        bus.subscribe_local(Filter.where("t"), lambda event: None)
        assert not controller.is_quenched(proxy.member_id)
        assert controller.stats.wake_messages_sent == 0
        assert guard.edge_quenched() == {proxy.member_id}
        self._flush(sim, hub)
        assert advised == [True]
        guard.sweep()                     # both reasons cleared: one off
        self._flush(sim, hub)
        assert advised == [True, False]
        assert guard.stats.wake_advisories == 1
        assert not proxy.quenched

    def test_purge_clears_the_reasons(self, sim, hub, endpoints):
        core, bus, proxy, guard, advised = self._stack(sim, hub, endpoints)
        self._strand(hub, core)
        guard.sweep()
        proxy.begin_drain()
        assert proxy.quench_reasons == {"backlog", "draining"}
        proxy.destroy()
        assert proxy.quench_reasons == set() and not proxy.quenched
        assert not proxy.set_quench("backlog", True)  # nobody to advise
        assert guard.edge_quenched() == set()


@pytest.fixture
def server():
    config = ServerConfig(
        cell=CellConfig(cell_name="test-ward",
                        beacon_period_s=0.05, heartbeat_period_s=0.05,
                        silent_after_s=0.5, purge_after_s=1.5,
                        sweep_period_s=0.1),
        discovery_port=0,
        max_members=2,
        guard_period_s=0.1,
    )
    cell_server = CellServer(config)
    cell_server.start()
    yield cell_server
    cell_server.close()


def wait(server, condition, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        server.run_for(0.02)
        if condition():
            return True
    return condition()


class TestCellServer:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ServerConfig(cell=CellConfig(cell_name="x"), guard_period_s=0.0)
        with pytest.raises(ConfigurationError):
            ServerConfig(cell=CellConfig(cell_name="x"), workers=-1)

    def test_snapshot_shape(self, server):
        snapshot = server.snapshot()
        for key in ("cell", "engine", "started", "uptime_s", "address",
                    "pollables", "member_count", "members", "bus",
                    "channels", "transport", "discovery", "edge",
                    "edge_quenched"):
            assert key in snapshot, key
        assert snapshot["cell"] == "test-ward"
        assert snapshot["started"] is True
        assert snapshot["member_count"] == 0
        for counter in ("turns", "turn_events", "turn_high_water"):
            assert snapshot["bus"][counter] == 0, counter
        # Unicast + broadcast + healthz are all selector-registered.
        assert snapshot["pollables"] == 3

    def test_join_updates_snapshot_and_beacon_domain(self, server):
        device = make_devices(server.scheduler, server.address, 1,
                              announce_retry_s=0.05)[0]
        try:
            device.start()
            assert wait(server, lambda: device.joined)
            snapshot = server.snapshot()
            assert snapshot["member_count"] == 1
            assert snapshot["members"][0]["name"] == "dev-0"
            member = snapshot["members"][0]
            assert member["lifecycle"] in ("joining", "healthy")
            assert "state" not in member    # one machine, one field
            # Directed beacons now reach the member's address.
            assert device.transport.local_address \
                in server.transport._broadcast_peers
        finally:
            device.close()

    def test_close_from_inside_a_drain_still_publishes_the_turn(self, server):
        """A server closed mid-turn (a signal handler) drops its turn end
        with the transport; what the turn had brought in is published
        first, so the counters conserve and healthz shows the turn."""
        device = make_devices(server.scheduler, server.address, 1,
                              announce_retry_s=0.05)[0]
        seen = []
        server.cell.subscribe(Filter.where("vitals"), seen.append)
        try:
            device.start()
            assert wait(server, lambda: device.joined
                        and server.cell.bus.members())
            stats = server.cell.bus.stats
            published = stats.published
            routed = server.cell.bootstrap._on_payload

            def close_on_arrival(peer, payload):
                routed(peer, payload)
                assert stats.published == published      # queued, not yet
                server.close()

            server.cell.endpoint.set_payload_handler(close_on_arrival)
            device.publish("vitals", {"hr": 99})
            assert wait(server, lambda: stats.published > published,
                        timeout=2.0)
            assert stats.published == published + 1
            assert stats.published == (stats.matched + stats.unmatched
                                       + stats.duplicates_dropped
                                       + stats.from_unknown_member)
            assert server.snapshot()["bus"]["turn_events"] >= 1
            server.scheduler.run_for(0.01)               # local delivery
            assert [event.get("hr") for event in seen] == [99]
        finally:
            device.close()

    def test_capacity_nak_past_max_members(self, server):
        devices = make_devices(server.scheduler, server.address, 3,
                               announce_retry_s=0.05)
        rejected = []
        for device in devices:
            device.agent.on_rejected = rejected.append
        try:
            for device in devices:
                device.start()
            assert wait(server, lambda: sum(d.joined for d in devices) == 2
                        and rejected)
            assert server.edge_stats.capacity_rejections >= 1
            assert all("capacity" in reason for reason in rejected)
            assert server.snapshot()["member_count"] == 2
        finally:
            for device in devices:
                device.close()

    def test_healthz_over_real_tcp(self, server):
        snapshot = read_healthz(server.healthz_address,
                                pump=lambda: server.run_for(0.2))
        assert snapshot["cell"] == "test-ward"
        assert server.healthz.requests_served == 1

    def test_sharded_cell_reports_shard_loads(self):
        config = ServerConfig(
            cell=CellConfig(cell_name="sharded-ward", shards=4,
                            beacon_period_s=0.05, heartbeat_period_s=0.05,
                            silent_after_s=0.5, purge_after_s=1.5,
                            sweep_period_s=0.1),
            discovery_port=0)
        cell_server = CellServer(config)
        try:
            cell_server.start()
            snapshot = cell_server.snapshot()
            # The server's own smc.member subscription (directed beacons)
            # already occupies a shard; assert shape, not emptiness.
            assert len(snapshot["shard_loads"]) == 4
            assert sum(snapshot["shard_loads"]) >= 1
            assert len(snapshot["shard_events"]) == 4
        finally:
            cell_server.close()

    def test_autonomic_section_is_ticks_actuations_and_audit_tail(self):
        config = ServerConfig(
            cell=CellConfig(cell_name="tuned-ward", shards=4,
                            autonomic=AutonomicConfig()),
            discovery_port=0)
        cell_server = CellServer(config)
        try:
            for index in range(32):       # one hot class: the rebalancer acts
                cell_server.cell.subscribe(
                    Filter.where("vitals", ward=f"w-{index % 8}",
                                 hr=(">", 40 + index)), lambda event: None)
            manager = cell_server.cell.autonomic
            fresh = manager.tick()
            manager.tick()
            section = cell_server.snapshot()["autonomic"]
            assert section == {
                "ticks": 2, "actuations": len(fresh),
                "audit_tail": [asdict(actuation) for actuation in fresh]}
            assert [entry["action"] for entry in section["audit_tail"]] \
                == ["split_class"]
            assert set(section["audit_tail"][0]) == {
                "time", "controller", "target", "action", "detail"}
            assert not hasattr(manager, "registry")
        finally:
            cell_server.close()

    def test_close_releases_all_pollables(self):
        config = ServerConfig(
            cell=CellConfig(cell_name="short-lived"), discovery_port=0)
        cell_server = CellServer(config)
        cell_server.start()
        assert cell_server.scheduler.pollable_count() == 3
        cell_server.close()
        assert cell_server.scheduler.pollable_count() == 0
        assert cell_server.transport.fileno() == -1

    def test_double_stop_and_double_close_are_idempotent(self):
        """Regression: stop/close twice (in any mix) must be harmless —
        signal handlers and finally-blocks routinely double up."""
        config = ServerConfig(
            cell=CellConfig(cell_name="twice"), discovery_port=0)
        cell_server = CellServer(config)
        cell_server.start()
        cell_server.stop()
        cell_server.stop()
        cell_server.close()
        cell_server.close()
        assert cell_server.scheduler.pollable_count() == 0
        assert cell_server.transport.fileno() == -1

    def test_close_without_start_is_safe(self):
        config = ServerConfig(
            cell=CellConfig(cell_name="unstarted"), discovery_port=0)
        cell_server = CellServer(config)
        cell_server.close()
        cell_server.close()
        assert cell_server.transport.fileno() == -1

    def test_sockets_are_not_inheritable(self):
        """Fork-safety: no child (match workers included) may inherit the
        cell's sockets — a worker crash must never be able to disturb,
        or hold open, the parent's transport."""
        config = ServerConfig(
            cell=CellConfig(cell_name="no-leak"), discovery_port=0)
        cell_server = CellServer(config)
        try:
            assert not cell_server.transport._socket.get_inheritable()
            assert not cell_server.transport._broadcast_socket \
                .get_inheritable()
            assert not cell_server.healthz._listener.get_inheritable()
        finally:
            cell_server.close()


class TestWorkerDeployment:
    def _sharded_config(self, workers):
        return ServerConfig(
            cell=CellConfig(cell_name="worker-ward", shards=4,
                            beacon_period_s=0.05, heartbeat_period_s=0.05,
                            silent_after_s=0.5, purge_after_s=1.5,
                            sweep_period_s=0.1),
            discovery_port=0, guard_period_s=0.05, workers=workers)

    def test_workers_require_sharded_bus(self):
        config = ServerConfig(cell=CellConfig(cell_name="unsharded"),
                              discovery_port=0, workers=2)
        with pytest.raises(ConfigurationError):
            CellServer(config)
        with pytest.raises(ConfigurationError):
            ServerConfig(cell=CellConfig(cell_name="x"), workers=-1)

    def test_pool_lifecycle_and_crash_isolation(self):
        """The server owns the pool: spawned at start, supervised by the
        guard sweep, drained at stop — and a SIGKILLed worker cannot
        disturb the parent's selector (healthz keeps answering, no
        pollable appears or vanishes)."""
        import os
        import signal

        cell_server = CellServer(self._sharded_config(workers=2))
        try:
            assert cell_server.worker_pool is None     # start() spawns it
            cell_server.start()
            pool = cell_server.worker_pool
            assert pool is not None and pool.workers == 2
            pollables_before = cell_server.scheduler.pollable_count()

            snapshot = cell_server.snapshot()
            assert snapshot["workers"]["workers"] == 2
            assert len(snapshot["workers"]["alive"]) == 2

            victim = pool.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            # The guard sweep notices and respawns; the selector loop
            # never stutters while it happens.
            assert wait(cell_server,
                        lambda: pool.stats.respawns >= 1
                        and all(pool.stats_dict()["alive"]))
            assert cell_server.scheduler.pollable_count() \
                == pollables_before
            snapshot = read_healthz(
                cell_server.healthz_address,
                pump=lambda: cell_server.run_for(0.2))
            assert snapshot["workers"]["respawns"] >= 1
            assert pool.worker_pids()[0] != victim

            pids = [pid for pid in pool.worker_pids() if pid is not None]
            cell_server.stop()
            assert cell_server.worker_pool is None     # drained
            for pid in pids:
                with pytest.raises(OSError):
                    os.kill(pid, 0)                    # really gone
        finally:
            cell_server.close()


class TestDeviceBatching:
    def test_batched_publishes_ride_one_batch_frame(self):
        """A batching device coalesces N publishes into one BATCH send
        instead of N packets — the client-harness half of the batch
        pipeline."""
        config = ServerConfig(
            cell=CellConfig(cell_name="batch-ward", beacon_period_s=0.05,
                            heartbeat_period_s=0.05, silent_after_s=0.5,
                            purge_after_s=1.5, sweep_period_s=0.1),
            discovery_port=0, guard_period_s=0.1)
        cell_server = CellServer(config)
        device = None
        try:
            cell_server.start()
            device = make_devices(cell_server.scheduler, cell_server.address,
                                  1, announce_retry_s=0.05, batch=8)[0]
            device.start()
            assert wait(cell_server, lambda: device.joined)
            # The bus publishes its own smc.member.* events on join.
            base = cell_server.cell.bus.stats.published

            for index in range(7):
                assert device.publish("vitals", {"hr": 60 + index}) is None
            assert device.pending == 7                 # buffered, not sent
            assert device.client.stats.published == 0
            device.publish("vitals", {"hr": 99})       # 8th: auto-flush
            assert device.pending == 0
            assert device.client.stats.batches_sent >= 1
            assert device.client.stats.published == 8
            assert wait(cell_server,
                        lambda: cell_server.cell.bus.stats.published
                        >= base + 8)

            device.publish("vitals", {"hr": 42})       # partial buffer...
            device.leave()                             # ...flushed on leave
            assert device.pending == 0
            assert wait(cell_server,
                        lambda: cell_server.cell.bus.stats.published
                        >= base + 9)
        finally:
            if device is not None:
                device.close()
            cell_server.close()
