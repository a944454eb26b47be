"""Discovery service + agent over the ideal network.

Membership lifecycle: admission, auth, heartbeats, masking, purge, leave.
"""

import pytest

from repro.core.bus import EventBus
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
from repro.discovery.auth import (
    AllowAllAuthenticator,
    CompositeAuthenticator,
    DeviceTypeAllowList,
    SharedSecretAuthenticator,
)
from repro.discovery.lifecycle import LifecycleState
from repro.discovery.membership import MembershipTable, MemberRecord
from repro.discovery.messages import AnnounceBody, BeaconBody, JoinAckBody
from repro.discovery.service import DiscoveryConfig, DiscoveryService
from repro.errors import ConfigurationError, DiscoveryError
from repro.matching.filters import Filter


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


def membership_log(bus, sim):
    log = []
    bus.subscribe_local(Filter.for_type_prefix("smc.member"),
                        lambda e: log.append((e.type, e.get("name"),
                                              e.get("reason"))))
    return log


def transition_log(bus):
    """Every ``smc.member.state`` move as ``(name, previous, state)``."""
    moves = []
    bus.subscribe_local(Filter.where(MEMBER_STATE_TYPE),
                        lambda e: moves.append((e.get("name"),
                                                e.get("previous"),
                                                e.get("state"))))
    return moves


class TestConfig:
    def test_purge_must_exceed_silent(self):
        with pytest.raises(ConfigurationError):
            DiscoveryConfig(cell_name="c", silent_after_s=5.0,
                            purge_after_s=4.0)

    def test_empty_cell_name_rejected(self):
        with pytest.raises(ConfigurationError):
            DiscoveryConfig(cell_name="")

    def test_agent_needs_identity(self):
        with pytest.raises(ConfigurationError):
            AgentConfig(name="", device_type="x")


class TestAdmission:
    def test_join_produces_new_member_event(self, sim, endpoints):
        service, bus = make_service(sim, endpoints("core"))
        log = membership_log(bus, sim)
        agent = make_agent(sim, endpoints("dev"))
        service.start()
        agent.start()
        sim.run(3.0)
        assert agent.joined
        assert service.is_member(agent.endpoint.service_id)
        assert (NEW_MEMBER_TYPE, "dev", None) in log
        assert agent.last_join_was_new

    def test_target_cell_filtering(self, sim, endpoints):
        service, _ = make_service(sim, endpoints("core"), cell_name="ward-3")
        agent = make_agent(sim, endpoints("dev"), target_cell="ward-9")
        service.start()
        agent.start()
        sim.run(3.0)
        assert not agent.joined
        assert agent.state == AgentState.SEARCHING

    def test_stopped_service_ignores_announces(self, sim, endpoints):
        service, _ = make_service(sim, endpoints("core"))
        agent = make_agent(sim, endpoints("dev"))
        agent.start()        # service never started: no beacons, no joins
        sim.run(3.0)
        assert not agent.joined

    def test_leave_purges_immediately(self, sim, endpoints):
        service, bus = make_service(sim, endpoints("core"))
        log = membership_log(bus, sim)
        agent = make_agent(sim, endpoints("dev"))
        service.start()
        agent.start()
        sim.run(2.0)
        agent.stop()
        sim.run(3.0)
        assert (PURGE_MEMBER_TYPE, "dev", "leave") in log
        assert not service.is_member(agent.endpoint.service_id)

    def test_many_devices_join(self, sim, endpoints):
        service, _ = make_service(sim, endpoints("core"))
        agents = [make_agent(sim, endpoints(f"dev-{i}"), name=f"dev-{i}")
                  for i in range(8)]
        service.start()
        for agent in agents:
            agent.start()
        sim.run(5.0)
        assert sorted(service.member_names()) == [f"dev-{i}"
                                                  for i in range(8)]


class TestAuthentication:
    def test_shared_secret_accepts_valid_credential(self, sim, endpoints):
        auth = SharedSecretAuthenticator(b"ward-key")
        service, _ = make_service(sim, endpoints("core"), authenticator=auth)
        credential = auth.credential_for("dev", "service")
        agent = make_agent(sim, endpoints("dev"), credentials=credential)
        service.start()
        agent.start()
        sim.run(3.0)
        assert agent.joined

    def test_shared_secret_rejects_bad_credential(self, sim, endpoints):
        auth = SharedSecretAuthenticator(b"ward-key")
        service, _ = make_service(sim, endpoints("core"), authenticator=auth)
        agent = make_agent(sim, endpoints("dev"), credentials=b"wrong")
        reasons = []
        agent.on_rejected = reasons.append
        service.start()
        agent.start()
        sim.run(3.0)
        assert not agent.joined
        assert agent.state == AgentState.REJECTED
        assert reasons == ["bad credential"]
        assert service.stats.rejections >= 1

    def test_device_type_allowlist(self, sim, endpoints):
        auth = DeviceTypeAllowList({"sensor.hr"})
        service, _ = make_service(sim, endpoints("core"), authenticator=auth)
        good = make_agent(sim, endpoints("hr"), name="hr",
                          device_type="sensor.hr")
        bad = make_agent(sim, endpoints("toaster"), name="toaster",
                         device_type="kitchen.toaster")
        service.start()
        good.start()
        bad.start()
        sim.run(3.0)
        assert good.joined
        assert not bad.joined

    def test_composite_requires_all(self, sim, endpoints):
        secret = SharedSecretAuthenticator(b"k")
        auth = CompositeAuthenticator([DeviceTypeAllowList({"service"}),
                                       secret])
        service, _ = make_service(sim, endpoints("core"), authenticator=auth)
        agent = make_agent(sim, endpoints("dev"),
                           credentials=secret.credential_for("dev", "service"))
        service.start()
        agent.start()
        sim.run(3.0)
        assert agent.joined

    def test_rejected_agent_retries_after_backoff(self, sim, endpoints):
        auth = SharedSecretAuthenticator(b"k")
        service, _ = make_service(sim, endpoints("core"), authenticator=auth)
        agent = make_agent(sim, endpoints("dev"), credentials=b"bad")
        service.start()
        agent.start()
        sim.run(1.5)
        assert agent.state == AgentState.REJECTED
        sim.run(1.5 + 1.5 * REJECTION_BACKOFF_S + 5.0)   # jitter < 1.5x
        # Back to trying (and being rejected again).
        assert agent.stats.rejections >= 2


class TestLiveness:
    def test_heartbeats_keep_membership(self, sim, endpoints):
        service, bus = make_service(sim, endpoints("core"))
        log = membership_log(bus, sim)
        agent = make_agent(sim, endpoints("dev"))
        service.start()
        agent.start()
        sim.run(20.0)
        assert agent.joined
        assert not any(t == PURGE_MEMBER_TYPE for t, *_ in log)
        assert agent.stats.heartbeats_sent > 10

    def test_silence_then_purge(self, sim, net, endpoints):
        service, bus = make_service(sim, endpoints("core"))
        log = membership_log(bus, sim)
        moves = transition_log(bus)
        agent = make_agent(sim, endpoints("dev"))
        service.start()
        agent.start()
        sim.run(2.0)
        assert agent.joined
        net.set_link_blocked("core", "dev", True)         # total partition
        sim.run(12.0)
        assert moves.index(("dev", "healthy", "degraded")) \
            < moves.index(("dev", "degraded", "gone"))
        assert (PURGE_MEMBER_TYPE, "dev", "timeout") in log

    def test_transient_silence_masked(self, sim, net, endpoints):
        service, bus = make_service(sim, endpoints("core"))
        log = membership_log(bus, sim)
        moves = transition_log(bus)
        agent = make_agent(sim, endpoints("dev"))
        service.start()
        agent.start()
        sim.run(2.0)
        net.set_link_blocked("core", "dev", True)
        sim.run(4.0)          # silent but under the 4s purge threshold? 2s in
        net.set_link_blocked("core", "dev", False)
        sim.run(6.0)
        types = [t for t, *_ in log]
        assert moves.index(("dev", "healthy", "degraded")) \
            < moves.index(("dev", "degraded", "healthy"))
        assert PURGE_MEMBER_TYPE not in types
        assert agent.joined

    def test_rejoin_after_purge_is_new_session(self, sim, net, endpoints):
        service, bus = make_service(sim, endpoints("core"))
        log = membership_log(bus, sim)
        agent = make_agent(sim, endpoints("dev"))
        service.start()
        agent.start()
        sim.run(2.0)
        net.set_link_blocked("core", "dev", True)
        sim.run(12.0)         # purged
        net.set_link_blocked("core", "dev", False)
        sim.run(22.0)         # rejoins
        assert agent.joined
        assert agent.last_join_was_new
        assert [t for t, *_ in log].count(NEW_MEMBER_TYPE) == 2

    def test_reannounce_of_live_member_is_not_new_session(self, sim, net,
                                                          endpoints):
        service, bus = make_service(sim, endpoints("core"))
        log = membership_log(bus, sim)
        dev_endpoint = endpoints("dev")
        agent = make_agent(sim, dev_endpoint)
        service.start()
        agent.start()
        sim.run(2.0)
        # Force a re-announce by hand (e.g. the device missed our ack).
        from repro.transport.packets import PacketType
        dev_endpoint.send_control(
            "core", PacketType.ANNOUNCE,
            AnnounceBody("dev", "service").encode())
        sim.run(3.0)
        assert agent.last_join_was_new is False
        assert [t for t, *_ in log].count(NEW_MEMBER_TYPE) == 1

    def test_out_of_range_agent_detects_loss(self, sim, net, endpoints):
        service, _ = make_service(sim, endpoints("core"))
        agent = make_agent(sim, endpoints("dev"))
        losses = []
        agent.on_left = losses.append
        service.start()
        agent.start()
        sim.run(2.0)
        net.set_link_blocked("core", "dev", True)
        sim.run(5.0)
        assert not agent.joined
        assert losses == ["beacon silence"]
        assert agent.state == AgentState.SEARCHING


class TestMembershipTable:
    def test_admit_and_remove(self):
        table = MembershipTable()
        record = MemberRecord(member_id=1, name="a", device_type="t",
                              address="x", admitted_at=0.0, last_heard=0.0)
        table.admit(record)
        assert 1 in table
        assert table.get(1) is record
        removed = table.remove(1)
        assert removed.lifecycle is LifecycleState.GONE
        assert 1 not in table

    def test_double_admit_rejected(self):
        table = MembershipTable()
        record = MemberRecord(member_id=1, name="a", device_type="t",
                              address="x", admitted_at=0.0, last_heard=0.0)
        table.admit(record)
        with pytest.raises(DiscoveryError):
            table.admit(record)

    def test_remove_unknown_rejected(self):
        with pytest.raises(DiscoveryError):
            MembershipTable().remove(9)

    def test_heard_recovers_silent(self, sim, net, endpoints):
        service, _ = make_service(sim, endpoints("core"))
        agent = make_agent(sim, endpoints("dev"), beacon_timeout_s=100.0)
        service.start()
        agent.start()
        sim.run(2.0)
        (record,) = service.table.members()
        net.set_link_blocked("core", "dev", True)
        sim.run(4.0)                                # past silent_after_s
        assert record.lifecycle is LifecycleState.DEGRADED
        net.set_link_blocked("core", "dev", False)
        sim.run(5.0)
        assert record.lifecycle is LifecycleState.HEALTHY
        assert service.stats.recoveries == 1
        sim.run(7.0)                    # heard again: nothing to recover
        assert service.stats.recoveries == 1

    def test_in_state_listing(self):
        table = MembershipTable()
        for index in range(3):
            table.admit(MemberRecord(member_id=index, name=f"n{index}",
                                     device_type="t", address="x",
                                     admitted_at=0.0, last_heard=0.0,
                                     lifecycle=LifecycleState.HEALTHY))
        table.get(1).advance_lifecycle(LifecycleState.DEGRADED)
        assert [r.member_id for r in
                table.in_lifecycle(LifecycleState.HEALTHY)] == [0, 2]
        assert [r.member_id for r in
                table.in_lifecycle(LifecycleState.DEGRADED)] == [1]


class TestMessages:
    def test_beacon_roundtrip(self):
        body = BeaconBody("ward-3", "10.0.0.1:41200")
        assert BeaconBody.decode(body.encode()) == body

    def test_announce_roundtrip(self):
        body = AnnounceBody("hr-1", "sensor.hr", b"\x01\x02")
        assert AnnounceBody.decode(body.encode()) == body

    def test_join_ack_roundtrip(self):
        body = JoinAckBody("ward-3", 1.5, 10.0, new_session=False)
        assert JoinAckBody.decode(body.encode()) == body

    def test_trailing_bytes_rejected(self):
        from repro.errors import CodecError
        with pytest.raises(CodecError):
            BeaconBody.decode(BeaconBody("a", "b").encode() + b"junk")

    def test_truncated_rejected(self):
        from repro.errors import CodecError
        with pytest.raises(CodecError):
            JoinAckBody.decode(JoinAckBody("a", 1.0, 2.0).encode()[:-4])


class TestRoaming:
    """Satellite 2: a known member heard from a new address has roamed.

    Before the fix, the known-member re-announce path re-acked without
    updating ``record.address`` or migrating transport state, so the
    roamed device kept receiving its queued deliveries (and directed
    beacons) at the stale address until it was purged.
    """

    def _joined(self, sim, net, endpoints):
        core_ep = endpoints("core")
        service, bus = make_service(sim, core_ep)
        log = membership_log(bus, sim)
        dev_ep = endpoints("dev")
        agent = make_agent(sim, dev_ep)
        service.start()
        agent.start()
        sim.run(sim.now() + 2.0)
        assert agent.joined
        # Mute the real device's timers: its live heartbeats from "dev"
        # would legitimately roam the record straight back (last heard
        # address wins), racing the spoofed packets below.
        agent._cancel_timers()
        return service, bus, core_ep, dev_ep, agent, log

    def _spoof_from(self, net, address, packet):
        """Send ``packet`` into the core from a new transport address,
        keeping the original sender id — the device roamed."""
        roamed = net.add_node(address)
        roamed.set_receiver(lambda src, data: None)
        roamed.send("core", packet.encode())
        return roamed

    def test_announce_from_new_address_updates_record(
            self, sim, net, endpoints):
        from repro.core.events import MEMBER_MOVED_TYPE
        from repro.transport.packets import Packet, PacketType

        service, bus, core_ep, dev_ep, agent, log = self._joined(
            sim, net, endpoints)
        record = service.table.get(dev_ep.service_id)
        assert record.address == "dev"

        announce = AnnounceBody("dev", "service", b"")
        self._spoof_from(net, "dev-roamed",
                         Packet(type=PacketType.ANNOUNCE,
                                sender=dev_ep.service_id,
                                payload=announce.encode()))
        sim.run(sim.now() + 1.0)
        assert record.address == "dev-roamed"
        assert service.stats.roams == 1
        assert core_ep.address_of(dev_ep.service_id) == "dev-roamed"
        assert all(channel.peer_address == "dev-roamed"
                   for channel in core_ep.live_channels())
        moved = [entry for entry in log if entry[0] == MEMBER_MOVED_TYPE]
        assert moved == [(MEMBER_MOVED_TYPE, "dev", None)]
        # Still one member — a roam is not a rejoin.
        assert len(service.table) == 1
        assert service.stats.admissions == 1

    def test_queued_deliveries_follow_the_roam(self, sim, net, endpoints):
        from repro.transport.packets import Packet, PacketType

        service, bus, core_ep, dev_ep, agent, log = self._joined(
            sim, net, endpoints)
        # Strand deliveries toward the old address.
        net.block_one_way("core", "dev", True)
        core_ep.send_reliable("dev", b"queued-while-away")
        sim.run(sim.now() + 0.5)

        got = []
        roamed = net.add_node("dev-roamed")

        def on_datagram(src, data):
            packet = Packet.decode(data)
            if packet.type == PacketType.DATA:
                got.append(bytes(packet.payload))
                roamed.send(src, Packet(type=PacketType.ACK,
                                        sender=dev_ep.service_id,
                                        ack=packet.seq).encode())

        roamed.set_receiver(on_datagram)
        announce = AnnounceBody("dev", "service", b"")
        roamed.send("core", Packet(type=PacketType.ANNOUNCE,
                                   sender=dev_ep.service_id,
                                   payload=announce.encode()).encode())
        sim.run(sim.now() + 2.0)
        assert b"queued-while-away" in got

    def test_heartbeat_from_new_address_also_roams(self, sim, net,
                                                   endpoints):
        from repro.transport.packets import Packet, PacketType

        service, bus, core_ep, dev_ep, agent, log = self._joined(
            sim, net, endpoints)
        record = service.table.get(dev_ep.service_id)
        # The re-announce was lost; the first packet from the new home
        # is a heartbeat.
        self._spoof_from(net, "dev-roamed",
                         Packet(type=PacketType.HEARTBEAT,
                                sender=dev_ep.service_id))
        sim.run(sim.now() + 1.0)
        assert record.address == "dev-roamed"
        assert service.stats.roams == 1

    def test_same_address_reannounce_is_not_a_roam(self, sim, net,
                                                   endpoints):
        service, bus, core_ep, dev_ep, agent, log = self._joined(
            sim, net, endpoints)
        agent._send_announce()          # duplicate from the same address
        sim.run(sim.now() + 1.0)
        assert service.stats.roams == 0
        assert service.table.get(dev_ep.service_id).address == "dev"

    def test_roam_of_silent_member_also_recovers(self, sim, net,
                                                 endpoints):
        from repro.transport.packets import Packet, PacketType

        service, bus, core_ep, dev_ep, agent, log = self._joined(
            sim, net, endpoints)
        net.set_link_blocked("core", "dev", True)
        sim.run(sim.now() + 2.5)                    # past silent_after_s
        record = service.table.get(dev_ep.service_id)
        assert record.lifecycle is LifecycleState.DEGRADED
        net.set_link_blocked("core", "dev", False)
        announce = AnnounceBody("dev", "service", b"")
        self._spoof_from(net, "dev-roamed",
                         Packet(type=PacketType.ANNOUNCE,
                                sender=dev_ep.service_id,
                                payload=announce.encode()))
        sim.run(sim.now() + 1.0)
        assert record.lifecycle is LifecycleState.HEALTHY
        assert record.address == "dev-roamed"
        assert service.stats.roams == 1
        assert service.stats.recoveries == 1
