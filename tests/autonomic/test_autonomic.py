"""The control plane in isolation: controllers and the manager.

End-to-end behaviour (all loops live over a full core under churn) is
pinned by the autonomic soak parametrisation and the bench gates; these
tests pin each piece's contract — what it observes, when it actuates,
and what it writes to the audit log.
"""

from types import SimpleNamespace

import pytest

from repro.autonomic import (
    AutonomicConfig,
    AutonomicManager,
    FlushController,
    RttController,
    ShardRebalancer,
    build_bus_manager,
)
from repro.core.bus import EventBus
from repro.core.sharding import ShardedEventBus, ShardedMatcher
from repro.errors import ConfigurationError
from repro.ids import service_id_from_name
from repro.matching.filters import Constraint, Filter, Op, Subscription
from repro.sim.kernel import Simulator
from repro.transport.inmem import InMemoryHub
from repro.transport.packets import Packet
from repro.transport.reliability import ChannelStats, ReliableChannel

SID = service_id_from_name("autonomic-test")


def make_channel_pair(sim, delay_s, *, rto_initial=0.05, window=32):
    hub = InMemoryHub(sim, delay_s=delay_s)
    ta, tb = hub.create("tx"), hub.create("rx")
    delivered = []
    sender = ReliableChannel(ta, sim, "rx", lambda s, p: None,
                             window=window, rto_initial=rto_initial,
                             rto_max=2.0)
    receiver = ReliableChannel(tb, sim, "tx",
                               lambda s, p: delivered.append(p),
                               window=window)
    ta.set_receiver(lambda src, d: sender.handle_packet(Packet.decode(d)))
    tb.set_receiver(lambda src, d: receiver.handle_packet(Packet.decode(d)))
    return sender, receiver, delivered, hub


class TestRttController:
    def test_converges_from_default_config(self):
        """One default config, two links: the loop lands the RTO just
        above each link's true RTT."""
        for rtt in (0.003, 0.2):
            sim = Simulator()
            sender, _, _, _ = make_channel_pair(sim, rtt / 2.0)
            controller = RttController(lambda: [sender])
            manager = AutonomicManager(sim, controllers=[controller],
                                       config=AutonomicConfig(tick_s=0.05))
            manager.start()
            for i in range(120):
                sim.call_at(i * (rtt / 2.0) + 0.001, sender.send, b"x" * 64)
            sim.run(120 * (rtt / 2.0) + 5.0)
            manager.stop()
            assert sender.stats.rtt_samples > 30
            assert rtt < sender.rto_initial <= 2.0 * rtt, (
                f"rtt={rtt}: rto={sender.rto_initial}")
            assert manager.actuations("rtt")

    def test_blind_backoff_breaks_the_karn_deadlock(self):
        """RTO far below the RTT: every packet retransmits before its ack
        so Karn yields no samples — the controller must back off blind
        until the estimator gets evidence, then converge."""
        sim = Simulator()
        sender, _, delivered, _ = make_channel_pair(sim, 0.1,  # 200 ms RTT
                                                    rto_initial=0.02)
        controller = RttController(lambda: [sender])
        manager = AutonomicManager(sim, controllers=[controller],
                                   config=AutonomicConfig(tick_s=0.05))
        manager.start()
        for i in range(100):
            sim.call_at(i * 0.05, sender.send, b"y" * 64)
        sim.run(10.0)
        manager.stop()
        assert len(delivered) == 100
        actions = {a.action for a in manager.actuations("rtt")}
        assert "backoff_rto" in actions and "set_rto" in actions
        assert sender.stats.rtt_samples > 0
        assert 0.2 < sender.rto_initial <= 0.4

    def test_no_actuation_without_new_evidence(self):
        sim = Simulator()
        sender, _, _, _ = make_channel_pair(sim, 0.005)
        controller = RttController(lambda: [sender])
        sender.send(b"z")
        sim.run_until_idle()
        assert controller.tick(sim.now())          # first: adapts
        assert not controller.tick(sim.now())      # same samples: silent


class _FakeTarget:
    """Duck-typed FlushController target with scriptable stats."""

    def __init__(self):
        self.flush_limit = None
        self.stats = ChannelStats()
        self.quench = False
        self.endpoint = SimpleNamespace(window=32)    # starts at 4096

    def transport_stats(self):
        return self.stats


class TestFlushController:
    def make(self, target):
        return FlushController(lambda: [target], quenched=lambda t: t.quench,
                               label=lambda t: "member")

    def test_grows_on_clean_traffic_and_caps(self):
        target = _FakeTarget()
        controller = self.make(target)
        controller.tick(0.0)                       # baseline only
        grown = []
        for tick in range(1, 6):
            target.stats.sent += 50                # lossless traffic
            acts = controller.tick(float(tick))
            grown.extend(acts)
        assert target.flush_limit == 32768         # doubled up to the cap
        assert all(a.action == "grow_flush" for a in grown)
        assert controller.tick(6.0) == []          # at cap with no traffic

    def test_shrinks_under_loss_and_recovers(self):
        target = _FakeTarget()
        controller = self.make(target)
        controller.tick(0.0)
        target.stats.sent += 100
        target.stats.retransmissions += 20         # 20% loss
        (act,) = controller.tick(1.0)
        assert act.action == "shrink_flush"
        assert target.flush_limit == 2048          # 4096 // 2
        target.stats.sent += 100
        target.stats.retransmissions += 30
        controller.tick(2.0)
        assert target.flush_limit == 1024          # floor
        target.stats.sent += 100                   # clean again
        (act,) = controller.tick(3.0)
        assert act.action == "grow_flush" and target.flush_limit == 2048

    def test_quench_shrinks_without_traffic(self):
        target = _FakeTarget()
        controller = self.make(target)
        target.quench = True
        (act,) = controller.tick(0.0)
        assert act.action == "shrink_flush" and act.detail["quenched"]
        assert target.flush_limit == 2048

    def test_disconnected_target_is_skipped(self):
        target = _FakeTarget()
        target.transport_stats = lambda: None
        controller = self.make(target)
        assert controller.tick(0.0) == []
        assert target.flush_limit is None


def build_skewed_matcher(count=64, shards=8):
    matcher = ShardedMatcher(shards)
    for index in range(count):
        filt = Filter([Constraint("ward", Op.EQ, f"w-{index % 16}"),
                       Constraint("hr", Op.GT, 40 + index % 100)])
        matcher.subscribe(Subscription(index + 1, SID, [filt]))
    return matcher


class TestShardRebalancer:
    def test_splits_the_dominant_class(self):
        matcher = build_skewed_matcher()
        rebalancer = ShardRebalancer(matcher, hot_ratio=2.0, min_fragments=8)
        (act,) = rebalancer.tick(1.0)
        assert act.action == "split_class"
        assert act.detail["bucket_name"] == "ward"
        assert act.detail["moved"] == 64
        assert max(matcher.shard_loads()) < 64
        assert rebalancer.tick(2.0) == []          # already split: settles

    def test_balanced_table_is_left_alone(self):
        matcher = ShardedMatcher(4)
        for index, name in enumerate("abcdefgh"):
            matcher.subscribe(Subscription(index + 1, SID, [
                Filter([Constraint(name, Op.EQ, index)])]))
        rebalancer = ShardRebalancer(matcher, hot_ratio=2.0, min_fragments=1)
        assert rebalancer.tick(0.0) == []

    def test_no_eq_diversity_means_no_split(self):
        """A class whose only EQ operand is one value cannot be spread —
        splitting would just move the pin to another shard."""
        matcher = ShardedMatcher(8)
        for index in range(32):
            matcher.subscribe(Subscription(index + 1, SID, [
                Filter([Constraint("ward", Op.EQ, "w-0"),
                        Constraint("hr", Op.GT, index)])]))
        rebalancer = ShardRebalancer(matcher, hot_ratio=2.0, min_fragments=8)
        assert rebalancer.tick(0.0) == []
        assert not matcher.splits()


class TestManager:
    def test_tick_records_audit(self):
        sim = Simulator()
        matcher = build_skewed_matcher()
        manager = AutonomicManager(
            sim, [ShardRebalancer(matcher, hot_ratio=2.0, min_fragments=8)])
        fresh = manager.tick()
        assert [a.action for a in fresh] == ["split_class"]
        assert list(manager.audit) == fresh
        assert manager.actuations("rebalance") == fresh
        assert manager.actuations("rtt") == []
        assert manager.ticks == 1

    def test_periodic_start_stop(self):
        sim = Simulator()
        manager = AutonomicManager(sim, config=AutonomicConfig(tick_s=0.5))
        manager.start()
        with pytest.raises(ConfigurationError):
            manager.start()
        sim.run(2.6)
        assert manager.ticks == 5
        manager.stop()
        sim.run(5.0)
        assert manager.ticks == 5                  # timer cancelled

    def test_audit_is_bounded(self, monkeypatch):
        monkeypatch.setattr("repro.autonomic.manager.AUDIT_LIMIT", 1)
        sim = Simulator()
        manager = AutonomicManager(sim, [
            ShardRebalancer(matcher, hot_ratio=2.0, min_fragments=8)
            for matcher in (build_skewed_matcher(), build_skewed_matcher())])
        assert len(manager.tick()) == 2
        assert len(manager.audit) == 1

    def test_build_bus_manager_picks_controllers_by_bus(self):
        sim = Simulator()
        hub = InMemoryHub(sim)
        from repro.transport.endpoint import PacketEndpoint
        endpoint = PacketEndpoint(hub.create("core"), sim)

        sharded = ShardedEventBus(sim, 8)
        manager = build_bus_manager(sim, sharded, endpoint)
        assert {c.name for c in manager.controllers} == {
            "rtt", "flush", "rebalance"}

        single = EventBus(sim)
        manager = build_bus_manager(
            sim, single, PacketEndpoint(hub.create("c2"), sim))
        assert {c.name for c in manager.controllers} == {"rtt", "flush"}
