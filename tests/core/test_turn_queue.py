"""A receive turn is one publish: the bus's turn queue.

Member publications are queued while a receive turn is open and go
through ``publish_batch`` as one batch when it ends.  These tests pin
what that may change (how many match calls and payloads a turn costs) and
what it may not: who receives what, in what order, and every counter.
"""

import collections
import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import protocol
from repro.core.bootstrap import ProxyBootstrap
from repro.core.bus import DeliverMemo, EventBus
from repro.core.events import (
    NEW_MEMBER_TYPE,
    PURGE_MEMBER_TYPE,
    Event,
    decode_event,
    encode_event,
)
from repro.core.protocol import BusOp
from repro.devices.protocols import HeartRateProtocol
from repro.ids import service_id_from_name
from repro.matching.engine import make_engine
from repro.matching.filters import Filter, Subscription, encode_subscription
from repro.sim.kernel import Simulator
from repro.transport.base import Transport
from repro.transport.endpoint import PacketEndpoint
from repro.transport.packets import Packet, PacketType
from tests.matching.strategies import attribute_maps, filters

TURN_COUNTERS = ("turns", "turn_events", "turn_high_water")


def conserved(stats) -> bool:
    return stats.published == (stats.matched + stats.unmatched
                               + stats.duplicates_dropped
                               + stats.from_unknown_member)


def publish_frame(sender, seqno, attributes=None, event_type="t") -> bytes:
    return protocol.frame(BusOp.PUBLISH, encode_event(
        Event(event_type, attributes or {}, sender, seqno, 0.0)))


def delivered_keys(payloads) -> list[tuple[int, int]]:
    """(sender, seqno) of every DELIVER frame in ``payloads``, in order,
    whether it travelled alone or inside a BATCH."""
    keys = []
    for payload in payloads:
        op, body = protocol.unframe(payload)
        frames = protocol.parse_batch(body) if op == BusOp.BATCH else [payload]
        for framed in frames:
            op, body = protocol.unframe(framed)
            assert op == BusOp.DELIVER
            event, _ = decode_event(body)
            keys.append((int(event.sender), event.seqno))
    return keys


class TestOneTurnOnePublish:
    """On the in-memory hub a turn is one scheduler instant: everything
    sent before the scheduler runs arrives in the same turn."""

    def subscriber(self, kit, name="display"):
        """A member subscribed to every ``t`` event; returns the payloads
        its endpoint is handed."""
        endpoint = kit.device_endpoint(name)
        kit.admit(endpoint)
        got = []
        endpoint.set_payload_handler(lambda peer, data: got.append(bytes(data)))
        endpoint.send_reliable("core", protocol.frame(
            BusOp.SUBSCRIBE, encode_subscription(Subscription(
                1, endpoint.service_id, [Filter.where("t")]))))
        kit.sim.run_until_idle()
        return got

    def test_k_publishes_in_one_turn_leave_as_one_batch(self, kit, sim):
        got = self.subscriber(kit)
        sensors = [kit.client(f"sensor-{i}") for i in range(4)]
        stats = kit.bus.stats
        base = dataclasses.replace(stats)
        events = [sensor.publish("t", {"n": i})
                  for i, sensor in enumerate(sensors)]
        sim.run_until_idle()
        assert len(got) == 1                      # one payload, one packet
        assert got[0] == protocol.frame_batch(
            [protocol.deliver_frame(event) for event in events])
        assert (stats.turns, stats.turn_events) == (base.turns + 1,
                                                    base.turn_events + 4)
        assert stats.turn_high_water == 4
        assert stats.published == base.published + 4
        assert conserved(stats)

    def test_k_turns_leave_as_k_unwrapped_payloads(self, kit, sim):
        # A turn of one is a publish of one, in the instant it arrived:
        # the bytes a subscriber sees are the bytes it saw before there
        # was a queue.
        got = self.subscriber(kit)
        sensors = [kit.client(f"sensor-{i}") for i in range(4)]
        turns = kit.bus.stats.turns
        events = []
        for i, sensor in enumerate(sensors):
            events.append(sensor.publish("t", {"n": i}))
            sim.run_until_idle()
        assert got == [protocol.deliver_frame(event) for event in events]
        assert kit.bus.stats.turns == turns + 4
        assert kit.bus.stats.turn_high_water == 1

    def test_stats_move_at_turn_end_not_per_datagram(self, kit, sim):
        sensor = kit.client("sensor")
        published = kit.bus.stats.published
        sensor.publish("t", {"n": 1})
        sensor.publish("t", {"n": 2})
        sim.step()                                # first DATA handed up
        assert kit.bus.stats.published == published
        sim.run_until_idle()
        assert kit.bus.stats.published == published + 2

    def test_publish_subscribe_publish_in_one_batch_keeps_its_order(
            self, kit, sim):
        # The PUBLISH run ahead of the SUBSCRIBE is published before the
        # subscription exists, the one behind it after.
        endpoint = kit.device_endpoint("dev")
        member = kit.admit(endpoint)
        got = []
        endpoint.set_payload_handler(lambda peer, data: got.append(bytes(data)))
        subscribe = protocol.frame(BusOp.SUBSCRIBE, encode_subscription(
            Subscription(1, member, [Filter.where("t")])))
        endpoint.send_reliable("core", protocol.frame_batch(
            [publish_frame(member, 1), subscribe, publish_frame(member, 2)]))
        sim.run_until_idle()
        assert delivered_keys(got) == [(int(member), 2)]
        assert kit.bus.stats.unmatched == 1

    def test_subscription_in_a_later_datagram_of_the_turn_misses_earlier_events(
            self, kit, sim):
        sensor = kit.client("sensor")
        late = kit.client("late")
        seen = []
        first = sensor.publish("t", {"n": 1})
        late.subscribe(Filter.where("t"), seen.append)
        second = sensor.publish("t", {"n": 2})
        sim.run_until_idle()                      # all three: one turn
        assert first is not None
        assert [event.seqno for event in seen] == [second.seqno]

    @pytest.mark.parametrize("entry", ["publish", "publish_batch"])
    def test_a_direct_publish_goes_behind_what_the_turn_already_brought(
            self, kit, sim, entry):
        order = []
        kit.bus.subscribe_local(Filter.where("t"),
                                lambda event: order.append(event.get("n")))
        sensor = kit.client("sensor")
        local = Event("t", {"n": "local"}, kit.bus.service_id, 1, 0.0)
        real = kit.bootstrap._on_payload

        def routed(peer, payload):
            real(peer, payload)                   # queued: the turn is open
            if entry == "publish":
                kit.bus.publish(local)
            else:
                kit.bus.publish_batch([local])

        kit.core_endpoint.set_payload_handler(routed)
        sensor.publish("t", {"n": "member"})
        sim.run_until_idle()
        assert order == ["member", "local"]

    def test_purge_mid_turn_publishes_the_members_events_first(self, kit, sim):
        seen = []
        kit.bus.subscribe_local(Filter.where("t"), seen.append)
        sensor = kit.client("sensor")
        member = sensor.service_id
        event = sensor.publish("t", {"n": 1})
        sim.step()                                # queued, turn still open
        kit.bus.proxy_of(member).destroy()
        assert not kit.bus.is_member(member)
        sim.run_until_idle()
        assert seen == [event]          # published as the member's, once
        assert conserved(kit.bus.stats)

    def test_unregistering_a_member_publishes_its_queued_events_first(
            self, kit, sim):
        # Called directly, not through Proxy.destroy: the watermark must
        # go after the queued event used it, not before.
        seen = []
        kit.bus.subscribe_local(Filter.where("t"), seen.append)
        sensor = kit.client("sensor")
        event = sensor.publish("t", {"n": 1})
        sim.step()
        kit.bus.unregister_member(sensor.service_id)
        assert kit.bus.stats.matched == 2         # New Member, then this
        assert kit.bus.publish(event) is True     # a fresh session's seqno
        sim.run(sim.now())
        assert seen == [event, event]

    def test_transport_closed_mid_turn_is_flushed_by_cell_stop(self, sim,
                                                               simnet):
        from repro.smc.cell import CellConfig, SelfManagedCell
        from repro.sim.hosts import PDA_PROFILE
        from repro.transport.simnet import SimTransport
        simnet.add_node("pda", profile=PDA_PROFILE)
        cell = SelfManagedCell(SimTransport(simnet, "pda"), sim,
                               CellConfig(cell_name="ward"))
        seen = []
        cell.subscribe(Filter.where("t"), seen.append)
        member = service_id_from_name("dev")
        simnet.add_node("dev")
        cell.endpoint.learn_peer(member, "dev")
        cell.publisher("manual-discovery").publish(NEW_MEMBER_TYPE, {
            "member": int(member), "name": "dev", "device_type": "service",
            "address": "dev"})
        sim.run_until_idle()
        # The member wants them back, too: a delivery nobody can send.
        cell.bus.subscribe_member(member, [Filter.where("t")])
        published = cell.bus.stats.published
        # Two events handed up, then the transport dies before turn end.
        proxy = cell.bus.proxy_of(member)
        proxy.on_payload(publish_frame(member, 1))
        proxy.on_payload(publish_frame(member, 2))
        cell.endpoint.close()
        sim.run_until_idle()                      # the turn end is dropped
        assert cell.bus.stats.published == published
        cell.stop()                               # must not raise
        assert cell.bus.stats.published == published + 2
        assert conserved(cell.bus.stats)
        sim.run_until_idle()
        assert [event.seqno for event in seen] == [1, 2]


class TestSharedPayloads:
    """Subscribers whose slices hold the same events share the chunked
    payloads of one dispatch, not just the frames."""

    def fan_out(self, kit, monkeypatch, count=4):
        """``count`` members subscribed to every ``t`` event; returns
        their names and the payload objects handed to each one's hop."""
        names = [f"sub-{i}" for i in range(count)]
        for name in names:
            member = kit.admit(kit.device_endpoint(name))
            kit.bus.subscribe_member(member, [Filter.where("t")])
        sent = collections.defaultdict(list)
        monkeypatch.setattr(
            kit.core_endpoint, "send_reliable",
            lambda address, payload: sent[address].append(payload))
        return names, sent

    def test_equal_slices_share_one_payload_object(self, kit, sim,
                                                   monkeypatch):
        names, sent = self.fan_out(kit, monkeypatch)
        joins = []
        real = protocol.chunk_frames
        monkeypatch.setattr(
            protocol, "chunk_frames",
            lambda frames, limit: joins.append(len(frames))
            or real(frames, limit))
        kit.bus.local_publisher("svc").publish_batch(
            [("t", {"n": i}) for i in range(5)])
        first = sent[names[0]]
        assert len(first) == 1 and protocol.unframe(first[0])[0] == BusOp.BATCH
        for name in names[1:]:
            assert len(sent[name]) == 1
            assert sent[name][0] is first[0]
        assert joins == [5]                       # one join for four slices

    def test_a_capacity_split_slice_is_chunked_for_itself(self, kit, sim,
                                                          monkeypatch):
        names, sent = self.fan_out(kit, monkeypatch)
        kit.bus.proxy_of(service_id_from_name(names[0])).capacity = 2
        kit.bus.local_publisher("svc").publish_batch(
            [("t", {"n": i}) for i in range(5)])
        split, whole = sent[names[0]], sent[names[1]]
        assert len(whole) == 1 and len(split) == 3
        assert all(payload is not whole[0] for payload in split)
        assert delivered_keys(split) == delivered_keys(whole)
        assert sent[names[2]][0] is whole[0]      # the others still share

    def test_a_flush_limit_of_its_own_is_chunked_for_itself(self, kit, sim,
                                                            monkeypatch):
        names, sent = self.fan_out(kit, monkeypatch)
        kit.bus.proxy_of(service_id_from_name(names[0])).flush_limit = 64
        kit.bus.local_publisher("svc").publish_batch(
            [("t", {"n": i, "pad": "x" * 40}) for i in range(4)])
        assert len(sent[names[1]]) == 1
        assert len(sent[names[0]]) > 1
        assert delivered_keys(sent[names[0]]) \
            == delivered_keys(sent[names[1]])

    def test_a_narrower_slice_gets_its_own_payload(self, kit, sim,
                                                   monkeypatch):
        names, sent = self.fan_out(kit, monkeypatch, count=2)
        picky = kit.admit(kit.device_endpoint("picky"))
        kit.bus.subscribe_member(picky, [Filter.where("t", n=1)])
        events = kit.bus.local_publisher("svc").publish_batch(
            [("t", {"n": i}) for i in range(3)])
        assert sent["picky"] == [protocol.deliver_frame(events[1])]
        assert sent[names[1]][0] is sent[names[0]][0]

    def test_a_translating_proxy_gets_bytes_of_its_own(self, kit, sim,
                                                       monkeypatch):
        kit.bootstrap.register_translator(HeartRateProtocol("p-1"))
        sensors = [kit.admit(kit.device_endpoint(f"hr-{i}"),
                             device_type="sensor.hr") for i in range(2)]
        sent = []
        monkeypatch.setattr(kit.core_endpoint, "send_reliable",
                            lambda address, payload: sent.append(payload))
        kit.bus.local_publisher("policy").publish_batch(
            [("smc.cmd.set_threshold", {"target": "monitor", "value": 130}),
             ("smc.cmd.set_threshold", {"target": "monitor", "value": 120})])
        assert len(sent) == 2 and sent[0] == sent[1]
        assert sent[0] is not sent[1]
        assert all(kit.bus.proxy_of(s).stats.commands_translated == 2
                   for s in sensors)

    def test_memo_keys_payloads_by_events_and_limit(self):
        sender = service_id_from_name("s")
        events = [Event("t", {"n": i}, sender, i + 1, 0.0) for i in range(3)]
        memo = DeliverMemo()
        whole = memo.payloads(events, 4096)
        assert memo.payloads(list(events), 4096) is whole
        assert memo.payloads(events[:2], 4096) is not whole
        assert memo.payloads(events, 8) is not whole
        assert memo.payloads(events[:1], 4096) \
            == [memo.deliver_frame(events[0])]
        assert whole == protocol.chunk_frames(
            [protocol.deliver_frame(event) for event in events], 4096)


# -- differential: however a run of datagrams is cut into turns ----------------

class TurnTransport(Transport):
    """A socket-style transport whose drains the test cuts by hand."""

    def __init__(self) -> None:
        super().__init__(service_id_from_name("core"), "core")
        self.sent: list[tuple[str, bytes]] = []

    def _send_datagram(self, dest, payload: bytes) -> None:
        self.sent.append((dest, payload))

    def _broadcast_datagram(self, payload: bytes) -> None:
        pass

    def turn(self, arrivals) -> None:
        """One receive turn, bracketed as ``UdpTransport._drain`` brackets
        one.  An arrival is a ``(src, datagram)`` pair, or a callable
        standing for something the cell does by itself mid-drain."""
        self._turn_open = True
        try:
            for arrival in arrivals:
                if callable(arrival):
                    arrival()
                else:
                    self._deliver(*arrival)
        finally:
            self._end_turn()


MEMBERS = ("m0", "m1", "m2", "m3")

#: Mostly filters that match something, or the table never matters.
loose_filters = st.one_of(st.just(Filter([])), filters(max_constraints=1),
                          filters())
publish_ops = st.tuples(st.just("publish"), attribute_maps(),
                        st.booleans())               # resend the last seqno?
subscribe_ops = st.tuples(st.just("subscribe"), loose_filters)
unsubscribe_ops = st.tuples(st.just("unsubscribe"), st.integers(0, 2))
frame_ops = st.one_of(publish_ops, publish_ops, subscribe_ops,
                      unsubscribe_ops)
member_ops = st.tuples(
    st.sampled_from(("frame", "batch")), st.integers(0, 3),
    st.lists(frame_ops, min_size=1, max_size=5))
cell_ops = st.one_of(
    st.tuples(st.just("purge"), st.integers(0, 3)),
    st.tuples(st.just("local-publish"), attribute_maps()),
    st.tuples(st.just("local-subscribe"), loose_filters),
    st.tuples(st.just("local-unsubscribe"), st.integers(0, 2)),
    st.tuples(st.just("settle")))
scripts = st.lists(st.one_of(member_ops, member_ops, member_ops, cell_ops),
                   min_size=1, max_size=30)


class TurnRig:
    """A bus core fed hand-built DATA packets through a TurnTransport.

    ``script`` is cut into segments at its ``settle`` steps, where the
    scheduler runs (local callbacks fire, purged proxies destroy
    themselves), exactly as timers run between two socket drains.  A
    segment is fed either one datagram per turn or as one turn.
    """

    def __init__(self, engine: str, member_count: int) -> None:
        self.sim = Simulator()
        self.transport = TurnTransport()
        self.endpoint = PacketEndpoint(self.transport, self.sim,
                                       window=1 << 16)
        self.bus = EventBus(self.sim, make_engine(engine))
        self.bootstrap = ProxyBootstrap(self.bus, self.endpoint)
        self.discovery = self.bus.local_publisher("manual-discovery")
        self.local = self.bus.local_publisher("svc")
        #: (local subscriber, sender, seqno) per callback invocation.
        self.local_log: list[tuple[int, int, int]] = []
        self.local_subs: list[int] = []
        self.names = MEMBERS[:member_count]
        self.ids = [service_id_from_name(name) for name in self.names]
        self.packet_seq = {member: 0 for member in self.ids}
        self.event_seq = {member: 0 for member in self.ids}
        self.client_subs = {member: 0 for member in self.ids}
        for name, member in zip(self.names, self.ids):
            self.endpoint.learn_peer(member, name)
            self.discovery.publish(NEW_MEMBER_TYPE, {
                "member": int(member), "name": name,
                "device_type": "service", "address": name})
        self.subscribe_local(Filter([]))
        self.settle()

    def settle(self) -> None:
        self.sim.run(self.sim.now())     # this instant only: no RTO fires

    def subscribe_local(self, filt: Filter) -> None:
        index = len(self.local_subs)
        self.local_subs.append(self.bus.subscribe_local(
            filt, lambda event: self.local_log.append(
                (index, int(event.sender), event.seqno))))

    # -- script -> arrivals ----------------------------------------------

    def _frame(self, member, op) -> bytes:
        if op[0] == "publish":
            _, attributes, resend = op
            if not resend or not self.event_seq[member]:
                self.event_seq[member] += 1
            return publish_frame(member, self.event_seq[member], attributes)
        if op[0] == "subscribe":
            self.client_subs[member] += 1
            return protocol.frame(BusOp.SUBSCRIBE, encode_subscription(
                Subscription(self.client_subs[member], member, [op[1]])))
        return protocol.frame_unsubscribe(op[1])

    def _datagram(self, member, payload: bytes) -> tuple[str, bytes]:
        self.packet_seq[member] += 1
        packet = Packet(type=PacketType.DATA, sender=member,
                        seq=self.packet_seq[member], payload=payload)
        return self.names[self.ids.index(member)], packet.encode()

    def _cell_step(self, step):
        kind = step[0]
        if kind == "purge" and step[1] < len(self.ids):
            member = self.ids[step[1]]
            return lambda: self.discovery.publish(PURGE_MEMBER_TYPE, {
                "member": int(member), "name": "-", "reason": "test"})
        if kind == "local-publish":
            return lambda: self.local.publish("t", step[1])
        if kind == "local-subscribe":
            return lambda: self.subscribe_local(step[1])
        if kind == "local-unsubscribe" and step[1] < len(self.local_subs):
            def unsubscribe(index=step[1]):
                sub_id, self.local_subs[index] = self.local_subs[index], None
                if sub_id is not None:
                    self.bus.unsubscribe_local(sub_id)
            return unsubscribe
        return None

    def arrivals(self, segment) -> list:
        """Datagrams and cell-side steps of one segment, in order.  A
        member whose proxy is gone (destroyed at the last settle) starts
        a fresh channel, as a device does when its session ends."""
        for member in self.ids:
            if not self.bus.is_member(member):
                self.packet_seq[member] = 0
        out = []
        for step in segment:
            if step[0] in ("frame", "batch"):
                kind, index, ops = step
                member = self.ids[index % len(self.ids)]
                frames = [self._frame(member, op) for op in ops]
                if kind == "batch":
                    out.append(self._datagram(
                        member, protocol.frame_batch(frames)))
                else:
                    out.extend(self._datagram(member, framed)
                               for framed in frames)
            else:
                action = self._cell_step(step)
                if action is not None:
                    out.append(action)
        return out

    def run(self, script, one_turn_per_segment: bool) -> None:
        segment = []
        for step in [*script, ("settle",)]:
            if step[0] != "settle":
                segment.append(step)
                continue
            arrivals = self.arrivals(segment)
            if one_turn_per_segment:
                self.transport.turn(arrivals)
            else:
                for arrival in arrivals:
                    self.transport.turn([arrival])
            segment = []
            self.settle()

    # -- what came out -----------------------------------------------------

    def deliveries(self) -> dict[str, list[tuple[int, int]]]:
        payloads: dict[str, list[bytes]] = {name: [] for name in self.names}
        for dest, datagram in self.transport.sent:
            packet = Packet.decode(datagram)
            if packet.type == PacketType.DATA:
                payloads[dest].append(bytes(packet.payload))
        return {name: delivered_keys(
            [p for p in sent if protocol.unframe(p)[0] != BusOp.QUENCH])
            for name, sent in payloads.items()}

    def local_deliveries(self) -> dict[int, list[tuple[int, int]]]:
        """What each local callback saw, in the order it saw it.  (One
        publish walks its local subscribers slice by slice, so how two
        callbacks' events interleave is not part of the contract — PR 14
        — and a turn published as one batch interleaves them that way.)"""
        seen: dict[int, list[tuple[int, int]]] = {}
        for index, sender, seqno in self.local_log:
            seen.setdefault(index, []).append((sender, seqno))
        return seen

    def counters(self) -> dict:
        stats = dataclasses.asdict(self.bus.stats)
        return {name: value for name, value in stats.items()
                if name not in TURN_COUNTERS}

    def proxy_counters(self) -> list:
        """Per-member ProxyStats, flush count aside: fewer flushes for
        the same events is what a turn is for."""
        counters = []
        for member in self.ids:
            if self.bus.is_member(member):
                stats = dataclasses.asdict(self.bus.proxy_of(member).stats)
                del stats["batches_flushed"]
                counters.append(stats)
            else:
                counters.append(None)
        return counters


class TestTurnCuttingChangesNothing:
    @settings(max_examples=300, deadline=None)
    @given(scripts, st.integers(2, 4))
    # One script per bus entry that must see the queue published first
    # (each fails if that entry stops flushing), then a duplicate.
    @example([("frame", 0, [("subscribe", Filter([]))]), ("settle",),
              ("frame", 1, [("publish", {"a": 1}, False)]),
              ("frame", 0, [("unsubscribe", 1)])], 2)
    @example([("frame", 1, [("publish", {"a": 1}, False)]),
              ("frame", 0, [("subscribe", Filter([]))])], 2)
    @example([("local-subscribe", Filter([])), ("settle",),
              ("frame", 1, [("publish", {"a": 1}, False)]),
              ("local-unsubscribe", 1)], 2)
    @example([("frame", 1, [("publish", {"a": 1}, False)]),
              ("local-subscribe", Filter([]))], 2)
    @example([("frame", 1, [("publish", {"a": 1}, False)]),
              ("local-publish", {"a": 2})], 2)
    @example([("frame", 0, [("subscribe", Filter([]))]),
              ("batch", 1, [("publish", {}, False), ("publish", {}, True)]),
              ("frame", 1, [("publish", {}, True)]), ("purge", 1),
              ("frame", 1, [("publish", {}, False)]), ("settle",),
              ("frame", 1, [("publish", {}, False)])], 3)
    def test_one_turn_per_datagram_and_one_turn_per_drain_agree(
            self, script, member_count):
        """The reference takes every datagram as its own turn (a publish
        per datagram, as before the queue) and matches by brute force;
        the subject takes each whole drain as one turn on the forwarding
        engine.  Same deliveries in the same per-subscriber order, same
        local callbacks, same counters."""
        reference = TurnRig("brute", member_count)
        subject = TurnRig("forwarding", member_count)
        reference.run(script, one_turn_per_segment=False)
        subject.run(script, one_turn_per_segment=True)

        assert subject.deliveries() == reference.deliveries()
        assert subject.local_deliveries() == reference.local_deliveries()
        assert subject.counters() == reference.counters()
        assert subject.proxy_counters() == reference.proxy_counters()
        assert conserved(subject.bus.stats)
        # The queue is empty once the last turn has ended.
        published = subject.bus.stats.published
        subject.bus.flush_turn()
        assert subject.bus.stats.published == published
        assert subject.bus.stats.turns <= reference.bus.stats.turns
        assert subject.bus.stats.turn_events \
            == reference.bus.stats.turn_events

    def test_the_rig_does_coalesce(self):
        # Guard against a vacuous differential: one drain, one turn.
        script = [("frame", 0, [("publish", {"a": 1}, False)] * 3),
                  ("frame", 1, [("subscribe", Filter([]))]),
                  ("frame", 0, [("publish", {"a": 2}, False)] * 2),
                  ("batch", 2, [("publish", {"a": 3}, False)] * 2)]
        reference = TurnRig("brute", 3)
        subject = TurnRig("forwarding", 3)
        reference.run(script, one_turn_per_segment=False)
        subject.run(script, one_turn_per_segment=True)
        # Reference: a turn per publishing datagram.  Subject: the
        # SUBSCRIBE cuts the drain's queue once, the turn end once more.
        assert (reference.bus.stats.turns, subject.bus.stats.turns) == (6, 2)
        assert subject.bus.stats.turn_high_water == 4
        assert subject.deliveries() == reference.deliveries()
        assert subject.deliveries()["m1"] == [
            (int(subject.ids[0]), 4), (int(subject.ids[0]), 5),
            (int(subject.ids[2]), 1), (int(subject.ids[2]), 2)]


@pytest.mark.parametrize("one_turn", [False, True])
def test_rig_exercises_purge_and_unknown_members(one_turn):
    script = [("frame", 0, [("subscribe", Filter([]))]),
              ("frame", 1, [("publish", {"a": 1}, False)]),
              ("purge", 1),
              ("frame", 1, [("publish", {"a": 2}, False)]),   # still member
              ("settle",),
              ("frame", 1, [("publish", {"a": 3}, False)])]   # no longer
    rig = TurnRig("forwarding", 2)
    rig.run(script, one_turn_per_segment=one_turn)
    assert rig.bus.stats.from_unknown_member == 1
    assert rig.bus.stats.purged_members == 1
    # m0 (subscribed to everything) saw the purge event go by between
    # the purged member's two publications, and the third never.
    purged, discovery = int(rig.ids[1]), int(rig.discovery.sender)
    assert [key for key in rig.deliveries()["m0"]
            if key[0] == purged or key == (discovery, 3)] \
        == [(purged, 1), (discovery, 3), (purged, 2)]
    assert conserved(rig.bus.stats)
