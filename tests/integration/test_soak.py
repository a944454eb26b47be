"""Seeded soak: thousands of events, membership churn, exact accounting.

Drives a full SMC core (clients -> channels -> proxies -> bus) over the
in-memory simulated network for thousands of events while members are
purged and readmitted, mixing the per-event and batch publish pipelines,
plus hostile traffic (publications from a non-member) and bus-level
duplicates.  Asserts the paper's semantics verbatim:

* **exactly-once-while-member** — a subscriber receives every matching
  event published while it is a settled member, exactly once, and nothing
  from its purged windows;
* **per-sender FIFO** — every inbox sees each sender's events in
  strictly increasing seqno order;
* **counter consistency** — ``published == matched + unmatched +
  duplicates_dropped + from_unknown_member`` (every publication attempt
  is accounted exactly once).

The autonomic parametrisation re-runs the whole soak with the MAPE-K
control plane fully enabled (RTT controller, adaptive flush, shard
rebalancer) and ticking between every round, so RTO retuning, flush-cap
changes and a live hot-class split all land *mid-stream*, interleaved
with purges and readmissions — and none of the semantics above may move.
"""

import random

import pytest

from repro.autonomic import AutonomicConfig, FlushController, ShardRebalancer
from repro.core import protocol
from repro.core.events import Event, encode_event
from repro.core.protocol import BusOp
from repro.ids import service_id_from_name
from repro.matching.filters import Filter
from repro.sim.kernel import Simulator
from repro.transport.inmem import InMemoryHub

from tests.core.conftest import CoreKit

EVENT_TYPES = ("health.hr", "health.temp", "health.alarm", "mgmt.ping")

#: Application traffic only — keeps the ground-truth expectation free of
#: the smc.* membership events the churn itself publishes.
APP_FILTERS = [Filter.for_type_prefix("health."), Filter.where("mgmt.ping")]

ROUNDS = 40
PUBLISHERS = 5
EVENTS_PER_ROUND = (8, 14)       # rng-drawn per publisher per round


class SoakSubscriber:
    """One remote subscriber plus its ground-truth expectation."""

    def __init__(self, kit, name, filters):
        self.kit = kit
        self.name = name
        self.filters = filters
        self.client = kit.client(name)
        self.inbox = []
        self.expected = []
        self.member = True               # settled member right now
        self.client.subscribe(filters, self.inbox.append)
        kit.sim.run_until_idle()

    def purge(self):
        self.kit.purge(self.client.service_id)
        self.member = False

    def readmit(self):
        self.kit.admit(self.client.endpoint, name=self.name)
        self.client.endpoint.reset_channel_to("core")
        self.client.resubscribe_all()
        self.kit.sim.run_until_idle()
        self.member = True

    def expect(self, event):
        if self.member and any(f.matches(event.attrs_view())
                               for f in ([self.filters]
                                         if isinstance(self.filters, Filter)
                                         else self.filters)):
            self.expected.append((event.sender, event.seqno))

    def keys(self):
        return [(e.sender, e.seqno) for e in self.inbox]


def assert_per_sender_fifo(inbox):
    last = {}
    for event in inbox:
        assert event.seqno > last.get(event.sender, 0), (
            f"FIFO violated for sender {event.sender}: "
            f"{event.seqno} after {last.get(event.sender)}")
        last[event.sender] = event.seqno


SOAK_AUTONOMIC = AutonomicConfig()


def make_controllers_eager(kit, monkeypatch):
    """Aggressive thresholds so every controller actually actuates within
    the soak's small table and burst sizes: the point is semantics under
    live actuation, not production tuning."""
    monkeypatch.setattr(FlushController, "MIN_SENT", 1)
    monkeypatch.setattr(FlushController, "MIN_BYTES", 512)
    controllers = kit.autonomic.controllers
    controllers[[c.name for c in controllers].index("rebalance")] = \
        ShardRebalancer(kit.bus.sharded, hot_ratio=1.2, min_fragments=2)


@pytest.mark.parametrize("seed,shards,autonomic", [
    (7, 1, None), (2026, 1, None),      # the classic single bus
    (7, 2, None), (2026, 8, None),      # sharded cores: semantics fixed
    (11, 8, SOAK_AUTONOMIC),            # all three loops actuating live
])
def test_soak_churn_exactly_once_fifo_and_counters(seed, shards, autonomic,
                                                   monkeypatch):
    rng = random.Random(seed)
    sim = Simulator()
    hub = InMemoryHub(sim)
    kit = CoreKit(sim, hub, shards=shards, autonomic=autonomic)
    if autonomic is not None:
        make_controllers_eager(kit, monkeypatch)

    publishers = [kit.client(f"pub-{i}") for i in range(PUBLISHERS)]
    pub_member = {p.service_id: True for p in publishers}
    sim.run_until_idle()

    # Subscribers: a never-churned catch-all, a content-filtered one, and
    # one that is purged and readmitted repeatedly.
    steady = SoakSubscriber(kit, "sub-steady", APP_FILTERS)
    vitals = SoakSubscriber(kit, "sub-vitals", Filter.where("health.hr"))
    churny = SoakSubscriber(kit, "sub-churny", APP_FILTERS)
    subscribers = [steady, vitals, churny]

    # A co-located service subscribing to the app traffic via the local API.
    local_inbox = []
    local_expected = []
    kit.bus.subscribe_local(APP_FILTERS, local_inbox.append)

    # Hostile traffic source: never admitted, publishes anyway.
    stranger = kit.device_endpoint("stranger")
    stranger_events = 0

    # Bus-level duplicate source: the same stamped event published twice.
    dup_sender = service_id_from_name("dup-sender")
    dup_seqno = 0
    duplicates_injected = 0

    def record_expectations(event):
        for subscriber in subscribers:
            subscriber.expect(event)
        if any(f.matches(event.attrs_view()) for f in APP_FILTERS):
            local_expected.append((event.sender, event.seqno))

    total_member_published = 0
    for round_no in range(ROUNDS):
        # Publish a burst from every currently-admitted publisher, half
        # through the per-event path, half through the batch pipeline.
        for publisher in publishers:
            if not pub_member[publisher.service_id]:
                continue
            count = rng.randint(*EVENTS_PER_ROUND)
            items = []
            for _ in range(count):
                event_type = rng.choice(EVENT_TYPES)
                items.append((event_type, {
                    "hr": rng.randint(40, 180),
                    "src": str(publisher.service_id)}))
            if rng.random() < 0.5:
                events = publisher.publish_batch(items)
            else:
                events = [publisher.publish(t, attrs) for t, attrs in items]
            total_member_published += len(events)
            for event in events:
                record_expectations(event)
        sim.run_until_idle()

        # Hostile and duplicate traffic, occasionally.
        if round_no % 5 == 1:
            event = Event("mgmt.ping", {"n": round_no},
                          stranger.service_id, stranger_events + 1, sim.now())
            frame = protocol.frame(BusOp.PUBLISH, encode_event(event))
            if rng.random() < 0.5:
                stranger.send_reliable("core", frame)
                stranger_events += 1
            else:
                event2 = Event("mgmt.ping", {"n": round_no},
                               stranger.service_id, stranger_events + 2,
                               sim.now())
                stranger.send_reliable("core", protocol.frame_batch(
                    [frame, protocol.frame(BusOp.PUBLISH,
                                           encode_event(event2))]))
                stranger_events += 2
            sim.run_until_idle()
        if round_no % 7 == 2:
            dup_seqno += 1
            event = Event("mgmt.ping", {"n": round_no}, dup_sender,
                          dup_seqno, sim.now())
            assert kit.bus.publish(event) is True
            record_expectations(event)
            assert kit.bus.publish(event) is False     # suppressed duplicate
            duplicates_injected += 1
            sim.run_until_idle()

        # Membership churn: everything is idle, so purges are race-free.
        if round_no % 8 == 3:
            churny.purge()
        elif round_no % 8 == 5:
            churny.readmit()
        if round_no % 11 == 4:
            victim = publishers[rng.randrange(len(publishers))]
            kit.purge(victim.service_id)
            pub_member[victim.service_id] = False
        elif round_no % 11 == 6:
            for publisher in publishers:
                if not pub_member[publisher.service_id]:
                    kit.admit(publisher.endpoint,
                              name=f"pub-re-{publisher.service_id}")
                    publisher.endpoint.reset_channel_to("core")
                    pub_member[publisher.service_id] = True
            sim.run_until_idle()
        sim.run_until_idle()

        # One control-plane round per soak round: actuations (RTO
        # retunes, flush resizes, the hot-class split) land between
        # bursts, interleaved with the membership churn above.
        if kit.autonomic is not None:
            kit.autonomic.tick()
            sim.run_until_idle()

    if not churny.member:
        churny.readmit()
    sim.run(sim.now() + 60.0)
    assert total_member_published > 2000, "soak must cover thousands of events"

    # -- exactly-once-while-member ----------------------------------------
    for subscriber in subscribers:
        assert len(set(subscriber.keys())) == len(subscriber.keys()), (
            f"{subscriber.name} saw a duplicate")
        assert sorted(subscriber.keys()) == sorted(subscriber.expected), (
            f"{subscriber.name}: delivered set != published-while-member set")
    assert sorted((e.sender, e.seqno) for e in local_inbox) \
        == sorted(local_expected)

    # -- per-sender FIFO ----------------------------------------------------
    for subscriber in subscribers:
        assert_per_sender_fifo(subscriber.inbox)
    assert_per_sender_fifo(local_inbox)

    # -- counter consistency ------------------------------------------------
    stats = kit.bus.stats
    assert stats.from_unknown_member == stranger_events
    assert stats.duplicates_dropped == duplicates_injected
    assert stats.published == (stats.matched + stats.unmatched
                               + stats.duplicates_dropped
                               + stats.from_unknown_member), stats
    assert stats.published > total_member_published

    # -- the autonomic run must actually have closed all three loops -----
    if kit.autonomic is not None:
        fired = {actuation.controller for actuation in kit.autonomic.audit}
        assert {"rtt", "flush", "rebalance"} <= fired, (
            f"controllers that actuated: {sorted(fired)}")
        splits = kit.bus.sharded.splits()
        assert splits, "rebalancer never split the hot class"
