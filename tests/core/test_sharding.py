"""Shard differential suite: a sharded bus is indistinguishable from one.

The sharded bus bets that matching can be partitioned while dispatch
cannot.  This suite pins the bet from below and above:

* **matcher level** — Hypothesis drives ShardedMatcher at shards
  {1, 2, 8} against the brute-force oracle on both match paths, across
  registration churn (which must invalidate only the routed shard, and
  must still agree with the oracle afterwards);
* **bus level** — a seeded random workload (batch + per-event publishes,
  duplicates, subscribe/unsubscribe churn) runs against a single
  EventBus and ShardedEventBus instances in lockstep: every subscriber
  inbox and every BusStats counter must be identical, and the stats
  invariant must hold.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bus import EventBus
from repro.core.events import Event
from repro.core.sharding import (
    ShardedEventBus,
    ShardedMatcher,
    shard_index,
    value_bucket,
)
from repro.errors import ConfigurationError
from repro.ids import service_id_from_name
from repro.matching.engine import BruteForceMatcher, make_engine
from repro.matching.filters import Constraint, Filter, Op, Subscription
from repro.matching.forwarding import name_class
from repro.sim.kernel import Simulator

from tests.matching.strategies import ATTR_NAMES, attribute_maps, filters

SID = service_id_from_name("shard-diff")
SHARD_COUNTS = (1, 2, 8)

subscription_tables = st.lists(
    st.lists(filters(), min_size=1, max_size=3),
    min_size=1, max_size=8)

event_streams = st.lists(attribute_maps(), min_size=1, max_size=12)


def _subscribe_all(engines, table):
    for index, filter_list in enumerate(table):
        subscription = Subscription(index + 1, SID, filter_list)
        for engine in engines:
            engine.subscribe(subscription)


def _ids(subscriptions):
    return [s.sub_id for s in subscriptions]


class TestShardedMatcherDifferential:
    @settings(max_examples=100, deadline=None)
    @given(subscription_tables, event_streams)
    def test_every_shard_count_agrees_with_oracle(self, table, stream):
        oracle = BruteForceMatcher()
        sharded = [ShardedMatcher(count) for count in SHARD_COUNTS]
        _subscribe_all([oracle] + sharded, table)

        expected = [_ids(oracle.match(attrs)) for attrs in stream]
        for matcher in sharded:
            per_event = [_ids(matcher.match(attrs)) for attrs in stream]
            assert per_event == expected, matcher.name
            assert matcher.match_batch_ids(stream) == expected, matcher.name
            batched = [_ids(subs) for subs in matcher.match_batch(stream)]
            assert batched == expected, matcher.name

    @settings(max_examples=60, deadline=None)
    @given(subscription_tables, event_streams, st.data())
    def test_agreement_survives_registration_churn(self, table, stream, data):
        """Unsubscribing must deroute exactly the right shard fragments."""
        oracle = BruteForceMatcher()
        sharded = [ShardedMatcher(count) for count in SHARD_COUNTS]
        _subscribe_all([oracle] + sharded, table)

        # Warm every shard's memo before churning.
        warm = [_ids(subs) for subs in oracle.match_batch(stream)]
        for matcher in sharded:
            assert matcher.match_batch_ids(stream) == warm, matcher.name

        to_remove = data.draw(st.sets(st.integers(1, len(table)),
                                      max_size=len(table) - 1))
        for sub_id in sorted(to_remove):
            oracle.unsubscribe(sub_id)
            for matcher in sharded:
                matcher.unsubscribe(sub_id)

        expected = [_ids(oracle.match(attrs)) for attrs in stream]
        for matcher in sharded:
            assert matcher.match_batch_ids(stream) == expected, matcher.name
            assert [_ids(matcher.match(attrs)) for attrs in stream] \
                == expected, matcher.name

    @settings(max_examples=40, deadline=None)
    @given(subscription_tables, event_streams)
    def test_inner_engine_choice_is_transparent(self, table, stream):
        """Sharding composes with any inner engine, not just forwarding."""
        oracle = BruteForceMatcher()
        over_brute = ShardedMatcher(4, "brute")
        over_siena = ShardedMatcher(4, "siena-bare")
        _subscribe_all([oracle, over_brute, over_siena], table)
        expected = [_ids(oracle.match(attrs)) for attrs in stream]
        assert over_brute.match_batch_ids(stream) == expected
        assert over_siena.match_batch_ids(stream) == expected


class TestSplitClassDifferential:
    """A rebalanced (value-bucket-split) matcher is still just a matcher.

    The autonomic rebalancer's actuator —
    :meth:`ShardedMatcher.split_class` — re-routes a live class by a
    secondary value bucket.  Whatever class and bucket attribute it
    picks, at any point in the subscription lifecycle, match results
    must stay identical to the brute oracle: before the split, after it,
    after churn removes half the table, and for registrations arriving
    *after* the split (which must follow the new routing).
    """

    @settings(max_examples=60, deadline=None)
    @given(subscription_tables, event_streams, st.data())
    def test_split_agrees_with_oracle_through_lifecycle(self, table, stream,
                                                        data):
        oracle = BruteForceMatcher()
        matcher = ShardedMatcher(4)
        _subscribe_all([oracle, matcher], table)

        classes = sorted({name_class(filt)
                          for filters in table for filt in filters
                          if name_class(filt)}, key=sorted)
        if not classes:
            return
        names = data.draw(st.sampled_from(classes), label="split class")
        bucket = data.draw(st.sampled_from(sorted(names)), label="bucket")

        # Warm the shards, then split the live class.
        warm = [_ids(subs) for subs in oracle.match_batch(stream)]
        assert matcher.match_batch_ids(stream) == warm
        matcher.split_class(names, bucket)
        assert matcher.match_batch_ids(stream) == warm
        assert [_ids(matcher.match(attrs)) for attrs in stream] == warm

        # Churn after the split: deindexing must reverse the bucketed
        # routing exactly.
        to_remove = data.draw(st.sets(st.integers(1, len(table)),
                                      max_size=len(table) - 1),
                              label="unsubscribed")
        for sub_id in sorted(to_remove):
            oracle.unsubscribe(sub_id)
            matcher.unsubscribe(sub_id)

        # New registrations in the split class follow the new routing.
        next_id = len(table) + 1
        for filters in table[:2]:
            subscription = Subscription(next_id, SID, filters)
            oracle.subscribe(subscription)
            matcher.subscribe(subscription)
            next_id += 1

        expected = [_ids(oracle.match(attrs)) for attrs in stream]
        assert matcher.match_batch_ids(stream) == expected
        assert [_ids(matcher.match(attrs)) for attrs in stream] == expected

    def test_split_spreads_a_pinned_class(self):
        """The skew the rebalancer exists for: one class, one shard —
        until the split distributes it by the EQ operand's bucket."""
        matcher = ShardedMatcher(8)
        for index in range(64):
            filt = Filter([Constraint("ward", Op.EQ, f"w-{index % 16}"),
                           Constraint("hr", Op.GT, index)])
            matcher.subscribe(Subscription(index + 1, SID, [filt]))
        loads = matcher.shard_loads()
        pinned = shard_index(frozenset({"ward", "hr"}), 8)
        assert loads[pinned] == 64 and sum(loads) == 64

        moved = matcher.split_class({"ward", "hr"}, "ward")
        assert moved == 64
        spread = matcher.shard_loads()
        assert sum(spread) == 64
        assert max(spread) < 64
        assert sum(1 for load in spread if load) > 1
        # Every fragment sits exactly at its operand's bucket shard.
        for index in range(16):
            expected = value_bucket(f"w-{index}", 8)
            filt = Filter([Constraint("ward", Op.EQ, f"w-{index}"),
                           Constraint("hr", Op.GT, 1)])
            assert matcher.shard_of_filter(filt) == expected

    def test_split_guards(self):
        matcher = ShardedMatcher(4)
        matcher.subscribe(Subscription(1, SID, [
            Filter([Constraint("a", Op.EQ, 1), Constraint("b", Op.GT, 0)])]))
        with pytest.raises(ConfigurationError):
            matcher.split_class({"a", "b"}, "zz")       # not in the class
        with pytest.raises(ConfigurationError):
            matcher.split_class(frozenset(), "a")       # the empty class
        with pytest.raises(ConfigurationError):
            ShardedMatcher(1).split_class({"a"}, "a")   # nothing to spread
        matcher.split_class({"a", "b"}, "a")
        with pytest.raises(ConfigurationError):
            matcher.split_class({"a", "b"}, "b")        # already split

    def test_eq_equal_numbers_bucket_together(self):
        """1 and 1.0 satisfy the same EQ constraint, so they must route
        to the same bucket shard — otherwise a float-valued event would
        miss an int-constrained filter after a split."""
        for count in (2, 4, 8):
            assert value_bucket(1, count) == value_bucket(1.0, count)
            assert value_bucket(-3, count) == value_bucket(-3.0, count)

    def test_class_stats_report_shape(self):
        matcher = ShardedMatcher(8)
        for index in range(6):
            matcher.subscribe(Subscription(index + 1, SID, [
                Filter([Constraint("ward", Op.EQ, f"w-{index % 3}"),
                        Constraint("hr", Op.GT, index)])]))
        (stat,) = matcher.class_stats()
        assert stat.names == frozenset({"ward", "hr"})
        assert stat.fragments == 6
        assert stat.shard == shard_index(stat.names, 8)
        assert not stat.split
        assert stat.eq_diversity == {"ward": 3}
        matcher.split_class(stat.names, "ward")
        (stat,) = matcher.class_stats()
        assert stat.split


class TestShardRouting:
    def test_shard_index_is_deterministic_and_in_range(self):
        for names in ((), ("hr",), ("hr", "type"), ("a", "b", "c")):
            index = shard_index(names, 8)
            assert 0 <= index < 8
            assert index == shard_index(tuple(reversed(names)), 8)
        assert shard_index(("anything",), 1) == 0

    def test_filters_route_by_name_class(self):
        matcher = ShardedMatcher(8)
        filt = Filter([Constraint("hr", Op.GT, 5),
                       Constraint("type", Op.EQ, "x")])
        expected = shard_index(name_class(filt), 8)
        matcher.subscribe(Subscription(1, SID, [filt]))
        assert matcher.shard_of_filter(filt) == expected
        assert matcher.shard_loads()[expected] == 1
        assert sum(matcher.shard_loads()) == 1

    def test_multi_filter_subscription_spans_shards(self):
        matcher = ShardedMatcher(8)
        fa = Filter([Constraint("a", Op.EXISTS)])
        fb = Filter([Constraint("b", Op.EXISTS)])
        matcher.subscribe(Subscription(1, SID, [fa, fb]))
        occupied = [i for i, load in enumerate(matcher.shard_loads()) if load]
        assert occupied == sorted({matcher.shard_of_filter(fa),
                                   matcher.shard_of_filter(fb)})
        assert matcher.match_batch_ids([{"a": 1}, {"b": 1}]) == [[1], [1]]
        matcher.unsubscribe(1)
        assert sum(matcher.shard_loads()) == 0
        assert matcher.match({"a": 1}) == []

    def test_empty_filter_matches_everything_at_any_shard_count(self):
        for count in SHARD_COUNTS:
            matcher = ShardedMatcher(count)
            matcher.subscribe(Subscription(7, SID, [Filter([])]))
            assert matcher.match_batch_ids([{}, {"zz": 1}]) == [[7], [7]]
            matcher.unsubscribe(7)
            assert matcher.match({}) == []

    def test_shard_count_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ShardedMatcher(0)

    def test_meter_forwards_to_shards(self):
        # Work-proportional charges (e.g. siena translation copies) must
        # keep reaching the simulated host when the table is sharded.
        class RecordingMeter:
            def __init__(self):
                self.matches = 0
                self.copied = 0

            def charge_match(self):
                self.matches += 1

            def charge_copy(self, nbytes):
                self.copied += nbytes

        single_meter, sharded_meter = RecordingMeter(), RecordingMeter()
        single = make_engine("forwarding", meter=single_meter)
        sharded = ShardedMatcher(4)
        sharded.set_meter(sharded_meter)
        table = [[Filter([Constraint("hr", Op.GT, 2)])]]
        _subscribe_all([single, sharded], table)
        single.match_batch([{"hr": 3}])
        sharded.match_batch([{"hr": 3}])
        # One occupied shard consulted -> same base charge as one engine.
        assert sharded_meter.matches == single_meter.matches == 1

    def test_events_matched_counts_like_single_engine(self):
        single = make_engine("forwarding")
        sharded = ShardedMatcher(4)
        table = [[Filter([Constraint("hr", Op.GT, 2)])]]
        _subscribe_all([single, sharded], table)
        stream = [{"hr": 3}, {"hr": 1}, {}]
        single.match_batch(stream)
        sharded.match_batch(stream)
        for attrs in stream:
            single.match(attrs)
            sharded.match(attrs)
        assert sharded.events_matched == single.events_matched


def _random_workload(rng, rounds=25):
    """A seeded script of (kind, payload) workload steps."""
    names = list(ATTR_NAMES) + ["type-ish", "ward"]
    steps = []
    for _ in range(rounds):
        roll = rng.random()
        if roll < 0.6:
            events = []
            for _ in range(rng.randint(1, 10)):
                attrs = {name: rng.randint(-3, 6)
                         for name in rng.sample(names, rng.randint(0, 4))}
                events.append(attrs)
            steps.append(("batch" if rng.random() < 0.5 else "single",
                          events))
        elif roll < 0.8:
            constraints = [
                Constraint(rng.choice(names),
                           rng.choice([Op.GT, Op.LT, Op.EQ]),
                           rng.randint(-3, 6))
                for _ in range(rng.randint(0, 2))]
            steps.append(("subscribe", [Filter(constraints)]))
        else:
            steps.append(("unsubscribe", None))
    return steps


class TestShardedBusEquivalence:
    """Single EventBus vs ShardedEventBus in lockstep on one workload."""

    @pytest.mark.parametrize("seed", [11, 4093])
    @pytest.mark.parametrize("shard_count", [2, 8])
    def test_inboxes_and_stats_identical(self, seed, shard_count):
        rng = random.Random(seed)
        steps = _random_workload(rng)

        def run(make_bus):
            sim = Simulator()
            bus = make_bus(sim)
            inboxes = {}
            sub_ids = []
            next_seqno = [0]
            sender = service_id_from_name("pub")

            def subscribe(filters):
                inbox = []
                sub_id = bus.subscribe_local(filters, inbox.append)
                inboxes[sub_id] = inbox
                sub_ids.append(sub_id)

            subscribe([Filter([])])          # a catch-all subscriber
            for kind, payload in steps:
                if kind == "subscribe":
                    subscribe(payload)
                elif kind == "unsubscribe" and len(sub_ids) > 1:
                    bus.unsubscribe_local(sub_ids.pop())
                elif kind in ("batch", "single"):
                    events = []
                    for attrs in payload:
                        next_seqno[0] += 1
                        events.append(Event("w.load", attrs, sender,
                                            next_seqno[0], sim.now()))
                    if kind == "batch":
                        bus.publish_batch(events)
                        # Replay one duplicate through the batch path.
                        bus.publish_batch(events[-1:])
                    else:
                        for event in events:
                            bus.publish(event)
                sim.run_until_idle()
            stats = bus.stats
            assert stats.published == (stats.matched + stats.unmatched
                                       + stats.duplicates_dropped
                                       + stats.from_unknown_member), stats
            delivered = {sub_id: [(e.sender, e.seqno) for e in inbox]
                         for sub_id, inbox in inboxes.items()}
            return delivered, stats

        single = run(lambda sim: EventBus(sim, make_engine("forwarding")))
        sharded = run(lambda sim: ShardedEventBus(sim, shard_count))
        assert sharded[0] == single[0]
        assert sharded[1] == single[1]
