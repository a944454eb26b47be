"""Differential suite: every engine, both entry points, identical answers.

The paper's architecture bets that the pub/sub mechanism can be swapped
(Siena first, then the dedicated matcher) without disturbing the semantics
above it.  The engines' two entry points add a second axis: per-event
``match`` and ``match_batch``, both views of one engine body.  This suite
pins both axes at once — Hypothesis generates subscription tables and
event streams, and every engine through every entry point must return
exactly the match sets the brute-force oracle returns, including across
registration churn (which must invalidate exactly the affected part of
the forwarding engine's memo).
"""

import enum

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.sharding import ShardedMatcher
from repro.ids import service_id_from_name
from repro.matching.engine import BruteForceMatcher, make_engine
from repro.matching.filters import Constraint, Filter, Op, Subscription
from repro.matching import forwarding
from repro.matching.forwarding import ForwardingMatcher
from tests.matching.strategies import attribute_maps, filters

SID = service_id_from_name("diff")

#: Engines under test.
ENGINE_NAMES = ("forwarding", "siena", "siena-bare")

subscription_tables = st.lists(
    st.lists(filters(), min_size=1, max_size=3),   # filters per subscription
    min_size=1, max_size=8)

event_streams = st.lists(attribute_maps(), min_size=1, max_size=12)

NAN = float("nan")
#: An EQ operand that is the very NaN object the event carries: equal by
#: identity in a dict, never by ``==``, so no engine may match it.
SAME_NAN = dict(table=[[Filter.where("vitals", hr=NAN)]],
                stream=[{"type": "vitals", "hr": NAN}])


def _subscribe_all(engines, table):
    for index, filter_list in enumerate(table):
        subscription = Subscription(index + 1, SID, filter_list)
        for engine in engines:
            engine.subscribe(subscription)


def _ids(subscriptions):
    return [s.sub_id for s in subscriptions]


class TestEnginesAgreeOnBothPaths:
    @settings(max_examples=120, deadline=None)
    @given(subscription_tables, event_streams)
    @example(**SAME_NAN)
    def test_match_and_match_batch_agree_with_oracle(self, table, stream):
        oracle = BruteForceMatcher()
        engines = [make_engine(name) for name in ENGINE_NAMES]
        _subscribe_all([oracle] + engines, table)

        expected = [_ids(oracle.match(attrs)) for attrs in stream]
        # The oracle's own batch path must agree with its per-event path.
        assert [_ids(subs) for subs in oracle.match_batch(stream)] == expected

        for engine in engines:
            per_event = [_ids(engine.match(attrs)) for attrs in stream]
            assert per_event == expected, engine.name
            batched = [_ids(subs) for subs in engine.match_batch(stream)]
            assert batched == expected, engine.name

    @settings(max_examples=80, deadline=None)
    @given(subscription_tables, event_streams, st.data())
    def test_agreement_survives_registration_churn(self, table, stream, data):
        """Batch, churn registrations, batch again: memos must invalidate."""
        oracle = BruteForceMatcher()
        engines = [make_engine(name) for name in ENGINE_NAMES]
        _subscribe_all([oracle] + engines, table)

        # First batch round warms any per-engine caches.
        warm = [_ids(subs) for subs in oracle.match_batch(stream)]
        for engine in engines:
            assert [_ids(subs) for subs in engine.match_batch(stream)] == warm, \
                engine.name

        # Unsubscribe a random subset, leaving at least one table entry.
        to_remove = data.draw(st.sets(st.integers(1, len(table)),
                                      max_size=len(table) - 1))
        for sub_id in sorted(to_remove):
            oracle.unsubscribe(sub_id)
            for engine in engines:
                engine.unsubscribe(sub_id)

        expected = [_ids(oracle.match(attrs)) for attrs in stream]
        assert [_ids(subs) for subs in oracle.match_batch(stream)] == expected
        for engine in engines:
            assert [_ids(subs) for subs in engine.match_batch(stream)] \
                == expected, engine.name
            assert [_ids(engine.match(attrs)) for attrs in stream] \
                == expected, engine.name

    @settings(max_examples=60, deadline=None)
    @given(subscription_tables, event_streams)
    def test_batch_counts_events_matched_like_per_event(self, table, stream):
        per_event = make_engine("forwarding")
        batched = make_engine("forwarding")
        _subscribe_all([per_event, batched], table)
        for attrs in stream:
            per_event.match(attrs)
        batched.match_batch(stream)
        assert per_event.events_matched == batched.events_matched


class TestBatchEdgeCases:
    def test_empty_batch(self):
        for name in ("brute",) + ENGINE_NAMES:
            engine = make_engine(name)
            assert engine.match_batch([]) == []
            assert engine.events_matched == 0

    def test_batch_on_empty_engine(self):
        for name in ("brute",) + ENGINE_NAMES:
            engine = make_engine(name)
            assert engine.match_batch([{"a": 1}, {}]) == [[], []]

    def test_forwarding_memo_reuse_is_observable(self):
        engine = make_engine("forwarding")
        engine.subscribe(Subscription(1, SID, [Filter.where("t", hr=(">", 5))]))
        stream = [{"type": "t", "hr": 9}] * 50
        engine.match_batch(stream)
        assert (engine.memo_misses, engine.memo_hits) == (2, 98)
        # A change drops the entries it can affect — here ("type", "t") —
        # and leaves the warm "hr" entry a hit.
        engine.subscribe(Subscription(2, SID, [Filter.where("t")]))
        engine.match_batch(stream[:1])
        assert (engine.memo_misses, engine.memo_hits) == (3, 99)


# -- interleaved registration and matching -----------------------------------
#
# The memo's invalidation rule is only exercised when a change lands on
# *warm* entries, so this domain is tiny: three names, a dozen values —
# among them 1, 1.0 and True, which hash alike and must not share an entry
# across kinds — and every operator shape the rule treats differently
# (EQ by key, ranges on one name, NE / EXISTS / PREFIX by scan).

SEQ_VALUES = (0, 1, 1.0, True, False, 2, 2.5, 120, "al", "alpha", "beta", b"al")
SEQ_NAMES = ("hr", "patient", "x")

seq_constraints = st.one_of(
    st.builds(Constraint, st.sampled_from(SEQ_NAMES),
              st.sampled_from((Op.EQ, Op.NE)), st.sampled_from(SEQ_VALUES)),
    st.builds(Constraint, st.sampled_from(SEQ_NAMES),
              st.sampled_from((Op.LT, Op.LE, Op.GT, Op.GE)),
              st.sampled_from((0, 1, 1.0, 2, 2.5, 120, "al", "beta"))),
    st.builds(Constraint, st.sampled_from(SEQ_NAMES),
              st.sampled_from((Op.PREFIX, Op.SUFFIX, Op.CONTAINS)),
              st.sampled_from(("al", "a", b"al"))),
    st.builds(Constraint, st.sampled_from(SEQ_NAMES), st.just(Op.EXISTS)))

seq_filters = st.one_of(
    st.builds(Filter, st.lists(seq_constraints, max_size=3)),
    # Two constraints on one name beside an equality on another.
    st.builds(lambda low, high, who: Filter(
        [Constraint("hr", Op.GT, low), Constraint("hr", Op.LT, high)]
        + ([Constraint("patient", Op.EQ, who)] if who is not None else [])),
        st.sampled_from((0, 1, 1.0)), st.sampled_from((2, 2.5, 120)),
        st.sampled_from((None, "al", 1, True))))

seq_events = st.dictionaries(st.sampled_from(SEQ_NAMES),
                             st.sampled_from(SEQ_VALUES), max_size=3)

#: ("sub", filters) registers the next id; ("unsub", n) removes the n-th
#: live id (modulo, skipped on an empty table); ("match", events) batches.
seq_operations = st.lists(st.one_of(
    st.tuples(st.just("sub"), st.lists(seq_filters, min_size=1, max_size=3)),
    st.tuples(st.just("unsub"), st.integers(0, 40)),
    st.tuples(st.just("match"), st.lists(seq_events, min_size=1, max_size=6))),
    min_size=1, max_size=30)


def run_sequence(engine, operations) -> None:
    """Drive ``engine`` and the brute oracle through ``operations``;
    every batch must return the oracle's ids."""
    oracle = BruteForceMatcher()
    next_id = 1
    for kind, argument in operations:
        if kind == "sub":
            subscription = Subscription(next_id, SID, argument)
            next_id += 1
            oracle.subscribe(subscription)
            engine.subscribe(subscription)
        elif kind == "unsub":
            live = [sub.sub_id for sub in oracle.subscriptions()]
            if live:
                sub_id = live[argument % len(live)]
                oracle.unsubscribe(sub_id)
                engine.unsubscribe(sub_id)
        else:
            assert engine.match_batch_ids(argument) \
                == oracle.match_batch_ids(argument)


class _NeverForgets(ForwardingMatcher):
    """The engine with its invalidation step stubbed out."""

    def _forget(self, constraint) -> None:
        pass


class TestInterleavedChurn:
    @settings(max_examples=300, deadline=None)
    @given(seq_operations)
    def test_forwarding_agrees_with_oracle(self, operations):
        run_sequence(ForwardingMatcher(), operations)

    @settings(max_examples=150, deadline=None)
    @given(seq_operations, st.sampled_from((1, 3)))
    def test_sharded_agrees_with_oracle(self, operations, shards):
        run_sequence(ShardedMatcher(shards, "forwarding"), operations)

    @pytest.mark.parametrize("operations", [
        # A subscribe lands on a warm entry.
        [("sub", [Filter([Constraint("hr", Op.EQ, 0)])]),
         ("match", [{"hr": 0}]),
         ("sub", [Filter([Constraint("hr", Op.EXISTS)])]),
         ("match", [{"hr": 0}])],
        # An unsubscribe leaves its id (and its recycled fid) in one.
        [("sub", [Filter([Constraint("hr", Op.GT, 0),
                          Constraint("hr", Op.LT, 2)])]),
         ("sub", [Filter([Constraint("hr", Op.EQ, 0)])]),
         ("match", [{"hr": 1}]),
         ("unsub", 0),
         ("match", [{"hr": 1}])],
    ])
    def test_sequences_catch_a_missing_invalidation(self, operations):
        """The property has teeth: sequences of the shape Hypothesis finds
        against an engine without ``_forget`` fail there and pass here."""
        run_sequence(ForwardingMatcher(), operations)
        with pytest.raises((AssertionError, LookupError)):
            run_sequence(_NeverForgets(), operations)


# -- grouped ordering buckets --------------------------------------------------
#
# The forwarding engine buckets ordering thresholds per (op, kind, group) so
# that a never-seen value costs one bisect and one slice per bucket.  What
# can go wrong is the grouping itself, so this domain puts every group on
# the *same* name ``x``: single-constraint filters, class filters ({x, y}
# and {x, who}, with GT and LT thresholds that overlap so both buckets of
# one class hit and must be unioned), filters that repeat the name (a
# range, an ordering beside a NE), the operators that bypass the buckets,
# number and string orderings side by side, NaN thresholds — and churn
# that recycles fids from one group into another.

GROUP_THRESHOLDS = (0, 1, 2.5, 4, 7, NAN, "b", "m")


def _ordering(name):
    return st.builds(Constraint, st.just(name),
                     st.sampled_from((Op.LT, Op.LE, Op.GT, Op.GE)),
                     st.sampled_from(GROUP_THRESHOLDS))


_who = st.builds(Constraint, st.just("who"), st.just(Op.EQ),
                 st.sampled_from(("p1", "p2")))
_other_x = st.one_of(
    st.builds(Constraint, st.just("x"), st.sampled_from((Op.EQ, Op.NE)),
              st.sampled_from((1, 2.5, "m"))),
    st.just(Constraint("x", Op.EXISTS)),
    st.just(Constraint("x", Op.PREFIX, "m")))

grouped_filters = st.one_of(
    st.builds(lambda c: Filter([c]), _ordering("x")),               # single
    st.builds(lambda c, d: Filter([c, d]), _ordering("x"), _ordering("y")),
    st.builds(lambda c, d: Filter([c, d]), _ordering("x"), _who),   # classes
    st.builds(lambda c, d: Filter([c, d]), _ordering("x"), _ordering("x")),
    st.builds(lambda c, d: Filter([c, d]), _ordering("x"), _other_x),
    st.builds(lambda c, d, e: Filter([c, d, e]),                    # repeated
              _ordering("x"), _ordering("x"), st.one_of(_ordering("y"), _who)),
    st.builds(lambda c: Filter([c]), _other_x),
    st.builds(lambda c, d: Filter([c, d]), _other_x, _ordering("y")))

grouped_tables = st.lists(st.lists(grouped_filters, min_size=1, max_size=3),
                          min_size=1, max_size=10)

#: Readings: continuous, so a stream of them never repeats a value; and
#: the odd string, which the string-ordered thresholds see.
_readings = st.one_of(
    st.floats(min_value=-1.0, max_value=8.0, allow_nan=False),
    st.sampled_from(("a", "c", "m", "z")))


@st.composite
def reading_streams(draw):
    xs = draw(st.lists(_readings, min_size=1, max_size=10, unique=True))
    return [{"x": x,
             **draw(st.fixed_dictionaries({}, optional={
                 "y": _readings, "who": st.sampled_from(("p1", "p2", "p3"))}))}
            for x in xs]


def assert_engine_empty(engine) -> None:
    """No bucket, partition, slot or class id outlives the last filter."""
    assert engine._attr_indexes == {}
    assert engine._satisfied_memo == {}
    assert (engine._filter_needs, engine._sub_fids) == ({}, {})
    assert (engine._sub_list, engine._fid_class, engine._fid_name_needs,
            engine._free_fids, engine._class_width) == ([], [], [], [], [])
    assert engine._classes == {}
    assert engine._always == set()


class TestGroupedOrderingBuckets:
    @staticmethod
    def check(engine, oracle, stream) -> int:
        """``match_batch_ids`` ≡ oracle, cold and then warm, and ``match``
        per event says the same; every lookup is accounted for.  Returns
        how many of the cold pass's were a miss or a quiet reading."""
        def counters():
            return (engine.memo_hits, engine.memo_misses,
                    engine.quiet_readings)

        expected = oracle.match_batch_ids(stream)
        constrained = sum(name in engine._attr_indexes
                          for attrs in stream for name in attrs)
        before = counters()
        assert engine.match_batch_ids(stream) == expected
        cold = counters()
        # A hit, a miss, or a reading inside its name's band: nothing else.
        assert sum(cold) - sum(before) == constrained
        # Again: every lookup is now a memo hit and must say the same.
        assert [_ids(engine.match(attrs)) for attrs in stream] == expected
        assert engine.match_batch_ids(stream) == expected
        assert engine.memo_misses == cold[1]
        assert sum(counters()) - sum(cold) == 2 * constrained
        return sum(cold[1:]) - sum(before[1:])

    @settings(max_examples=300, deadline=None)
    @given(grouped_tables, grouped_tables, reading_streams(),
           reading_streams(), st.data())
    def test_every_group_agrees_with_oracle_across_churn(
            self, table, late_table, stream, late_stream, data):
        engine, oracle = ForwardingMatcher(), BruteForceMatcher()
        _subscribe_all([oracle, engine], table)
        first_time = self.check(engine, oracle, stream)
        if "x" in engine._attr_indexes:
            # Never-repeating readings: the first time, each was a miss
            # or needed no lookup.
            assert first_time >= len(stream)

        # Churn: the freed fids are recycled by filters of other groups.
        to_remove = data.draw(st.sets(st.integers(1, len(table))))
        for sub_id in sorted(to_remove):
            oracle.unsubscribe(sub_id)
            engine.unsubscribe(sub_id)
        for index, filter_list in enumerate(late_table):
            subscription = Subscription(100 + index, SID, filter_list)
            oracle.subscribe(subscription)
            engine.subscribe(subscription)
        self.check(engine, oracle, stream)          # part warm, part dropped
        self.check(engine, oracle, late_stream)     # cold again

        for subscription in list(oracle.subscriptions()):
            engine.unsubscribe(subscription.sub_id)
        assert_engine_empty(engine)
        assert engine._match_ids_batch(stream) == [set()] * len(stream)

    @settings(max_examples=100, deadline=None)
    @given(grouped_tables, reading_streams(), st.sampled_from((2, 4)))
    @example(**SAME_NAN, shards=4)
    def test_sharded_engines_inherit_it(self, table, stream, shards):
        sharded, oracle = ShardedMatcher(shards, "forwarding"), \
            BruteForceMatcher()
        _subscribe_all([oracle, sharded], table)
        expected = oracle.match_batch_ids(stream)
        assert sharded.match_batch_ids(stream) == expected
        assert sharded.match_batch_ids(stream) == expected
        for index in range(len(table)):
            sharded.unsubscribe(index + 1)
        for engine in sharded.shard_engines():
            assert_engine_empty(engine)


# -- the alarm-free band ---------------------------------------------------------
#
# A reading strictly between a name's highest "below" threshold and its
# lowest "above" threshold is skipped before the memo.  What can go wrong
# is the interval: an edge counted as inside, a threshold of the wrong
# kind or op folded in, a constraint the skip cannot see (EXISTS, NE, EQ
# on a number), a stale band after a registration change.  So this domain
# puts every one of those on the *same* name ``v``, draws readings from
# the thresholds themselves and their neighbours, and interleaves matches
# with churn that narrows, widens, voids and restores the band.

class Level(enum.IntEnum):
    LOW = 10
    MID = 25
    HIGH = 40


INF = float("inf")
BAND_THRESHOLDS = (10, 10.0, 20, 20.5, 30, 30.0, 40.5, "g", "m")
BAND_READINGS = (
    *BAND_THRESHOLDS,                                   # exactly on an edge
    9, 9.5, 15, 15.5, 20.25, 25, 25.0, 35.5, 41,        # between them
    NAN, INF, -INF, True, False, Level.LOW, Level.MID, Level.HIGH,
    2 ** 70, -2 ** 70, "a", "h", "z")

def _v_orderings(ops, thresholds):
    return st.builds(Constraint, st.just("v"), st.sampled_from(ops),
                     st.sampled_from(thresholds))


# Mostly alarms below a low threshold or above a high one, so that a band
# usually exists; now and then any op against any threshold, which can
# cross the others and leave it empty.
_v_ordering = st.one_of(
    _v_orderings((Op.LT, Op.LE), (10, 10.0, 20, 20.5, "g")),
    _v_orderings((Op.GT, Op.GE), (30, 30.0, 40.5, "m")),
    _v_orderings((Op.LT, Op.LE), (10, 10.0, 20, 20.5, "g")),
    _v_orderings((Op.GT, Op.GE), (30, 30.0, 40.5, "m")),
    _v_orderings((Op.LT, Op.LE, Op.GT, Op.GE), BAND_THRESHOLDS))
_v_voider = st.one_of(
    st.just(Constraint("v", Op.EXISTS)),
    _v_orderings((Op.NE,), (25, "m")),
    _v_orderings((Op.EQ,), (25, 25.0, True, "m")),
    st.just(Constraint("v", Op.PREFIX, "m")))

band_filters = st.one_of(
    st.builds(lambda c: Filter([c]), _v_ordering),
    st.builds(lambda c: Filter([c]), _v_ordering),       # twice as likely
    st.builds(lambda c, d: Filter([c, d]), _v_ordering, _who),
    st.builds(lambda c, d: Filter([c, d]), _v_ordering, _v_ordering),
    st.builds(lambda c: Filter([c]), _v_voider),
    st.builds(lambda c, d: Filter([c, d]), _v_voider, _who))

band_events = st.fixed_dictionaries(
    # Half the readings where the band usually is, half anywhere at all.
    {"v": st.one_of(st.sampled_from((20.75, 22, 25, 25.0, 29.5)),
                    st.sampled_from(BAND_READINGS))},
    optional={"who": st.sampled_from(("p1", "p2", "p3"))})

band_operations = st.lists(st.one_of(
    st.tuples(st.just("sub"), st.lists(band_filters, min_size=1, max_size=2)),
    st.tuples(st.just("sub"), st.lists(band_filters, min_size=1, max_size=2)),
    st.tuples(st.just("unsub"), st.integers(0, 40)),
    st.tuples(st.just("match"), st.lists(band_events, min_size=2,
                                         max_size=10))),
    min_size=4, max_size=30)


class _BandChecked:
    """What ``run_sequence`` drives for the band domain: the engine, with
    every batch matched cold, then warm, then event by event, and the
    band and the id count checked against a recomputation each time."""

    def __init__(self, engine: ForwardingMatcher) -> None:
        self.engine = engine
        self.subscribe = engine.subscribe
        self.unsubscribe = engine.unsubscribe

    def match_batch_ids(self, events):
        engine = self.engine
        cold = engine.match_batch_ids(events)
        assert engine.match_batch_ids(events) == cold
        assert [_ids(engine.match(attrs)) for attrs in events] == cold
        for name, index in engine._attr_indexes.items():
            assert index.held == sum(
                forwarding._ids_held(entry)
                for entry in engine._satisfied_memo[name].values())
            band = index.band
            assert band is None or band == engine._band(index)
        return cold


class TestAlarmFreeBand:
    @settings(max_examples=400, deadline=None)
    @given(band_operations)
    def test_forwarding_agrees_with_oracle_on_and_around_the_band(
            self, operations):
        engine = ForwardingMatcher()
        run_sequence(_BandChecked(engine), operations)
        for subscription in list(engine.subscriptions()):
            engine.unsubscribe(subscription.sub_id)
        assert_engine_empty(engine)

    @settings(max_examples=100, deadline=None)
    @given(band_operations, st.sampled_from((2, 4)))
    def test_sharded_engines_inherit_it(self, operations, shards):
        run_sequence(ShardedMatcher(shards, "forwarding"), operations)

    def test_the_domain_reaches_the_band(self):
        """The property has teeth: an engine whose band swallows its
        edges, or ignores a voiding constraint, fails sequences drawn
        from this domain."""
        class EdgesInside(ForwardingMatcher):
            def _band(self, index):
                low, high = super()._band(index)
                index.band = (low - 0.25, high + 0.25)
                return index.band

        class IgnoresExists(ForwardingMatcher):
            def _band(self, index):
                exists, index.exists = index.exists, []
                try:
                    return super()._band(index)
                finally:
                    index.exists = exists

        table = ("sub", [Filter([Constraint("v", Op.LE, 10)]),
                         Filter([Constraint("v", Op.GE, 30.0)])])
        on_the_edges = [table, ("match", [{"v": 10}, {"v": 30}, {"v": 20}])]
        voided = [table, ("sub", [Filter([Constraint("v", Op.EXISTS)])]),
                  ("match", [{"v": 20}])]
        for broken, operations in ((EdgesInside, on_the_edges),
                                   (IgnoresExists, voided)):
            run_sequence(ForwardingMatcher(), operations)
            with pytest.raises(AssertionError):
                run_sequence(broken(), operations)
