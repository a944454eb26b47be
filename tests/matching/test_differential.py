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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sharding import ShardedMatcher
from repro.ids import service_id_from_name
from repro.matching.engine import BruteForceMatcher, make_engine
from repro.matching.filters import Constraint, Filter, Op, Subscription
from repro.matching.forwarding import ForwardingMatcher
from tests.matching.strategies import attribute_maps, filters

SID = service_id_from_name("diff")

#: Engines under test.
ENGINE_NAMES = ("forwarding", "siena", "siena-bare")

subscription_tables = st.lists(
    st.lists(filters(), min_size=1, max_size=3),   # filters per subscription
    min_size=1, max_size=8)

event_streams = st.lists(attribute_maps(), min_size=1, max_size=12)


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

NAN = float("nan")
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
    def check(engine, oracle, stream) -> None:
        """``match_batch_ids`` ≡ oracle, cold and then warm, and ``match``
        per event says the same."""
        expected = oracle.match_batch_ids(stream)
        assert engine.match_batch_ids(stream) == expected
        # Again: every lookup is now a memo hit and must say the same.
        misses = engine.memo_misses
        assert [_ids(engine.match(attrs)) for attrs in stream] == expected
        assert engine.match_batch_ids(stream) == expected
        assert engine.memo_misses == misses

    @settings(max_examples=300, deadline=None)
    @given(grouped_tables, grouped_tables, reading_streams(),
           reading_streams(), st.data())
    def test_every_group_agrees_with_oracle_across_churn(
            self, table, late_table, stream, late_stream, data):
        engine, oracle = ForwardingMatcher(), BruteForceMatcher()
        _subscribe_all([oracle, engine], table)
        misses = engine.memo_misses
        self.check(engine, oracle, stream)
        if "x" in engine._attr_indexes:
            # Never-repeating readings: each was a miss the first time.
            assert engine.memo_misses - misses >= len(stream)

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
