"""Forwarding (counting) matcher: index behaviour and edge cases."""

import random
import sys

from repro.ids import service_id_from_name
from repro.matching import forwarding
from repro.matching.filters import Constraint, Filter, Kind, Op, Subscription
from repro.matching.forwarding import ForwardingMatcher

SID = service_id_from_name("s")


def sub(sub_id, *filter_list):
    return Subscription(sub_id, SID, list(filter_list))


def match_ids(matcher, attrs):
    return [s.sub_id for s in matcher.match(attrs)]


class TestIndexing:
    def test_counts_indexed_constraints(self):
        matcher = ForwardingMatcher()
        matcher.subscribe(sub(1, Filter.where("t", a=1, b=(">", 2))))
        assert matcher.constraints_indexed == 3        # type + a + b

    def test_equality_by_hash_across_int_float(self):
        matcher = ForwardingMatcher()
        matcher.subscribe(sub(1, Filter([Constraint("x", Op.EQ, 5)])))
        assert match_ids(matcher, {"x": 5.0}) == [1]   # 5 == 5.0, same kind

    def test_bool_does_not_satisfy_number_eq(self):
        matcher = ForwardingMatcher()
        matcher.subscribe(sub(1, Filter([Constraint("x", Op.EQ, 1)])))
        assert match_ids(matcher, {"x": True}) == []

    def test_ne_requires_same_kind(self):
        matcher = ForwardingMatcher()
        matcher.subscribe(sub(1, Filter([Constraint("x", Op.NE, 5)])))
        assert match_ids(matcher, {"x": 6}) == [1]
        assert match_ids(matcher, {"x": "six"}) == []

    def test_order_ops_use_thresholds(self):
        matcher = ForwardingMatcher()
        matcher.subscribe(sub(1, Filter([Constraint("x", Op.LT, 10)])))
        matcher.subscribe(sub(2, Filter([Constraint("x", Op.LE, 10)])))
        matcher.subscribe(sub(3, Filter([Constraint("x", Op.GT, 10)])))
        matcher.subscribe(sub(4, Filter([Constraint("x", Op.GE, 10)])))
        assert match_ids(matcher, {"x": 10}) == [2, 4]
        assert match_ids(matcher, {"x": 9}) == [1, 2]
        assert match_ids(matcher, {"x": 11}) == [3, 4]

    def test_string_order_separate_from_numbers(self):
        matcher = ForwardingMatcher()
        matcher.subscribe(sub(1, Filter([Constraint("x", Op.GT, "m")])))
        matcher.subscribe(sub(2, Filter([Constraint("x", Op.GT, 5)])))
        assert match_ids(matcher, {"x": "z"}) == [1]
        assert match_ids(matcher, {"x": 50}) == [2]

    def test_string_shape_ops(self):
        matcher = ForwardingMatcher()
        matcher.subscribe(sub(1, Filter([Constraint("s", Op.PREFIX, "he")])))
        matcher.subscribe(sub(2, Filter([Constraint("s", Op.SUFFIX, "lo")])))
        matcher.subscribe(sub(3, Filter([Constraint("s", Op.CONTAINS, "ell")])))
        assert match_ids(matcher, {"s": "hello"}) == [1, 2, 3]
        assert match_ids(matcher, {"s": "helper"}) == [1]

    def test_bytes_string_ops(self):
        matcher = ForwardingMatcher()
        matcher.subscribe(sub(1, Filter([Constraint("s", Op.PREFIX, b"ab")])))
        assert match_ids(matcher, {"s": b"abc"}) == [1]
        assert match_ids(matcher, {"s": "abc"}) == []   # str != bytes

    def test_duplicate_constraint_across_filters(self):
        matcher = ForwardingMatcher()
        shared = Constraint("x", Op.GT, 5)
        matcher.subscribe(sub(1, Filter([shared])))
        matcher.subscribe(sub(2, Filter([shared, Constraint("y", Op.EQ, 1)])))
        assert match_ids(matcher, {"x": 10}) == [1]
        assert match_ids(matcher, {"x": 10, "y": 1}) == [1, 2]


class TestCounting:
    def test_partial_satisfaction_does_not_match(self):
        matcher = ForwardingMatcher()
        matcher.subscribe(sub(1, Filter.where("t", a=1, b=2)))
        assert match_ids(matcher, {"type": "t", "a": 1}) == []

    def test_multiple_constraints_same_attribute(self):
        matcher = ForwardingMatcher()
        matcher.subscribe(sub(1, Filter([Constraint("x", Op.GT, 0),
                                         Constraint("x", Op.LT, 10)])))
        assert match_ids(matcher, {"x": 5}) == [1]
        assert match_ids(matcher, {"x": 15}) == []

    def test_extra_attributes_ignored(self):
        matcher = ForwardingMatcher()
        matcher.subscribe(sub(1, Filter.where("t")))
        assert match_ids(matcher, {"type": "t", "noise": 7,
                                   "more": "noise"}) == [1]


class TestRemoval:
    def test_unsubscribe_cleans_all_indexes(self):
        matcher = ForwardingMatcher()
        matcher.subscribe(sub(1, Filter([
            Constraint("a", Op.EQ, 1), Constraint("b", Op.NE, 2),
            Constraint("c", Op.GT, 3), Constraint("d", Op.PREFIX, "x"),
            Constraint("e", Op.EXISTS)])))
        matcher.unsubscribe(1)
        assert matcher._attr_indexes == {}
        assert matcher._filter_needs == {}
        assert matcher._sub_list == []

    def test_unsubscribe_leaves_others_matched(self):
        matcher = ForwardingMatcher()
        matcher.subscribe(sub(1, Filter([Constraint("x", Op.GT, 5)])))
        matcher.subscribe(sub(2, Filter([Constraint("x", Op.GT, 5)])))
        matcher.unsubscribe(1)
        assert match_ids(matcher, {"x": 10}) == [2]

    def test_empty_filter_removal(self):
        matcher = ForwardingMatcher()
        matcher.subscribe(sub(1, Filter()))
        matcher.unsubscribe(1)
        assert match_ids(matcher, {"anything": 1}) == []


# -- the write path: targeted invalidation, O(own-constraints) deindex --------

def ids_batch(matcher, *events):
    return matcher.match_batch_ids(list(events))


def memo_sizes(matcher):
    return {name: len(part) for name, part in matcher._satisfied_memo.items()}


def index_shape(matcher):
    """Sizes of every engine structure, comparable across engines that
    hold the same subscriptions under different fids and class ids: an
    ordering bucket of a class is keyed by the class's names."""
    names_of = {cid: tuple(sorted(names))
                for names, cid in matcher._classes.items()}
    return {
        "names": {
            name: (sorted((key, len(fids)) for key, fids in index.eq.items()),
                   len(index.ne), len(index.exists), len(index.strings),
                   {(op, kind, names_of.get(group, group)): len(th.fids)
                    for (op, kind, group), th in index.order.items()})
            for name, index in matcher._attr_indexes.items()},
        "partitions": sorted(matcher._satisfied_memo),
        "filters": len(matcher._filter_needs),
        "live_slots": len(matcher._sub_list) - len(matcher._free_fids),
        "multi": sum(1 for cid in matcher._fid_class if cid >= 0),
        "repeated": sum(1 for needs in matcher._fid_name_needs if needs),
        "always": len(matcher._always),
    }


def slot_sizes(matcher):
    return (len(matcher._sub_list), len(matcher._fid_class),
            len(matcher._fid_name_needs), len(matcher._filter_needs),
            len(matcher._sub_fids),
            len(matcher._attr_indexes), memo_sizes(matcher))


class TestThresholds:
    def test_parallel_lists_stay_sorted_and_aligned(self):
        thresholds = forwarding._Thresholds()
        for value, fid in ((5, 1), (3, 2), (5.0, 3), (9, 4), (3, 5)):
            thresholds.add(value, fid)
        assert thresholds.values == [3, 3, 5, 5.0, 9]
        assert thresholds.fids == [2, 5, 1, 3, 4]
        assert thresholds.satisfied_by(5, Op.GT) == [2, 5]
        assert thresholds.satisfied_by(5, Op.GE) == [2, 5, 1, 3]
        assert thresholds.satisfied_by(5, Op.LT) == [4]
        assert thresholds.satisfied_by(5, Op.LE) == [1, 3, 4]
        thresholds.remove(5, 3)                 # the second of its run
        thresholds.remove(3, 2)
        assert thresholds.values == [3, 5, 9]
        assert thresholds.fids == [5, 1, 4]

    def test_nan_threshold_cannot_strand_a_removal(self):
        # NaN sorts nowhere: among sorted thresholds it breaks their bisect
        # (wrong matches) and can leave a removal's bisect point past its
        # entry.  Nothing satisfies it, so it never enters a bucket.
        matcher = ForwardingMatcher()
        operands = (5, float("nan"), 1, 2)
        for sub_id, operand in enumerate(operands, 1):
            matcher.subscribe(sub(sub_id, Filter(
                [Constraint("x", Op.GT, operand)])))
        bucket = matcher._attr_indexes["x"].order[
            Op.GT, Kind.NUMBER, forwarding._SINGLE]
        assert bucket.values == [1, 2, 5]       # the order holds
        assert ids_batch(matcher, {"x": 3}, {"x": 9}) == [[3, 4], [1, 3, 4]]
        assert [match_ids(matcher, {"x": x}) for x in (3, 9)] \
            == [[3, 4], [1, 3, 4]]
        for sub_id in range(1, len(operands) + 1):
            matcher.unsubscribe(sub_id)
        assert matcher._attr_indexes == {}

    def test_nan_only_name_has_no_index(self):
        matcher = ForwardingMatcher()
        nan = float("nan")
        matcher.subscribe(sub(1, Filter([Constraint("x", Op.LT, nan)])))
        matcher.subscribe(sub(2, Filter([Constraint("x", Op.GE, nan),
                                         Constraint("y", Op.GT, 0)])))
        assert sorted(matcher._attr_indexes) == ["y"]
        assert ids_batch(matcher, {"x": 1.0, "y": 1.0}) == [[]]
        assert match_ids(matcher, {"x": 1.0, "y": 1.0}) == []
        matcher.unsubscribe(1)
        matcher.unsubscribe(2)
        assert slot_sizes(matcher) == (0, 0, 0, 0, 0, 0, {})


class TestGroupedBuckets:
    """Ordering constraints are bucketed per (op, kind, group), so a
    bucket's slice is one group's satisfied set."""

    def mixed(self):
        matcher = ForwardingMatcher()
        matcher.subscribe(sub(1, Filter([Constraint("x", Op.GT, 1)])))
        matcher.subscribe(sub(2, Filter([Constraint("x", Op.GT, 2),
                                         Constraint("y", Op.EQ, 1)])))
        matcher.subscribe(sub(3, Filter([Constraint("x", Op.GT, 0),
                                         Constraint("x", Op.LT, 9)])))
        matcher.subscribe(sub(4, Filter([Constraint("x", Op.LT, 20),
                                         Constraint("y", Op.EQ, 1)])))
        return matcher

    def test_one_bucket_per_group(self):
        matcher = self.mixed()
        xy = matcher._classes[frozenset({"x", "y"})]
        assert {key: th.fids for key, th
                in matcher._attr_indexes["x"].order.items()} == {
            (Op.GT, Kind.NUMBER, forwarding._SINGLE): [0],
            (Op.GT, Kind.NUMBER, xy): [1],
            (Op.GT, Kind.NUMBER, forwarding._REPEATED): [2],
            (Op.LT, Kind.NUMBER, forwarding._REPEATED): [2],
            (Op.LT, Kind.NUMBER, xy): [3]}

    def test_both_buckets_of_one_class_are_unioned(self):
        matcher = self.mixed()
        xy = matcher._classes[frozenset({"x", "y"})]
        xx = matcher._classes[frozenset({"x"})]
        singles, class_sets = matcher._satisfied_entry("x", 5.5)
        assert singles == (1,)
        assert dict(class_sets) == {xy: frozenset({1, 3}),
                                    xx: frozenset({2})}
        # x = 9.5 satisfies one of the range's two constraints: not enough.
        assert dict(matcher._satisfied_entry("x", 9.5)[1]) \
            == {xy: frozenset({1, 3})}
        assert ids_batch(matcher, {"x": 5.5, "y": 1}, {"x": 9.5, "y": 1},
                         {"x": -0.5, "y": 1}, {"x": 5.5}) \
            == [[1, 2, 3, 4], [1, 2, 4], [4], [1, 3]]

    def test_values_that_satisfy_nothing_share_one_entry(self):
        matcher = ForwardingMatcher()
        matcher.subscribe(sub(1, Filter([Constraint("x", Op.GT, 100)])))
        matcher.subscribe(sub(2, Filter([Constraint("x", Op.LT, 0),
                                         Constraint("y", Op.EXISTS)])))
        # Strictly inside the band (0, 100): no lookup, no entry at all.
        ids_batch(matcher, *({"x": 0.5 + step} for step in range(50)))
        assert memo_sizes(matcher) == {"x": 0, "y": 0}
        assert (matcher.quiet_readings, matcher.memo_misses) == (50, 0)
        # On its edges and outside its kind a value is looked up and
        # memoised, and those that satisfy nothing share one entry.
        nothing = (0, 0.0, 100, 100.0, True, "a string", b"bytes",
                   float("nan"))
        assert ids_batch(matcher, *({"x": x} for x in nothing)) \
            == [[]] * len(nothing)
        assert memo_sizes(matcher) == {"x": len(nothing), "y": 0}
        assert (matcher.quiet_readings, matcher.memo_misses) \
            == (50, len(nothing))
        assert {id(entry) for entry in matcher._satisfied_memo["x"].values()} \
            == {id(forwarding._NOTHING)}
        assert matcher._satisfied_entry("x", "a string") is forwarding._NOTHING

    def test_class_sets_are_sized_to_fit(self):
        # A memo of alarm-tail entries is mostly these sets' tables: one
        # built straight from a list slice keeps its growth slack.
        matcher = ForwardingMatcher()
        for sub_id in range(600):
            matcher.subscribe(sub(sub_id, Filter([
                Constraint("x", Op.GT, sub_id), Constraint("y", Op.EXISTS)])))
        for count in (80, 310, 600):
            (_, fids), = matcher._satisfied_entry("x", count - 0.5)[1]
            assert len(fids) == count
            assert sys.getsizeof(fids) == sys.getsizeof(frozenset(set(fids)))

    def test_recycled_fid_lands_in_its_new_group(self):
        matcher = self.mixed()
        matcher.unsubscribe(2)                   # frees fid 1, a class fid
        matcher.subscribe(sub(5, Filter([Constraint("x", Op.GT, 3)])))
        assert matcher._sub_fids[5] == [1]
        assert matcher._attr_indexes["x"].order[
            Op.GT, Kind.NUMBER, forwarding._SINGLE].fids == [0, 1]
        assert ids_batch(matcher, {"x": 5.5, "y": 1}) == [[1, 3, 4, 5]]
        for sub_id in (1, 3, 4, 5):
            matcher.unsubscribe(sub_id)
        assert slot_sizes(matcher) == (0, 0, 0, 0, 0, 0, {})
        assert matcher._classes == {}


class TestTargetedInvalidation:
    def ward(self):
        matcher = ForwardingMatcher()
        matcher.subscribe(sub(1, Filter([Constraint("patient", Op.EQ, "p1"),
                                         Constraint("hr", Op.GT, 100)])))
        matcher.subscribe(sub(2, Filter([Constraint("hr", Op.LT, 50)])))
        return matcher

    def test_change_on_hr_leaves_a_warm_patient_entry_a_hit(self):
        matcher = self.ward()
        events = [{"patient": "p1", "hr": hr} for hr in (40, 80, 120, 160)]
        def counters():
            return (matcher.memo_misses, matcher.memo_hits,
                    matcher.quiet_readings)

        ids_batch(matcher, *events)
        # hr=80 lies inside the band (50, 100) and is never looked up.
        assert counters() == (4, 3, 1)
        matcher.subscribe(sub(3, Filter([Constraint("hr", Op.GT, 150)])))
        assert ids_batch(matcher, *events) == [[2], [], [1], [1, 3]]
        # Only hr=160 satisfies the new constraint: one miss, six hits.
        assert counters() == (5, 9, 2)
        matcher.unsubscribe(3)
        assert ids_batch(matcher, *events) == [[2], [], [1], [1]]
        assert counters() == (6, 15, 3)

    def test_equal_hash_values_of_different_kinds(self):
        matcher = ForwardingMatcher()
        matcher.subscribe(sub(1, Filter([Constraint("x", Op.GE, 0)])))
        events = [{"x": 1}, {"x": 1.0}, {"x": True}]
        assert ids_batch(matcher, *events) == [[1], [1], []]
        assert memo_sizes(matcher) == {"x": 3}
        # x == 1.0 concerns the int and the float entry, not the bool one.
        matcher.subscribe(sub(2, Filter([Constraint("x", Op.EQ, 1.0)])))
        assert memo_sizes(matcher) == {"x": 1}
        assert ids_batch(matcher, *events) == [[1, 2], [1, 2], []]
        matcher.subscribe(sub(3, Filter([Constraint("x", Op.EQ, True)])))
        assert memo_sizes(matcher) == {"x": 2}
        assert ids_batch(matcher, *events) == [[1, 2], [1, 2], [3]]

    def test_unconstrained_attribute_adds_no_entry(self):
        matcher = self.ward()
        ids_batch(matcher, {"hr": 120, "ward": "w3", "seq": 1},
                  {"hr": 120, "ward": "w3", "seq": 2})
        assert memo_sizes(matcher) == {"patient": 0, "hr": 1}
        assert (matcher.memo_misses, matcher.memo_hits) == (1, 1)

    def test_partition_lives_exactly_as_long_as_its_index(self):
        matcher = self.ward()
        assert sorted(matcher._satisfied_memo) == ["hr", "patient"]
        matcher.unsubscribe(1)
        assert sorted(matcher._satisfied_memo) == ["hr"]
        matcher.unsubscribe(2)
        assert matcher._satisfied_memo == {}

    def test_value_of_a_subclass_is_matched_but_never_memoised(self):
        # The EQ rule drops entries by (exact class, value) key, so a key
        # of any other class must not exist.
        matcher = ForwardingMatcher()
        matcher.subscribe(sub(1, Filter([Constraint("x", Op.EQ, 1)])))
        assert ids_batch(matcher, {"x": Op.EQ}) == [[1]]     # IntEnum, == 1
        assert memo_sizes(matcher) == {"x": 0}
        matcher.subscribe(sub(2, Filter([Constraint("x", Op.EQ, 1)])))
        assert ids_batch(matcher, {"x": Op.EQ}) == [[1, 2]]

    def test_full_partition_resets_alone(self, monkeypatch):
        monkeypatch.setattr(forwarding, "_MEMO_NAME_MAX", 8)
        matcher = self.ward()
        ids_batch(matcher, *({"patient": "p1", "hr": hr} for hr in range(8)))
        assert memo_sizes(matcher) == {"patient": 1, "hr": 8}
        ids_batch(matcher, {"patient": "p1", "hr": 8})
        assert memo_sizes(matcher) == {"patient": 1, "hr": 1}

    def test_worst_case_examines_one_bounded_partition(self, monkeypatch):
        """A never-repeating float stream, then churn on its name: the
        invalidation looks at that name's partition, which the cap bounds,
        and at nothing else."""
        monkeypatch.setattr(forwarding, "_MEMO_NAME_MAX", 64)
        examined = []

        class Counting(dict):
            def __iter__(self):
                examined.append(len(self))
                return super().__iter__()

        matcher = ForwardingMatcher()
        for sub_id in range(20):
            matcher.subscribe(sub(sub_id, Filter(
                [Constraint("ts", Op.GT, sub_id * 50.0)])))
        matcher.subscribe(sub(99, Filter([Constraint("patient", Op.NE, "p0")])))
        for start in range(0, 1000, 10):
            ids_batch(matcher, *({"ts": float(ts), "patient": f"p{ts % 7}"}
                                 for ts in range(start, start + 10)))
        assert memo_sizes(matcher) == {"ts": 40, "patient": 7}
        for name in ("ts", "patient"):
            matcher._satisfied_memo[name] = Counting(
                matcher._satisfied_memo[name])

        matcher.subscribe(sub(100, Filter([Constraint("ts", Op.GT, 979.5)])))
        assert examined == [40]                  # ts only, once, <= the cap
        assert memo_sizes(matcher) == {"ts": 20, "patient": 7}
        matcher.unsubscribe(100)
        assert examined == [40, 20]
        matcher.subscribe(sub(101, Filter([Constraint("ts", Op.EQ, 975.0)])))
        assert examined == [40, 20]              # EQ: by key, no scan
        assert memo_sizes(matcher) == {"ts": 19, "patient": 7}


def assert_held_is_exact(matcher):
    """Each name's id count is what its partition's entries really hold."""
    for name, index in matcher._attr_indexes.items():
        assert index.held == sum(
            forwarding._ids_held(entry)
            for entry in matcher._satisfied_memo[name].values()), name


class TestAlarmFreeBand:
    """A reading strictly between a name's highest "below" threshold and
    its lowest "above" threshold satisfies nothing and takes no lookup."""

    def ward(self):
        matcher = ForwardingMatcher()
        for sub_id in range(200):
            vital = ("hr", "temp")[sub_id % 2]
            op, threshold = ((Op.LT, 10.0 + sub_id / 40)        # 10 .. 15
                             if sub_id % 4 < 2 else
                             (Op.GT, 85.0 + sub_id / 40))       # 85 .. 90
            constraints = [Constraint(vital, op, threshold)]
            if sub_id % 8:
                constraints.append(Constraint("patient", Op.EQ,
                                              f"p{sub_id % 5}"))
            matcher.subscribe(sub(sub_id, Filter(constraints)))
        return matcher

    def band(self, matcher, name):
        ids_batch(matcher, {name: 0.0})      # a match recomputes a stale band
        return matcher._attr_indexes[name].band

    def test_count_gate_quiet_readings_touch_nothing(self, monkeypatch):
        """The gate the wall-clock benches cannot be: N quiet readings
        cause no bisect, no ``_satisfied_entry`` call and no memo entry —
        and the same counters move for readings in the alarm tails."""
        calls = {"bisect": 0, "entry": 0}

        def counting(bisect):
            def counted(values, value):
                calls["bisect"] += 1
                return bisect(values, value)
            return counted

        monkeypatch.setattr(forwarding, "_CUTS", {
            op: (counting(bisect), below)
            for op, (bisect, below) in forwarding._CUTS.items()})
        satisfied_entry = ForwardingMatcher._satisfied_entry

        def counted_entry(self, name, value):
            calls["entry"] += 1
            return satisfied_entry(self, name, value)

        monkeypatch.setattr(ForwardingMatcher, "_satisfied_entry",
                            counted_entry)
        matcher = self.ward()
        rng = random.Random(5)
        quiet = [{"patient": "p1", "hr": rng.uniform(15.5, 84.5),
                  "temp": rng.randrange(16, 85)} for _ in range(1000)]
        assert ids_batch(matcher, *quiet) == [[]] * len(quiet)
        assert calls == {"bisect": 0, "entry": 1}           # ("patient", p1)
        assert memo_sizes(matcher) == {"hr": 0, "temp": 0, "patient": 1}
        assert (matcher.quiet_readings, matcher.memo_misses,
                matcher.memo_hits) == (2000, 1, 999)
        # 200 rules, 7 of 8 with a patient, a fifth of those p1's.
        assert matcher.memo_ids_held == 35
        # The tails take the lookup: the gate counts what it says.
        tails = [{"patient": "p1", "hr": rng.uniform(0.0, 9.5),
                  "temp": rng.uniform(90.5, 99.0)} for _ in range(10)]
        assert all(ids_batch(matcher, *tails))
        assert calls["entry"] == 21 and calls["bisect"] >= 20
        assert memo_sizes(matcher) == {"hr": 10, "temp": 10, "patient": 1}
        assert matcher.quiet_readings == 2000
        assert_held_is_exact(matcher)

    def test_only_an_exact_number_strictly_inside_is_quiet(self):
        matcher = ForwardingMatcher()
        matcher.subscribe(sub(1, Filter([Constraint("x", Op.LE, 10)])))
        matcher.subscribe(sub(2, Filter([Constraint("x", Op.GE, 20.0)])))
        matcher.subscribe(sub(3, Filter([Constraint("x", Op.LT, 5)])))
        matcher.subscribe(sub(4, Filter([Constraint("x", Op.GT, 30.5)])))
        matcher.subscribe(sub(5, Filter([Constraint("x", Op.GT, "m")])))
        assert self.band(matcher, "x") == (10, 20.0)
        quiet_before = matcher.quiet_readings
        inside = (11, 10.5, 19.999, 15, 2 ** 70 / 2 ** 66)
        assert ids_batch(matcher, *({"x": x} for x in inside)) \
            == [[]] * len(inside)
        assert matcher.quiet_readings - quiet_before == len(inside)
        # Edges, NaN, infinities, bool, an int subclass, another kind: all
        # take the lookup, whatever they then satisfy.
        lookups = ((10, [1]), (10.0, [1]), (20, [2]), (20.0, [2]),
                   (float("nan"), []), (float("inf"), [2, 4]),
                   (float("-inf"), [1, 3]), (True, []), (Op.EQ, [1, 3]),
                   (2 ** 70, [2, 4]), (-2 ** 70, [1, 3]), ("z", [5]),
                   ("a", []))
        quiet_before = matcher.quiet_readings
        for x, expected in lookups:
            assert ids_batch(matcher, {"x": x}) == [expected], x
            assert match_ids(matcher, {"x": x}) == expected, x
        assert matcher.quiet_readings == quiet_before

    def test_churn_narrows_widens_voids_and_restores(self):
        matcher = ForwardingMatcher()
        matcher.subscribe(sub(1, Filter([Constraint("v", Op.LT, 10)])))
        matcher.subscribe(sub(2, Filter([Constraint("v", Op.GT, 40),
                                         Constraint("who", Op.EQ, "p1")])))
        events = [{"v": 25, "who": "p1"}, {"v": 12.5, "who": "p1"}]

        def quiet_of(expected):
            before = matcher.quiet_readings
            assert ids_batch(matcher, *events) == expected      # cold
            assert ids_batch(matcher, *events) == expected      # warm
            assert [match_ids(matcher, e) for e in events] == expected
            assert_held_is_exact(matcher)
            return (matcher.quiet_readings - before) // 3

        assert quiet_of([[], []]) == 2
        assert matcher._attr_indexes["v"].band == (10, 40)
        matcher.subscribe(sub(3, Filter([Constraint("v", Op.GE, 20)])))
        assert matcher._attr_indexes["v"].band is None          # stale
        assert quiet_of([[3], []]) == 1                         # narrowed
        assert matcher._attr_indexes["v"].band == (10, 20)
        matcher.unsubscribe(3)
        assert quiet_of([[], []]) == 2                          # widened
        voiders = (Constraint("v", Op.EXISTS), Constraint("v", Op.NE, 12.5),
                   Constraint("v", Op.EQ, 25))
        for voider, expected in zip(voiders, ([[4], [4]], [[4], []],
                                              [[4], []])):
            matcher.subscribe(sub(4, Filter([voider])))
            assert quiet_of(expected) == 0                      # voided
            assert matcher._attr_indexes["v"].band \
                == forwarding._NO_BAND
            matcher.unsubscribe(4)
            assert quiet_of([[], []]) == 2                      # restored
            assert matcher._attr_indexes["v"].band == (10, 40)
        # Constraints a number cannot satisfy leave the band alone.
        matcher.subscribe(sub(5, Filter([Constraint("v", Op.EQ, "high")])))
        matcher.subscribe(sub(6, Filter([Constraint("v", Op.LT, "m")])))
        matcher.subscribe(sub(7, Filter([Constraint("v", Op.PREFIX, "h")])))
        assert quiet_of([[], []]) == 2
        # A range's two thresholds cross: the interval between is empty.
        matcher.subscribe(sub(8, Filter([Constraint("v", Op.GT, 11),
                                         Constraint("v", Op.LT, 30)])))
        assert quiet_of([[8], [8]]) == 0
        assert matcher._attr_indexes["v"].band == (30, 11)
        for sub_id in (1, 2, 5, 6, 7, 8):
            matcher.unsubscribe(sub_id)
        assert slot_sizes(matcher) == (0, 0, 0, 0, 0, 0, {})

    def test_partition_over_its_id_budget_resets_alone(self, monkeypatch):
        monkeypatch.setattr(forwarding, "_MEMO_IDS_MAX", 30)
        matcher = ForwardingMatcher()
        for sub_id in range(10):
            matcher.subscribe(sub(sub_id, Filter(
                [Constraint("hr", Op.GT, 100 + sub_id),
                 Constraint("patient", Op.EQ, "p1")])))
        ids_batch(matcher, *({"patient": "p1", "hr": 110.5 + step}
                             for step in range(3)))
        assert memo_sizes(matcher) == {"hr": 3, "patient": 1}
        assert matcher._attr_indexes["hr"].held == 30
        ids_batch(matcher, {"patient": "p1", "hr": 101.5})     # 2 more ids
        assert memo_sizes(matcher) == {"hr": 1, "patient": 1}
        assert matcher._attr_indexes["hr"].held == 2
        assert matcher.memo_ids_held == 12
        assert_held_is_exact(matcher)

    def test_alarm_tail_stream_stays_inside_the_id_budget(self, monkeypatch):
        """Never-repeating floats out in the alarm tail — every entry a
        heavy one — across churn: no partition ever holds more ids than
        the budget, the count is exact, and the answers are the
        oracle's."""
        from repro.matching.engine import BruteForceMatcher
        budget = 2000
        monkeypatch.setattr(forwarding, "_MEMO_IDS_MAX", budget)
        rng = random.Random(3)
        matcher, oracle = ForwardingMatcher(), BruteForceMatcher()
        for sub_id in range(400):
            constraints = [Constraint("x", Op.GT, 50 + rng.random() * 10)]
            if sub_id % 2:
                constraints.append(Constraint("y", Op.LT, rng.random() * 10))
            for engine in (matcher, oracle):
                engine.subscribe(sub(sub_id, Filter(constraints)))
        peak = 0
        for round_ in range(40):
            batch = [{"x": 60 + rng.random(), "y": rng.random() * 12}
                     for _ in range(25)]
            assert matcher.match_batch_ids(batch) \
                == oracle.match_batch_ids(batch)
            assert_held_is_exact(matcher)
            held = [index.held for index in matcher._attr_indexes.values()]
            assert max(held) <= budget
            peak = max(peak, *held)
            churned = sub(1000 + round_, Filter(
                [Constraint("x", Op.GT, 55.0), Constraint("y", Op.LT, 5.0)]))
            for engine in (matcher, oracle):
                engine.subscribe(churned)
                if round_ % 2:
                    engine.unsubscribe(1000 + round_)
        assert peak > budget // 2                # the budget really binds


class TestChurn:
    @staticmethod
    def rule(rng):
        vital = rng.choice(("hr", "temp", "spo2"))
        constraints = [Constraint(vital, rng.choice((Op.GT, Op.LT, Op.NE)),
                                  rng.randrange(0, 10))]
        shape = rng.random()
        if shape < 0.5:
            constraints.append(
                Constraint("patient", Op.EQ, f"p{rng.randrange(4)}"))
        elif shape < 0.7:                        # a range: one name twice
            constraints.append(Constraint(vital, Op.LE, rng.randrange(5, 15)))
        elif shape < 0.8:
            constraints.append(Constraint("note", Op.PREFIX, "a"))
        elif shape < 0.85:
            constraints = [Constraint("note", Op.EXISTS)]
        elif shape < 0.9:
            constraints = []
        return Filter(constraints)

    @staticmethod
    def stream(rng, count):
        return [{"patient": f"p{rng.randrange(4)}", "hr": rng.randrange(10),
                 "temp": rng.randrange(10), "spo2": rng.randrange(10),
                 "note": rng.choice(("a", "ab", "b"))} for _ in range(count)]

    def test_fid_slots_do_not_leak(self):
        rng = random.Random(7)
        matcher = ForwardingMatcher()
        table = [sub(sub_id, self.rule(rng), self.rule(rng))
                 for sub_id in range(100)]
        for subscription in table:
            matcher.subscribe(subscription)
        events = self.stream(rng, 8)
        sizes = None
        for cycle in range(5000):
            matcher.subscribe(sub(1000 + cycle, self.rule(rng), self.rule(rng)))
            if cycle % 50 == 0:
                matcher.match_batch_ids(events)
            matcher.unsubscribe(1000 + cycle)
            if sizes is None:
                matcher.match_batch_ids(events)
                sizes = slot_sizes(matcher)
        matcher.match_batch_ids(events)
        assert slot_sizes(matcher) == sizes
        assert len(matcher._sub_list) == 202     # table + the one in flight
        for subscription in table:
            matcher.unsubscribe(subscription.sub_id)
        assert slot_sizes(matcher) == (0, 0, 0, 0, 0, 0, {})
        assert (matcher._free_fids, matcher._classes, matcher._class_width,
                matcher._always) == ([], {}, [], set())

    def test_churned_engine_equals_one_built_fresh(self):
        rng = random.Random(11)
        churned = ForwardingMatcher()
        live = {}
        next_id = 0
        for step in range(600):
            if live and rng.random() < 0.45:
                churned.unsubscribe(live.pop(rng.choice(sorted(live))).sub_id)
            else:
                live[next_id] = sub(next_id, *(self.rule(rng) for _ in
                                               range(rng.randrange(1, 4))))
                churned.subscribe(live[next_id])
                next_id += 1
            if step % 7 == 0:                    # keep the memo warm
                churned.match_batch_ids(self.stream(rng, 4))
        fresh = ForwardingMatcher()
        for sub_id in sorted(live):
            fresh.subscribe(live[sub_id])
        events = self.stream(rng, 200)
        assert churned.match_batch_ids(events) == fresh.match_batch_ids(events)
        assert [match_ids(churned, event) for event in events[:50]] \
            == [match_ids(fresh, event) for event in events[:50]]
        assert index_shape(churned) == index_shape(fresh)
