"""Worker-pool differential suite: N processes are indistinguishable
from none.

The worker pool bets that the match phase can leave the process while
dispatch cannot.  This suite pins the bet the same way the sharding suite
does — from below and above:

* **plan codec** — Hypothesis roundtrips MatchPlan through the packed
  column codec, and arbitrary bytes and every mutation of a golden plan
  decode or raise ``CodecError``, nothing else;
* **reply codec** — the packed RESULTS reply roundtrips, and arbitrary or
  mutated bytes parse or raise ``WorkerError``, nothing else;
* **executor level** — `InlineExecutor` ≡ `WorkerPoolExecutor` ≡ the
  brute-force oracle across shards {1, 2, 8} × workers {0, 2, 4}, with
  mid-stream registration churn and a live `split_class` actuation while
  workers are running (the deltas must re-route the replicas, not desync
  them);
* **failure level** — a SIGKILLed worker costs nothing but a respawn:
  results stay exact (inline fallback on the host's always-registered
  engines), and `ensure_alive` restores the pool.

Pools are expensive to spawn, so the suite builds them once per module
and moves them between tables with ``rebind`` — which is itself the
RESET/snapshot protocol under test.
"""

import os
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sharding import ShardedEventBus, ShardedMatcher
from repro.core import workers as workers_module
from repro.core.workers import WorkerError, WorkerPoolExecutor, \
    available_cores
from repro.errors import CodecError, ConfigurationError
from repro.ids import service_id_from_name
from repro.matching.engine import BruteForceMatcher
from repro.matching.filters import Constraint, Filter, Op, Subscription
from repro.matching.plan import InlineExecutor, MatchPlan, decode_plan, \
    encode_plan
from repro.sim.kernel import Simulator

from tests.matching.strategies import ATTR_NAMES, attribute_maps, filters

SID = service_id_from_name("worker-diff")
SHARD_COUNTS = (1, 2, 8)
WORKER_COUNTS = (2, 4)

subscription_tables = st.lists(
    st.lists(filters(), min_size=1, max_size=3),
    min_size=1, max_size=8)

event_streams = st.lists(attribute_maps(), min_size=1, max_size=10)


def _subscribe_all(engines, table, offset=0):
    for index, filter_list in enumerate(table):
        subscription = Subscription(offset + index + 1, SID, filter_list)
        for engine in engines:
            engine.subscribe(subscription)


@pytest.fixture(scope="module")
def pools():
    """One long-lived pool per worker count, moved between tables by
    ``rebind`` — spawning processes per Hypothesis example would drown
    the suite in fork/exec time."""
    built = {workers: WorkerPoolExecutor(ShardedMatcher(2, "forwarding"),
                                         workers, recv_timeout_s=20.0)
             for workers in WORKER_COUNTS}
    yield built
    for pool in built.values():
        pool.close()


class TestPlanCodec:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 1000), st.integers(0, 2 ** 40),
           st.lists(st.tuples(st.integers(0, 4096), attribute_maps()),
                    max_size=8))
    def test_roundtrip(self, shard, epoch, pairs):
        plan = MatchPlan(shard, epoch, [i for i, _ in pairs],
                         [attrs for _, attrs in pairs])
        decoded, pos = decode_plan(encode_plan(plan))
        assert decoded == plan
        assert pos == len(encode_plan(plan))

    def test_roundtrip_of_columns_the_packed_forms_cannot_hold(self):
        """An ``array`` image holds exact floats or exact ints that fit 64
        bits; one value outside that sends its whole column value by
        value, and every value comes back what it was."""
        nan = float("nan")
        rows = [
            {"f": 0.5, "i": 1, "wide": 2 ** 70, "mixed": 1, "who": "p1"},
            {"f": -0.0, "i": -2 ** 63, "wide": 3, "mixed": 2.5, "who": "p2"},
            {"f": float("inf"), "i": 2 ** 63 - 1, "wide": -2 ** 70,
             "mixed": True, "who": ""},
            {"f": nan, "i": 0, "wide": 2 ** 63, "mixed": b"\x00", "who": "é"},
            {},                                       # a group of no names
            {"i": 7},                                 # ragged: its own group
            {"i": 2.5, "f": 1},                       # same names, other order
            {"f": 1.5, "i": 9},
        ]
        plan = MatchPlan(3, 2 ** 40, list(range(8, 0, -1)), rows)
        encoded = encode_plan(plan)
        decoded, pos = decode_plan(b"\xff" + encoded, 1)
        assert pos == 1 + len(encoded)
        assert (decoded.shard, decoded.epoch, decoded.indexes) \
            == (3, 2 ** 40, plan.indexes)
        # Equal and of the same type, value by value (NaN by its bits).
        assert repr(decoded.projections) == repr(rows)
        # An int subclass crosses as the int it equals, as on the network.
        decoded, _ = decode_plan(encode_plan(MatchPlan(0, 0, [0, 1], [
            {"op": Op.EQ}, {"op": 5}])))
        assert decoded.projections == [{"op": int(Op.EQ)}, {"op": 5}]
        assert [type(row["op"]) for row in decoded.projections] == [int, int]

    def test_a_plan_that_does_not_line_up_is_not_written(self):
        with pytest.raises(CodecError):
            encode_plan(MatchPlan(0, 0, [0, 1], [{"a": 1}]))
        with pytest.raises(CodecError):
            encode_plan(MatchPlan(0, 0, [2 ** 32], [{"a": 1}]))

    #: One WORK-sized plan with every form in it: two groups, a float, an
    #: int, a string and a mixed column, a row of no names.
    GOLDEN = MatchPlan(2, 300, [5, 0, 3, 9, 4], [
        {"patient": "p-01", "hr": 61.5, "spo2": 97, "note": 1},
        {"patient": "p-02", "hr": 120.25, "spo2": 88, "note": "x"},
        {"hr": 1.0},
        {},
        {"patient": "p-01", "hr": 0.5, "spo2": 2 ** 40, "note": True}])

    @staticmethod
    def _decodes_or_raises_codec_error(data) -> None:
        try:
            plan, pos = decode_plan(data)
        except CodecError:
            return
        # What decoded is a plan: aligned, every row a dict, and no
        # bigger than the bytes that carried it.
        assert pos <= len(data)
        assert len(plan.indexes) == len(plan.projections) <= len(data)
        assert all(type(row) is dict for row in plan.projections)

    def test_every_mutation_of_a_golden_plan_decodes_or_raises_codec_error(
            self):
        """Every truncation and every single-byte substitution: the
        outcome is a plan or ``CodecError`` — never ``IndexError``,
        ``struct.error``, ``ValueError`` or ``UnicodeDecodeError``."""
        golden = encode_plan(self.GOLDEN)
        assert decode_plan(golden) == (self.GOLDEN, len(golden))
        for cut in range(len(golden)):
            with pytest.raises(CodecError):
                decode_plan(golden[:cut])
        mutable = bytearray(golden)
        for at, original in enumerate(golden):
            for byte in range(256):
                if byte != original:
                    mutable[at] = byte
                    self._decodes_or_raises_codec_error(bytes(mutable))
            mutable[at] = original

    @settings(max_examples=500, deadline=None)
    @given(st.binary(max_size=96))
    def test_arbitrary_bytes_decode_or_raise_codec_error(self, data):
        self._decodes_or_raises_codec_error(data)

    @pytest.mark.parametrize("claim", [
        b"\x00\x00" + b"\xff" * 8 + b"\x7f",           # 2**62 rows
        b"\x00\x00\x00" + b"\xff" * 8 + b"\x7f",       # 2**62 groups
        b"\x00\x00\x00\x01" + b"\xff" * 8 + b"\x7f",   # 2**62 names
        b"\x00\x00\x00\x01\x00" + b"\xff" * 8 + b"\x7f",     # 2**62 members
        b"\x00\x00\x01" + b"\x00" * 4 + b"\x01\x01\x01a\x01"
        + b"\x00" * 4 + b"\x01",                        # a column cut short
        b"\x00\x00\x01" + b"\x00" * 4 + b"\x01\x00\x01"
        + b"\x01\x00\x00\x00",                          # row 1 of 1
        b"\x00\x00\x02" + b"\x00" * 8 + b"\x02"
        + b"\x00\x01" + b"\x00" * 4 + b"\x00\x01" + b"\x00" * 4,  # row 0 twice
    ])
    def test_counts_are_checked_before_they_size_anything(self, claim):
        """A count the buffer cannot back is an error at once, not an
        allocation; a row outside the plan or in two groups is an error,
        not a lost or doubled event."""
        with pytest.raises(CodecError):
            decode_plan(claim)

    def test_inline_executor_is_the_host_path(self):
        matcher = ShardedMatcher(4, "forwarding")
        assert isinstance(matcher.executor, InlineExecutor)
        _subscribe_all([matcher], [[Filter([Constraint("a", Op.GT, 0)])]])
        assert matcher.match_batch_ids([{"a": 1}, {"a": -1}]) == [[1], []]


# One plan's result: a ragged list of per-event id lists.
plan_results = st.lists(st.lists(
    st.one_of(st.integers(0, 2 ** 32 - 1), st.sampled_from((0, 2 ** 32 - 1))),
    max_size=6), max_size=5)


class _Memo:
    def __init__(self, hits, misses, quiet=0, held=0):
        self.memo_hits, self.memo_misses = hits, misses
        self.quiet_readings, self.memo_ids_held = quiet, held


class TestReplyCodec:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(plan_results, max_size=4),
           st.lists(st.tuples(*[st.integers(0, 2 ** 40)] * 4), max_size=3))
    def test_roundtrip(self, per_plan, counters):
        engines = [_Memo(*engine_counters) for engine_counters in counters]
        reply = workers_module._encode_results(per_plan, engines)
        totals = [sum(column) for column in zip(*counters)] or [0] * 4
        assert workers_module._parse_results(reply) == (per_plan, *totals)

    def test_sets_and_engines_without_a_memo(self):
        reply = workers_module._encode_results(
            [[{7}, (), {0, 2 ** 32 - 1}], []], [object()])
        per_plan, *counters = workers_module._parse_results(reply)
        assert [[sorted(ids) for ids in plan] for plan in per_plan] \
            == [[[7], [], [0, 2 ** 32 - 1]], []]
        assert counters == [0, 0, 0, 0]

    def test_an_id_past_32_bits_does_not_pack(self):
        with pytest.raises(OverflowError):
            workers_module._encode_results([[[2 ** 32]]], [])

    def test_fail_reply_raises_its_reason(self):
        with pytest.raises(WorkerError, match="stale replica"):
            workers_module._parse_results(
                workers_module._encode_fail("stale replica: 3 > 2"))

    @pytest.mark.parametrize("reply", [
        b"", b"\x01", b"\x01\x02\x03", b"\x07\x00",
        b"\x01" + b"\xff" * 12,                 # an over-long varint
        b"\x01\x00\x00\x01\x02\x01\x00\x00",     # one plan, no events, ragged ids
        b"\x01\x00\x00\x01\x01\x01\x00\x00\x00",   # the same, two bytes of them
        b"\x01\x00\x00\x01\x01\x00\x00\x00\x00\x09",  # no plan, an id nobody counted
        b"\x01\x00\x00\x01" + b"\xff" * 9 + b"\x01",   # ends inside its counters
        b"\x01\x00\x00\x00\x00\x01\x02\x01\x00\x00",   # counts block cut short
        b"\x01\x00\x00\x00\x00\x01\x01\x01\x00\x00\x00",   # one id counted, none sent
        b"\x01\x00\x00\x00\x00\x01\x01\x00\x00\x00\x00\x09",  # ragged id block
        b"\x01\x00\x00\x00\x00\x01" + b"\xff" * 9 + b"\x01",  # 2**63 events claimed
    ])
    def test_malformed_replies_raise_worker_error(self, reply):
        with pytest.raises(WorkerError):
            workers_module._parse_results(reply)

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=64))
    def test_arbitrary_bytes_parse_or_raise_worker_error(self, reply):
        try:
            per_plan, *_ = workers_module._parse_results(reply)
        except WorkerError:
            return
        # What parsed accounts for every byte's worth of ids it carried.
        assert sum(len(ids) for plan in per_plan for ids in plan) * 4 \
            <= len(reply)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(plan_results, min_size=1, max_size=3), st.data())
    def test_mutated_golden_reply_parses_or_raises_worker_error(
            self, per_plan, data):
        golden = bytearray(workers_module._encode_results(
            per_plan, [_Memo(5, 9)]))
        mutation = data.draw(st.sampled_from(("flip", "cut", "grow")))
        at = data.draw(st.integers(0, len(golden) - 1))
        if mutation == "flip":
            golden[at] ^= data.draw(st.integers(1, 255))
        elif mutation == "cut":
            del golden[at:]
        else:
            golden[at:at] = data.draw(st.binary(min_size=1, max_size=5))
        try:
            parsed, *_ = workers_module._parse_results(bytes(golden))
        except WorkerError:
            return
        assert all(0 <= sub_id < 2 ** 32
                   for plan in parsed for ids in plan for sub_id in ids)


class TestWorkerDifferential:
    """shards {1,2,8} × workers {0,2,4} × oracle, one example at a time.

    "workers 0" is the plain matcher with its default InlineExecutor —
    the exact pre-refactor path — so every assertion pins three
    executions of the same table to the oracle at once.
    """

    def _check(self, pools, table, stream, extra=None):
        oracle = BruteForceMatcher()
        _subscribe_all([oracle], table)
        expected = [[s.sub_id for s in oracle.match(attrs)]
                    for attrs in stream]
        for shards in SHARD_COUNTS:
            inline = ShardedMatcher(shards, "forwarding")
            _subscribe_all([inline], table)
            assert inline.match_batch_ids(stream) == expected
            for workers, pool in pools.items():
                matcher = ShardedMatcher(shards, "forwarding")
                fallbacks = pool.stats.inline_fallbacks
                if extra is None or not extra(pool, matcher, table):
                    _subscribe_all([matcher], table)
                    pool.rebind(matcher)
                assert matcher.match_batch_ids(stream) == expected, \
                    f"shards={shards} workers={workers}"
                # The workers really executed: nothing fell back inline.
                assert pool.stats.inline_fallbacks == fallbacks

    @settings(max_examples=25, deadline=None)
    @given(subscription_tables, event_streams)
    def test_pool_agrees_with_inline_and_oracle(self, pools, table, stream):
        self._check(pools, table, stream)

    @settings(max_examples=25, deadline=None)
    @given(subscription_tables, event_streams)
    def test_delta_path_agrees_with_snapshot_path(self, pools, table,
                                                  stream):
        """Subscribing after rebind streams deltas to live workers; the
        result must equal the snapshot bootstrap (previous test)."""
        def subscribe_after_bind(pool, matcher, table_):
            pool.rebind(matcher)
            _subscribe_all([matcher], table_)
            return True
        self._check(pools, table, stream, extra=subscribe_after_bind)

    @settings(max_examples=20, deadline=None)
    @given(subscription_tables, subscription_tables, event_streams,
           st.data())
    def test_mid_stream_churn(self, pools, table, late_table, stream, data):
        """Batches interleaved with subscribe/unsubscribe churn stay
        oracle-exact: every delta reached the right replica in order."""
        to_remove = sorted(data.draw(st.sets(
            st.integers(1, len(table)), max_size=len(table) - 1)))
        for shards, workers in ((2, 2), (8, 4)):
            pool = pools[workers]
            oracle = BruteForceMatcher()
            matcher = ShardedMatcher(shards, "forwarding")
            _subscribe_all([oracle, matcher], table)
            pool.rebind(matcher)

            fallbacks = pool.stats.inline_fallbacks
            expected = [[s.sub_id for s in oracle.match(a)] for a in stream]
            assert matcher.match_batch_ids(stream) == expected

            for sub_id in to_remove:                    # churn down...
                oracle.unsubscribe(sub_id)
                matcher.unsubscribe(sub_id)
            _subscribe_all([oracle, matcher], late_table,   # ...and up
                           offset=len(table))
            expected = [[s.sub_id for s in oracle.match(a)] for a in stream]
            assert matcher.match_batch_ids(stream) == expected
            assert pool.stats.inline_fallbacks == fallbacks

    def test_split_class_while_workers_live(self, pools):
        """The rebalancer's actuator re-routes worker replicas live."""
        pool = pools[4]
        oracle = BruteForceMatcher()
        matcher = ShardedMatcher(8, "forwarding")
        table = [[Filter([Constraint("hr", Op.EQ, index % 6),
                          Constraint("a", Op.GT, index % 4)])]
                 for index in range(24)]
        _subscribe_all([oracle, matcher], table)
        pool.rebind(matcher)
        stream = [{"hr": i % 6, "a": i % 5, "b": i} for i in range(24)]

        fallbacks = pool.stats.inline_fallbacks
        expected = [[s.sub_id for s in oracle.match(a)] for a in stream]
        assert matcher.match_batch_ids(stream) == expected

        moved = matcher.split_class(frozenset({"hr", "a"}), "hr")
        assert moved == 24
        assert matcher.match_batch_ids(stream) == expected
        assert pool.stats.inline_fallbacks == fallbacks

    def test_sharded_bus_rides_the_pool(self, pools):
        """End to end through ShardedEventBus, ``publish_batch`` and
        ``publish`` alike: BusStats invariants and deliveries hold
        whatever executes the match phase, and the pool executes it for
        a single event as for a batch."""
        from repro.core.events import Event

        def drive(executor_pool, per_event):
            sim = Simulator()
            bus = ShardedEventBus(sim, 4)
            if executor_pool is not None:
                executor_pool.rebind(bus.sharded)
            inboxes = {}
            for index in range(8):
                inboxes[index + 1] = []
                bus.subscribe_local(
                    Filter([Constraint("hr", Op.GT, index)]),
                    inboxes[index + 1].append)
            events = [Event("vitals", {"hr": i % 12}, SID, i, 0.0)
                      for i in range(30)]
            if per_event:
                for event in events:
                    bus.publish(event)
            else:
                bus.publish_batch(events)
            sim.run_until_idle()
            stats = bus.stats
            assert stats.published == stats.matched + stats.unmatched \
                + stats.duplicates_dropped + stats.from_unknown_member
            return {k: [e.seqno for e in v] for k, v in inboxes.items()}, \
                stats

        pool = pools[2]
        for per_event in (False, True):
            inline_boxes, inline_stats = drive(None, per_event)
            executes = pool.stats.executes
            fallbacks = pool.stats.inline_fallbacks
            pool_boxes, pool_stats = drive(pool, per_event)
            assert inline_boxes[1] == [i for i in range(1, 30) if i % 12]
            assert pool_boxes == inline_boxes
            assert (pool_stats.published, pool_stats.matched,
                    pool_stats.unmatched) == (inline_stats.published,
                                              inline_stats.matched,
                                              inline_stats.unmatched)
            # One execute per publish that had something fresh to match
            # (seqno 0 is under the watermark), none of them on the host.
            assert pool.stats.executes - executes == (29 if per_event else 1)
            assert pool.stats.inline_fallbacks == fallbacks


    def test_a_turn_of_single_publishes_crosses_the_pipe_once(self, pools):
        """K one-event PUBLISH datagrams handed up in one receive turn
        are one plan round over the worker pipe, not K — and deliver what
        K turns deliver."""
        from repro.transport.inmem import InMemoryHub
        from tests.core.conftest import CoreKit

        def drive(one_turn):
            sim = Simulator()
            kit = CoreKit(sim, InMemoryHub(sim), shards=4)
            pool.rebind(kit.bus.sharded)
            inboxes = {index: [] for index in range(6)}
            for index, inbox in inboxes.items():
                kit.bus.subscribe_local(
                    Filter([Constraint("hr", Op.GT, index)]), inbox.append)
            sensors = [kit.client(f"sensor-{i}") for i in range(3)]
            executes = pool.stats.executes
            for k in range(12):
                sensors[k % 3].publish("vitals", {"hr": k % 9})
                if not one_turn:
                    sim.run_until_idle()
            sim.run_until_idle()
            stats = kit.bus.stats
            assert stats.published == stats.matched + stats.unmatched \
                + stats.duplicates_dropped + stats.from_unknown_member
            return ({index: [(e.sender, e.seqno) for e in inbox]
                     for index, inbox in inboxes.items()},
                    pool.stats.executes - executes,
                    (stats.published, stats.matched, stats.unmatched))

        pool = pools[2]
        fallbacks = pool.stats.inline_fallbacks
        per_turn_boxes, per_turn_executes, per_turn_stats = drive(False)
        one_turn_boxes, one_turn_executes, one_turn_stats = drive(True)
        assert (per_turn_executes, one_turn_executes) == (12, 1)
        assert one_turn_stats == per_turn_stats
        assert one_turn_boxes == per_turn_boxes
        assert [len(inbox) for inbox in one_turn_boxes.values()] \
            == [len([k for k in range(12) if k % 9 > index])
                for index in range(6)]
        assert pool.stats.inline_fallbacks == fallbacks


class TestWorkerFailure:
    def _bound_pool(self, workers=2, shards=4):
        matcher = ShardedMatcher(shards, "forwarding")
        _subscribe_all([matcher],
                       [[Filter([Constraint("hr", Op.GT, index)])]
                        for index in range(12)])
        pool = WorkerPoolExecutor(matcher, workers, recv_timeout_s=10.0)
        return matcher, pool

    def test_sigkilled_worker_costs_only_a_respawn(self):
        matcher, pool = self._bound_pool()
        stream = [{"hr": i} for i in range(20)]
        with pool:
            expected = matcher.match_batch_ids(stream)
            for victim in pool.worker_pids():
                os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 5.0
            while any(p.is_alive() for p in pool._procs) \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            # Exact results straight through the massacre...
            assert matcher.match_batch_ids(stream) == expected
            assert pool.stats.respawns >= 1
            # ...and the supervisor restores full strength.
            assert pool.ensure_alive() == pool.workers
            assert matcher.match_batch_ids(stream) == expected
            assert all(pool.stats_dict()["alive"])

    @pytest.mark.parametrize("mangle", [
        lambda reply: b"",
        lambda reply: b"\x01\x02\x03",
        lambda reply: reply[:-1],
        lambda reply: b"\x01" + b"\xff" * 12,
        # Well-formed, but one event short of the plan it answers.
        lambda reply: workers_module._encode_results(
            [plan[:-1] for plan
             in workers_module._parse_results(reply)[0]], []),
        # Well-formed, but one plan short.
        lambda reply: workers_module._encode_results(
            workers_module._parse_results(reply)[0][:-1], []),
    ])
    def test_corrupted_reply_degrades_inline(self, mangle):
        """Whatever a worker's reply turns into on the way, ``execute``
        returns the host engines' exact results and counts the fallback."""

        class Corrupting:
            def __init__(self, conn):
                self._conn = conn

            def recv_bytes(self):
                return mangle(self._conn.recv_bytes())

            def __getattr__(self, name):
                return getattr(self._conn, name)

        matcher, pool = self._bound_pool(workers=1)
        stream = [{"hr": i} for i in range(20)]
        with pool:
            expected = matcher.match_batch_ids(stream)
            assert pool.stats.inline_fallbacks == 0
            plans = len(matcher.build_plans(stream))
            offender = pool.worker_pids()
            pool._conns[0] = Corrupting(pool._conns[0])
            assert matcher.match_batch_ids(stream) == expected
            assert pool.stats.inline_fallbacks == plans
            # The offender was reaped; its replacement answers for itself
            # and is counted as the respawn it is.
            assert pool.stats.respawns == 0
            assert matcher.match_batch_ids(stream) == expected
            assert pool.stats.inline_fallbacks == plans
            assert pool.worker_pids() != offender
            assert pool.stats.respawns == 1

    @pytest.mark.parametrize("mangle", [
        lambda work: work[:-1],                     # the last column cut short
        lambda work: work[:len(work) // 2],
        # No such column form (ahead of the 20 x f64 image).
        lambda work: work[:-161] + b"\x07" + work[-160:],
    ])
    def test_corrupted_plan_is_answered_fail_and_runs_inline(self, mangle):
        """The other direction: a WORK message whose plans arrive damaged
        is decoded to a ``CodecError`` in the worker, which says so and
        lives; the host runs the round on its own engines, exactly."""
        replies = []

        class Corrupting:
            def __init__(self, conn):
                self._conn = conn

            def send_bytes(self, msg):
                self._conn.send_bytes(mangle(msg))

            def recv_bytes(self):
                replies.append(self._conn.recv_bytes())
                return replies[-1]

            def __getattr__(self, name):
                return getattr(self._conn, name)

        matcher, pool = self._bound_pool(workers=1, shards=1)
        stream = [{"hr": i + 0.5} for i in range(20)]
        with pool:
            expected = matcher.match_batch_ids(stream)
            assert pool.stats.inline_fallbacks == 0
            victim, = pool._procs
            pool._conns[0] = Corrupting(pool._conns[0])
            assert matcher.match_batch_ids(stream) == expected
            assert pool.stats.inline_fallbacks == 1
            with pytest.raises(WorkerError, match="CodecError"):
                workers_module._parse_results(replies[0])
            # The worker answered rather than died; the host replaces it
            # all the same, as after any round it cannot trust.
            assert victim.exitcode is None or victim.exitcode < 0
            assert matcher.match_batch_ids(stream) == expected
            assert (pool.stats.inline_fallbacks, pool.stats.respawns) == (1, 1)

    def test_id_past_32_bits_falls_back_inline(self):
        """The reply packs ids as u32: a replica holding a wider id fails
        the pack, says so, and the host answers the round itself."""
        matcher, pool = self._bound_pool(workers=1)
        wide = 2 ** 32 + 5
        stream = [{"hr": i} for i in range(20)]
        with pool:
            matcher.subscribe(Subscription(
                wide, SID, [Filter([Constraint("hr", Op.GT, 17)])]))
            inline = ShardedMatcher(4, "forwarding")
            for subscription in matcher.subscriptions():
                inline.subscribe(subscription)
            expected = inline.match_batch_ids(stream)
            assert wide in expected[19]
            assert matcher.match_batch_ids(stream) == expected
            assert pool.stats.inline_fallbacks >= 1

    def test_close_restores_inline_execution(self):
        matcher, pool = self._bound_pool()
        stream = [{"hr": i} for i in range(20)]
        expected = matcher.match_batch_ids(stream)
        pool.close()
        assert isinstance(matcher.executor, InlineExecutor)
        assert matcher.match_batch_ids(stream) == expected
        # Closing twice is a no-op; the matcher can churn freely after.
        pool.close()
        matcher.unsubscribe(1)

    def test_rebind_releases_the_previous_matcher(self):
        matcher, pool = self._bound_pool()
        with pool:
            other = ShardedMatcher(2, "forwarding")
            pool.rebind(other)
            assert isinstance(matcher.executor, InlineExecutor)
            assert other.executor is pool
            # The old matcher's delta sink is detached: churn is local.
            matcher.unsubscribe(1)
            assert pool.stats_dict()["queue_depth"] == [0] * pool.workers

    def test_pool_requires_a_named_engine(self):
        from repro.matching.engine import make_engine
        opaque = ShardedMatcher(2, lambda: make_engine("forwarding"))
        with pytest.raises(ConfigurationError):
            WorkerPoolExecutor(opaque, 2)

    def test_worker_count_validated(self):
        with pytest.raises(ConfigurationError):
            WorkerPoolExecutor(ShardedMatcher(2, "forwarding"), 0)

    def test_one_delta_sink_at_a_time(self):
        matcher, pool = self._bound_pool()
        with pool:
            with pytest.raises(ConfigurationError):
                matcher.attach_delta_sink(lambda *a: None)

    def test_stats_shape(self):
        matcher, pool = self._bound_pool(workers=2)
        with pool:
            matcher.match_batch_ids([{"hr": 5}] * 3 + [{"hr": -1}])
            stats = pool.stats_dict()
            for key in ("workers", "alive", "pids", "executes", "plans",
                        "respawns", "inline_fallbacks", "ipc_bytes_out",
                        "ipc_bytes_in", "queue_depth", "epoch_lag",
                        "worker_events", "memo_hits", "memo_misses",
                        "quiet_readings", "memo_ids_held"):
                assert key in stats, key
            # Three equal events: the lookups (and their hits) happened in
            # the owning worker's replica, and its reply said so.
            assert sum(stats["memo_misses"]) == 1
            assert sum(stats["memo_hits"]) == 2
            assert len(stats["memo_hits"]) == 2
            # hr = -1 is below every "above" threshold: no lookup.  The
            # one entry held names the five rules hr = 5 satisfies.
            assert sum(stats["quiet_readings"]) == 1
            assert sum(stats["memo_ids_held"]) == 5
            assert all(engine.memo_misses == 0
                       for engine in matcher.shard_engines())
            assert stats["workers"] == 2
            assert stats["executes"] >= 1
            assert stats["ipc_bytes_out"] > 0
            assert len(stats["alive"]) == 2


def test_available_cores_positive():
    assert available_cores() >= 1
