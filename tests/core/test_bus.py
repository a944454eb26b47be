"""The event bus semantics layer, against local subscribers."""

import dataclasses
import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bus import EventBus
from repro.core.events import Event
from repro.errors import BusError, NotAMemberError, SubscriptionNotFoundError
from repro.ids import service_id_from_name
from repro.matching.engine import BruteForceMatcher, make_engine
from repro.matching.filters import Filter, Subscription
from repro.sim.kernel import RealtimeScheduler, Simulator

from tests.matching.strategies import attribute_maps, filters

SENDER = service_id_from_name("pub")


@pytest.fixture(params=["forwarding", "siena", "brute"])
def bus(sim, request):
    return EventBus(sim, make_engine(request.param))


class TestLocalPubSub:
    def test_delivery(self, sim, bus):
        got = []
        bus.subscribe_local(Filter.where("t"), got.append)
        publisher = bus.local_publisher("svc")
        publisher.publish("t", {"v": 1})
        sim.run_until_idle()
        assert [e.get("v") for e in got] == [1]

    def test_no_subscribers_counts_unmatched(self, sim, bus):
        bus.local_publisher("svc").publish("nobody.cares")
        sim.run_until_idle()
        assert bus.stats.unmatched == 1

    def test_callbacks_run_async_not_inline(self, sim, bus):
        got = []
        bus.subscribe_local(Filter.where("t"), got.append)
        bus.local_publisher("svc").publish("t")
        assert got == []                  # not yet: scheduled, not inline
        sim.run_until_idle()
        assert len(got) == 1

    def test_per_sender_fifo_order(self, sim, bus):
        got = []
        bus.subscribe_local(Filter.where("t"), lambda e: got.append(e.seqno))
        publisher = bus.local_publisher("svc")
        for _ in range(20):
            publisher.publish("t")
        sim.run_until_idle()
        assert got == list(range(1, 21))

    def test_multiple_local_subscribers_each_get_event(self, sim, bus):
        got_a, got_b = [], []
        bus.subscribe_local(Filter.where("t"), got_a.append)
        bus.subscribe_local(Filter.where("t"), got_b.append)
        bus.local_publisher("svc").publish("t")
        sim.run_until_idle()
        assert len(got_a) == len(got_b) == 1

    def test_unsubscribe_local(self, sim, bus):
        got = []
        sub_id = bus.subscribe_local(Filter.where("t"), got.append)
        bus.unsubscribe_local(sub_id)
        bus.local_publisher("svc").publish("t")
        sim.run_until_idle()
        assert got == []

    def test_unsubscribe_unknown_raises(self, bus):
        with pytest.raises(SubscriptionNotFoundError):
            bus.unsubscribe_local(99)

    def test_duplicate_suppression_by_watermark(self, sim, bus):
        got = []
        bus.subscribe_local(Filter.where("t"), got.append)
        event = Event("t", {}, SENDER, 5, 0.0)
        assert bus.publish(event) is True
        assert bus.publish(event) is False       # same (sender, seqno)
        sim.run_until_idle()
        assert len(got) == 1
        assert bus.stats.duplicates_dropped == 1

    def test_old_seqno_suppressed(self, sim, bus):
        bus.publish(Event("t", {}, SENDER, 10, 0.0))
        assert bus.publish(Event("t", {}, SENDER, 3, 0.0)) is False

    def test_independent_watermarks_per_sender(self, sim, bus):
        other = service_id_from_name("other")
        assert bus.publish(Event("t", {}, SENDER, 5, 0.0))
        assert bus.publish(Event("t", {}, other, 5, 0.0))

    def test_local_publisher_seqnos_monotonic(self, bus):
        publisher = bus.local_publisher("svc")
        first = publisher.publish("t")
        second = publisher.publish("t")
        assert second.seqno == first.seqno + 1

    def test_per_event_publish_moves_the_memo_counters(self, sim):
        """healthz's memo ratio sees per-event traffic: ``publish`` runs
        the one engine body, memo and all."""
        bus = EventBus(sim)                       # the forwarding engine
        bus.subscribe_local(Filter.where("t", v=1), lambda event: None)
        publisher = bus.local_publisher("svc")
        for _ in range(3):
            publisher.publish("t", {"v": 1})
        engine = bus.engine
        assert engine.memo_misses > 0
        assert engine.memo_hits > 0
        assert engine.memo_hits + engine.memo_misses == 6

    def test_stats_track_subscriptions(self, bus):
        sub_id = bus.subscribe_local(Filter.where("t"), lambda e: None)
        assert bus.stats.subscriptions_active == 1
        bus.unsubscribe_local(sub_id)
        assert bus.stats.subscriptions_active == 0


class TestBatchPublish:
    """publish_batch must be observably equivalent to per-event publish."""

    def test_batch_delivery_and_order(self, sim, bus):
        got = []
        bus.subscribe_local(Filter.where("t"), got.append)
        publisher = bus.local_publisher("svc")
        publisher.publish_batch([("t", {"n": i}) for i in range(10)])
        sim.run_until_idle()
        assert [e.get("n") for e in got] == list(range(10))
        assert [e.seqno for e in got] == list(range(1, 11))

    def test_batch_callbacks_run_async_not_inline(self, sim, bus):
        got = []
        bus.subscribe_local(Filter.where("t"), got.append)
        bus.local_publisher("svc").publish_batch([("t", {}), ("t", {})])
        assert got == []                  # scheduled, not inline
        sim.run_until_idle()
        assert len(got) == 2

    def test_batch_mixed_matches(self, sim, bus):
        got = []
        bus.subscribe_local(Filter.where("t"), got.append)
        publisher = bus.local_publisher("svc")
        publisher.publish_batch([("t", {"n": 0}), ("u", {"n": 1}),
                                 ("t", {"n": 2})])
        sim.run_until_idle()
        assert [e.get("n") for e in got] == [0, 2]
        assert bus.stats.matched == 2
        assert bus.stats.unmatched == 1

    def test_batch_duplicate_suppression(self, sim, bus):
        got = []
        bus.subscribe_local(Filter.where("t"), got.append)
        events = [Event("t", {"n": i}, SENDER, i + 1, 0.0) for i in range(4)]
        assert bus.publish_batch(events) == 4
        assert bus.publish_batch(events) == 0        # all duplicates
        sim.run_until_idle()
        assert len(got) == 4
        assert bus.stats.duplicates_dropped == 4

    def test_batch_dedup_inside_one_batch(self, sim, bus):
        event = Event("t", {}, SENDER, 3, 0.0)
        assert bus.publish_batch([event, event]) == 1
        assert bus.stats.duplicates_dropped == 1

    def test_batch_overlapping_subs_deliver_once_per_component(self, sim, bus):
        got = []
        bus.subscribe_local(Filter.where("t"), got.append)
        bus.subscribe_local(Filter.for_type_prefix("t"), got.append)
        bus.local_publisher("svc").publish_batch([("t", {})])
        sim.run_until_idle()
        assert len(got) == 2          # once per subscription's callback
        assert bus.stats.delivered_local == 2

    def test_batch_stats_invariant(self, sim, bus):
        bus.subscribe_local(Filter.where("t"), lambda e: None)
        publisher = bus.local_publisher("svc")
        publisher.publish_batch([("t", {}), ("u", {})])
        bus.publish_batch([Event("t", {}, SENDER, 1, 0.0),
                           Event("t", {}, SENDER, 1, 0.0)])
        stats = bus.stats
        assert stats.published == (stats.matched + stats.unmatched
                                   + stats.duplicates_dropped
                                   + stats.from_unknown_member)

    def test_empty_batch_is_a_noop(self, sim, bus):
        assert bus.publish_batch([]) == 0
        assert bus.stats.published == 0

    def test_unsubscribe_after_publish_delivers_like_per_event(self, sim, bus):
        # The per-event path captures the callback at publish time, so an
        # unsubscribe before the scheduler turn does not retract already-
        # matched events; the batch path must behave identically.
        got_batch, got_single = [], []
        sub_id = bus.subscribe_local(Filter.where("t"), got_batch.append)
        bus.local_publisher("svc").publish_batch([("t", {})])
        bus.unsubscribe_local(sub_id)      # before the scheduler turn runs
        sub_id = bus.subscribe_local(Filter.where("t"), got_single.append)
        bus.local_publisher("svc").publish("t")
        bus.unsubscribe_local(sub_id)
        sim.run_until_idle()
        assert len(got_batch) == len(got_single) == 1


class TestWatermarkErasure:
    """Purged-then-readmitted members start a fresh delivery session."""

    def test_readmitted_sender_not_treated_as_duplicate(self, sim, bus):
        got = []
        bus.subscribe_local(Filter.where("t"), got.append)
        bus.publish(Event("t", {"n": 0}, SENDER, 50, 0.0))
        bus.unregister_member(SENDER)
        # The readmitted device restarts its seqno space at 1; with the
        # watermark erased these must be fresh, not duplicates.
        assert bus.publish(Event("t", {"n": 1}, SENDER, 1, 0.0)) is True
        assert bus.publish(Event("t", {"n": 2}, SENDER, 2, 0.0)) is True
        sim.run_until_idle()
        assert [e.get("n") for e in got] == [0, 1, 2]
        assert bus.stats.duplicates_dropped == 0

    def test_erasure_scoped_to_the_purged_member(self, sim, bus):
        other = service_id_from_name("other")
        bus.publish(Event("t", {}, SENDER, 10, 0.0))
        bus.publish(Event("t", {}, other, 10, 0.0))
        bus.unregister_member(SENDER)
        assert bus.publish(Event("t", {}, SENDER, 1, 0.0)) is True
        # The untouched member's watermark still suppresses stale seqnos.
        assert bus.publish(Event("t", {}, other, 1, 0.0)) is False

    def test_batch_path_accepts_fresh_session_after_purge(self, sim, bus):
        bus.publish_batch([Event("t", {}, SENDER, i, 0.0)
                           for i in range(1, 6)])
        bus.unregister_member(SENDER)
        fresh = bus.publish_batch([Event("t", {}, SENDER, i, 0.0)
                                   for i in range(1, 4)])
        assert fresh == 3
        assert bus.stats.duplicates_dropped == 0

    def test_purge_between_batches_not_counted_duplicate(self, sim, bus):
        got = []
        bus.subscribe_local(Filter.where("t"), got.append)
        bus.publish_batch([Event("t", {"s": 1}, SENDER, 7, 0.0)])
        bus.unregister_member(SENDER)
        bus.publish_batch([Event("t", {"s": 2}, SENDER, 7, 0.0)])
        sim.run_until_idle()
        # Same seqno, two membership sessions: both delivered.
        assert [e.get("s") for e in got] == [1, 2]


class TestMembership:
    def test_proxy_required_for_member_subscription(self, bus):
        with pytest.raises(NotAMemberError):
            bus.subscribe_member(service_id_from_name("ghost"),
                                 [Filter.where("t")])

    def test_proxy_of_unknown_raises(self, bus):
        with pytest.raises(NotAMemberError):
            bus.proxy_of(service_id_from_name("ghost"))

    def test_unregister_clears_watermark(self, sim, bus):
        # After a purge, a re-admitted device restarts its seqnos; the bus
        # must accept them (exactly-once is scoped to one membership).
        bus.publish(Event("t", {}, SENDER, 50, 0.0))
        bus.unregister_member(SENDER)
        assert bus.publish(Event("t", {}, SENDER, 1, 0.0)) is True

    def test_unsubscribe_member_ownership_checked(self, sim, bus):
        got = []
        sub_id = bus.subscribe_local(Filter.where("t"), got.append)
        with pytest.raises(BusError):
            bus.unsubscribe_member(service_id_from_name("x"), sub_id)


class RecordingProxy:
    """The slice of the Proxy interface dispatch calls, recording it."""

    def __init__(self, name):
        self.member_id = service_id_from_name(name)
        self.got = []

    def deliver_batch(self, events, memo=None):
        self.got.extend(event.key() for event in events)


def _stats_tuple(bus):
    return dataclasses.astuple(bus.stats)


#: Per subscription: who owns it (None = a local callback, else one of two
#: proxied members) and its filters.
owned_tables = st.lists(
    st.tuples(st.sampled_from((None, "m1", "m2")),
              st.lists(filters(), min_size=1, max_size=2)),
    min_size=1, max_size=8)
attribute_streams = st.lists(attribute_maps(), min_size=1, max_size=12)


class TestLocalDeliveryTurn:
    """One scheduler turn per publish carries every local delivery, with
    the order, capture, re-entrancy and fault semantics of one timer per
    matched subscription."""

    @staticmethod
    def _build(scheduler, table):
        """A bus with ``table`` installed; local callbacks log
        ``(sub_id, event.key())`` into one global list."""
        bus = EventBus(scheduler)
        proxies = {name: RecordingProxy(name) for name in ("m1", "m2")}
        for proxy in proxies.values():
            bus.register_proxy(proxy)
        log, local_ids = [], []

        def record(sub_id, event):
            log.append((sub_id, event.key()))

        for index, (owner, filter_list) in enumerate(table, start=1):
            if owner is None:
                sub_id = bus.subscribe_local(
                    filter_list, functools.partial(record, index))
                local_ids.append(sub_id)
            else:
                sub_id = bus.subscribe_member(proxies[owner].member_id,
                                              filter_list)
            assert sub_id == index       # the oracle numbers them alike
        return bus, proxies, log, local_ids

    @settings(max_examples=150, deadline=None)
    @given(owned_tables, attribute_streams)
    def test_batch_order_is_first_match_slices_fifo_within(self, table,
                                                           stream):
        events = [Event("w", attrs, SENDER, seqno + 1, 0.0)
                  for seqno, attrs in enumerate(stream)]
        # The definition, from the brute oracle: a slice per local
        # subscription in the order each first matched, FIFO inside.
        oracle = BruteForceMatcher()
        owners = {}
        for index, (owner, filter_list) in enumerate(table):
            oracle.subscribe(Subscription(index + 1, SENDER, filter_list))
            owners[index + 1] = owner
        slices, remote = {}, {"m1": [], "m2": []}
        for event in events:
            ids = sorted(s.sub_id for s in oracle.match(event.attrs_view()))
            for sub_id in ids:
                if owners[sub_id] is None:
                    slices.setdefault(sub_id, []).append(event.key())
            for owner in {owners[sub_id] for sub_id in ids} - {None}:
                remote[owner].append(event.key())
        expected = [(sub_id, key) for sub_id, keys in slices.items()
                    for key in keys]

        sim = Simulator()
        bus, proxies, log, local_ids = self._build(sim, table)
        turns = sim.events_processed
        assert bus.publish_batch(events) == len(events)
        assert log == []                         # never inline
        sim.run_until_idle()
        assert log == expected
        assert sim.events_processed - turns == (1 if expected else 0)
        assert {name: proxy.got for name, proxy in proxies.items()} == remote

        # Per event, through publish(): the same per-subscriber sequences,
        # the same proxy deliveries, the same counters.
        single_sim = Simulator()
        single, single_proxies, single_log, _ = self._build(single_sim, table)
        for event in events:
            single.publish(event)
        single_sim.run_until_idle()
        for sub_id in local_ids:
            assert ([key for owner, key in single_log if owner == sub_id]
                    == slices.get(sub_id, []))
        assert {name: proxy.got
                for name, proxy in single_proxies.items()} == remote
        assert _stats_tuple(single) == _stats_tuple(bus)

    def test_unsubscribed_later_in_the_same_turn_still_delivered(self, sim,
                                                                bus):
        got = []
        second = []

        def first(event):
            got.append(("first", event.get("n")))
            if second:
                bus.unsubscribe_local(second.pop())

        bus.subscribe_local(Filter.where("t"), first)
        second.append(bus.subscribe_local(
            Filter.where("t"), lambda e: got.append(("second", e.get("n")))))
        publisher = bus.local_publisher("svc")
        publisher.publish_batch([("t", {"n": 0}), ("t", {"n": 1})])
        sim.run_until_idle()
        # Matched for it at dispatch time, so delivered; gone afterwards.
        assert got == [("first", 0), ("first", 1),
                       ("second", 0), ("second", 1)]
        publisher.publish("t", {"n": 2})
        sim.run_until_idle()
        assert got[4:] == [("first", 2)]

    @pytest.mark.parametrize("batched", [True, False])
    def test_nested_publish_runs_after_the_whole_current_turn(self, sim, bus,
                                                              batched):
        got = []
        publisher = bus.local_publisher("svc")

        def relay(event):
            got.append(("relay", event.get("n")))
            if batched:
                publisher.publish_batch([("echo", {"n": event.get("n")})])
            else:
                publisher.publish("echo", {"n": event.get("n")})

        bus.subscribe_local(Filter.where("t"), relay)
        bus.subscribe_local(Filter.where("t"),
                            lambda e: got.append(("tail", e.get("n"))))
        bus.subscribe_local(Filter.where("echo"),
                            lambda e: got.append(("echo", e.get("n"))))
        publisher.publish_batch([("t", {"n": 0}), ("t", {"n": 1})])
        sim.run_until_idle()
        assert got == [("relay", 0), ("relay", 1), ("tail", 0), ("tail", 1),
                       ("echo", 0), ("echo", 1)]

    @pytest.mark.parametrize("batched", [True, False])
    @pytest.mark.parametrize("realtime", [False, True])
    def test_raising_callback_costs_no_other_subscriber(self, realtime,
                                                        batched):
        scheduler = RealtimeScheduler() if realtime else Simulator()

        def run():
            if realtime:
                scheduler.run_for(0.02)
            else:
                scheduler.run_until_idle()

        bus = EventBus(scheduler)
        before, after = [], []

        def faulty(event):
            raise RuntimeError("subscriber bug")

        bus.subscribe_local(Filter.where("t"), before.append)
        bus.subscribe_local(Filter.where("t"), faulty)
        bus.subscribe_local(Filter.where("t"), after.append)
        bus.subscribe_local(Filter.where("t"), after.append)
        publisher = bus.local_publisher("svc")
        if batched:
            publisher.publish_batch([("t", {}), ("t", {})])
        else:
            publisher.publish("t")
        events = 2 if batched else 1
        stats = _stats_tuple(bus)
        with pytest.raises(RuntimeError, match="subscriber bug"):
            run()
        assert len(before) == events and after == []
        run()                                  # the rest, one turn later
        assert len(after) == 2 * events
        assert _stats_tuple(bus) == stats
        assert bus.stats.delivered_local == 4 * events

    @pytest.mark.parametrize("subscribers", [1, 7, 200])
    def test_one_scheduler_turn_per_publish(self, sim, bus, subscribers):
        for _ in range(subscribers):
            bus.subscribe_local(Filter.where("t"), lambda e: None)
        publisher = bus.local_publisher("svc")
        publisher.publish_batch([("t", {})] * 5)
        assert sim.pending_count() == 1
        sim.run_until_idle()
        assert sim.events_processed == 1
        publisher.publish("t")
        sim.run_until_idle()
        assert sim.events_processed == 2
        publisher.publish_batch([("nobody.cares", {})])
        sim.run_until_idle()
        assert sim.events_processed == 2       # nothing local: no turn
        assert bus.stats.delivered_local == 6 * subscribers
