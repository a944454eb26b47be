"""A1 — matching engine micro-benchmarks (wall clock).

Events/second through each engine as the subscription table grows.  This
is the real-CPU companion to the virtual-time figure benches: the counting
(forwarding) engine should scale better than naive per-subscription
evaluation, and the Siena translation backend should pay a visible tax
over the bare poset matcher.
"""

import random
import time

import pytest

from repro.core.bus import EventBus
from repro.core.events import Event
from repro.core.sharding import ShardedEventBus
from repro.ids import service_id_from_name
from repro.matching.engine import BruteForceMatcher, make_engine
from repro.matching.filters import Constraint, Filter, Op, Subscription
from repro.sim.kernel import Simulator

SUBSCRIBER = service_id_from_name("bench-subscriber")


def build_subscriptions(count: int, seed: int = 7) -> list[Subscription]:
    rng = random.Random(seed)
    subscriptions = []
    for index in range(count):
        constraints = [Constraint("type", Op.EQ,
                                  f"health.{rng.choice('abcdefgh')}")]
        if rng.random() < 0.7:
            constraints.append(Constraint("hr", rng.choice([Op.GT, Op.LT]),
                                          rng.randint(40, 180)))
        if rng.random() < 0.4:
            constraints.append(Constraint("patient", Op.EQ,
                                          f"p-{rng.randint(1, 20)}"))
        subscriptions.append(
            Subscription(index + 1, SUBSCRIBER, [Filter(constraints)]))
    return subscriptions


def build_events(count: int, seed: int = 11) -> list[dict]:
    rng = random.Random(seed)
    return [{"type": f"health.{rng.choice('abcdefgh')}",
             "hr": rng.randint(40, 180),
             "patient": f"p-{rng.randint(1, 20)}"}
            for _ in range(count)]


@pytest.mark.parametrize("engine_name", ["forwarding", "siena", "brute"])
@pytest.mark.parametrize("sub_count", [10, 100, 1000])
def test_match_rate(benchmark, engine_name, sub_count):
    engine = make_engine(engine_name)
    for subscription in build_subscriptions(sub_count):
        engine.subscribe(subscription)
    events = build_events(200)

    def run():
        total = 0
        for attrs in events:
            total += len(engine.match(attrs))
        return total

    matched = benchmark(run)
    benchmark.extra_info["matched_per_200_events"] = matched
    assert matched > 0


@pytest.mark.parametrize("engine_name", ["forwarding", "siena", "brute"])
@pytest.mark.parametrize("sub_count", [10, 100, 1000])
def test_match_batch_rate(benchmark, engine_name, sub_count):
    """The batch pipeline: same workload as test_match_rate, one call."""
    engine = make_engine(engine_name)
    for subscription in build_subscriptions(sub_count):
        engine.subscribe(subscription)
    events = build_events(200)

    def run():
        return sum(len(subs) for subs in engine.match_batch(events))

    matched = benchmark(run)
    benchmark.extra_info["matched_per_200_events"] = matched
    assert matched > 0


def test_match_keeps_pace_with_match_batch_at_10k():
    """One match body, two entry points (CI smoke runs this).

    At 10k subscriptions the forwarding engine's per-event ``match`` must
    return exactly the match sets ``match_batch`` returns, event by event,
    and sustain at least 0.5x its events/sec on the same stream: both are
    views of ``_match_ids_batch``, so what separates them is one call per
    event (measured 0.9-1.0x).  A per-event body of its own that skips
    the satisfied-value memo ran at 0.2x, which the floor therefore fails.
    Sustained methodology: one warm-up pass populates the value memo, as
    a long-running bus would be, and each entry point takes its best of
    three runs so a noisy-neighbour stall on a shared CI runner cannot
    flap the gate.
    """
    engine = make_engine("forwarding")
    for subscription in build_subscriptions(10_000):
        engine.subscribe(subscription)
    events = build_events(1000)

    engine.match_batch(events)      # warm the satisfied-value memo

    def best_of(runs, fn):
        best, result = float("inf"), None
        for _ in range(runs):
            start = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - start)
        return best, result

    per_event_s, per_event = best_of(3, lambda: [
        [s.sub_id for s in engine.match(attrs)] for attrs in events])
    batch_s, batched = best_of(3, lambda: [
        [s.sub_id for s in subs] for subs in engine.match_batch(events)])

    assert batched == per_event       # identical match sets, event by event
    per_eps = len(events) / per_event_s
    batch_eps = len(events) / batch_s
    assert per_eps >= 0.5 * batch_eps, (
        f"per-event {per_eps:.0f} ev/s vs batch {batch_eps:.0f} ev/s "
        f"({per_eps / batch_eps:.2f}x, need >= 0.5x)")


# -- sharded bus scaling -----------------------------------------------------
#
# The sharded workload is a ward of patients wearing full vitals packs:
# every event carries all eight vitals, every alert rule constrains the
# event type, one vital and (half the time) one patient.  The rules span
# many attribute-name classes, which is what lets the sharded bus spread
# the table; selective thresholds keep match sets realistic (sparse).

VITALS = ("hr", "temp", "spo2", "bp_sys", "bp_dia", "resp", "glucose",
          "battery")
VITAL_RANGES = {"hr": (40, 180), "temp": (350, 420), "spo2": (80, 100),
                "bp_sys": (90, 200), "bp_dia": (50, 130), "resp": (8, 40),
                "glucose": (50, 250), "battery": (0, 100)}


def build_vitals_subscriptions(count: int, seed: int = 7,
                               first_id: int = 1) -> list[Subscription]:
    rng = random.Random(seed)
    subscriptions = []
    for index in range(count):
        vital = rng.choice(VITALS)
        lo, hi = VITAL_RANGES[vital]
        constraints = [Constraint("type", Op.EQ,
                                  f"vitals.{rng.choice('abcd')}"),
                       Constraint(vital, rng.choice([Op.GT, Op.LT]),
                                  rng.randint(lo, hi))]
        if rng.random() < 0.5:
            constraints.append(Constraint("patient", Op.EQ,
                                          f"p-{rng.randint(1, 40)}"))
        subscriptions.append(Subscription(first_id + index, SUBSCRIBER,
                                          [Filter(constraints)]))
    return subscriptions


def build_vitals_events(count: int, seed: int = 11,
                        floats: bool = False) -> list[dict]:
    """Integer readings repeat within a few hundred events; ``floats``
    draws continuous ones, which never do."""
    rng = random.Random(seed)
    draw = rng.uniform if floats else rng.randint
    events = []
    for _ in range(count):
        attrs = {"patient": f"p-{rng.randint(1, 40)}"}
        for vital in VITALS:
            lo, hi = VITAL_RANGES[vital]
            attrs[vital] = draw(lo, hi)
        events.append((f"vitals.{rng.choice('abcd')}", attrs))
    return events


def _run_sharded_bus_workload(shards: int, sub_count: int, batches: int,
                              batch_size: int, churn: bool = True
                              ) -> tuple[float, tuple, int]:
    """One full bus run: subscribe, warm, then measure batches, by default
    under steady subscription churn.  Returns (seconds, comparable outcome,
    scheduler turns the measured batches took).

    Churn is the point: a registration change drops only the memo entries
    it can affect and touches only its own index buckets, so a bus that
    re-subscribes one member per batch should run close to one that does
    not — on one engine or on eight shards alike.
    """
    sim = Simulator()
    if shards == 1:
        bus = EventBus(sim, make_engine("forwarding"))
    else:
        bus = ShardedEventBus(sim, shards)
    for subscription in build_vitals_subscriptions(sub_count):
        bus.subscribe_local(subscription.filters, lambda event: None)

    sender = service_id_from_name("vitals-pack")
    stamped = [Event(event_type, attrs, sender, seqno + 1, 0.0)
               for seqno, (event_type, attrs)
               in enumerate(build_vitals_events(batch_size * (batches + 1)))]
    churn_subs = build_vitals_subscriptions(batches, seed=1303,
                                            first_id=sub_count + 1)

    bus.publish_batch(stamped[:batch_size])        # warm every shard
    sim.run_until_idle()

    turns_before = sim.events_processed
    start = time.perf_counter()
    for index in range(1, batches + 1):
        bus.publish_batch(stamped[index * batch_size:
                                  (index + 1) * batch_size])
        sim.run_until_idle()
        if churn:
            # One member re-subscribes each round, as real cells' members
            # do all day.
            sub_id = bus.subscribe_local(churn_subs[index - 1].filters,
                                         lambda event: None)
            bus.unsubscribe_local(sub_id)
    elapsed = time.perf_counter() - start
    stats = bus.stats
    outcome = (stats.published, stats.matched, stats.unmatched,
               stats.duplicates_dropped, stats.delivered_local)
    return elapsed, outcome, sim.events_processed - turns_before


@pytest.mark.parametrize("shards", [1, 2, 4, 8])
def test_sharded_publish_batch_scaling(benchmark, shards):
    """The shard-scaling curve: publish_batch under churn at each width."""
    def run():
        return _run_sharded_bus_workload(shards, sub_count=2000,
                                         batches=6, batch_size=100)

    _elapsed, outcome, _turns = benchmark(run)
    benchmark.extra_info["delivered"] = outcome[-1]
    assert outcome[0] > 0


def test_churn_costs_what_it_changes_at_10k():
    """The churn gates (CI smoke runs this): two same-process ratios.

    At 10k subscriptions with one subscription churned per batch, the
    single bus must sustain >= 0.6x its own churn-free publish_batch
    throughput (measured 0.87x; an engine that clears its whole memo and
    filters every index bucket on a registration change reads 0.35x), and
    eight inline shards must stay >= 0.8x the single bus (measured 0.97x:
    on one core sharding neither buys nor costs throughput) while
    producing identical BusStats.  Best of two full runs per configuration,
    mirroring the batch gate above.

    One count gate rides along, independent of runner speed: every
    measured batch costs the scheduler exactly one turn, however many of
    the 10k local subscriptions it matched — a per-subscription timer
    creeping back into dispatch fails here before it shows in a ratio.
    """
    settings = dict(sub_count=10_000, batches=16, batch_size=200)

    def best_of(runs, shards, churn=True):
        best, outcome = float("inf"), None
        for _ in range(runs):
            elapsed, outcome, turns = _run_sharded_bus_workload(
                shards, churn=churn, **settings)
            assert turns == settings["batches"], (
                f"{turns} scheduler turns for {settings['batches']} batches")
            best = min(best, elapsed)
        return best, outcome

    steady_s, _ = best_of(2, 1, churn=False)
    single_s, single_outcome = best_of(2, 1)
    sharded_s, sharded_outcome = best_of(2, 8)

    assert sharded_outcome == single_outcome   # same deliveries, same stats
    events = settings["batches"] * settings["batch_size"]
    steady_eps = events / steady_s
    single_eps = events / single_s
    sharded_eps = events / sharded_s
    assert single_eps >= 0.6 * steady_eps, (
        f"single bus under churn {single_eps:.0f} ev/s vs churn-free "
        f"{steady_eps:.0f} ev/s ({single_eps / steady_eps:.2f}x, "
        f"need >= 0.6x)")
    assert sharded_eps >= 0.8 * single_eps, (
        f"8 shards {sharded_eps:.0f} ev/s vs single bus {single_eps:.0f} "
        f"ev/s ({sharded_eps / single_eps:.2f}x, need >= 0.8x)")


def test_cold_values_keep_pace_with_warm_ones_at_10k():
    """The memo-cold gate (CI smoke runs this): one same-process ratio.

    Real vitals are continuous, so most readings are values the
    satisfied-value memo has never seen and each costs a walk of the
    index.  At 10k vitals subscriptions — every reading satisfies about
    half of its vital's ~1250 thresholds — ``match_batch_ids`` on a
    never-repeating float stream must sustain >= 0.15x the same engine's
    rate on the integer stream, where every lookup is a memo hit
    (measured 0.21x; with one Python step per satisfied fid on the cold
    path, as before the thresholds were bucketed by group, 0.10x).  Both
    streams must return the brute-force oracle's match sets.  Each
    measured cold run is a slice of readings the engine has not seen;
    best of three on both sides.

    This table has **no alarm-free band**: its thresholds are drawn over
    each vital's whole range, "above" and "below" alike, so the highest
    "below" threshold sits over the lowest "above" one and no reading is
    skipped ahead of the memo (``quiet_readings`` stays 0, asserted) —
    the gate keeps guarding the bisect-and-slice path; the band's own
    gate is a count in tier-1 (``TestAlarmFreeBand``,
    tests/matching/test_forwarding.py).
    """
    rounds, per_round, checked = 3, 500, 60
    engine, oracle = make_engine("forwarding"), BruteForceMatcher()
    for subscription in build_vitals_subscriptions(10_000):
        engine.subscribe(subscription)
        oracle.subscribe(subscription)

    def views(floats):
        return [{"type": event_type, **attrs} for event_type, attrs
                in build_vitals_events(rounds * per_round, floats=floats)]

    warm, cold = views(False), views(True)
    engine.match_batch_ids(warm)        # every integer reading memoised
    warm_s = cold_s = float("inf")
    for start in range(0, rounds * per_round, per_round):
        began = time.perf_counter()
        warm_ids = engine.match_batch_ids(warm[:per_round])
        warm_s = min(warm_s, time.perf_counter() - began)
        began = time.perf_counter()
        cold_ids = engine.match_batch_ids(cold[start:start + per_round])
        cold_s = min(cold_s, time.perf_counter() - began)
        assert warm_ids[:checked] == oracle.match_batch_ids(warm[:checked])
        assert cold_ids[:checked] == oracle.match_batch_ids(
            cold[start:start + checked])
    assert engine.memo_misses >= rounds * per_round * len(VITALS)
    assert engine.quiet_readings == 0
    assert cold_s <= warm_s / 0.15, (
        f"cold {per_round / cold_s:.0f} ev/s vs memo-warm "
        f"{per_round / warm_s:.0f} ev/s ({warm_s / cold_s:.2f}x, "
        f"need >= 0.15x)")


def test_forwarding_faster_than_brute_at_scale():
    """At 2000 subscriptions the index must beat linear scan clearly."""
    events = build_events(300)
    timings = {}
    for name in ("forwarding", "brute"):
        engine = make_engine(name)
        for subscription in build_subscriptions(2000):
            engine.subscribe(subscription)
        start = time.perf_counter()
        reference = [len(engine.match(attrs)) for attrs in events]
        timings[name] = time.perf_counter() - start
        if name == "forwarding":
            forwarding_result = reference
        else:
            assert reference == forwarding_result   # same answers
    assert timings["forwarding"] < timings["brute"], timings
