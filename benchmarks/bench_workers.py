"""A4 — multi-core match workers (wall clock).

The worker pool's whole claim is that the match phase can use every core
the host offers.  This bench pins the claim on a deliberately CPU-bound
vitals-ward workload:

* **10k subscriptions**, float thresholds over eight single-vital name
  classes — the classes spread the table across all shards, and float
  event values (distinct per event) defeat the forwarding engine's
  satisfied-value memo, so every event pays real binary-search and
  threshold-scan work instead of a dict hit;
* **workers {0, 2, 4}** over the same stream, results pinned identical;
* a **hard ≥1.8x gate at 4 workers vs inline** — enforced only where the
  hardware can physically show it (``available_cores() >= 4``; the gate
  runs informationally elsewhere, e.g. single-core containers, where the
  honest expectation is ~1.0x plus IPC overhead);
* a **crash-recovery smoke** under a wall-clock bound: a SIGKILL mid-run
  costs one inline round and a respawn, never a wrong match set.
"""

import os
import random
import signal
import time

import pytest

from repro.core.sharding import ShardedMatcher
from repro.core.workers import WorkerPoolExecutor, available_cores
from repro.ids import service_id_from_name
from repro.matching.filters import Constraint, Filter, Op, Subscription

SUBSCRIBER = service_id_from_name("bench-worker-subscriber")

VITALS = ("hr", "temp", "spo2", "bp_sys", "bp_dia", "resp", "glucose",
          "battery")
VITAL_RANGES = {"hr": (40, 180), "temp": (35.0, 42.0), "spo2": (80, 100),
                "bp_sys": (90, 200), "bp_dia": (50, 130), "resp": (8, 40),
                "glucose": (50, 250), "battery": (0, 100)}

SHARDS = 8
SUB_COUNT = 10_000
EVENT_COUNT = 400
GATE_WORKERS = 4
GATE_SPEEDUP = 1.8


def build_cpu_bound_subscriptions(count: int, seed: int = 7
                                  ) -> list[Subscription]:
    """Float band-alert rules, one vital per rule: lo < vital < lo + 2%.

    Single-vital name classes are what lets the table spread across all
    shards (and therefore all workers); float operands are what keeps the
    match CPU-bound (every event misses the satisfied-value memo, so both
    half-open constraints of every rule on the event's vital get counted)
    while the narrow band keeps the *match set* sparse and realistic —
    alarms fire rarely, so the work is the counting, not shipping ids.

    The 1 250 windows of a vital tile its whole range, so the table has
    **no alarm-free band** (the highest ``<`` threshold is above the
    lowest ``>`` one): no reading is skipped ahead of the memo, and the
    gates below keep guarding the bisect-and-slice path and the pipe.
    """
    rng = random.Random(seed)
    subscriptions = []
    for index in range(count):
        vital = VITALS[index % len(VITALS)]
        lo, hi = VITAL_RANGES[vital]
        width = (hi - lo) * 0.02
        band_lo = lo + (hi - lo - width) * rng.random()
        subscriptions.append(Subscription(
            index + 1, SUBSCRIBER,
            [Filter([Constraint(vital, Op.GT, band_lo),
                     Constraint(vital, Op.LT, band_lo + width)])]))
    return subscriptions


def build_cpu_bound_events(count: int, seed: int = 11) -> list[dict]:
    """Full vitals packs with distinct float values per event — every
    event misses the (name, value) memo and pays the full match cost."""
    rng = random.Random(seed)
    events = []
    for _ in range(count):
        attrs = {}
        for vital in VITALS:
            lo, hi = VITAL_RANGES[vital]
            attrs[vital] = lo + (hi - lo) * rng.random()
        events.append(attrs)
    return events


def _build_matcher(sub_count: int = SUB_COUNT) -> ShardedMatcher:
    matcher = ShardedMatcher(SHARDS, "forwarding")
    for subscription in build_cpu_bound_subscriptions(sub_count):
        matcher.subscribe(subscription)
    return matcher


@pytest.mark.parametrize("workers", [0, 2, 4])
def test_worker_match_rate(benchmark, workers):
    """Events/second through the match phase at each pool width
    (workers=0 is the InlineExecutor — the pre-refactor path)."""
    matcher = _build_matcher(sub_count=2000)
    events = build_cpu_bound_events(EVENT_COUNT)
    pool = None
    if workers:
        pool = WorkerPoolExecutor(matcher, workers)
    try:
        matcher.match_batch_ids(events[:50])           # warm spawn + replicas

        def run():
            return sum(len(ids)
                       for ids in matcher.match_batch_ids(events))

        matched = benchmark(run)
        benchmark.extra_info["matched"] = matched
        benchmark.extra_info["available_cores"] = available_cores()
        assert matched > 0
    finally:
        if pool is not None:
            pool.close()


def test_worker_pool_is_exact_and_gates_at_4_workers():
    """The worker pool's hard perf gate (CI smoke runs this).

    Always: 4 workers produce byte-identical match sets to the inline
    path on the 10k-sub CPU-bound stream, with zero inline fallbacks —
    the workers really did the matching.  Where the hardware has >= 4
    usable cores (CI runners do): the pool must sustain >= 1.8x inline
    throughput over three *distinct* event streams — distinct because a
    repeated stream hits the forwarding engine's satisfied-value memo on
    every round after the first, and a memo-warm pass measures dict hits,
    not matching (real sensor floats never repeat).  On fewer cores the
    ratio is reported but not enforced — a 1-core host physically cannot
    show a process-pool speedup, only the IPC tax.
    """
    inline = _build_matcher()
    pooled = _build_matcher()
    streams = [build_cpu_bound_events(EVENT_COUNT, seed=11 + round_)
               for round_ in range(3)]
    warm = build_cpu_bound_events(50, seed=5)

    pool = WorkerPoolExecutor(pooled, GATE_WORKERS)
    try:
        inline.match_batch_ids(warm)           # warm spawn + code paths
        pooled.match_batch_ids(warm)

        start = time.perf_counter()
        inline_ids = [inline.match_batch_ids(stream) for stream in streams]
        inline_s = time.perf_counter() - start
        start = time.perf_counter()
        pooled_ids = [pooled.match_batch_ids(stream) for stream in streams]
        pooled_s = time.perf_counter() - start

        assert pooled_ids == inline_ids        # exact, event by event
        assert pool.stats.inline_fallbacks == 0
        assert pool.stats.plans > 0

        total_events = sum(len(stream) for stream in streams)
        inline_eps = total_events / inline_s
        pooled_eps = total_events / pooled_s
        speedup = pooled_eps / inline_eps
        cores = available_cores()
        print(f"\nworkers={GATE_WORKERS}: {pooled_eps:.0f} ev/s vs inline "
              f"{inline_eps:.0f} ev/s = {speedup:.2f}x on {cores} cores")
        if cores >= GATE_WORKERS:
            assert speedup >= GATE_SPEEDUP, (
                f"{GATE_WORKERS} workers {pooled_eps:.0f} ev/s vs inline "
                f"{inline_eps:.0f} ev/s ({speedup:.2f}x, need >= "
                f"{GATE_SPEEDUP}x on {cores} cores)")
    finally:
        pool.close()


def test_worker_crash_recovery_smoke():
    """Kill a worker mid-stream: the round still returns exact results
    (host-engine fallback), the pool is back at full strength within a
    bounded wall-clock window, and throughput resumes on the workers."""
    matcher = _build_matcher(sub_count=2000)
    events = build_cpu_bound_events(100)
    pool = WorkerPoolExecutor(matcher, 2, recv_timeout_s=10.0)
    try:
        expected = matcher.match_batch_ids(events)

        start = time.monotonic()
        os.kill(pool.worker_pids()[0], signal.SIGKILL)
        assert matcher.match_batch_ids(events) == expected
        assert pool.ensure_alive() == pool.workers
        assert matcher.match_batch_ids(events) == expected
        elapsed = time.monotonic() - start

        assert all(pool.stats_dict()["alive"])
        assert pool.stats.respawns >= 1
        assert elapsed < 15.0, f"recovery took {elapsed:.1f}s"
    finally:
        pool.close()
