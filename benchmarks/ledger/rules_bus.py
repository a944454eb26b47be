"""The three ``rules_*_inproc`` workloads: a bare bus and an alarm table.

No sockets: an ``EventBus`` (or ``ShardedEventBus`` with a one-worker
``WorkerPoolExecutor``) on a virtual-time ``Simulator``, 10 000 alarm
rules registered through ``subscribe_local`` with a no-op callback, and a
ward gateway that hands the bus vitals packs 64 at a time through
``LocalPublisher.publish_batch``.  Everything is driven and observed
through public entry points only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.bus import EventBus
from repro.core.sharding import ShardedEventBus
from repro.core.workers import WorkerPoolExecutor
from repro.matching.engine import make_engine
from repro.matching.filters import Filter, Op
from repro.sim.kernel import Simulator

from ledger import workloads
from ledger.phases import Phase, SegmentClock
from ledger.workloads import RulesWorkload

#: Events of each rules workload whose match set is recomputed by brute
#: force after the run (fewer when the run itself is scaled far down: the
#: oracle costs 10 000 filter evaluations per event).
ORACLE_EVENTS = 500
#: Stacks built (and all but the last torn down) per full-count run;
#: ``setup_s`` is their median.
SETUP_REPEATS = 5


def _process_cpu_s(pid: int) -> float:
    """CPU time of another process, to the nanosecond (Linux only).

    ``/proc/<pid>/stat`` counts 10 ms ticks, a tenth of a segment; the
    kernel's per-process CPU clock (``MAKE_PROCESS_CPUCLOCK(pid,
    CPUCLOCK_SCHED)`` in its headers) is exact.
    """
    return time.clock_gettime((~pid << 3) | 2)


@dataclass
class RulesInputs:
    rules: list[Filter]
    churn_rules: list[Filter]
    packs: list[dict]


def build_inputs(workload: RulesWorkload, seed: int) -> RulesInputs:
    """Everything the workload will feed the bus, generated up front."""
    total = workload.batch + workload.closed_events + workload.open_events
    batches = total // workload.batch
    if workload.floats:
        pack_count = total              # never repeat a float value
    else:
        pack_count = min(total, workloads.PACK_POOL)
    return RulesInputs(
        rules=workloads.alarm_rules(seed, workload.rules, workload.floats),
        churn_rules=(workloads.alarm_rules(seed, batches, workload.floats,
                                           label="churn")
                     if workload.churn else []),
        packs=workloads.vitals_packs(seed, pack_count, workload.floats))


def brute_matches(rules: list[tuple[int, Filter]], views: list[dict]
                  ) -> list[list[int]]:
    """The oracle: every rule evaluated against every pack, no index.

    Shares no code with the engines or with ``Filter.matches``: each rule
    is reduced to the shape the generator emits — an optional patient and
    one ``vital > t`` or ``vital < t`` — and compared inline.
    """
    table = []
    for sub_id, rule in rules:
        patient = None
        for constraint in rule:
            if constraint.name == "patient":
                patient = constraint.value
            else:
                vital, above, threshold = (constraint.name,
                                           constraint.op == Op.GT,
                                           constraint.value)
        table.append((sub_id, patient, vital, above, threshold))
    return [[sub_id for sub_id, patient, vital, above, threshold in table
             if (patient is None or patient == view["patient"])
             and (view[vital] > threshold if above
                  else view[vital] < threshold)]
            for view in views]


def _no_op(_event) -> None:
    """The alarm rules' local callback: delivery is counted by BusStats."""


class Stack:
    """One built bus with its table installed and one batch warmed."""

    def __init__(self, workload: RulesWorkload, inputs: RulesInputs) -> None:
        started = time.perf_counter()
        self.workload = workload
        self.inputs = inputs
        self.sim = Simulator()
        if workload.shards:
            self.bus: EventBus = ShardedEventBus(self.sim, workload.shards,
                                                 "forwarding")
        else:
            self.bus = EventBus(self.sim, make_engine("forwarding"))
        self.rule_of: dict[int, Filter] = {}
        for rule in inputs.rules:
            self.rule_of[self.bus.subscribe_local(rule, _no_op)] = rule
        self.pool: WorkerPoolExecutor | None = None
        if workload.workers:
            self.pool = WorkerPoolExecutor(self.bus.sharded, workload.workers)
        self.publisher = self.bus.local_publisher("ward-gateway")
        self._next_pack = 0
        self._next_churn = 0
        self._publish_batch()                       # warm one batch
        self.setup_s = time.perf_counter() - started
        self.join_ms: list[float] = []

    # -- driving ---------------------------------------------------------------

    def _publish_batch(self) -> None:
        packs = self.inputs.packs
        start = self._next_pack
        self._next_pack = start + self.workload.batch
        size = len(packs)
        self.publisher.publish_batch(
            [(workloads.PACK_TYPE, packs[index % size])
             for index in range(start, self._next_pack)])
        self.sim.run_until_idle()
        if self.workload.churn:
            rule = self.inputs.churn_rules[self._next_churn]
            self._next_churn += 1
            self.bus.unsubscribe_local(self.bus.subscribe_local(rule, _no_op))

    def cpu_clock(self) -> float:
        cpu = time.process_time()
        if self.pool is not None:
            for pid in self.pool.worker_pids():
                if pid is not None:
                    cpu += _process_cpu_s(pid)
        return cpu

    def run_closed(self, events: int) -> Phase:
        """One caller: the next batch is published when the last resolved."""
        batch = self.workload.batch
        delivered_before = self.bus.stats.delivered_local
        ipc_before = self._ipc_bytes()
        clock = SegmentClock(events, self.cpu_clock)
        for done in range(batch, events + 1, batch):
            self._publish_batch()
            clock.advance(done, done)
        phase = Phase(events=events, deliveries=(
            self.bus.stats.delivered_local - delivered_before))
        clock.finish(phase)
        phase.ipc_bytes = self._ipc_bytes() - ipc_before
        return phase

    def _ipc_bytes(self) -> int:
        if self.pool is None:
            return 0
        return self.pool.stats.ipc_bytes_out + self.pool.stats.ipc_bytes_in

    def run_open(self, events: int, rate: float) -> Phase:
        """Packs arrive at ``rate``; the gateway forwards every 64th.

        Pack ``k`` is due at ``t0 + k / rate`` and its batch is published
        once its last pack is due, so a pack's latency is its coalescing
        wait plus queueing plus the batch's match and dispatch.  Callbacks
        all run inside ``run_until_idle``; the clock is read when it
        returns, which charges the (no-op) callbacks nothing.
        """
        batch = self.workload.batch
        period = 1.0 / rate
        phase = Phase(events=events, target_rate=rate)
        delivered_before = self.bus.stats.delivered_local
        cpu_started = self.cpu_clock()
        start = time.perf_counter() + period
        published_at = start
        for first in range(0, events, batch):
            due = start + (first + batch - 1) * period
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            published_at = time.perf_counter()
            phase.late_ms.append(1e3 * (published_at - due))
            self._publish_batch()
            done = time.perf_counter()
            phase.window_of(first).extend(
                1e3 * (done - (start + index * period))
                for index in range(first, first + batch))
            # One caller: a batch is never published before the previous
            # one resolved, so the backlog is how far behind schedule the
            # gateway runs, in packs.
            behind = int((done - due) * rate)
            if first <= events // 2 < first + batch:
                phase.backlog_mid = max(0, behind)
            phase.backlog_end = max(0, behind)
        phase.wall_s = time.perf_counter() - start
        phase.cpu_s = self.cpu_clock() - cpu_started
        phase.achieved_rate = (events - batch) / max(
            published_at - (start + (batch - 1) * period), 1e-9) \
            if events > batch else rate
        phase.deliveries = self.bus.stats.delivered_local - delivered_before
        return phase

    # -- checking and counters -------------------------------------------------

    def check(self) -> tuple[int, int, list[str]]:
        """(checked, failed, notes): brute-oracle equality and bus accounting."""
        notes: list[str] = []
        sample = self.inputs.packs[:min(
            ORACLE_EVENTS, self.workload.closed_events // 16)]
        views = [{"type": workloads.PACK_TYPE, **pack} for pack in sample]
        expected = brute_matches(sorted(self.rule_of.items()), views)
        got = self.bus.engine.match_batch_ids(views)
        failed = sum(1 for want, have in zip(expected, got) if want != have)
        if failed:
            notes.append(f"{failed}/{len(views)} match sets differ from "
                         "the brute oracle")
        # Replay the sample through the whole bus: dispatch must deliver
        # exactly the oracle's matches, no more, no fewer.
        stats = self.bus.stats
        before = (stats.delivered_local, stats.matched, stats.unmatched)
        self.publisher.publish_batch(
            [(workloads.PACK_TYPE, pack) for pack in sample])
        self.sim.run_until_idle()
        delta = (stats.delivered_local - before[0], stats.matched - before[1],
                 stats.unmatched - before[2])
        want = (sum(map(len, expected)), sum(1 for ids in expected if ids),
                sum(1 for ids in expected if not ids))
        if delta != want:
            failed += 1
            notes.append(f"replay delivered/matched/unmatched {delta} != "
                         f"oracle {want}")
        if stats.published != (stats.matched + stats.unmatched
                               + stats.duplicates_dropped
                               + stats.from_unknown_member):
            failed += 1
            notes.append(f"BusStats conservation broken: {stats}")
        if self.pool is not None:
            pool_stats = self.pool.stats
            if pool_stats.inline_fallbacks or pool_stats.respawns:
                failed += 1
                notes.append(f"worker pool degraded: {pool_stats}")
        return len(views), failed, notes

    def counters(self) -> dict:
        """Program counters the per-layer metrics are computed from."""
        engines = (self.bus.sharded.shard_engines() if self.workload.shards
                   else (self.bus.engine,))
        out = {
            "bus": self.bus.stats,
            "memo_hits": sum(engine.memo_hits for engine in engines),
            "memo_misses": sum(engine.memo_misses for engine in engines),
        }
        if self.pool is not None:
            out["workers"] = self.pool.stats_dict()
        return out

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None
