"""Multi-core match execution: a process pool behind the plan boundary.

Architecture note — how the match phase escapes the GIL
=======================================================

PR 3 split :meth:`~repro.core.bus.EventBus.publish_batch` into a *pure*
match phase and a stateful dispatch phase; PR 5 made every value crossing
the shard boundary cheap to serialise; the plan refactor
(:mod:`repro.matching.plan`) turned the match phase's input into an
explicit value.  This module supplies the executor that makes all of that
pay: a :class:`WorkerPoolExecutor` runs each :class:`~repro.matching.plan.
MatchPlan` on one of N **worker processes**, so a cell's matching runs on
as many cores as the hardware offers while the dispatch phase — and every
delivery guarantee — stays on the core host.

The division of state:

* **host** — the full :class:`~repro.core.sharding.ShardedMatcher` stays
  completely registered (introspection, the autonomic rebalancer's
  analysis, and the inline fallback all need it);
* **worker w** — replica engines for the shards it *owns* (``shard %
  workers == w``), built from the matcher's named engine spec and kept
  current by **registration deltas replayed in epoch order**: every
  subscribe/unsubscribe/split on the host emits a per-shard delta into
  the pool's per-worker pending queues, and each queue is flushed ahead
  of that worker's next plans on the same FIFO pipe — a worker therefore
  always matches against the exact table version its plans were stamped
  with (``plan.epoch``), and a stale replica is a protocol error, not a
  silent wrong answer.

Load levelling is the autonomic plane's existing actuator: a hot name
class pins one shard and therefore one worker; the rebalancer's
:meth:`~repro.core.sharding.ShardedMatcher.split_class` spreads the class
(and its events) across shards *and therefore across workers* — the
deltas it generates re-route the worker replicas live, mid-stream.

Fork-safety: workers are started with the ``spawn`` method by default, so
they inherit **no** descriptors — not the cell's UDP sockets, not the
healthz listener, no registered pollables — and a worker crash cannot
disturb the parent's selector loop.  (Transport/healthz sockets are also
explicitly non-inheritable, belt and braces.)  Crashes are absorbed: a
dead worker's plans fall back to the host's inline engines for that round
(results stay exact), and the worker is respawned and resynchronised from
a fresh table snapshot.

Everything crosses the pipe as explicit wire bytes — plans as packed
columns via :func:`~repro.matching.plan.write_plan`, subscription
fragments via the stock filter codec — never as pickled objects, the same
rule the network path follows.
"""

from __future__ import annotations

import multiprocessing
import os
from array import array
from dataclasses import dataclass
from itertools import chain

from repro.errors import CodecError, ConfigurationError, ReproError
from repro.matching.engine import MatchingEngine, make_engine
from repro.matching.filters import decode_subscription, encode_subscription
from repro.matching.plan import decode_plan, write_plan
from repro.transport import wire

#: Worker start method.  ``spawn`` inherits no fds and no mutable parent
#: state — the only fork-safe choice next to live sockets and a selector
#: loop.
START_METHOD = "spawn"

#: How long the host waits for one worker reply before declaring the
#: worker wedged, killing it and falling back inline for the round.
DEFAULT_RECV_TIMEOUT_S = 30.0


class WorkerError(ReproError):
    """A worker replied with a protocol error (stale epoch, bad frame)."""


# -- pipe protocol -----------------------------------------------------------
#
# parent -> worker messages (one send_bytes each):
#   WORK  := 0x01, varint host_epoch, varint n_deltas, n x delta,
#            varint n_plans, n x plan
#   RESET := 0x02, varint base_epoch, varint n_deltas, n x delta
#   STOP  := 0x03
# worker -> parent:
#   RESULTS := 0x01, varint memo_hits, varint memo_misses,
#              varint quiet_readings, varint memo_ids_held,
#              varint n_plans, n_plans x varint n_events,
#              u32[sum n_events] k (ids matched by each event, plan order),
#              u32[sum k] id
#   FAIL    := 0x02, varint len, utf-8 reason
#
# A plan is a table of packed columns (grammar beside
# :func:`repro.matching.plan.write_plan`): rows grouped by their name
# tuple, each name once per group, a float or int column as one ``array``
# image.  A plan the worker cannot decode is answered with FAIL like any
# other fault in the round.
#
# The two u32 blocks are ``array('I')`` images in native byte order (both
# ends of the pipe are this machine): the worker packs and the host
# unpacks every id of a reply in one C call each, where a varint per id
# cost more than the match of a memo-warm event.  A subscription id that
# does not fit 32 bits fails the pack in the worker (OverflowError), which
# is answered with FAIL and so runs inline on the host like any other
# worker fault.  The four counters are the replica engines' (summed over
# the worker's shards; the first three cumulative, the last a gauge),
# which the host cannot see otherwise: the lookups happen here.
# memo_hits / memo_misses count the lookups that reached the
# satisfied-value memo, quiet_readings those that did not have to (a
# reading inside its name's alarm-free band), memo_ids_held what the memo
# weighs against its id budget.
#
# delta := kind (0x01 sub / 0x02 unsub), varint epoch, varint shard,
#          sub:   varint len, encoded Subscription fragment
#          unsub: varint sub_id
#
# A WORK message's deltas precede its plans on the same FIFO pipe, so a
# worker's replica table is always at the plans' epoch before matching.
# The host epoch is global across shards while a worker sees only its own
# shards' deltas, so WORK carries ``host_epoch`` explicitly: the sender
# guarantees every delta this worker's shards need up to that epoch is in
# (or ahead of) this message, and the worker advances to it after replay.
# A plan stamped beyond the advanced epoch is then a true protocol error.
# Replies are sent only for WORK messages that carry plans.

_MSG_WORK = b"\x01"
_MSG_RESET = b"\x02"
_MSG_STOP = b"\x03"
_REPLY_RESULTS = 1
_REPLY_FAIL = 2
_DELTA_SUB = b"\x01"
_DELTA_UNSUB = b"\x02"
_U32 = array("I").itemsize
#: The replica-engine counters a RESULTS reply carries, in wire order;
#: ``stats_dict()`` lists each per worker under the same name.
_REPLICA_COUNTERS = ("memo_hits", "memo_misses", "quiet_readings",
                     "memo_ids_held")


def _encode_delta(kind: str, shard: int, epoch: int, payload) -> bytes:
    parts: list[bytes]
    if kind == "sub":
        body = encode_subscription(payload)
        parts = [_DELTA_SUB, wire.encode_varint(epoch),
                 wire.encode_varint(shard),
                 wire.encode_varint(len(body)), body]
    else:
        parts = [_DELTA_UNSUB, wire.encode_varint(epoch),
                 wire.encode_varint(shard), wire.encode_varint(payload)]
    return b"".join(parts)


def _apply_delta(buf: bytes, pos: int, engines: dict[int, MatchingEngine],
                 engine_name: str) -> tuple[int, int]:
    """Apply one delta at ``pos``; returns (epoch, new pos)."""
    kind = buf[pos]
    epoch, pos = wire.decode_varint(buf, pos + 1)
    shard, pos = wire.decode_varint(buf, pos)
    if kind == _DELTA_SUB[0]:
        length, pos = wire.decode_varint(buf, pos)
        fragment, end = decode_subscription(buf[pos:pos + length])
        engine = engines.get(shard)
        if engine is None:
            engines[shard] = engine = make_engine(engine_name)
        engine.subscribe(fragment)
        pos += length
    elif kind == _DELTA_UNSUB[0]:
        sub_id, pos = wire.decode_varint(buf, pos)
        engines[shard].unsubscribe(sub_id)
    else:
        raise WorkerError(f"unknown delta kind: {kind}")
    return epoch, pos


def _worker_main(conn, engine_name: str) -> None:
    """One worker process: apply deltas, execute plans, reply with ids.

    Runs until STOP or until the parent's end of the pipe closes (parent
    death must never leave an orphan matching process).
    """
    engines: dict[int, MatchingEngine] = {}
    epoch = 0
    try:
        while True:
            try:
                msg = conn.recv_bytes()
            except (EOFError, OSError):
                return
            op = msg[0:1]
            if op == _MSG_STOP:
                return
            if op == _MSG_RESET:
                engines.clear()
                epoch, pos = wire.decode_varint(msg, 1)
                count, pos = wire.decode_varint(msg, pos)
                for _ in range(count):
                    _, pos = _apply_delta(msg, pos, engines, engine_name)
                continue
            if op != _MSG_WORK:
                conn.send_bytes(_encode_fail(f"unknown opcode {msg[0]}"))
                continue
            try:
                host_epoch, pos = wire.decode_varint(msg, 1)
                count, pos = wire.decode_varint(msg, pos)
                for _ in range(count):
                    epoch, pos = _apply_delta(msg, pos, engines, engine_name)
                epoch = max(epoch, host_epoch)
                plan_count, pos = wire.decode_varint(msg, pos)
                if not plan_count:
                    continue
                results: list = []
                for _ in range(plan_count):
                    plan, pos = decode_plan(msg, pos)
                    if plan.epoch > epoch:
                        raise WorkerError(
                            f"stale replica: plan epoch {plan.epoch} > "
                            f"applied epoch {epoch}")
                    engine = engines.get(plan.shard)
                    if engine is None or not len(engine):
                        results.append([()] * len(plan.projections))
                    else:
                        results.append(
                            engine._match_ids_batch(plan.projections))
                conn.send_bytes(_encode_results(results, engines.values()))
            except Exception as exc:      # noqa: BLE001 - reported to parent
                try:
                    conn.send_bytes(_encode_fail(f"{type(exc).__name__}: "
                                                 f"{exc}"))
                except (BrokenPipeError, OSError):
                    return
    finally:
        conn.close()


def _encode_fail(reason: str) -> bytes:
    body = reason.encode("utf-8", "replace")
    return b"".join([wire.encode_varint(_REPLY_FAIL),
                     wire.encode_varint(len(body)), body])


def _encode_results(per_plan, engines) -> bytes:
    """One RESULTS reply: ``per_plan[p][e]`` is the id collection matched
    by event ``e`` of plan ``p``; ``engines`` is the collection of the
    worker's replicas."""
    out = [wire.encode_varint(_REPLY_RESULTS)]
    out += [wire.encode_varint(sum(getattr(engine, counter, 0)
                                   for engine in engines))
            for counter in _REPLICA_COUNTERS]
    out.append(wire.encode_varint(len(per_plan)))
    out += [wire.encode_varint(len(id_sets)) for id_sets in per_plan]
    events = list(chain.from_iterable(per_plan))
    out.append(array("I", map(len, events)).tobytes())
    out.append(array("I", chain.from_iterable(events)).tobytes())
    return b"".join(out)


def _parse_results(msg: bytes) -> tuple[list[list[list[int]]], int, int,
                                        int, int]:
    """Parse a RESULTS reply into (per-plan, per-event id lists; then the
    replicas' counters, in :data:`_REPLICA_COUNTERS` order).

    Whatever the bytes, the outcome is this or a :class:`WorkerError` —
    the pool treats that as one more worker fault and runs the round
    inline — and nothing is allocated beyond the message's own length.
    """
    try:
        op, pos = wire.decode_varint(msg)
        if op == _REPLY_FAIL:
            length, pos = wire.decode_varint(msg, pos)
            raise WorkerError(bytes(msg[pos:pos + length]).decode(
                "utf-8", "replace"))
        if op != _REPLY_RESULTS:
            raise WorkerError(f"unknown reply opcode {op}")
        counters = []
        for _ in _REPLICA_COUNTERS:
            counter, pos = wire.decode_varint(msg, pos)
            counters.append(counter)
        plan_count, pos = wire.decode_varint(msg, pos)
        event_counts = []
        for _ in range(plan_count):
            event_count, pos = wire.decode_varint(msg, pos)
            event_counts.append(event_count)
        ids_at = pos + _U32 * sum(event_counts)
        if ids_at > len(msg):
            raise WorkerError("reply shorter than its per-event counts")
        id_counts, ids = array("I"), array("I")
        id_counts.frombytes(msg[pos:ids_at])
        ids.frombytes(msg[ids_at:])         # ValueError on a ragged tail
    except (CodecError, ValueError) as exc:
        raise WorkerError(f"malformed reply: {exc}") from exc
    if sum(id_counts) != len(ids):
        raise WorkerError(f"reply counts {sum(id_counts)} ids, "
                          f"carries {len(ids)}")
    flat = ids.tolist()
    per_plan: list[list[list[int]]] = []
    event = at = 0
    for event_count in event_counts:
        events: list[list[int]] = []
        for id_count in id_counts[event:event + event_count]:
            events.append(flat[at:at + id_count])
            at += id_count
        event += event_count
        per_plan.append(events)
    return per_plan, *counters


# -- the pool ----------------------------------------------------------------

@dataclass
class WorkerPoolStats:
    """Aggregate counters for the pool (per-worker detail in stats())."""

    executes: int = 0          # execute() rounds
    plans: int = 0             # plans shipped (or attempted)
    ipc_bytes_out: int = 0
    ipc_bytes_in: int = 0
    respawns: int = 0          # replacement spawns after a crash/wedge
    inline_fallbacks: int = 0  # plans that ran on host engines instead


class WorkerPoolExecutor:
    """Execute match plans on N worker processes; the multi-core executor.

    Construction binds the pool to a :class:`~repro.core.sharding.
    ShardedMatcher` (it installs itself as the matcher's executor and
    delta sink and spawns the workers immediately).  :meth:`rebind` moves
    a live pool to another matcher — worker replicas are reset from a
    snapshot, not respawned — which is what the differential suite uses
    to reuse one pool across many tables.

    Shard ownership is static (``shard % workers``): deltas and plans for
    one shard always meet the same replica, so replay order per engine is
    total.  Every failure path degrades to correctness, never to error:
    a crashed, wedged or protocol-violating worker is killed, its plans
    for the round run inline on the host engines, and the worker is
    respawned from a fresh snapshot before its next round.
    """

    def __init__(self, matcher, workers: int = 2, *,
                 engine: str | None = None,
                 recv_timeout_s: float | None = DEFAULT_RECV_TIMEOUT_S
                 ) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.stats = WorkerPoolStats()
        self._recv_timeout_s = recv_timeout_s
        self._ctx = multiprocessing.get_context(START_METHOD)
        self._engine_spec = engine
        self._procs: list = [None] * workers
        self._spawned = [False] * workers    # slot ever started a worker?
        self._conns: list = [None] * workers
        self._pending: list[list[bytes]] = [[] for _ in range(workers)]
        self._synced_epoch = [0] * workers
        self._worker_events = [0] * workers
        # Each worker's replica-engine counters (_REPLICA_COUNTERS), as of
        # its last reply; the cumulative ones count from that worker's
        # last RESET or respawn.
        self._worker_counters = [(0,) * len(_REPLICA_COUNTERS)] * workers
        self._matcher = None
        self._closed = False
        self.bind(matcher)

    # -- binding ------------------------------------------------------------

    def bind(self, matcher) -> None:
        """Attach to ``matcher``: executor + delta sink + replica sync."""
        if self._closed:
            raise ConfigurationError("worker pool is closed")
        spec = self._engine_spec or matcher.engine_spec
        if spec is None:
            raise ConfigurationError(
                "worker replicas need a named engine — build the matcher "
                "with an engine name, or pass engine= to the pool")
        if self._matcher is not None:
            self._release_matcher()
        self._matcher = matcher
        self._bound_spec = spec
        matcher.attach_delta_sink(self._on_delta)
        matcher.set_executor(self)
        for w in range(self.workers):
            self._pending[w] = []
            proc = self._procs[w]
            if proc is not None and proc.is_alive() \
                    and self._conns[w] is not None:
                # A live worker still holds the previous matcher's
                # replicas — reset it in place instead of respawning.
                self._send_reset(w)
            else:
                self._ensure_worker(w)

    rebind = bind

    def _release_matcher(self) -> None:
        matcher, self._matcher = self._matcher, None
        if matcher is not None:
            matcher.detach_delta_sink(self._on_delta)
            if matcher.executor is self:
                matcher.set_executor(None)

    def _on_delta(self, kind: str, shard: int, epoch: int, payload) -> None:
        self._pending[shard % self.workers].append(
            _encode_delta(kind, shard, epoch, payload))

    # -- worker lifecycle ---------------------------------------------------

    def owned_shards(self, worker: int) -> list[int]:
        """Shards statically owned by ``worker`` (``shard % workers``)."""
        return list(range(worker, self._matcher.shard_count, self.workers))

    def _ensure_worker(self, worker: int) -> bool:
        """Spawn (or replace) one worker and sync it from a snapshot."""
        proc = self._procs[worker]
        if proc is not None and proc.is_alive() and \
                self._conns[worker] is not None:
            return True
        self._reap(worker)
        try:
            parent_conn, child_conn = self._ctx.Pipe()
            proc = self._ctx.Process(
                target=_worker_main,
                args=(child_conn, self._bound_spec),
                name=f"repro-match-worker-{worker}", daemon=True)
            proc.start()
            child_conn.close()
        except (OSError, ValueError):
            return False
        self._procs[worker] = proc
        self._conns[worker] = parent_conn
        # Whoever noticed the death (execute, a failed send, the sweep)
        # has already reaped the slot, so "was started before" is the
        # only reliable sign that this start is a replacement.
        if self._spawned[worker]:
            self.stats.respawns += 1
        self._spawned[worker] = True
        return self._send_reset(worker)

    def _send_reset(self, worker: int) -> bool:
        """Replace the worker's replica tables with a fresh host snapshot."""
        matcher = self._matcher
        base = matcher.epoch
        entries = [_encode_delta("sub", sidx, base, fragment)
                   for sidx, fragment
                   in matcher.shard_snapshot(self.owned_shards(worker))]
        parts = [_MSG_RESET, wire.encode_varint(base),
                 wire.encode_varint(len(entries))] + entries
        self._pending[worker] = []
        self._synced_epoch[worker] = base
        return self._send(worker, b"".join(parts))

    def _send(self, worker: int, msg: bytes) -> bool:
        conn = self._conns[worker]
        if conn is None:
            return False
        try:
            conn.send_bytes(msg)
        except (BrokenPipeError, OSError):
            return False
        self.stats.ipc_bytes_out += len(msg)
        return True

    def _reap(self, worker: int) -> None:
        conn = self._conns[worker]
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
        self._conns[worker] = None
        proc = self._procs[worker]
        if proc is not None:
            if proc.is_alive():
                proc.terminate()
                proc.join(0.5)
            if proc.is_alive():
                proc.kill()
                proc.join(0.5)
            self._procs[worker] = None

    def ensure_alive(self) -> int:
        """Respawn any dead worker now (the server's sweep calls this);
        returns the number of live workers."""
        if self._closed:
            return 0
        return sum(1 for w in range(self.workers) if self._ensure_worker(w))

    # -- execution ----------------------------------------------------------

    def execute(self, plans):
        """Run ``plans`` across the pool; exact results, whatever fails.

        Deltas pending for a worker are flushed ahead of its plans on the
        same pipe (and flushed on their own when the worker has no plans
        this round, so replicas never lag more than one round).  Any
        worker failure — dead pipe, wedged reply, protocol error — kills
        that worker, runs its plans inline on the host engines, and
        schedules a respawn.
        """
        stats = self.stats
        stats.executes += 1
        stats.plans += len(plans)
        results: list = [None] * len(plans)
        by_worker: dict[int, list[int]] = {}
        for pos, plan in enumerate(plans):
            by_worker.setdefault(plan.shard % self.workers, []).append(pos)
        awaiting: list[tuple[int, list[int]]] = []
        for worker in range(self.workers):
            positions = by_worker.get(worker, [])
            if not positions and not self._pending[worker]:
                continue
            if self._dispatch(worker, [plans[p] for p in positions]):
                if positions:
                    awaiting.append((worker, positions))
            elif positions:
                self._run_inline(plans, positions, results)
        for worker, positions in awaiting:
            try:
                per_plan = self._collect(worker)
                # merge_plan_results zips ids to events: a short list
                # there would be lost matches, not an error.
                answered = [len(id_lists) for id_lists in per_plan]
                expected = [len(plans[pos]) for pos in positions]
                if answered != expected:
                    raise WorkerError(
                        f"worker {worker} answered {answered} events "
                        f"for plans of {expected}")
            except (WorkerError, EOFError, OSError, TimeoutError):
                self._reap(worker)
                self._run_inline(plans, positions, results)
                continue
            for pos, id_lists in zip(positions, per_plan):
                results[pos] = id_lists
                self._worker_events[worker] += len(id_lists)
        return results

    def _dispatch(self, worker: int, assigned: list) -> bool:
        """Send pending deltas + plans to one worker; False on failure
        (after one respawn-and-retry attempt)."""
        for _attempt in (0, 1):
            if not self._ensure_worker(worker):
                continue
            parts = [_MSG_WORK,
                     wire.encode_varint(self._matcher.epoch),
                     wire.encode_varint(len(self._pending[worker]))]
            parts += self._pending[worker]
            parts.append(wire.encode_varint(len(assigned)))
            for plan in assigned:
                write_plan(parts, plan)
            if self._send(worker, b"".join(parts)):
                self._pending[worker] = []
                self._synced_epoch[worker] = self._matcher.epoch
                return True
            self._reap(worker)
        return False

    def _collect(self, worker: int) -> list[list[list[int]]]:
        conn = self._conns[worker]
        if conn is None:
            raise WorkerError("worker connection lost")
        if self._recv_timeout_s is not None \
                and not conn.poll(self._recv_timeout_s):
            raise TimeoutError(
                f"worker {worker} reply timed out "
                f"after {self._recv_timeout_s}s")
        msg = conn.recv_bytes()
        self.stats.ipc_bytes_in += len(msg)
        per_plan, *counters = _parse_results(msg)
        self._worker_counters[worker] = counters
        return per_plan

    def _run_inline(self, plans, positions: list[int], results: list) -> None:
        """Host-engine fallback: exact results for a failed worker's plans."""
        engines = self._matcher.shard_engines()
        for pos in positions:
            plan = plans[pos]
            results[pos] = engines[plan.shard]._match_ids_batch(
                plan.projections)
        self.stats.inline_fallbacks += len(positions)

    # -- observability / lifecycle ------------------------------------------

    def worker_pids(self) -> list[int | None]:
        return [proc.pid if proc is not None else None
                for proc in self._procs]

    def stats_dict(self) -> dict:
        """JSON-ready pool view (the healthz ``workers`` section)."""
        matcher_epoch = self._matcher.epoch if self._matcher is not None else 0
        return {
            "workers": self.workers,
            "alive": [proc is not None and proc.is_alive()
                      for proc in self._procs],
            "pids": self.worker_pids(),
            "executes": self.stats.executes,
            "plans": self.stats.plans,
            "respawns": self.stats.respawns,
            "inline_fallbacks": self.stats.inline_fallbacks,
            "ipc_bytes_out": self.stats.ipc_bytes_out,
            "ipc_bytes_in": self.stats.ipc_bytes_in,
            "queue_depth": [len(pending) for pending in self._pending],
            "epoch_lag": [max(0, matcher_epoch - synced)
                          for synced in self._synced_epoch],
            "worker_events": list(self._worker_events),
            **dict(zip(_REPLICA_COUNTERS,
                       map(list, zip(*self._worker_counters)))),
        }

    def close(self) -> None:
        """Drain and stop every worker; restore the inline executor."""
        if self._closed:
            return
        self._closed = True
        for worker in range(self.workers):
            if self._conns[worker] is not None:
                self._send(worker, _MSG_STOP)
        for worker, proc in enumerate(self._procs):
            if proc is not None:
                proc.join(1.0)
            self._reap(worker)
        self._release_matcher()

    def __enter__(self) -> "WorkerPoolExecutor":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:
        alive = sum(1 for p in self._procs if p is not None and p.is_alive())
        return (f"<WorkerPoolExecutor workers={self.workers} alive={alive} "
                f"respawns={self.stats.respawns}>")


def available_cores() -> int:
    """CPUs this process may actually run on (cgroup/affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):          # pragma: no cover - non-linux
        return os.cpu_count() or 1
