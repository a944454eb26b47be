"""The sharded event bus: partitioned matching, shared dispatch.

The ROADMAP's "sharded buses" step: once the transport is pipelined
(PR 2), the bus CPU — not the link — caps the event service, exactly as
the paper's Figure 4 found for its own testbed.  The matching side of
:meth:`~repro.core.bus.EventBus.publish_batch` is a pure function of the
subscription table and the event stream, so it can be partitioned; the
delivery side (watermarks, subscription ownership, proxies, quenching)
cannot, because exactly-once-per-component is a property of the whole
member, not of any table fragment.  This module splits the bus exactly
along that line:

* :class:`ShardedMatcher` — a composite
  :class:`~repro.matching.engine.MatchingEngine` that routes every filter
  to one of N inner engines by its attribute-name class
  (:func:`repro.matching.forwarding.name_class`) and merges the per-shard
  match-id sets.  A filter can only match events carrying all of its
  class's names, so each shard sees only the slice of every event it can
  act on (its *projection*);
* a sharded bus is ``EventBus(scheduler, ShardedMatcher(n))``.  The
  match phase fans out; the dispatch phase — and therefore the
  :class:`~repro.core.bus.BusStats` invariant and every delivery
  guarantee — is the bus's one shared code path.

Why shard at all?  Not for single-core throughput: a registration change
costs a forwarding engine the memo entries and index buckets it touches,
whatever the table's size, so there is no churn damage for a shard to
confine, and the churn gate in ``benchmarks/bench_matching.py`` measures
8 inline shards at 0.97x the single bus.  The partition exists for the
boundary it creates: a shard is a self-contained table plus the
projection of each event onto it, which is exactly a
:class:`~repro.matching.plan.MatchPlan` — so the match phase runs on
whatever executor is attached (inline here, worker processes in
:mod:`repro.core.workers`), and putting shards on separate cores is a
transport problem rather than a semantics problem.

Static CRC routing has one failure mode: a *hot* name class.  A ward
where every alert rule constrains the same vitals attributes hashes the
whole table onto one shard, and the other shards idle while that shard
matches every event against the whole table.
:meth:`ShardedMatcher.split_class` is the repair — the actuator the
autonomic control plane's shard rebalancer
(:class:`repro.autonomic.controllers.ShardRebalancer`) drives: it
re-routes a class live by a *secondary value-bucket key*, spreading the
class's equality-constrained filters (and, crucially, the events they
match) across every shard by :func:`value_bucket` of the chosen
attribute's value.  Correctness is unchanged — a bucket-routed filter can
only match an event whose bucket value hashes to its shard, and the
projection routes events by exactly that hash.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from repro.errors import ConfigurationError
from repro.matching.engine import MatchingEngine, make_engine
from repro.matching.filters import Filter, Op, Subscription
from repro.matching.forwarding import name_class
from repro.matching.plan import InlineExecutor, MatchPlan, PlanExecutor
from repro.sim.hosts import CostMeter
from repro.sim.kernel import Scheduler
from repro.transport.wire import Value

from repro.core.bus import EventBus

#: One registration delta as emitted to an attached sink: ``("sub", shard,
#: epoch, Subscription fragment)`` or ``("unsub", shard, epoch, sub_id)``.
#: Executors replay these to replica tables in epoch order.
DeltaSink = Callable[[str, int, int, object], None]

#: Default shard count for a sharded bus.  Eight covers the class
#: diversity of realistic vitals workloads without leaving most shards
#: empty, and is the configuration the CI scaling gate pins.
DEFAULT_SHARDS = 8


def shard_index(names: Iterable[str], shard_count: int) -> int:
    """Deterministic shard for one attribute-name class.

    CRC-32 over the sorted, delimiter-joined names — stable across
    processes, platforms and runs (unlike the interpreter's salted
    ``hash``), so a subscription routes to the same shard in every
    worker process and in every replay of a seeded simulation.
    """
    if shard_count == 1:
        return 0
    key = "\x1f".join(sorted(names)).encode("utf-8")
    return zlib.crc32(key) % shard_count


def value_bucket(value: Value, shard_count: int) -> int:
    """Deterministic shard bucket for one attribute *value*.

    The secondary routing key of a split class.  Like :func:`shard_index`
    it is CRC-32-based so placement is identical across processes and
    replays.  The one invariant that matters for correctness: two values
    that can satisfy the same equality constraint must bucket together.
    Within the numeric kind ``1 == 1.0``, so integral floats canonicalise
    to their integer text; booleans are their own kind and never
    EQ-compare equal to numbers, strings or bytes, so cross-kind key
    collisions merely co-locate buckets (harmless).
    """
    if isinstance(value, bool):
        data = b"b1" if value else b"b0"
    elif isinstance(value, (int, float)):
        if isinstance(value, float) and not value.is_integer():
            data = b"n" + repr(value).encode("ascii")
        else:
            data = b"n" + str(int(value)).encode("ascii")
    elif isinstance(value, str):
        data = b"s" + value.encode("utf-8")
    else:
        data = b"y" + bytes(value)
    return zlib.crc32(data) % shard_count


def _eq_value(filt: Filter, name: str) -> Value | None:
    """The operand of ``filt``'s equality constraint on ``name``, if any.

    A filter with *two* different EQ operands on the same name can never
    match; returning the first keeps its routing deterministic and its
    (empty) match set correct on whichever shard it lands.
    """
    for constraint in filt:
        if constraint.name == name and constraint.op == Op.EQ:
            return constraint.value
    return None


@dataclass
class ClassSplit:
    """Live routing override for one hot name class.

    Filters of the class carrying an EQ constraint on ``bucket_name``
    route to :func:`value_bucket` of that operand; filters without one
    (range or string-shape constraints on the bucket attribute) fall back
    to the class's static CRC shard.  ``fragments`` counts bucket-routed
    fragments per shard so the projection skips shards holding none.
    """

    names: frozenset[str]
    bucket_name: str
    fragments: dict[int, int] = field(default_factory=dict)


@dataclass(frozen=True)
class ClassStat:
    """Load/shape summary of one name class (rebalancer input)."""

    names: frozenset[str]
    fragments: int            # registered filter fragments in the class
    shard: int                # static CRC home shard
    split: bool               # already re-routed by a value bucket?
    #: name -> distinct EQ operands across the class's fragments; the
    #: rebalancer picks the most diverse name as the bucket key.
    eq_diversity: dict[str, int]


class ShardedMatcher(MatchingEngine):
    """Composite engine: N inner engines, one subscription table.

    Filters are routed by :func:`shard_index` of their name class; a
    subscription whose filters span classes registers a fragment in every
    shard it touches, and an event's match set is the union of the shard
    results — exactly the disjunction semantics of multi-filter
    subscriptions, so the union *is* the merge step.

    Empty filters (zero constraints, match everything) are kept at the
    composite level rather than in any shard: their subscriptions join
    every match set directly, which spares the shards a per-event
    always-set and keeps "hash empty classes consistently" trivially
    true.
    """

    def __init__(self, shard_count: int = DEFAULT_SHARDS,
                 engine: str = "forwarding") -> None:
        super().__init__()
        if shard_count < 1:
            raise ConfigurationError(
                f"shard_count must be >= 1, got {shard_count}")
        #: Engine name every shard (and every worker replica) is built from.
        self.engine_spec = engine
        self.shard_count = shard_count
        self._shards: tuple[MatchingEngine, ...] = tuple(
            make_engine(engine) for _ in range(shard_count))
        self.name = f"sharded-{shard_count}x{self._shards[0].name}"
        # sub id -> shard indexes holding one of its filter fragments.
        self._routes: dict[int, tuple[int, ...]] = {}
        # attribute name -> {shard index: filters constraining it there}.
        # Covers statically-routed fragments only; bucket-routed fragments
        # are projected through their ClassSplit instead, so a split class
        # does not drag every event onto every bucket shard.
        self._name_shards: dict[str, dict[int, int]] = {}
        # sub ids with an empty (match-everything) filter.
        self._always_subs: set[int] = set()
        # Live secondary-key routing overrides: class -> ClassSplit.
        self._splits: dict[frozenset[str], ClassSplit] = {}
        # Per-class bookkeeping feeding ClassStat / the rebalancer.
        self._class_fragments: dict[frozenset[str], int] = {}
        self._class_members: dict[frozenset[str], dict[int, int]] = {}
        self._class_eq_values: dict[
            frozenset[str], dict[str, dict[Value, int]]] = {}
        #: Events projected onto each shard (match work), for load sensing.
        self.shard_event_counts: list[int] = [0] * shard_count
        #: Registration epoch: bumped on every per-shard table mutation.
        #: Plans stamp it; executors with replica tables sync to it.
        self.epoch = 0
        #: Attached executor consuming this matcher's plans.
        self._executor: PlanExecutor = InlineExecutor(self)
        #: Optional registration-delta listener (the worker pool's feed).
        self._delta_sink: DeltaSink | None = None

    def set_meter(self, meter: CostMeter) -> None:
        """Forward cost accounting to every shard that supports it.

        Work-proportional charges (e.g. the Siena backend's translation
        copies) must keep flowing to the simulated host under sharding,
        and each consulted shard pays its own per-invocation base cost —
        faithful for N engines run on one host, and identical to the
        single engine at ``shard_count=1``.  The composite itself charges
        nothing.
        """
        for shard in self._shards:
            set_shard_meter = getattr(shard, "set_meter", None)
            if set_shard_meter is not None:
                set_shard_meter(meter)

    # -- plan execution boundary ------------------------------------------

    @property
    def executor(self) -> PlanExecutor:
        return self._executor

    def set_executor(self, executor: PlanExecutor | None) -> None:
        """Install the executor the match phase runs plans on.

        ``None`` restores the default :class:`InlineExecutor`.  Every
        match, of one event or many, is plans handed to this executor;
        host-side engines stay fully registered regardless, so
        introspection and the rebalancer's analysis are executor-agnostic
        — and any executor can fall back inline.
        """
        self._executor = executor if executor is not None \
            else InlineExecutor(self)

    def attach_delta_sink(self, sink: DeltaSink) -> None:
        """Feed every future registration delta to ``sink``.

        One sink at a time (the worker pool); the sink is called
        synchronously inside subscribe/unsubscribe/split, in epoch order.
        Catch up on the existing table with :meth:`shard_snapshot` first.
        """
        if self._delta_sink is not None:
            raise ConfigurationError("a delta sink is already attached")
        self._delta_sink = sink

    def detach_delta_sink(self, sink: DeltaSink) -> None:
        # == not `is`: bound methods are re-created on each access.
        if self._delta_sink == sink:
            self._delta_sink = None

    def shard_snapshot(self, shards: Iterable[int] | None = None
                       ) -> list[tuple[int, Subscription]]:
        """Current per-shard subscription fragments, for replica bootstrap.

        Returns ``(shard index, fragment)`` pairs in sub-id order,
        restricted to ``shards`` when given.  Routing is recomputed from
        the live split table, so the snapshot is exactly what replaying
        the whole delta history would have produced.
        """
        wanted = None if shards is None else set(shards)
        out: list[tuple[int, Subscription]] = []
        for sub_id in sorted(self._subscriptions):
            subscription = self._subscriptions[sub_id]
            per_shard, _routed, _always = self._group_filters(subscription)
            for sidx, filters in per_shard.items():
                if wanted is None or sidx in wanted:
                    out.append((sidx, Subscription(
                        sub_id, subscription.subscriber, filters)))
        return out

    # -- introspection ----------------------------------------------------

    def shard_engines(self) -> tuple[MatchingEngine, ...]:
        return self._shards

    def shard_loads(self) -> list[int]:
        """Registered subscription fragments per shard."""
        return [len(shard) for shard in self._shards]

    def shard_events(self) -> list[int]:
        """Events projected onto each shard so far (match work done)."""
        return list(self.shard_event_counts)

    def shard_of_filter(self, filt: Filter) -> int:
        """The shard a (non-empty) filter routes to (split-aware)."""
        return self._route_filter(name_class(filt), filt)[0]

    def splits(self) -> tuple[ClassSplit, ...]:
        """Active class splits, in deterministic (sorted-names) order."""
        return tuple(self._splits[key]
                     for key in sorted(self._splits, key=sorted))

    def class_stats(self) -> list[ClassStat]:
        """Per-class load summary, sorted by descending fragment count.

        This is the *analyze* input of the autonomic shard rebalancer: it
        names each class's static home shard, how many fragments it holds
        and how many distinct EQ operands each attribute offers as a
        candidate secondary bucket key.
        """
        stats = []
        for names, fragments in self._class_fragments.items():
            eq = self._class_eq_values.get(names, {})
            stats.append(ClassStat(
                names=names, fragments=fragments,
                shard=shard_index(names, self.shard_count),
                split=names in self._splits,
                eq_diversity={name: len(values)
                              for name, values in eq.items() if values}))
        stats.sort(key=lambda s: (-s.fragments, sorted(s.names)))
        return stats

    # -- registration ----------------------------------------------------

    def _route_filter(self, names: frozenset[str],
                      filt: Filter) -> tuple[int, bool]:
        """Route one fragment: (shard index, bucket-routed?).

        The single source of truth for the split-routing rule —
        ``_group_filters`` must route identically at index and deindex
        time, so the rule lives in exactly one place.
        """
        split = self._splits.get(names)
        if split is not None:
            value = _eq_value(filt, split.bucket_name)
            if value is not None:
                return value_bucket(value, self.shard_count), True
        return shard_index(names, self.shard_count), False

    def _group_filters(self, subscription: Subscription) -> tuple[
            dict[int, list[Filter]],
            list[tuple[Filter, frozenset[str], int, bool]], int]:
        """Route a subscription's filters: per-shard groups, the per-
        fragment routing decisions (for bookkeeping), and the count of
        empty (match-everything) filters.

        Must be deterministic in the current split table — ``_deindex``
        recomputes it to reverse the bookkeeping ``_index`` did, and
        :meth:`split_class` re-registers every affected subscription
        atomically so the table never changes between the two.
        """
        per_shard: dict[int, list[Filter]] = {}
        routed: list[tuple[Filter, frozenset[str], int, bool]] = []
        always = 0
        for filt in subscription.filters:
            names = name_class(filt)
            if not names:
                always += 1
                continue
            sidx, bucketed = self._route_filter(names, filt)
            per_shard.setdefault(sidx, []).append(filt)
            routed.append((filt, names, sidx, bucketed))
        return per_shard, routed, always

    def _index(self, subscription: Subscription) -> None:
        per_shard, routed, always = self._group_filters(subscription)
        for sidx, filters in per_shard.items():
            fragment = Subscription(subscription.sub_id,
                                    subscription.subscriber, filters)
            self._shards[sidx].subscribe(fragment)
            self.epoch += 1
            if self._delta_sink is not None:
                self._delta_sink("sub", sidx, self.epoch, fragment)
        for filt, names, sidx, bucketed in routed:
            self._track_fragment(subscription.sub_id, filt, names, sidx,
                                 bucketed, +1)
        if always:
            self._always_subs.add(subscription.sub_id)
        self._routes[subscription.sub_id] = tuple(per_shard)

    def _deindex(self, subscription: Subscription) -> None:
        for sidx in self._routes.pop(subscription.sub_id, ()):
            self._shards[sidx].unsubscribe(subscription.sub_id)
            self.epoch += 1
            if self._delta_sink is not None:
                self._delta_sink("unsub", sidx, self.epoch,
                                 subscription.sub_id)
        _per_shard, routed, always = self._group_filters(subscription)
        for filt, names, sidx, bucketed in routed:
            self._track_fragment(subscription.sub_id, filt, names, sidx,
                                 bucketed, -1)
        if always:
            self._always_subs.discard(subscription.sub_id)

    def _track_fragment(self, sub_id: int, filt: Filter,
                        names: frozenset[str], sidx: int, bucketed: bool,
                        delta: int) -> None:
        """Maintain routing refcounts and class statistics for one
        fragment (``delta`` +1 on index, -1 on deindex)."""
        if bucketed:
            fragments = self._splits[names].fragments
            count = fragments.get(sidx, 0) + delta
            if count:
                fragments[sidx] = count
            else:
                fragments.pop(sidx, None)
        else:
            for name in names:
                refs = self._name_shards.setdefault(name, {})
                refs[sidx] = refs.get(sidx, 0) + delta
                if not refs[sidx]:
                    del refs[sidx]
                    if not refs:
                        del self._name_shards[name]
        count = self._class_fragments.get(names, 0) + delta
        if count:
            self._class_fragments[names] = count
        else:
            self._class_fragments.pop(names, None)
        members = self._class_members.setdefault(names, {})
        count = members.get(sub_id, 0) + delta
        if count:
            members[sub_id] = count
        else:
            members.pop(sub_id, None)
            if not members:
                del self._class_members[names]
        eq = self._class_eq_values.setdefault(names, {})
        for constraint in filt:
            if constraint.op != Op.EQ:
                continue
            per_name = eq.setdefault(constraint.name, {})
            count = per_name.get(constraint.value, 0) + delta
            if count:
                per_name[constraint.value] = count
            else:
                del per_name[constraint.value]
                if not per_name:
                    del eq[constraint.name]
        if not eq:
            self._class_eq_values.pop(names, None)

    # -- rebalancing -------------------------------------------------------

    def split_class(self, names: Iterable[str], bucket_name: str) -> int:
        """Re-route a hot name class live by a secondary value-bucket key.

        Every registered filter of the class is re-registered under the
        new routing (equality-constrained fragments spread to
        :func:`value_bucket` of their ``bucket_name`` operand, the rest
        stay on the static shard), and every *future* registration of the
        class follows the same rule — the split is part of the table's
        knowledge, not a one-shot shuffle.  Returns the number of
        fragments now bucket-routed.  No event is matched differently:
        the projection routes events carrying ``bucket_name`` to the
        bucket shard their value hashes to, which is exactly where the
        only filters that could match them live.
        """
        key = frozenset(names)
        if self.shard_count < 2:
            raise ConfigurationError("cannot split a class on a single shard")
        if not key:
            raise ConfigurationError("cannot split the empty class")
        if bucket_name not in key:
            raise ConfigurationError(
                f"bucket name {bucket_name!r} is not in the class {sorted(key)}")
        if key in self._splits:
            raise ConfigurationError(
                f"class {sorted(key)} is already split")
        affected = [self._subscriptions[sub_id]
                    for sub_id in sorted(self._class_members.get(key, ()))]
        for subscription in affected:
            self._deindex(subscription)
        self._splits[key] = ClassSplit(names=key, bucket_name=bucket_name)
        for subscription in affected:
            self._index(subscription)
        return sum(self._splits[key].fragments.values())

    # -- matching ---------------------------------------------------------

    def _project(self, attributes: Mapping[str, Value]
                 ) -> dict[int, dict[str, Value]]:
        """Per-shard slices of one event: only the names a shard indexes.

        Correct because a shard's filters constrain nothing outside its
        indexed names — attributes it never sees cannot change its
        verdict — and it keeps the per-event cost of consulting N shards
        at one pass over the attributes instead of N.
        """
        name_shards = self._name_shards
        projections: dict[int, dict[str, Value]] = {}
        for name, value in attributes.items():
            shards = name_shards.get(name)
            if not shards:
                continue
            for sidx in shards:
                slice_ = projections.get(sidx)
                if slice_ is None:
                    projections[sidx] = slice_ = {}
                slice_[name] = value
        if self._splits:
            self._project_splits(attributes, projections)
        return projections

    def _project_splits(self, attributes: Mapping[str, Value],
                        projections: dict[int, dict[str, Value]]) -> None:
        """Value-bucket routing of one event for every split class.

        A bucket-routed filter requires an exact EQ match on its class's
        bucket attribute, so the only shard whose fragments could match
        this event is the one its own bucket value hashes to — the event
        is projected there alone, never onto every shard of the split
        class.  Events missing the bucket attribute cannot satisfy any
        bucket-routed fragment and are skipped (fallback fragments reach
        their static shard through ``_name_shards`` as usual).
        """
        for split in self._splits.values():
            if split.bucket_name not in attributes:
                continue
            sidx = value_bucket(attributes[split.bucket_name],
                                self.shard_count)
            if not split.fragments.get(sidx):
                continue
            slice_ = projections.get(sidx)
            if slice_ is None:
                projections[sidx] = slice_ = {}
            for name in split.names:
                if name in attributes:
                    slice_[name] = attributes[name]

    def build_plans(self, batch: Sequence[Mapping[str, Value]]
                    ) -> list[MatchPlan]:
        """The pure half of the match: one plan per occupied shard.

        Projects every event onto the shards that index one of its names
        (split classes route by value bucket), stamps the current
        registration epoch, and charges ``shard_event_counts`` — plan
        construction is where match *work* is assigned, wherever it ends
        up executing.
        """
        epoch = self.epoch
        if self.shard_count == 1:
            # One shard sees everything: skip projection, hand the batch
            # through as-is so shards=1 matches the single bus's cost.
            if not len(self._shards[0]):
                return []
            self.shard_event_counts[0] += len(batch)
            return [MatchPlan(0, epoch, list(range(len(batch))),
                              list(batch))]
        per_shard_events: list[list[int]] = [[] for _ in self._shards]
        per_shard_batch: list[list[Mapping[str, Value]]] = [
            [] for _ in self._shards]
        for index, attributes in enumerate(batch):
            for sidx, projected in self._project(attributes).items():
                per_shard_events[sidx].append(index)
                per_shard_batch[sidx].append(projected)
        plans: list[MatchPlan] = []
        for sidx, shard_batch in enumerate(per_shard_batch):
            self.shard_event_counts[sidx] += len(shard_batch)
            if shard_batch:
                plans.append(MatchPlan(sidx, epoch, per_shard_events[sidx],
                                       shard_batch))
        return plans

    def merge_plan_results(self, batch_len: int, plans: Sequence[MatchPlan],
                           results: Sequence[Sequence[Iterable[int]]]
                           ) -> list[set[int]]:
        """Union executed plan results back into per-event match-id sets.

        The union *is* the disjunction semantics of multi-filter
        subscriptions; match-everything subscriptions (held at the
        composite, never shipped) join every set here on the host.
        """
        merged = [set(self._always_subs) for _ in range(batch_len)]
        for plan, per_event in zip(plans, results):
            for index, ids in zip(plan.indexes, per_event):
                if ids:
                    merged[index].update(ids)
        return merged

    def _match_ids_batch(self, batch: Sequence[Mapping[str, Value]]
                         ) -> list[set[int]]:
        plans = self.build_plans(batch)
        results = self._executor.execute(plans) if plans else []
        return self.merge_plan_results(len(batch), plans, results)


class ShardedEventBus(EventBus):
    """``EventBus(scheduler, ShardedMatcher(shard_count, engine))``, kept
    for the performance ledger (``benchmarks/ledger/rules_bus.py``), which
    reads :attr:`sharded`.  New code builds the bus from the matcher; this
    class goes once the ledger does too (ROADMAP item 1).
    """

    def __init__(self, scheduler: Scheduler, shard_count: int,
                 engine: str = "forwarding") -> None:
        super().__init__(scheduler, ShardedMatcher(shard_count, engine))

    @property
    def sharded(self) -> ShardedMatcher:
        return self.engine  # type: ignore[return-value]
