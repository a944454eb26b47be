"""The fast-forwarding (counting) matcher.

This is the algorithm behind the paper's second-generation, "C-based"
event bus: "Our own matching mechanism is based on the basic Siena fast
forwarding algorithm" (Carzaniga & Wolf, *Forwarding in a Content-Based
Network*, SIGCOMM 2003).

The counting algorithm indexes every constraint of every filter by
attribute name and operator.  Matching an event then proceeds
constraint-first rather than filter-first:

1. for each attribute of the event, look up the constraints that value
   satisfies (equality by hash, ordering by binary search over sorted
   threshold arrays, string shapes by scan, EXISTS for free).  Ordering
   thresholds are bucketed per (operator, kind, *group*) — the filter's
   name class, or "single-constraint filter" — so a bucket's
   bisect-and-slice is already one group's satisfied set, with no
   per-filter step (see :class:`_AttrIndex`).  Ahead of all of it sits
   the name's *alarm-free band*: the open interval between its highest
   "below" threshold and its lowest "above" threshold.  A vital reading
   that trips no alarm lies strictly inside it, satisfies nothing, and
   costs two comparisons — no lookup, no memo entry
   (:meth:`ForwardingMatcher._band`);
2. increment a per-filter counter for each satisfied constraint;
3. a filter whose counter reaches its constraint count is matched, and its
   subscription is selected.

No per-filter evaluation ever touches an attribute the event does not
carry, and — unlike the Siena translation path — the event's attribute map
is matched *natively*, with zero data conversion.  That difference is the
throughput gap of Figure 4.

Registration costs what it changes: a subscribe or unsubscribe touches
the index buckets of its own constraints and drops the memo entries
those constraints can affect (:meth:`ForwardingMatcher._forget`),
nothing else — a cell's members come and go all day, and the table they
leave behind stays indexed and warm.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from collections import Counter
from typing import Mapping, Sequence

from repro.matching.engine import MatchingEngine
from repro.matching.filters import Kind, Op, Subscription, kind_of
from repro.sim.hosts import CostMeter, NullCostMeter
from repro.transport.wire import Value


class _Thresholds:
    """Thresholds of one ordering operator, kind and group, sorted by value.

    Two parallel lists, so bisect runs on plain values and the satisfied
    fids are one slice.
    """

    __slots__ = ("values", "fids")

    def __init__(self) -> None:
        self.values: list[Value] = []
        self.fids: list[int] = []

    def add(self, value: Value, fid: int) -> None:
        at = bisect_right(self.values, value)
        self.values.insert(at, value)
        self.fids.insert(at, fid)

    def remove(self, value: Value, fid: int) -> None:
        # The value's run starts at the bisect point; scan on for the fid.
        at = self.fids.index(fid, bisect_left(self.values, value))
        del self.values[at]
        del self.fids[at]

    def satisfied_by(self, value: Value, op: Op) -> list[int]:
        """Fids of constraints ``attr op threshold`` satisfied by ``value``."""
        bisect, below = _CUTS[op]
        at = bisect(self.values, value)
        return self.fids[:at] if below else self.fids[at:]


#: Ordering operator -> (where ``value`` cuts the sorted thresholds, whether
#: the satisfied ones lie below the cut).  ``value < threshold`` holds for
#: the thresholds above bisect_right, ``<=`` from bisect_left up; ``>``
#: for those below bisect_left, ``>=`` up to bisect_right.
_CUTS = {Op.LT: (bisect_right, False), Op.LE: (bisect_left, False),
         Op.GT: (bisect_left, True), Op.GE: (bisect_right, True)}


class _AttrIndex:
    """All constraints that name one attribute."""

    __slots__ = ("eq", "number_eqs", "ne", "exists", "order", "strings",
                 "band", "held")

    def __init__(self) -> None:
        # (kind, value) -> fids with an equality constraint on that value.
        self.eq: dict[tuple[Kind, Value], list[int]] = {}
        # How many of them are on a number (they void the band).
        self.number_eqs = 0
        # (kind, value, fid) triples for NE constraints.
        self.ne: list[tuple[Kind, Value, int]] = []
        self.exists: list[int] = []
        # (op, kind, group) -> sorted thresholds.  The group is what the
        # matcher would otherwise sort a satisfied fid into, one fid at
        # a time: _SINGLE for a one-constraint filter, the class id for a
        # multi-constraint filter that constrains this name once, _REPEATED
        # for one that constrains it more than once.  A filter outside
        # _REPEATED has exactly one constraint on this name, so the slice
        # a value cuts from a bucket *is* "every constraint on this
        # attribute satisfied" for the whole group.
        self.order: dict[tuple[Op, Kind, int], _Thresholds] = {}
        # (op, operand, fid) for PREFIX/SUFFIX/CONTAINS, scanned linearly.
        self.strings: list[tuple[Op, Value, int]] = []
        # The alarm-free band (ForwardingMatcher._band); None while stale.
        self.band: tuple[Value, Value] | None = None
        # Ids the name's memo partition holds, over all its entries.
        self.held = 0

    def empty(self) -> bool:
        return not (self.eq or self.ne or self.exists or self.order
                    or self.strings)


_ORDER_OPS = frozenset({Op.LT, Op.LE, Op.GT, Op.GE})
#: The ordering operators a value *below* the threshold satisfies.
_BELOW_OPS = frozenset({Op.LT, Op.LE})
#: Ordering-bucket groups that are not a class id (class ids are >= 0).
_SINGLE = -1
_REPEATED = -2
_STRING_OPS = frozenset({Op.PREFIX, Op.SUFFIX, Op.CONTAINS})
#: ``test(value, operand)`` of each operator that is evaluated rather than
#: looked up, for a value already known to be of the operand's kind.
_TESTS = {Op.NE: operator.ne, Op.LT: operator.lt, Op.LE: operator.le,
          Op.GT: operator.gt, Op.GE: operator.ge,
          Op.PREFIX: lambda value, operand: value.startswith(operand),
          Op.SUFFIX: lambda value, operand: value.endswith(operand),
          Op.CONTAINS: lambda value, operand: operand in value}


#: The operators no value satisfies against a NaN operand.
_NAN_NEVER_OPS = _ORDER_OPS | {Op.EQ}


def _never_satisfied(constraint) -> bool:
    """An ordering or EQ constraint against NaN.  Every comparison with it
    is false, so it is left out of the index — its filter can then never
    reach its count.  Indexed, an ordering would sort nowhere and break
    the bisect of every threshold it shared a bucket with, and an EQ would
    match the very NaN object it was built from by dict identity."""
    return (constraint.op in _NAN_NEVER_OPS
            and constraint.value != constraint.value)


def name_class(filt) -> frozenset[str]:
    """The attribute-name class of a filter: the names it constrains.

    A filter can only match an event that carries *every* name in its
    class, so the class is the unit this engine groups multi-constraint
    filters by — and the routing key the sharded bus
    (:mod:`repro.core.sharding`) partitions subscription tables with.
    Single-name and empty filters produce one- and zero-element classes
    through the same function, so they hash consistently everywhere.
    """
    return frozenset(constraint.name for constraint in filt)

#: Caps on one attribute name's partition of the satisfied-value memo: the
#: entries it holds, and the ids those entries hold (matched subscription
#: ids of single-constraint filters plus every class set's fids).  A
#: partition that would exceed either resets alone.  High-cardinality
#: streams (timestamps, float readings) would otherwise grow it for the
#: process lifetime.  The entry cap bounds the invalidation scan: a
#: registration change scans the partitions of the names it constrains.
#: Measured on a full partition: 0.3 ms to scan it, 0.9 ms to scan and
#: drop all of it, 8 ms when each dropped entry names ~500 filters (the
#: time is then their deallocation).  The id budget bounds the memory:
#: readings inside the alarm-free band never reach the memo, so every
#: entry a continuous stream stores is an alarm-tail one, and 4 096 of
#: those over a 10 000-rule table are hundreds of megabytes.
_MEMO_NAME_MAX = 4096
_MEMO_IDS_MAX = 1 << 16

_INF = float("inf")
#: The band of a name whose EXISTS, NE or number-EQ constraints a reading
#: between the ordering thresholds can still satisfy: nothing lies inside.
_NO_BAND = (_INF, -_INF)

#: The exact value classes of each kind.  Only these are memoised, so an
#: EQ constraint's entries are found by key instead of by scan.
_KIND_CLASSES = {Kind.BOOL: (bool,), Kind.NUMBER: (int, float),
                 Kind.STRING: (str,), Kind.BYTES: (bytes,)}
_MEMO_CLASSES = frozenset(
    cls for classes in _KIND_CLASSES.values() for cls in classes)

#: What one attribute value satisfies (:meth:`ForwardingMatcher.
#: _satisfied_entry`): ``(single_subs, ((class id, fids), ...))``.
_Entry = tuple[tuple[int, ...], tuple[tuple[int, frozenset[int]], ...]]
_NOTHING: _Entry = ((), ())


def _ids_held(entry: _Entry) -> int:
    """What ``entry`` costs its partition's id budget (_MEMO_IDS_MAX)."""
    singles, class_sets = entry
    return len(singles) + sum([len(fids) for _, fids in class_sets])


class ForwardingMatcher(MatchingEngine):
    """Counting-algorithm matcher (the "C-based" engine)."""

    name = "forwarding"

    def __init__(self, meter: CostMeter | None = None) -> None:
        super().__init__()
        self._meter = meter if meter is not None else NullCostMeter()
        self._attr_indexes: dict[str, _AttrIndex] = {}
        self._filter_needs: dict[int, int] = {}     # fid -> constraint count
        self._sub_fids: dict[int, list[int]] = {}   # sub id -> fids
        self._always: set[int] = set()              # fids of empty filters
        # Dense fid -> subscription id, for C-speed list indexing.  Fids
        # are slots of the three dense lists; a removed filter's slot is
        # recycled, which is safe because no memo entry outlives a fid it
        # names (see _forget).
        self._sub_list: list[int] = []
        self._free_fids: list[int] = []
        # Multi-constraint filters are grouped into *classes* by the set
        # of attribute names they constrain: a filter matches an event
        # iff, for every name in its class, all its constraints on that
        # name are satisfied — so per class the match set is an
        # intersection of per-attribute satisfied sets.
        self._classes: dict[frozenset[str], int] = {}   # names -> class id
        self._class_width: list[int] = []               # cid -> len(names)
        self._fid_class: list[int] = []                 # fid -> cid (-1: n/a)
        # fid -> {name: constraints on that name}, for the multi filters
        # that constrain some name more than once (None: once each).
        self._fid_name_needs: list[dict[str, int] | None] = []
        # Memo: attr name -> {(value class, value) -> (sub ids of
        # satisfied single-constraint filters, ((class id, fids with every
        # constraint on this attribute satisfied), ...))}.  Event streams
        # repeat attribute values heavily, so one index walk serves many
        # events; entries are immutable, and every value that satisfies
        # nothing shares _NOTHING.  A name has a partition exactly while
        # it has an _AttrIndex; a registration change drops only the
        # entries it can affect.
        self._satisfied_memo: dict[str, dict[tuple, _Entry]] = {}
        self.constraints_indexed = 0
        # Lookups that reached the memo, and the readings that did not
        # have to: those strictly inside their name's alarm-free band.
        self.memo_hits = 0
        self.memo_misses = 0
        self.quiet_readings = 0

    def set_meter(self, meter: CostMeter) -> None:
        self._meter = meter

    @property
    def memo_ids_held(self) -> int:
        """Ids held by the memo, all partitions together."""
        return sum(index.held for index in self._attr_indexes.values())

    # -- registration ----------------------------------------------------

    def _index(self, subscription: Subscription) -> None:
        fids = []
        for filt in subscription.filters:
            if self._free_fids:
                fid = self._free_fids.pop()
            else:
                fid = len(self._sub_list)
                self._sub_list.append(-1)
                self._fid_class.append(-1)
                self._fid_name_needs.append(None)
            fids.append(fid)
            self._sub_list[fid] = subscription.sub_id
            self._filter_needs[fid] = len(filt)
            if len(filt) > 1:
                key = name_class(filt)
                cid = self._classes.get(key)
                if cid is None:
                    cid = len(self._class_width)
                    self._classes[key] = cid
                    self._class_width.append(len(key))
                self._fid_class[fid] = cid
                if len(key) < len(filt):
                    self._fid_name_needs[fid] = dict(
                        Counter(c.name for c in filt))
            elif not filt:
                self._always.add(fid)
            for constraint in filt:
                self.constraints_indexed += 1
                if not _never_satisfied(constraint):
                    self._index_constraint(constraint, fid)
                    self._forget(constraint)
        self._sub_fids[subscription.sub_id] = fids

    def _index_constraint(self, constraint, fid: int) -> None:
        index = self._attr_indexes.get(constraint.name)
        if index is None:
            index = self._attr_indexes[constraint.name] = _AttrIndex()
            self._satisfied_memo[constraint.name] = {}
        op = constraint.op
        if op == Op.EXISTS:
            index.exists.append(fid)
        elif op == Op.EQ:
            key = (constraint.kind, constraint.value)
            index.eq.setdefault(key, []).append(fid)
            index.number_eqs += constraint.kind is Kind.NUMBER
        elif op == Op.NE:
            index.ne.append((constraint.kind, constraint.value, fid))
        elif op in _ORDER_OPS:
            key = (op, constraint.kind, self._order_group(fid, constraint.name))
            thresholds = index.order.get(key)
            if thresholds is None:
                thresholds = index.order[key] = _Thresholds()
            thresholds.add(constraint.value, fid)
        elif op in _STRING_OPS:
            index.strings.append((op, constraint.value, fid))
        else:                                    # pragma: no cover
            raise AssertionError(op)

    def _order_group(self, fid: int, name: str) -> int:
        """The ordering-bucket group of ``fid``'s constraints on ``name``
        (see :class:`_AttrIndex`); read from the fid's slots, so only
        while the filter is registered."""
        if self._filter_needs[fid] == 1:
            return _SINGLE
        repeated = self._fid_name_needs[fid]
        if repeated is not None and repeated[name] > 1:
            return _REPEATED
        return self._fid_class[fid]

    def _deindex(self, subscription: Subscription) -> None:
        fids = self._sub_fids.pop(subscription.sub_id)
        for filt, fid in zip(subscription.filters, fids):
            # Constraints first: an ordering constraint's bucket is found
            # through the fid's slots.
            for constraint in filt:
                if not _never_satisfied(constraint):
                    self._deindex_constraint(constraint, fid)
            del self._filter_needs[fid]
            self._sub_list[fid] = -1
            self._fid_class[fid] = -1
            self._fid_name_needs[fid] = None
            self._always.discard(fid)
            self._free_fids.append(fid)
        if not self._sub_fids:
            # Nothing registered, so nothing memoised: give the slots and
            # class ids back, or a table that once was large stays large.
            for table in (self._sub_list, self._fid_class, self._free_fids,
                          self._fid_name_needs, self._classes,
                          self._class_width):
                table.clear()

    def _deindex_constraint(self, constraint, fid: int) -> None:
        """Remove one constraint from the one bucket it was indexed in."""
        name = constraint.name
        index = self._attr_indexes[name]
        op = constraint.op
        if op == Op.EXISTS:
            index.exists.remove(fid)
        elif op == Op.EQ:
            key = (constraint.kind, constraint.value)
            bucket = index.eq[key]
            bucket.remove(fid)
            if not bucket:
                del index.eq[key]
            index.number_eqs -= constraint.kind is Kind.NUMBER
        elif op == Op.NE:
            index.ne.remove((constraint.kind, constraint.value, fid))
        elif op in _ORDER_OPS:
            key = (op, constraint.kind, self._order_group(fid, name))
            thresholds = index.order[key]
            thresholds.remove(constraint.value, fid)
            if not thresholds.fids:
                del index.order[key]
        else:
            index.strings.remove((op, constraint.value, fid))
        if index.empty():
            del self._attr_indexes[name]
            del self._satisfied_memo[name]
        else:
            self._forget(constraint)

    def _forget(self, constraint) -> None:
        """Drop what adding or removing ``constraint`` can change: its
        name's band, and the memo entries of that name whose value
        satisfies it.

        An entry names a filter only if its value satisfies every
        constraint the filter puts on that name, so this is a superset of
        the entries naming the filter — none survives to see its fid
        recycled — and no entry of another name is touched.
        """
        index = self._attr_indexes[constraint.name]
        index.band = None
        partition = self._satisfied_memo[constraint.name]
        if not partition:
            return
        op, operand = constraint.op, constraint.value
        if op == Op.EXISTS:
            partition.clear()
            index.held = 0
        elif op == Op.EQ:
            for cls in _KIND_CLASSES[constraint.kind]:
                index.held -= _ids_held(
                    partition.pop((cls, operand), _NOTHING))
        else:
            classes, test = _KIND_CLASSES[constraint.kind], _TESTS[op]
            for key in [key for key in partition
                        if key[0] in classes and test(key[1], operand)]:
                index.held -= _ids_held(partition.pop(key))

    def _band(self, index: _AttrIndex) -> tuple[Value, Value]:
        """Recompute ``index``'s alarm-free band from its buckets' ends.

        An exact ``int`` or ``float`` strictly inside ``(highest LT/LE
        threshold, lowest GT/GE threshold)`` satisfies no ordering
        constraint on a number, and a number satisfies no constraint on
        another kind; EXISTS, NE and EQ on a number are the ones it
        still can, so a name that carries any has no band.  NaN lies
        inside nothing, and an empty interval (a range filter's) holds
        nothing.  One step per bucket, on the first match after a
        registration change on the name.
        """
        if index.exists or index.ne or index.number_eqs:
            band = _NO_BAND
        else:
            low, high = -_INF, _INF
            for (op, kind, _), thresholds in index.order.items():
                if kind is not Kind.NUMBER:
                    continue
                if op in _BELOW_OPS:
                    low = max(low, thresholds.values[-1])
                else:
                    high = min(high, thresholds.values[0])
            band = (low, high)
        index.band = band
        return band

    # -- matching ------------------------------------------------------------

    def _match_ids_batch(self, batch: Sequence[Mapping[str, Value]]
                         ) -> list[set[int]]:
        """The counting algorithm, one invocation per stream of events.

        For each distinct ``(name, value)`` the stream carries, the
        constraints that value satisfies are resolved once
        (:meth:`_satisfied_entry`) and memoized: single-constraint filters
        directly as matched subscription ids, multi-constraint filters as
        per-class sets of fully-satisfied-on-this-attribute fids.  Each
        event then reduces to set unions and per-class set intersections —
        all C-speed — instead of a per-constraint Python counting loop.

        An exact ``int`` or ``float`` strictly inside its name's
        alarm-free band (:meth:`_band`) satisfies nothing and is skipped
        before any of that; a value on the band's edge, NaN, ``bool``,
        a subclass's or another kind's takes the lookup.
        """
        indexes = self._attr_indexes
        memo = self._satisfied_memo
        sub_list = self._sub_list
        class_width = self._class_width
        always = self._always
        always_subs = [sub_list[fid] for fid in always] if always else ()
        results: list[set[int]] = []
        hits = misses = quiet = 0

        for attributes in batch:
            matched = set(always_subs)
            gathered: dict[int, list[frozenset[int]]] = {}
            for name, value in attributes.items():
                index = indexes.get(name)
                if index is None:
                    continue            # no constraint names this attribute
                cls = value.__class__
                if cls is float or cls is int:
                    band = index.band
                    if band is None:
                        band = self._band(index)
                    if band[0] < value < band[1]:
                        quiet += 1
                        continue
                key = (cls, value)
                partition = memo[name]
                entry = partition.get(key)
                if entry is None:
                    misses += 1
                    entry = self._satisfied_entry(name, value)
                    if cls in _MEMO_CLASSES:
                        weight = _ids_held(entry)
                        if index.held + weight > _MEMO_IDS_MAX \
                                or len(partition) >= _MEMO_NAME_MAX:
                            partition.clear()
                            index.held = 0
                        partition[key] = entry
                        index.held += weight
                else:
                    hits += 1
                singles, class_sets = entry
                matched.update(singles)
                for cid, fidset in class_sets:
                    sets = gathered.get(cid)
                    if sets is None:
                        gathered[cid] = [fidset]
                    else:
                        sets.append(fidset)
            for cid, sets in gathered.items():
                # A class filter matches iff every one of its names
                # contributed a satisfied set (the event carried them all)
                # and the filter survives their intersection.
                if len(sets) != class_width[cid]:
                    continue
                if len(sets) > 1:
                    sets.sort(key=len)
                    survivors = sets[0]
                    for other in sets[1:]:
                        survivors = survivors & other
                        if not survivors:
                            break
                else:
                    survivors = sets[0]
                for fid in survivors:
                    matched.add(sub_list[fid])
            results.append(matched)
        self.memo_hits += hits
        self.memo_misses += misses
        self.quiet_readings += quiet
        # match_base_s models the *fixed cost of invoking the engine* (the
        # allocation-heavy JVM path of the paper's testbed); one batch
        # invocation pays it once, which is the batch pipeline's whole
        # point under simulation.
        self._meter.charge_match()
        return results

    def _satisfied_entry(self, name: str, value: Value) -> _Entry:
        """Precompute what one attribute value satisfies.

        Returns ``(single_subs, class_sets)``: subscription ids whose
        single-constraint filters this value satisfies outright, and — per
        multi-constraint class — the fids whose every constraint *on this
        attribute* is satisfied by the value.

        This is the whole cost of a value the memo has not seen, and a
        continuous reading is always one.  Ordering buckets come out
        grouped (one bisect, one slice, one C-level conversion each);
        only the other operators' hits and the ``_REPEATED`` buckets'
        are counted fid by fid.
        """
        index = self._attr_indexes[name]
        kind = kind_of(value)
        counted: list[int] = list(index.exists)
        eq_fids = index.eq.get((kind, value))
        if eq_fids:
            counted.extend(eq_fids)
        for ne_kind, operand, fid in index.ne:
            if ne_kind == kind and value != operand:
                counted.append(fid)
        if index.strings and kind in (Kind.STRING, Kind.BYTES):
            for op, operand, fid in index.strings:
                if type(operand) is type(value) and _TESTS[op](value, operand):
                    counted.append(fid)

        singles: tuple[int, ...] = ()
        class_fids: dict[int, set[int]] = {}
        # A NaN reading is below and above no threshold, and would bisect
        # to wherever the comparisons it fails happen to leave it.
        ordered_kind = kind if value == value else None
        for (op, bucket_kind, group), thresholds in index.order.items():
            if bucket_kind is not ordered_kind:
                continue
            fids = thresholds.satisfied_by(value, op)
            if not fids:
                continue
            if group == _SINGLE:
                singles += tuple(map(self._sub_list.__getitem__, fids))
            elif group == _REPEATED:
                counted.extend(fids)
            else:       # a class's GT and LT buckets can both hit: union
                class_fids.setdefault(group, set()).update(fids)

        if counted:
            needs = self._filter_needs
            fid_class = self._fid_class
            name_needs = self._fid_name_needs
            singles += tuple(self._sub_list[fid] for fid in counted
                             if needs[fid] == 1)
            for fid, satisfied in Counter(counted).items():
                if needs[fid] == 1:
                    continue
                # All of this filter's constraints on this attribute
                # satisfied?
                repeated = name_needs[fid]
                if satisfied == (1 if repeated is None else repeated[name]):
                    class_fids.setdefault(fid_class[fid], set()).add(fid)
        if not (singles or class_fids):
            return _NOTHING
        # frozenset(set) copies into a table sized for its length; built
        # straight from a slice it keeps the 4x growth steps' slack, which
        # across a memo of large alarm-tail entries is tens of megabytes.
        return singles, tuple((cid, frozenset(fids))
                              for cid, fids in class_fids.items())
