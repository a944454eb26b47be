"""Siena reproduction: poset matcher plus translation-costed backend.

Two classes reproduce the paper's first-generation event bus:

:class:`SienaMatcher`
    A from-scratch matcher with Siena's semantics.  Subscription filters
    are organised into a partial order under the covering relation; at
    match time the engine walks the poset from its roots and *skips the
    entire subtree under any filter that fails to match* (if a covering
    filter rejects an event, everything it covers must reject it too).
    This is Siena's core structural optimisation.

:class:`SienaTranslationBackend`
    The paper used Siena "with an appropriate interface to allow
    translation of Siena subscription/notification types to or from our
    own", and later measured that the Siena-based bus lost throughput to
    "data translations ... including translation to or from our own data
    types".  This backend reproduces that architecture faithfully: every
    subscription and every published event is converted to internal
    Siena-style objects (:class:`SienaNotification`, string-tagged
    :class:`SienaAttributeValue`) before matching and converted back after,
    and the byte volume of each conversion is reported to a
    :class:`~repro.sim.hosts.CostMeter`.  Under simulation this makes the
    Siena bus pay translation time exactly where the real one did; under
    wall-clock benchmarks the conversions themselves are the cost.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.matching.covering import filter_covers
from repro.matching.engine import AttributeNameIndex, MatchingEngine
from repro.matching.filters import Constraint, Filter, Op, Subscription
from repro.sim.hosts import CostMeter, NullCostMeter
from repro.transport.wire import Value


class _PosetNode:
    """One distinct filter in the subscription poset."""

    __slots__ = ("filter", "parents", "children", "sub_ids")

    def __init__(self, filt: Filter) -> None:
        self.filter = filt
        self.parents: set[int] = set()     # node ids of direct coverers
        self.children: set[int] = set()    # node ids of directly covered
        self.sub_ids: set[int] = set()     # subscriptions carrying this filter


class SienaMatcher(MatchingEngine):
    """Covering-poset matcher with Siena filter semantics."""

    name = "siena-bare"

    def __init__(self) -> None:
        super().__init__()
        self._nodes: dict[int, _PosetNode] = {}
        self._node_by_filter: dict[Filter, int] = {}
        self._roots: set[int] = set()
        # Counting pre-index: a filter naming an attribute the event does
        # not carry cannot match, so its node (and, by covering, its whole
        # subtree) is skipped without evaluating a single constraint.
        self._name_index = AttributeNameIndex()
        self._next_node_id = 0
        self.nodes_visited = 0
        self.subtrees_skipped = 0
        self.name_prefilter_skips = 0

    # -- poset maintenance ----------------------------------------------

    def _index(self, subscription: Subscription) -> None:
        for filt in subscription.filters:
            node_id = self._node_by_filter.get(filt)
            if node_id is None:
                node_id = self._insert_filter(filt)
            self._nodes[node_id].sub_ids.add(subscription.sub_id)

    def _deindex(self, subscription: Subscription) -> None:
        for filt in subscription.filters:
            node_id = self._node_by_filter.get(filt)
            if node_id is None:
                continue
            node = self._nodes[node_id]
            node.sub_ids.discard(subscription.sub_id)
            if not node.sub_ids:
                self._remove_node(node_id)

    def _insert_filter(self, filt: Filter) -> int:
        node_id = self._next_node_id
        self._next_node_id += 1
        node = _PosetNode(filt)
        self._nodes[node_id] = node
        self._node_by_filter[filt] = node_id
        self._name_index.add(node_id, filt.names())

        # Find direct parents (tightest coverers) and children (covered).
        for other_id, other in self._nodes.items():
            if other_id == node_id:
                continue
            if filter_covers(other.filter, filt):
                node.parents.add(other_id)
            elif filter_covers(filt, other.filter):
                node.children.add(other_id)

        # Reduce to *direct* parents: drop any parent that covers another
        # parent (keep the most specific coverers).
        direct_parents = set(node.parents)
        for p in node.parents:
            for q in node.parents:
                if p != q and filter_covers(self._nodes[p].filter,
                                            self._nodes[q].filter):
                    direct_parents.discard(p)
        node.parents = direct_parents

        # Likewise keep only direct children and splice edges.
        direct_children = set(node.children)
        for c in node.children:
            for d in node.children:
                if c != d and filter_covers(self._nodes[d].filter,
                                            self._nodes[c].filter):
                    direct_children.discard(c)
        node.children = direct_children

        for parent_id in node.parents:
            parent = self._nodes[parent_id]
            # The new node may interpose between parent and some children.
            for child_id in node.children:
                if child_id in parent.children:
                    parent.children.discard(child_id)
                    self._nodes[child_id].parents.discard(parent_id)
            parent.children.add(node_id)
        for child_id in node.children:
            child = self._nodes[child_id]
            child.parents.add(node_id)
            self._roots.discard(child_id)

        if not node.parents:
            self._roots.add(node_id)
        return node_id

    def _remove_node(self, node_id: int) -> None:
        node = self._nodes.pop(node_id)
        del self._node_by_filter[node.filter]
        self._roots.discard(node_id)
        self._name_index.remove(node_id)
        for parent_id in node.parents:
            self._nodes[parent_id].children.discard(node_id)
        for child_id in node.children:
            child = self._nodes[child_id]
            child.parents.discard(node_id)
            # Re-attach orphaned children to the removed node's parents
            # where covering still holds.
            for parent_id in node.parents:
                if filter_covers(self._nodes[parent_id].filter, child.filter):
                    child.parents.add(parent_id)
                    self._nodes[parent_id].children.add(child_id)
            if not child.parents:
                self._roots.add(child_id)

    # -- matching ------------------------------------------------------------

    def _match_ids_batch(self, batch: Sequence[Mapping[str, Value]]
                         ) -> list[set[int]]:
        results: list[set[int]] = []
        for attributes in batch:
            matched: set[int] = set()
            visited: set[int] = set()
            candidates = self._name_index.candidates(attributes.keys())
            stack = sorted(self._roots)
            while stack:
                node_id = stack.pop()
                if node_id in visited:
                    continue
                visited.add(node_id)
                node = self._nodes[node_id]
                self.nodes_visited += 1
                if node_id not in candidates:
                    # Pre-index: the filter names an attribute the event
                    # lacks, so it (and by covering, its subtree) cannot
                    # match.
                    self.name_prefilter_skips += 1
                    self.subtrees_skipped += 1
                    continue
                if node.filter.matches(attributes):
                    matched.update(node.sub_ids)
                    stack.extend(node.children)
                else:
                    # Covering guarantee: nothing below this node can match.
                    self.subtrees_skipped += 1
            results.append(matched)
        return results

    def poset_depth(self) -> int:
        """Longest root-to-leaf chain (diagnostic for tests/benchmarks)."""
        depth = 0
        stack = [(node_id, 1) for node_id in self._roots]
        while stack:
            node_id, d = stack.pop()
            depth = max(depth, d)
            stack.extend((c, d + 1) for c in self._nodes[node_id].children)
        return depth


# -- the translation layer ----------------------------------------------------

#: Siena's AttributeValue carried an explicit type tag; reproducing the
#: object shape (tag string + boxed value) is what makes translation cost
#: real work rather than a stopwatch fudge.
_SIENA_TYPE_NAMES = {bool: "bool", int: "long", float: "double",
                     str: "string", bytes: "bytearray"}

_SIENA_OP_NAMES = {Op.EQ: "EQ", Op.NE: "NE", Op.LT: "LT", Op.LE: "LE",
                   Op.GT: "GT", Op.GE: "GE", Op.PREFIX: "PF",
                   Op.SUFFIX: "SF", Op.CONTAINS: "SS", Op.EXISTS: "ANY"}
_SIENA_OP_REVERSE = {v: k for k, v in _SIENA_OP_NAMES.items()}


class SienaAttributeValue:
    """Boxed, type-tagged value in the style of Siena's AttributeValue."""

    __slots__ = ("type_name", "raw")

    def __init__(self, value: Value) -> None:
        self.type_name = _SIENA_TYPE_NAMES[type(value)]
        self.raw = value

    def unbox(self) -> Value:
        return self.raw

    def wire_size(self) -> int:
        raw = self.raw
        if isinstance(raw, (str, bytes)):
            return len(raw) + len(self.type_name) + 2
        return 8 + len(self.type_name) + 2


class SienaNotification:
    """String-keyed map of boxed values, Siena's notification shape."""

    __slots__ = ("attributes",)

    def __init__(self, attributes: dict[str, SienaAttributeValue]) -> None:
        self.attributes = attributes

    @classmethod
    def from_attr_map(cls, attributes: Mapping[str, Value]) -> "SienaNotification":
        return cls({name: SienaAttributeValue(value)
                    for name, value in attributes.items()})

    def to_attr_map(self) -> dict[str, Value]:
        return {name: boxed.unbox() for name, boxed in self.attributes.items()}

    def wire_size(self) -> int:
        return sum(len(name) + boxed.wire_size()
                   for name, boxed in self.attributes.items())


class SienaAttributeConstraint:
    """Siena's constraint shape: name, operator mnemonic, boxed operand."""

    __slots__ = ("name", "op_name", "boxed")

    def __init__(self, constraint: Constraint) -> None:
        self.name = constraint.name
        self.op_name = _SIENA_OP_NAMES[constraint.op]
        self.boxed = (None if constraint.op == Op.EXISTS
                      else SienaAttributeValue(constraint.value))

    def to_constraint(self) -> Constraint:
        op = _SIENA_OP_REVERSE[self.op_name]
        if op == Op.EXISTS:
            return Constraint(self.name, op)
        return Constraint(self.name, op, self.boxed.unbox())

    def wire_size(self) -> int:
        size = len(self.name) + len(self.op_name)
        if self.boxed is not None:
            size += self.boxed.wire_size()
        return size


class SienaTranslationBackend(MatchingEngine):
    """The paper's Siena-based bus: real matcher behind a real translation.

    Wraps an inner :class:`SienaMatcher`; every call crosses the type
    boundary in both directions and reports the copied byte volume to the
    cost meter.
    """

    name = "siena"

    def __init__(self, inner: SienaMatcher | None = None,
                 meter: CostMeter | None = None) -> None:
        super().__init__()
        self._inner = inner if inner is not None else SienaMatcher()
        self._meter = meter if meter is not None else NullCostMeter()
        self.bytes_translated = 0

    def set_meter(self, meter: CostMeter) -> None:
        self._meter = meter

    # -- registration (translate filters in, then index) -----------------

    def _index(self, subscription: Subscription) -> None:
        translated_filters = []
        for filt in subscription.filters:
            siena_constraints = [SienaAttributeConstraint(c) for c in filt]
            self._charge(sum(c.wire_size() for c in siena_constraints))
            # Translate back into the engine's native filter type, as the
            # prototype's interface layer did before handing to Siena.
            translated_filters.append(
                Filter([sc.to_constraint() for sc in siena_constraints]))
        self._inner.subscribe(Subscription(
            subscription.sub_id, subscription.subscriber, translated_filters))

    def _deindex(self, subscription: Subscription) -> None:
        self._inner.unsubscribe(subscription.sub_id)

    # -- matching (translate the event both ways) -------------------------

    def _match_ids_batch(self, batch: Sequence[Mapping[str, Value]]
                         ) -> list[set[int]]:
        # Three passes over each notification, as in the prototype: our
        # format -> Siena objects, Siena's own internal copy while
        # matching, and Siena objects -> our format for delivery.  Siena
        # took one notification per call, so every event pays the
        # invocation cost as well.
        translated = []
        for attributes in batch:
            notification = SienaNotification.from_attr_map(attributes)
            self._charge(notification.wire_size())
            internal = SienaNotification(dict(notification.attributes))
            self._charge(internal.wire_size())
            translated.append(internal.to_attr_map())
            self._charge(notification.wire_size())
            self._meter.charge_match()
        return self._inner._match_ids_batch(translated)

    def _charge(self, nbytes: int) -> None:
        self.bytes_translated += nbytes
        self._meter.charge_copy(nbytes)

    @property
    def inner(self) -> SienaMatcher:
        return self._inner
