"""The swappable matching-engine interface.

The paper wraps its publish/subscribe mechanism in an "EventBus" interface
so the mechanism can be replaced — Siena first, then a dedicated C matcher —
without touching the semantics layered above it.  ``MatchingEngine`` is that
seam: the bus core only ever calls ``subscribe`` / ``unsubscribe`` /
``match_batch_ids``, and every engine (poset-based Siena reproduction,
counting-based forwarding engine, brute-force oracle) plugs in behind it by
implementing one matching hook, :meth:`MatchingEngine._match_ids_batch`; a
single event is a batch of one.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Iterator, Mapping, Sequence

from repro.errors import ConfigurationError, MatchingError, SubscriptionNotFoundError
from repro.matching.filters import Subscription
from repro.transport.wire import Value


class AttributeNameIndex:
    """Counting pre-index over constraint *names*.

    Register each candidate (a filter, a poset node, ...) under the set of
    attribute names its constraints require.  At match time,
    :meth:`candidates` counts, per candidate, how many of its required
    names the event carries — exactly the fast-forwarding counting step,
    applied to names instead of full constraints.  Only candidates whose
    every required name is present can possibly match, so engines skip
    evaluating everything else.
    """

    __slots__ = ("_by_name", "_names_of", "_unconstrained")

    def __init__(self) -> None:
        self._by_name: dict[str, set[int]] = {}      # name -> candidate keys
        self._names_of: dict[int, frozenset[str]] = {}
        self._unconstrained: set[int] = set()        # keys needing no names

    def add(self, key: int, names: Iterable[str]) -> None:
        distinct = frozenset(names)
        if not distinct:
            self._unconstrained.add(key)
            return
        self._names_of[key] = distinct
        for name in distinct:
            self._by_name.setdefault(name, set()).add(key)

    def remove(self, key: int) -> None:
        self._unconstrained.discard(key)
        for name in self._names_of.pop(key, ()):
            keyed = self._by_name[name]
            keyed.discard(key)
            if not keyed:
                del self._by_name[name]

    def candidates(self, attr_names: Iterable[str]) -> set[int]:
        """Keys whose every required name appears in ``attr_names``."""
        counts: dict[int, int] = {}
        names_of = self._names_of
        out = set(self._unconstrained)
        for name in attr_names:
            for key in self._by_name.get(name, ()):
                count = counts.get(key, 0) + 1
                counts[key] = count
                if count == len(names_of[key]):
                    out.add(key)
        return out


class MatchingEngine(ABC):
    """Matches event attribute maps against registered subscriptions."""

    #: Short engine name used in configuration and benchmark labels.
    name: str = "abstract"

    def __init__(self) -> None:
        self._subscriptions: dict[int, Subscription] = {}
        self.events_matched = 0

    # -- registration ----------------------------------------------------

    def subscribe(self, subscription: Subscription) -> None:
        """Register ``subscription``; its id must be unused."""
        if subscription.sub_id in self._subscriptions:
            raise MatchingError(
                f"subscription id {subscription.sub_id} already registered")
        self._subscriptions[subscription.sub_id] = subscription
        self._index(subscription)

    def unsubscribe(self, sub_id: int) -> Subscription:
        """Remove and return the subscription registered under ``sub_id``."""
        try:
            subscription = self._subscriptions.pop(sub_id)
        except KeyError:
            raise SubscriptionNotFoundError(
                f"no subscription with id {sub_id}") from None
        self._deindex(subscription)
        return subscription

    def subscriptions(self) -> list[Subscription]:
        """All registered subscriptions, in id order."""
        return [self._subscriptions[k] for k in sorted(self._subscriptions)]

    def __iter__(self) -> Iterator[Subscription]:
        """All registered subscriptions, in no particular order."""
        return iter(self._subscriptions.values())

    def get(self, sub_id: int) -> Subscription | None:
        return self._subscriptions.get(sub_id)

    def __len__(self) -> int:
        return len(self._subscriptions)

    # -- matching ------------------------------------------------------------

    # Three views of the one hook, :meth:`_match_ids_batch`.  Ordering is
    # deterministic (subscription-id order): the bus forwards to proxies in
    # it, and tests/benchmarks rely on run-to-run stability.

    def match(self, attributes: Mapping[str, Value]) -> list[Subscription]:
        """Subscriptions matching one event, in subscription-id order."""
        return self.match_batch((attributes,))[0]

    def match_batch(self, batch: Sequence[Mapping[str, Value]]
                    ) -> list[list[Subscription]]:
        """One :meth:`match` result list per event of ``batch``."""
        subscriptions = self._subscriptions
        return [[subscriptions[sub_id] for sub_id in matched]
                for matched in self.match_batch_ids(batch)]

    def match_batch_ids(self, batch: Sequence[Mapping[str, Value]]
                        ) -> list[list[int]]:
        """Sorted subscription-id lists per event — the id-level API.

        The bus's dispatch phase routes on subscription ids alone, so this
        is the entry point the bus publishes through: it skips
        materialising :class:`Subscription` objects, and a sharded engine
        (:mod:`repro.core.sharding`) merges its per-shard id sets here
        before any dispatch state is touched.
        """
        self.events_matched += len(batch)
        return [sorted(matched) for matched in self._match_ids_batch(batch)]

    # -- engine hooks ---------------------------------------------------

    @abstractmethod
    def _index(self, subscription: Subscription) -> None:
        """Add ``subscription`` to the engine's internal structures."""

    @abstractmethod
    def _deindex(self, subscription: Subscription) -> None:
        """Remove ``subscription`` from the engine's internal structures."""

    @abstractmethod
    def _match_ids_batch(self, batch: Sequence[Mapping[str, Value]]
                         ) -> list[set[int]]:
        """Ids of the subscriptions matching each event of ``batch``.

        The only place an engine matches: repeated attribute values, index
        lookups and the per-invocation cost are amortised across however
        many events the caller had, one included.
        """


class BruteForceMatcher(MatchingEngine):
    """Reference engine: evaluate every subscription directly.

    Exists as the oracle for property-based equivalence tests; also a fine
    choice for very small subscription sets.
    """

    name = "brute"

    def _index(self, subscription: Subscription) -> None:
        pass

    def _deindex(self, subscription: Subscription) -> None:
        pass

    def _match_ids_batch(self, batch: Sequence[Mapping[str, Value]]
                         ) -> list[set[int]]:
        subscriptions = self._subscriptions.values()
        return [{sub.sub_id for sub in subscriptions
                 if sub.matches(attributes)} for attributes in batch]


def make_engine(name: str, **kwargs) -> MatchingEngine:
    """Build a matching engine by name.

    Recognised names: ``"siena"`` (translation-costed Siena reproduction,
    the paper's first-generation bus), ``"forwarding"`` (counting algorithm,
    the paper's second-generation "C-based" bus) and ``"brute"`` (reference
    oracle).
    """
    # Imported here to avoid a cycle: engines subclass MatchingEngine.
    from repro.matching.forwarding import ForwardingMatcher
    from repro.matching.siena import SienaMatcher, SienaTranslationBackend

    if name == "siena":
        return SienaTranslationBackend(SienaMatcher(), **kwargs)
    if name == "siena-bare":
        if kwargs:
            raise ConfigurationError("siena-bare accepts no options")
        return SienaMatcher()
    if name == "forwarding":
        return ForwardingMatcher(**kwargs)
    if name == "brute":
        if kwargs:
            raise ConfigurationError("brute accepts no options")
        return BruteForceMatcher()
    raise ConfigurationError(f"unknown matching engine: {name!r}")
