"""The event bus.

"The event bus is required to forward events from services in an SMC onto
any interested parties within the SMC which have subscribed to receive the
event" (Section II-C).  This class is the semantics layer the paper builds
*around* its pub/sub mechanism:

* **matching** is delegated to a pluggable
  :class:`~repro.matching.engine.MatchingEngine` (Siena-based or
  forwarding-based, exactly the two generations the paper built);
* **exactly-once-while-member**: per-sender sequence-number watermarks
  drop duplicates; watermarks are erased when a member is purged, so a
  re-admitted device starts a fresh delivery session;
* **per-sender FIFO**: publications arrive in order per sender (the
  reliable channel guarantees it), are matched in arrival order, and are
  dispatched through per-subscriber FIFO paths (a proxy's outbound channel,
  or, for local subscribers, one scheduler turn per publish that walks
  every matched callback's events in order — never inline in the publish
  call, see :meth:`EventBus._deliver_local`);
* **one publish path**: :meth:`EventBus.publish` is
  :meth:`EventBus.publish_batch` at length one — both are names for the
  same dedup → match → dispatch body, so a single reading takes the
  engine, the plan executor and the proxy flush a batch takes;
* **a receive turn is one publish**: what members send is not published
  datagram by datagram.  Proxies hand it to the *turn queue*
  (:meth:`EventBus.publish_at_turn_end`), and when the transport's
  receive turn ends — one socket drain, or one scheduler instant — the
  queue goes through :meth:`EventBus.publish_batch` as one batch: one
  match call, one dispatch, one payload per subscriber for the whole
  drain.  No timer and no threshold: a turn of one event is a publish of
  one in the instant it arrived, and under load the batch grows by
  itself.  Order is what it would be datagram by datagram, because every
  entry that reads or writes the subscription table, or publishes
  directly, flushes the queue first;
* **per-component delivery**: a subscriber with several overlapping
  subscriptions still receives each event once ("all events are delivered
  to each interested component exactly once");
* **membership coupling**: proxies register per member; purging a member
  tears down its subscriptions, its proxy and its queued events.

Services co-located with the bus (the policy and discovery services) use
the local API (:meth:`subscribe_local` / :class:`LocalPublisher`); remote
services reach the same code path through their proxies.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from repro.errors import (
    BusError,
    DuplicateMemberError,
    NotAMemberError,
    SubscriptionNotFoundError,
)
from repro.ids import ServiceId, service_id_from_name
from repro.matching.engine import MatchingEngine
from repro.matching.filters import Filter, Subscription
from repro.matching.forwarding import ForwardingMatcher
from repro.sim.hosts import CostMeter, NullCostMeter
from repro.sim.kernel import Scheduler
from repro.transport.wire import Value

from repro.core import protocol
from repro.core.events import Event

if TYPE_CHECKING:                                    # pragma: no cover
    from repro.core.proxy import Proxy
    from repro.core.quench import QuenchController
    from repro.transport.base import Transport

LocalCallback = Callable[[Event], None]
#: One local subscriber's share of one publish: the callback captured at
#: dispatch time and the events matched for it, in publication order.
LocalSlice = tuple[LocalCallback, list[Event]]


class DeliverMemo:
    """Encode-once cache for one dispatch fan-out.

    Dispatch TLV-encodes each matched event exactly once and shares the
    framed DELIVER payload with every interested service-style proxy —
    at 50 subscribers the old per-proxy ``encode_outbound`` ran the full
    TLV encode 50 times for identical bytes.  The same goes one level up
    for a slice of several events: subscribers whose slices hold the same
    events share the chunked BATCH payloads, one join instead of one per
    subscriber.  Keyed by event identity: the memo lives only for one
    dispatch, during which every event in the batch is strongly
    referenced.

    "Encodes" means TLV work only for an event built at the core (a
    ``LocalPublisher``'s, a translated reading, a management event): a
    member-published event carries the bytes it was decoded from, so its
    frame here is the opcode joined to those bytes — the core forwards
    what it validated — and what the memo saves is that join per proxy.
    """

    __slots__ = ("_frames", "_payloads")

    def __init__(self) -> None:
        self._frames: dict[int, bytes] = {}
        self._payloads: dict[tuple[int, ...], list[bytes]] = {}

    def deliver_frame(self, event: Event) -> bytes:
        """The shared DELIVER framing of ``event``, encoded on first use."""
        framed = self._frames.get(id(event))
        if framed is None:
            framed = protocol.deliver_frame(event)
            self._frames[id(event)] = framed
        return framed

    def payloads(self, events: Sequence[Event], limit: int) -> list[bytes]:
        """The reliable payloads carrying ``events`` under a flush cap of
        ``limit`` bytes, chunked on first use."""
        key = (limit, *map(id, events))
        payloads = self._payloads.get(key)
        if payloads is None:
            payloads = self._payloads[key] = protocol.chunk_frames(
                [self.deliver_frame(event) for event in events], limit)
        return payloads


@dataclass
class BusStats:
    """Counters the bus maintains (benchmarks and tests read these).

    Every publication *attempt* presented to the bus service increments
    ``published`` and exactly one of ``matched``, ``unmatched``,
    ``duplicates_dropped`` or ``from_unknown_member`` — so

        ``published == matched + unmatched + duplicates_dropped
        + from_unknown_member``

    is an invariant the soak tests assert after thousands of events.
    Member publications are counted when their receive turn ends (see
    :meth:`EventBus.publish_at_turn_end`): ``turn_events / turns`` is the
    mean number of events one turn brought in, the coalescing factor the
    batch pipeline is getting for free, and ``turn_high_water`` the most
    one turn ever held.
    """

    published: int = 0
    matched: int = 0
    delivered_local: int = 0
    delivered_remote: int = 0
    duplicates_dropped: int = 0
    unmatched: int = 0
    from_unknown_member: int = 0
    subscriptions_active: int = 0
    members_active: int = 0
    purged_members: int = field(default=0, repr=False)
    turns: int = field(default=0, repr=False)
    turn_events: int = field(default=0, repr=False)
    turn_high_water: int = field(default=0, repr=False)


class LocalPublisher:
    """A co-located service's publishing handle.

    Owns a service id and a monotonically increasing sequence counter, so
    events from in-process services carry the same ordering/dedup metadata
    as events from remote devices.
    """

    def __init__(self, bus: "EventBus", sender: ServiceId) -> None:
        self._bus = bus
        self._sender = sender
        self._next_seqno = itertools.count(1)

    @property
    def sender(self) -> ServiceId:
        return self._sender

    def publish(self, event_type: str, attributes: dict[str, Value]
                | None = None) -> Event:
        """Build, stamp and publish an event; returns it."""
        return self._publish(((event_type, attributes),))[0]

    def publish_batch(self, items: Iterable[tuple[str, dict[str, Value]]]
                      ) -> list[Event]:
        """Stamp ``(event_type, attributes)`` pairs and publish them in
        one bus call; returns the events in publication order."""
        return self._publish(items)

    def _publish(self, items: Iterable[tuple[str, dict[str, Value] | None]]
                 ) -> list[Event]:
        now = self._bus.scheduler.now()
        events = [Event(event_type, attributes or {}, self._sender,
                        next(self._next_seqno), now)
                  for event_type, attributes in items]
        self._bus.publish_batch(events)
        return events


class EventBus:
    """The SMC's central event service."""

    def __init__(self, scheduler: Scheduler,
                 engine: MatchingEngine | None = None,
                 *, name: str = "event-bus") -> None:
        self.scheduler = scheduler
        self.name = name
        self.service_id = service_id_from_name(name)
        self.engine = engine if engine is not None else ForwardingMatcher()
        #: Cost meter for the bus software's own payload copies (simulation
        #: charges them to the core host's CPU; see repro.sim.hosts).
        self.meter: CostMeter = NullCostMeter()
        self.stats = BusStats()
        self.quench: "QuenchController | None" = None

        self._local_publishers: dict[str, LocalPublisher] = {}
        self._local_callbacks: dict[int, LocalCallback] = {}
        # sub id -> owner: None for local, member ServiceId for proxied.
        self._sub_owner: dict[int, ServiceId | None] = {}
        self._member_subs: dict[ServiceId, set[int]] = {}
        self._proxies: dict[ServiceId, "Proxy"] = {}
        self._watermarks: dict[ServiceId, int] = {}
        self._next_sub_id = itertools.count(1)
        #: Member publications of the receive turn in progress, in
        #: arrival order (see publish_at_turn_end).
        self._turn_queue: list[Event] = []

    # -- local services ----------------------------------------------------

    def local_publisher(self, service_name: str) -> LocalPublisher:
        """Publishing handle for a co-located service.

        Handles are cached by name: the same name always returns the same
        publisher, so its sequence counter — which drives duplicate
        suppression — survives repeated lookups.
        """
        publisher = self._local_publishers.get(service_name)
        if publisher is None:
            publisher = LocalPublisher(self, service_id_from_name(service_name))
            self._local_publishers[service_name] = publisher
        return publisher

    def subscribe_local(self, filters: Filter | Iterable[Filter],
                        callback: LocalCallback) -> int:
        """Subscribe an in-process callback; returns the subscription id."""
        if isinstance(filters, Filter):
            filters = [filters]
        self.flush_turn()
        sub_id = next(self._next_sub_id)
        subscription = Subscription(sub_id, self.service_id, filters)
        self.engine.subscribe(subscription)
        self._local_callbacks[sub_id] = callback
        self._sub_owner[sub_id] = None
        self.stats.subscriptions_active = len(self.engine)
        self._notify_quench()
        return sub_id

    def unsubscribe_local(self, sub_id: int) -> None:
        if sub_id not in self._sub_owner:
            raise SubscriptionNotFoundError(f"no subscription with id {sub_id}")
        if self._sub_owner[sub_id] is not None:
            raise BusError(f"subscription {sub_id} is not a local subscription")
        self.flush_turn()
        self.engine.unsubscribe(sub_id)
        del self._local_callbacks[sub_id]
        del self._sub_owner[sub_id]
        self.stats.subscriptions_active = len(self.engine)
        self._notify_quench()

    # -- membership / proxies ------------------------------------------------

    def register_proxy(self, proxy: "Proxy") -> None:
        """Attach a member's proxy.  One proxy per member id."""
        member = proxy.member_id
        if member in self._proxies:
            raise DuplicateMemberError(f"member {member} already has a proxy")
        self._proxies[member] = proxy
        self._member_subs.setdefault(member, set())
        self.stats.members_active = len(self._proxies)

    def proxy_of(self, member: ServiceId) -> "Proxy":
        try:
            return self._proxies[member]
        except KeyError:
            raise NotAMemberError(f"no proxy for member {member}") from None

    def is_member(self, member: ServiceId) -> bool:
        return member in self._proxies

    def members(self) -> list[ServiceId]:
        return sorted(self._proxies)

    def unregister_member(self, member: ServiceId) -> None:
        """Tear down a member: subscriptions, dedup state and proxy record.

        Called by the member's proxy as it destroys itself on a Purge
        Member event.  Erasing the watermark is what scopes exactly-once
        delivery to one membership session.
        """
        self.flush_turn()
        self._proxies.pop(member, None)
        for sub_id in self._member_subs.pop(member, set()):
            self.engine.unsubscribe(sub_id)
            del self._sub_owner[sub_id]
        self._watermarks.pop(member, None)
        self.stats.members_active = len(self._proxies)
        self.stats.subscriptions_active = len(self.engine)
        self.stats.purged_members += 1
        self._notify_quench()

    # -- member subscriptions (called by proxies) --------------------------

    def subscribe_member(self, member: ServiceId,
                         filters: Iterable[Filter]) -> int:
        """Register a subscription on behalf of a member; returns bus id."""
        if member not in self._proxies:
            raise NotAMemberError(f"{member} is not an SMC member")
        self.flush_turn()
        sub_id = next(self._next_sub_id)
        subscription = Subscription(sub_id, member, list(filters))
        self.engine.subscribe(subscription)
        self._sub_owner[sub_id] = member
        self._member_subs[member].add(sub_id)
        self.stats.subscriptions_active = len(self.engine)
        self._notify_quench()
        return sub_id

    def unsubscribe_member(self, member: ServiceId, sub_id: int) -> None:
        if self._sub_owner.get(sub_id) != member:
            raise BusError(
                f"subscription {sub_id} is not owned by member {member}")
        self.flush_turn()
        self.engine.unsubscribe(sub_id)
        del self._sub_owner[sub_id]
        self._member_subs[member].discard(sub_id)
        self.stats.subscriptions_active = len(self.engine)
        self._notify_quench()

    def subscriptions_of(self, member: ServiceId) -> set[int]:
        return set(self._member_subs.get(member, set()))

    # -- publication ----------------------------------------------------------

    def publish(self, event: Event) -> bool:
        """Match and dispatch one event; True if it was fresh (not a
        duplicate).  A batch of one: see :meth:`publish_batch`."""
        self.flush_turn()
        return self._publish((event,)) == 1

    def publish_batch(self, events: Sequence[Event]) -> int:
        """Match and dispatch a batch of events; returns the fresh count.

        Publications must arrive in per-sender seqno order — both the
        reliable channel and LocalPublisher guarantee this — so a single
        high-watermark per sender implements duplicate suppression.  The
        work is split into phases so the matching can be partitioned
        while the delivery state cannot:

        * **dedup phase** — one watermark pass; every attempt is counted;
        * **match phase** — one :meth:`MatchingEngine.match_batch_ids`
          call.  This phase is a pure function of the subscription table
          and the event stream, which is what lets
          :class:`~repro.core.sharding.ShardedEventBus` fan it out across
          shards and merge the per-event id sets;
        * **dispatch phase** — shared regardless of how matching was
          partitioned: watermarks, subscription ownership, proxies and
          the quench hook live only on this bus object, so
          exactly-once-per-component and the :class:`BusStats` invariant
          hold unchanged under sharding.

        Deliveries are *coalesced per subscriber* — each interested proxy
        receives its whole slice of the batch in one
        :meth:`~repro.core.proxy.Proxy.deliver_batch` flush (one packet
        per scheduling round instead of one per event), and the local
        callbacks' slices all ride one scheduler turn, in first-match
        order (:meth:`_deliver_local`): a publish costs the scheduler one
        timer however many events it carried and subscriptions it matched.

        This is also how a receive turn is published: the turn queue
        (:meth:`publish_at_turn_end`) comes through here as one batch.
        Whatever it still holds is published first, so events leave in
        the order they reached the bus.
        """
        self.flush_turn()
        return self._publish(events)

    def publish_at_turn_end(self, events: Sequence[Event],
                            transport: "Transport") -> None:
        """Publish member-originated ``events`` when ``transport``'s
        receive turn ends, in one batch with the rest of the turn.

        The proxies' one way in.  ``transport`` is the turn's owner (the
        bus knows a scheduler, not a transport): its
        :meth:`~repro.transport.base.Transport.call_at_turn_end` runs
        :meth:`flush_turn` when the socket drain or scheduler instant
        that delivered the events is over, at once when none is in
        progress.  It is asked on every call — registering is idempotent
        within a turn — so no state here can leave a queued event without
        a flush ahead of it, whatever ended the last turn.
        """
        self._turn_queue.extend(events)
        transport.call_at_turn_end(self.flush_turn)

    def flush_turn(self) -> None:
        """Publish what the turn queue holds, as one batch.

        Runs at turn end, and before anything that must see the queued
        events already published: a subscription or membership change
        (they were sent before it), a direct publish (they arrived before
        it), and cell / server shutdown (a transport closed mid-turn drops
        its turn-end callbacks; the counters must still conserve).
        """
        queued = self._turn_queue
        if queued:
            self._turn_queue = []
            stats = self.stats
            stats.turns += 1
            stats.turn_events += len(queued)
            stats.turn_high_water = max(stats.turn_high_water, len(queued))
            # Through the public entry: one name for every publication.
            self.publish_batch(queued)

    def _publish(self, events: Sequence[Event]) -> int:
        # Dedup phase: count every attempt, keep the fresh events.
        stats = self.stats
        watermarks = self._watermarks
        stats.published += len(events)
        fresh: list[Event] = []
        views = []
        for event in events:
            if event.seqno <= watermarks.get(event.sender, 0):
                stats.duplicates_dropped += 1
                continue
            watermarks[event.sender] = event.seqno
            fresh.append(event)
            views.append(event.attrs_view())
        if not fresh:
            return 0
        # Match phase: no dispatch state is read or written, so a sharded
        # engine can fan it out and a WorkerPoolExecutor behind it can run
        # the fan-out on worker processes.  Whatever executes the match,
        # dispatch consumes only the resulting id lists.
        self._dispatch_phase(fresh, self.engine.match_batch_ids(views))
        return len(fresh)

    def _dispatch_phase(self, fresh: Sequence[Event],
                        matched_ids: Sequence[Sequence[int]]) -> None:
        """Coalesce deliveries: per-subscriber FIFO slices of the batch.

        ``matched_ids`` carries one sorted, duplicate-free subscription-id
        list per fresh event; delivery stays once per interested
        *component* because local ids are unique per event and a remote
        owner's slice takes each event once.
        """
        stats = self.stats
        local_slices: dict[int, LocalSlice] = {}
        remote_slices: dict[ServiceId, list[Event]] = {}
        sub_owner = self._sub_owner
        local_callbacks = self._local_callbacks
        proxies = self._proxies
        # A local callback is captured here, at dispatch time: a
        # subscriber that unsubscribes before the scheduler turn still
        # receives events already matched for it.
        for event, matched in zip(fresh, matched_ids):
            if not matched:
                stats.unmatched += 1
                continue
            stats.matched += 1
            for sub_id in matched:
                callback = local_callbacks.get(sub_id)
                if callback is not None:
                    local_slice = local_slices.get(sub_id)
                    if local_slice is None:
                        local_slices[sub_id] = (callback, [event])
                    else:
                        local_slice[1].append(event)
                    continue
                owner = sub_owner.get(sub_id)
                events_slice = remote_slices.get(owner)
                if events_slice is None:
                    if owner in proxies:
                        remote_slices[owner] = [event]
                elif events_slice[-1] is not event:
                    # Events are walked in order, so an owner already
                    # served this one holds it last.
                    events_slice.append(event)
        if local_slices:
            # Insertion order is first-match order: one turn walks it.
            slices = list(local_slices.values())
            stats.delivered_local += sum(
                [len(events_slice) for _, events_slice in slices])
            self.scheduler.call_soon(self._deliver_local, slices)
        if remote_slices:
            # One memo across every subscriber's slice: overlapping slices
            # share each event's DELIVER encoding instead of re-running it.
            memo = DeliverMemo()
            for owner, events_slice in remote_slices.items():
                stats.delivered_remote += len(events_slice)
                proxy = proxies.get(owner)
                if proxy is not None:
                    proxy.deliver_batch(events_slice, memo)

    def _deliver_local(self, slices: list[LocalSlice]) -> None:
        """One scheduler turn: every local delivery of one publish.

        Runs the slices in order, FIFO inside each.  A callback that
        raises loses the rest of its own slice and the exception leaves
        through the scheduler, as it would from a timer of its own; the
        slices after it are queued for a later turn first, so one faulty
        subscriber does not cost the others their events.
        """
        pending = iter(slices)
        try:
            for callback, events_slice in pending:
                for event in events_slice:
                    callback(event)
        except BaseException:
            rest = list(pending)
            if rest:
                self.scheduler.call_soon(self._deliver_local, rest)
            raise

    # -- quenching -----------------------------------------------------------

    def attach_quench(self, controller: "QuenchController") -> None:
        """Enable Elvin-style quenching (Section VI future work)."""
        self.quench = controller

    def _notify_quench(self) -> None:
        if self.quench is not None:
            self.quench.on_subscriptions_changed()

    def all_subscriptions(self) -> Iterator[Subscription]:
        """Every registered subscription, in no particular order."""
        return iter(self.engine)

    def __repr__(self) -> str:
        return (f"<EventBus {self.name} engine={self.engine.name} "
                f"members={len(self._proxies)} subs={len(self.engine)}>")
