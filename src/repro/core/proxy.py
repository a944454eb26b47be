"""The proxy framework (paper Section III-B).

"Each service granted membership of the SMC is represented by a proxy
object, which provides a standard interface to that service."  A proxy:

* owns the member's **outbound queue**: events the bus routes to the member
  are queued on the member's reliable channel in FIFO order, retransmitted
  until acknowledged, and *destroyed with the proxy* when the member is
  purged;
* performs **data translation** between device byte protocols and typed
  events (complex proxies for simple sensors) or forwards bus frames
  untouched (simple proxies for complex services);
* **subscribes on behalf of** simple devices that carry no subscription
  logic of their own;
* "immediately subscribes to incoming Purge Member events generated by the
  discovery service, such that it can destroy itself, and any outbound
  data awaiting delivery, when required".

The abstract class holds all generic behaviour; concrete classes in
:mod:`repro.core.proxies` add the per-device-type translation, mirroring
the paper's abstract/concrete proxy split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

from repro.errors import AddressError, BusError, CodecError
from repro.ids import ServiceId
from repro.matching.filters import (
    Filter,
    Subscription,
    decode_filter,
    decode_subscription,
)
from repro.transport import wire
from repro.transport.base import Address
from repro.transport.endpoint import PacketEndpoint

from repro.core import protocol
from repro.core.bus import DeliverMemo, EventBus
from repro.core.events import (
    MEMBER_STATE_TYPE,
    PURGE_MEMBER_TYPE,
    Event,
    decode_event,
)
from repro.core.protocol import BusOp, deliver_frame
from repro.sim.hosts import OUTBOUND_COPIES

__all__ = ["DeviceTranslator", "Proxy", "ProxyStats", "deliver_frame"]


@runtime_checkable
class DeviceTranslator(Protocol):
    """Translation between a device's byte protocol and typed events.

    Implementations live with the device models
    (:mod:`repro.devices.protocols`); the proxy only needs this interface.
    """

    #: Device type string this translator understands (e.g. ``"sensor.hr"``).
    device_type: str

    def decode_reading(self, data: bytes) -> tuple[str, dict] | None:
        """Parse raw device bytes into ``(event_type, attributes)``.

        Return None to discard the reading (malformed, or below change
        threshold).
        """
        ...

    def encode_command(self, event: Event) -> bytes | None:
        """Render a bus event into device command bytes (None = not for
        this device)."""
        ...

    def command_filters(self) -> list[Filter]:
        """Filters for the events this device wants pushed to it."""
        ...


@dataclass
class ProxyStats:
    events_delivered: int = 0
    events_published: int = 0
    readings_translated: int = 0
    commands_translated: int = 0
    malformed_payloads: int = 0
    #: Refused member PUBLISHes of an ``smc.member.*`` type.
    forged_member_events: int = 0
    dropped_on_destroy: int = 0
    batches_flushed: int = 0
    batches_received: int = 0


class Proxy:
    """Abstract base: generic code applicable to all SMC services."""

    #: True when :meth:`encode_outbound` produces the standard,
    #: member-independent DELIVER framing — the bus then shares one
    #: encoded payload across the whole fan-out via
    #: :class:`~repro.core.bus.DeliverMemo` instead of re-encoding per
    #: proxy.  Translating proxies (per-device command bytes) leave this
    #: False.
    shared_outbound = False

    def __init__(self, bus: EventBus, endpoint: PacketEndpoint,
                 member_id: ServiceId, member_name: str,
                 device_type: str) -> None:
        self.bus = bus
        self.endpoint = endpoint
        self.member_id = member_id
        self.member_name = member_name
        self.device_type = device_type
        self.stats = ProxyStats()
        #: The member's declared inbound event capacity (0 = undeclared).
        #: Set from the New Member event and refreshed by ``smc.member.state``
        #: events; when positive, batch flushes never exceed it per payload.
        self.capacity = 0
        #: Why the member is told not to publish: "unsubscribed" (quench
        #: controller), "backlog" (edge guard), "draining".  Written only
        #: through :meth:`set_quench`: the proxy owns the quench bit.
        self.quench_reasons: set[str] = set()
        self._destroyed = False
        self._draining = False
        self._client_subs: dict[int, int] = {}    # client sub id -> bus sub id
        self._next_pub_seqno = 1                  # for proxy-originated events

        bus.register_proxy(self)
        # Self-destruct wiring (Section III-B): react to this member's purge.
        self._purge_sub = bus.subscribe_local(
            Filter.where(PURGE_MEMBER_TYPE, member=int(member_id)),
            self._on_purge_event)
        # Lifecycle wiring: track capacity refreshes and start draining
        # when discovery reports the member's LEAVE_INTENT.
        self._state_sub = bus.subscribe_local(
            Filter.where(MEMBER_STATE_TYPE, member=int(member_id)),
            self._on_state_event)
        for filters in self.initial_subscriptions():
            bus.subscribe_member(member_id, filters)

    @property
    def member_address(self) -> Address:
        """The member's *current* transport address: the endpoint's, the
        one owner of it, which follows every roam.  Raises
        :class:`~repro.errors.AddressError` while the member has none —
        its address changed hands and it has not been heard from since.
        """
        return self.endpoint.address_of(self.member_id)

    # -- hooks for concrete proxies ----------------------------------------

    def initial_subscriptions(self) -> list[list[Filter]]:
        """Subscriptions to register on behalf of the device at creation.

        "In the case of simpler devices, the proxy itself might carry
        enough knowledge to register for appropriate events on behalf of
        the device upon its creation."
        """
        return []

    def encode_outbound(self, event: Event) -> bytes | None:
        """Render a matched event for the member.  None drops it silently."""
        raise NotImplementedError

    def on_device_data(self, data: bytes) -> None:
        """Handle raw DEVICE_DATA bytes from the member."""
        self.stats.malformed_payloads += 1     # base proxies expect none

    # -- bus-facing interface ------------------------------------------------

    def deliver(self, event: Event, memo: DeliverMemo | None = None) -> None:
        """Queue one matched event for the member: :meth:`deliver_batch`
        at length one."""
        self._deliver((event,), memo)

    def deliver_batch(self, events: Sequence[Event],
                      memo: DeliverMemo | None = None) -> None:
        """Queue a FIFO slice of matched events (acknowledged, in order)
        in as few packets as possible.

        Events are encoded individually — once per *dispatch*, not once
        per proxy, when the bus passes its ``memo`` and this proxy uses
        the shared DELIVER framing — then coalesced into BATCH payloads
        (:func:`~repro.core.protocol.chunk_frames`) sized to the member
        hop's channel window: a stop-and-wait hop gets one payload per
        flush, a pipelined hop gets stream-sized payloads that ride the
        window concurrently.  A slice of one is sent unwrapped.
        """
        self._deliver(events, memo)

    def _deliver(self, events: Sequence[Event],
                 memo: DeliverMemo | None) -> None:
        if self._destroyed:
            return
        # A run of the slice becomes payloads either through the
        # dispatch's memo (shared framing: subscribers with equal slices
        # share the joined payloads, not just the frames) or by encoding
        # for this member alone.
        if memo is not None and self.shared_outbound:
            items: Sequence = events
            chunk = memo.payloads
        else:
            items = [payload for payload in map(self.encode_outbound, events)
                     if payload is not None]
            chunk = protocol.chunk_frames
        if not items:
            return
        try:
            address = self.member_address
        except AddressError:
            return      # its session died with its address: nowhere to queue
        limit = protocol.flush_limit(self.endpoint.window)
        # A declared capacity bounds the *events* per payload, on top of
        # the byte limit: a sensor that buffers 4 events must never be
        # handed a 50-event batch it cannot hold.
        capacity = self.capacity
        if 0 < capacity < len(items):
            runs = [items[i:i + capacity]
                    for i in range(0, len(items), capacity)]
        else:
            runs = (items,)
        for run in runs:
            for payload in chunk(run, limit):
                # The bus software hands the payload off to this member's
                # channel (runtime -> socket); under simulation this
                # charges the core host.
                self.bus.meter.charge_copy(OUTBOUND_COPIES * len(payload))
                self.endpoint.send_reliable(address, payload)
        stats = self.stats
        stats.events_delivered += len(items)
        stats.batches_flushed += 1

    def set_quench(self, reason: str, wanted: bool) -> bool:
        """State (or withdraw) one reason for the member to stop
        publishing.  A QUENCH advisory goes out, and True comes back, only
        when the set of reasons goes empty <-> non-empty."""
        if self._destroyed:
            return False
        was_quenched = bool(self.quench_reasons)
        if wanted:
            self.quench_reasons.add(reason)
        else:
            self.quench_reasons.discard(reason)
        if bool(self.quench_reasons) == was_quenched:
            return False
        if self.endpoint.knows_peer(self.member_id):
            self.endpoint.send_reliable(
                self.member_address, protocol.frame_quench(not was_quenched))
        return True

    @property
    def quenched(self) -> bool:
        """Whether the member is currently advised not to publish."""
        return bool(self.quench_reasons)

    # -- endpoint-facing interface ----------------------------------------

    def on_payload(self, payload: bytes) -> None:
        """Handle one ordered payload from the member's channel, frame
        by frame (:func:`~repro.core.protocol.walk` states the BATCH
        policy): each run of PUBLISH frames enters the bus as one batch,
        and a frame whose body does not decode is counted and skipped
        like the walk's bad frames, never the rest of the payload.  A
        member never speaks for the cell: a PUBLISH of an
        ``smc.member.*`` type is counted and refused."""
        if self._destroyed:
            return
        stats = self.stats
        try:
            batched, frames, bad = protocol.walk(payload)
        except CodecError:
            stats.malformed_payloads += 1
            return
        if batched:
            stats.batches_received += 1
            stats.malformed_payloads += bad
        pending: list[Event] = []
        for op, body in frames:
            try:
                if op == BusOp.PUBLISH:
                    event, end = decode_event(body)
                    if end != len(body):
                        raise CodecError("trailing bytes after event")
                    if event.type.startswith("smc.member."):
                        stats.forged_member_events += 1
                        continue
                    pending.append(event)
                    continue
                if pending:
                    self._publish_events(pending)
                    pending = []
                self._dispatch(op, body)
            except (CodecError, BusError):
                stats.malformed_payloads += 1
        if pending:
            self._publish_events(pending)

    def _dispatch(self, op: BusOp, body: bytes) -> None:
        """One frame that is not a PUBLISH."""
        if op == BusOp.SUBSCRIBE:
            subscription, end = decode_subscription(body)
            if end != len(body):
                raise CodecError("trailing bytes after subscription")
            self._subscribe_for_member(subscription)
        elif op == BusOp.UNSUBSCRIBE:
            client_sub_id = protocol.parse_unsubscribe(body)
            bus_sub_id = self._client_subs.pop(client_sub_id, None)
            if bus_sub_id is not None:
                self.bus.unsubscribe_member(self.member_id, bus_sub_id)
        elif op == BusOp.DEVICE_DATA:
            # Device byte-protocols are parsed by translators that expect
            # real bytes; the view must not escape the decode path.
            self.on_device_data(wire.as_bytes(body))
        elif op == BusOp.ADVERTISE:
            filt, end = decode_filter(body)
            if end != len(body):
                raise CodecError("trailing bytes after advertised filter")
            if self.bus.quench is not None:
                self.bus.quench.register_advertisement(self.member_id, filt)
        else:
            self.stats.malformed_payloads += 1

    def _publish_events(self, events: Sequence[Event]) -> None:
        """The one way member publications enter the bus: PUBLISH frames,
        the PUBLISH runs of a BATCH and translated device data alike join
        the bus's turn queue, published as one batch when this endpoint's
        receive turn ends (:meth:`EventBus.publish_at_turn_end`) — or
        sooner, if something that must come after them reaches the bus
        first (a SUBSCRIBE later in the same BATCH, say).  The publisher
        was acknowledged at the channel layer when the payload was
        accepted."""
        self.stats.events_published += len(events)
        self.bus.publish_at_turn_end(events, self.endpoint.transport)

    def publish_translated(self, event_type: str, attributes: dict) -> Event:
        """Publish an event the proxy itself synthesised from device data.

        The proxy stamps the member's sender id and its own sequence
        counter — the device's raw protocol carries neither.
        """
        event = Event(event_type, attributes, self.member_id,
                      self._next_pub_seqno, self.bus.scheduler.now())
        self._next_pub_seqno += 1
        self._publish_events((event,))
        return event

    def _subscribe_for_member(self, subscription: Subscription) -> None:
        if subscription.sub_id in self._client_subs:
            raise BusError(
                f"member {self.member_id} reused subscription id "
                f"{subscription.sub_id}")
        bus_sub_id = self.bus.subscribe_member(self.member_id,
                                               subscription.filters)
        self._client_subs[subscription.sub_id] = bus_sub_id

    # -- lifecycle -----------------------------------------------------------

    def _on_purge_event(self, event: Event) -> None:
        if event.get("member") == int(self.member_id):
            self.destroy()

    def _on_state_event(self, event: Event) -> None:
        if event.get("member") != int(self.member_id) or self._destroyed:
            return
        capacity = event.get("capacity")
        if isinstance(capacity, int) and capacity >= 0:
            self.capacity = capacity
        if event.get("state") == "draining":
            self.begin_drain()

    def begin_drain(self) -> None:
        """Stop new events reaching this member; let the queue flush.

        The drain half of the purge path: withdraw the member's
        subscriptions (so no *new* matches join its outbound queue),
        quench it, and withdraw its advertisement (with "draining" stated
        first, that withdrawal cannot wake it).  What is already
        queued on the channel keeps retransmitting until acknowledged —
        discovery purges the member once the queue is empty, and
        :meth:`destroy` then finds nothing to drop.  Idempotent.
        """
        if self._destroyed or self._draining:
            return
        self._draining = True
        for sub_id in sorted(self.bus.subscriptions_of(self.member_id)):
            self.bus.unsubscribe_member(self.member_id, sub_id)
        self._client_subs.clear()
        self.set_quench("draining", True)
        if self.bus.quench is not None:
            self.bus.quench.withdraw_advertisement(self.member_id)

    @property
    def draining(self) -> bool:
        return self._draining

    def destroy(self) -> None:
        """Tear down: subscriptions, bus registration, queued events.

        Idempotent.  "It can destroy itself, and any outbound data awaiting
        delivery ... when the service permanently leaves the SMC."
        """
        if self._destroyed:
            return
        self._destroyed = True
        self.quench_reasons.clear()
        self.bus.unsubscribe_local(self._purge_sub)
        self.bus.unsubscribe_local(self._state_sub)
        self.bus.unregister_member(self.member_id)
        self.stats.dropped_on_destroy = self.endpoint.close_channel(
            self.member_id)

    @property
    def destroyed(self) -> bool:
        return self._destroyed

    def __repr__(self) -> str:
        state = "destroyed" if self._destroyed else "active"
        return (f"<{type(self).__name__} member={self.member_name!r} "
                f"({self.member_id}) type={self.device_type} {state}>")
