"""Client library for services that speak the bus protocol natively.

A :class:`BusClient` is what the paper calls a "complex sensor" or a full
service: it builds typed events itself, manages its own subscriptions, and
talks to the SMC core over the reliable channel (through a
:class:`~repro.core.proxies.ServiceProxy` on the bus side).

The client implements the subscriber half of the delivery semantics:

* a per-sender sequence watermark suppresses any duplicate the network
  could manufacture (exactly-once toward the application);
* delivered events are dispatched to every matching local callback, in
  arrival order (per-sender FIFO end to end);
* QUENCH advisories from the bus gate :meth:`publish`, implementing the
  publisher side of quenching.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.errors import CodecError, SubscriptionNotFoundError, TransportError
from repro.ids import ServiceId
from repro.matching.filters import (
    Filter,
    Subscription,
    encode_filter,
    encode_subscription,
)
from repro.sim.hosts import INBOUND_COPIES, OUTBOUND_COPIES, CostMeter, NullCostMeter
from repro.sim.kernel import Scheduler
from repro.transport import wire
from repro.transport.base import Address
from repro.transport.endpoint import PacketEndpoint
from repro.transport.reliability import ChannelStats
from repro.transport.wire import Value

from repro.core import protocol
from repro.core.events import Event, decode_event
from repro.core.protocol import BusOp

EventCallback = Callable[[Event], None]
CommandCallback = Callable[[bytes], None]


@dataclass
class ClientStats:
    published: int = 0
    publishes_quenched: int = 0
    publishes_disconnected: int = 0
    delivered: int = 0
    duplicates_dropped: int = 0
    undispatched: int = 0
    malformed: int = 0
    batches_sent: int = 0
    batches_received: int = 0


class BusClient:
    """A remote service's handle on the SMC event bus."""

    def __init__(self, endpoint: PacketEndpoint, scheduler: Scheduler,
                 bus_address: Address | None,
                 meter: CostMeter | None = None) -> None:
        self.endpoint = endpoint
        self.scheduler = scheduler
        self.bus_address = bus_address
        self.meter = meter if meter is not None else NullCostMeter()
        self.stats = ClientStats()
        self.quenched = False
        #: Invoked with the new quench state whenever the bus changes it.
        self.on_quench_change: Callable[[bool], None] | None = None
        #: Invoked with raw DEVICE_CMD bytes (hybrid devices).
        self.on_command: CommandCallback | None = None
        #: Batch flush cap override in bytes; None derives the cap from
        #: the channel window as before.  This is the actuator the
        #: autonomic flush controller drives from measured loss and
        #: quench feedback.
        self.flush_limit: int | None = None

        self._next_seqno = itertools.count(1)
        self._next_sub_id = itertools.count(1)
        self._subscriptions: dict[int, tuple[tuple[Filter, ...], EventCallback]] = {}
        self._watermarks: dict[ServiceId, int] = {}
        endpoint.set_payload_handler(self._on_payload)

    @property
    def service_id(self) -> ServiceId:
        return self.endpoint.service_id

    # -- publishing ---------------------------------------------------------

    def publish(self, event_type: str,
                attributes: dict[str, Value] | None = None,
                *, ignore_quench: bool = False) -> Event | None:
        """Publish an event to the bus.

        Returns the stamped event, or None when suppressed by quenching
        (override with ``ignore_quench`` for must-send alarms).
        """
        if self.quenched and not ignore_quench:
            self.stats.publishes_quenched += 1
            return None
        if self.bus_address is None:
            self.stats.publishes_disconnected += 1
            return None
        event = Event(event_type, attributes or {}, self.service_id,
                      next(self._next_seqno), self.scheduler.now())
        # Scatter-gather encode: chunks are joined exactly once, here at
        # the reliable-payload boundary.
        payload = b"".join(protocol.publish_parts(event))
        self.meter.charge_copy(OUTBOUND_COPIES * len(payload))
        self.endpoint.send_reliable(self.bus_address, payload)
        self.stats.published += 1
        return event

    def publish_batch(self, items: Sequence[tuple[str, dict[str, Value] | None]],
                      *, ignore_quench: bool = False) -> list[Event]:
        """Publish a batch of ``(event_type, attributes)`` pairs.

        The whole batch is stamped with consecutive sequence numbers and
        coalesced into as few reliable payloads as possible (one BATCH
        frame per flush instead of one packet per event), which is the
        publisher half of the bus's batch pipeline.  Returns the stamped
        events; an empty list when quenched or disconnected.
        """
        if not items:
            return []
        if self.quenched and not ignore_quench:
            self.stats.publishes_quenched += len(items)
            return []
        if self.bus_address is None:
            self.stats.publishes_disconnected += len(items)
            return []
        now = self.scheduler.now()
        events = [Event(event_type, attributes or {}, self.service_id,
                        next(self._next_seqno), now)
                  for event_type, attributes in items]
        # Chunk lists, not joined frames: chunk_frames joins each reliable
        # payload exactly once at the boundary.
        frames = [protocol.publish_parts(event) for event in events]
        # Chunk to the hop's window: one big payload on a stop-and-wait
        # channel, streaming MTU-sized payloads on a pipelined one —
        # unless the autonomic flush controller has overridden the cap.
        limit = (self.flush_limit if self.flush_limit is not None
                 else protocol.flush_limit(self.endpoint.window))
        for payload in protocol.chunk_frames(frames, limit):
            self.meter.charge_copy(OUTBOUND_COPIES * len(payload))
            self.endpoint.send_reliable(self.bus_address, payload)
        self.stats.published += len(events)
        self.stats.batches_sent += 1
        return events

    def transport_stats(self) -> "ChannelStats | None":
        """Reliability-layer counters for the channel toward the bus core
        (retransmissions, fast retransmits, duplicates...), or None while
        disconnected or before any reliable traffic."""
        if self.bus_address is None:
            return None
        channel = self.endpoint.existing_channel(self.bus_address)
        return channel.stats if channel is not None else None

    def advertise(self, filt: Filter) -> None:
        """Declare what this service publishes (enables quenching)."""
        self._require_connected()
        self.endpoint.send_reliable(
            self.bus_address, protocol.frame(BusOp.ADVERTISE,
                                             encode_filter(filt)))

    # -- subscribing ----------------------------------------------------------

    def subscribe(self, filters: Filter | Iterable[Filter],
                  callback: EventCallback) -> int:
        """Register interest; returns a client-local subscription id."""
        if isinstance(filters, Filter):
            filters = [filters]
        self._require_connected()
        filter_tuple = tuple(filters)
        sub_id = next(self._next_sub_id)
        self._send_subscribe(sub_id, filter_tuple)
        self._subscriptions[sub_id] = (filter_tuple, callback)
        return sub_id

    def _send_subscribe(self, sub_id: int,
                        filter_tuple: tuple[Filter, ...]) -> None:
        subscription = Subscription(sub_id, self.service_id, filter_tuple)
        self.endpoint.send_reliable(
            self.bus_address,
            protocol.frame(BusOp.SUBSCRIBE, encode_subscription(subscription)))

    def unsubscribe(self, sub_id: int) -> None:
        if sub_id not in self._subscriptions:
            raise SubscriptionNotFoundError(f"no subscription with id {sub_id}")
        del self._subscriptions[sub_id]
        if self.bus_address is not None:
            self.endpoint.send_reliable(self.bus_address,
                                        protocol.frame_unsubscribe(sub_id))

    def resubscribe_all(self) -> None:
        """Re-issue every live subscription (after a purge-and-rejoin)."""
        self._require_connected()
        for sub_id, (filter_tuple, _cb) in self._subscriptions.items():
            self._send_subscribe(sub_id, filter_tuple)

    def _require_connected(self) -> None:
        if self.bus_address is None:
            raise TransportError("client is not connected to a cell")

    # -- inbound ------------------------------------------------------------

    def _on_payload(self, peer: ServiceId, payload: bytes) -> None:
        """One ordered payload from the core, frame by frame
        (:func:`~repro.core.protocol.walk` states the BATCH policy)."""
        stats = self.stats
        try:
            batched, frames, bad = protocol.walk(payload)
        except CodecError:
            stats.malformed += 1
            return
        if batched:
            stats.batches_received += 1
            stats.malformed += bad
        for op, body in frames:
            if op == BusOp.DELIVER:
                self._on_deliver(body)
            elif op == BusOp.QUENCH:
                try:
                    self._set_quenched(protocol.parse_quench(body))
                except CodecError:
                    stats.malformed += 1
            elif op == BusOp.DEVICE_CMD:
                if self.on_command is not None:
                    # Command callbacks parse device byte-protocols and may
                    # hold the bytes; the view must not escape.
                    self.on_command(wire.as_bytes(body))
            else:
                stats.malformed += 1

    def _on_deliver(self, body: bytes) -> None:
        self.meter.charge_copy(INBOUND_COPIES * len(body))
        try:
            event, end = decode_event(body)
        except CodecError:
            self.stats.malformed += 1
            return
        if end != len(body):                      # trailing bytes
            self.stats.malformed += 1
            return
        # Exactly-once toward the application: per-sender watermark.
        watermark = self._watermarks.get(event.sender, 0)
        if event.seqno <= watermark:
            self.stats.duplicates_dropped += 1
            return
        self._watermarks[event.sender] = event.seqno
        self.stats.delivered += 1

        view = event.attrs_view()
        dispatched = False
        for filters, callback in list(self._subscriptions.values()):
            if any(f.matches(view) for f in filters):
                dispatched = True
                callback(event)
        if not dispatched:
            # Raced with an unsubscribe, or the bus over-delivered.
            self.stats.undispatched += 1

    def _set_quenched(self, state: bool) -> None:
        if state != self.quenched:
            self.quenched = state
            if self.on_quench_change is not None:
                self.on_quench_change(state)
