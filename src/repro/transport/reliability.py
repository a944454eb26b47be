"""Pipelined, selectively-acknowledged channel over datagrams.

The paper's delivery semantics (Section II-C) require that management
events are delivered to each interested member *exactly once while it
remains a member*, and *in per-sender order*.  Datagrams give neither, so
each hop (publisher→bus, bus→subscriber) runs one :class:`ReliableChannel`.
The original implementation was stop-and-wait — one packet per round trip
per hop — which capped every hop far below the link rate; this module is
the windowed redesign the ROADMAP's async-transport step called for.

Protocol
========

*Sliding window.*  Up to ``window`` DATA packets may be in flight at once;
further sends queue.  Every DATA packet carries a 32-bit sequence number
(1..2^32-1, zero is reserved for "nothing acknowledged", and the space
wraps back to 1) and a piggy-backed cumulative acknowledgement.

*Selective acknowledgements.*  The receiver delivers in sequence order,
buffering out-of-order arrivals.  An ACK carries its cumulative ack (the
last in-order sequence delivered) plus SACK ranges — the inclusive
``(start, end)`` runs it holds beyond the cumulative point
(:mod:`repro.transport.packets` encodes them in a flagged payload prefix).
The sender marks SACKed packets and never retransmits them; only genuine
holes are resent.

*One cumulative ACK per receive turn.*  An in-order DATA packet marks the
channel ack-due; the due ACK leaves when the transport's receive turn
ends (:meth:`Transport.call_at_turn_end`: the socket drain, or scheduler
instant, that delivered it — no timer, so no added delay).  A burst of k
is answered by one ACK, an isolated packet in the turn it arrived, and a
reverse DATA packet that leaves first carries the ack and cancels the
due ACK.  Loss signals are never deferred: an out-of-order, duplicate or
buffer-overrunning arrival flushes any due ACK, then ACKs at once with
the SACK block, so the sender counts the same duplicate acks as with an
ACK per packet.  A closed channel acknowledges nothing.

*Retransmit policy.*  Each in-flight packet keeps its **own** retransmit
deadline and backoff: the retransmit timer is armed for the earliest
outstanding deadline and is never reset by new transmissions (a steady
send stream must not starve the oldest unacked packet — the go-back-N
stall the stop-and-wait code had latent).  When the timer fires, only
packets whose deadline has passed and that are not SACKed are resent,
each doubling its private RTO up to ``rto_max``.  Additionally, three
duplicate cumulative ACKs trigger one fast retransmit of the oldest
unSACKed packet per loss episode, recovering a single loss in roughly one
round trip instead of one RTO.

*Sequence arithmetic.*  All seq/ack comparisons use RFC-1982-style serial
arithmetic (:func:`serial_lt`), so the protocol survives the wrap at
2^32 — raw integer comparisons misclassify every packet that spans it.

*RTT measurement.*  Every acknowledgement — cumulative or SACK — of a
packet that was transmitted exactly once yields a round-trip sample;
packets that were ever retransmitted are never sampled (Karn's algorithm:
their ack is ambiguous between transmissions).  Samples feed an RFC-6298
smoothed estimator surfaced as :attr:`ChannelStats.srtt` /
:attr:`ChannelStats.rttvar` / :attr:`ChannelStats.rtt_samples`.  The
channel only *measures*: deciding what RTO the measurements justify is
the job of the autonomic control plane
(:class:`repro.autonomic.controllers.RttController`), which actuates
:meth:`ReliableChannel.set_rto` — so a channel without a controller
behaves exactly as configured.

*Exactly-once, in-order.*  Duplicates (retransmissions the ack for which
was lost, or datagrams the network duplicated) are suppressed and
re-acknowledged.  The reorder buffer is sized at least as large as the
window, so a full window of out-of-order arrivals is never dropped; if an
over-windowed peer still overruns it, drops are counted in
:attr:`ChannelStats.reorder_drops` and recovered by the peer's RTO.

The channel retries until it is closed: the paper queues events for
unavailable members "which have not yet been declared to have left the
SMC"; abandoning the queue is the proxy's job, on a Purge Member event,
via :meth:`ReliableChannel.close`.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigurationError, PacketError
from repro.ids import ServiceId
from repro.sim.kernel import Scheduler, Timer
from repro.transport.base import Address, Transport
from repro.transport.packets import (
    MAX_PAYLOAD,
    MAX_SACK_RANGES,
    Packet,
    PacketFlags,
    PacketType,
)

DeliverCallback = Callable[[ServiceId, bytes], None]

_SEQ_MOD = 1 << 32
_SEQ_HALF = 1 << 31

#: Default send window for every hop.  32 packets keeps a 20 ms-RTT link
#: busy at the payload sizes the bus moves, while the window-sized reorder
#: buffer it implies stays tiny.  Stop-and-wait (window=1) remains
#: available for paper-faithful measurements.
DEFAULT_WINDOW = 32

#: Duplicate cumulative acks that trigger a fast retransmit.
FAST_RETRANSMIT_DUPS = 3

#: Out-of-order arrivals a receiver buffers, or its window if that is
#: larger.
REORDER_BUFFER = 64


def serial_lt(a: int, b: int) -> bool:
    """RFC-1982 serial ``a < b`` in the 32-bit sequence space.

    Correct across the wrap at 2^32 for any two values less than half the
    space apart — raw integer comparison is wrong for every pair that
    spans the wrap.
    """
    return a != b and ((b - a) % _SEQ_MOD) < _SEQ_HALF


def serial_leq(a: int, b: int) -> bool:
    """RFC-1982 serial ``a <= b``."""
    return ((b - a) % _SEQ_MOD) < _SEQ_HALF


def serial_succ(seq: int) -> int:
    """The next sequence number, skipping the reserved 0."""
    return (seq + 1) % _SEQ_MOD or 1


@dataclass
class ChannelStats:
    """Per-channel counters."""

    sent: int = 0
    delivered: int = 0
    retransmissions: int = 0
    fast_retransmits: int = 0
    duplicates: int = 0
    out_of_order: int = 0
    reorder_drops: int = 0
    acks_sent: int = 0
    #: Untransmitted payloads dropped by edge backpressure
    #: (:meth:`ReliableChannel.shed_backlog`).
    backlog_shed: int = 0
    #: RFC-6298 estimator state, fed by acks of never-retransmitted
    #: packets (Karn).  ``srtt``/``rttvar`` are 0.0 until the first
    #: sample; ``rtt_samples`` counts how many have been folded in.
    rtt_samples: int = 0
    srtt: float = 0.0
    rttvar: float = 0.0


@dataclass(slots=True)
class _InFlight:
    """Send-side state for one unacknowledged packet."""

    payload: bytes
    rto: float           # private backoff, doubled on each timeout resend
    deadline: float      # absolute time of the next retransmission
    sent_at: float = 0.0  # first-transmission instant (RTT sampling)
    sacked: bool = False  # receiver holds it; never retransmit
    resent: bool = False  # ever retransmitted; Karn: never RTT-sample it


class ReliableChannel:
    """One direction-pair of the reliable protocol with a single peer."""

    def __init__(self, transport: Transport, scheduler: Scheduler,
                 peer_address: Address, deliver: DeliverCallback,
                 *, window: int = DEFAULT_WINDOW, rto_initial: float = 0.05,
                 rto_max: float = 2.0, initial_seq: int = 1) -> None:
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        if rto_initial <= 0 or rto_max < rto_initial:
            raise ConfigurationError(
                f"bad RTO bounds: initial={rto_initial}, max={rto_max}")
        if not 0 < initial_seq < _SEQ_MOD:
            raise ConfigurationError(f"initial_seq out of range: {initial_seq}")
        self._transport = transport
        self._sender = transport.service_id
        self._scheduler = scheduler
        self._peer_address = peer_address
        self._deliver = deliver
        self._window = window
        self._rto_initial = rto_initial
        self._rto_max = rto_max
        # A window of out-of-order arrivals must always fit, or a sender
        # outrunning the buffer would retransmit into the same full buffer
        # forever (the silent-drop stall the stop-and-wait code had latent).
        self._reorder_limit = max(REORDER_BUFFER, window)

        # Send side.  ``initial_seq`` exists for wraparound tests and
        # session-resumption experiments; both ends must agree on it.
        self._next_seq = initial_seq
        self._pending: deque[bytes] = deque()          # not yet transmitted
        # seq -> state; filled in sequence order, so iteration is oldest
        # first, across the wrap too.
        self._in_flight: dict[int, _InFlight] = {}
        self._retransmit_timer: Timer | None = None
        self._timer_deadline = math.inf
        self._last_cum_ack = 0                         # highest cumulative seen
        self._dup_acks = 0
        self._fast_rtx_seq: int | None = None          # one fast rtx per episode

        # Receive side.
        self._expected_seq = initial_seq
        self._last_delivered = 0                       # 0 = nothing yet
        self._reorder: dict[int, bytes] = {}
        # Delivered in order since the last packet that carried our ack.
        self._ack_due = False
        self._peer_id: ServiceId | None = None

        self._closed = False
        self.stats = ChannelStats()

    # -- public API -----------------------------------------------------

    @property
    def peer_address(self) -> Address:
        return self._peer_address

    @property
    def peer_id(self) -> ServiceId | None:
        """The peer's service id, learned from its first packet."""
        return self._peer_id

    @property
    def rto_initial(self) -> float:
        """Base RTO every newly sent packet starts from."""
        return self._rto_initial

    @property
    def rto_max(self) -> float:
        return self._rto_max

    def set_rto(self, rto_initial: float, rto_max: float | None = None) -> None:
        """Actuator hook: retune the base RTO (and optionally its cap).

        Called by the autonomic control plane's RTT controller with an
        RFC-6298 estimate; packets already in flight keep their private
        backoff, new transmissions use the new base.  The cap is raised
        automatically if the new base would exceed it.
        """
        if rto_initial <= 0:
            raise ConfigurationError(f"rto_initial must be > 0, got {rto_initial}")
        if rto_max is not None:
            if rto_max < rto_initial:
                raise ConfigurationError(
                    f"bad RTO bounds: initial={rto_initial}, max={rto_max}")
            self._rto_max = rto_max
        elif self._rto_max < rto_initial:
            self._rto_max = rto_initial
        self._rto_initial = rto_initial

    @property
    def closed(self) -> bool:
        return self._closed

    def send(self, payload: bytes, *, unreliable: bool = False) -> None:
        """Queue ``payload`` for ordered, acknowledged delivery.

        With ``unreliable=True`` the payload is sent once as a RAW packet
        with no sequencing — the mode a fire-and-forget sensor uses.
        """
        if self._closed:
            return
        if unreliable:
            packet = Packet(type=PacketType.RAW,
                            sender=self._transport.service_id,
                            ack=self._last_delivered,
                            flags=PacketFlags.NO_ACK, payload=payload)
            self._transport.send(self._peer_address, packet.encode())
            return
        if len(payload) > MAX_PAYLOAD:    # _transmit does not check again
            raise PacketError(f"payload too large: {len(payload)} bytes")
        self._pending.append(payload)
        self._pump()

    def unacked_count(self) -> int:
        """Messages queued or in flight, awaiting acknowledgement."""
        return len(self._pending) + len(self._in_flight)

    def pending_count(self) -> int:
        """Messages queued but not yet transmitted (the sheddable backlog)."""
        return len(self._pending)

    def move_to(self, address: Address) -> None:
        """Follow the peer to ``address`` (it roamed): the queue and both
        sequence spaces carry on, and every unSACKed packet in flight is
        resent there at once rather than at its RTO."""
        self._peer_address = address
        for seq, entry in self._in_flight.items():
            if not entry.sacked:
                self._resend(seq, entry)
        self._ensure_timer()

    def shed_backlog(self, max_pending: int) -> int:
        """Drop the oldest untransmitted payloads beyond ``max_pending``.

        The edge backpressure actuator: a member that stops acking grows
        an unbounded pending queue; shedding bounds per-peer memory while
        keeping the newest (most clinically relevant) events.  Returns the
        number dropped; they are also counted in
        :attr:`ChannelStats.backlog_shed`.
        """
        if max_pending < 0:
            raise ConfigurationError(
                f"max_pending must be >= 0, got {max_pending}")
        dropped = 0
        while len(self._pending) > max_pending:
            self._pending.popleft()
            dropped += 1
        self.stats.backlog_shed += dropped
        return dropped

    def handle_packet(self, packet: Packet) -> None:
        """Process an incoming DATA/ACK/RAW packet from this channel's peer."""
        if self._closed:
            return
        self._peer_id = packet.sender
        ptype = packet.type
        # Every packet type may carry a piggy-backed cumulative ack; pure
        # ACKs also carry SACK ranges and feed duplicate-ack detection.
        self._process_ack(packet.ack, packet.sack,
                          pure_ack=ptype == PacketType.ACK)
        if ptype == PacketType.ACK:
            return
        if ptype == PacketType.DATA:
            self._process_data(packet)
            return
        if ptype == PacketType.RAW:
            self._deliver(packet.sender, packet.payload)
            return
        raise PacketError(f"channel cannot handle packet type {ptype.name}")

    def close(self) -> None:
        """Drop all queued state — a due ACK included.  Used when the peer
        is purged from the SMC, or its address changed hands."""
        self._closed = True
        self._pending.clear()
        self._in_flight.clear()
        self._reorder.clear()
        self._ack_due = False
        self._cancel_timer()

    # -- send machinery ----------------------------------------------------

    def _pump(self) -> None:
        pending, in_flight = self._pending, self._in_flight
        if not pending or len(in_flight) >= self._window:
            return
        now = self._scheduler.now()
        rto = self._rto_initial
        while pending and len(in_flight) < self._window:
            payload = pending.popleft()
            seq = self._next_seq
            self._next_seq = serial_succ(seq)
            in_flight[seq] = _InFlight(payload=payload, rto=rto,
                                       deadline=now + rto, sent_at=now)
            self._transmit(seq, payload)
        self._arm_timer(now + rto)

    def _transmit(self, seq: int, payload: bytes) -> None:
        packet = Packet.trusted(PacketType.DATA, self._sender, seq,
                                self._last_delivered, payload)
        self._ack_due = False               # this packet carries the ack
        self._transport.send(self._peer_address, packet.encode())
        self.stats.sent += 1

    def _arm_timer(self, deadline: float) -> None:
        """Have the retransmit timer fire no later than ``deadline``.

        Never *postpones* an armed timer: new transmissions carry later
        deadlines, and resetting the timer on every send would perpetually
        starve the oldest unacked packet's retransmission under a steady
        send stream.  A timer left early by an acked packet fires
        spuriously and re-arms — harmless.
        """
        if self._retransmit_timer is not None:
            if self._timer_deadline <= deadline + 1e-12:
                return
            self._retransmit_timer.cancel()
        self._timer_deadline = deadline
        self._retransmit_timer = self._scheduler.call_at(
            deadline, self._on_retransmit_timeout)

    def _cancel_timer(self) -> None:
        if self._retransmit_timer is not None:
            self._retransmit_timer.cancel()
            self._retransmit_timer = None
        self._timer_deadline = math.inf

    def _ensure_timer(self) -> None:
        """Re-derive the timer from every outstanding deadline: the loss
        paths' O(window) form; sends and cumulative acks move it in O(1)."""
        deadline = min((entry.deadline
                        for entry in self._in_flight.values()
                        if not entry.sacked), default=None)
        if deadline is None:
            self._cancel_timer()
        else:
            self._arm_timer(deadline)

    def _on_retransmit_timeout(self) -> None:
        self._cancel_timer()                # it has fired: forget it
        if self._closed or not self._in_flight:
            return
        now = self._scheduler.now()
        for seq, entry in list(self._in_flight.items()):
            if entry.sacked or entry.deadline > now + 1e-12:
                continue
            entry.rto = min(entry.rto * 2.0, self._rto_max)
            self._resend(seq, entry)
        self._ensure_timer()

    def _process_ack(self, ack: int, sack: tuple[tuple[int, int], ...],
                     *, pure_ack: bool) -> None:
        in_flight = self._in_flight
        if not in_flight:
            return                          # nothing outstanding to acknowledge
        now = self._scheduler.now()
        for start, end in sack:
            for seq, entry in in_flight.items():
                if (serial_leq(start, seq) and serial_leq(seq, end)
                        and not entry.sacked):
                    entry.sacked = True
                    if not entry.resent:
                        self._record_rtt(now - entry.sent_at)
        # A cumulative ack covers a prefix of the oldest-first window.
        acked = []
        if ack:
            for seq in in_flight:
                if not serial_leq(seq, ack):
                    break
                acked.append(seq)
        if acked:
            for seq in acked:
                entry = in_flight.pop(seq)
                # SACKed entries were sampled when the SACK arrived.
                if not entry.resent and not entry.sacked:
                    self._record_rtt(now - entry.sent_at)
            self._last_cum_ack = ack
            self._dup_acks = 0
            self._fast_rtx_seq = None
            if not in_flight:
                self._cancel_timer()
            self._pump()                    # refills the window
        elif pure_ack and ack == self._last_cum_ack:
            # A duplicate cumulative ack: the receiver got something beyond
            # a hole.  Three in a row fast-retransmit the hole.
            self._dup_acks += 1
            if self._dup_acks >= FAST_RETRANSMIT_DUPS:
                self._dup_acks = 0
                self._fast_retransmit()
        if sack:
            self._ensure_timer()            # SACKed packets leave the deadline set

    def _fast_retransmit(self) -> None:
        """Resend the oldest unSACKed packet, once per loss episode."""
        for seq, entry in self._in_flight.items():
            if entry.sacked:
                continue
            if seq == self._fast_rtx_seq:
                return                      # already resent this hole
            self._fast_rtx_seq = seq
            # Push the timeout out one private RTO, but no backoff: a fast
            # retransmit is evidence the path works, not that it is slow.
            self._resend(seq, entry)
            self.stats.fast_retransmits += 1
            self._ensure_timer()
            return

    def _resend(self, seq: int, entry: _InFlight) -> None:
        """Retransmit one packet; its next deadline is one private RTO out."""
        entry.deadline = self._scheduler.now() + entry.rto
        entry.resent = True
        self._transmit(seq, entry.payload)
        self.stats.retransmissions += 1

    def _record_rtt(self, sample: float) -> None:
        """Fold one round-trip sample into the RFC-6298 estimator.

        First sample initialises ``srtt = R`` and ``rttvar = R/2``;
        thereafter the standard EWMA update (alpha 1/8, beta 1/4).  The
        estimator lives in :attr:`stats` so observers — and the autonomic
        RTT controller — read it without touching channel internals.
        """
        if sample < 0.0:
            return
        stats = self.stats
        if stats.rtt_samples == 0:
            stats.srtt = sample
            stats.rttvar = sample / 2.0
        else:
            stats.rttvar = 0.75 * stats.rttvar + 0.25 * abs(stats.srtt - sample)
            stats.srtt = 0.875 * stats.srtt + 0.125 * sample
        stats.rtt_samples += 1

    # -- receive machinery ---------------------------------------------------

    def _process_data(self, packet: Packet) -> None:
        seq = packet.seq
        if seq == self._expected_seq:
            self._deliver_in_order(packet.sender, packet.payload)
            while self._expected_seq in self._reorder:
                self._deliver_in_order(packet.sender,
                                       self._reorder.pop(self._expected_seq))
            if self._ack_due:               # no reverse DATA carried it yet
                self._transport.call_at_turn_end(self._flush_ack)
            return
        # A loss signal: the sender counts duplicate acks, so the due ACK
        # goes out first, on its own, and this arrival is acked at once.
        self._flush_ack()
        if serial_lt(seq, self._expected_seq) or seq in self._reorder:
            self.stats.duplicates += 1
            self._send_ack()
            return
        self.stats.out_of_order += 1
        if len(self._reorder) < self._reorder_limit:
            self._reorder[seq] = packet.payload
        else:
            # Counted, not silent: the SACK we answer with excludes this
            # seq, so the sender keeps it outstanding and the RTO recovers
            # it once the buffer drains.
            self.stats.reorder_drops += 1
        self._send_ack()

    def _deliver_in_order(self, sender: ServiceId, payload: bytes) -> None:
        seq = self._expected_seq
        self._expected_seq = serial_succ(seq)
        self._last_delivered = seq
        self.stats.delivered += 1
        self._ack_due = True        # before the upcall: its reply may carry it
        self._deliver(sender, payload)

    def _sack_ranges(self) -> tuple[tuple[int, int], ...]:
        """Contiguous runs held in the reorder buffer, oldest first."""
        if not self._reorder:
            return ()
        base = self._expected_seq
        keys = sorted(self._reorder, key=lambda s: (s - base) % _SEQ_MOD)
        ranges: list[tuple[int, int]] = []
        start = prev = keys[0]
        for seq in keys[1:]:
            if seq == serial_succ(prev):
                prev = seq
                continue
            ranges.append((start, prev))
            start = prev = seq
        ranges.append((start, prev))
        return tuple(ranges[:MAX_SACK_RANGES])

    def _flush_ack(self) -> None:
        """Send the due ACK, if one still is (the end-of-turn callback)."""
        if self._ack_due:
            self._send_ack()

    def _send_ack(self) -> None:
        packet = Packet.trusted(PacketType.ACK, self._sender, 0,
                                self._last_delivered, b"", self._sack_ranges())
        self._ack_due = False
        self._transport.send(self._peer_address, packet.encode())
        self.stats.acks_sent += 1

    def __repr__(self) -> str:
        return (f"<ReliableChannel peer={self._peer_address!r} "
                f"window={self._window} in_flight={len(self._in_flight)} "
                f"pending={len(self._pending)} expected={self._expected_seq}>")
