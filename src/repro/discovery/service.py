"""The cell-side discovery service.

Runs on the SMC core next to the event bus.  Broadcasts periodic BEACONs so
devices can find the cell; admits devices that ANNOUNCE themselves (after
authentication); tracks member liveness through HEARTBEATs; and drives the
one member state machine (:mod:`repro.discovery.lifecycle`) from each
member's silence, with a periodic sweep.

Membership *changes* are reported onto the event bus as ``smc.member.*``
events — that is the entire coupling between discovery and the bus, exactly
as the paper separates the two concerns.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.bootstrap import format_address
from repro.core.bus import EventBus
from repro.core.events import (
    MEMBER_MOVED_TYPE,
    MEMBER_STATE_TYPE,
    NEW_MEMBER_TYPE,
    PURGE_MEMBER_TYPE,
)
from repro.discovery.auth import AllowAllAuthenticator, Authenticator
from repro.discovery.lifecycle import LifecycleState
from repro.discovery.membership import MembershipTable, MemberRecord
from repro.discovery.messages import (
    AnnounceBody,
    BeaconBody,
    HeartbeatBody,
    JoinAckBody,
    JoinNakBody,
    LeaveBody,
    LeaveIntentBody,
)
from repro.errors import CodecError, ConfigurationError
from repro.ids import ServiceId
from repro.sim.kernel import Scheduler
from repro.transport.base import Address
from repro.transport.endpoint import PacketEndpoint
from repro.transport.packets import Packet, PacketType


@dataclass(frozen=True)
class DiscoveryConfig:
    """Timing and identity of one cell's discovery protocol.

    ``silent_after`` and ``purge_after`` realise the paper's masking of
    transient disconnections: a member silent for longer than
    ``silent_after`` is DEGRADED but keeps its proxy and queued events,
    and may stay silent for up to ``purge_after`` seconds (nurse out of
    the room) before the cell gives up on it and launches a Purge Member
    event (Section VI names exactly this timeout as a tuning scenario).
    """

    cell_name: str
    beacon_period_s: float = 1.0
    heartbeat_period_s: float = 1.0
    #: Silence beyond which a member is DEGRADED.  None means three
    #: heartbeat intervals: two missed may be jitter, three is a pattern.
    silent_after_s: float | None = None
    purge_after_s: float = 10.0
    sweep_period_s: float = 0.5
    #: How long a DRAINING member gets to flush its queued deliveries
    #: before drain degrades to the ordinary purge path.
    drain_deadline_s: float = 5.0

    def __post_init__(self) -> None:
        if not self.cell_name:
            raise ConfigurationError("cell_name must be non-empty")
        if self.silent_after_s is None:
            object.__setattr__(self, "silent_after_s",
                               3.0 * self.heartbeat_period_s)
        for name in ("beacon_period_s", "heartbeat_period_s",
                     "silent_after_s", "purge_after_s", "sweep_period_s",
                     "drain_deadline_s"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be > 0")
        if self.purge_after_s <= self.silent_after_s:
            raise ConfigurationError(
                "purge_after_s must exceed silent_after_s "
                "(DEGRADED is the masking state before a purge)")


@dataclass
class DiscoveryStats:
    beacons_sent: int = 0
    announces_seen: int = 0
    admissions: int = 0
    rejections: int = 0
    heartbeats_seen: int = 0
    recoveries: int = 0
    roams: int = 0
    purges: int = 0
    leaves: int = 0
    degradations: int = 0
    drains: int = 0
    drains_completed: int = 0
    drain_timeouts: int = 0


class DiscoveryService:
    """Beacons, admission, leases and the member state machine."""

    def __init__(self, bus: EventBus, endpoint: PacketEndpoint,
                 scheduler: Scheduler, config: DiscoveryConfig,
                 authenticator: Authenticator | None = None) -> None:
        self.bus = bus
        self.endpoint = endpoint
        self.scheduler = scheduler
        self.config = config
        self.authenticator = (authenticator if authenticator is not None
                              else AllowAllAuthenticator())
        self.table = MembershipTable()
        self.stats = DiscoveryStats()
        #: Observed silence at each DEGRADED transition — the measured
        #: ghost-detection latencies the ROADMAP and bench gate report.
        self.degraded_latencies: list[float] = []
        self._publisher = bus.local_publisher(f"discovery.{config.cell_name}")
        self._beacon_timer = None
        self._sweep_timer = None
        self._running = False
        endpoint.set_control_handler(self._on_control)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Begin beaconing and liveness sweeps."""
        if self._running:
            return
        self._running = True
        self._beacon_timer = self.scheduler.every(self.config.beacon_period_s,
                                                  self._send_beacon)
        self._sweep_timer = self.scheduler.every(self.config.sweep_period_s,
                                                 self._sweep)
        self._send_beacon()

    def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        if self._beacon_timer is not None:
            self._beacon_timer.cancel()
        if self._sweep_timer is not None:
            self._sweep_timer.cancel()

    @property
    def running(self) -> bool:
        return self._running

    # -- beaconing ----------------------------------------------------------

    def _send_beacon(self) -> None:
        body = BeaconBody(self.config.cell_name,
                          format_address(self.endpoint.local_address))
        self.endpoint.broadcast_control(PacketType.BEACON, body.encode())
        self.stats.beacons_sent += 1

    # -- control-plane dispatch ----------------------------------------------

    def _on_control(self, packet: Packet, src: Address) -> None:
        if not self._running:
            return
        try:
            if packet.type == PacketType.ANNOUNCE:
                self._on_announce(packet.sender, AnnounceBody.decode(packet.payload), src)
            elif packet.type == PacketType.HEARTBEAT:
                self._on_heartbeat(packet.sender,
                                   HeartbeatBody.decode(packet.payload), src)
            elif packet.type == PacketType.LEAVE:
                self._on_leave(packet.sender, LeaveBody.decode(packet.payload))
            elif packet.type == PacketType.LEAVE_INTENT:
                self._on_leave_intent(
                    packet.sender, LeaveIntentBody.decode(packet.payload))
            # BEACON/JOIN_* from other cells are ignored by the service side.
        except CodecError:
            return

    # -- admission ----------------------------------------------------------

    def _on_announce(self, member_id: ServiceId, announce: AnnounceBody,
                     src: Address) -> None:
        self.stats.announces_seen += 1
        record = self.table.get(member_id)
        if record is not None:
            # Known member re-announcing (e.g. it missed our ack, or it was
            # out of range): treat as liveness, re-ack idempotently.  The
            # membership session continues, so new_session=False.  An
            # announce from a *new* address is a roam: without the handover
            # the record keeps the stale address and the member's queued
            # deliveries retransmit there until purge.
            if src != record.address:
                self._handle_roam(record, src)
            self._update_capacity(record, announce.capacity)
            self._mark_heard(record)
            self._send_join_ack(src, new_session=False)
            return

        admitted, reason = self.authenticator.authenticate(member_id, announce)
        if not admitted:
            self.stats.rejections += 1
            self.endpoint.send_control(src, PacketType.JOIN_NAK,
                                       JoinNakBody(reason).encode())
            return

        now = self.scheduler.now()
        record = MemberRecord(member_id=member_id, name=announce.name,
                              device_type=announce.device_type, address=src,
                              admitted_at=now, last_heard=now,
                              capacity=announce.capacity)
        self.table.admit(record)
        self.stats.admissions += 1
        self.endpoint.learn_peer(member_id, src)
        self._send_join_ack(src, new_session=True)
        # "This is triggered by a discovery event": the New Member event is
        # what makes the rest of the cell (bootstrap, policy) react.
        self._publisher.publish(NEW_MEMBER_TYPE, {
            "member": int(member_id),
            "name": announce.name,
            "device_type": announce.device_type,
            "address": format_address(src),
            "capacity": announce.capacity,
        })

    def _send_join_ack(self, src: Address, *, new_session: bool) -> None:
        ack = JoinAckBody(self.config.cell_name,
                          self.config.heartbeat_period_s,
                          self.config.purge_after_s, new_session)
        self.endpoint.send_control(src, PacketType.JOIN_ACK, ack.encode())

    def _handle_roam(self, record: MemberRecord, src: Address) -> None:
        """Hand the member's transport state over to its new address.

        The endpoint migrates queued deliveries from every superseded
        channel (the PR 3 reverse-map machinery) and re-learns the
        forward mapping; the record follows, and a Member Moved event
        tells the rest of the cell (e.g. a directed-beacon domain).
        """
        old_address = record.address
        requeued = self.endpoint.move_peer(record.member_id, src)
        record.address = src
        self.stats.roams += 1
        self._publisher.publish(MEMBER_MOVED_TYPE, {
            "member": int(record.member_id), "name": record.name,
            "address": format_address(src),
            "old_address": format_address(old_address),
            "requeued": requeued,
        })

    # -- liveness ------------------------------------------------------------

    def _on_heartbeat(self, member_id: ServiceId, heartbeat: HeartbeatBody,
                      src: Address) -> None:
        record = self.table.get(member_id)
        if record is None:
            return            # heartbeat from a purged/unknown device
        self.stats.heartbeats_seen += 1
        if src != record.address:
            # A heartbeat can be the first packet heard after a roam
            # (announce lost, or the device never re-announced): the same
            # handover applies.
            self._handle_roam(record, src)
        if heartbeat.capacity:
            self._update_capacity(record, heartbeat.capacity)
        self._mark_heard(record)

    def _mark_heard(self, record: MemberRecord) -> None:
        record.last_heard = self.scheduler.now()
        if record.lifecycle is LifecycleState.DEGRADED:
            self.stats.recoveries += 1      # a ghost come back to life
        if record.lifecycle in (LifecycleState.JOINING,
                                LifecycleState.DEGRADED):
            # DRAINING is deliberately excluded: heartbeats while draining
            # only prove the member survived long enough to be flushed.
            self._set_lifecycle(record, LifecycleState.HEALTHY)

    def _update_capacity(self, record: MemberRecord, capacity: int) -> None:
        """Refresh a member's declared capacity, announcing the change."""
        if capacity == record.capacity:
            return
        record.capacity = capacity
        self._publish_state(record, previous=record.lifecycle)

    def _on_leave(self, member_id: ServiceId, leave: LeaveBody) -> None:
        record = self.table.get(member_id)
        if record is None:
            return
        self.stats.leaves += 1
        self._purge(record, reason=leave.reason)

    # -- graceful drain -------------------------------------------------------

    def _on_leave_intent(self, member_id: ServiceId,
                         intent: LeaveIntentBody) -> None:
        """Begin draining: flush the member's queue, then purge.

        Consolidates any roamed-channel remnants onto the member's live
        address (the PR 3 reverse-map machinery) so *every* queued
        delivery is on the channel the sweep watches, and reports the
        DRAINING transition — the member's proxy reacts by withdrawing
        its subscriptions and quenching its publishers, so the backlog
        only shrinks from here.  Idempotent: LEAVE_INTENT is a datagram
        and may be repeated.
        """
        record = self.table.get(member_id)
        if record is None or record.lifecycle is LifecycleState.DRAINING:
            return
        self.stats.drains += 1
        record.drain_started = self.scheduler.now()
        self.endpoint.move_peer(member_id, record.address)
        self._set_lifecycle(record, LifecycleState.DRAINING,
                            reason=intent.reason)

    def _drain_backlog(self, record: MemberRecord) -> int:
        """Undelivered payloads still queued for a draining member."""
        backlog = 0
        for address in self.endpoint.channel_addresses(record.member_id):
            channel = self.endpoint.existing_channel(address)
            if channel is not None:
                backlog += channel.unacked_count()
        return backlog

    # -- the sweep: silence drives the state machine -------------------------

    def _sweep(self) -> None:
        now = self.scheduler.now()
        for record in self.table.members():
            if record.lifecycle is LifecycleState.DRAINING:
                self._sweep_draining(record, now)
                continue
            silence = record.silence(now)
            if silence <= self.config.silent_after_s:
                continue
            if silence > self.config.purge_after_s:
                self._purge(record, reason="timeout")
            elif record.lifecycle is not LifecycleState.DEGRADED:
                self.stats.degradations += 1
                self.degraded_latencies.append(silence)
                self._set_lifecycle(record, LifecycleState.DEGRADED)

    def _sweep_draining(self, record: MemberRecord, now: float) -> None:
        """Draining members purge on empty backlog — or on the deadline.

        While DRAINING the silence timers are suspended: the member told
        us it is leaving, so silence is expected, and the only questions
        left are "is the queue flushed?" and "has it taken too long?".
        """
        assert record.drain_started is not None
        if self._drain_backlog(record) == 0:
            self.stats.drains_completed += 1
            self._purge(record, reason="drain")
        elif now - record.drain_started > self.config.drain_deadline_s:
            self.stats.drain_timeouts += 1
            self._purge(record, reason="drain-deadline")

    def _purge(self, record: MemberRecord, reason: str) -> None:
        """Remove a member and launch the Purge Member event.

        The event is what triggers the member's proxy to destroy itself
        and its queued events; discovery itself only maintains the table.
        """
        previous = record.lifecycle
        self.table.remove(record.member_id)   # also sets lifecycle GONE
        self.stats.purges += 1
        self._publish_state(record, previous=previous, reason=reason)
        self._publisher.publish(PURGE_MEMBER_TYPE, {
            "member": int(record.member_id), "name": record.name,
            "reason": reason,
        })

    # -- lifecycle reporting -------------------------------------------------

    def _set_lifecycle(self, record: MemberRecord, target: LifecycleState,
                       *, reason: str | None = None) -> None:
        previous = record.lifecycle
        if previous is target:
            return
        record.advance_lifecycle(target)
        self._publish_state(record, previous=previous, reason=reason)

    def _publish_state(self, record: MemberRecord, *,
                       previous: LifecycleState,
                       reason: str | None = None) -> None:
        attrs = {
            "member": int(record.member_id), "name": record.name,
            "state": record.lifecycle.value, "previous": previous.value,
            "capacity": record.capacity,
        }
        if reason is not None:
            attrs["reason"] = reason
        self._publisher.publish(MEMBER_STATE_TYPE, attrs)

    # -- queries ------------------------------------------------------------

    def member_names(self) -> list[str]:
        return [record.name for record in self.table.members()]

    def is_member(self, member_id: ServiceId) -> bool:
        return member_id in self.table
