"""The device-side discovery agent.

Every device (sensor, actuator, PDA application) runs one agent.  The agent
listens for cell BEACONs, announces the device with its credentials,
heartbeats while joined, and detects falling out of range (beacon silence)
so the device can stop transmitting and re-join when the cell is heard
again — the mobile side of the paper's join/leave dynamics.

State machine::

    SEARCHING --beacon--> ANNOUNCING --JOIN_ACK--> JOINED --leave_gracefully--> DRAINING
        ^                     |  ^                   |
        |                JOIN_NAK  beacon          beacon silence
        +--- REJECTED <-------+   (re-announce)      |
        ^                                            v
        +------------------- beacon silence ---- SEARCHING

Announce retries and post-rejection retries use jittered exponential
backoff: when a cell at capacity NAKs a ward full of devices, fixed
delays would re-synchronise every one of them into lockstep announce
storms; the jitter (deterministic per device name) spreads them out.
"""

from __future__ import annotations

import enum
import random
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.discovery.messages import (
    AnnounceBody,
    BeaconBody,
    HeartbeatBody,
    JoinAckBody,
    JoinNakBody,
    LeaveBody,
    LeaveIntentBody,
)
from repro.errors import CodecError, ConfigurationError, TransportClosedError
from repro.sim.kernel import Scheduler
from repro.transport.base import Address
from repro.transport.endpoint import PacketEndpoint
from repro.transport.packets import Packet, PacketType

if TYPE_CHECKING:
    from repro.core.client import BusClient


#: Cap on the exponential announce-retry backoff.
ANNOUNCE_BACKOFF_CAP_S = 8.0
#: Base delay a REJECTED agent waits before trying again; doubles per
#: consecutive rejection (with jitter) up to the cap.
REJECTION_BACKOFF_S = 30.0
REJECTION_BACKOFF_CAP_S = 120.0


class AgentState(enum.Enum):
    SEARCHING = "searching"
    ANNOUNCING = "announcing"
    JOINED = "joined"
    DRAINING = "draining"
    REJECTED = "rejected"
    STOPPED = "stopped"


@dataclass(frozen=True)
class AgentConfig:
    """Identity and timing of one device's agent."""

    name: str
    device_type: str
    credentials: bytes = b""
    #: Only join a cell with this name (None = first cell heard).
    target_cell: str | None = None
    #: Declare the cell out of range after this much beacon silence.
    beacon_timeout_s: float = 3.5
    #: Base re-announce delay while waiting for a JOIN_ACK; doubles per
    #: unanswered announce (with jitter) up to ``ANNOUNCE_BACKOFF_CAP_S``.
    announce_retry_s: float = 1.0
    #: Declared inbound event capacity (0 = undeclared), carried on
    #: announces and heartbeats for the cell's backpressure controllers.
    capacity: int = 0

    def __post_init__(self) -> None:
        if not self.name or not self.device_type:
            raise ConfigurationError("agent needs a name and a device_type")
        for field_name in ("beacon_timeout_s", "announce_retry_s"):
            if getattr(self, field_name) <= 0:
                raise ConfigurationError(f"{field_name} must be > 0")
        if self.capacity < 0:
            raise ConfigurationError("capacity must be >= 0")


@dataclass
class AgentStats:
    beacons_heard: int = 0
    announces_sent: int = 0
    joins: int = 0
    rejections: int = 0
    losses: int = 0           # times the cell went out of range
    heartbeats_sent: int = 0


class DiscoveryAgent:
    """Finds a cell, joins it, keeps the membership alive."""

    def __init__(self, endpoint: PacketEndpoint, scheduler: Scheduler,
                 config: AgentConfig) -> None:
        self.endpoint = endpoint
        self.scheduler = scheduler
        self.config = config
        self.state = AgentState.STOPPED
        self.stats = AgentStats()
        self.cell_name: str | None = None
        self.core_address: Address | None = None
        #: The device's bus client, if it runs one.  It follows the
        #: membership: pointed at the core on every join (see
        #: :meth:`_open_session`), disconnected when the cell is lost.
        self.client: BusClient | None = None
        #: Invoked as ``on_joined(cell_name, core_address)``, after the
        #: session is open.
        self.on_joined: Callable[[str, Address], None] | None = None
        #: True when the most recent JOIN_ACK opened a *new* membership
        #: session (see JoinAckBody.new_session); read it in on_joined.
        self.last_join_was_new = True
        #: Invoked as ``on_left(reason)`` when membership is lost.
        self.on_left: Callable[[str], None] | None = None
        #: Invoked as ``on_rejected(reason)``.
        self.on_rejected: Callable[[str], None] | None = None

        self._heartbeat_timer = None
        self._announce_timer = None
        self._watchdog_timer = None
        self._rejection_timer = None
        self._last_beacon_at: float | None = None
        self._heartbeat_period_s: float | None = None
        self._announce_attempts = 0
        self._rejection_streak = 0
        self._frozen = False
        # Deterministic per-device jitter stream: reproducible in the
        # simulator, yet different devices desynchronise from each other.
        self._rng = random.Random(zlib.crc32(config.name.encode("utf-8")))
        endpoint.set_control_handler(self._on_control)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Begin searching for a cell."""
        if self.state != AgentState.STOPPED:
            return
        self._enter_searching()

    def announce_to(self, core_address: Address,
                    cell_name: str | None = None) -> None:
        """Join via a known rendezvous address instead of awaiting a beacon.

        Deployments on networks without a broadcast domain (loopback, most
        cloud fabrics) learn the cell's address out of band — this is the
        unicast bootstrap the deployment mode's client harness uses.  The
        agent enters ANNOUNCING immediately; the rest of the state machine
        (JOIN_ACK/NAK, heartbeats, beacon watchdog once directed beacons
        start arriving) is unchanged.  A no-op while already joined.
        """
        if self.state == AgentState.JOINED:
            return
        self._cancel_timers()
        self.state = AgentState.SEARCHING
        self.cell_name = cell_name
        self.core_address = core_address
        self._enter_announcing()

    def stop(self) -> None:
        """Politely leave (if joined) and stop all timers.  Idempotent:
        a second stop finds state STOPPED and every timer handle None, so
        nothing is sent and nothing is cancelled twice."""
        if self.state == AgentState.JOINED and self.core_address is not None:
            try:
                self.endpoint.send_control(self.core_address, PacketType.LEAVE,
                                           LeaveBody("leave").encode())
            except TransportClosedError:
                # The socket died first (crash-style shutdown): the polite
                # LEAVE is best-effort, the cell's lease reaps us anyway.
                pass
        self._cancel_timers()
        self.state = AgentState.STOPPED
        self._forget_cell()
        self._frozen = False

    def leave_gracefully(self, reason: str = "drain") -> None:
        """Announce departure and keep heartbeating while the cell drains.

        Sends LEAVE_INTENT and enters DRAINING: the cell flushes our
        queued deliveries before purging us, so a planned departure loses
        no matched events.  The caller decides when to actually call
        :meth:`stop` (e.g. on the purge notification, or after the drain
        deadline).  A no-op unless currently JOINED.
        """
        if self.state != AgentState.JOINED or self.core_address is None:
            return
        self.endpoint.send_control(self.core_address, PacketType.LEAVE_INTENT,
                                   LeaveIntentBody(reason).encode())
        self.state = AgentState.DRAINING

    def freeze(self) -> None:
        """Simulate a process stall: stop all timers but keep state.

        Fault-injection hook (the deploy harness pairs it with dropping
        the transport's reads).  A frozen agent sends no heartbeats and
        processes no control packets until :meth:`thaw`.
        """
        if self._frozen or self.state == AgentState.STOPPED:
            return
        self._frozen = True
        self._cancel_timers()

    def thaw(self) -> None:
        """Resume after :meth:`freeze`, restarting the timers the current
        state needs.  The membership itself may have been purged while
        frozen — the next heartbeat or announce sorts that out."""
        if not self._frozen:
            return
        self._frozen = False
        if self.state in (AgentState.JOINED, AgentState.DRAINING):
            if self._heartbeat_period_s is not None:
                self._start_heartbeats(self._heartbeat_period_s)
            self._start_watchdog()
        elif self.state == AgentState.ANNOUNCING:
            self._announce_attempts = 0
            self._send_announce()
            self._schedule_announce_retry()
            self._start_watchdog()

    @property
    def joined(self) -> bool:
        return self.state == AgentState.JOINED

    # -- control-plane dispatch ----------------------------------------------

    def _on_control(self, packet: Packet, src: Address) -> None:
        if self.state == AgentState.STOPPED or self._frozen:
            return
        try:
            if packet.type == PacketType.BEACON:
                self._on_beacon(BeaconBody.decode(packet.payload), src)
            elif packet.type == PacketType.JOIN_ACK:
                self._on_join_ack(JoinAckBody.decode(packet.payload), src)
            elif packet.type == PacketType.JOIN_NAK:
                self._on_join_nak(JoinNakBody.decode(packet.payload))
        except CodecError:
            return

    def _on_beacon(self, beacon: BeaconBody, src: Address) -> None:
        if (self.config.target_cell is not None
                and beacon.cell_name != self.config.target_cell):
            return
        self.stats.beacons_heard += 1
        self._last_beacon_at = self.scheduler.now()
        if self.state == AgentState.SEARCHING:
            self.cell_name = beacon.cell_name
            self.core_address = src
            self._enter_announcing()

    def _on_join_ack(self, ack: JoinAckBody, src: Address) -> None:
        if self.state not in (AgentState.ANNOUNCING, AgentState.JOINED):
            return
        first_join = self.state is AgentState.ANNOUNCING
        self.state = AgentState.JOINED
        self.cell_name = ack.cell_name
        self.core_address = src
        self._cancel_announce()
        self.last_join_was_new = ack.new_session
        self._rejection_streak = 0
        if first_join:
            self.stats.joins += 1
            self._start_heartbeats(ack.heartbeat_period_s)
            self._open_session(src, ack.new_session)
            if self.on_joined is not None:
                self.on_joined(ack.cell_name, src)

    def _open_session(self, core_address: Address, new_session: bool) -> None:
        """The new-session rule, written once for every device stack.

        ``new_session`` means the cell built a fresh proxy and channel for
        us (first admission, or purged and re-admitted).  Channel state
        from an earlier session is stale — its sequence numbers would
        park every later payload in the core's reorder buffer — and the
        new proxy has no subscription table, so the client's
        subscriptions are re-issued.  Otherwise the disconnection was
        masked: the session continues and only the address is refreshed.
        """
        if new_session:
            self.endpoint.reset_channel_to(core_address)
        if self.client is not None:
            self.client.bus_address = core_address
            if new_session:
                self.client.resubscribe_all()

    def _forget_cell(self) -> None:
        self.cell_name = None
        self.core_address = None
        if self.client is not None:
            self.client.bus_address = None

    def _on_join_nak(self, nak: JoinNakBody) -> None:
        if self.state != AgentState.ANNOUNCING:
            return
        self.state = AgentState.REJECTED
        self.stats.rejections += 1
        self._rejection_streak += 1
        self._cancel_announce()
        self._rejection_timer = self.scheduler.call_later(
            self._backoff(REJECTION_BACKOFF_S, self._rejection_streak - 1,
                          REJECTION_BACKOFF_CAP_S),
            self._retry_after_rejection)
        if self.on_rejected is not None:
            self.on_rejected(nak.reason)

    def _retry_after_rejection(self) -> None:
        self._rejection_timer = None
        if self.state == AgentState.REJECTED:
            self._enter_searching()

    def _backoff(self, base_s: float, attempt: int, cap_s: float) -> float:
        """Jittered exponential backoff: ``min(cap, base * 2^attempt)``
        scaled by a uniform factor in [0.5, 1.5)."""
        delay = min(cap_s, base_s * (2.0 ** attempt))
        return delay * (0.5 + self._rng.random())

    # -- states --------------------------------------------------------------

    def _enter_searching(self) -> None:
        self._cancel_timers()
        self.state = AgentState.SEARCHING
        self._forget_cell()
        self._last_beacon_at = None

    def _enter_announcing(self) -> None:
        self.state = AgentState.ANNOUNCING
        self._announce_attempts = 0
        self._send_announce()
        self._schedule_announce_retry()
        self._start_watchdog()

    def _schedule_announce_retry(self) -> None:
        self._announce_timer = self.scheduler.call_later(
            self._backoff(self.config.announce_retry_s,
                          self._announce_attempts, ANNOUNCE_BACKOFF_CAP_S),
            self._announce_retry)

    def _announce_retry(self) -> None:
        self._announce_timer = None
        if self.state != AgentState.ANNOUNCING:
            return
        self._announce_attempts += 1
        self._send_announce()
        self._schedule_announce_retry()

    def _send_announce(self) -> None:
        if self.core_address is None:
            return
        body = AnnounceBody(self.config.name, self.config.device_type,
                            self.config.credentials, self.config.capacity)
        self.endpoint.send_control(self.core_address, PacketType.ANNOUNCE,
                                   body.encode())
        self.stats.announces_sent += 1

    def _start_heartbeats(self, period_s: float) -> None:
        if self._heartbeat_timer is not None:
            self._heartbeat_timer.cancel()
        self._heartbeat_period_s = period_s
        self._heartbeat_timer = self.scheduler.every(period_s,
                                                     self._send_heartbeat)

    def _send_heartbeat(self) -> None:
        # DRAINING members keep heartbeating: the cell must be able to
        # tell "draining, alive" from "crashed mid-drain".
        if (self.state in (AgentState.JOINED, AgentState.DRAINING)
                and self.core_address is not None):
            payload = (HeartbeatBody(self.config.capacity).encode()
                       if self.config.capacity else b"")
            self.endpoint.send_control(self.core_address,
                                       PacketType.HEARTBEAT, payload)
            self.stats.heartbeats_sent += 1

    # -- out-of-range watchdog ----------------------------------------------

    def _start_watchdog(self) -> None:
        if self._watchdog_timer is None:
            self._watchdog_timer = self.scheduler.every(
                self.config.beacon_timeout_s / 2.0, self._check_beacons)

    def _check_beacons(self) -> None:
        if self.state not in (AgentState.JOINED, AgentState.ANNOUNCING):
            return
        if self._last_beacon_at is None:
            return
        silence = self.scheduler.now() - self._last_beacon_at
        if silence > self.config.beacon_timeout_s:
            was_joined = self.state == AgentState.JOINED
            self.stats.losses += 1
            # Cancels every timer, this watchdog included: searching needs
            # none (the next beacon restarts the cycle).
            self._enter_searching()
            if was_joined and self.on_left is not None:
                self.on_left("beacon silence")

    # -- internals ---------------------------------------------------------

    def _cancel_announce(self) -> None:
        if self._announce_timer is not None:
            self._announce_timer.cancel()
            self._announce_timer = None

    def _cancel_timers(self) -> None:
        self._cancel_announce()
        for timer in (self._heartbeat_timer, self._watchdog_timer,
                      self._rejection_timer):
            if timer is not None:
                timer.cancel()
        self._heartbeat_timer = None
        self._watchdog_timer = None
        self._rejection_timer = None
