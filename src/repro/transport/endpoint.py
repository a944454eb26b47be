"""Packet demultiplexing for one SMC node.

A :class:`PacketEndpoint` owns a transport and splits incoming datagrams
into two planes, mirroring the paper's separation of concerns between the
discovery protocol and the event bus:

* **control plane** — discovery packet types (BEACON, ANNOUNCE, JOIN_*,
  HEARTBEAT, LEAVE) are handed, unsequenced, to a registered control
  handler.  The discovery protocol "does not use the event bus" and
  tolerates datagram loss by design.
* **data plane** — DATA/ACK/RAW packets are routed to the per-peer
  :class:`~repro.transport.reliability.ReliableChannel`, created on demand,
  which delivers ordered, duplicate-free payloads upward.

The endpoint also learns the address of every service id it hears from, so
upper layers can address peers by id alone.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from repro.errors import AddressError, PacketError
from repro.ids import ServiceId
from repro.sim.kernel import Scheduler
from repro.transport.base import Address, Transport
from repro.transport.packets import Packet, PacketType
from repro.transport.reliability import DEFAULT_WINDOW, ChannelStats, ReliableChannel

ControlHandler = Callable[[Packet, Address], None]
PayloadHandler = Callable[[ServiceId, bytes], None]

_CONTROL_TYPES = frozenset({
    PacketType.BEACON, PacketType.ANNOUNCE, PacketType.JOIN_REQ,
    PacketType.JOIN_ACK, PacketType.JOIN_NAK, PacketType.HEARTBEAT,
    PacketType.LEAVE, PacketType.LEAVE_INTENT,
})


class PacketEndpoint:
    """Demultiplexes one transport into control and reliable-data planes."""

    def __init__(self, transport: Transport, scheduler: Scheduler,
                 *, window: int = DEFAULT_WINDOW, rto_initial: float = 0.05,
                 rto_max: float = 2.0) -> None:
        self.transport = transport
        self.scheduler = scheduler
        self._window = window
        self._rto_initial = rto_initial
        self._rto_max = rto_max
        self._channels: dict[Address, ReliableChannel] = {}
        self._peer_addresses: dict[ServiceId, Address] = {}
        # Reverse of _peer_addresses, kept for *every* address a peer has
        # used since it was last forgotten — a roamed peer owns several
        # entries at once.  Teardown of a roamed peer's whole channel
        # set derives from it.
        self._address_peers: dict[Address, ServiceId] = {}
        self._control_handler: ControlHandler | None = None
        self._payload_handler: PayloadHandler | None = None
        self.decode_errors = 0
        transport.set_receiver(self._on_datagram)

    # -- identity ------------------------------------------------------------

    @property
    def service_id(self) -> ServiceId:
        return self.transport.service_id

    @property
    def local_address(self) -> Address:
        return self.transport.local_address

    @property
    def window(self) -> int:
        """Send window every channel of this endpoint is created with.

        Upper layers use it to pick a batch flush size: a stop-and-wait
        hop wants one big payload per flush, a pipelined hop wants
        MTU-sized payloads that stream concurrently.
        """
        return self._window

    # -- wiring ------------------------------------------------------------

    def set_control_handler(self, handler: ControlHandler | None) -> None:
        """Register the discovery-plane packet handler."""
        self._control_handler = handler

    def set_payload_handler(self, handler: PayloadHandler | None) -> None:
        """Register the ordered-payload upcall: ``handler(peer_id, bytes)``."""
        self._payload_handler = handler

    # -- sending --------------------------------------------------------------

    def send_reliable(self, dest: Address, payload: bytes) -> None:
        """Send ``payload`` with ack/retransmit/ordering to ``dest``."""
        self._channel(dest).send(payload)

    def send_raw(self, dest: Address, payload: bytes) -> None:
        """Send ``payload`` once, unsequenced and unacknowledged."""
        self._channel(dest).send(payload, unreliable=True)

    def send_control(self, dest: Address, ptype: PacketType,
                     payload: bytes = b"") -> None:
        """Send a discovery-plane packet to one peer."""
        self._check_control(ptype)
        packet = Packet(type=ptype, sender=self.service_id, payload=payload)
        self.transport.send(dest, packet.encode())

    def broadcast_control(self, ptype: PacketType, payload: bytes = b"") -> None:
        """Broadcast a discovery-plane packet to the whole domain."""
        self._check_control(ptype)
        packet = Packet(type=ptype, sender=self.service_id, payload=payload)
        self.transport.broadcast(packet.encode())

    # -- peer bookkeeping -------------------------------------------------

    def address_of(self, peer: ServiceId) -> Address:
        """Last known transport address for ``peer``."""
        try:
            return self._peer_addresses[peer]
        except KeyError:
            raise AddressError(f"no known address for {peer}") from None

    def knows_peer(self, peer: ServiceId) -> bool:
        return peer in self._peer_addresses

    def learn_peer(self, peer: ServiceId, address: Address) -> None:
        """Record ``peer``'s address without waiting to hear a packet.

        Used when another subsystem (e.g. a New Member event) already knows
        where the peer lives.  Re-learning a peer at a new address (the
        peer *roamed*) keeps any channel state at its previous addresses
        attributed to it, so :meth:`close_channel` tears down the whole
        set when the member is purged.
        """
        previous_owner = self._address_peers.get(address)
        if previous_owner is not None and previous_owner != peer:
            # The address changed hands (e.g. a NAT rebind).  Channel
            # state there belongs to the previous peer's dead session:
            # its queued payloads must not surface at the new occupant,
            # and the new peer's sequence space is unrelated — so the
            # channel resets now, and the previous peer's stale forward
            # mapping goes with it.
            self.reset_channel_to(address)
            if self._peer_addresses.get(previous_owner) == address:
                del self._peer_addresses[previous_owner]
        self._peer_addresses[peer] = address
        self._address_peers[address] = peer

    def channel_to(self, address: Address) -> ReliableChannel:
        """The reliable channel to ``address`` (created if absent)."""
        return self._channel(address)

    def existing_channel(self, address: Address) -> ReliableChannel | None:
        """The live channel to ``address``, or None — never creates one.

        The observability accessor: reading stats must not instantiate
        channel state toward a purged or never-contacted peer.
        """
        channel = self._channels.get(address)
        if channel is None or channel.closed:
            return None
        return channel

    def channel_stats(self) -> ChannelStats:
        """Aggregate reliability counters over every live channel.

        Counters sum; the RTT estimator fields (``srtt``/``rttvar``) are
        per-path quantities, so the aggregate carries the *slowest* path —
        the one any endpoint-wide timeout decision must respect.
        """
        total = ChannelStats()
        for channel in self._channels.values():
            for field in dataclasses.fields(ChannelStats):
                setattr(total, field.name,
                        getattr(total, field.name)
                        + getattr(channel.stats, field.name))
        paths = [c.stats for c in self._channels.values() if c.stats.rtt_samples]
        total.srtt = max((s.srtt for s in paths), default=0.0)
        total.rttvar = max((s.rttvar for s in paths), default=0.0)
        return total

    def live_channels(self) -> list[ReliableChannel]:
        """Every open channel of this endpoint, any peer, any address.

        The autonomic control plane iterates these to read RTT estimates
        and actuate per-channel RTOs; observability code uses it to list
        per-peer counters without creating channel state.
        """
        return [channel for channel in self._channels.values()
                if not channel.closed]

    def channel_addresses(self, peer: ServiceId) -> set[Address]:
        """Addresses at which ``peer`` currently has live channel state.

        One entry for a settled peer; several while it has roamed and the
        superseded channels have not yet been torn down.
        """
        return {address for address, owner in self._address_peers.items()
                if owner == peer and address in self._channels}

    def close_channel(self, peer: ServiceId) -> int:
        """Destroy every channel to ``peer``, dropping any queued payloads.

        Covers the peer's current address *and* any address it roamed
        away from, so a purged member's queue at an old address dies with
        its proxy instead of leaking (and retransmitting) forever.
        Returns the number of undelivered payloads discarded.
        """
        dropped = 0
        for address in self.channel_addresses(peer):
            dropped += self.reset_channel_to(address)
        return dropped

    def reset_channel_to(self, address: Address) -> int:
        """Destroy any channel state for ``address``; next send starts
        fresh at sequence 1.

        Both ends of a membership session must reset together: a device
        calls this when a JOIN_ACK announces a new session, mirroring the
        fresh channel the cell created with its new proxy.  Returns the
        number of queued payloads discarded.
        """
        channel = self._channels.pop(address, None)
        if channel is None:
            return 0
        dropped = channel.unacked_count()
        channel.close()
        return dropped

    def move_peer(self, peer: ServiceId, new_address: Address) -> int:
        """Migrate ``peer``'s channel state to ``new_address`` (it roamed).

        Every channel at a superseded address is drained and torn down;
        its undelivered payloads are requeued, oldest first, on a channel
        to the new address — so a roamed member's queued deliveries follow
        it instead of retransmitting to the stale address until purge.
        The forward and reverse maps are updated through
        :meth:`learn_peer`, which also handles the new address having
        changed hands.  Returns the number of payloads requeued.
        """
        old_addresses = [address for address in self.channel_addresses(peer)
                         if address != new_address]
        payloads: list[bytes] = []
        for address in old_addresses:
            channel = self._channels.pop(address)
            payloads.extend(channel.drain_undelivered())
            # The superseded address hosts no state now; dropping its
            # reverse entry keeps the map from growing with every roam.
            if self._address_peers.get(address) == peer:
                del self._address_peers[address]
        self.learn_peer(peer, new_address)
        if payloads:
            channel = self._channel(new_address)
            for payload in payloads:
                channel.send(payload)
        return len(payloads)

    def forget_peer(self, peer: ServiceId) -> None:
        """Drop every channel and every learned address for ``peer``."""
        self.close_channel(peer)
        self._peer_addresses.pop(peer, None)
        stale = [address for address, owner in self._address_peers.items()
                 if owner == peer]
        for address in stale:
            del self._address_peers[address]

    def close(self) -> None:
        for channel in self._channels.values():
            channel.close()
        self._channels.clear()
        self._peer_addresses.clear()
        self._address_peers.clear()
        self.transport.close()

    # -- internals -----------------------------------------------------------

    def _check_control(self, ptype: PacketType) -> None:
        if ptype not in _CONTROL_TYPES:
            raise PacketError(f"{ptype.name} is not a control packet type")

    def _channel(self, address: Address) -> ReliableChannel:
        channel = self._channels.get(address)
        if channel is None or channel.closed:
            channel = ReliableChannel(
                self.transport, self.scheduler, address,
                self._on_channel_deliver, window=self._window,
                rto_initial=self._rto_initial, rto_max=self._rto_max)
            self._channels[address] = channel
        return channel

    def _on_channel_deliver(self, peer: ServiceId, payload: bytes) -> None:
        if self._payload_handler is not None:
            self._payload_handler(peer, payload)

    def _on_datagram(self, src: Address, datagram: bytes) -> None:
        try:
            packet = Packet.decode(datagram)
        except PacketError:
            self.decode_errors += 1
            return
        sender = packet.sender
        if sender == self.service_id:
            return          # broadcast echo of our own traffic
        # learn_peer keeps "forward entry => matching reverse entry": an
        # unchanged forward entry has nothing to learn; first contact, a
        # roam or an address handover takes the full path.
        if self._peer_addresses.get(sender) != src:
            self.learn_peer(sender, src)
        if packet.type in _CONTROL_TYPES:
            if self._control_handler is not None:
                self._control_handler(packet, src)
            return
        self._channel(src).handle_packet(packet)
