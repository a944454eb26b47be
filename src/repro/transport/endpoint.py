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

The endpoint is the one owner of where each peer is: it learns the address
of every service id it hears from, so upper layers address peers by id
alone, and each peer has exactly one channel, at its current address.  A
peer heard from a new address has roamed, and :meth:`PacketEndpoint.
learn_peer` moves its channel there.
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
        # Who is at each address now: the exact reverse of _peer_addresses.
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
        """Record that ``peer`` is at ``address`` now.

        A peer heard from a new address has *roamed*: its one channel
        moves there, queue and sequence space intact (the peer's stack
        carries on), and what is in flight is resent there at once.  An
        address that changes hands resets its channel — the previous
        peer's session there is dead, and it is left with no address.
        """
        old_address = self._peer_addresses.get(peer)
        if old_address == address:
            return
        self._address_peers.pop(old_address, None)   # no-ops on first contact
        channel = self._channels.pop(old_address, None)
        if channel is not None or address in self._address_peers:
            self.reset_channel_to(address)
        if channel is not None:
            channel.move_to(address)
            self._channels[address] = channel
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
        return self._channels.get(address)

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
        return list(self._channels.values())

    def peer_channel(self, peer: ServiceId) -> ReliableChannel | None:
        """The live channel at ``peer``'s current address, or None."""
        return self._channels.get(self._peer_addresses.get(peer))

    def close_channel(self, peer: ServiceId) -> int:
        """Forget ``peer``: destroy its channel, dropping any queued
        payloads, and its address.  Returns the number of undelivered
        payloads discarded."""
        address = self._peer_addresses.get(peer)
        return 0 if address is None else self.reset_channel_to(address)

    def reset_channel_to(self, address: Address) -> int:
        """Destroy any channel state for ``address`` and forget who is
        there; the next send starts fresh at sequence 1.

        Both ends of a membership session must reset together: a device
        calls this when a JOIN_ACK announces a new session, mirroring the
        fresh channel the cell created with its new proxy.  Returns the
        number of queued payloads discarded.
        """
        peer = self._address_peers.pop(address, None)
        if peer is not None:
            del self._peer_addresses[peer]
        channel = self._channels.pop(address, None)
        if channel is None:
            return 0
        dropped = channel.unacked_count()
        channel.close()
        return dropped

    def close(self) -> None:
        for channel in self._channels.values():
            channel.close()
        self._channels.clear()
        self.transport.close()

    # -- internals -----------------------------------------------------------

    def _check_control(self, ptype: PacketType) -> None:
        if ptype not in _CONTROL_TYPES:
            raise PacketError(f"{ptype.name} is not a control packet type")

    def _channel(self, address: Address) -> ReliableChannel:
        channel = self._channels.get(address)
        if channel is None:
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
        # An unchanged mapping has nothing to learn; first contact, a
        # roam or an address handover takes the full path.
        if self._peer_addresses.get(sender) != src:
            self.learn_peer(sender, src)
        if packet.type in _CONTROL_TYPES:
            if self._control_handler is not None:
                self._control_handler(packet, src)
            return
        self._channel(src).handle_packet(packet)
