"""Abstract transport interface (paper Section III-D).

"This transport layer presents recv() and send() calls to objects which
make use of it.  Respectively, the layer returns and accepts arrays of
bytes."  We keep that byte-array contract, and add an optional push-style
receiver callback because the reactor-driven stack above is callback based;
``recv()`` remains available for poll-style use (and mirrors the paper's
API exactly).

Concrete transports differ only in construction — "much of the complexity
of the underlying transport can be hidden within the constructor of a
concrete transport class" — and in their address type:

=====================  =========================
transport              address
=====================  =========================
InMemoryTransport      node name (str)
SimTransport           node name (str)
UdpTransport           (host, port) tuple
=====================  =========================
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Hashable

from repro.errors import TransportClosedError
from repro.ids import ServiceId
from repro.sim.kernel import Scheduler

Address = Hashable
ReceiveCallback = Callable[[Address, bytes], None]
TurnEndCallback = Callable[[], None]


@dataclass
class TransportStats:
    """Counters every transport maintains."""

    datagrams_sent: int = 0
    datagrams_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    broadcasts_sent: int = 0
    receive_queue_high_water: int = field(default=0, repr=False)


class Transport:
    """Base class for datagram transports.

    Subclasses implement :meth:`_send_datagram` and
    :meth:`_broadcast_datagram` and call :meth:`_deliver` when a datagram
    arrives.  Delivery goes to the registered callback when one is set,
    otherwise datagrams queue for :meth:`recv`.
    """

    def __init__(self, service_id: ServiceId, local_address: Address,
                 scheduler: Scheduler | None = None) -> None:
        self._service_id = service_id
        self._local_address = local_address
        self._receiver: ReceiveCallback | None = None
        self._inbox: deque[tuple[Address, bytes]] = deque()
        # Receive turn (call_at_turn_end): arrivals are ``scheduler``
        # events, or a socket drain bracketed by _turn_open/_end_turn().
        self._turn_scheduler = scheduler
        self._turn_open = False
        self._turn_end: dict[TurnEndCallback, None] = {}    # ordered set
        self._closed = False
        self.stats = TransportStats()

    # -- identity --------------------------------------------------------

    @property
    def service_id(self) -> ServiceId:
        """48-bit id derived from this transport's address (Section IV)."""
        return self._service_id

    @property
    def local_address(self) -> Address:
        return self._local_address

    @property
    def closed(self) -> bool:
        return self._closed

    # -- sending -----------------------------------------------------------

    def send(self, dest: Address, payload: bytes) -> None:
        """Send ``payload`` to ``dest`` (best-effort datagram)."""
        self._check_open()
        self.stats.datagrams_sent += 1
        self.stats.bytes_sent += len(payload)
        self._send_datagram(dest, payload)

    def broadcast(self, payload: bytes) -> None:
        """Send ``payload`` to every reachable peer (discovery traffic)."""
        self._check_open()
        self.stats.broadcasts_sent += 1
        self.stats.bytes_sent += len(payload)
        self._broadcast_datagram(payload)

    # -- receiving -----------------------------------------------------------

    def set_receiver(self, callback: ReceiveCallback | None) -> None:
        """Register (or clear) the push-style receive callback.

        Registering a callback flushes any datagrams already queued, in
        arrival order, so no data is lost if traffic arrives before the
        upper layer finishes wiring itself.
        """
        self._receiver = callback
        if callback is not None:
            while self._inbox:
                src, payload = self._inbox.popleft()
                callback(src, payload)

    def recv(self) -> tuple[Address, bytes] | None:
        """Pull one queued datagram, or None (the paper's poll-style API)."""
        self._check_open()
        if self._inbox:
            return self._inbox.popleft()
        return None

    def pending(self) -> int:
        """Datagrams waiting in the pull queue."""
        return len(self._inbox)

    def call_at_turn_end(self, callback: TurnEndCallback) -> None:
        """Run ``callback()`` once when the current *receive turn* ends.

        A turn is one batch of arrivals handed up back to back: one drain
        of a UDP socket, or everything arriving at one scheduler instant.
        It is the unit of acknowledgement *and of publication*: the
        reliable channel defers its cumulative ACK to it, and the event
        bus the member publications the turn brought in
        (:meth:`~repro.core.bus.EventBus.publish_at_turn_end`), so
        deferred work costs once per turn, not per datagram, and is never
        later than the turn that caused it (no timer).  Registering the
        same callback again within a turn is a no-op.  On a socket
        transport outside a drain (packets fed in by hand, or pulled with
        :meth:`recv`) the callback runs at once.
        """
        if self._turn_scheduler is not None:
            if not self._turn_end:
                # Behind every arrival already queued for this instant.
                self._turn_scheduler.call_soon(self._end_turn)
        elif not self._turn_open:
            callback()
            return
        self._turn_end[callback] = None

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release resources.  Idempotent; further sends raise."""
        self._closed = True

    # -- subclass hooks ---------------------------------------------------

    def _send_datagram(self, dest: Address, payload: bytes) -> None:
        raise NotImplementedError

    def _broadcast_datagram(self, payload: bytes) -> None:
        raise NotImplementedError

    def _deliver(self, src: Address, payload: bytes) -> None:
        """Called by subclasses when a datagram arrives."""
        if self._closed:
            return
        self.stats.datagrams_received += 1
        self.stats.bytes_received += len(payload)
        if self._receiver is not None:
            self._receiver(src, payload)
            return
        self._inbox.append((src, payload))
        if len(self._inbox) > self.stats.receive_queue_high_water:
            self.stats.receive_queue_high_water = len(self._inbox)

    def _end_turn(self) -> None:
        """Close the receive turn and run what was deferred to its end.

        A turn always pays its debts: every callback runs whatever an
        earlier one raised (the publish flush and each channel's ACK share
        this list), and the first error leaves once all of them have.
        """
        self._turn_open = False
        callbacks, self._turn_end = self._turn_end, {}
        if self._closed:
            return          # closed mid-turn: nothing may be sent any more
        error: BaseException | None = None
        for callback in callbacks:
            try:
                callback()
            except BaseException as exc:
                if error is None:
                    error = exc
        if error is not None:
            raise error

    def _check_open(self) -> None:
        if self._closed:
            raise TransportClosedError(
                f"transport {self._local_address!r} is closed")

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (f"<{type(self).__name__} addr={self._local_address!r} "
                f"id={self._service_id} {state}>")
