"""Real UDP datagram transport.

This is the transport the paper's prototype used: "Sockets are opened
within the Transport constructor, and subsequent send() and recv() calls
are wrappers around send and receive calls over these sockets."

As in the prototype, the socket is *not* bound to a fixed port — "the
operating system is free to choose the port number", and the 48-bit service
id is derived from the resulting address+port.  Broadcast traffic for
discovery is sent to a well-known port; on loopback test networks (where
real broadcast is unavailable) a peer list stands in for the broadcast
domain.

The transport is non-blocking and integrates with
:class:`~repro.sim.kernel.RealtimeScheduler` as a pollable; it can also be
driven manually with :meth:`poll` for single-threaded integration tests.
"""

from __future__ import annotations

import errno
import socket

from repro.errors import AddressError, TransportError
from repro.ids import service_id_from_socket
from repro.transport.base import Transport

#: "Broadcast traffic ... is delivered on an arbitrarily chosen port number
#: known by services" (Section IV).
DEFAULT_DISCOVERY_PORT = 41200

_RECV_BUFFER = 65535

#: Datagrams one receive turn hands up at most.  A turn holds open its
#: ACKs, the scheduler's due timers and the bus's turn queue; reliable
#: senders are window-limited, but a RAW or hostile flood that refills the
#: socket as fast as it is read would otherwise keep one drain, and so
#: one turn, going for as long as it lasts.  256 small datagrams is what
#: a default-sized (208 KiB) Linux receive buffer holds, so a drain of
#: what was waiting is never cut short; the selector is level-triggered,
#: so whatever is left starts the next turn.
TURN_DATAGRAMS = 256


class _SocketPollable:
    """Adapter exposing one extra socket as a RealtimeScheduler pollable.

    The transport itself is the pollable for its unicast socket; the
    broadcast/discovery socket needs its own fd registration or BEACON and
    ANNOUNCE traffic is never drained by the scheduler loop (it used to be
    reachable only through the test-only :meth:`UdpTransport.poll`).
    """

    __slots__ = ("_sock", "_drain")

    def __init__(self, sock: socket.socket, drain) -> None:
        self._sock = sock
        self._drain = drain

    def fileno(self) -> int:
        return self._sock.fileno()

    def on_readable(self) -> None:
        self._drain(self._sock)


class UdpTransport(Transport):
    """Datagram transport over a real UDP socket."""

    def __init__(self, bind_host: str = "127.0.0.1", bind_port: int = 0,
                 discovery_port: int = DEFAULT_DISCOVERY_PORT,
                 listen_for_broadcast: bool = False,
                 directed_only: bool = False) -> None:
        #: When True, broadcast reaches only the configured peer list and
        #: an empty list is a silent no-op — never the real broadcast
        #: address.  Deployment mode uses this on broadcast-free networks
        #: (loopback, cloud fabrics), where a fallback sendto to
        #: 255.255.255.255 from a loopback-bound socket would raise.
        self._directed_only = directed_only
        self._socket = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._socket.setblocking(False)
        # Fork-safety: match workers (and any other child) must never
        # inherit the cell's sockets — PEP 446 makes this the default,
        # but the guarantee is load-bearing here, so state it.
        self._socket.set_inheritable(False)
        try:
            self._socket.bind((bind_host, bind_port))
        except OSError as exc:
            self._socket.close()
            raise TransportError(f"cannot bind {bind_host}:{bind_port}: {exc}") from exc
        host, port = self._socket.getsockname()
        super().__init__(service_id=service_id_from_socket(host, port),
                         local_address=(host, port))
        self._discovery_port = discovery_port
        self._broadcast_peers: list[tuple[str, int]] = []
        self._broadcast_socket: socket.socket | None = None
        self._broadcast_pollable: _SocketPollable | None = None
        if listen_for_broadcast:
            self._broadcast_socket = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            self._broadcast_socket.setblocking(False)
            self._broadcast_socket.set_inheritable(False)
            self._broadcast_socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            try:
                self._broadcast_socket.bind((bind_host, discovery_port))
            except OSError as exc:
                self._broadcast_socket.close()
                self._socket.close()
                raise TransportError(
                    f"cannot bind discovery port {discovery_port}: {exc}") from exc
            if discovery_port == 0:
                # Tests bind an OS-chosen discovery port to avoid
                # collisions; record the real one so peers can be told.
                self._discovery_port = self._broadcast_socket.getsockname()[1]
            self._broadcast_pollable = _SocketPollable(self._broadcast_socket,
                                                       self._drain)

    # -- broadcast domain ---------------------------------------------------

    def set_broadcast_peers(self, peers: list[tuple[str, int]]) -> None:
        """Configure the stand-in broadcast domain (loopback networks)."""
        self._broadcast_peers = list(peers)

    @property
    def discovery_port(self) -> int:
        return self._discovery_port

    # -- Transport hooks -------------------------------------------------

    def _send_datagram(self, dest, payload: bytes) -> None:
        if not (isinstance(dest, tuple) and len(dest) == 2):
            raise AddressError(f"UDP addresses are (host, port), got {dest!r}")
        try:
            self._socket.sendto(payload, dest)
        except OSError as exc:
            # Datagram semantics: full buffers mean silent loss, like a
            # congested link; anything else is a real error.
            if exc.errno not in (errno.EAGAIN, errno.EWOULDBLOCK, errno.ENOBUFS):
                raise TransportError(f"sendto {dest} failed: {exc}") from exc

    def _broadcast_datagram(self, payload: bytes) -> None:
        if self._broadcast_peers:
            for peer in self._broadcast_peers:
                self._send_datagram(peer, payload)
            return
        if self._directed_only:
            return
        try:
            self._socket.setsockopt(socket.SOL_SOCKET, socket.SO_BROADCAST, 1)
            self._socket.sendto(payload, ("<broadcast>", self._discovery_port))
        except OSError as exc:
            raise TransportError(f"broadcast failed: {exc}") from exc

    # -- polling --------------------------------------------------------

    def fileno(self) -> int:
        """Unicast socket fd (RealtimeScheduler pollable protocol)."""
        return self._socket.fileno()

    def on_readable(self) -> None:
        """Drain the unicast socket (RealtimeScheduler pollable protocol)."""
        self._drain(self._socket)

    def pollables(self) -> list:
        """Every fd source this transport reads: register all of them.

        The transport itself covers the unicast socket; when a broadcast
        listener is bound, a second pollable covers it — without it the
        discovery plane (BEACON/ANNOUNCE) is deaf under a scheduler-driven
        deployment, because only :meth:`poll` ever drained that socket.
        """
        polls: list = [self]
        if self._broadcast_pollable is not None:
            polls.append(self._broadcast_pollable)
        return polls

    def poll(self) -> int:
        """One receive turn per socket; returns the datagrams delivered.

        For single-threaded tests that drive the transport without a
        scheduler loop (call it until it returns 0 to empty a socket
        holding more than :data:`TURN_DATAGRAMS`).
        """
        count = self._drain(self._socket)
        if self._broadcast_socket is not None:
            count += self._drain(self._broadcast_socket)
        return count

    def _drain(self, sock: socket.socket) -> int:
        """Hand up what is queued on ``sock``, :data:`TURN_DATAGRAMS` at
        most: one receive turn."""
        self._turn_open = True
        try:
            for count in range(TURN_DATAGRAMS):
                if self._closed:        # by what the last datagram set off
                    return count
                try:
                    payload, src = sock.recvfrom(_RECV_BUFFER)
                except BlockingIOError:
                    return count
                except OSError as exc:
                    if exc.errno in (errno.EAGAIN, errno.EWOULDBLOCK):
                        return count
                    raise TransportError(f"recvfrom failed: {exc}") from exc
                self._deliver(src, payload)
            return TURN_DATAGRAMS
        finally:
            self._end_turn()

    def close(self) -> None:
        # Close each socket unconditionally: ``socket.close`` is itself
        # idempotent, whereas gating on ``self.closed`` leaked the
        # broadcast socket whenever the closed flag was already set by the
        # base-class path (e.g. a concurrent close on another thread).
        self._socket.close()
        if self._broadcast_socket is not None:
            self._broadcast_socket.close()
        super().close()
