"""Edge admission and backpressure for a deployed cell.

A cell on real sockets faces two loads the simulated testbed never
produced: more devices than it was sized for, and members that accept
deliveries slower than the bus produces them.  Both are handled at the
edge, before they can distort the core:

* :class:`CapacityAuthenticator` bounds membership — ANNOUNCEs beyond the
  configured capacity are NAKed (the device backs off and retries), so an
  overload never gets past admission.
* :class:`BackpressureGuard` bounds per-peer outbound state — a periodic
  sweep measures every member channel's unacknowledged backlog, sends a
  quench advisory to a member whose queue is growing (pausing its
  publishing while its inbound side drains), and sheds the oldest
  untransmitted payloads past a hard bound
  (:meth:`~repro.transport.reliability.ReliableChannel.shed_backlog`), so
  one stalled PDA cannot hold the cell's memory hostage.

The guard states one reason, ``"backlog"``, to the member's proxy, which
owns the quench bit (:meth:`~repro.core.proxy.Proxy.set_quench`): a member
already muted for another reason is sent no second advisory, and is not
woken by the guard's wake.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.bus import EventBus
from repro.discovery.auth import Authenticator
from repro.discovery.membership import MembershipTable
from repro.discovery.messages import AnnounceBody
from repro.errors import ConfigurationError
from repro.ids import ServiceId
from repro.transport.endpoint import PacketEndpoint


@dataclass
class EdgeStats:
    sweeps: int = 0
    capacity_rejections: int = 0
    quench_advisories: int = 0
    wake_advisories: int = 0
    payloads_shed: int = 0


class CapacityAuthenticator:
    """Admission control: NAK announcements beyond the member capacity.

    Wraps the cell's configured authenticator; the capacity check runs
    first so a full cell never spends authentication work on a device it
    cannot seat.  The membership table is bound after the cell is built
    (the table lives inside :class:`~repro.discovery.service.DiscoveryService`,
    which is constructed with the authenticator already in hand).
    """

    def __init__(self, max_members: int, inner: Authenticator | None = None,
                 stats: EdgeStats | None = None) -> None:
        if max_members < 1:
            raise ConfigurationError(
                f"max_members must be >= 1, got {max_members}")
        self.max_members = max_members
        self.inner = inner
        self.stats = stats if stats is not None else EdgeStats()
        self.table: MembershipTable | None = None

    def bind_table(self, table: MembershipTable) -> None:
        self.table = table

    def authenticate(self, member_id: ServiceId,
                     announce: AnnounceBody) -> tuple[bool, str]:
        if self.table is not None and len(self.table) >= self.max_members:
            self.stats.capacity_rejections += 1
            return False, "cell at member capacity"
        if self.inner is not None:
            return self.inner.authenticate(member_id, announce)
        return True, "ok"


class BackpressureGuard:
    """Per-peer outbound backlog bounds, swept periodically.

    ``quench_backlog`` (advisory) and ``shed_backlog`` (hard bound) are
    counts of unacknowledged payloads on the member's channel;
    ``wake_backlog`` is the level below which an edge-issued quench is
    lifted (hysteresis: wake < quench).

    The unit is the reliable *payload*, not the event: a BATCH payload
    counts once however many events it carries.  Since a receive turn is
    published as one batch, a busy cell queues fewer, fuller payloads per
    subscriber for the same events — the bounds keep their unit, so they
    read as so many flushes behind, and a declared capacity (which bounds
    events per payload in the proxy) still clamps them.

    A member's declared capacity is read from its proxy
    (:attr:`~repro.core.proxy.Proxy.capacity`, kept current from the New
    Member and ``smc.member.state`` events): a member that declared less
    than the configured bounds gets its quench/shed thresholds clamped
    down to it, so a 4-event sensor is quenched at 4 queued payloads, not
    at the cell-wide 64.
    """

    def __init__(self, bus: EventBus, endpoint: PacketEndpoint, *,
                 quench_backlog: int = 64, wake_backlog: int = 16,
                 shed_backlog: int = 256,
                 stats: EdgeStats | None = None) -> None:
        if not 0 < wake_backlog < quench_backlog <= shed_backlog:
            raise ConfigurationError(
                "backlog bounds must satisfy 0 < wake < quench <= shed, "
                f"got wake={wake_backlog} quench={quench_backlog} "
                f"shed={shed_backlog}")
        self.bus = bus
        self.endpoint = endpoint
        self.quench_backlog = quench_backlog
        self.wake_backlog = wake_backlog
        self.shed_backlog = shed_backlog
        self.stats = stats if stats is not None else EdgeStats()

    def _bounds_for(self, capacity: int) -> tuple[int, int, int]:
        """(quench, wake, shed) for a member that declared ``capacity``."""
        if capacity <= 0:
            return self.quench_backlog, self.wake_backlog, self.shed_backlog
        quench = max(1, min(self.quench_backlog, capacity))
        # Preserve the hysteresis shape (wake < quench <= shed) at any
        # scale; a quench bound of 1 wakes only on a fully-drained queue.
        wake = min(self.wake_backlog, quench - 1)
        shed = max(quench, min(self.shed_backlog, 4 * capacity))
        return quench, wake, shed

    def sweep(self) -> None:
        """One backpressure round over every member channel."""
        self.stats.sweeps += 1
        for member in self.bus.members():
            proxy = self.bus.proxy_of(member)
            channel = self.endpoint.existing_channel(proxy.member_address)
            backlog = channel.unacked_count() if channel is not None else 0
            quench_at, wake_at, shed_at = self._bounds_for(proxy.capacity)
            if backlog >= quench_at:
                if proxy.set_quench("backlog", True):
                    self.stats.quench_advisories += 1
            elif backlog <= wake_at:
                if proxy.set_quench("backlog", False):
                    self.stats.wake_advisories += 1
            if channel is not None and backlog > shed_at:
                # Trim the untransmitted tail; in-flight packets stay (the
                # send window bounds them already).
                self.stats.payloads_shed += channel.shed_backlog(shed_at)

    def edge_quenched(self) -> set[ServiceId]:
        """Members the edge currently holds quenched (whatever the bus
        says about them); a purged member took its proxy's with it."""
        return {member for member in self.bus.members()
                if "backlog" in self.bus.proxy_of(member).quench_reasons}
