"""Group membership table.

One record per admitted member.  Each record carries the member's one
state (:class:`~repro.discovery.lifecycle.LifecycleState`, whose module
holds the transition table) and when it was last heard from; the
discovery service's sweep moves the state, and every move is reported on
the bus as ``smc.member.state``.  A record leaves the table only when the
member is GONE.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.discovery.lifecycle import LifecycleState, advance
from repro.errors import DiscoveryError
from repro.ids import ServiceId
from repro.transport.base import Address


@dataclass
class MemberRecord:
    """Everything the cell knows about one member."""

    member_id: ServiceId
    name: str
    device_type: str
    address: Address
    admitted_at: float
    last_heard: float
    lifecycle: LifecycleState = LifecycleState.JOINING
    #: Declared inbound event capacity (0 = undeclared); carried on
    #: ANNOUNCE/HEARTBEAT and honoured by backpressure and flushing.
    capacity: int = 0
    #: When the member sent LEAVE_INTENT (None unless DRAINING).
    drain_started: float | None = None

    def silence(self, now: float) -> float:
        """Seconds since the member was last heard from."""
        return now - self.last_heard

    def advance_lifecycle(self, target: LifecycleState) -> None:
        """Move to ``target``, enforcing the transition table."""
        self.lifecycle = advance(self.lifecycle, target)


class MembershipTable:
    """Registry of admitted members, keyed by service id."""

    def __init__(self) -> None:
        self._records: dict[ServiceId, MemberRecord] = {}

    def admit(self, record: MemberRecord) -> None:
        if record.member_id in self._records:
            raise DiscoveryError(f"member {record.member_id} already admitted")
        self._records[record.member_id] = record

    def get(self, member_id: ServiceId) -> MemberRecord | None:
        return self._records.get(member_id)

    def remove(self, member_id: ServiceId) -> MemberRecord:
        try:
            record = self._records.pop(member_id)
        except KeyError:
            raise DiscoveryError(f"member {member_id} not admitted") from None
        record.advance_lifecycle(LifecycleState.GONE)
        return record

    def members(self) -> list[MemberRecord]:
        """All records, ordered by member id for determinism."""
        return [self._records[k] for k in sorted(self._records)]

    def in_lifecycle(self, state: LifecycleState) -> list[MemberRecord]:
        return [r for r in self.members() if r.lifecycle == state]

    def lifecycle_counts(self) -> dict[str, int]:
        """Member count per lifecycle state (healthz's summary line)."""
        counts = {state.value: 0 for state in LifecycleState
                  if state is not LifecycleState.GONE}
        for record in self._records.values():
            counts[record.lifecycle.value] = counts.get(
                record.lifecycle.value, 0) + 1
        return counts

    def __contains__(self, member_id: ServiceId) -> bool:
        return member_id in self._records

    def __len__(self) -> int:
        return len(self._records)
