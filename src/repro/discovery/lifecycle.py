"""The member state machine — the only one.

One enum and one transition table answer both questions the cell asks
about a member: "is its state still valid?" (the paper's masking of
transient disconnections) and "how healthy is it?" (healthz,
backpressure, graceful drain)::

    JOINING --heard--> HEALTHY <--heard again-- DEGRADED
       |                  |  \\                    ^ |
       |                  |   +-- silent too long -+ |
       +-- LEAVE_INTENT --+------------------------- | --+
       |                                             |   v
       +--------------> GONE <--- purge/deadline -- DRAINING

* ``JOINING``   — admitted, but no heartbeat seen yet.
* ``HEALTHY``   — heartbeating within its contract.
* ``DEGRADED``  — silent for longer than ``silent_after_s`` (three
  heartbeat intervals unless configured: one late heartbeat does not
  degrade).  This *is* the masking state: the member is still part of the
  cell — its proxy, channel and queued events survive — and it recovers
  the moment it is heard again.  A crashed ("ghost") member is flagged
  here long before the purge timeout fires.
* ``DRAINING``  — announced its departure (LEAVE_INTENT); the cell is
  flushing its queued deliveries before tearing the channel down.
* ``GONE``      — purged (silent past ``purge_after_s``, LEAVE, drained or
  drain deadline).  Terminal, and the only irreversible transition.

The transition table is enforced: an illegal transition is a bug in the
discovery service, not a recoverable protocol event, so ``advance``
raises :class:`~repro.errors.DiscoveryError`.
"""

from __future__ import annotations

import enum

from repro.errors import DiscoveryError


class LifecycleState(enum.Enum):
    JOINING = "joining"
    HEALTHY = "healthy"
    DEGRADED = "degraded"
    DRAINING = "draining"
    GONE = "gone"


#: Allowed transitions.  DRAINING only ends in GONE (a draining member
#: heard again stays draining — it told us it is leaving); GONE is terminal.
_ALLOWED: dict[LifecycleState, frozenset[LifecycleState]] = {
    LifecycleState.JOINING: frozenset({
        LifecycleState.HEALTHY, LifecycleState.DEGRADED,
        LifecycleState.DRAINING, LifecycleState.GONE}),
    LifecycleState.HEALTHY: frozenset({
        LifecycleState.DEGRADED, LifecycleState.DRAINING,
        LifecycleState.GONE}),
    LifecycleState.DEGRADED: frozenset({
        LifecycleState.HEALTHY, LifecycleState.DRAINING,
        LifecycleState.GONE}),
    LifecycleState.DRAINING: frozenset({LifecycleState.GONE}),
    LifecycleState.GONE: frozenset(),
}


def can_advance(current: LifecycleState, target: LifecycleState) -> bool:
    return target in _ALLOWED[current]


def advance(current: LifecycleState, target: LifecycleState) -> LifecycleState:
    """Validate and return the new state; raise on an illegal transition."""
    if target not in _ALLOWED[current]:
        raise DiscoveryError(
            f"illegal lifecycle transition {current.value} -> {target.value}")
    return target
