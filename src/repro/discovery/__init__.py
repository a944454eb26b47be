"""The SMC discovery service (paper Section II-B).

"An SMC includes a discovery service, which implements a protocol to search
for new devices to integrate into the cell, and maintains connectivity to
those devices while they are within range.  The discovery service is
responsible for managing group membership."

Deliberately, "the discovery protocol does not use the event bus for
monitoring group membership" — it runs on the unsequenced control plane of
the packet endpoint (beacons, announcements, heartbeats survive loss by
repetition, not retransmission).  Its *outputs*, though, are bus events:
"the discovery service informs the SMC of the arrival or departure of
devices via 'New Member' and 'Purge Member' events".

The protocol masks transient disconnections: a member that falls silent is
marked DEGRADED (and masked) until the purge timeout expires — "a nurse
leaves the room for a short period of time before returning" must not
destroy her proxy and its queued events.
"""

from repro.discovery.agent import AgentConfig, AgentState, DiscoveryAgent
from repro.discovery.auth import (
    AllowAllAuthenticator,
    Authenticator,
    DeviceTypeAllowList,
    SharedSecretAuthenticator,
)
from repro.discovery.membership import MemberRecord, MembershipTable
from repro.discovery.service import DiscoveryConfig, DiscoveryService

__all__ = [
    "DiscoveryService",
    "DiscoveryConfig",
    "DiscoveryAgent",
    "AgentConfig",
    "AgentState",
    "MembershipTable",
    "MemberRecord",
    "Authenticator",
    "AllowAllAuthenticator",
    "SharedSecretAuthenticator",
    "DeviceTypeAllowList",
]
