"""Policy deployment on discovery events (paper Section II-A).

"When a device is discovered and granted membership of an SMC, the
appropriate policies, based on device type, are deployed to it.  This is
triggered by a discovery event."

The deployer watches New Member / Purge Member events and manages two
kinds of deployment:

* **shared policies** registered per device type: activated when the first
  member of that type joins, disabled again when the last leaves (the cell
  does not evaluate rules that no present device can satisfy);
* **per-member policies** produced by a template callable, parameterised
  with the member's identity (e.g. a threshold rule scoped to one
  sensor's readings); these are removed outright when the member is
  purged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.bus import EventBus
from repro.core.events import (
    NEW_MEMBER_TYPE,
    POLICY_DEPLOYED_TYPE,
    PURGE_MEMBER_TYPE,
    Event,
)
from repro.errors import PolicyError
from repro.ids import ServiceId
from repro.matching.filters import Filter
from repro.policy.engine import PolicyEngine
from repro.policy.model import ObligationPolicy

#: template(member_id, member_name) -> policies for that member
MemberTemplate = Callable[[ServiceId, str], list[ObligationPolicy]]


@dataclass
class DeployerStats:
    deployments: int = 0
    retractions: int = 0


@dataclass
class _MemberInfo:
    name: str
    device_type: str
    policy_names: list[str]


class PolicyDeployer:
    """Deploys policies in reaction to membership events."""

    def __init__(self, engine: PolicyEngine, bus: EventBus) -> None:
        self.engine = engine
        self.bus = bus
        self.stats = DeployerStats()
        self._shared: dict[str, list[ObligationPolicy]] = {}
        self._templates: dict[str, MemberTemplate] = {}
        self._type_counts: dict[str, int] = {}
        self._members: dict[ServiceId, _MemberInfo] = {}
        self._publisher = bus.local_publisher("policy-deployer")
        bus.subscribe_local(Filter.where(NEW_MEMBER_TYPE),
                            self._on_new_member)
        bus.subscribe_local(Filter.where(PURGE_MEMBER_TYPE),
                            self._on_purge_member)

    # -- registration ----------------------------------------------------

    def register_shared(self, device_type: str,
                        policies: list[ObligationPolicy]) -> None:
        """Policies activated while at least one such device is present.

        They are loaded into the engine immediately but *disabled*; the
        first member of the type enables them.
        """
        self._shared.setdefault(device_type, [])
        for policy in policies:
            self._shared[device_type].append(policy)
            policy.enabled = False
            self.engine.add_obligation(policy)

    def register_template(self, device_type: str,
                          template: MemberTemplate) -> None:
        """Per-member policy factory for a device type."""
        if device_type in self._templates:
            raise PolicyError(
                f"template already registered for {device_type!r}")
        self._templates[device_type] = template

    # -- membership reactions ------------------------------------------------

    def _on_new_member(self, event: Event) -> None:
        member_raw = event.get("member")
        if not isinstance(member_raw, int):
            return
        member = ServiceId(member_raw)
        if member in self._members:
            return
        name = str(event.get("name", ""))
        device_type = str(event.get("device_type", ""))
        info = _MemberInfo(name=name, device_type=device_type,
                           policy_names=[])
        self._members[member] = info

        count = self._type_counts.get(device_type, 0)
        self._type_counts[device_type] = count + 1
        deployed: list[str] = []
        if count == 0:
            for policy in self._shared.get(device_type, []):
                self.engine.enable(policy.name)
                deployed.append(policy.name)

        template = self._templates.get(device_type)
        if template is not None:
            for policy in template(member, name):
                self.engine.add_obligation(policy)
                info.policy_names.append(policy.name)
                deployed.append(policy.name)

        if deployed:
            self.stats.deployments += 1
            self._publisher.publish(POLICY_DEPLOYED_TYPE, {
                "member": int(member), "name": name,
                "device_type": device_type,
                "policies": ",".join(deployed),
            })

    def _on_purge_member(self, event: Event) -> None:
        member_raw = event.get("member")
        if not isinstance(member_raw, int):
            return
        member = ServiceId(member_raw)
        info = self._members.pop(member, None)
        if info is None:
            return
        for policy_name in info.policy_names:
            self.engine.remove_obligation(policy_name)
        remaining = self._type_counts.get(info.device_type, 1) - 1
        self._type_counts[info.device_type] = max(0, remaining)
        if remaining == 0:
            for policy in self._shared.get(info.device_type, []):
                self.engine.disable(policy.name)
        self.stats.retractions += 1
