"""The policy evaluation engine.

Each enabled obligation policy is one subscription on the event bus; when a
matching event arrives the engine checks the condition, checks
authorisation for every action (negative authorisations override positive;
the default when no policy applies is configurable), and executes the
actions in order through the :class:`~repro.policy.actions.ActionExecutor`.

Policies are runtime-managed objects: ``add`` / ``remove`` / ``enable`` /
``disable`` take effect immediately, without touching any component —
"policies can be added, removed, enabled and disabled to change the
behaviour of cell components without reprogramming them".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.bus import EventBus
from repro.core.events import POLICY_VIOLATION_TYPE, Event
from repro.errors import PolicyConflictError, PolicyError
from repro.policy.actions import ActionExecutor
from repro.policy.model import (
    AuthorisationPolicy,
    ObligationPolicy,
    PolicySet,
    RoleTable,
)


@dataclass
class EngineStats:
    events_evaluated: int = 0
    conditions_failed: int = 0
    actions_executed: int = 0
    actions_denied: int = 0
    action_failures: int = 0


class PolicyEngine:
    """Hosts and evaluates a cell's policies."""

    def __init__(self, bus: EventBus, executor: ActionExecutor | None = None,
                 *, default_authorise: bool = True) -> None:
        self.bus = bus
        self.executor = executor if executor is not None else ActionExecutor(bus)
        self.default_authorise = default_authorise
        self.roles = RoleTable()
        self.stats = EngineStats()
        self._obligations: dict[str, ObligationPolicy] = {}
        self._subscriptions: dict[str, int] = {}     # policy name -> bus sub
        self._authorisations: dict[str, AuthorisationPolicy] = {}
        self._publisher = bus.local_publisher("policy-service")

    # -- obligation lifecycle ------------------------------------------------

    def add_obligation(self, policy: ObligationPolicy) -> None:
        if policy.name in self._obligations:
            raise PolicyConflictError(
                f"obligation {policy.name!r} already loaded")
        self._obligations[policy.name] = policy
        if policy.enabled:
            self._activate(policy)

    def remove_obligation(self, name: str) -> ObligationPolicy:
        policy = self._require(name)
        self._deactivate(policy)
        del self._obligations[name]
        return policy

    def enable(self, name: str) -> None:
        policy = self._require(name)
        if not policy.enabled:
            policy.enabled = True
            self._activate(policy)

    def disable(self, name: str) -> None:
        policy = self._require(name)
        if policy.enabled:
            policy.enabled = False
            self._deactivate(policy)

    def obligations(self) -> list[str]:
        return sorted(self._obligations)

    def is_enabled(self, name: str) -> bool:
        return self._require(name).enabled

    def _require(self, name: str) -> ObligationPolicy:
        try:
            return self._obligations[name]
        except KeyError:
            raise PolicyError(f"no obligation named {name!r}") from None

    def _activate(self, policy: ObligationPolicy) -> None:
        sub_id = self.bus.subscribe_local(
            policy.event_filter,
            lambda event, p=policy: self._on_event(p, event))
        self._subscriptions[policy.name] = sub_id

    def _deactivate(self, policy: ObligationPolicy) -> None:
        sub_id = self._subscriptions.pop(policy.name, None)
        if sub_id is not None:
            self.bus.unsubscribe_local(sub_id)

    # -- authorisation ---------------------------------------------------

    def add_authorisation(self, policy: AuthorisationPolicy) -> None:
        if policy.name in self._authorisations:
            raise PolicyConflictError(
                f"authorisation {policy.name!r} already loaded")
        self._authorisations[policy.name] = policy

    def is_authorised(self, subject: str, target: str, operation: str) -> bool:
        """Negative overrides positive; otherwise the engine default."""
        applicable = [p for p in self._authorisations.values()
                      if p.applies(subject, target, operation)]
        if any(not p.positive for p in applicable):
            return False
        if any(p.positive for p in applicable):
            return True
        return self.default_authorise

    # -- bulk loading -----------------------------------------------------

    def load(self, policy_set: PolicySet) -> None:
        """Load a parsed policy file: roles, authorisations, obligations."""
        self.roles.merge(policy_set.roles)
        for authorisation in policy_set.authorisations:
            self.add_authorisation(authorisation)
        for obligation in policy_set.obligations:
            self.add_obligation(obligation)

    # -- evaluation ------------------------------------------------------

    def _on_event(self, policy: ObligationPolicy, event: Event) -> None:
        self.stats.events_evaluated += 1
        view = event.attrs_view()
        if not policy.condition_holds(view):
            self.stats.conditions_failed += 1
            return
        for action in policy.actions:
            target = action.target if action.target is not None else policy.target
            if not self.is_authorised(policy.subject, target, action.operation):
                self.stats.actions_denied += 1
                self._publisher.publish(POLICY_VIOLATION_TYPE, {
                    "policy": policy.name,
                    "operation": action.operation,
                    "subject": policy.subject,
                    "target": target,
                })
                continue
            try:
                params = action.resolve_params(view)
            except PolicyError:
                self.stats.action_failures += 1
                continue
            self.executor.execute(action.operation, target, params)
            self.stats.actions_executed += 1
