"""Action execution.

An obligation's actions become *management command events* published on the
event bus — the paper's architecture carries "all management communication
between devices or services" over the bus, so a policy telling a sensor to
change its threshold is itself an event (type ``smc.cmd.set_threshold``)
which the sensor's proxy translates into device bytes.

Operations can also be bound to local Python handlers (for core services
such as logging or discovery control); a handler, when registered, runs
*instead of* publishing a command event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from repro.core.bus import EventBus
from repro.core.events import COMMAND_TYPE_PREFIX
from repro.errors import PolicyError
from repro.transport.wire import Value

LocalHandler = Callable[[str, Mapping[str, Value]], None]


@dataclass
class ActionStats:
    commands_published: int = 0
    local_invocations: int = 0


class ActionExecutor:
    """Turns resolved actions into command events or local calls."""

    def __init__(self, bus: EventBus) -> None:
        self.bus = bus
        self._publisher = bus.local_publisher("policy-actions")
        self._handlers: dict[str, LocalHandler] = {}
        self.stats = ActionStats()

    def register_handler(self, operation: str, handler: LocalHandler) -> None:
        """Bind ``operation`` to a local callable ``handler(target, params)``."""
        if operation in self._handlers:
            raise PolicyError(f"handler already registered for {operation!r}")
        self._handlers[operation] = handler

    def unregister_handler(self, operation: str) -> None:
        self._handlers.pop(operation, None)

    def execute(self, operation: str, target: str,
                params: dict[str, Value]) -> None:
        """Run one action: local handler if bound, else a command event."""
        handler = self._handlers.get(operation)
        if handler is not None:
            self.stats.local_invocations += 1
            handler(target, params)
            return
        attributes: dict[str, Value] = {"target": target}
        for name, value in params.items():
            if name == "target":
                raise PolicyError(
                    "action parameter name 'target' is reserved")
            attributes[name] = value
        self._publisher.publish(COMMAND_TYPE_PREFIX + operation, attributes)
        self.stats.commands_published += 1

    def command_type(self, operation: str) -> str:
        """The event type a given operation publishes as."""
        return COMMAND_TYPE_PREFIX + operation
