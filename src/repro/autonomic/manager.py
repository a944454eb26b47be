"""The MAPE-K loop: one manager ticking monitor→analyze→plan→execute.

The paper positions the event service as the substrate *for autonomic
management* of a ubiquitous e-health cell; this module is the management
side using that substrate's own mechanisms as actuators.  An
:class:`AutonomicManager` owns a set of controllers
(:mod:`repro.autonomic.controllers`) and the audit log, and ticks the
controllers on the cell's scheduler:

* **monitor** — each controller reads its own targets' live counters
  (``channel.stats``, a proxy's transport stats, the matcher's class
  stats); nothing is sampled on its behalf;
* **analyze / plan / execute** — each controller decides and actuates;
* **knowledge** — every actuation is appended to the bounded audit log,
  so operators (and tests) can reconstruct exactly what the cell did to
  itself and why.

The manager can tick on a periodic timer (:meth:`start` — what a cell
does) or be ticked manually (what the deterministic soak tests do, so a
`run_until_idle` simulation is never kept alive by a control timer).

:func:`build_bus_manager` assembles the standard cell-side plane — RTT
control over the endpoint's channels, flush control over the member
proxies, shard rebalancing when the bus is sharded — and is what
:class:`repro.smc.cell.SelfManagedCell` instantiates when
``CellConfig.autonomic`` is set.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.autonomic.controllers import (
    Actuation,
    Controller,
    FlushController,
    RttController,
    ShardRebalancer,
)
from repro.errors import ConfigurationError
from repro.sim.kernel import PeriodicTimer, Scheduler

if TYPE_CHECKING:                                      # pragma: no cover
    from repro.core.bus import EventBus
    from repro.transport.endpoint import PacketEndpoint


#: Audit-log bound (oldest actuations are discarded beyond it).
AUDIT_LIMIT = 1000


@dataclass(frozen=True)
class AutonomicConfig:
    """The one thing configurable about a cell's control plane.

    The controllers' own tuning is deployment-agnostic by design — the
    whole point of closing the loops is that the same constants
    self-tune on a 3 ms USB cable and a 200 ms home uplink.
    """

    #: Control period.  Half a second reacts within a few RTTs of even a
    #: wide-area link without measurably loading the cell.
    tick_s: float = 0.5

    def __post_init__(self) -> None:
        if self.tick_s <= 0:
            raise ConfigurationError(f"tick_s must be > 0, got {self.tick_s}")


class AutonomicManager:
    """Ticks a set of controllers and keeps the audit log."""

    def __init__(self, scheduler: Scheduler,
                 controllers: Sequence[Controller] = (),
                 *, config: AutonomicConfig | None = None) -> None:
        self.scheduler = scheduler
        self.config = config if config is not None else AutonomicConfig()
        self.controllers: list[Controller] = list(controllers)
        #: Bounded audit trail of every actuation, oldest first.
        self.audit: deque[Actuation] = deque(maxlen=AUDIT_LIMIT)
        self.ticks = 0
        self._timer: PeriodicTimer | None = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Begin ticking periodically on the scheduler."""
        if self._timer is not None:
            raise ConfigurationError("autonomic manager already started")
        self._timer = PeriodicTimer(self.scheduler, self.config.tick_s,
                                    self.tick, ())

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    # -- the loop ------------------------------------------------------------

    def tick(self) -> list[Actuation]:
        """One monitor→analyze→plan→execute round; returns new actuations."""
        now = self.scheduler.now()
        self.ticks += 1
        fresh: list[Actuation] = []
        for controller in self.controllers:    # monitor/analyze/plan/execute
            fresh.extend(controller.tick(now))
        self.audit.extend(fresh)                       # knowledge
        return fresh

    # -- introspection ---------------------------------------------------

    def actuations(self, controller: str | None = None) -> list[Actuation]:
        """Audit entries, optionally filtered by controller name."""
        if controller is None:
            return list(self.audit)
        return [a for a in self.audit if a.controller == controller]

    def __repr__(self) -> str:
        names = ",".join(c.name for c in self.controllers)
        state = "stopped" if self._timer is None else "started"
        return (f"<AutonomicManager [{names}] ticks={self.ticks} "
                f"actuations={len(self.audit)} {state}>")


def build_bus_manager(scheduler: Scheduler, bus: "EventBus",
                      endpoint: "PacketEndpoint",
                      config: AutonomicConfig | None = None
                      ) -> AutonomicManager:
    """Assemble the standard control plane for one bus core:

    * RTT — every live channel of ``endpoint`` (member links);
    * flush — every member proxy registered on ``bus`` (re-listed each
      tick, so churn is handled), with the proxy's quench state as
      back-pressure;
    * rebalance — the bus's :class:`~repro.core.sharding.ShardedMatcher`,
      when it has more than one shard.
    """
    from repro.core.sharding import ShardedMatcher   # avoid import cycle

    controllers: list[Controller] = [
        RttController(endpoint.live_channels),
        FlushController(
            lambda: [bus.proxy_of(member) for member in bus.members()],
            quenched=lambda proxy: proxy.quenched,
            label=lambda proxy: proxy.member_name)]
    matcher = bus.engine
    if isinstance(matcher, ShardedMatcher) and matcher.shard_count > 1:
        controllers.append(ShardRebalancer(matcher))
    return AutonomicManager(scheduler, controllers, config=config)
