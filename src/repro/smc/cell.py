"""The Self-Managed Cell.

One object that assembles and owns the SMC core: event bus + matching
engine, proxy bootstrap (with the standard e-health translators), quench
controller, discovery service, and the policy service with its deployer.
This is the top of the public API — the examples build everything through
it.

When the cell runs on a simulated host, the matching engine's cost meter is
wired to that host automatically, so the Siena engine's translation work is
charged to the PDA's virtual CPU.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.autonomic.manager import (
    AutonomicConfig,
    AutonomicManager,
    build_bus_manager,
)
from repro.core.bootstrap import ProxyBootstrap
from repro.core.bus import EventBus, LocalPublisher
from repro.core.quench import QuenchController
from repro.core.sharding import ShardedMatcher
from repro.devices.protocols import standard_translators
from repro.discovery.auth import Authenticator
from repro.discovery.service import DiscoveryConfig, DiscoveryService
from repro.errors import ConfigurationError, TransportClosedError
from repro.matching.engine import MatchingEngine, make_engine
from repro.matching.filters import Filter
from repro.policy.deployment import PolicyDeployer
from repro.policy.engine import PolicyEngine
from repro.policy.language import parse_policies
from repro.sim.kernel import Scheduler
from repro.transport.base import Transport
from repro.transport.endpoint import PacketEndpoint
from repro.transport.reliability import DEFAULT_WINDOW
from repro.transport.simnet import SimTransport


@dataclass(frozen=True)
class CellConfig:
    """Everything configurable about one cell."""

    cell_name: str
    patient: str = "patient"
    #: Matching engine: "forwarding" (the paper's second-generation bus),
    #: "siena" (first generation, translation-costed), "brute".
    engine: str = "forwarding"
    #: Matching shards: 1 keeps the classic single bus; > 1 partitions the
    #: subscription table across that many engines by attribute-name class
    #: (see repro.core.sharding) — dispatch semantics are identical.
    shards: int = 1
    enable_quench: bool = False
    #: The autonomic control plane (MAPE-K feedback: RTT-adaptive RTOs
    #: and hot-class shard rebalancing).
    #: None leaves every mechanism statically tuned, exactly as before;
    #: an AutonomicConfig closes the loops with that tuning.
    autonomic: AutonomicConfig | None = None
    #: Reliable-channel tuning for all member links.  The default window
    #: pipelines every hop (see transport.reliability.DEFAULT_WINDOW);
    #: window=1 restores the paper's stop-and-wait measurement behaviour.
    window: int = DEFAULT_WINDOW
    rto_initial_s: float = 0.05
    rto_max_s: float = 2.0
    #: Discovery timing (see DiscoveryConfig).
    beacon_period_s: float = 1.0
    heartbeat_period_s: float = 1.0
    #: Silence before DEGRADED (None = 3 x heartbeat) and before purge.
    silent_after_s: float | None = None
    purge_after_s: float = 10.0
    sweep_period_s: float = 0.5
    #: The graceful-drain flush deadline.
    drain_deadline_s: float = 5.0
    #: Authorisation default when no auth policy applies.
    default_authorise: bool = True

    def discovery_config(self) -> DiscoveryConfig:
        return DiscoveryConfig(
            cell_name=self.cell_name,
            beacon_period_s=self.beacon_period_s,
            heartbeat_period_s=self.heartbeat_period_s,
            silent_after_s=self.silent_after_s,
            purge_after_s=self.purge_after_s,
            sweep_period_s=self.sweep_period_s,
            drain_deadline_s=self.drain_deadline_s,
        )


class SelfManagedCell:
    """The assembled SMC core."""

    def __init__(self, transport: Transport, scheduler: Scheduler,
                 config: CellConfig,
                 authenticator: Authenticator | None = None) -> None:
        self.config = config
        self.scheduler = scheduler
        self.transport = transport
        self.endpoint = PacketEndpoint(
            transport, scheduler, window=config.window,
            rto_initial=config.rto_initial_s, rto_max=config.rto_max_s)

        if config.shards < 1:
            raise ConfigurationError(
                f"CellConfig.shards must be >= 1, got {config.shards}")
        engine: MatchingEngine = (
            ShardedMatcher(config.shards, config.engine) if config.shards > 1
            else make_engine(config.engine))
        self.bus = EventBus(scheduler, engine, name=f"bus.{config.cell_name}")
        self.engine = engine
        self._wire_cost_meter(transport, engine)

        if isinstance(transport, SimTransport):
            self.bus.meter = transport.host
        self.bootstrap = ProxyBootstrap(self.bus, self.endpoint)
        for translator in standard_translators(config.patient):
            self.bootstrap.register_translator(translator)

        self.quench: QuenchController | None = None
        if config.enable_quench:
            self.quench = QuenchController(self.bus)

        self.discovery = DiscoveryService(self.bus, self.endpoint, scheduler,
                                          config.discovery_config(),
                                          authenticator)
        self.policy = PolicyEngine(self.bus,
                                   default_authorise=config.default_authorise)
        self.deployer = PolicyDeployer(self.policy, self.bus)

        #: The autonomic control plane, ticking with the cell when
        #: configured (CellConfig.autonomic).
        self.autonomic: AutonomicManager | None = None
        if config.autonomic is not None:
            self.autonomic = build_bus_manager(scheduler, self.bus,
                                               self.endpoint,
                                               config.autonomic)

        #: Cell-level journal fed by the built-in ``log`` action handler.
        self.log: list[tuple[float, str, dict]] = []
        self.policy.executor.register_handler("log", self._log_handler)
        self._started = False

    @staticmethod
    def _wire_cost_meter(transport: Transport, engine: MatchingEngine) -> None:
        set_meter = getattr(engine, "set_meter", None)
        if set_meter is not None and isinstance(transport, SimTransport):
            set_meter(transport.host)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Begin beaconing; the cell is open for members."""
        if self._started:
            raise ConfigurationError("cell already started")
        self._started = True
        self.discovery.start()
        if self.autonomic is not None:
            self.autonomic.start()

    def stop(self) -> None:
        # A transport closed mid-turn never runs its turn end: publish
        # what that turn brought in, so the bus counters conserve.
        try:
            self.bus.flush_turn()
        except TransportClosedError:
            # The transport died first: the events are counted and local
            # subscribers served; nothing can reach a member any more.
            pass
        if self._started:
            self._started = False
            self.discovery.stop()
            if self.autonomic is not None:
                self.autonomic.stop()

    # -- conveniences ---------------------------------------------------------

    def load_policies(self, source: str) -> None:
        """Parse and load Ponder-lite policy text into this cell."""
        self.policy.load(parse_policies(source))

    def subscribe(self, filters: Filter | list[Filter], callback) -> int:
        """Subscribe an in-cell callback (monitoring UIs, tests)."""
        return self.bus.subscribe_local(filters, callback)

    def publisher(self, name: str) -> LocalPublisher:
        """A publishing handle for an in-cell service."""
        return self.bus.local_publisher(name)

    def member_names(self) -> list[str]:
        return self.discovery.member_names()

    def _log_handler(self, target: str, params: dict) -> None:
        self.log.append((self.scheduler.now(), target, dict(params)))

    def __repr__(self) -> str:
        state = "started" if self._started else "stopped"
        return (f"<SelfManagedCell {self.config.cell_name!r} "
                f"engine={self.engine.name} members={len(self.bus.members())} "
                f"{state}>")
