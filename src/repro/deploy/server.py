"""Deployment mode: the cell on real UDP sockets and wall-clock time.

Everything below the examples has always run identically on the virtual
clock (:class:`~repro.sim.kernel.Simulator`) and the wall clock
(:class:`~repro.sim.kernel.RealtimeScheduler`) — the paper's prototype ran
on real sockets, and the one code spine here does too.  This module is the
missing assembly step: a :class:`CellServer` builds a
:class:`~repro.transport.udp.UdpTransport`, stands a full
:class:`~repro.smc.cell.SelfManagedCell` on top of it, and wires the
pieces a real deployment needs that a simulation never exercises:

* **fd registration** — every transport socket (unicast *and* the
  broadcast/discovery listener) registers with the scheduler's selector,
  so the run loop interleaves timer dispatch (beacons, sweeps, RTOs,
  autonomic ticks) with socket drains in one thread.
* **directed beacons** — loopback and most cloud fabrics have no
  broadcast domain, so the server keeps the transport's stand-in peer
  list synced to the membership table (refreshed on every
  ``smc.member.*`` event): admitted devices keep hearing beacons, which
  keeps their out-of-range watchdogs fed.
* **edge admission and backpressure** — a
  :class:`~repro.deploy.edge.CapacityAuthenticator` bounds membership and
  a :class:`~repro.deploy.edge.BackpressureGuard` sweeps per-peer
  outbound backlogs (quench advisory, hysteresis wake, hard shed).
* **healthz** — a loopback TCP :class:`~repro.deploy.healthz.HealthzEndpoint`
  answers every connection with one JSON :meth:`~CellServer.snapshot`
  (members and their lifecycle states, BusStats, aggregate ChannelStats,
  transport counters, shard loads, edge stats, autonomic audit tail).

Usage::

    server = CellServer(ServerConfig(cell=CellConfig(cell_name="ward")))
    server.start()
    server.serve_forever()        # or run_for(seconds) from a harness
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.core.bootstrap import format_address
from repro.core.events import Event
from repro.core.sharding import ShardedMatcher
from repro.core.workers import WorkerPoolExecutor
from repro.deploy.edge import BackpressureGuard, CapacityAuthenticator, EdgeStats
from repro.deploy.healthz import HealthzEndpoint
from repro.discovery.auth import Authenticator
from repro.errors import ConfigurationError
from repro.matching.filters import Filter
from repro.sim.kernel import RealtimeScheduler
from repro.smc.cell import CellConfig, SelfManagedCell
from repro.transport.udp import DEFAULT_DISCOVERY_PORT, UdpTransport


#: Autonomic audit entries included in a snapshot.
AUDIT_TAIL = 20


@dataclass(frozen=True)
class ServerConfig:
    """Deployment knobs around one cell."""

    cell: CellConfig
    #: UDP bind for the cell core (port 0 = OS-chosen, as in the paper).
    bind_host: str = "127.0.0.1"
    bind_port: int = 0
    #: Discovery port the broadcast listener binds (0 = OS-chosen; useful
    #: for tests and multi-cell hosts).
    discovery_port: int = DEFAULT_DISCOVERY_PORT
    listen_for_broadcast: bool = True
    #: Edge admission bound; None admits without a capacity check.
    max_members: int | None = None
    #: BackpressureGuard bounds and sweep period (see deploy.edge).
    quench_backlog: int = 64
    wake_backlog: int = 16
    shed_backlog: int = 256
    guard_period_s: float = 0.25
    #: Healthz surface (port 0 = OS-chosen); None disables it.
    healthz_host: str | None = "127.0.0.1"
    healthz_port: int = 0
    #: Addresses beaconed even before any member joins (bootstrap seeds).
    broadcast_peers: list[tuple[str, int]] = field(default_factory=list)
    #: Match-worker processes (0 = inline matching on the core thread).
    #: Requires a sharded bus (``cell.shards > 1``); the pool is spawned
    #: in :meth:`CellServer.start`, respawned by the guard sweep when a
    #: worker dies, and drained in :meth:`CellServer.stop`.
    workers: int = 0

    def __post_init__(self) -> None:
        if self.guard_period_s <= 0:
            raise ConfigurationError(
                f"guard_period_s must be > 0, got {self.guard_period_s}")
        if self.workers < 0:
            raise ConfigurationError(
                f"workers must be >= 0, got {self.workers}")


class CellServer:
    """A SelfManagedCell assembled onto real sockets and the wall clock."""

    def __init__(self, config: ServerConfig,
                 scheduler: RealtimeScheduler | None = None,
                 authenticator: Authenticator | None = None) -> None:
        self.config = config
        self.scheduler = scheduler if scheduler is not None \
            else RealtimeScheduler()
        self.transport = UdpTransport(
            bind_host=config.bind_host, bind_port=config.bind_port,
            discovery_port=config.discovery_port,
            listen_for_broadcast=config.listen_for_broadcast,
            directed_only=True)
        if config.broadcast_peers:
            self.transport.set_broadcast_peers(config.broadcast_peers)

        self.edge_stats = EdgeStats()
        self._capacity: CapacityAuthenticator | None = None
        if config.max_members is not None:
            self._capacity = CapacityAuthenticator(
                config.max_members, inner=authenticator,
                stats=self.edge_stats)
            authenticator = self._capacity

        self.cell = SelfManagedCell(self.transport, self.scheduler,
                                    config.cell, authenticator=authenticator)
        if self._capacity is not None:
            # The membership table is born inside DiscoveryService, after
            # the authenticator was handed over — bind it now.
            self._capacity.bind_table(self.cell.discovery.table)

        self.guard = BackpressureGuard(
            self.cell.bus, self.cell.endpoint,
            quench_backlog=config.quench_backlog,
            wake_backlog=config.wake_backlog,
            shed_backlog=config.shed_backlog,
            stats=self.edge_stats)
        # Honour per-member capacity declarations from ANNOUNCE/heartbeats.
        self.guard.set_capacity_source(self.cell.discovery.capacity_of)

        self.healthz: HealthzEndpoint | None = None
        if config.healthz_host is not None:
            self.healthz = HealthzEndpoint(self.snapshot,
                                           host=config.healthz_host,
                                           port=config.healthz_port)

        # Directed beacons: the broadcast-domain stand-in follows the
        # membership, so devices on broadcast-free networks hear beacons.
        self.cell.bus.subscribe_local(
            Filter.for_type_prefix("smc.member"),
            self._on_membership_change)

        #: Match-worker pool; built in :meth:`start` so worker processes
        #: are spawned only once the deployment is actually live.
        self.worker_pool: WorkerPoolExecutor | None = None
        if config.workers:
            if not isinstance(self.cell.bus.engine, ShardedMatcher):
                raise ConfigurationError(
                    "match workers require a sharded bus — set "
                    f"cell.shards > 1 (got workers={config.workers})")
            if self.cell.bus.engine.engine_spec is None:
                raise ConfigurationError(
                    "match workers need a named engine to build replicas")

        self._guard_timer = None
        self._started = False
        self._closed = False
        self._started_at: float | None = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Register sockets, start the cell, begin edge sweeps."""
        if self._started:
            raise ConfigurationError("server already started")
        self._started = True
        self._started_at = self.scheduler.now()
        self.scheduler.register_pollables(self.transport.pollables())
        if self.healthz is not None:
            self.scheduler.register_pollable(self.healthz)
        self.cell.start()
        if self.config.workers:
            self.worker_pool = WorkerPoolExecutor(self.cell.bus.engine,
                                                  self.config.workers)
        self._guard_timer = self.scheduler.every(self.config.guard_period_s,
                                                 self._sweep)

    def _sweep(self) -> None:
        """One guard tick: edge backpressure plus worker supervision."""
        self.guard.sweep()
        if self.worker_pool is not None:
            self.worker_pool.ensure_alive()

    def run_for(self, duration_s: float) -> None:
        """Drive the cell for a bounded wall-clock slice (harness mode)."""
        self.scheduler.run_for(duration_s)

    def serve_forever(self) -> None:
        """Run until :meth:`stop` is called (e.g. from a signal handler)."""
        while self._started:
            self.scheduler.run_for(3600.0)

    def stop(self) -> None:
        """Stop beaconing and sweeping; sockets stay open until close()."""
        if not self._started:
            return
        self._started = False
        if self._guard_timer is not None:
            self._guard_timer.cancel()
            self._guard_timer = None
        if self.worker_pool is not None:
            # Drain the pool first: matching falls back to the host's own
            # engines (always fully registered), then workers exit.
            self.worker_pool.close()
            self.worker_pool = None
        self.cell.stop()
        self.scheduler.stop()

    def close(self) -> None:
        """Stop (if needed) and release every socket.  Idempotent: a
        second close must not unregister already-released pollables."""
        self.stop()
        if self._closed:
            return
        self._closed = True
        if self.healthz is not None:
            self.scheduler.unregister_pollable(self.healthz)
            self.healthz.close()
        for pollable in self.transport.pollables():
            self.scheduler.unregister_pollable(pollable)
        # Closed from inside a drain (a signal handler), the transport
        # drops its turn end: flush while deliveries can still be sent.
        self.cell.bus.flush_turn()
        self.transport.close()

    @property
    def address(self) -> tuple[str, int]:
        """The cell core's unicast (host, port) — the rendezvous address."""
        return self.transport.local_address

    @property
    def healthz_address(self) -> tuple[str, int] | None:
        return self.healthz.address if self.healthz is not None else None

    # -- directed beacons ----------------------------------------------------

    def _on_membership_change(self, _event: Event) -> None:
        self.refresh_broadcast_domain()

    def refresh_broadcast_domain(self) -> None:
        """Point the stand-in broadcast at every member's current address.

        Called on every ``smc.member.*`` event, so joins, purges and roams
        (Member Moved) immediately redirect beacon traffic.  Seed peers
        stay in the domain so not-yet-joined devices keep hearing us.
        """
        peers = list(self.config.broadcast_peers)
        for record in self.cell.discovery.table.members():
            if record.address not in peers:
                peers.append(record.address)
        self.transport.set_broadcast_peers(peers)

    # -- observability -------------------------------------------------------

    def snapshot(self) -> dict:
        """One JSON-ready view of the whole cell (the healthz body)."""
        now = self.scheduler.now()
        discovery = self.cell.discovery
        members = [{
            "member": int(record.member_id),
            "name": record.name,
            "device_type": record.device_type,
            "address": format_address(record.address),
            "lifecycle": record.lifecycle.value,
            "capacity": record.capacity,
            "silence_s": round(record.silence(now), 3),
        } for record in discovery.table.members()]
        snapshot = {
            "cell": self.config.cell.cell_name,
            "engine": self.cell.engine.name,
            "started": self._started,
            "uptime_s": (round(now - self._started_at, 3)
                         if self._started_at is not None else 0.0),
            "address": format_address(self.transport.local_address),
            "pollables": self.scheduler.pollable_count(),
            "member_count": len(members),
            "lifecycle_counts": discovery.table.lifecycle_counts(),
            "members": members,
            "bus": asdict(self.cell.bus.stats),
            "channels": asdict(self.cell.endpoint.channel_stats()),
            "transport": asdict(self.transport.stats),
            "discovery": asdict(discovery.stats),
            "edge": asdict(self.edge_stats),
            "edge_quenched": sorted(int(m)
                                    for m in self.guard.edge_quenched()),
        }
        engine = self.cell.bus.engine
        if isinstance(engine, ShardedMatcher):
            snapshot["shard_loads"] = engine.shard_loads()
            snapshot["shard_events"] = engine.shard_events()
        if self.worker_pool is not None:
            snapshot["workers"] = self.worker_pool.stats_dict()
        if self.cell.autonomic is not None:
            tail = list(self.cell.autonomic.audit)[-AUDIT_TAIL:]
            snapshot["autonomic"] = {
                "ticks": self.cell.autonomic.ticks,
                "actuations": len(self.cell.autonomic.audit),
                "audit_tail": [asdict(actuation) for actuation in tail],
            }
        return snapshot

    def __repr__(self) -> str:
        state = "started" if self._started else "stopped"
        return (f"<CellServer {self.config.cell.cell_name!r} "
                f"addr={format_address(self.transport.local_address)} "
                f"members={len(self.cell.discovery.table)} {state}>")
