"""Sensors and rolling metric windows — the Monitor and Knowledge of MAPE-K.

The paper's thesis is that the event service exists *to support autonomic
management* of a ubiquitous e-health cell; a management loop is only as
good as what it can observe.  This module is the observation side of the
control plane: a :class:`MetricRegistry` of named sensors, each a zero-
argument callable sampled once per manager tick into a bounded
:class:`RollingWindow` — the "knowledge" the analyze/plan phases of
:class:`repro.autonomic.manager.AutonomicManager` consult and the audit
log snapshots.

Sensor builders cover the signals the three control loops need:

* :func:`register_bus_sensors` — :class:`~repro.core.bus.BusStats`
  counters (publication, match and delivery rates);
* :func:`register_shard_sensors` —
  :meth:`~repro.core.sharding.ShardedMatcher.shard_loads` and per-shard
  match-work counts (the rebalancer's imbalance signal);
* :func:`register_transport_sensors` — aggregate
  :class:`~repro.transport.reliability.ChannelStats` via
  :meth:`~repro.transport.endpoint.PacketEndpoint.channel_stats`,
  including the RFC-6298 ``srtt``/``rttvar`` estimate of the slowest
  path;
* :func:`register_quench_sensors` — how many publishers the quench
  controller currently mutes (the flush controller's back-pressure
  signal).

Sensors must never throw: a sensor returning ``None`` is simply skipped
for that tick (e.g. transport stats before any reliable traffic).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable

from repro.errors import ConfigurationError

if TYPE_CHECKING:                                     # pragma: no cover
    from repro.core.bus import EventBus
    from repro.core.quench import QuenchController
    from repro.core.sharding import ShardedMatcher
    from repro.transport.endpoint import PacketEndpoint

SensorFn = Callable[[], "float | int | None"]


class RollingWindow:
    """A bounded window of (time, value) samples with simple reductions."""

    __slots__ = ("_samples",)

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ConfigurationError(f"window capacity must be >= 1, got {capacity}")
        self._samples: deque[tuple[float, float]] = deque(maxlen=capacity)

    def append(self, time: float, value: float) -> None:
        self._samples.append((time, float(value)))

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def last(self) -> float | None:
        return self._samples[-1][1] if self._samples else None

    def values(self) -> list[float]:
        return [value for _, value in self._samples]

    def mean(self) -> float | None:
        if not self._samples:
            return None
        return sum(value for _, value in self._samples) / len(self._samples)

    def delta(self) -> float:
        """Last minus first value — the growth of a counter metric over
        the window (0.0 while fewer than two samples are held)."""
        if len(self._samples) < 2:
            return 0.0
        return self._samples[-1][1] - self._samples[0][1]

    def rate(self) -> float:
        """:meth:`delta` per second of window span (0.0 if degenerate)."""
        if len(self._samples) < 2:
            return 0.0
        span = self._samples[-1][0] - self._samples[0][0]
        return self.delta() / span if span > 0 else 0.0


class MetricRegistry:
    """Named sensors, sampled together, remembered in rolling windows."""

    def __init__(self, window: int = 64) -> None:
        self._window_capacity = window
        self._sensors: dict[str, SensorFn] = {}
        self._windows: dict[str, RollingWindow] = {}
        self.samples_taken = 0

    def add(self, name: str, fn: SensorFn) -> None:
        if name in self._sensors:
            raise ConfigurationError(f"duplicate metric name: {name!r}")
        self._sensors[name] = fn
        self._windows[name] = RollingWindow(self._window_capacity)

    def names(self) -> list[str]:
        return sorted(self._sensors)

    def sample(self, now: float) -> dict[str, float]:
        """Read every sensor once; returns the snapshot that was stored.

        Sensors returning ``None`` are skipped (signal not available yet)
        rather than recorded as zero, so window means stay honest.
        """
        self.samples_taken += 1
        snapshot: dict[str, float] = {}
        for name, fn in self._sensors.items():
            value = fn()
            if value is None:
                continue
            value = float(value)
            snapshot[name] = value
            self._windows[name].append(now, value)
        return snapshot

    def window(self, name: str) -> RollingWindow:
        return self._windows[name]

    def latest(self, name: str) -> float | None:
        window = self._windows.get(name)
        return window.last if window is not None else None


# -- sensor builders ---------------------------------------------------------

def register_bus_sensors(registry: MetricRegistry, bus: "EventBus") -> None:
    """Publication/match/delivery counters of one bus core."""
    stats = bus.stats
    registry.add("bus.published", lambda: stats.published)
    registry.add("bus.matched", lambda: stats.matched)
    registry.add("bus.unmatched", lambda: stats.unmatched)
    registry.add("bus.delivered_local", lambda: stats.delivered_local)
    registry.add("bus.delivered_remote", lambda: stats.delivered_remote)
    registry.add("bus.duplicates_dropped", lambda: stats.duplicates_dropped)
    registry.add("bus.subscriptions_active", lambda: stats.subscriptions_active)
    registry.add("bus.members_active", lambda: stats.members_active)
    # turn_events / turns: the events one receive turn brings in, i.e.
    # the coalescing the batch pipeline gets without waiting for it.
    registry.add("bus.turns", lambda: stats.turns)
    registry.add("bus.turn_events", lambda: stats.turn_events)


def register_shard_sensors(registry: MetricRegistry,
                           matcher: "ShardedMatcher") -> None:
    """Per-shard fragment loads and cumulative match work."""
    for index in range(matcher.shard_count):
        registry.add(f"shard.load.{index}",
                     lambda i=index: matcher.shard_loads()[i])
        registry.add(f"shard.events.{index}",
                     lambda i=index: matcher.shard_event_counts[i])
    registry.add("shard.splits", lambda: len(matcher.splits()))


def register_transport_sensors(registry: MetricRegistry,
                               endpoint: "PacketEndpoint") -> None:
    """Aggregate reliability counters plus the slowest-path RTT estimate.

    ``channel_stats()`` walks every live channel, so the four sensors
    share one aggregation per sample pass (keyed on the registry's
    sample counter) instead of recomputing it each.
    """
    cache: dict = {"pass": None, "stats": None}

    def stats_now():
        if cache["pass"] != registry.samples_taken:
            cache["pass"] = registry.samples_taken
            cache["stats"] = endpoint.channel_stats()
        return cache["stats"]

    registry.add("chan.sent", lambda: stats_now().sent)
    registry.add("chan.retransmissions",
                 lambda: stats_now().retransmissions)
    registry.add("chan.rtt_samples", lambda: stats_now().rtt_samples)
    registry.add("chan.srtt_s",
                 lambda: stats_now().srtt if stats_now().rtt_samples else None)


def register_quench_sensors(registry: MetricRegistry,
                            quench: "QuenchController") -> None:
    """How many publishers the quench controller currently mutes."""
    registry.add("quench.currently_quenched",
                 lambda: quench.stats.currently_quenched)
    registry.add("quench.messages_sent",
                 lambda: quench.stats.quench_messages_sent)
