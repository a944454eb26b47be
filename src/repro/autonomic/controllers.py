"""The control plane's Analyze/Plan/Execute: two feedback controllers.

Each controller closes one of the loops the paper's autonomic-management
claims call for, over a mechanism earlier PRs built fast but left
statically tuned:

* :class:`RttController` — the reliable channel's retransmission timeout
  was a static constructor bound, which no single value can make right
  for both the paper's USB cable (3 ms RTT) and a home-monitoring uplink
  (200 ms RTT).  The channel now measures (RFC-6298 ``srtt``/``rttvar``,
  Karn-filtered — see :mod:`repro.transport.reliability`); this
  controller decides, actuating
  :meth:`~repro.transport.reliability.ReliableChannel.set_rto`.

* :class:`ShardRebalancer` — shard routing is static CRC-32 over name
  classes, so a hot class (a ward where every alert rule constrains the
  same vitals attributes) pins one shard.  This controller watches
  per-shard loads, picks the dominant class and a value-bucket key from
  its equality-constraint diversity, and actuates
  :meth:`~repro.core.sharding.ShardedMatcher.split_class`.

How much a member is sent at once is not a loop: the member's proxy sizes
each payload from its hop's window and the member's declared capacity
(:meth:`~repro.core.proxy.Proxy.deliver_batch`).

Every decision a controller takes is returned as an :class:`Actuation`
record; the manager appends them to its audit log, so a cell's autonomic
history is always reconstructable.  Controllers are pure pollers — they
keep per-target deltas between ticks but never install callbacks, so
disabling one (or the whole manager) leaves the data plane untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Protocol

from repro.errors import ConfigurationError

if TYPE_CHECKING:                                      # pragma: no cover
    from repro.core.sharding import ShardedMatcher
    from repro.transport.reliability import ReliableChannel


@dataclass(frozen=True)
class Actuation:
    """One executed control decision, as recorded in the audit log."""

    time: float
    controller: str
    target: str
    action: str
    detail: dict = field(default_factory=dict)

    def __str__(self) -> str:                          # pragma: no cover
        pairs = ", ".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
        return (f"[{self.time:9.3f}s] {self.controller}: {self.action} "
                f"{self.target} ({pairs})")


class Controller(Protocol):
    """One MAPE loop body: observe, decide, actuate, report."""

    name: str

    def tick(self, now: float) -> list[Actuation]:
        """Run one monitor→analyze→plan→execute round over the
        controller's own targets; return what was actuated."""
        ...


# -- RTT ---------------------------------------------------------------------

class RttController:
    """Drive each channel's RTO from its live RFC-6298 estimate.

    Two regimes per channel:

    * **estimating** — the channel has RTT samples: plan
      ``RTO = srtt + max(K * rttvar, GRANULARITY_S)`` (RFC 6298 §2.3),
      clamped to ``[MIN_RTO_S, MAX_RTO_S]``, and actuate only when the
      change clears ``DEADBAND`` (so the audit log records adaptations,
      not jitter).
    * **blind** — no sample yet *and* retransmissions grew since the last
      tick while traffic is in flight.  An RTO below the path RTT makes
      every packet retransmit before its ack returns, and Karn's rule
      then disqualifies every sample — the classic deadlock.  The plan is
      Karn's own: back the RTO off (double it) until some packet survives
      un-retransmitted and the estimator gets its first sample.
    """

    name = "rtt"

    #: RFC 6298 §2.3: variance multiplier and clock granularity.
    K = 4.0
    GRANULARITY_S = 0.001
    #: Bounds every planned RTO is clamped to.
    MIN_RTO_S = 0.002
    MAX_RTO_S = 60.0
    #: Relative change an actuation must clear.
    DEADBAND = 0.1

    def __init__(self,
                 channels: Callable[[], Iterable["ReliableChannel"]]) -> None:
        self._channels = channels
        self._seen: dict[int, tuple[int, int]] = {}   # id -> (samples, rtx)

    def tick(self, now: float) -> list[Actuation]:
        actuations: list[Actuation] = []
        seen: dict[int, tuple[int, int]] = {}
        for channel in self._channels():
            if channel.closed:
                continue
            stats = channel.stats
            key = id(channel)
            prev_samples, prev_rtx = self._seen.get(key, (0, 0))
            seen[key] = (stats.rtt_samples, stats.retransmissions)
            target = str(channel.peer_address)
            if stats.rtt_samples == 0:
                if (stats.retransmissions > prev_rtx
                        and channel.unacked_count()):
                    old = channel.rto_initial
                    new = min(old * 2.0, self.MAX_RTO_S)
                    if new > old:
                        channel.set_rto(new)
                        actuations.append(Actuation(
                            now, self.name, target, "backoff_rto",
                            {"old_s": old, "new_s": new,
                             "retransmissions": stats.retransmissions}))
                continue
            if stats.rtt_samples == prev_samples:
                continue                     # no new evidence since last tick
            rto = stats.srtt + max(self.K * stats.rttvar, self.GRANULARITY_S)
            rto = min(max(rto, self.MIN_RTO_S), self.MAX_RTO_S)
            old = channel.rto_initial
            if abs(rto - old) <= self.DEADBAND * old:
                continue
            channel.set_rto(rto)
            actuations.append(Actuation(
                now, self.name, target, "set_rto",
                {"old_s": round(old, 6), "new_s": round(rto, 6),
                 "srtt_s": round(stats.srtt, 6),
                 "rttvar_s": round(stats.rttvar, 6),
                 "samples": stats.rtt_samples}))
        self._seen = seen
        return actuations


# -- shard rebalancing -------------------------------------------------------

class ShardRebalancer:
    """Split a hot name class across shards by a secondary value bucket.

    Analyze: per-shard load, read as the registered-fragment counts of
    :meth:`~repro.core.sharding.ShardedMatcher.shard_loads` — table skew,
    visible before a single event flows.  Under a
    :class:`~repro.core.workers.WorkerPoolExecutor` shard ownership is
    static, so spreading a hot class across shards spreads its events
    across workers: ``split_class`` is the pool's load-levelling
    actuator.  The hottest shard must carry more than ``hot_ratio`` times
    the mean load to be worth disturbing.  Plan: among the unsplit classes
    homed on that shard with at least ``min_fragments`` fragments, pick
    the largest, and as bucket key the attribute whose equality
    constraints are most diverse (``MIN_BUCKETS`` distinct operands at
    least — splitting on a single value would move the pin, not break
    it).  Execute:
    :meth:`~repro.core.sharding.ShardedMatcher.split_class`, one class
    per tick, so each split's effect is observed before the next.
    """

    name = "rebalance"

    #: Distinct equality operands a bucket key needs.
    MIN_BUCKETS = 2

    def __init__(self, matcher: "ShardedMatcher", *, hot_ratio: float = 2.0,
                 min_fragments: int = 16) -> None:
        if hot_ratio < 1.0:
            raise ConfigurationError(f"hot_ratio must be >= 1, got {hot_ratio}")
        self._matcher = matcher
        self._hot_ratio = hot_ratio
        self._min_fragments = min_fragments

    def tick(self, now: float) -> list[Actuation]:
        matcher = self._matcher
        if matcher.shard_count < 2:
            return []
        loads = matcher.shard_loads()
        total = sum(loads)
        if not total:
            return []
        mean = total / matcher.shard_count
        hot = max(range(matcher.shard_count), key=lambda i: loads[i])
        if loads[hot] <= self._hot_ratio * max(mean, 1.0):
            return []
        best = None
        for stat in matcher.class_stats():      # sorted: biggest first
            if stat.split or stat.shard != hot:
                continue
            if stat.fragments < self._min_fragments:
                continue
            eligible = {name: diversity
                        for name, diversity in stat.eq_diversity.items()
                        if diversity >= self.MIN_BUCKETS}
            if not eligible:
                continue
            bucket = max(sorted(eligible), key=lambda n: eligible[n])
            best = (stat, bucket)
            break
        if best is None:
            return []
        stat, bucket = best
        moved = matcher.split_class(stat.names, bucket)
        return [Actuation(
            now, self.name, f"shard-{hot}", "split_class",
            {"names": sorted(stat.names), "bucket_name": bucket,
             "fragments": stat.fragments, "moved": moved,
             "loads_before": loads, "loads_after": matcher.shard_loads()})]
