#!/usr/bin/env python3
"""A skewed hospital ward self-healing: the autonomic control plane live.

Every alert rule in this ward constrains the same three attributes —
``type``, the vital and the patient — so static CRC routing hashes the
*entire* subscription table onto one shard of the sharded bus.  Nurses
re-tune alert thresholds constantly (subscription churn), and every
re-tune cold-starts that one overloaded shard while seven others idle.

The MAPE-K manager watches shard loads, notices the pin, and splits the
hot class by the ``patient`` equality bucket — live, mid-traffic, with
the decision on its audit log.  Deliveries are identical before and
after (the differential suite proves it); only the load distribution and
the churn cost change.

Run:  PYTHONPATH=src python examples/autonomic_ward.py
"""

import random

from repro.autonomic import AutonomicManager, ShardRebalancer
from repro.core.bus import EventBus
from repro.core.sharding import ShardedMatcher
from repro.matching.filters import Constraint, Filter, Op
from repro.sim.kernel import Simulator


def alert_rule(rng: random.Random) -> Filter:
    """One nurse-station alert: a vitals type, a threshold, a patient."""
    return Filter([
        Constraint("type", Op.EQ, f"vitals.{rng.choice('abcd')}"),
        Constraint("hr", rng.choice([Op.GT, Op.LT]), rng.randint(40, 180)),
        Constraint("patient", Op.EQ, f"p-{rng.randint(1, 40)}"),
    ])


def main() -> None:
    rng = random.Random(2006)
    sim = Simulator()
    matcher = ShardedMatcher(shard_count=8)
    bus = EventBus(sim, matcher)
    alarms: list = []
    for _ in range(2000):
        bus.subscribe_local([alert_rule(rng)], alarms.append)

    print("ward of 2000 alert rules, one attribute class:")
    print(f"  shard loads (static CRC routing): {matcher.shard_loads()}")

    # The control plane: just the rebalancer here — RTT control needs
    # network hops, see CellConfig.autonomic for the full cell wiring.
    manager = AutonomicManager(
        sim, [ShardRebalancer(matcher, hot_ratio=2.0, min_fragments=64)])

    monitor = bus.local_publisher("vitals-pack")

    def burst(n: int = 200) -> None:
        monitor.publish_batch([
            (f"vitals.{rng.choice('abcd')}",
             {"hr": rng.randint(40, 180),
              "patient": f"p-{rng.randint(1, 40)}"})
            for _ in range(n)])
        sim.run_until_idle()

    burst()
    before = len(alarms)
    print(f"  first burst: {before} alarms delivered")

    # One manager tick: monitor -> analyze -> plan -> execute.
    for actuation in manager.tick():
        print(f"  actuation: {actuation.action} {actuation.target} "
              f"(bucket={actuation.detail['bucket_name']!r}, "
              f"moved {actuation.detail['moved']} fragments)")
    print(f"  shard loads after the split:      {matcher.shard_loads()}")

    # Traffic continues, semantics unchanged — and churn now cold-starts
    # one bucket shard instead of the whole ward.
    burst()
    print(f"  second burst: {len(alarms) - before} alarms delivered")
    print(f"  audit log: {len(manager.audit)} actuation(s) on record")
    for actuation in manager.audit:
        print(f"    t={actuation.time:.1f}s {actuation.controller} "
              f"{actuation.action} -> {actuation.target}")


if __name__ == "__main__":
    main()
