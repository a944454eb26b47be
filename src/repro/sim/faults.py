"""Seeded fault injection: the chaos half of the testbed.

A :class:`FaultPlan` is a deterministic schedule of failures — crashes,
freezes, partitions, link flaps, datagram corruption — compiled onto any
:class:`~repro.sim.kernel.Scheduler` before (or while) the scenario runs.
The same (seed, schedule) pair always injects the same faults at the same
instants, so a chaos soak that finds a bug is a reproduction recipe, not
an anecdote.

The faults themselves belong to the network
(:class:`~repro.sim.radio.SimNetwork`): the plan's sugar takes it and
takes a node down and up (``set_node_up``) or blocks and unblocks a pair
(``set_link_blocked``); one-way blocks and corrupt / duplicate / delay
mangles are network methods the plan schedules with :meth:`FaultPlan.at`.

Deployment-mode faults (SIGKILLing a match worker, crashing a
:class:`~repro.deploy.harness.LoopbackDevice`) are plain callables the
plan can schedule on a :class:`~repro.sim.kernel.RealtimeScheduler` —
see ``tests/integration/test_chaos.py`` for both styles in use.
"""

from __future__ import annotations

from typing import Callable

from repro.sim.kernel import Scheduler
from repro.sim.radio import SimNetwork
from repro.sim.rng import RngRegistry


class FaultPlan:
    """A deterministic, auditable schedule of fault injections.

    Sugar methods take the :class:`~repro.sim.radio.SimNetwork` the
    faults happen on; :meth:`at` schedules arbitrary callables for
    everything else (mangles, SIGKILL, device crash, drain kicks).
    """

    def __init__(self, scheduler: Scheduler, seed: int = 0) -> None:
        self.scheduler = scheduler
        self.rng = RngRegistry(seed).stream("fault-plan")
        #: Every scheduled action as ``(when, description)``, in schedule
        #: order — the reproduction recipe a failing soak prints.
        self.log: list[tuple[float, str]] = []

    def at(self, when: float, description: str,
           action: Callable[[], None]) -> None:
        """Run ``action`` at absolute time ``when`` and log it."""
        self.log.append((when, description))
        self.scheduler.call_at(when, action)

    def jittered(self, when: float, spread_s: float) -> float:
        """A seeded instant in ``[when, when + spread_s)`` — desynchronise
        faults from protocol timers so phase-locked schedules don't hide
        races."""
        return when + self.rng.random() * spread_s

    # -- sugar over the network ---------------------------------------------

    def crash(self, when: float, network: SimNetwork, node: str) -> None:
        self.at(when, f"crash {node}",
                lambda: network.set_node_up(node, False))

    def freeze(self, when: float, network: SimNetwork, node: str,
               for_s: float) -> None:
        """Node silent for a window, then back (GC pause, sleep mode)."""
        self.at(when, f"freeze {node} for {for_s}s",
                lambda: network.set_node_up(node, False))
        self.at(when + for_s, f"thaw {node}",
                lambda: network.set_node_up(node, True))

    def partition_window(self, when: float, network: SimNetwork, a: str,
                         b: str, for_s: float) -> None:
        self.at(when, f"partition {a}|{b} for {for_s}s",
                lambda: network.set_link_blocked(a, b, True))
        self.at(when + for_s, f"heal {a}|{b}",
                lambda: network.set_link_blocked(a, b, False))

    def flap(self, when: float, network: SimNetwork, a: str, b: str,
             period_s: float, cycles: int) -> None:
        """Alternate the link down/up ``cycles`` times (doorway walker)."""
        for cycle in range(cycles):
            start = when + cycle * 2 * period_s
            self.partition_window(start, network, a, b, period_s)
