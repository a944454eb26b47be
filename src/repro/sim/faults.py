"""Seeded fault injection: the chaos half of the testbed.

A :class:`FaultPlan` is a deterministic schedule of failures — crashes,
freezes, partitions, link flaps, datagram corruption — compiled onto any
:class:`~repro.sim.kernel.Scheduler` before (or while) the scenario runs.
The same (seed, schedule) pair always injects the same faults at the same
instants, so a chaos soak that finds a bug is a reproduction recipe, not
an anecdote.

The plan itself is backend-agnostic: it schedules callables and keeps an
audit log.  Its injector backend, :class:`HubFaults`, wraps an
:class:`~repro.transport.inmem.InMemoryHub` with a composable drop filter —
node kill/revive, bidirectional partitions, one-way blocks, and
probabilistic delay/duplicate/corrupt mangles per link.  Corrupted copies
are re-injected through :meth:`~repro.transport.inmem.InMemoryHub.inject`
and die at the packet layer's CRC check, exactly like a real flipped bit.
On the radio model (:class:`~repro.sim.radio.SimNetwork`) loss,
duplication and latency already live in the medium's
:class:`~repro.sim.radio.LinkProfile`.

Deployment-mode faults (SIGKILLing a match worker, crashing a
:class:`~repro.deploy.harness.LoopbackDevice`) are plain callables the
plan can schedule on a :class:`~repro.sim.kernel.RealtimeScheduler` —
see ``tests/integration/test_chaos.py`` for both styles in use.
"""

from __future__ import annotations

from typing import Callable

from repro.sim.kernel import Scheduler
from repro.sim.rng import RngRegistry
from repro.transport.inmem import InMemoryHub


class HubFaults:
    """Fault injector over an in-memory hub.

    Installs itself as the hub's ``drop_filter``, chaining any filter a
    test already set (the prior filter runs first; its drops stand).
    """

    def __init__(self, hub: InMemoryHub, rng_seed: int = 0) -> None:
        self.hub = hub
        self._rng = RngRegistry(rng_seed).stream("hub-faults")
        self._dead: set[str] = set()
        self._partitions: set[frozenset[str]] = set()
        self._one_way_blocks: set[tuple[str, str]] = set()
        #: (corrupt_rate, duplicate_rate, delay_s) per unordered pair.
        self._mangles: dict[frozenset[str], tuple[float, float, float]] = {}
        self._prior = hub.drop_filter
        hub.drop_filter = self._filter
        self.injected = 0

    # -- node faults ---------------------------------------------------------

    def kill(self, node: str) -> None:
        """Drop every datagram to and from ``node`` (crash/power-off)."""
        self._dead.add(node)

    def revive(self, node: str) -> None:
        self._dead.discard(node)

    # -- link faults ---------------------------------------------------------

    def partition(self, a: str, b: str) -> None:
        """Block the pair in both directions."""
        self._partitions.add(frozenset((a, b)))

    def heal(self, a: str, b: str) -> None:
        self._partitions.discard(frozenset((a, b)))

    def block_one_way(self, src: str, dest: str) -> None:
        """Block only ``src -> dest`` (asymmetric outage: ACKs still flow)."""
        self._one_way_blocks.add((src, dest))

    def unblock_one_way(self, src: str, dest: str) -> None:
        self._one_way_blocks.discard((src, dest))

    def mangle(self, a: str, b: str, *, corrupt_rate: float = 0.0,
               duplicate_rate: float = 0.0, delay_s: float = 0.0) -> None:
        """Probabilistically corrupt/duplicate/delay the pair's datagrams."""
        for rate in (corrupt_rate, duplicate_rate):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"rate must be in [0, 1], got {rate}")
        if delay_s < 0:
            raise ValueError(f"negative delay: {delay_s}")
        self._mangles[frozenset((a, b))] = (corrupt_rate, duplicate_rate,
                                            delay_s)

    def clear_mangle(self, a: str, b: str) -> None:
        self._mangles.pop(frozenset((a, b)), None)

    # -- the filter ----------------------------------------------------------

    def _filter(self, src: str, dest: str, payload: bytes) -> bool:
        if self._prior is not None and not self._prior(src, dest, payload):
            return False
        if src in self._dead or dest in self._dead:
            return False
        if (src, dest) in self._one_way_blocks:
            return False
        pair = frozenset((src, dest))
        if pair in self._partitions:
            return False
        mangle = self._mangles.get(pair)
        if mangle is None:
            return True
        corrupt_rate, duplicate_rate, delay_s = mangle
        if corrupt_rate and self._rng.random() < corrupt_rate:
            # Flip one byte and re-inject: the CRC check drops it at the
            # receiver, so corruption degrades to loss — the property the
            # packet layer promises and the soak verifies.
            mutated = bytearray(payload)
            index = self._rng.randrange(len(mutated)) if mutated else 0
            if mutated:
                mutated[index] ^= 0xFF
            self.hub.inject(src, dest, bytes(mutated))
            self.injected += 1
            return False
        if duplicate_rate and self._rng.random() < duplicate_rate:
            self.hub.inject(src, dest, payload)
            self.injected += 1
        if delay_s:
            self.hub.scheduler.call_later(delay_s, self.hub.inject,
                                          src, dest, payload)
            self.injected += 1
            return False
        return True

    def uninstall(self) -> None:
        """Restore the hub's previous drop filter."""
        self.hub.drop_filter = self._prior


class FaultPlan:
    """A deterministic, auditable schedule of fault injections.

    Sugar methods take an *injector* (anything with the matching
    ``kill``/``revive``/``partition``/``heal`` methods: :class:`HubFaults`);
    :meth:`at` schedules arbitrary callables for everything else
    (SIGKILL, device crash, drain kicks).
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

    # -- sugar over an injector ---------------------------------------------

    def crash(self, when: float, injector, node: str) -> None:
        self.at(when, f"crash {node}", lambda: injector.kill(node))

    def freeze(self, when: float, injector, node: str, for_s: float) -> None:
        """Node silent for a window, then back (GC pause, sleep mode)."""
        self.at(when, f"freeze {node} for {for_s}s",
                lambda: injector.kill(node))
        self.at(when + for_s, f"thaw {node}",
                lambda: injector.revive(node))

    def partition_window(self, when: float, injector, a: str, b: str,
                         for_s: float) -> None:
        self.at(when, f"partition {a}|{b} for {for_s}s",
                lambda: injector.partition(a, b))
        self.at(when + for_s, f"heal {a}|{b}",
                lambda: injector.heal(a, b))

    def flap(self, when: float, injector, a: str, b: str,
             period_s: float, cycles: int) -> None:
        """Alternate the link down/up ``cycles`` times (doorway walker)."""
        for cycle in range(cycles):
            start = when + cycle * 2 * period_s
            self.partition_window(start, injector, a, b, period_s)
