"""Event-driven scheduling kernel.

Two schedulers share one interface:

* :class:`Simulator` runs callbacks in *virtual* time.  It is completely
  deterministic: ties are broken by scheduling order, and no wall-clock time
  passes while it runs.  All unit tests and all benchmark experiments use it.

* :class:`RealtimeScheduler` runs the same callbacks against the wall clock
  and polls readable file descriptors (used by the UDP transport), so the
  identical protocol code can run on a real network.

Nothing in the protocol stack ever calls ``time.time()`` or ``sleep``
directly; components receive a scheduler and use ``now()`` / ``call_later``.
That discipline is what makes the delivery-semantics tests reproducible.
"""

from __future__ import annotations

import heapq
import itertools
import selectors
import time
from typing import Any, Callable, Protocol

from repro.errors import SimulationError


class Timer:
    """Handle for a scheduled callback; supports cancellation.

    A timer is not itself ordered: the schedulers queue it inside a
    ``(deadline, seq, timer)`` tuple, so the heap compares two floats (and,
    on a tie, two ints) in C.  ``seq`` is unique per scheduler, which keeps
    the order stable and deterministic and means the comparison never
    reaches the timer.
    """

    __slots__ = ("deadline", "seq", "callback", "args", "cancelled")

    def __init__(self, deadline: float, seq: int,
                 callback: Callable[..., None], args: tuple) -> None:
        self.deadline = deadline
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent."""
        self.cancelled = True

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"<Timer t={self.deadline:.6f} seq={self.seq} {state}>"


class Scheduler(Protocol):
    """The time/callback interface every component is written against."""

    def now(self) -> float:
        """Current time in seconds (virtual or wall-clock)."""
        ...

    def call_at(self, when: float, callback: Callable[..., None],
                *args: Any) -> Timer:
        """Run ``callback(*args)`` at absolute time ``when``."""
        ...

    def call_later(self, delay: float, callback: Callable[..., None],
                   *args: Any) -> Timer:
        """Run ``callback(*args)`` after ``delay`` seconds."""
        ...

    def call_soon(self, callback: Callable[..., None], *args: Any) -> Timer:
        """Run ``callback(*args)`` as soon as possible, preserving order."""
        ...


class Simulator:
    """Deterministic virtual-time scheduler.

    Events fire in (time, scheduling-order) order.  ``run()`` variants
    advance the clock; scheduling never does.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = start_time
        self._queue: list[tuple[float, int, Timer]] = []
        self._seq = itertools.count()
        self._running = False
        self.events_processed = 0

    def now(self) -> float:
        return self._now

    def call_at(self, when: float, callback: Callable[..., None],
                *args: Any) -> Timer:
        if when < self._now - 1e-12:
            raise SimulationError(
                f"cannot schedule at {when:.6f}, current time is {self._now:.6f}")
        when = max(when, self._now)
        seq = next(self._seq)
        timer = Timer(when, seq, callback, args)
        heapq.heappush(self._queue, (when, seq, timer))
        return timer

    def call_later(self, delay: float, callback: Callable[..., None],
                   *args: Any) -> Timer:
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.call_at(self._now + delay, callback, *args)

    def call_soon(self, callback: Callable[..., None], *args: Any) -> Timer:
        return self.call_at(self._now, callback, *args)

    def every(self, interval: float, callback: Callable[..., None],
              *args: Any) -> "PeriodicTimer":
        """Run ``callback`` every ``interval`` seconds until cancelled."""
        return PeriodicTimer(self, interval, callback, args)

    # -- execution -----------------------------------------------------

    def step(self) -> bool:
        """Run the single earliest pending event.

        Returns False when the queue is empty (after discarding cancelled
        timers), True if an event ran.
        """
        while self._queue:
            deadline, _, timer = heapq.heappop(self._queue)
            if timer.cancelled:
                continue
            self._now = deadline
            self.events_processed += 1
            timer.callback(*timer.args)
            return True
        return False

    def run(self, until: float) -> None:
        """Run all events with deadline <= ``until``, then set now=until."""
        if until < self._now:
            raise SimulationError(
                f"cannot run backwards to {until:.6f} from {self._now:.6f}")
        while self._queue:
            head = self._peek()
            if head is None or head.deadline > until:
                break
            self.step()
        self._now = until

    def run_until_idle(self, max_time: float | None = None,
                       max_events: int | None = None) -> None:
        """Run until no events remain (or a safety bound is hit).

        ``max_time``/``max_events`` guard against protocol bugs that generate
        unbounded timer chains (e.g. a retransmit loop); hitting a bound
        raises so the bug is visible rather than hanging a test.
        """
        processed = 0
        while True:
            head = self._peek()
            if head is None:
                return
            if max_time is not None and head.deadline > max_time:
                raise SimulationError(
                    f"simulation still active past max_time={max_time}")
            if max_events is not None and processed >= max_events:
                raise SimulationError(
                    f"simulation still active after {max_events} events")
            self.step()
            processed += 1

    def pending_count(self) -> int:
        """Number of live (non-cancelled) timers in the queue."""
        return sum(1 for _, _, timer in self._queue if not timer.cancelled)

    def _peek(self) -> Timer | None:
        while self._queue and self._queue[0][2].cancelled:
            heapq.heappop(self._queue)
        return self._queue[0][2] if self._queue else None


class PeriodicTimer:
    """Repeats a callback at a fixed interval on any scheduler."""

    def __init__(self, scheduler: Scheduler, interval: float,
                 callback: Callable[..., None], args: tuple) -> None:
        if interval <= 0:
            raise SimulationError(f"periodic interval must be > 0, got {interval}")
        self._scheduler = scheduler
        self._interval = interval
        self._callback = callback
        self._args = args
        self._cancelled = False
        self._timer = scheduler.call_later(interval, self._fire)

    def _fire(self) -> None:
        if self._cancelled:
            return
        # Re-arm before invoking so a callback that raises does not silently
        # kill the periodic schedule.
        self._timer = self._scheduler.call_later(self._interval, self._fire)
        self._callback(*self._args)

    def cancel(self) -> None:
        self._cancelled = True
        self._timer.cancel()


class Pollable(Protocol):
    """A file-descriptor source the realtime scheduler polls for reads."""

    def fileno(self) -> int: ...

    def on_readable(self) -> None: ...


class RealtimeScheduler:
    """Wall-clock scheduler with fd polling, for real UDP deployments.

    The run loop interleaves timer dispatch with ``select`` on registered
    pollables (UDP sockets).  It exists so integration tests can exercise the
    true network path; simulations should prefer :class:`Simulator`.
    """

    def __init__(self) -> None:
        self._queue: list[tuple[float, int, Timer]] = []
        self._seq = itertools.count()
        self._selector = selectors.DefaultSelector()
        self._pollables: dict[int, Pollable] = {}
        # fd recorded at registration time, keyed by pollable identity:
        # a closed socket reports fileno() == -1, so unregistration after
        # close must not re-ask the pollable for its fd.
        self._registered_fds: dict[int, int] = {}
        self._stopped = False

    def now(self) -> float:
        return time.monotonic()

    def call_at(self, when: float, callback: Callable[..., None],
                *args: Any) -> Timer:
        seq = next(self._seq)
        timer = Timer(when, seq, callback, args)
        heapq.heappush(self._queue, (when, seq, timer))
        return timer

    def call_later(self, delay: float, callback: Callable[..., None],
                   *args: Any) -> Timer:
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.call_at(self.now() + delay, callback, *args)

    def call_soon(self, callback: Callable[..., None], *args: Any) -> Timer:
        return self.call_at(self.now(), callback, *args)

    def every(self, interval: float, callback: Callable[..., None],
              *args: Any) -> PeriodicTimer:
        return PeriodicTimer(self, interval, callback, args)

    def register_pollable(self, pollable: Pollable) -> None:
        fd = pollable.fileno()
        self._selector.register(fd, selectors.EVENT_READ, pollable)
        self._pollables[fd] = pollable
        self._registered_fds[id(pollable)] = fd

    def register_pollables(self, pollables: "list[Pollable]") -> None:
        """Register every pollable of a multi-socket source (e.g. a
        UdpTransport's unicast *and* broadcast sockets)."""
        for pollable in pollables:
            self.register_pollable(pollable)

    def unregister_pollable(self, pollable: Pollable) -> None:
        fd = self._registered_fds.pop(id(pollable), None)
        if fd is None:
            fd = pollable.fileno()
        if fd in self._pollables:
            self._selector.unregister(fd)
            del self._pollables[fd]

    def pollable_count(self) -> int:
        """Registered fd sources (observability for the server layer)."""
        return len(self._pollables)

    def stop(self) -> None:
        """Make ``run_for``/``run_until_idle`` return at the next iteration."""
        self._stopped = True

    def run_for(self, duration: float) -> None:
        """Drive timers and socket reads for ``duration`` wall-clock seconds."""
        self._stopped = False
        deadline = self.now() + duration
        while not self._stopped:
            now = self.now()
            if now >= deadline:
                return
            timeout = self._dispatch_due(now, deadline)
            if self._pollables:
                for key, _ in self._selector.select(timeout):
                    key.data.on_readable()
            else:
                time.sleep(timeout)

    def _dispatch_due(self, now: float, deadline: float) -> float:
        """Run due timers; return how long the loop may block."""
        while self._queue:
            due, _, head = self._queue[0]
            if head.cancelled:
                heapq.heappop(self._queue)
                continue
            if due > now:
                return max(0.0, min(due - now, deadline - now, 0.05))
            heapq.heappop(self._queue)
            head.callback(*head.args)
            now = self.now()
        return max(0.0, min(deadline - now, 0.05))
