"""The virtual-time scheduler: ordering, cancellation, determinism."""

import pytest

from repro.errors import SimulationError
from repro.sim.kernel import PeriodicTimer, RealtimeScheduler, Simulator


class TestScheduling:
    def test_starts_at_zero(self, sim):
        assert sim.now() == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=100.0).now() == 100.0

    def test_call_later_advances_clock(self, sim):
        seen = []
        sim.call_later(5.0, lambda: seen.append(sim.now()))
        sim.run_until_idle()
        assert seen == [5.0]

    def test_events_fire_in_time_order(self, sim):
        order = []
        sim.call_later(3.0, order.append, "c")
        sim.call_later(1.0, order.append, "a")
        sim.call_later(2.0, order.append, "b")
        sim.run_until_idle()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_scheduling_order(self, sim):
        order = []
        for tag in "abcde":
            sim.call_at(1.0, order.append, tag)
        sim.run_until_idle()
        assert order == list("abcde")

    def test_call_soon_preserves_fifo(self, sim):
        order = []
        sim.call_soon(order.append, 1)
        sim.call_soon(order.append, 2)
        sim.call_soon(order.append, 3)
        sim.run_until_idle()
        assert order == [1, 2, 3]

    def test_cannot_schedule_in_past(self, sim):
        sim.call_later(1.0, lambda: None)
        sim.run_until_idle()
        with pytest.raises(SimulationError):
            sim.call_at(0.5, lambda: None)

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.call_later(-1.0, lambda: None)

    def test_nested_scheduling(self, sim):
        seen = []

        def outer():
            seen.append(("outer", sim.now()))
            sim.call_later(2.0, inner)

        def inner():
            seen.append(("inner", sim.now()))

        sim.call_later(1.0, outer)
        sim.run_until_idle()
        assert seen == [("outer", 1.0), ("inner", 3.0)]


class TestCancellation:
    def test_cancelled_timer_does_not_fire(self, sim):
        seen = []
        timer = sim.call_later(1.0, seen.append, "x")
        timer.cancel()
        sim.run_until_idle()
        assert seen == []

    def test_cancel_is_idempotent(self, sim):
        timer = sim.call_later(1.0, lambda: None)
        timer.cancel()
        timer.cancel()
        sim.run_until_idle()

    def test_pending_count_ignores_cancelled(self, sim):
        t1 = sim.call_later(1.0, lambda: None)
        sim.call_later(2.0, lambda: None)
        t1.cancel()
        assert sim.pending_count() == 1

    def test_cancelled_head_does_not_advance_the_clock(self, sim):
        seen = []
        sim.call_later(1.0, seen.append, "dead").cancel()
        sim.call_later(5.0, seen.append, "late")
        sim.run(2.0)                 # the cancelled head is discarded
        assert seen == [] and sim.now() == 2.0
        assert sim.step() is True
        assert seen == ["late"] and sim.now() == 5.0
        assert sim.events_processed == 1


class TestRun:
    def test_run_stops_at_target_time(self, sim):
        seen = []
        sim.call_later(1.0, seen.append, "a")
        sim.call_later(5.0, seen.append, "b")
        sim.run(2.0)
        assert seen == ["a"]
        assert sim.now() == 2.0

    def test_run_backwards_rejected(self, sim):
        sim.run(5.0)
        with pytest.raises(SimulationError):
            sim.run(1.0)

    def test_step_returns_false_when_idle(self, sim):
        assert sim.step() is False

    def test_step_runs_one_event(self, sim):
        seen = []
        sim.call_later(1.0, seen.append, 1)
        sim.call_later(2.0, seen.append, 2)
        assert sim.step() is True
        assert seen == [1]

    def test_run_until_idle_max_events_guard(self, sim):
        def rearm():
            sim.call_later(0.1, rearm)

        rearm()
        with pytest.raises(SimulationError):
            sim.run_until_idle(max_events=50)

    def test_run_until_idle_max_time_guard(self, sim):
        def rearm():
            sim.call_later(1.0, rearm)

        rearm()
        with pytest.raises(SimulationError):
            sim.run_until_idle(max_time=10.0)

    def test_events_processed_counter(self, sim):
        for _ in range(5):
            sim.call_soon(lambda: None)
        sim.run_until_idle()
        assert sim.events_processed == 5


class TestHeapEntries:
    """The queues order ``(deadline, seq, timer)`` tuples; the timer itself
    is never compared."""

    def test_timers_are_not_ordered(self, sim):
        first = sim.call_at(1.0, lambda: None)
        second = sim.call_at(1.0, lambda: None)
        with pytest.raises(TypeError):
            first < second

    def test_realtime_ties_fifo_and_cancelled_skipped(self):
        scheduler = RealtimeScheduler()
        order = []
        due = scheduler.now()
        timers = [scheduler.call_at(due, order.append, tag) for tag in "abcde"]
        scheduler.call_at(due - 1.0, order.append, "earlier")
        timers[0].cancel()
        timers[2].cancel()
        scheduler.run_for(0.01)
        assert order == ["earlier", "b", "d", "e"]

    def test_realtime_raising_timer_leaves_the_rest_queued(self):
        scheduler = RealtimeScheduler()
        order = []

        def boom():
            raise ValueError("timer bug")

        scheduler.call_soon(order.append, 1)
        scheduler.call_soon(boom)
        scheduler.call_soon(order.append, 2)
        with pytest.raises(ValueError):
            scheduler.run_for(0.01)
        assert order == [1]
        scheduler.run_for(0.01)
        assert order == [1, 2]


class TestPeriodicTimer:
    def test_fires_repeatedly(self, sim):
        moments = []
        sim.every(1.0, lambda: moments.append(sim.now()))
        sim.run(3.5)
        assert moments == [1.0, 2.0, 3.0]

    def test_cancel_stops_it(self, sim):
        moments = []
        timer = sim.every(1.0, lambda: moments.append(sim.now()))
        sim.call_later(2.5, timer.cancel)
        sim.run(10.0)
        assert moments == [1.0, 2.0]

    def test_interval_must_be_positive(self, sim):
        with pytest.raises(SimulationError):
            PeriodicTimer(sim, 0.0, lambda: None, ())

    def test_survives_callback_exception(self, sim):
        calls = []

        def flaky():
            calls.append(sim.now())
            if len(calls) == 1:
                raise ValueError("transient")

        sim.every(1.0, flaky)
        with pytest.raises(ValueError):
            sim.run(1.5)
        # The timer re-armed before raising, so the schedule continues.
        sim.run(2.5)
        assert calls == [1.0, 2.0]


class TestDeterminism:
    def test_identical_runs_identical_traces(self):
        def trace():
            sim = Simulator()
            log = []
            sim.every(0.3, lambda: log.append(("tick", round(sim.now(), 6))))
            sim.call_later(0.5, lambda: log.append(("a", sim.now())))
            sim.call_later(0.5, lambda: log.append(("b", sim.now())))
            sim.run(2.0)
            return log

        assert trace() == trace()
