"""What one measured phase hands back, and the arithmetic both stacks share."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

#: A closed phase is cut into this many equal-count segments, an open one
#: into this many equal-count windows by due time.  The box these numbers
#: are taken on is a slice of a shared host whose neighbours slow it by
#: 10-80 % for seconds at a time — noise that only ever *adds* time — so a
#: phase reports the segment or window with this share (%) of the others
#: faster than it, five or six of them: what the program does while the
#: box is left alone, which repeats, not what the neighbours did that
#: minute, which does not.
SEGMENTS, FAST_SEGMENTS = 60, 10
WINDOWS, FAST_WINDOWS = 20, 25


@dataclass
class Phase:
    """Raw measurements of one closed or open phase."""

    events: int = 0
    #: Subscriber callbacks the events caused (rules: matched rules).
    deliveries: int = 0
    wall_s: float = 0.0
    #: Process CPU, plus match-worker CPU where a pool is attached.
    cpu_s: float = 0.0
    #: (events, wall seconds, cpu seconds) per segment of a closed phase.
    segments: list[tuple[int, float, float]] = field(default_factory=list)
    #: Open phase: due time -> subscriber callback, one sample per
    #: delivery, grouped by the window the event was due in.
    latency_windows: list[list[float]] = field(
        default_factory=lambda: [[] for _ in range(WINDOWS)])
    #: Open phase: how late each publish left the generator.
    late_ms: list[float] = field(default_factory=list)
    target_rate: float = 0.0
    achieved_rate: float = 0.0
    #: Events unresolved when the middle / the last event was due.
    backlog_mid: int = 0
    backlog_end: int = 0
    #: UDP closed phase: bytes / datagrams every socket sent meanwhile.
    wire_bytes: int = 0
    datagrams: int = 0
    #: Pool closed phase: bytes that crossed the worker pipes meanwhile.
    ipc_bytes: int = 0
    #: Span-index range of the phase in a traced run.
    span_range: tuple[int, int] = (0, 0)

    def goodput_eps(self) -> float:
        return percentile(sorted(events / wall for events, wall, _cpu
                                 in self.segments), 100 - FAST_SEGMENTS)

    def cpu_us_per_event(self) -> float:
        return percentile(sorted(1e6 * cpu / events for events, _wall, cpu
                                 in self.segments), FAST_SEGMENTS)

    def window_of(self, index: int) -> list[float]:
        """Where the latencies of the phase's ``index``-th event go."""
        return self.latency_windows[index * WINDOWS // self.events]

    def latencies_ms(self) -> list[float]:
        """Every latency sample of the phase, sorted."""
        return sorted(sample for window in self.latency_windows
                      for sample in window)

    def deliver_ms(self, q: float) -> float:
        """The ``q``-th latency percentile of the FAST_WINDOWS-quantile
        window."""
        return percentile(sorted(percentile(sorted(window), q)
                                 for window in self.latency_windows
                                 if window), FAST_WINDOWS)


class SegmentClock:
    """Cuts a closed phase into SEGMENTS equal-progress wall/CPU segments.

    ``progress`` is whatever the driver can count exactly as it happens
    (resolved deliveries, completed batches); each segment is charged the
    events *published* while it lasted — in a closed loop the publish and
    resolve rates are equal, and the last segment runs to the full drain.
    """

    def __init__(self, total_progress: int, cpu_clock) -> None:
        self._cpu_clock = cpu_clock
        self._bounds = [total_progress * (index + 1) // SEGMENTS
                        for index in range(SEGMENTS)]
        self._events = 0
        self._wall = self.started = time.perf_counter()
        self._cpu = self.cpu_started = cpu_clock()
        self.segments: list[tuple[int, float, float]] = []

    def advance(self, progress: int, events: int) -> None:
        """Close the segments that ``progress`` has completed."""
        if not self._bounds or progress < self._bounds[0]:
            return
        while self._bounds and progress >= self._bounds[0]:
            self._bounds.pop(0)
        wall, cpu = time.perf_counter(), self._cpu_clock()
        if events > self._events:
            self.segments.append((events - self._events, wall - self._wall,
                                  cpu - self._cpu))
            self._events, self._wall, self._cpu = events, wall, cpu

    def finish(self, phase: Phase) -> None:
        phase.wall_s = self._wall - self.started
        phase.cpu_s = self._cpu - self.cpu_started
        phase.segments = self.segments


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]
