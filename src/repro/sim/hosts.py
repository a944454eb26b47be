"""Host CPU cost models.

The paper attributes most of its measured response time not to the link (a
1.5 ms USB-IP hop) but to "the behaviour of the operating system at each
host, and also of the JVM at each host" and to "copying of packet data"
(Section V).  To reproduce those curves without the 2006 hardware, every
simulated host carries a :class:`HostProfile` charging virtual CPU time
along two distinct per-byte paths — the distinction the paper's own numbers
force:

* ``per_byte_s`` — the *kernel/stack* copy cost paid by every datagram.
  The paper's raw link sustains ~575 KB/s (≈1.7 µs/B end to end), so this
  path is cheap.
* ``sw_byte_s`` — the *runtime* copy cost paid when the bus software
  handles event payloads (socket buffer → JVM, codec passes, queue copies,
  and — for the Siena engine — type translation).  The paper's Figure 4(a)
  shows ~100 µs/B end-to-end through the bus on the same link, two orders
  of magnitude above the raw path; that gap **is** the measurement the
  paper reports, and it lives here.
* ``per_packet_s`` — fixed cost to move one datagram through the host
  (syscall, scheduling, runtime crossing).
* ``match_base_s`` — fixed per-event cost of invoking the matching engine.

Components report work through the :class:`CostMeter` interface and never
look at the clock; under simulation the meter serialises the work on the
host's CPU (bursts queue, as they would on the iPAQ), and outside
simulation the meter is a no-op because the real CPU pays the real cost.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.sim.kernel import Scheduler

#: Copies the bus software performs on each inbound event payload.  Since
#: the zero-copy wire path (PR 5) the decode pass slices ``memoryview``\ s
#: of the datagram instead of materialising per-frame/per-value copies,
#: so only the socket-buffer -> runtime handoff remains (it was 2 when
#: the TLV decode copied every layer).
INBOUND_COPIES = 1
#: Copies on each outbound event payload.  Scatter-gather framing joins
#: the encode -> frame -> batch chunk stack exactly once at the
#: reliable-payload boundary, so only that runtime -> socket join remains
#: (it was 2 when every layer concatenated).
OUTBOUND_COPIES = 1


@dataclass(frozen=True)
class HostProfile:
    """Virtual CPU cost constants for one class of machine."""

    name: str
    per_packet_s: float
    per_byte_s: float
    sw_byte_s: float
    match_base_s: float

    def __post_init__(self) -> None:
        for field in ("per_packet_s", "per_byte_s", "sw_byte_s",
                      "match_base_s"):
            if getattr(self, field) < 0:
                raise ConfigurationError(f"{self.name}: {field} must be >= 0")

    def packet_cost(self, nbytes: int) -> float:
        """CPU seconds to push one ``nbytes`` datagram through the stack."""
        return self.per_packet_s + nbytes * self.per_byte_s

    def copy_cost(self, nbytes: int) -> float:
        """CPU seconds for the runtime to copy ``nbytes`` of payload."""
        return nbytes * self.sw_byte_s


# Calibration notes: constants are tuned so the simulated USB-IP testbed
# reproduces the paper's three quoted link numbers (1.5 ms mean latency,
# 0.6-2.3 ms spread, ~575 KB/s raw bulk throughput) and the *shape* of
# Figure 4 (response time rising roughly linearly with payload; the
# translation-free bus beating the Siena-based bus).  The Figure 4 and
# link-baseline benches under ``benchmarks/`` print the measured values,
# and ``tests/bench/test_fig4_golden.py`` pins them.

#: iPAQ hx4700 running Blackdown JVM 1.3.1 — slow syscalls, very slow
#: runtime copies, and a large fixed per-event cost in the bus software
#: (allocation-heavy JVM path; this is what keeps the paper's Figure 4(b)
#: curves still climbing at 3000 B instead of saturating early).
PDA_PROFILE = HostProfile(name="pda", per_packet_s=1.5e-3,
                          per_byte_s=0.7e-6, sw_byte_s=9.5e-6,
                          match_base_s=4.0e-2)

#: 1.2 GHz Pentium 3 laptop, 256 MB RAM.
LAPTOP_PROFILE = HostProfile(name="laptop", per_packet_s=2.5e-4,
                             per_byte_s=0.2e-6, sw_byte_s=0.6e-6,
                             match_base_s=5.0e-5)

#: A microcontroller-class sensor node (used in BAN scenarios).
SENSOR_PROFILE = HostProfile(name="sensor", per_packet_s=2.0e-3,
                             per_byte_s=2.0e-6, sw_byte_s=5.0e-6,
                             match_base_s=0.0)

#: A host whose work costs nothing: the ideal network's nodes, where a
#: datagram is handed over the instant it arrives.
ZERO_COST_PROFILE = HostProfile(name="zero_cost", per_packet_s=0.0,
                                per_byte_s=0.0, sw_byte_s=0.0,
                                match_base_s=0.0)


class CostMeter:
    """Interface through which protocol code reports work it performed."""

    def charge_seconds(self, seconds: float) -> None:
        raise NotImplementedError

    def charge_copy(self, nbytes: int) -> None:
        raise NotImplementedError

    def charge_packet(self, nbytes: int) -> None:
        raise NotImplementedError

    def charge_match(self) -> None:
        raise NotImplementedError


class NullCostMeter(CostMeter):
    """Meter used outside simulation: work costs nothing extra."""

    def charge_seconds(self, seconds: float) -> None:
        pass

    def charge_copy(self, nbytes: int) -> None:
        pass

    def charge_packet(self, nbytes: int) -> None:
        pass

    def charge_match(self) -> None:
        pass


class SimHost(CostMeter):
    """A machine in the simulated testbed.

    The host serialises CPU work: ``occupy`` advances a ``busy_until``
    watermark, and anything the host sends or delivers is delayed until the
    CPU is free.  This produces realistic queueing when several packets or
    events arrive back-to-back.
    """

    def __init__(self, scheduler: Scheduler, profile: HostProfile,
                 name: str) -> None:
        self.scheduler = scheduler
        self.profile = profile
        self.name = name
        self._busy_until = scheduler.now()
        self.cpu_seconds_used = 0.0
        self.packets_handled = 0
        self.bytes_copied = 0
        self.matches_charged = 0

    # -- CostMeter interface -------------------------------------------

    def charge_seconds(self, seconds: float) -> None:
        if seconds < 0:
            raise ConfigurationError(f"negative CPU charge: {seconds}")
        self.occupy(seconds)

    def charge_copy(self, nbytes: int) -> None:
        self.bytes_copied += nbytes
        self.occupy(self.profile.copy_cost(nbytes))

    def charge_packet(self, nbytes: int) -> None:
        self.packets_handled += 1
        self.occupy(self.profile.packet_cost(nbytes))

    def charge_match(self) -> None:
        self.matches_charged += 1
        self.occupy(self.profile.match_base_s)

    # -- CPU resource ----------------------------------------------------

    def occupy(self, seconds: float) -> float:
        """Consume ``seconds`` of CPU starting when the CPU is next free.

        Returns the completion time.
        """
        start = max(self.scheduler.now(), self._busy_until)
        self._busy_until = start + seconds
        self.cpu_seconds_used += seconds
        return self._busy_until

    def ready_time(self) -> float:
        """Earliest time new work submitted now could complete."""
        return max(self.scheduler.now(), self._busy_until)

    def run_when_free(self, seconds: float, callback, *args) -> None:
        """Charge ``seconds`` of CPU, then invoke ``callback`` when done."""
        done = self.occupy(seconds)
        self.scheduler.call_at(done, callback, *args)

    def __repr__(self) -> str:
        return f"<SimHost {self.name} profile={self.profile.name}>"
