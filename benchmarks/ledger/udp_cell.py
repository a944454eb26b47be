"""The three ``*_udp`` workloads: a real cell on loopback UDP.

One ``CellServer`` and N ``LoopbackDevice`` s share one
``RealtimeScheduler``: one process, one thread, one selector loop, every
hop a real ``sendto``/``recvfrom`` on 127.0.0.1.  The driver below is the
only other code on that thread; it publishes through
``LoopbackDevice.publish`` and observes through subscriber callbacks and
public ``*Stats`` objects.

Loopback is not a radio link: there is no loss, no propagation delay and
no bandwidth limit, so these figures are the *software* cost of the path.
"""

from __future__ import annotations

import dataclasses
import time
from array import array
from dataclasses import dataclass

from repro.deploy import CellServer, LoopbackDevice, ServerConfig, make_devices
from repro.matching.filters import Filter
from repro.smc.cell import CellConfig
from repro.transport.reliability import ChannelStats

from ledger import workloads
from ledger.phases import WINDOWS, Phase, SegmentClock
from ledger.workloads import UdpWorkload

READING_TYPE = "vitals.hr"
FRAME_TYPE = "station.frame"
#: Stacks built (and all but the last torn down) per full-count run;
#: ``setup_s`` is their median.  A ward joins in 10-20 ms, so it takes
#: this many for the median to sit still.
SETUP_REPEATS = 31
SETUP_TIMEOUT_S = 30.0
DRAIN_TIMEOUT_S = 60.0
#: Overdue events an open-loop generator sends before it serves the
#: sockets again; it also holds overdue events back while the closed
#: loop's cap of delivery-bound events is unresolved.  After a stall (this
#: VM pauses for 50-200 ms now and then) an unbounded catch-up burst would
#: overflow the cell's receive buffer by itself — 32 overdue fan-out
#: frames are 512 acks converging on one socket: measured, 67-943 kernel
#: drops in 3 open phases of 14.  Latency still runs from each event's
#: due time, so the wait in the generator is charged like any other.
OPEN_BURST = 32


@dataclass
class UdpInputs:
    #: Readings (fan-in) or frame bodies (fan-out), cycled by event index.
    heart_rates: array
    frames: list[bytes]


def build_inputs(workload: UdpWorkload, seed: int) -> UdpInputs:
    total = (workload.publishers * max(1, workload.batch)
             + workload.closed_events + workload.open_events)
    if workload.payload_bytes:
        return UdpInputs(array("B"), workloads.frame_payloads(
            seed, workload.name, workload.payload_bytes))
    return UdpInputs(workloads.heart_rates(seed, workload.name, total), [])


def kernel_rx_drops(ports: set[int]) -> int | None:
    """Datagrams the kernel dropped at our sockets' receive queues.

    The ``drops`` column of ``/proc/net/udp`` for the given local ports;
    None where the file is unreadable (non-Linux, locked-down sandbox).
    """
    try:
        with open("/proc/net/udp", "r", encoding="ascii") as handle:
            lines = handle.read().splitlines()[1:]
    except OSError:
        return None
    drops = 0
    for line in lines:
        fields = line.split()
        if int(fields[1].rsplit(":", 1)[1], 16) in ports:
            drops += int(fields[-1])
    return drops


class Stack:
    """A joined, subscribed and warmed cell, ready to be measured."""

    def __init__(self, workload: UdpWorkload, inputs: UdpInputs) -> None:
        started = time.perf_counter()
        self.workload = workload
        self.inputs = inputs
        self.server = CellServer(ServerConfig(
            cell=CellConfig(cell_name="ledger-ward"),
            discovery_port=0, healthz_host=None,
            # Sized for the ward: the closed loop keeps up to closed_cap
            # deliveries queued toward one display on purpose, which must
            # read as load, not as a stalled member to quench or shed.
            quench_backlog=512, wake_backlog=128, shed_backlog=2048))
        self.scheduler = self.server.scheduler
        self.server.start()
        self.publishers = make_devices(
            self.scheduler, self.server.address, workload.publishers,
            name_prefix="sensor", announce_retry_s=0.2,
            batch=workload.batch)
        self.subscribers = make_devices(
            self.scheduler, self.server.address, workload.subscribers,
            name_prefix="display", announce_retry_s=0.2)
        self.devices = self.publishers + self.subscribers
        self._names = [device.name for device in self.publishers]

        self.join_ms: list[float] = []
        for device in self.devices:
            self._start(device)
        bus = self.server.cell.bus
        self._pump(lambda: all(device.joined for device in self.devices)
                   and len(bus.members()) == len(self.devices),
                   SETUP_TIMEOUT_S, "devices to join")

        #: Per subscriber, the ``k`` of every event its callback saw.
        self.received: list[list[int]] = [[] for _ in self.subscribers]
        #: Deliveries still owed for event ``k`` (index ``k - _base``).
        self._left = array("B")
        self._base = 0
        self._unresolved = 0
        self._resolved = 0
        self._on_delivery = None
        filt = (Filter.where(FRAME_TYPE) if workload.payload_bytes
                else Filter.where(READING_TYPE,
                                  hr=(">", workloads.HR_ALARM)))
        subscriptions = bus.stats.subscriptions_active
        for index, device in enumerate(self.subscribers):
            device.subscribe(filt, self._callback(index))
        self._pump(lambda: bus.stats.subscriptions_active
                   == subscriptions + len(self.subscribers),
                   SETUP_TIMEOUT_S, "subscriptions to install")

        # Warm one flush per publisher through the whole path.
        self._next_k = 0
        self._expected: list[int] = []         # k of every matching event
        self._bus_published = bus.stats.published
        self._run(workload.publishers * max(1, workload.batch),
                  cap=1 << 30, matching_only=True)
        self.setup_s = time.perf_counter() - started

    # -- plumbing --------------------------------------------------------------

    def _start(self, device: LoopbackDevice) -> None:
        started = time.perf_counter()
        inner = device.agent.on_joined

        def joined(cell_name, core_address) -> None:
            self.join_ms.append(1e3 * (time.perf_counter() - started))
            inner(cell_name, core_address)
            self.scheduler.stop()

        device.agent.on_joined = joined
        device.start()

    def _pump(self, condition, timeout_s: float, what: str) -> None:
        deadline = time.perf_counter() + timeout_s
        while not condition():
            if time.perf_counter() > deadline:
                raise TimeoutError(f"timed out waiting for {what}")
            self.scheduler.run_for(0.002)

    def _callback(self, subscriber: int):
        received = self.received[subscriber]
        left = self._left

        def on_event(event) -> None:
            k = event.attributes["k"]
            received.append(k)
            index = k - self._base
            left[index] -= 1
            if not left[index]:
                self._unresolved -= 1
                self._resolved += 1
                # Hand the loop back to the driver: a caller was waiting
                # for exactly this.
                self.scheduler.stop()
            if self._on_delivery is not None:
                self._on_delivery(index)

        return on_event

    def _publish(self, k: int, matching_only: bool = False) -> None:
        """Publish event ``k`` from publisher ``k % publishers``."""
        workload = self.workload
        slot = k % workload.publishers
        if workload.payload_bytes:
            frames = self.inputs.frames
            matches = True
            self.publishers[slot].publish(
                FRAME_TYPE, {"k": k, "frame": frames[k % len(frames)]})
        else:
            readings = self.inputs.heart_rates
            hr = readings[k % len(readings)]
            if matching_only and hr <= workloads.HR_ALARM:
                hr = workloads.HR_HIGH
            matches = hr > workloads.HR_ALARM
            self.publishers[slot].publish(
                READING_TYPE, {"hr": hr, "patient": self._names[slot],
                               "k": k})
        if matches:
            self._left.append(workload.subscribers)
            self._unresolved += 1
            self._expected.append(k)
        else:
            self._left.append(0)

    def _settled(self) -> bool:
        return (not self._unresolved
                and self.server.cell.bus.stats.published
                >= self._bus_published)

    def _drain(self) -> None:
        for device in self.publishers:
            device.flush()
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        while not self._settled():
            if time.perf_counter() > deadline:
                raise TimeoutError(
                    f"{self._unresolved} events never resolved")
            self.scheduler.run_for(0.05)

    def _begin(self, events: int) -> int:
        """Reset per-phase accounting; returns the phase's first ``k``."""
        del self._left[:]
        self._base = self._next_k
        self._next_k += events
        self._unresolved = 0
        self._resolved = 0
        self._bus_published += events
        return self._base

    def _wire_totals(self) -> tuple[int, int]:
        stats = [self.server.transport.stats] + [
            device.transport.stats for device in self.devices]
        return (sum(s.bytes_sent for s in stats),
                sum(s.datagrams_sent for s in stats))

    # -- phases ----------------------------------------------------------------

    def _run(self, events: int, cap: int, matching_only: bool = False,
             clock: SegmentClock | None = None) -> None:
        """Closed loop: publish while fewer than ``cap`` delivery-bound
        events are unresolved, otherwise serve the sockets."""
        first = self._begin(events)
        published = 0
        run_for = self.scheduler.run_for
        while published < events:
            while published < events and self._unresolved < cap:
                self._publish(first + published, matching_only)
                published += 1
            if clock is not None:
                clock.advance(self._resolved, published)
            if published < events:
                run_for(0.05)           # returns early on every resolution
        self._drain()

    def run_closed(self, events: int) -> Phase:
        bytes_before, datagrams_before = self._wire_totals()
        expected_before = len(self._expected)
        # Progress is counted in resolved delivery-bound events; about
        # half the fan-in readings are, all the fan-out frames are.
        if self.workload.payload_bytes:
            bound = events
        else:
            readings = self.inputs.heart_rates
            bound = sum(1 for k in range(self._next_k, self._next_k + events)
                        if readings[k % len(readings)] > workloads.HR_ALARM)
        clock = SegmentClock(bound, time.process_time)
        self._run(events, self.workload.closed_cap, clock=clock)
        clock.advance(bound, events)
        phase = Phase(events=events)
        clock.finish(phase)
        phase.deliveries = ((len(self._expected) - expected_before)
                            * self.workload.subscribers)
        bytes_after, datagrams_after = self._wire_totals()
        phase.wire_bytes = bytes_after - bytes_before
        phase.datagrams = datagrams_after - datagrams_before
        return phase

    def run_open(self, events: int, rate: float) -> Phase:
        """Open loop: event ``i`` is due at ``t0 + i / rate`` whatever the
        cell is doing, and its latency runs from that due time."""
        phase = Phase(events=events, target_rate=rate)
        period = 1.0 / rate
        clock = time.perf_counter
        windows = phase.latency_windows
        late = phase.late_ms
        expected_before = len(self._expected)
        first = self._begin(events)
        cpu_started = time.process_time()
        start = clock()

        def on_delivery(index: int) -> None:
            windows[index * WINDOWS // events].append(
                1e3 * (clock() - start - index * period))

        self._on_delivery = on_delivery
        published = 0
        middle = events // 2
        last_at = start
        cap = self.workload.closed_cap
        run_for = self.scheduler.run_for
        while published < events:
            overdue = min(events, int((clock() - start) * rate) + 1)
            due = min(overdue, published + OPEN_BURST)
            while published < due and self._unresolved < cap:
                if published == middle:
                    phase.backlog_mid = (self._unresolved
                                         + overdue - published - 1)
                last_at = clock()
                late.append(1e3 * (last_at - start - published * period))
                self._publish(first + published)
                published += 1
            if published < events:
                run_for(max(1e-4, start + published * period - clock()))
        phase.backlog_end = self._unresolved
        phase.achieved_rate = (events - 1) / max(last_at - start, 1e-9)
        self._drain()
        self._on_delivery = None
        phase.wall_s = clock() - start
        phase.cpu_s = time.process_time() - cpu_started
        phase.deliveries = ((len(self._expected) - expected_before)
                            * self.workload.subscribers)
        return phase

    # -- checking and counters -------------------------------------------------

    def check(self) -> tuple[int, int, list[str]]:
        """(expected deliveries, failed, notes).

        Every subscriber must have seen every matching event exactly once
        and each publisher's events in publication order.
        """
        notes: list[str] = []
        expected = set(self._expected)
        publishers = self.workload.publishers
        failed = 0
        for index, received in enumerate(self.received):
            seen: set[int] = set()
            newest = [-1] * publishers
            duplicates = reordered = 0
            for k in received:
                if k in seen:
                    duplicates += 1
                    continue
                seen.add(k)
                if k < newest[k % publishers]:
                    reordered += 1
                else:
                    newest[k % publishers] = k
            missing = len(expected - seen)
            extra = len(seen - expected)
            bad = duplicates + reordered + missing + extra
            if bad:
                failed += bad
                notes.append(
                    f"subscriber {index}: {missing} missing, {extra} "
                    f"unexpected, {duplicates} duplicate, {reordered} out "
                    "of per-publisher order")
        stats = self.server.cell.bus.stats
        if stats.published != (stats.matched + stats.unmatched
                               + stats.duplicates_dropped
                               + stats.from_unknown_member):
            failed += 1
            notes.append(f"BusStats conservation broken: {stats}")
        return len(expected) * len(self.received), failed, notes

    def counters(self) -> dict:
        """Program counters the per-layer metrics are computed from."""
        endpoints = [self.server.cell.endpoint] + [
            device.endpoint for device in self.devices]
        channels = ChannelStats()
        counts = [field.name for field in dataclasses.fields(ChannelStats)
                  if field.type == "int"]
        srtt: list[float] = []
        for endpoint in endpoints:
            stats = endpoint.channel_stats()
            for name in counts:
                setattr(channels, name,
                        getattr(channels, name) + getattr(stats, name))
            srtt.extend(channel.stats.srtt
                        for channel in endpoint.live_channels()
                        if channel.stats.rtt_samples)
        transports = [self.server.transport] + [
            device.transport for device in self.devices]
        ports = {transport.local_address[1] for transport in transports}
        ports.add(self.server.transport.discovery_port)
        bus = self.server.cell.bus
        proxies = [bus.proxy_of(member) for member in bus.members()]
        return {
            "bus": bus.stats,
            "channels": channels,
            "srtt_ms": sorted(1e3 * value for value in srtt),
            "datagrams_received": sum(t.stats.datagrams_received
                                      for t in transports),
            "rx_drops": kernel_rx_drops(ports),
            "edge": self.server.edge_stats,
            "events_decoded": (
                sum(proxy.stats.events_published for proxy in proxies)
                + sum(device.client.stats.delivered
                      + device.client.stats.duplicates_dropped
                      for device in self.devices)),
        }

    def close(self) -> None:
        for device in self.devices:
            device.close()
        self.server.close()
