"""The paper's experiments, plus the ablations DESIGN.md schedules.

Each function is deterministic for a given seed, runs entirely in virtual
time, and returns a structured result the reporting module can print as
the rows/series of the corresponding figure.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from repro.bench.testbed import (
    BENCH_EVENT_TYPE,
    PaperTestbed,
    build_paper_testbed,
)
from repro.bench.workloads import (
    FIG4A_PAYLOAD_SIZES,
    FIG4B_PAYLOAD_SIZES,
    payload_attributes,
)
from repro.errors import SimulationError
from repro.matching.filters import Filter
from repro.sim.hosts import PDA_PROFILE, LAPTOP_PROFILE, SimHost
from repro.sim.kernel import Simulator
from repro.sim.mobility import WalkAway
from repro.sim.radio import USB_IP, WIFI_11B, SimNetwork
from repro.sim.rng import RngRegistry

#: Engine names in paper order: first generation, then its replacement.
PAPER_ENGINES = ("siena", "forwarding")

#: Human labels matching the figure legends.
ENGINE_LABELS = {"siena": "Siena-based event bus",
                 "forwarding": "C-based event bus"}


@dataclass
class SeriesPoint:
    """One x position of one series."""

    x: float
    mean: float
    minimum: float
    maximum: float
    n: int


@dataclass
class Series:
    label: str
    points: list[SeriesPoint] = field(default_factory=list)


@dataclass
class ExperimentResult:
    name: str
    x_label: str
    y_label: str
    series: list[Series] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def series_by_label(self, label: str) -> Series:
        for series in self.series:
            if series.label == label:
                return series
        raise KeyError(label)


def _run_until(sim: Simulator, condition, max_time: float) -> None:
    while not condition():
        if sim.now() > max_time:
            raise SimulationError(f"condition not met by t={max_time}")
        if not sim.step():
            raise SimulationError("simulation went idle before condition")


# -- E1: Figure 4(a) — response time vs payload size -------------------------

def run_fig4a(payload_sizes: tuple[int, ...] = FIG4A_PAYLOAD_SIZES,
              samples: int = 20, engines: tuple[str, ...] = PAPER_ENGINES,
              seed: int = 0) -> ExperimentResult:
    """End-to-end response time of the event bus against message size.

    One event at a time (the unloaded-latency methodology): publish on the
    laptop, through the bus on the PDA, delivered back to the laptop;
    response = delivery instant − publish instant.
    """
    result = ExperimentResult(
        name="fig4a", x_label="Payload Size (bytes)",
        y_label="Response Time (ms)")
    for engine in engines:
        # window=1: the paper's figures were measured over the
        # stop-and-wait transport (one event outstanding, so the window
        # could not matter anyway — pinning keeps the reproduction exact).
        testbed = build_paper_testbed(engine=engine, seed=seed, window=1)
        series = Series(label=ENGINE_LABELS.get(engine, engine))
        for size in payload_sizes:
            values = []
            for sample in range(samples):
                expected = len(testbed.received) + 1
                event = testbed.publisher.publish(
                    BENCH_EVENT_TYPE, payload_attributes(size, sample))
                _run_until(testbed.sim,
                           lambda: len(testbed.received) >= expected,
                           testbed.sim.now() + 60.0)
                response = testbed.received.times[expected - 1] - event.timestamp
                values.append(response * 1000.0)
                # Idle gap so acks drain and samples are independent.
                testbed.sim.run(testbed.sim.now() + 0.2)
            series.points.append(SeriesPoint(
                x=size, mean=statistics.fmean(values), minimum=min(values),
                maximum=max(values), n=len(values)))
        result.series.append(series)
        result.notes[f"{engine}.bytes_translated"] = getattr(
            testbed.cell.engine, "bytes_translated", 0)
    return result


# -- E2/E5: Figure 4(b) — throughput vs payload size ------------------------

def run_fig4b(payload_sizes: tuple[int, ...] = FIG4B_PAYLOAD_SIZES,
              duration_s: float = 30.0, pipeline_depth: int = 4,
              engines: tuple[str, ...] = PAPER_ENGINES,
              seed: int = 0, batch_size: int = 1,
              window: int = 1,
              link_profile=None) -> ExperimentResult:
    """Sustained payload throughput of the event bus against message size.

    The publisher keeps ``pipeline_depth`` events outstanding for
    ``duration_s`` of virtual time; throughput counts payload bytes
    delivered per second of the delivery span.

    ``batch_size > 1`` engages the batch publish pipeline: the publisher
    coalesces that many PUBLISH frames per reliable payload, the bus
    matches and dispatches them in one :meth:`EventBus.publish_batch`
    round, and the subscriber's proxy flushes one BATCH packet per
    scheduling round — the per-packet overheads the per-event path pays
    per event are amortised across the whole batch.

    ``window`` sets every hop's reliable-channel window.  The default of 1
    reproduces the paper's stop-and-wait transport (the published Figure
    4(b) curves); larger values engage the sliding-window/SACK channel so
    outstanding payloads stream without a round trip per frame — the
    window-sweep benchmark measures the difference.

    ``link_profile`` swaps the testbed's USB cable for another link model
    (see :func:`~repro.bench.testbed.build_paper_testbed`); on the USB
    link the PDA's per-event software cost dominates and the window
    barely registers — exactly the paper's point about copy costs — so
    the window sweep runs over a high-RTT uplink instead.
    """
    result = ExperimentResult(
        name="fig4b", x_label="Payload Size (bytes)",
        y_label="Throughput (Kilobytes per second)")
    result.notes["batch_size"] = batch_size
    result.notes["window"] = window
    for engine in engines:
        series = Series(label=ENGINE_LABELS.get(engine, engine))
        events_per_second: dict[int, float] = {}
        for size in payload_sizes:
            testbed = build_paper_testbed(engine=engine, seed=seed,
                                          window=window,
                                          link_profile=link_profile)
            delivered, span = _pump_throughput(testbed, size, duration_s,
                                               pipeline_depth, batch_size)
            if span <= 0.0 or delivered < 2:
                kbps = 0.0
                eps = 0.0
            else:
                kbps = (size * (delivered - 1)) / span / 1024.0
                eps = (delivered - 1) / span
            series.points.append(SeriesPoint(
                x=size, mean=kbps, minimum=kbps, maximum=kbps, n=delivered))
            events_per_second[size] = eps
        result.series.append(series)
        result.notes[f"{engine}.events_per_second"] = events_per_second
    return result


def _pump_throughput(testbed: PaperTestbed, size: int, duration_s: float,
                     pipeline_depth: int,
                     batch_size: int = 1) -> tuple[int, float]:
    sim = testbed.sim
    published = 0
    start_count = len(testbed.received)

    def pump() -> None:
        nonlocal published
        while True:
            outstanding = published - (len(testbed.received) - start_count)
            want = pipeline_depth - outstanding
            if want <= 0:
                return
            if batch_size <= 1:
                testbed.publisher.publish(
                    BENCH_EVENT_TYPE, payload_attributes(size, published))
                published += 1
            else:
                count = min(want, batch_size)
                testbed.publisher.publish_batch(
                    [(BENCH_EVENT_TYPE, payload_attributes(size,
                                                           published + i))
                     for i in range(count)])
                published += count

    pump()
    t_end = sim.now() + duration_s
    while sim.now() < t_end:
        if not sim.step():
            break
        pump()
    delivered_times = testbed.received.times[start_count:]
    delivered_times = [t for t in delivered_times if t <= t_end]
    if len(delivered_times) < 2:
        return len(delivered_times), 0.0
    return len(delivered_times), delivered_times[-1] - delivered_times[0]


# -- E3/E4: the in-text link numbers ----------------------------------------

def run_link_baseline(seed: int = 0, ping_count: int = 2000,
                      bulk_packets: int = 2000,
                      packet_size: int = 1472) -> dict:
    """Measure the raw link, no event bus involved.

    Reproduces the paper's quoted numbers: one-way latency 1.5 ms average
    (0.6 minimum, 2.3 maximum over a minute of traffic) and a raw transfer
    throughput of ~575 KB/s.
    """
    sim = Simulator()
    network = SimNetwork(sim, RngRegistry(seed))
    medium = network.add_medium("usb", USB_IP)
    pda = SimHost(sim, PDA_PROFILE, "pda")
    laptop = SimHost(sim, LAPTOP_PROFILE, "laptop")
    network.attach("pda", pda, medium)
    network.attach("laptop", laptop, medium)

    # Latency: probe the propagation delay of small datagrams.
    network.latency_probe = []
    received = []
    network.set_receiver("pda", lambda src, data: received.append(sim.now()))
    network.set_receiver("laptop", lambda src, data: None)
    for index in range(ping_count):
        sim.call_later(index * 0.03, network.send, "laptop", "pda", b"x" * 32)
    sim.run_until_idle()
    latencies = [value * 1000.0 for value in network.latency_probe]
    network.latency_probe = None

    # Bulk throughput: blast MTU-sized datagrams; the transfer rate is the
    # delivery rate at the PDA.
    first_send = sim.now()
    bytes_got = []
    network.set_receiver("pda",
                         lambda src, data: bytes_got.append((sim.now(),
                                                             len(data))))
    for _ in range(bulk_packets):
        network.send("laptop", "pda", b"y" * packet_size)
    sim.run_until_idle()
    total = sum(n for _, n in bytes_got)
    span = bytes_got[-1][0] - first_send if bytes_got else 0.0
    throughput_kbs = (total / span / 1024.0) if span > 0 else 0.0

    return {
        "latency_ms_mean": statistics.fmean(latencies),
        "latency_ms_min": min(latencies),
        "latency_ms_max": max(latencies),
        "latency_samples": len(latencies),
        "bulk_throughput_kb_s": throughput_kbs,
        "bulk_packets": len(bytes_got),
    }


def run_window_goodput(windows: tuple[int, ...] = (1, 32),
                       messages: int = 400, payload_size: int = 256,
                       rtt_s: float = 0.020, loss_rate: float = 0.02,
                       seed: int = 0) -> dict:
    """Reliable-channel goodput vs send window on a lossy long-RTT link.

    Isolates the transport from the bus: one :class:`ReliableChannel`
    pair over an in-memory link with ``rtt_s`` round-trip time and
    seeded datagram loss, pushing ``messages`` payloads through each
    window setting.  Stop-and-wait pays one RTT per payload; the
    sliding-window/SACK sender streams a window per RTT and retransmits
    only the lost packets, so goodput scales with the window until the
    link saturates — the ratio is CI's regression gate for the windowed
    transport.
    """
    import random

    from repro.transport.inmem import InMemoryHub
    from repro.transport.packets import Packet
    from repro.transport.reliability import ReliableChannel

    results: dict = {"rtt_ms": rtt_s * 1000.0, "loss_rate": loss_rate,
                     "messages": messages, "payload_size": payload_size}
    payloads = [f"m{i:06d}".encode().ljust(payload_size, b".")
                for i in range(messages)]
    for window in windows:
        sim = Simulator()
        hub = InMemoryHub(sim, delay_s=rtt_s / 2.0)
        rng = random.Random(seed)
        hub.drop_filter = lambda src, dest, data: rng.random() >= loss_rate
        sender_t, receiver_t = hub.create("tx"), hub.create("rx")
        got: list[bytes] = []
        done_at = [0.0]

        def on_deliver(_sender, payload, got=got, done_at=done_at, sim=sim):
            got.append(payload)
            done_at[0] = sim.now()

        # RTO just above the RTT so a working link never times out early.
        sender = ReliableChannel(sender_t, sim, "rx", lambda s, p: None,
                                 window=window, rto_initial=3.0 * rtt_s,
                                 rto_max=2.0)
        receiver = ReliableChannel(receiver_t, sim, "tx", on_deliver,
                                   window=window)
        sender_t.set_receiver(
            lambda src, data: sender.handle_packet(Packet.decode(data)))
        receiver_t.set_receiver(
            lambda src, data: receiver.handle_packet(Packet.decode(data)))

        start = sim.now()
        for payload in payloads:
            sender.send(payload)
        deadline = start + 600.0
        while len(got) < messages and sim.now() < deadline:
            sim.run(sim.now() + 0.25)
        if got != payloads:
            raise SimulationError(
                f"window={window}: delivered {len(got)}/{messages} "
                "or stream corrupted")
        elapsed = done_at[0] - start
        results[window] = {
            "goodput_kb_s": messages * payload_size / elapsed / 1024.0,
            "elapsed_s": elapsed,
            "retransmissions": sender.stats.retransmissions,
            "fast_retransmits": sender.stats.fast_retransmits,
            "acks_sent": receiver.stats.acks_sent,
        }
    if len(windows) >= 2:
        slowest, fastest = windows[0], windows[-1]
        results["speedup"] = (results[fastest]["goodput_kb_s"]
                              / results[slowest]["goodput_kb_s"])
    return results


# -- A7: the autonomic control plane ------------------------------------------

def run_rtt_convergence(rtt_s: float, *, warm_messages: int = 240,
                        check_messages: int = 60,
                        payload_size: int = 64, tick_s: float = 0.05) -> dict:
    """RTO self-tuning on one link, from the channel's default config.

    One :class:`~repro.transport.reliability.ReliableChannel` pair over a
    fixed-delay in-memory link of ``rtt_s`` round-trip time, with the
    autonomic RTT controller ticking.  The channel starts at its stock
    RTO (50 ms) — an order of magnitude too high for the paper's USB
    cable and far too *low* for a wide-area uplink, where every packet
    would retransmit before its ack returned and Karn's rule would starve
    the estimator (the controller's blind backoff breaks that deadlock).
    After a warm phase, a check phase counts spurious retransmissions at
    the converged RTO.  Fully deterministic (virtual time, no loss).

    The *optimal static RTO* for a fixed-delay link is the link RTT
    itself — the smallest value that never fires a spurious timeout — so
    ``rto_over_optimal`` is the benchmark's figure of merit.
    """
    from repro.autonomic import AutonomicConfig, AutonomicManager, RttController
    from repro.transport.inmem import InMemoryHub
    from repro.transport.packets import Packet
    from repro.transport.reliability import ReliableChannel

    sim = Simulator()
    hub = InMemoryHub(sim, delay_s=rtt_s / 2.0)
    sender_t, receiver_t = hub.create("tx"), hub.create("rx")
    got: list[bytes] = []
    # Stock channel configuration — the whole point is that *one* default
    # works on both links once the loop is closed.
    sender = ReliableChannel(sender_t, sim, "rx", lambda s, p: None)
    receiver = ReliableChannel(receiver_t, sim, "tx",
                               lambda s, p: got.append(p))
    sender_t.set_receiver(
        lambda src, data: sender.handle_packet(Packet.decode(data)))
    receiver_t.set_receiver(
        lambda src, data: receiver.handle_packet(Packet.decode(data)))

    manager = AutonomicManager(
        sim, controllers=[RttController(lambda: [sender])],
        config=AutonomicConfig(tick_s=tick_s))
    manager.start()
    default_rto = sender.rto_initial

    def pump(count: int, spacing: float) -> None:
        start = sim.now()
        for index in range(count):
            sim.call_at(start + index * spacing, sender.send,
                        b"m" * payload_size)
        deadline = sim.now() + count * spacing + 200.0 * max(rtt_s, 0.05)
        while len(got) < pump.total and sim.now() < deadline:
            sim.run(sim.now() + max(rtt_s, 0.01))
        if len(got) < pump.total:
            raise SimulationError(
                f"rtt={rtt_s}: only {len(got)}/{pump.total} delivered")

    pump.total = warm_messages
    pump(warm_messages, rtt_s / 2.0)
    converged_rto = sender.rto_initial
    rtx_before = sender.stats.retransmissions
    pump.total = warm_messages + check_messages
    pump(check_messages, rtt_s / 2.0)
    manager.stop()

    return {
        "rtt_s": rtt_s,
        "optimal_rto_s": rtt_s,
        "default_rto_s": default_rto,
        "converged_rto_s": converged_rto,
        "rto_over_optimal": converged_rto / rtt_s,
        "srtt_s": sender.stats.srtt,
        "rttvar_s": sender.stats.rttvar,
        "rtt_samples": sender.stats.rtt_samples,
        "warmup_retransmissions": rtx_before,
        "spurious_rtx_after_convergence":
            sender.stats.retransmissions - rtx_before,
        "rtt_actuations": len(manager.actuations("rtt")),
    }


def run_rebalance_recovery(sub_count: int = 4000, batches: int = 10,
                           batch_size: int = 150, shards: int = 8,
                           seed: int = 7, runs: int = 2) -> dict:
    """Throughput recovery on a skewed vitals ward, static vs autonomic.

    The adversarial workload for static CRC routing: every alert rule in
    the ward constrains the same attribute class ``{type, hr, patient}``,
    so the whole table hashes onto one shard of ``shards`` — and one
    re-subscription per batch (the churn real cells live with) drops that
    shard's memo entries for the hot ``type`` and ``patient`` values,
    which are recomputed against the whole table, exactly as if the bus
    were unsharded.  With the autonomic manager ticking, the rebalancer
    detects the pin and splits the class by the ``patient`` equality
    bucket, spreading fragments *and their events* across all shards, so
    every recomputed entry and every per-event set intersection works on
    ~1/``shards`` of the table.  Wall-clock, best-of-``runs`` per
    configuration; both runs must produce identical BusStats (the
    differential suite pins the stronger per-event property).
    """
    import random
    import time as wallclock

    from repro.autonomic import AutonomicManager, ShardRebalancer
    from repro.core.bus import EventBus
    from repro.core.events import Event
    from repro.core.sharding import ShardedMatcher
    from repro.ids import service_id_from_name
    from repro.matching.filters import Constraint, Filter, Op, Subscription

    def build_subs(count, rng, first_id=1):
        subs = []
        for index in range(count):
            constraints = [
                Constraint("type", Op.EQ, f"vitals.{rng.choice('abcd')}"),
                Constraint("hr", rng.choice([Op.GT, Op.LT]),
                           rng.randint(40, 180)),
                Constraint("patient", Op.EQ, f"p-{rng.randint(1, 64)}"),
            ]
            subs.append(Subscription(first_id + index,
                                     service_id_from_name("ward"),
                                     [Filter(constraints)]))
        return subs

    def run_once(autonomic: bool):
        rng = random.Random(seed)
        sim = Simulator()
        bus = EventBus(sim, ShardedMatcher(shards))
        for subscription in build_subs(sub_count, rng):
            bus.subscribe_local(subscription.filters, lambda event: None)
        churn = build_subs(batches, rng, first_id=sub_count + 1)
        sender = service_id_from_name("vitals-pack")
        stamped = []
        for seqno in range((batches + 1) * batch_size):
            attrs = {"hr": rng.randint(40, 180),
                     "patient": f"p-{rng.randint(1, 64)}"}
            stamped.append(Event(f"vitals.{rng.choice('abcd')}", attrs,
                                 sender, seqno + 1, 0.0))

        manager = None
        if autonomic:
            manager = AutonomicManager(
                sim, [ShardRebalancer(bus.engine, hot_ratio=2.0,
                                      min_fragments=64)])
        bus.publish_batch(stamped[:batch_size])        # warm
        sim.run_until_idle()
        if manager is not None:
            manager.tick()                             # detect + split here
            sim.run_until_idle()

        # repro-lint: ignore[RL001] wall-clock measurement is this bench's point
        start = wallclock.perf_counter()
        for index in range(1, batches + 1):
            bus.publish_batch(stamped[index * batch_size:
                                      (index + 1) * batch_size])
            sim.run_until_idle()
            sub_id = bus.subscribe_local(churn[index - 1].filters,
                                         lambda event: None)
            bus.unsubscribe_local(sub_id)
            if manager is not None:
                manager.tick()
        # repro-lint: ignore[RL001] wall-clock measurement is this bench's point
        elapsed = wallclock.perf_counter() - start
        stats = bus.stats
        outcome = (stats.published, stats.matched, stats.unmatched,
                   stats.delivered_local)
        audit = list(manager.audit) if manager is not None else []
        return elapsed, outcome, audit, bus.engine.shard_loads()

    results: dict = {"sub_count": sub_count, "batches": batches,
                     "batch_size": batch_size, "shards": shards}
    events = batches * batch_size
    for label, autonomic in (("static", False), ("autonomic", True)):
        best, outcome, audit, loads = min(
            (run_once(autonomic) for _ in range(runs)), key=lambda r: r[0])
        results[label] = {
            "events_per_s": events / best, "elapsed_s": best,
            "outcome": outcome, "shard_loads": loads,
            "actuations": [f"{a.action}:{a.detail.get('bucket_name')}"
                           for a in audit],
        }
    assert results["static"]["outcome"] == results["autonomic"]["outcome"]
    results["speedup"] = (results["autonomic"]["events_per_s"]
                          / results["static"]["events_per_s"])
    return results


# -- A5: fan-out ---------------------------------------------------------------

def run_fanout(subscriber_counts: tuple[int, ...] = (1, 2, 4, 8),
               payload_size: int = 1000, samples: int = 10,
               engine: str = "forwarding", seed: int = 0) -> ExperimentResult:
    """Response time until the *last* subscriber has the event, vs fan-out.

    The paper names "variation in delays incurred depending on ... number
    of recipients" as a planned investigation (Section VI).
    """
    result = ExperimentResult(
        name="fanout", x_label="Subscribers",
        y_label="Response Time to last subscriber (ms)")
    series = Series(label=ENGINE_LABELS.get(engine, engine))
    for count in subscriber_counts:
        testbed = build_paper_testbed(engine=engine, seed=seed,
                                      extra_subscribers=count - 1)
        values = []
        for sample in range(samples):
            expected = len(testbed.received) + count
            event = testbed.publisher.publish(
                BENCH_EVENT_TYPE, payload_attributes(payload_size, sample))
            _run_until(testbed.sim,
                       lambda: len(testbed.received) >= expected,
                       testbed.sim.now() + 60.0)
            response = testbed.received.times[expected - 1] - event.timestamp
            values.append(response * 1000.0)
            testbed.sim.run(testbed.sim.now() + 0.2)
        series.points.append(SeriesPoint(
            x=count, mean=statistics.fmean(values), minimum=min(values),
            maximum=max(values), n=len(values)))
    result.series.append(series)
    return result


# -- A4: loss sweep ----------------------------------------------------------

def run_loss_sweep(loss_rates: tuple[float, ...] = (0.0, 0.01, 0.05, 0.10,
                                                    0.20),
                   payload_size: int = 500, events: int = 100,
                   engine: str = "forwarding", seed: int = 0) -> ExperimentResult:
    """Delivery semantics under datagram loss.

    Every event must still arrive exactly once and in order (the reliable
    channel retries); the cost shows up as retransmissions and latency.
    """
    result = ExperimentResult(
        name="loss", x_label="Datagram loss rate",
        y_label="Mean response time (ms)")
    series = Series(label=ENGINE_LABELS.get(engine, engine))
    retransmissions: dict[float, int] = {}
    complete: dict[float, bool] = {}
    for loss in loss_rates:
        testbed = build_paper_testbed(engine=engine, seed=seed,
                                      loss_rate=loss)
        values = []
        for sample in range(events):
            expected = len(testbed.received) + 1
            event = testbed.publisher.publish(
                BENCH_EVENT_TYPE, payload_attributes(payload_size, sample))
            _run_until(testbed.sim,
                       lambda: len(testbed.received) >= expected,
                       testbed.sim.now() + 600.0)
            values.append(
                (testbed.received.times[expected - 1] - event.timestamp)
                * 1000.0)
        series.points.append(SeriesPoint(
            x=loss, mean=statistics.fmean(values), minimum=min(values),
            maximum=max(values), n=len(values)))
        # In-order, exactly-once, complete: the semantics held under loss.
        seqs = [e.get("seq") for e in testbed.received]
        complete[loss] = (seqs == sorted(seqs) and len(seqs) == events
                          and len(set(seqs)) == events)
        retransmissions[loss] = testbed.network.datagrams_dropped
    result.series.append(series)
    result.notes["datagrams_dropped"] = retransmissions
    result.notes["delivery_complete_in_order"] = complete
    return result


# -- A3: quenching --------------------------------------------------------------

def run_quench_experiment(publishes: int = 200, payload_size: int = 200,
                          seed: int = 0) -> dict:
    """Radio traffic with and without quenching, publisher unobserved.

    The publisher advertises what it emits; with no matching subscriber the
    bus quenches it, so publishing attempts cost nothing on air — the
    power-saving benefit Section VI anticipates from Elvin's quenching.
    """
    results = {}
    for quench_enabled in (False, True):
        # No default bench subscription: the publisher must be unobserved
        # for quenching to have anything to suppress.
        testbed = build_paper_testbed(engine="forwarding", seed=seed,
                                      enable_quench=quench_enabled,
                                      subscribe_default=False)
        testbed.subscriber.subscribe(Filter.where("other.topic"),
                                     lambda e: None)
        if quench_enabled:
            testbed.publisher.advertise(Filter.where(BENCH_EVENT_TYPE))
        testbed.sim.run(testbed.sim.now() + 2.0)

        baseline = testbed.network.datagrams_sent
        for index in range(publishes):
            testbed.publisher.publish(
                BENCH_EVENT_TYPE, payload_attributes(payload_size, index))
            testbed.sim.run(testbed.sim.now() + 0.05)
        testbed.drain(quiet_period_s=2.0, max_s=120.0)
        key = "quench_on" if quench_enabled else "quench_off"
        results[key] = {
            "datagrams_on_air": testbed.network.datagrams_sent - baseline,
            "publishes_suppressed":
                testbed.publisher.stats.publishes_quenched,
            "publishes_sent": testbed.publisher.stats.published,
        }
    results["datagram_reduction_factor"] = (
        results["quench_off"]["datagrams_on_air"]
        / max(1, results["quench_on"]["datagrams_on_air"]))
    return results


# -- A6: discovery timing --------------------------------------------------------

def run_discovery_timing(beacon_periods: tuple[float, ...] = (0.25, 0.5,
                                                              1.0, 2.0),
                         purge_after_s: float = 6.0,
                         seed: int = 0) -> ExperimentResult:
    """Time-to-admission vs beacon period, and purge latency.

    Section VI: scenarios "such as maximum timeouts for the discovery
    service to allow silence from a device until a Purge Member event is
    launched".
    """
    from repro.core.events import NEW_MEMBER_TYPE, PURGE_MEMBER_TYPE
    from repro.devices.actuators import ManualSensor
    from repro.smc.cell import CellConfig, SelfManagedCell
    from repro.transport.endpoint import PacketEndpoint
    from repro.transport.simnet import SimTransport

    result = ExperimentResult(
        name="discovery", x_label="Beacon period (s)",
        y_label="Time to admission (s)")
    series = Series(label="time-to-admit")
    purge_latencies: dict[float, float] = {}
    for period in beacon_periods:
        sim = Simulator()
        network = SimNetwork(sim, RngRegistry(seed))
        medium = network.add_medium("wifi", WIFI_11B)
        network.attach("pda", SimHost(sim, PDA_PROFILE, "pda"), medium)
        walk = WalkAway(t_leave=20.0, t_return=60.0, distance=500.0)
        network.attach("dev", SimHost(sim, LAPTOP_PROFILE, "dev"), medium,
                       walk)
        cell = SelfManagedCell(
            SimTransport(network, "pda"), sim,
            CellConfig(cell_name="timing", beacon_period_s=period,
                       silent_after_s=2.0, purge_after_s=purge_after_s,
                       sweep_period_s=0.1))
        moments: dict[str, float] = {}
        cell.subscribe(Filter.where(NEW_MEMBER_TYPE),
                       lambda e: moments.setdefault("admitted", sim.now()))
        cell.subscribe(Filter.where(PURGE_MEMBER_TYPE),
                       lambda e: moments.setdefault("purged", sim.now()))
        device = ManualSensor(
            PacketEndpoint(SimTransport(network, "dev"), sim), sim,
            "dev-1", "service", target_cell="timing")
        cell.start()
        start = sim.now()
        device.start()
        sim.run(40.0)
        admit_time = moments.get("admitted", float("nan")) - start
        series.points.append(SeriesPoint(x=period, mean=admit_time,
                                         minimum=admit_time,
                                         maximum=admit_time, n=1))
        # Purge latency: device walks out of range at t=20; purge should
        # land ~silence-detection + purge_after later.
        purge_latencies[period] = moments.get("purged", float("nan")) - 20.0
    result.series.append(series)
    result.notes["purge_latency_after_leave_s"] = purge_latencies
    result.notes["configured_purge_after_s"] = purge_after_s
    return result


def run_lifecycle_timing(heartbeat_periods: tuple[float, ...] = (0.2, 0.5,
                                                                 1.0),
                         drain_backlog: int = 50,
                         seed: int = 0) -> ExperimentResult:
    """Ghost-detection latency vs heartbeat period, and drain completeness.

    Two lifecycle guarantees, measured:

    * a member that dies silently is marked DEGRADED within
      3 x heartbeat period (the jitter-tolerant threshold) plus at most
      one sweep period;
    * a member that announces departure (LEAVE_INTENT) has its queued
      deliveries flushed completely before teardown — zero matched-event
      loss on a planned exit.
    """
    from repro.core.bootstrap import ProxyBootstrap
    from repro.core.bus import EventBus
    from repro.core.client import BusClient
    from repro.core.events import MEMBER_STATE_TYPE, PURGE_MEMBER_TYPE
    from repro.discovery.agent import AgentConfig, DiscoveryAgent
    from repro.discovery.service import DiscoveryConfig, DiscoveryService
    from repro.sim.faults import HubFaults
    from repro.transport.endpoint import PacketEndpoint
    from repro.transport.inmem import InMemoryHub

    result = ExperimentResult(
        name="lifecycle", x_label="Heartbeat period (s)",
        y_label="Ghost-detection latency (s)")

    def build(sim, hub, heartbeat_s, **config):
        defaults = dict(cell_name="lifecycle", beacon_period_s=heartbeat_s,
                        heartbeat_period_s=heartbeat_s,
                        purge_after_s=10.0 * heartbeat_s,
                        sweep_period_s=heartbeat_s / 10.0)
        defaults.update(config)
        core = PacketEndpoint(hub.create("core"), sim)
        bus = EventBus(sim)
        ProxyBootstrap(bus, core)
        service = DiscoveryService(bus, core, sim,
                                   DiscoveryConfig(**defaults))
        return bus, service

    def agent(sim, hub, name, **config):
        defaults = dict(name=name, device_type="service",
                        beacon_timeout_s=1000.0)
        defaults.update(config)
        return DiscoveryAgent(PacketEndpoint(hub.create(name), sim), sim,
                              AgentConfig(**defaults))

    # -- A: detection latency across heartbeat periods -----------------------
    series = Series(label="degraded-detection")
    for heartbeat_s in heartbeat_periods:
        sim = Simulator()
        hub = InMemoryHub(sim)
        bus, service = build(sim, hub, heartbeat_s)
        silences: list[float] = []
        bus.subscribe_local(Filter.where(MEMBER_STATE_TYPE, state="degraded"),
                            lambda e: silences.append(e.get("silence_s")))
        ghost = agent(sim, hub, "ghost")
        service.start()
        ghost.start()
        sim.run(4.0 * heartbeat_s + 0.05)       # joined, mid-interval
        HubFaults(hub, rng_seed=seed).kill("ghost")
        sim.run(20.0 * heartbeat_s)
        latency = silences[0] if silences else float("nan")
        series.points.append(SeriesPoint(x=heartbeat_s, mean=latency,
                                         minimum=latency, maximum=latency,
                                         n=1))
    result.series.append(series)

    # -- B: graceful drain flushes the whole backlog -------------------------
    sim = Simulator()
    hub = InMemoryHub(sim)
    bus, service = build(sim, hub, 0.2, drain_deadline_s=60.0)
    publisher = agent(sim, hub, "pub")
    subscriber = agent(sim, hub, "sub")
    pub_client = BusClient(publisher.endpoint, sim, None)
    sub_client = BusClient(subscriber.endpoint, sim, None)
    publisher.client = pub_client
    subscriber.client = sub_client
    drained_at: dict[str, float] = {}
    bus.subscribe_local(Filter.where(PURGE_MEMBER_TYPE),
                        lambda e: drained_at.setdefault("purged", sim.now()))
    service.start()
    publisher.start()
    subscriber.start()
    sim.run(1.0)
    delivered: list[int] = []
    sub_client.subscribe(Filter.where("bench.drain"),
                         lambda e: delivered.append(e.get("n")))
    sim.run(2.0)
    proxy = bus.proxy_of(subscriber.endpoint.service_id)
    faults = HubFaults(hub, rng_seed=seed)
    faults.block_one_way("core", "sub")          # deliveries queue up
    for n in range(drain_backlog):
        pub_client.publish("bench.drain", {"n": n})
    sim.run(3.0)
    subscriber.leave_gracefully()
    sim.run(4.0)
    faults.unblock_one_way("core", "sub")        # flush and tear down
    drain_kicked = sim.now()
    sim.run(30.0)
    result.notes["drain"] = {
        "events_published": drain_backlog,
        "events_delivered": len(delivered),
        "delivered_in_order": delivered == list(range(drain_backlog)),
        "dropped_on_destroy": proxy.stats.dropped_on_destroy,
        "drain_completed": service.stats.drains_completed == 1,
        "flush_latency_s": drained_at.get("purged", float("nan"))
        - drain_kicked,
    }
    return result
