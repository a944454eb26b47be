"""The simulated paper testbed.

Reproduces Section IV's measurement environment: "an iPAQ hx4700 PDA ...
communicating with a laptop (1.2GHz Pentium 3 with 256MB RAM) via an IP
connection over a USB cable".  The event bus (the Self-Managed Cell core)
runs on the PDA; the measurement publisher and subscriber are services on
the laptop, admitted through the ordinary discovery protocol, exactly as a
test program on the real testbed would have been.

``build_paper_testbed`` returns the whole assembly with both hosts exposed
so experiments can also read CPU accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.autonomic.manager import AutonomicConfig
from repro.core.client import BusClient
from repro.core.events import Event
from repro.discovery.agent import AgentConfig, DiscoveryAgent
from repro.errors import SimulationError
from repro.matching.filters import Filter
from repro.sim.hosts import LAPTOP_PROFILE, PDA_PROFILE, SimHost
from repro.sim.kernel import Simulator
from repro.sim.radio import USB_IP, LinkProfile, SimNetwork
from repro.sim.rng import RngRegistry
from repro.smc.cell import CellConfig, SelfManagedCell
from repro.transport.endpoint import PacketEndpoint
from repro.transport.reliability import DEFAULT_WINDOW
from repro.transport.simnet import SimTransport

#: Event type used by all benchmark traffic.
BENCH_EVENT_TYPE = "bench.payload"


class TimedList(list):
    """A list that records the (virtual) time of every append.

    The subscriber's delivery callback appends received events here, so
    ``times[i]`` is the exact simulated instant event ``i`` was delivered —
    the response-time experiments subtract the publish timestamp from it.
    """

    def __init__(self, clock) -> None:
        super().__init__()
        self._clock = clock
        self.times: list[float] = []

    def append(self, item) -> None:
        super().append(item)
        self.times.append(self._clock())

    def clear(self) -> None:
        super().clear()
        self.times.clear()


@dataclass
class PaperTestbed:
    """Handles to every piece of the simulated measurement setup."""

    sim: Simulator
    network: SimNetwork
    cell: SelfManagedCell
    publisher: BusClient
    subscriber: BusClient
    pda_host: SimHost
    laptop_host: SimHost
    received: "TimedList"

    def run_until_joined(self, timeout_s: float = 30.0) -> None:
        """Advance the simulation until both services are cell members."""
        deadline = self.sim.now() + timeout_s
        step = 0.25
        while len(self.cell.bus.members()) < 2:
            target = self.sim.now() + step
            if target > deadline:
                raise SimulationError(
                    "testbed services failed to join the cell "
                    f"within {timeout_s}s")
            self.sim.run(target)

    def drain(self, quiet_period_s: float = 5.0, max_s: float = 600.0) -> None:
        """Run until no benchmark event has arrived for ``quiet_period_s``."""
        deadline = self.sim.now() + max_s
        last_count = len(self.received)
        quiet_since = self.sim.now()
        while self.sim.now() < deadline:
            self.sim.run(self.sim.now() + 0.5)
            if len(self.received) != last_count:
                last_count = len(self.received)
                quiet_since = self.sim.now()
            elif self.sim.now() - quiet_since >= quiet_period_s:
                return


def build_paper_testbed(engine: str = "forwarding", seed: int = 0, *,
                        loss_rate: float = 0.0, window: int = DEFAULT_WINDOW,
                        extra_subscribers: int = 0,
                        enable_quench: bool = False,
                        subscribe_default: bool = True,
                        shards: int = 1,
                        link_profile: LinkProfile | None = None,
                        autonomic: AutonomicConfig | None = None
                        ) -> PaperTestbed:
    """Assemble the PDA+laptop testbed with the chosen matching engine.

    ``extra_subscribers`` attaches additional laptop-side subscriber
    services (the fan-out ablation); ``loss_rate`` overrides the link's
    loss for the loss ablation.  ``window`` sets every hop's reliable
    channel window — pipelined by default; pass ``window=1`` for the
    paper-faithful stop-and-wait transport its figures were measured on.
    ``shards`` partitions the PDA bus's subscription table across that
    many matching shards (1 = the paper's single bus; the figures are all
    measured at 1).  ``link_profile`` swaps the USB cable for another
    link model (e.g. a high-RTT personal-area uplink), keeping hosts and
    bus identical — the window-sweep benchmark uses it to expose
    round-trip serialisation.  ``autonomic`` attaches the MAPE-K control
    plane to the cell (the RTT loop; rebalancing too on a sharded bus),
    ticking with the cell — the autonomic benchmarks drive the paper
    testbed with it enabled.
    """
    sim = Simulator()
    rng = RngRegistry(seed)
    network = SimNetwork(sim, rng)
    profile = link_profile if link_profile is not None else USB_IP
    if loss_rate != 0.0:
        profile = replace(profile, name=f"{profile.name}_loss{loss_rate}",
                          loss_rate=loss_rate)
    medium = network.add_medium("usb", profile)

    pda_host = SimHost(sim, PDA_PROFILE, "pda")
    laptop_host = SimHost(sim, LAPTOP_PROFILE, "laptop")
    network.attach("pda", pda_host, medium)
    # Publisher and subscriber are two sockets on the same laptop: separate
    # network endpoints sharing one CPU.
    network.attach("laptop-pub", laptop_host, medium)
    network.attach("laptop-sub", laptop_host, medium)

    cell = SelfManagedCell(
        SimTransport(network, "pda"), sim,
        CellConfig(cell_name="paper-testbed", patient="bench",
                   engine=engine, window=window, shards=shards,
                   enable_quench=enable_quench, autonomic=autonomic,
                   # RTO above the PDA's worst-case per-event processing
                   # time: a working link must not trigger spurious
                   # retransmissions that would distort the measurement.
                   rto_initial_s=1.5, rto_max_s=6.0,
                   # Long lease: membership churn must not perturb the
                   # measurement, as on the real testbed.
                   silent_after_s=60.0, purge_after_s=600.0,
                   sweep_period_s=5.0, heartbeat_period_s=10.0))

    publisher, _ = _attach_service(network, sim, laptop_host, "laptop-pub",
                                   "publisher", window)
    subscriber, _ = _attach_service(network, sim, laptop_host, "laptop-sub",
                                    "subscriber", window)

    received = TimedList(sim.now)
    testbed = PaperTestbed(sim=sim, network=network, cell=cell,
                           publisher=publisher, subscriber=subscriber,
                           pda_host=pda_host, laptop_host=laptop_host,
                           received=received)

    cell.start()
    testbed.run_until_joined()
    if subscribe_default:
        subscriber.subscribe(Filter.where(BENCH_EVENT_TYPE), received.append)

    for index in range(extra_subscribers):
        name = f"laptop-sub{index + 2}"
        network.attach(name, laptop_host, medium)
        extra, _ = _attach_service(network, sim, laptop_host, name,
                                   f"subscriber{index + 2}", window)
        _wait_for_member(testbed, 3 + index)
        extra.subscribe(Filter.where(BENCH_EVENT_TYPE), received.append)

    # Let subscriptions propagate before any measurement begins.
    sim.run(sim.now() + 2.0)
    return testbed


def _attach_service(network: SimNetwork, sim: Simulator, host: SimHost,
                    node: str, service_name: str,
                    window: int) -> tuple[BusClient, DiscoveryAgent]:
    endpoint = PacketEndpoint(SimTransport(network, node), sim, window=window,
                              rto_initial=1.5, rto_max=6.0)
    client = BusClient(endpoint, sim, bus_address=None, meter=host)
    agent = DiscoveryAgent(endpoint, sim, AgentConfig(
        name=service_name, device_type="service",
        target_cell="paper-testbed", beacon_timeout_s=120.0))
    agent.client = client
    agent.start()
    return client, agent


def _wait_for_member(testbed: PaperTestbed, count: int,
                     timeout_s: float = 30.0) -> None:
    deadline = testbed.sim.now() + timeout_s
    while len(testbed.cell.bus.members()) < count:
        target = testbed.sim.now() + 0.25
        if target > deadline:
            raise SimulationError(f"member {count} failed to join")
        testbed.sim.run(target)
