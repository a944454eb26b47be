"""Link and medium models for the simulated testbed.

A :class:`LinkProfile` captures the characteristics of one kind of link:
propagation latency (with jitter), serialisation bandwidth, datagram loss
probability, MTU (payloads larger than the MTU are fragmented, and each
fragment pays the per-packet host cost — this is why large payloads rise
superlinearly in Figure 4(a)), and radio range for wireless media.

A :class:`Medium` is a broadcast domain: every node attached to it can
unicast to or broadcast at every other node that is *in range*.  Wired media
(USB-IP) ignore range.  A :class:`SimNetwork` owns the media, the node
registry and the packet delivery machinery.

Profiles mirror the paper's testbed and its future-work targets:

* ``USB_IP`` — the PDA-laptop link: 1.5 ms mean latency, 0.6–2.3 ms spread,
  bandwidth calibrated so raw bulk transfer sustains ~575 KB/s (Section V).
* ``BLUETOOTH`` / ``ZIGBEE`` / ``WIFI_11B`` — the wireless targets of
  Section VI, with range limits so mobility can carry nodes out of the cell.
* ``IDEAL`` — zero latency, unbounded bandwidth, no loss, no fragmentation:
  on zero-cost hosts a datagram is handed over one scheduler event after
  it is sent, in send order.  The unit tests and the transport-only
  experiments run on it, or on :func:`fixed_latency` / a lossy ``replace``.

Faults belong to the network: nodes go down (``set_node_up``), pairs are
blocked both ways or one way, and a pair's datagrams are mangled from an
RNG stream of their own, so traffic no mangle touches draws what it drew
without one.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Callable

from repro.errors import AddressError, ConfigurationError, TransportError
from repro.sim.hosts import SimHost
from repro.sim.kernel import Scheduler
from repro.sim.rng import RngRegistry

Position = tuple[float, float]
PositionFn = Callable[[float], Position]


@dataclass(frozen=True)
class LinkProfile:
    """Static characteristics of one kind of network link."""

    name: str
    latency_mean_s: float
    latency_min_s: float
    latency_max_s: float
    bandwidth_bps: float        # bytes per second of serialisation
    loss_rate: float = 0.0
    #: Probability a delivered datagram arrives twice (each copy samples
    #: its own latency, so duplicates also reorder) — retransmit-ambiguity
    #: and route-flap behaviour the reliability tests exercise.
    duplicate_rate: float = 0.0
    mtu: int = 1472
    range_m: float | None = None   # None = wired / unlimited

    def __post_init__(self) -> None:
        if not self.latency_min_s <= self.latency_mean_s <= self.latency_max_s:
            raise ConfigurationError(
                f"{self.name}: latency bounds must bracket the mean")
        if self.latency_min_s < 0:
            raise ConfigurationError(f"{self.name}: negative latency")
        if self.bandwidth_bps <= 0:
            raise ConfigurationError(f"{self.name}: bandwidth must be > 0")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ConfigurationError(f"{self.name}: loss_rate must be in [0, 1)")
        if not 0.0 <= self.duplicate_rate < 1.0:
            raise ConfigurationError(
                f"{self.name}: duplicate_rate must be in [0, 1)")
        if self.mtu < 64:
            raise ConfigurationError(f"{self.name}: mtu must be >= 64 bytes")

    def sample_latency(self, rng) -> float:
        """Draw a one-way propagation latency.

        A triangular distribution over (min, mean, max) matches the paper's
        report of a 1.5 ms average within a 0.6-2.3 ms band.  A fixed
        latency draws nothing.
        """
        if self.latency_min_s == self.latency_max_s:
            return self.latency_min_s
        return rng.triangular(self.latency_min_s, self.latency_max_s,
                              self.latency_mean_s)

    def fragments(self, nbytes: int) -> int:
        """Number of datagram fragments a payload of ``nbytes`` needs."""
        return max(1, math.ceil(nbytes / self.mtu))

    def serialisation_time(self, nbytes: int) -> float:
        """Time to clock ``nbytes`` onto the wire."""
        return nbytes / self.bandwidth_bps


#: The paper's PDA-laptop link ("IP connection over a USB cable").
USB_IP = LinkProfile(name="usb_ip", latency_mean_s=1.5e-3,
                     latency_min_s=0.6e-3, latency_max_s=2.3e-3,
                     bandwidth_bps=640_000.0, mtu=1472)

#: Bluetooth 1.2-era personal-area link (Section VI prototype target).
BLUETOOTH = LinkProfile(name="bluetooth", latency_mean_s=25e-3,
                        latency_min_s=15e-3, latency_max_s=60e-3,
                        bandwidth_bps=90_000.0, loss_rate=0.005,
                        mtu=672, range_m=10.0)

#: ZigBee / 802.15.4 (Section VI migration target): 250 kbit/s, tiny MTU.
ZIGBEE = LinkProfile(name="zigbee", latency_mean_s=12e-3,
                     latency_min_s=6e-3, latency_max_s=40e-3,
                     bandwidth_bps=31_250.0, loss_rate=0.01,
                     mtu=102, range_m=30.0)

#: 802.11b, the WiFi the iPAQ could not yet run under Linux (Section IV).
WIFI_11B = LinkProfile(name="wifi_11b", latency_mean_s=2.5e-3,
                       latency_min_s=1.0e-3, latency_max_s=8.0e-3,
                       bandwidth_bps=700_000.0, loss_rate=0.002,
                       mtu=1472, range_m=50.0)

#: The ideal link: nothing between send and receive but one scheduler event.
IDEAL = LinkProfile(name="ideal", latency_mean_s=0.0, latency_min_s=0.0,
                    latency_max_s=0.0, bandwidth_bps=math.inf, mtu=sys.maxsize)


def fixed_latency(delay_s: float) -> LinkProfile:
    """The ideal link with every datagram delayed by exactly ``delay_s``."""
    return replace(IDEAL, name=f"ideal+{delay_s}s", latency_mean_s=delay_s,
                   latency_min_s=delay_s, latency_max_s=delay_s)


class _Node:
    """Internal record for one attached endpoint."""

    __slots__ = ("name", "host", "medium", "position_fn", "deliver", "up")

    def __init__(self, name: str, host: SimHost, medium: "Medium",
                 position_fn: PositionFn) -> None:
        self.name = name
        self.host = host
        self.medium = medium
        self.position_fn = position_fn
        self.deliver: Callable[[str, bytes], None] | None = None
        self.up = True


class Medium:
    """A broadcast domain sharing one link profile."""

    def __init__(self, name: str, profile: LinkProfile) -> None:
        self.name = name
        self.profile = profile
        self.nodes: dict[str, _Node] = {}

    def in_range(self, a: _Node, b: _Node, now: float) -> bool:
        """True when ``a`` can currently reach ``b`` over this medium."""
        if self.profile.range_m is None:
            return True
        ax, ay = a.position_fn(now)
        bx, by = b.position_fn(now)
        return math.hypot(ax - bx, ay - by) <= self.profile.range_m

    def __repr__(self) -> str:
        return f"<Medium {self.name} profile={self.profile.name} nodes={len(self.nodes)}>"


class SimNetwork:
    """The simulated network: media, nodes, and packet delivery.

    Delivery path for one datagram A→B:

    1. A's host CPU is charged the per-packet send cost (per fragment);
       the packet leaves when the CPU is free.
    2. The link adds serialisation time (bytes/bandwidth) plus a sampled
       propagation latency; each fragment is subject to independent loss.
       Loss of *any* fragment loses the datagram, as with IP fragmentation.
    3. B's host CPU is charged the per-packet receive cost; the payload is
       handed to B's transport when that charge completes (at once when
       it costs nothing).
    """

    def __init__(self, scheduler: Scheduler,
                 rng: RngRegistry | None = None) -> None:
        self.scheduler = scheduler
        registry = rng or RngRegistry(0)
        self.rng = registry.stream("network")
        self._fault_rng = registry.stream("faults")
        self._media: dict[str, Medium] = {}
        self._nodes: dict[str, _Node] = {}
        #: Blocked directions, ``(src, dest)``.
        self._blocked: set[tuple[str, str]] = set()
        #: (corrupt_rate, duplicate_rate, delay_s) per unordered pair.
        self._mangles: dict[frozenset[str], tuple[float, float, float]] = {}
        #: The per-datagram test seam, for drops and spies no fault above
        #: expresses: ``tap(src, dest, payload)`` sees every datagram sent,
        #: and returning False drops it.
        self.tap: Callable[[str, str, bytes], bool] | None = None
        self.datagrams_sent = 0
        self.datagrams_dropped = 0
        self.datagrams_delivered = 0
        self.bytes_delivered = 0
        #: When non-None, every transmitted datagram's sampled propagation
        #: latency is appended here (the link-baseline benchmark's probe).
        self.latency_probe: list[float] | None = None

    # -- topology --------------------------------------------------------

    def add_medium(self, name: str, profile: LinkProfile) -> Medium:
        if name in self._media:
            raise ConfigurationError(f"duplicate medium name: {name}")
        medium = Medium(name, profile)
        self._media[name] = medium
        return medium

    def attach(self, name: str, host: SimHost, medium: Medium,
               position: Position | PositionFn = (0.0, 0.0)) -> None:
        """Attach a named node to a medium at a (possibly moving) position."""
        if name in self._nodes:
            raise ConfigurationError(f"duplicate node name: {name}")
        if callable(position):
            position_fn = position
        else:
            fixed = (float(position[0]), float(position[1]))
            position_fn = lambda _t, _p=fixed: _p  # noqa: E731 - tiny closure
        node = _Node(name, host, medium, position_fn)
        self._nodes[name] = node
        medium.nodes[name] = node

    def set_receiver(self, name: str, deliver: Callable[[str, bytes], None]) -> None:
        """Register the upcall invoked with (src_name, payload bytes)."""
        self._node(name).deliver = deliver

    def set_node_up(self, name: str, up: bool) -> None:
        """Force a node down (battery death) or back up."""
        self._node(name).up = up

    def set_link_blocked(self, a: str, b: str, blocked: bool) -> None:
        """Administratively block/unblock the pair (both directions)."""
        self.block_one_way(a, b, blocked)
        self.block_one_way(b, a, blocked)

    def block_one_way(self, src: str, dest: str, blocked: bool) -> None:
        """Block/unblock ``src -> dest`` only: an asymmetric outage, where
        the other direction (acks included) still flows."""
        if blocked:
            self._blocked.add((src, dest))
        else:
            self._blocked.discard((src, dest))

    def mangle(self, a: str, b: str, *, corrupt_rate: float = 0.0,
               duplicate_rate: float = 0.0, delay_s: float = 0.0) -> None:
        """Corrupt, duplicate and delay the pair's datagrams, both ways
        (all zero: leave them alone).  A corrupted datagram has one byte
        flipped, so the receiver's CRC check drops it: corruption degrades
        to loss."""
        if not (0.0 <= corrupt_rate <= 1.0 and 0.0 <= duplicate_rate <= 1.0
                and delay_s >= 0):
            raise ConfigurationError(
                f"rates must be in [0, 1] and the delay >= 0: {corrupt_rate}, "
                f"{duplicate_rate}, {delay_s}")
        self._mangles[frozenset((a, b))] = (corrupt_rate, duplicate_rate,
                                            delay_s)

    def host_of(self, name: str) -> SimHost:
        return self._node(name).host

    # -- traffic ---------------------------------------------------------

    def send(self, src: str, dest: str, payload: bytes) -> None:
        """Unicast ``payload`` from ``src`` to ``dest`` (best effort)."""
        src_node = self._node(src)
        dest_node = self._node(dest)
        if src_node.medium is not dest_node.medium:
            raise TransportError(
                f"{src} and {dest} are on different media "
                f"({src_node.medium.name} vs {dest_node.medium.name})")
        self._transmit(src_node, dest_node, payload)

    def broadcast(self, src: str, payload: bytes) -> int:
        """Broadcast from ``src`` to every in-range peer on its medium.

        Returns the number of nodes the datagram was launched towards
        (before loss).
        """
        src_node = self._node(src)
        now = self.scheduler.now()
        launched = 0
        # Sorted for determinism: broadcast fan-out order must not depend on
        # dict insertion order of unrelated attach() calls.
        for name in sorted(src_node.medium.nodes):
            if name == src:
                continue
            dest_node = src_node.medium.nodes[name]
            if not src_node.medium.in_range(src_node, dest_node, now):
                continue
            self._transmit(src_node, dest_node, payload, is_broadcast=True,
                           launched_already=launched > 0)
            launched += 1
        return launched

    # -- internals ---------------------------------------------------------

    def _node(self, name: str) -> _Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise AddressError(f"unknown node: {name}") from None

    def _transmit(self, src: _Node, dest: _Node, payload: bytes,
                  is_broadcast: bool = False,
                  launched_already: bool = False) -> None:
        self.datagrams_sent += 1
        now = self.scheduler.now()
        profile = src.medium.profile
        if ((self.tap is not None
                and not self.tap(src.name, dest.name, payload))
                or not src.up or not dest.up
                or (src.name, dest.name) in self._blocked
                or not src.medium.in_range(src, dest, now)):
            self.datagrams_dropped += 1
            return

        nfrags = profile.fragments(len(payload))
        # Sender-side CPU: one charge per fragment.  A broadcast serialises
        # once regardless of fan-out, so only the first launch pays.
        if not (is_broadcast and launched_already):
            for _ in range(nfrags):
                src.host.charge_packet(min(len(payload), profile.mtu))
        departure = src.host.ready_time()

        # Fragment loss: losing any fragment loses the datagram.
        for _ in range(nfrags):
            if profile.loss_rate and self.rng.random() < profile.loss_rate:
                self.datagrams_dropped += 1
                return

        copies = 1
        if (profile.duplicate_rate
                and self.rng.random() < profile.duplicate_rate):
            copies = 2
        delay_s = 0.0
        mangle = self._mangles.get(frozenset((src.name, dest.name)))
        if mangle is not None:
            corrupt_rate, duplicate_rate, delay_s = mangle
            if payload and self._fault_rng.random() < corrupt_rate:
                mutated = bytearray(payload)
                mutated[self._fault_rng.randrange(len(mutated))] ^= 0xFF
                payload = bytes(mutated)
            if self._fault_rng.random() < duplicate_rate:
                copies += 1
        for _ in range(copies):
            latency = profile.sample_latency(self.rng)
            if self.latency_probe is not None:
                self.latency_probe.append(latency)
            arrival = (departure + profile.serialisation_time(len(payload))
                       + latency + delay_s)
            self.scheduler.call_at(arrival, self._arrive, src.name, dest.name,
                                   payload, nfrags)

    def _arrive(self, src_name: str, dest_name: str, payload: bytes,
                nfrags: int) -> None:
        dest = self._nodes.get(dest_name)
        if dest is None or not dest.up or dest.deliver is None:
            self.datagrams_dropped += 1
            return
        profile = dest.medium.profile
        for _ in range(nfrags):
            dest.host.charge_packet(min(len(payload), profile.mtu))
        done = dest.host.ready_time()
        self.datagrams_delivered += 1
        self.bytes_delivered += len(payload)
        if done > self.scheduler.now():
            self.scheduler.call_at(done, self._deliver_if_up, dest_name,
                                   src_name, payload)
        else:
            dest.deliver(src_name, payload)

    def _deliver_if_up(self, dest_name: str, src_name: str,
                       payload: bytes) -> None:
        dest = self._nodes.get(dest_name)
        if dest is None or not dest.up or dest.deliver is None:
            return
        dest.deliver(src_name, payload)
