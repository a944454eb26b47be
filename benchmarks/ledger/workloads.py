"""The ledger's six workloads and the seeded generators that feed them.

Every size here is a fixed *count*, calibrated so that one untraced run
measures for about ``RUN_SECONDS`` (``run_seconds`` in BENCHMARK.json) on
the 2-core reference box: two commits measured with the same
``--seconds`` do identical work.  ``--seconds S`` scales every event
count by ``S / RUN_SECONDS`` (the smoke test runs at 1/200); table sizes,
caps, rates and topology never scale.

The program under test only ever sees what these generators return.
Each generator draws from its own ``random.Random`` stream derived from
``--seed``, so the same seed gives byte-identical inputs and adding a
generator never perturbs the others.
"""

from __future__ import annotations

import dataclasses
import random
from array import array
from dataclasses import dataclass

from repro.matching.filters import Constraint, Filter, Op

#: Must equal ``run_seconds`` in BENCHMARK.json.
RUN_SECONDS = 12


@dataclass(frozen=True)
class UdpWorkload:
    """CellServer + LoopbackDevices on loopback UDP, one selector loop."""

    name: str
    publishers: int
    subscribers: int
    #: ``LoopbackDevice(batch=...)``; 0 sends one packet per reading.
    batch: int
    #: 0 publishes a bare ``vitals.hr`` reading (half match ``hr > 120``);
    #: > 0 publishes ``station.frame`` events carrying that many opaque
    #: bytes, which every subscriber matches.
    payload_bytes: int
    closed_events: int
    #: Closed loop: publish while fewer than this many *delivery-bound*
    #: events are unresolved (matched readings on the fan-in workloads,
    #: publishes on the fan-out one).
    closed_cap: int
    open_rate: float
    open_events: int


@dataclass(frozen=True)
class RulesWorkload:
    """A bare EventBus / ShardedEventBus with an alarm-rule table."""

    name: str
    rules: int
    batch: int
    #: Float packs never repeat a value, so the forwarding engine's
    #: satisfied-value memo stays cold; integer packs keep it warm.
    floats: bool
    #: One subscribe_local + unsubscribe_local after every batch.
    churn: bool
    shards: int
    workers: int
    closed_events: int
    open_rate: float
    open_events: int


WORKLOADS: tuple[UdpWorkload | RulesWorkload, ...] = (
    UdpWorkload("ward_fanin_udp", publishers=16, subscribers=1, batch=0,
                payload_bytes=0, closed_events=48_000, closed_cap=64,
                open_rate=1_500.0, open_events=7_520),
    UdpWorkload("ward_batch_udp", publishers=16, subscribers=1, batch=16,
                payload_bytes=0, closed_events=160_000, closed_cap=256,
                open_rate=6_000.0, open_events=30_000),
    UdpWorkload("station_fanout_udp", publishers=1, subscribers=16, batch=0,
                payload_bytes=1000, closed_events=5_000, closed_cap=4,
                open_rate=200.0, open_events=1_000),
    RulesWorkload("rules_steady_inproc", rules=10_000, batch=64,
                  floats=False, churn=False, shards=0, workers=0,
                  closed_events=120_000, open_rate=6_000.0,
                  open_events=30_000),
    RulesWorkload("rules_churn_inproc", rules=10_000, batch=64,
                  floats=False, churn=True, shards=0, workers=0,
                  closed_events=20_000, open_rate=1_000.0,
                  open_events=5_000),
    RulesWorkload("rules_pool_inproc", rules=10_000, batch=64,
                  floats=True, churn=False, shards=4, workers=1,
                  closed_events=9_600, open_rate=400.0, open_events=1_920),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}


def scaled(workload, factor: float):
    """``workload`` with its event counts scaled by ``factor``.

    Counts stay whole flush/batch multiples (so no partial batch changes
    the per-event cost) and never drop below two of them.
    """
    unit = workload.batch or 1
    if isinstance(workload, UdpWorkload):
        unit *= workload.publishers

    def count(base: int) -> int:
        return max(2, round(base * factor / unit)) * unit

    return dataclasses.replace(workload,
                               closed_events=count(workload.closed_events),
                               open_events=count(workload.open_events))


def stream(seed: int, *labels) -> random.Random:
    """One independent, reproducible random stream per generator."""
    return random.Random(":".join(["ledger", str(seed), *map(str, labels)]))


# -- UDP workloads: readings and frames ----------------------------------------

#: The display's filter is ``hr > 120``; readings are uniform on
#: 61..180, so exactly half the value space matches.
HR_LOW, HR_HIGH, HR_ALARM = 61, 180, 120


def heart_rates(seed: int, name: str, count: int) -> array:
    """``count`` heart-rate readings, one unsigned byte each."""
    rng = stream(seed, name, "hr")
    return array("B", (rng.randint(HR_LOW, HR_HIGH) for _ in range(count)))


def frame_payloads(seed: int, name: str, size: int, pool: int = 64
                   ) -> list[bytes]:
    """A pool of opaque ``size``-byte frame bodies, cycled by the driver."""
    rng = stream(seed, name, "frames")
    return [rng.randbytes(size) for _ in range(pool)]


# -- rules workloads: vitals packs and alarm rules -----------------------------

#: (name, low, high) of each vital a pack carries (tenths of a degree
#: for ``temp`` so the integer packs stay integers).
VITALS = (("hr", 40, 180), ("temp", 350, 420), ("spo2", 80, 100),
          ("bp_sys", 90, 200), ("bp_dia", 50, 130), ("resp", 8, 40),
          ("glucose", 50, 250), ("battery", 0, 100))
PATIENTS = 40
#: Share of rules that watch the whole ward (no ``patient`` constraint).
WARD_WIDE_SHARE = 0.03
#: Alarm thresholds sit in the outer 6 % of a vital's range, so a rule
#: fires on ~3 % of the readings it sees: with 10 000 rules over 40
#: patients that is ~16 matches per pack.
ALARM_TAIL = 0.06
PACK_TYPE = "vitals.pack"


def patient_name(index: int) -> str:
    return f"p-{index:02d}"


def stratified(rng: random.Random, count: int) -> list[float]:
    """``count`` draws from [0, 1), one from each of ``count`` equal
    strata, in random order: uniform like ``rng.random()``, but their mean
    barely moves with the seed."""
    draws = [(index + rng.random()) / count for index in range(count)]
    rng.shuffle(draws)
    return draws


def alarm_rules(seed: int, count: int, floats: bool, label: str = "table"
                ) -> list[Filter]:
    """``count`` alarm rules: ``patient == p`` and one vital past a
    threshold (eight two-name classes), 3 % of them ward-wide (eight
    one-name classes).

    A ward-wide rule sees forty times the packs a patient's rule sees, so
    how many of them there are and how deep their thresholds sit decides
    the matches per pack: both are stratified, or that figure (and every
    ``rules_*`` metric with it) would move ~10 % from seed to seed.
    """
    rng = stream(seed, "rules", label, floats)
    wide = set(rng.sample(range(count), round(count * WARD_WIDE_SHARE)))
    wide_depths = stratified(rng, len(wide))
    patient_depths = stratified(rng, count - len(wide))
    rules = []
    for index in range(count):
        vital, low, high = VITALS[index % len(VITALS)]
        depths = wide_depths if index in wide else patient_depths
        depth = depths.pop() * ALARM_TAIL * (high - low)
        if rng.random() < 0.5:
            op, threshold = Op.GT, high - depth
        else:
            op, threshold = Op.LT, low + depth
        if not floats:
            threshold = round(threshold)
        constraints = [Constraint(vital, op, threshold)]
        if index not in wide:
            constraints.insert(0, Constraint(
                "patient", Op.EQ, patient_name(rng.randrange(PATIENTS))))
        rules.append(Filter(constraints))
    return rules


def vitals_packs(seed: int, count: int, floats: bool) -> list[dict]:
    """``count`` nine-attribute packs: a patient and all eight vitals."""
    rng = stream(seed, "packs", floats)
    draw = rng.uniform if floats else rng.randint
    packs = []
    for _ in range(count):
        pack = {"patient": patient_name(rng.randrange(PATIENTS))}
        for vital, low, high in VITALS:
            pack[vital] = draw(low, high)
        packs.append(pack)
    return packs


#: Integer packs are cycled from a pool this size: the value space is a
#: few hundred (name, value) pairs, so a pool of thousands already covers
#: it and 160 000 pre-built dicts would only measure the generator's RSS.
PACK_POOL = 4096
