"""Synthetic vital-sign generation.

The paper monitored real patients; we stand in a deterministic generator
that produces physiologically-shaped vitals with scriptable clinical
episodes (tachycardia, desaturation, fever), so examples and benchmarks
exercise the alarm paths with known ground truth.

All randomness comes from a named :class:`~repro.sim.rng.RngRegistry`
stream, so a given seed always yields the same patient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.sim.rng import RngRegistry


@dataclass(frozen=True)
class Episode:
    """A clinical episode: a vital is pushed toward a value for a while."""

    vital: str                  # "hr" | "spo2" | "temp" | "systolic"
    start_s: float
    duration_s: float
    peak_value: float

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ConfigurationError("episode duration must be > 0")

    def influence(self, now: float, baseline: float) -> float:
        """Offset applied at time ``now`` (smooth rise and fall)."""
        if not self.start_s <= now <= self.start_s + self.duration_s:
            return 0.0
        phase = (now - self.start_s) / self.duration_s
        envelope = math.sin(math.pi * phase)        # 0 -> 1 -> 0
        return (self.peak_value - baseline) * envelope


@dataclass
class VitalsSample:
    """One instant of a patient's vitals."""

    hr: float
    spo2: float
    temp: float
    systolic: float
    diastolic: float


class VitalSignsGenerator:
    """Deterministic patient simulator."""

    def __init__(self, rng: RngRegistry | None = None, *,
                 patient: str = "patient",
                 hr_baseline: float = 72.0,
                 spo2_baseline: float = 97.0,
                 temp_baseline: float = 36.8,
                 systolic_baseline: float = 118.0,
                 diastolic_baseline: float = 76.0,
                 episodes: list[Episode] | None = None) -> None:
        registry = rng if rng is not None else RngRegistry(0)
        self._rng = registry.stream(f"vitals.{patient}")
        self.patient = patient
        self.hr_baseline = hr_baseline
        self.spo2_baseline = spo2_baseline
        self.temp_baseline = temp_baseline
        self.systolic_baseline = systolic_baseline
        self.diastolic_baseline = diastolic_baseline
        self.episodes = list(episodes or [])

    def sample(self, now: float) -> VitalsSample:
        """The patient's vitals at simulated time ``now``."""
        # Slow respiratory/physiological oscillations plus sensor noise.
        hr = (self.hr_baseline
              + 2.5 * math.sin(2 * math.pi * now / 37.0)
              + self._rng.gauss(0.0, 0.8)
              + self._episode_offset("hr", now, self.hr_baseline))
        spo2 = (self.spo2_baseline
                + 0.4 * math.sin(2 * math.pi * now / 53.0)
                + self._rng.gauss(0.0, 0.2)
                + self._episode_offset("spo2", now, self.spo2_baseline))
        temp = (self.temp_baseline
                + 0.05 * math.sin(2 * math.pi * now / 600.0)
                + self._rng.gauss(0.0, 0.02)
                + self._episode_offset("temp", now, self.temp_baseline))
        systolic = (self.systolic_baseline
                    + 3.0 * math.sin(2 * math.pi * now / 97.0)
                    + self._rng.gauss(0.0, 1.5)
                    + self._episode_offset("systolic", now,
                                           self.systolic_baseline))
        diastolic = (self.diastolic_baseline
                     + 2.0 * math.sin(2 * math.pi * now / 97.0)
                     + self._rng.gauss(0.0, 1.0))
        return VitalsSample(
            hr=max(20.0, hr),
            spo2=min(100.0, max(50.0, spo2)),
            temp=max(30.0, temp),
            systolic=max(60.0, systolic),
            diastolic=max(40.0, min(diastolic, systolic - 10.0)),
        )

    def ecg_samples(self, now: float, count: int,
                    sample_rate_hz: float = 250.0) -> list[float]:
        """A burst of ECG waveform samples (for the bus-bypassing stream).

        A crude PQRST-ish shape: a sharp R spike on each beat plus baseline
        wander — enough to give the raw stream realistic size and rhythm.
        """
        hr = self.sample(now).hr
        beat_period = 60.0 / max(hr, 1.0)
        samples = []
        for i in range(count):
            t = now + i / sample_rate_hz
            phase = (t % beat_period) / beat_period
            value = 0.05 * math.sin(2 * math.pi * t / 3.0)
            if 0.02 <= phase < 0.06:
                value += 1.2 * math.sin(math.pi * (phase - 0.02) / 0.04)
            elif 0.30 <= phase < 0.45:
                value += 0.25 * math.sin(math.pi * (phase - 0.30) / 0.15)
            samples.append(value + self._rng.gauss(0.0, 0.01))
        return samples

    def _episode_offset(self, vital: str, now: float, baseline: float) -> float:
        return sum(episode.influence(now, baseline)
                   for episode in self.episodes if episode.vital == vital)


def tachycardia(start_s: float, duration_s: float = 60.0,
                peak_bpm: float = 150.0) -> Episode:
    """A racing-heart episode (what the HighHeartRate policy watches for)."""
    return Episode("hr", start_s, duration_s, peak_bpm)


def desaturation(start_s: float, duration_s: float = 45.0,
                 trough_percent: float = 86.0) -> Episode:
    """An oxygen desaturation episode."""
    return Episode("spo2", start_s, duration_s, trough_percent)


def fever(start_s: float, duration_s: float = 1800.0,
          peak_celsius: float = 39.2) -> Episode:
    """A slow fever."""
    return Episode("temp", start_s, duration_s, peak_celsius)
