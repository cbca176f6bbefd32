"""Compositional traffic generators for scenario definitions.

A traffic model produces the per-slot *envelope* of one slice -- the
normalised arrival rate in ``[0, ENVELOPE_MAX]`` that the simulator
scales by the slice's ``max_arrival_rate`` and realises through the
Poisson arrival process.  Models are frozen dataclasses (so scenario
specs stay hashable and tagged-JSON serialisable) and draw every
random number from the Generator handed in by the caller, which the
simulator derives from the experiment seed: the determinism contract
of the repo holds for every scenario.

Models compose: :class:`FlashCrowdTraffic` and :class:`MixDriftTraffic`
wrap any base model, and :class:`ScaledTraffic` rescales one -- so
"a diurnal day with a flash crowd on the MAR slice whose mix drifts
toward video" is a plain expression over these classes.  The base
class and the default day are in :mod:`repro.sim.traffic`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.config import TrafficConfig
from repro.scenarios.events import slot_window
from repro.sim.traffic import MAX_ENVELOPE as ENVELOPE_MAX
from repro.sim.traffic import DiurnalTraffic, TrafficModel


@dataclass(frozen=True)
class ConstantTraffic(TrafficModel):
    """A flat envelope -- useful as a base for event-driven scenarios."""

    level: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.level <= ENVELOPE_MAX:
            raise ValueError(f"level must be in [0, {ENVELOPE_MAX}]")

    def envelope(self, slice_index: int, num_slots: int,
                 day_index: int, cfg: TrafficConfig,
                 rng: np.random.Generator) -> np.ndarray:
        return np.full(num_slots, self.level)


@dataclass(frozen=True)
class ScaledTraffic(TrafficModel):
    """Multiply a base model's envelope by a constant factor."""

    base: TrafficModel = field(default_factory=DiurnalTraffic)
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    def envelope(self, slice_index: int, num_slots: int,
                 day_index: int, cfg: TrafficConfig,
                 rng: np.random.Generator) -> np.ndarray:
        base = self.base.envelope(slice_index, num_slots, day_index,
                                  cfg, rng)
        return self._clip(base * self.scale)


@dataclass(frozen=True)
class FlashCrowdTraffic(TrafficModel):
    """A sudden crowd: the base envelope is multiplied by ``magnitude``
    inside a window of the episode (e.g. a stadium event).

    ``slice_indices`` limits the spike to some slices (``None`` = all);
    the window is positioned by fractions of the horizon like events.
    """

    base: TrafficModel = field(default_factory=DiurnalTraffic)
    at_fraction: float = 0.45
    duration_fraction: float = 0.15
    magnitude: float = 3.0
    slice_indices: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.at_fraction <= 1.0:
            raise ValueError("at_fraction must be in [0, 1]")
        if not 0.0 < self.duration_fraction <= 1.0:
            raise ValueError("duration_fraction must be in (0, 1]")
        if self.magnitude <= 0:
            raise ValueError("magnitude must be positive")

    def envelope(self, slice_index: int, num_slots: int,
                 day_index: int, cfg: TrafficConfig,
                 rng: np.random.Generator) -> np.ndarray:
        trace = np.array(self.base.envelope(
            slice_index, num_slots, day_index, cfg, rng))
        if (self.slice_indices is not None
                and slice_index not in self.slice_indices):
            return self._clip(trace)
        start, stop = slot_window(self.at_fraction,
                                  self.duration_fraction, num_slots)
        trace[start:stop] *= self.magnitude
        return self._clip(trace)


@dataclass(frozen=True)
class OnOffTraffic(TrafficModel):
    """Bursty on/off envelope: a two-state Markov-modulated process.

    Sojourn times in each state are geometric with the given means (in
    slots) -- the slot-resolution analogue of an MMPP source.  Light
    log-normal jitter keeps the plateaus from being perfectly flat.
    """

    on_level: float = 1.0
    off_level: float = 0.1
    mean_on_slots: float = 8.0
    mean_off_slots: float = 12.0
    jitter_sigma: float = 0.08

    def __post_init__(self) -> None:
        if not 0.0 <= self.off_level <= self.on_level <= ENVELOPE_MAX:
            raise ValueError(
                "levels must satisfy 0 <= off <= on <= "
                f"{ENVELOPE_MAX}")
        if self.mean_on_slots < 1.0 or self.mean_off_slots < 1.0:
            raise ValueError("mean sojourn times must be >= 1 slot")
        if self.jitter_sigma < 0:
            raise ValueError("jitter_sigma must be >= 0")

    def envelope(self, slice_index: int, num_slots: int,
                 day_index: int, cfg: TrafficConfig,
                 rng: np.random.Generator) -> np.ndarray:
        p_leave_on = 1.0 / self.mean_on_slots
        p_leave_off = 1.0 / self.mean_off_slots
        # One uniform per slot keeps the rng budget fixed regardless of
        # the realised state sequence.
        flips = rng.uniform(size=num_slots)
        jitter = rng.lognormal(
            mean=-0.5 * self.jitter_sigma ** 2,
            sigma=self.jitter_sigma, size=num_slots) \
            if self.jitter_sigma > 0 else np.ones(num_slots)
        on = bool(flips[0] < 0.5)
        trace = np.empty(num_slots)
        for t in range(num_slots):
            trace[t] = self.on_level if on else self.off_level
            if flips[t] < (p_leave_on if on else p_leave_off):
                on = not on
        return self._clip(trace * jitter)


@dataclass(frozen=True)
class MixDriftTraffic(TrafficModel):
    """Traffic-mix drift: slice envelopes ramp in opposite directions
    over the episode, shifting which application dominates.

    Even slice indices ramp from 1 to ``1 + drift``; odd indices ramp
    from 1 to ``max(1 - drift, floor)``.  A drift of 0.8 roughly swaps
    the dominant slice by the end of the day.
    """

    base: TrafficModel = field(default_factory=DiurnalTraffic)
    drift: float = 0.8
    floor: float = 0.1

    def __post_init__(self) -> None:
        if self.drift < 0:
            raise ValueError("drift must be >= 0")
        if not 0.0 <= self.floor <= 1.0:
            raise ValueError("floor must be in [0, 1]")

    def envelope(self, slice_index: int, num_slots: int,
                 day_index: int, cfg: TrafficConfig,
                 rng: np.random.Generator) -> np.ndarray:
        trace = np.array(self.base.envelope(
            slice_index, num_slots, day_index, cfg, rng))
        progress = (np.arange(num_slots) / max(num_slots - 1, 1))
        if slice_index % 2 == 0:
            ramp = 1.0 + self.drift * progress
        else:
            ramp = np.maximum(1.0 - self.drift * progress, self.floor)
        return self._clip(trace * ramp)


TRAFFIC_MODEL_TYPES = (DiurnalTraffic, ConstantTraffic, ScaledTraffic,
                       FlashCrowdTraffic, OnOffTraffic, MixDriftTraffic)
