"""Traffic synthesis: Telecom-Italia-style traces.

The paper drives its slices with the open Telecom Italia dataset (Call /
SMS / Internet records over the Province of Trento at >=10-minute
intervals), scaling each base station's trace to the testbed capability
(5 users/s MAR, 2 users/s HVS, 100 users/s RDC) and emulating arrivals
inside a slot with a Poisson point process (the stepper's arrivals
stage: one Poisson draw per slice and slot).  The dataset is not
available offline, so :class:`TelecomItaliaSynthesizer` generates traces
with the dataset's documented structure: a diurnal double-peak profile,
weekly (weekday/weekend) modulation, and multiplicative log-normal
burst noise per bin.  The simulator draws every trace through a
:class:`TrafficModel`; :class:`DiurnalTraffic` is its default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.config import TrafficConfig

#: Hard ceiling on normalised traffic envelopes.  The diurnal
#: synthesizer clips at 1.2x peak; scenario stress models (flash
#: crowds) may go further, up to a slice offering double its nominal
#: peak load.  The simulator and every traffic model clip against this
#: one constant.
MAX_ENVELOPE = 2.0


class TelecomItaliaSynthesizer:
    """Synthetic cellular-traffic envelope generator.

    Produces per-slot arrival *rates* normalised to [0, 1] (fraction of
    the slice's peak), which callers scale by the slice's
    ``max_arrival_rate``.
    """

    def __init__(self, cfg: Optional[TrafficConfig] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        self.cfg = cfg or TrafficConfig()
        self._rng = (rng if rng is not None
                     else np.random.default_rng(self.cfg.seed))

    def diurnal_profile(self, hour: np.ndarray) -> np.ndarray:
        """Deterministic double-peak daily shape in [night_floor, 1]."""
        cfg = self.cfg
        morning = np.exp(-0.5 * ((hour - cfg.morning_peak_hour) / 2.5) ** 2)
        evening = np.exp(-0.5 * ((hour - cfg.evening_peak_hour) / 3.0) ** 2)
        shape = np.maximum(morning, 0.9 * evening)
        return cfg.night_floor + (1.0 - cfg.night_floor) * shape

    def generate(self, num_slots: Optional[int] = None,
                 day_of_week: int = 2) -> np.ndarray:
        """One trace of per-slot normalised rates.

        Parameters
        ----------
        num_slots:
            Trace length; defaults to one episode (96 x 15 min).
        day_of_week:
            0 = Monday ... 6 = Sunday for the *first* slot; traces
            longer than a day advance the weekday across midnight, so
            only the slots that actually fall on a weekend are dampened
            by the weekly modulation factor.
        """
        cfg = self.cfg
        n = num_slots if num_slots is not None else cfg.slots_per_episode
        if n <= 0:
            raise ValueError("num_slots must be positive")
        slot_hours = cfg.slot_minutes / 60.0
        absolute_hours = np.arange(n) * slot_hours
        profile = self.diurnal_profile(absolute_hours % 24.0)
        days = (day_of_week + absolute_hours // 24.0).astype(int) % 7
        profile = np.where(days >= 5,
                           profile * (1.0 - cfg.weekly_modulation),
                           profile)
        noise = self._rng.lognormal(
            mean=-0.5 * cfg.noise_sigma ** 2, sigma=cfg.noise_sigma,
            size=n)
        return (profile * noise).clip(0.0, 1.2)


class TrafficModel:
    """Interface: per-slice envelope generation.

    ``envelope(slice_index, num_slots, day_index, cfg, rng)`` returns a
    float array of shape ``(num_slots,)``.  ``day_index`` counts reset
    episodes so consecutive episodes see consecutive days; ``rng`` is
    shared across the slices of one episode, so a model must draw a
    deterministic amount of randomness per call.
    """

    def envelope(self, slice_index: int, num_slots: int,
                 day_index: int, cfg: TrafficConfig,
                 rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def _clip(self, trace: np.ndarray) -> np.ndarray:
        return np.asarray(trace).clip(0.0, MAX_ENVELOPE)


@dataclass(frozen=True)
class DiurnalTraffic(TrafficModel):
    """The paper's Telecom-Italia-style diurnal day (the default)."""

    start_day_of_week: int = 0

    def envelope(self, slice_index: int, num_slots: int,
                 day_index: int, cfg: TrafficConfig,
                 rng: np.random.Generator) -> np.ndarray:
        synth = TelecomItaliaSynthesizer(cfg, rng=rng)
        day = (self.start_day_of_week + day_index) % 7
        return synth.generate(num_slots, day_of_week=day)
