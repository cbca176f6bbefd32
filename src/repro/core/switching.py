"""Proactive baseline switching (paper Sec. 3, Eq. 8).

At every time slot the agent evaluates

    E_t = sum_{m<=t} c_m + mu + eta * sigma

where ``(mu, sigma)`` is pi_phi's posterior over the baseline policy's
cost-to-go from the current state.  If ``E_t >= T * C_max`` the
baseline policy takes over *the rest of the episode* -- switching is a
one-way door within an episode ("let the baseline policy take over the
rest of the episode"), re-armed at the next reset.

Variants used by the paper's ablation (Table 2 / Fig. 13):

* **OnSlicing-NB** -- ``enabled=False``: never switches.
* **OnSlicing-NE** -- ``use_estimator=False``: reactive switching only
  once the cumulative cost alone crosses the threshold.
* **Est. Noise** -- ``estimator_noise_std=1.0``: Gaussian noise on the
  estimator output to probe robustness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.config import SwitchingConfig
from repro.rl.cost_estimator import CostToGoEstimator


def expected_episode_cost(cumulative_cost, mu, sigma, eta: float):
    """``E_t`` of Eq. 8, ``cumulative + mu + eta * sigma``, on floats or
    on arrays of rows (serving's Eq. 8 pass); the switch fires once it
    reaches ``T * C_max``."""
    return cumulative_cost + mu + eta * sigma


@dataclass(frozen=True)
class SwitchDecision:
    """Outcome of one slot's switching evaluation."""

    use_baseline: bool
    expected_episode_cost: float     # E_t of Eq. 8
    threshold: float                 # T * C_max
    estimator_mean: float
    estimator_std: float
    newly_triggered: bool


class ProactiveBaselineSwitch:
    """Per-episode switching state machine for one agent."""

    def __init__(self, cfg: SwitchingConfig, horizon: int,
                 cost_threshold: float,
                 estimator: Optional[CostToGoEstimator] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        self.cfg = cfg
        self.horizon = horizon
        self.cost_threshold = cost_threshold
        self.estimator = estimator
        self._rng = rng if rng is not None else np.random.default_rng(23)
        self._active = False
        self._switch_slot: Optional[int] = None
        if cfg.enabled and cfg.use_estimator and estimator is None:
            raise ValueError(
                "use_estimator=True requires a CostToGoEstimator")

    @property
    def active(self) -> bool:
        """True while the baseline controls the rest of the episode."""
        return self._active

    @property
    def switch_slot(self) -> Optional[int]:
        """Slot at which the baseline took over (None if it has not)."""
        return self._switch_slot

    def reset(self) -> None:
        """Re-arm at the start of a new episode."""
        self._active = False
        self._switch_slot = None

    def evaluate(self, state: np.ndarray, cumulative_cost: float,
                 slot: int) -> SwitchDecision:
        """Eq. 8 at one state: pi_phi's posterior there when the rule
        reads it (:attr:`watching`), then :meth:`decide`."""
        mu, sigma = (self.estimator.predict(state) if self.watching
                     else (0.0, 0.0))
        return self.decide(mu, sigma, cumulative_cost, slot)

    @property
    def watching(self) -> bool:
        """True while this slot's decision reads pi_phi: switching on,
        estimator-driven, and the baseline not yet in control."""
        return (self.cfg.enabled and self.cfg.use_estimator
                and not self._active)

    def decide(self, mu: float, sigma: float, cumulative_cost: float,
               slot: int) -> SwitchDecision:
        """Eq. 8: decide which policy acts at this slot, given pi_phi's
        posterior ``(mu, sigma)`` at the state (read only while
        :attr:`watching`).  The Est.-Noise draw, on this switch's
        generator, happens here."""
        threshold = self.horizon * self.cost_threshold
        if not self.cfg.enabled:
            return SwitchDecision(False, cumulative_cost, threshold,
                                  0.0, 0.0, False)
        if self._active:
            return SwitchDecision(True, cumulative_cost, threshold,
                                  0.0, 0.0, False)
        if self.cfg.use_estimator:
            if self.cfg.estimator_noise_std > 0:
                mu += float(self._rng.normal(
                    0.0, self.cfg.estimator_noise_std))
            mu = max(mu, 0.0)
        else:
            mu, sigma = 0.0, 0.0
        expected = expected_episode_cost(cumulative_cost, mu, sigma,
                                         self.cfg.eta)
        triggered = expected >= threshold
        if triggered:
            self._active = True
            self._switch_slot = slot
        return SwitchDecision(triggered, expected, threshold, mu, sigma,
                              triggered)
