"""pi_phi: variational Bayesian estimator of the baseline cost-to-go.

Paper Sec. 3: the switching rule needs ``C = E_pi_b[sum_{t=tc}^T c_t]``,
the cumulative cost were the baseline to finish the episode from the
current slot.  A deterministic net "only generates a single estimation
value and overlooks statistical information", so the paper trains a
probabilistic model with variational inference (Eq. 6-7) and uses both
the mean mu and the deviation sigma in the switch criterion (Eq. 8).

:class:`CostToGoEstimator` wraps a :class:`repro.nn.bayesian.BayesianMLP`
with the dataset plumbing: given episodes of (state, cost) pairs run by
the baseline, it forms cost-to-go targets and maximises the ELBO.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.config import EstimatorConfig
from repro.nn.bayesian import BayesianMLP
from repro.nn.optim import Adam, clip_grad_norm


def cost_to_go(costs: Sequence[float]) -> np.ndarray:
    """Undiscounted suffix sums ``C_t = sum_{m>=t} c_m`` of an episode."""
    arr = np.asarray(costs, dtype=np.float64)
    return arr[::-1].cumsum()[::-1].copy()


class CostToGoEstimator:
    """Trainable posterior over the baseline policy's cost-to-go."""

    def __init__(self, state_dim: int,
                 cfg: Optional[EstimatorConfig] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        self.cfg = cfg or EstimatorConfig()
        self._rng = rng if rng is not None else np.random.default_rng(3)
        self.state_dim = state_dim
        self.network = BayesianMLP(
            state_dim, 1, hidden_sizes=self.cfg.hidden_sizes,
            rng=self._rng, prior_std=self.cfg.prior_std, name="pi_phi")
        self._optim = Adam(self.network.parameters(),
                           lr=self.cfg.learning_rate)
        self._states: List[np.ndarray] = []
        self._targets: List[float] = []
        #: Standardisation of targets keeps the Gaussian likelihood well
        #: scaled regardless of the episode horizon.
        self._target_mean = 0.0
        self._target_std = 1.0

    # ---- dataset management ---------------------------------------

    def add_episode(self, states: Sequence[np.ndarray],
                    costs: Sequence[float]) -> None:
        """Register one baseline episode as (state, cost-to-go) pairs."""
        if len(states) != len(costs):
            raise ValueError("states/costs length mismatch")
        targets = cost_to_go(costs)
        for state, target in zip(states, targets):
            self._states.append(np.asarray(state, dtype=np.float64))
            self._targets.append(float(target))

    @property
    def dataset_size(self) -> int:
        return len(self._states)

    def clear_dataset(self) -> None:
        self._states = []
        self._targets = []

    # ---- training ---------------------------------------------------

    def fit(self, epochs: Optional[int] = None) -> List[float]:
        """Maximise the ELBO over the stored dataset (Eq. 7).

        Returns the per-epoch negative-ELBO curve.
        """
        if not self._states:
            raise RuntimeError("no episodes added")
        epochs = epochs if epochs is not None else self.cfg.train_epochs
        states = np.stack(self._states)
        targets = np.array(self._targets)
        self._target_mean = float(targets.mean())
        self._target_std = max(float(targets.std()), 1e-6)
        targets = (targets - self._target_mean) / self._target_std
        n = len(states)
        kl_weight = self.cfg.kl_weight / max(n, 1)
        curve: List[float] = []
        for _ in range(epochs):
            order = self._rng.permutation(n)
            epoch_loss, batches = 0.0, 0
            for start in range(0, n, self.cfg.minibatch_size):
                idx = order[start:start + self.cfg.minibatch_size]
                self._optim.zero_grad()
                nll, kl = self.network.elbo_step(
                    states[idx], targets[idx], kl_weight=kl_weight)
                clip_grad_norm(self.network.parameters(), 5.0)
                self._optim.step()
                epoch_loss += nll + kl_weight * kl
                batches += 1
            curve.append(epoch_loss / max(batches, 1))
        return curve

    # ---- inference ----------------------------------------------------

    @property
    def target_scale(self) -> Tuple[float, float]:
        """``(mean, std)`` the cost-to-go targets were standardised
        with at the last :meth:`fit`; persisted beside the weights."""
        return self._target_mean, self._target_std

    @target_scale.setter
    def target_scale(self, scale: Sequence[float]) -> None:
        mean, std = scale
        self._target_mean, self._target_std = float(mean), float(std)

    def predict_batch(self, states: np.ndarray,
                      num_samples: Optional[int] = None
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior predictive ``(mu, sigma)`` of the cost-to-go per
        row of ``states``, de-standardised to cost units."""
        if num_samples is None:
            num_samples = self.cfg.num_posterior_samples
            if num_samples < 1:
                raise ValueError(
                    "EstimatorConfig.num_posterior_samples must be "
                    f">= 1, got {num_samples}")
        mean, std = self.network.predict(
            np.atleast_2d(states), num_samples=num_samples,
            rng=self._rng)
        return (mean[:, 0] * self._target_std + self._target_mean,
                std[:, 0] * self._target_std)

    def predict(self, state: np.ndarray,
                num_samples: Optional[int] = None
                ) -> Tuple[float, float]:
        """Posterior predictive ``(mu, sigma)`` of one state: the
        1-row case of :meth:`predict_batch`."""
        mu, sigma = self.predict_batch(state, num_samples)
        return float(mu[0]), float(sigma[0])
