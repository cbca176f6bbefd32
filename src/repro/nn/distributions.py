"""Diagonal-Gaussian policy head for continuous-action PPO.

The actor MLP outputs the mean (already squashed to [0, 1] by a Sigmoid
per the paper, Sec. 6); the log standard deviation is a free,
state-independent :class:`~repro.nn.layers.Parameter` vector -- the
standard PPO parameterisation.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.nn.layers import Parameter

_LOG_2PI = float(np.log(2.0 * np.pi))


class DiagGaussian:
    """Factorised Gaussian over action vectors.

    Parameters
    ----------
    dim:
        Action dimensionality.
    initial_log_std:
        Starting value of every log-std component.
    min_log_std / max_log_std:
        Clamp range applied whenever the parameter is read, keeping a
        minimum exploration floor and numeric safety.
    """

    def __init__(self, dim: int, initial_log_std: float = -1.0,
                 min_log_std: float = -3.5,
                 max_log_std: float = 1.0) -> None:
        if dim <= 0:
            raise ValueError("dim must be positive")
        if min_log_std > max_log_std:
            raise ValueError("min_log_std must be <= max_log_std")
        self.dim = dim
        self.min_log_std = min_log_std
        self.max_log_std = max_log_std
        init = float(np.clip(initial_log_std, min_log_std, max_log_std))
        self.log_std = Parameter(np.full(dim, init), name="policy.log_std")

    def parameters(self) -> List[Parameter]:
        return [self.log_std]

    def _clamped_log_std(self) -> np.ndarray:
        return np.clip(self.log_std.value, self.min_log_std,
                       self.max_log_std)

    @property
    def std(self) -> np.ndarray:
        return np.exp(self._clamped_log_std())

    def sample(self, mean: np.ndarray,
               rng: np.random.Generator) -> np.ndarray:
        """Draw actions ``a ~ N(mean, std^2)`` clipped to [0, 1]."""
        mean = np.asarray(mean, dtype=np.float64)
        noise = rng.standard_normal(mean.shape)
        return np.clip(mean + noise * self.std, 0.0, 1.0)

    def log_prob(self, mean: np.ndarray,
                 actions: np.ndarray) -> np.ndarray:
        """Log-density of ``actions`` under ``N(mean, std^2)``, summed
        over action dimensions. Works for batched or single inputs."""
        mean = np.asarray(mean, dtype=np.float64)
        actions = np.asarray(actions, dtype=np.float64)
        log_std = self._clamped_log_std()
        z = (actions - mean) / np.exp(log_std)
        per_dim = -0.5 * z ** 2 - log_std - 0.5 * _LOG_2PI
        return per_dim.sum(axis=-1)

    def log_prob_grads(self, mean: np.ndarray, actions: np.ndarray
                       ) -> Tuple[np.ndarray, np.ndarray]:
        """Gradients of ``log pi(a|s)`` w.r.t. the mean and the log-std.

        Returns ``(d_logp/d_mean, d_logp/d_log_std)`` with the same
        batch shape as ``mean``.  Used by the PPO learner to chain the
        surrogate-loss gradient through the actor network.
        """
        mean = np.asarray(mean, dtype=np.float64)
        actions = np.asarray(actions, dtype=np.float64)
        log_std = self._clamped_log_std()
        inv_var = np.exp(-2.0 * log_std)
        diff = actions - mean
        grad_mean = diff * inv_var
        grad_log_std = diff ** 2 * inv_var - 1.0
        return grad_mean, grad_log_std

    def entropy(self) -> float:
        """Differential entropy of the Gaussian (state independent)."""
        log_std = self._clamped_log_std()
        return float(np.sum(log_std + 0.5 * (1.0 + _LOG_2PI)))

    def entropy_grad_log_std(self) -> np.ndarray:
        """d entropy / d log_std == 1 for every dimension."""
        return np.ones(self.dim)
