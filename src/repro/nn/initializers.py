"""Weight initialisers for dense layers."""

from __future__ import annotations

import numpy as np


def he_uniform(rng: np.random.Generator, fan_in: int,
               fan_out: int) -> np.ndarray:
    """He/Kaiming uniform initialisation, suited to ReLU networks."""
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def xavier_uniform(rng: np.random.Generator, fan_in: int,
                   fan_out: int) -> np.ndarray:
    """Glorot/Xavier uniform initialisation, suited to sigmoid/tanh."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))

