"""Loss functions returning ``(value, grad_wrt_prediction)`` pairs."""

from __future__ import annotations

from typing import Tuple

import numpy as np


def mse_loss(pred: np.ndarray,
             target: np.ndarray) -> Tuple[float, np.ndarray]:
    """Mean-squared error; gradient averaged over all elements."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    diff = pred - target
    value = float(np.mean(diff ** 2))
    grad = 2.0 * diff / diff.size
    return value, grad

