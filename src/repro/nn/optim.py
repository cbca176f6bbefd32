"""First-order optimisers operating on :class:`repro.nn.layers.Parameter`."""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.nn.layers import Parameter


def clip_grad_norm(params: Sequence[Parameter], max_norm: float) -> float:
    """Scale gradients in-place so their global L2 norm is <= max_norm.

    Returns the pre-clipping norm (useful for diagnostics).  A NaN or
    inf gradient would skip the clip (NaN) or turn every gradient into
    NaN (``inf * 0``), and the next optimiser step would write NaN into
    every weight, so it raises ``FloatingPointError`` naming the first
    parameter whose gradient is not finite.
    """
    total = 0.0
    for param in params:
        total += float(np.sum(param.grad ** 2))
    norm = float(np.sqrt(total))
    if not np.isfinite(norm):
        for param in params:
            if not np.isfinite(param.grad).all():
                raise FloatingPointError(
                    f"gradient of parameter {param.name!r} is not finite")
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        for param in params:
            param.grad *= scale
    return norm


class Adam:
    """Adam (Kingma & Ba 2015) with bias correction.

    The moments ``m`` and ``v`` are one flat vector each over every
    parameter (offsets fixed at construction), so a step is one
    gradient gather, whole-vector ufuncs and one in-place subtraction
    per parameter.  Every operation is elementwise and keeps the
    per-parameter update's operation order, so each weight gets the
    float that update gave it (``tests/adam_oracle.py``).
    """

    def __init__(self, params: Sequence[Parameter], lr: float = 1e-3,
                 betas=(0.9, 0.999), eps: float = 1e-8) -> None:
        if lr <= 0:
            raise ValueError("lr must be positive")
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must lie in [0, 1), got {betas}")
        if not eps > 0:
            raise ValueError(f"eps must be positive, got {eps}")
        self.params: List[Parameter] = list(params)
        self.lr = lr
        self.beta1, self.beta2 = beta1, beta2
        self.eps = eps
        self._views = []
        stop = 0
        for param in self.params:
            start, stop = stop, stop + param.value.size
            self._views.append((param, slice(start, stop),
                                param.value.shape))
        self._m = np.zeros(stop)
        self._v = np.zeros(stop)
        self._t = 0

    def step(self) -> None:
        self._t += 1
        if not self.params:
            return
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        m, v = self._m, self._v
        grad = np.concatenate([param.grad for param in self.params],
                              axis=None)
        update = np.multiply(grad, 1.0 - self.beta1)
        m *= self.beta1
        m += update
        np.square(grad, out=grad)
        grad *= 1.0 - self.beta2
        v *= self.beta2
        v += grad
        # lr * m_hat / (sqrt(v_hat) + eps), as (m_hat * lr) / denom
        np.divide(m, bias1, out=update)
        update *= self.lr
        np.divide(v, bias2, out=grad)
        np.sqrt(grad, out=grad)
        grad += self.eps
        update /= grad
        for param, span, shape in self._views:
            param.value -= update[span].reshape(shape)

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()
