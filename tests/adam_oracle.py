"""The per-parameter Adam step: the fused optimiser's oracle.

``repro.nn.optim.Adam`` keeps its moments as one flat vector each and
updates every parameter with whole-vector ufuncs.  Until it did, each
step looped over the parameters with about fourteen numpy calls apiece;
the class below is that loop, moved here **verbatim** (only the file
and this docstring changed -- ``ast.dump`` of the class equals the one
at commit ``ebe7952``) so that ``tests/test_optim.py`` can hold the
fused step to it bit for bit.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.nn.layers import Parameter


class Adam:
    """Adam (Kingma & Ba 2015) with bias correction."""

    def __init__(self, params: Sequence[Parameter], lr: float = 1e-3,
                 betas=(0.9, 0.999), eps: float = 1e-8) -> None:
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.params: List[Parameter] = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._m = [np.zeros_like(p.value) for p in self.params]
        self._v = [np.zeros_like(p.value) for p in self.params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        for param, m, v in zip(self.params, self._m, self._v):
            grad = param.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad ** 2
            m_hat = m / bias1
            v_hat = v / bias2
            param.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()
