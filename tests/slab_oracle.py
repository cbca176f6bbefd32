"""pi_phi's closed form as it stood at commit debe240, kept as the test
oracle for ``tests/test_closed_form_oracle.py``, which holds the module's
functions to these byte for byte (the ``tests/scalar_oracle.py``
precedent).  Nothing under ``src/`` imports this module.

Verbatim but for the names: ``relu_moments`` as ``parent_relu_moments``
(with the ``_as_tail`` it calls), ``DensePosterior.moments`` as
``parent_moments(layer, ...)`` and ``BayesianPosterior.predict`` as
``parent_predict(posterior, ...)``, each computing with numpy's own
temporaries.  The stacked serving passes are held to the per-cell
serving loop of ``tests/serve_oracle.py``, not to anything here.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.nn.bayesian import (
    _AS_COEFFS,
    _AS_P,
    _INV_SQRT_2PI,
    _SQRT_HALF,
    _Z_CLIP,
)


def _parent_as_tail(a: np.ndarray) -> np.ndarray:
    """``t P(t)`` of Abramowitz & Stegun 7.1.26 at ``a >= 0``, so that
    ``erfc(a) = t P(t) exp(-a^2)`` to ``|error| <= 1.5e-7``."""
    t = 1.0 / (1.0 + _AS_P * a)
    poly = _AS_COEFFS[0]
    for coeff in _AS_COEFFS[1:]:
        poly = poly * t + coeff
    return poly * t


def parent_relu_moments(mean: np.ndarray, var: np.ndarray
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """Mean and variance of ``max(X, 0)`` for ``X ~ N(mean, var)``:
    with ``z = mean / std``, ``E = mean Phi(z) + std phi(z)`` and
    ``E[x^2] = (mean^2 + var) Phi(z) + mean std phi(z)``.

    ``Phi`` is :func:`erf`'s formula in complementary form, ``Phi(-|z|)
    = erfc(|z| / sqrt 2) / 2``, which shares its exponential with
    ``phi`` and keeps the lower tail free of cancellation."""
    std = np.sqrt(var)
    z = np.minimum(np.maximum(mean / np.maximum(std, 1e-300), -_Z_CLIP),
                   _Z_CLIP)
    gauss = np.exp(-0.5 * z * z)
    lower = 0.5 * _parent_as_tail(_SQRT_HALF * np.abs(z)) * gauss
    cdf = np.where(z >= 0.0, 1.0 - lower, lower)
    spread = (_INV_SQRT_2PI * std) * gauss            # std * phi(z)
    first = mean * cdf + spread
    second = (mean * mean + var) * cdf + mean * spread
    return first, np.maximum(second - first * first, 0.0)


def parent_moments(self, x: np.ndarray, var=None
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Pre-activation ``(mean, variance)`` for an input of mean
    ``x`` whose units are independent with variance ``var``
    (``None``: a fixed input): ``x @ mu_W + mu_b`` and ``(var +
    x^2) @ sigma_W^2 + var @ mu_W^2 + sigma_b^2``.  ``x`` may carry
    leading batch axes.  The one copy of the expression: the ELBO
    forward (:meth:`VariationalDense._moments`) and
    :meth:`BayesianPosterior.predict` both read it."""
    act_mean = x @ self.weight_mu + self.bias_mu
    if var is None:
        act_var = (x ** 2) @ self.weight_var + self.bias_var
    else:
        act_var = ((var + x ** 2) @ self.weight_var
                   + var @ self.weight_mu_sq + self.bias_var)
    return act_mean, act_var


def parent_predict(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Posterior-predictive mean and standard deviation of ``x``,
    one input ``(in,)`` or inputs with any leading axes ``(...,
    in)`` (see :meth:`BayesianMLP.predict`)."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    mean, var = np.atleast_2d(x), None
    for index, layer in enumerate(self.layers):
        if index:
            mean, var = parent_relu_moments(mean, var)
        mean, var = parent_moments(layer, mean, var)
    std = np.sqrt(var + self.noise_var)
    if single:
        return mean[0], std[0]
    return mean, std
