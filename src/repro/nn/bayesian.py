"""Mean-field variational (Bayes-by-backprop) networks.

The paper's proactive baseline switching (Sec. 3) needs the *posterior
distribution* of the baseline policy's cost-to-go, not just a point
estimate: "if the cost value has a small mean value but a large
deviation, switching to the baseline merely based on the mean value
could be too late".  It trains a probabilistic policy pi_phi with
variational inference by maximising the ELBO (paper Eq. 6-7).

We implement that here from scratch:

* :class:`VariationalDense` -- a dense layer whose weights follow a
  factorised Gaussian posterior ``q(W) = N(mu, softplus(rho)^2)``,
  trained with the *local reparameterisation trick* (sampling the
  pre-activations rather than the weights, which lowers gradient
  variance and keeps the backward pass closed-form).
* :class:`BayesianMLP` -- a stack of variational layers with an
  analytic KL term against a zero-mean Gaussian prior; ``elbo_step``
  maximises ``E_q[log p(D|phi)] - KL(q || p)`` exactly as Eq. 7, and
  ``predict`` returns the posterior predictive mean and deviation by
  Monte-Carlo over weight draws.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.layers import Module, Parameter, make_activation

_SOFTPLUS_INV_1 = float(np.log(np.expm1(1.0)))  # softplus(x) = 1


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500, 500)))


class VariationalDense(Module):
    """Dense layer with a Gaussian weight posterior.

    Forward pass (local reparameterisation)::

        act_mean = x @ mu_W + mu_b
        act_var  = x^2 @ sigma_W^2 + sigma_b^2
        out      = act_mean + sqrt(act_var) * eps,   eps ~ N(0, I)

    ``sigma = softplus(rho)`` keeps deviations positive.  ``backward``
    propagates gradients to ``mu`` and ``rho`` through both the mean and
    the variance paths.
    """

    def __init__(self, in_features: int, out_features: int,
                 rng: Optional[np.random.Generator] = None,
                 initial_rho: float = -5.0,
                 name: str = "vdense") -> None:
        if rng is None:
            rng = np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        scale = 1.0 / np.sqrt(in_features)
        self.weight_mu = Parameter(
            rng.uniform(-scale, scale, size=(in_features, out_features)),
            name=f"{name}.weight_mu")
        self.weight_rho = Parameter(
            np.full((in_features, out_features), initial_rho),
            name=f"{name}.weight_rho")
        self.bias_mu = Parameter(np.zeros(out_features),
                                 name=f"{name}.bias_mu")
        self.bias_rho = Parameter(np.full(out_features, initial_rho),
                                  name=f"{name}.bias_rho")
        self._rng = rng
        self._cache: Optional[dict] = None
        self.sample_noise = True

    def parameters(self) -> List[Parameter]:
        return [self.weight_mu, self.weight_rho, self.bias_mu,
                self.bias_rho]

    def _moments(self, x: np.ndarray):
        """Pre-activation ``(mean, std)`` under the weight posterior,
        plus the posterior scales ``(sigma_w, sigma_b)`` behind them.
        ``x`` may carry leading batch axes."""
        sigma_w = _softplus(self.weight_rho.value)
        sigma_b = _softplus(self.bias_rho.value)
        act_mean = x @ self.weight_mu.value + self.bias_mu.value
        act_var = (x ** 2) @ (sigma_w ** 2) + sigma_b ** 2
        act_std = np.sqrt(np.maximum(act_var, 1e-16))
        return act_mean, act_std, sigma_w, sigma_b

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        act_mean, act_std, sigma_w, sigma_b = self._moments(x)
        if self.sample_noise:
            eps = self._rng.standard_normal(act_mean.shape)
        else:
            eps = np.zeros_like(act_mean)
        self._cache = {
            "x": x, "sigma_w": sigma_w, "sigma_b": sigma_b,
            "act_std": act_std, "eps": eps,
        }
        return act_mean + act_std * eps

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        cache = self._cache
        x = cache["x"]
        grad_out = np.atleast_2d(grad_out)

        # Mean path: identical to an ordinary dense layer.
        self.weight_mu.grad += x.T @ grad_out
        self.bias_mu.grad += grad_out.sum(axis=0)
        grad_in = grad_out @ self.weight_mu.value.T

        # Variance path: out includes sqrt(act_var) * eps.
        grad_std = grad_out * cache["eps"]            # dL/d act_std
        grad_var = grad_std / (2.0 * cache["act_std"])  # dL/d act_var
        sigma_w = cache["sigma_w"]
        sigma_b = cache["sigma_b"]
        # d act_var / d sigma_w^2 = x^2 (outer product structure)
        grad_sigma_w_sq = (x ** 2).T @ grad_var
        grad_sigma_w = 2.0 * sigma_w * grad_sigma_w_sq
        self.weight_rho.grad += grad_sigma_w * _sigmoid(
            self.weight_rho.value)
        grad_sigma_b = 2.0 * sigma_b * grad_var.sum(axis=0)
        self.bias_rho.grad += grad_sigma_b * _sigmoid(self.bias_rho.value)
        # d act_var / d x = 2 x sigma_w^2
        grad_in += 2.0 * x * (grad_var @ (sigma_w ** 2).T)
        return grad_in

    def kl_divergence(self, prior_std: float = 1.0) -> float:
        """Analytic KL(q(W,b) || N(0, prior_std^2 I))."""
        total = 0.0
        for mu_p, rho_p in ((self.weight_mu, self.weight_rho),
                            (self.bias_mu, self.bias_rho)):
            sigma = _softplus(rho_p.value)
            total += float(np.sum(
                np.log(prior_std / sigma)
                + (sigma ** 2 + mu_p.value ** 2) / (2.0 * prior_std ** 2)
                - 0.5))
        return total

    def accumulate_kl_grad(self, weight: float,
                           prior_std: float = 1.0) -> None:
        """Add ``weight * dKL/dparam`` into the parameter gradients."""
        for mu_p, rho_p in ((self.weight_mu, self.weight_rho),
                            (self.bias_mu, self.bias_rho)):
            sigma = _softplus(rho_p.value)
            mu_p.grad += weight * mu_p.value / prior_std ** 2
            grad_sigma = sigma / prior_std ** 2 - 1.0 / sigma
            rho_p.grad += weight * grad_sigma * _sigmoid(rho_p.value)


class BayesianMLP(Module):
    """Stack of variational dense layers for probabilistic regression.

    Trained by maximising the ELBO of paper Eq. 7: a Gaussian likelihood
    (with a learnable homoscedastic observation noise) minus the KL of
    the weight posterior against the prior.
    """

    def __init__(self, in_features: int, out_features: int = 1,
                 hidden_sizes: Sequence[int] = (64, 32),
                 activation: str = "relu",
                 rng: Optional[np.random.Generator] = None,
                 prior_std: float = 1.0,
                 name: str = "bmlp") -> None:
        if rng is None:
            rng = np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.prior_std = prior_std
        self.layers: List[Module] = []
        self._vlayers: List[VariationalDense] = []
        sizes = [in_features, *hidden_sizes, out_features]
        for i in range(len(sizes) - 1):
            vdense = VariationalDense(sizes[i], sizes[i + 1], rng=rng,
                                      name=f"{name}.v{i}")
            self.layers.append(vdense)
            self._vlayers.append(vdense)
            if i < len(sizes) - 2:
                self.layers.append(make_activation(activation))
        #: Learnable log observation-noise std (aleatoric term).
        self.log_noise = Parameter(np.array([-1.0]),
                                   name=f"{name}.log_noise")

    def parameters(self) -> List[Parameter]:
        params: List[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        params.append(self.log_noise)
        return params

    def _set_sampling(self, flag: bool) -> None:
        for vlayer in self._vlayers:
            vlayer.sample_noise = flag

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.atleast_2d(np.asarray(x, dtype=np.float64))
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad = np.atleast_2d(grad_out)
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def kl_divergence(self) -> float:
        return sum(v.kl_divergence(self.prior_std) for v in self._vlayers)

    def elbo_step(self, x: np.ndarray, y: np.ndarray,
                  kl_weight: float = 1e-3) -> Tuple[float, float]:
        """Accumulate gradients of the *negative* ELBO for one batch.

        Returns ``(nll, kl)`` so callers can log both terms.  The caller
        owns ``zero_grad`` and the optimiser step.
        """
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64).reshape(x.shape[0], -1)
        self._set_sampling(True)
        pred = self.forward(x)
        noise_var = float(np.exp(2.0 * self.log_noise.value[0]))
        diff = pred - y
        n = diff.size
        nll = float(np.mean(
            0.5 * diff ** 2 / noise_var
            + self.log_noise.value[0] + 0.5 * np.log(2.0 * np.pi)))
        grad_pred = diff / (noise_var * n)
        self.backward(grad_pred)
        # d nll / d log_noise = 1 - diff^2 / noise_var (averaged)
        self.log_noise.grad += float(np.mean(1.0 - diff ** 2 / noise_var))
        kl = self.kl_divergence()
        for vlayer in self._vlayers:
            vlayer.accumulate_kl_grad(kl_weight, self.prior_std)
        return nll, kl

    def predict(self, x: np.ndarray, num_samples: int = 16,
                rng: Optional[np.random.Generator] = None
                ) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior-predictive mean and standard deviation.

        Monte-Carlo over ``num_samples`` stochastic forward passes
        (epistemic uncertainty), folding in the learned observation
        noise (aleatoric).  Accepts single or batched inputs.

        The passes run together: posterior scales are computed once,
        the samples ride the leading axis of ``(S, n, k) @ (k, m)``
        (numpy issues one ``(n, k) @ (k, m)`` product per sample), and
        all noise is one block laid out sample-major / layer-minor --
        the order ``num_samples`` consecutive :meth:`forward` calls
        would draw it in.  Results and the generator state left behind
        are therefore bit-identical to that loop, which survives as the
        oracle in ``tests/test_nn_bayesian.py``.  The layers' shared
        generator (the constructor's, or ``rng``, which rebinds them
        all) supplies the block.
        """
        if num_samples < 1:
            raise ValueError(
                f"num_samples must be >= 1, got {num_samples}")
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        out = np.atleast_2d(x)
        if rng is not None:
            for vlayer in self._vlayers:
                vlayer._rng = rng
        rows = out.shape[0]
        noise = self._vlayers[0]._rng.standard_normal(
            (num_samples,
             rows * sum(v.out_features for v in self._vlayers)))
        offset = 0
        for layer in self.layers:
            if not isinstance(layer, VariationalDense):
                out = layer.forward(out)
                continue
            # Layer 0 sees the 2-D input, so its moments are computed
            # once and broadcast against the (S, n, m) noise.
            act_mean, act_std, _, _ = layer._moments(out)
            span = rows * layer.out_features
            eps = noise[:, offset:offset + span].reshape(
                num_samples, rows, layer.out_features)
            offset += span
            out = act_mean + act_std * eps
        mean = out.mean(axis=0)
        epistemic_var = out.var(axis=0)
        noise_var = float(np.exp(2.0 * self.log_noise.value[0]))
        std = np.sqrt(epistemic_var + noise_var)
        if single:
            return mean[0], std[0]
        return mean, std

    def predict_mean(self, x: np.ndarray) -> np.ndarray:
        """Deterministic forward pass through the posterior means."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        self._set_sampling(False)
        out = self.forward(np.atleast_2d(x))
        self._set_sampling(True)
        return out[0] if single else out
