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
  maximises ``E_q[log p(D|phi)] - KL(q || p)`` exactly as Eq. 7
  (by reparameterised sampling), and ``predict`` returns the posterior
  predictive mean and deviation in closed form, by propagating each
  unit's first two moments through the net (Wu et al., "Deterministic
  Variational Inference for Robust Bayesian Neural Networks", ICLR
  2019, diagonal variant).
* :class:`BayesianPosterior` -- the weight-side half of that closed
  form, frozen: per layer the means ``mu_W``, ``mu_b`` and the squares
  ``sigma_W^2``, ``mu_W^2``, ``sigma_b^2`` it reads, built once by
  :meth:`BayesianMLP.posterior` and read by any number of
  ``predict`` calls (serving stacks one per snapshot policy per core).

Operation order
~~~~~~~~~~~~~~~
The closed form is on the serving path (every Eq. 8 check reads it),
so :func:`relu_moments`, :meth:`DensePosterior.moments` and the tail
of :meth:`BayesianPosterior.predict` compute into temporaries of their
own rather than letting numpy allocate one per operator.  Every float
is the one the plain expression gives, because only *where* a result
lands changes:

* **Same ufunc, same operands, same association.**  ``a * b + c``
  becomes ``np.multiply(a, b, buf)`` then ``buf += c``; a scalar
  factor keeps its side (``np.multiply(0.5, buf, buf)`` for ``0.5 *
  buf``); a matrix product keeps its ``@`` and its bias is added into
  it in place.  The output buffer goes positionally (parsing ``out=``
  costs about a microsecond a call, the whole call at 1-3 rows),
  except to ``np.maximum`` / ``np.minimum``, whose third positional
  argument numpy deprecates.  The ``np.where`` selection stays: it
  allocates its result, and is cheaper than a masked copy.
* **Overwritten only when dead.**  A buffer is reused for a new value
  only after the last read of the value it held; the inputs are never
  written.
* **0-d inputs** run the very same expression on ``()``-shaped
  buffers; :func:`relu_moments` hands them back as numpy scalars, as
  the plain expression did.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.nn.layers import Module, Parameter, ReLU

_SOFTPLUS_INV_1 = float(np.log(np.expm1(1.0)))  # softplus(x) = 1

#: Abramowitz & Stegun 7.1.26: ``erf(x) = 1 - t * P(t) * exp(-x^2)``
#: with ``t = 1 / (1 + p x)`` for ``x >= 0``, ``|error| <= 1.5e-7``.
_AS_P = 0.3275911
_AS_COEFFS = (1.061405429, -1.453152027, 1.421413741, -0.284496736,
              0.254829592)
_SQRT_HALF = float(np.sqrt(0.5))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))
#: |mean / std| beyond which the rectified Gaussian is the identity or
#: zero to the last float (Phi is exactly 0 or 1 and phi underflows);
#: clipping there keeps a zero-variance unit finite.
_Z_CLIP = 40.0


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500, 500)))


def _as_tail(t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``t P(t)`` of Abramowitz & Stegun 7.1.26 at ``a >= 0``, so that
    ``erfc(a) = t P(t) exp(-a^2)`` to ``|error| <= 1.5e-7``.

    ``t`` holds ``a`` on entry and ``t = 1 / (1 + p a)`` on return;
    ``out`` (``t``'s shape) receives ``t P(t)``, Horner's rule in
    place."""
    np.multiply(_AS_P, t, t)
    np.add(1.0, t, t)
    np.divide(1.0, t, t)
    np.multiply(_AS_COEFFS[0], t, out)
    for coeff in _AS_COEFFS[1:]:
        out += coeff
        out *= t
    return out


def erf(x: np.ndarray) -> np.ndarray:
    """The error function, elementwise, to ``|error| <= 1.5e-7`` (A&S
    7.1.26; numpy has none and scipy is not a dependency).  Odd to the
    last bit, and finite for any finite input."""
    a = np.abs(np.asarray(x, dtype=np.float64))
    t = np.array(a)
    tail = _as_tail(t, np.empty_like(t))
    return np.copysign(1.0 - tail * np.exp(-a * a), x)


def relu_moments(mean: np.ndarray, var: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Mean and variance of ``max(X, 0)`` for ``X ~ N(mean, var)``:
    with ``z = mean / std``, ``E = mean Phi(z) + std phi(z)`` and
    ``E[x^2] = (mean^2 + var) Phi(z) + mean std phi(z)``.

    ``Phi`` is :func:`erf`'s formula in complementary form, ``Phi(-|z|)
    = erfc(|z| / sqrt 2) / 2``, which shares its exponential with
    ``phi`` and keeps the lower tail free of cancellation.

    Computed in five buffers of the broadcast shape and the one
    ``np.where`` allocates (module docstring, *Operation order*); the
    comments name the value a line leaves."""
    shape = np.broadcast(mean, var).shape
    std, z, gauss, work, tail = (np.empty(shape) for _ in range(5))
    np.sqrt(var, std)
    np.maximum(std, 1e-300, out=z)
    np.divide(mean, z, z)
    np.maximum(z, -_Z_CLIP, out=z)
    np.minimum(z, _Z_CLIP, out=z)                 # z
    np.multiply(-0.5, z, gauss)
    gauss *= z
    np.exp(gauss, gauss)                          # exp(-z^2 / 2)
    np.absolute(z, work)
    np.multiply(_SQRT_HALF, work, work)
    _as_tail(work, tail)
    np.multiply(0.5, tail, tail)
    tail *= gauss                                 # lower = Phi(-|z|)
    np.subtract(1.0, tail, work)
    cdf = np.where(z >= 0.0, work, tail)          # Phi(z)
    spread = std
    np.multiply(_INV_SQRT_2PI, std, spread)
    spread *= gauss                               # std phi(z)
    first = z
    np.multiply(mean, cdf, first)
    first += spread                               # E[max(X, 0)]
    second = gauss
    np.multiply(mean, mean, second)
    second += var
    second *= cdf
    np.multiply(mean, spread, work)
    second += work                                # E[max(X, 0)^2]
    np.multiply(first, first, work)
    np.subtract(second, work, second)
    np.maximum(second, 0.0, out=second)
    if not shape:
        return first[()], second[()]
    return first, second


class DensePosterior(NamedTuple):
    """A variational layer's weight posterior, as the tables its
    moments read: ``mu_W``, ``sigma_W^2``, ``mu_W^2`` (``None`` when
    only fixed inputs are propagated), ``mu_b`` and ``sigma_b^2``."""

    weight_mu: np.ndarray
    weight_var: np.ndarray
    weight_mu_sq: Optional[np.ndarray]
    bias_mu: np.ndarray
    bias_var: np.ndarray

    def moments(self, x: np.ndarray, var: Optional[np.ndarray] = None
                ) -> Tuple[np.ndarray, np.ndarray]:
        """Pre-activation ``(mean, variance)`` for an input of mean
        ``x`` whose units are independent with variance ``var``
        (``None``: a fixed input): ``x @ mu_W + mu_b`` and ``(var +
        x^2) @ sigma_W^2 + var @ mu_W^2 + sigma_b^2``.  ``x`` may carry
        leading batch axes.  The one copy of the expression: the ELBO
        forward (:meth:`VariationalDense._moments`) and
        :meth:`BayesianPosterior.predict` both read it.  Each sum
        lands in the product it starts from (module docstring,
        *Operation order*)."""
        act_mean = x @ self.weight_mu
        act_mean += self.bias_mu
        square = x ** 2
        if var is None:
            act_var = square @ self.weight_var
        else:
            np.add(var, square, square)               # var + x^2
            act_var = square @ self.weight_var
            act_var += var @ self.weight_mu_sq
        act_var += self.bias_var
        return act_mean, act_var


class BayesianPosterior(NamedTuple):
    """A :class:`BayesianMLP`'s posterior, frozen at the weights it was
    built from (:meth:`BayesianMLP.posterior`): one
    :class:`DensePosterior` per variational layer, ReLU between them,
    and the learned observation-noise variance."""

    layers: Tuple[DensePosterior, ...]
    noise_var: float

    def predict(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior-predictive mean and standard deviation of ``x``,
        one input ``(in,)`` or inputs with any leading axes ``(...,
        in)`` (see :meth:`BayesianMLP.predict`)."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        mean, var = np.atleast_2d(x), None
        for index, layer in enumerate(self.layers):
            if index:
                mean, var = relu_moments(mean, var)
            mean, var = layer.moments(mean, var)
        var += self.noise_var
        std = np.sqrt(var, var)
        if single:
            return mean[0], std[0]
        return mean, std


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
        """Pre-activation ``(mean, variance)`` of a fixed input ``x``
        under the live weight posterior, plus the posterior scales
        ``(sigma_w, sigma_b)`` behind them (the ELBO forward's
        backward reuses them).  ``x`` may carry leading batch axes."""
        sigma_w = _softplus(self.weight_rho.value)
        sigma_b = _softplus(self.bias_rho.value)
        live = DensePosterior(self.weight_mu.value, sigma_w ** 2, None,
                              self.bias_mu.value, sigma_b ** 2)
        act_mean, act_var = live.moments(x)
        return act_mean, act_var, sigma_w, sigma_b

    def posterior(self) -> "DensePosterior":
        """This layer's weight posterior as a frozen table: arrays of
        its own (the means copied), so a later optimiser step, which
        updates the parameters in place, does not reach it."""
        sigma_w = _softplus(self.weight_rho.value)
        sigma_b = _softplus(self.bias_rho.value)
        weight_mu = self.weight_mu.value.copy()
        return DensePosterior(weight_mu, sigma_w ** 2, weight_mu ** 2,
                              self.bias_mu.value.copy(), sigma_b ** 2)

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        act_mean, act_var, sigma_w, sigma_b = self._moments(x)
        act_std = np.sqrt(np.maximum(act_var, 1e-16))
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
    the weight posterior against the prior.  Hidden layers are ReLU,
    the one activation :meth:`predict`'s closed form covers.
    """

    def __init__(self, in_features: int, out_features: int = 1,
                 hidden_sizes: Sequence[int] = (64, 32),
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
                self.layers.append(ReLU())
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

    def predict(self, x: np.ndarray, num_samples: Optional[int] = None,
                rng: Optional[np.random.Generator] = None
                ) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior-predictive mean and standard deviation, in closed
        form.

        The diagonal deterministic variational inference of Wu et al.
        (ICLR 2019): every unit is carried as a Gaussian ``(mean,
        variance)``, independent of its neighbours.  A variational
        layer maps an input ``(m, v)`` to the pre-activation mean ``m @
        mu_W + mu_b`` and variance ``(v + m^2) @ sigma_W^2 + v @ mu_W^2
        + sigma_b^2`` (:meth:`DensePosterior.moments`), a ReLU to the
        rectified Gaussian's moments (:func:`relu_moments`), and the
        learned observation noise (aleatoric) adds to the output
        variance (epistemic).  ``x`` is one input ``(in,)`` or inputs
        with any leading axes ``(..., in)``; a ``(G, n, in)`` stack
        runs every matrix product as one slab per group, so each
        group's moments are the floats it gets alone.  Nothing is
        drawn: ``num_samples`` and ``rng`` are accepted for callers
        written against the Monte-Carlo estimator and have no effect
        on any output.

        This is ``self.posterior().predict(x)``: a caller asking many
        times of unchanged weights keeps one :meth:`posterior` and
        asks it instead.
        """
        return self.posterior().predict(x)

    def posterior(self) -> BayesianPosterior:
        """The weight-side half of :meth:`predict`'s closed form, frozen
        at the current weights: later training steps do not reach it,
        so build a new one after the weights change."""
        return BayesianPosterior(
            tuple(vlayer.posterior() for vlayer in self._vlayers),
            float(np.exp(2.0 * self.log_noise.value[0])))

    def predict_mean(self, x: np.ndarray) -> np.ndarray:
        """Deterministic forward pass through the posterior means."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        self._set_sampling(False)
        try:
            out = self.forward(np.atleast_2d(x))
        finally:
            self._set_sampling(True)
        return out[0] if single else out
