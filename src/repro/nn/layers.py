"""Dense layers and activations with hand-written backpropagation.

Each module implements ``forward(x)`` and ``backward(grad_out)``.
``backward`` consumes the gradient of the loss with respect to the
module output and returns the gradient with respect to the module
input, accumulating parameter gradients into :class:`Parameter.grad`
along the way.  Gradients accumulate until :meth:`zero_grad` -- the same
contract as PyTorch, which keeps the training loops familiar.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.nn.initializers import he_uniform, xavier_uniform


class Parameter:
    """A trainable tensor with an accumulated gradient."""

    __slots__ = ("value", "grad", "name")

    def __init__(self, value: np.ndarray, name: str = "param") -> None:
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self.name = name

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Parameter({self.name}, shape={self.value.shape})"


class Module:
    """Base class: parameter bookkeeping shared by all layers."""

    def parameters(self) -> List[Parameter]:
        return []

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # -- weight round-trips ------------------------------------------

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Export every parameter as ``{name: value copy}``.

        Parameter names must be unique within the module (they are for
        every network built here -- layers embed their position in the
        name), otherwise a silent key collision would drop weights.
        """
        params = self.parameters()
        out = {p.name: p.value.copy() for p in params}
        if len(out) != len(params):
            names = [p.name for p in params]
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate parameter names: {dupes}")
        return out

    def load_state_dict(self, state: Mapping[str, np.ndarray]) -> None:
        """Inverse of :meth:`state_dict`: strict name/shape matching."""
        params = {p.name: p for p in self.parameters()}
        missing = sorted(set(params) - set(state))
        unexpected = sorted(set(state) - set(params))
        if missing or unexpected:
            raise ValueError(
                f"state dict mismatch: missing {missing}, "
                f"unexpected {unexpected}")
        for name, value in state.items():
            param = params[name]
            value = np.asarray(value, dtype=np.float64)
            if value.shape != param.value.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{value.shape} vs {param.value.shape}")
            param.value = value.copy()

    def drop_caches(self) -> None:
        """Forget what the last forward kept for :meth:`backward`."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


class Dense(Module):
    """Affine layer ``y = x @ W + b`` with cached-input backprop."""

    def __init__(self, in_features: int, out_features: int,
                 rng: Optional[np.random.Generator] = None,
                 init: str = "he", name: str = "dense") -> None:
        if rng is None:
            rng = np.random.default_rng(0)
        if init == "he":
            weight = he_uniform(rng, in_features, out_features)
        elif init == "xavier":
            weight = xavier_uniform(rng, in_features, out_features)
        elif init == "zeros":
            weight = np.zeros((in_features, out_features))
        else:
            raise ValueError(f"unknown init {init!r}")
        self.weight = Parameter(weight, name=f"{name}.weight")
        self.bias = Parameter(np.zeros(out_features), name=f"{name}.bias")
        self.in_features = in_features
        self.out_features = out_features
        self._input: Optional[np.ndarray] = None

    def parameters(self) -> List[Parameter]:
        return [self.weight, self.bias]

    def drop_caches(self) -> None:
        self._input = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        """``x`` is ``(n, in)``, or ``(..., n, in)`` with leading group
        axes: numpy runs each ``(n, in)`` slab as the BLAS call that
        slab alone would make, so a slab's rows are bit-identical to
        its own forward (``backward`` takes the 2-D form only)."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"expected input dim {self.in_features}, got {x.shape[-1]}")
        self._input = x
        return x @ self.weight.value + self.bias.value

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise RuntimeError("backward called before forward")
        grad_out = np.atleast_2d(grad_out)
        self.weight.grad += self._input.T @ grad_out
        self.bias.grad += grad_out.sum(axis=0)
        return grad_out @ self.weight.value.T

    def input_grad(self, grad_out: np.ndarray) -> np.ndarray:
        """:meth:`backward`'s return value alone: no weight or bias
        gradient is accumulated."""
        return np.atleast_2d(grad_out) @ self.weight.value.T


class _Activation(Module):
    """Base for parameter-free elementwise activations."""

    def __init__(self) -> None:
        self._cache: Optional[np.ndarray] = None

    def drop_caches(self) -> None:
        self._cache = None

    def input_grad(self, grad_out: np.ndarray) -> np.ndarray:
        """:meth:`backward`: there is no parameter to accumulate into."""
        return self.backward(grad_out)


class ReLU(_Activation):
    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        # np.where(x > 0, x, 0.0) bit for bit at a fraction of its cost:
        # fmax drops NaN, and adding +0.0 turns fmax's -0.0 into +0.0
        out = np.fmax(x, 0.0)
        out += 0.0
        self._cache = out
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        # out > 0 exactly where x > 0: out is x there and +0.0 elsewhere
        return grad_out * (self._cache > 0)


class Sigmoid(_Activation):
    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        # 1 / (1 + e^-x) for x >= 0, e^x / (1 + e^x) below, per element;
        # min(x, -x) is -|x|, but passes a NaN through sign and all
        exp_neg = np.exp(np.minimum(x, -x))
        denom = 1.0 + exp_neg
        out = np.where(x >= 0, 1.0 / denom, exp_neg / denom)
        self._cache = out
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        sig = self._cache
        return grad_out * sig * (1.0 - sig)


class Tanh(_Activation):
    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.tanh(np.asarray(x, dtype=np.float64))
        self._cache = out
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        return grad_out * (1.0 - self._cache ** 2)


class Softplus(_Activation):
    """Numerically stable ``log(1 + exp(x))``."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        self._cache = x
        return np.logaddexp(0.0, x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        sig = 1.0 / (1.0 + np.exp(-np.clip(self._cache, -500, 500)))
        return grad_out * sig


class Identity(_Activation):
    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out


_ACTIVATIONS = {
    "relu": ReLU,
    "sigmoid": Sigmoid,
    "tanh": Tanh,
    "softplus": Softplus,
    "identity": Identity,
    "linear": Identity,
    "none": Identity,
}


def make_activation(name: str) -> Module:
    """Instantiate an activation module by name."""
    try:
        return _ACTIVATIONS[name.lower()]()
    except KeyError as exc:
        raise ValueError(f"unknown activation {name!r}") from exc
