"""Multi-layer perceptron container.

The paper (Sec. 6) uses 3-layer fully-connected 128x64x32 networks with
ReLU hidden activations; actor heads finish with Sigmoid so actions fall
in [0, 1].  :class:`MLP` chains :class:`~repro.nn.layers.Dense` layers
with activations and exposes forward/backward plus (de)serialisation.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.nn.layers import Dense, Module, Parameter, make_activation


class MLP(Module):
    """Fully-connected network with manual backprop.

    Parameters
    ----------
    in_features / out_features:
        Input and output dimensionality.
    hidden_sizes:
        Width of each hidden layer, e.g. ``(128, 64, 32)``.
    activation:
        Hidden activation name (default ReLU per the paper).
    output_activation:
        Final activation (``sigmoid`` for actors, ``identity`` for
        critics).
    """

    def __init__(self, in_features: int, out_features: int,
                 hidden_sizes: Sequence[int] = (128, 64, 32),
                 activation: str = "relu",
                 output_activation: str = "identity",
                 rng: Optional[np.random.Generator] = None,
                 name: str = "mlp") -> None:
        if rng is None:
            rng = np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.layers: List[Module] = []
        sizes = [in_features, *hidden_sizes, out_features]
        hidden_init = "he" if activation == "relu" else "xavier"
        for i in range(len(sizes) - 1):
            is_last = i == len(sizes) - 2
            init = "xavier" if is_last else hidden_init
            self.layers.append(Dense(sizes[i], sizes[i + 1], rng=rng,
                                     init=init, name=f"{name}.dense{i}"))
            act_name = output_activation if is_last else activation
            self.layers.append(make_activation(act_name))

    def parameters(self) -> List[Parameter]:
        params: List[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

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

    def input_grad(self, grad_out: np.ndarray) -> np.ndarray:
        """The gradient w.r.t. the last forward's input alone: what
        :meth:`backward` returns, by the same operations in the same
        order, without accumulating any weight or bias gradient (for a
        frozen network differentiated through, such as pi_a's cost
        surrogate)."""
        grad = np.atleast_2d(grad_out)
        for layer in reversed(self.layers):
            grad = layer.input_grad(grad)
        return grad

    def drop_caches(self) -> None:
        """Forget every layer's backward cache: a trainer done with its
        batches calls this, so a trained network does not keep its last
        minibatch's activations alive."""
        for layer in self.layers:
            layer.drop_caches()

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Forward pass that preserves 1-D inputs as 1-D outputs."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        out = self.forward(x)
        return out[0] if single else out

    def predict_batch(self, states: Sequence[np.ndarray]) -> np.ndarray:
        """One vectorised forward pass over a batch of state vectors.

        ``states`` is a sequence of 1-D vectors (or an ``(n, in)``
        array); the result is always ``(n, out)``.  This is the serving
        fast path: N decisions cost one stacked matmul chain instead of
        N python-level forward passes.  A ``(G, n, in)`` array runs G
        groups in one chain, each slab bit-identical to its own
        ``(n, in)`` forward (:meth:`Dense.forward`).
        """
        batch = np.asarray(states, dtype=np.float64)
        if batch.ndim == 1:
            batch = batch[None, :]
        if batch.shape[-1] != self.in_features:
            raise ValueError(
                f"expected (..., n, {self.in_features}) states, "
                f"got {batch.shape}")
        return self.forward(batch)

    # -- persistence ------------------------------------------------

    def get_weights(self) -> List[np.ndarray]:
        return [p.value.copy() for p in self.parameters()]

    def set_weights(self, weights: Iterable[np.ndarray]) -> None:
        params = self.parameters()
        weights = list(weights)
        if len(weights) != len(params):
            raise ValueError(
                f"expected {len(params)} arrays, got {len(weights)}")
        for param, value in zip(params, weights):
            value = np.asarray(value, dtype=np.float64)
            if value.shape != param.value.shape:
                raise ValueError(
                    f"shape mismatch for {param.name}: "
                    f"{value.shape} vs {param.value.shape}")
            param.value = value.copy()

    def num_parameters(self) -> int:
        return int(sum(p.value.size for p in self.parameters()))
