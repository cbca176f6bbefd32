"""Same-shaped networks stacked as slabs: one matmul chain for many.

``P`` networks of one architecture stack their tables along a leading
axis: weights as ``(P, 1, in, out)``, biases as ``(P, 1, 1, out)``,
scalars as ``(P, 1, 1, 1)``, so a ``(P, G, n, in)`` batch runs every
network's groups through one chain of products.  numpy runs each
``[p, g]`` slab as the very BLAS call that group alone makes against
network ``p``'s tables, so every group gets the floats of its own
forward (:meth:`~repro.nn.layers.Dense.forward`); rows of different
groups are never merged into one matrix, since a product's rows are
not bit-stable across row counts (gemv against gemm kernels), its
slabs are.  A pass may read a ``span`` of slab positions (a view).

Serving stacks a snapshot's policies this way
(:class:`repro.serve.service._Slabs`), the orchestrator its agents
(:class:`repro.core.agent.AgentStack`).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.nn.bayesian import BayesianPosterior, DensePosterior
from repro.nn.layers import Dense, Module, Parameter
from repro.nn.network import MLP

#: One layer of a stacked MLP: weight slab, bias slab, activation.
Table = Tuple[np.ndarray, np.ndarray, Module]


def slab(arrays: Sequence) -> np.ndarray:
    """Per-network scalars, ``(out,)`` or ``(in, out)`` arrays, copied
    into one ``(P, 1, ..., out)`` table broadcasting over ``(P, G, n,
    in)``."""
    stacked = np.stack([np.asarray(a, dtype=np.float64) for a in arrays])
    return stacked.reshape((len(stacked),) + (1,) * (4 - stacked.ndim)
                           + stacked.shape[1:])


def _one(array) -> np.ndarray:
    """One network's array as its ``(1, 1, ..., out)`` slab: a view."""
    array = np.asarray(array, dtype=np.float64)
    return array[(None,) * (4 - array.ndim)]


def mlp_layers(mlps: Sequence[MLP]) -> List[Tuple[list, Module]]:
    """Per layer of ``mlps`` (one architecture), the networks' :class:`
    Dense` layers and a fresh instance of the activation that follows
    them (a pass must not overwrite a network's backward caches)."""
    layers = [mlp.layers for mlp in mlps]
    first = layers[0]
    # every MLP is (Dense, weightless activation) pairs
    assert all(isinstance(first[at], Dense)
               and not first[at + 1].parameters()
               for at in range(0, len(first), 2))
    return [([own[at] for own in layers], type(first[at + 1])())
            for at in range(0, len(first), 2)]


def stack_mlps(mlps: Sequence[MLP]) -> List[Table]:
    """``mlps``' weights copied into slabs, one :data:`Table` per
    layer."""
    return [(slab([dense.weight.value for dense in denses]),
             slab([dense.bias.value for dense in denses]), activation)
            for denses, activation in mlp_layers(mlps)]


def adopt_mlps(mlps: Sequence[MLP]
               ) -> Tuple[List[Table], List[Tuple[Parameter, np.ndarray]]]:
    """``mlps``' weights as slabs that their parameters *share*, with
    each parameter's binding ``(parameter, value)``.

    From several networks the weights are copied into slabs and every
    :attr:`Parameter.value` is rebound to its row of one (a view), so
    an in-place write -- an optimiser step -- lands in the slab.  One
    network's slabs are views of its own values; nothing is copied or
    rebound.  Either way the slabs are current exactly while every
    parameter still holds the value of its binding (``is``): whatever
    rebinds one (``load_state_dict``, ``set_weights``) leaves them
    stale, and the holder adopts anew.
    """
    tables: List[Table] = []
    bindings: List[Tuple[Parameter, np.ndarray]] = []
    for denses, activation in mlp_layers(mlps):
        shared = []
        for params in ([d.weight for d in denses],
                       [d.bias for d in denses]):
            if len(params) == 1:
                table = _one(params[0].value)
            else:
                table = slab([param.value for param in params])
                for at, param in enumerate(params):
                    param.value = table[(at,) + (0,) *
                                        (3 - param.value.ndim)]
            bindings.extend((param, param.value) for param in params)
            shared.append(table)
        tables.append((shared[0], shared[1], activation))
    return tables, bindings


def mlp_forward(tables: Sequence[Table], states: np.ndarray,
                span: slice = slice(None)) -> np.ndarray:
    """The stacked networks' outputs on ``(K, G, n, in)`` states, one
    ``[k, g]`` slab per network of positions ``span``; each layer's
    bias is added into its product in place."""
    out = states
    for weight, bias, activation in tables:
        out = out @ weight[span]
        out += bias[span]
        out = activation.forward(out)
    return out


def stack_posteriors(tables: Sequence[BayesianPosterior]
                     ) -> BayesianPosterior:
    """Frozen pi_phi posteriors (one architecture) as one
    :class:`BayesianPosterior` of slabs: copies of several, views of
    one (a frozen table is never written)."""
    stack = slab if len(tables) > 1 else (lambda fields: _one(fields[0]))
    layers = tuple(DensePosterior(*map(stack, zip(*parts)))
                   for parts in zip(*(table.layers for table in tables)))
    return BayesianPosterior(layers, stack([t.noise_var for t in tables]))


def posterior_span(table: BayesianPosterior,
                   span: slice) -> BayesianPosterior:
    """The slabs of positions ``span`` of a stacked posterior (views);
    its ``predict`` on ``(K, G, n, in)`` states gives each ``[k, g]``
    slab the moments it gets alone."""
    return BayesianPosterior(
        tuple(DensePosterior(*(field[span] for field in layer))
              for layer in table.layers), table.noise_var[span])
