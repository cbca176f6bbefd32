"""Minimal-but-complete numpy deep-learning substrate.

The paper implements its agents with PyTorch 1.5; PyTorch is not
available offline, so this subpackage provides the pieces the paper's
agents need -- dense layers with manual backpropagation, Adam, Gaussian
policy heads, and mean-field variational (Bayes-by-backprop) layers for
the cost-value estimator pi_phi -- with exact, unit-tested gradients.
"""

from repro.nn.initializers import he_uniform, xavier_uniform
from repro.nn.layers import (
    Dense,
    Identity,
    Parameter,
    ReLU,
    Sigmoid,
    Softplus,
    Tanh,
    make_activation,
)
from repro.nn.network import MLP
from repro.nn.optim import Adam, clip_grad_norm
from repro.nn.losses import mse_loss
from repro.nn.distributions import DiagGaussian
from repro.nn.bayesian import BayesianMLP, VariationalDense

__all__ = [
    "Adam",
    "BayesianMLP",
    "Dense",
    "DiagGaussian",
    "Identity",
    "MLP",
    "Parameter",
    "ReLU",
    "Sigmoid",
    "Softplus",
    "Tanh",
    "VariationalDense",
    "clip_grad_norm",
    "he_uniform",
    "make_activation",
    "mse_loss",
    "xavier_uniform",
]
