"""pi_phi's closed form, computed into temporaries of its own, against
the plain numpy expressions it replaced, byte for byte.

``tests/slab_oracle.py`` keeps the parent ``relu_moments``,
``DensePosterior.moments`` and ``BayesianPosterior.predict``, each
computing with numpy's own temporaries.  The module's versions write
into buffers of their own and must leave the very same bytes, sign
bits and NaNs included, on 0-d, ``(n, w)`` and ``(P, G, n, w)``
inputs, at zero variance, past the ``|z|`` clip and on NaN.  The
stacked pi_theta forward (:func:`~repro.nn.slabs.mlp_forward`), whose
bias is now added into the product in place, is held to the
expression it had.

The products run as BLAS calls, so CI runs this suite under
``OPENBLAS_NUM_THREADS=1`` and ``=2``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import slab_oracle
from repro.nn.bayesian import (
    _Z_CLIP,
    BayesianPosterior,
    DensePosterior,
    relu_moments,
)
from repro.nn.layers import ReLU, Tanh
from repro.nn.slabs import mlp_forward, posterior_span, stack_posteriors

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

#: 0-d, ``(n, w)`` and ``(P, G, n, w)``: a scalar unit, one layer's
#: rows, the serving slabs.
SHAPES = st.one_of(
    st.just(()),
    hnp.array_shapes(min_dims=2, max_dims=2, max_side=9),
    hnp.array_shapes(min_dims=4, max_dims=4, max_side=5))

MEANS = st.one_of(
    st.floats(-1e3, 1e3),
    st.floats(-1e300, 1e300),
    st.sampled_from([0.0, -0.0, np.nan, 2.0 * _Z_CLIP,
                     -2.0 * _Z_CLIP]))

VARIANCES = st.one_of(
    st.floats(0.0, 1e3),
    st.floats(0.0, 1e-12),              # |z| far past the clip
    st.sampled_from([0.0, np.nan, 1e-300, 5e-324]))


def assert_same_bytes(got, want, label=None) -> None:
    """Same type, dtype, shape and bytes (sign bits and NaN payloads
    included)."""
    assert type(got) is type(want), (label, type(got), type(want))
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape), label
    assert got.tobytes() == want.tobytes(), label


@given(st.data(), SHAPES)
@settings(max_examples=200, deadline=None)
def test_relu_moments_equal_the_plain_expression(data, shape):
    mean = data.draw(hnp.arrays(np.float64, shape, elements=MEANS),
                     label="mean")
    var = data.draw(hnp.arrays(np.float64, shape, elements=VARIANCES),
                    label="var")
    before = mean.tobytes(), var.tobytes()
    got = relu_moments(mean, var)
    want = slab_oracle.parent_relu_moments(mean, var)
    for index in range(2):
        assert_same_bytes(got[index], want[index], index)
    assert (mean.tobytes(), var.tobytes()) == before   # inputs unwritten


@pytest.mark.parametrize("mean, var", [
    (0.3, 0.0), (-0.0, 0.0), (1.0, 1e-300), (-50.0, 1e-4),
    (np.nan, 1.0), (1.0, np.nan)])
def test_relu_moments_of_python_floats(mean, var):
    """Scalars that are not arrays at all take the same path."""
    got = relu_moments(mean, var)
    want = slab_oracle.parent_relu_moments(mean, var)
    for index in range(2):
        assert_same_bytes(got[index], want[index], index)


def _layer(rng, fan_in, fan_out, lead=()):
    """Posterior tables with leading slab axes ``lead`` (``(P, 1)``
    for a stack), variances drawn down to zero."""
    mu = rng.normal(0.0, 1.0, lead + (fan_in, fan_out))
    var = rng.uniform(0.0, 0.1, mu.shape) * (rng.random(mu.shape) > 0.2)
    bias_shape = lead + (1,) * bool(lead) + (fan_out,)
    return DensePosterior(mu, var, mu ** 2,
                          rng.normal(0.0, 1.0, bias_shape),
                          rng.uniform(0.0, 0.1, bias_shape))


@given(st.integers(0, 2 ** 16), st.sampled_from([(), (3, 1)]),
       st.booleans())
@settings(max_examples=60, deadline=None)
def test_dense_moments_equal_the_plain_expression(seed, lead, fixed):
    """A fixed input (``var`` ``None``) and a Gaussian one, on one
    layer's ``(n, in)`` rows or stacked ``(P, G, n, in)`` slabs."""
    rng = np.random.default_rng(seed)
    layer = _layer(rng, int(rng.integers(1, 8)), int(rng.integers(1, 8)),
                   lead)
    rows = lead[:1] + (int(rng.integers(1, 4)),) * bool(lead) + (
        int(rng.integers(1, 9)), layer.weight_mu.shape[-2])
    x = rng.normal(0.0, 3.0, rows)
    var = None if fixed else rng.uniform(0.0, 2.0, rows) * (
        rng.random(rows) > 0.3)
    got = layer.moments(x, var)
    want = slab_oracle.parent_moments(layer, x, var)
    for index in range(2):
        assert_same_bytes(got[index], want[index], index)


def _posterior(rng, sizes, count):
    """``count`` frozen posteriors of one architecture, stacked as
    slabs when ``count > 1``."""
    tables = [BayesianPosterior(
        tuple(_layer(rng, fan_in, fan_out)
              for fan_in, fan_out in zip(sizes, sizes[1:])),
        float(rng.uniform(0.0, 0.5))) for _ in range(count)]
    return tables[0] if count == 1 else stack_posteriors(tables)


@given(st.integers(0, 2 ** 16),
       st.sampled_from([(12,), (7, 12), (3, 5, 12), (3, 2, 21, 12)]))
@settings(max_examples=60, deadline=None)
def test_predict_equals_the_plain_expression(seed, shape):
    """One input, rows, ``(G, n, in)`` groups against one posterior,
    and ``(P, G, n, in)`` slabs against a stack of three, read through
    a span as serving reads them."""
    rng = np.random.default_rng(seed)
    stacked = len(shape) == 4
    table = _posterior(rng, (12, 16, 8, 1), 3 if stacked else 1)
    if stacked:
        table = posterior_span(table, slice(0, 3))
    x = rng.normal(0.0, 2.0, shape)
    x[rng.random(shape) < 0.05] = 0.0
    got = table.predict(x)
    want = slab_oracle.parent_predict(table, x)
    for index in range(2):
        assert_same_bytes(got[index], want[index], index)


@given(st.integers(0, 2 ** 16), st.sampled_from([ReLU, Tanh]))
@settings(max_examples=40, deadline=None)
def test_mlp_forward_equals_the_plain_expression(seed, activation):
    """The slab forward adds each bias into its product in place: the
    floats of ``activation(out @ W + b)`` on every ``[k, g]`` slab."""
    rng = np.random.default_rng(seed)
    sizes = (9, 16, 8, 4)
    tables = [(rng.normal(0.0, 1.0, (3, 1, fan_in, fan_out)),
               rng.normal(0.0, 1.0, (3, 1, 1, fan_out)), activation())
              for fan_in, fan_out in zip(sizes, sizes[1:])]
    states = rng.normal(0.0, 2.0, (2, int(rng.integers(1, 4)),
                                   int(rng.integers(1, 30)), 9))
    span = slice(1, 3)
    want = states
    for weight, bias, layer in tables:
        want = type(layer)().forward(want @ weight[span] + bias[span])
    assert_same_bytes(mlp_forward(tables, states, span), want)
