"""Unit tests: dense layers, activations, and their exact gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def numerical_grad(fn, param, eps=1e-6):
    """Central-difference gradient of a scalar function wrt a Parameter."""
    grad = np.zeros_like(param.value)
    flat = param.value.ravel()
    grad_flat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        plus = fn()
        flat[i] = orig - eps
        minus = fn()
        flat[i] = orig
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


class TestParameter:
    def test_zero_grad(self):
        p = Parameter(np.ones((2, 2)))
        p.grad += 3.0
        p.zero_grad()
        assert np.all(p.grad == 0.0)

    def test_shape(self):
        p = Parameter(np.zeros((3, 4)))
        assert p.shape == (3, 4)


class TestDense:
    def test_forward_shape(self, rng):
        layer = Dense(4, 7, rng=rng)
        out = layer.forward(rng.standard_normal((5, 4)))
        assert out.shape == (5, 7)

    def test_forward_rejects_wrong_dim(self, rng):
        layer = Dense(4, 7, rng=rng)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((5, 3)))

    def test_backward_before_forward_raises(self, rng):
        layer = Dense(4, 7, rng=rng)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((5, 7)))

    def test_weight_gradient_matches_numerical(self, rng):
        layer = Dense(3, 2, rng=rng)
        x = rng.standard_normal((6, 3))

        def loss():
            return float(np.sum(layer.forward(x) ** 2))

        out = layer.forward(x)
        layer.zero_grad()
        layer.backward(2.0 * out)
        for param in layer.parameters():
            numeric = numerical_grad(loss, param)
            np.testing.assert_allclose(param.grad, numeric, atol=1e-5)

    def test_input_gradient_matches_numerical(self, rng):
        layer = Dense(3, 2, rng=rng)
        x = rng.standard_normal((4, 3))
        out = layer.forward(x)
        grad_in = layer.backward(2.0 * out)
        eps = 1e-6
        for i in range(x.shape[0]):
            for j in range(x.shape[1]):
                xp = x.copy()
                xp[i, j] += eps
                xm = x.copy()
                xm[i, j] -= eps
                num = (np.sum(layer.forward(xp) ** 2)
                       - np.sum(layer.forward(xm) ** 2)) / (2 * eps)
                assert abs(grad_in[i, j] - num) < 1e-5

    def test_gradients_accumulate(self, rng):
        layer = Dense(3, 2, rng=rng)
        x = rng.standard_normal((4, 3))
        layer.forward(x)
        layer.backward(np.ones((4, 2)))
        first = layer.weight.grad.copy()
        layer.forward(x)
        layer.backward(np.ones((4, 2)))
        np.testing.assert_allclose(layer.weight.grad, 2.0 * first)

    def test_unknown_init_rejected(self, rng):
        with pytest.raises(ValueError):
            Dense(3, 2, rng=rng, init="nonsense")


@pytest.mark.parametrize("name,cls", [
    ("relu", ReLU), ("sigmoid", Sigmoid), ("tanh", Tanh),
    ("softplus", Softplus), ("identity", Identity),
])
def test_make_activation(name, cls):
    assert isinstance(make_activation(name), cls)


def test_make_activation_unknown():
    with pytest.raises(ValueError):
        make_activation("swishish")


@pytest.mark.parametrize("act_name", ["relu", "sigmoid", "tanh",
                                      "softplus", "identity"])
def test_activation_gradient_numerical(act_name, rng):
    act = make_activation(act_name)
    x = rng.standard_normal((5, 3)) * 2.0

    out = act.forward(x)
    grad_in = act.backward(np.ones_like(out))
    eps = 1e-6
    act2 = make_activation(act_name)
    for i in (0, 2, 4):
        for j in range(3):
            xp = x.copy()
            xp[i, j] += eps
            xm = x.copy()
            xm[i, j] -= eps
            num = (np.sum(act2.forward(xp))
                   - np.sum(act2.forward(xm))) / (2 * eps)
            assert abs(grad_in[i, j] - num) < 1e-4


def test_sigmoid_extreme_values_stable():
    sig = Sigmoid()
    out = sig.forward(np.array([-800.0, 0.0, 800.0]))
    assert np.all(np.isfinite(out))
    assert out[0] == pytest.approx(0.0, abs=1e-12)
    assert out[2] == pytest.approx(1.0, abs=1e-12)


def test_softplus_extreme_values_stable():
    sp = Softplus()
    out = sp.forward(np.array([-800.0, 800.0]))
    assert np.all(np.isfinite(out))
    assert out[1] == pytest.approx(800.0, rel=1e-6)


@given(st.integers(min_value=1, max_value=8),
       st.integers(min_value=1, max_value=8))
@settings(max_examples=20, deadline=None)
def test_dense_shapes_property(n_in, n_out):
    layer = Dense(n_in, n_out, rng=np.random.default_rng(0))
    x = np.random.default_rng(1).standard_normal((3, n_in))
    out = layer.forward(x)
    assert out.shape == (3, n_out)
    grad_in = layer.backward(np.ones_like(out))
    assert grad_in.shape == x.shape


def test_relu_masks_negatives():
    relu = ReLU()
    out = relu.forward(np.array([-1.0, 0.0, 2.0]))
    np.testing.assert_array_equal(out, [0.0, 0.0, 2.0])
    grad = relu.backward(np.ones(3))
    np.testing.assert_array_equal(grad, [0.0, 0.0, 1.0])


#: Values where a max-based ReLU could part from ``np.where(x > 0, x,
#: 0.0)``: signed zeros, NaN, infinities and subnormals.
_RELU_SPECIAL = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                 2.2e-308, -2.2e-308, 1.0, -1.0]


@given(st.lists(st.integers(min_value=1, max_value=5), min_size=1,
                max_size=3),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_relu_is_where_bit_for_bit(shape, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    special = rng.random(shape) < 0.5
    x[special] = rng.choice(_RELU_SPECIAL, size=int(special.sum()))
    relu = ReLU()
    out = relu.forward(x)
    want = np.where(x > 0, x, 0.0)
    assert out.shape == want.shape
    assert np.array_equal(out.view(np.int64), want.view(np.int64))
    grad = relu.backward(np.ones(shape))
    assert np.array_equal(grad, (x > 0).astype(float))


def _sigmoid_two_branch(x):
    """The two-branch logistic, one boolean gather and scatter per
    branch: ``1 / (1 + e^-x)`` where ``x >= 0``, ``e^x / (1 + e^x)``
    elsewhere (NaN included)."""
    out = np.empty_like(x)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


#: Signed zeros, exp's overflow edge, the largest finites, infinities
#: and NaN of either sign.
_SIGMOID_SPECIAL = [0.0, -0.0, 745.0, -745.0, 1e308, -1e308, np.inf,
                    -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 36.0,
                    -36.0]


@given(st.lists(st.integers(min_value=1, max_value=5), min_size=1,
                max_size=3),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_sigmoid_is_two_branch_bit_for_bit(shape, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape) * rng.choice([1.0, 10.0, 800.0],
                                                size=shape)
    special = rng.random(shape) < 0.5
    x[special] = rng.choice(_SIGMOID_SPECIAL, size=int(special.sum()))
    sigmoid = Sigmoid()
    with np.errstate(over="ignore", invalid="ignore"):
        out = sigmoid.forward(x)
        want = _sigmoid_two_branch(x)
    assert out.shape == want.shape
    assert np.array_equal(out.view(np.int64), want.view(np.int64))


def test_sigmoid_special_values_bit_for_bit():
    x = np.array(_SIGMOID_SPECIAL)
    with np.errstate(over="ignore", invalid="ignore"):
        out = Sigmoid().forward(x)
        want = _sigmoid_two_branch(x)
    assert np.array_equal(out.view(np.int64), want.view(np.int64))
