"""Unit tests: MLP container, optimisers, losses."""

import numpy as np
import pytest

from repro.nn.losses import mse_loss
from repro.nn.network import MLP
from repro.nn.optim import Adam, clip_grad_norm


class TestMLP:
    def test_architecture_parameter_count(self, rng):
        net = MLP(9, 10, hidden_sizes=(128, 64, 32), rng=rng)
        expected = (9 * 128 + 128) + (128 * 64 + 64) \
            + (64 * 32 + 32) + (32 * 10 + 10)
        assert net.num_parameters() == expected

    def test_sigmoid_output_in_unit_box(self, rng):
        net = MLP(5, 3, hidden_sizes=(16,), output_activation="sigmoid",
                  rng=rng)
        out = net.forward(rng.standard_normal((20, 5)) * 10)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_predict_preserves_1d(self, rng):
        net = MLP(5, 3, hidden_sizes=(8,), rng=rng)
        out = net.predict(np.zeros(5))
        assert out.shape == (3,)

    def test_full_gradient_check(self, rng):
        net = MLP(4, 2, hidden_sizes=(6, 5), rng=rng,
                  output_activation="sigmoid")
        x = rng.standard_normal((7, 4))
        y = rng.uniform(size=(7, 2))
        pred = net.forward(x)
        _loss, grad = mse_loss(pred, y)
        net.zero_grad()
        net.backward(grad)
        eps = 1e-6
        params = net.parameters()
        for param in params[:2]:  # first layer weight + bias
            flat = param.value.ravel()
            gflat = param.grad.ravel()
            for i in range(0, flat.size, max(flat.size // 5, 1)):
                orig = flat[i]
                flat[i] = orig + eps
                lp, _ = mse_loss(net.forward(x), y)
                flat[i] = orig - eps
                lm, _ = mse_loss(net.forward(x), y)
                flat[i] = orig
                assert abs((lp - lm) / (2 * eps) - gflat[i]) < 1e-6

    def test_set_weights_roundtrip(self, rng):
        a = MLP(3, 2, hidden_sizes=(4,), rng=rng)
        b = MLP(3, 2, hidden_sizes=(4,),
                rng=np.random.default_rng(99))
        b.copy_from(a)
        x = rng.standard_normal((5, 3))
        np.testing.assert_allclose(a.forward(x), b.forward(x))

    def test_set_weights_shape_mismatch(self, rng):
        a = MLP(3, 2, hidden_sizes=(4,), rng=rng)
        weights = a.get_weights()
        weights[0] = np.zeros((7, 7))
        with pytest.raises(ValueError):
            a.set_weights(weights)

    def test_set_weights_count_mismatch(self, rng):
        a = MLP(3, 2, hidden_sizes=(4,), rng=rng)
        with pytest.raises(ValueError):
            a.set_weights(a.get_weights()[:-1])

    def test_training_reduces_loss(self, rng):
        net = MLP(2, 1, hidden_sizes=(32, 16), rng=rng)
        optim = Adam(net.parameters(), lr=1e-2)
        x = rng.uniform(-1, 1, size=(256, 2))
        y = (x[:, :1] * x[:, 1:]) + 0.5
        first = None
        for _ in range(200):
            pred = net.forward(x)
            loss, grad = mse_loss(pred, y)
            if first is None:
                first = loss
            optim.zero_grad()
            net.backward(grad)
            optim.step()
        assert loss < first * 0.1


class TestOptim:
    def test_adam_bias_correction_first_step(self, rng):
        net = MLP(2, 1, hidden_sizes=(4,), rng=rng)
        params = net.parameters()
        opt = Adam(params, lr=0.1)
        before = params[0].value.copy()
        for p in params:
            p.grad[...] = 0.5
        opt.step()
        # first Adam step magnitude ~= lr regardless of gradient scale
        np.testing.assert_allclose(np.abs(before - params[0].value),
                                   0.1, rtol=1e-5)

    def test_invalid_lr_rejected(self, rng):
        net = MLP(2, 1, rng=rng)
        with pytest.raises(ValueError):
            Adam(net.parameters(), lr=0.0)
        with pytest.raises(ValueError):
            Adam(net.parameters(), lr=-1.0)

    def test_clip_grad_norm(self, rng):
        net = MLP(2, 2, hidden_sizes=(4,), rng=rng)
        params = net.parameters()
        for p in params:
            p.grad[...] = 10.0
        norm = clip_grad_norm(params, 1.0)
        assert norm > 1.0
        total = np.sqrt(sum(np.sum(p.grad ** 2) for p in params))
        assert total == pytest.approx(1.0, rel=1e-6)

    def test_clip_grad_norm_noop_when_small(self, rng):
        net = MLP(2, 2, hidden_sizes=(4,), rng=rng)
        params = net.parameters()
        for p in params:
            p.grad[...] = 1e-4
        before = [p.grad.copy() for p in params]
        clip_grad_norm(params, 1.0)
        for b, p in zip(before, params):
            np.testing.assert_array_equal(b, p.grad)


class TestLosses:
    def test_mse_value_and_grad(self):
        pred = np.array([1.0, 2.0])
        target = np.array([0.0, 0.0])
        value, grad = mse_loss(pred, target)
        assert value == pytest.approx(2.5)
        np.testing.assert_allclose(grad, [1.0, 2.0])
