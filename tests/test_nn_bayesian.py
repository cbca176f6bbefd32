"""Unit tests: variational layers and the Bayesian MLP (pi_phi core)."""

import numpy as np
import pytest

from repro.nn.bayesian import BayesianMLP, VariationalDense
from repro.nn.optim import Adam


class TestVariationalDense:
    def test_forward_shape(self, rng):
        layer = VariationalDense(4, 3, rng=rng)
        out = layer.forward(rng.standard_normal((6, 4)))
        assert out.shape == (6, 3)

    def test_deterministic_when_sampling_off(self, rng):
        layer = VariationalDense(4, 3, rng=rng)
        layer.sample_noise = False
        x = rng.standard_normal((2, 4))
        np.testing.assert_array_equal(layer.forward(x),
                                      layer.forward(x))

    def test_stochastic_when_sampling_on(self, rng):
        layer = VariationalDense(4, 3, rng=rng, initial_rho=0.0)
        x = rng.standard_normal((2, 4))
        assert not np.allclose(layer.forward(x), layer.forward(x))

    def test_kl_nonnegative(self, rng):
        layer = VariationalDense(4, 3, rng=rng)
        assert layer.kl_divergence() >= 0.0

    def test_kl_zero_at_prior(self, rng):
        layer = VariationalDense(4, 3, rng=rng)
        layer.weight_mu.value[...] = 0.0
        layer.bias_mu.value[...] = 0.0
        # sigma = softplus(rho) = 1 -> matches the unit prior
        rho_one = float(np.log(np.expm1(1.0)))
        layer.weight_rho.value[...] = rho_one
        layer.bias_rho.value[...] = rho_one
        assert layer.kl_divergence(prior_std=1.0) == pytest.approx(
            0.0, abs=1e-9)

    def test_mu_gradient_matches_numerical(self, rng):
        layer = VariationalDense(3, 2, rng=rng)
        layer.sample_noise = False  # freeze the mean path
        x = rng.standard_normal((4, 3))

        def loss():
            return float(np.sum(layer.forward(x) ** 2))

        out = layer.forward(x)
        layer.zero_grad()
        layer.backward(2.0 * out)
        eps = 1e-6
        flat = layer.weight_mu.value.ravel()
        gflat = layer.weight_mu.grad.ravel()
        for i in range(0, flat.size, 2):
            orig = flat[i]
            flat[i] = orig + eps
            lp = loss()
            flat[i] = orig - eps
            lm = loss()
            flat[i] = orig
            assert abs((lp - lm) / (2 * eps) - gflat[i]) < 1e-5

    def test_kl_grad_direction(self, rng):
        """KL gradient pushes mu toward 0 (the prior mean)."""
        layer = VariationalDense(3, 2, rng=rng)
        layer.weight_mu.value[...] = 2.0
        layer.zero_grad()
        layer.accumulate_kl_grad(1.0)
        assert np.all(layer.weight_mu.grad > 0)  # descent moves mu down


class TestBayesianMLP:
    def test_learns_function_and_uncertainty(self, rng):
        net = BayesianMLP(1, 1, hidden_sizes=(32, 16), rng=rng)
        optim = Adam(net.parameters(), lr=1e-2)
        x = rng.uniform(-2, 2, size=(256, 1))
        y = 0.5 * x
        for _ in range(150):
            optim.zero_grad()
            net.elbo_step(x, y, kl_weight=1e-5)
            optim.step()
        mean, std = net.predict(np.array([[1.0], [15.0]]),
                                num_samples=32, rng=rng)
        assert mean[0, 0] == pytest.approx(0.5, abs=0.15)
        # epistemic uncertainty larger far from the data
        assert std[1, 0] > std[0, 0]

    def test_elbo_step_returns_both_terms(self, rng):
        net = BayesianMLP(2, 1, hidden_sizes=(8,), rng=rng)
        nll, kl = net.elbo_step(rng.standard_normal((16, 2)),
                                rng.standard_normal((16, 1)))
        assert np.isfinite(nll) and kl >= 0.0

    def test_predict_mean_deterministic(self, rng):
        net = BayesianMLP(2, 1, hidden_sizes=(8,), rng=rng)
        x = rng.standard_normal(2)
        np.testing.assert_array_equal(net.predict_mean(x),
                                      net.predict_mean(x))

    def test_predict_single_input_shape(self, rng):
        net = BayesianMLP(3, 1, hidden_sizes=(8,), rng=rng)
        mean, std = net.predict(np.zeros(3), num_samples=4, rng=rng)
        assert mean.shape == (1,) and std.shape == (1,)
        assert np.all(std > 0)

    def test_kl_decomposes_over_layers(self, rng):
        net = BayesianMLP(2, 1, hidden_sizes=(4, 3), rng=rng)
        total = net.kl_divergence()
        parts = sum(v.kl_divergence(net.prior_std)
                    for v in net._vlayers)
        assert total == pytest.approx(parts)


def _loop_predict(net, x, num_samples, rng):
    """The oracle: ``predict`` as it was before the one-pass rewrite --
    ``num_samples`` full stochastic ``forward`` calls, stacked."""
    x = np.asarray(x, dtype=np.float64)
    for vlayer in net._vlayers:
        vlayer._rng = rng
    net._set_sampling(True)
    draws = np.stack([net.forward(np.atleast_2d(x))
                      for _ in range(num_samples)])
    mean = draws.mean(axis=0)
    noise_var = float(np.exp(2.0 * net.log_noise.value[0]))
    std = np.sqrt(draws.var(axis=0) + noise_var)
    return (mean[0], std[0]) if x.ndim == 1 else (mean, std)


def _twin_nets(activation="relu", perturb_rho=False):
    nets = [BayesianMLP(9, 1, hidden_sizes=(64, 32),
                        activation=activation,
                        rng=np.random.default_rng(5))
            for _ in range(2)]
    if perturb_rho:
        shift = np.random.default_rng(9)
        for p_one, p_two in zip(*(net.parameters() for net in nets)):
            if "rho" in p_one.name:
                delta = 3.0 + shift.normal(0.0, 0.5, p_one.shape)
                p_one.value = p_one.value + delta
                p_two.value = p_two.value + delta
    return nets


def _assert_parity(net, oracle, x, num_samples, calls=1):
    """Bit-equal moments *and* generators left in the same state."""
    rng_net = np.random.default_rng(3)
    rng_oracle = np.random.default_rng(3)
    for _ in range(calls):
        mean, std = net.predict(x, num_samples=num_samples, rng=rng_net)
        want_mean, want_std = _loop_predict(oracle, x, num_samples,
                                            rng_oracle)
        assert mean.shape == want_mean.shape
        assert np.array_equal(mean, want_mean)
        assert np.array_equal(std, want_std)
    assert rng_net.standard_normal() == rng_oracle.standard_normal()


class TestPredictMatchesForwardLoop:
    """``predict`` draws the whole posterior in one pass; the loop of
    ``forward`` calls it replaced is the reference."""

    @pytest.mark.parametrize("rows", [1, 3, 21, 64])
    @pytest.mark.parametrize("num_samples", [1, 4, 16])
    def test_batched_rows(self, rows, num_samples):
        net, oracle = _twin_nets()
        x = np.random.default_rng(1).uniform(0.0, 1.0, (rows, 9))
        _assert_parity(net, oracle, x, num_samples)

    def test_single_state_input(self):
        net, oracle = _twin_nets()
        x = np.random.default_rng(1).uniform(0.0, 1.0, 9)
        _assert_parity(net, oracle, x, 16)

    @pytest.mark.parametrize("rows", [1, 21])
    def test_non_relu_activation(self, rows):
        net, oracle = _twin_nets(activation="tanh")
        x = np.random.default_rng(1).uniform(-1.0, 1.0, (rows, 9))
        _assert_parity(net, oracle, x, 16)

    @pytest.mark.parametrize("rows", [1, 21])
    def test_perturbed_rho(self, rows):
        """Posterior scales far from the -5 initialisation, so the
        variance path carries real weight in every layer."""
        net, oracle = _twin_nets(perturb_rho=True)
        x = np.random.default_rng(1).uniform(0.0, 1.0, (rows, 9))
        _assert_parity(net, oracle, x, 16)

    def test_consecutive_calls_share_one_stream(self):
        net, oracle = _twin_nets(perturb_rho=True)
        x = np.random.default_rng(1).uniform(0.0, 1.0, (3, 9))
        _assert_parity(net, oracle, x, 16, calls=3)

    def test_no_stale_scales_after_training_step(self):
        """A predict right after ``elbo_step`` + optimiser step sees
        the updated ``rho`` (nothing is cached across calls)."""
        nets = _twin_nets()
        data = np.random.default_rng(2)
        x_train = data.uniform(0.0, 1.0, (32, 9))
        y_train = data.normal(0.0, 1.0, (32, 1))
        x = data.uniform(0.0, 1.0, (3, 9))
        for net in nets:
            net.predict(x, num_samples=4,
                        rng=np.random.default_rng(8))   # before the step
            optim = Adam(net.parameters(), lr=0.05)
            optim.zero_grad()
            net.elbo_step(x_train, y_train)
            optim.step()
        _assert_parity(nets[0], nets[1], x, 16)

    @pytest.mark.parametrize("num_samples", [0, -1])
    def test_rejects_empty_sample_count(self, rng, num_samples):
        net = BayesianMLP(3, 1, hidden_sizes=(8,), rng=rng)
        with pytest.raises(ValueError, match="num_samples"):
            net.predict(np.zeros(3), num_samples=num_samples, rng=rng)


class TestPredictGroupsMatchesPredict:
    """``predict_groups`` runs G groups stacked as slabs; each group's
    own ``predict`` (its own generator) is the reference."""

    @pytest.mark.parametrize("groups", [1, 2, 3, 5])
    @pytest.mark.parametrize("rows", [1, 2, 3, 7, 21, 64])
    def test_stacked_groups(self, rows, groups):
        net, _ = _twin_nets(perturb_rho=True)
        x = np.random.default_rng(rows).uniform(0.0, 1.0,
                                                 (groups, rows, 9))
        alone = [np.random.default_rng(40 + g) for g in range(groups)]
        want = [net.predict(x[g], num_samples=16, rng=alone[g])
                for g in range(groups)]
        stacked = [np.random.default_rng(40 + g) for g in range(groups)]
        noise = np.stack([gen.standard_normal(net.noise_shape(rows, 16))
                          for gen in stacked])
        mean, std = net.predict_groups(x, noise)
        # width-1 output: the shape whose sample-axis sum a sample-major
        # layout gets wrong
        assert mean.shape == std.shape == (groups, rows, 1)
        for g, (want_mean, want_std) in enumerate(want):
            assert np.array_equal(mean[g], want_mean), g
            assert np.array_equal(std[g], want_std), g
        for mine, theirs in zip(stacked, alone):
            assert mine.bit_generator.state == theirs.bit_generator.state

    def test_one_block_per_cell_is_one_draw_per_group(self):
        """A generator filling one block for several groups leaves the
        values and the state that one draw per group leaves."""
        net, _ = _twin_nets()
        shapes = [net.noise_shape(rows, 16) for rows in (3, 1, 7)]
        one, many = np.random.default_rng(2), np.random.default_rng(2)
        block = one.standard_normal(sum(s * w for s, w in shapes))
        start = 0
        for shape in shapes:
            stop = start + shape[0] * shape[1]
            assert np.array_equal(block[start:stop].reshape(shape),
                                  many.standard_normal(shape))
            start = stop
        assert one.bit_generator.state == many.bit_generator.state
