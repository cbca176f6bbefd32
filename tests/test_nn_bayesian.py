"""Unit tests: variational layers and the Bayesian MLP (pi_phi core).

``BayesianMLP.predict`` is pi_phi's posterior in closed form (moment
propagation); the Monte-Carlo estimator it replaced survives here as
:func:`_loop_predict`, the oracle its accuracy is held to.
"""

import math

import numpy as np
import pytest

from repro import scenarios
from repro.config import NUM_ACTIONS, ExperimentConfig, TrafficConfig
from repro.experiments.harness import build_onslicing
from repro.nn.bayesian import (
    BayesianMLP,
    VariationalDense,
    erf,
    relu_moments,
)
from repro.nn.optim import Adam
from repro.rl.cost_estimator import CostToGoEstimator
from repro.serve import snapshot_onslicing
from repro.serve.service import _LearnedPolicy


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
        mean, std = net.predict(np.array([[1.0], [15.0]]))
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

    def test_predict_mean_restores_sampling_when_forward_raises(
            self, rng):
        """A wrong-width input raises inside ``predict_mean``; the net
        must come out sampling again, so the ELBO's ``forward`` still
        draws noise afterwards."""
        net = BayesianMLP(2, 1, hidden_sizes=(8,), rng=rng)
        with pytest.raises(ValueError):
            net.predict_mean(np.ones((3, 5)))
        assert all(vlayer.sample_noise for vlayer in net._vlayers)
        x = np.ones((4, 2))
        assert not np.array_equal(net.forward(x), net.forward(x))

    def test_predict_single_input_shape(self, rng):
        net = BayesianMLP(3, 1, hidden_sizes=(8,), rng=rng)
        mean, std = net.predict(np.zeros(3))
        assert mean.shape == (1,) and std.shape == (1,)
        assert np.all(std > 0)

    def test_kl_decomposes_over_layers(self, rng):
        net = BayesianMLP(2, 1, hidden_sizes=(4, 3), rng=rng)
        total = net.kl_divergence()
        parts = sum(v.kl_divergence(net.prior_std)
                    for v in net._vlayers)
        assert total == pytest.approx(parts)


def _loop_predict(net, x, num_samples, rng, chunk=256):
    """The oracle: pi_phi's posterior by Monte Carlo -- ``num_samples``
    stochastic ``forward`` passes, stacked, their sample mean and
    deviation plus the learned observation noise.  Passes run
    ``chunk`` at a time as one ``forward`` over the input tiled
    ``chunk`` times: local reparameterisation draws every row's
    pre-activations independently, so each tile is a pass of its
    own."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    for vlayer in net._vlayers:
        vlayer._rng = rng
    net._set_sampling(True)
    draws = []
    for start in range(0, num_samples, chunk):
        passes = min(chunk, num_samples - start)
        draws.append(net.forward(np.tile(x, (passes, 1))).reshape(
            passes, len(x), -1))
    draws = np.concatenate(draws)
    noise_var = float(np.exp(2.0 * net.log_noise.value[0]))
    return draws.mean(axis=0), np.sqrt(draws.var(axis=0) + noise_var)


def _net(perturb_rho=False, seed=5):
    """pi_phi's shape (9-64-32-1); ``perturb_rho`` moves the posterior
    scales far from the -5 initialisation, so the variance path
    carries real weight in every layer."""
    net = BayesianMLP(9, 1, hidden_sizes=(64, 32),
                      rng=np.random.default_rng(seed))
    if perturb_rho:
        shift = np.random.default_rng(9)
        for param in net.parameters():
            if "rho" in param.name:
                param.value = param.value + 3.0 + shift.normal(
                    0.0, 0.5, param.shape)
    return net


class TestErf:
    def test_within_the_published_bound_on_a_dense_grid(self):
        x = np.linspace(-8.0, 8.0, 160_001)
        want = np.array([math.erf(v) for v in x])
        assert np.abs(erf(x) - want).max() <= 1.5e-7

    def test_odd_to_the_last_bit(self):
        x = np.random.default_rng(0).normal(0.0, 3.0, 10_000)
        assert np.array_equal(erf(-x), -erf(x))

    def test_finite_far_out(self):
        out = erf(np.array([-1e3, -40.0, 40.0, 1e3]))
        assert np.array_equal(out, [-1.0, -1.0, 1.0, 1.0])


class TestClosedFormMoments:
    def test_relu_moments_match_quadrature(self):
        """The rectified Gaussian's mean and variance against a
        Riemann sum over +-12 deviations (the density is ~e^-72 at the
        ends)."""
        for mean, std in ((0.3, 1.0), (-2.0, 0.5), (4.0, 0.7),
                          (0.0, 2.0), (-0.1, 0.01)):
            grid, step = np.linspace(mean - 12 * std, mean + 12 * std,
                                     200_001, retstep=True)
            weight = step * np.exp(-0.5 * ((grid - mean) / std) ** 2) / (
                std * math.sqrt(2.0 * math.pi))
            relu = np.maximum(grid, 0.0)
            first = float(relu @ weight)
            second = float(relu ** 2 @ weight)
            got_mean, got_var = relu_moments(np.array(mean),
                                             np.array(std ** 2))
            assert got_mean == pytest.approx(first, abs=2e-7 * std)
            assert got_var == pytest.approx(second - first ** 2,
                                            abs=4e-7 * std ** 2)

    def test_gaussian_input_layer_moments_match_sampling(self):
        """A variational layer fed ``N(m, v)`` inputs: the
        pre-activation mean and variance against 400 000 draws of
        input and weights."""
        rng = np.random.default_rng(3)
        layer = VariationalDense(4, 2, rng=rng, initial_rho=-1.0)
        m = np.array([[0.5, -1.0, 2.0, 0.1]])
        v = np.array([[0.2, 0.05, 0.3, 0.0]])
        table = layer.posterior()
        mean, var = table.moments(m, v)
        draws = 400_000
        x = m + np.sqrt(v) * rng.standard_normal((draws, 4))
        w = layer.weight_mu.value + np.sqrt(
            table.weight_var) * rng.standard_normal((draws, 4, 2))
        b = layer.bias_mu.value + np.sqrt(
            table.bias_var) * rng.standard_normal((draws, 2))
        out = np.einsum("si,sio->so", x, w) + b
        assert np.all(np.abs(mean[0] - out.mean(axis=0))
                      <= 4.0 * np.sqrt(var[0] / draws))
        np.testing.assert_allclose(var[0], out.var(axis=0), rtol=0.02)

    def test_vanishing_posterior_scales_give_the_mean_net(self):
        """sigma_W, sigma_b ~ 0: the posterior is the mean net, and the
        deviation is the observation noise alone."""
        net = _net()
        for param in net.parameters():
            if "rho" in param.name:
                param.value = np.full(param.shape, -60.0)
        x = np.random.default_rng(1).uniform(-1.0, 1.0, (33, 9))
        mean, std = net.predict(x)
        np.testing.assert_allclose(mean, net.predict_mean(x),
                                   rtol=0.0, atol=1e-12)
        noise_std = math.exp(net.log_noise.value[0])
        np.testing.assert_allclose(std, noise_std, rtol=1e-12)

    def test_a_unit_with_zero_variance_is_finite(self):
        """A hidden unit whose pre-activation variance is exactly zero
        (softplus(-1000) is 0.0), at zero mean and off it."""
        net = _net()
        first = net._vlayers[0]
        first.weight_rho.value[:, :3] = -1000.0
        first.bias_rho.value[:3] = -1000.0
        first.bias_mu.value[:3] = [0.0, 0.4, -0.4]
        first.weight_mu.value[:, :3] = 0.0
        mean, var, _, _ = first._moments(np.ones((2, 9)))
        assert np.array_equal(var[:, :3], np.zeros((2, 3)))
        hidden_mean, hidden_var = relu_moments(mean, var)
        assert np.array_equal(hidden_mean[:, :3], [[0.0, 0.4, 0.0]] * 2)
        assert np.isfinite(hidden_var).all()
        out_mean, out_std = net.predict(np.ones((2, 9)))
        assert np.isfinite(out_mean).all() and np.isfinite(out_std).all()


@pytest.fixture(scope="module")
def loop_oracle():
    """pi_phi's shape, 64 states and their 4 096-sample oracle; a
    ``(rows, 9)`` uniform draw is the first ``rows`` of these (numpy
    fills row by row), so ``x[:rows]`` stands for it."""
    net = _net()
    x = np.random.default_rng(1).uniform(0.0, 1.0, (64, 9))
    return net, x, _loop_predict(net, x, 4096, np.random.default_rng(3))


def _assert_near(mean, std, ref_mean, ref_std, mu_bound=0.02,
                 sigma_bound=0.05):
    """Per row: ``|mu - mu_ref| <= mu_bound sigma_ref`` and ``|sigma -
    sigma_ref| <= sigma_bound sigma_ref``."""
    assert mean.shape == std.shape == np.shape(ref_mean)
    assert np.all(np.abs(mean - ref_mean) <= mu_bound * ref_std)
    assert np.all(np.abs(std - ref_std) <= sigma_bound * ref_std)


class TestPredictMatchesForwardLoop:
    """The closed form against the loop of sampling ``forward`` passes
    it replaced, run at 4 096 samples: per row ``|dmu| <= 0.02 sigma``
    and ``|dsigma| <= 0.05 sigma`` unless a test says otherwise."""

    @pytest.mark.parametrize("rows", [1, 3, 21, 64])
    @pytest.mark.parametrize("num_samples", [1, 4, 16])
    def test_batched_rows(self, loop_oracle, rows, num_samples):
        """Any legacy sample count, with a generator: the floats of a
        plain ``predict``, near the oracle, and nothing drawn."""
        net, x, (ref_mean, ref_std) = loop_oracle
        gen = np.random.default_rng(8)
        state = gen.bit_generator.state
        mean, std = net.predict(x[:rows], num_samples=num_samples,
                                rng=gen)
        want_mean, want_std = net.predict(x[:rows])
        assert np.array_equal(mean, want_mean)
        assert np.array_equal(std, want_std)
        assert gen.bit_generator.state == state
        _assert_near(mean, std, ref_mean[:rows], ref_std[:rows])

    def test_single_state_input(self, loop_oracle):
        net, x, (ref_mean, ref_std) = loop_oracle
        mean, std = net.predict(x[0])
        batch_mean, batch_std = net.predict(x[:1])
        assert np.array_equal(mean, batch_mean[0])
        assert np.array_equal(std, batch_std[0])
        _assert_near(mean, std, ref_mean[0], ref_std[0])

    @pytest.mark.parametrize("rows", [1, 21])
    def test_perturbed_rho(self, rows):
        """Posterior scales far from the -5 initialisation, so the
        epistemic part dominates sigma and units are far from
        independent.  The oracle's own standard error on the mean is
        ~0.01 sigma here, so the mean bound is 0.05 sigma."""
        net = _net(perturb_rho=True)
        x = np.random.default_rng(1).uniform(0.0, 1.0, (rows, 9))
        ref_mean, ref_std = _loop_predict(net, x, 4096,
                                          np.random.default_rng(3))
        mean, std = net.predict(x)
        _assert_near(mean, std, ref_mean, ref_std, mu_bound=0.05)

    def test_consecutive_calls_share_one_stream(self):
        """``predict`` draws nothing from the generator the layers'
        sampling ``forward`` (the ELBO's) reads: forwards interleaved
        with predicts draw what they draw without them."""
        nets = [_net(perturb_rho=True) for _ in range(2)]
        x = np.random.default_rng(1).uniform(0.0, 1.0, (5, 9))
        outs = []
        for index, net in enumerate(nets):
            for vlayer in net._vlayers:
                vlayer._rng = np.random.default_rng(4)
            draws = []
            for _ in range(3):
                if index:
                    net.predict(x)
                draws.append(net.forward(x))
            outs.append(np.stack(draws))
        assert np.array_equal(outs[0], outs[1])

    def test_no_stale_scales_after_training_step(self):
        """A predict right after ``elbo_step`` + optimiser step sees
        the updated ``rho``: it equals a fresh net's holding the
        stepped weights, and differs from the predict before."""
        net = _net()
        data = np.random.default_rng(2)
        x_train = data.uniform(0.0, 1.0, (32, 9))
        y_train = data.normal(0.0, 1.0, (32, 1))
        x = data.uniform(0.0, 1.0, (3, 9))
        before = net.predict(x)
        optim = Adam(net.parameters(), lr=0.05)
        optim.zero_grad()
        net.elbo_step(x_train, y_train)
        optim.step()
        after = net.predict(x)
        fresh = _net(seed=11)
        fresh.load_state_dict(net.state_dict())
        for got, want, old in zip(after, fresh.predict(x), before):
            assert np.array_equal(got, want)
            assert not np.array_equal(got, old)


class TestPosteriorTable:
    """``BayesianMLP.posterior()`` freezes the weight-side half of the
    closed form: its ``predict`` is ``BayesianMLP.predict`` bit for
    bit, and no later training step reaches it."""

    @pytest.mark.parametrize("perturb_rho", [False, True])
    @pytest.mark.parametrize("shape", [(9,), (1, 9), (21, 9), (64, 9),
                                       (3, 4, 9), (5, 1, 9)])
    def test_table_predict_is_predict(self, shape, perturb_rho):
        net = _net(perturb_rho=perturb_rho)
        x = np.random.default_rng(len(shape)).uniform(0.0, 1.0, shape)
        table = net.posterior()
        for got, want in zip(table.predict(x), net.predict(x)):
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64),
                                  want.view(np.int64))

    def test_table_is_frozen(self):
        """An Adam step after the build (which updates the parameters
        in place) leaves the table's outputs untouched; a table built
        after the step reads the stepped weights."""
        net = _net(perturb_rho=True)
        data = np.random.default_rng(2)
        x = data.uniform(0.0, 1.0, (7, 9))
        table = net.posterior()
        before = table.predict(x)
        optim = Adam(net.parameters(), lr=0.05)
        optim.zero_grad()
        net.elbo_step(data.uniform(0.0, 1.0, (32, 9)),
                      data.normal(0.0, 1.0, (32, 1)))
        optim.step()
        for got, want in zip(table.predict(x), before):
            assert np.array_equal(got, want)
        stepped = net.predict(x)
        for got, want, old in zip(net.posterior().predict(x), stepped,
                                  before):
            assert np.array_equal(got, want)
            assert not np.array_equal(got, old)


class TestPredictGroupsMatchesPredict:
    """Groups stacked ``(G, n, in)`` are ``G`` slabs: every group's
    moments are bit for bit the ones its own ``(n, in)`` call gives."""

    @pytest.mark.parametrize("groups", [1, 2, 3, 5])
    @pytest.mark.parametrize("rows", [1, 2, 3, 7, 21, 64])
    def test_stacked_groups(self, rows, groups):
        net = _net(perturb_rho=True)
        x = np.random.default_rng(rows).uniform(0.0, 1.0,
                                                 (groups, rows, 9))
        mean, std = net.predict(x)
        # width-1 output: the shape whose reductions a layout can skew
        assert mean.shape == std.shape == (groups, rows, 1)
        for g in range(groups):
            want_mean, want_std = net.predict(x[g])
            assert np.array_equal(mean[g], want_mean), g
            assert np.array_equal(std[g], want_std), g

    @pytest.mark.parametrize("rows", [1, 4, 21])
    def test_estimator_stacked_groups(self, rows):
        est = CostToGoEstimator(9, rng=np.random.default_rng(6))
        est.target_scale = (2.5, 0.75)
        states = np.random.default_rng(1).uniform(0.0, 1.0, (3, rows, 9))
        mu, sigma = est.predict_batch(states)
        assert mu.shape == sigma.shape == (3, rows)
        for g in range(3):
            want_mu, want_sigma = est.predict_batch(states[g])
            assert np.array_equal(mu[g], want_mu)
            assert np.array_equal(sigma[g], want_sigma)


# ---- the closed form against the Monte-Carlo oracle --------------------


@pytest.fixture(scope="module")
def catalog_rows():
    """The served pi_phi of the serve tests' OnSlicing fixture snapshot
    (10-slot episodes, seed 5), and catalog states to ask it about:
    every named scenario stepped up to 12 slots under a stingy fixed
    allocation (so budgets fill and Eq. 8 has rows to fire on), every
    third slot's rows kept, each row routed to the snapshot policy of
    its slice's app, as serving routes it; with each row's horizon."""
    cfg = ExperimentConfig(traffic=TrafficConfig(slots_per_episode=10),
                           seed=5)
    bundle = build_onslicing(cfg, offline_episodes=1,
                             exploration_episodes=1, seed=5)
    snapshot = snapshot_onslicing("rows-s", bundle, seed=5)
    by_app = {}
    for name, payload in snapshot.policies.items():
        by_app.setdefault(payload["app"], name)
    rows = {name: ([], []) for name in snapshot.policies}
    action = np.full(NUM_ACTIONS, 0.15)
    for scenario in scenarios.names():
        spec = scenarios.get(scenario)
        config = spec.build_config(seed=3)
        apps = {s.name: s.app for s in config.slices}
        simulator = spec.build_simulator(config,
                                         rng=np.random.default_rng(3))
        observations = simulator.reset()
        for slot in range(12):
            if simulator.done:
                break
            if slot % 3 == 2:
                for name, observation in observations.items():
                    states, horizons = rows[by_app[apps[name]]]
                    states.append(observation.vector())
                    horizons.append(config.traffic.slots_per_episode)
            results = simulator.step({name: action for name
                                      in simulator.slice_names})
            observations = {name: result.observation
                            for name, result in results.items()}
    eta = snapshot.config.agent.switching.eta
    return eta, [(_LearnedPolicy(snapshot, name).estimator,
                  np.array(states), np.array(horizons, dtype=float))
                 for name, (states, horizons) in rows.items() if states]


def _eq8(states, horizons, eta, mu, sigma):
    """The served Eq. 8 verdict per row (``DecisionCore._propose``)."""
    thresholds = states[:, 7] * horizons
    cumulative = states[:, 8] * thresholds
    return cumulative + np.maximum(mu, 0.0) + eta * sigma >= thresholds


def test_closed_form_matches_monte_carlo_on_catalog_states(catalog_rows):
    """Bounds fixed before measuring: per row, ``|mu - mu_ref| <= 0.02
    sigma_ref`` and ``|sigma - sigma_ref| <= 0.05 sigma_ref`` against
    4 096-sample Monte Carlo, in the net's standardised units; and Eq. 8
    flips against MC-4096 no more often than the 16-sample estimator
    that used to decide it.  Flips are counted on the recorded rows at
    their cells' horizons, and on the same rows at horizons that put
    each one within +-0.1 sigma_ref of its Eq. 8 boundary."""
    eta, policies = catalog_rows
    worst = {"closed form": [0.0, 0.0], "MC-16": [0.0, 0.0]}
    flips = {"closed form": 0, "MC-16": 0}
    edge_flips = dict(flips)
    fired = asked = 0
    for index, (estimator, states, horizons) in enumerate(policies):
        net = estimator.network
        ref_mean, ref_std = (a[:, 0] for a in _loop_predict(
            net, states, 4096, np.random.default_rng(100 + index)))
        mc_mean, mc_std = (a[:, 0] for a in _loop_predict(
            net, states, 16, np.random.default_rng(200 + index)))
        cf_mean, cf_std = (a[:, 0] for a in net.predict(states))
        mu_scale, sigma_scale = estimator.target_scale

        def cost(mean, std):
            return mean * sigma_scale + mu_scale, std * sigma_scale

        ref = cost(ref_mean, ref_std)
        # a horizon per row that puts its Eq. 8 boundary at mu + eta
        # sigma + delta sigma (only rows not already over budget)
        room = states[:, 7] * (1.0 - states[:, 8])
        open_ = room > 0
        delta = np.random.default_rng(300 + index).uniform(
            -0.1, 0.1, len(states))
        edge = np.where(open_, (np.maximum(ref[0], 0.0) + eta * ref[1]
                                + delta * ref[1]) / np.where(
                                    open_, room, 1.0), horizons)
        want = _eq8(states, horizons, eta, *ref)
        want_edge = _eq8(states, edge, eta, *ref)
        fired += int(want.sum())
        asked += len(states)
        for label, mean, std in (("closed form", cf_mean, cf_std),
                                 ("MC-16", mc_mean, mc_std)):
            errors = worst[label]
            errors[0] = max(errors[0],
                            float(np.max(np.abs(mean - ref_mean) / ref_std)))
            errors[1] = max(errors[1],
                            float(np.max(np.abs(std - ref_std) / ref_std)))
            got = cost(mean, std)
            flips[label] += int((_eq8(states, horizons, eta, *got)
                                 != want).sum())
            edge_flips[label] += int((_eq8(states, edge, eta, *got)
                                      != want_edge)[open_].sum())
    print(f"\nvs MC-4096 on {asked} catalog rows ({fired} fire): "
          + "; ".join(f"{label} max |dmu|/sigma {mu_err:.2e}, max "
                      f"|dsigma|/sigma {sigma_err:.2e}, Eq. 8 flips "
                      f"{flips[label]} (boundary rows {edge_flips[label]})"
                      for label, (mu_err, sigma_err) in worst.items()))
    assert 0 < fired < asked
    mu_err, sigma_err = worst["closed form"]
    assert mu_err <= 0.02 and sigma_err <= 0.05
    assert flips["closed form"] <= flips["MC-16"]
    assert edge_flips["closed form"] <= edge_flips["MC-16"]
    # the boundary rows are close enough for MC-16's noise to show
    assert edge_flips["MC-16"] > 0
