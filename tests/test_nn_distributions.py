"""Unit tests: diagonal-Gaussian policy head."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.distributions import DiagGaussian


class TestDiagGaussian:
    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            DiagGaussian(0)

    def test_invalid_clamp_range(self):
        with pytest.raises(ValueError):
            DiagGaussian(2, min_log_std=1.0, max_log_std=0.0)

    def test_sample_within_box(self, rng):
        dist = DiagGaussian(4, initial_log_std=0.0)
        samples = np.stack([dist.sample(np.full(4, 0.5), rng)
                            for _ in range(200)])
        assert np.all(samples >= 0.0) and np.all(samples <= 1.0)

    def test_log_prob_matches_scipy(self, rng):
        from scipy import stats

        dist = DiagGaussian(3, initial_log_std=-1.0)
        mean = np.array([0.2, 0.5, 0.8])
        action = np.array([0.25, 0.45, 0.9])
        ours = float(dist.log_prob(mean, action))
        std = np.exp(-1.0)
        ref = float(np.sum(stats.norm.logpdf(action, mean, std)))
        assert ours == pytest.approx(ref, rel=1e-9)

    def test_log_prob_batched(self, rng):
        dist = DiagGaussian(3)
        mean = rng.uniform(size=(5, 3))
        actions = rng.uniform(size=(5, 3))
        out = dist.log_prob(mean, actions)
        assert out.shape == (5,)

    def test_log_prob_grads_numerical(self):
        dist = DiagGaussian(2, initial_log_std=-0.5)
        mean = np.array([0.3, 0.7])
        action = np.array([0.5, 0.6])
        g_mean, g_log_std = dist.log_prob_grads(mean, action)
        eps = 1e-6
        for i in range(2):
            mp = mean.copy()
            mp[i] += eps
            mm = mean.copy()
            mm[i] -= eps
            num = (dist.log_prob(mp, action)
                   - dist.log_prob(mm, action)) / (2 * eps)
            assert g_mean[i] == pytest.approx(float(num), abs=1e-5)
        orig = dist.log_std.value.copy()
        for i in range(2):
            dist.log_std.value = orig.copy()
            dist.log_std.value[i] += eps
            lp = float(dist.log_prob(mean, action))
            dist.log_std.value = orig.copy()
            dist.log_std.value[i] -= eps
            lm = float(dist.log_prob(mean, action))
            dist.log_std.value = orig.copy()
            assert g_log_std[i] == pytest.approx(
                (lp - lm) / (2 * eps), abs=1e-5)

    def test_entropy_increases_with_std(self):
        narrow = DiagGaussian(3, initial_log_std=-2.0)
        wide = DiagGaussian(3, initial_log_std=0.0)
        assert wide.entropy() > narrow.entropy()

    def test_entropy_grad(self):
        dist = DiagGaussian(5)
        np.testing.assert_array_equal(dist.entropy_grad_log_std(),
                                      np.ones(5))

    def test_log_std_clamped(self):
        dist = DiagGaussian(2, initial_log_std=-10.0,
                            min_log_std=-3.0)
        assert np.all(dist.std == pytest.approx(np.exp(-3.0)))


@given(st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=25, deadline=None)
def test_log_prob_max_at_mean(mean_val):
    """The density is maximised at the mean (property)."""
    dist = DiagGaussian(1, initial_log_std=-1.0)
    mean = np.array([mean_val])
    at_mean = float(dist.log_prob(mean, mean))
    away = float(dist.log_prob(mean, mean + 0.05))
    assert at_mean >= away
