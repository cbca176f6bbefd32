"""Unit tests: rollout buffer (GAE, truncation), PPO, Lagrangian, BC."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import LagrangianConfig, PPOConfig
from repro.rl.behavior_cloning import BehaviorCloningTrainer
from repro.rl.buffer import RolloutBuffer, Transition
from repro.rl.cost_estimator import CostToGoEstimator, cost_to_go
from repro.rl.lagrangian import LagrangianMultiplier
from repro.rl.ppo import GaussianActorCritic, PPOTrainer


def _transition(reward=1.0, cost=0.0, value=0.0, dim=3):
    return Transition(state=np.zeros(dim), action=np.zeros(dim),
                      reward=reward, cost=cost, value=value,
                      log_prob=0.0)


class TestRolloutBuffer:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            RolloutBuffer(gamma=0.0)
        with pytest.raises(ValueError):
            RolloutBuffer(gae_lambda=1.5)

    def test_empty_get_raises(self):
        with pytest.raises(RuntimeError):
            RolloutBuffer().get()

    def test_returns_undiscounted_sum(self):
        buf = RolloutBuffer(gamma=1.0, gae_lambda=1.0)
        for r in (1.0, 2.0, 3.0):
            buf.add(_transition(reward=r))
        buf.end_episode()
        batch = buf.get(normalize_advantages=False)
        np.testing.assert_allclose(batch["returns"], [6.0, 5.0, 3.0])

    def test_bootstrap_value_enters_returns(self):
        buf = RolloutBuffer(gamma=1.0, gae_lambda=1.0)
        buf.add(_transition(reward=1.0))
        buf.end_episode(bootstrap_value=10.0)
        batch = buf.get(normalize_advantages=False)
        np.testing.assert_allclose(batch["returns"], [11.0])

    def test_discard_episode(self):
        buf = RolloutBuffer()
        buf.add(_transition())
        buf.discard_episode()
        assert len(buf) == 0 and buf.pending_length == 0

    def test_gae_matches_manual(self):
        gamma, lam = 0.9, 0.8
        buf = RolloutBuffer(gamma=gamma, gae_lambda=lam)
        rewards = [1.0, 0.5]
        values = [0.2, 0.1]
        for r, v in zip(rewards, values):
            buf.add(_transition(reward=r, value=v))
        buf.end_episode()
        batch = buf.get(normalize_advantages=False)
        delta1 = rewards[1] + 0.0 - values[1]
        delta0 = rewards[0] + gamma * values[1] - values[0]
        adv1 = delta1
        adv0 = delta0 + gamma * lam * adv1
        np.testing.assert_allclose(batch["advantages"], [adv0, adv1])

    def test_advantage_normalization(self):
        buf = RolloutBuffer()
        for r in (0.0, 1.0, 2.0, 3.0):
            buf.add(_transition(reward=r))
        buf.end_episode()
        adv = buf.get(normalize_advantages=True)["advantages"]
        assert abs(adv.mean()) < 1e-9
        assert adv.std() == pytest.approx(1.0, rel=1e-6)

    def test_multiple_episodes_accumulate(self):
        buf = RolloutBuffer()
        for _ in range(2):
            buf.add(_transition())
            buf.end_episode()
        assert len(buf) == 2 and buf.episodes_stored == 2


class TestLagrangian:
    def test_increases_on_violation(self):
        lag = LagrangianMultiplier(0.05)
        before = lag.value
        lag.update(0.20)
        assert lag.value > before

    def test_decays_slowly_when_satisfied(self):
        cfg = LagrangianConfig()
        lag = LagrangianMultiplier(0.05, cfg=cfg)
        lag.update(0.2)
        high = lag.value
        lag.update(0.0)
        assert lag.value < high
        # decay step is a fraction of the ascent step
        ascent = cfg.step_size * 0.15
        decay = high - lag.value
        assert decay < ascent

    def test_respects_floor_and_cap(self):
        cfg = LagrangianConfig(min_multiplier=0.5, max_multiplier=5.0)
        lag = LagrangianMultiplier(0.05, cfg=cfg)
        for _ in range(100):
            lag.update(0.0)
        assert lag.value == pytest.approx(0.5)
        for _ in range(100):
            lag.update(1.0)
        assert lag.value == pytest.approx(5.0)

    def test_penalized_reward(self):
        lag = LagrangianMultiplier(0.05)
        lag.value = 2.0
        assert lag.penalized_reward(-0.3, 0.1) == pytest.approx(-0.5)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            LagrangianMultiplier(-0.1)


class TestPPO:
    def test_update_improves_simple_bandit(self, rng):
        """PPO pushes the mean toward the rewarded region."""
        model = GaussianActorCritic(2, 1, rng=rng)
        cfg = PPOConfig(learning_rate=3e-3, update_epochs=10,
                        target_kl=1.0, clip_ratio=0.2)
        trainer = PPOTrainer(model, cfg=cfg, rng=rng)
        state = np.array([0.5, 0.5])
        before = float(model.mean_action(state)[0])
        for _ in range(10):
            buf = RolloutBuffer(gamma=1.0, gae_lambda=1.0)
            for _ in range(64):
                out = model.act(state)
                reward = -abs(float(out["action"][0]) - 0.9)
                buf.add(Transition(state=state, action=out["action"],
                                   reward=reward, cost=0.0,
                                   value=out["value"],
                                   log_prob=out["log_prob"]))
                buf.end_episode()
            trainer.update(buf.get())
        after = float(model.mean_action(state)[0])
        assert abs(after - 0.9) < abs(before - 0.9)

    def test_update_empty_batch_raises(self, rng):
        model = GaussianActorCritic(2, 1, rng=rng)
        trainer = PPOTrainer(model, rng=rng)
        with pytest.raises((ValueError, RuntimeError, KeyError)):
            trainer.update({"states": np.zeros((0, 2)),
                            "actions": np.zeros((0, 1)),
                            "log_probs": np.zeros(0),
                            "advantages": np.zeros(0),
                            "returns": np.zeros(0)})

    def test_act_deterministic_equals_mean(self, rng):
        model = GaussianActorCritic(3, 2, rng=rng)
        state = rng.uniform(size=3)
        out = model.act(state, deterministic=True)
        np.testing.assert_allclose(out["action"],
                                   model.mean_action(state))

    def test_update_returns_diagnostics(self, rng):
        model = GaussianActorCritic(2, 2, rng=rng)
        trainer = PPOTrainer(model, rng=rng)
        buf = RolloutBuffer()
        for _ in range(16):
            out = model.act(np.zeros(2))
            buf.add(Transition(state=np.zeros(2), action=out["action"],
                               reward=0.5, cost=0.0,
                               value=out["value"],
                               log_prob=out["log_prob"]))
        buf.end_episode()
        stats = trainer.update(buf.get())
        for key in ("policy_loss", "value_loss", "entropy", "kl",
                    "clip_fraction"):
            assert key in stats and np.isfinite(stats[key])


class TestBehaviorCloning:
    def test_clones_linear_policy(self, rng):
        from repro.nn.network import MLP

        actor = MLP(3, 2, hidden_sizes=(32, 16),
                    output_activation="sigmoid", rng=rng)
        trainer = BehaviorCloningTrainer(actor, rng=rng)
        states = rng.uniform(size=(256, 3))
        targets = np.clip(states[:, :2] * 0.5 + 0.2, 0, 1)
        curve = trainer.fit(states, targets, epochs=40)
        assert curve[-1] < curve[0] * 0.3
        assert trainer.evaluate(states, targets) < 0.01

    def test_length_mismatch(self, rng):
        from repro.nn.network import MLP

        actor = MLP(3, 2, rng=rng)
        trainer = BehaviorCloningTrainer(actor, rng=rng)
        with pytest.raises(ValueError):
            trainer.train_epoch(np.zeros((4, 3)), np.zeros((5, 2)))

    def test_empty_dataset(self, rng):
        from repro.nn.network import MLP

        actor = MLP(3, 2, rng=rng)
        trainer = BehaviorCloningTrainer(actor, rng=rng)
        with pytest.raises(ValueError):
            trainer.train_epoch(np.zeros((0, 3)), np.zeros((0, 2)))


class TestCostEstimator:
    def test_cost_to_go_suffix_sums(self):
        np.testing.assert_allclose(cost_to_go([1.0, 2.0, 3.0]),
                                   [6.0, 5.0, 3.0])

    def test_fit_without_data_raises(self, rng):
        est = CostToGoEstimator(3, rng=rng)
        with pytest.raises(RuntimeError):
            est.fit()

    def test_episode_length_mismatch(self, rng):
        est = CostToGoEstimator(3, rng=rng)
        with pytest.raises(ValueError):
            est.add_episode([np.zeros(3)], [0.1, 0.2])

    def test_predicts_cost_to_go_scale(self, rng):
        est = CostToGoEstimator(2, rng=rng)
        # episodes whose cost-to-go at the start is ~4.0
        for _ in range(20):
            states = [np.array([t / 8, 0.5]) for t in range(8)]
            costs = [0.5] * 8
            est.add_episode(states, costs)
        est.fit(epochs=60)
        mu, sigma = est.predict(np.array([0.0, 0.5]))
        assert mu == pytest.approx(4.0, abs=1.0)
        assert sigma > 0

    def test_predict_is_one_row_predict_batch(self):
        """Same float ops, same generator draws: a state served alone
        and as a 1-row batch gets bit-equal (mu, sigma)."""
        one, two = (CostToGoEstimator(4, rng=np.random.default_rng(6))
                    for _ in range(2))
        for est in (one, two):
            est.target_scale = (2.5, 0.75)
        states = np.random.default_rng(1).uniform(0.0, 1.0, (5, 4))
        mu, sigma = one.predict(states[0])
        mu_b, sigma_b = two.predict_batch(states[:1])
        assert isinstance(mu, float) and isinstance(sigma, float)
        assert (mu, sigma) == (mu_b[0], sigma_b[0])
        mu_b, sigma_b = two.predict_batch(states)
        assert mu_b.shape == sigma_b.shape == (5,)
        assert np.all(sigma_b > 0)

    def test_target_scale_round_trip(self, rng):
        est = CostToGoEstimator(2, rng=rng)
        assert est.target_scale == (0.0, 1.0)
        est.add_episode([np.array([0.0, 0.5]), np.array([0.5, 0.5])],
                        [1.0, 3.0])
        est.fit(epochs=1)
        mean, std = est.target_scale
        assert (mean, std) == (3.5, 0.5)
        other = CostToGoEstimator(2, rng=rng)
        other.target_scale = [mean, std]
        assert other.target_scale == est.target_scale

    def test_rejects_empty_posterior_sample_count(self, rng):
        from repro.config import EstimatorConfig

        est = CostToGoEstimator(
            2, cfg=EstimatorConfig(num_posterior_samples=0), rng=rng)
        with pytest.raises(ValueError, match="num_posterior_samples"):
            est.predict(np.zeros(2))
        with pytest.raises(ValueError, match="num_samples"):
            est.predict(np.zeros(2), num_samples=0)


@given(st.lists(st.floats(min_value=0.0, max_value=1.0),
                min_size=1, max_size=20))
@settings(max_examples=30, deadline=None)
def test_cost_to_go_monotone_nonincreasing(costs):
    """Suffix sums of non-negative costs never increase (property)."""
    ctg = cost_to_go(costs)
    assert np.all(np.diff(ctg) <= 1e-12)
    assert ctg[0] == pytest.approx(sum(costs))
