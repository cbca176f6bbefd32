"""Tests: OnSlicing agent, switching, action modifier, offline stage."""

import numpy as np
import pytest

from repro.config import (
    AgentConfig,
    EstimatorConfig,
    ModifierConfig,
    NUM_ACTIONS,
    SwitchingConfig,
)
from repro.core.action_modifier import ActionModifier, CostSurrogate
from repro.core.agent import OnSlicingAgent
from repro.core.switching import ProactiveBaselineSwitch
from repro.rl.cost_estimator import CostToGoEstimator
from repro.sim.env import STATE_DIM
from repro.sim.network import CONSTRAINED_RESOURCES


class _FixedBaseline:
    """Baseline stub returning a constant action."""

    def __init__(self, value=0.4):
        self.action = np.full(NUM_ACTIONS, value)

    def act(self, _observation):
        return self.action.copy()


class _Obs:
    """Observation stub with a vector() method."""

    def __init__(self, vec):
        self._vec = np.asarray(vec, dtype=float)

    def vector(self):
        return self._vec.copy()


def _trained_estimator(rng, per_slot_cost=0.0, horizon=10):
    est = CostToGoEstimator(STATE_DIM,
                            cfg=EstimatorConfig(train_epochs=20),
                            rng=rng)
    for _ in range(8):
        states = [np.full(STATE_DIM, t / horizon)
                  for t in range(horizon)]
        est.add_episode(states, [per_slot_cost] * horizon)
    est.fit()
    return est


class TestProactiveSwitch:
    def test_disabled_never_switches(self, rng):
        switch = ProactiveBaselineSwitch(
            SwitchingConfig(enabled=False), horizon=10,
            cost_threshold=0.05)
        decision = switch.evaluate(np.zeros(STATE_DIM), 100.0, 0)
        assert not decision.use_baseline

    def test_reactive_switch_without_estimator(self, rng):
        switch = ProactiveBaselineSwitch(
            SwitchingConfig(use_estimator=False), horizon=10,
            cost_threshold=0.05)
        below = switch.evaluate(np.zeros(STATE_DIM), 0.4, 3)
        assert not below.use_baseline
        above = switch.evaluate(np.zeros(STATE_DIM), 0.6, 4)
        assert above.use_baseline and above.newly_triggered
        assert switch.switch_slot == 4

    def test_one_way_within_episode(self, rng):
        switch = ProactiveBaselineSwitch(
            SwitchingConfig(use_estimator=False), horizon=10,
            cost_threshold=0.05)
        switch.evaluate(np.zeros(STATE_DIM), 0.6, 2)
        later = switch.evaluate(np.zeros(STATE_DIM), 0.0, 3)
        assert later.use_baseline and not later.newly_triggered
        switch.reset()
        assert not switch.active

    def test_estimator_makes_switch_proactive(self, rng):
        """With a costly baseline forecast, the switch fires before
        the cumulative cost alone crosses the budget."""
        est = _trained_estimator(rng, per_slot_cost=0.04)
        switch = ProactiveBaselineSwitch(
            SwitchingConfig(eta=1.0), horizon=10, cost_threshold=0.05,
            estimator=est, rng=rng)
        # budget = 0.5; forecast mu ~= 0.4 at slot 0
        decision = switch.evaluate(np.zeros(STATE_DIM), 0.25, 0)
        assert decision.use_baseline
        assert 0.25 < decision.expected_episode_cost

    def test_estimator_required_when_enabled(self):
        with pytest.raises(ValueError):
            ProactiveBaselineSwitch(SwitchingConfig(), horizon=10,
                                    cost_threshold=0.05)

    def test_invalid_horizon(self, rng):
        with pytest.raises(ValueError):
            ProactiveBaselineSwitch(
                SwitchingConfig(use_estimator=False), horizon=0,
                cost_threshold=0.05)


class TestCostSurrogate:
    def test_learns_cost_structure(self, rng):
        surrogate = CostSurrogate(rng=rng)
        states = rng.uniform(size=(512, STATE_DIM))
        actions = rng.uniform(size=(512, NUM_ACTIONS))
        costs = np.clip(1.0 - 2.0 * actions[:, 0], 0, 1)  # needs U_u
        surrogate.fit(states, actions, costs, epochs=40)
        high = surrogate.predict(states[:8],
                                 np.full((8, NUM_ACTIONS), 0.9))
        low = surrogate.predict(states[:8],
                                np.full((8, NUM_ACTIONS), 0.05))
        assert np.mean(high) < np.mean(low)

    def test_action_grad_sign(self, rng):
        surrogate = CostSurrogate(rng=rng)
        states = rng.uniform(size=(512, STATE_DIM))
        actions = rng.uniform(size=(512, NUM_ACTIONS))
        costs = np.clip(1.0 - 2.0 * actions[:, 0], 0, 1)
        surrogate.fit(states, actions, costs, epochs=40)
        _cost, grad = surrogate.cost_and_action_grad(
            states[:4], np.full((4, NUM_ACTIONS), 0.3))
        assert np.mean(grad[:, 0]) < 0  # more U_u -> less cost

    def test_dataset_length_mismatch(self, rng):
        surrogate = CostSurrogate(rng=rng)
        with pytest.raises(ValueError):
            surrogate.fit(np.zeros((3, STATE_DIM)),
                          np.zeros((4, NUM_ACTIONS)), np.zeros(3))


class TestActionModifier:
    def test_beta_vector_maps_kinds(self):
        """A kind-order beta vector lands on its kinds' action dims
        only (the expansion ``modify`` and training share)."""
        modifier = ActionModifier(ModifierConfig())
        betas = np.zeros((1, len(CONSTRAINED_RESOURCES)))
        betas[0, list(CONSTRAINED_RESOURCES).index("cpu")] = 0.5
        vec = modifier._beta_matrix(betas)[0]
        assert vec[CONSTRAINED_RESOURCES["cpu"]] == 0.5
        assert vec.sum() == 0.5

    def test_zero_beta_near_identity_after_training(self, rng):
        modifier = ActionModifier(ModifierConfig(train_epochs=15),
                                  rng=rng)
        states = rng.uniform(size=(512, STATE_DIM))
        actions = rng.uniform(0.2, 0.8, size=(512, NUM_ACTIONS))
        modifier.surrogate.fit(states, actions,
                               np.zeros(512), epochs=10)
        modifier.train_offline(states, actions)
        action = np.full(NUM_ACTIONS, 0.5)
        modified = modifier.modify(states[0], action, {})
        assert np.max(np.abs(modified - action)) < \
            ActionModifier.CORRECTION_SCALE + 1e-9

    def test_positive_beta_reduces_requested_dims(self, rng):
        modifier = ActionModifier(ModifierConfig(train_epochs=5),
                                  rng=rng)
        action = np.full(NUM_ACTIONS, 0.6)
        beta = {kind: 0.4 for kind in CONSTRAINED_RESOURCES}
        modified = modifier.modify(np.zeros(STATE_DIM), action, beta)
        for kind, idx in CONSTRAINED_RESOURCES.items():
            assert modified[idx] < action[idx]

    def test_modification_bounded(self, rng):
        """The analytic base + bounded correction keeps a_hat within
        beta/2 + scale of the original action."""
        modifier = ActionModifier(rng=rng)
        action = np.full(NUM_ACTIONS, 0.5)
        modified = modifier.modify(np.zeros(STATE_DIM), action, {})
        assert np.all(np.abs(modified - action)
                      <= ActionModifier.CORRECTION_SCALE + 1e-12)

    def test_noise_ablation_changes_output(self, rng):
        noisy = ActionModifier(
            ModifierConfig(modifier_noise_std=1.0), rng=rng)
        a = noisy.modify(np.zeros(STATE_DIM),
                         np.full(NUM_ACTIONS, 0.5), {})
        b = noisy.modify(np.zeros(STATE_DIM),
                         np.full(NUM_ACTIONS, 0.5), {})
        assert not np.allclose(a, b)
        assert np.all((a >= 0) & (a <= 1))

    def test_empty_dataset_rejected(self, rng):
        modifier = ActionModifier(rng=rng)
        with pytest.raises(ValueError):
            modifier.train_offline(np.zeros((0, STATE_DIM)),
                                   np.zeros((0, NUM_ACTIONS)))


class TestOnSlicingAgent:
    def _agent(self, rng, **switch_kwargs):
        cfg = AgentConfig(switching=SwitchingConfig(
            use_estimator=False, **switch_kwargs))
        return OnSlicingAgent("MAR", _FixedBaseline(), horizon=10,
                              cost_threshold=0.05, cfg=cfg, rng=rng)

    def test_act_observe_cycle(self, rng):
        agent = self._agent(rng)
        agent.begin_episode()
        obs = _Obs(np.zeros(STATE_DIM))
        decision = agent.act(obs)
        assert decision.action.shape == (NUM_ACTIONS,)
        assert not decision.from_baseline
        agent.observe(reward=-0.3, cost=0.01, usage=0.3)
        assert agent.cumulative_cost == pytest.approx(0.01)
        assert len(agent.buffer) == 0  # pending until episode end

    def test_observe_without_act_raises(self, rng):
        agent = self._agent(rng)
        agent.begin_episode()
        with pytest.raises(RuntimeError):
            agent.observe(0.0, 0.0, 0.0)

    def test_switch_truncates_buffer(self, rng):
        agent = self._agent(rng)
        agent.begin_episode()
        obs = _Obs(np.zeros(STATE_DIM))
        # two clean pi_theta slots
        for _ in range(2):
            agent.act(obs)
            agent.observe(-0.3, 0.0, 0.3)
        # one catastrophic slot crosses the 0.5 budget
        agent.act(obs)
        agent.observe(-0.3, 0.6, 0.3)
        decision = agent.act(obs)
        assert decision.from_baseline  # switch fired
        agent.observe(-0.4, 0.0, 0.4)
        record = agent.end_episode()
        assert record.switched_at == 3
        # only pi_theta transitions were kept
        assert len(agent.buffer) == 3
        # baseline transitions feed the estimator dataset
        assert agent.estimator.dataset_size == 1

    def test_episode_record_and_dual_update(self, rng):
        agent = self._agent(rng)
        agent.begin_episode()
        obs = _Obs(np.zeros(STATE_DIM))
        before = agent.lagrangian.value
        for _ in range(10):
            agent.act(obs)
            agent.observe(-0.3, 0.2, 0.3)  # violating costs
        record = agent.end_episode()
        assert record.mean_cost == pytest.approx(0.2)
        assert agent.lagrangian.value > before

    def test_maybe_update_threshold(self, rng):
        agent = self._agent(rng)
        agent.update_threshold = 5
        agent.begin_episode()
        obs = _Obs(np.zeros(STATE_DIM))
        for _ in range(4):
            agent.act(obs)
            agent.observe(-0.3, 0.0, 0.3)
        agent.end_episode()
        assert agent.maybe_update() is None
        agent.begin_episode()
        for _ in range(4):
            agent.act(obs)
            agent.observe(-0.3, 0.0, 0.3)
        agent.end_episode()
        stats = agent.maybe_update()
        assert stats is not None and len(agent.buffer) == 0
