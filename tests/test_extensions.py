"""Tests: full-training-state checkpointing of an OnSlicing agent."""

import numpy as np
import pytest

from repro.config import AgentConfig, NUM_ACTIONS, SwitchingConfig
from repro.core.agent import OnSlicingAgent
from repro.core.persistence import load_agent, save_agent
from repro.sim.env import STATE_DIM


class _FixedBaseline:
    def act(self, _obs):
        return np.full(NUM_ACTIONS, 0.4)


def _agent(seed):
    cfg = AgentConfig(switching=SwitchingConfig(use_estimator=False))
    return OnSlicingAgent("S", _FixedBaseline(), horizon=10,
                          cost_threshold=0.05, cfg=cfg,
                          rng=np.random.default_rng(seed))


class TestPersistence:
    def test_roundtrip(self, tmp_path, rng):
        source = _agent(0)
        source.lagrangian.value = 7.5
        source.estimator._target_mean = 1.25
        source.estimator._target_std = 0.5
        path = str(tmp_path / "agent.npz")
        save_agent(source, path)

        target = _agent(99)  # different init
        state = rng.uniform(size=STATE_DIM)
        assert not np.allclose(source.model.mean_action(state),
                               target.model.mean_action(state))
        load_agent(target, path)
        np.testing.assert_allclose(source.model.mean_action(state),
                                   target.model.mean_action(state))
        np.testing.assert_allclose(
            source.modifier.network.predict(
                np.zeros(STATE_DIM + NUM_ACTIONS + 5)),
            target.modifier.network.predict(
                np.zeros(STATE_DIM + NUM_ACTIONS + 5)))
        assert target.lagrangian.value == 7.5
        assert target.estimator._target_mean == 1.25

    def test_architecture_mismatch_rejected(self, tmp_path):
        import dataclasses

        from repro.config import PolicyNetConfig

        source = _agent(0)
        path = str(tmp_path / "agent.npz")
        save_agent(source, path)
        small_cfg = AgentConfig(
            switching=SwitchingConfig(use_estimator=False),
            policy=PolicyNetConfig(hidden_sizes=(16, 8)))
        target = OnSlicingAgent("S", _FixedBaseline(), horizon=10,
                                cost_threshold=0.05, cfg=small_cfg,
                                rng=np.random.default_rng(1))
        with pytest.raises(ValueError):
            load_agent(target, path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_agent(_agent(0), str(tmp_path / "missing.npz"))
