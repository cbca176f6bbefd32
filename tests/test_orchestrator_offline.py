"""Integration tests: offline stage, coordination, online orchestrator.

Run on a short-horizon scenario so the whole file stays fast while
still covering the agent/manager interplay end to end.
"""

import numpy as np
import pytest

from repro.baselines.rule_based import GridSearchConfig, \
    fit_rule_based_policy
from repro.config import ExperimentConfig, NUM_ACTIONS, TrafficConfig
from repro.core.agent import OnSlicingAgent
from repro.core.offline import (
    OfflineDataset,
    collect_baseline_rollouts,
    pretrain_agent,
)
from repro.core.orchestrator import (
    OnSlicingOrchestrator,
    coordinate_actions,
)
from repro.domains.coordinator import ParameterCoordinator
from repro.sim.env import ScenarioSimulator
from repro.sim.network import CONSTRAINED_RESOURCES


@pytest.fixture(scope="module")
def setup():
    """One pretrained 3-agent deployment on a 12-slot scenario."""
    cfg = ExperimentConfig(
        traffic=TrafficConfig(slots_per_episode=12), seed=3)
    simulator = ScenarioSimulator(cfg)
    search = GridSearchConfig(bin_edges=(0.5, 1.3), eval_slots=2)
    baselines = {s.name: fit_rule_based_policy(s, cfg.network,
                                               search_cfg=search)
                 for s in cfg.slices}
    pure = collect_baseline_rollouts(simulator, baselines,
                                     num_episodes=3)
    jitter = collect_baseline_rollouts(simulator, baselines,
                                       num_episodes=3,
                                       exploration_std=0.1)
    agents = {}
    for s in cfg.slices:
        agent = OnSlicingAgent(
            s.name, baselines[s.name], simulator.horizon,
            s.sla.cost_threshold, cfg=cfg.agent,
            rng=np.random.default_rng(1))
        pretrain_agent(agent, pure[s.name], bc_epochs=20,
                       exploration_dataset=jitter[s.name])
        agents[s.name] = agent
    orchestrator = OnSlicingOrchestrator(simulator, agents, cfg=cfg)
    return cfg, simulator, baselines, agents, orchestrator


class TestOfflineStage:
    def test_dataset_episode_bounds(self, setup):
        cfg, simulator, baselines, *_ = setup
        datasets = collect_baseline_rollouts(simulator, baselines,
                                             num_episodes=2)
        for dataset in datasets.values():
            assert len(dataset) == 2 * simulator.horizon
            assert dataset.episode_bounds == [simulator.horizon,
                                              2 * simulator.horizon]
            episodes = list(dataset.episodes())
            assert len(episodes) == 2

    def test_expert_labels_preserved_under_jitter(self, setup):
        cfg, simulator, baselines, *_ = setup
        datasets = collect_baseline_rollouts(
            simulator, baselines, num_episodes=1,
            exploration_std=0.2)
        for dataset in datasets.values():
            executed = np.stack(dataset.actions)
            expert = np.stack(dataset.expert_actions)
            assert not np.allclose(executed, expert)
            assert np.all((expert >= 0) & (expert <= 1))

    def test_pretrain_rejects_empty(self, setup):
        *_, agents, _orch = setup
        agent = list(agents.values())[0]
        with pytest.raises(ValueError):
            pretrain_agent(agent, OfflineDataset(
                *[np.empty(0)] * 6, episode_bounds=[]))

    def test_bc_clone_matches_baseline_usage(self, setup):
        """After pretraining the deterministic clone's cost is close
        to the baseline's (the Fig. 10 property)."""
        cfg, simulator, baselines, agents, _orch = setup
        obs = simulator.reset()
        clone_cost, base_cost = 0.0, 0.0
        while not simulator.done:
            actions = {n: agents[n].model.mean_action(obs[n].vector())
                       for n in agents}
            results = simulator.step(actions)
            for n, r in results.items():
                clone_cost += r.cost
                obs[n] = r.observation
        obs = simulator.reset()
        while not simulator.done:
            actions = {n: baselines[n].act(obs[n]) for n in agents}
            results = simulator.step(actions)
            for n, r in results.items():
                base_cost += r.cost
                obs[n] = r.observation
        assert clone_cost <= base_cost + 0.5 * simulator.horizon * 0.05


class TestCoordination:
    def test_feasible_proposals_pass_through(self, setup):
        *_, agents, orch = setup
        states = {n: np.zeros(9) for n in agents}
        proposals = {n: np.full(NUM_ACTIONS, 0.2) for n in agents}
        result = coordinate_actions(states, proposals, agents,
                                    orch.managers.coordinators)
        assert result.rounds == 1
        assert not result.projected
        for name in agents:
            np.testing.assert_array_equal(result.actions[name],
                                          proposals[name])

    def test_over_request_resolved(self, setup):
        *_, agents, orch = setup
        for coordinator in orch.managers.coordinators:
            coordinator.reset()
        states = {n: np.zeros(9) for n in agents}
        proposals = {n: np.full(NUM_ACTIONS, 0.5) for n in agents}
        result = coordinate_actions(states, proposals, agents,
                                    orch.managers.coordinators,
                                    max_rounds=12)
        totals = {
            kind: sum(result.actions[n][idx] for n in agents)
            for kind, idx in CONSTRAINED_RESOURCES.items()}
        for kind, total in totals.items():
            assert total <= 1.0 + 1e-3, kind
        assert result.rounds >= 2

    def test_projection_variant(self, setup):
        *_, agents, orch = setup
        states = {n: np.zeros(9) for n in agents}
        proposals = {n: np.full(NUM_ACTIONS, 0.5) for n in agents}
        result = coordinate_actions(states, proposals, agents,
                                    orch.managers.coordinators,
                                    use_projection=True)
        assert result.rounds == 1
        for kind, idx in CONSTRAINED_RESOURCES.items():
            total = sum(result.actions[n][idx] for n in agents)
            assert total <= 1.0 + 1e-9

    def test_hard_guarantee_via_fallback(self, setup):
        """Even with zero modifier rounds allowed, capacity holds."""
        *_, agents, orch = setup
        states = {n: np.zeros(9) for n in agents}
        proposals = {n: np.full(NUM_ACTIONS, 0.9) for n in agents}
        result = coordinate_actions(states, proposals, agents,
                                    orch.managers.coordinators,
                                    max_rounds=1)
        for kind, idx in CONSTRAINED_RESOURCES.items():
            total = sum(result.actions[n][idx] for n in agents)
            assert total <= 1.0 + 1e-3


class TestOrchestrator:
    def test_missing_agent_rejected(self, setup):
        cfg, simulator, _baselines, agents, _orch = setup
        partial = dict(list(agents.items())[:1])
        with pytest.raises(ValueError):
            OnSlicingOrchestrator(simulator, partial, cfg=cfg)

    def test_run_episode_records(self, setup):
        *_, orch = setup
        outcome = orch.run_episode(learn=False)
        assert set(outcome["records"]) == set(orch.agents)
        for record in outcome["records"].values():
            assert record.length == orch.simulator.horizon
        assert outcome["mean_interactions"] >= 1.0

    def test_run_epoch_stats(self, setup):
        *_, orch = setup
        stats = orch.run_epoch(episodes=2, learn=False)
        assert 0.0 <= stats.mean_usage <= 1.0
        assert 0.0 <= stats.violation_rate <= 1.0
        assert stats.episodes == 2
        assert set(stats.per_slice_usage) == set(orch.agents)

