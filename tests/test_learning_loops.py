"""The learners' episode loops are the one lockstep loop.

* The offline pi_b rollouts (``collect_baseline_rollouts``) fill their
  datasets from :func:`repro.engine.policies.lockstep`; the per-slice
  dict loop they replaced is kept here verbatim as the oracle, and the
  two must agree on every dataset field and leave the world's
  generator in the same state.
* OnRL trains through the same loop with learning in a slot consumer:
  every transition a learner observes reaches a PPO update or is still
  buffered, and the deterministic test episodes learn nothing.
"""

import numpy as np
import pytest

from repro import scenarios
from repro.baselines.onrl import OnRLAgent, OnRLConfig
from repro.config import ExperimentConfig, TrafficConfig
from repro.core.offline import OfflineDataset, collect_baseline_rollouts
from repro.experiments import harness
from repro.rl.ppo import PPOTrainer


def parent_collect_baseline_rollouts(simulator, baselines, num_episodes,
                                     exploration_std=0.0, rng=None):
    """The per-slice dict loop over ``ScenarioSimulator.step`` that
    ``collect_baseline_rollouts`` ran before it moved onto
    ``lockstep`` (verbatim)."""
    rng = rng if rng is not None else np.random.default_rng(31)
    datasets = {name: OfflineDataset() for name in simulator.slice_names}
    for _ in range(num_episodes):
        observations = simulator.reset()
        while not simulator.done:
            actions = {}
            expert = {}
            for name in simulator.slice_names:
                label = np.asarray(
                    baselines[name].act(observations[name]), dtype=float)
                expert[name] = label
                action = label
                if exploration_std > 0:
                    action = np.clip(
                        label + rng.normal(0.0, exploration_std,
                                           size=label.shape),
                        0.0, 1.0)
                actions[name] = action
            results = simulator.step(actions)
            for name, result in results.items():
                datasets[name].add(
                    observations[name].vector(), actions[name],
                    result.reward, result.cost, result.usage,
                    expert_action=expert[name])
                observations[name] = result.observation
        for dataset in datasets.values():
            dataset.end_episode()
    return datasets


_FIELDS = ("states", "actions", "expert_actions", "rewards", "costs",
           "usages", "episode_bounds")


class TestRolloutsMatchParentLoop:
    @pytest.mark.parametrize("std", [0.0, 0.12])
    @pytest.mark.parametrize("scenario", ["default", "slice_churn",
                                          "transport_brownout"])
    def test_datasets_and_generators_equal(self, scenario, std):
        spec = scenarios.get(scenario)
        cfg = spec.build_config()
        baselines = harness.fit_baselines(cfg)
        runs = []
        for collect in (parent_collect_baseline_rollouts,
                        collect_baseline_rollouts):
            simulator = harness.make_simulator(cfg, spec)
            rng = np.random.default_rng(42)
            datasets = collect(simulator, baselines, num_episodes=2,
                               exploration_std=std, rng=rng)
            runs.append((datasets, simulator._rng.bit_generator.state,
                         rng.bit_generator.state))
        (want, want_world, want_rng), (got, got_world, got_rng) = runs
        assert list(got) == list(want)
        for name in want:
            for field in _FIELDS:
                a = getattr(want[name], field)
                b = getattr(got[name], field)
                assert len(a) == len(b), (name, field)
                assert all(np.array_equal(x, y) for x, y in zip(a, b)), \
                    (name, field)
        assert got_world == want_world
        assert got_rng == want_rng


def _short_cfg(slots=4):
    return ExperimentConfig().replace(
        traffic=TrafficConfig(slots_per_episode=slots))


class TestOnRLLearner:
    @pytest.mark.parametrize("envs", [1, 3])
    def test_every_observed_transition_is_trained_or_buffered(
            self, monkeypatch, envs):
        """At the parent a PPO update ran mid-slot and its buffer clear
        dropped the in-progress episode: with ``update_threshold=8``,
        six 4-slot episodes observed 24 transitions per agent, trained
        19 and buffered 3."""
        observed, trained = {}, {}
        agents = {}
        observe_rows = OnRLAgent.observe_rows
        update = PPOTrainer.update

        def counting_observe(agent, rewards, costs):
            agents[id(agent)] = agent
            observed[id(agent)] = observed.get(id(agent), 0) + len(costs)
            observe_rows(agent, rewards, costs)

        def counting_update(trainer, batch):
            key = id(trainer)
            trained.setdefault(key, []).append(len(batch["states"]))
            return update(trainer, batch)

        monkeypatch.setattr(OnRLAgent, "observe_rows", counting_observe)
        monkeypatch.setattr(PPOTrainer, "update", counting_update)
        result = harness.train_onrl(
            _short_cfg(), epochs=3, episodes_per_epoch=2, seed=5,
            onrl_cfg=OnRLConfig(update_threshold=8), envs=envs)
        assert set(result["agents"].values()) == set(agents.values())
        for key, agent in agents.items():
            batches = trained.get(id(agent.trainer), [])
            assert len(batches) >= 2 and agent.updates_run == len(batches)
            buffered = sum(len(buffer) + buffer.pending_length
                           for buffer in agent.buffers)
            assert observed[key] == 6 * 4 * envs
            assert sum(batches) + buffered == observed[key]

    def test_test_episodes_change_no_weight_and_buffer_nothing(
            self, monkeypatch):
        """``run_onrl_phase``'s three deterministic test episodes serve
        the mean action: no weight moves, no buffer grows, no learner
        generator draw is made."""
        train = harness.train_onrl
        seen = {}

        def recording_train(*args, **kwargs):
            trained = train(*args, **kwargs)
            seen["agents"] = trained["agents"]
            seen["before"] = {
                name: (agent.state_dict(),
                       [(len(b), b.pending_length)
                        for b in agent.buffers],
                       agent._rng.bit_generator.state)
                for name, agent in trained["agents"].items()}
            return trained

        monkeypatch.setattr(harness, "train_onrl", recording_train)
        result = harness.run_onrl_phase(
            _short_cfg(6), epochs=2, episodes_per_epoch=1, seed=5,
            onrl_cfg=OnRLConfig(update_threshold=6))
        assert 0.0 <= result.avg_resource_usage <= 100.0
        for name, agent in seen["agents"].items():
            weights, buffers, generator = seen["before"][name]
            assert agent.updates_run >= 1
            after = agent.state_dict()
            assert all(np.array_equal(after[key], weights[key])
                       for key in weights)
            assert [(len(b), b.pending_length)
                    for b in agent.buffers] == buffers
            assert agent._rng.bit_generator.state == generator
