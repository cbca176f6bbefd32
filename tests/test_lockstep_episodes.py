"""Every episode is a lockstep episode.

``OnSlicingOrchestrator.run_episode`` and figures 14, 15, 17, 18 and
19 drive their worlds through :func:`repro.engine.policies.lockstep`
(the orchestrator is its own batch policy; each figure is a batch
policy plus a slot consumer).  The per-slice dict loops over
``ScenarioSimulator.step`` they replaced are kept here verbatim as the
oracles: learning runs must leave every weight, generator, statistic
and interaction count where the old loop left them, and every figure
series must serialise to the same bytes.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from typing import Dict, List, Optional

import numpy as np
import pytest

from repro.config import (
    ExperimentConfig,
    NetworkConfig,
    SliceSpec,
    TrafficConfig,
    default_slice_specs,
    lte_ran_config,
    nr_ran_config,
)
from repro.core.orchestrator import (
    DomainManagerSet,
    OnSlicingOrchestrator,
    coordinate_actions,
)
from repro.experiments import figures
from repro.experiments.harness import (
    build_onslicing,
    fit_baselines,
    run_online_phase,
    test_performance as run_test_performance,
)
from repro.experiments.metrics import cdf, usage_percent
from repro.runtime.serialization import to_jsonable
from repro.runtime.units import schedule_epochs as _schedule
from repro.sim.env import ScenarioSimulator
from repro.sim.network import CONSTRAINED_RESOURCES

_Config = ExperimentConfig
_SLOTS = 6


# ---- the parent loops, verbatim ---------------------------------------


def parent_run_episode(self, deterministic: bool = False,
                       learn: bool = True) -> Dict[str, object]:
    """``OnSlicingOrchestrator.run_episode`` before it moved onto
    ``lockstep``."""
    simulator = self.simulator
    observations = simulator.reset()
    for agent in self.agents.values():
        agent.begin_episode()
    episode_interactions: List[int] = []
    mod_cfg = self.cfg.agent.modifier
    while not simulator.done:
        proposals = {}
        states = {}
        for name, agent in self.agents.items():
            decision = agent.act(observations[name],
                                 deterministic=deterministic)
            proposals[name] = decision.action
            states[name] = observations[name].vector()
        coordination = coordinate_actions(
            states, proposals, self.agents,
            self.managers.coordinators,
            max_rounds=mod_cfg.max_coordination_rounds,
            tolerance=mod_cfg.tolerance,
            use_projection=mod_cfg.use_projection)
        episode_interactions.append(coordination.rounds)
        results = simulator.step(coordination.actions)
        for name, result in results.items():
            self.agents[name].observe(
                result.reward, result.cost, result.usage,
                executed_action=coordination.actions[name])
            observations[name] = result.observation
        if learn:
            for agent in self.agents.values():
                agent.maybe_update()
    records = {name: agent.end_episode()
               for name, agent in self.agents.items()}
    self.interaction_counts.extend(episode_interactions)
    return {"records": records,
            "mean_interactions": float(
                np.mean(episode_interactions))}


def parent_fig14(cfg: Optional[ExperimentConfig] = None,
                 betas=(0.0, 0.25, 0.5, 0.75)) -> Dict[str, object]:
    cfg = cfg or ExperimentConfig()
    bundle = build_onslicing(cfg)
    simulator = bundle.simulator
    out: Dict[str, object] = {"betas": list(betas)}
    usages: Dict[str, List[float]] = {n: [] for n in bundle.agents}
    violations: Dict[str, List[float]] = {n: [] for n in bundle.agents}
    for beta in betas:
        fixed = {kind: float(beta) for kind in CONSTRAINED_RESOURCES}
        observations = simulator.reset()
        totals = {n: {"cost": 0.0, "usage": 0.0} for n in bundle.agents}
        while not simulator.done:
            actions = {}
            for name, agent in bundle.agents.items():
                proposal = agent.baseline.act(observations[name])
                actions[name] = agent.modifier.modify(
                    observations[name].vector(), proposal, fixed)
            results = simulator.step(actions)
            for name, result in results.items():
                totals[name]["cost"] += result.cost
                totals[name]["usage"] += result.usage
                observations[name] = result.observation
        for spec in cfg.slices:
            horizon = simulator.horizon
            usages[spec.name].append(usage_percent(
                totals[spec.name]["usage"] / horizon))
            violations[spec.name].append(100.0 * float(
                spec.sla.violated(totals[spec.name]["cost"] / horizon)))
    out["usage_pct"] = usages
    out["violation_pct"] = violations
    return out


def parent_fig15(scale: float = 0.25,
                 cfg: Optional[ExperimentConfig] = None
                 ) -> Dict[str, object]:
    from repro.config import ACTION_NAMES

    cfg = cfg or ExperimentConfig()
    epochs = _schedule(scale, 30)
    bundle = build_onslicing(cfg)
    run_online_phase(bundle, epochs=epochs, episodes_per_epoch=2)
    simulator = bundle.simulator
    observations = simulator.reset()
    sums = {n: np.zeros(len(ACTION_NAMES)) for n in bundle.agents}
    count = 0
    while not simulator.done:
        actions = {}
        for name, agent in bundle.agents.items():
            actions[name] = agent.model.mean_action(
                observations[name].vector())
            sums[name] += actions[name]
        results = simulator.step(actions)
        for name, result in results.items():
            observations[name] = result.observation
        count += 1
    return {
        "resources": list(ACTION_NAMES),
        "allocations_pct": {
            name: list(100.0 * total / count)
            for name, total in sums.items()},
    }


def parent_fig17(episodes: int = 1) -> Dict[str, object]:
    out: Dict[str, object] = {}
    for label, ran in (("LTE", lte_ran_config()),
                       ("NR", nr_ran_config())):
        cfg = ExperimentConfig(network=NetworkConfig(ran=ran))
        simulator = ScenarioSimulator(cfg)
        baselines = fit_baselines(cfg)
        ratios: Dict[str, List[float]] = {
            n: [] for n in simulator.slice_names}
        for _ in range(episodes):
            observations = simulator.reset()
            while not simulator.done:
                actions = {n: baselines[n].act(observations[n])
                           for n in simulator.slice_names}
                results = simulator.step(actions)
                for name, result in results.items():
                    ratios[name].append(
                        result.report.performance.satisfaction)
                    observations[name] = result.observation
        for name, values in ratios.items():
            out[f"{label}, {name}"] = cdf(values)
    return out


def parent_fig18(scale: float = 0.25,
                 user_counts=(1, 10, 20, 30)) -> Dict[str, object]:
    cfg = ExperimentConfig()
    epochs = _schedule(scale, 20)
    bundle = build_onslicing(cfg)
    run_online_phase(bundle, epochs=epochs, episodes_per_epoch=2)
    out: Dict[str, object] = {"users": list(user_counts),
                              "usage_pct": [], "violation_pct": []}
    simulator = bundle.simulator
    mar_spec = simulator.network.slices["MAR"]
    for users in user_counts:
        factor = users / 20.0
        observations = simulator.reset()
        simulator._traces["MAR"] = simulator._traces["MAR"] * factor
        total_cost, total_usage = 0.0, 0.0
        while not simulator.done:
            actions = {}
            for name, agent in bundle.agents.items():
                actions[name] = agent.model.mean_action(
                    observations[name].vector())
            results = simulator.step(actions)
            total_cost += results["MAR"].cost
            total_usage += results["MAR"].usage
            for name, result in results.items():
                observations[name] = result.observation
        horizon = simulator.horizon
        out["usage_pct"].append(usage_percent(total_usage / horizon))
        out["violation_pct"].append(100.0 * float(
            mar_spec.sla.violated(total_cost / horizon)))
    return out


class _ModifierProxy:
    """Minimal agent-like wrapper exposing a shared modifier."""

    def __init__(self, modifier) -> None:
        self.modifier = modifier


def parent_fig19(slice_counts=(9, 15, 21, 27),
                 episodes: int = 1) -> Dict[str, object]:
    template_cfg = ExperimentConfig()
    template = build_onslicing(template_cfg)
    modifiers = {spec.app: template.agents[spec.name].modifier
                 for spec in template_cfg.slices}
    baselines = {spec.app: template.baselines[spec.name]
                 for spec in template_cfg.slices}
    out: Dict[str, object] = {"slices": list(slice_counts),
                              "interactions": []}
    base_specs = default_slice_specs()
    for count in slice_counts:
        replicas: List[SliceSpec] = []
        per_type = count // len(base_specs)
        for spec in base_specs:
            for i in range(per_type):
                replicas.append(dataclasses.replace(
                    spec, name=f"{spec.name}-{i}",
                    max_arrival_rate=spec.max_arrival_rate
                    * len(base_specs) / count))
        cfg = template_cfg.replace(slices=tuple(replicas))
        simulator = ScenarioSimulator(cfg)
        coordinators = DomainManagerSet.for_simulator(
            simulator).coordinators
        agents = {spec.name: _ModifierProxy(modifiers[spec.app])
                  for spec in replicas}
        rounds: List[int] = []
        for _ in range(episodes):
            observations = simulator.reset()
            while not simulator.done:
                proposals = {
                    spec.name: baselines[spec.app].act(
                        observations[spec.name])
                    for spec in replicas
                }
                states = {name: observations[name].vector()
                          for name in proposals}
                coordination = coordinate_actions(
                    states, proposals, agents, coordinators)
                rounds.append(coordination.rounds)
                results = simulator.step(coordination.actions)
                for name, result in results.items():
                    observations[name] = result.observation
        out["interactions"].append(float(np.mean(rounds)))
    return out


# ---- helpers -------------------------------------------------------------


def short_config(**kwargs) -> ExperimentConfig:
    """``ExperimentConfig(**kwargs)`` at a ``_SLOTS``-slot horizon."""
    return _Config(traffic=TrafficConfig(slots_per_episode=_SLOTS),
                   **kwargs)


@pytest.fixture
def short_horizon(monkeypatch):
    """Every ``ExperimentConfig()`` the figures (and the oracles) build
    is a short-horizon one."""
    monkeypatch.setattr(figures, "ExperimentConfig", short_config)
    monkeypatch.setattr(sys.modules[__name__], "ExperimentConfig",
                        short_config)


def _dump(series) -> str:
    return json.dumps(to_jsonable(series))


def _scenario_config(name: str) -> ExperimentConfig:
    from repro import scenarios

    cfg = scenarios.get(name).build_config(seed=5)
    return cfg.replace(traffic=dataclasses.replace(
        cfg.traffic, slots_per_episode=_SLOTS + 2))


def _learning_run(variant: str, scenario: Optional[str], oracle: bool,
                  monkeypatch):
    """Build, train 2 epochs of 2 episodes and test one episode, with
    PPO updates firing mid-episode; returns what the run left behind."""
    with monkeypatch.context() as patch:
        if oracle:
            patch.setattr(OnSlicingOrchestrator, "run_episode",
                          parent_run_episode)
        cfg = (short_config(seed=5) if scenario is None else
               _scenario_config(scenario))
        bundle = build_onslicing(cfg, variant=variant,
                                 offline_episodes=1,
                                 exploration_episodes=1,
                                 scenario=scenario)
        for agent in bundle.agents.values():
            agent.update_threshold = 5
        trajectory = run_online_phase(bundle, epochs=2,
                                      episodes_per_epoch=2,
                                      estimator_refresh_every=1)
        tested = run_test_performance(bundle, episodes=1)
    orchestrator = bundle.orchestrator
    return {
        "trajectory": repr(trajectory),
        "tested": repr(tested),
        "epochs": repr(orchestrator.epoch_history),
        "interactions": list(orchestrator.interaction_counts),
        "world": bundle.simulator._rng.bit_generator.state,
        "agents": {
            name: (agent.model.state_dict(),
                   agent.estimator.network.state_dict(),
                   agent._rng.bit_generator.state,
                   agent.lagrangian.value, agent.updates_run,
                   repr(agent.episodes))
            for name, agent in bundle.agents.items()},
    }


def _assert_same_state(got, want) -> None:
    assert got["trajectory"] == want["trajectory"]
    assert got["tested"] == want["tested"]
    assert got["epochs"] == want["epochs"]
    assert got["interactions"] == want["interactions"]
    assert got["world"] == want["world"]
    assert list(got["agents"]) == list(want["agents"])
    for name, (model, estimator, rng, multiplier, updates,
               episodes) in want["agents"].items():
        g_model, g_estimator, g_rng, g_mult, g_updates, g_episodes = \
            got["agents"][name]
        for mine, theirs in ((g_model, model), (g_estimator, estimator)):
            assert list(mine) == list(theirs), name
            for key in theirs:
                assert np.array_equal(mine[key], theirs[key]), (name, key)
        assert (g_rng, g_mult, g_updates, g_episodes) == \
            (rng, multiplier, updates, episodes), name


# ---- the orchestrator ---------------------------------------------------


@pytest.mark.parametrize("variant, scenario", [
    ("full", None),
    ("md_noise", None),            # pi_a draws noise while coordinating
    ("projection", None),
    ("full", "transport_brownout"),
])
def test_orchestrator_matches_the_parent_loop(variant, scenario,
                                              monkeypatch):
    want = _learning_run(variant, scenario, True, monkeypatch)
    got = _learning_run(variant, scenario, False, monkeypatch)
    assert sum(updates for *_, updates, _ in
               got["agents"].values()) > 0     # PPO ran mid-episode
    _assert_same_state(got, want)


# ---- the figures --------------------------------------------------------


@pytest.mark.parametrize("name, kwargs", [
    ("fig14", {"cfg": None, "betas": (0.0, 0.5)}),
    ("fig15", {"scale": 0.02, "cfg": None}),
    ("fig17", {"episodes": 2}),
    ("fig18", {"scale": 0.02, "user_counts": (1, 30)}),
    ("fig19", {"slice_counts": (3, 6), "episodes": 2}),
])
def test_figure_matches_the_parent_loop(name, kwargs, short_horizon):
    if "cfg" in kwargs:
        kwargs = dict(kwargs, cfg=short_config())
    want = globals()[f"parent_{name}"](**kwargs)
    got = getattr(figures, name)(**kwargs)
    assert _dump(got) == _dump(want)


# ---- fig19 refuses what it cannot replicate ----------------------------


@pytest.mark.parametrize("counts, bad", [((9, 10), 10), ((1,), 1),
                                         ((0, 9), 0), ((-3,), -3)])
def test_fig19_refuses_counts_it_cannot_replicate(counts, bad,
                                                  monkeypatch):
    def no_training(*_args, **_kwargs):
        raise AssertionError("trained before checking the counts")

    monkeypatch.setattr(figures, "build_onslicing", no_training)
    with pytest.raises(ValueError, match=f"slice count {bad} is not"):
        figures.fig19(slice_counts=counts)
