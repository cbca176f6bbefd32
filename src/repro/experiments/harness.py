"""Method builders and phase runners for the evaluation.

The harness assembles each comparison method exactly as Sec. 7.1
describes and exposes three phases:

* ``build_onslicing``   -- offline stage (baseline fit, rollouts, BC,
  pi_phi, surrogate, pi_a), returning a ready orchestrator bundle;
* ``run_online_phase``  -- the online learning phase, recording the
  per-epoch trajectory;
* ``test_performance``  -- deterministic post-convergence evaluation
  (Table 1's "test performances").

Baseline policies go through the shared runtime result cache so the
grid search runs once per process -- and once per *machine* when a
cache directory is configured (see :mod:`repro.runtime.cache`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.baselines.model_based import ModelBasedPolicy
from repro.baselines.onrl import OnRLAgent, OnRLConfig
from repro.baselines.rule_based import (
    RuleBasedPolicy,
    fit_rule_based_policy,
)
from repro.config import (
    ENGINES,
    ExperimentConfig,
    NUM_ACTIONS,
    SwitchingConfig,
)
from repro.core.agent import OnSlicingAgent
from repro.core.offline import (
    OfflineDataset,
    collect_baseline_rollouts,
    pretrain_agent,
)
from repro.core.orchestrator import DomainManagerSet, OnSlicingOrchestrator
from repro.engine.batch import BatchSimulator
from repro.engine.policies import (
    RoutedBatchPolicy,
    episode_totals,
    lockstep,
)
from repro.experiments.metrics import (
    MethodResult,
    TrajectoryPoint,
    online_phase_summary,
    usage_percent,
    violation_percent,
)
from repro.sim.env import STATE_DIM, ScenarioSimulator


def resolve_scenario(scenario):
    """Normalise a scenario reference to a spec (or ``None``).

    Accepts a registered scenario name, a
    :class:`~repro.scenarios.spec.ScenarioSpec`, or ``None`` (the plain
    paper world described entirely by the config).
    """
    if scenario is None:
        return None
    if isinstance(scenario, str):
        from repro import scenarios

        return scenarios.get(scenario)
    return scenario


def make_simulator(cfg: ExperimentConfig,
                   scenario=None) -> ScenarioSimulator:
    """Build the simulator for ``cfg``, honouring a scenario's traffic
    model and event timeline when one is named."""
    spec = resolve_scenario(scenario)
    if spec is None:
        return ScenarioSimulator(cfg)
    return spec.build_simulator(cfg)


def make_simulators(cfg: ExperimentConfig, scenario=None,
                    count: int = 1) -> List[ScenarioSimulator]:
    """``count`` independent worlds of one scenario/config.

    World seeds derive from ``cfg.seed`` through
    :class:`numpy.random.SeedSequence` spawns (documented-stable), so
    world ``i`` sees the same traffic regardless of the batch size it
    runs in.  World 0 keeps the plain ``default_rng(cfg.seed)`` stream
    so a 1-world batch is the scalar simulator, bit for bit.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    spec = resolve_scenario(scenario)
    sims: List[ScenarioSimulator] = []
    seeds = np.random.SeedSequence(cfg.seed).spawn(count)
    for index in range(count):
        rng = (np.random.default_rng(cfg.seed) if index == 0
               else np.random.default_rng(seeds[index]))
        if spec is None:
            sims.append(ScenarioSimulator(cfg, rng=rng))
        else:
            sims.append(spec.build_simulator(cfg, rng=rng))
    return sims


def run_episodes(simulators: List[ScenarioSimulator], policy,
                 episodes: int = 1, engine: str = "vector",
                 project: bool = True
                 ) -> List[List[Dict[str, Dict[str, float]]]]:
    """Run every world for ``episodes`` episodes under one policy.

    The workhorse of batched evaluation: ``policy`` is a
    :class:`~repro.engine.policies.BatchPolicy` (stacked observations
    in, stacked actions out) driven through
    :func:`~repro.engine.policies.lockstep`.
    ``engine`` only picks the batch width: ``"vector"`` advances all
    worlds in one :class:`~repro.engine.batch.BatchSimulator`,
    ``"scalar"`` runs the same loop once per world.  A world steps
    bit-identically alone and inside a batch, so the results are equal
    -- the parity suite asserts it.

    Returns ``result[world][episode][slice] == {"cost": total,
    "usage": total}`` (sum over the episode's slots).
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected "
                         f"one of {ENGINES}")
    batches = ([[sim] for sim in simulators] if engine == "scalar"
               else [simulators])
    results: List[List[Dict[str, Dict[str, float]]]] = []
    for worlds in batches:
        results += episode_totals(
            lockstep(BatchSimulator(worlds), policy, episodes, project),
            len(worlds))
    return results


def fit_baselines(cfg: ExperimentConfig,
                  use_cache: bool = True) -> Dict[str, RuleBasedPolicy]:
    """Grid-search the rule-based baseline for every slice (cached).

    Fitted policies go through the shared runtime result cache
    (:func:`repro.runtime.cache.shared_cache`), keyed by the slice
    spec, the network config and the code version: repeated calls in
    one process return the same objects, and when a disk directory is
    configured (CLI runs, parallel workers) the grid search is shared
    across processes as well.
    """
    # Imported here, not at module top: repro.runtime.serialization
    # depends on this package, so a top-level import would be circular.
    from repro.runtime.cache import (
        MISSING,
        code_version,
        content_key,
        shared_cache,
    )

    policies = {}
    cache = shared_cache()
    for spec in cfg.slices:
        key = content_key({
            "kind": "rule_based_policy",
            "slice": dataclasses.asdict(spec),
            "network": dataclasses.asdict(cfg.network),
            "code_version": code_version(),
        })
        if use_cache:
            hit = cache.fetch(key)
            if hit is not MISSING:
                policies[spec.name] = hit
                continue
        policy = fit_rule_based_policy(spec, cfg.network)
        if use_cache:
            cache.put(key, policy)
        policies[spec.name] = policy
    return policies


@dataclass
class OnSlicingBundle:
    """Everything needed to run/evaluate OnSlicing on one scenario."""

    cfg: ExperimentConfig
    simulator: ScenarioSimulator
    baselines: Dict[str, RuleBasedPolicy]
    agents: Dict[str, OnSlicingAgent]
    orchestrator: OnSlicingOrchestrator
    datasets: Dict[str, OfflineDataset]
    pretrain_reports: Dict[str, object]


def build_onslicing(cfg: Optional[ExperimentConfig] = None,
                    variant: str = "full",
                    offline_episodes: int = 4,
                    exploration_episodes: int = 6,
                    seed: int = 42,
                    scenario=None) -> OnSlicingBundle:
    """Run the offline stage and assemble an OnSlicing deployment.

    ``variant`` selects the ablations of Tables 2/3:

    * ``full``        -- the complete system;
    * ``nb``          -- OnSlicing-NB: no baseline switching;
    * ``ne``          -- OnSlicing-NE: reactive switch (no estimator);
    * ``est_noise``   -- Gaussian noise (std 1.0) on pi_phi's output;
    * ``projection``  -- projection instead of the action modifier;
    * ``md_noise``    -- Gaussian noise (std 1.0) on pi_a's output.

    ``scenario`` (a registered name or
    :class:`~repro.scenarios.spec.ScenarioSpec`) drives offline *and*
    online phases with the scenario's traffic model and event timeline;
    its config is used when ``cfg`` is not given.
    """
    scenario = resolve_scenario(scenario)
    if cfg is None:
        cfg = (scenario.build_config() if scenario is not None
               else ExperimentConfig())
    agent_cfg = cfg.agent
    if variant == "nb":
        agent_cfg = dataclasses.replace(
            agent_cfg, switching=SwitchingConfig(enabled=False))
    elif variant == "ne":
        agent_cfg = dataclasses.replace(
            agent_cfg, switching=SwitchingConfig(use_estimator=False))
    elif variant == "est_noise":
        agent_cfg = dataclasses.replace(
            agent_cfg,
            switching=SwitchingConfig(estimator_noise_std=1.0))
    elif variant == "projection":
        agent_cfg = dataclasses.replace(
            agent_cfg, modifier=dataclasses.replace(
                agent_cfg.modifier, use_projection=True))
    elif variant == "md_noise":
        agent_cfg = dataclasses.replace(
            agent_cfg, modifier=dataclasses.replace(
                agent_cfg.modifier, modifier_noise_std=1.0))
    elif variant != "full":
        raise ValueError(f"unknown OnSlicing variant {variant!r}")
    cfg = cfg.replace(agent=agent_cfg)

    simulator = make_simulator(cfg, scenario)
    baselines = fit_baselines(cfg)
    rng = np.random.default_rng(seed)
    datasets = collect_baseline_rollouts(
        simulator, baselines, num_episodes=offline_episodes)
    exploration = collect_baseline_rollouts(
        simulator, baselines, num_episodes=exploration_episodes,
        exploration_std=0.12, rng=rng)
    agents: Dict[str, OnSlicingAgent] = {}
    reports: Dict[str, object] = {}
    for spec in cfg.slices:
        # str hash() is process-salted (PYTHONHASHSEED); use a stable
        # per-slice offset so runs are reproducible across processes.
        name_offset = sum(ord(ch) for ch in spec.name) % 1000
        agent = OnSlicingAgent(
            spec.name, baselines[spec.name], simulator.horizon,
            spec.sla.cost_threshold, cfg=cfg.agent,
            rng=np.random.default_rng(seed + name_offset))
        reports[spec.name] = pretrain_agent(
            agent, datasets[spec.name],
            exploration_dataset=exploration[spec.name])
        agents[spec.name] = agent
    orchestrator = OnSlicingOrchestrator(simulator, agents, cfg=cfg)
    return OnSlicingBundle(cfg=cfg, simulator=simulator,
                           baselines=baselines, agents=agents,
                           orchestrator=orchestrator,
                           datasets=datasets, pretrain_reports=reports)


def run_online_phase(bundle: OnSlicingBundle, epochs: int = 12,
                     episodes_per_epoch: int = 3,
                     estimator_refresh_every: int = 4
                     ) -> List[TrajectoryPoint]:
    """Run the online learning phase, returning the epoch trajectory."""
    trajectory: List[TrajectoryPoint] = []
    for epoch in range(epochs):
        stats = bundle.orchestrator.run_epoch(
            episodes=episodes_per_epoch)
        if estimator_refresh_every and \
                epoch % estimator_refresh_every == estimator_refresh_every - 1:
            bundle.orchestrator.refresh_estimators()
        trajectory.append(TrajectoryPoint(
            epoch=epoch, mean_usage=stats.mean_usage,
            mean_cost=stats.mean_cost,
            violation_rate=stats.violation_rate,
            mean_interactions=stats.mean_interactions,
            switch_rate=stats.switch_rate,
            per_slice_usage=stats.per_slice_usage,
            per_slice_violation=stats.per_slice_violation))
    return trajectory


def test_performance(bundle: OnSlicingBundle, episodes: int = 3
                     ) -> MethodResult:
    """Deterministic post-training evaluation (Table 1 protocol)."""
    stats = bundle.orchestrator.run_epoch(
        episodes=episodes, deterministic=True, learn=False)
    return MethodResult(
        method="OnSlicing",
        avg_resource_usage=usage_percent(stats.mean_usage),
        avg_sla_violation=violation_percent(stats.violation_rate),
        mean_interactions=stats.mean_interactions,
        per_slice_usage=stats.per_slice_usage,
        per_slice_violation=stats.per_slice_violation)


# ---- static policies (Baseline / Model_Based) -------------------------


def episode_verdicts(cfg: ExperimentConfig,
                     totals: Dict[str, Dict[str, float]],
                     horizon: int) -> Tuple[List[float], List[float]]:
    """One episode's per-slice mean usage and SLA verdict (1.0 =
    violated), both in ``cfg.slices`` order, from its totals."""
    usages = [totals[spec.name]["usage"] / horizon
              for spec in cfg.slices]
    violations = [float(spec.sla.violated(
        totals[spec.name]["cost"] / horizon)) for spec in cfg.slices]
    return usages, violations


def evaluate_static_policies(cfg: ExperimentConfig,
                             policies: Dict[str, object],
                             episodes: int = 3,
                             method: str = "Baseline",
                             scenario=None) -> MethodResult:
    """Run observation->action policies with projection for capacity.

    Used for both the rule-based Baseline and Model_Based -- the two
    non-learning comparison methods, which resolve over-requests with
    the projection method (paper Sec. 7.1): :func:`run_episodes` on
    the one world of ``cfg``/``scenario``, folded per slice.
    """
    simulator = make_simulator(cfg, scenario)
    world, = run_episodes([simulator], RoutedBatchPolicy(policies),
                          episodes=episodes)
    usages, violations = zip(*(
        episode_verdicts(cfg, totals, simulator.horizon)
        for totals in world))
    # per slice, the mean over its episodes
    per_usage = {spec.name: float(np.mean(column))
                 for spec, column in zip(cfg.slices, zip(*usages))}
    per_viol = {spec.name: float(np.mean(column))
                for spec, column in zip(cfg.slices, zip(*violations))}
    return MethodResult(
        method=method,
        avg_resource_usage=usage_percent(
            float(np.mean(list(per_usage.values())))),
        avg_sla_violation=violation_percent(
            float(np.mean(list(per_viol.values())))),
        per_slice_usage=per_usage,
        per_slice_violation=per_viol)


def make_model_based_policies(cfg: ExperimentConfig
                              ) -> Dict[str, ModelBasedPolicy]:
    return {spec.name: ModelBasedPolicy(spec, cfg.network)
            for spec in cfg.slices}


# ---- OnRL ------------------------------------------------------------


def make_onrl_agents(cfg: ExperimentConfig, seed: int = 17,
                     onrl_cfg: Optional[OnRLConfig] = None
                     ) -> Dict[str, OnRLAgent]:
    """Per-slice learn-from-scratch OnRL agents (paper Sec. 7.1)."""
    return {
        spec.name: OnRLAgent(
            spec.name, STATE_DIM, NUM_ACTIONS, cfg=onrl_cfg,
            rng=np.random.default_rng(seed + i))
        for i, spec in enumerate(cfg.slices)
    }


def _onrl_learning(batch: BatchSimulator, agents: Dict[str, OnRLAgent],
                   episodes: int):
    """:func:`~repro.engine.policies.lockstep` of ``batch`` for
    ``episodes`` episodes under the OnRL ``agents``' sampled actions,
    learning in the consumer.

    Every world manages the same slices, so slice ``j``'s rows of a
    slot are ``j::S``: each agent samples its rows (one per world) in
    one forward, the joint rows are projected per world, and once the
    step is taken each agent observes its rows.  The worlds share one
    horizon, so they end their episodes together; each agent then
    finalises its worlds' episodes and may update, before the loop
    resets them.
    """
    names = batch.slice_names(0)
    lanes = [(agents[name], slice(j, None, len(names)))
             for j, name in enumerate(names)]

    def sample(states: np.ndarray, _names) -> np.ndarray:
        actions = np.empty((len(states), NUM_ACTIONS))
        for agent, rows in lanes:
            actions[rows] = agent.sample_rows(states[rows])
        return actions

    for slot in lockstep(batch, SimpleNamespace(act_batch=sample),
                         episodes):
        step = slot[2]
        for agent, rows in lanes:
            agent.observe_rows(step.rewards[rows], step.costs[rows])
        if any(step.dones):
            for agent, _ in lanes:
                agent.end_episode()
        yield slot


def _verdict_means(cfg: ExperimentConfig, episodes,
                   horizon: int) -> Tuple[float, float]:
    """Mean per-slice usage and SLA-violation rate over episode totals
    (folded episode by episode, slices in ``cfg.slices`` order)."""
    usages: List[float] = []
    violations: List[float] = []
    for totals in episodes:
        used, violated = episode_verdicts(cfg, totals, horizon)
        usages += used
        violations += violated
    return float(np.mean(usages)), float(np.mean(violations))


def train_onrl(cfg: ExperimentConfig, epochs: int = 12,
               episodes_per_epoch: int = 3, seed: int = 17,
               onrl_cfg: Optional[OnRLConfig] = None,
               scenario=None, envs: int = 1) -> Dict[str, object]:
    """The OnRL online phase, returning the trained agents.

    The "train once" half of the snapshot path: the policy store
    snapshots the returned agents and later runs (robustness sweeps,
    the decision service) evaluate from the snapshot instead of
    retraining.  Returns ``{"agents", "simulator", "trajectory"}``.

    ``envs`` worlds (world 0 the plain ``cfg.seed`` world, the others
    seeded from its spawns) each run ``epochs * episodes_per_epoch``
    episodes through one lockstep loop (:func:`_onrl_learning`): one
    batched forward per agent and slot, and at every episode boundary
    at most one PPO update per agent over all worlds' finished
    episodes.  One world is the one-row case of the same loop, so
    ``envs`` changes how much experience an episode brings, not the
    code that learns from it.
    """
    if envs < 1:
        raise ValueError("envs must be >= 1")
    agents = make_onrl_agents(cfg, seed=seed, onrl_cfg=onrl_cfg)
    simulators = make_simulators(cfg, scenario, count=envs)
    worlds = episode_totals(_onrl_learning(
        BatchSimulator(simulators), agents, epochs * episodes_per_epoch),
        envs)
    trajectory: List[TrajectoryPoint] = []
    for epoch in range(epochs):
        episodes = range(epoch * episodes_per_epoch,
                         (epoch + 1) * episodes_per_epoch)
        usage, violation = _verdict_means(
            cfg, [world[k] for k in episodes for world in worlds],
            simulators[0].horizon)
        trajectory.append(TrajectoryPoint(
            epoch=epoch, mean_usage=usage, mean_cost=0.0,
            violation_rate=violation))
    return {"agents": agents, "simulator": simulators[0],
            "trajectory": trajectory}


def run_onrl_phase(cfg: Optional[ExperimentConfig] = None,
                   epochs: int = 12, episodes_per_epoch: int = 3,
                   seed: int = 17,
                   onrl_cfg: Optional[OnRLConfig] = None,
                   scenario=None) -> MethodResult:
    """Train OnRL from scratch and return trajectory + test metrics.

    OnRL agents act independently and over-requests are resolved with
    projection -- no modifier, no switching, fixed penalty weight.  The
    test is three deterministic episodes of the trained world under
    the agents' mean actions (:meth:`OnRLAgent.act_rows`, which learns
    nothing), through :func:`run_episodes`.
    """
    scenario = resolve_scenario(scenario)
    if cfg is None:
        cfg = (scenario.build_config() if scenario is not None
               else ExperimentConfig())
    trained = train_onrl(cfg, epochs=epochs,
                         episodes_per_epoch=episodes_per_epoch,
                         seed=seed, onrl_cfg=onrl_cfg,
                         scenario=scenario)
    simulator = trained["simulator"]
    world, = run_episodes([simulator],
                          RoutedBatchPolicy(trained["agents"]), episodes=3)
    usage, violation = _verdict_means(cfg, world, simulator.horizon)
    return MethodResult(
        method="OnRL",
        avg_resource_usage=usage_percent(usage),
        avg_sla_violation=violation_percent(violation),
        trajectory=trained["trajectory"])
