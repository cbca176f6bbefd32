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
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.baselines.model_based import ModelBasedPolicy
from repro.baselines.onrl import OnRLAgent, OnRLConfig
from repro.baselines.projection import project_actions
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
    VecOnRLAgent,
    project_actions_batch,
)
from repro.experiments.metrics import (
    MethodResult,
    TrajectoryPoint,
    online_phase_summary,
    usage_percent,
    violation_percent,
)
from repro.sim.env import STATE_DIM, ScenarioSimulator
from repro.sim.network import EndToEndNetwork


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
    in, stacked actions out) driven through :func:`lockstep`.
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
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    batches = ([[sim] for sim in simulators] if engine == "scalar"
               else [simulators])
    results: List[List[Dict[str, Dict[str, float]]]] = []
    for worlds in batches:
        results += episode_totals(
            lockstep(BatchSimulator(worlds), policy, episodes, project),
            len(worlds))
    return results


def lockstep(batch, policy, episodes: int = 1, project: bool = True):
    """The lockstep loop: every world of ``batch`` for ``episodes``
    episodes under one :class:`~repro.engine.policies.BatchPolicy`.

    Per slot the active worlds' observations are stacked, the policy
    is asked once, each world's rows are projected (paper Sec. 4) and
    all of them advance through one ``batch.step``.  Yields
    ``(states, matrix, step)`` per slot -- the observations the policy
    saw, the action matrix that was executed and the
    :class:`~repro.engine.batch.BatchStepResult`, all in
    ``step.worlds`` order with ``step.offsets`` delimiting worlds.
    Once the consumer has folded the slot, a world whose episode ended
    is reset if it has episodes left and retired otherwise, so the
    consumer reads a finished world's simulator before it restarts.

    Between two slots only what a finished world changes is redone:
    the next stacked observations are the step's own, with a reset
    world's rows swapped in and a retired world's dropped, and the
    name list and offsets are rebuilt when a world retires.
    """
    count = batch.num_worlds
    remaining = [episodes - 1] * count
    worlds = list(range(count))
    stacked = np.concatenate([batch.reset_world(b) for b in worlds])
    names = [batch.slice_names(b) for b in worlds]
    flat = offsets = None
    while worlds:
        if flat is None:            # first slot, or a world retired
            flat = list(itertools.chain.from_iterable(names))
            offsets = [0, *itertools.accumulate(map(len, names))]
        matrix = np.asarray(policy.act_batch(stacked, flat),
                            dtype=float)
        if project:
            matrix = project_actions_batch(matrix, offsets)
        actions: List[Optional[np.ndarray]] = [None] * count
        for i, b in enumerate(worlds):
            actions[b] = matrix[offsets[i]:offsets[i + 1]]
        step = batch.step(actions)
        yield stacked, matrix, step
        stacked = step.observations
        if not any(step.dones):
            continue
        pieces, kept, retired = [], 0, []
        for i, done in enumerate(step.dones):
            if not done:
                continue
            pieces.append(stacked[offsets[kept]:offsets[i]])
            kept = i + 1
            b = worlds[i]
            if remaining[b] > 0:
                pieces.append(batch.reset_world(b))
                remaining[b] -= 1
            else:
                retired.append(i)
        pieces.append(stacked[offsets[kept]:])
        stacked = np.concatenate(pieces)
        for i in reversed(retired):
            del worlds[i], names[i]
            flat = None


def episode_totals(slots, num_worlds: int
                   ) -> List[List[Dict[str, Dict[str, float]]]]:
    """Fold :func:`lockstep` slots into ``run_episodes``' result:
    per world, per episode, per slice ``{"cost", "usage"}`` sums.

    Each slot's cost and usage vectors are added, element by element,
    onto running totals laid out like the step's rows (the same
    ``+=`` in slot order a per-slice loop makes, so every total is
    the same float); a world's dicts are built when its episode ends.
    """
    results: List[List[Dict]] = [[] for _ in range(num_worlds)]
    worlds: List[int] = []
    offsets = [0]
    cost = usage = np.zeros(0)
    for _, _, step in slots:
        if step.worlds != worlds:
            # the stepped set changed: carry the surviving worlds'
            # running totals over to the new row layout
            carried = {b: (cost[lo:hi], usage[lo:hi])
                       for b, lo, hi in zip(worlds, offsets,
                                            offsets[1:])}
            worlds = step.worlds
            offsets = step.offsets.tolist()
            blank = np.zeros(offsets[-1])
            cost, usage = blank.copy(), blank.copy()
            for b, lo, hi in zip(worlds, offsets, offsets[1:]):
                if b in carried:
                    cost[lo:hi], usage[lo:hi] = carried[b]
        cost += step.costs
        usage += step.usages
        if not any(step.dones):
            continue
        for i, done in enumerate(step.dones):
            if done:
                rows = slice(offsets[i], offsets[i + 1])
                results[worlds[i]].append({
                    name: {"cost": c, "usage": u}
                    for name, c, u in zip(step.names[i],
                                          cost[rows].tolist(),
                                          usage[rows].tolist())})
                cost[rows] = usage[rows] = 0.0
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


def run_onrl_episode(simulator: ScenarioSimulator,
                     agents: Dict[str, OnRLAgent],
                     learn: bool = True,
                     deterministic: bool = False
                     ) -> Dict[str, Dict[str, float]]:
    """One joint episode under independent OnRL agents + projection.

    Returns per-slice ``{"cost", "usage"}`` totals.  With
    ``learn=False`` actions are taken but never observed (the Table 1
    deterministic-test protocol); the caller owns ``end_episode``.
    """
    observations = simulator.reset()
    totals = {n: {"cost": 0.0, "usage": 0.0} for n in agents}
    while not simulator.done:
        proposals = {
            name: agent.act(observations[name].vector(),
                            deterministic=deterministic)
            for name, agent in agents.items()
        }
        if not learn:
            for agent in agents.values():
                agent.discard_pending()  # test only, no learning
        actions = project_actions(proposals)
        results = simulator.step(actions)
        for name, result in results.items():
            if learn:
                agents[name].observe(result.reward, result.cost)
            totals[name]["cost"] += result.cost
            totals[name]["usage"] += result.usage
            observations[name] = result.observation
        if learn:
            for agent in agents.values():
                agent.maybe_update()
    return totals


def run_onrl_episode_batch(batch, vec_agents: Dict[str, object],
                           learn: bool = True,
                           deterministic: bool = False
                           ) -> List[Dict[str, Dict[str, float]]]:
    """One lockstep episode of every world under shared OnRL agents.

    ``batch`` is a :class:`~repro.engine.batch.BatchSimulator` whose
    worlds all share one slice population; ``vec_agents`` maps slice
    names to :class:`~repro.engine.policies.VecOnRLAgent` wrappers.
    Each slot runs one batched forward per agent over the worlds and
    one kernel evaluation over every (world, slice) row -- the
    vectorised-env analogue of :func:`run_onrl_episode`.  Returns
    per-world episode totals.
    """
    num_envs = batch.num_worlds
    names = batch.slice_names(0)
    s = len(names)
    obs = batch.reset()
    totals = [{n: {"cost": 0.0, "usage": 0.0} for n in names}
              for _ in range(num_envs)]
    offsets = np.arange(num_envs + 1) * s
    while not all(batch.dones):
        matrix = np.empty((num_envs * s, NUM_ACTIONS))
        for j, name in enumerate(names):
            actions = vec_agents[name].act_many(
                obs[j::s], deterministic=deterministic)
            matrix[j::s] = actions
        if not learn:
            for agent in vec_agents.values():
                agent.discard_pending()
        matrix = project_actions_batch(matrix, offsets)
        step = batch.step([matrix[offsets[b]:offsets[b + 1]]
                           for b in range(num_envs)])
        obs = step.observations
        for j, name in enumerate(names):
            if learn:
                vec_agents[name].observe_many(step.rewards[j::s],
                                              step.costs[j::s])
            for b in range(num_envs):
                totals[b][name]["cost"] += float(step.costs[b * s + j])
                totals[b][name]["usage"] += float(
                    step.usages[b * s + j])
        if learn:
            for agent in vec_agents.values():
                agent.maybe_update()
    return totals


def train_onrl(cfg: ExperimentConfig, epochs: int = 12,
               episodes_per_epoch: int = 3, seed: int = 17,
               onrl_cfg: Optional[OnRLConfig] = None,
               scenario=None, envs: int = 1) -> Dict[str, object]:
    """The OnRL online phase, returning the trained agents.

    The "train once" half of the snapshot path: the policy store
    snapshots the returned agents and later runs (robustness sweeps,
    the decision service) evaluate from the snapshot instead of
    retraining.  Returns ``{"agents", "simulator", "trajectory"}``.

    ``envs > 1`` trains through the batched engine: ``envs`` worlds
    (seeded from ``cfg.seed`` spawns) advance in lockstep, each agent
    takes one batched forward per slot, and every lockstep episode
    contributes ``envs`` episodes of experience -- same agents out,
    more experience per wall-clock second.  PPO updates then trigger
    at episode boundaries (per-world GAE stays exact), so the learning
    trajectory is not slot-for-slot identical to ``envs=1``; the
    default keeps the historical single-world path and its cache keys.
    """
    if envs < 1:
        raise ValueError("envs must be >= 1")
    agents = make_onrl_agents(cfg, seed=seed, onrl_cfg=onrl_cfg)
    trajectory: List[TrajectoryPoint] = []
    if envs == 1:
        simulator = make_simulator(cfg, scenario)
        for epoch in range(epochs):
            usages, violations = [], []
            for _ in range(episodes_per_epoch):
                totals = run_onrl_episode(simulator, agents, learn=True)
                for agent in agents.values():
                    agent.end_episode()
                used, violated = episode_verdicts(cfg, totals,
                                                  simulator.horizon)
                usages += used
                violations += violated
            trajectory.append(TrajectoryPoint(
                epoch=epoch, mean_usage=float(np.mean(usages)),
                mean_cost=0.0,
                violation_rate=float(np.mean(violations))))
        return {"agents": agents, "simulator": simulator,
                "trajectory": trajectory}

    simulators = make_simulators(cfg, scenario, count=envs)
    batch = BatchSimulator(simulators)
    vec_agents = {name: VecOnRLAgent(agent, envs)
                  for name, agent in agents.items()}
    horizon = simulators[0].horizon
    for epoch in range(epochs):
        usages, violations = [], []
        for _ in range(episodes_per_epoch):
            totals = run_onrl_episode_batch(batch, vec_agents,
                                            learn=True)
            for agent in vec_agents.values():
                agent.end_episodes()
                agent.maybe_update()
            for world_totals in totals:
                used, violated = episode_verdicts(cfg, world_totals,
                                                  horizon)
                usages += used
                violations += violated
        trajectory.append(TrajectoryPoint(
            epoch=epoch, mean_usage=float(np.mean(usages)),
            mean_cost=0.0,
            violation_rate=float(np.mean(violations))))
    return {"agents": agents, "simulator": simulators[0],
            "trajectory": trajectory}


def run_onrl_phase(cfg: Optional[ExperimentConfig] = None,
                   epochs: int = 12, episodes_per_epoch: int = 3,
                   seed: int = 17,
                   onrl_cfg: Optional[OnRLConfig] = None,
                   scenario=None) -> MethodResult:
    """Train OnRL from scratch and return trajectory + test metrics.

    OnRL agents act independently and over-requests are resolved with
    projection -- no modifier, no switching, fixed penalty weight.
    """
    scenario = resolve_scenario(scenario)
    if cfg is None:
        cfg = (scenario.build_config() if scenario is not None
               else ExperimentConfig())
    trained = train_onrl(cfg, epochs=epochs,
                         episodes_per_epoch=episodes_per_epoch,
                         seed=seed, onrl_cfg=onrl_cfg,
                         scenario=scenario)
    agents = trained["agents"]
    simulator = trained["simulator"]
    # deterministic test episodes
    test_usages, test_violations = [], []
    for _ in range(3):
        totals = run_onrl_episode(simulator, agents, learn=False,
                                  deterministic=True)
        used, violated = episode_verdicts(cfg, totals,
                                          simulator.horizon)
        test_usages += used
        test_violations += violated
    return MethodResult(
        method="OnRL",
        avg_resource_usage=usage_percent(float(np.mean(test_usages))),
        avg_sla_violation=violation_percent(
            float(np.mean(test_violations))),
        trajectory=trained["trajectory"])
