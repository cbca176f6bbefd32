"""Generators for the paper's figures (3, 5, 6, 9-19).

Every function returns plain dict/array series -- the same data the
paper plots -- so benchmarks can assert on shapes and EXPERIMENTS.md
can record paper-vs-measured values without a plotting dependency.

The multi-method figures (3, 9, 11, 13) decompose into experiment
units and accept a ``runner`` for parallel, cached execution, exactly
like :mod:`repro.experiments.tables`.  The remaining figures are
single self-contained runs; the CLI and benchmarks execute them as
whole-figure units via
:meth:`repro.runtime.runner.ParallelRunner.run_figure`, which caches
their series dicts the same way.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace
from typing import Dict, List, Optional

import numpy as np

from repro.config import (
    ExperimentConfig,
    MAX_MCS_OFFSET,
    NUM_ACTIONS,
    NetworkConfig,
    SliceSpec,
    action_index,
    default_slice_specs,
    lte_ran_config,
    nr_ran_config,
)
from repro.core.orchestrator import DomainManagerSet, coordinate_actions
from repro.engine.batch import BatchSimulator
from repro.engine.kernels import WorldConditions, evaluate_rows
from repro.engine.policies import RoutedBatchPolicy, lockstep
from repro.experiments.harness import (
    build_onslicing,
    episode_verdicts,
    fit_baselines,
    run_episodes,
    run_online_phase,
)
from repro.experiments.metrics import cdf, usage_percent
from repro.rl.behavior_cloning import BehaviorCloningTrainer
from repro.runtime.runner import ParallelRunner
from repro.runtime.units import make_unit, schedule_epochs as _schedule
from repro.rl.ppo import GaussianActorCritic
from repro.sim.env import ScenarioSimulator, SliceObservation
from repro.sim.network import CONSTRAINED_RESOURCES, EndToEndNetwork


# ---------------------------------------------------------------- Fig 3


def fig3(scale: float = 0.25,
         cfg: Optional[ExperimentConfig] = None,
         runner: Optional[ParallelRunner] = None,
         scenario: str = "default") -> Dict[str, object]:
    """Fig. 3(a)/(b): unsafe fixed-penalty DRL vs the baseline.

    Paper shape: the DRL agent exceeds 30 % violation during online
    learning while the baseline stays at zero, and the DRL agent's
    usage starts far above the baseline before undercutting it.
    """
    runner = runner or ParallelRunner()
    epochs = _schedule(scale, 30)
    onrl, base = runner.run([
        make_unit("onrl", seed=17, cfg=cfg, scenario=scenario,
                  epochs=epochs, episodes_per_epoch=2),
        make_unit("baseline", cfg=cfg, scenario=scenario, episodes=2),
    ])
    return {
        "drl_violation_pct": [100.0 * p.violation_rate
                              for p in onrl.trajectory],
        "drl_usage_pct": [usage_percent(p.mean_usage)
                          for p in onrl.trajectory],
        "baseline_violation_pct": base.avg_sla_violation,
        "baseline_usage_pct": base.avg_resource_usage,
    }


# ---------------------------------------------------------------- Fig 5


def fig5(cfg: Optional[NetworkConfig] = None,
         seed: int = 3) -> Dict[str, Dict[str, float]]:
    """Fig. 5: slice data rates under RDM vs the vanilla system.

    Three slices with equal exclusive shares; the sum of their rates
    should approach the unsliced (vanilla) cell rate in both
    directions, demonstrating low-overhead virtualisation.  The cell's
    whole UE population (three slices' worth) is one slice of a
    one-slice network, evaluated by the kernels at the full cell
    (vanilla) and at a one-third share, round robin, no MCS offset.
    """
    cfg = cfg or NetworkConfig()
    network = EndToEndNetwork(
        dataclasses.replace(cfg, users_per_slice=cfg.users_per_slice * 3),
        slices=default_slice_specs()[:1],
        rng=np.random.default_rng(seed))
    (name,) = network.slice_names

    def rates_mbps(share: float) -> Dict[str, float]:
        action = np.zeros(NUM_ACTIONS)  # round robin, no MCS offset
        action[action_index("uplink_bandwidth")] = share
        action[action_index("downlink_bandwidth")] = share
        report = network.evaluate_slot({name: action}, {name: 0.0})[name]
        return {"dl_mbps": report.dl_capacity_bps / 1e6,
                "ul_mbps": report.ul_capacity_bps / 1e6}

    series = {"Vanilla": rates_mbps(1.0)}
    for i in range(3):                  # same UEs, same share: same rate
        series[f"Slice {i + 1}"] = rates_mbps(1.0 / 3.0)
    return series


# ---------------------------------------------------------------- Fig 6


def fig6() -> Dict[str, List[float]]:
    """Fig. 6: retransmission probability vs MCS offset (UL and DL).

    Paper shape: log-scale decay from ~1e-1 toward ~1e-5 over offsets
    0..10, steeper in the uplink.  One kernel pass over eleven copies
    of a one-UE slice, one MCS offset each, at zero channel margin
    (the nominal conditions the paper's iperf runs report).
    """
    network = EndToEndNetwork(NetworkConfig(users_per_slice=1),
                              slices=default_slice_specs()[:1])
    offsets = list(range(MAX_MCS_OFFSET + 1))
    rows = len(offsets)
    actions = np.zeros((rows, NUM_ACTIONS))
    for dim in ("uplink_mcs_offset", "downlink_mcs_offset"):
        actions[:, action_index(dim)] = np.array(offsets) / MAX_MCS_OFFSET
    out = evaluate_rows(
        network.slot_rows().repeat(rows), WorldConditions.nominal(rows),
        actions, rates=np.zeros(rows),
        cqi=np.ones((rows, 1), dtype=np.intp),   # retx ignores the CQI
        margin_db=np.zeros((rows, 1)))
    return {
        "offset": offsets,
        "uplink": out["ul_retx"].tolist(),
        "downlink": out["dl_retx"].tolist(),
    }


# ---------------------------------------------------------------- Fig 9


def fig9(scale: float = 0.25,
         cfg: Optional[ExperimentConfig] = None,
         runner: Optional[ParallelRunner] = None,
         scenario: str = "default") -> Dict[str, object]:
    """Fig. 9: learning trajectories (usage vs violation) per method.

    Paper shape: OnRL starts top-right (high usage, high violation) and
    wanders; OnSlicing's trajectory slides left along the near-zero-
    violation axis; Baseline and Model_Based are fixed points.
    """
    runner = runner or ParallelRunner()
    epochs = _schedule(scale, 30)
    ons_result, onrl, base, model = runner.run([
        make_unit("onslicing", cfg=cfg, scenario=scenario,
                  epochs=epochs, episodes_per_epoch=2,
                  test_episodes=0),
        make_unit("onrl", seed=17, cfg=cfg, scenario=scenario,
                  epochs=epochs, episodes_per_epoch=2),
        make_unit("baseline", cfg=cfg, scenario=scenario, episodes=2),
        make_unit("model_based", cfg=cfg, scenario=scenario,
                  episodes=2),
    ])
    ons = ons_result.trajectory
    return {
        "OnSlicing": {
            "usage_pct": [usage_percent(p.mean_usage) for p in ons],
            "violation_pct": [100.0 * p.violation_rate for p in ons]},
        "OnRL": {
            "usage_pct": [usage_percent(p.mean_usage)
                          for p in onrl.trajectory],
            "violation_pct": [100.0 * p.violation_rate
                              for p in onrl.trajectory]},
        "Baseline": {"usage_pct": [base.avg_resource_usage],
                     "violation_pct": [base.avg_sla_violation]},
        "Model_Based": {"usage_pct": [model.avg_resource_usage],
                        "violation_pct": [model.avg_sla_violation]},
    }


# --------------------------------------------------------------- Fig 10


def fig10(cfg: Optional[ExperimentConfig] = None,
          bc_epochs: int = 8, offline_episodes: int = 3
          ) -> Dict[str, object]:
    """Fig. 10: offline imitation -- usage approaches the baseline's.

    Trains behavior cloning epoch by epoch and evaluates the cloned
    policy's (deterministic) usage after each epoch, per slice.
    """
    cfg = cfg or ExperimentConfig()
    from repro.core.offline import collect_baseline_rollouts

    simulator = ScenarioSimulator(cfg)
    baselines = fit_baselines(cfg)
    datasets = collect_baseline_rollouts(simulator, baselines,
                                         num_episodes=offline_episodes)
    curves: Dict[str, object] = {"epochs": list(range(1, bc_epochs + 1))}
    for spec in cfg.slices:
        dataset = datasets[spec.name]
        states, actions = dataset.states, dataset.expert_actions
        model = GaussianActorCritic(
            states.shape[1], actions.shape[1],
            rng=np.random.default_rng(11))
        trainer = BehaviorCloningTrainer(
            model.actor, rng=np.random.default_rng(12))
        usage_curve: List[float] = []
        for _ in range(bc_epochs):
            trainer.train_epoch(states, actions)
            cloned = np.clip(model.actor.forward(states), 0.0, 1.0)
            from repro.config import usage_from_action
            usage_curve.append(usage_percent(float(np.mean(
                [usage_from_action(a) for a in cloned]))))
        curves[spec.name] = {
            "cloned_usage_pct": usage_curve,
            "baseline_usage_pct": usage_percent(
                float(np.mean(dataset.usages))),
        }
    return curves


# --------------------------------------------------------------- Fig 11


def fig11(scale: float = 0.25,
          cfg: Optional[ExperimentConfig] = None,
          runner: Optional[ParallelRunner] = None,
          scenario: str = "default") -> Dict[str, object]:
    """Fig. 11: per-slice online curves -- usage falls, violation ~0."""
    runner = runner or ParallelRunner()
    if cfg is None:
        from repro import scenarios as scenario_registry

        slices = scenario_registry.get(scenario).build_config().slices
    else:
        slices = cfg.slices
    epochs = _schedule(scale, 75)
    result = runner.run_unit(
        make_unit("onslicing", cfg=cfg, scenario=scenario,
                  epochs=epochs, episodes_per_epoch=2,
                  test_episodes=0))
    trajectory = result.trajectory
    out: Dict[str, object] = {"epochs": [p.epoch for p in trajectory]}
    for spec in slices:
        out[spec.name] = {
            "usage_pct": [usage_percent(
                p.per_slice_usage.get(spec.name, 0.0))
                for p in trajectory],
            "violation_pct": [100.0 * p.per_slice_violation.get(
                spec.name, 0.0) for p in trajectory],
        }
    return out


# --------------------------------------------------------------- Fig 12


def fig12(cfg: Optional[ExperimentConfig] = None,
          spike_slot: int = 12, spike_factor: float = 6.0,
          spike_duration: int = 16) -> Dict[str, object]:
    """Fig. 12: proactive switching showcase.

    A traffic anomaly is injected into the HVS slice mid-episode; the
    expected shape is a cost spike followed by a baseline takeover and
    a resource-usage step up (paper: ~20 % -> ~35 %).
    """
    cfg = cfg or ExperimentConfig()
    bundle = build_onslicing(cfg)
    simulator = bundle.simulator
    observations = simulator.reset()
    # Inject the anomaly: multiply the HVS trace from the spike slot.
    # A flash-crowd anomaly: demand is pinned at ``spike_factor`` times
    # the slice's engineered peak -- beyond what even a full downlink
    # allocation can carry, so costs accrue no matter how the agent
    # reacts and the proactive switch must step in.
    trace = simulator._traces["HVS"]
    end = spike_slot + spike_duration
    trace[spike_slot:end] = spike_factor
    for agent in bundle.agents.values():
        agent.begin_episode()
    slots: List[int] = []
    usage_pct: List[float] = []
    costs: Dict[str, List[float]] = {n: [] for n in bundle.agents}
    switch_slots: Dict[str, Optional[int]] = {}
    mod_cfg = cfg.agent.modifier
    while not simulator.done:
        proposals, states = {}, {}
        for name, agent in bundle.agents.items():
            decision = agent.act(observations[name])
            proposals[name] = decision.action
            states[name] = observations[name].vector()
        coordination = coordinate_actions(
            states, proposals, bundle.agents,
            bundle.orchestrator.managers.coordinators,
            max_rounds=mod_cfg.max_coordination_rounds,
            tolerance=mod_cfg.tolerance,
            use_projection=mod_cfg.use_projection)
        results = simulator.step(coordination.actions)
        slots.append(simulator.slot - 1)
        usage_pct.append(usage_percent(float(np.mean(
            [r.usage for r in results.values()]))))
        for name, result in results.items():
            bundle.agents[name].observe(result.reward, result.cost,
                                        result.usage)
            costs[name].append(result.cost)
            observations[name] = result.observation
    for name, agent in bundle.agents.items():
        agent.end_episode()
        switch_slots[name] = agent.switch.switch_slot
    return {"slots": slots, "usage_pct": usage_pct, "costs": costs,
            "switch_slots": switch_slots, "spike_slot": spike_slot}


# --------------------------------------------------------------- Fig 13


def fig13(scale: float = 0.25,
          cfg: Optional[ExperimentConfig] = None,
          runner: Optional[ParallelRunner] = None,
          scenario: str = "default") -> Dict[str, object]:
    """Fig. 13: violation curves of the switching variants.

    Paper shape: OnSlicing-NB worst, OnSlicing-NE intermediate, full
    OnSlicing near zero throughout.
    """
    runner = runner or ParallelRunner()
    epochs = _schedule(scale, 30)
    labels = {"nb": "OnSlicing-NB", "full": "OnSlicing",
              "ne": "OnSlicing-NE"}
    results = runner.run([
        make_unit("onslicing", variant=variant, cfg=cfg,
                  scenario=scenario, epochs=epochs,
                  episodes_per_epoch=2, test_episodes=0)
        for variant in labels
    ])
    out: Dict[str, object] = {
        label: [100.0 * p.violation_rate for p in result.trajectory]
        for label, result in zip(labels.values(), results)
    }
    out["epochs"] = list(range(epochs))
    return out


# --------------------------------------------------------------- Fig 14


def fig14(cfg: Optional[ExperimentConfig] = None,
          betas=(0.0, 0.25, 0.5, 0.75)) -> Dict[str, object]:
    """Fig. 14: usage/violation under fixed coordinating parameters.

    Paper shape: average resource usage decreases as beta grows on all
    resources -- the modifier yields to the domain managers' pressure.
    """
    cfg = cfg or ExperimentConfig()
    bundle = build_onslicing(cfg)
    simulator = bundle.simulator
    out: Dict[str, object] = {"betas": list(betas)}
    usages: Dict[str, List[float]] = {n: [] for n in bundle.agents}
    violations: Dict[str, List[float]] = {n: [] for n in bundle.agents}
    for beta in betas:
        fixed = {kind: float(beta) for kind in CONSTRAINED_RESOURCES}

        def modified(states, names):
            return [bundle.agents[name].modifier.modify(
                state, bundle.agents[name].baseline.act(
                    SliceObservation(*state.tolist())), fixed)
                for state, name in zip(states, names)]

        (totals,), = run_episodes(
            [simulator], SimpleNamespace(act_batch=modified),
            project=False)
        for spec, usage, violated in zip(cfg.slices, *episode_verdicts(
                cfg, totals, simulator.horizon)):
            usages[spec.name].append(usage_percent(usage))
            violations[spec.name].append(100.0 * violated)
    out["usage_pct"] = usages
    out["violation_pct"] = violations
    return out


# --------------------------------------------------------------- Fig 15


def fig15(scale: float = 0.25,
          cfg: Optional[ExperimentConfig] = None) -> Dict[str, object]:
    """Fig. 15: per-resource average allocations of converged agents.

    Paper shape: MAR leans on U_u and U_c, HVS on U_d, RDC on the MCS
    offsets U_m/U_s.
    """
    from repro.config import ACTION_NAMES

    cfg = cfg or ExperimentConfig()
    epochs = _schedule(scale, 30)
    bundle = build_onslicing(cfg)
    run_online_phase(bundle, epochs=epochs, episodes_per_epoch=2)
    simulator = bundle.simulator
    mean = SimpleNamespace(act_batch=lambda states, names: [
        bundle.agents[name].model.mean_action(state)
        for state, name in zip(states, names)])
    sums = sum(executed for _, executed, _ in lockstep(
        BatchSimulator([simulator]), mean, project=False))
    return {
        "resources": list(ACTION_NAMES),
        "allocations_pct": {
            name: list(100.0 * total / simulator.horizon)
            for name, total in zip(simulator.slice_names, sums)},
    }


# ---------------------------------------------------------- Fig 16 / 17


def fig16(samples: int = 200) -> Dict[str, object]:
    """Fig. 16: ping-delay CDF, LTE vs NR.

    Paper shape: NR (~12 ms average) well left of LTE (~28 ms).
    """
    out: Dict[str, object] = {}
    for label, ran in (("LTE", lte_ran_config()),
                       ("NR", nr_ran_config())):
        network = EndToEndNetwork(NetworkConfig(ran=ran),
                                  slices=default_slice_specs(),
                                  rng=np.random.default_rng(5))
        pings = [network.ping_delay_ms("MAR") for _ in range(samples)]
        out[label] = cdf(pings)
        out[f"{label}_mean_ms"] = float(np.mean(pings))
    return out


def fig17(episodes: int = 1) -> Dict[str, object]:
    """Fig. 17: CDF of slice performance p/P, LTE vs NR.

    Paper shape: NR noticeably better for MAR and RDC; HVS similar
    under both (the fixed-rate stream does not saturate the downlink).
    """
    out: Dict[str, object] = {}
    for label, ran in (("LTE", lte_ran_config()),
                       ("NR", nr_ran_config())):
        cfg = ExperimentConfig(network=NetworkConfig(ran=ran))
        simulator = ScenarioSimulator(cfg)
        steps = lockstep(BatchSimulator([simulator]),
                         RoutedBatchPolicy(fit_baselines(cfg)), episodes,
                         project=False)
        # the kernels price a slot as cost = 1 - satisfaction
        satisfaction = 1.0 - np.array([step.costs for _, _, step in steps])
        for name, values in zip(simulator.slice_names, satisfaction.T):
            out[f"{label}, {name}"] = cdf(values)
    return out


# ---------------------------------------------------------- Fig 18 / 19


def fig18(scale: float = 0.25,
          user_counts=(1, 10, 20, 30)) -> Dict[str, object]:
    """Fig. 18: MAR user scale-up (nFAPI-style emulation).

    The trained agent is *not* retrained per load level (paper: "the
    slice agent does not need to be retrained when dealing with
    varying slice traffic"); usage grows with users and violations stay
    low until the system is overwhelmed.
    """
    cfg = ExperimentConfig()
    epochs = _schedule(scale, 20)
    bundle = build_onslicing(cfg)
    run_online_phase(bundle, epochs=epochs, episodes_per_epoch=2)
    out: Dict[str, object] = {"users": list(user_counts),
                              "usage_pct": [], "violation_pct": []}
    simulator = bundle.simulator
    mar = [spec.name for spec in cfg.slices].index("MAR")
    for users in user_counts:
        # 20 emulated users generate the nominal testbed peak load;
        # the 30-user end of the sweep pushes ~1.5x past it, which is
        # where the paper's curve shows the system being overwhelmed.
        # The load enters through the traffic *trace* so the agent
        # observes the higher demand (its traffic feature genuinely
        # grows) rather than having it normalised away.
        factor = users / 20.0

        def act_batch(states, names):
            if states[0, 0] == 0.0:     # after the reset, before step 1
                simulator._traces["MAR"] = simulator._traces["MAR"] * factor
            return [bundle.agents[name].model.mean_action(state)
                    for state, name in zip(states, names)]

        (totals,), = run_episodes(
            [simulator], SimpleNamespace(act_batch=act_batch),
            project=False)
        usage, violated = episode_verdicts(cfg, totals, simulator.horizon)
        out["usage_pct"].append(usage_percent(usage[mar]))
        out["violation_pct"].append(100.0 * violated[mar])
    return out


def fig19(slice_counts=(9, 15, 21, 27),
          episodes: int = 1) -> Dict[str, object]:
    """Fig. 19: coordination interactions vs number of slices.

    Paper shape: the number of agent<->manager interactions stays low
    (~2-3) as the slice count grows from 9 to 27 -- the warm-started
    betas keep coordination cheap at scale.  Every count must be a
    positive multiple of the three default slice types.
    """
    base_specs = default_slice_specs()
    for count in slice_counts:
        if count <= 0 or count % len(base_specs):
            raise ValueError(
                f"fig19: slice count {count} is not a positive "
                f"multiple of {len(base_specs)} (the slice types)")
    template_cfg = ExperimentConfig()
    template = build_onslicing(template_cfg)
    # each replica's agent-like view: its type's pi_b and modifier
    by_app = {spec.app: SimpleNamespace(
        baseline=template.baselines[spec.name],
        modifier=template.agents[spec.name].modifier)
        for spec in template_cfg.slices}
    out: Dict[str, object] = {"slices": list(slice_counts),
                              "interactions": []}
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
        agents = {spec.name: by_app[spec.app] for spec in replicas}
        rounds: List[int] = []

        def coordinated(states, names):
            proposals = {name: agents[name].baseline.act(
                SliceObservation(*state.tolist()))
                for state, name in zip(states, names)}
            coordination = coordinate_actions(
                dict(zip(names, states)), proposals, agents, coordinators)
            rounds.append(coordination.rounds)
            return [coordination.actions[name] for name in names]

        run_episodes([simulator], SimpleNamespace(act_batch=coordinated),
                     episodes, project=False)
        out["interactions"].append(float(np.mean(rounds)))
    return out
