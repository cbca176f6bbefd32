"""``train_online``: the paper's own loop on the scalar simulator.

``build_onslicing`` (offline imitation: pi_b rollouts, behaviour
cloning, pi_phi, cost surrogate + pi_a) -> ``run_online_phase``
(constraint-aware PPO, proactive switching, action modification)
-> ``test_performance``.  Bypasses serve, fleet and the batch engine;
pi_phi's 16-sample Bayesian ``predict`` is most of the online phase,
so estimator work shows here and on the two onslicing serve
workloads and nowhere else.

The traced driver re-drives ``simulator.reset/step``,
``agent.begin_episode/act/observe/maybe_update/end_episode``,
``coordinate_actions`` and ``refresh_estimator`` -- the loop
``OnSlicingOrchestrator.run_episode`` documents -- after assembling
the deployment from the same public pieces ``build_onslicing`` uses.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from repro.config import ExperimentConfig, TrafficConfig
from repro.core.agent import OnSlicingAgent
from repro.core.offline import (
    collect_baseline_rollouts,
    pretrain_agent,
)
from repro.core.orchestrator import (
    DomainManagerSet,
    coordinate_actions,
)
from repro.experiments import harness

from tracing import Stopwatch, Tracer
from workloads import (
    Check,
    Outcome,
    Workload,
    action_violations,
    digest_of,
)


class TrainOnline(Workload):
    name = "train_online"
    uses_networks = True

    def __init__(self, seed: int, tiny: bool, workdir: str) -> None:
        super().__init__(seed, tiny, workdir)
        self.offline_episodes = 1
        self.exploration_episodes = 1
        # two online episodes fill the 192-transition PPO buffer once,
        # so every agent updates at least once per epoch
        self.epochs = 1 if tiny else 2
        self.episodes_per_epoch = 2
        self.test_episodes = 1
        self.cfg = ExperimentConfig(seed=seed).replace(
            traffic=TrafficConfig(slots_per_episode=self.horizon))

    def sizes(self) -> Dict[str, object]:
        return {"offline_episodes": self.offline_episodes,
                "exploration_episodes": self.exploration_episodes,
                "epochs": self.epochs,
                "episodes_per_epoch": self.episodes_per_epoch,
                "test_episodes": self.test_episodes,
                "slots": self.horizon, "slices": len(self.cfg.slices)}

    def online_steps(self) -> int:
        """Env steps of the online + test phases."""
        return self.horizon * (self.epochs * self.episodes_per_epoch
                               + self.test_episodes)

    def expected_decisions(self) -> int:
        """The agents' own decisions: one per slice and online or test
        step (the offline rollouts are pi_b's, not the agents')."""
        return self.online_steps() * len(self.cfg.slices)

    # ---- set-up ------------------------------------------------------

    def setup(self, tracer: Tracer) -> None:
        with tracer.span("baselines.fit"):
            harness.fit_baselines(self.cfg)
        # throw-away mini-run of the whole loop.  A quarter-day
        # horizon, not 6 slots: the first full-size behaviour-cloning
        # pass otherwise pays ~1 s of first-touch cost that no later
        # repeat sees (measured: 2.2 s vs 1.0 s for build_onslicing).
        with tracer.span("setup.warmup"):
            warm = self.cfg.replace(traffic=TrafficConfig(
                slots_per_episode=min(24, self.horizon)))
            bundle = harness.build_onslicing(
                warm, offline_episodes=1, exploration_episodes=1,
                seed=self.seed)
            harness.run_online_phase(bundle, epochs=1,
                                     episodes_per_epoch=1,
                                     estimator_refresh_every=1)
            harness.test_performance(bundle, episodes=1)

    # ---- untraced body -----------------------------------------------

    def body(self, run_dir: str) -> Dict[str, object]:
        clock = time.perf_counter
        start = clock()
        bundle = harness.build_onslicing(
            self.cfg, offline_episodes=self.offline_episodes,
            exploration_episodes=self.exploration_episodes,
            seed=self.seed)
        offline_s = clock() - start
        harness.run_online_phase(
            bundle, epochs=self.epochs,
            episodes_per_epoch=self.episodes_per_epoch,
            estimator_refresh_every=1)
        result = harness.test_performance(
            bundle, episodes=self.test_episodes)
        return {"agents": bundle.agents, "result": result,
                "offline_s": offline_s,
                "online_s": clock() - start - offline_s}

    def seal(self, state: Dict[str, object]) -> Outcome:
        agents = state["agents"]
        parts: List[object] = []
        for name in sorted(agents):
            agent = agents[name]
            parts.append(name)
            parts.extend(
                [record.total_cost, record.total_usage, record.length,
                 record.switched_at] for record in agent.episodes)
            weights = agent.model.state_dict()
            parts.extend(np.asarray(weights[key])
                         for key in sorted(weights))
        quality = {}
        result = state.get("result")
        if result is not None:
            quality = {
                "sla_violation_pct": result.avg_sla_violation,
                "resource_usage_pct": result.avg_resource_usage}
        return Outcome(
            decisions=sum(record.length for agent in agents.values()
                          for record in agent.episodes),
            digests={"trajectory": digest_of(parts)},
            quality=quality,
            timings={"offline_s": state["offline_s"],
                     "online_s": state["online_s"]},
            state=state)

    def specific(self, outcome: Outcome,
                 watch: Stopwatch) -> Dict[str, float]:
        timings = outcome.timings
        return {"env_steps_per_s": self.online_steps()
                / (timings["online_s"] * watch.scale),
                "offline_stage_s": timings["offline_s"] * watch.scale}

    # ---- traced driver -----------------------------------------------

    def traced(self, tracer: Tracer, run_dir: str,
               reference: Outcome) -> Outcome:
        cfg = self.cfg
        clock = time.perf_counter
        start = clock()
        # -- offline stage: build_onslicing(variant="full") -----------
        with tracer.span("scenarios.build"):
            simulator = harness.make_simulator(cfg)
        with tracer.span("baselines.fit"):
            baselines = harness.fit_baselines(cfg)
        rng = np.random.default_rng(self.seed)
        with tracer.span("core.rollout"):
            datasets = collect_baseline_rollouts(
                simulator, baselines,
                num_episodes=self.offline_episodes)
            exploration = collect_baseline_rollouts(
                simulator, baselines,
                num_episodes=self.exploration_episodes,
                exploration_std=0.12, rng=rng)
        agents: Dict[str, OnSlicingAgent] = {}
        for spec in cfg.slices:
            with tracer.span("core.pretrain"):
                # the stable per-slice seed offset build_onslicing
                # documents (str hash() is process-salted)
                offset = sum(ord(ch) for ch in spec.name) % 1000
                agent = OnSlicingAgent(
                    spec.name, baselines[spec.name], simulator.horizon,
                    spec.sla.cost_threshold, cfg=cfg.agent,
                    rng=np.random.default_rng(self.seed + offset))
                pretrain_agent(
                    agent, datasets[spec.name],
                    exploration_dataset=exploration[spec.name])
            agents[spec.name] = agent
        with tracer.span("core.coordinate"):
            managers = DomainManagerSet.for_simulator(
                simulator, coordinator_step=cfg.agent.modifier
                .coordinator_step_size)
        offline_s = clock() - start
        # -- online phase + test --------------------------------------
        ledger = {"rounds": [], "matrices": [], "acts": 0,
                  "updates": 0, "episodes": 0, "switched": 0}
        for _ in range(self.epochs):
            for _ in range(self.episodes_per_epoch):
                _drive_episode(tracer, simulator, agents, managers,
                               cfg, ledger, deterministic=False,
                               learn=True)
            with tracer.span("core.refresh"):
                for agent in agents.values():
                    agent.refresh_estimator(epochs=3)
        for _ in range(self.test_episodes):
            _drive_episode(tracer, simulator, agents, managers, cfg,
                           ledger, deterministic=True, learn=False)
        outcome = self.seal({"agents": agents, "result": None,
                             "offline_s": offline_s,
                             "online_s": clock() - start - offline_s})
        outcome.state.update(ledger)
        return outcome

    def layers(self, tracer: Tracer, repeat: int, traced: Outcome,
               reference: Outcome) -> Dict[str, float]:
        state = traced.state
        rounds = state["rounds"]
        return {
            "core.act_n": float(state["acts"]),
            "core.coordinate_rounds_mean":
                float(np.mean(rounds)) if rounds else 0.0,
            "core.switch_rate":
                state["switched"] / max(state["episodes"], 1),
            "rl.update_n": float(state["updates"]),
            "sim.step_n": float(len(
                tracer.durations("sim.step", repeat))),
        }

    def extra_checks(self, runs: List[Outcome],
                     traced: Optional[Outcome]) -> List[Check]:
        if traced is None:
            return []
        bad = action_violations(traced.state["matrices"])
        return [Check(
            "traced actions finite, in [0, 1], within capacity",
            bad == 0, f"{bad} of {len(traced.state['matrices'])} "
            "slots out of contract", runs=(len(runs),))]


def _drive_episode(tracer: Tracer, simulator, agents, managers, cfg,
                   ledger: Dict[str, object], deterministic: bool,
                   learn: bool) -> None:
    """One episode of the loop ``OnSlicingOrchestrator.run_episode``
    documents, with a span around every layer call."""
    begin, end = tracer.begin, tracer.end
    modifier = cfg.agent.modifier
    span = begin("sim.reset")
    observations = simulator.reset()
    end(span)
    for agent in agents.values():
        agent.begin_episode()
    while not simulator.done:
        proposals = {}
        states = {}
        for name, agent in agents.items():
            span = begin("core.act")
            decision = agent.act(observations[name],
                                 deterministic=deterministic)
            end(span)
            proposals[name] = decision.action
            states[name] = observations[name].vector()
        ledger["acts"] += len(agents)
        span = begin("core.coordinate")
        coordination = coordinate_actions(
            states, proposals, agents, managers.coordinators,
            max_rounds=modifier.max_coordination_rounds,
            tolerance=modifier.tolerance,
            use_projection=modifier.use_projection)
        end(span)
        ledger["rounds"].append(coordination.rounds)
        ledger["matrices"].append(coordination.actions)
        span = begin("sim.step")
        results = simulator.step(coordination.actions)
        end(span)
        span = begin("core.observe")
        for name, result in results.items():
            agents[name].observe(
                result.reward, result.cost, result.usage,
                executed_action=coordination.actions[name])
            observations[name] = result.observation
        end(span)
        if learn:
            span = begin("rl.update")
            for agent in agents.values():
                if agent.maybe_update() is not None:
                    ledger["updates"] += 1
            end(span)
    span = begin("core.observe")
    for agent in agents.values():
        record = agent.end_episode()
        ledger["episodes"] += 1
        ledger["switched"] += record.switched_at is not None
    end(span)
