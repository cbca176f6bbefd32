"""The OnSlicing orchestrator: multi-slice online learning loop.

Ties together the per-slice agents, the domain managers' parameter
coordinators and the end-to-end network (paper Fig. 1):

1. every agent proposes an action for its slice;
2. :func:`coordinate_actions` runs the distributed coordination of
   Sec. 4 -- action modifiers and parameter coordinators exchange
   ``beta`` until resource constraints hold (warm-started from the
   previous slot, so typically ~2 rounds);
3. the network evaluates the slot; agents observe (with the executed,
   post-coordination action) and learn.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.baselines.projection import project_actions
from repro.config import ExperimentConfig
from repro.core.agent import AgentStack, OnSlicingAgent
from repro.domains.coordinator import ParameterCoordinator
from repro.engine.batch import BatchSimulator
from repro.engine.policies import lockstep
from repro.sim.env import ScenarioSimulator, SliceObservation
from repro.sim.network import CONSTRAINED_RESOURCES


@dataclass
class DomainManagerSet:
    """Eq. 14's parameter coordinators, one per domain manager that
    owns constrained kinds (RDM, TDM, EDM), in
    ``CONSTRAINED_RESOURCES`` order."""

    coordinators: List[ParameterCoordinator]

    @classmethod
    def for_simulator(cls, simulator: ScenarioSimulator,
                      coordinator_step: float = 0.5
                      ) -> "DomainManagerSet":
        """The three coordinators at ``coordinator_step``; the
        simulator is not read."""
        return cls([
            ParameterCoordinator(kinds, step_size=coordinator_step)
            for kinds in (("uplink_prb", "downlink_prb"),
                          ("transport_bandwidth",), ("cpu", "ram"))])


@dataclass(frozen=True)
class CoordinationResult:
    """Outcome of one slot's distributed coordination."""

    actions: Dict[str, np.ndarray]
    rounds: int                     # modifier <-> coordinator exchanges
    betas: Dict[str, float]
    projected: bool                 # True if the projection fallback ran


def _requested_totals(actions: Mapping[str, np.ndarray]
                      ) -> Dict[str, float]:
    totals = {}
    for kind, idx in CONSTRAINED_RESOURCES.items():
        totals[kind] = float(sum(a[idx] for a in actions.values()))
    return totals


def coordinate_actions(states: Mapping[str, np.ndarray],
                       proposals: Mapping[str, np.ndarray],
                       agents: Mapping[str, OnSlicingAgent],
                       coordinators: List[ParameterCoordinator],
                       max_rounds: int = 12,
                       tolerance: float = 1e-3,
                       use_projection: bool = False
                       ) -> CoordinationResult:
    """Distributed coordination of one slot (paper Sec. 4).

    Each round, every agent's action modifier produces a modified
    action under the current betas; the domain coordinators then update
    their betas from the over-request sub-gradient (Eq. 14).  The loop
    ends when every constraint holds.  ``use_projection`` short-circuits
    to the plain proportional projection (the Table 3 ablation).  As a
    hard guarantee, an infeasible result after ``max_rounds`` is
    projected -- infrastructure capacity is physical.
    """
    proposals = {name: np.asarray(a, dtype=float)
                 for name, a in proposals.items()}
    if use_projection:
        totals = _requested_totals(proposals)
        feasible = all(v <= 1.0 + tolerance for v in totals.values())
        projected = {} if feasible else project_actions(proposals)
        return CoordinationResult(
            actions=projected or proposals, rounds=1,
            betas={kind: 0.0 for kind in CONSTRAINED_RESOURCES},
            projected=not feasible)

    betas: Dict[str, float] = {}
    for coordinator in coordinators:
        betas.update(coordinator.begin_slot())
    actions = dict(proposals)
    rounds = 1
    # First interaction: the agents submit their proposals and the
    # domain managers check capacity.  Only when something is
    # over-requested do the action modifiers engage -- with zero betas
    # pi_a approximates the identity but is not exact, so running it on
    # feasible proposals would needlessly perturb good actions.
    totals = _requested_totals(actions)
    while not all(coordinator.satisfied(totals, tolerance)
                  for coordinator in coordinators):
        if rounds >= max_rounds:
            break
        rounds += 1
        for coordinator in coordinators:
            betas.update(coordinator.update(totals))
        actions = {
            name: agents[name].modifier.modify(states[name],
                                               proposals[name], betas)
            for name in proposals
        }
        totals = _requested_totals(actions)
    totals = _requested_totals(actions)
    feasible = all(v <= 1.0 + tolerance for v in totals.values())
    if not feasible:
        actions = project_actions(actions)
    return CoordinationResult(actions=actions, rounds=rounds,
                              betas=betas, projected=not feasible)


@dataclass
class EpochStats:
    """Aggregates of one training epoch (paper: 1000 transitions)."""

    mean_usage: float
    mean_cost: float
    violation_rate: float           # fraction of episodes violating SLA
    mean_interactions: float
    episodes: int
    switch_rate: float              # fraction of episodes that switched
    per_slice_usage: Dict[str, float] = field(default_factory=dict)
    per_slice_violation: Dict[str, float] = field(default_factory=dict)


class OnSlicingOrchestrator:
    """Runs the online learning phase for all slices."""

    def __init__(self, simulator: ScenarioSimulator,
                 agents: Dict[str, OnSlicingAgent],
                 cfg: Optional[ExperimentConfig] = None) -> None:
        missing = set(simulator.slice_names) - set(agents)
        if missing:
            raise ValueError(f"agents missing for slices: {missing}")
        self.simulator = simulator
        self.agents = agents
        self.cfg = cfg or ExperimentConfig()
        self.managers = DomainManagerSet.for_simulator(
            simulator,
            coordinator_step=self.cfg.agent.modifier.coordinator_step_size)
        self.interaction_counts: List[int] = []
        self.epoch_history: List[EpochStats] = []
        self._batch = BatchSimulator([simulator])
        self._stack = AgentStack()
        self._deterministic, self._rounds = False, []

    @property
    def counters(self) -> Mapping[str, int]:
        """What the agents' acting did so far (a read-only snapshot,
        :attr:`AgentStack.counters`): ``act_calls`` is the slots acted,
        ``forward_calls`` the stacked actor + critic forwards (one per
        slot with an unlatched agent, not one per slice) and
        ``posterior_calls`` / ``posterior_rows`` the pi_phi passes and
        the rows they evaluated."""
        return self._stack.counters

    def act_batch(self, states: np.ndarray,
                  slice_names: List[str]) -> List[np.ndarray]:
        """:meth:`run_episode`'s batch policy: the agents act on their
        rows as one stack (:meth:`AgentStack.act`: one pi_phi pass, one
        actor and one critic forward, then each agent in
        ``self.agents`` order), then the slot is coordinated."""
        rows = dict(zip(slice_names, states))
        decisions = self._stack.act(
            list(self.agents.values()),
            [SliceObservation(*rows[name].tolist())
             for name in self.agents],
            deterministic=self._deterministic)
        proposals = {name: decision.action
                     for name, decision in zip(self.agents, decisions)}
        mod_cfg = self.cfg.agent.modifier
        coordination = coordinate_actions(
            rows, proposals, self.agents, self.managers.coordinators,
            max_rounds=mod_cfg.max_coordination_rounds,
            tolerance=mod_cfg.tolerance,
            use_projection=mod_cfg.use_projection)
        self._rounds.append(coordination.rounds)
        return [coordination.actions[name] for name in slice_names]

    def run_episode(self, deterministic: bool = False,
                    learn: bool = True) -> Dict[str, object]:
        """One 24 h episode across all slices.

        Returns per-slice episode records plus the mean coordination
        rounds of the episode.
        """
        for agent in self.agents.values():
            agent.begin_episode()
        self._deterministic, self._rounds = deterministic, []
        for _, _, step in lockstep(self._batch, self, project=False):
            for name, *outcome in zip(
                    step.names[0], step.rewards.tolist(),
                    step.costs.tolist(), step.usages.tolist()):
                self.agents[name].observe(*outcome)
            if learn:
                for agent in self.agents.values():
                    agent.maybe_update()
        records = {name: agent.end_episode()
                   for name, agent in self.agents.items()}
        self.interaction_counts.extend(self._rounds)
        return {"records": records,
                "mean_interactions": float(np.mean(self._rounds))}

    def run_epoch(self, episodes: int = 10,
                  deterministic: bool = False,
                  learn: bool = True) -> EpochStats:
        """Run several episodes (at least one) and aggregate the
        paper's metrics."""
        if episodes < 1:
            raise ValueError(f"run_epoch needs at least one episode, "
                             f"got episodes={episodes}")
        usages: Dict[str, List[float]] = {
            name: [] for name in self.agents}
        costs: Dict[str, List[float]] = {
            name: [] for name in self.agents}
        violations: Dict[str, List[bool]] = {
            name: [] for name in self.agents}
        interactions: List[float] = []
        switches = 0
        for _ in range(episodes):
            outcome = self.run_episode(deterministic=deterministic,
                                       learn=learn)
            interactions.append(outcome["mean_interactions"])
            for name, record in outcome["records"].items():
                threshold = self.agents[name].cost_threshold
                usages[name].append(record.mean_usage)
                costs[name].append(record.mean_cost)
                violations[name].append(record.mean_cost > threshold)
                if record.switched_at is not None:
                    switches += 1
        per_slice_usage = {name: float(np.mean(vals))
                           for name, vals in usages.items()}
        per_slice_violation = {name: float(np.mean(vals))
                               for name, vals in violations.items()}
        stats = EpochStats(
            mean_usage=float(np.mean(list(per_slice_usage.values()))),
            mean_cost=float(np.mean([np.mean(costs[name])
                                     for name in self.agents])),
            violation_rate=float(np.mean(
                list(per_slice_violation.values()))),
            mean_interactions=float(np.mean(interactions)),
            episodes=episodes,
            switch_rate=switches / max(episodes * len(self.agents), 1),
            per_slice_usage=per_slice_usage,
            per_slice_violation=per_slice_violation,
        )
        self.epoch_history.append(stats)
        return stats

    def refresh_estimators(self) -> None:
        """Periodic online pi_phi refresh across agents (Sec. 5), three
        epochs each."""
        for agent in self.agents.values():
            agent.refresh_estimator(epochs=3)
