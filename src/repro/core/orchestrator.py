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
from typing import Dict, Iterator, List, Mapping, Optional

import numpy as np

from repro.baselines.projection import project_actions
from repro.config import ACTION_NAMES, ExperimentConfig
from repro.core.agent import OnSlicingAgent
from repro.domains.base import DomainManager
from repro.domains.cdm import CoreDomainManager
from repro.domains.coordinator import ParameterCoordinator
from repro.domains.edm import EdgeDomainManager
from repro.domains.rdm import RadioDomainManager
from repro.domains.tdm import TransportDomainManager
from repro.engine.batch import BatchSimulator
from repro.engine.policies import lockstep
from repro.sim.env import ScenarioSimulator, SliceObservation
from repro.sim.network import (
    CONSTRAINED_RESOURCES,
    EndToEndNetwork,
    SlotReport,
)


@dataclass
class DomainManagerSet:
    """The four domain managers over one network instance.

    Each manager is lifecycle, per-slice configuration with isolation
    enforced, and (for the three that own constrained kinds) a
    parameter coordinator; none of them models performance.  "What
    would this configuration deliver?" has one answer for all four,
    :meth:`evaluate_slot`.
    """

    rdm: RadioDomainManager
    tdm: TransportDomainManager
    cdm: CoreDomainManager
    edm: EdgeDomainManager

    @classmethod
    def for_simulator(cls, simulator: ScenarioSimulator,
                      coordinator_step: float = 0.5
                      ) -> "DomainManagerSet":
        network = simulator.network
        managers = cls(
            rdm=RadioDomainManager(coordinator_step=coordinator_step),
            tdm=TransportDomainManager(network.fabric,
                                       coordinator_step=coordinator_step),
            cdm=CoreDomainManager(network.core),
            edm=EdgeDomainManager(network.edge,
                                  coordinator_step=coordinator_step),
        )
        for name in simulator.slice_names:
            for manager in managers:
                manager.create_slice(name)
        return managers

    def __iter__(self) -> Iterator[DomainManager]:
        return iter((self.rdm, self.tdm, self.cdm, self.edm))

    @property
    def coordinators(self) -> List[ParameterCoordinator]:
        return [self.rdm.coordinator, self.tdm.coordinator,
                self.edm.coordinator]

    def slot_action(self, name: str) -> np.ndarray:
        """The 10-dim action the four managers' current configuration
        of slice ``name`` amounts to (each contributes its own
        dimensions, see :meth:`DomainManager.action_terms`)."""
        terms: Dict[str, float] = {}
        for manager in self:
            terms.update(manager.action_terms(name))
        return np.array([terms[dim] for dim in ACTION_NAMES])

    def evaluate_slot(self, network: EndToEndNetwork,
                      arrival_rates: Mapping[str, float]
                      ) -> Dict[str, SlotReport]:
        """What the managers' configuration would deliver on
        ``network`` at these arrival rates: the configured slices'
        actions through the kernels (``network.evaluate_slot``), under
        the network's current channels and fabric conditions.  (Eq. 9
        ``usage`` counts ``U_l``, so it reflects the mid-bin encoding
        of the configured path.)"""
        return network.evaluate_slot(
            {name: self.slot_action(name)
             for name in network.slice_names}, arrival_rates)


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
                 managers: Optional[DomainManagerSet] = None,
                 cfg: Optional[ExperimentConfig] = None) -> None:
        missing = set(simulator.slice_names) - set(agents)
        if missing:
            raise ValueError(f"agents missing for slices: {missing}")
        self.simulator = simulator
        self.agents = agents
        self.cfg = cfg or ExperimentConfig()
        self.managers = managers if managers is not None else \
            DomainManagerSet.for_simulator(
                simulator,
                coordinator_step=self.cfg.agent.modifier
                .coordinator_step_size)
        self.interaction_counts: List[int] = []
        self.epoch_history: List[EpochStats] = []
        self._batch = BatchSimulator([simulator])
        self._deterministic, self._rounds = False, []

    def act_batch(self, states: np.ndarray,
                  slice_names: List[str]) -> List[np.ndarray]:
        """:meth:`run_episode`'s batch policy: the agents act on their
        rows (in ``self.agents`` order), then the slot is coordinated."""
        rows = dict(zip(slice_names, states))
        proposals = {
            name: agent.act(SliceObservation(*rows[name].tolist()),
                            deterministic=self._deterministic).action
            for name, agent in self.agents.items()}
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
        for _, executed, step in lockstep(self._batch, self,
                                          project=False):
            for name, action, *outcome in zip(
                    step.names[0], executed, step.rewards.tolist(),
                    step.costs.tolist(), step.usages.tolist()):
                self.agents[name].observe(*outcome,
                                          executed_action=action)
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
        """Run several episodes and aggregate the paper's metrics."""
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

    def refresh_estimators(self, epochs: int = 3) -> None:
        """Periodic online pi_phi refresh across agents (Sec. 5)."""
        for agent in self.agents.values():
            agent.refresh_estimator(epochs=epochs)
