"""The OnSlicing agent (paper Fig. 2).

One agent per slice, composing four policies:

* **pi_theta** -- the learning policy (PPO actor-critic), updated with
  the constraint-aware Lagrangian reward (Eq. 3-5);
* **pi_b** -- the rule-based baseline, invoked by proactive switching;
* **pi_phi** -- the variational cost-to-go estimator driving the switch;
* **pi_a** -- the action modifier used during distributed coordination.

The agent owns the per-episode bookkeeping: cumulative cost, the
truncated-episode handling ("we only use the effective transitions run
by policy pi_theta and discard the remaining episode run by the
baseline policy" with a critic bootstrap at the truncation slot), the
dual update of the Lagrangian multiplier at episode end, and online
refreshing of pi_phi as new baseline-run transitions are observed.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter, is_
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.config import AgentConfig, NUM_ACTIONS
from repro.core.action_modifier import ActionModifier
from repro.core.switching import ProactiveBaselineSwitch, SwitchDecision
from repro.nn.bayesian import BayesianPosterior
from repro.nn.slabs import (
    adopt_mlps,
    mlp_forward,
    posterior_span,
    stack_posteriors,
)
from repro.rl.buffer import RolloutBuffer, Transition
from repro.rl.cost_estimator import CostToGoEstimator, destandardise
from repro.rl.lagrangian import LagrangianMultiplier
from repro.rl.ppo import GaussianActorCritic, PPOTrainer
from repro.sim.env import STATE_DIM, SliceObservation

_value = attrgetter("value")


@dataclass
class ActDecision:
    """What the agent decided for the current slot."""

    action: np.ndarray
    from_baseline: bool
    switch: SwitchDecision
    log_prob: float = 0.0
    value: float = 0.0


@dataclass
class EpisodeRecord:
    """Per-episode summary kept for diagnostics and dual updates."""

    total_cost: float
    total_usage: float
    length: int
    switched_at: Optional[int]

    @property
    def mean_cost(self) -> float:
        return self.total_cost / max(self.length, 1)

    @property
    def mean_usage(self) -> float:
        return self.total_usage / max(self.length, 1)


class OnSlicingAgent:
    """Per-slice online learner with near-zero-violation safeguards."""

    def __init__(self, slice_name: str, baseline_policy,
                 horizon: int, cost_threshold: float,
                 cfg: Optional[AgentConfig] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        self.slice_name = slice_name
        self.cfg = cfg or AgentConfig()
        self._rng = rng if rng is not None else np.random.default_rng(4)
        self.horizon = horizon
        self.cost_threshold = cost_threshold
        self.baseline = baseline_policy
        self.model = GaussianActorCritic(
            STATE_DIM, NUM_ACTIONS, policy_cfg=self.cfg.policy,
            ppo_cfg=self.cfg.ppo, rng=self._rng)
        self.trainer = PPOTrainer(self.model, cfg=self.cfg.ppo,
                                  rng=self._rng)
        self.buffer = RolloutBuffer(gamma=self.cfg.ppo.gamma,
                                    gae_lambda=self.cfg.ppo.gae_lambda)
        self.lagrangian = LagrangianMultiplier(
            cost_threshold, cfg=self.cfg.lagrangian)
        self.estimator = CostToGoEstimator(
            STATE_DIM, cfg=self.cfg.estimator, rng=self._rng)
        self.switch = ProactiveBaselineSwitch(
            self.cfg.switching, horizon, cost_threshold,
            estimator=(self.estimator
                       if self.cfg.switching.use_estimator else None),
            rng=self._rng)
        self.modifier = ActionModifier(self.cfg.modifier,
                                       rng=self._rng)
        # episode bookkeeping
        self._cum_cost = 0.0
        self._cum_usage = 0.0
        self._slot = 0
        self._pending: Optional[Dict] = None
        self._truncated = False
        self._baseline_states: List[np.ndarray] = []
        self._baseline_costs: List[float] = []
        self.episodes: List[EpisodeRecord] = []
        self.updates_run = 0
        self._stack = AgentStack()
        #: Minimum transitions before a PPO update (one paper epoch is
        #: 1000 transitions; we update on a fraction for faster cycles,
        #: and truncated episodes contribute fewer transitions).
        self.update_threshold = 192

    # ---- acting -------------------------------------------------------

    def begin_episode(self) -> None:
        self._cum_cost = 0.0
        self._cum_usage = 0.0
        self._slot = 0
        self._pending = None
        self._truncated = False
        self._baseline_states = []
        self._baseline_costs = []
        self.switch.reset()

    def act(self, observation: SliceObservation,
            deterministic: bool = False) -> ActDecision:
        """Choose the slot's action: Eq. 8 switch, then pi_theta/pi_b.

        The one-row case of :meth:`AgentStack.act`, on a stack of this
        agent alone (whose slabs are views of its own tables): the
        floats, draws and bookkeeping of this agent acting beside
        others."""
        return self._stack.act([self], [observation],
                               deterministic=deterministic)[0]

    def _own_part(self, observation, state: np.ndarray,
                  posterior: Tuple[float, float],
                  head: Optional[Tuple[np.ndarray, float]],
                  deterministic: bool) -> ActDecision:
        """This agent's part of a stacked act: the Eq. 8 latch on
        pi_phi's ``posterior`` ``(mu, sigma)`` at ``state``, the
        truncation bootstrap, then pi_b, or the Gaussian head on
        pi_theta's ``head`` ``(mean, value)`` (``None`` while latched),
        every draw on this agent's generator."""
        decision = self.switch.decide(*posterior, self._cum_cost,
                                      self._slot)
        if decision.newly_triggered and not self._truncated:
            # Truncate the pi_theta episode with a critic bootstrap at
            # the truncation slot (paper Sec. 3).
            self.buffer.end_episode(bootstrap_value=head[1])
            self._truncated = True
        if decision.use_baseline:
            action = np.asarray(self.baseline.act(observation),
                                dtype=float)
            self._pending = {"state": state, "action": action,
                             "from_baseline": True}
            return ActDecision(action=action, from_baseline=True,
                               switch=decision)
        mean, value = head
        action, log_prob = self.model.sample(mean, deterministic)
        log_prob = float(log_prob)
        self._pending = {"state": state, "from_baseline": False,
                         "action": action, "mean": mean,
                         "log_prob": log_prob, "value": value}
        return ActDecision(action=action, from_baseline=False,
                           switch=decision, log_prob=log_prob,
                           value=value)

    def observe(self, reward: float, cost: float, usage: float,
                executed_action: Optional[np.ndarray] = None) -> None:
        """Record the slot outcome.

        The stored transition uses the *sampled* action so the
        importance ratios of PPO stay coherent -- from pi_theta's
        perspective the action modification is part of the environment
        dynamics.  ``executed_action`` (the post-coordination action
        actually enforced) is accepted for callers that pass it and has
        no effect.
        """
        if self._pending is None:
            raise RuntimeError("observe() called before act()")
        pending = self._pending
        self._pending = None
        self._cum_cost += cost
        self._cum_usage += usage
        self._slot += 1
        if pending["from_baseline"]:
            # Baseline-run transitions feed pi_phi's online refresh.
            self._baseline_states.append(pending["state"])
            self._baseline_costs.append(cost)
            return
        penalized = self.lagrangian.penalized_reward(reward, cost)
        self.buffer.add(Transition(
            state=pending["state"], action=pending["action"],
            reward=penalized, cost=cost, value=pending["value"],
            log_prob=pending["log_prob"]))

    def end_episode(self) -> EpisodeRecord:
        """Finalise the episode: buffer, dual update, pi_phi refresh."""
        if not self._truncated:
            self.buffer.end_episode(bootstrap_value=0.0)
        if self._baseline_states:
            self.estimator.add_episode(self._baseline_states,
                                       self._baseline_costs)
        record = EpisodeRecord(
            total_cost=self._cum_cost, total_usage=self._cum_usage,
            length=self._slot, switched_at=self.switch.switch_slot)
        self.episodes.append(record)
        self.lagrangian.update(record.mean_cost)
        return record

    # ---- learning -------------------------------------------------------

    def maybe_update(self) -> Optional[Dict[str, float]]:
        """PPO update once enough pi_theta transitions accumulated."""
        if len(self.buffer) < self.update_threshold:
            return None
        stats = self.trainer.update(self.buffer.get())
        self.buffer.clear()
        self.updates_run += 1
        return stats

    def refresh_estimator(self, epochs: int = 5) -> Optional[List[float]]:
        """Online pi_phi adaptation on newly observed baseline data."""
        if self.estimator.dataset_size == 0:
            return None
        return self.estimator.fit(epochs=epochs)

    # ---- introspection ----------------------------------------------------

    @property
    def cumulative_cost(self) -> float:
        return self._cum_cost


class AgentStack:
    """Agents acting as one, slot by slot: the orchestrator's, one per
    slice (:meth:`OnSlicingOrchestrator.act_batch`), or one alone
    (:meth:`OnSlicingAgent.act`).

    A slot is one stacked pi_phi closed-form pass over the agents whose
    Eq. 8 reads it (:attr:`ProactiveBaselineSwitch.watching`), one
    stacked actor and one stacked critic forward over the agents whose
    switch has not latched -- ``(S, 1, in, out)`` slabs
    (:mod:`repro.nn.slabs`), each giving its agent the floats the
    agent's own networks give -- and then each agent's own part, in
    order: the Eq. 8 latch with the Est.-Noise draw, the truncation
    bootstrap, and pi_b or the Gaussian head with its log-density
    (:meth:`OnSlicingAgent._own_part`).

    Where the slabs live and when they are rebuilt: the actor and
    critic slabs are shared with the agents' parameters
    (:func:`~repro.nn.slabs.adopt_mlps`), so a PPO step, which writes
    them in place, lands in the slab; a parameter rebound since (by
    ``load_state_dict`` / ``set_weights``), or another list of agents,
    is seen by identity on the next act and the networks are adopted
    anew.  The pi_phi slab stacks the agents' frozen
    :meth:`CostToGoEstimator.posterior` tables and is rebuilt when one
    of those objects changes (a refresh fit or a load); the target
    scale is read on every pass.  A copy (``copy``, ``pickle``) keeps
    no slab and builds its own from its own agents.
    """

    def __init__(self) -> None:
        #: ``(agents, actor, critic, parameters, their bound values)``
        self._networks: Optional[tuple] = None
        #: ``(stacked table, the frozen tables it stacks)``
        self._posterior: Optional[tuple] = None
        self._counters = dict.fromkeys(
            ("act_calls", "rows_acted", "forward_calls",
             "posterior_calls", "posterior_rows", "slab_builds"), 0)

    def __getstate__(self) -> Dict:
        # a copy's parameter arrays are not views of a copied slab
        return {**self.__dict__, "_networks": None, "_posterior": None}

    @property
    def counters(self) -> Mapping[str, int]:
        """What this stack did so far (a read-only snapshot): act calls
        and the agent rows they acted, the stacked actor + critic
        forwards run, the pi_phi passes run and the (watching) rows
        they evaluated, and the slabs (re)built -- actor and critic
        adoptions and pi_phi stacks alike, so one minus ``slab_builds``
        over ``forward_calls + posterior_calls`` is the slabs' hit
        rate."""
        return MappingProxyType(dict(self._counters))

    def _nets(self, agents: List[OnSlicingAgent]):
        """The actor and critic slabs of ``agents``, current."""
        held = self._networks
        if (held is None or held[0] != agents or not all(
                map(is_, map(_value, held[3]), held[4]))):
            actor, bound = adopt_mlps([a.model.actor for a in agents])
            critic, more = adopt_mlps([a.model.critic for a in agents])
            params, values = zip(*(bound + more))
            held = self._networks = (agents, actor, critic, params, values)
            self._counters["slab_builds"] += 1
        return held[1], held[2]

    def _table(self, agents: List[OnSlicingAgent]) -> BayesianPosterior:
        """The pi_phi slab of ``agents``, current."""
        frozen = [agent.estimator.posterior() for agent in agents]
        held = self._posterior
        if (held is None or len(held[1]) != len(frozen)
                or not all(map(is_, held[1], frozen))):
            held = self._posterior = (stack_posteriors(frozen), frozen)
            self._counters["slab_builds"] += 1
        return held[0]

    def act(self, agents: Sequence[OnSlicingAgent],
            observations: Sequence, deterministic: bool = False
            ) -> List[ActDecision]:
        """One slot of ``agents``, each on its observation, in order."""
        agents = list(agents)
        if len(observations) != len(agents):
            raise ValueError(f"{len(observations)} observation(s) for "
                             f"{len(agents)} agent(s)")
        states = [observation.vector() for observation in observations]
        stacked = np.stack(states)[:, None, None, :]
        counters = self._counters
        counters["act_calls"] += 1
        counters["rows_acted"] += len(agents)
        posteriors = [(0.0, 0.0)] * len(agents)
        watching = [at for at, agent in enumerate(agents)
                    if agent.switch.watching]
        if watching:
            span = slice(watching[0], watching[-1] + 1)
            mean, std = posterior_span(self._table(agents), span).predict(
                stacked[span])
            scale = np.array([agent.estimator.target_scale
                              for agent in agents[span]]).T
            mu, sigma = destandardise(mean[:, 0, 0, 0], std[:, 0, 0, 0],
                                      scale)
            for at in watching:
                posteriors[at] = (float(mu[at - span.start]),
                                  float(sigma[at - span.start]))
            counters["posterior_calls"] += 1
            counters["posterior_rows"] += len(watching)
        heads: List[Optional[tuple]] = [None] * len(agents)
        open_ = [at for at, agent in enumerate(agents)
                 if not agent.switch.active]
        if open_:
            span = slice(open_[0], open_[-1] + 1)
            actor, critic = self._nets(agents)
            means = mlp_forward(actor, stacked[span], span)
            values = mlp_forward(critic, stacked[span], span)
            for at in open_:
                heads[at] = (means[at - span.start, 0, 0],
                             float(values[at - span.start, 0, 0, 0]))
            counters["forward_calls"] += 1
        return [agent._own_part(*parts, deterministic)
                for agent, *parts in zip(agents, observations, states,
                                         posteriors, heads)]
