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

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.config import AgentConfig, NUM_ACTIONS
from repro.core.action_modifier import ActionModifier
from repro.core.switching import ProactiveBaselineSwitch, SwitchDecision
from repro.rl.buffer import RolloutBuffer, Transition
from repro.rl.cost_estimator import CostToGoEstimator
from repro.rl.lagrangian import LagrangianMultiplier
from repro.rl.ppo import GaussianActorCritic, PPOTrainer
from repro.sim.env import STATE_DIM, SliceObservation


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
                 state_dim: int = STATE_DIM,
                 action_dim: int = NUM_ACTIONS,
                 rng: Optional[np.random.Generator] = None) -> None:
        self.slice_name = slice_name
        self.cfg = cfg or AgentConfig()
        self._rng = rng if rng is not None else np.random.default_rng(4)
        self.horizon = horizon
        self.cost_threshold = cost_threshold
        self.baseline = baseline_policy
        self.model = GaussianActorCritic(
            state_dim, action_dim, policy_cfg=self.cfg.policy,
            ppo_cfg=self.cfg.ppo, rng=self._rng)
        self.trainer = PPOTrainer(self.model, cfg=self.cfg.ppo,
                                  rng=self._rng)
        self.buffer = RolloutBuffer(gamma=self.cfg.ppo.gamma,
                                    gae_lambda=self.cfg.ppo.gae_lambda)
        self.lagrangian = LagrangianMultiplier(
            cost_threshold, cfg=self.cfg.lagrangian)
        self.estimator = CostToGoEstimator(
            state_dim, cfg=self.cfg.estimator, rng=self._rng)
        self.switch = ProactiveBaselineSwitch(
            self.cfg.switching, horizon, cost_threshold,
            estimator=(self.estimator
                       if self.cfg.switching.use_estimator else None),
            rng=self._rng)
        self.modifier = ActionModifier(self.cfg.modifier,
                                       state_dim=state_dim,
                                       action_dim=action_dim,
                                       rng=self._rng)
        # episode bookkeeping
        self.last_executed_action: Optional[np.ndarray] = None
        self._cum_cost = 0.0
        self._cum_usage = 0.0
        self._slot = 0
        self._pending: Optional[Dict] = None
        self._truncated = False
        self._baseline_states: List[np.ndarray] = []
        self._baseline_costs: List[float] = []
        self.episodes: List[EpisodeRecord] = []
        self.updates_run = 0
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
        """Choose the slot's action: Eq. 8 switch, then pi_theta/pi_b."""
        state = observation.vector()
        decision = self.switch.evaluate(state, self._cum_cost,
                                        self._slot)
        if decision.newly_triggered and not self._truncated:
            # Truncate the pi_theta episode with a critic bootstrap at
            # the truncation slot (paper Sec. 3).
            self.buffer.end_episode(
                bootstrap_value=self.model.value(state))
            self._truncated = True
        if decision.use_baseline:
            action = np.asarray(self.baseline.act(observation),
                                dtype=float)
            self._pending = {"state": state, "action": action,
                             "from_baseline": True}
            return ActDecision(action=action, from_baseline=True,
                               switch=decision)
        sampled = self.model.act(state, deterministic=deterministic)
        self._pending = {"state": state, "from_baseline": False,
                         **sampled}
        return ActDecision(action=sampled["action"],
                           from_baseline=False, switch=decision,
                           log_prob=sampled["log_prob"],
                           value=sampled["value"])

    def observe(self, reward: float, cost: float, usage: float,
                executed_action: Optional[np.ndarray] = None) -> None:
        """Record the slot outcome.

        ``executed_action`` (the post-coordination action actually
        enforced) is kept for diagnostics only; the stored transition
        uses the *sampled* action so the importance ratios of PPO stay
        coherent -- from pi_theta's perspective the action modification
        is part of the environment dynamics.
        """
        if self._pending is None:
            raise RuntimeError("observe() called before act()")
        pending = self._pending
        self._pending = None
        self._cum_cost += cost
        self._cum_usage += usage
        self._slot += 1
        self.last_executed_action = (
            np.asarray(executed_action, dtype=float)
            if executed_action is not None else pending["action"])
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
