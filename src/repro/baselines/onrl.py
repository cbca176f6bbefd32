"""OnRL-style online DRL agent (comparison method, paper Sec. 7.1).

OnRL [Zhang et al., MobiCom '20] learns online in the real network from
scratch.  The paper adapts it to slicing: "We supplement the reward
sharping method to be aware of constraints and the projection method to
deal with resource over-requesting situations."  Concretely this agent
is PPO with

* a **fixed-weight** penalty ``r - w * c`` (reward shaping, not the
  adaptive Lagrangian of OnSlicing),
* **no** offline imitation (learns from scratch),
* **no** proactive baseline switching or cost estimator,
* **projection** (not action modification) for over-requests -- applied
  by the caller across agents, per world, by the lockstep loop.

One learner serves any number of parallel worlds, row ``b`` of every
call being world ``b`` (the vectorised-env pattern): one batched
forward per slot, one :class:`~repro.rl.buffer.RolloutBuffer` per world
so GAE stays per-episode exact, and one PPO update over the merged
worlds at an episode boundary.  A single world is the one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.config import PPOConfig, PolicyNetConfig
from repro.rl.buffer import RolloutBuffer, Transition
from repro.rl.ppo import GaussianActorCritic, PPOTrainer


@dataclass(frozen=True)
class OnRLConfig:
    """Hyper-parameters of the adapted OnRL agent."""

    #: Fixed reward-shaping weight on the cost (no dual update).
    penalty_weight: float = 2.0
    ppo: PPOConfig = PPOConfig()
    policy: PolicyNetConfig = PolicyNetConfig()
    #: Minimum stored transitions before a PPO update runs.
    update_threshold: int = 384


class OnRLAgent:
    """Learn-from-scratch PPO agent for one slice, over B worlds."""

    def __init__(self, slice_name: str, state_dim: int, action_dim: int,
                 cfg: Optional[OnRLConfig] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        self.slice_name = slice_name
        #: The router's same-app key (``MAR7`` -> the ``mar`` policy).
        self.app = slice_name[:3].lower()
        self.cfg = cfg or OnRLConfig()
        self._rng = rng if rng is not None else np.random.default_rng(5)
        self.model = GaussianActorCritic(
            state_dim, action_dim, policy_cfg=self.cfg.policy,
            ppo_cfg=self.cfg.ppo, rng=self._rng)
        self.trainer = PPOTrainer(self.model, cfg=self.cfg.ppo,
                                  rng=self._rng)
        #: One rollout buffer per world, grown to the widest batch.
        self.buffers: List[RolloutBuffer] = []
        self._pending: Optional[Dict[str, np.ndarray]] = None
        self.updates_run = 0

    def act_rows(self, states: np.ndarray) -> np.ndarray:
        """Deterministic (mean) actions for stacked states: the Table 1
        test protocol.  Stages nothing and learns nothing."""
        return self.model.mean_actions(states)

    def sample_rows(self, states: np.ndarray) -> np.ndarray:
        """Sample one action per world and stage the transitions for
        :meth:`observe_rows`."""
        states = np.asarray(states, dtype=np.float64)
        model = self.model
        means = model.actor.predict_batch(states)
        actions, log_probs = model.sample(means)
        ppo = self.cfg.ppo
        while len(self.buffers) < len(states):
            self.buffers.append(RolloutBuffer(
                gamma=ppo.gamma, gae_lambda=ppo.gae_lambda))
        self._pending = {
            "states": states, "actions": actions,
            "log_probs": log_probs,
            "values": model.critic.predict_batch(states)[:, 0]}
        return actions

    def observe_rows(self, rewards: np.ndarray,
                     costs: np.ndarray) -> None:
        """Record every world's outcome of the staged actions (reward
        shaping applied here)."""
        if self._pending is None:
            raise RuntimeError("observe_rows() called before "
                               "sample_rows()")
        pending, self._pending = self._pending, None
        costs = np.asarray(costs, dtype=float)
        shaped = (np.asarray(rewards, dtype=float)
                  - self.cfg.penalty_weight * costs)
        for b in range(len(pending["states"])):
            self.buffers[b].add(Transition(
                state=pending["states"][b],
                action=pending["actions"][b],
                reward=float(shaped[b]), cost=float(costs[b]),
                value=float(pending["values"][b]),
                log_prob=float(pending["log_probs"][b])))

    def end_episode(self) -> Optional[Dict[str, float]]:
        """Finalise every world's episode, then run one PPO update over
        the merged worlds once they hold ``update_threshold``
        transitions.  Nothing is in progress at this point, so the
        update trains on every transition observed since the last."""
        for buffer in self.buffers:
            buffer.end_episode(bootstrap_value=0.0)
        if sum(map(len, self.buffers)) < self.cfg.update_threshold:
            return None
        batches = [buffer.get(normalize_advantages=False)
                   for buffer in self.buffers if len(buffer)]
        merged = {key: np.concatenate([batch[key] for batch in batches])
                  for key in batches[0]}
        advantages = merged["advantages"]
        if len(advantages) > 1:
            merged["advantages"] = (advantages - advantages.mean()) / (
                advantages.std() + 1e-8)
        stats = self.trainer.update(merged)
        for buffer in self.buffers:
            buffer.clear()
        self.updates_run += 1
        return stats

    # -- persistence -----------------------------------------------------

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Learnable state (actor, critic, Gaussian head) by name.

        Arrays are copies; pair with :meth:`load_state_dict` for exact
        round-trips (the policy store serialises these through the
        runtime's tagged-JSON scheme).
        """
        return self.model.state_dict()

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Restore weights exported by :meth:`state_dict` in place."""
        self.model.load_state_dict(state)
