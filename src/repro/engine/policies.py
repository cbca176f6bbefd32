"""Batched policies: stacked observations in, stacked actions out.

The :class:`BatchPolicy` protocol is the engine-side counterpart of
the per-slice ``act``/``act_vector`` interfaces: a policy maps an
``(R, STATE_DIM)`` observation matrix (plus per-row slice metadata) to
an ``(R, NUM_ACTIONS)`` action matrix in one shot.  The paper's
comparison policies are per-slice objects, so the batch form of all of
them is one router, :class:`RoutedBatchPolicy`: every row goes to the
per-slice policy its slice name resolves to, and rows that share a
policy are served by one ``policy.act_rows(states)`` call --

* the rule-based Baseline's ``act_rows`` is one ``searchsorted`` over
  the traffic column plus a row gather from its bin table;
* Model_Based's evaluates its closed-form program row by row;
* a learned snapshot policy's is one ``MLP.predict_batch`` forward.

:func:`project_actions_batch` applies the paper's projection
(Sec. 4) per world across a whole batch, and :class:`VecOnRLAgent`
runs one OnRL learner over B parallel worlds with per-world rollout
buffers (the standard vectorised-env pattern).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Protocol, Sequence

import numpy as np

from repro.config import NUM_ACTIONS
from repro.rl.buffer import RolloutBuffer, Transition
from repro.sim.network import CONSTRAINED_RESOURCES

#: Constrained action columns in CONSTRAINED_RESOURCES order.
_KIND_COLUMNS = np.fromiter(CONSTRAINED_RESOURCES.values(),
                            dtype=np.intp)


class BatchPolicy(Protocol):
    """Maps stacked observations to stacked actions.

    ``slice_names`` gives the per-row slice identity (same length as
    ``states``); implementations that are slice-agnostic may ignore
    it.
    """

    def act_batch(self, states: np.ndarray,
                  slice_names: Sequence[str]) -> np.ndarray:
        ...


class ConstantBatchPolicy:
    """Every slice plays one fixed allocation (background/bench load)."""

    def __init__(self, action: np.ndarray) -> None:
        action = np.asarray(action, dtype=float)
        if action.shape != (NUM_ACTIONS,):
            raise ValueError(f"action must have {NUM_ACTIONS} dims")
        self.action = action

    def act_batch(self, states: np.ndarray,
                  slice_names: Sequence[str]) -> np.ndarray:
        return np.broadcast_to(self.action,
                               (len(states), NUM_ACTIONS)).copy()


class RoutedBatchPolicy:
    """Per-slice policies over a batch: route each row by slice name.

    ``policies`` maps slice names to per-slice policies exposing
    ``app`` and ``act_rows(states)``.  A row's name resolves to the
    policy of that exact name, else to the first policy of the same
    leading app prefix (``MAR7`` -> the ``mar`` policy, mirroring how
    population scenarios cycle the three fitted apps), else to the
    first policy.
    """

    def __init__(self, policies: Mapping[str, object]) -> None:
        if not policies:
            raise ValueError("need at least one per-slice policy")
        self.policies = dict(policies)
        self._by_app: Dict[str, object] = {}
        for policy in self.policies.values():
            self._by_app.setdefault(policy.app, policy)
        self._fallback = next(iter(self.policies.values()))
        # The routing plan of the last name sequence served: a batch
        # driver asks with the same names slot after slot.
        self._plan_names: List[str] = []
        self._plan: List[tuple] = []

    def _resolve(self, name: str):
        policy = self.policies.get(name)
        if policy is not None:
            return policy
        return self._by_app.get(name[:3].lower(), self._fallback)

    def _route(self, slice_names: Sequence[str]) -> List[tuple]:
        """``(policy, row indices)`` per resolved policy, in order of
        first appearance; recomputed only when the names change."""
        if not isinstance(slice_names, list):
            slice_names = list(slice_names)
        if slice_names != self._plan_names:
            groups: Dict[int, tuple] = {}
            for row, name in enumerate(slice_names):
                policy = self._resolve(name)
                groups.setdefault(id(policy), (policy, []))[1].append(
                    row)
            self._plan = [(policy, np.asarray(rows, dtype=np.intp))
                          for policy, rows in groups.values()]
            self._plan_names = list(slice_names)
        return self._plan

    def act_batch(self, states: np.ndarray,
                  slice_names: Sequence[str]) -> np.ndarray:
        states = np.asarray(states, dtype=float)
        actions = np.empty((len(states), NUM_ACTIONS))
        for policy, rows in self._route(slice_names):
            actions[rows] = policy.act_rows(states[rows])
        return actions


#: The static methods' batch policies are the router itself, over
#: fitted :class:`~repro.baselines.rule_based.RuleBasedPolicy` tables
#: and per-slice :class:`~repro.baselines.model_based.ModelBasedPolicy`
#: programs respectively.
RuleBasedBatchPolicy = ModelBasedBatchPolicy = RoutedBatchPolicy


def project_actions_batch(actions: np.ndarray,
                          offsets: np.ndarray,
                          capacity: float = 1.0) -> np.ndarray:
    """Per-world proportional projection over a stacked action matrix.

    ``offsets[i]:offsets[i+1]`` delimit world ``i``'s rows; for every
    constrained resource kind whose within-world total exceeds
    ``capacity``, that world's entries scale by ``capacity / total``
    (the paper's projection, Sec. 4), all other dimensions untouched.
    Returns a new matrix.
    """
    projected = np.asarray(actions, dtype=float).copy()
    requested = projected[:, _KIND_COLUMNS]
    world_of = np.repeat(np.arange(len(offsets) - 1),
                         np.diff(offsets))
    totals = np.zeros((len(offsets) - 1, len(_KIND_COLUMNS)))
    np.add.at(totals, world_of, requested)
    over = totals > capacity
    scale = np.where(over & (totals > 0),
                     capacity / np.where(totals > 0, totals, 1.0),
                     1.0)
    projected[:, _KIND_COLUMNS] = requested * scale[world_of]
    return projected


class VecOnRLAgent:
    """One OnRL learner driving B parallel worlds.

    Wraps a scalar :class:`~repro.baselines.onrl.OnRLAgent`: the
    actor/critic forwards run batched over the worlds
    (``MLP.predict_batch``), while each world keeps its own
    :class:`~repro.rl.buffer.RolloutBuffer` so GAE stays per-episode
    correct.  PPO updates trigger at episode boundaries once the
    worlds' combined finalised transitions reach the scalar agent's
    update threshold.
    """

    def __init__(self, agent, num_envs: int) -> None:
        if num_envs < 1:
            raise ValueError("num_envs must be >= 1")
        self.agent = agent
        self.num_envs = num_envs
        ppo = agent.cfg.ppo
        self.buffers = [RolloutBuffer(gamma=ppo.gamma,
                                      gae_lambda=ppo.gae_lambda)
                        for _ in range(num_envs)]
        self._pending: Optional[Dict[str, np.ndarray]] = None
        self.updates_run = 0

    def act_many(self, states: np.ndarray,
                 deterministic: bool = False) -> np.ndarray:
        """Batched act across worlds; stages transitions for
        :meth:`observe_many`."""
        states = np.asarray(states, dtype=np.float64)
        if states.ndim != 2 or states.shape[0] != self.num_envs:
            raise ValueError(
                f"need one state row per world: expected "
                f"({self.num_envs}, state_dim), got {states.shape}")
        model = self.agent.model
        means = model.actor.predict_batch(states)
        if deterministic:
            actions = np.clip(means, 0.0, 1.0)
        else:
            actions = model.dist.sample(means, model._rng)
        log_probs = model.dist.log_prob(means, actions)
        values = model.critic.predict_batch(states)[:, 0]
        self._pending = {"states": states, "actions": actions,
                         "log_probs": log_probs, "values": values}
        return actions

    def discard_pending(self) -> None:
        self._pending = None

    def observe_many(self, rewards: np.ndarray,
                     costs: np.ndarray) -> None:
        """Record every world's outcome (reward shaping included)."""
        if self._pending is None:
            raise RuntimeError("observe_many() called before act_many()")
        pending = self._pending
        self._pending = None
        shaped = (np.asarray(rewards, dtype=float)
                  - self.agent.cfg.penalty_weight
                  * np.asarray(costs, dtype=float))
        for b, buffer in enumerate(self.buffers):
            buffer.add(Transition(
                state=pending["states"][b],
                action=pending["actions"][b],
                reward=float(shaped[b]), cost=float(costs[b]),
                value=float(pending["values"][b]),
                log_prob=float(pending["log_probs"][b])))

    def end_episodes(self) -> None:
        for buffer in self.buffers:
            buffer.end_episode(bootstrap_value=0.0)

    def maybe_update(self) -> Optional[Dict[str, float]]:
        """One PPO update over the merged worlds, when enough data."""
        total = sum(len(buffer) for buffer in self.buffers)
        if total < self.agent.cfg.update_threshold:
            return None
        batches = [buffer.get(normalize_advantages=False)
                   for buffer in self.buffers if len(buffer)]
        merged = {key: np.concatenate([batch[key]
                                       for batch in batches])
                  for key in batches[0]}
        advantages = merged["advantages"]
        if len(advantages) > 1:
            merged["advantages"] = (advantages - advantages.mean()) / (
                advantages.std() + 1e-8)
        stats = self.agent.trainer.update(merged)
        for buffer in self.buffers:
            buffer.clear()
        self.updates_run += 1
        self.agent.updates_run += 1
        return stats
