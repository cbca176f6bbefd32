"""The offline stage as it ran before its fits shared one loop: the
oracle of ``tests/test_fit_oracle.py`` and ``tests/test_learning_loops.py``.

``repro.nn.optim.fit_minibatches`` is the one supervised fit loop
(permutation per epoch; per minibatch zero the grads, forward and
backward, clip at 5.0, Adam step, add to the curve), and
``repro.core.offline.OfflineDataset`` holds a slice's rollouts as
contiguous arrays.  Until then each fit wrote the loop out by hand and
the dataset was a set of Python lists filled row by row.  What follows
is that code, moved here **verbatim**: the list-based
``OfflineDataset``, the parent ``pretrain_agent`` /
``_warm_start_critic`` that re-stacked its lists, and each fit's own
loop as a method of a subclass of the class it ran in
(``CostToGoEstimator`` with the row-list ``add_episode`` its ``fit``
reads; ``ActionModifier`` with the raw-beta ``objective`` its loop
calls, as it stood at commit ``77ddc91``).  Only the enclosing
classes, their docstrings and this one are new; ``ast.dump`` of each
moved definition equals the one at commit ``72485af`` (``77ddc91``
for ``objective``, ``50c6f56`` for ``CostSurrogate
.cost_and_action_grad``, which now computes only the input
gradient).  The subclasses share their parents' constructors, so an
oracle and a current object built from one seed start equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core import action_modifier
from repro.core.action_modifier import COST_WEIGHT
from repro.core.agent import OnSlicingAgent
from repro.core.offline import PretrainReport
from repro.nn.losses import mse_loss
from repro.nn.optim import clip_grad_norm
from repro.rl import behavior_cloning, cost_estimator
from repro.rl.cost_estimator import cost_to_go


@dataclass
class OfflineDataset:
    """Baseline-rollout transitions for one slice.

    ``actions`` are the *executed* actions (possibly exploration-
    jittered); ``expert_actions`` are the clean pi_b labels for the
    visited states.  Behavior cloning trains on the expert labels so
    the clone learns to *recover* toward the baseline from off-
    trajectory states (a DAgger-style correction -- without it, one
    noisy slot pushes the state features off the training manifold and
    the clone cascades).
    """

    states: List[np.ndarray] = field(default_factory=list)
    actions: List[np.ndarray] = field(default_factory=list)
    expert_actions: List[np.ndarray] = field(default_factory=list)
    rewards: List[float] = field(default_factory=list)
    costs: List[float] = field(default_factory=list)
    usages: List[float] = field(default_factory=list)
    episode_bounds: List[int] = field(default_factory=list)

    def add(self, state: np.ndarray, action: np.ndarray, reward: float,
            cost: float, usage: float,
            expert_action: Optional[np.ndarray] = None) -> None:
        self.states.append(np.asarray(state, dtype=float))
        self.actions.append(np.asarray(action, dtype=float))
        self.expert_actions.append(
            np.asarray(expert_action, dtype=float)
            if expert_action is not None
            else np.asarray(action, dtype=float))
        self.rewards.append(float(reward))
        self.costs.append(float(cost))
        self.usages.append(float(usage))

    def end_episode(self) -> None:
        self.episode_bounds.append(len(self.states))

    def __len__(self) -> int:
        return len(self.states)

    def episodes(self):
        """Yield (states, costs) per episode for estimator training."""
        start = 0
        for end in self.episode_bounds:
            yield (self.states[start:end], self.costs[start:end])
            start = end

    def mean_usage(self) -> float:
        return float(np.mean(self.usages)) if self.usages else 0.0


class BehaviorCloningTrainer(behavior_cloning.BehaviorCloningTrainer):
    """Behaviour cloning with the parent epoch loop."""

    def train_epoch(self, states: np.ndarray,
                    actions: np.ndarray) -> float:
        """One pass over the demonstration set; returns the mean loss."""
        states = np.asarray(states, dtype=np.float64)
        actions = np.asarray(actions, dtype=np.float64)
        if len(states) != len(actions):
            raise ValueError("states/actions length mismatch")
        if len(states) == 0:
            raise ValueError("empty demonstration set")
        n = len(states)
        order = self._rng.permutation(n)
        total, batches = 0.0, 0
        for start in range(0, n, self.cfg.minibatch_size):
            idx = order[start:start + self.cfg.minibatch_size]
            pred = self.actor.forward(states[idx])
            loss, grad = mse_loss(pred, actions[idx])
            self._optim.zero_grad()
            self.actor.backward(grad)
            clip_grad_norm(self.actor.parameters(), 5.0)
            self._optim.step()
            total += loss
            batches += 1
        return total / max(batches, 1)


class CostSurrogate(action_modifier.CostSurrogate):
    """The cost surrogate with the parent fit loop, and the parent
    ``cost_and_action_grad`` (a whole ``MLP.backward``, its parameter
    gradients then zeroed) that pi_a's loop calls."""

    def fit(self, states: np.ndarray, actions: np.ndarray,
            costs: np.ndarray, epochs: int = 30) -> List[float]:
        """Supervised regression on collected transitions, in
        minibatches of 128."""
        states = np.asarray(states, dtype=float)
        actions = np.asarray(actions, dtype=float)
        costs = np.asarray(costs, dtype=float).reshape(-1, 1)
        if not len(states) == len(actions) == len(costs):
            raise ValueError("dataset length mismatch")
        inputs = np.concatenate([states, actions], axis=1)
        n = len(inputs)
        curve: List[float] = []
        for _ in range(epochs):
            order = self._rng.permutation(n)
            total, batches = 0.0, 0
            for start in range(0, n, 128):
                idx = order[start:start + 128]
                pred = self.network.forward(inputs[idx])
                loss, grad = mse_loss(pred, costs[idx])
                self._optim.zero_grad()
                self.network.backward(grad)
                clip_grad_norm(self.network.parameters(), 5.0)
                self._optim.step()
                total += loss
                batches += 1
            curve.append(total / max(batches, 1))
        return curve

    def cost_and_action_grad(self, states: np.ndarray,
                             actions: np.ndarray
                             ) -> Tuple[np.ndarray, np.ndarray]:
        """Predicted cost and its gradient w.r.t. the action inputs."""
        states = np.atleast_2d(states)
        actions = np.atleast_2d(actions)
        inputs = np.concatenate([states, actions], axis=1)
        pred = self.network.forward(inputs)
        grad_in = self.network.backward(np.ones_like(pred))
        # Careful: backward() accumulates parameter grads; surrogate is
        # frozen during pi_a training, so zero them to stay clean.
        self.network.zero_grad()
        return pred[:, 0], grad_in[:, self.state_dim:]


class ActionModifier(action_modifier.ActionModifier):
    """pi_a with the parent offline training loop, and the parent
    ``objective`` it calls (raw betas, expanded again inside)."""

    def objective(self, states: np.ndarray, actions: np.ndarray,
                  betas: np.ndarray, modified: np.ndarray
                  ) -> Tuple[float, np.ndarray]:
        """Mean H over a batch and dH/d(modified).

        H = |a_hat - a|^2 + sum_k beta_k a_hat_k + w_c c(s, a_hat).
        """
        n = len(modified)
        beta_mat = self._beta_matrix(betas)
        cost, cost_grad = self.surrogate.cost_and_action_grad(
            states, modified)
        distance = np.sum((modified - actions) ** 2, axis=1)
        beta_term = np.sum(beta_mat * modified, axis=1)
        h = float(np.mean(distance + beta_term + COST_WEIGHT * cost))
        grad = (2.0 * (modified - actions) + beta_mat
                + COST_WEIGHT * cost_grad) / n
        return h, grad

    def train_offline(self, states: np.ndarray,
                      actions: np.ndarray) -> List[float]:
        """Offline pi_a training on system data + random betas, for
        ``cfg.train_epochs`` epochs.

        Builds the paper's dataset: each collected (s, a) pair is
        paired with coordinating parameters drawn uniformly from
        [0, 1] (plus a share of all-zero betas so the modifier learns
        to be the identity when nothing is over-requested), then pi_a
        is updated to minimise H through the frozen surrogate.
        """
        states = np.asarray(states, dtype=float)
        actions = np.asarray(actions, dtype=float)
        n = len(states)
        if n == 0:
            raise ValueError("empty modifier dataset")
        betas = self._rng.uniform(0.0, 1.0, size=(n, self.num_betas))
        zero_rows = self._rng.random(n) < 0.25
        betas[zero_rows] = 0.0
        inputs = np.concatenate([states, actions, betas], axis=1)
        curve: List[float] = []
        for _ in range(self.cfg.train_epochs):
            order = self._rng.permutation(n)
            total, batches = 0.0, 0
            for start in range(0, n, self.cfg.minibatch_size):
                idx = order[start:start + self.cfg.minibatch_size]
                net_out = self.network.forward(inputs[idx])
                beta_mat = self._beta_matrix(betas[idx])
                modified = self._assemble(actions[idx], beta_mat,
                                          net_out)
                h, grad = self.objective(states[idx], actions[idx],
                                         betas[idx], modified)
                # d a_hat / d net_out = 2 * CORRECTION_SCALE where the
                # clip is inactive (straight-through at the box edge).
                active = (modified > 0.0) & (modified < 1.0)
                grad_out = grad * active * (2.0 * self.CORRECTION_SCALE)
                self._optim.zero_grad()
                self.network.backward(grad_out)
                clip_grad_norm(self.network.parameters(), 5.0)
                self._optim.step()
                total += h
                batches += 1
            curve.append(total / max(batches, 1))
        return curve


class CostToGoEstimator(cost_estimator.CostToGoEstimator):
    """pi_phi with the parent row lists and ELBO fit loop."""

    def add_episode(self, states: Sequence[np.ndarray],
                    costs: Sequence[float]) -> None:
        """Register one baseline episode as (state, cost-to-go) pairs.

        A NaN or inf state or cost would make every fitted weight NaN,
        and a NaN posterior never reaches an Eq. 8 budget, so the switch
        to pi_b would never fire: the episode is refused whole with a
        ``ValueError`` naming the field and the position.
        """
        if len(states) != len(costs):
            raise ValueError("states/costs length mismatch")
        states = [np.asarray(state, dtype=np.float64) for state in states]
        for field, values in (("states", states), ("costs", costs)):
            for at, value in enumerate(values):
                if not np.isfinite(value).all():
                    raise ValueError(f"{field}[{at}] is not finite")
        targets = cost_to_go(costs)
        self._states.extend(states)
        self._targets.extend(targets.tolist())

    @property
    def dataset_size(self) -> int:
        return len(self._states)

    def fit(self, epochs: Optional[int] = None) -> List[float]:
        """Maximise the ELBO over the stored dataset (Eq. 7).

        Returns the per-epoch negative-ELBO curve.
        """
        if not self._states:
            raise RuntimeError("no episodes added")
        epochs = epochs if epochs is not None else self.cfg.train_epochs
        self._posterior = None
        states = np.stack(self._states)
        targets = np.array(self._targets)
        self._target_mean = float(targets.mean())
        self._target_std = max(float(targets.std()), 1e-6)
        targets = (targets - self._target_mean) / self._target_std
        n = len(states)
        kl_weight = self.cfg.kl_weight / max(n, 1)
        curve: List[float] = []
        for _ in range(epochs):
            order = self._rng.permutation(n)
            epoch_loss, batches = 0.0, 0
            for start in range(0, n, self.cfg.minibatch_size):
                idx = order[start:start + self.cfg.minibatch_size]
                self._optim.zero_grad()
                nll, kl = self.network.elbo_step(
                    states[idx], targets[idx], kl_weight=kl_weight)
                clip_grad_norm(self.network.parameters(), 5.0)
                self._optim.step()
                epoch_loss += nll + kl_weight * kl
                batches += 1
            curve.append(epoch_loss / max(batches, 1))
        return curve


def pretrain_agent(agent: OnSlicingAgent, dataset: OfflineDataset,
                   bc_epochs: Optional[int] = None,
                   exploration_dataset: Optional[OfflineDataset] = None
                   ) -> PretrainReport:
    """Run the full offline stage for one agent.

    ``dataset`` holds *pure* baseline rollouts -- pi_theta clones them
    and pi_phi learns the baseline's cost-to-go from them.
    ``exploration_dataset`` (jittered baseline actions) trains the cost
    surrogate and pi_a, which need coverage around the baseline
    trajectory; it defaults to ``dataset``.
    """
    if len(dataset) == 0:
        raise ValueError("empty offline dataset")
    explore = exploration_dataset if exploration_dataset is not None \
        else dataset

    # 1) behavior cloning of pi_b into pi_theta (Eq. 15).  States from
    #    both the clean and the jittered rollouts, always labelled with
    #    the expert pi_b action, so the clone recovers toward pi_b from
    #    off-trajectory states instead of cascading.
    bc_states = np.concatenate(
        [np.stack(dataset.states), np.stack(explore.states)]) \
        if explore is not dataset else np.stack(dataset.states)
    bc_labels = np.concatenate(
        [np.stack(dataset.expert_actions),
         np.stack(explore.expert_actions)]) \
        if explore is not dataset else np.stack(dataset.expert_actions)
    bc = BehaviorCloningTrainer(agent.model.actor, cfg=agent.cfg.bc,
                                rng=agent._rng)
    bc_curve = bc.fit(bc_states, bc_labels, epochs=bc_epochs)

    # 2) pi_phi on the baseline cost-to-go (Eq. 7) -- *clean* rollouts
    #    only: pi_phi must estimate what the baseline would cost from
    #    here on, so jittered executions would bias it pessimistic and
    #    make the switch fire on every episode.
    for ep_states, ep_costs in dataset.episodes():
        agent.estimator.add_episode(ep_states, ep_costs)
    estimator_curve = agent.estimator.fit()

    # 3) cost surrogate + pi_a (Eq. 13) on the exploration data
    ex_states = np.stack(explore.states)
    ex_actions = np.stack(explore.actions)
    ex_costs = np.array(explore.costs)
    surrogate_curve = agent.modifier.surrogate.fit(
        ex_states, ex_actions, ex_costs)
    modifier_curve = agent.modifier.train_offline(ex_states, ex_actions)

    # 4) warm-start the critic toward the (penalised) baseline returns,
    #    so early PPO updates see sane value targets.
    _warm_start_critic(agent, dataset)
    return PretrainReport(bc_curve=bc_curve,
                          estimator_curve=estimator_curve,
                          surrogate_curve=surrogate_curve,
                          modifier_curve=modifier_curve,
                          dataset_size=len(dataset))


def _warm_start_critic(agent: OnSlicingAgent,
                       dataset: OfflineDataset) -> None:
    """Fit the critic to discounted penalised returns of the dataset
    (ten full-batch epochs)."""
    from repro.nn.losses import mse_loss
    from repro.nn.optim import Adam, clip_grad_norm

    gamma = agent.cfg.ppo.gamma
    returns: List[float] = []
    start = 0
    for end in dataset.episode_bounds:
        g = 0.0
        episode_returns = []
        for i in reversed(range(start, end)):
            penalized = (dataset.rewards[i]
                         - agent.lagrangian.value * dataset.costs[i])
            g = penalized + gamma * g
            episode_returns.append(g)
        returns.extend(reversed(episode_returns))
        start = end
    states = np.stack(dataset.states[:len(returns)])
    targets = np.array(returns)
    optim = Adam(agent.model.critic.parameters(),
                 lr=agent.cfg.ppo.value_learning_rate)
    for _ in range(10):
        pred = agent.model.critic.forward(states)[:, 0]
        _loss, grad = mse_loss(pred, targets)
        optim.zero_grad()
        agent.model.critic.backward(grad[:, None])
        clip_grad_norm(agent.model.critic.parameters(), 5.0)
        optim.step()
    agent.model.critic.drop_caches()
