"""Offline learning from the baseline (paper Sec. 5 + modifier data).

Before any online learning the agent is prepared offline:

1. the baseline policy pi_b runs full episodes against the network,
   collecting (state, action, reward, cost) transitions;
2. pi_theta is trained by behavior cloning (Eq. 15) until it imitates
   pi_b's actions (Fig. 10: the agent's usage approaches the baseline's
   over BC epochs);
3. pi_phi is fitted on the baseline episodes' cost-to-go via the ELBO;
4. the cost surrogate and pi_a are trained on the same transitions
   plus exploration actions with random coordinating parameters
   (Sec. 4's dataset construction).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Dict, List, Optional

import numpy as np

from repro.core.agent import OnSlicingAgent
from repro.engine.batch import BatchSimulator
from repro.engine.policies import RoutedBatchPolicy, lockstep
from repro.rl.behavior_cloning import BehaviorCloningTrainer
from repro.sim.env import ScenarioSimulator


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


def collect_baseline_rollouts(simulator: ScenarioSimulator,
                              baselines: Dict[str, object],
                              num_episodes: int,
                              exploration_std: float = 0.0,
                              rng: Optional[np.random.Generator] = None
                              ) -> Dict[str, OfflineDataset]:
    """Run pi_b for every slice and collect per-slice datasets.

    ``exploration_std`` adds Gaussian jitter to the baseline actions
    (clipped to the box); the modifier's cost surrogate needs coverage
    around the baseline trajectory, not just on it.

    The episodes are :func:`~repro.engine.policies.lockstep` over the
    one world, unprojected: per slot ``RoutedBatchPolicy(baselines)``
    labels every slice's state, one ``(S, NUM_ACTIONS)`` normal block
    jitters the labels (the same draws, in the same order, as one
    draw per slice), and the jittered rows are what the world executes.
    """
    rng = rng if rng is not None else np.random.default_rng(31)
    datasets = {name: OfflineDataset() for name in simulator.slice_names}
    expert = RoutedBatchPolicy(baselines)
    label = np.empty(0)

    def act_batch(states: np.ndarray, names) -> np.ndarray:
        nonlocal label
        label = expert.act_batch(states, names)
        if exploration_std > 0:
            return np.clip(label + rng.normal(
                0.0, exploration_std, size=label.shape), 0.0, 1.0)
        return label

    for states, actions, step in lockstep(
            BatchSimulator([simulator]),
            SimpleNamespace(act_batch=act_batch), num_episodes,
            project=False):
        for row, name in enumerate(step.names[0]):
            datasets[name].add(
                states[row], actions[row], step.rewards[row],
                step.costs[row], step.usages[row],
                expert_action=label[row])
        if step.dones[0]:
            for dataset in datasets.values():
                dataset.end_episode()
    return datasets


@dataclass
class PretrainReport:
    """Loss curves of the offline stage for one agent."""

    bc_curve: List[float]
    estimator_curve: List[float]
    surrogate_curve: List[float]
    modifier_curve: List[float]
    dataset_size: int


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
