"""Rollout storage with GAE and truncated-episode bootstrapping.

The proactive baseline switching mechanism (paper Sec. 3) truncates an
episode when the baseline takes over: "we only use the effective
transitions run by policy pi_theta and discard the remaining episode run
by the baseline policy. Meanwhile, we estimate the reward value function
at the truncated time slot, which helps in calculating accurate reward
value function of truncated episodes."  :meth:`RolloutBuffer.end_episode`
implements exactly that: the caller passes the critic's bootstrap value
at the truncation slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np


@dataclass
class Transition:
    """One (s, a, r, c) interaction plus learner-side quantities."""

    state: np.ndarray
    action: np.ndarray
    reward: float
    cost: float
    value: float
    log_prob: float


class RolloutBuffer:
    """Accumulates transitions across (possibly truncated) episodes.

    Advantages use GAE(lambda); returns are discounted reward-to-go with
    a bootstrap value at truncation.  Rewards passed in are the
    *penalised* rewards ``r - (lambda/T) c`` when used with the
    constraint-aware update.
    """

    def __init__(self, gamma: float = 0.99,
                 gae_lambda: float = 0.95) -> None:
        if not 0.0 < gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        if not 0.0 <= gae_lambda <= 1.0:
            raise ValueError("gae_lambda must be in [0, 1]")
        self.gamma = gamma
        self.gae_lambda = gae_lambda
        self._episode: List[Transition] = []
        self._states: List[np.ndarray] = []
        self._actions: List[np.ndarray] = []
        self._log_probs: List[float] = []
        self._advantages: List[float] = []
        self._returns: List[float] = []
        self._costs: List[float] = []
        self.episodes_stored = 0

    def __len__(self) -> int:
        return len(self._states)

    @property
    def pending_length(self) -> int:
        """Transitions of the in-progress episode not yet finalised."""
        return len(self._episode)

    def add(self, transition: Transition) -> None:
        """Append one transition of the in-progress episode."""
        self._episode.append(transition)

    def end_episode(self, bootstrap_value: float = 0.0) -> None:
        """Finalise the in-progress episode.

        Parameters
        ----------
        bootstrap_value:
            Critic estimate of the return from the first slot *not* in
            the buffer.  Zero for episodes that ran to the horizon;
            the critic's value at the truncation slot for episodes cut
            short by the baseline switch.
        """
        episode = self._episode
        self._episode = []
        if not episode:
            return
        n = len(episode)
        rewards = np.array([t.reward for t in episode])
        values = np.array([t.value for t in episode])
        next_values = np.append(values[1:], bootstrap_value)
        deltas = rewards + self.gamma * next_values - values
        advantages = np.empty(n)
        gae = 0.0
        for i in reversed(range(n)):
            gae = deltas[i] + self.gamma * self.gae_lambda * gae
            advantages[i] = gae
        returns = advantages + values
        for i, transition in enumerate(episode):
            self._states.append(np.asarray(transition.state, dtype=float))
            self._actions.append(
                np.asarray(transition.action, dtype=float))
            self._log_probs.append(float(transition.log_prob))
            self._advantages.append(float(advantages[i]))
            self._returns.append(float(returns[i]))
            self._costs.append(float(transition.cost))
        self.episodes_stored += 1

    def get(self, normalize_advantages: bool = True
            ) -> Dict[str, np.ndarray]:
        """Return all finalised data as arrays (does not clear)."""
        if not self._states:
            raise RuntimeError("buffer is empty")
        advantages = np.array(self._advantages)
        if normalize_advantages and len(advantages) > 1:
            advantages = (advantages - advantages.mean()) / (
                advantages.std() + 1e-8)
        return {
            "states": np.stack(self._states),
            "actions": np.stack(self._actions),
            "log_probs": np.array(self._log_probs),
            "advantages": advantages,
            "returns": np.array(self._returns),
            "costs": np.array(self._costs),
        }

    def clear(self) -> None:
        self._episode = []
        self._states = []
        self._actions = []
        self._log_probs = []
        self._advantages = []
        self._returns = []
        self._costs = []
        self.episodes_stored = 0
