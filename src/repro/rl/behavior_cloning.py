"""Behavior cloning of the rule-based baseline into pi_theta.

Paper Sec. 5 (Eq. 15): collect (state, action) pairs from the baseline
policy interacting with the network, then minimise

    Loss = (1/|B|) sum_n | pi_b(s_n) - pi_theta(s_n) |_2^2

with supervised learning so online learning starts at baseline-level
performance instead of from scratch.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import BCConfig
from repro.nn.losses import mse_loss
from repro.nn.network import MLP
from repro.nn.optim import Adam, fit_minibatches


class BehaviorCloningTrainer:
    """Supervised trainer matching an actor network to demonstrations."""

    def __init__(self, actor: MLP, cfg: Optional[BCConfig] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        self.actor = actor
        self.cfg = cfg or BCConfig()
        self._rng = rng if rng is not None else np.random.default_rng(2)
        self._optim = Adam(actor.parameters(), lr=self.cfg.learning_rate)

    def train_epoch(self, states: np.ndarray,
                    actions: np.ndarray) -> float:
        """One pass over the demonstration set; returns the mean loss."""
        states = np.asarray(states, dtype=np.float64)
        actions = np.asarray(actions, dtype=np.float64)
        if len(states) != len(actions):
            raise ValueError("states/actions length mismatch")
        if len(states) == 0:
            raise ValueError("empty demonstration set")

        def step(rows: np.ndarray) -> float:
            loss, grad = mse_loss(self.actor.forward(states[rows]),
                                  actions[rows])
            self.actor.backward(grad)
            return loss

        return fit_minibatches(self._optim, self._rng, len(states),
                               self.cfg.minibatch_size, 1, step)[0]

    def fit(self, states: np.ndarray, actions: np.ndarray,
            epochs: Optional[int] = None) -> List[float]:
        """Run ``epochs`` (default config) passes; returns loss curve."""
        epochs = epochs if epochs is not None else self.cfg.epochs
        curve = [self.train_epoch(states, actions) for _ in range(epochs)]
        self.actor.drop_caches()
        return curve

    def evaluate(self, states: np.ndarray,
                 actions: np.ndarray) -> float:
        """Mean-squared imitation error without updating weights."""
        pred = self.actor.forward(np.asarray(states, dtype=np.float64))
        loss, _ = mse_loss(pred, np.asarray(actions, dtype=np.float64))
        return loss
