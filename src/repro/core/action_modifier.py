"""pi_a: the action modifier of the distributed coordination (Eq. 13).

The modifier turns an agent's original action ``a`` into ``a_hat``
minimising

    H = |a_hat - a|_2^2 + sum_k beta_k * a_hat_k + w_c * c(s, a_hat)

where ``beta_k`` are the coordinating parameters from the domain
managers.  The slice cost ``c(s, a_hat)`` "is too complicated to be
mathematically modeled", so -- following the paper -- we learn it from
system data: :class:`CostSurrogate` regresses (state, action) -> cost
on transitions collected from the real system; :class:`ActionModifier`
then trains pi_a offline to minimise H with gradients flowing through
the frozen surrogate ("this network is offline trained with supervised
learning by minimizing the objective function in Eq. 13", with the
dataset of [s, a, beta] built by appending randomly generated
coordinating parameters to collected state-action pairs).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.config import ModifierConfig, NUM_ACTIONS
from repro.nn.losses import mse_loss
from repro.nn.network import MLP
from repro.nn.optim import Adam, clip_grad_norm
from repro.sim.env import STATE_DIM
from repro.sim.network import CONSTRAINED_RESOURCES

#: Weight of the cost term in H -- balances the [0, 1] cost against the
#: up-to-NUM_ACTIONS distance term.
COST_WEIGHT = 3.0


class CostSurrogate:
    """Differentiable model of the slice cost ``c(s, a)``."""

    def __init__(self, state_dim: int = STATE_DIM,
                 action_dim: int = NUM_ACTIONS,
                 hidden_sizes: Sequence[int] = (128, 64, 32),
                 rng: Optional[np.random.Generator] = None) -> None:
        self._rng = rng if rng is not None else np.random.default_rng(7)
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.network = MLP(state_dim + action_dim, 1,
                           hidden_sizes=hidden_sizes,
                           output_activation="sigmoid",
                           rng=self._rng, name="cost_surrogate")
        self._optim = Adam(self.network.parameters(), lr=1e-3)

    def fit(self, states: np.ndarray, actions: np.ndarray,
            costs: np.ndarray, epochs: int = 30,
            minibatch_size: int = 128) -> List[float]:
        """Supervised regression on collected transitions."""
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
            for start in range(0, n, minibatch_size):
                idx = order[start:start + minibatch_size]
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

    def predict(self, states: np.ndarray,
                actions: np.ndarray) -> np.ndarray:
        inputs = np.concatenate(
            [np.atleast_2d(states), np.atleast_2d(actions)], axis=1)
        return self.network.forward(inputs)[:, 0]

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


class ActionModifier:
    """pi_a network: (state, action, beta) -> modified action.

    The modified action is assembled as

        a_hat = clip(a - beta/2 + s * (2 * pi_a(s, a, beta) - 1), 0, 1)

    where ``a - beta/2`` is the closed-form minimiser of the quadratic
    part of H (``|a_hat - a|^2 + sum_k beta_k a_hat_k``) and the network
    contributes a *bounded* cost-aware correction of magnitude at most
    ``CORRECTION_SCALE``.  Bounding the learned part keeps the modifier
    graceful when the proposals drift outside its training distribution
    during online learning -- an unbounded network there can gut a
    feasible allocation and trigger exactly the SLA violations the
    mechanism exists to prevent.
    """

    #: Maximum magnitude of the learned correction per dimension.
    CORRECTION_SCALE = 0.15

    def __init__(self, cfg: Optional[ModifierConfig] = None,
                 state_dim: int = STATE_DIM,
                 action_dim: int = NUM_ACTIONS,
                 surrogate: Optional[CostSurrogate] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        self.cfg = cfg or ModifierConfig()
        self._rng = rng if rng is not None else np.random.default_rng(9)
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.num_betas = len(CONSTRAINED_RESOURCES)
        in_dim = state_dim + action_dim + self.num_betas
        self.network = MLP(in_dim, action_dim,
                           hidden_sizes=self.cfg.hidden_sizes,
                           output_activation="sigmoid",
                           rng=self._rng, name="pi_a")
        self.surrogate = surrogate if surrogate is not None else \
            CostSurrogate(state_dim, action_dim, rng=self._rng)
        self._optim = Adam(self.network.parameters(),
                           lr=self.cfg.learning_rate)

    # ---- offline training ------------------------------------------

    def _beta_matrix(self, betas: np.ndarray) -> np.ndarray:
        """Expand (n, num_betas) kind-order betas to action dims."""
        mat = np.zeros((len(betas), self.action_dim))
        for col, (_kind, idx) in enumerate(
                CONSTRAINED_RESOURCES.items()):
            mat[:, idx] = betas[:, col]
        return mat

    def _assemble(self, actions: np.ndarray, beta_mat: np.ndarray,
                  net_out: np.ndarray) -> np.ndarray:
        """Combine the analytic base with the bounded correction."""
        base = actions - 0.5 * beta_mat
        correction = self.CORRECTION_SCALE * (2.0 * net_out - 1.0)
        return np.clip(base + correction, 0.0, 1.0)

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

    def train_offline(self, states: np.ndarray, actions: np.ndarray,
                      epochs: Optional[int] = None,
                      beta_scale: float = 1.0) -> List[float]:
        """Offline pi_a training on system data + random betas.

        Builds the paper's dataset: each collected (s, a) pair is
        paired with coordinating parameters drawn uniformly from
        [0, beta_scale] (plus a share of all-zero betas so the modifier
        learns to be the identity when nothing is over-requested), then
        pi_a is updated to minimise H through the frozen surrogate.
        """
        states = np.asarray(states, dtype=float)
        actions = np.asarray(actions, dtype=float)
        n = len(states)
        if n == 0:
            raise ValueError("empty modifier dataset")
        betas = self._rng.uniform(0.0, beta_scale,
                                  size=(n, self.num_betas))
        zero_rows = self._rng.random(n) < 0.25
        betas[zero_rows] = 0.0
        inputs = np.concatenate([states, actions, betas], axis=1)
        epochs = epochs if epochs is not None else self.cfg.train_epochs
        curve: List[float] = []
        for _ in range(epochs):
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

    # ---- runtime ------------------------------------------------------

    def modify(self, state: np.ndarray, action: np.ndarray,
               beta: Mapping[str, float]) -> np.ndarray:
        """One modification pass: a_hat = pi_a(s, a, beta).

        With all-zero betas the modified action should track the
        original closely (nothing is over-requested); larger betas push
        the corresponding resource dimensions down.  Optional Gaussian
        noise (Table 3's "Md. Noise" ablation) is applied afterwards,
        clipped back to the action box.
        """
        state = np.asarray(state, dtype=float)
        action = np.asarray(action, dtype=float)
        beta_kinds = np.array([
            float(beta.get(kind, 0.0))
            for kind in CONSTRAINED_RESOURCES])
        inputs = np.concatenate([state, action, beta_kinds])
        net_out = self.network.predict(inputs)
        beta_mat = self._beta_matrix(beta_kinds[None, :])[0]
        modified = self._assemble(action[None, :], beta_mat[None, :],
                                  net_out[None, :])[0]
        if self.cfg.modifier_noise_std > 0:
            modified = modified + self._rng.normal(
                0.0, self.cfg.modifier_noise_std, size=modified.shape)
        return np.clip(modified, 0.0, 1.0)
