"""Clipped-surrogate PPO with a diagonal-Gaussian actor.

The paper trains pi_theta with PPO "rather than DDPG ... because the PPO
algorithm directly maximizes the expected return and enables smooth
performance improvement by using a clipped surrogate objective to
prevent too large policy update steps" (Sec. 3).  We implement PPO-Clip
with GAE, minibatch Adam updates, entropy regularisation, and a
target-KL early stop -- all gradients hand-derived against the numpy
layers in :mod:`repro.nn`.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.config import PolicyNetConfig, PPOConfig
from repro.nn.distributions import DiagGaussian
from repro.nn.losses import mse_loss
from repro.nn.network import MLP
from repro.nn.optim import Adam, clip_grad_norm


class GaussianActorCritic:
    """Actor MLP (sigmoid mean head) + critic MLP + Gaussian head."""

    def __init__(self, state_dim: int, action_dim: int,
                 policy_cfg: Optional[PolicyNetConfig] = None,
                 ppo_cfg: Optional[PPOConfig] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        policy_cfg = policy_cfg or PolicyNetConfig()
        ppo_cfg = ppo_cfg or PPOConfig()
        if rng is None:
            rng = np.random.default_rng(0)
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.actor = MLP(state_dim, action_dim,
                         hidden_sizes=policy_cfg.hidden_sizes,
                         activation=policy_cfg.activation,
                         output_activation=policy_cfg.actor_output_activation,
                         rng=rng, name="actor")
        self.critic = MLP(state_dim, 1,
                          hidden_sizes=policy_cfg.hidden_sizes,
                          activation=policy_cfg.activation,
                          output_activation="identity",
                          rng=rng, name="critic")
        self.dist = DiagGaussian(action_dim,
                                 initial_log_std=ppo_cfg.initial_log_std,
                                 min_log_std=ppo_cfg.min_log_std)
        self._rng = rng

    def act(self, state: np.ndarray, deterministic: bool = False
            ) -> Dict[str, np.ndarray]:
        """Sample (or take the mean) action for a single state.

        Returns a dict with ``action``, ``mean``, ``log_prob`` and
        ``value`` -- everything the rollout buffer needs.
        """
        state = np.asarray(state, dtype=np.float64)
        mean = self.actor.predict(state)
        action, log_prob = self.sample(mean, deterministic)
        value = float(self.critic.predict(state)[0])
        return {"action": action, "mean": mean,
                "log_prob": float(log_prob), "value": value}

    def sample(self, mean: np.ndarray, deterministic: bool = False):
        """The Gaussian head on actor means ``(..., action_dim)``: the
        actions -- a draw on this model's generator clipped to [0, 1],
        or the clipped mean when ``deterministic`` -- and their
        log-densities."""
        if deterministic:
            action = np.clip(mean, 0.0, 1.0)
        else:
            action = self.dist.sample(mean, self._rng)
        return action, self.dist.log_prob(mean, action)

    def mean_action(self, state: np.ndarray) -> np.ndarray:
        return np.clip(self.actor.predict(
            np.asarray(state, dtype=np.float64)), 0.0, 1.0)

    def mean_actions(self, states) -> np.ndarray:
        """Deterministic actions for a whole batch of states at once."""
        return np.clip(self.actor.predict_batch(states), 0.0, 1.0)

    # -- weight round-trips ------------------------------------------

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Actor + critic + Gaussian-head weights, keyed by parameter
        name (the ``actor.``/``critic.`` prefixes keep them disjoint)."""
        state = self.actor.state_dict()
        state.update(self.critic.state_dict())
        state[self.dist.log_std.name] = self.dist.log_std.value.copy()
        return state

    def load_state_dict(self, state) -> None:
        """Strict inverse of :meth:`state_dict`."""
        state = {name: np.asarray(value, dtype=np.float64)
                 for name, value in state.items()}
        log_std_name = self.dist.log_std.name
        if log_std_name not in state:
            raise ValueError(f"state dict missing {log_std_name!r}")
        log_std = state.pop(log_std_name)
        if log_std.shape != self.dist.log_std.value.shape:
            raise ValueError(
                f"shape mismatch for {log_std_name}: "
                f"{log_std.shape} vs {self.dist.log_std.value.shape}")
        actor_names = {p.name for p in self.actor.parameters()}
        self.actor.load_state_dict(
            {n: v for n, v in state.items() if n in actor_names})
        self.critic.load_state_dict(
            {n: v for n, v in state.items() if n not in actor_names})
        self.dist.log_std.value = log_std.copy()


class PPOTrainer:
    """Runs PPO-Clip updates on a :class:`GaussianActorCritic`."""

    def __init__(self, model: GaussianActorCritic,
                 cfg: Optional[PPOConfig] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        self.model = model
        self.cfg = cfg or PPOConfig()
        self._rng = rng if rng is not None else np.random.default_rng(1)
        actor_params = (model.actor.parameters()
                        + model.dist.parameters())
        self._actor_params = actor_params
        self._critic_params = model.critic.parameters()
        self.actor_optim = Adam(actor_params, lr=self.cfg.learning_rate)
        self.critic_optim = Adam(self._critic_params,
                                 lr=self.cfg.value_learning_rate)

    def update(self, batch: Dict[str, np.ndarray]) -> Dict[str, float]:
        """One PPO update over a rollout batch.

        ``batch`` comes from :meth:`repro.rl.buffer.RolloutBuffer.get`.
        Returns averaged diagnostics (losses, KL, clip fraction).
        """
        cfg = self.cfg
        states = batch["states"]
        actions = batch["actions"]
        old_log_probs = batch["log_probs"]
        advantages = batch["advantages"]
        returns = batch["returns"]
        n = len(states)
        if n == 0:
            raise ValueError("empty batch")
        stats = {"policy_loss": 0.0, "value_loss": 0.0, "entropy": 0.0,
                 "kl": 0.0, "clip_fraction": 0.0, "updates": 0.0}
        stop = False
        for _ in range(cfg.update_epochs):
            if stop:
                break
            order = self._rng.permutation(n)
            for start in range(0, n, cfg.minibatch_size):
                idx = order[start:start + cfg.minibatch_size]
                diag = self._update_minibatch(
                    states[idx], actions[idx], old_log_probs[idx],
                    advantages[idx], returns[idx])
                for key in ("policy_loss", "value_loss", "entropy",
                            "kl", "clip_fraction"):
                    stats[key] += diag[key]
                stats["updates"] += 1
                if cfg.target_kl > 0 and diag["kl"] > 1.5 * cfg.target_kl:
                    stop = True
                    break
        self.model.actor.drop_caches()
        self.model.critic.drop_caches()
        count = max(stats.pop("updates"), 1.0)
        return {key: val / count for key, val in stats.items()}

    def _update_minibatch(self, states, actions, old_log_probs,
                          advantages, returns) -> Dict[str, float]:
        cfg = self.cfg
        model = self.model
        batch = len(states)

        # ---- policy step ------------------------------------------
        mean = model.actor.forward(states)
        log_probs = model.dist.log_prob(mean, actions)
        ratio = np.exp(np.clip(log_probs - old_log_probs, -20.0, 20.0))
        clipped_ratio = np.clip(ratio, 1.0 - cfg.clip_ratio,
                                1.0 + cfg.clip_ratio)
        surr1 = ratio * advantages
        surr2 = clipped_ratio * advantages
        policy_loss = float(-np.mean(np.minimum(surr1, surr2)))

        # dL/d log_prob: active when the unclipped branch is the min.
        use_unclipped = surr1 <= surr2
        grad_logp = np.where(use_unclipped, -ratio * advantages, 0.0)
        grad_logp /= batch
        grad_mean_lp, grad_log_std_lp = model.dist.log_prob_grads(
            mean, actions)
        grad_mean = grad_mean_lp * grad_logp[:, None]
        grad_log_std = (grad_log_std_lp * grad_logp[:, None]).sum(axis=0)
        # Entropy bonus: maximise entropy -> subtract from loss.
        entropy = model.dist.entropy()
        grad_log_std -= cfg.entropy_coef * model.dist.entropy_grad_log_std()

        for param in self._actor_params:
            param.zero_grad()
        model.actor.backward(grad_mean)
        model.dist.log_std.grad += grad_log_std
        clip_grad_norm(self._actor_params, cfg.max_grad_norm)
        self.actor_optim.step()
        # Keep log_std inside its clamp range so Adam state stays sane.
        np.clip(model.dist.log_std.value, model.dist.min_log_std,
                model.dist.max_log_std, out=model.dist.log_std.value)

        # ---- value step -------------------------------------------
        values = model.critic.forward(states)[:, 0]
        value_loss, grad_values = mse_loss(values, returns)
        for param in self._critic_params:
            param.zero_grad()
        model.critic.backward(grad_values[:, None] * cfg.value_coef)
        clip_grad_norm(self._critic_params, cfg.max_grad_norm)
        self.critic_optim.step()

        new_mean = model.actor.forward(states)
        new_log_probs = model.dist.log_prob(new_mean, actions)
        approx_kl = float(np.mean(old_log_probs - new_log_probs))
        clip_fraction = float(np.mean(
            np.abs(ratio - 1.0) > cfg.clip_ratio))
        return {"policy_loss": policy_loss,
                "value_loss": float(value_loss),
                "entropy": entropy,
                "kl": max(approx_kl, 0.0),
                "clip_fraction": clip_fraction}
