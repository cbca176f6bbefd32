"""The fused Adam step against the per-parameter loop it replaced, its
construction-time refusals, and the non-finite gradient guard."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PPOConfig
from repro.nn.layers import Parameter
from repro.nn.optim import Adam, clip_grad_norm
from repro.rl.ppo import GaussianActorCritic, PPOTrainer

import adam_oracle


def _twins(shapes, seed):
    """Two lists of parameters holding the same values."""
    rng = np.random.default_rng(seed)
    values = [rng.normal(0.0, 1.0, shape) for shape in shapes]
    return ([Parameter(v.copy(), name=f"p{i}") for i, v in enumerate(values)],
            [Parameter(v.copy(), name=f"p{i}") for i, v in enumerate(values)])


@given(shapes=st.lists(st.lists(st.integers(1, 5), max_size=3).map(tuple),
                       min_size=1, max_size=5),
       steps=st.lists(st.sampled_from(["normal", "zero", "tiny", "huge"]),
                      min_size=1, max_size=6),
       lr=st.floats(1e-5, 1.0),
       beta1=st.floats(0.0, 0.99),
       beta2=st.floats(0.0, 0.9999),
       eps=st.floats(1e-12, 1e-2),
       seed=st.integers(0, 2 ** 16))
@settings(max_examples=80, deadline=None)
def test_fused_adam_equals_the_per_parameter_loop(shapes, steps, lr, beta1,
                                                  beta2, eps, seed):
    """Every weight after every step is the float the loop gave it, for
    1-5 parameters of any shape (0-d and 1-element included), zero,
    tiny and huge gradients; the gradients are left as they were."""
    fused_params, loop_params = _twins(shapes, seed)
    fused = Adam(fused_params, lr=lr, betas=(beta1, beta2), eps=eps)
    loop = adam_oracle.Adam(loop_params, lr=lr, betas=(beta1, beta2),
                            eps=eps)
    rng = np.random.default_rng(seed + 1)
    scale = {"normal": 1.0, "zero": 0.0, "tiny": 1e-9, "huge": 1e6}
    for step, kind in enumerate(steps):
        for a, b in zip(fused_params, loop_params):
            grad = rng.normal(0.0, scale[kind], a.value.shape)
            a.grad[...] = grad
            b.grad[...] = grad
        fused.step()
        loop.step()
        for a, b in zip(fused_params, loop_params):
            assert np.array_equal(a.value, b.value), (step, a.name)
            assert np.array_equal(a.grad, b.grad), (step, a.name)


def test_ppo_update_equals_the_loop_with_log_std_clipped():
    """A PPO update clips ``log_std`` in place after each actor step;
    the fused optimiser's run matches the loop's on every weight,
    with the clamp engaged."""
    cfg = PPOConfig(learning_rate=0.3, value_learning_rate=0.05,
                    update_epochs=3, minibatch_size=16, target_kl=0.0,
                    initial_log_std=-4.0, min_log_std=-4.0)
    models = [GaussianActorCritic(4, 3, ppo_cfg=cfg,
                                  rng=np.random.default_rng(9))
              for _ in range(2)]
    fused = PPOTrainer(models[0], cfg=cfg, rng=np.random.default_rng(4))
    loop = PPOTrainer(models[1], cfg=cfg, rng=np.random.default_rng(4))
    loop.actor_optim = adam_oracle.Adam(loop._actor_params,
                                        lr=cfg.learning_rate)
    loop.critic_optim = adam_oracle.Adam(loop._critic_params,
                                         lr=cfg.value_learning_rate)
    rng = np.random.default_rng(2)
    dist = models[0].dist
    clamped = 0
    for _ in range(3):
        n = 48
        batch = {"states": rng.uniform(0.0, 1.0, (n, 4)),
                 "actions": rng.uniform(0.0, 1.0, (n, 3)),
                 "log_probs": rng.normal(0.0, 1.0, n),
                 "advantages": rng.normal(0.0, 1.0, n),
                 "returns": rng.normal(0.0, 1.0, n)}
        assert fused.update(batch) == loop.update(batch)
        want, got = models[1].state_dict(), models[0].state_dict()
        assert sorted(got) == sorted(want)
        for key in want:
            assert np.array_equal(got[key], want[key]), key
        clamped += int(np.sum(dist.log_std.value == dist.min_log_std))
    assert clamped > 0


def test_adam_without_parameters_steps_as_a_no_op():
    """A bare ``np.concatenate([])`` raises; an empty optimiser's step
    does nothing, as the per-parameter loop's did."""
    optim = Adam([])
    optim.step()
    optim.step()
    optim.zero_grad()


@pytest.mark.parametrize("kwargs", [
    {"betas": (1.0, 0.999)}, {"betas": (0.9, 1.0)},
    {"betas": (-0.1, 0.999)}, {"betas": (0.9, float("nan"))},
    {"eps": 0.0}, {"eps": -1e-8}, {"eps": float("nan")}])
def test_adam_refuses_degenerate_hyperparameters(kwargs):
    """``beta = 1`` zeroes the bias correction (a division by zero on
    the first step); ``eps <= 0`` lets a zero ``v`` divide by zero."""
    params = [Parameter(np.zeros(3))]
    field = next(iter(kwargs))
    with pytest.raises(ValueError, match=field):
        Adam(params, **kwargs)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("max_norm", [0.5, 0.0])
def test_clip_grad_norm_refuses_a_non_finite_gradient(bad, max_norm):
    """A NaN norm used to skip the clip and an inf one to turn every
    gradient into NaN; either way Adam then wrote NaN into every
    weight.  The first parameter with a non-finite gradient is named
    and no gradient is touched."""
    params = [Parameter(np.ones((2, 2)), name="w0"),
              Parameter(np.ones(3), name="b0"),
              Parameter(np.ones(3), name="b1")]
    for param in params:
        param.grad[...] = 2.0
    params[1].grad[2] = bad
    params[2].grad[0] = bad
    before = [param.grad.copy() for param in params]
    with pytest.raises(FloatingPointError, match="'b0'"):
        clip_grad_norm(params, max_norm)
    for want, param in zip(before, params):
        assert np.array_equal(param.grad, want, equal_nan=True)
