"""Property test: the one fit loop is the four loops it replaced.

``repro.nn.optim.fit_minibatches`` runs behaviour cloning (Eq. 15),
pi_phi's ELBO fit (Eq. 7), the cost surrogate and pi_a (Eq. 13), and
pi_a's loop differentiates through the frozen surrogate with an
input-gradient pass (``MLP.input_grad``) where the parent ran a whole
``backward``.  In ``build_onslicing`` all four draw on the agent's one
generator, so the loop must draw where the hand-written loops drew, in
the same order.  For each fit, over random dataset sizes, minibatch
sizes, epochs and seeds, the weights, the Adam ``m`` / ``v`` / ``t``,
the returned curve and the generator state must equal the parent
loop's (``tests/fit_oracle.py``), and so must a whole
``pretrain_agent`` on collected rollouts against the parent stage over
the list-based dataset.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import fit_oracle
from repro.baselines.rule_based import GridSearchConfig, \
    fit_rule_based_policy
from repro.config import (
    BCConfig,
    EstimatorConfig,
    ExperimentConfig,
    ModifierConfig,
    NUM_ACTIONS,
    TrafficConfig,
)
from repro.core.action_modifier import ActionModifier, CostSurrogate
from repro.core.agent import OnSlicingAgent
from repro.core.offline import collect_baseline_rollouts, pretrain_agent
from repro.nn.network import MLP
from repro.rl.behavior_cloning import BehaviorCloningTrainer
from repro.rl.cost_estimator import CostToGoEstimator
from repro.sim.env import STATE_DIM, ScenarioSimulator

_SIZES = dict(rows=st.integers(1, 300),
              batch=st.sampled_from([1, 7, 32, 128]),
              epochs=st.integers(1, 3),
              seed=st.integers(0, 2 ** 16))


def _data(seed, rows):
    """States wide enough that gradient norms pass the 5.0 clip."""
    data = np.random.default_rng(seed + 1)
    return (data.uniform(-50.0, 50.0, (rows, STATE_DIM)),
            data.uniform(0.0, 1.0, (rows, NUM_ACTIONS)),
            data.uniform(0.0, 1.0, rows))


def _assert_same_fit(got, want, network, optim, rng):
    """``got`` / ``want`` are ``(owner, curve)`` after the same fit;
    ``network`` / ``optim`` / ``rng`` read an owner's parts."""
    (got, got_curve), (want, want_curve) = got, want
    assert got_curve == want_curve
    assert all(isinstance(loss, float) for loss in got_curve)
    got_weights = network(got).state_dict()
    want_weights = network(want).state_dict()
    assert list(got_weights) == list(want_weights)
    for key in want_weights:
        assert np.array_equal(got_weights[key], want_weights[key]), key
    for moment in ("_m", "_v"):
        assert np.array_equal(getattr(optim(got), moment),
                              getattr(optim(want), moment))
    assert optim(got)._t == optim(want)._t
    assert rng(got).bit_generator.state == rng(want).bit_generator.state


@given(**_SIZES)
@settings(max_examples=25, deadline=None)
def test_behavior_cloning_epochs_match_the_parent_loop(rows, batch,
                                                       epochs, seed):
    states, actions, _ = _data(seed, rows)
    runs = []
    for trainer_cls in (BehaviorCloningTrainer,
                        fit_oracle.BehaviorCloningTrainer):
        rng = np.random.default_rng(seed)
        actor = MLP(STATE_DIM, NUM_ACTIONS, hidden_sizes=(16, 8),
                    output_activation="sigmoid", rng=rng)
        trainer = trainer_cls(actor, cfg=BCConfig(minibatch_size=batch),
                              rng=rng)
        runs.append((trainer, trainer.fit(states, actions,
                                           epochs=epochs)))
    _assert_same_fit(*runs, network=lambda t: t.actor,
                     optim=lambda t: t._optim, rng=lambda t: t._rng)


@given(**_SIZES)
@settings(max_examples=25, deadline=None)
def test_cost_surrogate_fit_matches_the_parent_loop(rows, batch, epochs,
                                                    seed):
    """The surrogate's minibatch is fixed at 128; ``batch`` is unused."""
    states, actions, costs = _data(seed, rows)
    runs = []
    for surrogate_cls in (CostSurrogate, fit_oracle.CostSurrogate):
        surrogate = surrogate_cls(rng=np.random.default_rng(seed))
        runs.append((surrogate, surrogate.fit(states, actions, costs,
                                              epochs=epochs)))
    _assert_same_fit(*runs, network=lambda s: s.network,
                     optim=lambda s: s._optim, rng=lambda s: s._rng)


@given(rows=_SIZES["rows"], seed=_SIZES["seed"],
       epochs=st.integers(0, 2), one_row=st.booleans())
@settings(max_examples=25, deadline=None)
def test_surrogate_action_grad_matches_the_parent_method(rows, seed, epochs,
                                                         one_row):
    """pi_a's loop differentiates through the frozen surrogate: the
    input-gradient pass gives the cost and action gradient of the
    parent's whole ``backward`` (its parameter gradients then zeroed)
    byte for byte, sign bits included, on an untrained or a fitted
    surrogate and on 1-D or 2-D inputs, and leaves every parameter
    gradient as it found it."""
    states, actions, costs = _data(seed, rows)
    surrogate = CostSurrogate(rng=np.random.default_rng(seed))
    if epochs:
        surrogate.fit(states, actions, costs, epochs=epochs)
    if one_row:
        states, actions = states[0], actions[0]
    params = surrogate.network.parameters()
    grads = [param.grad.tobytes() for param in params]
    got = surrogate.cost_and_action_grad(states, actions)
    assert [param.grad.tobytes() for param in params] == grads
    want = fit_oracle.CostSurrogate.cost_and_action_grad(
        surrogate, states, actions)
    for got_array, want_array in zip(got, want):
        assert (got_array.dtype, got_array.shape) == \
            (want_array.dtype, want_array.shape)
        assert got_array.tobytes() == want_array.tobytes()


@given(**_SIZES)
@settings(max_examples=25, deadline=None)
def test_action_modifier_training_matches_the_parent_loop(rows, batch,
                                                          epochs, seed):
    states, actions, _ = _data(seed, rows)
    cfg = ModifierConfig(hidden_sizes=(16, 8), train_epochs=epochs,
                         minibatch_size=batch)
    runs = []
    for modifier_cls in (ActionModifier, fit_oracle.ActionModifier):
        modifier = modifier_cls(cfg, rng=np.random.default_rng(seed))
        runs.append((modifier, modifier.train_offline(states, actions)))
    _assert_same_fit(*runs, network=lambda m: m.network,
                     optim=lambda m: m._optim, rng=lambda m: m._rng)


@given(**_SIZES, cuts=st.lists(st.integers(0, 300), max_size=4))
@settings(max_examples=25, deadline=None)
def test_estimator_fits_match_the_parent_loop(rows, batch, epochs, seed,
                                              cuts):
    """Episodes of any length (an empty one included) are added, then
    pi_phi is fitted, one more episode is added and it is fitted again
    -- the offline fit followed by an online refresh."""
    states, _, costs = _data(seed, rows)
    bounds = [0, *sorted(min(cut, rows) for cut in cuts), rows]
    cfg = EstimatorConfig(hidden_sizes=(16,), minibatch_size=batch)
    estimators = []
    for estimator_cls in (CostToGoEstimator,
                          fit_oracle.CostToGoEstimator):
        estimator = estimator_cls(STATE_DIM, cfg=cfg,
                                  rng=np.random.default_rng(seed))
        for start, end in zip(bounds, bounds[1:]):
            estimator.add_episode(list(states[start:end]),
                                  list(costs[start:end]))
        estimators.append(estimator)
    for refresh in range(2):
        runs = [(estimator, estimator.fit(epochs=epochs))
                for estimator in estimators]
        _assert_same_fit(*runs, network=lambda e: e.network,
                         optim=lambda e: e._optim,
                         rng=lambda e: e._rng)
        got, want = estimators
        assert got.target_scale == want.target_scale
        assert got.dataset_size == want.dataset_size
        for estimator in estimators:
            estimator.add_episode(states[:refresh + 1],
                                  costs[:refresh + 1])


def _list_dataset(dataset):
    """The list-based dataset ``dataset``'s rows fill, row by row."""
    listed = fit_oracle.OfflineDataset()
    start = 0
    for end in dataset.episode_bounds:
        for row in range(start, end):
            listed.add(dataset.states[row], dataset.actions[row],
                       dataset.rewards[row], dataset.costs[row],
                       dataset.usages[row],
                       expert_action=dataset.expert_actions[row])
        listed.end_episode()
        start = end
    return listed


def test_pretrain_agent_matches_the_parent_stage():
    """One agent per slice pretrained on collected clean and jittered
    rollouts, and a twin pretrained by the parent stage -- the parent
    ``pretrain_agent`` over the list-based dataset, every fit its own
    loop -- end with equal weights everywhere, equal curves and equal
    generator states."""
    cfg = ExperimentConfig(
        traffic=TrafficConfig(slots_per_episode=12), seed=3)
    simulator = ScenarioSimulator(cfg)
    search = GridSearchConfig(bin_edges=(0.5, 1.3), eval_slots=2)
    baselines = {s.name: fit_rule_based_policy(s, cfg.network,
                                               search_cfg=search)
                 for s in cfg.slices}
    pure = collect_baseline_rollouts(simulator, baselines,
                                     num_episodes=2)
    jitter = collect_baseline_rollouts(
        simulator, baselines, num_episodes=2, exploration_std=0.12,
        rng=np.random.default_rng(5))
    for spec in cfg.slices:
        name = spec.name
        agents, reports = [], []
        for oracle in (False, True):
            agent = OnSlicingAgent(
                name, baselines[name], simulator.horizon,
                spec.sla.cost_threshold, cfg=cfg.agent,
                rng=np.random.default_rng(9))
            if oracle:
                agent.estimator.__class__ = fit_oracle.CostToGoEstimator
                agent.modifier.__class__ = fit_oracle.ActionModifier
                agent.modifier.surrogate.__class__ = \
                    fit_oracle.CostSurrogate
                report = fit_oracle.pretrain_agent(
                    agent, _list_dataset(pure[name]), bc_epochs=3,
                    exploration_dataset=_list_dataset(jitter[name]))
            else:
                report = pretrain_agent(
                    agent, pure[name], bc_epochs=3,
                    exploration_dataset=jitter[name])
            agents.append(agent)
            reports.append(report)
        assert reports[0] == reports[1]
        got, want = agents
        for part in (lambda a: a.model.actor, lambda a: a.model.critic,
                     lambda a: a.estimator.network,
                     lambda a: a.modifier.network,
                     lambda a: a.modifier.surrogate.network):
            got_weights = part(got).state_dict()
            want_weights = part(want).state_dict()
            for key in want_weights:
                assert np.array_equal(got_weights[key],
                                      want_weights[key]), (name, key)
        assert got.estimator.target_scale == want.estimator.target_scale
        assert got._rng.bit_generator.state == \
            want._rng.bit_generator.state
