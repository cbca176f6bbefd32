"""The orchestrator's stacked act against the per-slice act it replaced.

``tests/scalar_oracle.py`` keeps one slice's act as it stood before the
orchestrator stacked its agents: one pi_phi predict, one actor and one
critic forward per agent per slot.  :class:`repro.core.agent.AgentStack`
makes one pi_phi pass, one actor and one critic forward per slot over
``(S, 1, in, out)`` slabs, then each agent's own part.  Two copies of
one deployment, one driven each way, through PPO updates (which write
the shared slabs in place), a pi_phi refresh (which replaces the frozen
tables) and a deterministic test epoch, must end byte for byte alike:
every weight, multiplier, generator state, buffer, pending decision
and episode record, and every ``EpochStats``.  Thresholds are tightened
so that Eq. 8 fires mid-episode and latched agents leave gaps in the
stack.

The floats rest on numpy running each slab as the BLAS call its agent
makes alone, so the suite is meant to pass under any BLAS thread count
(CI runs it under ``OPENBLAS_NUM_THREADS=1`` and ``=2``).
"""

from __future__ import annotations

import copy
import dataclasses
import types

import numpy as np
import pytest

import scalar_oracle
from repro.core.agent import AgentStack
from repro.experiments import harness
from repro.experiments.harness import build_onslicing
from repro.scenarios import get as get_scenario

VARIANTS = ("full", "nb", "ne", "est_noise", "projection", "md_noise")

#: backward caches a forward leaves on a layer: transient, not state
_TRANSIENT = {"_input", "_cache"}


def _same(left, right, path="") -> None:
    """``left`` and ``right`` are the same state, to the last bit."""
    if isinstance(left, AgentStack):
        return
    assert type(left) is type(right), path
    if isinstance(left, np.ndarray):
        assert left.shape == right.shape and left.dtype == right.dtype, path
        assert left.tobytes() == right.tobytes(), path
    elif isinstance(left, np.random.Generator):
        assert left.bit_generator.state == right.bit_generator.state, path
    elif isinstance(left, (float, np.floating)):
        assert np.float64(left).tobytes() == np.float64(right).tobytes(), \
            f"{path}: {left!r} != {right!r}"
    elif isinstance(left, dict):
        assert list(left) == list(right), path
        for key in left:
            if key not in _TRANSIENT:
                _same(left[key], right[key], f"{path}.{key}")
    elif isinstance(left, (list, tuple)):
        assert len(left) == len(right), path
        for at, (one, other) in enumerate(zip(left, right)):
            _same(one, other, f"{path}[{at}]")
    elif hasattr(left, "__dict__") or hasattr(left, "__slots__"):
        if dataclasses.is_dataclass(left) or hasattr(left, "__dict__"):
            _same(vars(left), vars(right), path)
        else:
            for slot in left.__slots__:
                _same(getattr(left, slot), getattr(right, slot),
                      f"{path}.{slot}")
    else:
        assert left == right, f"{path}: {left!r} != {right!r}"


def _oracle(orchestrator):
    """``orchestrator`` acting through the per-slice oracle."""
    orchestrator.act_batch = types.MethodType(scalar_oracle.act_batch,
                                              orchestrator)
    return orchestrator


def _schedule(orchestrator):
    """Two learning epochs around a pi_phi refresh, then a test epoch."""
    for agent in orchestrator.agents.values():
        agent.update_threshold = 3       # PPO steps mid-run
    stats = [orchestrator.run_epoch(episodes=2)]
    orchestrator.refresh_estimators()
    stats.append(orchestrator.run_epoch(episodes=2))
    stats.append(orchestrator.run_epoch(episodes=1, deterministic=True,
                                        learn=False))
    return stats


def _stacked_run(orchestrator):
    """:func:`_schedule` on the stack, with every agent's decision of
    every slot (pi_phi's ``(mu, sigma)`` and ``E_t`` included)."""
    decisions = []
    stack = orchestrator._stack
    act = stack.act

    def recorded(*args, **kwargs):
        out = act(*args, **kwargs)
        decisions.extend(out)
        return out
    stack.act = recorded
    return _schedule(orchestrator), decisions


def _oracle_run(orchestrator):
    """:func:`_stacked_run` through the oracle."""
    decisions = []
    act = scalar_oracle.act

    def recorded(*args, **kwargs):
        decisions.append(act(*args, **kwargs))
        return decisions[-1]
    scalar_oracle.act = recorded
    try:
        return _schedule(_oracle(orchestrator)), decisions
    finally:
        scalar_oracle.act = act


@pytest.fixture(scope="module")
def runs():
    """Per variant: the stacked and the oracle copy after
    :func:`_schedule`, each with its ``EpochStats`` and decisions."""
    spec = get_scenario("short_horizon")
    out = {}
    for variant in VARIANTS:
        bundle = build_onslicing(variant=variant, offline_episodes=1,
                                 exploration_episodes=1, seed=3,
                                 scenario=spec)
        # budgets tight enough that Eq. 8 fires mid-episode
        bundle.agents["HVS"].switch.cost_threshold = 0.002
        bundle.agents["RDC"].switch.cost_threshold = 0.003
        twin = copy.deepcopy(bundle)
        stacked = _stacked_run(bundle.orchestrator)
        oracle = _oracle_run(twin.orchestrator)
        out[variant] = (bundle, stacked, twin, oracle)
    return out


@pytest.mark.parametrize("variant", VARIANTS)
def test_stacked_act_matches_the_per_slice_act(runs, variant):
    bundle, (stacked, decided), twin, (oracle, expected) = runs[variant]
    _same(decided, expected, "decisions")
    _same(stacked, oracle, "stats")
    _same(bundle.agents, twin.agents, "agents")
    _same(bundle.orchestrator.interaction_counts,
          twin.orchestrator.interaction_counts, "interactions")
    # PPO steps between acts: the shared slabs are written in place
    assert sum(agent.updates_run for agent in bundle.agents.values()) >= 3


def test_eq8_fires_mid_episode_and_leaves_gaps(runs):
    """The premise of the parity test: switches after slot 0, and a
    slot where the middle agent is latched and its neighbours are not,
    so a pass spans a latched slab."""
    mid, gapped = set(), set()
    for variant, (bundle, *_) in runs.items():
        episodes = zip(*(agent.episodes
                         for agent in bundle.agents.values()))
        for mar, hvs, rdc in episodes:
            if any(r.switched_at for r in (mar, hvs, rdc)):
                mid.add(variant)
            if (hvs.switched_at is not None and mar.switched_at is None
                    and (rdc.switched_at is None
                         or rdc.switched_at > hvs.switched_at)):
                gapped.add(variant)
    assert {"full", "ne", "est_noise", "projection", "md_noise"} <= mid
    assert gapped
    assert not any(agent.switch.switch_slot is not None
                   for agent in runs["nb"][0].agents.values())


def test_slabs_are_shared_and_rebuilt_exactly(runs):
    """Slab builds over the whole schedule: one actor + critic adoption
    (the PPO steps land in the shared slabs in place) and one pi_phi
    stack per set of frozen tables (before and after the refresh)."""
    bundle = runs["full"][0]
    counters = bundle.orchestrator.counters
    slots = 5 * bundle.simulator.horizon
    assert counters["act_calls"] == slots
    assert counters["rows_acted"] == 3 * slots
    assert counters["slab_builds"] == 3
    params = [p for agent in bundle.agents.values()
              for p in agent.model.actor.parameters()]
    assert all(p.value.base is not None for p in params)


def test_counters_on_a_short_horizon_run():
    """Two episodes of ``short_horizon``: one stacked forward and one
    pi_phi pass per slot (not per slice), the slabs built once each."""
    spec = get_scenario("short_horizon")
    bundle = build_onslicing(offline_episodes=1, exploration_episodes=1,
                             seed=3, scenario=spec)
    orchestrator = bundle.orchestrator
    orchestrator.run_epoch(episodes=2)
    counters = orchestrator.counters
    slots = 2 * bundle.simulator.horizon
    assert dict(counters) == {
        "act_calls": slots, "rows_acted": 3 * slots,
        "forward_calls": slots, "posterior_calls": slots,
        "posterior_rows": 3 * slots, "slab_builds": 2}
    with pytest.raises(TypeError):
        counters["act_calls"] = 0


def _act_once(orchestrator):
    """A fresh episode's first slot on fixed states: the agents'
    pending decisions."""
    agents = orchestrator.agents
    states = np.stack([np.linspace(0.1, 0.9, 9) * (k + 1) / 3
                       for k in range(len(agents))])
    for agent in agents.values():
        agent.begin_episode()
    orchestrator.act_batch(states, list(agents))
    return [agent._pending for agent in agents.values()]


def test_rebound_weights_and_refits_are_seen():
    """A ``load_state_dict`` (which rebinds every parameter) and a pi_phi
    fit (which replaces the frozen table) reach the next act; so does a
    copy's own training, and never the original's slabs."""
    spec = get_scenario("short_horizon")
    bundle = build_onslicing(offline_episodes=1, exploration_episodes=1,
                             seed=3, scenario=spec)
    orchestrator = bundle.orchestrator
    twin = copy.deepcopy(bundle)
    _oracle(twin.orchestrator)
    _same(_act_once(orchestrator), _act_once(twin.orchestrator))
    for agents in (bundle.agents, twin.agents):
        for agent in agents.values():
            agent.model.load_state_dict(
                {k: v * 1.05 for k, v in agent.model.state_dict().items()})
            agent.estimator.add_episode([np.full(9, 0.5)] * 3,
                                        [0.1, 0.2, 0.3])
            agent.refresh_estimator(epochs=1)
    builds = orchestrator.counters["slab_builds"]
    _same(_act_once(orchestrator), _act_once(twin.orchestrator))
    assert orchestrator.counters["slab_builds"] == builds + 2
    # a copy of a stacked orchestrator builds its own slabs: training
    # it leaves the original's weights (and slabs) untouched
    clone = copy.deepcopy(bundle)
    before = copy.deepcopy(bundle.agents)
    for agent in clone.agents.values():
        agent.update_threshold = 10
    clone.orchestrator.run_epoch(episodes=1)
    assert clone.orchestrator.counters["slab_builds"] == builds + 4
    _same(bundle.agents, before)
    _same(_act_once(orchestrator), _act_once(twin.orchestrator))


def test_zero_episodes_is_refused():
    spec = get_scenario("short_horizon")
    bundle = build_onslicing(offline_episodes=1, exploration_episodes=1,
                             seed=3, scenario=spec)
    with pytest.raises(ValueError, match="episodes=0"):
        bundle.orchestrator.run_epoch(episodes=0)
    with pytest.raises(ValueError, match="episodes=0"):
        harness.test_performance(bundle, episodes=0)
    with pytest.raises(ValueError, match="episodes=-1"):
        bundle.orchestrator.run_epoch(episodes=-1)
    assert not bundle.orchestrator.epoch_history
