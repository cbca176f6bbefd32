"""Batched-engine parity suite.

The vectorised engine's contract is *bit-exactness*: a world stepped
inside a :class:`~repro.engine.batch.BatchSimulator` -- any batch
size, any scenario mix -- produces exactly the traffic, channels,
rewards, costs and observations of the scalar
:class:`~repro.sim.env.ScenarioSimulator`.  This suite pins that
contract against the golden trace digests for every catalog scenario
(B=1 and a mixed B=8 batch), asserts step-level bit equality on
stochastic worlds with churn and fault events, and checks the layers
above (batched policies, projection, the fleet shard's lockstep
driver) reproduce their scalar counterparts.

It also guards the two numpy properties the engine's determinism
rests on: array RNG draws consume a Generator exactly like the
equivalent scalar draw sequence, and elementwise ufuncs are
value-deterministic regardless of array length/position.  If either
ever breaks in a numpy upgrade, these tests fail loudly instead of
the engine silently drifting from the scalar reference.
"""

import ast
import dataclasses
import hashlib
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import scenarios
from repro.baselines.model_based import ModelBasedPolicy
from repro.baselines.onrl import OnRLConfig
from repro.baselines.projection import project_actions
from repro.baselines.rule_based import RuleBasedPolicy
from repro.config import ExperimentConfig, NUM_ACTIONS, NetworkConfig
from repro.engine import (
    BatchSimulator,
    ConstantBatchPolicy,
    ModelBasedBatchPolicy,
    RoutedBatchPolicy,
    RuleBasedBatchPolicy,
    WorldConditions,
    evaluate_rows,
    project_actions_batch,
)
from repro.experiments.harness import (
    make_onrl_agents,
    make_simulators,
    run_episodes,
    train_onrl,
)
from repro.sim.env import (
    POISSON_LAM_MAX,
    STATE_DIM,
    ScenarioSimulator,
    SliceObservation,
    WorldLayout,
)

from test_golden_digests import GOLDEN_TRACE_DIGESTS


def _build_sim(name, seed=None, slots=None):
    """The catalog world ``name``; ``slots`` shortens its day (event
    fractions scale, so every event still fires)."""
    spec = scenarios.get(name)
    if slots is not None:
        spec = dataclasses.replace(spec, traffic_cfg=dataclasses.replace(
            spec.build_config().traffic, slots_per_episode=slots))
    cfg = spec.build_config(seed=seed)
    return spec.build_simulator(cfg, rng=np.random.default_rng(cfg.seed))


def _observation(vector) -> SliceObservation:
    return SliceObservation(*(float(x) for x in vector))


def _trace_digest(sim) -> str:
    digest = hashlib.sha256()
    for name, trace in sorted(sim.traces().items()):
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(
            trace, dtype=np.float64).tobytes())
    return digest.hexdigest()


def _random_policy_slots(sim, rng, slots):
    """Step a scalar world under a shared random action stream."""
    out = []
    for _ in range(slots):
        actions = {n: rng.uniform(0.0, 1.0, NUM_ACTIONS)
                   for n in sim.slice_names}
        results = sim.step(actions)
        out.append({
            n: (tuple(results[n].observation.vector()),
                results[n].reward, results[n].cost, results[n].usage)
            for n in sim.slice_names
        })
    return out


def _world_rows(step, world):
    """One world's rows of a batch step, in the per-slice shape
    :func:`_random_policy_slots` records for a lone world."""
    rows = step.rows_of(world)
    names = step.names[step.worlds.index(world)]
    return {n: (tuple(step.observations[rows][j]),
                float(step.rewards[rows][j]),
                float(step.costs[rows][j]),
                float(step.usages[rows][j]))
            for j, n in enumerate(names)}


class TestRNGStreamEquivalence:
    """Array draws must equal the scalar draw sequence, bit for bit."""

    def test_standard_normal_block(self):
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        scalars = np.array([a.normal(0.0, 1.5) for _ in range(32)])
        block = 1.5 * b.standard_normal(32)
        assert np.array_equal(scalars, block)

    def test_poisson_array(self):
        a, b = np.random.default_rng(9), np.random.default_rng(9)
        lams = np.array([0.0, 0.3, 5.0, 44.1, 123.0, 1e4])
        scalars = np.array([a.poisson(lam) for lam in lams])
        assert np.array_equal(scalars, b.poisson(lams))

    @staticmethod
    def _rows_then_array(lams, seed, repeats):
        """Draw ``lams`` ``repeats`` times on two twin generators: one
        scalar call per row, as the stepper's arrivals stage does (a
        Python float each), and one array call; both counts and both
        generators' final states."""
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        table = np.asarray(lams, dtype=float)
        scalars = [a.poisson(lam) for _ in range(repeats)
                   for lam in table.tolist()]
        block = np.concatenate([b.poisson(table)
                                for _ in range(repeats)])
        return (np.array(scalars, dtype=np.int64), block,
                a.bit_generator.state, b.bit_generator.state)

    @pytest.mark.parametrize("lams", [
        [0.0], [9.99], [10.0], [10.01],
        [0.0, 9.99, 10.0, 10.01], [10.01, 10.0, 9.99, 0.0],
        [9.99, 10.0, 0.0, 10.01, 10.0, 9.99]])
    def test_poisson_rows_match_array_draw_and_state(self, lams):
        """Around numpy's switch from inversion to PTRS at lam = 10:
        the per-row scalar sequence is the array draw, value for
        value, and leaves the generator where the array draw does."""
        scalars, block, state_a, state_b = self._rows_then_array(
            lams, seed=13, repeats=64)
        assert np.array_equal(scalars, block)
        assert state_a == state_b

    @given(lams=st.lists(st.floats(min_value=0.0, max_value=1e4,
                                   allow_nan=False),
                         min_size=1, max_size=8),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_poisson_rows_match_array_draw_property(self, lams, seed):
        scalars, block, state_a, state_b = self._rows_then_array(
            lams, seed, repeats=3)
        assert np.array_equal(scalars, block)
        assert state_a == state_b

    def test_poisson_limit_is_numpys(self):
        """:data:`POISSON_LAM_MAX` is the bound ``Generator.poisson``
        enforces: accepted at it, refused one ulp above."""
        rng = np.random.default_rng(0)
        rng.poisson(POISSON_LAM_MAX)
        with pytest.raises(ValueError, match="too large"):
            rng.poisson(np.nextafter(POISSON_LAM_MAX, np.inf))

    def test_interleaved_channel_init(self):
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        means, snrs = [], []
        for _ in range(8):
            mean = a.normal(18.0, 4.0)
            means.append(mean)
            snrs.append(a.normal(mean, 1.5))
        z = b.standard_normal(16)
        mean_block = 18.0 + 4.0 * z[0::2]
        snr_block = mean_block + 1.5 * z[1::2]
        assert np.array_equal(means, mean_block)
        assert np.array_equal(snrs, snr_block)

    def test_ufunc_length_invariance(self):
        x = np.linspace(-3.0, 3.0, 257)
        full = np.power(10.0, x)
        singles = np.array([np.power(10.0, v) for v in x])
        assert np.array_equal(full, singles)


class TestIntensityTableChecked:
    """A world's Poisson intensity table is range-checked once, when
    its layout is built, not by every draw: a bad entry is refused
    naming the slice, before the world's generator moves."""

    @pytest.mark.parametrize("bad", [np.nan, -0.5, 1e30])
    def test_bad_table_refused_before_any_draw(self, bad):
        sim = _build_sim("default", slots=8)
        sim.reset()
        name = sim.slice_names[1]
        sim._traces[name] = sim._traces[name].copy()
        sim._traces[name][5] = bad
        state = sim._rng.bit_generator.state
        with pytest.raises(ValueError, match=rf"slice {name!r}.*slot 5"):
            WorldLayout(sim)
        with pytest.raises(ValueError, match=rf"slice {name!r}.*slot 5"):
            sim.step({n: np.full(NUM_ACTIONS, 0.3)
                      for n in sim.slice_names})
        assert sim._rng.bit_generator.state == state
        assert sim.slot == 0



SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def test_the_only_poisson_under_src_is_the_arrivals_stage():
    """Every Poisson draw of the simulator is the stepper's arrivals
    stage: exactly one ``.poisson`` attribute under ``src/``, inside
    ``BatchSimulator.step_rows``'s ``engine.arrivals`` block, so
    replacing the draws has exactly one site."""
    sites = []
    for root, _, files in os.walk(SRC_DIR):
        for entry in sorted(files):
            if not entry.endswith(".py"):
                continue
            path = os.path.join(root, entry)
            with open(path, "r", encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=path)
            sites += [(os.path.relpath(path, SRC_DIR), node.lineno, tree)
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute)
                      and node.attr == "poisson"]
    where = [site[:2] for site in sites]
    assert [path for path, _ in where] == [
        os.path.join("repro", "engine", "batch.py")], where
    (_, line, tree), = sites
    step_rows, = [node for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "step_rows"]
    block, = [node for node in ast.walk(step_rows)
              if isinstance(node, ast.With)
              and any(isinstance(arg, ast.Constant)
                      and arg.value == "engine.arrivals"
                      for item in node.items
                      for arg in getattr(item.context_expr, "args", ()))]
    assert block.lineno <= line <= block.end_lineno


class TestTraceDigestParity:
    """The pinned golden workloads survive batching untouched."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_TRACE_DIGESTS))
    def test_single_world_batch(self, name):
        batch = BatchSimulator([_build_sim(name)])
        batch.reset()
        assert _trace_digest(batch.sims[0]) == \
            GOLDEN_TRACE_DIGESTS[name]

    def test_mixed_eight_world_batch(self):
        names = ["default", "flash_crowd", "bursty", "drift",
                 "six_slices", "slice_churn", "link_degradation",
                 "short_horizon"]
        batch = BatchSimulator([_build_sim(name) for name in names])
        batch.reset()
        for sim, name in zip(batch.sims, names):
            assert _trace_digest(sim) == GOLDEN_TRACE_DIGESTS[name], \
                f"scenario {name!r} trace drifted inside the batch"


class TestStepParity:
    """Stepping in a batch is bit-identical to stepping alone."""

    NAMES = ["default", "flash_crowd", "slice_churn",
             "link_degradation", "latency_surge", "six_slices",
             "bursty", "short_horizon"]

    def test_mixed_batch_bit_exact(self):
        slots = min(16, min(_build_sim(name).horizon
                            for name in self.NAMES))
        scalar = {}
        for name in self.NAMES:
            sim = _build_sim(name)
            sim.reset()
            scalar[name] = _random_policy_slots(
                sim, np.random.default_rng(123), slots)

        sims = [_build_sim(name) for name in self.NAMES]
        batch = BatchSimulator(sims)
        batch.reset()
        rngs = [np.random.default_rng(123) for _ in self.NAMES]
        for _ in range(slots):
            actions = [
                {n: rngs[b].uniform(0.0, 1.0, NUM_ACTIONS)
                 for n in sims[b].slice_names}
                for b in range(len(sims))
            ]
            step = batch.step(actions)
            for b, name in enumerate(self.NAMES):
                rows = step.rows_of(b)
                expected = scalar[name].pop(0)
                for j, slice_name in enumerate(step.names[b]):
                    exp_obs, exp_r, exp_c, exp_u = expected[slice_name]
                    assert tuple(step.observations[rows][j]) == exp_obs
                    assert float(step.rewards[rows][j]) == exp_r
                    assert float(step.costs[rows][j]) == exp_c
                    assert float(step.usages[rows][j]) == exp_u

    def test_cumulative_state_mirrors_scalar(self):
        sim_a = _build_sim("default")
        sim_a.reset()
        action = np.full(NUM_ACTIONS, 0.3)
        for _ in range(5):
            sim_a.step({n: action for n in sim_a.slice_names})

        sim_b = _build_sim("default")
        batch = BatchSimulator([sim_b])
        batch.reset()
        for _ in range(5):
            batch.step([{n: action for n in sim_b.slice_names}])
        assert sim_b.slot == sim_a.slot
        for name in sim_a.slice_names:
            assert sim_b.cumulative_cost(name) == \
                sim_a.cumulative_cost(name)
            assert sim_b.sla_violated(name) == sim_a.sla_violated(name)

    def test_heterogeneous_user_populations(self):
        cfg_small = ExperimentConfig()
        cfg_large = ExperimentConfig(
            network=NetworkConfig(users_per_slice=5))
        action = np.full(NUM_ACTIONS, 0.4)

        def run_scalar(cfg):
            sim = ScenarioSimulator(
                cfg, rng=np.random.default_rng(cfg.seed))
            sim.reset()
            out = []
            for _ in range(6):
                results = sim.step(
                    {n: action for n in sim.slice_names})
                out.append({n: (r.reward, r.cost)
                            for n, r in results.items()})
            return out

        expected = [run_scalar(cfg_small), run_scalar(cfg_large)]
        sims = [ScenarioSimulator(cfg_small,
                                  rng=np.random.default_rng(
                                      cfg_small.seed)),
                ScenarioSimulator(cfg_large,
                                  rng=np.random.default_rng(
                                      cfg_large.seed))]
        batch = BatchSimulator(sims)
        batch.reset()
        for t in range(6):
            step = batch.step([{n: action for n in sim.slice_names}
                               for sim in sims])
            for b in range(2):
                rows = step.rows_of(b)
                for j, name in enumerate(step.names[b]):
                    reward, cost = expected[b][t][name]
                    assert float(step.rewards[rows][j]) == reward
                    assert float(step.costs[rows][j]) == cost

    def test_step_guards(self):
        sim = _build_sim("short_horizon")
        batch = BatchSimulator([sim])
        with pytest.raises(RuntimeError, match="never reset"):
            batch.step([{n: np.full(NUM_ACTIONS, 0.2)
                         for n in sim.slice_names}])
        batch.reset()
        with pytest.raises(ValueError, match="no world to step"):
            batch.step([None])
        while not sim.done:
            batch.step([{n: np.full(NUM_ACTIONS, 0.2)
                         for n in sim.slice_names}])
        with pytest.raises(RuntimeError, match="episode finished"):
            batch.step([{n: np.full(NUM_ACTIONS, 0.2)
                         for n in sim.slice_names}])


class TestActionBoundary:
    """Where actions are staged into the step matrix (the scalar
    front's half is in ``tests/test_sim_network_env.py``)."""

    @pytest.mark.parametrize("poison", [np.nan, np.inf])
    def test_non_finite_action_names_world_and_slice(self, poison):
        sims = [_build_sim("default"), _build_sim("six_slices")]
        batch = BatchSimulator(sims)
        batch.reset()
        actions = [np.full((len(sim.slice_names), NUM_ACTIONS), 0.2)
                   for sim in sims]
        actions[1][4, 8] = poison
        culprit = sims[1].slice_names[4]
        with pytest.raises(ValueError,
                           match=f"world 1.*{culprit!r}"):
            batch.step(actions)
        with pytest.raises(ValueError, match="world 1"):
            batch.step([None, actions[1]])     # index, not position


class TestPlainKernels:
    """``evaluate_rows`` is a function of its inputs: it writes none of
    them and hands back arrays of its own, and the op-order rules the
    kernels' module docstring lists hold."""

    @staticmethod
    def _inputs(actions=None):
        net = _build_sim("six_slices").network
        rng = np.random.default_rng(4)
        count = len(net.slice_names)
        if actions is None:
            actions = rng.uniform(-0.2, 1.2, (count, NUM_ACTIONS))
        return (net.slot_rows(),
                WorldConditions.nominal(1).refresh([net]),
                actions, rng.uniform(0.0, 60.0, count), net.cqi.copy(),
                net.snr_db - net.mean_snr_db)

    def test_inputs_untouched_and_outputs_fresh(self):
        args = self._inputs()
        arrays = args[2:]
        before = [array.copy() for array in arrays]
        first = evaluate_rows(*args)
        second = evaluate_rows(*args)
        for array, copy in zip(arrays, before):
            np.testing.assert_array_equal(array, copy)
        for key, column in first.items():
            np.testing.assert_array_equal(column, second[key],
                                          err_msg=key)
            assert not np.shares_memory(column, second[key]), key
            assert not any(np.shares_memory(column, array)
                           for array in arrays), key

    def test_usage_of_negative_zero_actions_is_positive_zero(self):
        """Eq. 9 sums the raw columns from an explicit ``+0.0``:
        starting from the first column would make it ``-0.0``."""
        count = len(_build_sim("six_slices").slice_names)
        out = evaluate_rows(*self._inputs(np.full((count, NUM_ACTIONS),
                                                  -0.0)))
        assert (out["usage"] == 0.0).all()
        assert not np.signbit(out["usage"]).any()


class TestWorldOwnsItsEpisode:
    """The episode layout (traffic table, cumulative cost) lives on
    the simulator, so every engine holding a world sees the episode
    the world is actually in."""

    @staticmethod
    def _actions(sim):
        return {n: np.full(NUM_ACTIONS, 0.3) for n in sim.slice_names}

    def test_direct_reset_while_a_batch_holds_the_world(self):
        lone = _build_sim("default", seed=5)
        expected = []
        for _ in range(2):
            lone.reset()
            expected.append(_random_policy_slots(
                lone, np.random.default_rng(7), 1)[0])

        sims = [_build_sim("default", seed=5), _build_sim("bursty")]
        batch = BatchSimulator(sims)
        batch.reset()
        rng = np.random.default_rng(7)
        got = []
        for episode in range(2):
            if episode:
                sims[0].reset()         # behind the batch's back
                rng = np.random.default_rng(7)
            step = batch.step([
                {n: rng.uniform(0.0, 1.0, NUM_ACTIONS)
                 for n in sims[0].slice_names},
                self._actions(sims[1])])
            got.append(_world_rows(step, 0))
        assert got == expected

    def test_alternating_fronts_within_one_episode(self):
        self._alternate(_build_sim("default"))

    def test_alternating_fronts_on_a_padded_block(self):
        """The same, beside a world of five users per slice: the
        shared engine's channel block is five lanes wide, the world's
        own three, and its bank moves between them every slot."""
        cfg = ExperimentConfig(network=NetworkConfig(users_per_slice=5))
        self._alternate(ScenarioSimulator(
            cfg, rng=np.random.default_rng(cfg.seed)))

    def _alternate(self, other):
        lone = _build_sim("slice_churn")
        lone.reset()
        slots = int(0.6 * lone.horizon)        # across the churn
        expected = _random_policy_slots(
            lone, np.random.default_rng(31), slots)

        sim = _build_sim("slice_churn")
        shared = BatchSimulator([sim, other])
        shared.reset()
        rng = np.random.default_rng(31)
        got = []
        for slot in range(slots):
            actions = {n: rng.uniform(0.0, 1.0, NUM_ACTIONS)
                       for n in sim.slice_names}
            if slot % 2:
                results = sim.step(actions)
                got.append({
                    n: (tuple(results[n].observation.vector()),
                        results[n].reward, results[n].cost,
                        results[n].usage)
                    for n in sim.slice_names})
                continue
            # the other world sits some of the shared steps out
            step = shared.step([
                actions, self._actions(other) if slot % 3 else None])
            got.append(_world_rows(step, 0))
        assert got == expected
        assert _trace_digest(sim) == _trace_digest(lone)
        assert sim.slot == lone.slot
        for name in lone.slice_names:
            assert sim.cumulative_cost(name) == \
                lone.cumulative_cost(name)
        assert sim._rng.bit_generator.state == \
            lone._rng.bit_generator.state
        np.testing.assert_array_equal(sim.network.snr_db,
                                      lone.network.snr_db)


class TestRunEpisodes:
    """The harness's batched evaluation path."""

    def test_vector_matches_scalar_engine(self):
        policy = ConstantBatchPolicy(np.full(NUM_ACTIONS, 0.3))
        cfg = scenarios.get("short_horizon").build_config()
        spec = scenarios.get("short_horizon")
        scalar = run_episodes(make_simulators(cfg, spec, count=3),
                              policy, episodes=2, engine="scalar")
        vector = run_episodes(make_simulators(cfg, spec, count=3),
                              policy, episodes=2, engine="vector")
        assert scalar == vector

    def test_mixed_horizons_lockstep(self):
        policy = ConstantBatchPolicy(np.full(NUM_ACTIONS, 0.25))
        sims = [_build_sim("short_horizon"), _build_sim("default")]
        results = run_episodes(sims, policy, episodes=1,
                               engine="vector")
        assert len(results) == 2
        assert all(len(world) == 1 for world in results)
        # both worlds ran their own full horizon
        assert sims[0].slot == sims[0].horizon
        assert sims[1].slot == sims[1].horizon
        assert sims[0].horizon != sims[1].horizon

    def test_rejects_unknown_engine(self):
        policy = ConstantBatchPolicy(np.full(NUM_ACTIONS, 0.25))
        with pytest.raises(ValueError, match="unknown engine"):
            run_episodes([_build_sim("default")], policy,
                         engine="warp")


class TestBatchPolicies:
    def test_rule_based_matches_scalar_table(self):
        rng = np.random.default_rng(0)
        table = [rng.uniform(0.0, 1.0, NUM_ACTIONS) for _ in range(4)]
        policy = RuleBasedPolicy("MAR", "mar",
                                 (0.25, 0.5, 0.75, 1.0), table)
        batch = RuleBasedBatchPolicy({"MAR": policy})
        states = rng.uniform(0.0, 1.3, (64, STATE_DIM))
        actions = batch.act_batch(states, ["MAR"] * 64)
        for i in range(64):
            expected = policy.act_vector(states[i])
            assert np.array_equal(actions[i], expected)

    def test_rule_based_app_fallback(self):
        rng = np.random.default_rng(1)
        table = [rng.uniform(0.0, 1.0, NUM_ACTIONS) for _ in range(2)]
        policy = RuleBasedPolicy("MAR", "mar", (0.5, 1.0), table)
        batch = RuleBasedBatchPolicy({"MAR": policy})
        states = rng.uniform(0.0, 1.0, (3, STATE_DIM))
        # MAR7 (population naming) routes onto the fitted mar table
        actions = batch.act_batch(states, ["MAR7"] * 3)
        for i in range(3):
            assert np.array_equal(actions[i],
                                  policy.act_vector(states[i]))

    def test_model_based_matches_solver(self):
        cfg = ExperimentConfig()
        policies = {spec.name: ModelBasedPolicy(spec, cfg.network)
                    for spec in cfg.slices}
        batch = ModelBasedBatchPolicy(policies)
        rng = np.random.default_rng(2)
        states = rng.uniform(0.0, 1.0, (9, STATE_DIM))
        names = [spec.name for spec in cfg.slices] * 3
        actions = batch.act_batch(states, names)
        for i, name in enumerate(names):
            expected = policies[name].act_vector(states[i])
            assert np.array_equal(actions[i], expected), \
                f"row {i} ({name}) is not the per-slice program"

    def test_scalar_form_is_row_zero_of_the_batch_form(self):
        """Per method: ``act_vector(s)`` is ``act_rows(s[None])[0]``,
        and so is a one-row ``act_batch``."""
        cfg = ExperimentConfig()
        rng = np.random.default_rng(4)
        table = [rng.uniform(0.0, 1.0, NUM_ACTIONS) for _ in range(4)]
        per_slice = [RuleBasedPolicy("MAR", "mar",
                                     (0.25, 0.5, 0.75, 1.0), table)]
        per_slice += [ModelBasedPolicy(spec, cfg.network)
                      for spec in cfg.slices]
        for policy in per_slice:
            router = RoutedBatchPolicy({"S": policy})
            for state in rng.uniform(-0.2, 1.4, (25, STATE_DIM)):
                scalar = policy.act_vector(state)
                assert np.array_equal(
                    scalar, policy.act_rows(state[None])[0])
                assert np.array_equal(
                    scalar, router.act_batch(state[None], ["S"])[0])
                assert np.array_equal(
                    scalar, policy.act(_observation(state)))

    def test_router_exact_same_app_and_fallback(self):
        def constant(name, app, level):
            return RuleBasedPolicy(name, app, (1.0,),
                                   [np.full(NUM_ACTIONS, level)])

        mar, hvs = constant("MAR", "mar", 0.1), constant("HVS", "hvs",
                                                         0.2)
        exact = constant("HVS9", "hvs", 0.3)
        router = RoutedBatchPolicy({"MAR": mar, "HVS": hvs,
                                    "HVS9": exact})
        names = ["MAR", "HVS9", "HVS4", "hvs-churn", "RDC3", "x"]
        actions = router.act_batch(np.zeros((6, STATE_DIM)), names)
        # exact name; exact beats same-app; same app (either case);
        # no rdc policy and an unknown prefix: the first policy
        assert actions[:, 0].tolist() == [0.1, 0.3, 0.2, 0.2, 0.1, 0.1]
        for cls in (RoutedBatchPolicy, RuleBasedBatchPolicy,
                    ModelBasedBatchPolicy):
            with pytest.raises(ValueError, match="at least one"):
                cls({})

    def test_snapshot_policy_routes_like_the_static_ones(self):
        from repro.experiments.fuzz import SnapshotBatchPolicy
        from repro.serve.policy_store import snapshot_onrl

        cfg = ExperimentConfig()
        snapshot = snapshot_onrl("router", cfg,
                                 make_onrl_agents(cfg, seed=3), seed=3)
        policy = SnapshotBatchPolicy(snapshot)
        assert isinstance(policy, RoutedBatchPolicy)
        states = np.random.default_rng(6).uniform(
            0.0, 1.0, (4, STATE_DIM))
        routed = policy.act_batch(states, ["HVS", "MAR", "HVS5", "?"])
        # one forward per resolved policy, over exactly its rows
        for name, rows in (("HVS", [0, 2]), ("MAR", [1, 3])):
            assert np.array_equal(
                routed[rows],
                policy.policies[name].act_rows(states[rows]))

    def test_projection_matches_scalar(self):
        rng = np.random.default_rng(3)
        worlds = [3, 5, 2]
        offsets = np.concatenate([[0], np.cumsum(worlds)])
        matrix = rng.uniform(0.0, 1.0, (sum(worlds), NUM_ACTIONS)) * 2
        projected = project_actions_batch(matrix, offsets)
        for w in range(len(worlds)):
            rows = slice(offsets[w], offsets[w + 1])
            names = [f"s{i}" for i in range(worlds[w])]
            scalar = project_actions(
                {name: matrix[offsets[w] + i]
                 for i, name in enumerate(names)})
            for i, name in enumerate(names):
                assert np.array_equal(projected[rows][i],
                                      scalar[name])


class TestVecOnRL:
    """The one OnRL learner over parallel worlds: row ``b`` of every
    call is world ``b``, with a rollout buffer per world."""

    def test_act_observe_update_cycle(self):
        cfg = ExperimentConfig()
        agent = next(iter(make_onrl_agents(
            cfg, seed=3, onrl_cfg=OnRLConfig(update_threshold=12))
            .values()))
        rng = np.random.default_rng(0)
        for _ in range(3):
            states = rng.uniform(0.0, 1.0, (4, STATE_DIM))
            actions = agent.sample_rows(states)
            assert actions.shape == (4, NUM_ACTIONS)
            assert np.all(actions >= 0.0) and np.all(actions <= 1.0)
            agent.observe_rows(rng.uniform(-1, 0, 4),
                               rng.uniform(0, 1, 4))
        assert [buffer.pending_length for buffer in agent.buffers] \
            == [3] * 4
        before = agent.state_dict()
        stats = agent.end_episode()     # 12 finished = the threshold
        assert stats is not None and agent.updates_run == 1
        assert sum(len(buffer) for buffer in agent.buffers) == 0
        after = agent.state_dict()
        assert any(not np.array_equal(before[k], after[k])
                   for k in before)

    def test_observe_before_act_raises(self):
        cfg = ExperimentConfig()
        agent = next(iter(make_onrl_agents(cfg, seed=3).values()))
        with pytest.raises(RuntimeError, match="before sample_rows"):
            agent.observe_rows(np.zeros(2), np.zeros(2))

    def test_train_onrl_batched_smoke(self):
        spec = scenarios.get("short_horizon")
        cfg = spec.build_config()
        trained = train_onrl(cfg, epochs=1, episodes_per_epoch=1,
                             seed=3, scenario=spec, envs=3)
        assert len(trained["trajectory"]) == 1
        point = trained["trajectory"][0]
        assert 0.0 <= point.mean_usage <= 1.0
        assert 0.0 <= point.violation_rate <= 1.0
        assert set(trained["agents"]) == {s.name for s in cfg.slices}


class TestFleetEngineParity:
    def test_scalar_and_vector_shards_agree(self):
        from repro.fleet.shard import ShardPlan, run_fleet_shard
        from repro.fleet.spec import FleetSpec
        from repro.serve import snapshot_onrl

        base_cfg = scenarios.get("default").build_config()
        snapshot = snapshot_onrl(
            "engine-parity", base_cfg,
            make_onrl_agents(base_cfg, seed=11), seed=11)
        spec = FleetSpec(name="engine-parity", cells=4,
                         scenarios=("default", "slice_churn"),
                         episodes=1, slots=10, seed=5)
        resolved = spec.resolve_scenarios()

        def run(engine):
            plan = ShardPlan(
                shard=0, spec=spec, cells=spec.cell_plans(),
                scenarios=resolved, store_dir=".",
                snapshot_ref=snapshot.ref,
                snapshot_digest=snapshot.digest, engine=engine)
            return run_fleet_shard(plan, snapshot=snapshot)

        scalar, vector = run("scalar"), run("vector")
        assert len(scalar.cells) == len(vector.cells) == 4
        for a, b in zip(scalar.cells, vector.cells):
            assert a.decision_digest == b.decision_digest
            assert a.violation_rate == b.violation_rate
            assert a.mean_usage == b.mean_usage
            assert a.decisions == b.decisions
            assert a.fallbacks == b.fallbacks

    def test_unknown_engine_rejected(self):
        from repro.fleet.shard import ShardPlan, run_fleet_shard
        from repro.fleet.spec import FleetSpec
        from repro.serve import snapshot_onrl

        base_cfg = scenarios.get("default").build_config()
        snapshot = snapshot_onrl(
            "engine-reject", base_cfg,
            make_onrl_agents(base_cfg, seed=11), seed=11)
        spec = FleetSpec(name="engine-reject", cells=1,
                         scenarios=("default",), episodes=1,
                         slots=4, seed=5)
        plan = ShardPlan(
            shard=0, spec=spec, cells=spec.cell_plans(),
            scenarios=spec.resolve_scenarios(), store_dir=".",
            snapshot_ref=snapshot.ref,
            snapshot_digest=snapshot.digest, engine="warp")
        with pytest.raises(ValueError, match="unknown engine"):
            run_fleet_shard(plan, snapshot=snapshot)


class TestObservationBuffers:
    def test_vector_out_writes_in_place(self):
        sim = _build_sim("default")
        observations = sim.reset()
        name = sim.slice_names[0]
        buffer = np.zeros(STATE_DIM)
        returned = observations[name].vector(out=buffer)
        assert returned is buffer
        assert np.array_equal(buffer, observations[name].vector())


#: The retired engine tier names, spelled in two halves so a
#: repo-wide grep for them stays empty.
_RETIRED_TIERS = ["vector-" + suffix for suffix in ("compat", "fast")]


class TestEngineNamesRejected:
    """``engine`` is "scalar" or "vector" on the four surfaces that
    still take it; the retired tier names and typos fail with the
    valid values in the message, and the surfaces that lost the
    argument reject it outright."""

    @pytest.fixture(scope="class")
    def shard_plan(self):
        from repro.fleet.shard import ShardPlan
        from repro.fleet.spec import FleetSpec
        from repro.serve import snapshot_onrl

        base_cfg = scenarios.get("default").build_config()
        snapshot = snapshot_onrl(
            "engine-names", base_cfg,
            make_onrl_agents(base_cfg, seed=11), seed=11)
        spec = FleetSpec(name="engine-names", cells=1,
                         scenarios=("default",), episodes=1,
                         slots=4, seed=5)

        def build(engine):
            return snapshot, ShardPlan(
                shard=0, spec=spec, cells=spec.cell_plans(),
                scenarios=spec.resolve_scenarios(), store_dir=".",
                snapshot_ref=snapshot.ref,
                snapshot_digest=snapshot.digest, engine=engine)

        return build

    @pytest.mark.parametrize("engine", _RETIRED_TIERS + ["bogus"])
    @pytest.mark.parametrize("surface", ["BatchSimulator",
                                         "run_episodes",
                                         "run_fleet_shard",
                                         "run_fuzz_batch"])
    def test_api_raises_naming_valid_engines(self, surface, engine,
                                             shard_plan):
        from repro.experiments.fuzz import run_fuzz_batch
        from repro.fleet.shard import run_fleet_shard

        policy = ConstantBatchPolicy(np.full(NUM_ACTIONS, 0.25))
        if surface == "run_fuzz_batch":     # no engine to name at all
            with pytest.raises(TypeError, match="engine"):
                run_fuzz_batch([scenarios.get("short_horizon")],
                               policy, engine=engine)
            return
        with pytest.raises(ValueError) as excinfo:
            if surface == "BatchSimulator":
                BatchSimulator([_build_sim("default")], engine=engine)
            elif surface == "run_episodes":
                run_episodes([_build_sim("default")], policy,
                             engine=engine)
            else:
                snapshot, plan = shard_plan(engine)
                run_fleet_shard(plan, snapshot=snapshot)
        message = str(excinfo.value)
        assert repr(engine) in message
        assert "'vector'" in message
        if surface != "BatchSimulator":
            assert "'scalar'" in message

    @pytest.mark.parametrize("command, engine", [
        ("fleet", _RETIRED_TIERS[1]),
        ("fuzz", _RETIRED_TIERS[0]),
        ("fleet", "scalar"),
        ("fuzz", "scalar"),
    ])
    def test_cli_rejects_retired_tiers(self, command, engine, capsys):
        """The CLI has no ``--engine`` at all any more: every value,
        the two live ones included, is argparse's exit 2."""
        from repro.runtime.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main([command, "run", "--engine", engine])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --engine" in \
            capsys.readouterr().err

    def test_cli_has_no_scenarios_bench(self, capsys):
        from repro.runtime.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["scenarios", "bench"])
        assert excinfo.value.code == 2


class TestScalarDomainModelsMatchKernels:
    """The kernels against their one independent check.

    ``tests/scalar_oracle.py`` is the per-slice scalar model of a slot
    that ``repro.sim`` carried until the kernels became the only model
    under ``src/`` (moved verbatim; this class is its only importer).
    It is driven here from the decoded ``SliceAllocation`` the way the
    pre-kernel per-slice loop did, over oracle substrates shadowing
    the network under test, and ``EndToEndNetwork.evaluate_slot`` --
    the kernels -- is held to the result: link adaptation and the
    fixed-MCS branch, three to six slices, churn, a degraded fabric,
    and every third slot each all-zero actions under overload and
    under zero arrivals (the ``MIN_SHARE`` floor, the overload regime,
    the thrashing floor, the zero-work branches).
    """

    SLOTS = 24
    RTOL = 1e-9
    FIELDS = ("ul_capacity_bps", "dl_capacity_bps",
              "transport_latency_ms", "core_latency_ms",
              "edge_latency_ms", "performance.value",
              "performance.satisfaction", "performance.cost",
              "usage", "radio_usage", "workload")
    #: Fabric conditions applied to ``transport_brownout`` for the whole
    #: run (its own events only start mid-episode).
    DEGRADED = dict(capacity_scale=0.4, extra_latency_ms=7.5,
                    background_load_fraction=0.6)

    def _scalar_slot(self, net, actions, rates):
        """One slot's ``SlotReport``s from the scalar models only."""
        from repro.config import usage_from_action
        from repro.sim.network import SlotReport
        from scalar_oracle import (
            PipelineState,
            ScalarSubstrates,
            SliceAllocation,
            evaluate_app,
        )

        sub = ScalarSubstrates(net)
        allocations = {
            name: SliceAllocation.from_action(
                actions[name], num_paths=sub.fabric.num_paths)
            for name in net.slices}
        sub.fabric.reset_loads()
        for alloc in allocations.values():
            sub.fabric.reserve(
                alloc.transport_path,
                alloc.transport_bandwidth
                * sub.fabric.effective_capacity_bps())
        reports = {}
        for name, alloc in allocations.items():
            spec = net.slices[name]
            channel = sub.channels[name]
            ul = sub.cell.slice_capacity(
                alloc.uplink_bandwidth, alloc.uplink_mcs_offset,
                alloc.uplink_scheduler, channel, uplink=True)
            dl = sub.cell.slice_capacity(
                alloc.downlink_bandwidth, alloc.downlink_mcs_offset,
                alloc.downlink_scheduler, channel, uplink=False)
            offered_bps = rates[name] * (spec.uplink_payload_bits
                                         + spec.downlink_payload_bits)
            transport = sub.fabric.evaluate(
                alloc.transport_path, alloc.transport_bandwidth,
                offered_bps)
            sub.core.set_slice_resources(
                name, alloc.cpu_allocation,
                alloc.ram_allocation * net.cfg.edge.total_ram_gb)
            core = sub.core.evaluate(name, offered_bps)
            sub.edge.set_resources(name, alloc.cpu_allocation,
                                   alloc.ram_allocation)
            edge = sub.edge.evaluate(name,
                                     rates[name] * spec.compute_units)
            performance = evaluate_app(spec, PipelineState(
                arrival_rate=rates[name],
                ul_capacity_bps=ul.capacity_bps,
                dl_capacity_bps=dl.capacity_bps,
                ul_retx_probability=ul.retransmission_probability,
                dl_retx_probability=dl.retransmission_probability,
                ran_base_latency_ms=net.cfg.ran.base_latency_ms,
                transport_rate_bps=transport.rate_cap_bps,
                transport_latency_ms=transport.latency_ms,
                core_latency_ms=core.latency_ms,
                core_capacity_pps=core.processing_rate_pps,
                edge_latency_ms=edge.latency_ms,
                edge_capacity_ups=edge.service_rate_ups,
                mean_packet_bits=net.cfg.core.mean_packet_bits))
            reports[name] = SlotReport(
                slice_name=name,
                performance=performance,
                usage=usage_from_action(actions[name]),
                arrival_rate=rates[name],
                ul_capacity_bps=ul.capacity_bps,
                dl_capacity_bps=dl.capacity_bps,
                radio_usage=0.5 * (alloc.uplink_bandwidth
                                   + alloc.downlink_bandwidth),
                workload=0.5 * (core.utilization + edge.utilization),
                transport_latency_ms=transport.latency_ms,
                core_latency_ms=core.latency_ms,
                edge_latency_ms=edge.latency_ms)
        return reports

    def test_slot_reports_match_scalar_models(self):
        self._hold_kernels_to_oracle("default")

    @pytest.mark.parametrize("scenario", [
        "lte_fixed_mcs", "six_slices", "slice_churn",
        "transport_brownout"])
    def test_other_worlds_match_scalar_models(self, scenario):
        self._hold_kernels_to_oracle(scenario)

    def _hold_kernels_to_oracle(self, scenario):
        from operator import attrgetter

        # a 24-slot day, so the scenario's own events (the churn slice
        # attaching and leaving, the brownout window) all fire
        sim = _build_sim(scenario, slots=self.SLOTS)
        sim.reset()
        net = sim.network
        rng = np.random.default_rng(2021)
        populations = set()
        for slot in range(self.SLOTS):
            sim.step({name: rng.uniform(0.0, 1.0, NUM_ACTIONS)
                      for name in sim.slice_names})
            if scenario == "transport_brownout":
                net.set_transport_conditions(**self.DEGRADED)
            populations.add(tuple(net.slices))
            # slot by slot: a random request at a random load, the
            # MIN_SHARE floor under 4x overload (the knee's far side,
            # the RAM-thrashing floor), the floor with nothing offered
            mode = slot % 3
            actions = {name: rng.uniform(0.0, 1.0, NUM_ACTIONS)
                       if mode == 0 else np.zeros(NUM_ACTIONS)
                       for name in net.slices}
            rates = {name: (float(rng.uniform(0.0, spec.max_arrival_rate)),
                            4.0 * spec.max_arrival_rate, 0.0)[mode]
                     for name, spec in net.slices.items()}
            expected = self._scalar_slot(net, actions, rates)
            reports = net.evaluate_slot(actions, rates)
            assert set(reports) == set(expected) == set(net.slices)
            for name in net.slices:
                for field in self.FIELDS:
                    read = attrgetter(field)
                    got, want = read(reports[name]), read(expected[name])
                    where = (f"{scenario} slot {slot} slice {name!r} "
                             f"{field}: kernels drifted from the "
                             f"scalar oracle")
                    if np.isfinite(want):
                        np.testing.assert_allclose(
                            got, want, rtol=self.RTOL, atol=0.0,
                            err_msg=where)
                    else:
                        assert got == want, where
        assert len(populations) == (2 if scenario == "slice_churn" else 1)
