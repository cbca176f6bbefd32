"""Tests: rule-based baseline, model-based method, OnRL, projection."""

import dataclasses
import itertools
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.model_based import (
    ModelBasedConfig,
    ModelBasedPolicy,
    _mb_default_action,
)
from repro.baselines.onrl import OnRLAgent, OnRLConfig
from repro.baselines.projection import project_actions
from repro.baselines.rule_based import (
    DEFAULT_ACTIONS,
    GRID_VALUES,
    KEY_FACTORS,
    GridSearchConfig,
    RuleBasedPolicy,
    default_action,
    evaluate_grid,
    fit_rule_based_policy,
    select_candidate,
)
from repro.config import (
    NUM_ACTIONS,
    NetworkConfig,
    action_index,
    default_slice_specs,
    mar_slice_spec,
    usage_from_action,
)
from repro.engine.kernels import SliceRows, concat_rows
from repro.scenarios import ScenarioSpec, get as get_scenario, population
from repro.sim.channel import FleetChannelBank
from repro.sim.env import SliceObservation
from repro.sim.network import CONSTRAINED_RESOURCES, EndToEndNetwork


def _obs(traffic: float) -> SliceObservation:
    return SliceObservation(
        slot_fraction=0.5, traffic=traffic, channel_quality=0.8,
        radio_usage=0.2, workload=0.2, last_usage=0.2, last_cost=0.0,
        cost_threshold=0.05, cumulative_cost=0.1)


def _loop_projection(actions, capacity=1.0):
    """The projection rule as a loop over kinds and slices (how
    ``project_actions`` was typed before it became the one-world call
    of ``project_actions_batch``), kept as the reference."""
    projected = {name: np.asarray(action, dtype=float).copy()
                 for name, action in actions.items()}
    for idx in CONSTRAINED_RESOURCES.values():
        total = sum(action[idx] for action in projected.values())
        if total > capacity and total > 0:
            scale = capacity / total
            for action in projected.values():
                action[idx] *= scale
    return projected


#: Per resource kind: every slice asks for nothing, the slices together
#: stay under capacity, or they over-request.
_REQUEST_LEVELS = st.sampled_from((0.0, 0.15, 2.0))


class TestProjection:
    @given(st.integers(1, 6), st.integers(0, 2 ** 32 - 1),
           st.lists(_REQUEST_LEVELS, min_size=NUM_ACTIONS,
                    max_size=NUM_ACTIONS),
           st.sampled_from((0.5, 1.0)))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_loop_bit_for_bit(self, slices, seed, levels,
                                         capacity):
        rng = np.random.default_rng(seed)
        actions = {f"s{i}": rng.uniform(0.0, 1.0, NUM_ACTIONS) * levels
                   for i in range(slices)}
        projected = project_actions(actions, capacity)
        reference = _loop_projection(actions, capacity)
        assert list(projected) == list(reference)
        for name in actions:
            assert projected[name].tolist() == reference[name].tolist()

    def test_scales_only_overcommitted_kinds(self):
        actions = {
            "a": np.full(NUM_ACTIONS, 0.8),
            "b": np.full(NUM_ACTIONS, 0.6),
        }
        projected = project_actions(actions)
        for kind, idx in CONSTRAINED_RESOURCES.items():
            total = projected["a"][idx] + projected["b"][idx]
            assert total == pytest.approx(1.0)
        # non-constrained dims untouched (e.g. MCS offsets)
        assert projected["a"][action_index("uplink_mcs_offset")] == 0.8

    def test_noop_when_feasible(self):
        actions = {"a": np.full(NUM_ACTIONS, 0.3),
                   "b": np.full(NUM_ACTIONS, 0.3)}
        projected = project_actions(actions)
        for name in actions:
            np.testing.assert_array_equal(projected[name],
                                          actions[name])

    def test_inputs_not_mutated(self):
        original = np.full(NUM_ACTIONS, 0.9)
        project_actions({"a": original, "b": original.copy()})
        assert np.all(original == 0.9)

    def test_empty(self):
        assert project_actions({}) == {}


class TestRuleBased:
    def test_key_factors_match_paper(self):
        assert KEY_FACTORS["mar"] == (
            "uplink_bandwidth", "transport_bandwidth",
            "cpu_allocation")
        assert KEY_FACTORS["hvs"] == (
            "downlink_bandwidth", "transport_bandwidth")
        assert KEY_FACTORS["rdc"] == (
            "uplink_mcs_offset", "downlink_mcs_offset")

    def test_default_action_shape(self):
        for app in ("mar", "hvs", "rdc"):
            action = default_action(app)
            assert action.shape == (NUM_ACTIONS,)
            assert np.all((action >= 0) & (action <= 1))

    def test_policy_bins_monotone_lookup(self):
        actions = [np.full(NUM_ACTIONS, v) for v in (0.2, 0.4, 0.8)]
        policy = RuleBasedPolicy("S", "mar", [0.3, 0.6, 1.3], actions)
        np.testing.assert_array_equal(
            policy.action_for_traffic(0.1), actions[0])
        np.testing.assert_array_equal(
            policy.action_for_traffic(0.5), actions[1])
        np.testing.assert_array_equal(
            policy.action_for_traffic(2.0), actions[2])

    def test_policy_act_uses_traffic_feature(self):
        actions = [np.full(NUM_ACTIONS, v) for v in (0.2, 0.8)]
        policy = RuleBasedPolicy("S", "mar", [0.5, 1.3], actions)
        low = policy.act(_obs(0.1))
        high = policy.act(_obs(0.9))
        assert low[0] < high[0]

    def test_bin_count_must_match(self):
        with pytest.raises(ValueError):
            RuleBasedPolicy("S", "mar", [0.5, 1.0],
                            [np.zeros(NUM_ACTIONS)])

    def test_fit_is_deterministic_and_meets_sla(self):
        spec = mar_slice_spec()
        cfg = GridSearchConfig(bin_edges=(0.5, 1.3), eval_slots=2)
        a = fit_rule_based_policy(spec, search_cfg=cfg)
        b = fit_rule_based_policy(spec, search_cfg=cfg)
        for act_a, act_b in zip(a.actions, b.actions):
            np.testing.assert_array_equal(act_a, act_b)

    def test_fit_usage_grows_with_traffic(self):
        spec = mar_slice_spec()
        cfg = GridSearchConfig(bin_edges=(0.3, 0.7, 1.3),
                               eval_slots=2)
        policy = fit_rule_based_policy(spec, search_cfg=cfg)
        usages = [usage_from_action(a) for a in policy.actions]
        assert usages[-1] >= usages[0]


    def test_empty_table_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            RuleBasedPolicy("S", "mar", [], [])

    @pytest.mark.parametrize("field, value", [
        ("eval_slots", 0),
        ("bin_edges", ()),
        ("bin_edges", (0.5, 0.5)),
        ("bin_edges", (0.8, 0.4)),
        ("safety_step", -1),
        ("traffic_margin", 0.0),
        ("cost_margin", -0.5),
    ])
    def test_degenerate_search_rejected_at_config(self, field, value):
        with pytest.raises(ValueError, match=field):
            GridSearchConfig(**{field: value})


def _evaluate_candidate_oracle(block, network, spec, action,
                               arrival_rate, eval_slots):
    """The pre-batching per-candidate evaluation, kept verbatim but
    for stepping the channels through ``network``'s one-world block."""
    costs, usages = [], []
    for _ in range(eval_slots):
        block.step_worlds([0])
        reports = network.evaluate_slot(
            {spec.name: action}, {spec.name: arrival_rate})
        costs.append(reports[spec.name].cost)
        usages.append(reports[spec.name].usage)
    return float(np.mean(costs)), float(np.mean(usages))


def _fit_oracle(spec, network_cfg, search_cfg, seed=1234):
    """The pre-batching sequential grid search, kept verbatim (fresh
    network per bin, one ``evaluate_slot`` per candidate-slot, strict
    ``<`` scan) -- plus the per-candidate (cost, usage) it saw."""
    factors = KEY_FACTORS[spec.app]
    template = default_action(spec.app)
    grids = [GRID_VALUES[f] for f in factors]
    indices = [action_index(f) for f in factors]
    actions, all_costs, all_usages = [], [], []
    for bin_edge in search_cfg.bin_edges:
        rng = np.random.default_rng(seed)  # same channels per bin
        network = EndToEndNetwork(network_cfg, slices=[spec], rng=rng)
        block = FleetChannelBank([network])
        rate = (bin_edge * search_cfg.traffic_margin
                * spec.max_arrival_rate)
        target_cost = spec.sla.cost_threshold * search_cfg.cost_margin
        best_action = None
        best_usage = float("inf")
        fallback_action = None
        fallback_cost = float("inf")
        best_combo = None
        fallback_combo = None
        costs, usages = [], []
        for combo in itertools.product(*grids):
            candidate = template.copy()
            for idx, value in zip(indices, combo):
                candidate[idx] = value
            cost, usage = _evaluate_candidate_oracle(
                block, network, spec, candidate, rate,
                search_cfg.eval_slots)
            costs.append(cost)
            usages.append(usage)
            if cost <= target_cost and usage < best_usage:
                best_usage = usage
                best_action = candidate
                best_combo = combo
            if cost < fallback_cost:
                fallback_cost = cost
                fallback_action = candidate
                fallback_combo = combo
        chosen = best_action if best_action is not None else \
            fallback_action
        combo = best_combo if best_combo is not None else fallback_combo
        if search_cfg.safety_step > 0:
            chosen = chosen.copy()
            for factor, idx, value in zip(factors, indices, combo):
                grid = GRID_VALUES[factor]
                pos = min(grid.index(value) + search_cfg.safety_step,
                          len(grid) - 1)
                chosen[idx] = grid[pos]
        actions.append(chosen)
        all_costs.append(costs)
        all_usages.append(usages)
    return actions, np.array(all_costs), np.array(all_usages)


#: Two bins keep the sequential oracle affordable; the default search
#: config is covered once, on the default trio's smallest grid.
_TWO_BINS = GridSearchConfig(bin_edges=(0.4, 1.3))
_PARITY_CASES = {
    "mar": (0, None, _TWO_BINS, 1234),
    "hvs-default-search": (1, None, GridSearchConfig(), 1234),
    "rdc": (2, None, _TWO_BINS, 1234),
    "lte_fixed_mcs": (0, "lte_fixed_mcs", _TWO_BINS, 1234),
    "nr_fixed_mcs": (2, "nr_fixed_mcs", _TWO_BINS, 1234),
    "one-slot-no-safety-step": (
        0, None, GridSearchConfig(eval_slots=1, safety_step=0,
                                  bin_edges=(0.5, 1.3)), 1234),
    "nothing-qualifies": (
        1, None, dataclasses.replace(_TWO_BINS, cost_margin=1e-9),
        1234),
    "overloaded": (
        0, None, dataclasses.replace(_TWO_BINS, traffic_margin=6.0),
        1234),
    "seed": (1, None, _TWO_BINS, 99),
}


class TestGridSearchMatchesSequentialOracle:
    """The batched search is a re-layout of the sequential one: same
    per-candidate numbers, same tables, bit for bit."""

    @staticmethod
    def _check(spec, network_cfg, search_cfg, seed):
        actions, cost, usage = _fit_oracle(spec, network_cfg,
                                           search_cfg, seed)
        _, got_cost, got_usage = evaluate_grid(spec, network_cfg,
                                               search_cfg, seed)
        assert np.array_equal(got_cost, cost)
        assert np.array_equal(got_usage, usage)
        policy = fit_rule_based_policy(spec, network_cfg, search_cfg,
                                       seed)
        assert len(policy.actions) == len(actions)
        for got, want in zip(policy.actions, actions):
            assert np.array_equal(got, want)
        return cost

    @pytest.mark.parametrize("case", sorted(_PARITY_CASES))
    def test_parity(self, case):
        index, scenario, search_cfg, seed = _PARITY_CASES[case]
        network_cfg = (get_scenario(scenario).build_config().network
                       if scenario else NetworkConfig())
        spec = default_slice_specs()[index]
        cost = self._check(spec, network_cfg, search_cfg, seed)
        target = spec.sla.cost_threshold * search_cfg.cost_margin
        if case == "nothing-qualifies":
            assert (cost > target).all()          # fallback branch
        if case == "overloaded":
            assert (cost[0] <= target).any()      # both branches
            assert (cost[1] > target).all()

    def test_parity_derated_population_slice(self):
        cfg = ScenarioSpec(name="pop12",
                           slices=population(12)).build_config()
        assert cfg.slices[4].max_arrival_rate \
            < default_slice_specs()[1].max_arrival_rate
        self._check(cfg.slices[4], cfg.network, _TWO_BINS, 1234)

    def test_candidates_follow_product_order(self):
        spec = mar_slice_spec()
        candidates, cost, usage = evaluate_grid(
            spec, NetworkConfig(), _TWO_BINS, 1234)
        factors = KEY_FACTORS["mar"]
        combos = list(itertools.product(
            *(GRID_VALUES[f] for f in factors)))
        assert cost.shape == usage.shape == (2, len(combos))
        for row, combo in zip(candidates, combos):
            want = default_action("mar")
            for factor, value in zip(factors, combo):
                want[action_index(factor)] = value
            assert np.array_equal(row, want)


class TestSelectCandidate:
    def test_minimum_usage_among_qualifying(self):
        cost = np.array([0.0, 0.9, 0.1, 0.2])
        usage = np.array([0.5, 0.1, 0.3, 0.4])
        assert select_candidate(cost, usage, 0.25) == 2

    def test_equal_usage_first_wins(self):
        cost = np.array([0.9, 0.1, 0.1, 0.0])
        usage = np.array([0.1, 0.3, 0.3, 0.3])
        assert select_candidate(cost, usage, 0.25) == 1

    def test_target_is_inclusive(self):
        assert select_candidate(np.array([0.5, 0.25]),
                                np.array([0.2, 0.1]), 0.25) == 1

    def test_fallback_is_first_minimum_cost(self):
        cost = np.array([0.9, 0.7, 0.7, 0.8])
        usage = np.array([0.1, 0.9, 0.2, 0.3])
        assert select_candidate(cost, usage, 0.25) == 1

    def test_rdc_all_usages_tie_earliest_qualifying_combo_chosen(self):
        """RDC's key factors (MCS offsets) are not usage-counted, so
        every candidate ties on usage and grid order alone decides."""
        spec = default_slice_specs()[2]
        search_cfg = GridSearchConfig(bin_edges=(1.0,), safety_step=0)
        candidates, cost, usage = evaluate_grid(
            spec, NetworkConfig(), search_cfg, 1234)
        assert np.unique(usage).size == 1
        qualifying = np.flatnonzero(
            cost[0] <= spec.sla.cost_threshold * search_cfg.cost_margin)
        assert qualifying.size > 1
        policy = fit_rule_based_policy(spec, search_cfg=search_cfg)
        assert np.array_equal(policy.actions[0],
                              candidates[qualifying[0]])


class TestSliceRowsRepeat:
    @staticmethod
    def _rows(scenario="default"):
        cfg = get_scenario(scenario).build_config()
        return EndToEndNetwork(cfg.network, slices=cfg.slices).slot_rows()

    @staticmethod
    def _assert_same(got, want):
        assert got.uid != want.uid
        for spec in dataclasses.fields(SliceRows):
            if spec.name == "uid":
                continue
            a, b = getattr(got, spec.name), getattr(want, spec.name)
            if isinstance(b, np.ndarray):
                assert a.dtype == b.dtype, spec.name
                assert np.array_equal(a, b), spec.name
            else:
                assert a == b, spec.name

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_repeat_equals_concat_of_copies(self, n):
        rows = self._rows()
        self._assert_same(rows.repeat(n), concat_rows([rows] * n))

    def test_repeat_renumbers_worlds(self):
        rows = self._rows()
        out = rows.repeat(3)
        assert out.num_worlds == 3
        assert out.world.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2]
        assert out.path_hops.shape == (3, rows.path_hops.shape[1])
        assert out.link_capacity_w.shape == (3,)

    def test_concat_pads_narrow_path_tables(self):
        wide = self._rows()
        narrow = dataclasses.replace(
            wide, path_hops=wide.path_hops[:, :1].copy(),
            num_paths=np.ones_like(wide.num_paths))
        out = concat_rows([narrow, wide, narrow])
        pmax = wide.path_hops.shape[1]
        assert out.path_hops.shape == (3, pmax)
        assert out.path_hops.dtype == wide.path_hops.dtype
        assert np.array_equal(out.path_hops[1], wide.path_hops[0])
        for w in (0, 2):
            assert out.path_hops[w, 0] == wide.path_hops[0, 0]
            assert not out.path_hops[w, 1:].any()
        assert out.world.tolist() == [0] * 3 + [1] * 3 + [2] * 3

    def test_zero_copies_rejected(self):
        with pytest.raises(ValueError):
            self._rows().repeat(0)
        with pytest.raises(ValueError):
            concat_rows([])


def _slsqp_solve_mar(policy, arrival_rate):
    """``ModelBasedPolicy._solve_mar`` as it was while Model_Based ran
    SLSQP per MAR request, kept verbatim (``self`` -> ``policy``) as
    the oracle of the closed form."""
    from scipy import optimize

    spec, cfg = policy.spec, policy.cfg
    f = arrival_rate * cfg.provisioning_margin
    s = spec.uplink_payload_bits
    budget_ms = spec.sla.target - cfg.static_latency_ms

    def latency_ms(x):
        return f * s / (x[0] * policy._nominal_ul_bps) * 1e3

    result = optimize.minimize(
        lambda x: x[0], x0=np.array([0.3]), method="SLSQP",
        bounds=[(0.02, 1.0)],
        constraints=[{"type": "ineq",
                      "fun": lambda x: budget_ms - latency_ms(x)}])
    u_u = float(result.x[0]) if result.success else 1.0
    action = _mb_default_action("mar")
    action[action_index("uplink_bandwidth")] = float(np.clip(
        u_u, 0.02, 1.0))
    action[action_index("transport_bandwidth")] = float(np.clip(
        f * s / policy._link_bps * cfg.provisioning_margin,
        0.01, 1.0))
    return action, result.success


def _parent_batch_row(policy, rate):
    """One row of the pre-merge ``ModelBasedBatchPolicy.act_batch``
    loop body, kept verbatim (``states[row, 1] * max_arrival_rate``
    is ``rate``)."""
    cfg = policy.cfg
    spec = policy.spec
    f = rate * cfg.provisioning_margin
    if spec.app == "mar":
        action = _mb_default_action("mar")
        budget = spec.sla.target - cfg.static_latency_ms
        u_u = (f * spec.uplink_payload_bits * 1e3
               / (policy._nominal_ul_bps * budget))
        action[action_index("uplink_bandwidth")] = float(
            np.clip(u_u, 0.02, 1.0))
        action[action_index("transport_bandwidth")] = float(
            np.clip(f * spec.uplink_payload_bits
                    / policy._link_bps
                    * cfg.provisioning_margin, 0.01, 1.0))
    elif spec.app == "hvs":
        action = _mb_default_action("hvs")
        demand = (f * spec.sla.target
                  * spec.downlink_payload_bits)
        action[action_index("downlink_bandwidth")] = float(
            np.clip(demand / policy._nominal_dl_bps,
                    0.05, 1.0))
        action[action_index("transport_bandwidth")] = float(
            np.clip(demand / policy._link_bps
                    * cfg.provisioning_margin, 0.01, 1.0))
    else:
        action = policy._solve_rdc(rate)
    return action


class TestModelBased:
    def test_fresh_checkout_serve_never_imports_scipy(self, tmp_path):
        """An empty policy store bootstraps a Model_Based snapshot;
        serving from it must never load scipy (no runtime dependency
        any more) -- nor networkx: the transport paths are chains."""
        script = (
            "import sys\n"
            "from repro.serve import LoadGenerator, "
            "resolve_serving_snapshot\n"
            f"snapshot = resolve_serving_snapshot({str(tmp_path)!r})\n"
            "assert snapshot.method == 'model_based', snapshot.method\n"
            "report = LoadGenerator(snapshot, 'default')"
            ".run(max_decisions=30)\n"
            "assert report.decisions == 30, report\n"
            "import repro.experiments.harness, repro.fleet\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] in "
            "('scipy', 'networkx')]\n"
            "assert not loaded, loaded\n"
            "print('ok')\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "ok"

    def test_closed_form_equals_parent_batch_math(self):
        """200 rates x 3 apps: the one program is bit-for-bit what the
        batch policy's own copy of it computed."""
        rng = np.random.default_rng(5)
        for spec in default_slice_specs():
            policy = ModelBasedPolicy(spec)
            rates = rng.uniform(0.0, 1.3, 200) * spec.max_arrival_rate
            for rate in rates:
                assert np.array_equal(policy.action_for_rate(rate),
                                      _parent_batch_row(policy, rate))

    def test_closed_form_within_solver_tolerance_of_slsqp(self):
        """Wherever SLSQP succeeds the closed form is within 1e-6 of
        it; it only fails where the program is infeasible (needs
        U_u > 1), which both resolve to the full cell."""
        policy = ModelBasedPolicy(mar_slice_spec())
        solved = 0
        for traffic in np.linspace(0.0, 1.3, 40):
            rate = traffic * policy.spec.max_arrival_rate
            oracle, success = _slsqp_solve_mar(policy, rate)
            action = policy.action_for_rate(rate)
            if success:
                solved += 1
                np.testing.assert_allclose(action, oracle,
                                           rtol=0.0, atol=1e-6)
            else:
                assert action[action_index("uplink_bandwidth")] == 1.0
                assert np.array_equal(action, oracle)
        assert 20 <= solved < 40

    def test_mar_target_inside_static_latency_rejected(self):
        """No latency budget: the closed form would go negative (and
        clip to the floor) where the solver failed over to 1.0."""
        for target in (100.0, 120.0):
            spec = dataclasses.replace(
                mar_slice_spec(), sla=dataclasses.replace(
                    mar_slice_spec().sla, target=target))
            with pytest.raises(ValueError) as excinfo:
                ModelBasedPolicy(spec)
            message = str(excinfo.value)
            assert "ModelBasedConfig.static_latency_ms" in message
            assert "sla.target" in message and "'MAR'" in message
        tight = ModelBasedConfig(static_latency_ms=499.0)
        assert ModelBasedPolicy(mar_slice_spec(), cfg=tight) \
            .action_for_rate(2.0)[action_index("uplink_bandwidth")] \
            == 1.0

    def test_static_latency_only_constrains_mar(self):
        """HVS targets 30 (FPS) and RDC 0.99999: both far below the
        120 ms the MAR model subtracts, and neither program reads it."""
        cfg = ModelBasedConfig(static_latency_ms=1e6)
        for spec in default_slice_specs()[1:]:
            assert spec.sla.target < cfg.static_latency_ms
            assert np.array_equal(
                ModelBasedPolicy(spec, cfg=cfg).action_for_rate(1.0),
                ModelBasedPolicy(spec).action_for_rate(1.0))

    def test_mar_uplink_grows_with_traffic(self):
        policy = ModelBasedPolicy(mar_slice_spec())
        low = policy.action_for_rate(1.0)
        high = policy.action_for_rate(4.0)
        idx = action_index("uplink_bandwidth")
        assert high[idx] > low[idx]

    def test_mar_closed_form_recovered(self):
        """U_u = f*s / (R * (P - l_s))."""
        spec = mar_slice_spec()
        cfg = ModelBasedConfig()
        policy = ModelBasedPolicy(spec, cfg=cfg)
        rate = 2.0
        action = policy.action_for_rate(rate)
        f = rate * cfg.provisioning_margin
        budget_s = (spec.sla.target - cfg.static_latency_ms) / 1e3
        expected = f * spec.uplink_payload_bits / (
            policy._nominal_ul_bps * budget_s)
        assert action[action_index("uplink_bandwidth")] == \
            pytest.approx(expected, rel=0.05)

    def test_rdc_offsets_fixed(self):
        policy = ModelBasedPolicy(default_slice_specs()[2])
        action = policy.action_for_rate(50.0)
        assert action[action_index("uplink_mcs_offset")] == \
            pytest.approx(0.6)
        assert action[action_index("downlink_mcs_offset")] == 0.0

    def test_hvs_downlink_proportional_to_demand(self):
        policy = ModelBasedPolicy(default_slice_specs()[1])
        a1 = policy.action_for_rate(0.5)
        a2 = policy.action_for_rate(1.0)
        idx = action_index("downlink_bandwidth")
        assert a2[idx] == pytest.approx(2 * a1[idx], rel=0.05)


class TestOnRL:
    def test_act_observe_update_cycle(self, rng):
        agent = OnRLAgent("S", state_dim=9, action_dim=NUM_ACTIONS,
                          cfg=OnRLConfig(update_threshold=8), rng=rng)
        for _ in range(10):
            agent.sample_rows(np.zeros((1, 9)))
            agent.observe_rows(np.array([-0.5]), np.array([0.1]))
        stats = agent.end_episode()
        assert stats is not None
        assert agent.updates_run == 1

    def test_reward_shaping_applied(self, rng):
        agent = OnRLAgent("S", 9, NUM_ACTIONS,
                          cfg=OnRLConfig(penalty_weight=2.0), rng=rng)
        agent.sample_rows(np.zeros((1, 9)))
        agent.observe_rows(np.array([-0.5]), np.array([0.25]))
        agent.buffers[0].end_episode()
        batch = agent.buffers[0].get(normalize_advantages=False)
        assert batch["returns"][0] == pytest.approx(-1.0)

    def test_observe_before_act_raises(self, rng):
        agent = OnRLAgent("S", 9, NUM_ACTIONS, rng=rng)
        with pytest.raises(RuntimeError):
            agent.observe_rows(np.zeros(1), np.zeros(1))
