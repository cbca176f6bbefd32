"""Integration tests: the composed network and the paper's MDP."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kernel_probe import kernel_slot, make_action, make_network
from repro.config import (
    ExperimentConfig,
    NUM_ACTIONS,
    TrafficConfig,
    TransportConfig,
    default_slice_specs,
    mar_slice_spec,
    usage_from_action,
)
from repro import scenarios
from repro.sim.channel import FleetChannelBank
from repro.sim.env import STATE_DIM, ScenarioSimulator
from repro.sim.network import EndToEndNetwork


def _decoded(action, margin_db=0.0):
    """Kernel outputs of a lone MAR slice at ``action``: what the
    decode stage made of it shows in what each stage then computed."""
    net = make_network([mar_slice_spec()])
    return kernel_slot(net, {"MAR": np.asarray(action, dtype=float)},
                       {"MAR": 1.0}, margin_db=margin_db)["MAR"]


class TestSliceAllocation:
    """The kernels' decode stage (action -> allocation)."""

    #: The consumable shares: U_u, U_d, U_b, U_c, U_r.
    CONSUMABLE = [0, 3, 6, 8, 9]

    def test_decodes_discrete_dims(self):
        action = np.array([0.5, 1.0, 0.0, 0.5, 0.45, 0.99,
                           0.5, 0.99, 0.5, 0.5])
        out = _decoded(action)
        assert out["ul_retx"] == pytest.approx(0.12 * 0.40 ** 10)
        assert out["dl_retx"] == pytest.approx(
            0.015 * 0.63 ** 4)                  # round(0.45*10)
        transport = TransportConfig()           # path 2: 4 hops,
        assert out["transport_latency_ms"] == pytest.approx(
            (4 + 0.5 / (1 - 0.5)) * transport.hop_latency_ms)

    def test_floors_consumable_shares(self):
        floored = np.zeros(NUM_ACTIONS)
        floored[self.CONSUMABLE] = 0.01         # the minimum commitment
        zeros, floor = _decoded(np.zeros(NUM_ACTIONS)), _decoded(floored)
        for key in ("ul_capacity_bps", "dl_capacity_bps",
                    "transport_rate_bps", "transport_latency_ms",
                    "core_latency_ms", "edge_latency_ms", "value",
                    "radio_usage"):
            assert zeros[key] == floor[key], key
        assert zeros["transport_rate_bps"] == pytest.approx(
            0.01 * TransportConfig().link_capacity_bps)
        assert zeros["radio_usage"] == pytest.approx(0.01)
        assert zeros["usage"] == 0.0            # Eq. 9 is on the request

    def test_rejects_wrong_shape(self, rng):
        net = EndToEndNetwork(slices=default_slice_specs()[:1], rng=rng)
        with pytest.raises(ValueError):
            net.evaluate_slot({"MAR": np.zeros(4)}, {"MAR": 1.0})

    def test_clips_out_of_box(self):
        wild, full = (_decoded(np.full(NUM_ACTIONS, v))
                      for v in (2.0, 1.0))
        del wild["usage"], full["usage"]        # Eq. 9: raw request
        assert wild == full


class TestEndToEndNetwork:
    def test_slice_lifecycle(self, rng):
        net = EndToEndNetwork(rng=rng)
        spec = default_slice_specs()[0]
        net.add_slice(spec)
        assert spec.name in net.slice_names
        net.remove_slice(spec.name)
        assert spec.name not in net.slice_names

    def test_duplicate_slice_rejected(self, rng):
        net = EndToEndNetwork(rng=rng)
        spec = default_slice_specs()[0]
        net.add_slice(spec)
        with pytest.raises(ValueError):
            net.add_slice(spec)

    def test_evaluate_requires_all_actions(self, rng):
        net = EndToEndNetwork(slices=default_slice_specs(), rng=rng)
        with pytest.raises(KeyError):
            net.evaluate_slot({"MAR": np.full(NUM_ACTIONS, 0.5)},
                              {"MAR": 1.0})

    def test_evaluate_rejects_an_action_for_an_unknown_slice(self, rng):
        """Used to be dropped silently: the error names the slice and
        the slices this network does host."""
        net = EndToEndNetwork(slices=default_slice_specs(), rng=rng)
        actions = {n: np.full(NUM_ACTIONS, 0.5) for n in net.slice_names}
        with pytest.raises(KeyError, match="unknown slice 'TYPO'; this "
                                           "network's slices: .*'RDC'"):
            net.evaluate_slot({**actions, "TYPO": actions["MAR"]}, {})
        with pytest.raises(KeyError, match="missing actions for slices "
                                           r"\['HVS'\]"):
            net.evaluate_slot({"MAR": actions["MAR"],
                               "RDC": actions["RDC"]}, {})
        assert set(net.evaluate_slot(actions, {})) == set(actions)

    def test_remove_slice_deprovisions_subscribers(self, rng):
        """Churn leaks nothing: five add / remove rounds of one
        background slice leave the slices, the channels and the row
        layout where they started."""
        net = EndToEndNetwork(slices=default_slice_specs(), rng=rng)

        def census():
            return (len(net.slices), len(net.snr_db),
                    net.slot_rows().num_rows)

        before = census()
        assert before == (3, 3, 3)
        for _ in range(5):
            net.add_slice(mar_slice_spec("background"))
            assert census() > before
            net.remove_slice("background")
        assert census() == before

    def test_channel_bank_is_built_once_before_the_first_step(
            self, rng, monkeypatch):
        """The initial slices' channels are drawn and stacked once: a
        64-slice network makes one ``(64, U)`` draw, not one stack per
        slice (65 stacks, O(S^2) copying, when it was eager), and
        churn -- also of state an engine block holds -- carries every
        other row."""
        from repro.sim import network as network_module

        drawn = []
        draw = network_module.draw_channels

        def counting(num_slices, num_users, generator):
            drawn.append(num_slices)
            return draw(num_slices, num_users, generator)

        monkeypatch.setattr(network_module, "draw_channels", counting)
        net = EndToEndNetwork(
            slices=[mar_slice_spec(f"MAR{i}") for i in range(64)],
            rng=rng)
        assert drawn == [64] and net.snr_db.shape == (64, 3)
        block = FleetChannelBank([net])
        block.step_worlds([0])
        block.step_worlds([0])
        assert drawn == [64]
        snr = net.snr_db.copy()
        net.add_slice(mar_slice_spec("late"))
        net.remove_slice("MAR3")
        assert drawn == [64, 1] and net._home is None
        assert len(net.cqi) == 64
        assert np.array_equal(net.snr_db[:63], np.delete(snr, 3, axis=0))

    def test_generous_beats_starved(self, rng):
        net = EndToEndNetwork(slices=default_slice_specs(), rng=rng)
        generous = {n: np.array([.5, .6, .5, .5, .5, .5, .5, 0, .5, .5])
                    for n in net.slice_names}
        rates = {n: 0.5 * net.slices[n].max_arrival_rate
                 for n in net.slice_names}
        good = net.evaluate_slot(generous, rates)
        starved = {n: np.full(NUM_ACTIONS, 0.011)
                   for n in net.slice_names}
        bad = net.evaluate_slot(starved, rates)
        for name in net.slice_names:
            assert good[name].cost <= bad[name].cost

    def test_usage_matches_eq9(self, rng):
        net = EndToEndNetwork(slices=default_slice_specs()[:1],
                              rng=rng)
        action = np.linspace(0.1, 1.0, NUM_ACTIONS)
        reports = net.evaluate_slot({"MAR": action}, {"MAR": 1.0})
        assert reports["MAR"].usage == pytest.approx(
            usage_from_action(action))

    def test_ping_delay_positive(self, rng):
        net = EndToEndNetwork(slices=default_slice_specs(), rng=rng)
        ping = net.ping_delay_ms("MAR")
        assert 5.0 < ping < 100.0


class TestScenarioSimulator:
    def test_a_world_without_slices_is_rejected_where_it_is_made(self):
        with pytest.raises(ValueError, match="cfg.slices"):
            ScenarioSimulator(ExperimentConfig().replace(slices=()))

    def test_episode_runs_to_horizon(self, simulator):
        simulator.reset()
        actions = {n: np.full(NUM_ACTIONS, 0.4)
                   for n in simulator.slice_names}
        steps = 0
        while not simulator.done:
            simulator.step(actions)
            steps += 1
        assert steps == simulator.horizon
        with pytest.raises(RuntimeError):
            simulator.step(actions)

    def test_observation_fields_normalised(self, simulator):
        obs = simulator.reset()
        actions = {n: np.full(NUM_ACTIONS, 0.4)
                   for n in simulator.slice_names}
        results = simulator.step(actions)
        for name, result in results.items():
            vec = result.observation.vector()
            assert vec.shape == (STATE_DIM,)
            assert np.all(np.isfinite(vec))
            assert 0.0 <= result.observation.slot_fraction <= 1.0
            assert 0.0 <= result.observation.channel_quality <= 1.0

    def test_reward_is_negative_usage(self, simulator):
        simulator.reset()
        actions = {n: np.full(NUM_ACTIONS, 0.4)
                   for n in simulator.slice_names}
        results = simulator.step(actions)
        for result in results.values():
            assert result.reward == pytest.approx(-result.usage)

    def test_sla_violation_flag(self, simulator):
        simulator.reset()
        starved = {n: np.full(NUM_ACTIONS, 0.011)
                   for n in simulator.slice_names}
        while not simulator.done:
            simulator.step(starved)
        assert simulator.sla_violated("MAR")

    def test_reset_reproducible_with_seed(self):
        cfg = ExperimentConfig(
            traffic=TrafficConfig(slots_per_episode=8), seed=9)
        a = ScenarioSimulator(cfg)
        b = ScenarioSimulator(cfg)
        obs_a = a.reset()
        obs_b = b.reset()
        for name in a.slice_names:
            np.testing.assert_allclose(obs_a[name].vector(),
                                       obs_b[name].vector())


    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    def test_non_finite_envelope_is_refused_at_reset(self, poison):
        """``np.clip`` passes NaN through, so the model's envelope is
        checked itself: the world refuses it at ``reset()``, naming
        the model and the slice, not at the first slot that reads
        it."""

        class PoisonedTraffic:
            def envelope(self, index, num_slots, day, cfg, rng):
                trace = np.full(num_slots, 0.5)
                if index == 1:
                    trace[3] = poison
                return trace

        cfg = ExperimentConfig(traffic=TrafficConfig(slots_per_episode=8))
        sim = ScenarioSimulator(cfg, traffic_model=PoisonedTraffic())
        name = sim.slice_names[1]
        with pytest.raises(ValueError,
                           match=rf"PoisonedTraffic.*{name!r}.*slot 3"):
            sim.reset()

    def test_step_before_reset_names_reset(self, simulator):
        actions = {n: np.full(NUM_ACTIONS, 0.4)
                   for n in simulator.slice_names}
        with pytest.raises(RuntimeError, match=r"never reset.*reset\(\)"):
            simulator.step(actions)

    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    def test_non_finite_action_names_world_and_slice(self, simulator,
                                                     poison):
        simulator.reset()
        actions = {n: np.full(NUM_ACTIONS, 0.4)
                   for n in simulator.slice_names}
        actions["HVS"][6] = poison
        with pytest.raises(ValueError, match=r"world 0.*'HVS'"):
            simulator.step(actions)

    def test_out_of_range_finite_actions_are_clipped(self, simulator):
        simulator.reset()
        wild = simulator.step({n: np.full(NUM_ACTIONS, 1e9)
                               for n in simulator.slice_names})
        twin = ScenarioSimulator(simulator.cfg)
        twin.reset()
        full = twin.step({n: np.ones(NUM_ACTIONS)
                          for n in twin.slice_names})
        for name in wild:
            assert wild[name].report.performance == \
                full[name].report.performance


#: ``ScenarioSimulator.step`` at the parent of the PR that made it the
#: B = 1 case of ``BatchSimulator.step`` (commit 99fdf2c, which still
#: had its own stepper): SHA-256 over ``repr`` of every field of every
#: ``SliceStepResult`` of a 24-slot episode under a seeded random
#: action stream, and over the world generator's final state.
PARENT_STEP_DIGESTS = {
    "default": (
        "f054b4122407449b1ea1d68bae8612e039fda56e3cbf15405a78d42f0b270cb5",
        "81206046034b9bf0141297d73d4f6c8c33d60aa08a28ae5304122a5b97ac6c15"),
    "slice_churn": (
        "9fb311014de111a58e477ff4a06f0306ed642168092bec5f609b6d9557a28ec0",
        "6d984d0791e69d37c7a94f510fbd5af75d29726f8fa9b29b378515d76144ad69"),
    "transport_brownout": (
        "762fe58d72779e4a8ec75f51cf3b693b50fc3bcec329c0e58e6df618fb3a89f3",
        "81206046034b9bf0141297d73d4f6c8c33d60aa08a28ae5304122a5b97ac6c15"),
    "six_slices": (
        "e5dc4674a2c1770c43f19e6fc272fb3e998fcc7588be9618b043a4b3dc6d178b",
        "3ef64d54ba25b1a98b4c3e0c09a772c33212fd89ecd466a8a58dc143e3001c0b"),
}


@pytest.mark.parametrize("name", sorted(PARENT_STEP_DIGESTS))
def test_step_results_equal_the_parents_own_stepper(name):
    """Field for field (observation, reward, cost, usage and all
    eleven ``SlotReport`` fields; ``repr`` round-trips floats, so this
    is ``==``, not ``allclose``) and the same generator state after."""
    spec = scenarios.get(name)
    traffic = dataclasses.replace(spec.build_config().traffic,
                                  slots_per_episode=24)
    spec = dataclasses.replace(spec, traffic_cfg=traffic)
    cfg = spec.build_config()
    sim = spec.build_simulator(cfg, rng=np.random.default_rng(cfg.seed))
    sim.reset()
    rng = np.random.default_rng(2024)
    sha = hashlib.sha256()
    while not sim.done:
        results = sim.step({n: rng.uniform(0.0, 1.0, NUM_ACTIONS)
                            for n in sim.slice_names})
        for n in sorted(results):
            sha.update(repr(
                (n, dataclasses.astuple(results[n]))).encode())
    state = json.dumps(sim._rng.bit_generator.state, sort_keys=True)
    assert (sha.hexdigest(),
            hashlib.sha256(state.encode()).hexdigest()) == \
        PARENT_STEP_DIGESTS[name]


@given(st.lists(st.floats(min_value=0.0, max_value=1.0),
                min_size=NUM_ACTIONS, max_size=NUM_ACTIONS))
@example([1.0, 0.25, 1.0] + [0.0] * (NUM_ACTIONS - 3))   # ROADMAP 9(d)
@settings(max_examples=20, deadline=None)
def test_allocation_decode_total_property(values):
    """Decoded allocations stay inside physical bounds (property):
    at least one PRB and at most the cell, a retransmission
    probability of a valid offset, one of the three reserved paths.

    The cell's uplink ceiling is the whole band under Max-CQI at the
    *best* MCS offset, not at offset 0: an offset step gives up ~8 %
    of spectral efficiency near the top of the MCS table but cuts the
    first-transmission error rate by 60 % (``decay_ul`` 0.40), so
    goodput ``eff * (1 - p) / (1 + p)`` is hump-shaped in the offset
    and peaks at 2 (27.1 against 24.6 Mbit/s at offset 0) -- the
    reliability-for-rate trade the action exists for.  The pinned
    example (full band, offset 2) is the draw that beat the old
    offset-0 bound about one tier-1 run in fifteen.
    """
    out = _decoded(values)
    one_prb = _decoded(make_action(      # offset 10, round robin
        uplink_bandwidth=0.0, uplink_mcs_offset=1.0))
    cell = max(                          # whole band, Max-CQI
        _decoded(make_action(uplink_bandwidth=1.0, uplink_scheduler=1.0,
                             uplink_mcs_offset=offset / 10.0)
                 )["ul_capacity_bps"] for offset in range(11))
    assert one_prb["ul_capacity_bps"] <= out["ul_capacity_bps"] <= cell
    assert 0.12 * 0.40 ** 10 <= out["ul_retx"] * (1 + 1e-12)
    assert out["ul_retx"] <= 0.12 * (1 + 1e-12)
    transport = TransportConfig()
    assert 2 * transport.hop_latency_ms <= out["transport_latency_ms"]
    assert out["transport_latency_ms"] <= \
        (4 + 0.99 / 0.01) * transport.hop_latency_ms
