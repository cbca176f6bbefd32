"""Tests: the scenario engine (registry, traffic models, events,
serialization) and its wiring through sim, harness, runtime and CLI."""

import dataclasses
import json

import numpy as np
import pytest

from repro import scenarios as sc
from repro.config import (
    ExperimentConfig,
    TrafficConfig,
    slice_spec_for_app,
)
from repro.experiments.robustness import robustness
from repro.runtime import ParallelRunner, ResultCache, make_unit, \
    unit_cache_key
from repro.runtime.serialization import from_jsonable, to_jsonable
from repro.sim.env import ScenarioSimulator
from repro.sim.traffic import TelecomItaliaSynthesizer


def roundtrip(obj):
    return from_jsonable(json.loads(json.dumps(to_jsonable(obj))))


@pytest.fixture
def short_spec():
    """A 12-slot variant of a spec, for fast full-episode runs."""
    def _shorten(name):
        return dataclasses.replace(
            sc.get(name),
            traffic_cfg=TrafficConfig(slots_per_episode=12))
    return _shorten


class TestRegistry:
    def test_catalog_size_and_members(self):
        names = sc.names()
        assert len(names) >= 8
        for required in ("default", "lte_fixed_mcs", "flash_crowd",
                         "bursty", "drift", "link_degradation",
                         "latency_surge", "slice_churn", "six_slices"):
            assert required in names

    def test_get_unknown(self):
        with pytest.raises(KeyError, match="registered"):
            sc.get("atlantis")

    def test_register_duplicate_and_replace(self):
        spec = sc.ScenarioSpec(name="tmp_test_scn")
        try:
            sc.register(spec)
            with pytest.raises(ValueError, match="already registered"):
                sc.register(spec)
            replacement = dataclasses.replace(spec, description="v2")
            sc.register(replacement, replace=True)
            assert sc.get("tmp_test_scn").description == "v2"
        finally:
            sc.unregister("tmp_test_scn")
        assert "tmp_test_scn" not in sc.names()

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            sc.ScenarioSpec(name="")


class TestScenarioRegistryClass:
    """Satellite: ScenarioRegistry instances reject duplicates loudly
    and stay isolated from the default registry."""

    def test_duplicate_rejected_with_clear_error(self):
        registry = sc.ScenarioRegistry()
        spec = sc.ScenarioSpec(name="dup_check")
        registry.register(spec)
        with pytest.raises(ValueError) as err:
            registry.register(sc.ScenarioSpec(
                name="dup_check", description="impostor"))
        # the error must name the scenario and the escape hatch
        assert "dup_check" in str(err.value)
        assert "replace=True" in str(err.value)
        # the original registration survives the rejected overwrite
        assert registry.get("dup_check").description == \
            spec.description

    def test_replace_and_unregister(self):
        registry = sc.ScenarioRegistry()
        registry.register(sc.ScenarioSpec(name="a"))
        registry.register(sc.ScenarioSpec(name="a", description="v2"),
                          replace=True)
        assert registry.get("a").description == "v2"
        registry.unregister("a")
        registry.unregister("a")  # missing names no-op
        assert "a" not in registry

    def test_container_protocol_and_isolation(self):
        registry = sc.ScenarioRegistry()
        assert len(registry) == 0
        registry.register(sc.ScenarioSpec(name="x"))
        registry.register(sc.ScenarioSpec(name="y"))
        assert list(registry) == ["x", "y"]
        assert registry.names() == ("x", "y")
        assert len(registry.all_specs()) == 2
        # an isolated instance never leaks into the default registry
        assert "x" not in sc.names()
        with pytest.raises(KeyError, match="registered"):
            registry.get("default")
        # ...and the default registry delegates to a real instance
        assert isinstance(sc.DEFAULT_REGISTRY, sc.ScenarioRegistry)
        assert "default" in sc.DEFAULT_REGISTRY


class TestLegacyFactories:
    """The paper's configurations as the registry builds them (what
    the deleted ``experiments/scenarios.py`` factories delegated to)."""

    def test_default(self):
        cfg = sc.get("default").build_config(seed=9)
        assert cfg == ExperimentConfig(seed=9)

    def test_fixed_mcs_variants(self):
        lte = sc.get("lte_fixed_mcs").build_config()
        nr = sc.get("nr_fixed_mcs").build_config()
        assert lte.network.ran.fixed_mcs == 9
        assert lte.network.ran.technology == "lte"
        assert nr.network.ran.fixed_mcs == 9
        assert nr.network.ran.technology == "nr"

    def test_short_horizon_parameterised(self):
        """The horizon is a traffic-config parameter: the registered
        ``short_horizon`` pins 12 slots, any other length is one
        ``TrafficConfig`` away."""
        assert sc.get("short_horizon").build_config() == \
            ExperimentConfig(traffic=TrafficConfig(slots_per_episode=12))
        cfg = ExperimentConfig(traffic=TrafficConfig(slots_per_episode=8))
        assert ScenarioSimulator(cfg).horizon == 8


class TestPopulation:
    def test_scaling_and_names(self):
        cfg = sc.get("six_slices").build_config()
        assert len(cfg.slices) == 6
        assert len({s.name for s in cfg.slices}) == 6
        # derated so aggregate offered load stays near the 3-slice setup
        mar_like = [s for s in cfg.slices if s.app == "mar"]
        assert mar_like[0].max_arrival_rate == pytest.approx(2.5)

    def test_population_helper(self):
        pop = sc.population(9)
        assert len(pop) == 9
        assert pop[0].arrival_scale == pytest.approx(3.0 / 9.0)
        with pytest.raises(ValueError):
            sc.population(0)

    def test_duplicate_names_rejected(self):
        spec = sc.ScenarioSpec(
            name="dup", slices=(sc.SliceTemplate("mar", name="X"),
                                sc.SliceTemplate("hvs", name="X")))
        with pytest.raises(ValueError, match="duplicate"):
            spec.build_config()

    def test_slice_spec_for_app_validation(self):
        with pytest.raises(ValueError):
            slice_spec_for_app("warp")
        with pytest.raises(ValueError):
            slice_spec_for_app("mar", arrival_scale=0.0)


class TestTrafficModels:
    cfg = TrafficConfig()

    def envelope(self, model, slots=96, index=0, day=0, seed=0):
        return model.envelope(index, slots, day, self.cfg,
                              np.random.default_rng(seed))

    def test_determinism_from_seed(self):
        for model in (sc.DiurnalTraffic(), sc.OnOffTraffic(),
                      sc.FlashCrowdTraffic(), sc.MixDriftTraffic()):
            a = self.envelope(model, seed=3)
            b = self.envelope(model, seed=3)
            np.testing.assert_array_equal(a, b)

    def test_bounds(self):
        for model in (sc.DiurnalTraffic(), sc.OnOffTraffic(),
                      sc.FlashCrowdTraffic(magnitude=50.0),
                      sc.MixDriftTraffic(drift=10.0)):
            trace = self.envelope(model)
            assert trace.shape == (96,)
            assert np.all(trace >= 0.0)
            assert np.all(trace <= sc.ENVELOPE_MAX)

    def test_flash_crowd_spikes_only_target_slices(self):
        base = sc.ConstantTraffic(level=0.4)
        model = sc.FlashCrowdTraffic(base=base, at_fraction=0.5,
                                     duration_fraction=0.1,
                                     magnitude=3.0, slice_indices=(0,))
        spiked = self.envelope(model, index=0)
        flat = self.envelope(model, index=1)
        assert spiked.max() == pytest.approx(1.2)
        assert flat.max() == pytest.approx(0.4)
        window = slice(48, 58)
        assert np.all(spiked[window] > 1.0)
        assert spiked[0] == pytest.approx(0.4)

    def test_on_off_visits_both_states(self):
        model = sc.OnOffTraffic(on_level=1.0, off_level=0.1,
                                jitter_sigma=0.0)
        trace = self.envelope(model, slots=400)
        assert {0.1, 1.0} == set(np.round(np.unique(trace), 6))

    def test_drift_ramps_opposite_directions(self):
        model = sc.MixDriftTraffic(base=sc.ConstantTraffic(level=0.5),
                                   drift=0.8)
        up = self.envelope(model, index=0)
        down = self.envelope(model, index=1)
        assert up[-1] > up[0] and down[-1] < down[0]
        assert up[0] == pytest.approx(0.5)
        assert up[-1] == pytest.approx(0.9)
        assert down[-1] == pytest.approx(0.5 * 0.2)

    def test_scaled_traffic(self):
        model = sc.ScaledTraffic(base=sc.ConstantTraffic(level=0.5),
                                 scale=1.5)
        assert self.envelope(model)[0] == pytest.approx(0.75)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            sc.OnOffTraffic(on_level=0.1, off_level=0.5)
        with pytest.raises(ValueError):
            sc.FlashCrowdTraffic(magnitude=0.0)
        with pytest.raises(ValueError):
            sc.ConstantTraffic(level=-0.1)


class TestEvents:
    def test_timeline_slots(self):
        event = sc.LinkDegradation(at_fraction=0.5,
                                   duration_fraction=0.25)
        assert event.start_slot(96) == 48
        assert event.end_slot(96) == 72
        # fractions survive short horizons: at least one active slot
        assert event.end_slot(4) > event.start_slot(4)

    def test_validation(self):
        with pytest.raises(ValueError):
            sc.LinkDegradation(capacity_scale=0.0)
        with pytest.raises(ValueError):
            sc.LatencySurge(extra_latency_ms=-1.0)
        with pytest.raises(ValueError):
            sc.BackgroundLoadStep(load_fraction=1.0)
        with pytest.raises(ValueError):
            sc.SliceArrival(slice_name="")
        with pytest.raises(ValueError):
            sc.NetworkEvent(at_fraction=1.5)
        # what the simulator cannot run is refused at construction,
        # and a tagged-JSON spec decodes through the same checks
        nan, inf = float("nan"), float("inf")
        for event, field in (
                (sc.LatencySurge, {"extra_latency_ms": nan}),
                (sc.LatencySurge, {"extra_latency_ms": inf}),
                (sc.LinkDegradation, {"duration_fraction": nan}),
                (sc.BackgroundLoadStep, {"duration_fraction": inf}),
                (sc.SliceArrival, {"app": "video"}),
                (sc.SliceArrival, {"arrival_scale": -1.0}),
                (sc.SliceArrival, {"arrival_scale": 0.0}),
                (sc.SliceArrival, {"arrival_scale": nan})):
            name = next(iter(field))
            with pytest.raises(ValueError, match=name):
                event(**field)
            tagged = to_jsonable(event())
            tagged["fields"].update(field)
            with pytest.raises(ValueError, match=name):
                from_jsonable(json.loads(json.dumps(tagged)))

    def test_unknown_event_kind_rejected_by_simulator(self):
        class Rogue:
            kind = "meteor_strike"

        with pytest.raises(ValueError, match="unknown event kind"):
            ScenarioSimulator(events=(Rogue(),))


def run_episode(sim, level=0.2):
    """Drive one full episode with a constant allocation; returns the
    per-slot managed results."""
    sim.reset()
    per_slot = []
    while not sim.done:
        actions = {n: np.full(10, level) for n in sim.slice_names}
        per_slot.append(sim.step(actions))
    return per_slot


class TestSimulatorEvents:
    def test_link_degradation_window(self, short_spec):
        spec = short_spec("link_degradation")
        sim = spec.build_simulator()
        sim.reset()
        scales = []
        while not sim.done:
            sim.step({n: np.full(10, 0.2) for n in sim.slice_names})
            scales.append(sim.network.capacity_scale)
        event = spec.events[0]
        start = event.start_slot(sim.horizon)
        end = event.end_slot(sim.horizon)
        assert scales[start] == pytest.approx(event.capacity_scale)
        assert all(s == pytest.approx(event.capacity_scale)
                   for s in scales[start:end])
        assert scales[start - 1] == 1.0
        if end < len(scales):
            assert scales[end] == 1.0

    def test_latency_surge_reaches_reports(self, short_spec):
        spec = short_spec("latency_surge")
        sim = spec.build_simulator()
        per_slot = run_episode(sim)
        event = spec.events[0]
        start = event.start_slot(sim.horizon)
        surged = per_slot[start]["MAR"].report.transport_latency_ms
        calm = per_slot[0]["MAR"].report.transport_latency_ms
        assert surged >= calm + event.extra_latency_ms * 0.99

    def test_slice_churn_adds_and_removes_background(self, short_spec):
        spec = short_spec("slice_churn")
        sim = spec.build_simulator()
        sim.reset()
        managed = set(sim.slice_names)
        bg_counts = []
        while not sim.done:
            results = sim.step(
                {n: np.full(10, 0.2) for n in sim.slice_names})
            # background slices never leak into agent-facing results
            assert set(results) == managed
            bg_counts.append(len(sim.background_slice_names))
        assert max(bg_counts) == 1 and bg_counts[-1] == 0
        assert len(sim.network.slice_names) == 3  # departed again

    def test_reset_restores_nominal_world(self, short_spec):
        sim = short_spec("slice_churn").build_simulator()
        run_episode(sim)
        sim.reset()
        assert sim.background_slice_names == []
        assert sim.network.capacity_scale == 1.0
        assert sim.network.extra_latency_ms == 0.0
        assert sim.active_events == []

    def test_traffic_model_drives_traces(self):
        spec = sc.ScenarioSpec(
            name="const", traffic=sc.ConstantTraffic(level=0.5),
            traffic_cfg=TrafficConfig(slots_per_episode=6))
        sim = spec.build_simulator()
        sim.reset()
        for name in sim.slice_names:
            np.testing.assert_allclose(sim._traces[name], 0.5)

    def test_simulator_determinism(self, short_spec):
        for name in ("bursty", "slice_churn"):
            spec = short_spec(name)
            a = run_episode(spec.build_simulator())
            b = run_episode(spec.build_simulator())
            costs_a = [r["MAR"].cost for r in a]
            costs_b = [r["MAR"].cost for r in b]
            assert costs_a == costs_b


class TestEventEdgeCases:
    """Satellite: overlapping windows, horizon-boundary churn,
    zero-duration events."""

    def _drive(self, events, slots=12, probe=None):
        """Run a short episode, recording ``probe(sim)`` per slot."""
        spec = sc.ScenarioSpec(
            name="edge", events=tuple(events),
            traffic_cfg=TrafficConfig(slots_per_episode=slots))
        sim = spec.build_simulator()
        sim.reset()
        readings = []
        while not sim.done:
            sim.step({n: np.full(10, 0.2) for n in sim.slice_names})
            readings.append(probe(sim) if probe else None)
        return sim, readings

    def test_overlapping_capacity_windows_multiply(self):
        # slots 3..9 at 0.5x, slots 6..12(clipped) at 0.5x: the
        # overlap composes multiplicatively to 0.25x
        first = sc.LinkDegradation(at_fraction=0.25,
                                   duration_fraction=0.5,
                                   capacity_scale=0.5)
        second = sc.LinkDegradation(at_fraction=0.5,
                                    duration_fraction=0.5,
                                    capacity_scale=0.5)
        _, scales = self._drive(
            (first, second),
            probe=lambda sim: sim.network.capacity_scale)
        assert scales[3] == pytest.approx(0.5)   # first only
        assert scales[7] == pytest.approx(0.25)  # overlap
        assert scales[10] == pytest.approx(0.5)  # second only

    def test_overlapping_latency_and_load_compose(self):
        surge_a = sc.LatencySurge(at_fraction=0.0,
                                  duration_fraction=1.0,
                                  extra_latency_ms=10.0)
        surge_b = sc.LatencySurge(at_fraction=0.0,
                                  duration_fraction=1.0,
                                  extra_latency_ms=15.0)
        # distinct values: identical (==) events dedup in apply_events
        load_a = sc.BackgroundLoadStep(at_fraction=0.0,
                                       duration_fraction=1.0,
                                       load_fraction=0.5)
        load_b = sc.BackgroundLoadStep(at_fraction=0.0,
                                       duration_fraction=1.0,
                                       load_fraction=0.6)
        sim, _ = self._drive((surge_a, surge_b, load_a, load_b))
        # latencies add; loads add but cap below saturation at 0.95
        assert sim.network.extra_latency_ms == \
            pytest.approx(25.0)
        assert sim.network.background_load_fraction == \
            pytest.approx(0.95)

    def test_churn_at_horizon_boundary(self):
        # at_fraction=1.0 clamps to the last slot: the background
        # slice attaches for exactly the final step and the episode
        # still ends with the world restored
        arrival = sc.SliceArrival(at_fraction=1.0,
                                  duration_fraction=0.5,
                                  slice_name="EDGE")
        sim, counts = self._drive(
            (arrival,),
            probe=lambda sim: len(sim.background_slice_names))
        assert arrival.start_slot(sim.horizon) == sim.horizon - 1
        assert counts[-1] == 1
        assert all(c == 0 for c in counts[:-1])
        sim.reset()
        assert sim.background_slice_names == []

    def test_zero_duration_event_spans_one_slot(self):
        event = sc.LinkDegradation(at_fraction=0.5,
                                   duration_fraction=0.0,
                                   capacity_scale=0.3)
        horizon = 12
        start, stop = sc.events.slot_window(
            event.at_fraction, event.duration_fraction, horizon)
        assert stop == start + 1  # a window is never empty
        _, scales = self._drive(
            (event,),
            probe=lambda sim: sim.network.capacity_scale)
        assert scales[start] == pytest.approx(0.3)
        assert scales[start - 1] == 1.0
        assert scales[start + 1] == 1.0


class TestTrafficSynthesizerFixes:
    """Satellite: multi-day weekday advance + config-derived seed."""

    def test_multi_day_weekend_damping(self):
        cfg = TrafficConfig(noise_sigma=0.0)
        synth = TelecomItaliaSynthesizer(cfg, np.random.default_rng(0))
        # 7 days starting Friday: days 1-2 (Sat/Sun) are dampened
        trace = synth.generate(7 * 96, day_of_week=4)
        days = trace.reshape(7, 96)
        weekday_mean = days[0].mean()
        assert days[1].mean() < weekday_mean
        assert days[2].mean() < weekday_mean
        assert days[3].mean() == pytest.approx(weekday_mean)
        ratio = days[1].mean() / weekday_mean
        assert ratio == pytest.approx(1.0 - cfg.weekly_modulation)

    def test_config_derived_seed(self):
        a = TelecomItaliaSynthesizer(TrafficConfig(seed=1)).generate()
        b = TelecomItaliaSynthesizer(TrafficConfig(seed=1)).generate()
        c = TelecomItaliaSynthesizer(TrafficConfig(seed=2)).generate()
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


class TestSerialization:
    def test_event_roundtrip(self):
        for event in (sc.LinkDegradation(), sc.LatencySurge(),
                      sc.BackgroundLoadStep(),
                      sc.SliceArrival(app="hvs", slice_name="X")):
            back = roundtrip(event)
            assert back == event and type(back) is type(event)

    def test_traffic_model_roundtrip_nested(self):
        model = sc.FlashCrowdTraffic(
            base=sc.ScaledTraffic(base=sc.DiurnalTraffic(), scale=0.5),
            slice_indices=(0, 2))
        back = roundtrip(model)
        assert back == model
        assert isinstance(back.base, sc.ScaledTraffic)
        assert isinstance(back.slice_indices, tuple)

    def test_every_registered_spec_roundtrips(self):
        for spec in sc.all_specs():
            back = roundtrip(spec)
            assert back == spec
            assert back.build_config() == spec.build_config()

    def test_decode_runs_validation(self):
        payload = to_jsonable(sc.LinkDegradation())
        payload["fields"]["capacity_scale"] = -1.0
        with pytest.raises(ValueError):
            from_jsonable(payload)

    def test_unknown_dataclass_tag_rejected(self):
        with pytest.raises(ValueError, match="unknown dataclass"):
            from_jsonable({"__repro__": "dataclass", "type": "os.system",
                           "fields": {}})


class TestRuntimeWiring:
    def test_scenario_distinguishes_cache_keys(self):
        base = make_unit("baseline", episodes=1)
        other = make_unit("baseline", scenario="flash_crowd",
                          episodes=1)
        degraded = make_unit("baseline", scenario="link_degradation",
                             episodes=1)
        keys = {unit_cache_key(u) for u in (base, other, degraded)}
        assert len(keys) == 3

    def test_editing_registered_spec_changes_key(self):
        unit = make_unit("baseline", scenario="flash_crowd", episodes=1)
        before = unit_cache_key(unit)
        original = sc.get("flash_crowd")
        try:
            sc.register(dataclasses.replace(
                original, traffic=sc.FlashCrowdTraffic(magnitude=9.0)),
                replace=True)
            edited = make_unit("baseline", scenario="flash_crowd",
                               episodes=1)
            assert unit_cache_key(edited) != before
            # already-created units are pinned to the spec they carried
            # at creation (what a worker would execute)
            assert unit_cache_key(unit) == before
        finally:
            sc.register(original, replace=True)

    def test_make_unit_accepts_registered_scenarios(self):
        unit = make_unit("baseline", scenario="slice_churn", episodes=1)
        assert unit.resolve_scenario() is sc.get("slice_churn")
        with pytest.raises(ValueError):
            make_unit("baseline", scenario="atlantis")

    def test_unit_carries_spec_to_registryless_processes(self):
        """Units are self-contained: a user-registered scenario must
        survive pickling into a spawn-context worker whose registry
        only holds the built-ins (simulated by unregistering)."""
        import pickle

        sc.register(sc.ScenarioSpec(name="tmp_carried"))
        unit = make_unit("baseline", scenario="tmp_carried",
                         episodes=1)
        sc.unregister("tmp_carried")
        assert unit.resolve_scenario().name == "tmp_carried"
        assert unit.resolve_config() == ExperimentConfig()
        clone = pickle.loads(pickle.dumps(unit))
        assert clone.resolve_scenario() == unit.resolve_scenario()

    def test_explicit_cfg_keeps_scenario_workload(self):
        """A config override changes the infrastructure, not the
        scenario's traffic/events -- and bogus names never pass."""
        cfg = ExperimentConfig(
            traffic=TrafficConfig(slots_per_episode=6))
        unit = make_unit("baseline", cfg=cfg,
                         scenario="latency_surge", episodes=1)
        assert unit.resolve_config() is cfg
        assert unit.resolve_scenario() is sc.get("latency_surge")
        with pytest.raises(ValueError):
            make_unit("baseline", cfg=cfg, scenario="atlantis")

    def test_seed_override_rewrites_learning_units_only(self):
        runner = ParallelRunner(collect_only=True, seed_override=123)
        runner.run([make_unit("onslicing", epochs=2),
                    make_unit("onrl", epochs=2),
                    make_unit("baseline", episodes=1)])
        seeds = [u.seed for u in runner.collected]
        # baseline ignores unit.seed, so rewriting it would only force
        # a gratuitous cache miss
        assert seeds == [123, 123, 42]

    def test_collect_only_runs_nothing(self):
        cache = ResultCache()
        runner = ParallelRunner(collect_only=True, cache=cache)
        stubs = runner.run([make_unit("baseline", episodes=1)])
        assert len(runner.collected) == 1
        assert stubs[0].avg_resource_usage == 0.0
        assert len(cache) == 0
        assert runner.summary.executed == 0

    def test_robustness_generator_tiny(self, short_spec):
        """The robustness fan-out end to end on fast scenarios, and
        workers=1 agreement with a second in-process runner."""
        tiny = short_spec("latency_surge")
        sc.register(dataclasses.replace(tiny, name="tmp_fast_surge"))
        try:
            kwargs = dict(scale=0.05,
                          scenarios=("short_horizon", "tmp_fast_surge"),
                          methods=("baseline", "model_based"))
            rows = robustness(
                runner=ParallelRunner(cache=ResultCache()), **kwargs)
            again = robustness(
                runner=ParallelRunner(cache=ResultCache()), **kwargs)
            assert rows == again
            assert set(rows) == {
                "short_horizon/Baseline", "short_horizon/Model_Based",
                "tmp_fast_surge/Baseline", "tmp_fast_surge/Model_Based"}
            for row in rows.values():
                assert 0.0 <= row["avg_res_usage_pct"] <= 100.0
        finally:
            sc.unregister("tmp_fast_surge")

    def test_robustness_validation(self):
        with pytest.raises(KeyError):
            robustness(scenarios=("atlantis",))
        with pytest.raises(ValueError, match="unknown method"):
            robustness(methods=("teleport",))


class TestCli:
    def test_scenarios_command(self, capsys):
        from repro.runtime.cli import main

        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "flash_crowd" in out and "slice_churn" in out

    def test_run_new_arguments(self):
        from repro.runtime.cli import build_parser

        args = build_parser().parse_args(
            ["run", "robustness", "--scenario", "bursty",
             "--seed", "9", "--list-units"])
        assert args.scenario == "bursty"
        assert args.seed == 9 and args.list_units

    def test_run_list_units(self, capsys):
        from repro.runtime.cli import main

        assert main(["run", "table1", "--list-units",
                     "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "onslicing" in out and "model_based" in out
        assert "4 unit(s)" in out
        assert " 7 " in out  # the seed override reached the units

    def test_run_list_units_assembles_every_artefact(
            self, tmp_path, monkeypatch, capsys):
        """``--list-units`` catches nothing because nothing raises:
        every generator assembles over the planner's stub results
        (fleet_sweep bootstraps its snapshot into the cwd store)."""
        from repro.runtime.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["run", "all", "--list-units",
                     "--scale", "0.05"]) == 0
        captured = capsys.readouterr()
        assert "incomplete" not in captured.err
        assert "fleet" in captured.out and "figure" in captured.out

    def test_run_list_units_lets_generator_errors_propagate(
            self, monkeypatch):
        """A generator that fails while planning is a bug to surface,
        not a note on stderr next to a partial listing."""
        from repro.runtime import cli

        def broken(name, runner, scale, scenario=None):
            raise RuntimeError("generator exploded")

        monkeypatch.setattr(cli, "run_artefact", broken)
        with pytest.raises(RuntimeError, match="generator exploded"):
            cli.main(["run", "table1", "--list-units"])

    def test_run_unknown_scenario_rejected(self):
        from repro.runtime.cli import main

        with pytest.raises(SystemExit, match="unknown scenario"):
            main(["run", "table1", "--scenario", "atlantis"])

    def test_figure_artefact_rejects_scenario_up_front(self):
        """Incompatible artefacts abort before anything executes, even
        when listed after expensive compatible ones."""
        from repro.runtime.cli import main

        with pytest.raises(SystemExit, match="not supported by: fig6"):
            main(["run", "table1", "fig6", "--scenario", "bursty",
                  "--no-cache"])
