"""Tests: the scenario fuzzer, its oracle, the shrinker and the sweep.

Kept training-free: every engine-facing test runs the analytic
Model_Based policy (no grid search, no learning), so the whole module
stays tier-1 fast.  The learned-method snapshot path is exercised by
the CI fuzz-smoke job instead.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro import scenarios as sc
from repro.config import TrafficConfig
from repro.scenarios.fuzz import (
    FuzzSpace,
    corpus_digest,
    generate_corpus,
    generate_spec,
    scenario_family,
    spec_digest,
)


@pytest.fixture(scope="module")
def model_based_policy():
    from repro.experiments.fuzz import build_method_policies

    policies = build_method_policies(methods=("model_based",))
    return policies["Model_Based"][0]


class TestGenerator:
    def test_determinism(self):
        assert corpus_digest(generate_corpus(11, 6)) == \
            corpus_digest(generate_corpus(11, 6))
        assert generate_spec(11, 3) == generate_spec(11, 3)

    def test_prefix_stability(self):
        """World i never depends on the corpus size it runs in."""
        short = generate_corpus(5, 4)
        long = generate_corpus(5, 12)
        assert long[:4] == short

    def test_seed_and_index_sensitivity(self):
        assert generate_spec(1, 0) != generate_spec(2, 0)
        assert generate_spec(1, 0) != generate_spec(1, 1)
        assert corpus_digest(generate_corpus(1, 4)) != \
            corpus_digest(generate_corpus(2, 4))

    def test_specs_build_and_respect_bounds(self):
        space = FuzzSpace(min_slices=2, max_slices=4, min_slots=8,
                          max_slots=10, max_events=2)
        for spec in generate_corpus(23, 10, space):
            cfg = spec.build_config()
            assert 2 <= len(cfg.slices) <= 4
            assert 8 <= cfg.traffic.slots_per_episode <= 10
            assert len(spec.events) <= 2
            sim = spec.build_simulator(cfg)
            sim.reset()  # traces generate without blowing up

    def test_space_validation(self):
        with pytest.raises(ValueError):
            FuzzSpace(min_slices=0)
        with pytest.raises(ValueError):
            FuzzSpace(min_slots=40, max_slots=10)
        with pytest.raises(ValueError):
            FuzzSpace(load_factor_min=0.0)
        with pytest.raises(ValueError):
            FuzzSpace(p_diurnal=1.5)
        with pytest.raises(ValueError):
            generate_corpus(1, 0)

    def test_spec_digest_tracks_identity(self):
        spec = generate_spec(11, 0)
        assert spec_digest(spec) == spec_digest(spec)
        tweaked = dataclasses.replace(spec, seed=spec.seed + 1)
        assert spec_digest(tweaked) != spec_digest(spec)

    def test_scenario_family(self):
        plain = sc.ScenarioSpec(name="p")
        assert scenario_family(plain) == "diurnal/none"
        churn = dataclasses.replace(plain, events=(sc.SliceArrival(),))
        assert scenario_family(churn) == "diurnal/churn"
        faults = dataclasses.replace(plain,
                                     events=(sc.LinkDegradation(),))
        assert scenario_family(faults) == "diurnal/faults"
        mixed = dataclasses.replace(
            plain, traffic=sc.OnOffTraffic(),
            events=(sc.SliceArrival(), sc.LinkDegradation()))
        assert scenario_family(mixed) == "OnOffTraffic/mixed"


class TestOracle:
    def test_batch_results_and_parity(self, model_based_policy):
        from repro.experiments.fuzz import run_fuzz_batch

        specs = generate_corpus(11, 4)
        rows = run_fuzz_batch(specs, model_based_policy,
                              check_parity=True)
        assert [row["scenario"] for row in rows] == \
            [spec.name for spec in specs]
        for row, spec in zip(rows, specs):
            assert row["breaches"] == []  # engines agree, kernels sane
            assert row["family"] == scenario_family(spec)
            assert set(row["mean_cost"]) == set(row["mean_usage"])
            assert all(c >= 0.0 for c in row["mean_cost"].values())

    def test_oracle_is_deterministic(self, model_based_policy):
        from repro.experiments.fuzz import run_fuzz_batch

        specs = generate_corpus(11, 3)
        first = run_fuzz_batch(specs, model_based_policy,
                               check_parity=False)
        second = run_fuzz_batch(specs, model_based_policy,
                                check_parity=False)
        assert first == second

    def test_batch_size_invariance(self, model_based_policy):
        """Worlds are bit-identical whether run 2 or 6 at a time."""
        from repro.experiments.fuzz import run_fuzz

        kwargs = dict(seed=11, count=6, methods=("model_based",),
                      check_parity=False, use_cache=False)
        small = run_fuzz(batch=2, **kwargs)
        large = run_fuzz(batch=6, **kwargs)
        assert small["methods"] == large["methods"]
        assert small["corpus_digest"] == large["corpus_digest"]

    def test_run_fuzz_caches(self, model_based_policy):
        from repro.experiments.fuzz import run_fuzz
        from repro.runtime.cache import configure_shared_cache

        configure_shared_cache(None)  # fresh hermetic memory cache
        kwargs = dict(seed=13, count=2, methods=("model_based",),
                      check_parity=False)
        first = run_fuzz(**kwargs)
        second = run_fuzz(**kwargs)
        assert first == second
        worlds = first["methods"]["Model_Based"]["worlds"]
        assert [row["world"] for row in worlds] == [0, 1]

    def test_engine_validation(self, model_based_policy):
        """There is no engine to pick: every fuzzed world runs the
        checked loop, so the argument is gone on both entry points."""
        from repro.experiments.fuzz import run_fuzz, run_fuzz_batch

        for engine in ("scalar", "vector", "quantum"):
            with pytest.raises(TypeError, match="engine"):
                run_fuzz_batch(generate_corpus(11, 1),
                               model_based_policy, engine=engine)
            with pytest.raises(TypeError, match="engine"):
                run_fuzz(count=1, methods=("model_based",),
                         engine=engine)
        with pytest.raises(ValueError, match="at least one"):
            run_fuzz_batch([], model_based_policy)

    def test_checked_sees_negative_costs_and_non_finite_observations(
            self):
        """The per-slot oracle on a doctored one-world step: both
        breaches are recorded against the world, and the slot passes
        through untouched."""
        from repro.engine.batch import BatchSimulator
        from repro.experiments.fuzz import _checked

        spec = sc.get("short_horizon")
        sim = spec.build_simulator()
        batch = BatchSimulator([sim])
        states = batch.reset()
        matrix = np.full((len(states), 10), 0.2)
        step = batch.step([matrix])
        step.costs[1] = -0.5
        step.observations[2, 4] = np.nan
        breaches = []
        slots = list(_checked([(states, matrix, step)], [spec], [sim],
                              breaches))
        assert slots == [(states, matrix, step)]
        assert sorted((row["world"], row["kind"]) for row in breaches) \
            == [(0, "negative"), (0, "nonfinite")]
        assert "observation at slot 1" in next(
            row["detail"] for row in breaches
            if row["kind"] == "nonfinite")

    def test_run_fuzz_result_has_no_engine_entry(self):
        from repro.experiments.fuzz import run_fuzz

        result = run_fuzz(seed=13, count=1, methods=("model_based",),
                          check_parity=False, use_cache=False)
        assert sorted(result) == ["corpus_digest", "count", "methods",
                                  "seed"]

    def test_method_policy_validation(self):
        from repro.experiments.fuzz import build_method_policies

        with pytest.raises(ValueError, match="unknown method"):
            build_method_policies(methods=("alchemy",))
        with pytest.raises(ValueError, match="snapshot_store"):
            build_method_policies(methods=("onrl",))


#: Recorded at the parent of the PR that folded ``run_episodes``'
#: vector branch and ``run_fuzz_batch`` onto ``harness.lockstep``
#: (commit 980c054): ``generate_corpus(11, 6)`` under the two static
#: methods' batch policies.  Per world, ``run_episodes(episodes=2)``'
#: summed (cost, usage) -- equal on both engines -- then
#: ``run_fuzz_batch``'s violations and summed mean cost / mean usage.
PARENT_TOTALS = {
    "Baseline": (
        [(0.05431865967491167, 9.368333333333334),
         (0.16751697852129266, 12.443333333333333),
         (0.5911435962218375, 16.426666666666666),
         (0.3940697336415101, 11.946666666666662),
         (0.18248463068863197, 16.42833333333333),
         (0.0, 13.258333333333336)],
        [([], 0.002855259796157457, 0.41333333333333333),
         ([], 0.005895563957813703, 0.38885416666666667),
         ([], 0.025960505226067673, 0.7466666666666667),
         ([], 0.0226608491866844, 0.7466666666666666),
         ([], 0.004942548159598734, 0.3716666666666666),
         ([], 0.0, 0.22166666666666676)]),
    "Model_Based": (
        [(0.13685729320965367, 9.08080174437395),
         (1.8102646945859289, 10.447204001790599),
         (7.244066710635479, 15.98691380808812),
         (8.145982214238458, 11.310181329033888),
         (5.116093600987339, 12.73408803889491),
         (0.00219804960596115, 11.991904689155884)],
        [([], 0.007193902232697033, 0.38556094771696114),
         ([], 0.046032711726430656, 0.3251440630782464),
         (["MAR1", "MAR4", "MAR7"], 0.3194068756832481,
          0.7266891340686173),
         (["MAR1", "MAR4", "MAR7"], 0.5251685191419274,
          0.7122251708880453),
         (["MAR1"], 0.12091486102365435, 0.28828070730958155),
         ([], 7.3268320198705e-05, 0.20141200975659662)]),
}


class TestLockstepFoldsMatchTheParent:
    @pytest.mark.parametrize("method", ["baseline", "model_based"])
    def test_totals_equal_recorded_values(self, method):
        from repro.experiments.fuzz import (
            build_method_policies,
            run_fuzz_batch,
        )
        from repro.experiments.harness import run_episodes

        (label, (policy, _)), = build_method_policies(
            methods=(method,)).items()
        want_episodes, want_fuzz = PARENT_TOTALS[label]
        specs = generate_corpus(11, 6)
        for engine in ("vector", "scalar"):
            results = run_episodes(
                [spec.build_simulator() for spec in specs], policy,
                episodes=2, engine=engine)
            got = [(sum(t["cost"] for ep in world
                        for t in ep.values()),
                    sum(t["usage"] for ep in world
                        for t in ep.values()))
                   for world in results]
            assert got == want_episodes, engine
        rows = run_fuzz_batch(specs, policy, check_parity=True)
        assert [(row["violations"], sum(row["mean_cost"].values()),
                 sum(row["mean_usage"].values()))
                for row in rows] == want_fuzz
        assert not any(row["breaches"] for row in rows)

    def test_lockstep_yields_what_the_policy_saw_and_played(
            self, model_based_policy):
        """The generator's contract with its two folds: per slot the
        stacked input observations, the executed (projected) matrix
        and the step result line up row for row."""
        from repro.engine.batch import BatchSimulator
        from repro.engine.policies import episode_totals, lockstep

        specs = generate_corpus(11, 3)
        sims = [spec.build_simulator() for spec in specs]
        slots = []

        def recording(source):
            for states, matrix, step in source:
                assert len(states) == len(matrix) == len(step.costs)
                assert step.offsets[-1] == len(states)
                slots.append(list(step.worlds))
                yield states, matrix, step

        results = episode_totals(recording(lockstep(
            BatchSimulator(sims), model_based_policy, episodes=2)), 3)
        assert [len(world) for world in results] == [2, 2, 2]
        horizons = [sim.horizon for sim in sims]
        assert len(slots) == 2 * max(horizons)
        for b, horizon in enumerate(horizons):
            assert sum(b in worlds for worlds in slots) == 2 * horizon


class TestShrinker:
    def test_structural_shrink_with_cheap_predicate(self):
        """Mechanics without engine runs: a predicate that only needs
        one MAR slice drives the spec to its floor."""
        from repro.experiments.fuzz import shrink_spec

        spec = generate_spec(11, 3)
        assert len(spec.events) > 0

        def has_mar(candidate):
            return any(t.app == "mar" for t in candidate.slices)

        shrunk, evals = shrink_spec(spec, has_mar, max_evals=100)
        assert len(shrunk.slices) == 1
        assert shrunk.slices[0].app == "mar"
        assert shrunk.events == ()
        assert shrunk.traffic is None
        assert shrunk.traffic_cfg.slots_per_episode == 6
        assert evals <= 100

    def test_shrink_requires_failing_start(self):
        from repro.experiments.fuzz import shrink_spec

        with pytest.raises(ValueError, match="does not exhibit"):
            shrink_spec(generate_spec(11, 0), lambda s: False)
        with pytest.raises(ValueError, match="max_evals"):
            shrink_spec(generate_spec(11, 0), lambda s: True,
                        max_evals=0)

    def test_shrink_respects_eval_budget(self):
        from repro.experiments.fuzz import shrink_spec

        calls = []

        def predicate(candidate):
            calls.append(candidate)
            return True

        shrink_spec(generate_spec(11, 3), predicate, max_evals=5)
        assert len(calls) <= 5

    def test_shrink_violating_world_is_deterministic(
            self, model_based_policy):
        """The acceptance-criteria path: a seeded violating world
        shrinks below the 3-event / 8-slice bound, reproducibly."""
        from repro.experiments.fuzz import shrink_violation

        spec = generate_spec(11, 4)
        first, _ = shrink_violation(spec, model_based_policy)
        second, _ = shrink_violation(spec, model_based_policy)
        assert spec_digest(first) == spec_digest(second)
        assert len(first.events) <= 3
        assert len(first.slices) <= 8

    def test_exception_in_candidate_counts_as_not_preserved(self):
        """The exception an over-shrunk candidate raises is the
        ``ValueError`` of spec / config validation."""
        from repro.experiments.fuzz import shrink_spec

        spec = generate_spec(11, 3)

        def fragile(candidate):
            if candidate is not spec:
                raise ValueError("slots_per_episode must be >= 2")
            return True

        shrunk, _ = shrink_spec(spec, fragile, max_evals=50)
        assert shrunk == spec  # every reduction failed; fixpoint

    def test_non_validation_error_in_candidate_propagates(self):
        """Anything else is a bug in the engine or the predicate, not
        a shrink verdict, and must not be swallowed."""
        from repro.experiments.fuzz import shrink_spec

        spec = generate_spec(11, 3)

        def buggy(candidate):
            if candidate is not spec:
                raise RuntimeError("engine exploded")
            return True

        with pytest.raises(RuntimeError, match="engine exploded"):
            shrink_spec(spec, buggy, max_evals=50)

    def test_pinned_catalog_repro_still_violates(
            self, model_based_policy):
        """The graduated fuzz_repro keeps witnessing the violation."""
        from repro.experiments.fuzz import run_fuzz_batch

        spec = sc.get("fuzz_repro")
        rows = run_fuzz_batch([spec], model_based_policy,
                              check_parity=True)
        assert rows[0]["violations"] == ["MAR1"]
        assert rows[0]["breaches"] == []


class TestSweep:
    def test_pareto_frontier(self):
        from repro.experiments.fuzz import pareto_frontier

        points = [(0.3, 0.5), (0.2, 0.8), (0.4, 0.1), (0.35, 0.4),
                  (0.5, 0.1)]
        frontier = pareto_frontier(points)
        assert frontier == [(0.2, 0.8), (0.3, 0.5), (0.35, 0.4),
                            (0.4, 0.1)]
        assert pareto_frontier([]) == []
        # a dominated duplicate never survives
        assert pareto_frontier([(0.1, 0.2), (0.1, 0.2)]) == \
            [(0.1, 0.2)]

    def test_collect_only_guard(self):
        from repro.experiments.fuzz import fuzz_sweep

        class Planner:
            collect_only = True

        assert fuzz_sweep(runner=Planner()) == {}

    def test_sweep_rows_and_artefacts(self, tmp_path):
        from repro.experiments.fuzz import fuzz_sweep
        from repro.runtime.cache import configure_shared_cache

        configure_shared_cache(None)
        rows = fuzz_sweep(seed=11, count=4,
                          methods=("model_based",), batch=2,
                          out_dir=str(tmp_path))
        assert set(rows) == {"Model_Based"}
        row = rows["Model_Based"]
        assert row["method"] == "Model_Based"
        assert row["worlds"] == 4
        assert row["pareto_points"] >= 1
        pareto = json.loads(
            (tmp_path / "fuzz_pareto.json").read_text())
        heatmap = json.loads(
            (tmp_path / "fuzz_heatmap.json").read_text())
        assert pareto["corpus_digest"] == \
            corpus_digest(generate_corpus(11, 4))
        points = pareto["methods"]["Model_Based"]["points"]
        assert len(points) == 4
        assert all(0.0 <= p["violation"] <= 1.0 for p in points)
        frontier = pareto["methods"]["Model_Based"]["frontier"]
        usages = [p["usage"] for p in frontier]
        assert usages == sorted(usages)
        families = {scenario_family(s)
                    for s in generate_corpus(11, 4)}
        assert set(heatmap["families"]) == families
        for family_row in heatmap["families"].values():
            assert set(family_row) == {"Model_Based"}


class TestCli:
    def test_fuzz_run_json(self, capsys):
        from repro.runtime.cli import main

        code = main(["fuzz", "run", "--seed", "11", "--count", "3",
                     "--methods", "model_based", "--no-cache",
                     "--no-parity", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["corpus_digest"] == \
            corpus_digest(generate_corpus(11, 3))
        assert set(payload["methods"]) == {"Model_Based"}

    def test_fuzz_shrink_writes_spec(self, tmp_path, capsys):
        from repro.runtime.cli import main
        from repro.runtime.serialization import from_jsonable

        out = tmp_path / "shrunk.json"
        code = main(["fuzz", "shrink", "--seed", "11", "--world", "4",
                     "--method", "model_based", "--out", str(out),
                     "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["events"] <= 3 and payload["slices"] <= 8
        decoded = from_jsonable(json.loads(out.read_text()))
        assert spec_digest(decoded) == payload["digest"]

    def test_fuzz_run_rejects_unknown_methods(self):
        from repro.runtime.cli import main

        with pytest.raises(SystemExit, match="unknown method"):
            main(["fuzz", "run", "--methods", "alchemy"])

    def test_fuzz_shrink_rejects_non_violating_world(self):
        from repro.runtime.cli import main

        # world 0 of seed 11 meets its SLA under Model_Based
        with pytest.raises(SystemExit, match="does not exhibit"):
            main(["fuzz", "shrink", "--seed", "11", "--world", "0",
                  "--method", "model_based"])

    def test_fuzz_sweep_listed_as_artefact(self):
        from repro.runtime.cli import ARTEFACTS, _generator

        assert "fuzz_sweep" in ARTEFACTS
        assert ARTEFACTS["fuzz_sweep"].kind == "fanout"
        assert callable(_generator("fuzz_sweep"))
