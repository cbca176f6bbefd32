"""Tests: the serving layer (policy store, decision service, loadgen,
snapshot-eval units, and the serve-facing CLI surface)."""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.config import ExperimentConfig, TrafficConfig
from repro.experiments.harness import (
    build_onslicing,
    fit_baselines,
    make_onrl_agents,
)
from repro.nn.bayesian import BayesianMLP
from repro.nn.network import MLP
from repro.runtime.cache import ResultCache
from repro.runtime.cli import main, parse_size
from repro.runtime.units import execute_unit, make_unit, unit_cache_key
from repro.serve import (
    DecisionRequest,
    LoadGenerator,
    PolicySnapshot,
    PolicyStore,
    SlicingService,
    Telemetry,
    evaluate_snapshot,
    scenario_with_population,
    snapshot_baseline,
    snapshot_model_based,
    snapshot_onrl,
    snapshot_onslicing,
    train_snapshot,
)
from repro.serve.service import DECISION_STAGES
from repro.scenarios import get as get_scenario


@pytest.fixture(scope="module")
def tiny_cfg():
    """Short horizon so training-backed fixtures stay fast."""
    return ExperimentConfig(
        traffic=TrafficConfig(slots_per_episode=10), seed=5)


@pytest.fixture(scope="module")
def onrl_snapshot(tiny_cfg):
    """An OnRL snapshot (fresh agents -- weights, not wisdom)."""
    return snapshot_onrl("onrl-test", tiny_cfg,
                         make_onrl_agents(tiny_cfg, seed=3), seed=3)


@pytest.fixture(scope="module")
def onslicing_snapshot(tiny_cfg):
    """An OnSlicing snapshot from a real (tiny) offline stage."""
    bundle = build_onslicing(tiny_cfg, offline_episodes=1,
                             exploration_episodes=1, seed=5)
    return snapshot_onslicing("ons-test", bundle, seed=5)


# ---- state_dict round-trips (satellite) -------------------------------


class TestStateDict:
    def test_mlp_exact_roundtrip(self):
        source = MLP(4, 3, hidden_sizes=(8, 6),
                     rng=np.random.default_rng(1), name="net")
        target = MLP(4, 3, hidden_sizes=(8, 6),
                     rng=np.random.default_rng(2), name="net")
        state = source.state_dict()
        target.load_state_dict(state)
        for a, b in zip(source.get_weights(), target.get_weights()):
            np.testing.assert_array_equal(a, b)
        x = np.random.default_rng(3).normal(size=(5, 4))
        np.testing.assert_array_equal(source.predict(x),
                                      target.predict(x))

    def test_mlp_state_dict_is_a_copy(self):
        net = MLP(3, 2, hidden_sizes=(4,), name="net")
        state = net.state_dict()
        next(iter(state.values()))[:] = 123.0
        assert not any(np.any(w == 123.0) for w in net.get_weights())

    def test_mismatched_names_rejected(self):
        net = MLP(3, 2, hidden_sizes=(4,), name="a")
        other = MLP(3, 2, hidden_sizes=(4,), name="b")
        with pytest.raises(ValueError, match="missing"):
            net.load_state_dict(other.state_dict())

    def test_mismatched_shape_rejected(self):
        net = MLP(3, 2, hidden_sizes=(4,), name="net")
        state = net.state_dict()
        state["net.dense0.weight"] = np.zeros((3, 5))
        with pytest.raises(ValueError, match="shape mismatch"):
            net.load_state_dict(state)

    def test_bayesian_mlp_roundtrip(self):
        source = BayesianMLP(4, 1, hidden_sizes=(6,),
                             rng=np.random.default_rng(1), name="b")
        target = BayesianMLP(4, 1, hidden_sizes=(6,),
                             rng=np.random.default_rng(2), name="b")
        target.load_state_dict(source.state_dict())
        x = np.ones((2, 4))
        np.testing.assert_array_equal(source.predict_mean(x),
                                      target.predict_mean(x))

    def test_onrl_agent_roundtrip(self, tiny_cfg):
        agents = make_onrl_agents(tiny_cfg, seed=3)
        source = agents["MAR"]
        clone = make_onrl_agents(tiny_cfg, seed=99)["MAR"]
        clone.load_state_dict(source.state_dict())
        state = np.linspace(0.0, 1.0, 9)
        np.testing.assert_array_equal(
            source.model.mean_action(state),
            clone.model.mean_action(state))
        np.testing.assert_array_equal(
            source.model.dist.log_std.value,
            clone.model.dist.log_std.value)


# ---- policy store -----------------------------------------------------


class TestPolicyStore:
    def test_roundtrip_all_four_methods(self, tmp_path, tiny_cfg,
                                        onrl_snapshot,
                                        onslicing_snapshot):
        store = PolicyStore(str(tmp_path))
        snapshots = [
            onslicing_snapshot,
            onrl_snapshot,
            snapshot_baseline("base-test", tiny_cfg,
                              fit_baselines(tiny_cfg)),
            snapshot_model_based("mb-test", tiny_cfg),
        ]
        for snapshot in snapshots:
            saved = store.save(snapshot)
            loaded = store.load(saved.name)
            assert loaded.method == snapshot.method
            assert loaded.config == snapshot.config
            assert loaded.digest == snapshot.digest
            assert set(loaded.policies) == set(snapshot.policies)
        assert len(store) == 4
        assert {info.method for info in store.list()} == {
            "onslicing", "onrl", "baseline", "model_based"}

    def test_loaded_weights_exact(self, tmp_path, onrl_snapshot):
        store = PolicyStore(str(tmp_path))
        loaded = store.load(store.save(onrl_snapshot).name)
        for name, payload in onrl_snapshot.policies.items():
            for key, value in payload["model"].items():
                np.testing.assert_array_equal(
                    loaded.policies[name]["model"][key], value)

    def test_versioning(self, tmp_path, onrl_snapshot):
        store = PolicyStore(str(tmp_path))
        first = store.save(onrl_snapshot)
        second = store.save(onrl_snapshot)
        assert (first.version, second.version) == (1, 2)
        assert store.versions(onrl_snapshot.name) == [1, 2]
        assert store.load(onrl_snapshot.name).version == 2
        assert store.load(f"{onrl_snapshot.name}@1").version == 1
        latest = store.latest(method="onrl")
        assert latest is not None and latest.version == 2

    def test_missing_snapshot(self, tmp_path):
        with pytest.raises(KeyError):
            PolicyStore(str(tmp_path)).load("nope")

    def test_malformed_ref_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="invalid snapshot ref"):
            PolicyStore(str(tmp_path)).load("nope@latest")

    def test_listing_skips_weight_files(self, tmp_path,
                                        onrl_snapshot):
        store = PolicyStore(str(tmp_path))
        saved = store.save(onrl_snapshot)
        # the sidecar alone feeds the listing: wipe the big file and
        # the row survives (load() of course would not)
        meta = store._meta_path(saved.name, saved.version)
        assert json.load(open(meta))["digest"] == saved.digest
        assert [info.ref for info in store.list()] == [saved.ref]

    def test_save_never_overwrites(self, tmp_path, onrl_snapshot,
                                   monkeypatch):
        store = PolicyStore(str(tmp_path))
        first = store.save(onrl_snapshot)
        # simulate losing the version race: versions() reports stale
        # state once, so save() first tries the taken version 1
        real_versions = store.versions
        calls = {"n": 0}

        def stale_versions(name):
            calls["n"] += 1
            return [] if calls["n"] == 1 else real_versions(name)

        monkeypatch.setattr(store, "versions", stale_versions)
        second = store.save(onrl_snapshot)
        assert (first.version, second.version) == (1, 2)
        assert store.load(f"{onrl_snapshot.name}@1").digest == \
            first.digest

    def test_corruption_detected(self, tmp_path, onrl_snapshot):
        store = PolicyStore(str(tmp_path))
        saved = store.save(onrl_snapshot)
        path = store._path(saved.name, saved.version)
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        payload["seed"] = 12345  # seed is not hashed -- fine
        payload["policies"] = {}  # but the decision surface is
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        with pytest.raises(ValueError, match="corrupt"):
            store.load(saved.name)

    def test_single_weight_edit_detected(self, tmp_path,
                                         onslicing_snapshot):
        """The digest is memoised per snapshot *object*; ``load``
        builds a fresh one, so it still hashes what the file holds:
        one weight moved by one ulp is caught."""
        from repro.runtime.serialization import decode_array, encode_array

        store = PolicyStore(str(tmp_path))
        saved = store.save(onslicing_snapshot)
        assert store.load(saved.ref).digest == saved.digest
        path = store._path(saved.name, saved.version)
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        weights = payload["policies"]["MAR"]["estimator"]
        mu = decode_array(weights["pi_phi.v0.weight_mu"])
        mu[0, 0] = np.nextafter(mu[0, 0], np.inf)     # one ulp
        weights["pi_phi.v0.weight_mu"] = encode_array(mu)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        with pytest.raises(ValueError, match="corrupt"):
            store.load(saved.ref)

    def test_replace_starts_a_fresh_digest(self, onrl_snapshot):
        source_digest = onrl_snapshot.digest          # memoised here
        assert onrl_snapshot.digest is source_digest
        trimmed = replace(
            onrl_snapshot,
            policies={"MAR": onrl_snapshot.policies["MAR"]})
        assert trimmed.digest != source_digest
        assert replace(onrl_snapshot, version=9).digest == source_digest
        assert onrl_snapshot.digest is source_digest

    def test_invalid_names_rejected(self, tiny_cfg):
        with pytest.raises(ValueError, match="invalid snapshot name"):
            snapshot_model_based("bad/name", tiny_cfg)
        with pytest.raises(ValueError, match="unknown snapshot method"):
            PolicySnapshot(name="x", method="nope", scenario="default",
                           seed=0, config=tiny_cfg, policies={})


# ---- decision service -------------------------------------------------


class TestSlicingService:
    def test_batched_matches_unbatched(self, onrl_snapshot):
        """One N-row ``decide`` proposes what N one-row ``decide``s
        propose: a 9-slice cell is three 3-row forwards together and
        nine 1-row forwards alone (the comparison the deleted
        single-state path used to be kept for)."""
        cfg = scenario_with_population(
            get_scenario("short_horizon"), 9).build_config()
        rng = np.random.default_rng(7)
        requests = [DecisionRequest(spec.name,
                                    rng.uniform(0.0, 1.0, size=9))
                    for spec in cfg.slices]

        def proposals(batches):
            service = SlicingService(onrl_snapshot, cfg=cfg,
                                     rng_seed=0)
            out = {}
            for batch in batches:
                out.update(service._propose(
                    batch, dict.fromkeys(DECISION_STAGES, 0.0)))
            return out

        together = proposals([requests])
        alone = proposals([[request] for request in requests])
        assert set(together) == set(alone) == \
            {spec.name for spec in cfg.slices}
        for name in together:
            np.testing.assert_allclose(together[name][0],
                                       alone[name][0], atol=1e-12)
            assert together[name][1:] == alone[name][1:]

    def test_table_snapshot_rows_are_their_scalar_form(self, tiny_cfg):
        """A baseline snapshot's decision is the routed table's
        ``act_vector`` on the request state, whatever the batch."""
        baselines = fit_baselines(tiny_cfg)
        service = SlicingService(
            snapshot_baseline("pi-b", tiny_cfg, baselines, seed=5),
            rng_seed=0)
        rng = np.random.default_rng(8)
        requests = [DecisionRequest(name, rng.uniform(0.0, 1.0, size=9))
                    for name in service.slice_names]
        proposed = service._propose(
            requests, dict.fromkeys(DECISION_STAGES, 0.0))
        for request in requests:
            action, fallback, key = proposed[request.slice_name]
            assert np.array_equal(
                action,
                baselines[request.slice_name].act_vector(request.state))
            assert not fallback and key == request.slice_name

    def test_population_routing_by_app(self, onrl_snapshot):
        spec = scenario_with_population(get_scenario("short_horizon"),
                                        9)
        service = SlicingService(onrl_snapshot,
                                 cfg=spec.build_config())
        assert len(service.slice_names) == 9
        # MAR1/MAR4/MAR7 all route to the snapshot's MAR policy
        assert {service._routes[n][0]
                for n in ("MAR1", "MAR4", "MAR7")} == {"MAR"}

    def test_missing_app_rejected(self, tiny_cfg, onrl_snapshot):
        lopsided = PolicySnapshot(
            name="mar-only", method="onrl", scenario="default", seed=0,
            config=tiny_cfg,
            policies={"MAR": onrl_snapshot.policies["MAR"]})
        with pytest.raises(ValueError, match="no policy for app"):
            SlicingService(lopsided, cfg=tiny_cfg)

    def test_request_validation(self, onrl_snapshot):
        service = SlicingService(onrl_snapshot)
        with pytest.raises(KeyError, match="unknown slice"):
            service.decide_one(DecisionRequest("NOPE", np.zeros(9)))
        with pytest.raises(ValueError, match="shape"):
            service.decide_one(DecisionRequest("MAR", np.zeros(3)))

    def test_capacity_never_exceeded(self, onrl_snapshot):
        from repro.sim.network import CONSTRAINED_RESOURCES

        spec = scenario_with_population(get_scenario("short_horizon"),
                                        12)
        service = SlicingService(onrl_snapshot,
                                 cfg=spec.build_config(), rng_seed=0)
        rng = np.random.default_rng(1)
        decisions = service.decide([
            DecisionRequest(name, rng.uniform(0.0, 1.0, size=9))
            for name in service.slice_names
        ])
        for kind, idx in CONSTRAINED_RESOURCES.items():
            total = sum(d.action[idx] for d in decisions.values())
            assert total <= 1.0 + 1e-3, (kind, total)

    def test_fallback_on_predicted_violation(self, onslicing_snapshot):
        service = SlicingService(onslicing_snapshot, rng_seed=0)
        # cumulative cost already at twice the episode budget: Eq. 8
        # must route to pi_b no matter what pi_phi adds on top
        state = np.zeros(9)
        state[7] = 0.05     # C_max
        state[8] = 2.0      # normalised cumulative cost (2x budget)
        decision = service.decide_one(DecisionRequest("MAR", state))
        assert decision.fallback
        baseline = onslicing_snapshot.policies["MAR"]["baseline"]
        np.testing.assert_allclose(decision.action,
                                   baseline.act_vector(state),
                                   atol=1e-9)
        assert service.telemetry.counter("fallbacks").value == 1

    def test_fallback_latches_for_the_episode(self,
                                              onslicing_snapshot):
        service = SlicingService(onslicing_snapshot, rng_seed=0)
        hot = np.zeros(9)
        hot[7], hot[8] = 0.05, 2.0      # over the episode budget
        benign = np.zeros(9)
        benign[7] = 0.05
        policy = service._policies["MAR"]
        policy.estimator._target_mean = -1e9   # pi_phi predicts zero
        policy.estimator._target_std = 0.0
        assert not service.decide_one(
            DecisionRequest("MAR", benign)).fallback
        assert service.decide_one(DecisionRequest("MAR", hot)).fallback
        # one-way door: benign state later the same episode still pi_b
        assert service.decide_one(
            DecisionRequest("MAR", benign)).fallback
        service.begin_episode()                # new episode re-arms
        assert not service.decide_one(
            DecisionRequest("MAR", benign)).fallback

    def test_fallback_follows_estimator(self, onslicing_snapshot):
        service = SlicingService(onslicing_snapshot, rng_seed=0)
        state = np.zeros(9)
        state[7] = 0.05
        policy = service._policies["MAR"]
        # pin pi_phi's posterior: no predicted cost -> learner serves
        policy.estimator._target_mean = -1e9
        policy.estimator._target_std = 0.0
        assert not service.decide_one(
            DecisionRequest("MAR", state)).fallback
        # enormous predicted cost-to-go -> pi_b takes over
        policy.estimator._target_mean = 1e9
        assert service.decide_one(
            DecisionRequest("MAR", state)).fallback

    def test_telemetry_counts(self, onrl_snapshot):
        telemetry = Telemetry()
        service = SlicingService(onrl_snapshot, telemetry=telemetry)
        state = np.full(9, 0.2)
        for _ in range(3):
            service.decide([DecisionRequest("MAR", state),
                            DecisionRequest("HVS", state)])
        assert telemetry.counter("decisions").value == 6
        assert telemetry.counter("batches").value == 3
        assert telemetry.histogram("decision_latency_ms").count == 3
        rows = telemetry.snapshot()
        assert {r["metric"] for r in rows} >= {"decisions", "batches",
                                               "decision_latency_ms"}

    def test_telemetry_export_jsonl(self, tmp_path):
        telemetry = Telemetry()
        telemetry.counter("decisions").inc(5)
        telemetry.histogram("lat").observe(1.0)
        path = telemetry.export_jsonl(str(tmp_path / "t.jsonl"),
                                      run_label="r1")
        rows = [json.loads(line) for line in open(path)]
        assert {row["metric"] for row in rows} == {"decisions", "lat"}
        assert all(row["run"] == "r1" for row in rows)


# ---- load generation --------------------------------------------------


class TestLoadGenerator:
    def test_full_episode(self, onrl_snapshot):
        report = LoadGenerator(onrl_snapshot, "short_horizon",
                               slices=4).run(episodes=1)
        assert report.slices == 4
        assert report.decisions == 4 * 12   # population x horizon
        assert report.decisions_per_sec > 0
        assert report.p99_latency_ms >= report.p50_latency_ms > 0
        assert 0.0 <= report.violation_rate <= 1.0
        assert set(report.per_slice_usage) == {
            "MAR1", "HVS2", "RDC3", "MAR4"}

    def test_max_decisions_truncates(self, onrl_snapshot):
        report = LoadGenerator(onrl_snapshot, "short_horizon",
                               slices=4).run(episodes=5,
                                             max_decisions=100)
        assert report.decisions == 100

    def test_reproducible_from_snapshot(self, onrl_snapshot):
        runs = [
            LoadGenerator(onrl_snapshot, "flash_crowd", slices=5,
                          seed=3).run(episodes=1, max_decisions=50)
            for _ in range(2)
        ]
        assert runs[0].decision_digest == runs[1].decision_digest
        assert runs[0].violation_rate == runs[1].violation_rate

    def test_needs_named_scenario(self, onrl_snapshot):
        with pytest.raises(ValueError, match="named scenario"):
            LoadGenerator(onrl_snapshot, None)

    #: ``LoadGenerator.run`` at the parent of the PR that made it the
    #: one-cell case of ``drive_lockstep`` (commit 99fdf2c, whose
    #: ``run`` was a hand-written loop over ``ScenarioSimulator.step``):
    #: 2 x 24 slots, seed 5, an untrained OnRL snapshot (its actions
    #: read the whole observation vector) and the pi_b tables.  Per
    #: run: decision digest, decisions, mean usage, violation rate.
    PARENT_RUNS = {
        ("default", "onrl", None): (
            "60dbfca1d4301b238b8443f45a3bdf9d7d594aacd0179658c593ef8bb24"
            "15565", 144, 0.3663008317208342, 0.0),
        ("default", "onrl", 100): (
            "a5703228e860f406f411f515048d587d7c72654c96c0227febfb0610f4c"
            "5de40", 102, 0.3659267123417009, 0.0),
        ("lte_fixed_mcs", "onrl", None): (
            "f9c222ae881c36dc1ecad9bd0e4b77432ef44fe652cf77736757d360b05"
            "0c620", 144, 0.325278074031702, 0.6666666666666666),
        ("lte_fixed_mcs", "onrl", 100): (
            "97f0574a86a129ed652ae1afa84b01b1f5bfbdcba85d154fbf44f691d65"
            "b2221", 102, 0.33684487236861976, 0.6666666666666666),
        ("lte_fixed_mcs", "baseline", None): (
            "84b88b8e912ee97fadf770288057c5e045ee909480274107e306cc8702b"
            "bc996", 144, 0.15383101851851852, 0.3333333333333333),
        ("lte_fixed_mcs", "baseline", 100): (
            "344fbfb194a48780085426490323a3614384d664af7d82e8ab97d923d41"
            "db77f", 102, 0.1522685185185185, 0.3333333333333333),
    }

    def test_run_reports_equal_the_parents_hand_written_loop(self):
        cfg = get_scenario("default").build_config()
        snapshots = {
            "onrl": snapshot_onrl(
                "rec-o", cfg, make_onrl_agents(cfg, seed=11), seed=11),
            "baseline": snapshot_baseline(
                "rec-b", cfg, fit_baselines(cfg), seed=3)}
        for (name, method, limit), want in self.PARENT_RUNS.items():
            spec = get_scenario(name)
            spec = replace(spec, traffic_cfg=replace(
                spec.build_config().traffic, slots_per_episode=24))
            report = LoadGenerator(snapshots[method], spec, seed=5).run(
                episodes=2, max_decisions=limit)
            assert (report.decision_digest, report.decisions,
                    report.mean_usage, report.violation_rate) == want, \
                (name, method, limit)
            assert report.episodes == 2 and report.fallbacks == 0


# ---- snapshot evaluation / units -------------------------------------


class TestSnapshotEvaluation:
    def test_evaluate_snapshot_shape(self, onrl_snapshot):
        result = evaluate_snapshot(onrl_snapshot,
                                   scenario="short_horizon",
                                   episodes=1)
        assert result.method == "OnRL"
        assert 0.0 <= result.avg_sla_violation <= 100.0
        assert set(result.per_slice_usage) == {"MAR", "HVS", "RDC"}

    def test_snapshot_eval_unit(self, tmp_path, onrl_snapshot):
        store = PolicyStore(str(tmp_path))
        saved = store.save(onrl_snapshot)
        unit = make_unit("snapshot_eval", variant="onrl",
                         scenario="short_horizon", seed=5,
                         store=str(tmp_path), snapshot=saved.ref,
                         digest=saved.digest, episodes=1)
        result = execute_unit(unit)
        assert result.method == "OnRL"
        # a different snapshot digest must change the cache key
        other = make_unit("snapshot_eval", variant="onrl",
                          scenario="short_horizon", seed=5,
                          store=str(tmp_path), snapshot=saved.ref,
                          digest="0" * 64, episodes=1)
        assert unit_cache_key(unit) != unit_cache_key(other)
        with pytest.raises(ValueError, match="changed since"):
            execute_unit(other)

    def test_robustness_snapshot_store(self, tmp_path):
        from repro.experiments.robustness import robustness

        rows = robustness(scale=0.05, scenarios=("short_horizon",),
                          methods=("onrl", "model_based"),
                          snapshot_store=str(tmp_path))
        assert set(rows) == {"short_horizon/OnRL",
                             "short_horizon/Model_Based"}
        # the trained snapshot landed in the store and is reused
        store = PolicyStore(str(tmp_path))
        assert len(store.versions(store.latest("onrl").name)) == 1
        robustness(scale=0.05, scenarios=("short_horizon",),
                   methods=("onrl",), snapshot_store=str(tmp_path))
        assert len(store.versions(store.latest("onrl").name)) == 1

    def test_train_snapshot_static_methods(self, tmp_path, tiny_cfg):
        store = PolicyStore(str(tmp_path))
        snapshot = train_snapshot("model_based",
                                  scenario="short_horizon",
                                  store=store, cfg=tiny_cfg)
        assert snapshot.version == 1
        assert store.load(snapshot.name).method == "model_based"
        with pytest.raises(ValueError, match="unknown method"):
            train_snapshot("nope")


# ---- CLI surface ------------------------------------------------------


class TestServeCli:
    def test_parse_size(self):
        assert parse_size("1024") == 1024
        assert parse_size("2K") == 2048
        assert parse_size("1.5M") == int(1.5 * 1024 ** 2)
        assert parse_size("2GB") == 2 * 1024 ** 3
        with pytest.raises(SystemExit):
            parse_size("lots")

    def test_scenarios_json(self, capsys):
        assert main(["scenarios", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {"default", "flash_crowd"} <= {r["name"] for r in rows}
        assert all({"name", "slices", "traffic", "events"}
                   <= set(r) for r in rows)

    def test_cache_prune(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        cache = ResultCache(cache_dir)
        for i in range(4):
            cache.put(f"key{i}", {"payload": list(range(100))})
        assert main(["cache", "prune", "--cache-dir", cache_dir,
                     "--max-size", "1K"]) == 0
        assert "pruned" in capsys.readouterr().out
        fresh = ResultCache(cache_dir)
        assert fresh.disk_usage() <= 1024
        with pytest.raises(SystemExit, match="--max-size"):
            main(["cache", "prune", "--cache-dir", cache_dir])

    def test_train_serve_loadgen_end_to_end(self, tmp_path, capsys):
        store_dir = str(tmp_path / "policies")
        assert main(["train", "--method", "onrl", "--scenario",
                     "short_horizon", "--scale", "0.05", "--seed",
                     "3", "--save", "smoke", "--store-dir",
                     store_dir]) == 0
        assert "saved snapshot smoke@1" in capsys.readouterr().out

        args = ["loadgen", "--scenario", "short_horizon", "--slices",
                "4", "--snapshot", "smoke", "--store-dir", store_dir,
                "--decisions", "40", "--json"]
        digests = []
        for _ in range(2):
            assert main(args) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["report"]["decisions"] == 40
            assert payload["report"]["decisions_per_sec"] > 0
            digests.append(payload["report"]["decision_digest"])
        assert digests[0] == digests[1]

        telemetry_dir = str(tmp_path / "telemetry")
        assert main(["serve", "--snapshot", "smoke", "--store-dir",
                     store_dir, "--scenario", "short_horizon",
                     "--telemetry-dir", telemetry_dir]) == 0
        out = capsys.readouterr().out
        assert "decision latency" in out and "throughput" in out
        exported = sorted((tmp_path / "telemetry").iterdir(),
                          key=lambda p: p.suffix)
        assert [p.suffix for p in exported] == [".jsonl", ".prom"]
        rows = [json.loads(line) for line in open(exported[0])]
        assert any(row["metric"] == "decisions" for row in rows)
        prom = exported[1].read_text()
        assert "# TYPE decisions_total counter" in prom

    @pytest.mark.parametrize("command", ["serve", "loadgen"])
    def test_no_batch_flag_is_gone(self, command, capsys):
        """The single-state path it selected was deleted: the flag is
        argparse's own exit 2, not a silently ignored option."""
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--scenario", "default", "--no-batch"])
        assert excinfo.value.code == 2
        assert "--no-batch" in capsys.readouterr().err

    def test_loadgen_rejects_unknown(self, tmp_path):
        store_dir = str(tmp_path / "policies")
        with pytest.raises(SystemExit, match="unknown scenario"):
            main(["loadgen", "--scenario", "nope", "--store-dir",
                  store_dir])
        with pytest.raises(SystemExit, match="train one with"):
            main(["loadgen", "--scenario", "default", "--snapshot",
                  "ghost", "--store-dir", store_dir])
