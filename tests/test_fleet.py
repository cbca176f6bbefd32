"""Tests: the fleet layer (specs, shards, coordinator checkpoints,
mergeable telemetry, fleet units, and the fleet CLI surface)."""

import json
import re
import subprocess
import sys

import numpy as np
import pytest

from repro.experiments.fleet_sweep import fleet_sweep
from repro.experiments.harness import make_onrl_agents
from repro.fleet import (
    CellPlan,
    FleetSpec,
    derive_cell_seed,
    load_checkpoint,
    plan_shards,
    report_from_checkpoint,
    run_fleet,
    run_fleet_shard,
)
from repro.runtime.cache import ResultCache, content_key
from repro.runtime.cli import main
from repro.runtime.runner import ParallelRunner, default_workers
from repro.runtime.serialization import from_jsonable, to_jsonable
from repro.runtime.units import (
    execute_unit,
    make_fleet_unit,
    unit_cache_key,
)
from repro.scenarios import ROBUSTNESS_MATRIX
from repro.serve import PolicyStore, snapshot_onrl
from repro.obs.metrics import (
    GAMMA,
    RELATIVE_ACCURACY,
    Histogram,
    Telemetry,
)
from repro.scenarios import get as get_scenario

#: Small-but-real campaign shape shared by the coordinator tests.
SPEC = FleetSpec(name="t", cells=4, scenarios=("default", "bursty"),
                 slots=6, seed=5)


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """A policy store holding one OnRL snapshot (fresh agents)."""
    directory = str(tmp_path_factory.mktemp("fleet_store"))
    store = PolicyStore(directory)
    cfg = get_scenario("default").build_config()
    store.save(snapshot_onrl("fleet-test", cfg,
                             make_onrl_agents(cfg, seed=11), seed=11))
    return store


@pytest.fixture(scope="module")
def snapshot(store):
    return store.load("fleet-test")


@pytest.fixture(scope="module")
def other_snapshot(tmp_path_factory):
    """A snapshot of other weights, alone in a store of its own: the
    coordinator tests' campaign under another snapshot digest."""
    store = PolicyStore(str(tmp_path_factory.mktemp("fleet_other")))
    cfg = get_scenario("default").build_config()
    store.save(snapshot_onrl("fleet-other", cfg,
                             make_onrl_agents(cfg, seed=12), seed=12))
    return store, store.load("fleet-other")


# ---- histograms (satellite): bounded + mergeable ----------------------


class TestHistogram:
    def test_state_is_bounded_by_value_range(self):
        """Memory follows the values' dynamic range, never the
        observation count, and percentiles stay within the sketch's
        relative accuracy."""
        values = np.random.default_rng(0).uniform(1e-3, 10.0, 100_000)
        histogram = Histogram("lat")
        histogram.observe_many(values)
        assert histogram.count == 100_000
        state = histogram.state()
        assert len(state["counts"]) <= np.log(1e4) / np.log(GAMMA) + 1
        assert histogram.percentile(99.0) == pytest.approx(
            np.quantile(values, 0.99, method="lower"),
            rel=RELATIVE_ACCURACY)

    def test_snapshot_keys_backward_compatible(self):
        histogram = Histogram("lat")
        histogram.observe(1.0)
        snapshot = histogram.snapshot()
        for key in ("metric", "type", "count", "sum", "mean",
                    "p50", "p90", "p99"):
            assert key in snapshot, key
        assert snapshot["type"] == "histogram"

    def test_merge_exact_stays_exact(self):
        """A merge adds integer counts: two merged histograms hold the
        state one histogram of both streams holds."""
        a, b, both = Histogram("x"), Histogram("x"), Histogram("x")
        a.observe_many([1.0, 2.0])
        b.observe_many([3.0, 4.0])
        both.observe_many([1.0, 2.0, 3.0, 4.0])
        a.merge(b)
        assert a.state() == both.state()
        assert (a.count, a.total, a.mean) == (4, 10.0, 2.5)
        assert (a.percentile(0.0), a.percentile(100.0)) == (1.0, 4.0)
        assert a.percentile(50.0) == \
            pytest.approx(2.0, rel=RELATIVE_ACCURACY)
        # merge never mutates the right-hand side
        assert b.count == 2

    def test_merge_matches_single_stream(self):
        """Split-then-merge is one histogram of everything, bucket for
        bucket (the float sum up to addition order)."""
        rng = np.random.default_rng(0)
        values = rng.lognormal(mean=0.0, sigma=1.5, size=4000)
        merged = Histogram("x")
        parts = [Histogram("x") for _ in range(4)]
        for i, value in enumerate(values):
            parts[i % 4].observe(float(value))
        for part in parts:
            merged.merge(part)
        single = Histogram("x")
        for value in values:
            single.observe(float(value))
        assert merged.count == single.count == 4000
        assert merged.total == pytest.approx(single.total)
        assert {**merged.state(), "sum": 0.0} == \
            {**single.state(), "sum": 0.0}

    def test_state_roundtrip(self):
        for values in ([], [1.5], [0.0, -2.0],
                       np.linspace(0.1, 5.0, 1034)):
            histogram = Histogram("h", {"app": "mar"})
            histogram.observe_many(values)
            clone = Histogram.from_state(
                json.loads(json.dumps(histogram.state())))
            assert clone.state() == histogram.state()
            assert [clone.percentile(p) for p in (0, 50, 99, 100)] == \
                [histogram.percentile(p) for p in (0, 50, 99, 100)]

    def test_extreme_values_land_in_edge_buckets(self):
        histogram = Histogram("x")
        histogram.observe_many([0.0, 1e-12, 1e15] * 512)
        assert histogram.count == 3 * 512
        state = histogram.state()
        assert state["low"] == 2 * 512 and state["counts"] == [512]
        assert histogram.percentile(0.0) == 0.0
        assert histogram.percentile(100.0) == 1e15

    def test_telemetry_merge(self):
        a, b = Telemetry(), Telemetry()
        a.counter("decisions").inc(10)
        b.counter("decisions").inc(5)
        b.counter("cells").inc()
        a.histogram("lat").observe(1.0)
        b.histogram("lat").observe(3.0)
        a.merge(b)
        assert a.counter("decisions").value == 15
        assert a.counter("cells").value == 1
        assert a.histogram("lat").count == 2
        # the merged-from registry is untouched
        assert b.histogram("lat").count == 1


# ---- fleet specs ------------------------------------------------------


class TestFleetSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="cells"):
            FleetSpec(name="x", cells=0)
        with pytest.raises(ValueError, match="name"):
            FleetSpec(name="")
        with pytest.raises(ValueError, match="slots"):
            FleetSpec(name="x", slots=1)

    def test_default_cycle_is_robustness_matrix(self):
        assert FleetSpec(name="x").scenario_cycle() == ROBUSTNESS_MATRIX

    def test_cell_plans_cycle_and_derive_seeds(self):
        plans = SPEC.cell_plans()
        assert [plan.scenario for plan in plans] == \
            ["default", "bursty", "default", "bursty"]
        assert [plan.cell for plan in plans] == [0, 1, 2, 3]
        seeds = [plan.seed for plan in plans]
        assert len(set(seeds)) == len(seeds)
        # derivation is pure: same fleet seed, same cell seeds
        assert seeds == [derive_cell_seed(5, i) for i in range(4)]
        assert derive_cell_seed(5, 0) != derive_cell_seed(6, 0)

    def test_tagged_json_roundtrip_and_content_key(self):
        decoded = from_jsonable(to_jsonable(SPEC))
        assert decoded == SPEC
        assert content_key(decoded) == content_key(SPEC)
        other = FleetSpec(name="t", cells=5,
                          scenarios=("default", "bursty"),
                          slots=6, seed=5)
        assert content_key(other) != content_key(SPEC)

    def test_cell_scenario_applies_population_and_horizon(self):
        spec = FleetSpec(name="x", cells=1, scenarios=("default",),
                         slices=5, slots=8)
        shaped = spec.cell_scenario(get_scenario("default"))
        cfg = shaped.build_config()
        assert len(cfg.slices) == 5
        assert cfg.traffic.slots_per_episode == 8

    def test_decodes_without_fleet_imported(self):
        """A cache hit can decode a FleetSpec before anything imported
        repro.fleet -- serialization lazily registers it."""
        payload = json.dumps(to_jsonable(SPEC))
        script = (
            "import json, sys\n"
            "from repro.runtime.serialization import from_jsonable\n"
            "assert 'repro.fleet' not in sys.modules\n"
            "spec = from_jsonable(json.loads(sys.argv[1]))\n"
            "assert spec.cells == 4, spec\n"
            "print('ok')\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script, payload],
            capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "ok"


# ---- shards -----------------------------------------------------------


class TestShards:
    def test_round_robin_covers_every_cell_once(self, snapshot, store):
        plans = plan_shards(SPEC, 3, store.directory, snapshot.ref,
                            snapshot.digest)
        assert len(plans) == 3
        cells = sorted(cell.cell for plan in plans
                       for cell in plan.cells)
        assert cells == [0, 1, 2, 3]

    def test_shards_clamped_to_cells(self, snapshot, store):
        plans = plan_shards(SPEC, 99, store.directory, snapshot.ref,
                            snapshot.digest)
        assert len(plans) == SPEC.cells

    def test_dealing_balances_scenarios_across_shards(self, snapshot,
                                                      store):
        """gcd(shards, cycle) > 1 must not hand a shard one scenario
        (a naive cells[i::shards] stride does exactly that)."""
        spec = FleetSpec(name="b", cells=16,
                         scenarios=("default", "bursty"), slots=6,
                         seed=1)
        plans = plan_shards(spec, 2, store.directory, snapshot.ref,
                            snapshot.digest)
        for plan in plans:
            counts: dict = {}
            for cell in plan.cells:
                counts[cell.scenario] = counts.get(cell.scenario,
                                                   0) + 1
            assert counts == {"default": 4, "bursty": 4}, counts

    def test_shard_result_is_deterministic(self, snapshot, store):
        plan = plan_shards(SPEC, 2, store.directory, snapshot.ref,
                           snapshot.digest)[0]
        first = run_fleet_shard(plan, snapshot=snapshot)
        second = run_fleet_shard(plan)    # loads from the store itself
        assert [c.decision_digest for c in first.cells] == \
            [c.decision_digest for c in second.cells]
        assert first.counters["decisions"] == \
            second.counters["decisions"]
        assert first.decisions == sum(c.decisions for c in first.cells)

    def test_shard_rejects_swapped_snapshot(self, snapshot, store):
        plan = plan_shards(SPEC, 1, store.directory, snapshot.ref,
                           "0" * 64)[0]
        with pytest.raises(ValueError, match="changed since"):
            run_fleet_shard(plan)

    def test_shard_rejects_mismatch_on_memoised_snapshot(self, snapshot,
                                                         store):
        """A snapshot handed in with its digest already computed is
        still checked against the plan."""
        assert snapshot.digest                        # memoised here
        plan = plan_shards(SPEC, 1, store.directory, snapshot.ref,
                           "0" * 64)[0]
        with pytest.raises(ValueError, match="changed since"):
            run_fleet_shard(plan, snapshot=snapshot)

    def test_shard_telemetry_is_mergeable_state(self, snapshot, store):
        plan = plan_shards(SPEC, 1, store.directory, snapshot.ref,
                           snapshot.digest)[0]
        result = run_fleet_shard(plan, snapshot=snapshot)
        rebuilt = result.telemetry()
        assert rebuilt.counter("decisions").value == result.decisions
        assert rebuilt.counter("cells").value == SPEC.cells
        # the service observes decision latency once per batch (slot)
        assert rebuilt.histogram("decision_latency_ms").count == \
            rebuilt.counter("batches").value


# ---- coordinator: checkpoints + resume --------------------------------


class TestCoordinator:
    def test_inline_run_hashes_the_snapshot_once(self, snapshot, store,
                                                 tmp_path, monkeypatch):
        """Planning, the checkpoint header, the shard check and the
        report all read ``snapshot.digest``; only the store's
        load-time verification serialises the weights."""
        from repro.serve import policy_store

        hashed = []

        def counting_content_key(payload):
            hashed.append(set(payload))
            return content_key(payload)

        monkeypatch.setattr(policy_store, "content_key",
                            counting_content_key)
        report = run_fleet(SPEC, store.directory, shards=1,
                           checkpoint_path=str(tmp_path / "ck.jsonl"))
        assert hashed == [{"method", "config", "policies"}]
        assert report.snapshot_digest == snapshot.digest

    def test_report_shape(self, snapshot, store):
        report = run_fleet(SPEC, store.directory,
                           snapshot_ref=snapshot.ref)
        assert report.cells == SPEC.cells
        assert report.decisions == 3 * 6 * SPEC.cells
        assert {row.scenario for row in report.scenarios} == \
            {"default", "bursty"}
        assert len(report.outliers) <= 5
        assert report.snapshot_digest == snapshot.digest
        assert report.decisions_per_sec > 0

    def test_empty_store_raises(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            run_fleet(SPEC, str(tmp_path / "nope"))

    def test_digest_invariant_to_sharding(self, snapshot, store):
        inline = run_fleet(SPEC, store.directory,
                           snapshot_ref=snapshot.ref, shards=1)
        sharded = run_fleet(SPEC, store.directory,
                            snapshot_ref=snapshot.ref, shards=2)
        assert inline.digest == sharded.digest
        assert inline.decisions == sharded.decisions

    def test_checkpoint_roundtrip(self, snapshot, store, tmp_path):
        path = str(tmp_path / "fleet.jsonl")
        live = run_fleet(SPEC, store.directory,
                         snapshot_ref=snapshot.ref, shards=2,
                         checkpoint_path=path)
        checkpoint = load_checkpoint(path)
        assert checkpoint.complete
        assert checkpoint.spec == SPEC
        assert checkpoint.snapshot_digest == snapshot.digest
        rebuilt = report_from_checkpoint(path)
        assert rebuilt.digest == live.digest
        assert rebuilt.decisions == live.decisions

    @pytest.mark.parametrize("field", [
        "result", "spec", "spec_key", "scenario_key", "snapshot_ref",
        "snapshot_digest", "shards"])
    def test_checkpoint_missing_field_names_line_and_field(
            self, snapshot, store, tmp_path, capsys, field):
        """A header without one of its fields, or a shard row without
        its result, is a ``ValueError`` naming ``path:lineno`` and the
        field -- a one-line exit from ``fleet report`` and ``obs
        diagnose``, not a ``KeyError`` traceback."""
        path = str(tmp_path / "fleet.jsonl")
        run_fleet(SPEC, store.directory, snapshot_ref=snapshot.ref,
                  shards=2, checkpoint_path=path)
        with open(path, encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh]
        lineno = 2 if field == "result" else 1
        del rows[lineno - 1][field]
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(row) + "\n" for row in rows)
        message = f"{re.escape(path)}:{lineno}: .* no '{field}'"
        with pytest.raises(ValueError, match=message):
            load_checkpoint(path)
        with pytest.raises(SystemExit, match=message):
            main(["fleet", "report", "--checkpoint", path])
        assert main(["obs", "diagnose", path]) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("where, field", [
        ("result", "cells"), ("spec", "cells"), ("shards", None)])
    def test_checkpoint_field_that_does_not_rebuild_names_it(
            self, snapshot, store, tmp_path, capsys, where, field):
        """A field renamed inside a shard's ``result`` or the header's
        ``spec``, or a null ``shards``, used to escape as a
        ``TypeError`` traceback from ``fleet report`` and ``obs
        diagnose``; it is a ``ValueError`` naming ``path:lineno`` and
        the field, so both exit on one line."""
        path = str(tmp_path / "fleet.jsonl")
        run_fleet(SPEC, store.directory, snapshot_ref=snapshot.ref,
                  shards=2, checkpoint_path=path)
        with open(path, encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh]
        lineno = 2 if where == "result" else 1
        if field is None:
            rows[0][where] = None
            named = "'shards'"
        else:
            fields = rows[lineno - 1][where]["fields"]
            fields[field + "x"] = fields.pop(field)
            named = f"'{where}'.*'{field}x'"
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(row) + "\n" for row in rows)
        message = f"{re.escape(path)}:{lineno}: .*{named}"
        with pytest.raises(ValueError, match=message):
            load_checkpoint(path)
        with pytest.raises(SystemExit, match=message):
            main(["fleet", "report", "--checkpoint", path])
        assert main(["obs", "diagnose", path]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_kill_and_resume_reproduces_digest(self, snapshot, store,
                                               tmp_path):
        """The acceptance-criteria scenario: a run killed after one
        shard, resumed, must reproduce the uninterrupted digest."""
        full_path = str(tmp_path / "full.jsonl")
        full = run_fleet(SPEC, store.directory,
                         snapshot_ref=snapshot.ref, shards=2,
                         checkpoint_path=full_path)
        partial_path = str(tmp_path / "partial.jsonl")
        run_fleet(SPEC, store.directory, snapshot_ref=snapshot.ref,
                  shards=2, checkpoint_path=partial_path)
        lines = open(partial_path).read().splitlines()
        # simulate the kill: header + first shard survive, plus a
        # torn half-written line the parser must tolerate
        with open(partial_path, "w") as fh:
            fh.write("\n".join(lines[:2]) + "\n")
            fh.write(lines[2][:len(lines[2]) // 2])
        events = []
        resumed = run_fleet(SPEC, store.directory,
                            snapshot_ref=snapshot.ref, shards=2,
                            checkpoint_path=partial_path, resume=True,
                            progress=events.append)
        assert resumed.digest == full.digest
        assert any("resuming: 1/2" in line for line in events)
        # and the resumed checkpoint is now complete on disk
        assert load_checkpoint(partial_path).complete

    def test_overwrite_guard_protects_resumable_progress(
            self, snapshot, store, tmp_path):
        """Re-running the same campaign against an existing checkpoint
        without --resume must refuse, not clobber completed shards;
        a *different* campaign may overwrite freely."""
        path = str(tmp_path / "fleet.jsonl")
        run_fleet(SPEC, store.directory, snapshot_ref=snapshot.ref,
                  shards=2, checkpoint_path=path)
        with pytest.raises(ValueError, match="pass --resume"):
            run_fleet(SPEC, store.directory,
                      snapshot_ref=snapshot.ref, shards=2,
                      checkpoint_path=path)
        other = FleetSpec(name="t2", cells=2, scenarios=("default",),
                          slots=6, seed=5)
        report = run_fleet(other, store.directory,
                           snapshot_ref=snapshot.ref,
                           checkpoint_path=path)
        assert load_checkpoint(path).spec == other
        assert report.cells == 2

    def test_resume_rejects_mismatched_spec(self, snapshot, store,
                                            tmp_path):
        path = str(tmp_path / "fleet.jsonl")
        run_fleet(SPEC, store.directory, snapshot_ref=snapshot.ref,
                  checkpoint_path=path)
        other = FleetSpec(name="t", cells=6,
                          scenarios=("default", "bursty"),
                          slots=6, seed=5)
        with pytest.raises(ValueError, match="different fleet spec"):
            run_fleet(other, store.directory,
                      snapshot_ref=snapshot.ref,
                      checkpoint_path=path, resume=True)

    def test_resume_rejects_another_snapshot(self, snapshot, store,
                                             other_snapshot, tmp_path):
        """Resuming a checkpoint written for another snapshot raises,
        naming both digests."""
        other_store, other = other_snapshot
        assert other.digest != snapshot.digest
        path = str(tmp_path / "fleet.jsonl")
        run_fleet(SPEC, store.directory, snapshot_ref=snapshot.ref,
                  shards=2, checkpoint_path=path)
        message = (f"pins snapshot digest {snapshot.digest[:12]}, but "
                   f"{re.escape(other.ref)} has {other.digest[:12]}")
        with pytest.raises(ValueError, match=message):
            run_fleet(SPEC, other_store.directory,
                      snapshot_ref=other.ref, shards=2,
                      checkpoint_path=path, resume=True)

    def test_another_snapshot_overwrites_without_resume(
            self, snapshot, store, other_snapshot, tmp_path):
        """Without --resume, a campaign over another snapshot's
        checkpoint is another campaign: it overwrites the file rather
        than refusing."""
        other_store, other = other_snapshot
        path = str(tmp_path / "fleet.jsonl")
        run_fleet(SPEC, store.directory, snapshot_ref=snapshot.ref,
                  shards=2, checkpoint_path=path)
        report = run_fleet(SPEC, other_store.directory,
                           snapshot_ref=other.ref, shards=2,
                           checkpoint_path=path)
        checkpoint = load_checkpoint(path)
        assert checkpoint.complete
        assert checkpoint.snapshot_digest == report.snapshot_digest \
            == other.digest

    def test_resume_rejects_mismatched_shards(self, snapshot, store,
                                              tmp_path):
        path = str(tmp_path / "fleet.jsonl")
        run_fleet(SPEC, store.directory, snapshot_ref=snapshot.ref,
                  shards=2, checkpoint_path=path)
        with pytest.raises(ValueError, match="--shards 2"):
            run_fleet(SPEC, store.directory,
                      snapshot_ref=snapshot.ref, shards=4,
                      checkpoint_path=path, resume=True)

    def test_resume_rejects_edited_scenario_definition(
            self, snapshot, store, tmp_path):
        """The checkpoint pins resolved scenario *definitions*, not
        just names: editing a registered scenario between kill and
        resume must fail loudly, never mix workloads silently."""
        import dataclasses

        from repro import scenarios as sc
        from repro.config import TrafficConfig

        base = sc.ScenarioSpec(
            name="fleet_editable",
            traffic_cfg=TrafficConfig(slots_per_episode=6))
        sc.register(base)
        try:
            spec = FleetSpec(name="e", cells=2,
                             scenarios=("fleet_editable",), seed=5)
            path = str(tmp_path / "fleet.jsonl")
            run_fleet(spec, store.directory,
                      snapshot_ref=snapshot.ref, checkpoint_path=path)
            sc.register(dataclasses.replace(
                base, traffic_cfg=TrafficConfig(slots_per_episode=8)),
                replace=True)
            with pytest.raises(ValueError,
                               match="scenario .definitions"):
                run_fleet(spec, store.directory,
                          snapshot_ref=snapshot.ref,
                          checkpoint_path=path, resume=True)
        finally:
            sc.unregister("fleet_editable")

    def test_resumed_throughput_counts_replayed_time(
            self, snapshot, store, tmp_path):
        """Replayed shards contribute their recorded elapsed time, so
        resume never inflates decisions/sec."""
        path = str(tmp_path / "fleet.jsonl")
        run_fleet(SPEC, store.directory, snapshot_ref=snapshot.ref,
                  shards=2, checkpoint_path=path)
        lines = open(path).read().splitlines()
        open(path, "w").write("\n".join(lines[:2]) + "\n")
        replayed = load_checkpoint(path)
        recorded = sum(r.elapsed_s
                       for r in replayed.results.values())
        resumed = run_fleet(SPEC, store.directory,
                            snapshot_ref=snapshot.ref, shards=2,
                            checkpoint_path=path, resume=True)
        assert resumed.wall_time_s >= recorded


# ---- fleet experiment units ------------------------------------------


class TestFleetUnits:
    def test_unit_executes_to_report(self, snapshot, store):
        unit = make_fleet_unit(SPEC, store=store.directory,
                               snapshot=snapshot.ref,
                               digest=snapshot.digest)
        report = execute_unit(unit)
        assert report.cells == SPEC.cells
        direct = run_fleet(SPEC, store.directory,
                           snapshot_ref=snapshot.ref)
        assert report.digest == direct.digest

    def test_unit_rejects_unknown_scenario(self, snapshot, store):
        spec = FleetSpec(name="x", scenarios=("no_such_scenario",))
        with pytest.raises(ValueError, match="unknown scenario"):
            make_fleet_unit(spec, store=store.directory,
                            snapshot=snapshot.ref,
                            digest=snapshot.digest)

    def test_make_unit_refuses_fleet_method(self):
        from repro.runtime.units import make_unit

        with pytest.raises(ValueError, match="make_fleet_unit"):
            make_unit("fleet")

    def test_unit_carries_user_registered_scenarios(self, snapshot,
                                                    store):
        """The unit must execute where the registration never
        happened (a spawn/forkserver worker) -- the resolved cycle
        travels in its params."""
        from repro import scenarios as sc
        from repro.config import TrafficConfig

        sc.register(sc.ScenarioSpec(
            name="fleet_custom_scenario",
            traffic_cfg=TrafficConfig(slots_per_episode=6)))
        try:
            spec = FleetSpec(name="c", cells=2,
                             scenarios=("fleet_custom_scenario",),
                             seed=5)
            unit = make_fleet_unit(spec, store=store.directory,
                                   snapshot=snapshot.ref,
                                   digest=snapshot.digest)
        finally:
            sc.unregister("fleet_custom_scenario")
        report = execute_unit(unit)   # registry no longer knows it
        assert report.cells == 2
        assert report.scenarios[0].scenario == "fleet_custom_scenario"

    def test_unit_rejects_stale_digest(self, snapshot, store):
        unit = make_fleet_unit(SPEC, store=store.directory,
                               snapshot=snapshot.ref, digest="0" * 64)
        with pytest.raises(ValueError, match="changed since"):
            execute_unit(unit)

    def test_cache_key_tracks_spec_and_digest(self, snapshot, store):
        unit = make_fleet_unit(SPEC, store=store.directory,
                               snapshot=snapshot.ref,
                               digest=snapshot.digest)
        same = make_fleet_unit(SPEC, store=store.directory,
                               snapshot=snapshot.ref,
                               digest=snapshot.digest)
        assert unit_cache_key(unit) == unit_cache_key(same)
        bigger = make_fleet_unit(
            FleetSpec(name="t", cells=5,
                      scenarios=("default", "bursty"), slots=6,
                      seed=5),
            store=store.directory, snapshot=snapshot.ref,
            digest=snapshot.digest)
        assert unit_cache_key(bigger) != unit_cache_key(unit)
        swapped = make_fleet_unit(SPEC, store=store.directory,
                                  snapshot=snapshot.ref,
                                  digest="0" * 64)
        assert unit_cache_key(swapped) != unit_cache_key(unit)

    def test_seed_override_rewrites_campaign(self, snapshot, store):
        unit = make_fleet_unit(SPEC, store=store.directory,
                               snapshot=snapshot.ref,
                               digest=snapshot.digest)
        assert unit.seed == SPEC.seed
        runner = ParallelRunner(use_cache=False, seed_override=99)
        report = runner.run_unit(unit)
        assert report.spec.seed == 99

    def test_report_cached_roundtrip(self, snapshot, store, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        unit = make_fleet_unit(SPEC, store=store.directory,
                               snapshot=snapshot.ref,
                               digest=snapshot.digest)
        first = ParallelRunner(cache=cache).run_unit(unit)
        warm_cache = ResultCache(str(tmp_path / "cache"))
        warm = ParallelRunner(cache=warm_cache)
        second = warm.run_unit(unit)
        assert warm.summary.cache_hits == 1
        assert second.digest == first.digest
        assert second.scenarios == first.scenarios


# ---- fleet_sweep artefact --------------------------------------------


def test_fleet_sweep_rows(snapshot, store):
    runner = ParallelRunner(use_cache=False)
    rows = fleet_sweep(scale=0.05, runner=runner,
                       store_dir=store.directory,
                       snapshot=snapshot.ref, cells=(40, 60))
    assert set(rows) == {"2_cells", "3_cells"}
    for row in rows.values():
        assert row["decisions"] > 0
        assert "method" in row and "digest" in row


# ---- CLI surface ------------------------------------------------------


class TestFleetCLI:
    def test_fleet_run_json(self, snapshot, store, capsys):
        code = main(["fleet", "run", "--cells", "2", "--scenarios",
                     "default", "--slots", "6", "--shards", "1",
                     "--snapshot", snapshot.ref, "--store-dir",
                     store.directory, "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["complete"] is True
        assert payload["report"]["cells"] == 2
        assert payload["scenarios"][0]["scenario"] == "default"

    def test_fleet_run_then_report(self, snapshot, store, tmp_path,
                                   capsys):
        path = str(tmp_path / "ck.jsonl")
        code = main(["fleet", "run", "--cells", "2", "--scenarios",
                     "default", "--slots", "6", "--shards", "1",
                     "--snapshot", snapshot.ref, "--store-dir",
                     store.directory, "--checkpoint", path, "--json"])
        assert code == 0
        run_digest = json.loads(
            capsys.readouterr().out)["report"]["digest"]
        code = main(["fleet", "report", "--checkpoint", path,
                     "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["digest"] == run_digest

    def test_fleet_run_text_report(self, snapshot, store, capsys):
        code = main(["fleet", "run", "--cells", "2", "--scenarios",
                     "default,bursty", "--slots", "6", "--shards", "1",
                     "--snapshot", snapshot.ref, "--store-dir",
                     store.directory])
        assert code == 0
        out = capsys.readouterr().out
        assert "per-scenario SLA" in out
        assert "report digest" in out

    def test_fleet_run_rejects_unknown_scenario(self, store):
        with pytest.raises(SystemExit, match="unknown scenario"):
            main(["fleet", "run", "--scenarios", "nope",
                  "--store-dir", store.directory])

    def test_fleet_resume_requires_checkpoint(self, store):
        with pytest.raises(SystemExit, match="needs --checkpoint"):
            main(["fleet", "run", "--cells", "2", "--resume",
                  "--store-dir", store.directory])

    def test_fleet_report_missing_checkpoint_is_clean(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read checkpoint"):
            main(["fleet", "report", "--checkpoint",
                  str(tmp_path / "nope.jsonl")])

    def test_fleet_report_non_fleet_file_is_clean(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_text('{"kind": "other"}\n')
        with pytest.raises(SystemExit, match="not a fleet checkpoint"):
            main(["fleet", "report", "--checkpoint", str(path)])

    def test_fleet_run_rejects_empty_scenarios_value(self, store):
        with pytest.raises(SystemExit, match="names no scenario"):
            main(["fleet", "run", "--scenarios", ",",
                  "--store-dir", store.directory])

    def test_fleet_run_unwritable_checkpoint_is_clean(self, snapshot,
                                                      store, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        with pytest.raises(SystemExit,
                           match="checkpoint I/O failed"):
            main(["fleet", "run", "--cells", "2", "--scenarios",
                  "default", "--slots", "6", "--shards", "1",
                  "--snapshot", snapshot.ref, "--store-dir",
                  store.directory, "--checkpoint",
                  str(blocker / "ck.jsonl")])

    def test_run_artefact_lists_fleet_sweep(self, capsys):
        assert main(["list"]) == 0
        assert "fleet_sweep" in capsys.readouterr().out


# ---- default_workers (satellite) --------------------------------------


def test_default_workers_respects_affinity(monkeypatch):
    import os as os_module

    if hasattr(os_module, "sched_getaffinity"):
        monkeypatch.setattr(os_module, "sched_getaffinity",
                            lambda pid: set(range(6)))
        assert default_workers() == 5
    monkeypatch.delattr(os_module, "sched_getaffinity",
                        raising=False)
    monkeypatch.setattr(os_module, "cpu_count", lambda: 4)
    assert default_workers() == 3
