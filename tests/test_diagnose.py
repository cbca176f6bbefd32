"""Tests: the root-cause attribution engine and its CLI surface.

The golden suite pins the :class:`DiagnosisReport` digest produced
from the deterministic ``snapshot_onrl(seed=11)`` fixture the same way
``tests/test_slo.py`` pins the incident-timeline digest -- and then
requires that exact digest from every shard count, merge order and a
checkpoint-resume path, which is the determinism contract the module
docstring promises.
"""

import json
import os
from types import SimpleNamespace

import pytest

from repro.experiments.harness import make_onrl_agents
from repro.fleet import (
    FleetSpec,
    load_checkpoint,
    plan_shards,
    run_fleet,
    run_fleet_shard,
)
from repro.obs.diagnose import (
    DiagnosisReport,
    Hypothesis,
    diagnose_fleet,
    diagnose_telemetry,
    final_incidents,
    format_report,
    make_event_hook,
    rank_hypotheses,
    replay_shards,
    worst_cells,
)
from repro.obs.metrics import Telemetry
from repro.obs.slo import SloEvaluator, SloObjective, SloSpec
from repro.runtime.cli import main
from repro.runtime.serialization import from_jsonable, to_jsonable
from repro.scenarios import get as get_scenario
from repro.serve import PolicyStore, snapshot_onrl

#: Same mixed degraded/healthy campaign as tests/test_slo.py: cells 0
#: and 2 run the sustained ``transport_brownout``, 1 and 3 the healthy
#: default scenario.
SPEC = FleetSpec(name="slo-t", cells=4,
                 scenarios=("transport_brownout", "default"),
                 slots=8, seed=5)

LATENCY_SPEC = SloSpec(name="lat-160", objectives=(
    SloObjective(name="slice-latency-p99", kind="latency",
                 instrument="slice_latency_ms", budget_ms=160.0,
                 fast_window=1.0, slow_window=3.0),))

#: The diagnosis digest of SPEC under LATENCY_SPEC with the module's
#: seed-11 snapshot -- pinned like a golden trace digest, and required
#: verbatim from every shard count below.  Re-pinned once when policy
#: snapshots moved to binary array records (store format 2): the
#: snapshot content digest changed with the canonical JSON it hashes,
#: and the report embeds it (``snapshot_digest`` and the snapshot
#: hypothesis's label and evidence); decisions, incidents, events and
#: the timeline digest did not move.
PINNED_DIAGNOSIS_DIGEST = \
    "7404ce1e672260e0707d6c35eb678c3c4e01841bb015a9fe4d9626777baa35a0"


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("diag_store"))
    store = PolicyStore(directory)
    cfg = get_scenario("default").build_config()
    store.save(snapshot_onrl("fleet-test", cfg,
                             make_onrl_agents(cfg, seed=11), seed=11))
    return store


@pytest.fixture(scope="module")
def snapshot(store):
    return store.load("fleet-test")


def run_shards(store, snapshot, shards):
    plans = plan_shards(SPEC, shards, store.directory, snapshot.ref,
                        snapshot.digest)
    return tuple(run_fleet_shard(plan, snapshot) for plan in plans)


def diagnose(results, snapshot):
    return diagnose_fleet(results, LATENCY_SPEC, fleet=SPEC.name,
                          snapshot_ref=snapshot.ref,
                          snapshot_digest=snapshot.digest)


@pytest.fixture(scope="module")
def report(store, snapshot):
    """The four-shard diagnosis every golden test judges."""
    return diagnose(run_shards(store, snapshot, 4), snapshot)


# ---- the determinism contract ----------------------------------------


class TestDigestContract:
    def test_pinned_digest(self, report):
        assert report.digest() == PINNED_DIAGNOSIS_DIGEST

    @pytest.mark.parametrize("shards", [1, 2])
    def test_digest_is_shard_count_invariant(self, store, snapshot,
                                             shards):
        results = run_shards(store, snapshot, shards)
        assert diagnose(results, snapshot).digest() == \
            PINNED_DIAGNOSIS_DIGEST

    def test_digest_is_merge_order_invariant(self, store, snapshot):
        results = run_shards(store, snapshot, 4)
        assert diagnose(tuple(reversed(results)), snapshot).digest() \
            == PINNED_DIAGNOSIS_DIGEST

    def test_digest_survives_checkpoint_resume(self, store, snapshot,
                                               tmp_path):
        """A checkpoint truncated mid-campaign and resumed diagnoses
        to the same digest as the uninterrupted run."""
        checkpoint = str(tmp_path / "fleet.jsonl")
        run_fleet(SPEC, store.directory, snapshot_ref=snapshot.ref,
                  shards=4, checkpoint_path=checkpoint,
                  snapshot=snapshot)
        with open(checkpoint, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        truncated = str(tmp_path / "truncated.jsonl")
        with open(truncated, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines[:3]) + "\n")
        run_fleet(SPEC, store.directory, snapshot_ref=snapshot.ref,
                  shards=4, checkpoint_path=truncated, resume=True,
                  snapshot=snapshot)
        for path in (checkpoint, truncated):
            results = load_checkpoint(path).results.values()
            assert diagnose(results, snapshot).digest() == \
                PINNED_DIAGNOSIS_DIGEST

    def test_digest_ignores_volatile_fields(self, report):
        """Anomaly points, episodes and the timeline digest are
        display payload: replacing them must not move the digest."""
        import dataclasses

        stripped = dataclasses.replace(
            report, anomalies=(), episodes=(), timeline_digest="",
            events=())
        assert stripped.digest() == report.digest()

    def test_digest_scrubs_wall_evidence(self, report):
        """Wall-clock evidence sub-dicts are digest-excluded, so the
        stage hypothesis can carry real timings without unpinning."""
        import dataclasses

        rewritten = []
        for hypothesis in report.hypotheses:
            evidence = tuple(
                {**row, "wall": {"mean_ms": 1e9}} if "wall" in row
                else row
                for row in hypothesis.evidence)
            rewritten.append(dataclasses.replace(
                hypothesis, evidence=evidence))
        assert dataclasses.replace(
            report, hypotheses=tuple(rewritten)).digest() == \
            report.digest()

    def test_digest_covers_the_identity_header(self, report):
        import dataclasses

        assert dataclasses.replace(report, fleet="other").digest() \
            != report.digest()

    def test_roundtrips_through_tagged_json(self, report):
        """The report ships as a tagged-JSON artifact; the round trip
        must preserve the digest bit for bit."""
        back = from_jsonable(json.loads(json.dumps(
            to_jsonable(report))))
        assert isinstance(back, DiagnosisReport)
        assert back.digest() == report.digest()
        assert back.hypotheses[0] == report.hypotheses[0]


# ---- what the diagnosis says -----------------------------------------


class TestAttribution:
    def test_top_hypothesis_is_the_injected_event(self, report):
        """The acceptance bar: on transport_brownout the engine must
        rank the injected transport event first."""
        top = report.hypotheses[0]
        assert top.kind == "event"
        assert "latency_surge" in top.label
        assert "transport_brownout" in top.label
        assert top.incident == "slice-latency-p99"
        assert top.score > max(
            (h.score for h in report.hypotheses[1:]), default=0.0)
        evidence = top.evidence[0]
        assert evidence["kind"] == "scenario-event"
        assert evidence["params"] == {"extra_latency_ms": 60.0}
        # every evidence cell belongs to the carrying scenario
        assert all(row["scenario"] == "transport_brownout"
                   for row in top.evidence if row["kind"] == "cell")

    def test_incidents_judge_the_final_cumulative_state(self, report):
        assert [row["objective"] for row in report.incidents] == \
            ["slice-latency-p99"]
        row = report.incidents[0]
        assert row["severity"] == "page"
        assert row["burn"] == pytest.approx(row["value"] / 0.01)

    def test_events_resolved_per_scenario(self, report):
        surge = [row for row in report.events
                 if row["scenario"] == "transport_brownout"]
        assert [row["kind"] for row in surge] == ["latency_surge"]
        # at 8 slots, the 25%..75% brownout window is slots 2..6
        assert (surge[0]["start_slot"], surge[0]["end_slot"]) == (2, 6)
        assert not [row for row in report.events
                    if row["scenario"] == "default"]

    def test_episodes_summarise_the_replay_timeline(self, report):
        assert len(report.episodes) == 1
        episode = report.episodes[0]
        assert episode["objective"] == "slice-latency-p99"
        assert episode["severity"] == "page"
        # at four shards the brownout pages on the first merge and
        # resolves as the healthy cells dilute the window -- exactly
        # why episodes are display payload, not digest material
        assert episode["resolved"]
        assert episode["records"] == 2

    def test_format_report_renders_the_ranked_list(self, report):
        text = format_report(report, top=2)
        assert "diagnosis -- slo-t [slo lat-160]" in text
        assert "1 breached objective(s)" in text
        assert "top hypotheses (2 of" in text
        assert "event:latency_surge@slots 2-6" in text
        assert report.digest() in text

    def test_healthy_campaign_diagnoses_nothing(self, store,
                                                snapshot):
        """A generous budget produces no incidents and therefore no
        hypotheses -- the engine never invents a culprit."""
        generous = SloSpec(name="lat-10s", objectives=(
            SloObjective(name="lat", kind="latency",
                         instrument="slice_latency_ms",
                         budget_ms=10_000.0, fast_window=1.0,
                         slow_window=3.0),))
        results = run_shards(store, snapshot, 1)
        report = diagnose_fleet(results, generous, fleet=SPEC.name)
        assert report.incidents == ()
        assert report.hypotheses == ()
        assert "nothing to diagnose" in format_report(report)


# ---- engine pieces ---------------------------------------------------


def cell(index, scenario, violation, fallbacks=0):
    return SimpleNamespace(cell=index, scenario=scenario,
                           violation_rate=violation,
                           fallbacks=fallbacks)


class TestEnginePieces:
    def test_worst_cells_orders_and_bounds(self):
        cells = [cell(0, "a", 0.1), cell(1, "b", 0.5),
                 cell(2, "a", 0.5), cell(3, "b", 0.0)]
        rows = worst_cells(cells, limit=3)
        assert [row["cell"] for row in rows] == [1, 2, 0]
        assert rows[0] == {"cell": 1, "scenario": "b",
                           "violation_rate": 0.5, "fallbacks": 0}

    def test_event_hook_dedupes_scenarios(self):
        hook = make_event_hook({"brown": ({"kind": "latency_surge",
                                           "start_slot": 2,
                                           "end_slot": 6},)})
        record = {"attribution": [{"cell": 0, "scenario": "brown"},
                                  {"cell": 2, "scenario": "brown"},
                                  {"cell": 1, "scenario": "calm"}]}
        rows = hook(None, record)
        assert rows == [{"scenario": "brown",
                         "event": "latency_surge",
                         "start_slot": 2, "end_slot": 6}]

    def test_rank_hypotheses_breaks_ties_by_kind_order(self):
        tied = [
            Hypothesis(incident="x", kind="stage", label="s",
                       score=0.5),
            Hypothesis(incident="x", kind="event", label="e",
                       score=0.5),
            Hypothesis(incident="x", kind="fallback", label="f",
                       score=0.5),
            Hypothesis(incident="x", kind="event", label="a",
                       score=0.9),
        ]
        ranked = rank_hypotheses(tied)
        assert [h.label for h in ranked] == ["a", "e", "f", "s"]

    def test_final_incidents_skips_healthy_and_idle(self):
        spec = SloSpec(name="s", objectives=(
            SloObjective(name="fb", kind="ratio",
                         instrument="fallbacks", total="decisions",
                         ceiling=0.05, fast_window=1.0,
                         slow_window=2.0),
            SloObjective(name="idle", kind="ratio",
                         instrument="nothing", total="nope",
                         ceiling=0.05, fast_window=1.0,
                         slow_window=2.0),))
        telemetry = Telemetry()
        telemetry.counter("decisions").inc(100.0)
        telemetry.counter("fallbacks").inc(1.0)   # burn 0.2: healthy
        assert final_incidents(spec, telemetry) == []
        telemetry.counter("fallbacks").inc(79.0)  # burn 16: page
        rows = final_incidents(spec, telemetry)
        assert [row["objective"] for row in rows] == ["fb"]
        assert rows[0]["severity"] == "page"

    def test_replay_shards_sorts_by_shard_index(self, store,
                                                snapshot):
        results = run_shards(store, snapshot, 4)
        evaluator = replay_shards(reversed(results),
                                  slo=LATENCY_SPEC).evaluator
        reference = replay_shards(results, slo=LATENCY_SPEC).evaluator
        assert evaluator.timeline.digest() == \
            reference.timeline.digest()

    def test_replay_tolerates_eventless_results(self):
        """Pre-event-capture checkpoints (no ``.events``) replay
        cleanly -- they just contribute no event rows."""
        telemetry = Telemetry()
        telemetry.counter("decisions").inc(4.0)
        legacy = SimpleNamespace(
            shard=0, cells=[cell(0, "default", 0.0)],
            telemetry=lambda: telemetry)
        state = replay_shards([legacy])
        assert state.events == {}
        assert state.cells[0].cell == 0


# ---- telemetry-export mode -------------------------------------------


RATIO_SPEC = SloSpec(name="fb", objectives=(
    SloObjective(name="fallback-rate", kind="ratio",
                 instrument="fallbacks", total="decisions",
                 ceiling=0.01, fast_window=1.0, slow_window=2.0),))

EXPORT_ROWS = [
    {"metric": "decisions", "type": "counter", "value": 100.0},
    {"metric": "fallbacks", "type": "counter", "value": 30.0},
    {"metric": "fallbacks", "type": "counter",
     "labels": {"cause": "eq8"}, "value": 25.0},
    {"metric": "fallbacks", "type": "counter",
     "labels": {"cause": "latched"}, "value": 5.0},
]


class TestTelemetryMode:
    def test_diagnoses_a_fallback_storm_from_counters(self):
        report = diagnose_telemetry(EXPORT_ROWS, RATIO_SPEC,
                                    label="svc")
        assert report.mode == "telemetry"
        assert report.incidents[0]["severity"] == "page"
        top = report.hypotheses[0]
        assert top.kind == "fallback"
        assert top.score == pytest.approx(0.9)
        causes = {row["instrument"]: row["value"]
                  for row in top.evidence
                  if row["kind"] == "counter" and "{" in
                  row["instrument"]}
        assert causes == {'fallbacks{cause="eq8"}': 25.0,
                          'fallbacks{cause="latched"}': 5.0}

    def test_digest_is_row_order_invariant(self):
        forward = diagnose_telemetry(EXPORT_ROWS, RATIO_SPEC)
        backward = diagnose_telemetry(list(reversed(EXPORT_ROWS)),
                                      RATIO_SPEC)
        assert forward.digest() == backward.digest()


# ---- CLI surface -----------------------------------------------------


class TestCliSurface:
    @pytest.fixture(scope="class")
    def artifacts(self, store, tmp_path_factory):
        """CLI fleet runs of the same campaign at 1 and 2 shards,
        plus a healthy default-only incumbent for slo-compare."""
        directory = tmp_path_factory.mktemp("diag_cli")
        spec_file = str(directory / "spec.json")
        with open(spec_file, "w", encoding="utf-8") as fh:
            json.dump(to_jsonable(LATENCY_SPEC), fh)
        checkpoints = {}
        for shards in (1, 2):
            checkpoints[shards] = str(
                directory / f"fleet-{shards}.jsonl")
            assert main(["fleet", "run", "--cells", "4",
                         "--shards", str(shards),
                         "--scenarios", "transport_brownout,default",
                         "--slots", "8", "--seed", "5",
                         "--store-dir", store.directory,
                         "--checkpoint", checkpoints[shards]]) == 0
        healthy = str(directory / "healthy.jsonl")
        assert main(["fleet", "run", "--cells", "4", "--shards", "1",
                     "--scenarios", "default", "--slots", "8",
                     "--seed", "5", "--store-dir", store.directory,
                     "--checkpoint", healthy]) == 0
        return {"spec": spec_file, "checkpoints": checkpoints,
                "healthy": healthy}

    def diagnose_json(self, artifacts, path, capsys):
        assert main(["obs", "diagnose", path, "--slo",
                     artifacts["spec"], "--json"]) == 0
        return json.loads(capsys.readouterr().out)

    def test_diagnose_renders_the_event_hypothesis(self, artifacts,
                                                   capsys):
        assert main(["obs", "diagnose",
                     artifacts["checkpoints"][2], "--slo",
                     artifacts["spec"], "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "event:latency_surge@slots 2-6" in out
        assert "slice-latency-p99 [page" in out
        assert "diagnosis digest" in out

    def test_json_digest_matches_across_shard_counts(self, artifacts,
                                                     capsys):
        payloads = {
            shards: self.diagnose_json(artifacts, path, capsys)
            for shards, path in artifacts["checkpoints"].items()}
        assert payloads[1]["digest"] == payloads[2]["digest"]
        top = from_jsonable(payloads[2]["report"]).hypotheses[0]
        assert top.kind == "event"
        assert "latency_surge" in top.label

    def test_incident_filter(self, artifacts, capsys):
        assert main(["obs", "diagnose", artifacts["checkpoints"][1],
                     "--slo", artifacts["spec"],
                     "--incident", "slice-latency-p99"]) == 0
        assert "slice-latency-p99" in capsys.readouterr().out
        assert main(["obs", "diagnose", artifacts["checkpoints"][1],
                     "--slo", artifacts["spec"],
                     "--incident", "nope"]) == 2
        err = capsys.readouterr().err
        assert "no breach to diagnose" in err

    def test_missing_path_is_friendly(self, tmp_path):
        assert main(["obs", "diagnose",
                     str(tmp_path / "nowhere.jsonl")]) == 2

    def test_diagnose_reads_telemetry_exports(self, artifacts,
                                              tmp_path, capsys):
        exports = tmp_path / "telemetry"
        exports.mkdir()
        with open(exports / "svc.jsonl", "w", encoding="utf-8") as fh:
            for row in EXPORT_ROWS:
                fh.write(json.dumps(row) + "\n")
        spec_file = str(tmp_path / "ratio.json")
        with open(spec_file, "w", encoding="utf-8") as fh:
            json.dump(to_jsonable(RATIO_SPEC), fh)
        assert main(["obs", "diagnose", str(exports),
                     "--slo", spec_file]) == 0
        assert "fallback:eq8" in capsys.readouterr().out

    def test_fleet_run_diagnose_requires_checkpoint(self, store):
        with pytest.raises(SystemExit,
                           match="--diagnose needs --checkpoint"):
            main(["fleet", "run", "--cells", "2",
                  "--store-dir", store.directory, "--diagnose"])

    def test_fleet_run_diagnose_attaches_the_report(self, store,
                                                    artifacts,
                                                    tmp_path, capsys):
        checkpoint = str(tmp_path / "fleet.jsonl")
        assert main(["fleet", "run", "--cells", "2", "--shards", "1",
                     "--scenarios", "transport_brownout",
                     "--slots", "8", "--seed", "5",
                     "--store-dir", store.directory,
                     "--checkpoint", checkpoint,
                     "--slo", artifacts["spec"],
                     "--diagnose", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        report = from_jsonable(payload["diagnosis"]["report"])
        assert payload["diagnosis"]["digest"] == report.digest()
        assert report.hypotheses[0].kind == "event"

    def test_watch_checkpoint_shows_the_anomalies_pane(
            self, artifacts, capsys):
        assert main(["obs", "watch", "--checkpoint",
                     artifacts["checkpoints"][2], "--slo",
                     artifacts["spec"], "--once"]) == 0
        out = capsys.readouterr().out
        assert "anomal" in out          # pane present either way
        assert "latency_surge@slots 2-6" in out

    def test_watch_missing_telemetry_dir_is_friendly(self, tmp_path,
                                                     capsys):
        assert main(["obs", "watch", "--once", "--telemetry-dir",
                     str(tmp_path / "nowhere")]) == 2
        assert "no telemetry exports" in capsys.readouterr().err

    def test_slo_compare_passes_selfsame(self, artifacts, capsys):
        checkpoint = artifacts["checkpoints"][1]
        assert main(["obs", "slo-compare", checkpoint, checkpoint,
                     "--slo", artifacts["spec"]]) == 0
        assert "candidate verdict: pass" in capsys.readouterr().out

    def test_slo_compare_exits_3_on_regression(self, artifacts,
                                               capsys):
        code = main(["obs", "slo-compare", artifacts["healthy"],
                     artifacts["checkpoints"][1],
                     "--slo", artifacts["spec"]])
        assert code == 3
        out = capsys.readouterr().out
        assert "REGRESSED" in out
        assert "candidate verdict: REGRESSION" in out

    def test_slo_compare_matches_the_evaluator_api(self, artifacts):
        incumbent = replay_shards(load_checkpoint(
            artifacts["healthy"]).results.values()).telemetry
        candidate = replay_shards(load_checkpoint(
            artifacts["checkpoints"][1]).results.values()).telemetry
        verdict = SloEvaluator(LATENCY_SPEC).compare(
            incumbent, candidate, tolerance=0.1)
        assert not verdict["candidate_ok"]
        assert verdict["rows"][0]["regressed"]

    def test_slo_compare_missing_checkpoint_is_friendly(self,
                                                        tmp_path):
        missing = str(tmp_path / "nowhere.jsonl")
        assert main(["obs", "slo-compare", missing, missing]) == 2
