"""Tests: the SLO engine (burn-rate windows, incident timelines,
fleet wiring, health-monitor CLI) and its satellites.

The burn-rate tests drive the evaluator with hand-built cumulative
counter streams so every fire/resolve transition lands at an exactly
computable logical time; the fleet tests pin a whole incident-timeline
digest produced from the deterministic ``snapshot_onrl(seed=11)``
fixture, the same way the golden-digest suite pins traffic traces.
"""

import itertools
import json
import re

import numpy as np
import pytest

from repro.experiments.harness import make_onrl_agents
from repro.fleet import (
    FleetSloBreach,
    FleetSpec,
    evaluate_checkpoint_slo,
    load_checkpoint,
    plan_shards,
    run_fleet,
    run_fleet_shard,
)
from repro.obs.cli import load_slo_spec
from repro.obs.diagnose import ShardReplay, diagnose_fleet
from repro.obs.metrics import (
    Histogram,
    Telemetry,
    _LOG_GAMMA,
    read_jsonl,
    read_telemetry,
)
from repro.obs.slo import (
    DIGEST_FIELDS,
    IncidentTimeline,
    SloEvaluator,
    SloObjective,
    SloSpec,
    default_slo_spec,
)
from repro.obs.trace import (
    Tracer,
    read_rollup,
    rollup_digest,
    rollup_rows,
)
from repro.runtime.cli import main
from repro.runtime.serialization import from_jsonable, to_jsonable
from repro.scenarios import get as get_scenario
from repro.serve import (
    DecisionRequest,
    LoadGenerator,
    PolicyStore,
    SlicingService,
    snapshot_onrl,
)

#: Mixed degraded/healthy campaign: cells 0 and 2 run the sustained
#: ``transport_brownout`` (+60 ms for half the episode), cells 1 and 3
#: the healthy default scenario.
SPEC = FleetSpec(name="slo-t", cells=4,
                 scenarios=("transport_brownout", "default"),
                 slots=8, seed=5)

#: Latency-only contract with a 160 ms budget: the healthy envelope
#: (~145-155 ms) stays under it, the brownout window (+60 ms) blows it
#: for ~half of all served slots -- burn ~50x against the 1% p99
#: budget, far over the 14.4x page threshold.
LATENCY_SPEC = SloSpec(name="lat-160", objectives=(
    SloObjective(name="slice-latency-p99", kind="latency",
                 instrument="slice_latency_ms", budget_ms=160.0,
                 fast_window=1.0, slow_window=3.0),))

#: The digest of the timeline LATENCY_SPEC produces over SPEC with the
#: module's seed-11 snapshot -- pinned like a golden trace digest.
#: (Re-pinned when the diagnosis layer's event hook started appending
#: injected-event windows to incident attribution.)
PINNED_TIMELINE_DIGEST = \
    "5a2f24c9ff3804dadf4e5fb98fc59cda323a48c5235162de19a3b840fe5c3aae"


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """A policy store holding one OnRL snapshot (fresh agents)."""
    directory = str(tmp_path_factory.mktemp("slo_store"))
    store = PolicyStore(directory)
    cfg = get_scenario("default").build_config()
    store.save(snapshot_onrl("fleet-test", cfg,
                             make_onrl_agents(cfg, seed=11), seed=11))
    return store


@pytest.fixture(scope="module")
def snapshot(store):
    return store.load("fleet-test")


@pytest.fixture(scope="module")
def shard_results(store, snapshot):
    """SPEC's four cells run as four single-cell shards, inline."""
    plans = plan_shards(SPEC, 4, store.directory, snapshot.ref,
                        snapshot.digest)
    return tuple(run_fleet_shard(plan, snapshot) for plan in plans)


def counters(**values):
    """A cumulative registry holding the given counter totals."""
    telemetry = Telemetry()
    for name, value in values.items():
        telemetry.counter(name).inc(float(value))
    return telemetry


# ---- spec validation and serialisation -------------------------------


class TestSpec:
    def test_objective_kind_and_instrument_validation(self):
        with pytest.raises(ValueError, match="unknown objective kind"):
            SloObjective(name="x", kind="latency99", instrument="h")
        with pytest.raises(ValueError, match="names no instrument"):
            SloObjective(name="x", kind="ratio", instrument="",
                         total="t", ceiling=0.1)
        with pytest.raises(ValueError, match="non-empty"):
            SloObjective(name="", kind="ratio", instrument="b",
                         total="t", ceiling=0.1)

    def test_latency_objectives_need_budget_and_percentile(self):
        with pytest.raises(ValueError, match="budget_ms"):
            SloObjective(name="x", kind="latency", instrument="h")
        with pytest.raises(ValueError, match="percentile"):
            SloObjective(name="x", kind="latency", instrument="h",
                         budget_ms=10.0, percentile=100.0)

    def test_ratio_objectives_need_total_and_ceiling(self):
        with pytest.raises(ValueError, match="ceiling"):
            SloObjective(name="x", kind="ratio", instrument="b",
                         total="t")
        with pytest.raises(ValueError, match="total counter"):
            SloObjective(name="x", kind="ratio", instrument="b",
                         ceiling=0.1)

    def test_window_and_burn_ordering(self):
        with pytest.raises(ValueError, match="fast_window"):
            SloObjective(name="x", kind="ratio", instrument="b",
                         total="t", ceiling=0.1, fast_window=5.0,
                         slow_window=2.0)
        with pytest.raises(ValueError, match="warn_burn"):
            SloObjective(name="x", kind="ratio", instrument="b",
                         total="t", ceiling=0.1, warn_burn=10.0,
                         page_burn=5.0)

    def test_allowance_is_the_error_budget(self):
        latency = SloObjective(name="x", kind="latency",
                               instrument="h", budget_ms=10.0,
                               percentile=99.0)
        assert latency.allowance == pytest.approx(0.01)
        ratio = SloObjective(name="y", kind="ratio", instrument="b",
                             total="t", ceiling=0.2)
        assert ratio.allowance == pytest.approx(0.2)

    def test_spec_rejects_duplicates_and_emptiness(self):
        objective = LATENCY_SPEC.objectives[0]
        with pytest.raises(ValueError, match="duplicate"):
            SloSpec(name="s", objectives=(objective, objective))
        with pytest.raises(ValueError, match="at least one"):
            SloSpec(name="s", objectives=())

    def test_default_spec_thresholds_are_reachable(self):
        for objective in default_slo_spec().objectives:
            if objective.kind == "ratio":
                # a ceiling of c caps burn at 1/c; the page threshold
                # must sit under that cap or it can never fire
                assert objective.page_burn <= 1.0 / objective.ceiling

    def test_spec_roundtrips_tagged_json(self):
        spec = default_slo_spec()
        assert from_jsonable(
            json.loads(json.dumps(to_jsonable(spec)))) == spec

    def test_load_slo_spec_default_file_and_errors(self, tmp_path):
        assert load_slo_spec(None) == default_slo_spec()
        assert load_slo_spec("default") == default_slo_spec()
        path = str(tmp_path / "spec.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(to_jsonable(LATENCY_SPEC), fh)
        assert load_slo_spec(path) == LATENCY_SPEC
        with pytest.raises(SystemExit, match="cannot read"):
            load_slo_spec(str(tmp_path / "missing.json"))
        corrupt = str(tmp_path / "corrupt.json")
        with open(corrupt, "w", encoding="utf-8") as fh:
            fh.write("{not json")
        with pytest.raises(SystemExit, match="invalid slo spec"):
            load_slo_spec(corrupt)
        mistyped = str(tmp_path / "mistyped.json")
        with open(mistyped, "w", encoding="utf-8") as fh:
            json.dump({"name": "not-a-spec"}, fh)
        with pytest.raises(SystemExit, match="tagged SloSpec"):
            load_slo_spec(mistyped)


# ---- burn-rate window math -------------------------------------------

#: ratio objective with allowance 0.5: burn = 2 * bad-fraction, so an
#: all-bad window burns exactly 2.0 (page) and a half-bad one 1.0
#: (warn) -- every threshold crossing is hand-computable.
PULSE = SloSpec(name="pulse", objectives=(
    SloObjective(name="obj", kind="ratio", instrument="bad",
                 total="all", ceiling=0.5, fast_window=1.0,
                 slow_window=3.0, page_burn=2.0, warn_burn=1.0),))


def drive(evaluator, steps, start=1):
    """Feed (bad, all) cumulative totals at ``at = start, start+1...``"""
    emitted = []
    for offset, (bad, total) in enumerate(steps):
        emitted.extend(evaluator.observe(
            counters(bad=bad, all=total), at=float(start + offset)))
    return emitted


class TestBurnRateWindows:
    def test_pulse_fires_and_resolves_at_exact_times(self):
        """10 all-good steps of traffic turn all-bad at t=5 and clean
        at t=11.  The slow window admits the warn at t=6 (2/3 of it
        bad), the page at t=7 (all of it bad), and the fast window
        resolves at t=11 the moment one clean step lands."""
        evaluator = SloEvaluator(PULSE)
        # cumulative (bad, all): +10 traffic/step, bad during t=5..10
        stream = [(0, 10), (0, 20), (0, 30), (0, 40),     # t=1..4
                  (10, 50), (20, 60), (30, 70), (40, 80),  # t=5..8
                  (50, 90), (60, 100),                     # t=9..10
                  (60, 110), (60, 120)]                    # t=11..12
        drive(evaluator, stream)
        records = evaluator.timeline.records
        assert [(r["event"], r["severity"], r["at"])
                for r in records] == [
            ("open", "warn", 6.0),
            ("update", "page", 7.0),
            ("resolve", "page", 11.0),
        ]
        # exact window burns at each transition
        assert records[0]["burn_fast"] == pytest.approx(2.0)
        assert records[0]["burn_slow"] == pytest.approx(4.0 / 3.0)
        assert records[1]["burn_slow"] == pytest.approx(2.0)
        assert records[2]["burn_fast"] == 0.0
        # one incident end to end, and dedup held while the page
        # persisted (t=8..10 emitted nothing)
        assert {r["incident"] for r in records} == {"obj#1"}
        assert len(records) == 3

    def test_sustained_page_emits_one_open_only(self):
        evaluator = SloEvaluator(PULSE)
        drive(evaluator, [(10 * i, 10 * i) for i in range(1, 9)])
        events = [r["event"] for r in evaluator.timeline.records]
        assert events == ["open"]
        assert evaluator.paging

    def test_observations_must_advance(self):
        evaluator = SloEvaluator(PULSE)
        evaluator.observe(counters(bad=0, all=10), at=1.0)
        with pytest.raises(ValueError, match="not after"):
            evaluator.observe(counters(bad=0, all=20), at=1.0)

    def test_incident_ids_increment_across_refires(self):
        spec = SloSpec(name="flap", objectives=(
            SloObjective(name="obj", kind="ratio", instrument="bad",
                         total="all", ceiling=0.5, fast_window=1.0,
                         slow_window=1.0, page_burn=2.0,
                         warn_burn=2.0),))
        evaluator = SloEvaluator(spec)
        drive(evaluator, [(10, 10),    # bad step: open #1
                          (10, 20),    # clean step: resolve #1
                          (20, 30)])   # bad step: open #2
        assert [(r["event"], r["incident"])
                for r in evaluator.timeline.records] == [
            ("open", "obj#1"), ("resolve", "obj#1"),
            ("open", "obj#2")]

    def test_evaluator_refuses_a_timeline_that_holds_records(
            self, tmp_path):
        """A run continues by replaying its checkpoint into a fresh
        timeline: an evaluator handed a loaded timeline that already
        holds records refuses it instead of appending after them."""
        path = str(tmp_path / "timeline.jsonl")
        first = SloEvaluator(PULSE,
                             timeline=IncidentTimeline(path=path))
        # all traffic bad: pages immediately at t=1, stays open
        drive(first, [(10 * i, 10 * i) for i in range(1, 7)])
        first.timeline.close()
        loaded = IncidentTimeline.load(path)
        assert [r["event"] for r in loaded.records] == ["open"]
        with pytest.raises(ValueError, match=r"1 record\(s\).*"
                           r"replaying its checkpoint \(ShardReplay\)"):
            SloEvaluator(PULSE, timeline=loaded)

        # a timeline with no incident rows yet is a fresh start
        empty = str(tmp_path / "empty.jsonl")
        IncidentTimeline(path=empty).close()
        assert SloEvaluator(
            PULSE, timeline=IncidentTimeline.load(empty)).timeline \
            .records == []

    def test_timeline_load_tolerates_torn_tail(self, tmp_path):
        path = str(tmp_path / "torn.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"kind": "header", "format": 1}) + "\n")
            fh.write(json.dumps({"event": "open", "objective": "obj",
                                 "severity": "page", "incident":
                                 "obj#1", "seq": 0, "at": 1.0}) + "\n")
            fh.write('{"event": "resol')   # killed mid-append
        timeline = IncidentTimeline.load(path)
        assert len(timeline.records) == 1
        assert timeline.records[0]["event"] == "open"

    def test_digest_ignores_wall_time_and_exemplars(self):
        def make(clock, extra):
            timeline = IncidentTimeline(clock=clock)
            record = {"event": "open", "objective": "obj",
                      "severity": "page", "incident": "obj#1",
                      "at": 1.0, "burn_fast": 2.0}
            if extra:
                record["exemplars"] = [{"span": "serve.decide"}]
            timeline.append(record)
            return timeline.digest()

        assert make(lambda: 1.0, False) == make(lambda: 999.0, True)


# ---- the canary verdict ----------------------------------------------


class TestCompare:
    SPEC = SloSpec(name="canary", objectives=(
        SloObjective(name="obj", kind="ratio", instrument="bad",
                     total="all", ceiling=0.05),))

    def test_regression_beyond_budget_fails(self):
        verdict = SloEvaluator(self.SPEC).compare(
            counters(bad=0, all=100), counters(bad=30, all=100))
        assert not verdict["candidate_ok"]
        assert verdict["rows"][0]["regressed"]
        assert not verdict["rows"][0]["within_budget"]

    def test_within_budget_passes_even_when_worse(self):
        verdict = SloEvaluator(self.SPEC).compare(
            counters(bad=0, all=100), counters(bad=2, all=100))
        assert verdict["candidate_ok"]

    def test_inherited_burn_is_not_punished(self):
        # both sides over budget, candidate within 10% of incumbent
        verdict = SloEvaluator(self.SPEC).compare(
            counters(bad=30, all=100), counters(bad=32, all=100))
        assert verdict["candidate_ok"]
        assert not verdict["rows"][0]["within_budget"]


# ---- histogram interpolation (satellite) -----------------------------


class TestHistogramInterpolation:
    def random_stream(self, seed, count):
        rng = np.random.default_rng(seed)
        return rng.lognormal(mean=1.0, sigma=1.2, size=count)

    @pytest.mark.parametrize("seed", [3, 17, 92])
    def test_count_over_bucketed_stays_inside_straddling_bucket(
            self, seed):
        """The interpolated share can only redistribute the
        straddling bucket's own population: the sketch's answer must
        sit within that bucket's count of the exact answer, for any
        threshold."""
        values = self.random_stream(seed, 1800)
        histogram = Histogram("h")
        for value in values:
            histogram.observe(float(value))
        state = histogram.state()
        rng = np.random.default_rng(seed + 1)
        thresholds = rng.uniform(values.min(), values.max(), size=32)
        for threshold in thresholds:
            exact = float(np.sum(values > threshold))
            approx = histogram.count_over(float(threshold))
            key = int(np.ceil(np.log(threshold) / _LOG_GAMMA))
            slack = float(state["counts"][key - state["offset"]])
            assert abs(approx - exact) <= slack + 1e-9
        # and it is monotone non-increasing in the threshold
        readings = [histogram.count_over(float(t))
                    for t in sorted(thresholds)]
        assert all(a >= b - 1e-9
                   for a, b in zip(readings, readings[1:]))


# ---- fleet wiring ----------------------------------------------------


def timeline_from(results, order):
    replay = ShardReplay(LATENCY_SPEC)
    for index in order:
        replay.offer(results[index])
    return replay.evaluator.timeline


def projected(records):
    """Timeline records without their volatile fields."""
    return [{key: record.get(key) for key in DIGEST_FIELDS}
            for record in records]


@pytest.fixture(scope="module")
def checkpoints(store, snapshot, tmp_path_factory):
    """SPEC run 4-way, and the same file with only shards 0 and 2 --
    what a run killed with shard 1 in flight leaves behind."""
    directory = tmp_path_factory.mktemp("slo_ckpt")
    complete = str(directory / "complete.jsonl")
    run_fleet(SPEC, store.directory, snapshot_ref=snapshot.ref,
              shards=4, checkpoint_path=complete, snapshot=snapshot)
    holed = str(directory / "holed.jsonl")
    with open(holed, "w", encoding="utf-8") as fh:
        for row in read_jsonl(complete):
            if row.get("shard") in (None, 0, 2):    # None: the header
                fh.write(json.dumps(row) + "\n")
    return {"complete": complete, "holed": holed}


class TestFleetSlo:
    def test_timeline_digest_invariant_to_completion_order(
            self, shard_results):
        """Shard completion order is nondeterministic; the buffered
        prefix evaluation must make the timeline a pure function of
        the campaign.  All 24 orders, one digest."""
        reference = timeline_from(shard_results, range(4))
        digests = {timeline_from(shard_results, order).digest()
                   for order in itertools.permutations(range(4))}
        assert digests == {reference.digest()}

    def test_pinned_timeline_open_resolve_and_attribution(
            self, shard_results):
        """The mixed campaign's story: the brownout shards (cells 0
        and 2) land first and page immediately; the healthy shards
        dilute the slow window until the page resolves."""
        timeline = timeline_from(shard_results, range(4))
        records = timeline.records
        assert [(r["event"], r["severity"], r["at"])
                for r in records] == [
            ("open", "page", 1.0), ("resolve", "page", 3.0)]
        # at the open, the only merged cell is brownout cell 0
        attribution = records[0]["attribution"]
        assert attribution[0]["cell"] == 0
        assert attribution[0]["scenario"] == "transport_brownout"
        assert timeline.digest() == PINNED_TIMELINE_DIGEST

    def test_holed_checkpoint_replays_to_a_prefix_of_the_complete_run(
            self, checkpoints):
        """Shard 2 waits for shard 1 offline exactly as it did live:
        the offline readers judge the contiguous prefix and nothing
        else, so their timeline is the head of the complete run's."""
        complete = evaluate_checkpoint_slo(checkpoints["complete"],
                                           LATENCY_SPEC).timeline
        assert complete.digest() == PINNED_TIMELINE_DIGEST
        holed = evaluate_checkpoint_slo(checkpoints["holed"],
                                        LATENCY_SPEC).timeline
        assert [(r["event"], r["at"]) for r in holed.records] == \
            [("open", 1.0)]
        assert projected(holed.records) == \
            projected(complete.records)[:len(holed.records)]
        results = load_checkpoint(checkpoints["holed"]).results
        assert sorted(results) == [0, 2]
        live = timeline_from(results, (2, 0))
        assert live.digest() == holed.digest()
        assert diagnose_fleet(results.values(), LATENCY_SPEC
                              ).timeline_digest == holed.digest()

    def test_run_fleet_replay_and_resume_share_one_timeline(
            self, store, snapshot, tmp_path):
        """The live pooled run, the checkpoint replay and a resumed
        run all write bit-identical timelines; the report digest is
        untouched by evaluation."""
        checkpoint = str(tmp_path / "fleet.jsonl")
        timeline_path = str(tmp_path / "timeline.jsonl")
        report = run_fleet(SPEC, store.directory,
                           snapshot_ref=snapshot.ref, shards=4,
                           checkpoint_path=checkpoint,
                           snapshot=snapshot, slo=LATENCY_SPEC,
                           slo_timeline=timeline_path)
        recorded = IncidentTimeline.load(timeline_path)
        assert recorded.digest() == PINNED_TIMELINE_DIGEST

        # offline replay of the checkpoint: same timeline
        replayed = evaluate_checkpoint_slo(checkpoint, LATENCY_SPEC)
        assert replayed.timeline.digest() == PINNED_TIMELINE_DIGEST

        # evaluation only reads the merged telemetry: the report
        # digest matches a run without any SLO attached
        plain = run_fleet(SPEC, store.directory,
                          snapshot_ref=snapshot.ref, shards=1,
                          snapshot=snapshot)
        assert report.digest == plain.digest

        # resume from a truncated checkpoint: replayed shards
        # re-evaluate first, so the timeline equals the
        # uninterrupted one's
        truncated = str(tmp_path / "truncated.jsonl")
        with open(checkpoint, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        with open(truncated, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines[:3]) + "\n")
        resumed_path = str(tmp_path / "resumed.jsonl")
        run_fleet(SPEC, store.directory, snapshot_ref=snapshot.ref,
                  shards=4, checkpoint_path=truncated, resume=True,
                  snapshot=snapshot, slo=LATENCY_SPEC,
                  slo_timeline=resumed_path)
        assert IncidentTimeline.load(resumed_path).digest() == \
            PINNED_TIMELINE_DIGEST

    def test_fail_fast_raises_breach_inline(self, store, snapshot):
        degraded = FleetSpec(name="burnout", cells=2,
                             scenarios=("transport_brownout",),
                             slots=8, seed=5)
        with pytest.raises(FleetSloBreach,
                           match="slice-latency-p99") as excinfo:
            run_fleet(degraded, store.directory,
                      snapshot_ref=snapshot.ref, shards=1,
                      snapshot=snapshot, slo=LATENCY_SPEC,
                      fail_fast=True)
        evaluator = excinfo.value.evaluator
        assert evaluator.paging
        assert evaluator.timeline.records[0]["event"] == "open"
        assert evaluator.timeline.records[0]["severity"] == "page"


# ---- serving-stack hooks ---------------------------------------------


class TestServingHooks:
    def test_service_observes_on_batch_cadence(self, snapshot):
        spec = SloSpec(name="svc", objectives=(
            SloObjective(name="fallback-rate", kind="ratio",
                         instrument="fallbacks", total="decisions",
                         ceiling=0.5, fast_window=1.0,
                         slow_window=2.0),))
        evaluator = SloEvaluator(spec)
        cfg = get_scenario("default").build_config()
        service = SlicingService(snapshot, cfg=cfg, rng_seed=0,
                                 slo=evaluator, slo_every=1)
        rng = np.random.default_rng(3)
        requests = [DecisionRequest(slice_name=name,
                                    state=rng.uniform(size=9))
                    for name in service.slice_names]
        service.decide(requests)
        service.decide(requests)
        status = evaluator.statuses()[0]
        # the evaluation axis is the decision-batch counter
        assert status.at == 2.0
        assert len(status.history) == 2

    def test_service_rejects_bad_cadence(self, snapshot):
        cfg = get_scenario("default").build_config()
        with pytest.raises(ValueError, match="slo_every"):
            SlicingService(snapshot, cfg=cfg, rng_seed=0,
                           slo=SloEvaluator(LATENCY_SPEC),
                           slo_every=0)

    def test_loadgen_pages_on_brownout(self, snapshot):
        evaluator = SloEvaluator(LATENCY_SPEC)
        generator = LoadGenerator(snapshot, "transport_brownout",
                                  seed=5, slo=evaluator, slo_every=8)
        generator.run(episodes=1)
        opens = [r for r in evaluator.timeline.records
                 if r["event"] == "open"]
        assert opens and opens[0]["severity"] == "page"
        assert opens[0]["objective"] == "slice-latency-p99"
        # the axis is served slots, so evaluations land on multiples
        # of slo_every
        assert evaluator.statuses()[0].at % 8 == 0

    def test_scalar_and_vector_engines_agree_on_slo_inputs(
            self, store, snapshot, shard_results):
        """Every instrument the SLO reads must be bit-identical
        across the two fleet engines, or timelines would depend on an
        execution detail that is deliberately absent from cache
        keys."""
        plans = plan_shards(SPEC, 4, store.directory, snapshot.ref,
                            snapshot.digest, engine="scalar")
        scalar = run_fleet_shard(plans[0], snapshot)
        vector = shard_results[0]
        scalar_t, vector_t = scalar.telemetry(), vector.telemetry()
        latency_keys = [key for key
                        in vector_t.histograms() if "slice_latency_ms"
                        in key]
        assert latency_keys
        for key in latency_keys:
            assert scalar_t.histograms()[key].state() == \
                vector_t.histograms()[key].state()
        for name in ("sla_violations", "sla_episodes", "fallbacks",
                     "decisions"):
            matching = [key for key in vector_t.counters()
                        if name in key]
            for key in matching:
                assert scalar_t.counters()[key].value == \
                    vector_t.counters()[key].value


# ---- CLI surface -----------------------------------------------------


class TestCliSurface:
    @pytest.fixture(scope="class")
    def artifacts(self, store, snapshot, tmp_path_factory):
        """One recorded CLI fleet run with an SLO attached."""
        directory = tmp_path_factory.mktemp("slo_cli")
        checkpoint = str(directory / "fleet.jsonl")
        timeline = str(directory / "timeline.jsonl")
        spec_file = str(directory / "spec.json")
        with open(spec_file, "w", encoding="utf-8") as fh:
            json.dump(to_jsonable(LATENCY_SPEC), fh)
        code = main(["fleet", "run", "--cells", "4", "--shards", "1",
                     "--scenarios", "transport_brownout,default",
                     "--slots", "8", "--seed", "5",
                     "--store-dir", store.directory,
                     "--checkpoint", checkpoint,
                     "--slo", spec_file, "--slo-timeline", timeline])
        assert code == 0
        return {"checkpoint": checkpoint, "timeline": timeline,
                "spec": spec_file}

    def test_watch_replays_the_recorded_timeline(self, artifacts,
                                                 capsys):
        code = main(["obs", "watch", "--checkpoint",
                     artifacts["checkpoint"], "--slo",
                     artifacts["spec"], "--once", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        recorded = IncidentTimeline.load(artifacts["timeline"])
        assert payload["digest"] == recorded.digest()
        assert payload["spec"] == LATENCY_SPEC.name
        assert payload["records"] == len(recorded.records)
        assert [r["event"] for r in payload["incidents"]] == \
            [r["event"] for r in recorded.records]

    def test_incidents_lists_and_filters(self, artifacts, capsys):
        assert main(["obs", "incidents",
                     artifacts["timeline"]]) == 0
        out = capsys.readouterr().out
        recorded = IncidentTimeline.load(artifacts["timeline"])
        assert recorded.digest()[:16] in out
        assert main(["obs", "incidents", artifacts["timeline"],
                     "--event", "open", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(r["event"] == "open" for r in payload["records"])
        assert payload["records"]

    def test_a_fleet_checkpoint_is_not_a_timeline(self, artifacts,
                                                  capsys):
        """It used to load as 0 records with the empty-stream digest."""
        path = artifacts["checkpoint"]
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:1: not an incident timeline")):
            IncidentTimeline.load(path)
        capsys.readouterr()
        assert main(["obs", "incidents", path]) == 2
        assert f"{path}:1: " in capsys.readouterr().err

    @pytest.mark.parametrize("field", [
        "seq", "incident", "objective", "severity", "at"])
    def test_an_incident_row_missing_a_field_is_refused(
            self, field, artifacts, tmp_path, capsys):
        """It used to load, then raise ``KeyError`` in a reader."""
        with open(artifacts["timeline"], "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        row = json.loads(lines[1])
        del row[field]
        lines[1] = json.dumps(row)
        path = str(tmp_path / "holed.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:2: incident row lacks {field}")):
            IncidentTimeline.load(path)
        capsys.readouterr()
        assert main(["obs", "incidents", path, "--objective",
                     row.get("objective", "x")]) == 2
        assert f"{path}:2: " in capsys.readouterr().err

    def test_incidents_lists_a_row_without_burns(self, tmp_path,
                                                 capsys):
        """The burns are not required to load, so the table does not
        require them either (it used to raise ``KeyError``)."""
        path = str(tmp_path / "minimal.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"kind": "header", "format": 1}) + "\n")
            fh.write(json.dumps({"event": "open", "objective": "obj",
                                 "severity": "page", "incident":
                                 "obj#1", "seq": 0, "at": 1.0}) + "\n")
        assert main(["obs", "incidents", path]) == 0
        assert "obj#1" in capsys.readouterr().out

    def test_incidents_missing_file_is_friendly(self, tmp_path):
        assert main(["obs", "incidents",
                     str(tmp_path / "nowhere.jsonl")]) == 2

    def test_watch_needs_exactly_one_source(self, tmp_path):
        assert main(["obs", "watch", "--once"]) == 2
        assert main(["obs", "watch", "--once",
                     "--checkpoint", str(tmp_path / "a"),
                     "--telemetry-dir", str(tmp_path)]) == 2

    def test_watch_missing_sources_are_friendly(self, tmp_path):
        assert main(["obs", "watch", "--once", "--checkpoint",
                     str(tmp_path / "nowhere.jsonl")]) == 2
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["obs", "watch", "--once",
                     "--telemetry-dir", str(empty)]) == 2

    def test_fleet_fail_fast_exit_code(self, store, artifacts,
                                       tmp_path):
        code = main(["fleet", "run", "--cells", "2", "--shards", "1",
                     "--scenarios", "transport_brownout",
                     "--slots", "8", "--seed", "5",
                     "--store-dir", store.directory,
                     "--slo", artifacts["spec"], "--fail-fast",
                     "--slo-timeline",
                     str(tmp_path / "breach.jsonl")])
        assert code == 4

    def test_fleet_slo_flags_require_slo(self, store):
        with pytest.raises(SystemExit, match="need --slo"):
            main(["fleet", "run", "--cells", "2",
                  "--store-dir", store.directory, "--fail-fast"])

    def test_obs_report_empty_dir_is_friendly(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["obs", "report", str(empty)]) == 2

    def test_watch_and_diagnose_note_held_back_shards(
            self, checkpoints, artifacts, capsys):
        """Like ``fleet report`` on a partial file, the replaying
        readers say what they left out -- and judge what the live run
        judged."""
        note = "1 shard(s) held back waiting for shard 1"
        assert main(["obs", "watch", "--checkpoint",
                     checkpoints["holed"], "--slo", artifacts["spec"],
                     "--once", "--json"]) == 0
        captured = capsys.readouterr()
        assert note in captured.err
        assert json.loads(captured.out)["digest"] == \
            evaluate_checkpoint_slo(checkpoints["holed"],
                                    LATENCY_SPEC).timeline.digest()
        assert main(["obs", "diagnose", checkpoints["holed"],
                     "--slo", artifacts["spec"]]) == 0
        assert note in capsys.readouterr().err
        assert main(["obs", "diagnose", checkpoints["complete"],
                     "--slo", artifacts["spec"]]) == 0
        assert "held back" not in capsys.readouterr().err

    @pytest.mark.parametrize("surface", [
        "checkpoint", "timeline", "telemetry", "trace"])
    def test_jsonl_surfaces_share_one_corruption_policy(
            self, surface, checkpoints, artifacts, tmp_path, capsys):
        """One reader, one policy: a torn final line is a writer
        killed mid-append and is tolerated; a damaged earlier line is
        corruption -- ``ValueError`` naming ``path:lineno`` from the
        library, exit 2 and one line on stderr from the CLI.  A
        decodable row missing a field its surface requires is refused
        the same way, naming the field (telemetry names the file)."""
        source = str(tmp_path / "source.jsonl")
        if surface == "checkpoint":
            source = checkpoints["complete"]
            argv = ["obs", "watch", "--once", "--slo",
                    artifacts["spec"], "--checkpoint"]
            load, required = load_checkpoint, "result"
        elif surface == "timeline":
            evaluate_checkpoint_slo(checkpoints["complete"],
                                    LATENCY_SPEC,
                                    timeline=source).timeline.close()
            argv = ["obs", "incidents"]
            load, required = IncidentTimeline.load, "incident"
        elif surface == "telemetry":
            counters(decisions=8, fallbacks=1, sla_episodes=4
                     ).export_jsonl(source)
            argv = ["obs", "watch", "--once", "--telemetry-dir"]
            load, required = read_telemetry, "value"
        else:
            tracer = Tracer(path=source)
            for cell in (0, 1):
                with tracer.span("serve.decide", {"cell": cell}):
                    pass
            tracer.flush()
            argv = ["obs", "report"]
            load, required = (lambda path: read_rollup([path])), \
                "count"
        with open(source, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert len(lines) >= 3

        lacking = str(tmp_path / "lacking.jsonl")
        row = json.loads(lines[1])
        del row[required]
        with open(lacking, "w", encoding="utf-8") as fh:
            fh.write("\n".join([lines[0], json.dumps(row)] + lines[2:])
                     + "\n")
        named = f"{lacking}: " if surface == "telemetry" \
            else f"{lacking}:2: "
        with pytest.raises(ValueError, match=re.escape(named)
                           + f".*{required}"):
            load(lacking)
        capsys.readouterr()
        assert main(argv + [lacking]) == 2
        message = capsys.readouterr().err.strip()
        assert named in message and required in message
        assert len(message.splitlines()) == 1

        torn = str(tmp_path / "torn.jsonl")
        with open(torn, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n" + lines[-1][:7])
        assert read_jsonl(torn) == [json.loads(line)
                                    for line in lines]
        assert main(argv + [torn]) == 0

        flipped = str(tmp_path / "flipped.jsonl")
        lines[1] = lines[1].replace('"', "\x02", 1)
        with open(flipped, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{flipped}:2: ")):
            read_jsonl(flipped)
        capsys.readouterr()
        assert main(argv + [flipped]) == 2
        message = capsys.readouterr().err.strip()
        assert f"{flipped}:2: " in message
        assert len(message.splitlines()) == 1

    @pytest.mark.parametrize("field,value", [
        ("count", "ten"), ("total_ms", None), ("child_ms", float("nan")),
        ("count", True), ("attrs", ["cell", "0"])])
    def test_trace_stats_row_with_a_bad_value_is_refused(
            self, field, value, tmp_path, capsys):
        path = str(tmp_path / "trace.jsonl")
        row = {"kind": "stats", "path": "serve.decide", "count": 2,
               "total_ms": 1.0, "child_ms": 0.5, field: value}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"kind": "header", "format": 1}) + "\n")
            fh.write(json.dumps(row) + "\n")
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}:2: ") + f".*{field}"):
            read_rollup([path])
        capsys.readouterr()
        assert main(["obs", "report", path]) == 2
        message = capsys.readouterr().err.strip()
        assert f"{path}:2: " in message and field in message
        assert len(message.splitlines()) == 1

    def test_trace_file_with_sampled_span_rows_still_rolls_up(
            self, tmp_path, capsys):
        """Trace files written before sampling went carry a header
        ``sample_interval``, per-span ``span`` rows and a ``sampled``
        column; they roll up to the rows and digest of the same spans
        written today."""
        ticks = itertools.count()
        current = str(tmp_path / "current.jsonl")
        tracer = Tracer(path=current, clock=lambda: next(ticks) * 1e-3)
        for cell in (0, 1, 0):
            with tracer.span("serve.decide",
                             {"cell": cell, "scenario": "bursty"}):
                with tracer.span("serve.forward", {}):
                    pass
        tracer.flush()
        with open(current, "r", encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh]
        assert [row["kind"] for row in rows] == \
            ["header"] + ["stats"] * 3

        legacy = str(tmp_path / "legacy.jsonl")
        with open(legacy, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(rows[0], sample_interval=16))
                     + "\n")
            for row in rows[1:]:
                fh.write(json.dumps(
                    {"kind": "span", "path": row["path"],
                     "dur_ms": 1.0, "self_ms": 1.0,
                     "attrs": row.get("attrs", {})}) + "\n")
            for row in rows[1:]:
                fh.write(json.dumps(dict(row, sampled=1)) + "\n")

        assert rollup_rows(read_rollup([legacy])) == \
            rollup_rows(read_rollup([current]))
        assert rollup_digest(read_rollup([legacy])) == \
            rollup_digest(read_rollup([current]))
        reports = []
        for path in (legacy, current):
            capsys.readouterr()
            assert main(["obs", "report", "--json", path]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        assert reports[0] == reports[1]
        assert all("sampled" not in row for row in reports[0]["rows"])

    @pytest.mark.parametrize("argv", [
        ["obs", "watch", "--once", "--telemetry-dir"],
        ["obs", "diagnose"]])
    def test_export_histogram_without_state_is_refused(
            self, argv, tmp_path, capsys):
        """Exports carry histogram states.  A histogram row with
        percentile readouts only is not judged from them: ``ValueError``
        naming the file from the library, exit 2 and one line on
        stderr from the CLI."""
        telemetry = counters(decisions=8, fallbacks=1)
        telemetry.histogram("slice_latency_ms").observe(594.0)
        rows = read_jsonl(telemetry.export_jsonl(
            str(tmp_path / "full.jsonl")))
        exports = tmp_path / "exports"
        exports.mkdir()
        readouts = str(exports / "readouts.jsonl")
        with open(readouts, "w", encoding="utf-8") as fh:
            for row in rows:
                row.pop("state", None)
                fh.write(json.dumps(row) + "\n")
        with pytest.raises(ValueError, match=re.escape(readouts)):
            read_telemetry(str(exports))
        capsys.readouterr()
        assert main(argv + [str(exports)]) == 2
        message = capsys.readouterr().err.strip()
        assert readouts in message and "slice_latency_ms" in message
        assert len(message.splitlines()) == 1

    @pytest.mark.parametrize("damage", [
        "truncated-counts", "flipped-count", "pre-sketch-row"])
    def test_damaged_or_stale_export_state_is_refused(
            self, damage, tmp_path, capsys):
        """A histogram state whose counts do not add up (cut short, or
        one count bit-flipped) or one written before the sketch (raw
        ``samples``) is refused naming the file and the histogram:
        ``ValueError`` from the library, exit 2 from the CLI."""
        telemetry = counters(decisions=8, fallbacks=1)
        telemetry.histogram("slice_latency_ms").observe_many(
            [120.0, 180.0, 594.0, 601.0])
        rows = read_jsonl(telemetry.export_jsonl(
            str(tmp_path / "full.jsonl")))
        exports = tmp_path / "exports"
        exports.mkdir()
        damaged = str(exports / "damaged.jsonl")
        with open(damaged, "w", encoding="utf-8") as fh:
            for row in rows:
                state = row.get("state")
                if state is not None and damage == "truncated-counts":
                    state["counts"] = state["counts"][:-1]
                elif state is not None and damage == "flipped-count":
                    state["counts"][0] ^= 4
                elif state is not None:
                    for key in ("low", "offset", "counts"):
                        del state[key]
                    state["samples"] = [120.0, 180.0, 594.0, 601.0]
                fh.write(json.dumps(row) + "\n")
        with pytest.raises(ValueError, match=re.escape(damaged)
                           + ".*slice_latency_ms"):
            read_telemetry(str(exports))
        capsys.readouterr()
        assert main(["obs", "watch", "--once", "--telemetry-dir",
                     str(exports)]) == 2
        message = capsys.readouterr().err.strip()
        assert damaged in message and "slice_latency_ms" in message
        assert ("pre-sketch" in message) == (damage == "pre-sketch-row")
        assert len(message.splitlines()) == 1

    def test_pre_sketch_checkpoint_shard_is_refused(
            self, checkpoints, artifacts, tmp_path, capsys):
        """A checkpoint shard line whose histograms carry the old raw
        ``samples`` state (the checkpoint format number is unchanged)
        is refused naming the file, the shard and the histogram, by
        ``load_checkpoint`` and by the CLI replaying it."""
        with open(checkpoints["complete"], "r", encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh]

        def stale(node):
            if isinstance(node, dict):
                if "counts" in node and "offset" in node:
                    for key in ("low", "offset", "counts"):
                        del node[key]
                    node["samples"] = [1.0] * node["count"]
                for value in node.values():
                    stale(value)
            elif isinstance(node, list):
                for value in node:
                    stale(value)

        stale(rows[2])
        path = str(tmp_path / "stale.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(row) + "\n" for row in rows)
        with pytest.raises(ValueError, match=re.escape(path)
                           + r": shard \d+: histogram .*pre-sketch"):
            load_checkpoint(path)
        capsys.readouterr()
        assert main(["obs", "watch", "--once", "--slo", artifacts["spec"],
                     "--checkpoint", path]) == 2
        message = capsys.readouterr().err.strip()
        assert path in message and "pre-sketch" in message
