"""Tests: the unified observability layer (repro.obs).

Covers the four obs pillars end to end: structured tracing (span
nesting, sampling, cross-process merge, the shard-invariant
attributed digest), the generalized metrics registry (labels,
Prometheus export, the serve re-export), the perf-trajectory
recorder (record/validate/load), and the kernel-stage laps -- plus the determinism contracts the layer
must never break (golden workload digests with tracing on).
"""

import ast
import json
import os
import re

import numpy as np
import pytest

from repro import scenarios
from repro.experiments.harness import make_onrl_agents
from repro.fleet import FleetSpec, plan_shards, run_fleet_shard
from repro.obs import bench
from repro.obs.metrics import (
    Counter,
    Histogram,
    Telemetry,
    instrument_key,
    parse_key,
)
from repro.obs.profile import KernelProfiler
from repro.obs.trace import (
    NULL_SPAN,
    Tracer,
    active,
    configure,
    disable,
    enabled,
    read_rollup,
    rollup_digest,
    rollup_rows,
    trace,
)
from repro.runtime.cli import main
from repro.scenarios import get as get_scenario
from repro.sim.env import NUM_ACTIONS
from repro.serve import DecisionRequest, PolicyStore, SlicingService, \
    snapshot_onrl
from repro.serve.service import DECISION_STAGES


@pytest.fixture(autouse=True)
def _tracing_off():
    """Never leak an installed tracer into other tests."""
    yield
    disable()


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    """One OnRL snapshot in a store (shared across this module)."""
    directory = str(tmp_path_factory.mktemp("obs_store"))
    store = PolicyStore(directory)
    cfg = get_scenario("default").build_config()
    store.save(snapshot_onrl("obs-test", cfg,
                             make_onrl_agents(cfg, seed=11), seed=11))
    return store.load("obs-test")


# ---- tracing: spans, sampling, merge ---------------------------------


class TestTracer:
    def test_disabled_tracing_is_a_shared_null_span(self):
        assert not enabled()
        span = trace("engine.step", cell=3)
        assert span is NULL_SPAN
        with span:                                   # and it works
            pass

    def test_nested_spans_build_flamegraph_paths(self):
        tracer = configure(path=None)
        with trace("fleet.shard"):
            for _ in range(3):
                with trace("serve.decide", cell=0):
                    with trace("serve.forward", cell=0):
                        pass
        rollup = tracer.rollup()
        counts = {path: entry["count"]
                  for (path, _), entry in rollup.items()}
        assert counts == {
            "fleet.shard": 1,
            "fleet.shard/serve.decide": 3,
            "fleet.shard/serve.decide/serve.forward": 3,
        }
        # parent totals include child time
        shard = rollup[("fleet.shard", ())]
        assert shard["child_ms"] <= shard["total_ms"]

    def test_attrs_split_rollup_keys(self):
        tracer = configure(path=None)
        with trace("serve.decide", cell=0):
            pass
        with trace("serve.decide", cell=1):
            pass
        keys = sorted(tracer.rollup())
        assert keys == [("serve.decide", (("cell", "0"),)),
                        ("serve.decide", (("cell", "1"),))]

    def test_sampled_span_rows_and_stats_deltas(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        configure(path=path)
        for _ in range(10):
            with trace("engine.step"):
                pass
        disable()                                    # flushes
        with open(path, "r", encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh]
        # the file holds the aggregate only: no per-span rows
        assert [row["kind"] for row in rows] == ["header", "stats"]
        assert rows[1]["path"] == "engine.step"
        assert rows[1]["count"] == 10

    def test_flush_deltas_never_double_count(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = configure(path=path)
        with trace("a"):
            pass
        tracer.flush()
        with trace("a"):
            pass
        tracer.flush()
        tracer.flush()                               # idempotent
        rollup = read_rollup([path])
        assert rollup[("a", ())]["count"] == 2

    def test_read_rollup_merges_files_and_directories(self, tmp_path):
        for label in ("one", "two"):
            configure(path=str(tmp_path / f"trace-{label}.jsonl"),
                      label=label)
            with trace("serve.decide", cell=7):
                pass
            disable()
        rollup = read_rollup([str(tmp_path)])
        assert rollup[("serve.decide",
                       (("cell", "7"),))]["count"] == 2
        rows = rollup_rows(rollup)
        assert rows[0]["attrs"] == {"cell": "7"}

    def test_digest_keeps_attributed_drops_volatile(self):
        tracer = configure(path=None)
        with trace("serve.decide", cell=1, scenario="bursty"):
            pass
        with trace("engine.step"):                   # unattributed
            pass
        attributed = rollup_digest(tracer.rollup())
        disable()

        tracer = configure(path=None)
        # different shard/pid attribution, extra unattributed spans
        with trace("serve.decide", cell=1, scenario="bursty",
                   shard=9, pid=1234):
            pass
        for _ in range(5):
            with trace("engine.step"):
                pass
        assert rollup_digest(tracer.rollup()) == attributed

    def test_cli_report_exits_2_without_trace_data(self, tmp_path):
        missing = str(tmp_path / "nowhere")
        assert main(["obs", "report", missing]) == 2


# ---- tracing: determinism + shard invariance -------------------------


@pytest.mark.parametrize("name", sorted(scenarios.names()))
def test_tracing_never_perturbs_golden_workloads(name):
    """Spans must not consume RNG or touch numerics: the pinned
    first-episode digest is identical with tracing on."""
    spec = scenarios.get(name)
    untraced = scenarios.first_episode_trace_digest(spec)
    configure(path=None)
    traced = scenarios.first_episode_trace_digest(spec)
    disable()
    assert traced == untraced


def test_fleet_trace_digest_invariant_to_shard_count(snapshot,
                                                     tmp_path):
    """The attributed-span digest of a fleet campaign is the same at
    any shard count -- per-cell serve spans fire once per slot per
    cell no matter how cells are packed or which drive mode runs."""
    spec = FleetSpec(name="t", cells=4,
                     scenarios=("default", "bursty"), slots=6, seed=5)
    digests = []
    for shards in (1, 2):
        directory = tmp_path / f"shards{shards}"
        plans = plan_shards(spec, shards, "unused-store-dir",
                            "obs-test", snapshot.digest)
        for index, plan in enumerate(plans):
            # one file per (shard, sharding level), like one per
            # process in a real fleet run
            configure(path=str(directory / f"trace-{index}.jsonl"),
                      label=f"shard{index}")
            run_fleet_shard(plan, snapshot=snapshot)
            disable()
        rollup = read_rollup([str(directory)])
        assert any(attrs for (_, attrs) in rollup)   # attributed rows
        digests.append(rollup_digest(rollup))
    assert digests[0] == digests[1]


# ---- metrics registry ------------------------------------------------


class TestMetrics:
    def test_instrument_key_roundtrip_and_bare_names(self):
        key = instrument_key("lat", {"cell": "3", "scenario": "bursty"})
        assert key == 'lat{cell="3",scenario="bursty"}'
        assert parse_key(key) == ("lat", {"cell": "3",
                                          "scenario": "bursty"})
        assert instrument_key("lat") == "lat"        # unchanged
        assert parse_key("lat") == ("lat", {})

    def test_forbidden_label_characters_raise(self):
        with pytest.raises(ValueError):
            instrument_key("lat", {"a=b": "x"})
        with pytest.raises(ValueError):
            instrument_key("lat", {"ok": 'quo"te'})

    def test_labeled_instruments_are_distinct(self):
        telemetry = Telemetry()
        telemetry.counter("decisions", {"cell": "0"}).inc()
        telemetry.counter("decisions", {"cell": "1"}).inc(2.0)
        telemetry.counter("decisions").inc(4.0)
        values = {key: counter.value for key, counter
                  in telemetry.counters().items()}
        assert values == {'decisions{cell="0"}': 1.0,
                          'decisions{cell="1"}': 2.0,
                          "decisions": 4.0}

    def test_kind_collision_is_rejected(self):
        telemetry = Telemetry()
        telemetry.counter("x")
        with pytest.raises(ValueError):
            telemetry.histogram("x")
        telemetry.histogram("y")
        with pytest.raises(ValueError):
            telemetry.counter("y")

    def test_prometheus_export_format(self):
        telemetry = Telemetry()
        telemetry.counter("decisions").inc(3.0)
        telemetry.counter("sla_episodes", {"app": "mar"}).inc(7.0)
        for value in (1.0, 2.0, 3.0):
            telemetry.histogram("latency_ms").observe(value)
        text = telemetry.export_prometheus()
        assert "# TYPE decisions_total counter" in text
        assert "decisions_total 3" in text
        assert 'sla_episodes_total{app="mar"} 7' in text
        median = re.search(r'latency_ms\{quantile="0.5"\} (\S+)', text)
        assert float(median.group(1)) == pytest.approx(2.0, rel=0.01)
        assert "latency_ms_sum 6" in text
        assert "latency_ms_count 3" in text

    def test_prometheus_file_export(self, tmp_path):
        telemetry = Telemetry()
        telemetry.counter("decisions").inc()
        path = telemetry.export_prometheus_file(
            str(tmp_path / "metrics.prom"))
        with open(path, "r", encoding="utf-8") as fh:
            assert "decisions_total 1" in fh.read()

    def test_jsonl_export_uses_injected_clock(self, tmp_path):
        telemetry = Telemetry(clock=lambda: 1234.5)
        telemetry.counter("decisions").inc()
        telemetry.histogram("lat").observe(1.0)
        path = telemetry.export_jsonl(str(tmp_path / "tel.jsonl"))
        with open(path, "r", encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh]
        assert rows and all(r["unix_time"] == 1234.5 for r in rows)

    def test_windowed_series_trim_never_moves_an_anchor(self):
        """Expired samples are dropped in amortised batches; every
        window up to the horizon must read what an untrimmed ring
        (horizon = inf) reads, over irregular ``at`` steps."""
        from repro.obs.metrics import WindowedSeries

        rng = np.random.default_rng(8)
        telemetry = Telemetry()
        trimmed = WindowedSeries("t", "ratio", "bad", total="all",
                                 horizon=6.0)
        kept = WindowedSeries("k", "ratio", "bad", total="all",
                              horizon=float("inf"))
        at = 0.0
        for _ in range(300):
            telemetry.counter("all").inc(float(rng.integers(0, 5)))
            telemetry.counter("bad").inc(float(rng.integers(0, 2)))
            at += float(rng.choice([0.25, 1.0, 1.0, 3.0, 9.0]))
            trimmed.push(telemetry, at)
            kept.push(telemetry, at)
            for window in (0.0, 0.5, 1.0, 2.5, 6.0):
                assert trimmed.rate(window, idle=-1.0) == \
                    kept.rate(window, idle=-1.0)
        assert len(trimmed._samples) < 100 < len(kept._samples)

    def test_serve_reexports_the_obs_registry(self):
        from repro import serve

        assert serve.Counter is Counter
        assert serve.Histogram is Histogram
        assert serve.Telemetry is Telemetry


# ---- serve: per-stage attribution ------------------------------------


def test_service_records_stage_histograms(snapshot):
    cfg = get_scenario("default").build_config()
    service = SlicingService(snapshot, cfg=cfg, rng_seed=0)
    rng = np.random.default_rng(3)
    requests = [DecisionRequest(slice_name=name,
                                state=rng.uniform(0.0, 1.0, size=9))
                for name in service.slice_names]
    service.decide(requests)
    service.decide(requests)
    histograms = service.telemetry.histograms()
    for stage in DECISION_STAGES:
        assert histograms[f"stage_{stage}_ms"].count == 2
    # stage time can't exceed the measured batch latency
    batch_ms = service.telemetry.histogram("batch_latency_ms").total
    stage_ms = sum(histograms[f"stage_{s}_ms"].total
                   for s in DECISION_STAGES)
    assert stage_ms <= batch_ms


# ---- kernel-stage laps ----------------------------------------------

STAGES = ("decode", "radio", "transport", "core", "edge", "apps",
          "state")


def _stepped_world(steps):
    """A fresh ``default`` world, reset, then stepped ``steps`` times
    at a fixed allocation; returns every step's per-slice results."""
    spec = get_scenario("default")
    cfg = spec.build_config()
    simulator = spec.build_simulator(
        cfg, rng=np.random.default_rng(cfg.seed))
    simulator.reset()
    actions = {name: np.full(NUM_ACTIONS, 0.15)
               for name in simulator.slice_names}
    return [simulator.step(actions) for _ in range(steps)]


def _harness_kernels():
    """``benchmarks/e2e/workloads.py``'s ``KERNELS``, read without
    importing the harness."""
    path = os.path.join(os.path.dirname(__file__), os.pardir,
                        "benchmarks", "e2e", "workloads.py")
    with open(path, "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    value, = [node.value for node in tree.body
              if isinstance(node, ast.Assign)
              and getattr(node.targets[0], "id", None) == "KERNELS"]
    return ast.literal_eval(value)


class TestProfiler:
    def test_hook_is_none_when_inactive(self, monkeypatch):
        """Tracing off: ``evaluate_rows`` never reaches the tracer."""
        def refuse(*args, **kwargs):
            raise AssertionError("Tracer.add reached with tracing off")

        monkeypatch.setattr(Tracer, "add", refuse)
        assert not enabled()
        assert _stepped_world(2)

    def test_engine_integration_reports_every_kernel(self):
        """One ``engine.kernel.<stage>`` row per stage and call, under
        ``engine.step/engine.kernel`` on the stepper; the
        ``engine.kernel`` span's child time is exactly their sum."""
        tracer = configure(path=None)
        _stepped_world(3)
        rollup = tracer.rollup()
        kernel = rollup[("engine.step/engine.kernel", ())]
        laps = {path.rsplit("/", 1)[-1]: entry
                for (path, _), entry in rollup.items()
                if "engine.kernel." in path}
        assert set(laps) == {f"engine.kernel.{s}" for s in STAGES}
        assert all(
            ("engine.step/engine.kernel/" + name, ()) in rollup
            for name in laps)
        assert all(entry["count"] == 3 for entry in laps.values())
        assert kernel["count"] == 3
        assert kernel["child_ms"] == pytest.approx(
            sum(entry["total_ms"] for entry in laps.values()),
            rel=1e-12)

    def test_profiler_off_does_not_change_results(self):
        def outputs():
            return [{name: (r.cost, r.usage, r.report)
                     for name, r in results.items()}
                    for results in _stepped_world(3)]

        baseline = outputs()
        configure(path=None)
        traced = outputs()
        disable()
        assert traced == baseline == outputs()

    def test_shim_reports_the_harness_kernels(self):
        """The frozen harness's ``with KernelProfiler():`` view: one
        row per ``KERNELS`` entry, each with ``kernel`` and
        ``est_total_ms``; the tracer installed before the block is
        the one installed after it."""
        before = configure(path=None)
        with KernelProfiler() as profiler:
            assert active() is profiler.tracer
            _stepped_world(4)
        assert active() is before
        rows = profiler.report()
        assert sorted(row["kernel"] for row in rows) == \
            sorted(_harness_kernels())
        assert all(row["est_total_ms"] > 0 for row in rows)
        # the block's spans went to the shim, not the displaced tracer
        assert not before.rollup()
        disable()
        with KernelProfiler():
            assert active() is not None
        assert active() is None


# ---- perf trajectory -------------------------------------------------


class TestBench:
    def test_record_load_roundtrip(self, tmp_path):
        directory = str(tmp_path)
        path = bench.record_result(
            directory, "engine", "test_vector", [1.5],
            extra_info={"speedup": 7.0})
        assert os.path.basename(path) == "BENCH_engine.json"
        payload = bench.load(path)
        assert payload["schema"] == bench.SCHEMA_VERSION
        entry = payload["results"]["test_vector"]
        assert entry["samples"] == [1.5] and entry["mean"] == 1.5
        assert entry["extra_info"]["speedup"] == 7.0
        assert payload["machine"]["cpus"] >= 1

    def test_record_merges_tests_in_one_module_file(self, tmp_path):
        directory = str(tmp_path)
        bench.record_result(directory, "engine", "test_a", [1.0])
        bench.record_result(directory, "engine", "test_b", [2.0])
        payload = bench.load(bench.bench_path(directory, "engine"))
        assert sorted(payload["results"]) == ["test_a", "test_b"]

    def test_validate_rejects_malformed_payloads(self):
        with pytest.raises(ValueError):
            bench.validate({"schema": 99})
        with pytest.raises(ValueError):
            bench.validate({"schema": 1, "name": "x", "git_rev": "y",
                            "machine": {}, "results": {}})
        with pytest.raises(ValueError):
            bench.validate({"schema": 1, "name": "x", "git_rev": "y",
                            "machine": {},
                            "results": {"t": {"metric": "seconds",
                                              "samples": [],
                                              "mean": 0.0}}})
