"""One workload, measured: set-ups, untraced repeats, traced runs,
checks, and the record the result file keeps.

Warm-up discipline (also in the README):

* imports and one throw-away mini-run happen in set-up, never in a
  timed body;
* ``gc.collect()`` runs before every set-up, repeat and traced run;
* repeats share no mutable program state: every body builds fresh
  simulators, services, generators and checkpoint files.  The only
  reuse is the fixture snapshot on disk and the in-memory
  ``fit_baselines`` result cache, which set-up clears and refills
  each time it runs.
"""

from __future__ import annotations

import gc
import shutil
import statistics
import time
from typing import Dict, List, Optional, Tuple, Type

import numpy as np

from repro.config import EstimatorConfig
from repro.nn.bayesian import BayesianMLP
from repro.nn.network import MLP
from repro.rl.cost_estimator import CostToGoEstimator
from repro.runtime.cache import configure_shared_cache
from repro.sim.env import STATE_DIM

import layers
from tracing import (
    SpeedMeter,
    Stopwatch,
    Tracer,
    peak_rss_mb,
    percentile,
    summary,
)
from workloads import Check, Outcome, Workload, fresh_dir

#: A time-boxed measurement still takes at least this many repeats:
#: the median of three shrugs off one disturbed repeat.
MIN_REPEATS = 3


def measure(workload_cls: Type[Workload], seed: int, *, tiny: bool,
            workdir: str, meter: SpeedMeter,
            import_s: Tuple[float, float], setup_repeats: int,
            seconds: Optional[float] = None,
            repeats: Optional[int] = None, traced_runs: int = 0,
            traced_seconds: Optional[float] = None,
            fresh_cache: bool = True) -> Dict[str, object]:
    """Run one workload and return its record.

    ``meter`` is running; ``import_s`` is what importing the program
    took (at reference speed, raw).  Untraced repeats stop after
    ``repeats`` runs, or once ``seconds`` have passed (and at least
    :data:`MIN_REPEATS` ran).  Traced runs follow: ``traced_runs`` of
    them, or as many as fit in ``traced_seconds`` (at least one).
    """
    workload = workload_cls(seed, tiny, workdir)
    name = workload.name
    tracer = Tracer(name)
    raw: Dict[str, List[float]] = {
        key: [] for key in ("setup_wall_s", "body_wall_s", "body_cpu_s",
                            "core_speed")}

    # ---- set-up, several times --------------------------------------
    setup_s: List[float] = []
    for k in range(setup_repeats):
        if fresh_cache:
            configure_shared_cache(None)
        gc.collect()
        tracer.repeat = -1 - k
        with Stopwatch(meter) as watch:
            workload.setup(tracer)
        setup_s.append(import_s[0] + watch.ref_s)
        raw["setup_wall_s"].append(import_s[1] + watch.wall_s)

    # ---- untraced repeats --------------------------------------------
    expected = workload.expected_decisions()
    runs: List[Outcome] = []
    samples: Dict[str, List[float]] = {
        metric: [] for metric in layers.end_to_end_names(name)}
    latencies: List[float] = []
    began = time.perf_counter()
    while True:
        done = len(runs)
        if repeats is not None:
            if done >= repeats:
                break
        elif done >= MIN_REPEATS \
                and time.perf_counter() - began >= seconds:
            break
        run_dir = fresh_dir(workdir, f"run-{done}")
        gc.collect()
        with Stopwatch(meter) as watch:
            state = workload.body(run_dir)
        outcome = workload.seal(state)
        samples["body_s"].append(watch.ref_s)
        for metric, value in workload.specific(outcome, watch).items():
            samples[metric].append(value)
        for metric, value in outcome.quality.items():
            samples[metric].append(value)
        raw["body_wall_s"].append(watch.wall_s)
        raw["body_cpu_s"].append(watch.cpu_s)
        raw["core_speed"].append(watch.speed)
        latencies.extend(watch.scale * t for t
                         in outcome.timings.get("decide_s", ()))
        if done:                # only the first run's state is needed
            outcome.state = {}
            shutil.rmtree(run_dir, ignore_errors=True)
        runs.append(outcome)
    samples["peak_rss_mb"] = [peak_rss_mb()]
    samples["setup_s"] = setup_s

    # ---- traced runs --------------------------------------------------
    reference = runs[0]
    body_s = statistics.median(samples["body_s"])
    traced: List[Outcome] = []
    layer_runs: List[Dict[str, float]] = []
    began = time.perf_counter()
    while traced_runs or traced_seconds is not None:
        done = len(traced)
        if traced_seconds is None:
            if done >= traced_runs:
                break
        elif done >= 1 and time.perf_counter() - began >= traced_seconds:
            break
        run_dir = fresh_dir(workdir, f"traced-{done}")
        gc.collect()
        tracer.repeat = done
        with Stopwatch(meter) as watch:
            root = tracer.begin("bench.body")
            outcome = workload.traced(tracer, run_dir, reference)
            tracer.end(root)
        traced.append(outcome)
        layer_runs.append(_layer_values(
            workload, tracer, done, outcome, reference, watch, body_s))
        outcome.state = {key: outcome.state[key]
                         for key in ("matrices",)
                         if key in outcome.state}
        shutil.rmtree(run_dir, ignore_errors=True)

    # ---- checks (outside every timed region) ---------------------------
    checks = _generic_checks(runs, traced, expected)
    checks.extend(workload.extra_checks(runs, traced[-1]
                                        if traced else None))
    every = runs + traced
    failed_runs = set()
    for check in checks:
        if not check.ok:
            failed_runs.update(check.runs or range(len(every)))
    attempted = sum(outcome.decisions for outcome in every)
    failed = sum(every[i].decisions for i in failed_runs)
    samples["failure_rate"] = [failed / attempted]

    record: Dict[str, object] = {
        "workload": name,
        "seed": seed,
        "sizes": workload.sizes(),
        "repeats": len(runs),
        "traced_repeats": len(traced),
        "setup_repeats": setup_repeats,
        "end_to_end": {metric: summary(values)
                       for metric, values in samples.items()},
        "raw": {metric: summary(values)
                for metric, values in raw.items()},
        "digests": reference.digests,
        "attempted": attempted,
        "failed": failed,
        "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail}
                   for c in checks],
    }
    if latencies:
        record["decide_ms"] = {
            "n": len(latencies),
            **{f"p{p}": 1e3 * percentile(latencies, p)
               for p in (50, 90, 99)},
            "max": 1e3 * max(latencies)}
    if traced:
        merged = _merge_layers(tracer, layer_runs, setup_repeats)
        merged["bench.import_s"] = import_s[1]
        merged["bench.core_speed"] = meter.median_speed()
        if workload.uses_networks:
            merged.update(nn_layers())
        record["per_layer"] = merged
        record["spans"] = tracer.dump(repeat=len(traced) - 1)
    return record


def _layer_values(workload: Workload, tracer: Tracer, repeat: int,
                  outcome: Outcome, reference: Outcome,
                  watch: Stopwatch, body_s: float) -> Dict[str, float]:
    """Every body-span layer number of one traced run, in raw wall
    seconds: what the spans and the program's own exports read."""
    self_s = tracer.self_seconds(repeat)
    unattributed = self_s.pop("bench.body")
    values = layers.span_layers(self_s, tracer.counts(repeat))
    values.update(workload.layers(tracer, repeat, outcome, reference))
    digests = tracer.durations("serve.snapshot_digest", repeat)
    if digests:
        values["serve.snapshot_digest_ms"] = \
            1e3 * statistics.median(digests)
    values["bench.wall_s"] = watch.wall_s
    values["bench.unattributed_pct"] = \
        100.0 * unattributed / watch.wall_s
    # the one per-layer number at reference speed, both sides: the
    # traced and the untraced bodies ran at different moments
    values["bench.trace_overhead_pct"] = \
        100.0 * (watch.ref_s - body_s) / body_s
    return values


def _merge_layers(tracer: Tracer, layer_runs: List[Dict[str, float]],
                  setup_repeats: int) -> Dict[str, float]:
    """Median over traced runs plus the set-up spans (median over
    set-ups); 0 for bypassed layers."""
    merged = dict.fromkeys(layers.PER_LAYER_NAMES, 0.0)
    unknown = {m for run in layer_runs for m in run} - set(merged)
    if unknown:
        raise KeyError(f"per-layer metrics missing from "
                       f"BENCHMARK.json: {sorted(unknown)}")
    for metric in merged:
        values = [run[metric] for run in layer_runs if metric in run]
        if values:
            merged[metric] = statistics.median(values)
    setups = [tracer.self_seconds(-1 - k) for k in range(setup_repeats)]
    for span in sorted({span for setup in setups for span in setup}):
        metric = f"{span}_s"
        if metric in merged:
            merged[metric] += statistics.median(
                setup.get(span, 0.0) for setup in setups)
    return merged


def _generic_checks(runs: List[Outcome], traced: List[Outcome],
                    expected: int) -> List[Check]:
    """Counts against the closed form; digests across repeats and
    between the untraced and the traced runs."""
    checks = []
    every = runs + traced
    wrong = [i for i, outcome in enumerate(every)
             if outcome.decisions != expected]
    checks.append(Check(
        "decision count equals the closed-form expectation",
        not wrong, f"expected {expected}, got "
        f"{[every[i].decisions for i in wrong]}", runs=wrong))
    first = runs[0].digests
    differing = [i for i, outcome in enumerate(runs)
                 if outcome.digests != first]
    checks.append(Check(
        f"digests identical across {len(runs)} untraced repeats",
        not differing, f"repeats {differing} differ from repeat 0",
        runs=differing))
    for j, outcome in enumerate(traced):
        keys = [key for key in first
                if outcome.digests.get(key) != first[key]]
        checks.append(Check(
            f"traced run {j} reproduces the untraced digests",
            not keys, f"differing: {keys}", runs=(len(runs) + j,)))
    return checks


# ---------------------------------------------------------------------
# nn micro-timings
# ---------------------------------------------------------------------

#: Calls per standalone timing.
NN_CALLS = 200


def _per_call_ms(fn) -> float:
    fn()
    start = time.perf_counter()
    for _ in range(NN_CALLS):
        fn()
    return 1e3 * (time.perf_counter() - start) / NN_CALLS


def nn_layers() -> Dict[str, float]:
    """The three inference primitives the onslicing workloads lean on,
    timed standalone on fixed-seed networks of the paper's shapes:
    pi_phi's one-row posterior (the 1-row regime of ``train_online``
    and ``fleet_onslicing``), its 64-row posterior and pi_theta's
    64-row forward (the regime of ``serve_dense``)."""
    rng = np.random.default_rng(7)
    row = rng.uniform(0.0, 1.0, STATE_DIM)
    rows = rng.uniform(0.0, 1.0, (64, STATE_DIM))
    estimator = CostToGoEstimator(STATE_DIM, cfg=EstimatorConfig(),
                                  rng=np.random.default_rng(7))
    bayes = BayesianMLP(STATE_DIM, 1,
                        hidden_sizes=EstimatorConfig().hidden_sizes,
                        rng=np.random.default_rng(7))
    sample_rng = np.random.default_rng(7)
    actor = MLP(STATE_DIM, 10, rng=np.random.default_rng(7))
    return {
        "rl.estimator_predict_ms":
            _per_call_ms(lambda: estimator.predict(row)),
        "nn.bayes_predict_ms_b64":
            _per_call_ms(lambda: bayes.predict(
                rows, num_samples=16, rng=sample_rng)),
        "nn.predict_batch_ms_b64":
            _per_call_ms(lambda: actor.predict_batch(rows)),
    }
