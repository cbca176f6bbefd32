"""Serving throughput of the row-wise decision service.

The decision service groups a 50-slice cell's requests into one
vectorised :meth:`~repro.nn.network.MLP.predict_batch` call per policy
(coordination included); ``test_serve_throughput`` records its
decisions/s as an ungated trajectory entry.  It used to be a >= 3x
ratio against a single-state path kept in ``src/`` only to be that
ratio's denominator; the path is deleted, and what the two had to
agree on is now ``tests/test_serve.py::test_batched_matches_unbatched``
(one N-row ``decide`` vs N one-row ``decide``s).
``test_serve_fleet_shard`` records the other regime: many small cells
decided by one ``decide_rows`` call per slot.
``test_serve_store_roundtrip`` times the policy store's save and
digest-verified load of an OnSlicing snapshot and gates the load.
"""

import os
import statistics
import time

import numpy as np

from conftest import run_once

from repro.experiments.harness import (
    build_onslicing,
    fit_baselines,
    make_onrl_agents,
)
from repro.fleet import FleetSpec, plan_shards
from repro.fleet.shard import run_fleet_shard
from repro.scenarios import ROBUSTNESS_MATRIX
from repro.scenarios import get as get_scenario
from repro.serve import (
    DecisionCore,
    DecisionRequest,
    PolicyStore,
    SlicingService,
    snapshot_baseline,
    snapshot_onrl,
    snapshot_onslicing,
)
from repro.serve.loadgen import scenario_with_population

SLICES = 50
SLOTS = 40

#: SLO-evaluation overhead gate: streaming burn-rate evaluation at an
#: every-batch cadence (64x denser than the service default) must not
#: cost more than 5% of serving throughput.
MAX_SLO_OVERHEAD = 0.05

#: Diagnosis-instrumentation overhead gate: the full observer stack --
#: burn-rate SLO evaluation *plus* the streaming anomaly detectors,
#: both at every-batch cadence -- must stay within the same 5%.
MAX_DIAGNOSE_OVERHEAD = 0.05


def _make_service(slo=None, slo_every: int = 64,
                  anomaly=None) -> SlicingService:
    base_cfg = get_scenario("default").build_config()
    snapshot = snapshot_onrl(
        "bench-serve", base_cfg,
        make_onrl_agents(base_cfg, seed=11), seed=11)
    target = scenario_with_population(get_scenario("default"), SLICES)
    return SlicingService(snapshot, cfg=target.build_config(),
                          rng_seed=0, slo=slo, slo_every=slo_every,
                          anomaly=anomaly)


def _make_requests(service: SlicingService):
    rng = np.random.default_rng(5)
    return [
        [DecisionRequest(slice_name=name,
                         state=rng.uniform(0.0, 1.0, size=9))
         for name in service.slice_names]
        for _ in range(SLOTS)
    ]


def _drive(service: SlicingService, slots) -> float:
    start = time.perf_counter()
    for requests in slots:
        service.decide(requests)
    return time.perf_counter() - start


def test_serve_throughput(benchmark):
    """Ungated trajectory case: decisions/s at a 50-slice cell."""
    service = _make_service()
    slots = _make_requests(service)
    # one warm-up slot: numpy buffers, coordinator warm start
    _drive(service, slots[:1])

    elapsed = run_once(benchmark, _drive, service, slots)

    decisions = SLOTS * SLICES
    rate = decisions / elapsed
    benchmark.extra_info["decisions_per_sec"] = rate
    print(f"\nServing throughput at {SLICES} slices "
          f"({decisions} decisions): {rate:,.0f} decisions/s")
    assert service.telemetry.counter("decisions").value \
        == decisions + SLICES


#: The fleet-shard case: cells x slots x episodes of one shard.
SHARD_CELLS = 32
SHARD_SLOTS = 96
SHARD_EPISODES = 2


def test_serve_fleet_shard(benchmark, monkeypatch):
    """Ungated trajectory case: one 32-cell ``ROBUSTNESS_MATRIX``
    shard on the rule-based snapshot through ``run_fleet_shard`` --
    the small-batch regime, where the cost is calls rather than
    arithmetic.  Records decisions/s over the shard's wall time,
    ``decide_rows`` calls per lockstep slot and the serving core's
    counters."""
    cfg = get_scenario("default").build_config()
    snapshot = snapshot_baseline("bench-shard", cfg, fit_baselines(cfg),
                                 seed=7)
    spec = FleetSpec(name="bench-shard", cells=SHARD_CELLS,
                     scenarios=ROBUSTNESS_MATRIX, slots=SHARD_SLOTS,
                     episodes=SHARD_EPISODES, seed=7)
    plan, = plan_shards(spec, 1, "unused", snapshot.ref,
                        snapshot.digest)
    run_fleet_shard(plan, snapshot=snapshot)             # warm-up
    cores = []
    build = DecisionCore.__init__

    def spy(core, services):
        build(core, services)
        cores.append(core)

    monkeypatch.setattr(DecisionCore, "__init__", spy)
    result = run_once(benchmark, run_fleet_shard, plan,
                      snapshot=snapshot)
    monkeypatch.undo()

    core = max(cores, key=lambda c: len(c.services))
    assert len(core.services) == SHARD_CELLS
    counters = dict(core.counters)
    slots = SHARD_SLOTS * SHARD_EPISODES
    rate = result.decisions / result.elapsed_s
    benchmark.extra_info["decisions_per_sec"] = rate
    benchmark.extra_info["decide_calls_per_slot"] = \
        counters["decide_calls"] / slots
    benchmark.extra_info["serve_counters"] = counters
    print(f"\nFleet shard ({SHARD_CELLS} cells x {SHARD_SLOTS} slots x "
          f"{SHARD_EPISODES} episodes, {result.decisions} decisions): "
          f"{rate:,.0f} decisions/s, "
          f"{counters['decide_calls'] / slots:g} decide call(s)/slot")
    print("  " + ", ".join(f"{name} {value}" for name, value
                           in sorted(counters.items())))
    assert counters["decide_calls"] == slots
    assert counters["telemetry_folds"] == SHARD_CELLS * SHARD_EPISODES


#: Rows per pi_phi call: one slice per policy (the fleet's regime), a
#: 64-slice cell split over three policies, and a full 64-row group.
POSTERIOR_ROWS = (1, 21, 64)
POSTERIOR_CALLS = 100


def test_serve_estimator_posterior(benchmark):
    """Per-call cost of the Eq. 8 stage on an OnSlicing snapshot.

    Ungated trajectory case.  Each batch holds ``rows`` slices of one
    application, so they share one snapshot policy and ``decide`` makes
    exactly one pi_phi posterior call; the service's own
    ``stage_fallback_ms`` histogram (posterior + the Eq. 8 compare)
    is what lands in ``extra_info``.  States carry zero cumulative
    cost, so no slice latches onto pi_b and nothing but the posterior
    is in the stage.
    """
    base_cfg = get_scenario("default").build_config()
    snapshot = snapshot_onslicing(
        "bench-posterior",
        build_onslicing(base_cfg, offline_episodes=1,
                        exploration_episodes=1, seed=11), seed=11)
    target = scenario_with_population(
        get_scenario("default"), 3 * max(POSTERIOR_ROWS)).build_config()
    app = target.slices[0].app
    names = [spec.name for spec in target.slices if spec.app == app]
    rng = np.random.default_rng(5)
    services = {}
    batches = {}
    for rows in POSTERIOR_ROWS:
        services[rows] = SlicingService(snapshot, cfg=target,
                                        rng_seed=0)
        states = rng.uniform(0.0, 1.0, size=(rows, 9))
        states[:, 8] = 0.0                  # no cost spent yet
        batches[rows] = [DecisionRequest(slice_name=name, state=state)
                         for name, state in zip(names, states)]
        services[rows].decide(batches[rows])            # warm-up

    def drive():
        for rows in POSTERIOR_ROWS:
            for _ in range(POSTERIOR_CALLS):
                services[rows].decide(batches[rows])

    run_once(benchmark, drive)
    print(f"\npi_phi posterior per call ({POSTERIOR_CALLS} calls each):")
    for rows in POSTERIOR_ROWS:
        telemetry = services[rows].telemetry
        assert telemetry.counter("fallbacks").value == 0
        per_call_ms = telemetry.histogram("stage_fallback_ms").mean
        benchmark.extra_info[f"posterior_ms_rows{rows}"] = per_call_ms
        print(f"  {rows:3d} rows  {per_call_ms:8.3f} ms")


#: Gate on the median digest-verified load of the snapshot below.
MAX_STORE_LOAD_MS = 30.0
STORE_REPEATS = 5


def test_serve_store_roundtrip(benchmark, tmp_path):
    """Policy-store round trip of the e2e fixture-sized OnSlicing
    snapshot (the paper's 3-slice default world, offline stage at one
    clean and one exploration episode, seed 42).

    Records save ms, load ms (medians of ``STORE_REPEATS``; a load
    re-verifies the content digest) and the file's bytes, and gates
    the load at <= 30 ms.  The timed benchmark sample is one load.
    """
    cfg = get_scenario("default").build_config()
    snapshot = snapshot_onslicing(
        "bench-store",
        build_onslicing(cfg, offline_episodes=1, exploration_episodes=1,
                        seed=42), seed=42)
    store = PolicyStore(str(tmp_path))

    def timed(fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        return out, 1e3 * (time.perf_counter() - start)

    saves = [timed(store.save, snapshot) for _ in range(STORE_REPEATS)]
    saved = saves[-1][0]
    loads = [timed(store.load, saved.ref)[1]
             for _ in range(STORE_REPEATS)]
    loaded = run_once(benchmark, store.load, saved.ref)
    assert loaded.digest == snapshot.digest

    save_ms = statistics.median(ms for _, ms in saves)
    load_ms = statistics.median(loads)
    size = os.path.getsize(store._path(saved.name, saved.version))
    benchmark.extra_info["save_ms"] = save_ms
    benchmark.extra_info["load_ms"] = load_ms
    benchmark.extra_info["file_bytes"] = size
    print(f"\nPolicy store round trip (OnSlicing, {size:,} bytes): "
          f"save {save_ms:.1f} ms, load {load_ms:.1f} ms")
    assert load_ms <= MAX_STORE_LOAD_MS, \
        (f"snapshot load takes {load_ms:.1f} ms "
         f"(gate: <= {MAX_STORE_LOAD_MS:.0f} ms)")


def test_serve_slo_overhead(benchmark):
    """Streaming SLO evaluation must be near-free for the service.

    Drives identical request streams through a plain service and one
    with a :class:`~repro.obs.slo.SloEvaluator` re-reading the
    registry after *every* decision batch (``slo_every=1``, 64x the
    default cadence), best-of-2 each.  The guarded spec points every
    objective kind at instruments the service actually populates
    (histogram ``count_over`` deltas included), so the gate measures
    real evaluation work, not missing-instrument early-outs.
    Decision parity is asserted too: evaluation only reads telemetry
    and must never consume service RNG.
    """
    from repro.obs.slo import SloEvaluator, SloObjective, SloSpec

    spec = SloSpec(name="bench-guard", objectives=(
        SloObjective(name="batch-latency-p99", kind="latency",
                     instrument="batch_latency_ms", budget_ms=1.0,
                     fast_window=8.0, slow_window=24.0),
        SloObjective(name="fallback-rate", kind="ratio",
                     instrument="fallbacks", total="decisions",
                     ceiling=0.5, fast_window=8.0, slow_window=24.0),
        SloObjective(name="mean-coordinate-ms", kind="mean",
                     instrument="stage_coordinate_ms", ceiling=100.0,
                     fast_window=8.0, slow_window=24.0),
    ))
    plain = _make_service()
    guarded = _make_service(slo=SloEvaluator(spec),
                            slo_every=1)
    slots = _make_requests(plain)
    _drive(plain, slots[:1])                              # warm-up
    _drive(guarded, slots[:1])

    plain_s = min(_drive(plain, slots) for _ in range(2))
    guarded_s = min((run_once(benchmark, _drive, guarded, slots),
                     _drive(guarded, slots)))

    sample = slots[0]
    plain_d = plain.decide(sample)
    guarded_d = guarded.decide(sample)
    for name in plain_d:
        np.testing.assert_allclose(plain_d[name].action,
                                   guarded_d[name].action,
                                   atol=1e-9)

    decisions = SLOTS * SLICES
    plain_rate = decisions / plain_s
    guarded_rate = decisions / guarded_s
    overhead = 1.0 - guarded_rate / plain_rate
    benchmark.extra_info["plain_decisions_per_sec"] = plain_rate
    benchmark.extra_info["guarded_decisions_per_sec"] = guarded_rate
    benchmark.extra_info["slo_overhead_pct"] = 100.0 * overhead
    print(f"\nSLO evaluation overhead at slo_every=1 "
          f"({SLICES} slices, {SLOTS} slots):")
    print(f"  plain    {plain_rate:12,.0f} decisions/s")
    print(f"  guarded  {guarded_rate:12,.0f} decisions/s "
          f"({100.0 * overhead:+.1f}%)")
    assert overhead <= MAX_SLO_OVERHEAD, \
        (f"slo evaluation costs {100.0 * overhead:.1f}% of serving "
         f"throughput (gate: <= {100.0 * MAX_SLO_OVERHEAD:.0f}%)")


def test_serve_diagnose_overhead(benchmark):
    """The full diagnosis instrumentation must be near-free too.

    Same protocol as :func:`test_serve_slo_overhead`, but the guarded
    service carries the complete observer stack an incident responder
    would attach: the burn-rate evaluator *and* an
    :class:`~repro.obs.anomaly.AnomalyMonitor` running the stock
    detector set, both re-reading the registry after every decision
    batch.  Decision parity is asserted: observers only read telemetry
    and must never consume service RNG.
    """
    from repro.obs.anomaly import AnomalyMonitor
    from repro.obs.slo import SloEvaluator, SloObjective, SloSpec

    spec = SloSpec(name="bench-diag", objectives=(
        SloObjective(name="batch-latency-p99", kind="latency",
                     instrument="batch_latency_ms", budget_ms=1.0,
                     fast_window=8.0, slow_window=24.0),
        SloObjective(name="fallback-rate", kind="ratio",
                     instrument="fallbacks", total="decisions",
                     ceiling=0.5, fast_window=8.0, slow_window=24.0),
    ))
    plain = _make_service()
    guarded = _make_service(slo=SloEvaluator(spec),
                            slo_every=1, anomaly=AnomalyMonitor())
    slots = _make_requests(plain)
    _drive(plain, slots[:1])                              # warm-up
    _drive(guarded, slots[:1])

    plain_s = min(_drive(plain, slots) for _ in range(2))
    guarded_s = min((run_once(benchmark, _drive, guarded, slots),
                     _drive(guarded, slots)))

    sample = slots[0]
    plain_d = plain.decide(sample)
    guarded_d = guarded.decide(sample)
    for name in plain_d:
        np.testing.assert_allclose(plain_d[name].action,
                                   guarded_d[name].action,
                                   atol=1e-9)

    decisions = SLOTS * SLICES
    plain_rate = decisions / plain_s
    guarded_rate = decisions / guarded_s
    overhead = 1.0 - guarded_rate / plain_rate
    benchmark.extra_info["plain_decisions_per_sec"] = plain_rate
    benchmark.extra_info["diagnosed_decisions_per_sec"] = guarded_rate
    benchmark.extra_info["diagnose_overhead_pct"] = 100.0 * overhead
    print(f"\nDiagnosis instrumentation overhead at slo_every=1 "
          f"({SLICES} slices, {SLOTS} slots):")
    print(f"  plain      {plain_rate:12,.0f} decisions/s")
    print(f"  diagnosed  {guarded_rate:12,.0f} decisions/s "
          f"({100.0 * overhead:+.1f}%)")
    assert overhead <= MAX_DIAGNOSE_OVERHEAD, \
        (f"diagnosis instrumentation costs {100.0 * overhead:.1f}% "
         f"of serving throughput (gate: <= "
         f"{100.0 * MAX_DIAGNOSE_OVERHEAD:.0f}%)")
