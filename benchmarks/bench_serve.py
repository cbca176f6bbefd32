"""Serving throughput of the row-wise decision service.

The decision service stacks a 50-slice cell's requests as one slab per
snapshot policy and runs one pi_theta forward per row count
(coordination included); ``test_serve_throughput`` records its
decisions/s as an ungated trajectory entry.  It used to be a >= 3x
ratio against a single-state path kept in ``src/`` only to be that
ratio's denominator; the path is deleted, and what the two had to
agree on is now ``tests/test_serve.py::test_batched_matches_unbatched``
(one N-row ``decide`` vs N one-row ``decide``s).
``test_serve_fleet_shard`` records the other regime: many small cells
decided by one ``decide_rows`` call per slot, and
``test_serve_fleet_onslicing`` the same regime on a learned snapshot,
where the groups of every snapshot policy in every cell ride one
pi_theta forward and one pi_phi pass per slot, one slab each.
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
#: spend more than 5% of the plain service's decide time in
#: ``observe`` (2.3-3.4% measured on a 2-core x86 container).
MAX_SLO_OVERHEAD = 0.05

#: Diagnosis-instrumentation overhead gate: the full observer stack --
#: burn-rate SLO evaluation *plus* the streaming anomaly detectors,
#: both at every-batch cadence -- at most 5% of the decide time.
MAX_DIAGNOSE_OVERHEAD = 0.05

#: Drives per service behind each observer gate (best of each).
OVERHEAD_ROUNDS = 5


def _make_service(slo=None, slo_every: int = 64,
                  anomaly=None) -> SlicingService:
    base_cfg = get_scenario("default").build_config()
    snapshot = snapshot_onrl(
        "bench-serve", base_cfg,
        make_onrl_agents(base_cfg, seed=11), seed=11)
    target = scenario_with_population(get_scenario("default"), SLICES)
    return SlicingService(snapshot, cfg=target.build_config(),
                          slo=slo, slo_every=slo_every, anomaly=anomaly)


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
    # one warm-up slot: numpy buffers and the routing plan
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


def _timed_shard(benchmark, monkeypatch, plan, snapshot):
    """``run_fleet_shard`` once under the benchmark timer; returns its
    result and the (largest) decision core it built."""
    cores = []
    build = DecisionCore.__init__

    def spy(core, services):
        build(core, services)
        cores.append(core)

    monkeypatch.setattr(DecisionCore, "__init__", spy)
    result = run_once(benchmark, run_fleet_shard, plan,
                      snapshot=snapshot)
    monkeypatch.undo()
    return result, max(cores, key=lambda c: len(c.services))


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
    result, core = _timed_shard(benchmark, monkeypatch, plan, snapshot)
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


#: The learned fleet case: OnSlicing cells x slots of one shard over
#: the scenarios of the e2e ``fleet_onslicing`` workload.
ONSLICING_CELLS = 12
ONSLICING_SCENARIOS = ("default", "lte_fixed_mcs", "transport_brownout")


def test_serve_fleet_onslicing(benchmark, monkeypatch):
    """Ungated trajectory case: a 12-cell OnSlicing shard, 96 slots.

    Each cell routes its slices onto the snapshot's three policies, so
    a slot holds 36 learned (cell, policy) groups of one row each; the
    core runs one pi_theta forward per snapshot and row count and one
    pi_phi pass per snapshot and open-row count, every group of every
    policy a slab of it: one forward and at most one pass per slot.
    Records decisions/s over the shard's wall time and, per slot, the
    (cell, policy) groups, forwards and pi_phi passes.
    """
    cfg = get_scenario("default").build_config()
    snapshot = snapshot_onslicing(
        "bench-fleet-onslicing",
        build_onslicing(cfg, offline_episodes=1, exploration_episodes=1,
                        seed=11), seed=11)
    spec = FleetSpec(name="bench-fleet-onslicing", cells=ONSLICING_CELLS,
                     scenarios=ONSLICING_SCENARIOS, slots=SHARD_SLOTS,
                     seed=7)
    plan, = plan_shards(spec, 1, "unused", snapshot.ref,
                        snapshot.digest)
    run_fleet_shard(plan, snapshot=snapshot)             # warm-up
    result, core = _timed_shard(benchmark, monkeypatch, plan, snapshot)
    assert len(core.services) == ONSLICING_CELLS
    counters = dict(core.counters)
    slots = counters["decide_calls"]
    groups = int(core._plan.groups.sum())
    rate = result.decisions / result.elapsed_s
    per_slot = {"groups_per_slot": groups,
                "forwards_per_slot": counters["forward_calls"] / slots,
                "posterior_passes_per_slot":
                    counters["posterior_calls"] / slots}
    benchmark.extra_info["decisions_per_sec"] = rate
    benchmark.extra_info.update(per_slot)
    benchmark.extra_info["serve_counters"] = counters
    print(f"\nOnSlicing fleet shard ({ONSLICING_CELLS} cells x "
          f"{SHARD_SLOTS} slots, {result.decisions} decisions): "
          f"{rate:,.0f} decisions/s; per slot "
          + ", ".join(f"{name[:-len('_per_slot')]} {value:g}"
                      for name, value in per_slot.items()))
    assert slots == SHARD_SLOTS
    assert per_slot["forwards_per_slot"] == len(core._plan.forwards) \
        == 1 < groups
    assert 0 < per_slot["posterior_passes_per_slot"] <= 1


#: ``(rows, latched)`` per pi_phi case: one slice per policy (the
#: fleet's regime), a 64-slice cell split over three policies, a full
#: 64-row group, and the 21-row group with its first 10 slices already
#: switched to pi_b (the posterior then runs on the 11 open rows).
POSTERIOR_CASES = ((1, 0), (21, 0), (64, 0), (21, 10))
POSTERIOR_CALLS = 100


def test_serve_estimator_posterior(benchmark):
    """Per-call cost of the Eq. 8 stage on an OnSlicing snapshot.

    Ungated trajectory case.  Each batch holds ``rows`` slices of one
    application, so they share one snapshot policy and ``decide`` makes
    exactly one pi_phi posterior call; the service's own
    ``stage_fallback_ms`` histogram (posterior + the Eq. 8 compare +
    pi_b for latched rows) is what lands in ``extra_info``.  States
    carry zero cumulative cost, so no open slice latches onto pi_b;
    the ``latched`` slices of a case are switched by a warm-up batch
    that has spent their budgets, and the posterior skips them.
    """
    base_cfg = get_scenario("default").build_config()
    snapshot = snapshot_onslicing(
        "bench-posterior",
        build_onslicing(base_cfg, offline_episodes=1,
                        exploration_episodes=1, seed=11), seed=11)
    rows_max = max(rows for rows, _ in POSTERIOR_CASES)
    target = scenario_with_population(
        get_scenario("default"), 3 * rows_max).build_config()
    app = target.slices[0].app
    names = [spec.name for spec in target.slices if spec.app == app]
    rng = np.random.default_rng(5)
    services = {}
    batches = {}
    for case in POSTERIOR_CASES:
        rows, latched = case
        services[case] = SlicingService(snapshot, cfg=target)
        states = rng.uniform(0.0, 1.0, size=(rows, 9))
        states[:, 8] = 0.0                  # no cost spent yet
        warm = states.copy()
        warm[:latched, 8] = 5.0             # five budgets spent: switch
        batches[case] = [DecisionRequest(slice_name=name, state=state)
                         for name, state in zip(names, states)]
        services[case].decide(                          # warm-up
            [DecisionRequest(slice_name=name, state=state)
             for name, state in zip(names, warm)])

    def drive():
        for case in POSTERIOR_CASES:
            for _ in range(POSTERIOR_CALLS):
                services[case].decide(batches[case])

    run_once(benchmark, drive)
    print(f"\npi_phi posterior per call ({POSTERIOR_CALLS} calls each):")
    for case in POSTERIOR_CASES:
        rows, latched = case
        service = services[case]
        assert service.telemetry.counter("fallbacks").value == \
            latched * (POSTERIOR_CALLS + 1)
        assert service.core.counters["posterior_rows"] == \
            rows + (rows - latched) * POSTERIOR_CALLS
        per_call_ms = service.telemetry.histogram(
            "stage_fallback_ms").mean
        key = f"posterior_ms_rows{rows}" + (
            f"_latched{latched}" if latched else "")
        benchmark.extra_info[key] = per_call_ms
        print(f"  {rows:3d} rows, {latched:2d} latched  "
              f"{per_call_ms:8.3f} ms")


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


def _observer_overhead(benchmark, **observers):
    """``(plain_s, observe_s)``: a plain service's decide seconds over
    the request stream, and the seconds the ``observers`` of an
    otherwise identical service spend in their ``observe`` calls at
    ``slo_every=1`` over the same stream, best of
    ``OVERHEAD_ROUNDS`` drives each (the two services take turns).

    The observers are timed where they run rather than as the gap
    between two ~25 ms throughputs, which swung by more than the gate
    from run to run.  Decision parity is asserted: observers only read
    telemetry and must never consume service RNG.
    """
    plain = _make_service()
    guarded = _make_service(slo_every=1, **observers)
    spent = [0.0]
    for observer in observers.values():
        def timed(telemetry, at, observe=observer.observe):
            start = time.perf_counter()
            try:
                return observe(telemetry, at=at)
            finally:
                spent[0] += time.perf_counter() - start
        observer.observe = timed
    slots = _make_requests(plain)
    _drive(plain, slots[:1])                              # warm-up
    _drive(guarded, slots[:1])

    plain_s = observe_s = float("inf")
    for round_ in range(OVERHEAD_ROUNDS):
        plain_s = min(plain_s, _drive(plain, slots))
        spent[0] = 0.0
        if round_:
            _drive(guarded, slots)
        else:
            run_once(benchmark, _drive, guarded, slots)
        observe_s = min(observe_s, spent[0])

    sample = slots[0]
    plain_d = plain.decide(sample)
    guarded_d = guarded.decide(sample)
    for name in plain_d:
        np.testing.assert_allclose(plain_d[name].action,
                                   guarded_d[name].action,
                                   atol=1e-9)
    return plain_s, observe_s


def test_serve_slo_overhead(benchmark):
    """Streaming SLO evaluation must be near-free for the service.

    A :class:`~repro.obs.slo.SloEvaluator` re-reads the registry after
    *every* decision batch (``slo_every=1``, 64x the default cadence);
    its ``observe`` seconds are gated at <= 5 % of the plain service's
    decide seconds (:func:`_observer_overhead`).  The guarded spec
    points every objective kind at instruments the service actually
    populates (histogram ``count_over`` deltas included), so the gate
    measures real evaluation work, not missing-instrument early-outs.
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
    plain_s, observe_s = _observer_overhead(
        benchmark, slo=SloEvaluator(spec))
    overhead = observe_s / plain_s
    per_batch_us = 1e6 * observe_s / SLOTS
    benchmark.extra_info["plain_decide_ms"] = 1e3 * plain_s
    benchmark.extra_info["slo_observe_ms"] = 1e3 * observe_s
    benchmark.extra_info["slo_observe_us_per_batch"] = per_batch_us
    benchmark.extra_info["slo_overhead_pct"] = 100.0 * overhead
    print(f"\nSLO evaluation at slo_every=1 ({SLICES} slices, "
          f"{SLOTS} slots): {1e3 * observe_s:.2f} ms observing "
          f"({per_batch_us:.1f} us per batch) against "
          f"{1e3 * plain_s:.2f} ms deciding ({100.0 * overhead:.1f}%)")
    assert overhead <= MAX_SLO_OVERHEAD, \
        (f"slo evaluation costs {100.0 * overhead:.1f}% of the decide "
         f"time (gate: <= {100.0 * MAX_SLO_OVERHEAD:.0f}%)")


def test_serve_diagnose_overhead(benchmark):
    """The full diagnosis instrumentation must be near-free too.

    Same protocol as :func:`test_serve_slo_overhead`, but the guarded
    service carries the complete observer stack an incident responder
    would attach: the burn-rate evaluator *and* an
    :class:`~repro.obs.anomaly.AnomalyMonitor` running the stock
    detector set, both re-reading the registry after every decision
    batch; the gate (5 %) is on the sum of their ``observe`` seconds.
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
    plain_s, observe_s = _observer_overhead(
        benchmark, slo=SloEvaluator(spec), anomaly=AnomalyMonitor())
    overhead = observe_s / plain_s
    per_batch_us = 1e6 * observe_s / SLOTS
    benchmark.extra_info["plain_decide_ms"] = 1e3 * plain_s
    benchmark.extra_info["diagnose_observe_ms"] = 1e3 * observe_s
    benchmark.extra_info["diagnose_observe_us_per_batch"] = per_batch_us
    benchmark.extra_info["diagnose_overhead_pct"] = 100.0 * overhead
    print(f"\nDiagnosis instrumentation at slo_every=1 ({SLICES} "
          f"slices, {SLOTS} slots): {1e3 * observe_s:.2f} ms observing "
          f"({per_batch_us:.1f} us per batch) against "
          f"{1e3 * plain_s:.2f} ms deciding ({100.0 * overhead:.1f}%)")
    assert overhead <= MAX_DIAGNOSE_OVERHEAD, \
        (f"diagnosis instrumentation costs {100.0 * overhead:.1f}% of "
         f"the decide time (gate: <= "
         f"{100.0 * MAX_DIAGNOSE_OVERHEAD:.0f}%)")
