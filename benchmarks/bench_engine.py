"""Engine throughput: one batch of B worlds vs one batch per world.

There is one world stepper (:class:`~repro.engine.batch.BatchSimulator`);
``run_episodes(engine=)`` only picks the batch width.  The first test
records world-slots/s for B=32 default worlds stepped in one lockstep
batch (``"vector"``) and as 32 one-world batches (``"scalar"``) --
ungated: the wide batch's advantage is a property of numpy dispatch
on this machine, not a contract, and there is no second
implementation to hold it against.  What *is* asserted is that the two
widths' episode totals are equal: a world steps bit-identically alone
and inside a batch, so every run is a live parity check.
Decisions/sec (slice-decisions applied per second of engine time)
lands in the benchmark's ``extra_info``, so the JSON trajectory
records engine throughput over time alongside the artefact timings.

``REPRO_BENCH_QUICK=1`` shrinks the horizon for CI smoke runs.

The B=128 test records the ``vector`` engine's world-slot throughput
at the ROADMAP's target batch, ungated.  The committed
``benchmarks/baselines/BENCH_engine.json`` records one such run;
wall-time changes are judged by ``benchmarks/e2e/run.py compare`` on
the ``engine_fuzz`` workload, not against that file.

The corpus test drives what the uniform fleets above never do: a
24-world fuzz corpus with slice churn, transport faults and ragged
horizons, two episodes in one batch, where worlds retire one by one
and churn rebuilds row layouts mid-episode.  It records world-slots/s
and the engine's rebuild counters
(:attr:`~repro.engine.batch.BatchSimulator.counters`: one full bundle
build and one whole-fleet channel adoption, the rest splices and
single-bank re-adoptions) in ``extra_info`` -- ungated, like the
throughputs above.  The same test drives a ``slice_churn`` fleet
whose worlds alternate 3 and 5 users per slice -- the one place the
engine's padded ``(R, Umax)`` channel block has a number
(``padded_*`` rows: world-slots/s and counters, ungated too).

A last test holds the observability layer to its own claim: span
tracing at the default sampling interval must cost the vector engine
no more than :data:`MAX_TRACING_OVERHEAD` of its world-slot
throughput.  Wall-clock jitter on shared runners easily exceeds the
few-percent effect being measured (the first recorded baseline showed
a nonsensical -22% "overhead" from a single cold sample), so the
measurement is *paired*: :data:`TRACING_SAMPLES` back-to-back
untraced/traced episode pairs after two warm-up episodes, the
overhead taken as the **median of the per-pair ratios**.  A pair
shares its scheduler/thermal environment, so slow drift divides out
of the ratio instead of masquerading as (positive or negative)
overhead; the median discards the odd pair that straddled a stall.
"""

import dataclasses
import os
import time

import numpy as np

from conftest import run_once

from repro.config import NUM_ACTIONS
from repro.engine import BatchSimulator, ConstantBatchPolicy
from repro.engine.policies import episode_totals, lockstep
from repro.experiments.harness import make_simulators, run_episodes
from repro.obs.trace import configure as configure_tracing, \
    disable as disable_tracing
from repro.scenarios import FuzzSpace, generate_corpus
from repro.scenarios import get as get_scenario

BATCH = 32
SLOTS = 24 if os.environ.get("REPRO_BENCH_QUICK") else 96
#: The churn / ragged-horizon case: worlds of one fuzz corpus.
CORPUS_WORLDS = 24
CORPUS_SPACE = FuzzSpace(min_slots=SLOTS // 2, max_slots=SLOTS)
#: The wide case runs at the ROADMAP's target batch.
WIDE_BATCH = 128

#: Max fractional throughput loss from tracing at default sampling.
#: The tracer's true cost is low single digits; the headroom above
#: that absorbs the residual per-pair jitter of 1-CPU CI runners
#: (single-sample noise there spans tens of percent -- the paired
#: median gets it down to a few).
MAX_TRACING_OVERHEAD = 0.10

#: Untraced/traced episode pairs in the tracing-overhead measurement.
TRACING_SAMPLES = 5


def _spec(name: str):
    """The catalog scenario ``name`` at the bench horizon."""
    spec = get_scenario(name)
    traffic = dataclasses.replace(spec.build_config().traffic,
                                  slots_per_episode=SLOTS)
    return dataclasses.replace(spec, traffic_cfg=traffic)


def _make_worlds(batch: int = BATCH):
    spec = _spec("default")
    cfg = spec.build_config()
    return make_simulators(cfg, spec, count=batch), cfg


def _drive(engine: str, batch: int = BATCH):
    sims, cfg = _make_worlds(batch)
    policy = ConstantBatchPolicy(np.full(NUM_ACTIONS, 0.25))
    start = time.perf_counter()
    totals = run_episodes(sims, policy, episodes=1, engine=engine)
    elapsed = time.perf_counter() - start
    slices = len(cfg.slices)
    return {"elapsed_s": elapsed, "totals": totals,
            "world_slots": batch * SLOTS,
            "decisions": batch * SLOTS * slices}


def test_engine_vector_vs_scalar(benchmark):
    # one warm-up lockstep episode: kernels, layout caches
    _drive("vector")

    vector = run_once(benchmark, _drive, "vector")
    scalar = _drive("scalar")

    assert vector["totals"] == scalar["totals"], \
        "parity violation: worlds stepped alone and in one batch differ"

    vector_rate = vector["world_slots"] / vector["elapsed_s"]
    scalar_rate = scalar["world_slots"] / scalar["elapsed_s"]
    decisions_per_sec = vector["decisions"] / vector["elapsed_s"]
    benchmark.extra_info["engine_batch"] = BATCH
    benchmark.extra_info["engine_slots"] = SLOTS
    benchmark.extra_info["vector_world_slots_per_sec"] = vector_rate
    benchmark.extra_info["scalar_world_slots_per_sec"] = scalar_rate
    benchmark.extra_info["decisions_per_sec"] = decisions_per_sec

    print(f"\nEngine slot throughput, {BATCH} worlds "
          f"({SLOTS}-slot episodes):")
    print(f"  one batch per world {scalar_rate:12,.0f} world-slots/s")
    print(f"  one batch of {BATCH:<6} {vector_rate:12,.0f} world-slots/s "
          f"({decisions_per_sec:,.0f} decisions/s)")


def test_engine_throughput_b128(benchmark):
    """World-slot throughput at B=128: best of two ``vector`` runs
    after a warm-up."""
    _drive("vector", batch=WIDE_BATCH)                      # warm-up

    runs = [run_once(benchmark, _drive, "vector", batch=WIDE_BATCH),
            _drive("vector", batch=WIDE_BATCH)]
    rate = runs[0]["world_slots"] / min(run["elapsed_s"] for run in runs)

    benchmark.extra_info["engine_batch"] = WIDE_BATCH
    benchmark.extra_info["engine_slots"] = SLOTS
    benchmark.extra_info["world_slots_per_sec"] = rate

    print(f"\nThroughput at B={WIDE_BATCH} ({SLOTS}-slot episodes):")
    print(f"  vector        {rate:12,.0f} world-slots/s")


def _corpus_worlds():
    return [spec.build_simulator() for spec in generate_corpus(
        7, CORPUS_WORLDS, CORPUS_SPACE)]


def _padded_worlds():
    """``slice_churn`` worlds of 3 and 5 users per slice, alternating:
    their channels share one block five lanes wide."""
    spec = _spec("slice_churn")
    sims = []
    for world in range(CORPUS_WORLDS):
        cfg = spec.build_config(seed=world)
        cfg = cfg.replace(network=dataclasses.replace(
            cfg.network, users_per_slice=(3, 5)[world % 2]))
        sims.append(spec.build_simulator(
            cfg, rng=np.random.default_rng(cfg.seed)))
    return sims


def _drive_corpus(make_worlds=_corpus_worlds):
    sims = make_worlds()
    batch = BatchSimulator(sims)
    policy = ConstantBatchPolicy(np.full(NUM_ACTIONS, 0.25))
    start = time.perf_counter()
    totals = episode_totals(lockstep(batch, policy, episodes=2),
                            len(sims))
    elapsed = time.perf_counter() - start
    return {"elapsed_s": elapsed, "totals": totals,
            "world_slots": 2 * sum(sim.horizon for sim in sims),
            "counters": dict(batch.counters)}


def test_engine_fuzz_corpus(benchmark):
    """Churn and ragged horizons: throughput and rebuild counters."""
    _drive_corpus()                                        # warm-up
    run = run_once(benchmark, _drive_corpus)
    assert all(len(world) == 2 for world in run["totals"])

    rate = run["world_slots"] / run["elapsed_s"]
    benchmark.extra_info["engine_batch"] = CORPUS_WORLDS
    benchmark.extra_info["corpus_min_slots"] = CORPUS_SPACE.min_slots
    benchmark.extra_info["corpus_max_slots"] = CORPUS_SPACE.max_slots
    benchmark.extra_info["corpus_world_slots_per_sec"] = rate
    benchmark.extra_info.update(
        {f"counter_{name}": value
         for name, value in run["counters"].items()})
    print(f"\nFuzz corpus, {CORPUS_WORLDS} worlds x 2 episodes "
          f"({CORPUS_SPACE.min_slots}-{CORPUS_SPACE.max_slots} slots):")
    print(f"  {rate:12,.0f} world-slots/s")
    print("  " + ", ".join(f"{name} {value}" for name, value
                           in sorted(run["counters"].items())))

    padded = _drive_corpus(_padded_worlds)
    padded_rate = padded["world_slots"] / padded["elapsed_s"]
    benchmark.extra_info["padded_world_slots_per_sec"] = padded_rate
    benchmark.extra_info.update(
        {f"padded_counter_{name}": value
         for name, value in padded["counters"].items()})
    print(f"  3-and-5-user slice_churn fleet, {CORPUS_WORLDS} worlds x "
          f"2 episodes ({SLOTS} slots): {padded_rate:,.0f} "
          "world-slots/s")
    print("  " + ", ".join(f"{name} {value}" for name, value
                           in sorted(padded["counters"].items())))


def test_engine_tracing_overhead(benchmark):
    """Span tracing at default sampling must be near-free.

    Measures the vector engine untraced and with an in-memory tracer
    active (no file I/O -- the per-span cost being gated is the
    aggregation itself) as :data:`TRACING_SAMPLES` back-to-back
    untraced/traced episode *pairs* after two warm-up episodes.  The
    overhead is the median of the per-pair traced/untraced ratios: a
    pair shares its scheduler environment, so slow drift divides out
    of the ratio, and the median drops the odd pair that straddled a
    stall (single-pair noise on shared 1-CPU runners spans tens of
    percent).  Bit-identical results are asserted too: tracing must
    never consume RNG or touch kernels.
    """
    _drive("vector")                                       # warm-ups
    _drive("vector")

    untraced_samples = []
    traced_runs = []
    for sample in range(TRACING_SAMPLES):
        untraced_samples.append(_drive("vector")["elapsed_s"])
        configure_tracing(path=None)
        try:
            traced_runs.append(
                run_once(benchmark, _drive, "vector")
                if sample == 0 else _drive("vector"))
        finally:
            disable_tracing()
    runs = traced_runs
    ratios = sorted(run["elapsed_s"] / base
                    for run, base in zip(runs, untraced_samples))
    median_ratio = ratios[len(ratios) // 2]

    parity = _drive("vector")
    assert runs[0]["totals"] == parity["totals"], \
        "tracing changed engine results"

    world_slots = runs[0]["world_slots"]
    untraced_rate = world_slots / min(untraced_samples)
    traced_rate = world_slots / min(run["elapsed_s"] for run in runs)
    overhead = median_ratio - 1.0
    benchmark.extra_info["untraced_world_slots_per_sec"] = \
        untraced_rate
    benchmark.extra_info["traced_world_slots_per_sec"] = traced_rate
    benchmark.extra_info["tracing_overhead_pct"] = 100.0 * overhead
    print(f"\nTracing overhead at default sampling (B={BATCH}, "
          f"{SLOTS}-slot episodes):")
    print(f"  untraced {untraced_rate:12,.0f} world-slots/s (best)")
    print(f"  traced   {traced_rate:12,.0f} world-slots/s (best)")
    print(f"  paired-median overhead {100.0 * overhead:+.1f}%")
    assert overhead <= MAX_TRACING_OVERHEAD, \
        (f"tracing costs {100.0 * overhead:.1f}% of engine "
         f"throughput (gate: <= {100.0 * MAX_TRACING_OVERHEAD:.0f}%)")
