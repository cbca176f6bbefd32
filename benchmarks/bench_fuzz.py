"""Fuzz-oracle throughput: a corpus in one batch vs one world at a time.

The fuzzer's practicality rests on batching: a corpus of randomly
composed worlds (ragged slice counts, ragged horizons) sweeps through
:func:`repro.experiments.fuzz.run_fuzz_batch` in one lockstep batch.
This records world-slots/s for that against the same corpus fed to the
oracle one world per call -- ungated: fuzz corpora are adversely
shaped for batching (worlds finish at different slots and the lockstep
kernel carries the stragglers), and the ratio is a property of the
machine, not a contract.

Each run is also a live oracle check: every world runs with the
invariant checks on whatever the batch width (there is no unchecked
path), and the bench asserts zero breaches and equal verdicts on both,
so a kernel regression fails the benchmark rather than skewing its
timing.

``REPRO_BENCH_QUICK=1`` shrinks the corpus for CI smoke runs.
"""

import os
import time

from conftest import run_once

from repro.experiments.fuzz import build_method_policies, run_fuzz_batch
from repro.scenarios.fuzz import generate_corpus

SEED = 11
COUNT = 8 if os.environ.get("REPRO_BENCH_QUICK") else 24


def _drive(width: int):
    """The corpus through the oracle, ``width`` worlds per batch."""
    specs = generate_corpus(SEED, COUNT)
    policy, _ = build_method_policies(
        methods=("model_based",))["Model_Based"]
    start = time.perf_counter()
    rows = []
    for lo in range(0, len(specs), width):
        rows += run_fuzz_batch(specs[lo:lo + width], policy,
                               check_parity=False)
    elapsed = time.perf_counter() - start
    slots = sum(row["horizon"] for row in rows)
    return {"elapsed_s": elapsed, "rows": rows, "world_slots": slots}


def test_fuzz_oracle_vector_vs_scalar(benchmark):
    # warm-up: kernels, policy model caches, trace synthesis
    _drive(COUNT)

    vector = run_once(benchmark, _drive, COUNT)
    scalar = _drive(1)

    for label, result in (("one batch", vector),
                          ("per world", scalar)):
        breaches = [b for row in result["rows"]
                    for b in row["breaches"]]
        assert not breaches, \
            f"fuzz oracle breaches ({label}): {breaches}"
    assert [(row["scenario"], row["violations"], row["mean_cost"])
            for row in vector["rows"]] == \
        [(row["scenario"], row["violations"], row["mean_cost"])
         for row in scalar["rows"]], \
        "parity violation: fuzz verdicts differ with the batch width"

    vector_rate = vector["world_slots"] / vector["elapsed_s"]
    scalar_rate = scalar["world_slots"] / scalar["elapsed_s"]
    benchmark.extra_info["fuzz_corpus"] = COUNT
    benchmark.extra_info["vector_world_slots_per_sec"] = vector_rate
    benchmark.extra_info["scalar_world_slots_per_sec"] = scalar_rate

    print(f"\nFuzz-oracle throughput over {COUNT} fuzzed worlds:")
    print(f"  one world per call {scalar_rate:12,.0f} world-slots/s")
    print(f"  one batch          {vector_rate:12,.0f} world-slots/s")
