"""The e2e benchmark's one entry point.

::

    python3 benchmarks/e2e/run.py --seed 7            # all five workloads
    python3 benchmarks/e2e/run.py --workload serve_dense
    python3 benchmarks/e2e/run.py compare A.json B.json
    python3 benchmarks/e2e/run.py --selftest
    python3 benchmarks/e2e/run.py --workload W --seed N \\
        --seconds S --trace 0|1                        # BENCHMARK.json form

The first form runs every workload in a fresh interpreter (own
set-up, own peak RSS), prints every metric by name with its unit,
checks outputs, writes one result JSON and exits non-zero when any
check fails.  The last form is the contract ``BENCHMARK.json``
declares: one workload, time-boxed, one JSON object as the last line
of standard output.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional, Tuple

# One BLAS thread.  The program's matrices are small (64 x 64), so
# OpenBLAS's second thread only spins -- measured: same wall time, 1.5x
# the CPU time -- and its first threaded call costs an erratic 1-1.5 s;
# on a 2-core box it also fights the two fleet shard workers.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import layers
from tracing import SpeedMeter, Stopwatch

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
#: Scratch space inside the checkout (gitignored); every run works in
#: its own temporary directory below it and removes that on exit.
SCRATCH = os.path.join(ROOT, ".bench_e2e")
DEFAULT_OUT = os.path.join(SCRATCH, "BENCH_e2e.json")

#: Set-ups per process whose median is ``setup_s``.
SETUP_REPEATS = 2
#: Untraced repeats per workload of a full run.
REPEATS = 5
RESULT_SCHEMA = 1


def _import_program(meter: SpeedMeter) -> Tuple[float, float]:
    """Put ``src/`` on the path and import the program and the
    workloads, with ``meter`` running.

    Returns the seconds from process start to imports done: at
    reference core speed, and raw.  The program is imported from the checkout
    this file sits in, never from an installed copy; a directory
    without ``src/`` cannot run the benchmark and exits non-zero
    before printing anything.
    """
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit(f"e2e benchmark: no program to measure under {src!r}")
    sys.path.insert(0, src)
    # hermetic: no inherited cache dir, trace session or version pin
    for variable in [v for v in os.environ if v.startswith("REPRO_")]:
        del os.environ[variable]
    global measure_workload, WORKLOADS
    with Stopwatch(meter) as watch:
        from repro.runtime.cache import pin_code_version

        # the result cache keys on the code version; deriving it
        # shells out to git, which a benchmark checkout may not have
        pin_code_version("e2e-benchmark")
        from measure import measure as measure_workload
        from wl_engine import EngineFuzz
        from wl_fleet import FleetBaselineSharded, FleetOnslicing
        from wl_serve import ServeDense
        from wl_train import TrainOnline

    WORKLOADS = {cls.name: cls for cls in (
        FleetOnslicing, FleetBaselineSharded, ServeDense, EngineFuzz,
        TrainOnline)}
    if list(WORKLOADS) != [w["name"] for w in layers.SPEC["workloads"]]:
        sys.exit("BENCHMARK.json workloads differ from the code's")
    # what ran before the meter did (interpreter start, numpy) is
    # scaled by the speed read right after it
    before = watch.started - _PROCESS_START
    return (before * watch.speed + watch.ref_s, before + watch.wall_s)


def _workdir() -> str:
    os.makedirs(SCRATCH, exist_ok=True)
    return tempfile.mkdtemp(prefix="run-", dir=SCRATCH)


def _measure(workload: str, seed: int, **how) -> Dict[str, object]:
    """Import and measure one workload in a scratch directory of its
    own, under a running speed meter."""
    with SpeedMeter() as meter:
        import_s = _import_program(meter)
        if workload not in WORKLOADS:
            sys.exit(f"unknown workload {workload!r}; expected one of "
                     f"{sorted(WORKLOADS)}")
        workdir = _workdir()
        try:
            return measure_workload(
                WORKLOADS[workload], seed, tiny=False, workdir=workdir,
                meter=meter, import_s=import_s, **how)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------
# the BENCHMARK.json form
# ---------------------------------------------------------------------

def run_contract(workload: str, seed: int, seconds: float,
                 trace: bool) -> int:
    if trace:
        record = _measure(workload, seed, setup_repeats=1, repeats=1,
                          traced_seconds=seconds)
        with open(os.path.join(SCRATCH, f"last-trace-{workload}.json"),
                  "w", encoding="utf-8") as fh:
            json.dump(record["spans"], fh)
    else:
        record = _measure(workload, seed, setup_repeats=SETUP_REPEATS,
                          seconds=seconds)
    print_record(record)
    result = contract_result(record, trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def contract_result(record: Dict[str, object],
                    trace: bool) -> Dict[str, object]:
    """The one JSON object the contract wants on the last line."""
    if trace:
        metrics = {name: {"value": record["per_layer"][name],
                          "unit": unit}
                   for name, unit, _ in layers.PER_LAYER}
    else:
        metrics = {name: {"value": record["end_to_end"][name]["median"],
                          "unit": unit}
                   for name, unit, _, _ in layers.GATED}
    return {"correct": all(check["ok"] for check in record["checks"]),
            "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


# ---------------------------------------------------------------------
# the full run
# ---------------------------------------------------------------------

def run_worker(workload: str, seed: int, out: str) -> int:
    """One workload of a full run, in this (fresh) interpreter."""
    record = _measure(workload, seed, setup_repeats=SETUP_REPEATS,
                      repeats=REPEATS, traced_runs=1)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


def run_full(names: List[str], seed: int, out: str) -> int:
    os.makedirs(SCRATCH, exist_ok=True)
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    records: Dict[str, object] = {}
    for name in names:
        part = os.path.join(SCRATCH, f"part-{os.getpid()}-{name}.json")
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--worker",
             "--workload", name, "--seed", str(seed), "--out", part])
        if done.returncode != 0:
            sys.exit(f"workload {name!r} crashed "
                     f"(exit {done.returncode})")
        with open(part, "r", encoding="utf-8") as fh:
            records[name] = json.load(fh)
        os.remove(part)
        print_record(records[name])
    import numpy

    result = {
        "schema": RESULT_SCHEMA,
        "benchmark": "e2e",
        "git_rev": _git_rev(),
        "machine": {"nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": numpy.__version__,
                    "platform": platform.platform()},
        "seed": seed,
        "repeats": REPEATS,
        "workloads": records,
    }
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, separators=(",", ":"))
        fh.write("\n")
    failed = [f"{name}: {check['name']}"
              for name, record in records.items()
              for check in record["checks"] if not check["ok"]]
    print(f"\nresult written to {os.path.relpath(out)}")
    for line in failed:
        print(f"CHECK FAILED  {line}")
    return 1 if failed else 0


def _git_rev() -> str:
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def print_record(record: Dict[str, object]) -> None:
    """Every metric of one workload, by name, with its unit."""
    name = record["workload"]
    sizes = ", ".join(f"{k}={v}" for k, v in record["sizes"].items())
    print(f"\n== {name} (seed {record['seed']}; {sizes})")
    raw = record["raw"]
    print(f"   {record['repeats']} untraced repeat(s), "
          f"{record['traced_repeats']} traced, "
          f"{record['setup_repeats']} set-up(s); raw body "
          f"{raw['body_wall_s']['median']:.3f} s wall, "
          f"{raw['body_cpu_s']['median']:.3f} s CPU (self + children), "
          f"set-up {raw['setup_wall_s']['median']:.3f} s wall; "
          f"core speed {raw['core_speed']['median']:.2f} of reference")
    for metric in layers.end_to_end_names(name):
        unit, better, _ = layers.metric_info(metric)
        row = record["end_to_end"][metric]
        print(f"   {metric:<22} {row['median']:>14.6g} {unit:<9}"
              f" [q1 {row['q1']:.6g}, q3 {row['q3']:.6g}, "
              f"n {row['n']}; {better} is better]")
    if "decide_ms" in record:
        row = record["decide_ms"]
        print(f"   decide_ms              p50 {row['p50']:.3f} "
              f"p90 {row['p90']:.3f} p99 {row['p99']:.3f} "
              f"max {row['max']:.3f} ms (n {row['n']}, pooled)")
    for metric, unit, _ in layers.PER_LAYER:
        value = record.get("per_layer", {}).get(metric)
        if value:
            print(f"     {metric:<36} {value:>14.6g} {unit}")
    for check in record["checks"]:
        print(f"   [{'ok' if check['ok'] else 'FAIL'}] {check['name']}"
              + ("" if check["ok"] else f" -- {check['detail']}"))
    print(f"   attempted {record['attempted']} ops, "
          f"failed {record['failed']}")


# ---------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------

def compare(path_a: str, path_b: str) -> int:
    """Noise-aware comparison of two result files: B against A.

    Per (workload, end-to-end metric) the medians are compared against
    the metric's bound (``BENCHMARK.json`` for the gated metrics,
    :mod:`layers` for the workload-specific ones).  A change within the
    bound prints ``ok`` -- or ``unresolved`` when either file's own
    spread (IQR / median) is wider than the bound, because then the
    medians cannot tell.  Deterministic metrics of same-seed runs may
    not worsen at all.  Exit 1 on any regression or a higher failure
    rate.
    """
    with open(path_a, "r", encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, "r", encoding="utf-8") as fh:
        b = json.load(fh)
    same_seed = a["seed"] == b["seed"]
    regressions = 0
    print(f"A = {path_a} ({a['git_rev']}, seed {a['seed']})")
    print(f"B = {path_b} ({b['git_rev']}, seed {b['seed']})")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        print(f"\n== {name}")
        rows_a = a["workloads"][name]["end_to_end"]
        rows_b = b["workloads"][name]["end_to_end"]
        for metric in rows_a:
            if metric not in rows_b:
                continue
            unit, better, bound = layers.metric_info(metric)
            if metric in layers.DETERMINISTIC:
                if same_seed:
                    bound = 0.0
                elif not bound:
                    print(f"   {metric:<22} not compared: seeds differ")
                    continue
            row_a, row_b = rows_a[metric], rows_b[metric]
            base, new = row_a["median"], row_b["median"]
            worse = (new - base) if better == "lower" else (base - new)
            change = worse / abs(base) if base else float(worse != 0)
            spread = max(_spread(row_a), _spread(row_b))
            if change > bound:
                verdict = "REGRESSION"
                regressions += 1
            elif spread > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"   {metric:<22} {base:>12.6g} -> {new:>12.6g} "
                  f"{unit:<9} worse by {100 * change:+7.2f}% "
                  f"(bound {100 * bound:g}%, spread "
                  f"{100 * spread:.2f}%)  {verdict}")
    print(f"\n{regressions} regression(s)")
    return 1 if regressions else 0


def _spread(row: Dict[str, object]) -> float:
    median = row["median"]
    return (row["q3"] - row["q1"]) / abs(median) if median else 0.0


# ---------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------

def selftest() -> int:
    """Every workload at a tiny size, in this process: the result
    carries exactly the names ``BENCHMARK.json`` lists, digests
    repeat, traced == untraced."""
    began = time.perf_counter()
    problems: List[str] = []

    def expect(condition: bool, message: str) -> None:
        if not condition:
            problems.append(message)

    gated = [m["name"] for m in layers.SPEC["end_to_end"]]
    workdir = _workdir()
    try:
        with SpeedMeter() as meter:
            import_s = _import_program(meter)
            for name, cls in WORKLOADS.items():
                record = measure_workload(
                    cls, 7, tiny=True,
                    workdir=os.path.join(workdir, name), meter=meter,
                    import_s=import_s, setup_repeats=1, repeats=2,
                    traced_runs=1, fresh_cache=False)
                expect(sorted(record["end_to_end"])
                       == sorted(layers.end_to_end_names(name)),
                       f"{name}: end-to-end names differ from the "
                       "registry")
                expect(list(contract_result(record, False)["metrics"])
                       == gated and sorted(record["per_layer"])
                       == sorted(layers.PER_LAYER_NAMES),
                       f"{name}: metric names differ from "
                       "BENCHMARK.json")
                for check in record["checks"]:
                    expect(check["ok"], f"{name}: {check['name']} -- "
                           f"{check['detail']}")
                expect(record["failed"] == 0, f"{name}: failed ops")
                print(f"{name}: {record['attempted']} ops, "
                      f"{len(record['checks'])} checks, "
                      f"{len(record['spans']['rows'])} spans")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"SELFTEST FAILED  {problem}")
    print(f"selftest {'failed' if problems else 'ok'} in "
          f"{time.perf_counter() - began:.1f}s")
    return 1 if problems else 0


# ---------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            sys.exit("usage: run.py compare A.json B.json")
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append",
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="result file of a full run")
    parser.add_argument("--seconds", type=float,
                        help="BENCHMARK.json form: measure this long")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="BENCHMARK.json form: 1 = traced run, "
                             "per-layer metrics")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--worker", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest()
    if args.seconds is not None or args.trace is not None:
        if (args.seconds is None or args.trace is None
                or not args.workload or len(args.workload) != 1):
            parser.error("the BENCHMARK.json form needs exactly one "
                         "--workload, --seconds and --trace")
        return run_contract(args.workload[0], args.seed, args.seconds,
                            bool(args.trace))
    if args.worker:
        return run_worker(args.workload[0], args.seed, args.out)
    known = [w["name"] for w in layers.SPEC["workloads"]]
    names = args.workload or known
    unknown = [name for name in names if name not in known]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; expected some "
                     f"of {known}")
    return run_full(names, args.seed, args.out)


if __name__ == "__main__":
    sys.exit(main())
