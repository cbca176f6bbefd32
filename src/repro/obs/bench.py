"""Persistent perf trajectory: the ``BENCH_<name>.json`` schema.

Every ``benchmarks/bench_*.py`` run lands its measurements in one
JSON file per bench module through the shared recorder in
``benchmarks/conftest.py``, giving the repo a perf trajectory instead
of one-shot ratio gates that throw the numbers away.  The schema
carries enough context to compare runs honestly: machine fingerprint,
git revision, raw samples and the bench's own ``extra_info``
(throughput rates, speedup ratios, scale knobs).

:func:`compare` diffs a results directory against the committed
baseline directory with a *relative noise tolerance*: a test regresses
when ``current_mean > baseline_mean * (1 + tolerance)``.  The default
tolerance (0.5) is deliberately generous -- wall-clock benches on
shared runners are noisy -- while still catching the 2x slowdowns that
matter.  ``python -m repro obs compare`` wraps this and exits non-zero
on any regression, which is what the CI ``bench-trajectory`` job
gates on.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from typing import Dict, List, Optional

SCHEMA_VERSION = 1
DEFAULT_TOLERANCE = 0.5
#: Means below this (seconds) are timer noise, never regressions.
DEFAULT_FLOOR = 0.005
DEFAULT_RESULTS_DIR = ".repro_bench"
DEFAULT_BASELINE_DIR = os.path.join("benchmarks", "baselines")
ENV_BENCH_DIR = "REPRO_BENCH_DIR"


def machine_info() -> Dict[str, object]:
    """Fingerprint of the machine a bench ran on."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except Exception:                               # pragma: no cover
        numpy_version = "unavailable"
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpus": os.cpu_count() or 1,
    }


def git_rev(cwd: Optional[str] = None) -> str:
    """Short git revision of the working tree, ``unknown`` outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except Exception:
        pass
    return "unknown"


def bench_path(directory: str, name: str) -> str:
    return os.path.join(directory, f"BENCH_{name}.json")


def validate(payload: Dict[str, object]) -> None:
    """Raise ``ValueError`` unless ``payload`` is a schema-valid bench
    result file."""
    if not isinstance(payload, dict):
        raise ValueError("bench result must be a JSON object")
    if payload.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"bench schema {payload.get('schema')!r}, "
            f"expected {SCHEMA_VERSION}")
    for field in ("name", "git_rev", "machine", "results"):
        if field not in payload:
            raise ValueError(f"bench result missing {field!r}")
    if not isinstance(payload["machine"], dict):
        raise ValueError("machine must be an object")
    results = payload["results"]
    if not isinstance(results, dict) or not results:
        raise ValueError("results must be a non-empty object")
    for test, entry in results.items():
        if not isinstance(entry, dict):
            raise ValueError(f"result {test!r} must be an object")
        for field in ("metric", "samples", "mean"):
            if field not in entry:
                raise ValueError(f"result {test!r} missing {field!r}")
        samples = entry["samples"]
        if not isinstance(samples, list) or not samples:
            raise ValueError(
                f"result {test!r} needs a non-empty samples list")


def record_result(directory: str, name: str, test: str,
                  samples: List[float],
                  extra_info: Optional[Dict[str, object]] = None,
                  metric: str = "seconds") -> str:
    """Write/update ``BENCH_<name>.json`` in ``directory`` with one
    test's samples; other tests already recorded in the same file (a
    multi-test bench module, or an earlier run) are kept."""
    if not samples:
        raise ValueError("need at least one sample")
    path = bench_path(directory, name)
    payload: Dict[str, object] = {}
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError):
            payload = {}
    results = payload.get("results")
    if not isinstance(results, dict):
        results = {}
    values = [float(v) for v in samples]
    mean = sum(values) / len(values)
    stddev = (sum((v - mean) ** 2 for v in values)
              / len(values)) ** 0.5 if len(values) > 1 else 0.0
    results[test] = {
        "metric": metric,
        "samples": values,
        "mean": mean,
        "stddev": stddev,
        "extra_info": dict(extra_info or {}),
    }
    payload = {
        "schema": SCHEMA_VERSION,
        "name": name,
        "git_rev": git_rev(),
        "machine": machine_info(),
        "results": results,
    }
    validate(payload)
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load(path: str) -> Dict[str, object]:
    """Load and validate one ``BENCH_*.json`` file."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    validate(payload)
    return payload


def load_dir(directory: str) -> Dict[str, Dict[str, object]]:
    """Name -> validated payload for every ``BENCH_*.json`` in
    ``directory`` (empty when the directory is missing)."""
    out: Dict[str, Dict[str, object]] = {}
    if not os.path.isdir(directory):
        return out
    for entry in sorted(os.listdir(directory)):
        if entry.startswith("BENCH_") and entry.endswith(".json"):
            payload = load(os.path.join(directory, entry))
            out[str(payload["name"])] = payload
    return out


def compare(results_dir: str, baseline_dir: str,
            tolerance: float = DEFAULT_TOLERANCE,
            floor: float = DEFAULT_FLOOR) -> Dict[str, object]:
    """Diff a results directory against the committed baselines.

    Returns ``{"rows": [...], "regressions": n, "tolerance": t}``;
    each row carries bench/test names, the two means, their ratio and
    a status (``ok`` / ``regression`` / ``improvement`` /
    ``missing-baseline`` / ``missing-current``).  Missing counterparts
    are reported but never fail the comparison -- new benches enter the
    trajectory without blocking, retired ones leave the same way.
    Tests where *both* means sit under ``floor`` seconds are below
    wall-clock timer noise (a pure-math figure takes ~0.2 ms; a 1.5x
    "slowdown" there is scheduler jitter, not a regression) and are
    reported ``ok`` whatever their ratio.
    """
    current = load_dir(results_dir)
    baseline = load_dir(baseline_dir)
    rows: List[Dict[str, object]] = []
    regressions = 0
    for name in sorted(set(current) | set(baseline)):
        cur_results = current.get(name, {}).get("results", {})
        base_results = baseline.get(name, {}).get("results", {})
        for test in sorted(set(cur_results) | set(base_results)):
            cur = cur_results.get(test)
            base = base_results.get(test)
            row: Dict[str, object] = {"bench": name, "test": test}
            if cur is None:
                row.update(status="missing-current",
                           baseline_mean=base["mean"])
            elif base is None:
                row.update(status="missing-baseline",
                           current_mean=cur["mean"])
            else:
                ratio = (cur["mean"] / base["mean"]
                         if base["mean"] > 0 else float("inf"))
                if cur["mean"] < floor and base["mean"] < floor:
                    status = "ok"
                elif ratio > 1.0 + tolerance:
                    status = "regression"
                    regressions += 1
                elif ratio < 1.0 / (1.0 + tolerance):
                    status = "improvement"
                else:
                    status = "ok"
                row.update(status=status, ratio=ratio,
                           current_mean=cur["mean"],
                           baseline_mean=base["mean"])
            rows.append(row)
    return {"rows": rows, "regressions": regressions,
            "tolerance": tolerance}


def format_compare(report: Dict[str, object]) -> str:
    """Text table for a :func:`compare` report."""
    rows = report["rows"]
    if not rows:
        return ("(no bench results found -- run the benchmarks with "
                "the recorder enabled first)")
    lines = [f"{'bench':<12} {'test':<42} {'baseline':>10} "
             f"{'current':>10} {'ratio':>7}  status"]
    for row in rows:
        base = row.get("baseline_mean")
        cur = row.get("current_mean")
        ratio = row.get("ratio")
        lines.append(
            f"{row['bench']:<12} {row['test']:<42} "
            f"{(f'{base:.4f}' if base is not None else '-'):>10} "
            f"{(f'{cur:.4f}' if cur is not None else '-'):>10} "
            f"{(f'{ratio:.2f}x' if ratio is not None else '-'):>7}  "
            f"{row['status']}")
    lines.append(
        f"{report['regressions']} regression(s) at tolerance "
        f"{report['tolerance']:g}")
    return "\n".join(lines)
