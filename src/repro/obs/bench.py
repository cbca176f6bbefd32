"""Persistent perf trajectory: the ``BENCH_<name>.json`` schema.

Every ``benchmarks/bench_*.py`` run lands its measurements in one
JSON file per bench module through the shared recorder in
``benchmarks/conftest.py``, giving the repo a perf trajectory instead
of one-shot ratio gates that throw the numbers away.  The schema
carries enough context to compare runs honestly: machine fingerprint,
git revision, raw samples and the bench's own ``extra_info``
(throughput rates, speedup ratios, scale knobs).

These files are *records*, not gates: one quick-mode sample says
nothing about noise.  Performance claims are judged by the
noise-aware paired comparer, ``python3 benchmarks/e2e/run.py compare
A.json B.json``.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from typing import Dict, List, Optional

import numpy

SCHEMA_VERSION = 1
DEFAULT_RESULTS_DIR = ".repro_bench"
ENV_BENCH_DIR = "REPRO_BENCH_DIR"


def machine_info() -> Dict[str, object]:
    """Fingerprint of the machine a bench ran on."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpus": os.cpu_count() or 1,
    }


def git_rev(cwd: Optional[str] = None) -> str:
    """Short git revision of the working tree -- ``<rev>-dirty`` when
    tracked files differ from it, so a record made on uncommitted
    changes does not pass for its parent's -- ``unknown`` outside
    git."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--exclude=*"],
            cwd=cwd, capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass        # no git binary, or it hung past the timeout
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
