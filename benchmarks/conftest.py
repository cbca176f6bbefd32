"""Benchmark-suite configuration.

Every benchmark reproduces one table or figure of the paper.  The
experiments are full training/evaluation runs, so each benchmark
executes exactly once (``pedantic`` with one round/iteration) and the
measured time is the end-to-end wall time of regenerating the artefact.
Scales are shortened-but-faithful schedules; EXPERIMENTS.md records the
mapping to the paper's full schedules.

All work is submitted through a shared
:class:`repro.runtime.runner.ParallelRunner`:

* ``REPRO_BENCH_WORKERS`` -- worker processes per artefact (``auto``
  for cpu_count - 1; default ``1``, the deterministic in-process path);
* ``REPRO_CACHE_DIR`` -- enables the on-disk result cache, so re-runs
  only recompute units whose config/seed/code version changed.

Every benchmark module additionally lands its measurements in a
``BENCH_<name>.json`` perf-trajectory file (schema in
:mod:`repro.obs.bench`) under ``REPRO_BENCH_DIR`` (default
``.repro_bench``).  They are records, not gates: perf claims are
judged by ``python3 benchmarks/e2e/run.py compare``.
"""

from __future__ import annotations

import os

import pytest

from repro.obs.bench import (
    DEFAULT_RESULTS_DIR,
    ENV_BENCH_DIR,
    record_result,
)
from repro.runtime.cache import ResultCache
from repro.runtime.cli import parse_workers
from repro.runtime.runner import ParallelRunner

#: Default schedule scale for learning-based artefacts.  0.1 of the
#: paper-equivalent epochs keeps the full suite under ~20 minutes while
#: preserving every qualitative shape the paper reports.
BENCH_SCALE = 0.1


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under the benchmark timer.

    Also stamps the run conditions every trajectory entry needs to be
    interpreted honestly (schedule scale, quick-mode flag, worker
    count) into ``extra_info`` so no bench module has to remember to.
    """
    result = benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                rounds=1, iterations=1)
    benchmark.extra_info["bench_scale"] = BENCH_SCALE
    benchmark.extra_info["quick"] = bool(
        os.environ.get("REPRO_BENCH_QUICK"))
    benchmark.extra_info["workers"] = os.environ.get(
        "REPRO_BENCH_WORKERS", "1")
    return result


def _bench_module_name(fullname: str) -> str:
    """``benchmarks/bench_engine.py::test_x`` -> ``engine``."""
    module = fullname.split("::", 1)[0]
    module = os.path.basename(module)
    if module.endswith(".py"):
        module = module[:-len(".py")]
    if module.startswith("bench_"):
        module = module[len("bench_"):]
    return module


def pytest_sessionfinish(session, exitstatus):
    """Record every measured benchmark into the perf trajectory."""
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None:
        return
    directory = os.environ.get(ENV_BENCH_DIR, DEFAULT_RESULTS_DIR)
    for bench in bench_session.benchmarks:
        if bench.has_error or not bench.stats.data:
            continue
        record_result(
            directory,
            _bench_module_name(bench.fullname),
            bench.name,
            samples=list(bench.stats.data),
            extra_info=dict(bench.extra_info))


@pytest.fixture
def bench_scale():
    return BENCH_SCALE


@pytest.fixture(scope="session")
def runner():
    """The suite-wide experiment runner (see module docstring).

    Caching is opt-in (``REPRO_CACHE_DIR``): different artefacts share
    some unit keys (e.g. Fig. 3 and Fig. 9 train the same OnRL unit),
    and serving those from cache would silently deflate the measured
    end-to-end regeneration times.
    """
    count = parse_workers(os.environ.get("REPRO_BENCH_WORKERS", "1"),
                          option="REPRO_BENCH_WORKERS")
    cache_dir = os.environ.get("REPRO_CACHE_DIR")
    runner = ParallelRunner(workers=count,
                            cache=ResultCache(cache_dir or None),
                            use_cache=bool(cache_dir))
    yield runner
    runner.close()
