"""Observability layer: tracing, metrics, profiling, perf trajectory.

One subsystem, four concerns, threaded through every layer of the
repo:

* :mod:`repro.obs.trace` -- structured spans.  ``trace("name",
  **attrs)`` is free when tracing is off and aggregates into
  mergeable cross-process JSONL trace files when on; ``repro obs
  report`` rolls any set of trace files into one flamegraph-style
  view with an attributed-span digest that is invariant to fleet
  shard count.
* :mod:`repro.obs.metrics` -- the unified metrics registry
  (:class:`Counter` / :class:`Gauge` / :class:`Histogram`, optional
  labels, JSONL + Prometheus-text export, injectable clock), the
  one JSONL row reader (``read_jsonl``) and the one cumulative
  windowed series (:class:`WindowedSeries`) the judging layers share.
* :mod:`repro.obs.profile` -- opt-in per-kernel wall/alloc sampling
  hooks inside :func:`repro.engine.kernels.evaluate_rows`;
  ``repro obs profile`` prints the per-kernel cost breakdown.
* :mod:`repro.obs.bench` -- the perf-trajectory recorder: every
  bench writes ``BENCH_<name>.json`` through it.  Records, not gates
  -- claims are judged by ``benchmarks/e2e/run.py compare``.
* :mod:`repro.obs.slo` -- the judging layer over the metrics:
  declarative :class:`SloSpec` health contracts, streaming
  :class:`SloEvaluator` with multi-window burn-rate alerting, and the
  JSONL :class:`IncidentTimeline` with a deterministic digest.
  ``repro obs watch`` renders live health (:mod:`repro.obs.monitor`),
  ``repro obs incidents`` queries timelines, and ``fleet run --slo``
  evaluates at every shard-checkpoint boundary.
* :mod:`repro.obs.anomaly` + :mod:`repro.obs.diagnose` -- the
  diagnosis layer: contract-free streaming anomaly detectors (robust
  z-score spikes, level shifts) and the root-cause attribution engine
  that joins SLO breaches with injected scenario events, fallback /
  admission counter taxonomies and serve-stage histograms into a
  ranked-hypothesis :class:`DiagnosisReport` with a shard-count-
  invariant digest.  ``repro obs diagnose`` renders it, ``fleet run
  --diagnose`` attaches it to a campaign.

Import discipline: this package depends only on the standard library
and numpy, so every other layer (engine, serve, fleet, runtime) can
instrument itself without import cycles.

Note: ``repro.obs.trace`` is both a module and, as re-exported here,
the span *function* -- import the function as ``from repro.obs import
trace`` or ``from repro.obs.trace import trace``, and the module via
``from repro.obs import trace as trace_module`` only if you need the
configure/rollup API wholesale.
"""

from repro.obs.anomaly import (
    AnomalyMonitor,
    DetectorSpec,
    StreamingDetector,
    default_detectors,
)
from repro.obs.bench import record_result as record_bench_result
from repro.obs.diagnose import (
    DiagnosisReport,
    Hypothesis,
    diagnose_fleet,
    diagnose_telemetry,
    replay_shards,
    worst_cells,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    Telemetry,
)
from repro.obs.profile import KernelProfiler
from repro.obs.slo import (
    IncidentTimeline,
    ObjectiveStatus,
    SloEvaluator,
    SloObjective,
    SloSpec,
    default_slo_spec,
)
from repro.obs.trace import (
    Tracer,
    configure as configure_tracing,
    configure_from_env as configure_tracing_from_env,
    disable as disable_tracing,
    read_rollup,
    rollup_digest,
    trace,
)

__all__ = [
    "AnomalyMonitor",
    "Counter",
    "DetectorSpec",
    "DiagnosisReport",
    "Gauge",
    "Histogram",
    "Hypothesis",
    "IncidentTimeline",
    "KernelProfiler",
    "ObjectiveStatus",
    "SloEvaluator",
    "SloObjective",
    "SloSpec",
    "StreamingDetector",
    "Telemetry",
    "Tracer",
    "configure_tracing",
    "configure_tracing_from_env",
    "default_detectors",
    "default_slo_spec",
    "diagnose_fleet",
    "diagnose_telemetry",
    "disable_tracing",
    "read_rollup",
    "record_bench_result",
    "replay_shards",
    "rollup_digest",
    "trace",
    "worst_cells",
]
