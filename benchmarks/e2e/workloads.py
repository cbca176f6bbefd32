"""What the five workloads share: the workload protocol, the fixture
policy snapshots, digest helpers and the action checks.

A workload is driven by :mod:`measure` in four steps:

``setup(tracer)``
    build the fixtures (baseline grid search, fixture snapshot, input
    recording) and run one throw-away mini-run so lazy initialisation
    is paid before timing.  Called several times per process with a
    cleared in-memory result cache; the median is ``setup_s``.
``body(run_dir)``
    the measured, untraced body.  Returns whatever ``seal`` needs;
    only this call sits between the stopwatch's two clock reads.
``seal(state)``
    digests, counts and quality numbers of one body run, computed
    *after* the stopwatch stopped.
``traced(tracer, run_dir, reference)``
    re-drive the same inputs through the program's public step-level
    API with a span around every layer call.  Must reproduce the
    untraced digests -- that is what proves the outside driver
    faithful.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.config import ExperimentConfig, TrafficConfig
from repro.experiments import harness
from repro.serve import (
    PolicySnapshot,
    PolicyStore,
    Telemetry,
    snapshot_baseline,
    snapshot_onslicing,
)
from repro.sim.network import CONSTRAINED_RESOURCES

from tracing import Stopwatch, Tracer, percentile

#: Every fixture snapshot is trained with this seed, whatever
#: ``--seed`` says: ``--seed`` varies the *inputs* (traffic, corpus,
#: recorded states, training run), never the policy being served.
FIXTURE_SEED = 42

#: The paper's 24 h episode; sizes shrink in cells/worlds/episodes,
#: never in horizon.
HORIZON = 96
TINY_HORIZON = 6

#: Kernel boundaries of :mod:`repro.obs.profile`, as metric suffixes.
KERNELS = ("decode", "radio", "transport", "core", "edge", "apps",
           "state")

_KIND_COLUMNS = np.fromiter(CONSTRAINED_RESOURCES.values(), dtype=np.intp)


@dataclass
class Outcome:
    """One body run, sealed."""

    #: Slice-slot decisions the controller under test made.
    decisions: int
    #: Name -> hex digest; equal across repeats and between the
    #: untraced and the traced run.
    digests: Dict[str, str]
    #: Deterministic quality numbers (``resource_usage_pct`` always;
    #: ``sla_violation_pct`` where an SLA is judged).
    quality: Dict[str, float]
    #: Workload-specific *raw* timings taken inside the body (seconds
    #: or lists of seconds); :mod:`measure` scales them.
    timings: Dict[str, object] = field(default_factory=dict)
    #: Whatever later steps (checks, per-layer readout) need.
    state: Dict[str, object] = field(default_factory=dict)


@dataclass
class Check:
    """One correctness check and the runs it invalidates on failure
    (indices into the run list; empty = every run)."""

    name: str
    ok: bool
    detail: str = ""
    runs: Sequence[int] = ()


class Workload:
    """Protocol of one workload (see module docstring)."""

    name = ""
    #: Leans on pi_theta / pi_phi: the per-layer table then carries
    #: the standalone inference timings too.
    uses_networks = False

    def __init__(self, seed: int, tiny: bool, workdir: str) -> None:
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.horizon = TINY_HORIZON if tiny else HORIZON

    def sizes(self) -> Dict[str, object]:
        raise NotImplementedError

    def setup(self, tracer: Tracer) -> None:
        raise NotImplementedError

    def body(self, run_dir: str) -> Dict[str, object]:
        raise NotImplementedError

    def seal(self, state: Dict[str, object]) -> Outcome:
        raise NotImplementedError

    def traced(self, tracer: Tracer, run_dir: str,
               reference: Outcome) -> Outcome:
        raise NotImplementedError

    def expected_decisions(self) -> int:
        """Closed-form decision count of one body run."""
        raise NotImplementedError

    def specific(self, outcome: Outcome,
                 watch: Stopwatch) -> Dict[str, float]:
        """The end-to-end numbers of one repeat that not every
        workload has (:data:`layers.SPECIFIC`), at reference speed."""
        return {}

    def layers(self, tracer: Tracer, repeat: int, traced: Outcome,
               reference: Outcome) -> Dict[str, float]:
        """Per-layer numbers that do not come from span sums."""
        return {}

    def extra_checks(self, runs: List[Outcome],
                     traced: Optional[Outcome]) -> List[Check]:
        """Workload-specific checks beyond counts and digests."""
        return []


# ---------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------

def fixture_config(tiny: bool) -> ExperimentConfig:
    """The paper's default world (3 slices); tiny mode only shortens
    the horizon the fixture trains on."""
    cfg = ExperimentConfig()
    if tiny:
        cfg = cfg.replace(traffic=TrafficConfig(
            slots_per_episode=TINY_HORIZON))
    return cfg


def build_fixture_snapshot(method: str, tracer: Tracer, store_dir: str,
                           tiny: bool) -> PolicySnapshot:
    """Fit pi_b, build the fixture snapshot and save it to a store.

    ``onslicing`` is the *offline-stage* deployment (pi_theta cloned
    from pi_b, pi_phi fitted on baseline rollouts, pi_a, pi_b) at the
    scale-0.1 schedule (one clean and one exploration episode): what a
    snapshot costs to serve does not depend on how long pi_theta
    trained online, and the online phase is what ``train_online``
    measures.  ``baseline`` is the pi_b tables alone.
    """
    cfg = fixture_config(tiny)
    with tracer.span("baselines.fit"):
        baselines = harness.fit_baselines(cfg)
    with tracer.span("setup.snapshot"):
        if method == "onslicing":
            bundle = harness.build_onslicing(
                cfg, offline_episodes=1, exploration_episodes=1,
                seed=FIXTURE_SEED)
            snapshot = snapshot_onslicing(
                "e2e-onslicing", bundle, seed=FIXTURE_SEED)
        elif method == "baseline":
            snapshot = snapshot_baseline(
                "e2e-baseline", cfg, baselines, seed=FIXTURE_SEED)
        else:
            raise ValueError(f"no fixture for method {method!r}")
    with tracer.span("serve.store_save"):
        snapshot = PolicyStore(store_dir).save(snapshot)
    return snapshot


# ---------------------------------------------------------------------
# digests and action checks
# ---------------------------------------------------------------------

def digest_of(parts: Iterable[object]) -> str:
    """SHA-256 over a sequence of strings / bytes / arrays / JSON-able
    values, in order."""
    sha = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            sha.update(np.ascontiguousarray(
                part, dtype=np.float64).tobytes())
        elif isinstance(part, bytes):
            sha.update(part)
        elif isinstance(part, str):
            sha.update(part.encode("utf-8"))
        else:
            sha.update(json.dumps(part, sort_keys=True).encode("utf-8"))
    return sha.hexdigest()


def action_violations(batches: Iterable[object]) -> int:
    """How many per-cell action batches (``(S, 10)`` matrices or
    ``slice name -> action`` mappings) break the action contract:
    every entry finite and in [0, 1], and every constrained-resource
    column summing to at most 1 + 1e-3 over the cell's slices."""
    bad = 0
    for batch in batches:
        if isinstance(batch, dict):
            batch = np.stack(list(batch.values()))
        matrix = np.asarray(batch, dtype=float)
        if (not np.all(np.isfinite(matrix))
                or matrix.min() < 0.0 or matrix.max() > 1.0
                or np.any(matrix[:, _KIND_COLUMNS].sum(axis=0)
                          > 1.0 + 1e-3)):
            bad += 1
    return bad


def fresh_dir(parent: str, name: str) -> str:
    path = os.path.join(parent, name)
    os.makedirs(path, exist_ok=True)
    return path


# ---------------------------------------------------------------------
# per-layer readouts more than one workload uses
# ---------------------------------------------------------------------

def serve_stage_layers(telemetry: Telemetry) -> Dict[str, float]:
    """The service's own per-stage histograms and counters."""
    out: Dict[str, float] = {}
    for stage in ("assemble", "forward", "fallback", "coordinate"):
        histogram = telemetry.find_histogram(f"stage_{stage}_ms")
        out[f"serve.{stage}_s"] = \
            histogram.total / 1e3 if histogram else 0.0

    def count(key: str) -> float:
        counter = telemetry.find_counter(key)
        return counter.value if counter else 0.0

    decisions = count("decisions")
    batches = count("batches")
    out["serve.batch_size_mean"] = \
        decisions / batches if batches else 0.0
    out["serve.fallback_rate"] = \
        count("fallbacks") / decisions if decisions else 0.0
    out["serve.projection_rate"] = \
        count("projections") / batches if batches else 0.0
    rounds = telemetry.find_histogram("coordination_rounds")
    out["serve.coordination_rounds_mean"] = \
        rounds.mean if rounds else 0.0
    return out


def latency_layers(decide_s: List[float]) -> Dict[str, float]:
    """Client-side decide latency of one traced run."""
    return {
        "serve.decide_n": float(len(decide_s)),
        "serve.decide_ms.p50": 1e3 * percentile(decide_s, 50.0),
        "serve.decide_ms.p90": 1e3 * percentile(decide_s, 90.0),
        "serve.decide_ms.p99": 1e3 * percentile(decide_s, 99.0),
    }


def engine_layers(tracer: Tracer, repeat: int,
                  state: Dict[str, object]) -> Dict[str, float]:
    """Batch-engine counts plus the kernel profiler's breakdown."""
    steps = tracer.durations("engine.step", repeat)
    rows = float(state["row_slots"])
    out = {"engine.step_n": float(len(steps)),
           "engine.row_slots": rows,
           "engine.step_us_per_row":
               1e6 * sum(steps) / rows if rows else 0.0}
    for row in state["kernels"]:
        if row["kernel"] in KERNELS:
            out[f"engine.kernel.{row['kernel']}_s"] = \
                row["est_total_ms"] / 1e3
    return out
