"""Serving layer: policy snapshots + the online decision service.

The paper's controller, turned into the deployable half of the
repository (the ROADMAP's "serve heavy traffic" north star):

* :mod:`repro.serve.policy_store` -- :class:`PolicyStore`, versioned
  tagged-JSON snapshots of trained policies for all four methods
  (``save``/``load``/``list``, content-digest verified);
* :mod:`repro.serve.service` -- :class:`DecisionCore`, the online
  decision row-wise for any number of cells per call (vectorised
  inference per policy, the paper's safe fallback to pi_b when pi_phi
  predicts an SLA violation, the capacity projection per cell), and
  :class:`SlicingService`, one cell of it and its request / decision
  object edge;
* :mod:`repro.serve.loadgen` -- :class:`LoadGenerator`, which drives
  the service with any registered scenario at ``population(N)`` scale
  and reports decisions/sec, p50/p99 latency and SLA-violation rate;
  a single run and a fleet shard (``drive_lockstep``) both ride the
  repo's one replay driver, :func:`repro.engine.policies.lockstep`,
  with the run's books as its batch policy and slot consumer;
* :mod:`repro.obs.metrics` -- the counters/histograms serve runs
  record into (``Telemetry`` et al. are re-exported here), with JSONL
  export so serve runs produce artefacts like everything else;
* :mod:`repro.serve.training` / :mod:`repro.serve.evaluate` -- the
  train-once path: ``train_snapshot`` ends in a stored snapshot,
  ``evaluate_snapshot`` replays it on any scenario without retraining.

CLI: ``python -m repro train --save``, ``serve``, ``loadgen``.
"""

from repro.obs.metrics import Counter, Histogram, Telemetry
from repro.serve.evaluate import evaluate_snapshot
from repro.serve.loadgen import (
    LoadGenerator,
    LoadReport,
    scenario_with_population,
)
from repro.serve.policy_store import (
    SNAPSHOT_METHODS,
    PolicySnapshot,
    PolicyStore,
    SnapshotInfo,
    snapshot_baseline,
    snapshot_model_based,
    snapshot_onrl,
    snapshot_onslicing,
)
from repro.serve.service import (
    Decision,
    DecisionCore,
    DecisionRequest,
    SlicingService,
)
from repro.serve.training import (
    DEFAULT_STORE_DIR,
    resolve_serving_snapshot,
    train_snapshot,
)

__all__ = [
    "DEFAULT_STORE_DIR",
    "SNAPSHOT_METHODS",
    "Counter",
    "Decision",
    "DecisionCore",
    "DecisionRequest",
    "Histogram",
    "LoadGenerator",
    "LoadReport",
    "PolicySnapshot",
    "PolicyStore",
    "SlicingService",
    "SnapshotInfo",
    "Telemetry",
    "evaluate_snapshot",
    "resolve_serving_snapshot",
    "scenario_with_population",
    "snapshot_baseline",
    "snapshot_model_based",
    "snapshot_onrl",
    "snapshot_onslicing",
    "train_snapshot",
]
