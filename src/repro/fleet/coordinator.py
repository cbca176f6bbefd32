"""The fleet coordinator: shard fan-out, streaming merge, checkpoints.

:func:`run_fleet` is the campaign driver.  It pins a snapshot (ref +
content digest) from the :class:`~repro.serve.policy_store
.PolicyStore`, round-robins the spec's cells over ``shards`` worker
processes, and consumes :class:`~repro.fleet.shard.ShardResult`\\ s *as
they complete* -- each one is merged into the rolling aggregate and
appended to the JSONL checkpoint before the next arrives, so the
coordinator holds O(shards) telemetry at any moment and a kill at any
point loses at most the in-flight shards.

Checkpoint files are self-describing JSONL: a header line pins the
spec (content key), the snapshot digest and the shard count; each
subsequent line is one completed shard.  ``resume=True`` replays
completed shards from the file and runs only the missing ones -- and
because every cell's seed derives from the fleet seed, the resumed
campaign's report digest is identical to an uninterrupted run's.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.fleet.report import FleetReport, build_report
from repro.fleet.shard import ShardPlan, ShardResult, run_fleet_shard
from repro.fleet.spec import CellPlan, FleetSpec
from repro.obs.diagnose import ShardReplay, replay_shards
from repro.obs.metrics import read_jsonl
from repro.obs.slo import IncidentTimeline, SloEvaluator, SloSpec
from repro.runtime.cache import content_key
from repro.runtime.serialization import from_jsonable, to_jsonable
from repro.serve.policy_store import PolicyStore

CHECKPOINT_FORMAT = 1

#: Optional progress sink: called with one line per fleet event.
Progress = Optional[Callable[[str], None]]


def plan_shards(spec: FleetSpec, shards: int, store_dir: str,
                snapshot_ref: str, snapshot_digest: str,
                scenarios: Optional[Dict] = None,
                engine: str = "vector") -> List[ShardPlan]:
    """Deal the fleet's cells over ``shards`` worker plans.

    Cells are dealt scenario group by scenario group so every shard
    draws a balanced mix (within one cell per scenario) -- a naive
    ``cells[i::shards]`` stride aliases with the scenario cycle
    whenever ``gcd(shards, len(cycle)) > 1``, handing each shard a
    *disjoint* scenario subset and letting one heavy scenario
    serialise a whole shard.  Cells of one scenario cost roughly the
    same, so the balanced mix balances wall time without measuring
    anything.

    ``scenarios`` overrides registry resolution with already-resolved
    specs (fleet experiment units carry them across process
    boundaries, where user registrations may not exist).
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    shards = min(shards, spec.cells)
    if scenarios is None:
        scenarios = spec.resolve_scenarios()
    groups: Dict[str, List[CellPlan]] = {}
    for cell in spec.cell_plans():
        groups.setdefault(cell.scenario, []).append(cell)
    assigned: List[List[CellPlan]] = [[] for _ in range(shards)]
    index = 0
    for name in groups:               # first-appearance cycle order
        for cell in groups[name]:
            assigned[index % shards].append(cell)
            index += 1
    return [
        ShardPlan(shard=shard, spec=spec,
                  cells=tuple(sorted(cells, key=lambda c: c.cell)),
                  scenarios=scenarios, store_dir=store_dir,
                  snapshot_ref=snapshot_ref,
                  snapshot_digest=snapshot_digest,
                  engine=engine)
        for shard, cells in enumerate(assigned)
    ]


class FleetSloBreach(RuntimeError):
    """Raised by :func:`run_fleet` under ``fail_fast=True`` when an
    objective sustains a page-severity burn.  Carries the evaluator so
    the caller (the CLI's exit-code path, tests) can read the open
    incidents and the timeline digest at the moment of abort."""

    def __init__(self, message: str, evaluator: SloEvaluator) -> None:
        super().__init__(message)
        self.evaluator = evaluator


def evaluate_checkpoint_slo(checkpoint: "str | FleetCheckpoint",
                            slo: SloSpec,
                            timeline: "str | IncidentTimeline | None"
                            = None) -> SloEvaluator:
    """Replay a checkpoint's shards through an SLO evaluator.

    The offline form of ``run_fleet(..., slo=...)``: both drive one
    :class:`~repro.obs.diagnose.ShardReplay`, so the resulting
    timeline -- and its digest -- is identical to the one the live
    run wrote (for a checkpoint with a hole, to what the live run had
    written when it was killed).  This is the entry
    point ``repro obs watch --checkpoint`` and the CI smoke replay
    use.  ``timeline`` may be a path (a fresh JSONL timeline is
    written there) or an :class:`IncidentTimeline`; ``None`` keeps
    records in memory.
    """
    if isinstance(checkpoint, str):
        checkpoint = load_checkpoint(checkpoint)
    if isinstance(timeline, str):
        timeline = IncidentTimeline(path=timeline)
    state = replay_shards(checkpoint.results.values(), slo=slo,
                          timeline=timeline)
    return state.evaluator


@dataclass(frozen=True)
class FleetCheckpoint:
    """A parsed checkpoint file: the pinned campaign + shards done."""

    spec: FleetSpec
    spec_key: str
    scenario_key: str
    snapshot_ref: str
    snapshot_digest: str
    shards: int
    results: Dict[int, ShardResult]

    @property
    def complete(self) -> bool:
        return len(self.results) >= self.shards


def load_checkpoint(path: str) -> FleetCheckpoint:
    """Parse a checkpoint JSONL file written by :func:`run_fleet`.

    Tolerant of a truncated final line (the signature of a kill
    mid-append): the shards read so far stand.  A corrupt earlier
    line is a ``ValueError`` naming ``path:lineno``
    (:func:`~repro.obs.metrics.read_jsonl`).
    """
    rows = read_jsonl(path)
    if not rows:
        raise ValueError(f"checkpoint {path!r} is empty")
    header = rows[0]
    if (header.get("kind") != "fleet"
            or header.get("format") != CHECKPOINT_FORMAT):
        raise ValueError(f"{path!r} is not a fleet checkpoint "
                         f"(format {CHECKPOINT_FORMAT})")
    results: Dict[int, ShardResult] = {}
    for row in rows[1:]:
        if row.get("kind") != "shard":
            continue
        result = from_jsonable(row["result"])
        results[result.shard] = result
    return FleetCheckpoint(
        spec=from_jsonable(header["spec"]),
        spec_key=header["spec_key"],
        scenario_key=header["scenario_key"],
        snapshot_ref=header["snapshot_ref"],
        snapshot_digest=header["snapshot_digest"],
        shards=int(header["shards"]),
        results=results)


def report_from_checkpoint(
        checkpoint: "str | FleetCheckpoint") -> FleetReport:
    """Rebuild a :class:`FleetReport` from a checkpoint alone.

    Accepts a path or an already-parsed :class:`FleetCheckpoint` (so
    callers that inspect the checkpoint first never parse it twice).
    Works on partial checkpoints (the report covers the shards that
    finished).  No live wall clock exists here, so throughput is
    derived from the *summed* shard times -- a serial-equivalent
    figure, not the live parallel one.
    """
    if isinstance(checkpoint, str):
        checkpoint = load_checkpoint(checkpoint)
    results = [checkpoint.results[shard]
               for shard in sorted(checkpoint.results)]
    wall = sum(result.elapsed_s for result in results)
    return build_report(checkpoint.spec, checkpoint.snapshot_ref,
                        checkpoint.snapshot_digest, results,
                        shards=checkpoint.shards, wall_time_s=wall)


def _scenario_key(spec: FleetSpec, scenarios: Dict) -> str:
    """Content key over the *resolved* scenario cycle.

    The spec key alone pins only scenario names; this pins their
    definitions, so a scenario edited between a kill and a resume
    fails loudly instead of yielding a silently mixed-workload report.
    """
    return content_key(tuple(scenarios[name]
                             for name in spec.scenario_cycle()))


def _checkpoint_header(spec: FleetSpec, snapshot_ref: str,
                       snapshot_digest: str, shards: int,
                       scenario_key: str) -> Dict:
    return {"kind": "fleet", "format": CHECKPOINT_FORMAT,
            "spec": to_jsonable(spec), "spec_key": content_key(spec),
            "scenario_key": scenario_key,
            "snapshot_ref": snapshot_ref,
            "snapshot_digest": snapshot_digest, "shards": shards}


def _shard_line(result: ShardResult) -> str:
    return json.dumps({"kind": "shard", "shard": result.shard,
                       "result": to_jsonable(result)}) + "\n"


def run_fleet(spec: FleetSpec, store_dir: str,
              snapshot_ref: Optional[str] = None,
              shards: int = 1,
              checkpoint_path: Optional[str] = None,
              resume: bool = False,
              progress: Progress = None,
              scenarios: Optional[Dict] = None,
              snapshot=None,
              engine: str = "vector",
              slo: Optional[SloSpec] = None,
              slo_timeline: "str | IncidentTimeline | None" = None,
              fail_fast: bool = False) -> FleetReport:
    """Run a fleet campaign end to end and return its report.

    Parameters
    ----------
    spec:
        The campaign (cells, scenario cycle, per-cell shaping, seed).
    store_dir / snapshot_ref:
        The policy store and snapshot every shard serves from;
        ``None`` pins the newest stored snapshot.  The resolved
        content digest travels with every shard plan, so a snapshot
        swapped mid-campaign fails loudly.
    shards:
        Worker processes (clamped to the cell count).  ``1`` runs
        inline -- the deterministic path tests and cached units use.
    checkpoint_path / resume:
        JSONL checkpoint streaming (see module docstring).
    progress:
        Optional callable receiving one human-readable line per event.
    scenarios:
        Pre-resolved scenario specs by name (see :func:`plan_shards`);
        ``None`` resolves the spec's cycle from the registry.
    snapshot:
        An already-loaded :class:`PolicySnapshot`; callers that
        resolved one (the CLI, execute_unit) pass it back in so the
        coordinator never decodes the same file twice.  It must still
        live in ``store_dir`` under its own ref -- worker shards load
        it from there.
    engine:
        Batch width only: "vector" (default) steps each shard's cells
        in one lockstep :class:`~repro.engine.batch.BatchSimulator`,
        "scalar" drives them one cell at a time through the same
        loop.  Reports (and their digests) are identical -- which is
        why the choice is deliberately absent from fleet
        experiment-unit cache keys and checkpoint headers.
    slo / slo_timeline / fail_fast:
        With an :class:`SloSpec`, the coordinator streams every
        shard-checkpoint boundary through a :class:`SloEvaluator` --
        in shard-index order regardless of completion order, so the
        incident timeline is deterministic.  ``slo_timeline`` is a
        JSONL path (rewritten fresh each run; on resume the replayed
        shards are re-evaluated first, so a resumed timeline equals an
        uninterrupted one's -- same convention as the checkpoint
        rewrite) or a live :class:`IncidentTimeline`.  ``fail_fast``
        aborts with :class:`FleetSloBreach` the moment any objective
        sustains a page-severity burn.  Reports and their digests are
        untouched either way: evaluation only *reads* the merged
        telemetry.
    """
    if spec.cells < shards:
        shards = spec.cells
    if snapshot is None:
        store = PolicyStore(store_dir)
        if snapshot_ref is not None:
            snapshot = store.load(snapshot_ref)
        else:
            latest = store.latest()
            if latest is None:
                raise ValueError(
                    f"policy store {store_dir!r} is empty; train one "
                    "with 'python -m repro train --save'")
            snapshot = store.load(latest.ref)
    if scenarios is None:
        scenarios = spec.resolve_scenarios()
    scenario_key = _scenario_key(spec, scenarios)
    done: Dict[int, ShardResult] = {}
    if (checkpoint_path and not resume
            and os.path.exists(checkpoint_path)):
        # Refuse to clobber resumable progress: an existing checkpoint
        # of this *exact* campaign (same spec, scenario definitions
        # and snapshot) holding shard records was almost certainly
        # meant to be resumed, and overwriting it reruns every
        # completed shard.  Mismatched or unparseable files (a
        # different campaign, junk) overwrite as before.
        try:
            existing = load_checkpoint(checkpoint_path)
        except (OSError, ValueError):
            existing = None
        if (existing is not None and existing.results
                and existing.spec_key == content_key(spec)
                and existing.scenario_key == scenario_key
                and existing.snapshot_digest == snapshot.digest):
            raise ValueError(
                f"checkpoint {checkpoint_path!r} already holds "
                f"{len(existing.results)}/{existing.shards} completed "
                "shard(s) of this exact campaign; pass --resume to "
                "continue it, or delete the file to restart")
    if checkpoint_path and resume and os.path.exists(checkpoint_path):
        checkpoint = load_checkpoint(checkpoint_path)
        spec_key = content_key(spec)
        if checkpoint.spec_key != spec_key:
            raise ValueError(
                f"checkpoint {checkpoint_path!r} was written for a "
                f"different fleet spec (key {checkpoint.spec_key[:12]} "
                f"!= {spec_key[:12]})")
        if checkpoint.scenario_key != scenario_key:
            raise ValueError(
                f"checkpoint {checkpoint_path!r} pins different "
                "scenario *definitions* -- a scenario in the cycle "
                "was edited since the run was checkpointed; rerun "
                "without --resume")
        if checkpoint.snapshot_digest != snapshot.digest:
            raise ValueError(
                f"checkpoint {checkpoint_path!r} pins snapshot digest "
                f"{checkpoint.snapshot_digest[:12]}, but "
                f"{snapshot.ref} has {snapshot.digest[:12]}")
        if checkpoint.shards != min(shards, spec.cells):
            raise ValueError(
                f"checkpoint {checkpoint_path!r} was sharded "
                f"{checkpoint.shards}-way; resume with --shards "
                f"{checkpoint.shards}")
        done = dict(checkpoint.results)
        if progress:
            progress(f"resuming: {len(done)}/{checkpoint.shards} "
                     "shard(s) already checkpointed")
    plans = plan_shards(spec, shards, store_dir, snapshot.ref,
                        snapshot.digest, scenarios=scenarios,
                        engine=engine)
    shards = len(plans)
    pending = [plan for plan in plans if plan.shard not in done]

    driver = None
    owns_timeline = slo is not None and isinstance(slo_timeline, str)
    if slo is not None:
        timeline = IncidentTimeline(path=slo_timeline) \
            if owns_timeline else slo_timeline
        driver = ShardReplay(slo, timeline=timeline)

    def check_breach() -> None:
        if (fail_fast and driver is not None
                and driver.evaluator.paging):
            timeline = driver.evaluator.timeline
            paged = sorted(
                name for name, record
                in timeline.open_incidents().items()
                if record["severity"] == "page")
            raise FleetSloBreach(
                "fleet slo breach: sustained page-severity burn on "
                + ", ".join(paged), driver.evaluator)

    if driver is not None:
        # Replayed shards evaluate first, in shard order: a resumed
        # run's timeline is identical to an uninterrupted one's (the
        # timeline, like the checkpoint, is rewritten fresh).
        for shard_id in sorted(done):
            driver.offer(done[shard_id])
        check_breach()
    fh = None
    if checkpoint_path:
        directory = os.path.dirname(os.path.abspath(checkpoint_path))
        os.makedirs(directory, exist_ok=True)
        # (Re)write header + known shards, then append from there.  On
        # resume this also repairs the torn trailing line a mid-append
        # kill leaves behind -- appending after it would corrupt the
        # next record.
        tmp = f"{checkpoint_path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as out:
            out.write(json.dumps(_checkpoint_header(
                spec, snapshot.ref, snapshot.digest, shards,
                scenario_key)) + "\n")
            for shard_id in sorted(done):
                out.write(_shard_line(done[shard_id]))
        os.replace(tmp, checkpoint_path)
        fh = open(checkpoint_path, "a", encoding="utf-8")

    def record(result: ShardResult) -> None:
        done[result.shard] = result
        if fh is not None:
            fh.write(_shard_line(result))
            fh.flush()
        if progress:
            progress(f"shard {result.shard}: {len(result.cells)} "
                     f"cell(s), {result.decisions} decisions in "
                     f"{result.elapsed_s:.2f}s "
                     f"[{len(done)}/{shards} done]")
        if driver is not None:
            for event in driver.offer(result):
                if progress:
                    progress(
                        f"slo {event['event']}: {event['objective']} "
                        f"[{event['severity']}] burn "
                        f"{event['burn_fast']:.1f}x/"
                        f"{event['burn_slow']:.1f}x "
                        f"at checkpoint {event['at']:g}")
            check_breach()

    # Replayed shards contribute their *recorded* time, so a resumed
    # run's throughput is not inflated by decisions it never re-made
    # (same serial-equivalent convention as report_from_checkpoint).
    replayed_s = sum(result.elapsed_s for result in done.values())
    start = time.perf_counter()
    try:
        if len(pending) <= 1 or shards == 1:
            for plan in pending:
                record(run_fleet_shard(plan, snapshot=snapshot))
        else:
            with ProcessPoolExecutor(max_workers=len(pending)) as pool:
                futures = [pool.submit(run_fleet_shard, plan)
                           for plan in pending]
                try:
                    for future in as_completed(futures):
                        record(future.result())
                except FleetSloBreach:
                    for future in futures:
                        future.cancel()
                    raise
    finally:
        if fh is not None:
            fh.close()
        if owns_timeline and driver is not None:
            driver.evaluator.timeline.close()
    wall = time.perf_counter() - start + replayed_s
    results = [done[shard] for shard in sorted(done)]
    return build_report(spec, snapshot.ref, snapshot.digest, results,
                        shards=shards, wall_time_s=wall)
