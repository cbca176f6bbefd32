"""``python -m repro obs ...``: report, profile, watch, diagnose.

Kept separate from :mod:`repro.runtime.cli` so the top-level parser
stays light; heavy imports (engine, serve) happen inside the handlers
that need them.

* ``obs report [paths...]`` -- merge trace files/directories into one
  flamegraph-style rollup (``--json`` for machine-readable rows plus
  the attributed-span digest).
* ``obs profile`` -- run one scenario episode, served by the
  rule-based baseline, under the kernel profiler and print the
  per-kernel cost breakdown with the engine's and the serving core's
  counters.
* ``obs watch`` -- live fleet health: evaluate an SLO spec against a
  fleet checkpoint (full burn-rate view, deterministic timeline
  digest) or a telemetry JSONL export dir (point-in-time view) and
  render the dashboard every ``--interval`` seconds (``--once`` /
  ``--json`` for scripting and CI).
* ``obs incidents`` -- query an incident timeline JSONL: filter by
  objective / severity / event, print the table or the raw records
  plus the timeline digest.
* ``obs diagnose`` -- root-cause attribution: replay a fleet
  checkpoint (or read a telemetry export) through the diagnosis
  engine and print the ranked hypotheses explaining each SLO breach,
  with a shard-count-invariant report digest.
* ``obs slo-compare`` -- canary verdict between two fleet
  checkpoints: exits 3 when the candidate regresses any objective
  beyond the tolerance (the auto-rollback gate).

Every leaf parser names its function with ``set_defaults(handler=...)``
and the root CLI calls ``args.handler(args)``.  Every JSONL input goes
through :func:`repro.obs.metrics.read_jsonl`, so a corrupt file is a
one-line ``path:lineno`` message and exit 2 on every subcommand.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional


def add_obs_parser(subparsers) -> None:
    """Attach the ``obs`` subcommand tree to the root CLI parser."""
    obs = subparsers.add_parser(
        "obs", help="observability: trace rollups, kernel profiles, "
                    "SLO health, diagnosis")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    report = obs_sub.add_parser(
        "report", help="merge trace files into a flamegraph-style "
                       "rollup")
    report.add_argument(
        "paths", nargs="*", default=None,
        help="trace files or directories (default: $REPRO_TRACE_DIR "
             "or .repro_trace)")
    report.add_argument("--limit", type=int, default=None,
                        help="show at most N rollup rows")
    report.add_argument("--json", action="store_true",
                        help="emit rollup rows + digest as JSON")
    report.set_defaults(handler=_run_report)

    profile = obs_sub.add_parser(
        "profile", help="run one pi_b-served scenario episode under "
                        "the kernel profiler")
    profile.add_argument("--scenario", default="default",
                         help="registered scenario name")
    profile.add_argument("--sample", type=int, default=1,
                         help="profile every Nth kernel call")
    profile.add_argument("--alloc", action="store_true",
                         help="also trace per-kernel allocations "
                              "(tracemalloc; slow)")
    profile.add_argument("--seed", type=int, default=None)
    profile.add_argument("--json", action="store_true")
    profile.set_defaults(handler=_run_profile)

    watch = obs_sub.add_parser(
        "watch", help="live SLO health dashboard over a fleet "
                      "checkpoint or telemetry exports")
    watch.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="fleet checkpoint JSONL: full burn-rate evaluation with "
             "a deterministic timeline digest")
    watch.add_argument(
        "--telemetry-dir", default=None, metavar="PATH",
        dest="telemetry_dir",
        help="telemetry JSONL export dir/file: point-in-time health")
    watch.add_argument("--interval", type=float, default=2.0,
                       metavar="SECONDS",
                       help="seconds between frames (default: 2)")
    watch.add_argument("--frames", type=int, default=0, metavar="N",
                       help="stop after N frames (default: forever)")
    watch.add_argument("--once", action="store_true",
                       help="render one frame and exit "
                            "(same as --frames 1)")
    watch.add_argument("--json", action="store_true",
                       help="emit the frame payload as JSON")
    watch.add_argument("--no-clear", action="store_true",
                       dest="no_clear",
                       help="do not clear the terminal between frames")
    watch.set_defaults(handler=_run_watch)

    diagnose = obs_sub.add_parser(
        "diagnose", help="root-cause attribution over a fleet "
                         "checkpoint or telemetry exports")
    diagnose.add_argument(
        "path", help="fleet checkpoint JSONL, or a telemetry JSONL "
                     "export dir/file (auto-detected)")
    diagnose.add_argument(
        "--incident", default=None, metavar="OBJECTIVE",
        help="diagnose only this objective's breach")
    diagnose.add_argument("--top", type=int, default=5, metavar="N",
                          help="hypotheses to print (default: 5; "
                               "0 = all)")
    diagnose.add_argument("--json", action="store_true",
                          help="emit the tagged DiagnosisReport + "
                               "digest as JSON")
    diagnose.set_defaults(handler=_run_diagnose)

    slo_compare = obs_sub.add_parser(
        "slo-compare", help="canary verdict: compare two fleet "
                            "checkpoints objective by objective")
    slo_compare.add_argument("incumbent",
                             help="incumbent fleet checkpoint JSONL")
    slo_compare.add_argument("candidate",
                             help="candidate fleet checkpoint JSONL")
    slo_compare.add_argument(
        "--tolerance", type=float, default=0.10,
        help="relative SLI slack the candidate is allowed "
             "(default: 0.10)")
    slo_compare.add_argument("--json", action="store_true",
                             help="emit the verdict as JSON")
    slo_compare.set_defaults(handler=_run_slo_compare)

    incidents = obs_sub.add_parser(
        "incidents", help="query an incident timeline JSONL")
    incidents.add_argument("path", help="incident timeline file")
    incidents.add_argument("--objective", default=None,
                           help="only this objective's records")
    incidents.add_argument("--severity", default=None,
                           choices=("warn", "page"),
                           help="only records at this severity")
    incidents.add_argument("--event", default=None,
                           choices=("open", "update", "resolve"),
                           help="only this transition kind")
    incidents.add_argument("--json", action="store_true",
                           help="emit records + digest as JSON")
    incidents.set_defaults(handler=_run_incidents)

    for judged in (watch, diagnose, slo_compare):
        judged.add_argument(
            "--slo", default="default", metavar="SPEC",
            help="'default' for the stock contract or a tagged-JSON "
                 "SloSpec file")


def load_slo_spec(value: Optional[str]):
    """Resolve an ``--slo`` argument.

    ``None`` or the literal ``"default"`` gives the stock contract
    (:func:`repro.obs.slo.default_slo_spec`); anything else is read as
    a tagged-JSON :class:`~repro.obs.slo.SloSpec` file.  Raises
    ``SystemExit`` with an actionable message on unreadable or
    mistyped files -- shared by ``fleet run --slo``, ``loadgen --slo``
    and ``obs watch``.
    """
    from repro.obs.slo import SloSpec, default_slo_spec

    if value is None or value == "default":
        return default_slo_spec()
    from repro.runtime.serialization import from_jsonable

    try:
        with open(value, "r", encoding="utf-8") as fh:
            spec = from_jsonable(json.load(fh))
    except OSError as exc:
        raise SystemExit(f"cannot read slo spec: {exc}")
    except ValueError as exc:
        raise SystemExit(f"invalid slo spec {value!r}: {exc}")
    if not isinstance(spec, SloSpec):
        raise SystemExit(
            f"{value!r} does not hold a tagged SloSpec (write one "
            "with repro.runtime.serialization.to_jsonable; or pass "
            "'default')")
    return spec


def _default_trace_paths() -> List[str]:
    from repro.obs.trace import ENV_TRACE_DIR
    return [os.environ.get(ENV_TRACE_DIR) or ".repro_trace"]


def _run_report(args: argparse.Namespace) -> int:
    from repro.obs.trace import (format_rollup, read_rollup,
                                 rollup_digest, rollup_rows)

    paths = args.paths or _default_trace_paths()
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        print(f"no trace data at: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    try:
        rollup = read_rollup(paths)
    except (OSError, ValueError) as exc:
        print(f"cannot read trace data: {exc}", file=sys.stderr)
        return 2
    if not rollup:
        print(f"no trace spans under: {', '.join(paths)} (run with "
              "REPRO_TRACE_DIR set or 'fleet run --trace-dir' first)",
              file=sys.stderr)
        return 2
    digest = rollup_digest(rollup)
    if args.json:
        print(json.dumps({"digest": digest,
                          "rows": rollup_rows(rollup)}, indent=2))
    else:
        print(format_rollup(rollup, limit=args.limit))
        print(f"\nattributed-span digest: {digest}")
    return 0


def _run_profile(args: argparse.Namespace) -> int:
    from repro.engine.batch import BatchSimulator
    from repro.obs.profile import KernelProfiler, format_profile
    from repro.experiments.harness import fit_baselines, resolve_scenario
    from repro.serve import SlicingService, snapshot_baseline

    spec = resolve_scenario(args.scenario)
    if spec is None:
        print(f"unknown scenario {args.scenario!r}", file=sys.stderr)
        return 2
    import numpy as np

    cfg = spec.build_config(seed=args.seed)
    simulator = spec.build_simulator(
        cfg, rng=np.random.default_rng(cfg.seed))
    batch = BatchSimulator([simulator])
    # the episode is served by the rule-based baseline, so the serving
    # core's counters are those of a real decision stream
    core = SlicingService(
        snapshot_baseline("profile", cfg, fit_baselines(cfg),
                          seed=cfg.seed), cfg=cfg).core
    names = [simulator.slice_names]
    profiler = KernelProfiler(sample_interval=args.sample,
                              alloc=args.alloc)
    with profiler:
        states = batch.reset()
        while not simulator.done:
            states = batch.step(
                [core.decide_rows(states, names).actions]).observations
    core.flush()
    rows = profiler.report()
    counters = dict(batch.counters)
    serving = dict(core.counters)
    if args.json:
        print(json.dumps({"scenario": spec.name,
                          "kernel_calls": profiler.calls,
                          "sample_interval": args.sample,
                          "rows": rows,
                          "engine_counters": counters,
                          "serve_counters": serving}, indent=2))
    else:
        print(f"scenario {spec.name}: {profiler.calls} kernel calls, "
              f"sampling 1/{args.sample}")
        print(format_profile(rows))
        for title, values in (("engine", counters),
                              ("serve", serving)):
            print(f"{title} counters: " + ", ".join(
                f"{name} {value}" for name, value in sorted(
                    values.items())))
    return 0


def _load_checkpoint(path: str):
    """Load a fleet checkpoint (raises ``OSError`` / ``ValueError`` on
    unreadable or corrupt files).  One with a hole gets a stderr
    note, as ``fleet report`` gives partial files."""
    from repro.fleet import load_checkpoint

    checkpoint = load_checkpoint(path)
    waiting_for = 0
    while waiting_for in checkpoint.results:
        waiting_for += 1
    held = len(checkpoint.results) - waiting_for
    if held:
        print(f"note: {path}: {held} shard(s) held back waiting for "
              f"shard {waiting_for}; only the contiguous prefix is "
              "judged, as the live run judged it (finish with 'fleet "
              "run --resume')", file=sys.stderr)
    return checkpoint


def _read_exports(path: str):
    """Telemetry export rows under ``path``, or ``None`` after a
    one-line stderr message."""
    from repro.obs.monitor import read_telemetry_export

    try:
        rows = read_telemetry_export(path)
    except (OSError, ValueError) as exc:
        print(f"cannot read telemetry exports: {exc}", file=sys.stderr)
        return None
    if not rows:
        print(f"no telemetry exports under {path!r} "
              "(run serve/loadgen with --telemetry-dir first)",
              file=sys.stderr)
    return rows or None


def _render_watch_frame(args: argparse.Namespace, spec) -> int:
    """One ``obs watch`` frame; returns the would-be exit code."""
    from repro.obs import monitor

    if args.checkpoint is not None:
        from repro.obs.anomaly import AnomalyMonitor
        from repro.obs.diagnose import replay_shards

        try:
            checkpoint = _load_checkpoint(args.checkpoint)
        except (OSError, ValueError) as exc:
            print(f"cannot read checkpoint: {exc}", file=sys.stderr)
            return 2
        replay = replay_shards(checkpoint.results.values(), slo=spec,
                               monitor=AnomalyMonitor())
        anomalies = replay.monitor.anomalies()
        if args.json:
            print(json.dumps(monitor.frame_payload(
                replay.evaluator, anomalies=anomalies), indent=2))
        else:
            print(monitor.render_frame(
                f"fleet health -- {args.checkpoint} "
                f"[slo {spec.name}]", replay.evaluator,
                anomalies=anomalies))
        return 0
    if not os.path.exists(args.telemetry_dir):
        print(f"no telemetry exports at {args.telemetry_dir!r} "
              "(run serve/loadgen with --telemetry-dir first)",
              file=sys.stderr)
        return 2
    rows = _read_exports(args.telemetry_dir)
    if rows is None:
        return 2
    if args.json:
        statuses = monitor.point_statuses(spec, rows)
        print(json.dumps({
            "spec": spec.name, "mode": "point",
            "objectives": [
                {"objective": s.objective.name, "severity": s.severity,
                 "burn": s.burn_fast, "value": s.value}
                for s in statuses]}, indent=2))
    else:
        print(monitor.render_point_frame(
            f"telemetry health -- {args.telemetry_dir} "
            f"[slo {spec.name}]", spec, rows))
    return 0


def _run_watch(args: argparse.Namespace) -> int:
    import time

    if (args.checkpoint is None) == (args.telemetry_dir is None):
        print("obs watch needs exactly one of --checkpoint or "
              "--telemetry-dir", file=sys.stderr)
        return 2
    spec = load_slo_spec(args.slo)
    frames = 1 if args.once else args.frames
    rendered = 0
    while True:
        if not args.json and not args.no_clear and rendered:
            print("\x1b[2J\x1b[H", end="")
        code = _render_watch_frame(args, spec)
        if code != 0:
            return code
        rendered += 1
        if frames and rendered >= frames:
            return 0
        time.sleep(max(args.interval, 0.0))


def _run_incidents(args: argparse.Namespace) -> int:
    from repro.obs.monitor import format_incidents
    from repro.obs.slo import IncidentTimeline

    try:
        timeline = IncidentTimeline.load(args.path)
    except (OSError, ValueError) as exc:
        print(f"cannot read incident timeline: {exc}", file=sys.stderr)
        return 2
    kept = [record for record in timeline.records
            if (args.objective is None
                or record["objective"] == args.objective)
            and (args.severity is None
                 or record["severity"] == args.severity)
            and (args.event is None or record["event"] == args.event)]
    if args.json:
        print(json.dumps({"digest": timeline.digest(),
                          "records": kept}, indent=2))
        return 0
    print(format_incidents(kept))
    print(f"\n{len(kept)}/{len(timeline.records)} record(s), "
          f"timeline digest {timeline.digest()[:16]}")
    return 0


def _filter_report(report, objective: str):
    """Restrict a DiagnosisReport to one objective's breach (the
    ``--incident`` flag); returns None when it never breached."""
    import dataclasses

    incidents = tuple(row for row in report.incidents
                      if row["objective"] == objective)
    if not incidents:
        return None
    return dataclasses.replace(
        report, incidents=incidents,
        hypotheses=tuple(h for h in report.hypotheses
                         if h.incident == objective))


def _run_diagnose(args: argparse.Namespace) -> int:
    from repro.obs.diagnose import (diagnose_fleet, diagnose_telemetry,
                                    format_report)

    spec = load_slo_spec(args.slo)
    if not os.path.exists(args.path):
        print(f"nothing to diagnose at {args.path!r} (pass a fleet "
              "checkpoint JSONL or a telemetry export dir)",
              file=sys.stderr)
        return 2
    report = None
    if not os.path.isdir(args.path):
        try:
            checkpoint = _load_checkpoint(args.path)
        except OSError as exc:
            print(f"cannot read {args.path!r}: {exc}", file=sys.stderr)
            return 2
        except ValueError:
            # not a checkpoint: a telemetry file (a corrupt line
            # fails the same way again just below)
            checkpoint = None
        if checkpoint is not None:
            report = diagnose_fleet(
                checkpoint.results.values(), spec,
                fleet=checkpoint.spec.name,
                snapshot_ref=checkpoint.snapshot_ref,
                snapshot_digest=checkpoint.snapshot_digest)
    if report is None:
        rows = _read_exports(args.path)
        if rows is None:
            return 2
        report = diagnose_telemetry(rows, spec, label=args.path)
    if args.incident is not None:
        filtered = _filter_report(report, args.incident)
        if filtered is None:
            known = ", ".join(row["objective"]
                              for row in report.incidents) or "none"
            print(f"objective {args.incident!r} has no breach to "
                  f"diagnose (breached: {known})", file=sys.stderr)
            return 2
        report = filtered
    if args.json:
        from repro.runtime.serialization import to_jsonable

        print(json.dumps({"digest": report.digest(),
                          "report": to_jsonable(report)}, indent=2))
    else:
        print(format_report(report, top=args.top))
    return 0


def _run_slo_compare(args: argparse.Namespace) -> int:
    from repro.obs.diagnose import replay_shards
    from repro.obs.slo import SloEvaluator

    spec = load_slo_spec(args.slo)
    registries = []
    for role, path in (("incumbent", args.incumbent),
                       ("candidate", args.candidate)):
        try:
            registries.append(replay_shards(
                _load_checkpoint(path).results.values()).telemetry)
        except (OSError, ValueError) as exc:
            print(f"cannot read {role} checkpoint: {exc}",
                  file=sys.stderr)
            return 2
    verdict = SloEvaluator(spec).compare(
        registries[0], registries[1], tolerance=args.tolerance)
    if args.json:
        print(json.dumps(verdict, indent=2))
    else:
        print(f"slo-compare -- {args.candidate} vs {args.incumbent} "
              f"[slo {spec.name}, tolerance {verdict['tolerance']}]")
        for row in verdict["rows"]:
            flag = "ok" if row["ok"] else "REGRESSED"
            print(f"  {row['objective']:<22} {flag:>9}  "
                  f"incumbent {row['incumbent']:.6f}  "
                  f"candidate {row['candidate']:.6f}")
        print("candidate verdict: "
              + ("pass" if verdict["candidate_ok"] else
                 "REGRESSION -- roll back"))
    return 0 if verdict["candidate_ok"] else 3
