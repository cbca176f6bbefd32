"""``python -m repro`` -- list and run the paper's artefacts.

Subcommands
-----------
``list``
    Show every runnable artefact (tables 1-4, figures 3-19, the
    robustness matrix) and how it decomposes into experiment units.
``scenarios``
    Show every registered scenario (slice population, traffic model,
    event timeline) from :mod:`repro.scenarios`; ``--json`` emits the
    registry machine-readably for loadgen tooling and CI.
``train``
    Train one method on one scenario and (with ``--save``) snapshot
    the resulting policy into the :class:`~repro.serve.policy_store
    .PolicyStore` (default ``.repro_policies``).
``serve``
    Run the :class:`~repro.serve.service.SlicingService` from a saved
    snapshot against a scenario feed, reporting service telemetry
    (optionally exported as JSONL).
``loadgen``
    Load-test a saved snapshot: drive the service with a registered
    scenario at ``--slices N`` and report decisions/sec, p50/p99
    decision latency and the SLA-violation rate.  No retraining --
    with an empty store it bootstraps a model-based snapshot.
``fleet run / fleet report``
    Simulate ``--cells N`` cells (cycling ``--scenarios``, default the
    robustness matrix) sharded over ``--shards`` worker processes, all
    serving one digest-pinned snapshot; streams mergeable telemetry to
    a rolling aggregate, optionally checkpoints completed shards to
    JSONL (``--checkpoint``, resumable with ``--resume``), and prints
    the fleet report (p50/p99 latency, per-scenario SLA table,
    per-cell outliers, deterministic report digest).  ``fleet
    report --checkpoint`` rebuilds the report from a checkpoint file
    without running anything.  ``--slo SPEC`` judges every
    shard-checkpoint boundary against a declarative health contract
    (burn-rate alerting; ``--slo-timeline`` streams the incident
    records, ``--fail-fast`` exits 4 on a sustained page burn,
    ``--diagnose`` appends the ranked root-cause hypotheses).
``fuzz run / fuzz shrink / fuzz sweep``
    Scenario fuzzing: ``run`` generates a seeded spec corpus
    (``--seed``/``--count``) and oracle-checks it across methods --
    SLA verdicts plus engine invariants (finite kernels, conservation,
    alone-vs-batched parity), exiting non-zero on an invariant breach;
    ``shrink`` delta-debugs one violating world to a minimal spec
    (``--out`` writes the tagged JSON for catalog graduation);
    ``sweep`` writes cost-vs-SLA Pareto frontier and scenario-family
    heatmap artefacts (also available as ``run fuzz_sweep``).
``run ARTEFACT [ARTEFACT ...]``
    Regenerate artefacts through the shared
    :class:`~repro.runtime.runner.ParallelRunner`: ``--workers`` fans
    units out over processes, ``--scale`` shortens the training
    schedules, and results are served from the on-disk cache
    (``--cache-dir``, default ``.repro_cache``) whenever the same
    config/seed/code version was computed before.  ``run all`` sweeps
    everything.  ``--scenario`` re-targets scenario-aware artefacts at
    a named workload, ``--seed`` overrides every method unit's seed,
    and ``--list-units`` prints the unit decomposition (with cache
    keys) instead of executing.
``cache``
    Inspect (``info``), drop (``clear``) or size-bound (``prune
    --max-size``) the on-disk result cache.
``obs report / profile / watch / incidents / diagnose / slo-compare``
    Observability tooling: ``report`` rolls merged trace files (from
    ``REPRO_TRACE_DIR`` or ``fleet run --trace-dir``) into a
    flamegraph-style span tree with an attributed-span digest;
    ``profile`` runs one scenario episode under the per-kernel
    profiler and prints where engine time goes; ``watch`` renders a live fleet
    health board (burn sparklines, open incidents) from a fleet
    checkpoint or a serving telemetry export; ``incidents`` queries
    an SLO incident timeline (filter by objective/severity/event)
    and prints its deterministic digest; ``diagnose`` replays a fleet
    checkpoint through the root-cause attribution engine and ranks
    the hypotheses behind each SLO breach (injected scenario events,
    fallback storms, snapshot regressions); ``slo-compare`` renders
    the canary verdict between two checkpoints (exit 3 on
    regression).

Examples
--------
::

    python -m repro list
    python -m repro scenarios --json
    python -m repro run table1 --workers 4 --scale 0.1
    python -m repro run robustness --scale 0.05 --workers 2
    python -m repro run table1 --scenario flash_crowd --seed 7
    python -m repro run table1 --list-units
    python -m repro run fig13 fig16 --json
    python -m repro cache prune --max-size 256M
    python -m repro train --method onslicing --scale 0.1 --save prod
    python -m repro serve --snapshot prod --scenario flash_crowd
    python -m repro loadgen --scenario flash_crowd --slices 50
    python -m repro fleet run --cells 32 --shards auto
    python -m repro fleet run --cells 32 --checkpoint fleet.jsonl \
        --resume
    python -m repro fleet report --checkpoint fleet.jsonl
    python -m repro fuzz run --seed 11 --count 16
    python -m repro fuzz shrink --seed 11 --world 4 \
        --method model_based
    python -m repro fuzz sweep --count 32 --out artefacts/
    python -m repro fleet run --cells 8 --trace-dir .repro_trace
    python -m repro fleet run --cells 8 --slo default \
        --slo-timeline incidents.jsonl --fail-fast
    python -m repro obs report .repro_trace
    python -m repro obs profile --scenario flash_crowd --alloc
    python -m repro obs watch --checkpoint fleet.jsonl --once
    python -m repro obs incidents incidents.jsonl --severity page
    python -m repro obs diagnose fleet.jsonl --top 3
    python -m repro obs slo-compare incumbent.jsonl candidate.jsonl
    python -m repro fleet run --cells 8 --slo default \
        --checkpoint fleet.jsonl --diagnose
    python -m repro loadgen --scenario flash_crowd --slo default
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import os
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.obs.cli import add_obs_parser
from repro.runtime.cache import configure_shared_cache
from repro.runtime.runner import ParallelRunner, default_workers
from repro.runtime.serialization import to_jsonable

DEFAULT_CACHE_DIR = ".repro_cache"
#: Mirrors ``repro.serve.DEFAULT_STORE_DIR`` (a literal so argparse
#: defaults never import the serve layer at CLI start-up).
DEFAULT_STORE_DIR = ".repro_policies"
DEFAULT_SCALE = 0.1

#: Methods `train` accepts (mirrors repro.serve.SNAPSHOT_METHODS
#: without importing the serve layer at module load).
TRAIN_METHODS = ("onslicing", "onrl", "baseline", "model_based")


@dataclass(frozen=True)
class Artefact:
    """One runnable paper artefact and how to regenerate it."""

    name: str
    description: str
    #: "fanout" generators take (scale, runner) and decompose into
    #: method units; "figure" artefacts run as one whole-figure unit.
    kind: str
    scaled: bool = True


ARTEFACTS: Dict[str, Artefact] = {a.name: a for a in (
    Artefact("table1", "test usage/violation of all four methods",
             "fanout"),
    Artefact("table2", "online averages of the switching variants",
             "fanout"),
    Artefact("table3", "action-modification methods", "fanout"),
    Artefact("table4", "OnSlicing on 4G LTE vs 5G NR (fixed MCS 9)",
             "fanout"),
    Artefact("fig3", "unsafe fixed-penalty DRL vs the baseline",
             "fanout"),
    Artefact("fig5", "slice rates under RDM vs vanilla", "figure",
             scaled=False),
    Artefact("fig6", "retransmission probability vs MCS offset",
             "figure", scaled=False),
    Artefact("fig9", "usage-vs-violation learning trajectories",
             "fanout"),
    Artefact("fig10", "offline imitation usage curves", "figure",
             scaled=False),
    Artefact("fig11", "per-slice online curves", "fanout"),
    Artefact("fig12", "proactive switching under a traffic anomaly",
             "figure", scaled=False),
    Artefact("fig13", "violation curves of switching variants",
             "fanout"),
    Artefact("fig14", "usage under fixed coordinating parameters",
             "figure", scaled=False),
    Artefact("fig15", "per-resource converged allocations", "figure"),
    Artefact("fig16", "ping-delay CDF, LTE vs NR", "figure",
             scaled=False),
    Artefact("fig17", "slice performance CDF, LTE vs NR", "figure",
             scaled=False),
    Artefact("fig18", "MAR user scale-up", "figure"),
    Artefact("fig19", "coordination rounds vs slice count", "figure",
             scaled=False),
    Artefact("robustness", "all four methods across the scenario "
             "stress matrix", "fanout"),
    Artefact("fleet_sweep", "fleet campaigns at growing cell counts",
             "fanout"),
    Artefact("fuzz_sweep", "cost-vs-SLA Pareto frontier over fuzzed "
             "worlds", "fanout"),
)}


def _generator(name: str) -> Callable[..., Any]:
    if name == "robustness":
        from repro.experiments.robustness import robustness

        return robustness
    if name == "fleet_sweep":
        from repro.experiments.fleet_sweep import fleet_sweep

        return fleet_sweep
    if name == "fuzz_sweep":
        from repro.experiments.fuzz import fuzz_sweep

        return fuzz_sweep
    from repro.experiments import figures, tables

    module = tables if name.startswith("table") else figures
    return getattr(module, name)


def supports_scenario(name: str) -> bool:
    """Whether an artefact's generator takes a ``scenario`` keyword."""
    if ARTEFACTS[name].kind != "fanout":
        return False
    return "scenario" in inspect.signature(_generator(name)).parameters


def run_artefact(name: str, runner: ParallelRunner, scale: float,
                 scenario: Optional[str] = None) -> Any:
    spec = ARTEFACTS[name]
    if scenario is not None and not supports_scenario(name):
        raise SystemExit(
            f"artefact {name!r} does not accept --scenario")
    if spec.kind == "fanout":
        kwargs: Dict[str, Any] = {"scale": scale, "runner": runner}
        if scenario is not None:
            kwargs["scenario"] = scenario
        return _generator(name)(**kwargs)
    kwargs = {"scale": scale} if spec.scaled else {}
    return runner.run_figure(name, **kwargs)


def _print_units(units: List[Any]) -> None:
    """Print a recorded unit decomposition (``run --list-units``)."""
    from repro.runtime.units import unit_cache_key

    def clip(value: Any) -> str:
        # fleet units carry whole resolved specs in params; the
        # listing only needs enough to identify the unit
        text = str(value)
        return text if len(text) <= 64 else f"{text[:61]}..."

    print(f"{'method':<12} {'variant':<12} {'scenario':<18} "
          f"{'seed':<6} {'key':<14} params")
    for unit in units:
        params = " ".join(f"{k}={clip(v)}"
                          for k, v in unit.params) or "-"
        key = unit_cache_key(unit)[:12]
        print(f"{unit.method:<12} {unit.variant:<12} "
              f"{unit.scenario:<18} {unit.seed:<6} {key:<14} {params}")
    print(f"{len(units)} unit(s)")


def _print_result(name: str, result: Any) -> None:
    print(f"== {name} ==")
    if isinstance(result, dict) and result and all(
            isinstance(v, dict) and "method" in v
            for v in result.values()):
        for row in result.values():  # a table: aligned metric rows
            cells = "  ".join(f"{k}={v}" for k, v in row.items()
                              if k != "method")
            print(f"  {row['method']:<24} {cells}")
    elif isinstance(result, dict):
        for key, value in result.items():
            text = repr(value)
            if len(text) > 60:
                text = f"{text[:57]}..."
            print(f"  {key}: {text}")
    else:
        print(f"  {result!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the paper's tables and figures.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list runnable artefacts"
                   ).set_defaults(handler=_run_list)

    scenarios = sub.add_parser(
        "scenarios", help="list registered scenarios")
    scenarios.add_argument("--json", action="store_true",
                           dest="as_json",
                           help="machine-readable output")
    scenarios.set_defaults(handler=_run_scenarios)

    train = sub.add_parser(
        "train", help="train a method and snapshot the policy")
    train.add_argument("--method", choices=TRAIN_METHODS,
                       default="onslicing")
    train.add_argument("--scenario", default="default", metavar="NAME",
                       help="training scenario (default: default)")
    train.add_argument("--scale", type=float, default=DEFAULT_SCALE,
                       help="schedule scale in (0, 1] "
                            f"(default: {DEFAULT_SCALE})")
    train.add_argument("--seed", type=int, default=42)
    train.add_argument("--save", nargs="?", const="", default=None,
                       metavar="NAME",
                       help="store the snapshot (optionally named; "
                            "default name <method>-<scenario>-seed<N>)")
    train.add_argument("--store-dir", default=DEFAULT_STORE_DIR,
                       help=f"policy store (default: "
                            f"{DEFAULT_STORE_DIR})")
    train.set_defaults(handler=_run_train)

    for command, description in (
            ("serve", "run the decision service over a scenario feed"),
            ("loadgen", "load-test a saved snapshot")):
        p = sub.add_parser(command, help=description)
        p.add_argument("--scenario",
                       required=(command == "loadgen"), default=None,
                       metavar="NAME",
                       help="workload scenario"
                            + ("" if command == "loadgen"
                               else " (default: the snapshot's)"))
        p.add_argument("--snapshot", default=None, metavar="REF",
                       help="snapshot 'name' or 'name@version' "
                            "(default: newest in the store)")
        p.add_argument("--store-dir", default=DEFAULT_STORE_DIR)
        p.add_argument("--slices", type=int, default=None, metavar="N",
                       help="serve an N-slice population(N) instead "
                            "of the scenario's own slices")
        p.add_argument("--episodes", type=int, default=1)
        p.add_argument("--decisions", type=int, default=None,
                       metavar="N", help="stop after N decisions")
        p.add_argument("--seed", type=int, default=None,
                       help="traffic/service seed (default: the "
                            "scenario's)")
        p.add_argument("--telemetry-dir", default=None, metavar="DIR",
                       help="export instrument readings as JSONL")
        p.add_argument("--slo", default=None, metavar="SPEC",
                       help="evaluate SLOs while serving: 'default' "
                            "for the stock contract or a tagged-JSON "
                            "SloSpec file")
        p.add_argument("--json", action="store_true", dest="as_json")
        p.set_defaults(handler=_run_serving,
                       report_telemetry=(command == "serve"))

    fleet = sub.add_parser(
        "fleet", help="sharded multi-cell fleet simulation")
    fleet_sub = fleet.add_subparsers(dest="fleet_command",
                                     required=True)
    fleet_run = fleet_sub.add_parser(
        "run", help="simulate N cells sharded over worker processes")
    fleet_run.add_argument("--cells", type=int, default=8,
                           help="simulated cells (default: 8)")
    fleet_run.add_argument("--shards", default="auto",
                           help="worker shards, or 'auto' "
                                "(default: auto)")
    fleet_run.add_argument("--scenarios", default=None, metavar="A,B",
                           help="comma-separated registered scenarios "
                                "cells cycle through (default: the "
                                "robustness matrix)")
    fleet_run.add_argument("--slices", type=int, default=None,
                           metavar="N",
                           help="re-populate every cell to N slices")
    fleet_run.add_argument("--episodes", type=int, default=1)
    fleet_run.add_argument("--slots", type=int, default=None,
                           metavar="N",
                           help="episode horizon override (slots)")
    fleet_run.add_argument("--seed", type=int, default=7,
                           help="fleet seed (cell seeds derive from "
                                "it; default: 7)")
    fleet_run.add_argument("--snapshot", default=None, metavar="REF",
                           help="snapshot 'name' or 'name@version' "
                                "(default: newest in the store)")
    fleet_run.add_argument("--store-dir", default=DEFAULT_STORE_DIR)
    fleet_run.add_argument("--name", default="fleet", metavar="NAME",
                           help="campaign name (default: fleet)")
    fleet_run.add_argument("--checkpoint", default=None, metavar="PATH",
                           help="stream completed shards to a JSONL "
                                "checkpoint")
    fleet_run.add_argument("--resume", action="store_true",
                           help="resume a killed run from "
                                "--checkpoint (same spec and seed)")
    fleet_run.add_argument("--trace-dir", default=None, metavar="DIR",
                           dest="trace_dir",
                           help="write obs trace spans (one JSONL "
                                "file per process) into DIR; inspect "
                                "with 'python -m repro obs report'")
    fleet_run.add_argument("--slo", default=None, metavar="SPEC",
                           help="evaluate SLOs at every shard "
                                "checkpoint: 'default' for the stock "
                                "contract or a tagged-JSON SloSpec "
                                "file")
    fleet_run.add_argument("--slo-timeline", default=None,
                           metavar="PATH", dest="slo_timeline",
                           help="write the incident timeline JSONL "
                                "here (with --slo; inspect with "
                                "'python -m repro obs incidents')")
    fleet_run.add_argument("--fail-fast", action="store_true",
                           dest="fail_fast",
                           help="with --slo: abort (exit 4) the "
                                "moment an objective sustains a "
                                "page-severity burn")
    fleet_run.add_argument("--diagnose", action="store_true",
                           help="after the run, replay the checkpoint "
                                "through the diagnosis engine and "
                                "print the ranked root-cause "
                                "hypotheses (needs --checkpoint)")
    fleet_run.add_argument("--json", action="store_true",
                           dest="as_json")
    fleet_run.set_defaults(handler=_fleet_run)
    fleet_report = fleet_sub.add_parser(
        "report", help="rebuild a fleet report from a checkpoint")
    fleet_report.add_argument("--checkpoint", required=True,
                              metavar="PATH")
    fleet_report.add_argument("--json", action="store_true",
                              dest="as_json")
    fleet_report.set_defaults(handler=_fleet_report)

    fuzz = sub.add_parser(
        "fuzz", help="fuzz scenarios, shrink failing worlds, sweep")
    fuzz_sub = fuzz.add_subparsers(dest="fuzz_command", required=True)
    fuzz_run = fuzz_sub.add_parser(
        "run", help="generate a seeded corpus and oracle-check it")
    fuzz_shrink = fuzz_sub.add_parser(
        "shrink", help="minimise one SLA-violating fuzzed world")
    fuzz_sweep_p = fuzz_sub.add_parser(
        "sweep", help="Pareto frontier + family heatmap artefacts")
    for p in (fuzz_run, fuzz_shrink, fuzz_sweep_p):
        p.add_argument("--seed", type=int, default=11,
                       help="fuzz seed (default: 11)")
        p.add_argument("--scale", type=float, default=DEFAULT_SCALE,
                       help="snapshot training schedule scale for the "
                            f"learned methods (default: {DEFAULT_SCALE})")
        p.add_argument("--store-dir", default=DEFAULT_STORE_DIR,
                       help="policy store for the learned methods' "
                            f"snapshots (default: {DEFAULT_STORE_DIR})")
        p.add_argument("--json", action="store_true", dest="as_json")
    for p in (fuzz_run, fuzz_sweep_p):
        p.add_argument("--count", type=int, default=16,
                       help="corpus size (default: 16)")
        p.add_argument("--batch", type=int, default=8,
                       help="worlds per engine batch (default: 8)")
        p.add_argument("--methods", default="baseline,model_based",
                       metavar="A,B",
                       help="comma-separated methods (default: the "
                            "training-free baseline,model_based; "
                            f"any of {','.join(TRAIN_METHODS)})")
        p.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR)
        p.add_argument("--no-cache", action="store_true",
                       help="recompute, bypassing the result cache")
    fuzz_run.set_defaults(handler=_fuzz_run)
    fuzz_shrink.set_defaults(handler=_fuzz_shrink)
    fuzz_sweep_p.set_defaults(handler=_fuzz_sweep)
    fuzz_run.add_argument("--no-parity", action="store_true",
                          help="skip the parity check (each world "
                               "re-run alone must equal its run "
                               "inside the batch)")
    fuzz_shrink.add_argument("--world", type=int, required=True,
                             help="corpus index of the failing world")
    fuzz_shrink.add_argument("--method", choices=TRAIN_METHODS,
                             default="model_based",
                             help="method whose SLA violation must be "
                                  "preserved (default: model_based)")
    fuzz_shrink.add_argument("--max-evals", type=int, default=200,
                             help="predicate evaluation budget "
                                  "(default: 200)")
    fuzz_shrink.add_argument("--out", default=None, metavar="PATH",
                             help="write the shrunk spec as tagged "
                                  "JSON (catalog graduation input)")
    fuzz_sweep_p.add_argument("--out", default=None, metavar="DIR",
                              help="write fuzz_pareto.json / "
                                   "fuzz_heatmap.json artefacts")

    run = sub.add_parser("run", help="regenerate artefacts")
    run.add_argument("artefacts", nargs="+", metavar="ARTEFACT",
                     help="table1..table4, fig3..fig19, robustness, "
                          "or 'all'")
    run.add_argument("--workers", default="1",
                     help="worker processes, or 'auto' (default: 1)")
    run.add_argument("--scale", type=float, default=DEFAULT_SCALE,
                     help="schedule scale in (0, 1]; 1.0 approximates "
                          f"the paper (default: {DEFAULT_SCALE})")
    run.add_argument("--scenario", default=None, metavar="NAME",
                     help="re-target scenario-aware artefacts at a "
                          "registered scenario (see 'scenarios')")
    run.add_argument("--seed", type=int, default=None,
                     help="override the seed of every learning unit "
                          "(onslicing/onrl)")
    run.add_argument("--list-units", action="store_true",
                     dest="list_units",
                     help="print the unit decomposition (with cache "
                          "keys) instead of executing")
    run.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                     help=f"result cache (default: {DEFAULT_CACHE_DIR})")
    run.add_argument("--no-cache", action="store_true",
                     help="recompute everything, bypassing the cache")
    run.add_argument("--json", action="store_true", dest="as_json",
                     help="print results as JSON instead of text")
    run.set_defaults(handler=_run_artefacts)

    cache = sub.add_parser("cache",
                           help="inspect/clear/prune the cache")
    cache.add_argument("action", choices=("info", "clear", "prune"))
    cache.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR)
    cache.add_argument("--max-size", default=None, metavar="SIZE",
                       help="prune target, bytes with optional "
                            "K/M/G suffix (e.g. 256M); required for "
                            "'prune'")
    cache.set_defaults(handler=_run_cache)

    add_obs_parser(sub)
    return parser


def resolve_artefacts(names: List[str]) -> List[str]:
    if names == ["all"]:
        return list(ARTEFACTS)
    unknown = [n for n in names if n not in ARTEFACTS]
    if unknown:
        raise SystemExit(
            f"unknown artefact(s): {', '.join(unknown)} "
            f"(try 'python -m repro list')")
    return names


def parse_workers(value: str, option: str = "--workers") -> int:
    """Parse a worker-count setting; ``option`` names the flag or
    environment variable being parsed so errors blame the right knob."""
    if value == "auto":
        return default_workers()
    try:
        workers = int(value)
    except ValueError:
        raise SystemExit(f"{option} must be an integer or 'auto', "
                         f"got {value!r}")
    if workers < 1:
        raise SystemExit(f"{option} must be >= 1")
    return workers


_SIZE_SUFFIXES = {"": 1, "k": 1024, "m": 1024 ** 2, "g": 1024 ** 3}


def parse_size(value: str, option: str = "--max-size") -> int:
    """Parse a byte size with an optional K/M/G suffix (e.g. 256M)."""
    import re

    match = re.fullmatch(r"\s*(\d+(?:\.\d+)?)\s*([kKmMgG]?)[bB]?\s*",
                         value)
    if not match:
        raise SystemExit(f"{option} must look like 1024, 256M or 2G, "
                         f"got {value!r}")
    return int(float(match.group(1))
               * _SIZE_SUFFIXES[match.group(2).lower()])


def _require_scenarios(*names: str) -> None:
    """Exit with the registry hint unless every name is registered."""
    from repro import scenarios as scenario_registry

    unknown = [name for name in names
               if name not in scenario_registry.names()]
    if unknown:
        raise SystemExit(f"unknown scenario(s): {', '.join(unknown)} "
                         f"(try 'python -m repro scenarios')")


def _load_serving_snapshot(store_dir: str, ref: Optional[str]):
    """Resolve the snapshot a serve/loadgen/fleet run should use
    (:func:`repro.serve.resolve_serving_snapshot`: explicit ref, else
    newest, else bootstrap a model-based snapshot), translating
    *lookup* failures into actionable CLI errors."""
    from repro.serve import resolve_serving_snapshot

    try:
        return resolve_serving_snapshot(store_dir, ref)
    except (KeyError, ValueError) as exc:
        if ref is None:
            # no explicit ref: the failure came from the store scan or
            # the bootstrap training itself -- "train one" would be
            # circular advice, so surface the real cause
            raise
        raise SystemExit(
            f"{exc.args[0]} (train one with 'python -m repro "
            "train --save')")


def _run_serving(args) -> int:
    """Shared body of the ``serve`` and ``loadgen`` subcommands
    (``serve`` also prints the service telemetry)."""
    from repro.serve import LoadGenerator

    report_telemetry = args.report_telemetry

    snapshot = _load_serving_snapshot(args.store_dir, args.snapshot)
    scenario = args.scenario or snapshot.scenario
    _require_scenarios(scenario)
    evaluator = None
    if args.slo is not None:
        from repro.obs.cli import load_slo_spec
        from repro.obs.slo import SloEvaluator

        evaluator = SloEvaluator(load_slo_spec(args.slo))
    generator = LoadGenerator(snapshot, scenario, slices=args.slices,
                              seed=args.seed, slo=evaluator)
    report = generator.run(episodes=args.episodes,
                           max_decisions=args.decisions)
    telemetry_rows = generator.telemetry.snapshot()
    if args.telemetry_dir:
        base = os.path.join(args.telemetry_dir,
                            f"{snapshot.name}-{report.scenario}")
        path = generator.telemetry.export_jsonl(
            base + ".jsonl", run_label=snapshot.ref)
        prom = generator.telemetry.export_prometheus_file(
            base + ".prom")
        print(f"telemetry written to {path} and {prom}",
              file=sys.stderr)
    if args.as_json:
        payload = {"snapshot": snapshot.ref,
                   "method": snapshot.method,
                   "report": report.row()}
        if report_telemetry:
            payload["telemetry"] = telemetry_rows
        if evaluator is not None:
            from repro.obs.monitor import frame_payload

            payload["slo"] = frame_payload(evaluator)
        print(json.dumps(payload, indent=2))
        return 0
    print(f"== {'serve' if report_telemetry else 'loadgen'} "
          f"{report.scenario} ==")
    print(f"  snapshot          {snapshot.ref} ({snapshot.method})")
    print(f"  slices            {report.slices}")
    print(f"  decisions         {report.decisions} "
          f"({report.episodes} episode(s))")
    print(f"  throughput        {report.decisions_per_sec:,.0f} "
          "decisions/s")
    print(f"  decision latency  p50 {report.p50_latency_ms:.3f} ms   "
          f"p99 {report.p99_latency_ms:.3f} ms")
    print(f"  SLA violation     {100.0 * report.violation_rate:.1f}% "
          "of (episode, slice)")
    print(f"  fallback          {100.0 * report.fallback_rate:.1f}% "
          "of decisions")
    print(f"  mean usage        {100.0 * report.mean_usage:.1f}%")
    print(f"  digest            {report.decision_digest[:16]}")
    if report_telemetry:
        print("  -- telemetry --")
        for row in telemetry_rows:
            cells = "  ".join(f"{k}={v:.3f}" if isinstance(v, float)
                              else f"{k}={v}"
                              for k, v in row.items()
                              if k not in ("metric", "type"))
            print(f"  {row['metric']:<22} {cells}")
    if evaluator is not None:
        from repro.obs.monitor import format_open_incidents, \
            format_statuses

        print("  -- slo --")
        for line in format_statuses(evaluator.statuses()).splitlines():
            print(f"  {line}")
        print(f"  {format_open_incidents(evaluator.timeline)}")
    return 0


def _fleet_json(report, complete: bool = True) -> str:
    """Machine-readable fleet report payload."""
    return json.dumps({
        "complete": complete,
        "report": report.row(),
        "scenarios": [dataclasses.asdict(row)
                      for row in report.scenarios],
        "stages": [dataclasses.asdict(row)
                   for row in report.stages],
        "outliers": [dataclasses.asdict(row)
                     for row in report.outliers],
    }, indent=2)


def _fleet_report(args) -> int:
    """``fleet report``: rebuild the report from a checkpoint."""
    from repro.fleet import (
        format_report,
        load_checkpoint,
        report_from_checkpoint,
    )

    try:
        checkpoint = load_checkpoint(args.checkpoint)
    except OSError as exc:
        raise SystemExit(f"cannot read checkpoint: {exc}")
    except ValueError as exc:
        raise SystemExit(str(exc))
    report = report_from_checkpoint(checkpoint)
    if not checkpoint.complete:
        print(f"note: checkpoint holds {len(checkpoint.results)}/"
              f"{checkpoint.shards} shard(s); this report is "
              "partial (finish with 'fleet run --resume')",
              file=sys.stderr)
    print(_fleet_json(report, complete=checkpoint.complete)
          if args.as_json else format_report(report))
    return 0


def _fleet_run(args) -> int:
    """``fleet run``: the sharded campaign, judged and diagnosed."""
    from repro.fleet import (
        FleetSloBreach,
        FleetSpec,
        format_report,
        load_checkpoint,
        run_fleet,
    )

    scenario_names = None
    if args.scenarios is not None:
        scenario_names = tuple(
            name.strip() for name in args.scenarios.split(",")
            if name.strip())
        if not scenario_names:
            # an explicitly passed empty list (e.g. an unset shell
            # variable) must not silently become the full matrix
            raise SystemExit("--scenarios was given but names no "
                             "scenario (try 'python -m repro "
                             "scenarios', or drop the flag for the "
                             "robustness matrix)")
        _require_scenarios(*scenario_names)
    if args.resume and not args.checkpoint:
        raise SystemExit("--resume needs --checkpoint (there is "
                         "nothing to resume from without one)")
    slo_spec = None
    if args.slo is not None:
        from repro.obs.cli import load_slo_spec

        slo_spec = load_slo_spec(args.slo)
    elif args.slo_timeline or args.fail_fast:
        raise SystemExit("--slo-timeline/--fail-fast need --slo (pass "
                         "--slo default for the stock contract)")
    if args.diagnose and not args.checkpoint:
        raise SystemExit("--diagnose needs --checkpoint (the "
                         "diagnosis replays the checkpoint's shards)")
    try:
        spec = FleetSpec(name=args.name, cells=args.cells,
                         scenarios=scenario_names or (),
                         slices=args.slices, episodes=args.episodes,
                         slots=args.slots, seed=args.seed)
    except ValueError as exc:
        raise SystemExit(str(exc))
    snapshot = _load_serving_snapshot(args.store_dir, args.snapshot)
    shards = parse_workers(args.shards, option="--shards")
    if args.trace_dir is not None:
        # the env variable is how shard worker processes inherit the
        # trace session; the coordinator joins it here too
        from repro.obs.trace import ENV_TRACE_DIR, configure_from_env

        os.environ[ENV_TRACE_DIR] = args.trace_dir
        configure_from_env(label="coordinator")
    try:
        report = run_fleet(
            spec, args.store_dir, snapshot_ref=snapshot.ref,
            shards=shards, checkpoint_path=args.checkpoint,
            resume=args.resume,
            progress=lambda line: print(line, file=sys.stderr),
            snapshot=snapshot, slo=slo_spec, slo_timeline=args.slo_timeline,
            fail_fast=args.fail_fast)
    except FleetSloBreach as exc:
        print(f"SLO BREACH: {exc}", file=sys.stderr)
        if args.slo_timeline:
            print(f"incident timeline: {args.slo_timeline} (inspect "
                  "with 'python -m repro obs incidents')",
                  file=sys.stderr)
        return 4
    except ValueError as exc:
        raise SystemExit(str(exc))
    except OSError as exc:
        # checkpoint I/O (reading an old one or writing the new one):
        # unwritable directory, path through a file, EACCES...
        raise SystemExit(f"checkpoint I/O failed: {exc}")
    if slo_spec is not None and args.slo_timeline:
        from repro.obs.slo import IncidentTimeline

        timeline = IncidentTimeline.load(args.slo_timeline)
        print(f"slo timeline: {len(timeline.records)} record(s), "
              f"digest {timeline.digest()[:16]} -> "
              f"{args.slo_timeline}", file=sys.stderr)
    if args.trace_dir is not None:
        from repro.obs.trace import flush as trace_flush

        trace_flush()
        print(f"trace spans in {args.trace_dir} (roll up with "
              f"'python -m repro obs report {args.trace_dir}')",
              file=sys.stderr)
    diagnosis = None
    if args.diagnose:
        from repro.obs.diagnose import diagnose_fleet
        from repro.obs.slo import default_slo_spec

        checkpoint = load_checkpoint(args.checkpoint)
        diagnosis = diagnose_fleet(
            checkpoint.results.values(),
            slo_spec if slo_spec is not None else default_slo_spec(),
            fleet=spec.name,
            snapshot_ref=checkpoint.snapshot_ref,
            snapshot_digest=checkpoint.snapshot_digest)
    if args.as_json:
        payload = json.loads(_fleet_json(report))
        if diagnosis is not None:
            from repro.runtime.serialization import to_jsonable

            payload["diagnosis"] = {"digest": diagnosis.digest(),
                                    "report": to_jsonable(diagnosis)}
        print(json.dumps(payload, indent=2))
    else:
        print(format_report(report))
        if diagnosis is not None:
            from repro.obs.diagnose import format_report as \
                format_diagnosis

            print()
            print(format_diagnosis(diagnosis))
    return 0


def _parse_fuzz_methods(text: str) -> tuple:
    methods = tuple(name.strip() for name in text.split(",")
                    if name.strip())
    if not methods:
        raise SystemExit("--methods names no method (expected a "
                         f"comma-separated subset of "
                         f"{','.join(TRAIN_METHODS)})")
    unknown = [m for m in methods if m not in TRAIN_METHODS]
    if unknown:
        raise SystemExit(f"unknown method(s): {', '.join(unknown)} "
                         f"(expected a subset of "
                         f"{','.join(TRAIN_METHODS)})")
    return methods


def _fuzz_shrink(args) -> int:
    """``fuzz shrink``: delta-debug one violating world."""
    from repro.experiments.fuzz import (
        build_method_policies,
        shrink_violation,
    )
    from repro.experiments.robustness import METHOD_LABELS
    from repro.scenarios.fuzz import generate_spec, spec_digest

    policies = build_method_policies(
        methods=(args.method,), scale=args.scale,
        snapshot_store=args.store_dir)
    policy = policies[METHOD_LABELS[args.method]][0]
    spec = generate_spec(args.seed, args.world)
    try:
        shrunk, evals = shrink_violation(
            spec, policy, max_evals=args.max_evals)
    except ValueError as exc:
        raise SystemExit(
            f"{exc} (find violating worlds with 'python -m repro "
            f"fuzz run --seed {args.seed} --methods "
            f"{args.method}')")
    digest = spec_digest(shrunk)
    slots = (shrunk.traffic_cfg.slots_per_episode
             if shrunk.traffic_cfg is not None else None)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(to_jsonable(shrunk), fh, indent=2)
    if args.as_json:
        print(json.dumps({
            "seed": args.seed, "world": args.world,
            "method": args.method, "evals": evals,
            "digest": digest, "slices": len(shrunk.slices),
            "events": len(shrunk.events), "slots": slots,
            "spec": to_jsonable(shrunk),
        }, indent=2))
        return 0
    print(f"== fuzz shrink seed={args.seed} world={args.world} "
          f"({args.method}) ==")
    print(f"  before  {len(spec.slices)} slice(s), "
          f"{len(spec.events)} event(s)")
    print(f"  after   {len(shrunk.slices)} slice(s), "
          f"{len(shrunk.events)} event(s), {slots} slot(s) "
          f"in {evals} evaluation(s)")
    print(f"  digest  {digest}")
    if args.out:
        print(f"  spec written to {args.out}")
    return 0


def _fuzz_sweep(args) -> int:
    """``fuzz sweep``: Pareto frontier + family heatmap artefacts."""
    from repro.experiments.fuzz import fuzz_sweep

    configure_shared_cache(None if args.no_cache else args.cache_dir)
    rows = fuzz_sweep(scale=args.scale, seed=args.seed,
                      count=args.count,
                      methods=_parse_fuzz_methods(args.methods),
                      snapshot_store=args.store_dir,
                      batch=args.batch, out_dir=args.out)
    if args.as_json:
        print(json.dumps(to_jsonable(rows), indent=2))
    else:
        _print_result("fuzz_sweep", rows)
        if args.out:
            print(f"  artefacts written to {args.out}/")
    return 0


def _fuzz_run(args) -> int:
    """``fuzz run``: oracle-check a seeded corpus.

    Exits non-zero when the oracle reports an engine invariant breach
    (a bug, unlike SLA violations, which are findings); the CI smoke
    job leans on that.
    """
    from repro.experiments.fuzz import run_fuzz

    configure_shared_cache(None if args.no_cache else args.cache_dir)
    result = run_fuzz(seed=args.seed, count=args.count,
                      methods=_parse_fuzz_methods(args.methods),
                      batch=args.batch,
                      check_parity=not args.no_parity,
                      scale=args.scale,
                      snapshot_store=args.store_dir,
                      use_cache=not args.no_cache)
    breaches = 0
    if args.as_json:
        print(json.dumps(to_jsonable(result), indent=2))
        breaches = sum(m["summary"]["breaches"]
                       for m in result["methods"].values())
        return 1 if breaches else 0
    print(f"== fuzz run seed={result['seed']} "
          f"count={result['count']} ==")
    print(f"  corpus digest {result['corpus_digest']}")
    for label, method_result in result["methods"].items():
        summary = method_result["summary"]
        breaches += summary["breaches"]
        print(f"  {label:<12} violating worlds "
              f"{summary['violating_worlds']}/{summary['worlds']}  "
              f"violation {summary['violation_pct']}%  "
              f"usage {summary['usage_pct']}%  "
              f"breaches {summary['breaches']}")
        for row in method_result["worlds"]:
            if row["violations"]:
                print(f"    {row['scenario']} [{row['family']}] "
                      f"violates {', '.join(row['violations'])}")
            for breach in row["breaches"]:
                print(f"    {row['scenario']} BREACH "
                      f"{breach['kind']}: {breach['detail']}")
    if breaches:
        print(f"{breaches} engine invariant breach(es) -- this is a "
              "bug; shrink with 'python -m repro fuzz shrink'",
              file=sys.stderr)
        return 1
    return 0


def _run_list(args) -> int:
    """``list``: every runnable artefact."""
    print(f"{'artefact':<10} {'units':<8} description")
    for spec in ARTEFACTS.values():
        units = "fan-out" if spec.kind == "fanout" else "1 figure"
        print(f"{spec.name:<10} {units:<8} {spec.description}")
    return 0


def _run_scenarios(args) -> int:
    """``scenarios``: list the registry."""
    from repro import scenarios as scenario_registry

    rows = []
    for spec in scenario_registry.all_specs():
        rows.append({
            "name": spec.name,
            "description": spec.description,
            "slices": len(spec.slices) if spec.slices else 3,
            "traffic": (type(spec.traffic).__name__
                        if spec.traffic is not None else "diurnal"),
            "events": len(spec.events),
            "seed": spec.seed,
        })
    if args.as_json:
        print(json.dumps(rows, indent=2))
        return 0
    print(f"{'scenario':<18} {'slices':<7} {'traffic':<18} "
          f"{'events':<7} description")
    for row in rows:
        print(f"{row['name']:<18} {row['slices']:<7} "
              f"{row['traffic']:<18} {row['events']:<7} "
              f"{row['description']}")
    print(f"{len(rows)} scenario(s) registered")
    return 0


def _run_cache(args) -> int:
    """``cache info / clear / prune``."""
    cache = configure_shared_cache(args.cache_dir)
    if args.action == "clear":
        size = len(cache)
        cache.clear()
        print(f"cleared {size} cached result(s) from "
              f"{args.cache_dir}")
    elif args.action == "prune":
        if args.max_size is None:
            raise SystemExit("cache prune requires --max-size")
        stats = cache.prune(parse_size(args.max_size))
        print(f"{args.cache_dir}: pruned {stats['removed']} "
              f"entry(ies), kept {stats['kept']} "
              f"({stats['bytes_before']} -> "
              f"{stats['bytes_after']} bytes)")
    else:
        print(f"{args.cache_dir}: {len(cache)} cached result(s), "
              f"{cache.disk_usage()} bytes on disk")
    return 0


def _run_train(args) -> int:
    """``train``: train one method, optionally snapshot it."""
    from repro.serve import PolicyStore, train_snapshot

    _require_scenarios(args.scenario)
    store = (PolicyStore(args.store_dir)
             if args.save is not None else None)
    snapshot = train_snapshot(
        args.method, scenario=args.scenario, scale=args.scale,
        seed=args.seed, name=(args.save or None), store=store)
    if store is not None:
        print(f"saved snapshot {snapshot.ref} "
              f"({snapshot.method} on {snapshot.scenario}, "
              f"digest {snapshot.digest[:12]}) to "
              f"{args.store_dir}")
    else:
        print(f"trained {snapshot.method} on {snapshot.scenario} "
              "(not saved; pass --save to snapshot it)")
    return 0


def _run_artefacts(args) -> int:
    """``run``: regenerate artefacts through the shared runner."""
    names = resolve_artefacts(args.artefacts)
    if args.scenario is not None:
        _require_scenarios(args.scenario)
        # Fail before any unit executes, not mid-sweep: every selected
        # artefact must be scenario-aware.
        incompatible = [n for n in names if not supports_scenario(n)]
        if incompatible:
            raise SystemExit(
                "--scenario is not supported by: "
                f"{', '.join(incompatible)}")

    if args.list_units:
        planner = ParallelRunner(workers=1, collect_only=True,
                                 use_cache=False,
                                 seed_override=args.seed)
        for name in names:
            # every generator assembles over the planner's stub
            # results (tier-1 lists them all): an exception is a bug
            run_artefact(name, planner, args.scale,
                         scenario=args.scenario)
        _print_units(planner.collected)
        return 0

    cache = configure_shared_cache(
        None if args.no_cache else args.cache_dir)
    runner = ParallelRunner(workers=parse_workers(args.workers),
                            cache=cache,
                            use_cache=not args.no_cache,
                            seed_override=args.seed)
    outputs = {}
    try:
        for name in names:
            outputs[name] = run_artefact(name, runner, args.scale,
                                         scenario=args.scenario)
    finally:
        runner.close()
    if args.as_json:
        print(json.dumps(to_jsonable(outputs), indent=2))
        # keep stdout parseable: summary goes to stderr in JSON mode
        print(f"run summary: {runner.summary.line()}",
              file=sys.stderr)
    else:
        for name, result in outputs.items():
            _print_result(name, result)
        print(f"run summary: {runner.summary.line()}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    # REPRO_TRACE_DIR turns on span tracing for any subcommand; a
    # no-op (and zero per-span cost) when the variable is unset.
    from repro.obs.trace import configure_from_env

    configure_from_env(label="cli")
    # every leaf parser names its function (set_defaults(handler=...))
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
