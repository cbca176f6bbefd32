"""``engine_fuzz``: the batch engine on a ragged fuzz corpus.

``generate_corpus(seed, W, FuzzSpace(min_slots=48, max_slots=96))``
worlds (1-9 slices, churn, faults, ragged horizons) under the
vectorised pi_b tables through ``harness.run_episodes(engine=
"vector")``.  Engine-dominant and bypasses serve, fleet and nn: this
is where ROADMAP's "one engine tier unless a second earns its keep"
must be read.

The traced driver re-drives the ``run_episodes`` vector loop
(``BatchSimulator.reset_world/step``, ``BatchPolicy.act_batch``,
``project_actions_batch``) with the kernel profiler on.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional

import numpy as np

from repro.engine.batch import BatchSimulator
from repro.engine.policies import (
    RuleBasedBatchPolicy,
    project_actions_batch,
)
from repro.experiments import harness
from repro.obs.profile import KernelProfiler
from repro.scenarios.fuzz import FuzzSpace, generate_corpus

from tracing import Stopwatch, Tracer
from workloads import (
    Check,
    Outcome,
    Workload,
    action_violations,
    digest_of,
    engine_layers,
    fixture_config,
)

#: Worlds re-run on the scalar engine for the bit-parity check.
PARITY_WORLDS = 8


class EngineFuzz(Workload):
    name = "engine_fuzz"

    def __init__(self, seed: int, tiny: bool, workdir: str) -> None:
        super().__init__(seed, tiny, workdir)
        self.worlds = 4 if tiny else 96
        self.episodes = 1 if tiny else 2
        self.space = (FuzzSpace(min_slots=6, max_slots=8) if tiny
                      else FuzzSpace(min_slots=48, max_slots=96))

    def sizes(self) -> Dict[str, object]:
        return {"worlds": self.worlds, "episodes": self.episodes,
                "min_slots": self.space.min_slots,
                "max_slots": self.space.max_slots,
                "policy": "rule_based"}

    @functools.cached_property
    def _corpus_counts(self):
        """(horizon, slices) of every world of the seed's corpus."""
        return [(spec.traffic_cfg.slots_per_episode, len(spec.slices))
                for spec in generate_corpus(self.seed, self.worlds,
                                            self.space)]

    def expected_decisions(self) -> int:
        return self.episodes * sum(
            horizon * slices for horizon, slices in self._corpus_counts)

    def world_slots(self) -> int:
        return self.episodes * sum(
            horizon for horizon, _ in self._corpus_counts)

    # ---- set-up ------------------------------------------------------

    def setup(self, tracer: Tracer) -> None:
        with tracer.span("baselines.fit"):
            self.baselines = harness.fit_baselines(
                fixture_config(tiny=False))
        # throw-away mini-run: 2 worlds x 8 slots
        with tracer.span("setup.warmup"):
            warm = generate_corpus(self.seed + 1, 2,
                                   FuzzSpace(min_slots=8, max_slots=8))
            harness.run_episodes(
                [spec.build_simulator() for spec in warm],
                RuleBasedBatchPolicy(self.baselines))

    # ---- untraced body -----------------------------------------------

    def body(self, run_dir: str) -> Dict[str, object]:
        corpus = generate_corpus(self.seed, self.worlds, self.space)
        simulators = [spec.build_simulator() for spec in corpus]
        policy = RuleBasedBatchPolicy(self.baselines)
        results = harness.run_episodes(
            simulators, policy, episodes=self.episodes,
            engine="vector")
        return {"results": results, "corpus": corpus}

    def seal(self, state: Dict[str, object]) -> Outcome:
        results = state["results"]
        corpus = state["corpus"]
        usage = 0.0
        row_slots = 0
        for spec, world in zip(corpus, results):
            horizon = spec.traffic_cfg.slots_per_episode
            for episode in world:
                usage += sum(t["usage"] for t in episode.values())
                row_slots += horizon * len(episode)
        return Outcome(
            decisions=row_slots,
            digests={"totals": digest_of([results])},
            quality={"resource_usage_pct": 100.0 * usage / row_slots},
            state=state)

    def specific(self, outcome: Outcome,
                 watch: Stopwatch) -> Dict[str, float]:
        return {"world_slots_per_s": self.world_slots() / watch.ref_s}

    # ---- traced driver -----------------------------------------------

    def traced(self, tracer: Tracer, run_dir: str,
               reference: Outcome) -> Outcome:
        """The ``run_episodes`` vector loop, one span per layer call."""
        profiler = KernelProfiler()
        episodes = self.episodes
        matrices: List[np.ndarray] = []
        row_slots = 0
        begin, end = tracer.begin, tracer.end
        with profiler:
            with tracer.span("scenarios.build"):
                corpus = generate_corpus(self.seed, self.worlds,
                                         self.space)
                simulators = [spec.build_simulator()
                              for spec in corpus]
            with tracer.span("engine.policy"):
                policy = RuleBasedBatchPolicy(self.baselines)
            with tracer.span("engine.reset"):
                batch = BatchSimulator(simulators, engine="vector")
            count = len(simulators)
            results: List[List[Dict]] = [[] for _ in range(count)]
            remaining = [episodes] * count
            totals: List[Optional[Dict]] = [None] * count
            states: List[Optional[np.ndarray]] = [None] * count
            for b in range(count):
                with tracer.span("engine.reset"):
                    states[b] = batch.reset_world(b)
                remaining[b] -= 1
                totals[b] = {n: {"cost": 0.0, "usage": 0.0}
                             for n in batch.slice_names(b)}
            active = set(range(count))
            # the loop's own bookkeeping is run_episodes' bookkeeping:
            # self time of this span (children taken out) is the
            # experiments layer
            harness_span = begin("experiments.harness")
            while active:
                worlds = sorted(active)
                stacked = np.concatenate([states[b] for b in worlds])
                names = [n for b in worlds
                         for n in batch.slice_names(b)]
                span = begin("engine.policy")
                matrix = np.asarray(policy.act_batch(stacked, names),
                                    dtype=float)
                end(span)
                offsets = np.concatenate(
                    [[0], np.cumsum([len(states[b]) for b in worlds])])
                span = begin("engine.project")
                matrix = project_actions_batch(matrix, offsets)
                end(span)
                actions: List[Optional[np.ndarray]] = [None] * count
                for i, b in enumerate(worlds):
                    actions[b] = matrix[offsets[i]:offsets[i + 1]]
                    matrices.append(actions[b])
                span = begin("engine.step")
                step = batch.step(actions)
                end(span)
                row_slots += len(step.costs)
                for i, b in enumerate(worlds):
                    rows = step.rows_of(b)
                    for j, n in enumerate(step.names[i]):
                        totals[b][n]["cost"] += float(
                            step.costs[rows][j])
                        totals[b][n]["usage"] += float(
                            step.usages[rows][j])
                    states[b] = step.observations[rows]
                    if step.dones[i]:
                        results[b].append(totals[b])
                        if remaining[b] > 0:
                            with tracer.span("engine.reset"):
                                states[b] = batch.reset_world(b)
                            remaining[b] -= 1
                            totals[b] = {
                                n: {"cost": 0.0, "usage": 0.0}
                                for n in batch.slice_names(b)}
                        else:
                            active.discard(b)
            end(harness_span)
        outcome = self.seal({"results": results, "corpus": corpus})
        outcome.state.update(matrices=matrices, row_slots=row_slots,
                             kernels=profiler.report())
        return outcome

    def layers(self, tracer: Tracer, repeat: int, traced: Outcome,
               reference: Outcome) -> Dict[str, float]:
        return engine_layers(tracer, repeat, traced.state)

    # ---- checks ------------------------------------------------------

    def extra_checks(self, runs: List[Outcome],
                     traced: Optional[Outcome]) -> List[Check]:
        first = runs[0]
        results = first.state["results"]
        values = np.array([total[key] for world in results
                           for episode in world
                           for total in episode.values()
                           for key in ("cost", "usage")])
        checks = [Check(
            "episode totals finite and non-negative",
            bool(np.all(np.isfinite(values)) and values.min() >= 0.0),
            f"min {values.min():.4g}", runs=(0,))]
        head = first.state["corpus"][:PARITY_WORLDS]
        scalar = harness.run_episodes(
            [spec.build_simulator() for spec in head],
            RuleBasedBatchPolicy(self.baselines),
            episodes=self.episodes, engine="scalar")
        checks.append(Check(
            f"first {len(head)} worlds bit-equal on the scalar engine",
            scalar == results[:len(head)], runs=(0,)))
        if traced is not None:
            bad = action_violations(traced.state["matrices"])
            checks.append(Check(
                "traced actions finite, in [0, 1], within capacity",
                bad == 0, f"{bad} of "
                f"{len(traced.state['matrices'])} batches out of "
                "contract", runs=(len(runs),)))
        return checks
