"""Cold-start cost of the rule-based baseline pi_b (paper Sec. 7.1).

Every cold process -- test run, CLI invocation, benchmark set-up,
each new ``(slice spec, network)`` pair of the robustness matrix --
grid-searches pi_b before anything else can run, so this is the
repo's fixed start-up bill.  Ungated trajectory case: the search is
one ``evaluate_rows`` call per traffic bin over ``combos x
eval_slots`` own-world rows, and the layout figures land in
``extra_info`` beside the seconds.
"""

import math

from conftest import run_once

from repro.baselines.rule_based import (
    GRID_VALUES,
    KEY_FACTORS,
    GridSearchConfig,
)
from repro.config import ExperimentConfig
from repro.experiments.harness import fit_baselines


def test_fit_baselines_cold(benchmark):
    cfg = ExperimentConfig()
    policies = run_once(benchmark, fit_baselines, cfg, use_cache=False)
    search = GridSearchConfig()
    print("\npi_b grid search, default three-slice config:")
    for spec in cfg.slices:
        candidates = math.prod(len(GRID_VALUES[f])
                               for f in KEY_FACTORS[spec.app])
        rows = candidates * search.eval_slots
        benchmark.extra_info[f"candidates_{spec.app}"] = candidates
        benchmark.extra_info[f"rows_per_kernel_call_{spec.app}"] = rows
        print(f"  {spec.app}: {candidates} candidates, {rows} rows x "
              f"{len(search.bin_edges)} kernel calls")
        assert len(policies[spec.name].actions) == len(search.bin_edges)
    benchmark.extra_info["kernel_calls"] = \
        len(cfg.slices) * len(search.bin_edges)
