"""Tests: the parallel runtime (units, cache, runner, CLI)."""

import dataclasses
import json

import numpy as np
import pytest

from repro.config import ExperimentConfig, TrafficConfig
from repro.experiments.metrics import MethodResult, TrajectoryPoint
from repro.runtime import (
    MISSING,
    ExperimentUnit,
    ParallelRunner,
    ResultCache,
    content_key,
    execute_unit,
    make_figure_unit,
    make_unit,
    unit_cache_key,
)
from repro.runtime.cli import (
    build_parser,
    parse_workers,
    resolve_artefacts,
)
from repro.runtime.serialization import from_jsonable, to_jsonable


@pytest.fixture
def tiny_cfg():
    """Short horizon so learning units run in well under a second."""
    return ExperimentConfig(
        traffic=TrafficConfig(slots_per_episode=10), seed=5)


@pytest.fixture
def tiny_units(tiny_cfg):
    """One unit of every method on the tiny config."""
    return [
        make_unit("onslicing", cfg=tiny_cfg, epochs=2,
                  episodes_per_epoch=1, offline_episodes=1,
                  exploration_episodes=1, test_episodes=1),
        make_unit("onrl", seed=17, cfg=tiny_cfg, epochs=2,
                  episodes_per_epoch=1),
        make_unit("baseline", cfg=tiny_cfg, episodes=1),
        make_unit("model_based", cfg=tiny_cfg, episodes=1),
    ]


class TestSerialization:
    def test_ndarray_roundtrip(self):
        arr = np.arange(6, dtype=np.float32).reshape(2, 3)
        back = from_jsonable(json.loads(json.dumps(to_jsonable(arr))))
        np.testing.assert_array_equal(back, arr)
        assert back.dtype == arr.dtype

    def test_method_result_roundtrip(self):
        result = MethodResult(
            "OnSlicing", 20.19, 0.0, mean_interactions=1.83,
            trajectory=[TrajectoryPoint(
                epoch=0, mean_usage=0.3, mean_cost=0.01,
                violation_rate=0.0, per_slice_usage={"MAR": 0.2})],
            per_slice_usage={"MAR": 0.2, "HVS": 0.4})
        back = from_jsonable(json.loads(json.dumps(
            to_jsonable(result))))
        assert back == result
        assert isinstance(back.trajectory[0], TrajectoryPoint)

    def test_rule_based_policy_roundtrip(self):
        from repro.baselines.rule_based import RuleBasedPolicy

        policy = RuleBasedPolicy(
            "MAR", "mar", [0.5, 1.0],
            [np.full(10, 0.1), np.full(10, 0.9)])
        back = from_jsonable(json.loads(json.dumps(
            to_jsonable(policy))))
        np.testing.assert_array_equal(
            back.action_for_traffic(0.8), policy.action_for_traffic(0.8))

    def test_tuple_roundtrip_keeps_type(self):
        series = {"users": (1, 10, 20, 30), "usage_pct": [1.0, 2.0]}
        back = from_jsonable(json.loads(json.dumps(
            to_jsonable(series))))
        assert back == series
        assert isinstance(back["users"], tuple)
        assert isinstance(back["usage_pct"], list)

    def test_rejects_unencodable(self):
        with pytest.raises(TypeError):
            to_jsonable(object())


class TestCacheKeys:
    def test_key_sensitivity(self, tiny_cfg):
        base = make_unit("onslicing", cfg=tiny_cfg, epochs=2)
        assert unit_cache_key(base) == unit_cache_key(base)
        for other in (
                make_unit("onslicing", cfg=tiny_cfg, epochs=3),
                make_unit("onslicing", cfg=tiny_cfg, epochs=2, seed=43),
                make_unit("onslicing", variant="nb", cfg=tiny_cfg,
                          epochs=2),
                make_unit("onrl", cfg=tiny_cfg, epochs=2),
                make_unit("onslicing", cfg=tiny_cfg.replace(seed=6),
                          epochs=2),
        ):
            assert unit_cache_key(other) != unit_cache_key(base)

    def test_key_includes_code_version(self, tiny_cfg, monkeypatch):
        import repro.runtime.cache as cache_mod

        unit = make_unit("baseline", cfg=tiny_cfg)
        before = unit_cache_key(unit)
        monkeypatch.setattr(cache_mod, "_code_version", "other-rev")
        assert unit_cache_key(unit) != before

    def test_content_key_canonical(self):
        assert content_key({"a": 1, "b": 2}) == \
            content_key({"b": 2, "a": 1})

    def test_make_unit_validation(self):
        with pytest.raises(ValueError):
            make_unit("teleport")
        with pytest.raises(ValueError):
            make_unit("onrl", scenario="mars")
        with pytest.raises(ValueError):
            # figure units go through make_figure_unit, which forwards
            # every keyword (seed, cfg, ...) to the figure function
            make_unit("figure", variant="fig12")
        with pytest.raises(ValueError):
            make_figure_unit("fig99")


class TestResultCache:
    def test_memory_layer_identity(self):
        cache = ResultCache()
        assert cache.fetch("k") is MISSING
        value = {"x": 1}
        cache.put("k", value)
        assert cache.fetch("k") is value
        assert "k" in cache and len(cache) == 1
        cache.clear()
        assert cache.fetch("k") is MISSING

    def test_disk_layer_survives_processes(self, tmp_path):
        first = ResultCache(str(tmp_path))
        result = MethodResult("X", 1.0, 2.0)
        first.put("k", result)
        # a fresh instance simulates a new process
        second = ResultCache(str(tmp_path))
        assert second.fetch("k") == result
        assert len(second) == 1
        second.clear()
        assert ResultCache(str(tmp_path)).fetch("k") is MISSING

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        (tmp_path / "bad.json").write_text("{not json")
        assert cache.fetch("bad") is MISSING

    def test_disk_failure_degrades_to_memory(self, tmp_path):
        import shutil

        cache = ResultCache(str(tmp_path / "cache"))
        shutil.rmtree(tmp_path / "cache")  # disk vanishes mid-run
        cache.put("k", {"x": 1})  # must not raise
        assert cache.fetch("k") == {"x": 1}


class TestRunner:
    def test_workers_validated(self):
        with pytest.raises(ValueError):
            ParallelRunner(workers=0)

    def test_cache_hit_counting(self, tiny_cfg):
        runner = ParallelRunner(workers=1, cache=ResultCache())
        units = [make_unit("baseline", cfg=tiny_cfg, episodes=1)]
        runner.run(units)
        assert runner.summary.cache_hits == 0
        assert runner.summary.executed == 1
        first = runner.run(units)[0]
        assert runner.summary.cache_hits == 1
        assert runner.summary.hit_rate == 0.5
        assert runner.run(units)[0] is first  # memory-layer identity
        assert "cached" in runner.summary.line()

    def test_use_cache_false_recomputes(self, tiny_cfg):
        runner = ParallelRunner(workers=1, cache=ResultCache(),
                                use_cache=False)
        units = [make_unit("baseline", cfg=tiny_cfg, episodes=1)]
        a = runner.run(units)[0]
        b = runner.run(units)[0]
        assert a is not b and a == b
        assert runner.summary.cache_hits == 0
        assert len(runner.cache) == 0  # caching off stores nothing

    def test_parallel_matches_in_process(self, tiny_units):
        """workers=4 and workers=1 agree bit-for-bit on fixed seeds."""
        serial = ParallelRunner(workers=1,
                                cache=ResultCache()).run(tiny_units)
        with ParallelRunner(workers=4, cache=ResultCache(),
                            use_cache=False) as runner:
            parallel = runner.run(tiny_units)
            # the pool is reused across run() calls, not rebuilt
            pool = runner._pool
            runner.run(tiny_units[2:])
            assert runner._pool is pool
        assert runner._pool is None  # closed on exit
        for s, p in zip(serial, parallel):
            assert s == p

    def test_disk_cache_serves_second_runner(self, tiny_cfg, tmp_path):
        units = [make_unit("baseline", cfg=tiny_cfg, episodes=1),
                 make_unit("model_based", cfg=tiny_cfg, episodes=1)]
        first = ParallelRunner(workers=1,
                               cache=ResultCache(str(tmp_path)))
        computed = first.run(units)
        second = ParallelRunner(workers=1,
                                cache=ResultCache(str(tmp_path)))
        served = second.run(units)
        assert second.summary.cache_hits == len(units)
        assert second.summary.hit_rate == 1.0
        assert served == computed

    def test_run_figure_unit(self):
        runner = ParallelRunner(workers=1, cache=ResultCache())
        series = runner.run_figure("fig6")
        assert len(series["offset"]) == 11
        assert runner.run_figure("fig6") is series  # cached
        assert runner.summary.cache_hits == 1

    def test_run_figure_forwards_every_keyword(self):
        """Even ``seed`` reaches the figure function (and its key)."""
        runner = ParallelRunner(workers=1, cache=ResultCache())
        a = runner.run_figure("fig5", seed=3)
        b = runner.run_figure("fig5", seed=9)
        assert runner.summary.executed == 2  # distinct cache keys
        assert a != b  # the seed genuinely changed the series


class TestExecuteUnit:
    def test_onslicing_variant_and_trajectory(self, tiny_cfg):
        unit = make_unit("onslicing", variant="nb", cfg=tiny_cfg,
                         epochs=2, episodes_per_epoch=1,
                         offline_episodes=1, exploration_episodes=1,
                         test_episodes=0)
        result = execute_unit(unit)
        assert result.method == "OnSlicing"
        assert len(result.trajectory) == 2

    def test_unknown_method_rejected(self):
        unit = ExperimentUnit(method="teleport")
        with pytest.raises(ValueError):
            execute_unit(unit)


class TestCli:
    def test_run_arguments(self):
        args = build_parser().parse_args(
            ["run", "table1", "fig13", "--workers", "4",
             "--scale", "0.05", "--no-cache", "--json"])
        assert args.command == "run"
        assert args.artefacts == ["table1", "fig13"]
        assert parse_workers(args.workers) == 4
        assert args.scale == 0.05
        assert args.no_cache and args.as_json
        assert args.cache_dir == ".repro_cache"

    def test_every_leaf_command_names_its_handler(self):
        """argparse's own dispatch: each leaf parser carries a
        callable ``handler`` default, so ``main`` needs no chain of
        command-name comparisons -- and a command that was deleted
        (``obs compare``) is argparse's exit 2, not a fallthrough."""
        import argparse

        from repro.runtime.cli import main

        def leaves(parser, prefix=()):
            nested = [action for action in parser._actions
                      if isinstance(action,
                                    argparse._SubParsersAction)]
            if not nested:
                yield prefix, parser
            for action in nested:
                for name, child in action.choices.items():
                    yield from leaves(child, prefix + (name,))

        found = dict(leaves(build_parser()))
        assert {("list",), ("obs", "watch"), ("fleet", "report"),
                ("fuzz", "shrink")} <= set(found)
        for command, parser in found.items():
            assert callable(parser.get_default("handler")), command
        with pytest.raises(SystemExit) as excinfo:
            main(["obs", "compare"])
        assert excinfo.value.code == 2

    def test_workers_auto_and_validation(self):
        assert parse_workers("auto") >= 1
        with pytest.raises(SystemExit):
            parse_workers("0")
        with pytest.raises(SystemExit):
            parse_workers("many")

    def test_resolve_artefacts(self):
        from repro.runtime.cli import ARTEFACTS

        assert resolve_artefacts(["all"]) == list(ARTEFACTS)
        assert resolve_artefacts(["fig6"]) == ["fig6"]
        with pytest.raises(SystemExit):
            resolve_artefacts(["fig99"])

    def test_list_and_cache_commands(self, tmp_path, capsys):
        from repro.runtime.cli import main

        assert main(["list"]) == 0
        assert "table1" in capsys.readouterr().out
        cache_dir = str(tmp_path / "cache")
        assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0

    def test_run_end_to_end_fig6(self, tmp_path, capsys):
        """`python -m repro run fig6` twice: second run is all hits."""
        from repro.runtime.cli import main

        cache_dir = str(tmp_path / "cache")
        argv = ["run", "fig6", "--cache-dir", cache_dir]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "fig6" in out and "1 executed" in out
        assert main(argv) == 0
        assert "1 cached, 0 executed" in capsys.readouterr().out
