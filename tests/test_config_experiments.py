"""Tests: configuration integrity and cheap experiment generators."""

import dataclasses
import json

import numpy as np
import pytest

from repro import scenarios
from repro.config import (
    ACTION_NAMES,
    NUM_ACTIONS,
    USAGE_ACTION_INDICES,
    CoreConfig,
    EdgeConfig,
    ExperimentConfig,
    NetworkConfig,
    RANConfig,
    SliceSpec,
    SliceSLA,
    TrafficConfig,
    TransportConfig,
    action_index,
    default_slice_specs,
    hvs_slice_spec,
    lte_ran_config,
    nr_ran_config,
    usage_from_action,
)
from repro.experiments.metrics import (
    MethodResult,
    TrajectoryPoint,
    cdf,
    online_phase_summary,
    usage_percent,
)
from repro.runtime.serialization import from_jsonable, to_jsonable


class TestConfig:
    def test_action_space_matches_paper(self):
        """Ten dimensions: U_u U_m U_a U_d U_s U_g U_b U_l U_c U_r."""
        assert NUM_ACTIONS == 10
        assert ACTION_NAMES[0] == "uplink_bandwidth"
        assert ACTION_NAMES[-1] == "ram_allocation"

    def test_usage_counts_six_resources(self):
        """Eq. 9: U_u + U_d + U_b + U_l + U_c + U_r only."""
        assert len(USAGE_ACTION_INDICES) == 6
        assert action_index("uplink_mcs_offset") not in \
            USAGE_ACTION_INDICES
        assert action_index("uplink_scheduler") not in \
            USAGE_ACTION_INDICES

    def test_usage_from_action(self):
        action = np.zeros(NUM_ACTIONS)
        for idx in USAGE_ACTION_INDICES:
            action[idx] = 0.6
        assert usage_from_action(action) == pytest.approx(0.6)
        with pytest.raises(ValueError):
            usage_from_action(np.zeros(3))

    def test_unknown_action_name(self):
        with pytest.raises(KeyError):
            action_index("flux_capacitor")

    def test_default_slices_match_paper(self):
        specs = default_slice_specs()
        by_name = {s.name: s for s in specs}
        assert by_name["MAR"].sla.target == 500.0
        assert by_name["MAR"].sla.lower_is_better
        assert by_name["HVS"].sla.target == 30.0
        assert by_name["RDC"].sla.target == pytest.approx(0.99999)
        assert by_name["MAR"].max_arrival_rate == 5.0
        assert by_name["HVS"].max_arrival_rate == 2.0
        assert by_name["RDC"].max_arrival_rate == 100.0

    def test_slice_spec_validation(self):
        with pytest.raises(ValueError):
            SliceSpec(name="X", app="nope",
                      sla=SliceSLA("fps", 30.0), max_arrival_rate=1.0)
        with pytest.raises(ValueError):
            SliceSpec(name="X", app="mar",
                      sla=SliceSLA("fps", 30.0), max_arrival_rate=0.0)

    def test_sla_episode_verdict_is_strict(self):
        """Mean cost *above* C_max violates; sitting on it does not
        (the comparison every harness, loadgen and figure site used
        to spell out)."""
        sla = SliceSLA("fps", 30.0, cost_threshold=0.05)
        assert sla.violated(0.05 + 1e-12)
        assert not sla.violated(0.05)
        assert not sla.violated(0.0)

    @pytest.mark.parametrize("field, value", [
        ("target", 0.0), ("target", -30.0), ("target", float("nan")),
        ("target", float("inf")), ("cost_threshold", 0.0),
        ("cost_threshold", -0.05), ("cost_threshold", float("nan"))])
    def test_degenerate_sla_is_refused(self, field, value):
        """A zero or NaN target made every cost of the slice NaN, and
        a zero C_max an infinite budget feature, without a word; both
        are refused where they are written, a tagged-JSON spec
        included."""
        sla = dict(target=30.0, cost_threshold=0.05)
        with pytest.raises(ValueError, match=f"SliceSLA.{field} must"):
            SliceSLA("fps", **{**sla, field: value})
        tagged = to_jsonable(hvs_slice_spec())
        tagged["fields"]["sla"]["fields"][field] = value
        with pytest.raises(ValueError, match=f"SliceSLA.{field} must"):
            from_jsonable(json.loads(json.dumps(tagged)))

    def test_degenerate_network_counts_are_refused(self):
        """No path failed at the first step with a bare IndexError
        from the kernel, and no SGW-U costed every latency slice 1.0
        behind a divide-by-zero warning; both are refused at
        construction, naming the field."""
        with pytest.raises(ValueError,
                           match="TransportConfig.num_paths must be >= 1"):
            TransportConfig(num_paths=0, path_extra_hops=())
        with pytest.raises(
                ValueError,
                match="CoreConfig.num_sgwu_per_slice must be >= 1"):
            CoreConfig(num_sgwu_per_slice=0)
        tagged = to_jsonable(CoreConfig())
        tagged["fields"]["num_sgwu_per_slice"] = -1
        with pytest.raises(ValueError, match="num_sgwu_per_slice"):
            from_jsonable(json.loads(json.dumps(tagged)))
        # a dead link, an idle edge and the testbed's radios stay legal
        assert TransportConfig(link_capacity_bps=0.0).num_paths == 3
        assert EdgeConfig(compute_capacity_ups=0.0).total_ram_gb > 0
        assert EdgeConfig(total_ram_gb=0.0).total_ram_gb == 0.0
        assert RANConfig(overhead=0.0).overhead == 0.0
        assert nr_ran_config().uplink_fraction == 0.43
        # the default and NR TDD splits fill at most one frame; a
        # stalled SGW-U and a zero-hop-latency switch stay legal
        assert RANConfig().downlink_fraction == 0.6
        assert nr_ran_config().downlink_fraction == 0.54
        assert CoreConfig(sgwu_capacity_pps=0.0).base_latency_ms == 2.0
        assert TransportConfig(hop_latency_ms=0.0).num_paths == 3
        assert TransportConfig(num_paths=1,
                               path_extra_hops=(0,)).num_paths == 1

    @pytest.mark.parametrize("config, field, value", [
        (RANConfig, "uplink_fraction", 0.0),
        (RANConfig, "uplink_fraction", 1.0),
        (RANConfig, "uplink_fraction", 5.0),
        (RANConfig, "uplink_fraction", float("nan")),
        (RANConfig, "overhead", -0.1),
        (RANConfig, "overhead", 1.0),
        (RANConfig, "overhead", 1.5),
        (RANConfig, "downlink_fraction", 1.0),
        (RANConfig, "downlink_fraction", float("nan")),
        (RANConfig, "uplink_fraction", 0.9),      # 0.6 + 0.9 > 1
        (RANConfig, "prb_bandwidth_hz", -180e3),
        (RANConfig, "prb_bandwidth_hz", 0.0),
        (RANConfig, "prb_bandwidth_hz", float("inf")),
        (RANConfig, "base_latency_ms", -20.0),
        (CoreConfig, "sgwu_capacity_pps", -2e5),
        (CoreConfig, "sgwu_capacity_pps", float("nan")),
        (CoreConfig, "mean_packet_bits", -12e3),
        (CoreConfig, "mean_packet_bits", 0.0),
        (CoreConfig, "base_latency_ms", -50.0),
        (TransportConfig, "hop_latency_ms", -0.5),
        (TransportConfig, "path_extra_hops", (0, -1, 2)),
        (TransportConfig, "path_extra_hops", (0.5, 1.7, 2.9)),
        (TransportConfig, "path_extra_hops", (0, 1.0, 2)),
        (TransportConfig, "path_extra_hops", (0, float("nan"), 2)),
        (TransportConfig, "link_capacity_bps", -1e9),
        (TransportConfig, "link_capacity_bps", float("inf")),
        (EdgeConfig, "total_ram_gb", -4.0),
        (EdgeConfig, "total_ram_gb", float("nan")),
        (EdgeConfig, "compute_capacity_ups", -1.0),
        (NetworkConfig, "users_per_slice", 0),
        (NetworkConfig, "users_per_slice", -2),
    ])
    def test_degenerate_network_quantities_are_refused(self, config,
                                                       field, value):
        """A negative capacity, an overhead of 100 % or more or a
        UL duty outside (0, 1) used to reach the kernels and price a
        dead or impossible slice as a satisfied one; a slice without
        users failed only when a slice was attached.  So did a TDD
        split over one frame (more airtime than the cell has), a
        negative PRB bandwidth (negative capacities, an RDC
        reliability far above 1 at cost 0), a negative latency, hop
        count or SGW-U capacity, and a packet size <= 0.  A fractional
        hop count was read two ways (the kernels truncate it, the ping
        delay does not) and is refused too.  Each is
        refused at construction, naming the field, and through the
        tagged-JSON decoder too."""
        match = f"{config.__name__}.{field} must"
        with pytest.raises(ValueError, match=match):
            config(**{field: value})
        tagged = to_jsonable(config())
        tagged["fields"][field] = value
        with pytest.raises(ValueError, match=match):
            from_jsonable(tagged)

    @pytest.mark.parametrize("slots", [0, -3])
    def test_zero_horizon_is_refused_at_construction(self, slots):
        """A world with no slot fails where it is configured, naming
        the field, not at its first reset."""
        with pytest.raises(ValueError, match="slots_per_episode must be "
                                             f">= 1, got {slots}"):
            TrafficConfig(slots_per_episode=slots)
        with pytest.raises(ValueError, match="slots_per_episode"):
            dataclasses.replace(scenarios.get("default").build_config()
                                .traffic, slots_per_episode=slots)
        assert TrafficConfig(slots_per_episode=1).slots_per_episode == 1

    def test_ran_configs(self):
        lte = lte_ran_config()
        nr = nr_ran_config()
        assert lte.num_prbs == 100 and nr.num_prbs == 106
        assert nr.prb_bandwidth_hz == 360e3  # 30 kHz SCS
        with pytest.raises(ValueError):
            RANConfig(technology="7g")

    def test_experiment_replace(self):
        cfg = ExperimentConfig()
        new = cfg.replace(seed=99)
        assert new.seed == 99 and cfg.seed == 7

    def test_scenarios(self):
        def cfg(name):
            return scenarios.get(name).build_config()

        assert cfg("default").network.ran.technology == "lte"
        assert cfg("lte_fixed_mcs").network.ran.fixed_mcs == 9
        assert cfg("nr_fixed_mcs").network.ran.technology == "nr"
        assert cfg("short_horizon").traffic.slots_per_episode == 12


class TestMetrics:
    def test_percent_helpers(self):
        assert usage_percent(0.2) == pytest.approx(20.0)

    def test_cdf_properties(self):
        out = cdf([3.0, 1.0, 2.0])
        np.testing.assert_array_equal(out["x"], [1.0, 2.0, 3.0])
        assert out["p"][-1] == 1.0
        with pytest.raises(ValueError):
            cdf([])

    def test_online_phase_summary(self):
        traj = [TrajectoryPoint(epoch=i, mean_usage=0.2,
                                mean_cost=0.01, violation_rate=0.1,
                                mean_interactions=2.0)
                for i in range(3)]
        summary = online_phase_summary(traj)
        assert summary["avg_res_usage_pct"] == pytest.approx(20.0)
        assert summary["avg_sla_violation_pct"] == pytest.approx(10.0)
        assert summary["mean_interactions"] == 2.0
        with pytest.raises(ValueError):
            online_phase_summary([])

    def test_method_result_row(self):
        result = MethodResult("X", 20.123, 0.456)
        row = result.row()
        assert row["avg_res_usage_pct"] == 20.12
        assert row["method"] == "X"


class TestCheapFigures:
    """The figure generators that run in milliseconds are exercised in
    the unit suite; the learning-based ones are covered by benchmarks."""

    def test_fig6_shape(self):
        from repro.experiments.figures import fig6

        series = fig6()
        assert len(series["offset"]) == 11
        assert series["uplink"][0] > series["uplink"][-1]

    def test_fig5_isolation(self):
        from repro.experiments.figures import fig5

        series = fig5()
        total_dl = sum(series[f"Slice {i}"]["dl_mbps"]
                       for i in (1, 2, 3))
        assert total_dl <= series["Vanilla"]["dl_mbps"] * 1.05

    def test_fig16_ordering(self):
        from repro.experiments.figures import fig16

        series = fig16(samples=50)
        assert series["NR_mean_ms"] < series["LTE_mean_ms"]
