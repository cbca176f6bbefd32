"""Unit tests: the SPGW-U and edge processor models' properties,
read off the kernels (``tests/kernel_probe.py``)."""

import numpy as np
import pytest

from kernel_probe import probe
from repro.config import CoreConfig, EdgeConfig, mar_slice_spec


class TestCoreNetwork:
    def test_evaluate_latency_grows_with_load(self):
        """M/M/1 over the pool: latency rises with the offered packet
        rate, falls with the CPU share, and never undercuts the
        control-plane base latency."""
        spec = mar_slice_spec()
        per_request = spec.uplink_payload_bits + spec.downlink_payload_bits
        light, heavy = (
            probe(spec, rate=offered_bps / per_request,
                  cpu_allocation=0.5)["core_latency_ms"]
            for offered_bps in (1e6, 8e8))
        assert heavy > light > CoreConfig().base_latency_ms
        assert probe(spec, rate=8e8 / per_request,
                     cpu_allocation=1.0)["core_latency_ms"] < heavy

    def test_evaluate_zero_cpu_infinite(self):
        """No service rate (the decode floor keeps a CPU share above
        zero, so: SPGW-Us that process nothing) with work offered."""
        stalled = dict(core=CoreConfig(sgwu_capacity_pps=0.0))
        out = probe(mar_slice_spec(), rate=1.0, net_cfg=stalled)
        assert out["core_latency_ms"] == float("inf")


class TestEdge:
    @staticmethod
    def _latency(rate, cpu, ram, **kwargs):
        return probe(mar_slice_spec(), rate=rate, cpu_allocation=cpu,
                     ram_allocation=ram, **kwargs)["edge_latency_ms"]

    def test_latency_decreases_with_cpu(self):
        slow = self._latency(5.0, cpu=0.2, ram=0.5)
        fast = self._latency(5.0, cpu=0.8, ram=0.5)
        assert fast < slow

    def test_ram_thrashing_penalty(self):
        """40 requests/s want 10 of the 32 GB.  Half of that halves the
        service rate; the penalty bottoms out at a tenth (1 GB, share
        1/32), so starving RAM further changes nothing."""
        healthy = self._latency(40.0, cpu=1.0, ram=0.5)
        halved = self._latency(40.0, cpu=1.0, ram=5.0 / 32.0)
        at_floor = self._latency(40.0, cpu=1.0, ram=1.0 / 32.0)
        starved = self._latency(40.0, cpu=1.0, ram=0.01)
        assert healthy < halved < at_floor == starved < np.inf
        # the floor is a tenth of the service rate, RAM no object
        assert at_floor == pytest.approx(
            self._latency(40.0, cpu=0.1, ram=0.5))

    def test_zero_cpu_infinite_latency(self):
        """No service rate (the decode floor keeps a CPU share above
        zero, so: a server that computes nothing): infinite with work
        offered, zero with none."""
        idle = dict(edge=EdgeConfig(compute_capacity_ups=0.0))
        assert self._latency(1.0, 0.5, 0.5, net_cfg=idle) == float("inf")
        assert self._latency(0.0, 0.5, 0.5, net_cfg=idle) == 0.0
