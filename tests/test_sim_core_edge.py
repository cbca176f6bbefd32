"""Unit tests: container runtime, CUPS core network and edge server
lifecycle; the SPGW-U and edge processor models' properties are read
off the kernels (``tests/kernel_probe.py``)."""

import numpy as np
import pytest

from kernel_probe import probe
from repro.config import CoreConfig, EdgeConfig, mar_slice_spec
from repro.sim.containers import ContainerRuntime
from repro.sim.core_network import CoreNetwork
from repro.sim.edge import EdgeServerPool


class TestContainerRuntime:
    def test_run_and_get(self):
        rt = ContainerRuntime(8.0, 32.0)
        rt.run("app", "image", cpu_share=0.5, ram_gb=4.0)
        assert "app" in rt
        assert rt.get("app").cpu_share == 0.5

    def test_duplicate_name_rejected(self):
        rt = ContainerRuntime(8.0, 32.0)
        rt.run("app", "image")
        with pytest.raises(ValueError):
            rt.run("app", "image")

    def test_update(self):
        rt = ContainerRuntime(8.0, 32.0)
        rt.run("app", "image", cpu_share=0.1)
        rt.update("app", cpu_share=0.7, ram_gb=2.0)
        assert rt.get("app").cpu_share == 0.7
        assert rt.get("app").ram_gb == 2.0

    def test_update_missing(self):
        rt = ContainerRuntime(8.0, 32.0)
        with pytest.raises(KeyError):
            rt.update("ghost", cpu_share=0.1)

    def test_negative_update_rejected(self):
        rt = ContainerRuntime(8.0, 32.0)
        rt.run("app", "image")
        with pytest.raises(ValueError):
            rt.update("app", cpu_share=-0.1)

    def test_accounting(self):
        rt = ContainerRuntime(8.0, 32.0)
        rt.run("a", "i", cpu_share=0.6, ram_gb=16.0)
        rt.run("b", "i", cpu_share=0.5, ram_gb=20.0)
        assert rt.allocated_cpu_share == pytest.approx(1.1)
        assert rt.cpu_overcommitted()
        assert rt.ram_overcommitted()
        rt.stop("b")
        assert not rt.cpu_overcommitted()

    def test_remove(self):
        rt = ContainerRuntime(8.0, 32.0)
        rt.run("a", "i")
        rt.remove("a")
        assert "a" not in rt
        with pytest.raises(KeyError):
            rt.remove("a")

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ContainerRuntime(0.0, 32.0)


class TestCoreNetwork:
    def _core(self):
        core = CoreNetwork(CoreConfig())
        core.create_slice_pool("MAR")
        return core

    def test_control_plane_vnfs_exist(self):
        core = CoreNetwork()
        for vnf in ("hss", "mme", "spgw-c"):
            assert vnf in core.runtime

    def test_pool_creation(self):
        core = self._core()
        pool = core.pool("MAR")
        assert len(pool) == CoreConfig().num_sgwu_per_slice
        for name in pool:
            assert name in core.runtime

    def test_duplicate_pool_rejected(self):
        core = self._core()
        with pytest.raises(ValueError):
            core.create_slice_pool("MAR")

    def test_round_robin_attachment(self):
        core = self._core()
        for i in range(4):
            core.hss.provision(f"imsi{i}", "MAR")
        sgwus = [core.attach(f"imsi{i}").sgwu_name for i in range(4)]
        # strict alternation over the 2-instance pool
        assert sgwus[0] == sgwus[2] and sgwus[1] == sgwus[3]
        assert sgwus[0] != sgwus[1]

    def test_attach_unknown_imsi(self):
        core = self._core()
        with pytest.raises(KeyError):
            core.attach("nobody")

    def test_double_attach_rejected(self):
        core = self._core()
        core.hss.provision("x", "MAR")
        core.attach("x")
        with pytest.raises(ValueError):
            core.attach("x")

    def test_detach(self):
        core = self._core()
        core.hss.provision("x", "MAR")
        core.attach("x")
        core.detach("x")
        assert core.sessions_of("MAR") == []

    def test_delete_pool_removes_sessions(self):
        core = self._core()
        core.hss.provision("x", "MAR")
        core.attach("x")
        core.delete_slice_pool("MAR")
        assert core.sessions_of("MAR") == []
        with pytest.raises(KeyError):
            core.pool("MAR")

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

    def test_hss_duplicate_provision(self):
        core = self._core()
        core.hss.provision("x", "MAR")
        with pytest.raises(ValueError):
            core.hss.provision("x", "MAR")

    def test_hss_deprovision(self):
        core = self._core()
        core.hss.provision("x", "MAR")
        core.hss.deprovision("x")
        assert len(core.hss) == 0
        with pytest.raises(KeyError, match="unknown IMSI x"):
            core.hss.deprovision("x")


class TestEdge:
    def _pool(self):
        pool = EdgeServerPool(EdgeConfig())
        pool.create_server("MAR")
        return pool

    def test_create_duplicate_rejected(self):
        pool = self._pool()
        with pytest.raises(ValueError):
            pool.create_server("MAR")

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

    def test_delete_server(self):
        pool = self._pool()
        assert "MAR" in pool
        pool.delete_server("MAR")
        assert "MAR" not in pool
        with pytest.raises(KeyError):
            pool.set_resources("MAR", 0.5, 0.5)

    def test_shared_runtime_accounting(self):
        """Core and edge co-located on one host share its capacity."""
        runtime = ContainerRuntime(8.0, 32.0)
        core = CoreNetwork(CoreConfig(), runtime=runtime)
        edge = EdgeServerPool(EdgeConfig(), runtime=runtime)
        core.create_slice_pool("MAR")
        edge.create_server("MAR")
        core.set_slice_resources("MAR", 0.4, 8.0)
        edge.set_resources("MAR", 0.4, 0.25)
        assert runtime.allocated_cpu_share > 0.7
