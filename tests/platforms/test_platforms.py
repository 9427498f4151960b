"""GPU platform tests (SIMD / TC / SMA)."""

import dataclasses
import sys
import threading

import pytest

from repro.api.registry import available_models, build_model, build_platform
from repro.config import system_gpu_simd
from repro.dnn.graph import LayerGraph
from repro.dnn.ops import Conv2d, RegionProposal, Relu
from repro.dnn.tensor import nchw
from repro.dnn.zoo import build_alexnet
from repro.energy.accounting import EnergyLedger
from repro.gemm.cache import CacheEntries, CacheStats, TimingCache
from repro.platforms import GpuSimdPlatform, GpuSmaPlatform, GpuTcPlatform
from repro.platforms.base import GpuPlatformBase, OpStats, reporting_group


@pytest.fixture(scope="module")
def simd():
    return GpuSimdPlatform(framework_overhead_s=0.0)


@pytest.fixture(scope="module")
def tc():
    return GpuTcPlatform(framework_overhead_s=0.0)


@pytest.fixture(scope="module")
def sma3():
    return GpuSmaPlatform(3, framework_overhead_s=0.0)


def _conv():
    return Conv2d.build("c", 64, 128, 56, 56, kernel=3, padding=1)


class TestOpDispatch:
    def test_conv_runs_as_gemm(self, simd, tc, sma3):
        assert simd.run_op(_conv()).mode == "gemm-simd"
        assert tc.run_op(_conv()).mode == "gemm-tc"
        assert sma3.run_op(_conv()).mode == "gemm-sma"

    def test_irregular_runs_simd_everywhere(self, simd, tc, sma3):
        nms = RegionProposal.build("rp", nchw(1, 256, 50, 64))
        for platform in (simd, tc, sma3):
            assert platform.run_op(nms).mode == "simd"

    def test_conv_speed_ordering(self, simd, tc, sma3):
        conv = _conv()
        t_simd = simd.run_op(conv).seconds
        t_tc = tc.run_op(conv).seconds
        t_sma = sma3.run_op(conv).seconds
        assert t_sma < t_tc < t_simd

    def test_irregular_same_speed_everywhere(self, simd, sma3):
        nms = RegionProposal.build("rp", nchw(1, 256, 50, 64))
        t_simd = simd.run_op(nms).seconds
        t_sma = sma3.run_op(nms).seconds
        assert t_sma == pytest.approx(t_simd, rel=0.01)

    def test_energy_attached(self, sma3):
        stats = sma3.run_op(_conv())
        assert stats.energy is not None
        assert stats.energy.total > 0


class TestModelRun:
    def test_alexnet_totals(self, sma3):
        result = sma3.run_model(build_alexnet())
        assert result.total_seconds > 0
        assert len(result.op_stats) == len(build_alexnet())

    def test_grouped_seconds_partition(self, simd):
        result = simd.run_model(build_alexnet())
        groups = result.grouped_seconds()
        assert sum(groups.values()) == pytest.approx(result.total_seconds)

    def test_framework_overhead_added_per_launch(self):
        with_overhead = GpuSimdPlatform(framework_overhead_s=1e-3)
        zero = GpuSimdPlatform(framework_overhead_s=0.0)
        graph = build_alexnet()
        delta = (
            with_overhead.run_model(graph).total_seconds
            - zero.run_model(graph).total_seconds
        )
        launches = sum(node.op.kernel_launches for node in graph.nodes)
        assert delta == pytest.approx(launches * 1e-3, rel=0.05)


class TestSmaModeSwitching:
    """Each SIMD <-> systolic flip of the MAC substrate costs 8 cycles."""

    @staticmethod
    def _switch_s(platform):
        assert platform.system.sma.reconfiguration_cycles == 8
        return 8 / (platform.gpu.clock_ghz * 1e9)

    def test_each_flip_pays_the_reconfiguration(self):
        platform = build_platform("sma:3")
        conv = _conv()
        relu = Relu.build("r", conv.output_shape)
        ops = [conv, conv, relu, relu, conv]
        charged = [platform.run_op(op).seconds for op in ops]
        plain = [GpuPlatformBase.run_op(platform, op).seconds for op in ops]
        switch_s = self._switch_s(platform)
        # A fresh platform starts in SIMD mode: ops 1, 3 and 5 flip it.
        assert charged == [
            plain[0] + switch_s,
            plain[1],
            plain[2] + switch_s,
            plain[3],
            plain[4] + switch_s,
        ]
        assert platform.mode == "systolic"

    def test_reset_returns_to_simd(self):
        platform = build_platform("sma:3")
        conv = _conv()
        first = platform.run_op(conv).seconds
        assert platform.run_op(conv).seconds < first
        platform.reset_schedule_state()
        assert platform.mode == "simd"
        assert platform.run_op(conv).seconds == first

    def test_switch_overhead_negligible(self):
        """The temporal-integration claim: switching is ~free."""
        platform = build_platform("sma:3", framework_overhead_s=0.0)
        graph = build_alexnet()
        tasks = platform.lower_model(graph)
        surcharges = [
            task.seconds - GpuPlatformBase.run_op(platform, node.op).seconds
            for task, node in zip(tasks, graph.topological_order())
        ]
        flips = [surcharge for surcharge in surcharges if surcharge]
        assert flips
        assert flips == pytest.approx([self._switch_s(platform)] * len(flips))
        total = sum(task.seconds for task in tasks)
        assert sum(surcharges) < 0.001 * total


class TestReportingGroups:
    def test_group_mapping(self):
        assert reporting_group(_conv()) == "CNN&FC"
        nms = RegionProposal.build("rp", nchw(1, 1, 8, 8))
        assert reporting_group(nms) == "NMS"


@pytest.fixture(scope="module")
def irregular_ops():
    """Every distinct non-GEMM operator of the registered models."""
    ops = {}
    for name in available_models():
        for node in build_model(name).topological_order():
            if node.op.gemm_dims() is None:
                ops.setdefault(node.op, None)
    return list(ops)


def _fresh_pricing(platform, op):
    return OpStats(
        op.name, reporting_group(op), "simd", platform._simd_op_seconds(op),
        op.flops, platform._simd_op_energy(op),
    )


def _count_pricings(monkeypatch):
    priced = []
    price = GpuPlatformBase._simd_op_seconds

    def counting(platform, op):
        priced.append(op)
        return price(platform, op)

    monkeypatch.setattr(GpuPlatformBase, "_simd_op_seconds", counting)
    return priced


def _graph(ops):
    graph = LayerGraph("irregular")
    for op in ops:
        graph.add(op)
    return graph


class TestGemmEnergy:
    """Each GEMM timing's energy is accounted once per platform."""

    @pytest.mark.parametrize("spec", ["gpu-simd", "gpu-tc", "sma:3"])
    def test_energy_equals_a_fresh_account(self, spec):
        platform = build_platform(spec, cache=TimingCache())
        fresh = EnergyLedger(platform.gpu)
        time_gemm = platform.executor.time_gemm
        gemms = [
            node.op
            for node in build_alexnet().topological_order()
            if node.op.gemm_dims() is not None
        ]
        expected = []

        def served(problem):
            timing = time_gemm(problem)
            expected.append(fresh.account(timing.counters))
            return timing

        platform.executor.time_gemm = served
        for op in gemms * 2:  # the second pass reads accounted energies
            assert platform.run_op(op).energy == expected[-1]

        def fresh_copy(problem):
            # A new timing per call, with other counters, that nothing
            # else holds: a memo that did not keep its timings alive
            # would see a dead timing's id reused by a later one.
            timing = time_gemm(problem)
            counters = timing.counters.scaled(1.0 + len(expected))
            expected.append(fresh.account(counters))
            return dataclasses.replace(timing, counters=counters)

        platform.executor.time_gemm = fresh_copy
        for op in gemms * 2:
            assert platform.run_op(op).energy == expected[-1]


class TestOpTable:
    """Each non-GEMM operator is priced once per TimingCache and GPU."""

    def test_entries_equal_a_fresh_pricing(self, irregular_ops):
        cache = TimingCache()
        volta = system_gpu_simd()
        slow_dram = dataclasses.replace(
            volta, gpu=dataclasses.replace(volta.gpu, dram_bandwidth_gbps=300.0)
        )
        platforms = [
            build_platform(spec, cache=cache)
            for spec in ("gpu-simd", "gpu-tc", "sma:3")
        ] + [GpuSimdPlatform(system=slow_dram, cache=cache)]
        for platform in platforms:
            for op in irregular_ops:
                platform.run_irregular(op)
        for platform in platforms:
            for op in irregular_ops:
                assert platform.run_irregular(op) == _fresh_pricing(platform, op)
        # Platforms on one GPU share the priced stats.
        op = irregular_ops[0]
        assert platforms[0].run_irregular(op) is platforms[2].run_irregular(op)

    def test_table_is_neither_counted_nor_shipped(self, irregular_ops, monkeypatch):
        priced = _count_pricings(monkeypatch)
        cache = TimingCache()
        platform = GpuSimdPlatform(cache=cache)
        graph = _graph(irregular_ops[:40])
        for _ in range(2):
            platform.lower_model(graph)
            assert cache.stats() == CacheStats()
            assert len(cache) == 0
            assert cache.export_entries() == CacheEntries({}, {})
            assert TimingCache().merge(cache) == 0
        assert len(priced) == 40

    def test_clear_and_a_fresh_cache_price_again(self, irregular_ops, monkeypatch):
        priced = _count_pricings(monkeypatch)
        cache = TimingCache()
        graph = _graph(irregular_ops[:40])
        platform = GpuSimdPlatform(cache=cache)
        platform.lower_model(graph)
        GpuTcPlatform(cache=cache).lower_model(graph)
        assert len(priced) == 40
        cache.clear()
        platform.lower_model(graph)
        assert len(priced) == 80
        GpuSimdPlatform(cache=TimingCache()).lower_model(graph)
        assert len(priced) == 120

    def test_threads_sharing_a_cache_read_fresh_pricings(self, irregular_ops):
        # Entries are read and written without the lock; racing threads
        # may price one op twice, but every reader gets equal stats.
        cache = TimingCache()
        ops = irregular_ops[:200]
        results = {}

        def lower(worker):
            platform = GpuSimdPlatform(cache=cache)
            results[worker] = [platform.run_irregular(op) for op in ops]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lower, args=(w,)) for w in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        fresh = GpuSimdPlatform(cache=TimingCache())
        expected = [_fresh_pricing(fresh, op) for op in ops]
        assert [results[worker] for worker in range(8)] == [expected] * 8
