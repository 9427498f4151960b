"""SM pipeline tests with hand-built micro-traces."""

import dataclasses
import math
import re

import pytest

from repro.common.stats import CounterBag
from repro.config import GpuConfig
from repro.errors import SimulationError
from repro.gemm.problem import GemmProblem
from repro.gemm.tiling import plan_gemm
from repro.gemm.traces import (
    SIMD_K_SLICE,
    TC_K_SLICE,
    build_simd_gemm_kernel,
    build_tc_gemm_kernel,
)
from repro.gpu import scheduler as scheduler_module
from repro.gpu import sm as sm_module
from repro.gpu.sm import (
    KernelSpec,
    LsmaEngine,
    LsmaIssue,
    StreamingMultiprocessor,
    ThroughputResource,
)
from repro.isa.instructions import MemSpace, coalesced_access, strided_access
from repro.isa.program import ProgramBuilder, WarpProgram
from tests.gpu import reference_sm
from tests.gpu.reference_sm import fingerprint, run_reference
from tests.gpu.test_sm_reference_parity import _DrawnEngine


@pytest.fixture(scope="module")
def sm():
    return StreamingMultiprocessor(GpuConfig())


def _single_warp(program):
    return KernelSpec(name="t", programs=[program])


class TestThroughputResource:
    def test_accept_advances_free_time(self):
        res = ThroughputResource("x")
        done = res.accept(0.0, 2.0)
        assert done == 2.0
        assert res.accept(0.0, 1.0) == 3.0  # queues behind

    def test_backpressure(self):
        res = ThroughputResource("x", queue_depth=2.0)
        res.accept(0.0, 3.0)
        assert not res.can_accept(0.0, 1.0)
        assert res.can_accept(3.0, 1.0)

    def test_admits_from_the_queue_edge(self):
        res = ThroughputResource("x", queue_depth=2.0)
        res.accept(0.0, 3.0)
        assert res.admits_from() == 1.0
        assert not res.can_accept(0.0, 1.0)
        assert res.can_accept(1.0, 1.0)

    def test_utilization(self):
        res = ThroughputResource("x")
        res.accept(0.0, 5.0)
        assert res.utilization(10.0) == pytest.approx(0.5)


class TestBasicExecution:
    def test_empty_arithmetic_chain(self, sm):
        builder = ProgramBuilder("chain")
        builder.mov(1, 0)
        for _ in range(10):
            builder.ffma(2, 1, 1, 2)
        builder.exit()
        result = sm.run(_single_warp(builder.build()))
        assert result.cycles > 10  # dependent chain: ~4 cycles each
        assert result.counters.get("fp32_macs") == 320

    def test_independent_ffmas_pipeline(self, sm):
        builder = ProgramBuilder("ilp")
        for reg in range(10, 40):
            builder.ffma(reg, 1, 2, reg)
        builder.exit()
        dependent = ProgramBuilder("dep")
        for _ in range(30):
            dependent.ffma(10, 1, 2, 10)
        dependent.exit()
        fast = sm.run(_single_warp(builder.build()))
        slow = sm.run(_single_warp(dependent.build()))
        assert fast.cycles < slow.cycles

    def test_barrier_joins_warps(self, sm):
        # Warp 0 computes a long chain; warp 1 arrives at the barrier early.
        w0 = ProgramBuilder("w0")
        for _ in range(50):
            w0.ffma(1, 1, 1, 1)
        w0.bar()
        w0.exit()
        w1 = ProgramBuilder("w1").bar().exit()
        spec = KernelSpec(name="bar", programs=[w0.build(), w1.build()])
        result = sm.run(spec)
        # Both must have passed the barrier: cycles bounded by w0's chain.
        assert result.cycles >= 50
        assert result.counters.get("sync_ops") == 2

    def test_shared_memory_conflict_slows_lsu(self, sm):
        conflict_free = ProgramBuilder("cf")
        conflicted = ProgramBuilder("cx")
        for i in range(32):
            conflict_free.lds(
                100 + i, coalesced_access(MemSpace.SHARED, i * 128), 1
            )
            conflicted.lds(
                200 + i,
                strided_access(MemSpace.SHARED, i * 128, stride_bytes=128),
                1,
            )
        conflict_free.exit()
        conflicted.exit()
        fast = sm.run(_single_warp(conflict_free.build()))
        slow = sm.run(_single_warp(conflicted.build()))
        assert slow.cycles > 2 * fast.cycles

    def test_counters_track_smem_words(self, sm):
        builder = ProgramBuilder("w")
        builder.lds(5, coalesced_access(MemSpace.SHARED, 0), 1)
        builder.exit()
        result = sm.run(_single_warp(builder.build()))
        assert result.counters.get("smem_read_words") == 32

    def test_too_many_warps_rejected(self, sm):
        program = ProgramBuilder("x").exit().build()
        spec = KernelSpec(name="big", programs=[program] * 65)
        with pytest.raises(SimulationError):
            sm.run(spec)

    def test_group_validation(self):
        program = ProgramBuilder("x").exit().build()
        with pytest.raises(SimulationError):
            KernelSpec(
                name="bad", programs=[program], groups={0: frozenset({3})}
            )

    def test_empty_warp_program_rejected(self):
        program = ProgramBuilder("x").exit().build()
        with pytest.raises(
            SimulationError, match=r"warp 1 \('idle'\) has no instructions"
        ):
            KernelSpec(name="empty", programs=[program, WarpProgram("idle")])


class TestCycleLimit:
    def test_skipped_wait_still_stops_at_max_cycles(self):
        # The FFMA waits 400 cycles on the load: one skip, clamped so the
        # limit still raises.
        builder = ProgramBuilder("slow")
        builder.ldg(2, coalesced_access(MemSpace.GLOBAL, 0), 1)
        builder.ffma(3, 2, 2, 3)
        builder.exit()
        sm = StreamingMultiprocessor(GpuConfig(), max_cycles=50)
        with pytest.raises(SimulationError, match="exceeded 50 cycles"):
            sm.run(_single_warp(builder.build()))


class _StubEngine(LsmaEngine):
    """Accepts every LSMA with a fixed occupancy (10 cycles by default)."""

    def __init__(self, occupancy=10.0):
        self.occupancy = occupancy
        self.busy_until = 0.0
        self.issued = 0

    def issue(self, unit_id, k_extent, now):
        if self.busy_until > now:
            return LsmaIssue(accepted=False)
        self.busy_until = now + self.occupancy
        self.issued += 1
        return LsmaIssue(
            accepted=True,
            busy_until=self.busy_until,
            counters=CounterBag({"sma_macs": k_extent * 64}),
        )

    def idle_at(self, now):
        return max(now, self.busy_until)

    def next_free(self, now):
        return self.busy_until if self.busy_until > now else math.inf

    def reset(self):
        self.busy_until = 0.0
        self.issued = 0


class TestLsmaIntegration:
    def test_lsma_runs_async_and_smawait_drains(self, sm):
        builder = ProgramBuilder("lsma")
        builder.mov(1, 0)
        builder.lsma(1, 1, 1, 1, k_extent=128, unit_id=0)
        builder.smawait()
        builder.exit()
        engine = _StubEngine()
        spec = KernelSpec(name="l", programs=[builder.build()], lsma_engine=engine)
        result = sm.run(spec)
        assert engine.issued == 1
        assert result.counters.get("sma_macs") == 128 * 64

    def test_busy_unit_backpressures(self, sm):
        builder = ProgramBuilder("lsma2")
        builder.mov(1, 0)
        builder.lsma(1, 1, 1, 1, k_extent=8, unit_id=0)
        builder.lsma(1, 1, 1, 1, k_extent=8, unit_id=0)
        builder.smawait()
        builder.exit()
        engine = _StubEngine()
        spec = KernelSpec(name="l2", programs=[builder.build()], lsma_engine=engine)
        result = sm.run(spec)
        assert engine.issued == 2
        assert result.cycles >= 20  # second op waited for the first

    def test_lsma_without_engine_raises(self, sm):
        builder = ProgramBuilder("bad")
        builder.mov(1, 0)
        builder.lsma(1, 1, 1, 1, k_extent=8)
        builder.exit()
        with pytest.raises(SimulationError):
            sm.run(_single_warp(builder.build()))


class TestBarrierDeadlock:
    def test_exit_past_a_barrier_fails_within_cycles(self, sm):
        # Warp 1 exits without arriving, so warp 0's barrier never fills.
        w0 = ProgramBuilder("w0").bar().exit()
        w1 = ProgramBuilder("w1").exit()
        spec = KernelSpec(name="stuck", programs=[w0.build(), w1.build()])
        assert sm.max_cycles == 40_000_000
        with pytest.raises(SimulationError, match="barrier deadlock") as info:
            sm.run(spec)
        message = str(info.value)
        assert "'stuck'" in message
        assert "(-1, 0) with warps [0]" in message
        cycle = float(re.search(r"at cycle (\S+):", message).group(1))
        assert cycle < 10

    def test_cooperative_group_deadlock_names_its_group(self, sm):
        w0 = ProgramBuilder("w0").cgsync(5).exit()
        w1 = ProgramBuilder("w1").cgsync(5).cgsync(5).exit()
        w2 = ProgramBuilder("w2").exit()
        spec = KernelSpec(
            name="cg",
            programs=[w0.build(), w1.build(), w2.build()],
            groups={5: frozenset({0, 1})},
        )
        with pytest.raises(SimulationError, match=r"\(5, 1\) with warps \[1\]"):
            sm.run(spec)

    def test_a_trace_ending_at_a_barrier_is_not_stuck(self, sm):
        # Warp 0 finishes by arriving; warp 1 arrives later and releases it.
        w0 = ProgramBuilder("w0").bar()
        w1 = ProgramBuilder("w1")
        for _ in range(5):
            w1.ffma(1, 1, 1, 1)
        w1.bar().exit()
        spec = KernelSpec(name="tail", programs=[w0.build(), w1.build()])
        assert sm.run(spec).counters.get("sync_ops") == 2

    def test_a_warp_draining_the_array_is_not_stuck(self, sm):
        # Warp 0 waits at the barrier while warp 1 sleeps on SMAWAIT, then
        # arrives: no deadlock.
        w0 = ProgramBuilder("w0").bar().exit()
        w1 = ProgramBuilder("w1")
        w1.mov(1, 0)
        w1.lsma(1, 1, 1, 1, k_extent=8, unit_id=0)
        w1.smawait()
        w1.bar()
        w1.exit()
        spec = KernelSpec(
            name="drain", programs=[w0.build(), w1.build()],
            lsma_engine=_StubEngine(),
        )
        assert sm.run(spec).counters.get("sync_ops") == 3


def _with_instructions(kernel, make):
    kernel.programs = [
        WarpProgram(program.name, [make(inst) for inst in program])
        for program in kernel.programs
    ]
    return kernel


def _fresh_copies(kernel):
    """The same kernel with every instruction a new object equal to the old."""

    def copy(inst):
        mem = None if inst.mem is None else dataclasses.replace(inst.mem)
        return dataclasses.replace(inst, mem=mem)

    return _with_instructions(kernel, copy)


def _shared(kernel):
    """The same kernel with one object per distinct instruction, warps included."""
    pool = {}
    return _with_instructions(kernel, lambda inst: pool.setdefault(inst, inst))


def _lsma_kernel():
    programs = []
    for warp_id in range(6):
        builder = ProgramBuilder(f"w{warp_id}")
        builder.mov(1, 0)
        for step in range(4):
            builder.ldg(
                2, coalesced_access(MemSpace.GLOBAL, 4096 * (step % 2)), 1
            )
            builder.sts(coalesced_access(MemSpace.SHARED, 512 * warp_id), 2, 1)
            builder.lsma(1, 1, 2, 1, k_extent=16, unit_id=warp_id % 2)
            builder.ffma(3, 2, 2, 3)
            builder.cgsync(0)
        builder.smawait()
        builder.exit()
        programs.append(builder.build())
    return KernelSpec(
        name="lsma", programs=programs, groups={0: frozenset(range(6))},
        scheduler="sma_rr", lsma_engine=_StubEngine(),
    )


_SHARING_KERNELS = {
    "simd": lambda: build_simd_gemm_kernel(
        plan_gemm(GemmProblem(128, 128, 64), k_slice=SIMD_K_SLICE), 2
    ),
    "tc": lambda: build_tc_gemm_kernel(
        plan_gemm(GemmProblem(128, 128, 64), k_slice=TC_K_SLICE), 2
    ),
    "lsma": _lsma_kernel,
}


def _objects(kernel):
    return {id(inst) for program in kernel.programs for inst in program}


class TestSharedInstructions:
    # Issue records are keyed by value, so a kernel must simulate the same
    # whether equal instructions share one object or not.
    @pytest.mark.parametrize("name", list(_SHARING_KERNELS))
    def test_shared_and_fresh_equal_copies_simulate_identically(self, sm, name):
        shared = _shared(_SHARING_KERNELS[name]())
        copied = _fresh_copies(_SHARING_KERNELS[name]())
        total = sum(len(program) for program in shared.programs)
        assert len(_objects(shared)) < total
        assert len(_objects(copied)) == total
        first, second = sm.run(shared), sm.run(copied)
        assert first.cycles == second.cycles
        assert list(first.counters.items()) == list(second.counters.items())
        assert list(first.stalls.items()) == list(second.stalls.items())
        assert first.stalls.get("stall_scoreboard") > 0


def _traced(monkeypatch, run, module, sm, kernel):
    """``run``'s fingerprint and the warps in the order they issued.

    ``module`` is where ``run`` looks ``make_scheduler`` up; its policies
    are wrapped to log every issue.
    """
    issued = []

    def logging_scheduler(name):
        policy = scheduler_module.make_scheduler(name)
        notify = policy.notify_issued

        def notify_issued(warp_id):
            issued.append(warp_id)
            notify(warp_id)

        policy.notify_issued = notify_issued
        return policy

    with monkeypatch.context() as patch:
        patch.setattr(module, "make_scheduler", logging_scheduler)
        result = run(sm, kernel)
    return fingerprint(result), issued


def _against_reference(monkeypatch, sm, kernel):
    """Run both loops; assert equal fingerprints and issue orders."""
    production = _traced(
        monkeypatch, StreamingMultiprocessor.run, sm_module, sm, kernel
    )
    assert production == _traced(
        monkeypatch, run_reference, reference_sm, sm, kernel
    )
    return production[1]


def _independent_ffmas(name, count):
    builder = ProgramBuilder(name)
    for reg in range(10, 10 + count):
        builder.ffma(reg, 1, 2, reg)
    return builder.exit().build()


class TestKeptSchedulerState:
    """Each scheduler keeps its candidates and their order between cycles;
    each case checks the kept state against the per-cycle reference."""

    @pytest.mark.parametrize("occupancy", [40.0, 37.5])
    @pytest.mark.parametrize("scheduler", ["lrr", "sma_rr"])
    def test_smawait_warp_rejoins_at_blocked_until(
        self, sm, monkeypatch, scheduler, occupancy
    ):
        # Scheduler 0 holds warps 0, 4 and 8. Warp 0 sleeps on SMAWAIT
        # while 4 and 8 keep issuing; its global load after the wake sets
        # the kernel's end, so a late or early rejoin moves the cycles.
        sleeper = ProgramBuilder("sleeper")
        sleeper.mov(1, 0)
        sleeper.lsma(1, 1, 1, 1, k_extent=8, unit_id=0)
        sleeper.smawait()
        sleeper.ldg(2, coalesced_access(MemSpace.GLOBAL, 0), 1)
        sleeper.ffma(3, 2, 2, 3)
        sleeper.exit()
        idle = ProgramBuilder("idle").exit().build()
        programs = [idle] * 9
        programs[0] = sleeper.build()
        programs[4] = _independent_ffmas("w4", 60)
        programs[8] = _independent_ffmas("w8", 60)
        kernel = KernelSpec(
            name="sleep", programs=programs, scheduler=scheduler,
            lsma_engine=_StubEngine(occupancy),
        )
        issued = _against_reference(monkeypatch, sm, kernel)
        # The siblings issue while warp 0 sleeps and after it wakes.
        wait_at = [i for i, warp in enumerate(issued) if warp == 0][2:4]
        asleep = issued[wait_at[0] + 1:wait_at[1]]
        assert len(asleep) >= 30 and set(asleep) == {4, 8}
        assert set(issued[wait_at[1] + 1:]) >= {4, 8}

    @pytest.mark.parametrize("scheduler", ["gto", "lrr", "sma_rr"])
    @pytest.mark.parametrize("barrier", ["bar", "cgsync"])
    def test_barrier_release_puts_its_warps_back(
        self, sm, monkeypatch, scheduler, barrier
    ):
        # Warps 0-6 reach the barrier early; warp 7 arrives after a long
        # dependent chain. Released warps then load and compute again.
        programs = []
        for warp_id in range(8):
            builder = ProgramBuilder(f"w{warp_id}")
            for _ in range(20 if warp_id == 7 else 1 + warp_id % 3):
                builder.ffma(1, 1, 1, 1)
            if barrier == "bar":
                builder.bar()
            else:
                builder.cgsync(0)
            builder.ldg(2, coalesced_access(MemSpace.GLOBAL, 0), 1)
            builder.ffma(3, 2, 2, 3)
            builder.ffma(4, 1, 1, 4)
            programs.append(builder.exit().build())
        kernel = KernelSpec(
            name="release", programs=programs, scheduler=scheduler,
            groups={0: frozenset(range(8))} if barrier == "cgsync" else {},
        )
        issued = _against_reference(monkeypatch, sm, kernel)
        assert len(issued) == sum(len(program) for program in programs)

    @pytest.mark.parametrize("scheduler", ["gto", "lrr", "sma_rr"])
    def test_order_after_a_cycle_with_no_issue(self, sm, monkeypatch, scheduler):
        # Three warps per scheduler, each a dependent chain of mixed latency
        # broken by runs of independent FFMAs: schedulers often find every
        # candidate waiting on the scoreboard, keep their order through that
        # cycle, and issue after it, and GTO's greedy pick matters.
        programs = []
        for warp_id in range(12):
            builder = ProgramBuilder(f"w{warp_id}")
            for step in range(6 + warp_id % 5):
                kind = (step + warp_id) % 4
                if kind == 0:
                    builder.lds(
                        1, coalesced_access(MemSpace.SHARED, 128 * warp_id), 1
                    )
                elif kind == 1:
                    builder.ffma(1, 1, 1, 1)
                else:
                    builder.ffma(10 + step, 2, 2, 10 + step)
            programs.append(builder.exit().build())
        kernel = KernelSpec(name="order", programs=programs, scheduler=scheduler)
        _against_reference(monkeypatch, sm, kernel)
        assert sm.run(kernel).stalls.get("stall_scoreboard") > 0


class TestKeptAdmissions:
    """A unit's admission holds within its cycle until the unit books work."""

    def test_lsma_lsu_booking_ends_an_admission(self, sm, monkeypatch):
        # In some cycle the LSU admits a shared load that a register-file
        # port then refuses, an LSMA's LSU overhead books the LSU, and
        # another warp asks for the LSU. Keeping the first admission past
        # that booking changes the stall counts. The shape was found by a
        # search against the reference and is sensitive to every count.
        programs = []
        for warp_id in range(10):
            builder = ProgramBuilder(f"w{warp_id}")
            if warp_id == 0:
                for step in range(11):
                    builder.lds(
                        30 + step % 8, coalesced_access(MemSpace.SHARED, 0), 1
                    )
            elif warp_id == 1:
                for unit_id in (3, 1, 1):
                    builder.lsma(1, 1, 1, 1, k_extent=8, unit_id=unit_id)
            elif warp_id == 2:
                for _ in range(2):
                    builder.sts(
                        coalesced_access(MemSpace.SHARED, 0, is_store=True), 1, 1
                    )
            elif warp_id == 4:
                for step in range(5):
                    builder.ffma(70 + step, 1, 2, 3)
            elif warp_id in (6, 7, 9):
                for step in range({6: 5, 7: 4, 9: 12}[warp_id]):
                    builder.hmma(50 + step, 1, 2, 50 + step)
            programs.append(builder.exit().build())
        kernel = KernelSpec(
            name="lsu", programs=programs, scheduler="gto",
            lsma_engine=_DrawnEngine([16.0] * 4, 6.0),
        )
        _against_reference(monkeypatch, sm, kernel)
