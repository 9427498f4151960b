"""Cycle-level streaming-multiprocessor pipeline.

This is the reproduction's analogue of the paper's modified GPGPU-Sim: warp
programs (``repro.isa``) execute against structural resources — issue slots,
FP32/FP16 pipelines, the load-store unit with shared-memory bank conflicts
and global coalescing, register-file operand ports, TensorCores, and the
SMA systolic controller (attached via :class:`LsmaEngine`).

Timing emerges from three mechanisms only:

* **dependences** — the scoreboard delays consumers of pending registers;
* **structural throughput** — every unit is a :class:`ThroughputResource`
  with a service rate and a bounded issue queue;
* **synchronization** — thread-block barriers, cooperative-group barriers
  and the ``SMAWAIT`` drain of the asynchronous systolic controller.

There are no per-kernel fudge factors; the three GEMM flavours differ only
in the instruction traces they feed in.

A cycle in which no scheduler issues changes no state. Policy order moves
only on an issue, barriers release only after one, and the scoreboard, the
resources' bookings and the systolic units change only when an instruction
issues; such a cycle moves nothing but ``now``. So :meth:`run` jumps from it
to the earliest cycle at which a comparison against ``now`` can flip — a
warp's ``blocked_until`` or head-ready time, a resource's admission edge, a
systolic unit freeing — and counts each stalled scheduler's reason once per
cycle it skipped. Its result equals the cycle-by-cycle loop's, counter and
stall order included.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.common.stats import CounterBag
from repro.config import GpuConfig
from repro.errors import SimulationError
from repro.gpu.coalescer import coalesce
from repro.gpu.regfile import RegisterFileModel
from repro.gpu.scheduler import SchedulerPolicy, make_scheduler
from repro.gpu.scoreboard import Scoreboard
from repro.gpu.shared_memory import SharedMemoryModel
from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import WarpProgram

#: MACs performed by one HMMA instruction (4 cycles on one 4x4x4 TC).
HMMA_MACS = 256
#: Cycles one HMMA occupies its TensorCore.
HMMA_TC_CYCLES = 4


@dataclass(frozen=True)
class LsmaIssue:
    """Outcome of handing an LSMA instruction to the systolic controller."""

    accepted: bool
    busy_until: float = 0.0
    counters: CounterBag | None = None
    lsu_overhead_cycles: float = 0.0


class LsmaEngine(abc.ABC):
    """Interface the SMA systolic controller exposes to the SM pipeline."""

    @abc.abstractmethod
    def issue(self, unit_id: int, k_extent: int, now: float) -> LsmaIssue:
        """Try to start one LSMA operation on ``unit_id`` at cycle ``now``."""

    @abc.abstractmethod
    def idle_at(self, now: float) -> float:
        """Cycle at which every systolic unit has drained."""

    @abc.abstractmethod
    def next_free(self, now: float) -> float:
        """Earliest cycle after ``now`` at which a busy unit frees.

        ``inf`` when no unit is busy. Until then :meth:`issue` refuses
        exactly what it refuses at ``now``.
        """

    @abc.abstractmethod
    def reset(self) -> None:
        """Clear busy state between kernels."""


class ThroughputResource:
    """A service pipeline with rate ``capacity`` per cycle and bounded queue.

    ``accept`` books ``cost`` cycles of service; ``can_accept`` refuses when
    the backlog exceeds ``queue_depth`` cycles, which stalls the issuing
    scheduler — exactly how a full issue queue back-pressures a real SM.
    """

    def __init__(self, name: str, queue_depth: float = 8.0) -> None:
        self.name = name
        self.queue_depth = queue_depth
        self.free_at = 0.0
        self.busy_cycles = 0.0

    def can_accept(self, now: float, cost: float) -> bool:
        """Admit when the backlog is within the queue depth.

        The bound is on *outstanding* work, not on the op's own cost —
        otherwise a single op costlier than the queue (e.g. a 32-way bank
        conflict) could never issue and the warp would livelock.
        """
        if cost <= 0:
            return True
        backlog = max(0.0, self.free_at - now)
        return backlog <= self.queue_depth

    def admits_from(self) -> float:
        """The cycle from which :meth:`can_accept` admits a positive cost.

        With a whole-cycle ``queue_depth``, every whole cycle below it is
        refused, so its floor is never later than the first whole cycle
        that admits.
        """
        return self.free_at - self.queue_depth

    def accept(self, now: float, cost: float) -> float:
        """Book the work; returns its completion cycle."""
        start = max(self.free_at, now)
        self.free_at = start + cost
        self.busy_cycles += cost
        return self.free_at

    def utilization(self, cycles: float) -> float:
        if cycles <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / cycles)


@dataclass
class KernelSpec:
    """Everything the SM needs to run one thread block's trace."""

    name: str
    programs: list[WarpProgram]
    groups: dict[int, frozenset[int]] = field(default_factory=dict)
    scheduler: str = "gto"
    lsma_engine: LsmaEngine | None = None

    def __post_init__(self) -> None:
        if not self.programs:
            raise SimulationError("kernel needs at least one warp program")
        for warp_id, program in enumerate(self.programs):
            if not program.instructions:
                raise SimulationError(
                    f"warp {warp_id} ({program.name!r}) has no instructions"
                )
        for group_id, members in self.groups.items():
            for warp_id in members:
                if not (0 <= warp_id < len(self.programs)):
                    raise SimulationError(
                        f"group {group_id} references warp {warp_id} out of range"
                    )

    @property
    def num_warps(self) -> int:
        return len(self.programs)


@dataclass
class SmResult:
    """Timing and event counts for one thread block on one SM."""

    cycles: float
    counters: CounterBag
    stalls: CounterBag
    name: str = ""

    def flops(self) -> float:
        """FLOPs executed (FMA counts as two)."""
        return 2.0 * (
            self.counters.get("fp32_macs")
            + self.counters.get("fp16_macs")
            + self.counters.get("sma_macs")
        )

    def flop_efficiency(self, peak_flops_per_cycle: float) -> float:
        """Achieved / peak FLOPs for this thread block's residency."""
        if self.cycles <= 0 or peak_flops_per_cycle <= 0:
            return 0.0
        return self.flops() / (self.cycles * peak_flops_per_cycle)


class _IssueRecord(NamedTuple):
    """What issuing one instruction books and counts.

    Built once per run for each distinct ``(opcode, mem, len(srcs),
    len(dst))``, everything :meth:`StreamingMultiprocessor._issue_record`
    reads.
    """

    unit: str | None             # structural unit booked; None when none is
    unit_cost: float             # cycles of that unit's service
    latency: int                 # cycles until the destinations are readable
    reads: int                   # register-file operand reads
    writes: int                  # register-file operand writes
    events: tuple[tuple[str, float], ...]  # counter deltas, in add order


#: Every issued instruction counts once.
_ISSUED = ("instructions_issued", 1.0)
#: Lane operations counted per issued SIMD arithmetic instruction.
_SIMD_EVENTS = {
    Opcode.FFMA: ("fp32_macs", 32),
    Opcode.HFMA2: ("fp16_macs", 64),
    Opcode.FADD: ("fp32_ops", 32),
}


@dataclass
class _WarpState:
    pc: int = 0
    blocked_until: float = 0.0
    done: bool = False
    waiting_barrier: tuple[int, int] | None = None  # (group, instance)
    barrier_counts: dict[int, int] = field(default_factory=dict)
    # When the head instruction's sources are all readable. Only this
    # warp's own issues move its scoreboard entries or its head, so it is
    # computed once per issue.
    head_ready: float = 0.0
    # The head instruction's issue record, set on its first attempt.
    record: _IssueRecord | None = None


class StreamingMultiprocessor:
    """Executes one thread block's warp traces with structural timing."""

    #: group id used for whole-thread-block BAR instructions
    TB_GROUP = -1

    def __init__(
        self,
        config: GpuConfig,
        collector_efficiency: float = 0.95,
        max_cycles: int = 40_000_000,
    ) -> None:
        self.config = config
        self.collector_efficiency = collector_efficiency
        self.max_cycles = max_cycles
        self.shared_memory = SharedMemoryModel(
            num_banks=config.shared_memory_banks,
            bank_bytes=config.shared_memory_bank_bytes,
        )

    # -- resource construction -------------------------------------------------
    def _build_resources(self) -> dict[str, ThroughputResource]:
        config = self.config
        return {
            # 64 FP32 lanes serve two warp-wide FMA ops per cycle.
            "fma": ThroughputResource("fma"),
            # Dedicated INT32 pipe, same width.
            "alu": ThroughputResource("alu"),
            # One shared-memory (or 4-sector global) access group per cycle.
            "lsu": ThroughputResource("lsu", queue_depth=6.0),
            # 4 TensorCores, each 4 cycles per HMMA -> 1 HMMA/cycle aggregate.
            "tensor": ThroughputResource("tensor"),
        }

    # -- issue records -----------------------------------------------------------
    def _issue_record(self, inst: Instruction) -> _IssueRecord:
        """What issuing ``inst`` books and counts; the same on every attempt."""
        opcode = inst.opcode
        unit, unit_cost, latency = None, 0.0, inst.latency
        reads, writes = len(inst.srcs), len(inst.dst)
        event: tuple[str, float] | None = None
        if opcode in (Opcode.FFMA, Opcode.HFMA2, Opcode.FADD):
            unit, unit_cost = "fma", 0.5
            event = _SIMD_EVENTS[opcode]
        elif opcode in (Opcode.IMAD, Opcode.MOV, Opcode.NOP):
            unit, unit_cost = "alu", 0.5
        elif opcode is Opcode.HMMA:
            # Architectural operand appetite (repro.tensorcore): 2 A regs,
            # 2 B regs, 4 accumulators read; 4 accumulators written.
            unit, unit_cost, reads, writes = "tensor", 1.0, 8, 4
            event = ("fp16_macs", HMMA_MACS)
        elif opcode in (Opcode.LDS, Opcode.STS):
            access = self.shared_memory.access(inst.mem)
            unit, unit_cost = "lsu", float(access.cycles)
            if opcode is Opcode.LDS:
                latency = (
                    self.config.shared_memory_latency_cycles + access.cycles - 1
                )
                event = ("smem_read_words", access.words_touched)
            else:
                latency = access.cycles
                event = ("smem_write_words", access.words_touched)
        elif opcode in (Opcode.LDG, Opcode.STG):
            transactions = coalesce(inst.mem)
            unit, unit_cost = "lsu", max(0.25, transactions.sectors / 4.0)
            if opcode is Opcode.LDG:
                latency = self.config.dram_latency_cycles
                event = ("global_read_bytes", transactions.bytes_moved)
            else:
                latency = 1
                event = ("global_write_bytes", transactions.bytes_moved)
        elif opcode is Opcode.LDC:
            unit, unit_cost = "lsu", 0.25
            event = ("const_read_words", inst.mem.active_lanes)
        elif inst.is_barrier or opcode is Opcode.EXIT:
            latency, reads, writes = 1, 0, 0
            if inst.is_barrier:
                event = ("sync_ops", 1.0)
        elif opcode is not Opcode.LSMA:
            # LSMA has no unit here: the systolic controller books its cost.
            raise SimulationError(f"no issue model for opcode {opcode}")
        events = (_ISSUED,) if event is None else (_ISSUED, event)
        return _IssueRecord(unit, unit_cost, latency, reads, writes, events)

    # -- main loop -----------------------------------------------------------------
    def run(self, kernel: KernelSpec) -> SmResult:
        """Simulate the kernel to completion; returns cycles and events."""
        num_warps = kernel.num_warps
        if num_warps > self.config.max_warps_per_sm:
            raise SimulationError(
                f"{num_warps} warps exceed the SM limit "
                f"{self.config.max_warps_per_sm}"
            )
        engine = kernel.lsma_engine
        if engine is not None:
            engine.reset()

        resources = self._build_resources()
        regfile = RegisterFileModel(self.config, self.collector_efficiency)
        rf_read = ThroughputResource("rf_read")
        rf_write = ThroughputResource("rf_write")
        read_cost = 1.0 / regfile.read_capacity
        write_cost = 1.0 / regfile.write_capacity
        # Every resource whose admission edge a stalled issue can wait on.
        units = (*resources.values(), rf_read, rf_write)

        scoreboard = Scoreboard(num_warps)
        counters = CounterBag()
        stalls = CounterBag()
        warps = [_WarpState() for _ in range(num_warps)]
        traces = [program.instructions for program in kernel.programs]
        # Issue records by everything _issue_record reads, so equal
        # instructions share one record whichever warp or object holds them.
        records: dict[tuple, _IssueRecord] = {}
        num_schedulers = self.config.schedulers_per_sm
        policies: list[SchedulerPolicy] = [
            make_scheduler(kernel.scheduler) for _ in range(num_schedulers)
        ]
        barrier_arrivals: dict[tuple[int, int], set[int]] = {}
        group_sizes = {gid: len(members) for gid, members in kernel.groups.items()}
        group_sizes[self.TB_GROUP] = num_warps
        waiting_count = 0
        # The first cycle past max_cycles: no skip jumps beyond it.
        limit = math.floor(self.max_cycles) + 1.0

        now = 0.0
        done_count = 0
        while done_count < num_warps:
            if now > self.max_cycles:
                raise SimulationError(
                    f"kernel {kernel.name!r} exceeded {self.max_cycles} cycles"
                    " (likely a barrier deadlock in the trace)"
                )
            # Release completed barriers.
            released: list[tuple[int, int]] = []
            for key, arrived in barrier_arrivals.items():
                group_id, _instance = key
                if len(arrived) >= group_sizes.get(group_id, num_warps):
                    for warp_id in arrived:
                        warps[warp_id].waiting_barrier = None
                        warps[warp_id].blocked_until = now
                    waiting_count -= len(arrived)
                    released.append(key)
            for key in released:
                del barrier_arrivals[key]
            # Only an issue can complete a barrier: once every unfinished
            # warp waits at one, none ever will. (The count also holds warps
            # whose last instruction was a barrier, hence the scan.)
            if waiting_count >= num_warps - done_count and all(
                state.done or state.waiting_barrier is not None for state in warps
            ):
                raise SimulationError(
                    f"barrier deadlock in kernel {kernel.name!r} at cycle"
                    f" {now:g}: every unfinished warp waits at a barrier that"
                    " can no longer complete; stuck (group, instance): "
                    + ", ".join(
                        f"{key} with warps {sorted(arrived)}"
                        for key, arrived in sorted(barrier_arrivals.items())
                    )
                )

            issued_any = False
            stalled: list[str] = []
            for scheduler_id, policy in enumerate(policies):
                candidates = [
                    warp_id
                    for warp_id in range(scheduler_id, num_warps, num_schedulers)
                    if not warps[warp_id].done
                    and warps[warp_id].waiting_barrier is None
                    and warps[warp_id].blocked_until <= now
                ]
                if not candidates:
                    continue
                issued = False
                blocked_reason = "stall_scoreboard"
                for warp_id in policy.order(candidates):
                    state = warps[warp_id]
                    if state.head_ready > now:
                        blocked_reason = "stall_scoreboard"
                        continue
                    trace = traces[warp_id]
                    inst = trace[state.pc]
                    record = state.record
                    if record is None:
                        key = (inst.opcode, inst.mem, len(inst.srcs), len(inst.dst))
                        record = records.get(key)
                        if record is None:
                            record = records[key] = self._issue_record(inst)
                        state.record = record
                    unit_name, unit_cost, latency, reads, writes, events = record
                    opcode = inst.opcode
                    if opcode is Opcode.LSMA:
                        if engine is None:
                            raise SimulationError(
                                "trace contains LSMA but no engine is attached"
                            )
                        k_extent, unit_id = inst.payload
                        outcome = engine.issue(unit_id, k_extent, now)
                        if not outcome.accepted:
                            blocked_reason = "stall_sma_busy"
                            continue
                        if outcome.counters is not None:
                            counters.merge(outcome.counters)
                        if outcome.lsu_overhead_cycles > 0:
                            resources["lsu"].accept(
                                now, outcome.lsu_overhead_cycles
                            )
                    else:
                        if unit_name is not None:
                            resource = resources[unit_name]
                            if not resource.can_accept(now, unit_cost):
                                blocked_reason = f"stall_{unit_name}"
                                continue
                        if reads and not rf_read.can_accept(now, reads * read_cost):
                            blocked_reason = "stall_rf_read"
                            continue
                        if writes and not rf_write.can_accept(
                            now, writes * write_cost
                        ):
                            blocked_reason = "stall_rf_write"
                            continue
                        if unit_name is not None:
                            resource.accept(now, unit_cost)
                        if reads:
                            rf_read.accept(now, reads * read_cost)
                            regfile.total_reads += reads
                        if writes:
                            rf_write.accept(now, writes * write_cost)
                            regfile.total_writes += writes

                    # The instruction issues.
                    for name, amount in events:
                        counters.add(name, amount)
                    if inst.dst:
                        scoreboard.set_pending(warp_id, inst.dst, now + latency)
                    if opcode is Opcode.BAR or opcode is Opcode.CGSYNC:
                        group_id = (
                            self.TB_GROUP if opcode is Opcode.BAR else inst.group
                        )
                        instance = state.barrier_counts.get(group_id, 0)
                        state.barrier_counts[group_id] = instance + 1
                        state.waiting_barrier = (group_id, instance)
                        waiting_count += 1
                        barrier_arrivals.setdefault(
                            (group_id, instance), set()
                        ).add(warp_id)
                    elif opcode is Opcode.SMAWAIT:
                        if engine is None:
                            raise SimulationError(
                                "trace contains SMAWAIT but no engine is attached"
                            )
                        state.blocked_until = max(now + 1.0, engine.idle_at(now))
                    state.pc += 1
                    if opcode is Opcode.EXIT or state.pc >= len(trace):
                        state.done = True
                        done_count += 1
                    else:
                        state.record = None
                        state.head_ready = scoreboard.earliest_ready(
                            warp_id, trace[state.pc].srcs
                        )
                    policy.notify_issued(warp_id)
                    issued = True
                    break
                if issued:
                    issued_any = True
                else:
                    stalled.append(blocked_reason)
            step = 1.0
            if not issued_any:
                step = max(
                    1.0,
                    math.floor(self._wake(now, warps, units, engine, limit)) - now,
                )
            # A skipped cycle repeats this one's stalls.
            for reason in stalled:
                stalls.add(reason, step)
            now += step

        if engine is not None:
            now = max(now, engine.idle_at(now))

        counters.add("cycles", now)
        counters.add("rf_reads", regfile.total_reads)
        counters.add("rf_writes", regfile.total_writes)
        for name, resource in resources.items():
            counters.add(f"busy_{name}", resource.busy_cycles)
        counters.add("busy_rf_read", rf_read.busy_cycles)
        counters.add("busy_rf_write", rf_write.busy_cycles)
        return SmResult(cycles=now, counters=counters, stalls=stalls, name=kernel.name)

    @staticmethod
    def _wake(
        now: float,
        warps: list[_WarpState],
        units: tuple[ThroughputResource, ...],
        engine: LsmaEngine | None,
        limit: float,
    ) -> float:
        """Earliest time after ``now`` at which a comparison against the
        cycle can flip, at most ``limit``.

        Called after a cycle in which nothing issued, so nothing but the
        cycle moves until then: a candidate set, a scoreboard check, an
        admission or a systolic unit's refusal.
        """
        wake = limit
        for state in warps:
            if state.done or state.waiting_barrier is not None:
                continue
            if now < state.blocked_until < wake:
                wake = state.blocked_until
            if now < state.head_ready < wake:
                wake = state.head_ready
        for unit in units:
            edge = unit.admits_from()
            if now < edge < wake:
                wake = edge
        if engine is not None:
            wake = min(wake, engine.next_free(now))
        return wake
