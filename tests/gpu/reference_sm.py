"""The per-cycle SM loop: the executable spec of ``StreamingMultiprocessor.run``.

:func:`run_reference` is the cycle-by-cycle loop ``run`` was before it
learned to skip the cycles in which nothing can issue, kept verbatim (only
``self`` became ``sm``). Every cycle it rebuilds each scheduler's
candidates, re-checks each candidate's scoreboard, looks its issue record
up by instruction object and counts one stall per stalled scheduler. It is
slow, but it states the pipeline's semantics in one readable function; the
production loop must reproduce its ``SmResult`` exactly, counter and stall
order included, or raise the same ``SimulationError``.

Nothing on a production path calls it. The callers are the parity
property (``tests/gpu/test_sm_reference_parity.py``) and the speedup-ratio
benchmark (``benchmarks/bench_sm_windows.py``); both compare results by
:func:`fingerprint`.
"""

from __future__ import annotations

from repro.common.stats import CounterBag
from repro.errors import SimulationError
from repro.gpu.regfile import RegisterFileModel
from repro.gpu.scheduler import SchedulerPolicy, make_scheduler
from repro.gpu.scoreboard import Scoreboard
from repro.gpu.sm import (
    KernelSpec,
    SmResult,
    StreamingMultiprocessor,
    ThroughputResource,
    _IssueRecord,
    _WarpState,
)
from repro.isa.instructions import Opcode


def run_reference(sm: StreamingMultiprocessor, kernel: KernelSpec) -> SmResult:
    """Simulate ``kernel`` on ``sm`` one cycle at a time."""
    num_warps = kernel.num_warps
    if num_warps > sm.config.max_warps_per_sm:
        raise SimulationError(
            f"{num_warps} warps exceed the SM limit "
            f"{sm.config.max_warps_per_sm}"
        )
    if kernel.lsma_engine is not None:
        kernel.lsma_engine.reset()

    resources = sm._build_resources()
    regfile = RegisterFileModel(sm.config, sm.collector_efficiency)
    rf_read = ThroughputResource("rf_read")
    rf_write = ThroughputResource("rf_write")
    read_cost = 1.0 / regfile.read_capacity
    write_cost = 1.0 / regfile.write_capacity

    scoreboard = Scoreboard(num_warps)
    counters = CounterBag()
    stalls = CounterBag()
    warps = [_WarpState() for _ in range(num_warps)]
    traces = [program.instructions for program in kernel.programs]
    # Issue records by instruction object: built on the first issue
    # attempt, reused by every later attempt at that object.
    records: dict[int, _IssueRecord] = {}
    num_schedulers = sm.config.schedulers_per_sm
    policies: list[SchedulerPolicy] = [
        make_scheduler(kernel.scheduler) for _ in range(num_schedulers)
    ]
    barrier_arrivals: dict[tuple[int, int], set[int]] = {}
    group_sizes = {gid: len(members) for gid, members in kernel.groups.items()}
    group_sizes[sm.TB_GROUP] = num_warps
    waiting_count = 0

    now = 0.0
    done_count = 0
    while done_count < num_warps:
        if now > sm.max_cycles:
            raise SimulationError(
                f"kernel {kernel.name!r} exceeded {sm.max_cycles} cycles"
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
                inst = traces[warp_id][state.pc]
                if not scoreboard.ready(warp_id, inst.srcs, now):
                    blocked_reason = "stall_scoreboard"
                    continue
                record = records.get(id(inst))
                if record is None:
                    record = records[id(inst)] = sm._issue_record(inst)
                unit_name, unit_cost, latency, reads, writes, events = record
                opcode = inst.opcode
                if opcode is Opcode.LSMA:
                    if kernel.lsma_engine is None:
                        raise SimulationError(
                            "trace contains LSMA but no engine is attached"
                        )
                    k_extent, unit_id = inst.payload
                    outcome = kernel.lsma_engine.issue(unit_id, k_extent, now)
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
                        sm.TB_GROUP if opcode is Opcode.BAR else inst.group
                    )
                    instance = state.barrier_counts.get(group_id, 0)
                    state.barrier_counts[group_id] = instance + 1
                    state.waiting_barrier = (group_id, instance)
                    waiting_count += 1
                    barrier_arrivals.setdefault(
                        (group_id, instance), set()
                    ).add(warp_id)
                elif opcode is Opcode.SMAWAIT:
                    if kernel.lsma_engine is None:
                        raise SimulationError(
                            "trace contains SMAWAIT but no engine is attached"
                        )
                    state.blocked_until = max(
                        now + 1.0, kernel.lsma_engine.idle_at(now)
                    )
                state.pc += 1
                if opcode is Opcode.EXIT or state.pc >= len(traces[warp_id]):
                    state.done = True
                    done_count += 1
                policy.notify_issued(warp_id)
                issued = True
                break
            if not issued:
                stalls.add(blocked_reason)
        now += 1.0

    if kernel.lsma_engine is not None:
        now = max(now, kernel.lsma_engine.idle_at(now))

    counters.add("cycles", now)
    counters.add("rf_reads", regfile.total_reads)
    counters.add("rf_writes", regfile.total_writes)
    for name, resource in resources.items():
        counters.add(f"busy_{name}", resource.busy_cycles)
    counters.add("busy_rf_read", rf_read.busy_cycles)
    counters.add("busy_rf_write", rf_write.busy_cycles)
    return SmResult(cycles=now, counters=counters, stalls=stalls, name=kernel.name)


def fingerprint(result: SmResult) -> tuple:
    """What parity compares: the name and the ``repr`` of the cycles and of
    every counter and stall counter, in the order first touched."""
    return (
        result.name,
        repr(result.cycles),
        [(name, repr(value)) for name, value in result.counters.items()],
        [(name, repr(value)) for name, value in result.stalls.items()],
    )
