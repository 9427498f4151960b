"""Property: the SM's skipping loop reproduces the per-cycle reference.

:meth:`StreamingMultiprocessor.run` and
:func:`tests.gpu.reference_sm.run_reference` must agree on every drawn
kernel: the same ``SmResult`` by ``repr`` (cycles, and every counter and
stall counter in the order first touched) or the same ``SimulationError``
message. The kernels are small and dependence-dense (registers 1-6). They
mix every issue unit, strided shared and global accesses, one barrier
sequence that every warp passes in the same order (on some draws one warp
skips the last barrier, which deadlocks the others), and, on most draws, a
stub systolic engine with 1-3 units of drawn occupancy, under all three
warp schedulers.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.stats import CounterBag
from repro.config import GpuConfig
from repro.errors import SimulationError
from repro.gpu.sm import KernelSpec, LsmaEngine, LsmaIssue, StreamingMultiprocessor
from repro.isa.instructions import Instruction, MemSpace, Opcode, strided_access
from repro.isa.program import WarpProgram
from tests.gpu.reference_sm import fingerprint, run_reference

#: Opcodes a warp draws its body from; the engine adds LSMA and SMAWAIT.
OPCODES = (
    Opcode.FFMA, Opcode.HFMA2, Opcode.FADD, Opcode.IMAD, Opcode.MOV,
    Opcode.HMMA, Opcode.LDS, Opcode.STS, Opcode.LDG, Opcode.STG, Opcode.LDC,
)
ENGINE_OPCODES = OPCODES + (Opcode.LSMA, Opcode.SMAWAIT)
#: Lane strides in bytes: conflict-free to 32-way bank conflicts, and
#: coalesced to one sector per lane.
STRIDES = (4, 8, 16, 32, 128, 132)
MEM_SPACES = {
    Opcode.LDS: MemSpace.SHARED,
    Opcode.STS: MemSpace.SHARED,
    Opcode.LDG: MemSpace.GLOBAL,
    Opcode.STG: MemSpace.GLOBAL,
    Opcode.LDC: MemSpace.CONST,
}
#: Source-operand counts; stores and LSMA write no register.
SOURCES = {
    Opcode.FFMA: 3, Opcode.HFMA2: 3, Opcode.IMAD: 3, Opcode.HMMA: 3,
    Opcode.FADD: 2, Opcode.STS: 2, Opcode.STG: 2, Opcode.LSMA: 4,
    Opcode.SMAWAIT: 0,
}
NO_DESTINATION = (Opcode.STS, Opcode.STG, Opcode.LSMA, Opcode.SMAWAIT)
#: The cooperative group: every other warp.
CG_GROUP = 0

registers = st.integers(min_value=1, max_value=6)


class _DrawnEngine(LsmaEngine):
    """Each unit stays busy a drawn number of cycles per accepted LSMA."""

    def __init__(self, occupancy: list[float], lsu_overhead: float) -> None:
        self.occupancy = occupancy
        self.lsu_overhead = lsu_overhead
        self.reset()

    def issue(self, unit_id, k_extent, now):
        if self._busy_until[unit_id] > now:
            return LsmaIssue(accepted=False)
        busy_until = now + self.occupancy[unit_id]
        self._busy_until[unit_id] = busy_until
        return LsmaIssue(
            accepted=True,
            busy_until=busy_until,
            counters=CounterBag({"sma_macs": k_extent * 64, "lsma_issued": 1}),
            lsu_overhead_cycles=self.lsu_overhead,
        )

    def idle_at(self, now):
        return max([now] + self._busy_until)

    def next_free(self, now):
        return min(
            (busy for busy in self._busy_until if busy > now), default=math.inf
        )

    def reset(self):
        self._busy_until = [0.0] * len(self.occupancy)

    def __repr__(self):
        return f"_DrawnEngine({self.occupancy}, {self.lsu_overhead})"


@st.composite
def instructions(draw, opcodes, units):
    opcode = draw(st.sampled_from(opcodes))
    srcs = tuple(draw(registers) for _ in range(SOURCES.get(opcode, 1)))
    dst = () if opcode in NO_DESTINATION else (draw(registers),)
    mem = payload = None
    if opcode in MEM_SPACES:
        mem = strided_access(
            MEM_SPACES[opcode],
            draw(st.sampled_from((0, 64, 4096))),
            stride_bytes=draw(st.sampled_from(STRIDES)),
            is_store=opcode in (Opcode.STS, Opcode.STG),
        )
    if opcode is Opcode.LSMA:
        payload = (
            draw(st.integers(min_value=1, max_value=64)),
            draw(st.integers(min_value=0, max_value=units - 1)),
        )
    return Instruction(opcode, dst, srcs, mem=mem, payload=payload or ())


@st.composite
def kernels(draw):
    num_warps = draw(st.integers(min_value=1, max_value=12))
    units = draw(st.integers(min_value=0, max_value=3))
    engine = None
    if units:
        quarters = st.integers(min_value=1, max_value=160)
        engine = _DrawnEngine(
            [draw(quarters) / 4.0 for _ in range(units)],
            draw(st.sampled_from((0.0, 0.5, 3.0))),
        )
    opcodes = ENGINE_OPCODES if engine is not None else OPCODES
    # One barrier sequence for the kernel, passed in the same order by every
    # warp (only the group's warps pass its CGSYNCs): independently drawn
    # barriers would mostly deadlock.
    sync = draw(
        st.lists(st.sampled_from((Opcode.BAR, Opcode.CGSYNC)), max_size=3)
    )
    members = frozenset(range(0, num_warps, 2))
    # On a quarter of the draws the last warp skips its last barrier, so the
    # warps that reach that barrier deadlock: both loops must then raise the
    # same error, detected at the same cycle.
    truncated = draw(st.sampled_from((None, None, None, num_warps - 1)))
    programs = []
    for warp_id in range(num_warps):
        body = draw(
            st.lists(instructions(opcodes, units), min_size=1, max_size=14)
        )
        barriers = [
            Instruction(opcode, group=CG_GROUP if opcode is Opcode.CGSYNC else None)
            for opcode in sync
            if opcode is Opcode.BAR or warp_id in members
        ]
        if warp_id == truncated:
            barriers = barriers[:-1]
        positions = sorted(
            draw(st.integers(min_value=0, max_value=len(body)))
            for _ in barriers
        )
        for offset, (position, barrier) in enumerate(zip(positions, barriers)):
            body.insert(position + offset, barrier)
        if draw(st.integers(min_value=0, max_value=4)):
            body.append(Instruction(Opcode.EXIT))
        programs.append(WarpProgram(f"w{warp_id}", body))
    return KernelSpec(
        name="drawn",
        programs=programs,
        groups={CG_GROUP: members} if Opcode.CGSYNC in sync else {},
        scheduler=draw(st.sampled_from(("gto", "lrr", "sma_rr"))),
        lsma_engine=engine,
    )


def _outcome(run, sm, kernel):
    """The result's fingerprint, or the error message."""
    try:
        result = run(sm, kernel)
    except SimulationError as error:
        return "error", str(error)
    return fingerprint(result)


SM = StreamingMultiprocessor(GpuConfig())


@given(kernel=kernels())
@settings(max_examples=150, deadline=None)
def test_run_matches_reference(kernel):
    production = _outcome(StreamingMultiprocessor.run, SM, kernel)
    assert production == _outcome(run_reference, SM, kernel)
