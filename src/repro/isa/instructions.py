"""Instruction and memory-access descriptors for the SM pipeline model.

The ISA is deliberately small: enough to express the three GEMM kernel
flavours the paper compares (SIMD FFMA loops, TensorCore HMMA loops, and the
SMA's asynchronous LSMA instruction) plus the loads/stores, address
arithmetic and synchronization around them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Opcode(enum.Enum):
    """Supported operations, named after their SASS analogues.

    Hashed by identity, in C: the SM's per-issue record key, the
    generated ``MemAccess.__hash__`` and the program builder's table
    keys hash opcodes, and ``Enum.__hash__`` is a Python-level call.
    This changes no result. No set of opcodes is iterated (the only
    one, ``_MEMORY_OPCODES``, is a membership test), dicts iterate in
    insertion order, and ``Enum``'s own ``hash(name)`` already varies
    per process with ``PYTHONHASHSEED``.
    """

    __hash__ = object.__hash__

    FFMA = "ffma"      # FP32 fused multiply-add (SIMD mode MAC)
    HFMA2 = "hfma2"    # paired FP16 multiply-add on CUDA cores
    FADD = "fadd"
    IMAD = "imad"      # integer multiply-add (addressing)
    MOV = "mov"
    LDS = "lds"        # load from shared memory
    STS = "sts"        # store to shared memory
    LDG = "ldg"        # load from global memory
    STG = "stg"        # store to global memory
    LDC = "ldc"        # load from constant memory
    HMMA = "hmma"      # TensorCore matrix-multiply-accumulate step
    LSMA = "lsma"      # SMA: asynchronous Load-Store-Multiply-Accumulate
    BAR = "bar"        # thread-block-wide barrier
    CGSYNC = "cgsync"  # cooperative-group (named subset) barrier
    SMAWAIT = "smawait"  # wait for the systolic controller to drain
    EXIT = "exit"
    NOP = "nop"


class ExecUnit(enum.Enum):
    """The structural unit an instruction occupies at issue."""

    ALU = "alu"          # integer / address pipeline
    FMA = "fma"          # FP32/FP16 SIMD pipelines
    LSU = "lsu"          # load-store unit (shared/global/const)
    TENSOR = "tensor"    # TensorCore
    SMA = "sma"          # systolic controller port
    SYNC = "sync"        # barriers


_OPCODE_UNIT = {
    Opcode.FFMA: ExecUnit.FMA,
    Opcode.HFMA2: ExecUnit.FMA,
    Opcode.FADD: ExecUnit.FMA,
    Opcode.IMAD: ExecUnit.ALU,
    Opcode.MOV: ExecUnit.ALU,
    Opcode.LDS: ExecUnit.LSU,
    Opcode.STS: ExecUnit.LSU,
    Opcode.LDG: ExecUnit.LSU,
    Opcode.STG: ExecUnit.LSU,
    Opcode.LDC: ExecUnit.LSU,
    Opcode.HMMA: ExecUnit.TENSOR,
    Opcode.LSMA: ExecUnit.SMA,
    Opcode.BAR: ExecUnit.SYNC,
    Opcode.CGSYNC: ExecUnit.SYNC,
    Opcode.SMAWAIT: ExecUnit.SYNC,
    Opcode.EXIT: ExecUnit.SYNC,
    Opcode.NOP: ExecUnit.ALU,
}

# Result latency (cycles until the destination registers are readable).
_OPCODE_LATENCY = {
    Opcode.FFMA: 4,
    Opcode.HFMA2: 4,
    Opcode.FADD: 4,
    Opcode.IMAD: 4,
    Opcode.MOV: 2,
    Opcode.LDS: 19,
    Opcode.STS: 1,
    Opcode.LDG: 400,
    Opcode.STG: 1,
    Opcode.LDC: 8,
    Opcode.HMMA: 8,
    Opcode.LSMA: 1,     # asynchronous: the controller runs independently
    Opcode.BAR: 1,
    Opcode.CGSYNC: 1,
    Opcode.SMAWAIT: 1,
    Opcode.EXIT: 1,
    Opcode.NOP: 1,
}


#: Opcodes that carry a :class:`MemAccess`; no other opcode may.
_MEMORY_OPCODES = frozenset(
    (Opcode.LDS, Opcode.STS, Opcode.LDG, Opcode.STG, Opcode.LDC)
)


class MemSpace(enum.Enum):
    """A memory access's space, hashed by identity like :class:`Opcode`
    (no set of spaces is iterated)."""

    __hash__ = object.__hash__

    SHARED = "shared"
    GLOBAL = "global"
    CONST = "const"


@dataclass(frozen=True)
class MemAccess:
    """One warp-wide memory access.

    ``lane_addresses`` gives the byte address touched by each of the 32
    lanes; the shared-memory bank model and the global coalescer derive
    conflict degree / transaction counts from it. ``width_bytes`` is the
    access width per lane.
    """

    space: MemSpace
    lane_addresses: tuple[int, ...]
    width_bytes: int = 4
    is_store: bool = False

    def __post_init__(self) -> None:
        if not self.lane_addresses:
            raise ValueError("a memory access needs at least one lane address")
        if self.width_bytes not in (1, 2, 4, 8, 16):
            raise ValueError(f"unsupported access width {self.width_bytes}")

    @property
    def active_lanes(self) -> int:
        return len(self.lane_addresses)

    @property
    def bytes_moved(self) -> int:
        return self.active_lanes * self.width_bytes


def coalesced_access(
    space: MemSpace,
    base: int,
    width_bytes: int = 4,
    lanes: int = 32,
    is_store: bool = False,
) -> MemAccess:
    """Unit-stride access: lane i touches ``base + i * width_bytes``."""
    addresses = tuple(range(base, base + lanes * width_bytes, width_bytes))
    return MemAccess(space, addresses, width_bytes, is_store)


def strided_access(
    space: MemSpace,
    base: int,
    stride_bytes: int,
    width_bytes: int = 4,
    lanes: int = 32,
    is_store: bool = False,
) -> MemAccess:
    """Constant-stride access: lane i touches ``base + i * stride_bytes``."""
    addresses = tuple(base + lane * stride_bytes for lane in range(lanes))
    return MemAccess(space, addresses, width_bytes, is_store)


def broadcast_access(
    space: MemSpace,
    base: int,
    width_bytes: int = 4,
    lanes: int = 32,
) -> MemAccess:
    """All lanes read the same word (hardware broadcasts, no conflict)."""
    addresses = tuple(base for _ in range(lanes))
    return MemAccess(space, addresses, width_bytes, False)


@dataclass(frozen=True)
class Instruction:
    """One warp-level instruction.

    Registers are abstract integer ids scoped to the warp; the scoreboard
    uses them for dependence tracking only, so no allocator is needed.
    """

    opcode: Opcode
    dst: tuple[int, ...] = ()
    srcs: tuple[int, ...] = ()
    mem: MemAccess | None = None
    group: int | None = None      # cooperative-group id for CGSYNC
    tag: str = ""                 # free-form label for stats/debugging
    payload: tuple[int, ...] = field(default=())  # LSMA: (k_extent, unit_id)

    def __post_init__(self) -> None:
        needs_mem = self.opcode in _MEMORY_OPCODES
        if needs_mem and self.mem is None:
            raise ValueError(f"{self.opcode.value} requires a memory descriptor")
        if not needs_mem and self.mem is not None:
            raise ValueError(f"{self.opcode.value} must not carry a memory descriptor")
        if self.opcode is Opcode.CGSYNC and self.group is None:
            raise ValueError("cgsync requires a group id")

    @property
    def unit(self) -> ExecUnit:
        return _OPCODE_UNIT[self.opcode]

    @property
    def latency(self) -> int:
        return _OPCODE_LATENCY[self.opcode]

    @property
    def is_barrier(self) -> bool:
        return self.opcode in (Opcode.BAR, Opcode.CGSYNC, Opcode.SMAWAIT)

    @property
    def register_operand_count(self) -> int:
        """Number of warp-wide register operands read at issue."""
        return len(self.srcs)
