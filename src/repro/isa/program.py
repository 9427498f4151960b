"""Warp programs and a fluent builder used by the kernel trace generators."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.isa.instructions import Instruction, MemAccess, Opcode


@dataclass
class WarpProgram:
    """The full instruction trace executed by one warp.

    Traces are already unrolled: the generators emit a prologue, a number of
    steady-state loop bodies, and an epilogue. The SM pipeline just walks the
    list.
    """

    name: str
    instructions: list[Instruction] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self.instructions[index]

    def extend(self, instructions: Iterable[Instruction]) -> None:
        self.instructions.extend(instructions)

    def count(self, opcode: Opcode) -> int:
        """Number of instructions with the given opcode."""
        return sum(1 for inst in self.instructions if inst.opcode is opcode)


class ProgramBuilder:
    """Fluent helper to assemble :class:`WarpProgram` objects.

    Register ids are plain ints chosen by the caller; ``fresh()`` hands out
    ids above 1000 for temporaries so they never collide with the caller's
    numbering scheme.

    The register-only emitters build each distinct instruction once per
    ``instructions`` table, keyed by its arguments ``(opcode, dst, srcs,
    group, tag, payload)``: the warp builders of one kernel pass one dict,
    so a loop body repeated across warps and iterations is built once.
    Without a table a builder gets its own. Instructions are frozen and
    the SM keys its issue records by value, so a shared object simulates
    exactly like a fresh equal one. Memory instructions are built on every
    call; their caller hands in a ready :class:`MemAccess`.
    """

    def __init__(
        self, name: str, instructions: dict[tuple, Instruction] | None = None
    ) -> None:
        self._program = WarpProgram(name)
        self._next_temp = 1000
        self._instructions = {} if instructions is None else instructions

    def fresh(self) -> int:
        """Allocate a temporary register id."""
        self._next_temp += 1
        return self._next_temp

    def emit(self, instruction: Instruction) -> "ProgramBuilder":
        self._program.instructions.append(instruction)
        return self

    def _register_only(
        self,
        opcode: Opcode,
        dst: tuple[int, ...] = (),
        srcs: tuple[int, ...] = (),
        group: int | None = None,
        tag: str = "",
        payload: tuple[int, ...] = (),
    ) -> "ProgramBuilder":
        """Emit the table's instruction for these arguments, built on first use."""
        key = (opcode, dst, srcs, group, tag, payload)
        instruction = self._instructions.get(key)
        if instruction is None:
            instruction = self._instructions[key] = Instruction(
                opcode, dst, srcs, group=group, tag=tag, payload=payload
            )
        self._program.instructions.append(instruction)
        return self

    def ffma(self, dst: int, a: int, b: int, c: int, tag: str = "") -> "ProgramBuilder":
        return self._register_only(Opcode.FFMA, (dst,), (a, b, c), tag=tag)

    def hfma2(self, dst: int, a: int, b: int, c: int, tag: str = "") -> "ProgramBuilder":
        return self._register_only(Opcode.HFMA2, (dst,), (a, b, c), tag=tag)

    def imad(self, dst: int, a: int, b: int, c: int, tag: str = "") -> "ProgramBuilder":
        return self._register_only(Opcode.IMAD, (dst,), (a, b, c), tag=tag)

    def mov(self, dst: int, src: int, tag: str = "") -> "ProgramBuilder":
        return self._register_only(Opcode.MOV, (dst,), (src,), tag=tag)

    def lds(self, dst: int, access: MemAccess, addr_reg: int, tag: str = "") -> "ProgramBuilder":
        return self.emit(Instruction(Opcode.LDS, (dst,), (addr_reg,), mem=access, tag=tag))

    def sts(self, access: MemAccess, data_reg: int, addr_reg: int, tag: str = "") -> "ProgramBuilder":
        return self.emit(Instruction(Opcode.STS, (), (data_reg, addr_reg), mem=access, tag=tag))

    def ldg(self, dst: int, access: MemAccess, addr_reg: int, tag: str = "") -> "ProgramBuilder":
        return self.emit(Instruction(Opcode.LDG, (dst,), (addr_reg,), mem=access, tag=tag))

    def stg(self, access: MemAccess, data_reg: int, addr_reg: int, tag: str = "") -> "ProgramBuilder":
        return self.emit(Instruction(Opcode.STG, (), (data_reg, addr_reg), mem=access, tag=tag))

    def hmma(self, dst: int, a: int, b: int, c: int, tag: str = "") -> "ProgramBuilder":
        return self._register_only(Opcode.HMMA, (dst,), (a, b, c), tag=tag)

    def lsma(
        self,
        a_addr_reg: int,
        c_addr_reg: int,
        b_value_reg: int,
        height_reg: int,
        k_extent: int,
        unit_id: int = 0,
        tag: str = "",
    ) -> "ProgramBuilder":
        """The paper's LSMA instruction (Eq. 1): C[out] <- A[in] x B + C[in].

        Four register operands: addresses of A and C, one element value of B,
        and the height of A. Executes asynchronously on the systolic
        controller; ``k_extent`` tells the timing model how many rows stream
        through the array.
        """
        return self._register_only(
            Opcode.LSMA,
            srcs=(a_addr_reg, c_addr_reg, b_value_reg, height_reg),
            tag=tag,
            payload=(k_extent, unit_id),
        )

    def bar(self, tag: str = "") -> "ProgramBuilder":
        return self._register_only(Opcode.BAR, tag=tag)

    def cgsync(self, group: int, tag: str = "") -> "ProgramBuilder":
        return self._register_only(Opcode.CGSYNC, group=group, tag=tag)

    def smawait(self, tag: str = "") -> "ProgramBuilder":
        return self._register_only(Opcode.SMAWAIT, tag=tag)

    def exit(self) -> "ProgramBuilder":
        return self._register_only(Opcode.EXIT)

    def build(self) -> WarpProgram:
        """Finalize and return the program (builder stays reusable)."""
        return self._program
