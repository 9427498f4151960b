"""Register-file bank / operand-collector bandwidth model.

The register file is the structure whose bandwidth limits TensorCore GEMM
(paper SS II-A: "high register bandwidth consumption ... leads to its low
FLOPS efficiency"). We model it as a per-cycle budget of warp-wide operand
reads and writes: each bank delivers one 128 B warp operand per cycle and
the operand collectors arbitrate with a fixed efficiency that accounts for
bank camping between warps executing identical code.
"""

from __future__ import annotations

from repro.config import GpuConfig
from repro.errors import SimulationError


class RegisterFileModel:
    """Operand-port capacities and the operands a run moved.

    The SM books each issue's operand reads and writes on its ``rf_read``
    and ``rf_write`` :class:`~repro.gpu.sm.ThroughputResource` at
    ``1 / capacity`` cycles per operand, so an issue that finds a port's
    queue full stalls as ``stall_rf_read`` or ``stall_rf_write``; it adds
    what issued to :attr:`total_reads` and :attr:`total_writes`.
    """

    def __init__(self, config: GpuConfig, collector_efficiency: float = 0.9) -> None:
        if not (0.0 < collector_efficiency <= 1.0):
            raise SimulationError("collector_efficiency must be in (0, 1]")
        self.config = config
        # One read port per bank; arbitration efficiency covers collisions
        # between warps whose identical register numbering camps on banks.
        self.read_capacity = config.register_file_banks * collector_efficiency
        self.write_capacity = self.read_capacity / 2.0
        self.total_reads = 0.0
        self.total_writes = 0.0
