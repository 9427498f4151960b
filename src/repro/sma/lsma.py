"""Functional semantics of the LSMA instruction (paper Eq. 1).

``LSMA B => C[out] <- A[in] x B + C[in]``

One LSMA streams the rows of an A tile (M x K) through a systolic unit
whose resident weights are a B sub-tile (K x N), accumulating into a C
slice (M x N). The computation itself runs on the semi-broadcast
weight-stationary array; this module validates shapes, performs the
functional execution, and describes the four register operands.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MappingError
from repro.systolic.array import SystolicArray
from repro.systolic.dataflow import Dataflow


@dataclass(frozen=True)
class LsmaOperation:
    """The architectural operands of one LSMA instruction.

    Four register operands (paper SS IV-B): the shared-memory address of the
    first A element, the register-file address of the first C element, one
    element value of B (issued per resident weight), and the height of A
    (the flexible K x 8 x 8 shape's streaming extent).
    """

    a_address: int
    c_address: int
    b_height: int          # rows of the resident B sub-tile (array K)
    stream_rows: int       # height of A: rows streamed through the array

    def __post_init__(self) -> None:
        if self.stream_rows <= 0:
            raise MappingError("LSMA must stream at least one A row")
        if self.b_height <= 0:
            raise MappingError("LSMA needs a non-empty resident B tile")


def execute_lsma(
    a_tile: np.ndarray,
    b_subtile: np.ndarray,
    c_slice: np.ndarray | None = None,
    dataflow: Dataflow = Dataflow.SEMI_BROADCAST_WS,
) -> np.ndarray:
    """Run one LSMA functionally: returns ``a_tile @ b_subtile + c_slice``.

    The multiply runs cycle-by-cycle on the systolic array simulator, so
    the result is exactly what the hardware's dataflow would produce.
    """
    import numpy as np

    a_tile = np.asarray(a_tile, dtype=np.float64)
    b_subtile = np.asarray(b_subtile, dtype=np.float64)
    if a_tile.ndim != 2 or b_subtile.ndim != 2:
        raise MappingError("LSMA operands must be 2-D tiles")
    if a_tile.shape[1] != b_subtile.shape[0]:
        raise MappingError(
            f"LSMA reduction mismatch: A is {a_tile.shape}, B is {b_subtile.shape}"
        )
    k_extent, n_extent = b_subtile.shape
    if dataflow is Dataflow.SEMI_BROADCAST_WS:
        array = SystolicArray(rows=n_extent, cols=k_extent, dataflow=dataflow)
    elif dataflow is Dataflow.WEIGHT_STATIONARY:
        array = SystolicArray(rows=k_extent, cols=n_extent, dataflow=dataflow)
    else:
        raise MappingError(f"LSMA does not support dataflow {dataflow}")
    result = array.run_gemm(a_tile, b_subtile)
    if c_slice is None:
        return result.c
    c_slice = np.asarray(c_slice, dtype=np.float64)
    if c_slice.shape != result.c.shape:
        raise MappingError(
            f"C slice shape {c_slice.shape} != product shape {result.c.shape}"
        )
    return result.c + c_slice
