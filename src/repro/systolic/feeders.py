"""Per-cycle operand feed / drain schedules for each dataflow.

These schedules are what the shared-memory bank analysis consumes: they say
*which matrix coordinates* are touched in each cycle, and the layout maps
coordinates to bank addresses. The key asymmetry (paper SS III-B):

* both dataflows read an anti-diagonal of A every cycle (uncoalesced);
* the TPU weight-stationary dataflow also *writes a diagonal of C* every
  cycle, while the semi-broadcast dataflow writes one full row of C, which
  coalesces into a single register-file transaction.
"""

from __future__ import annotations


def diagonal_a_coords(
    cycle: int, m_extent: int, k_extent: int
) -> list[tuple[int, int]]:
    """A-matrix coordinates ``(m, k)`` read at ``cycle`` (both dataflows).

    Column ``k`` of the array consumes ``A[cycle - k, k]``; coordinates
    outside the matrix (fill/drain cycles) are omitted.
    """
    coords = []
    for k in range(k_extent):
        m = cycle - k
        if 0 <= m < m_extent:
            coords.append((m, k))
    return coords


def output_coords_semi_broadcast(
    cycle: int, m_extent: int, k_extent: int, n_extent: int
) -> list[tuple[int, int]]:
    """C coordinates ``(m, n)`` emitted at ``cycle`` — one full row.

    The east edge of the N x K array completes row ``m = cycle - (K - 1)``
    for all N columns simultaneously (coalesced write).
    """
    m = cycle - (k_extent - 1)
    if 0 <= m < m_extent:
        return [(m, n) for n in range(n_extent)]
    return []


def output_coords_weight_stationary(
    cycle: int, m_extent: int, k_extent: int, n_extent: int
) -> list[tuple[int, int]]:
    """C coordinates ``(m, n)`` emitted at ``cycle`` — a diagonal.

    The south edge of the K x N array emits ``C[cycle - (K-1) - n, n]``:
    one element per column, each from a *different* row of C.
    """
    coords = []
    for n in range(n_extent):
        m = cycle - (k_extent - 1) - n
        if 0 <= m < m_extent:
            coords.append((m, n))
    return coords

