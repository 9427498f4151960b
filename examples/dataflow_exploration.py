#!/usr/bin/env python
"""Worked example of the paper's Fig 4: TPU vs SMA systolic dataflows.

Costs a small tile under the plain weight-stationary dataflow (TPU) and
the semi-broadcast variant (SMA) with the closed-form cost model the SMA
controller charges, showing how long each streams and how differently they
drain C — full rows (coalesceable into one register-file write) vs
diagonals (scattered) — and what that does to shared-memory banking. The
tests hold the cost model to a cycle-stepped array that computes the real
product (``tests/systolic/reference_array.py``), and the drain schedules
to the cost model.

Usage::

    python examples/dataflow_exploration.py
"""

from __future__ import annotations

from repro.api import Session
from repro.common.tables import render_table
from repro.config import DataType
from repro.gemm.problem import GemmProblem
from repro.systolic.dataflow import (
    Dataflow,
    analyze_dataflow_cost,
    output_coords,
    traits_of,
)

M, K, N = 12, 4, 4


def show_streaming_cycles() -> None:
    sb = analyze_dataflow_cost(Dataflow.SEMI_BROADCAST_WS, M, K, N)
    ws = analyze_dataflow_cost(Dataflow.WEIGHT_STATIONARY, M, K, N)
    print(f"Streaming A({M}x{K}) through a resident B({K}x{N}),"
          " fill + stream + drain:")
    print(f"  semi-broadcast: {sb.ideal_streaming_cycles} cycles (M + K - 1)")
    print(f"  weight-stationary: {ws.ideal_streaming_cycles} cycles "
          f"(+{ws.ideal_streaming_cycles - sb.ideal_streaming_cycles} from the"
          " diagonal drain)")


def show_drain_patterns() -> None:
    print()
    print("C drain schedule per cycle (row index of each emitted element):")
    rows = []
    for cycle in range(K - 1, M + K + N):
        sb_out = output_coords(Dataflow.SEMI_BROADCAST_WS, cycle, M, K, N)
        ws_out = output_coords(Dataflow.WEIGHT_STATIONARY, cycle, M, K, N)
        rows.append(
            [
                cycle,
                ",".join(str(m) for m, _n in sb_out) or "-",
                ",".join(str(m) for m, _n in ws_out) or "-",
            ]
        )
    print(render_table(["cycle", "semi-broadcast rows", "TPU-WS rows"], rows))
    print()
    print("Semi-broadcast emits one complete C row per cycle (a single")
    print("coalesced register-file write); the TPU dataflow emits elements")
    print("from different rows each cycle, which cannot coalesce.")


def show_bank_analysis() -> None:
    print()
    rows = []
    for flow in Dataflow:
        traits = traits_of(flow, 8)
        cost = analyze_dataflow_cost(flow, 128, 8, 8)
        rows.append(
            [
                traits.name,
                traits.c_drain,
                cost.contention_factor,
                cost.total_cycles,
            ]
        )
    print(render_table(
        ["dataflow", "C drain", "bank_contention", "cycles_per_tile"],
        rows,
        title="Cost of one 128x8x8 tile on the GPU substrate (paper Fig 7)",
    ))


def show_whole_gemm_impact() -> None:
    """End-to-end cost of the dataflow choice, via the Session facade."""
    print()
    session = Session()
    ws = session.executor("sma:2", dataflow=Dataflow.WEIGHT_STATIONARY)
    rows = []
    for size in (1024, 4096):
        problem = GemmProblem(size, size, size, dtype=DataType.FP16)
        t_sb = session.time_gemm("sma:2", problem)
        t_ws = ws.time_gemm(problem)
        rows.append([size, t_sb.milliseconds, t_ws.seconds * 1e3,
                     t_ws.seconds / t_sb.seconds])
    print(render_table(
        ["size", "semi-broadcast_ms", "weight-stationary_ms", "slowdown"],
        rows,
        title="Whole-GEMM cost of the dataflow choice (2-SMA, paper Fig 7)",
    ))


def main() -> None:
    show_streaming_cycles()
    show_drain_patterns()
    show_bank_analysis()
    show_whole_gemm_impact()


if __name__ == "__main__":
    main()
