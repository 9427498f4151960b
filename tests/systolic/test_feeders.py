"""Feed/drain schedule tests."""

from repro.systolic.dataflow import Dataflow, analyze_dataflow_cost
from repro.systolic.feeders import (
    diagonal_a_coords,
    output_coords_semi_broadcast,
    output_coords_weight_stationary,
)

#: (M, K, N) tile shapes the drain schedules are checked on.
_SHAPES = [
    (m, k, n)
    for m in (1, 2, 5, 8, 16, 33, 128)
    for k in (1, 2, 3, 8, 16)
    for n in (1, 2, 4, 8, 16)
]


def _assert_drains_exactly_once(dataflow, schedule):
    """Over the cost model's streaming cycles, ``schedule`` emits every C
    element once, the last in the final cycle, and nothing afterwards."""
    for m, k, n in _SHAPES:
        ideal = analyze_dataflow_cost(dataflow, m, k, n).ideal_streaming_cycles
        emitted = [
            (cycle, coord)
            for cycle in range(ideal)
            for coord in schedule(cycle, m, k, n)
        ]
        coords = sorted(coord for _cycle, coord in emitted)
        assert coords == [(row, col) for row in range(m) for col in range(n)]
        assert max(cycle for cycle, _coord in emitted) == ideal - 1
        assert not any(
            schedule(cycle, m, k, n) for cycle in range(ideal, ideal + m + k + n)
        )


class TestDiagonalFeed:
    def test_skew_window(self):
        # Cycle 3 with K=8: columns 0..3 active (rows 3..0).
        coords = diagonal_a_coords(3, m_extent=16, k_extent=8)
        assert coords == [(3, 0), (2, 1), (1, 2), (0, 3)]

    def test_steady_state_full_diagonal(self):
        coords = diagonal_a_coords(10, m_extent=16, k_extent=8)
        assert len(coords) == 8
        assert all(m + k == 10 for m, k in coords)

    def test_drain_window(self):
        coords = diagonal_a_coords(17, m_extent=16, k_extent=8)
        assert all(m < 16 for m, _k in coords)
        assert len(coords) < 8

    def test_out_of_range_empty(self):
        assert diagonal_a_coords(100, 16, 8) == []


class TestOutputSchedules:
    def test_semi_broadcast_one_row_per_cycle(self):
        out = output_coords_semi_broadcast(7, m_extent=16, k_extent=8, n_extent=8)
        assert out == [(0, n) for n in range(8)]

    def test_semi_broadcast_before_first_row(self):
        assert output_coords_semi_broadcast(3, 16, 8, 8) == []

    def test_ws_diagonal_spans_rows(self):
        out = output_coords_weight_stationary(12, 16, 8, 8)
        # Each column emits a different C row: m + n is constant.
        assert all(m + n == 12 - 7 for m, n in out)
        rows = [m for m, _n in out]
        assert rows == sorted(rows, reverse=True)

    def test_total_outputs_cover_matrix(self):
        _assert_drains_exactly_once(
            Dataflow.WEIGHT_STATIONARY, output_coords_weight_stationary
        )

    def test_semi_broadcast_covers_matrix(self):
        _assert_drains_exactly_once(
            Dataflow.SEMI_BROADCAST_WS, output_coords_semi_broadcast
        )
