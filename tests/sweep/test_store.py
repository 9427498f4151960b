"""ResultStore: persistence round-trips, pending/resume logic, diffing."""

import pytest

from repro.api import GemmReport, ModelReport, OpReport
from repro.sweep.grid import SweepSpec, expand
from repro.sweep.store import ResultStore


def _grid():
    return expand(
        SweepSpec(platforms=("sma:2", "gpu-tc"), gemms=(128, 256))
    )


def _gemm_report(point, seconds=1e-4) -> GemmReport:
    request = point.request
    return GemmReport(
        platform=request.platform,
        backend="sma",
        m=request.gemm.m,
        n=request.gemm.n,
        k=request.gemm.k,
        dtype="fp16",
        alpha=1.0,
        beta=0.0,
        seconds=seconds,
        cycles=1000.0,
        tb_cycles=100.0,
        tflops=1.0,
        efficiency=0.5,
        sm_efficiency=0.9,
    )


class TestRoundTrip:
    def test_put_get_gemm(self):
        grid = _grid()
        with ResultStore(":memory:") as store:
            report = _gemm_report(grid.points[0])
            store.put([(grid.points[0], report)])
            assert store.get(grid.points[0]) == report
            assert grid.points[0] in store
            assert grid.points[1] not in store

    def test_put_get_model(self):
        grid = expand(SweepSpec(platforms=("sma:2",), models=("alexnet",)))
        report = ModelReport(
            model="alexnet",
            platform="sma:2",
            ops=(
                OpReport(
                    "conv1", "CNN&FC", "gemm-sma", 1e-3, 2e9,
                    energy={"Global": 1.0},
                ),
            ),
        )
        with ResultStore(":memory:") as store:
            store.put([(grid.points[0], report)])
            assert store.get(grid.points[0]) == report

    def test_unopenable_path_is_config_error(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            ResultStore("/nonexistent-dir/deeper/sweep.sqlite")

    def test_persists_across_reopen(self, tmp_path):
        grid = _grid()
        path = tmp_path / "sweep.sqlite"
        report = _gemm_report(grid.points[0])
        with ResultStore(path) as store:
            store.put([(grid.points[0], report)])
        with ResultStore(path) as store:
            assert len(store) == 1
            assert store.get(grid.points[0]) == report


class TestPending:
    def test_empty_store_leaves_everything_pending(self):
        grid = _grid()
        with ResultStore(":memory:") as store:
            assert store.pending(grid) == grid.points

    def test_fully_stored_grid_resumes_to_zero(self):
        grid = _grid()
        with ResultStore(":memory:") as store:
            for point in grid:
                store.put([(point, _gemm_report(point))])
            assert store.pending(grid) == ()
            reports = store.reports(grid)
            assert all(report is not None for report in reports)

    def test_changed_fingerprint_is_pending_again(self):
        grid = _grid()
        shifted = expand(
            SweepSpec(platforms=("sma:2", "gpu-tc"), gemms=(128, 256),
                      gemm_dtype="fp32")
        )
        with ResultStore(":memory:") as store:
            for point in grid:
                store.put([(point, _gemm_report(point))])
            assert len(store.pending(shifted)) == len(shifted)


class TestDiffAndMerge:
    def test_diff_identical(self):
        grid = _grid()
        with ResultStore(":memory:") as a, ResultStore(":memory:") as b:
            for point in grid:
                report = _gemm_report(point)
                a.put([(point, report)])
                b.put([(point, report)])
            diff = a.diff(b)
            assert diff.identical
            assert len(diff.unchanged) == len(grid)

    def test_diff_changed_and_missing(self):
        grid = _grid()
        with ResultStore(":memory:") as a, ResultStore(":memory:") as b:
            for point in grid.points[:3]:
                a.put([(point, _gemm_report(point))])
            for point in grid.points[1:3]:
                b.put([(point, _gemm_report(point))])
            b.put([(grid.points[2], _gemm_report(grid.points[2], seconds=9.0))])
            b.put([(grid.points[3], _gemm_report(grid.points[3]))])
            diff = a.diff(b)
            assert diff.only_left == (grid.points[0].request_id,)
            assert diff.only_right == (grid.points[3].request_id,)
            assert diff.changed == (grid.points[2].request_id,)
            assert not diff.identical

    def test_merge_from_copies_missing_rows(self):
        grid = _grid()
        with ResultStore(":memory:") as a, ResultStore(":memory:") as b:
            a.put([(grid.points[0], _gemm_report(grid.points[0]))])
            b.put([(grid.points[0], _gemm_report(grid.points[0], seconds=9.0))])
            b.put([(grid.points[1], _gemm_report(grid.points[1]))])
            added = a.merge_from(b)
            assert added == 1
            # existing rows keep the local payload (first write wins)
            assert a.get(grid.points[0]).seconds == pytest.approx(1e-4)
            assert a.get(grid.points[1]) is not None
