"""CLI error paths: bad inputs must exit 2 with a clean stderr message.

Covers `repro scenario`, `repro serve`, `repro sweep`, `repro store-diff`
and `repro fuzz` — bad spec files, unknown platform/model strings, and
conflicting flags (no tracebacks, no partial output on stdout) — and a
reader that closes stdout early, which ends the CLI with exit 1 and no
traceback.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main

SRC = Path(__file__).resolve().parents[2] / "src"


def expect_error(capsys, argv, *needles):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    for needle in needles:
        assert needle in captured.err
    return captured


class TestScenarioErrors:
    def test_missing_spec_file(self, capsys, tmp_path):
        expect_error(
            capsys,
            ["scenario", "-p", "sma:2", "--spec", str(tmp_path / "no.json")],
            "cannot read scenario file",
        )

    def test_malformed_spec_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        expect_error(
            capsys,
            ["scenario", "-p", "sma:2", "--spec", str(path)],
            "invalid scenario JSON",
        )

    def test_spec_conflicts_with_streams(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "name": "x",
            "platform": "sma:2",
            "streams": [{"name": "a", "model": "alexnet"}],
        }))
        expect_error(
            capsys,
            ["scenario", "--spec", str(path), "-s", "alexnet"],
            "drop the -s options",
        )

    def test_unknown_platform(self, capsys):
        expect_error(
            capsys,
            ["scenario", "-p", "warp9", "-s", "alexnet"],
            "unknown platform",
        )

    def test_missing_platform(self, capsys):
        expect_error(capsys, ["scenario", "-s", "alexnet"], "-p/--platform")

    def test_missing_streams(self, capsys):
        expect_error(capsys, ["scenario", "-p", "sma:2"], "-s/--stream")

    def test_bad_stream_option(self, capsys):
        expect_error(
            capsys,
            ["scenario", "-p", "sma:2", "-s", "alexnet@warp=9"],
            "unknown key",
        )

    def test_bad_stream_value(self, capsys):
        expect_error(
            capsys,
            ["scenario", "-p", "sma:2", "-s", "alexnet@prio=fast"],
            "bad value",
        )

    def test_stream_without_model(self, capsys):
        expect_error(
            capsys,
            ["scenario", "-p", "sma:2", "-s", "@prio=2"],
            "has no model spec",
        )

    def test_stream_option_without_value(self, capsys):
        expect_error(
            capsys,
            ["scenario", "-p", "sma:2", "-s", "alexnet@prio"],
            "expected key=value",
        )


class TestServeErrors:
    def test_unknown_qos_kind(self, capsys):
        expect_error(
            capsys,
            ["serve", "-p", "sma:2", "-s", "alexnet", "--qos", "jettison"],
            "unknown qos kind",
        )

    def test_queue_cap_needs_cap(self, capsys):
        expect_error(
            capsys,
            ["serve", "-p", "sma:2", "-s", "alexnet", "--qos", "queue_cap"],
            "needs a cap",
        )

    def test_drop_late_takes_one_slack(self, capsys):
        expect_error(
            capsys,
            ["serve", "-p", "sma:2", "-s", "alexnet",
             "--qos", "drop_late:0.1:0.2"],
            "at most one slack value",
        )

    def test_queue_cap_takes_one_cap(self, capsys):
        expect_error(
            capsys,
            ["serve", "-p", "sma:2", "-s", "alexnet", "--qos", "queue_cap:4:2"],
            "queue_cap takes one cap",
        )

    def test_shed_takes_cap_and_min_priority(self, capsys):
        expect_error(
            capsys,
            ["serve", "-p", "sma:2", "-s", "alexnet", "--qos", "shed:4:2:1"],
            "shed takes cap[:min_priority]",
        )

    def test_non_numeric_qos_parameter(self, capsys):
        expect_error(
            capsys,
            ["serve", "-p", "sma:2", "-s", "alexnet", "--qos", "shed:many"],
            "bad numeric parameter",
        )

    def test_empty_rates_list(self, capsys):
        expect_error(
            capsys,
            ["serve", "-p", "sma:2", "-s", "alexnet", "--explore",
             "--rates", ","],
            "needs at least one arrival rate",
        )

    def test_explore_needs_rates(self, capsys):
        expect_error(
            capsys,
            ["serve", "-p", "sma:2", "-s", "alexnet", "--explore"],
            "--rates",
        )

    def test_explore_conflicts_with_trace(self, capsys, tmp_path):
        expect_error(
            capsys,
            ["serve", "-p", "sma:2", "-s", "alexnet", "--explore",
             "--rates", "5", "--trace", str(tmp_path / "t.json")],
            "exclusive",
        )

    def test_explore_conflicts_with_save_trace(self, capsys, tmp_path):
        # Single-run-only flags are rejected, not silently ignored.
        expect_error(
            capsys,
            ["serve", "-p", "sma:2", "-s", "alexnet", "--explore",
             "--rates", "5", "--save-trace", str(tmp_path / "t.json")],
            "exclusive",
        )

    def test_explore_conflicts_with_rate(self, capsys):
        expect_error(
            capsys,
            ["serve", "-p", "sma:2", "-s", "alexnet", "--explore",
             "--rates", "5", "--rate", "10"],
            "exclusive",
        )

    def test_wrong_json_as_trace_is_clean_error(self, capsys, tmp_path):
        # Easy mix-up: the serve command writes both a ServingReport and
        # an ArrivalTrace; feeding the report back must not traceback.
        path = tmp_path / "report.json"
        path.write_text(json.dumps({
            "kind": "serving", "streams": [{"name": "a"}],
        }))
        expect_error(
            capsys,
            ["serve", "-p", "sma:2", "-s", "alexnet",
             "--trace", str(path)],
            "not an arrival trace",
        )

    def test_non_numeric_trace_times_are_clean_error(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps({
            "kind": "arrival_trace",
            "streams": {"alexnet": [0.0, "soon"]},
        }))
        expect_error(
            capsys,
            ["serve", "-p", "sma:2", "-s", "alexnet",
             "--trace", str(path)],
            "list of numbers",
        )

    def test_bad_rates_list(self, capsys):
        expect_error(
            capsys,
            ["serve", "-p", "sma:2", "-s", "alexnet", "--explore",
             "--rates", "5,fast"],
            "bad --rates",
        )

    def test_missing_trace_file(self, capsys):
        expect_error(
            capsys,
            ["serve", "-p", "sma:2", "-s", "alexnet",
             "--trace", "/nonexistent/trace.json"],
            "cannot read arrival trace",
        )

    def test_streaming_a_closed_loop_stream_names_the_way_out(
        self, capsys, tmp_path
    ):
        # The streaming driver cannot pace closed-loop releases; the
        # error tells the user how to serve the spec instead of naming
        # an internal function.
        path = tmp_path / "closed.json"
        path.write_text(json.dumps({
            "name": "closed",
            "platform": "sma:2",
            "frames": 2,
            "streams": [{
                "name": "loop",
                "model": "alexnet",
                "arrivals": {"kind": "closed_loop", "think_s": 0.001},
            }],
        }))
        captured = expect_error(
            capsys,
            ["serve", "--streaming", "--spec", str(path)],
            "stream 'loop'",
            "without --streaming",
            "Session.run_serving",
        )
        assert "instantiate_frames" not in captured.err
        assert captured.out == ""

    def test_multiple_platforms_without_explore(self, capsys):
        expect_error(
            capsys,
            ["serve", "-p", "sma:2", "-p", "gpu-tc", "-s", "alexnet"],
            "--explore",
        )

    def test_rate_conflicts_with_period_stream(self, capsys):
        expect_error(
            capsys,
            ["serve", "-p", "sma:2",
             "-s", "alexnet@period=0.1,rate=5"],
            "exclusive",
        )

    def test_unknown_arrival_kind(self, capsys):
        expect_error(
            capsys,
            ["serve", "-p", "sma:2", "-s", "alexnet@rate=5,arrival=uniform"],
            "unknown arrival kind",
        )


class TestSweepErrors:
    def test_resume_without_store(self, capsys):
        expect_error(
            capsys,
            ["sweep", "-p", "sma:2", "-g", "64", "--resume"],
            "result store",
        )

    def test_unknown_platform_fails_fast(self, capsys):
        expect_error(
            capsys,
            ["sweep", "-p", "warp9", "-g", "64"],
            "unknown platform",
        )


class TestStoreDiffErrors:
    def test_missing_left_store(self, capsys, tmp_path):
        right = tmp_path / "right.sqlite"
        right.write_bytes(b"")
        expect_error(
            capsys,
            ["store-diff", str(tmp_path / "left.sqlite"), str(right)],
            "does not exist",
        )

    def test_missing_right_store(self, capsys, tmp_path):
        left = tmp_path / "left.sqlite"
        left.write_bytes(b"")
        expect_error(
            capsys,
            ["store-diff", str(left), str(tmp_path / "right.sqlite")],
            "does not exist",
        )


class TestFuzzFileErrors:
    def test_missing_fuzz_file(self, capsys, tmp_path):
        expect_error(
            capsys,
            ["fuzz", "replay", str(tmp_path / "absent.json")],
            "cannot read fuzz file",
        )

    def test_fuzz_file_not_json(self, capsys, tmp_path):
        path = tmp_path / "case.json"
        path.write_text("{not json")
        expect_error(
            capsys, ["fuzz", "replay", str(path)], "is not valid JSON"
        )

    def test_fuzz_file_not_an_object(self, capsys, tmp_path):
        path = tmp_path / "case.json"
        path.write_text("[1, 2]")
        expect_error(
            capsys,
            ["fuzz", "shrink", str(path), "-o", str(tmp_path / "min.json")],
            "must hold a JSON object",
        )


class TestClosedPipe:
    """``repro ... | head -1``: the reader is gone before the CLI writes."""

    @pytest.mark.parametrize(
        "unbuffered", ["", "1"], ids=["buffered", "unbuffered"]
    )
    @pytest.mark.parametrize(
        "argv", [["catalog", "show", "v100"], ["list"]], ids=" ".join
    )
    def test_exits_1_with_empty_stderr(self, argv, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "repro", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env={
                    **os.environ,
                    "PYTHONPATH": str(SRC),
                    "PYTHONUNBUFFERED": unbuffered,
                },
                timeout=300,
            )
        finally:
            os.close(write_end)
        assert result.stderr == ""
        assert result.returncode == 1
