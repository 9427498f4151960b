"""`repro serve`: table/JSON output and the trace-replay golden contract.

The determinism satellite: a seeded Poisson serving run, its arrival
trace serialized to JSON, must replay to the *byte-identical*
ServingReport — in-process and across processes (fresh interpreter,
fresh caches) via ``repro serve --trace``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main

REPO_ROOT = Path(__file__).resolve().parents[2]

SERVE_ARGS = [
    "serve",
    "-p", "sma:2",
    "--frames", "3",
    "--policy", "priority",
    "--qos", "drop_late:0.05",
    "--seed", "9",
    "-s", "alexnet@deadline=0.05,rate=40,prio=2,seed=9",
    "-s", "goturn@rate=40,seed=9",
]


class TestServeTable:
    def test_table_output(self, capsys):
        assert main(SERVE_ARGS) == 0
        out = capsys.readouterr().out
        for needle in ("serving", "p95_ms", "goodput_fps", "alexnet",
                       "makespan", "qos=drop_late"):
            assert needle in out

    def test_json_output(self, capsys):
        assert main(SERVE_ARGS + ["--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["kind"] == "serving"
        assert data["platform"] == "sma:2"
        assert data["offered"] == 6
        assert data["qos"] == {"kind": "drop_late", "slack_s": 0.05}

    @pytest.mark.parametrize(
        ("option", "qos"),
        [
            ("abort_late", {"kind": "abort_late"}),
            ("queue_cap:2", {"kind": "queue_cap", "cap": 2}),
            ("shed:4", {"kind": "shed", "cap": 4}),
            ("shed:4:2", {"kind": "shed", "cap": 4, "min_priority": 2.0}),
        ],
    )
    def test_qos_option_reaches_the_report(self, capsys, option, qos):
        argv = list(SERVE_ARGS)
        argv[argv.index("--qos") + 1] = option
        assert main(argv + ["--json"]) == 0
        assert json.loads(capsys.readouterr().out)["qos"] == qos

    def test_explore_output(self, capsys):
        assert main([
            "serve", "-p", "sma:2", "--frames", "2",
            "-s", "alexnet@deadline=0.1",
            "--explore", "--rates", "20,40", "--slo-ms", "100",
        ]) == 0
        out = capsys.readouterr().out
        assert "SLO exploration" in out
        assert "max sustainable rate on sma:2" in out


class TestTraceReplayGolden:
    def test_in_process_replay_is_bit_identical(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        assert main(
            SERVE_ARGS + ["--save-trace", str(trace_path), "--json"]
        ) == 0
        original = capsys.readouterr().out
        assert trace_path.exists()
        assert main(
            SERVE_ARGS + ["--trace", str(trace_path), "--json"]
        ) == 0
        replayed = capsys.readouterr().out
        assert replayed == original

    def test_cross_process_replay_is_bit_identical(self, tmp_path):
        """Two fresh interpreters: seeded run + trace replay must agree."""
        trace_path = tmp_path / "trace.json"
        env = {
            **os.environ,
            "PYTHONPATH": str(REPO_ROOT / "src"),
        }

        def serve(extra):
            result = subprocess.run(
                [sys.executable, "-m", "repro", *SERVE_ARGS, *extra],
                capture_output=True,
                text=True,
                env=env,
                cwd=REPO_ROOT,
                timeout=300,
            )
            assert result.returncode == 0, result.stderr
            return result.stdout

        original = serve(["--save-trace", str(trace_path), "--json"])
        replayed = serve(["--trace", str(trace_path), "--json"])
        assert json.loads(original)["kind"] == "serving"
        assert replayed == original

    def test_trace_file_contents_match_spec_arrivals(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        assert main(
            SERVE_ARGS + ["--save-trace", str(trace_path), "--json"]
        ) == 0
        capsys.readouterr()
        data = json.loads(trace_path.read_text())
        assert data["kind"] == "arrival_trace"
        assert set(data["streams"]) == {"alexnet", "goturn"}
        assert data["frames"] == 3
        for times in data["streams"].values():
            assert len(times) == 3
            assert times == sorted(times)
