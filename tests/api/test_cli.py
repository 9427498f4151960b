"""CLI tests for the Session-backed subcommands and `catalog`."""

import json

import pytest

from repro.__main__ import main


class TestList:
    def test_lists_platforms_and_models(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for needle in ("experiments:", "platforms", "models:", "sma",
                       "mask_rcnn", "fig7_left"):
            assert needle in out


class TestBench:
    def test_table(self, capsys):
        assert main(["bench", "256", "-p", "sma:2"]) == 0
        out = capsys.readouterr().out
        assert "GEMM 256x256x256" in out
        assert "sma:2" in out
        assert "shared GEMM cache" in out

    def test_json(self, capsys):
        assert main(["bench", "128x256x512", "-p", "gpu-tc", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data[0]["kind"] == "gemm"
        assert (data[0]["m"], data[0]["n"], data[0]["k"]) == (128, 256, 512)

    def test_bad_shape(self):
        with pytest.raises(SystemExit):
            main(["bench", "12xbanana"])


class TestCatalog:
    def test_list_table_names_every_device(self, capsys):
        from repro.catalog.loader import device_names, get_device

        assert main(["catalog", "list"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("device catalog")
        for name in device_names():
            row = next(line for line in out.splitlines()
                       if line.split("|")[0].strip() == name)
            assert get_device(name).fingerprint() in row

    def test_list_json_is_every_device_spec(self, capsys):
        from repro.catalog.loader import device_names, get_device

        assert main(["catalog", "list", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == [get_device(name).to_dict() for name in device_names()]

    def test_show_table_lists_config_and_interference(self, capsys):
        assert main(["catalog", "show", "volta"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("device v100")
        rows = {
            cells[0].strip(): cells[1].strip()
            for cells in (line.split("|") for line in out.splitlines())
            if len(cells) == 2
        }
        assert rows["family"] == "gpu"
        assert rows["gpu.num_sms"] == "80"
        assert rows["gpu.tensor_cores_per_sm"] == "4"
        assert "interference.tc->simd" in rows

    def test_show_tpu_device_lists_its_tpu_config(self, capsys):
        assert main(["catalog", "show", "tpu-v2"]) == 0
        out = capsys.readouterr().out
        assert "tpu." in out
        assert "gpu." not in out

    def test_show_json_is_the_device_spec(self, capsys):
        from repro.catalog.loader import get_device
        from repro.catalog.specs import DeviceSpec

        assert main(["catalog", "show", "a100", "--json"]) == 0
        spec = DeviceSpec.from_json(capsys.readouterr().out)
        assert spec == get_device("a100")

    def test_unknown_device_is_clean_error(self, capsys):
        assert main(["catalog", "show", "banana"]) == 2
        assert "unknown device 'banana'" in capsys.readouterr().err


class TestSimulate:
    def test_table_lists_each_platform(self, capsys):
        assert main(["simulate", "alexnet", "sma:2", "gpu-tc"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("alexnet: end-to-end latency per platform")
        platforms = [line.split("|")[0].strip() for line in out.splitlines()
                     if "|" in line][1:]
        assert platforms == ["sma:2", "gpu-tc"]
        assert "shared GEMM cache" in out

    def test_json(self, capsys):
        assert main(["simulate", "alexnet", "sma:2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["reports"][0]["model"] == "alexnet"
        assert data["reports"][0]["platform"] == "sma:2"

    def test_unknown_model_is_clean_error(self, capsys):
        assert main(["simulate", "resnext", "sma:2"]) == 2
        assert "unknown model" in capsys.readouterr().err


class TestSweepTable:
    def test_table_marks_simulated_then_stored_points(self, tmp_path, capsys):
        store = tmp_path / "sweep.sqlite"
        argv = ["sweep", "-p", "sma:2", "-p", "gpu-tc", "-g", "64",
                "--store", str(store)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "sweep: 2 requests, 1 worker(s), 2 simulated," in first
        assert f"result store: {store} (2 results)" in first
        assert main(argv + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert "0 simulated, 2 loaded from store" in second
        sources = [line.split("|")[-1].strip() for line in second.splitlines()
                   if "64x64x64" in line]
        assert sources == ["store", "store"]


class TestStoreDiff:
    def _make_store(self, path, seconds=1.0):
        from repro.api import SimRequest
        from repro.api.results import GemmReport
        from repro.sweep.grid import SweepPoint, request_fingerprint
        from repro.sweep.store import ResultStore

        request = SimRequest(platform="sma:2", gemm=None, model="alexnet")
        fingerprint = request_fingerprint(request)
        point = SweepPoint(
            index=0,
            request_id=f"model-{fingerprint[:12]}",
            fingerprint=fingerprint,
            request=request,
        )
        report = GemmReport(
            platform="sma:2", backend="sma", m=1, n=1, k=1, dtype="fp16",
            alpha=1.0, beta=0.0, seconds=seconds, cycles=1.0, tb_cycles=1.0,
            tflops=1.0, efficiency=1.0, sm_efficiency=1.0,
        )
        with ResultStore(path) as store:
            store.put([(point, report)])

    def test_identical_stores_pass(self, tmp_path, capsys):
        left, right = tmp_path / "a.sqlite", tmp_path / "b.sqlite"
        self._make_store(left)
        self._make_store(right)
        assert main(["store-diff", str(left), str(right)]) == 0
        assert "0 changed" in capsys.readouterr().out

    def test_changed_payload_fails_the_gate(self, tmp_path, capsys):
        left, right = tmp_path / "a.sqlite", tmp_path / "b.sqlite"
        self._make_store(left, seconds=1.0)
        self._make_store(right, seconds=2.0)
        assert main(["store-diff", str(left), str(right)]) == 1
        captured = capsys.readouterr()
        assert "1 changed" in captured.out
        assert "regression gate" in captured.err

    def test_json_output(self, tmp_path, capsys):
        left, right = tmp_path / "a.sqlite", tmp_path / "b.sqlite"
        self._make_store(left)
        self._make_store(right)
        assert main(["store-diff", str(left), str(right), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["identical"] is True


class TestScenarioCliErrors:
    def test_needs_streams_or_spec(self, capsys):
        assert main(["scenario", "-p", "sma:2"]) == 2
        assert "stream" in capsys.readouterr().err

    def test_bad_stream_option(self, capsys):
        assert main(
            ["scenario", "-p", "sma:2", "-s", "alexnet@bogus=1"]
        ) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_needs_platform(self, capsys):
        assert main(["scenario", "-s", "alexnet"]) == 2
        assert "platform" in capsys.readouterr().err

    def test_missing_store_is_clean_error(self, tmp_path, capsys):
        from repro.sweep.store import ResultStore

        present = tmp_path / "present.sqlite"
        ResultStore(present).close()
        missing = tmp_path / "missing.sqlite"
        assert main(["store-diff", str(missing), str(present)]) == 2
        assert "does not exist" in capsys.readouterr().err
        assert not missing.exists()  # sqlite must not create it

    def test_malformed_spec_json_is_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["scenario", "--spec", str(bad)]) == 2
        assert "invalid scenario JSON" in capsys.readouterr().err

    def test_spec_missing_keys_is_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x", "streams": [{"name": "a"}]}')
        assert main(["scenario", "--spec", str(bad), "-p", "sma:2"]) == 2
        assert "missing 'model'" in capsys.readouterr().err

    def test_spec_conflicting_streams_rejected(self, tmp_path, capsys):
        spec = tmp_path / "s.json"
        spec.write_text(
            '{"name": "x", "platform": "sma:2",'
            ' "streams": [{"name": "a", "model": "alexnet"}]}'
        )
        assert main(
            ["scenario", "--spec", str(spec), "-s", "goturn"]
        ) == 2
        assert "drop the -s" in capsys.readouterr().err

    def test_spec_flags_override_file(self, tmp_path, capsys):
        spec = tmp_path / "s.json"
        spec.write_text(
            '{"name": "x", "platform": "sma:2", "frames": 1,'
            ' "streams": [{"name": "a", "model": "alexnet"}]}'
        )
        assert main(
            ["scenario", "--spec", str(spec), "--frames", "2",
             "--name", "renamed", "--json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["frames"] == 2
        assert data["scenario"] == "renamed"
