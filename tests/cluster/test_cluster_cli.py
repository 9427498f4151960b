"""`repro cluster` CLI: happy paths and typed failures exit nonzero."""

import json

import pytest

from repro.__main__ import main
from repro.cluster import ClusterClient, ClusterServer


@pytest.fixture()
def server():
    with ClusterServer(jobs=1) as srv:
        srv.start()
        yield srv


def run_cli(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr()


class TestStatusAndLifecycle:
    def test_status_human(self, capsys, server):
        code, captured = run_cli(capsys, ["cluster", "status", server.address])
        assert code == 0
        assert "serving" in captured.out
        assert "protocol v1" in captured.out

    def test_status_json(self, capsys, server):
        code, captured = run_cli(
            capsys, ["cluster", "status", server.address, "--json"]
        )
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["type"] == "status"
        assert payload["state"] == "serving"

    def test_drain_then_shutdown(self, capsys, server):
        code, captured = run_cli(capsys, ["cluster", "drain", server.address])
        assert code == 0 and "draining" in captured.out
        code, captured = run_cli(
            capsys, ["cluster", "shutdown", server.address]
        )
        assert code == 0 and "stopped" in captured.out
        server.wait()

    def test_unreachable_server_exits_2(self, capsys):
        code, captured = run_cli(capsys, ["cluster", "status", "127.0.0.1:1"])
        assert code == 2
        assert captured.err.startswith("error:")
        assert "cannot connect" in captured.err

    def test_bad_address_exits_2(self, capsys):
        code, captured = run_cli(capsys, ["cluster", "status", "nonsense"])
        assert code == 2
        assert "host:port" in captured.err

    def test_serve_has_no_cache_file(self, capsys):
        """The pool cache lives only in the server process."""
        with pytest.raises(SystemExit) as excinfo:
            main(["cluster", "serve", "--port", "0", "--cache", "timings.pkl"])
        assert excinfo.value.code == 2
        assert "--cache" in capsys.readouterr().err


class TestClusterSweep:
    def test_sweep_against_server_matches_local(
        self, capsys, server, tmp_path, monkeypatch
    ):
        import repro.gemm.cache as cache_mod
        from repro.api import TimingCache

        remote_store = tmp_path / "remote.sqlite"
        local_store = tmp_path / "local.sqlite"
        argv_tail = ["-p", "sma:2", "-g", "128", "-g", "256"]
        # Each CLI run gets a cold process-wide cache, as separate
        # interpreter invocations would — otherwise the second run's
        # reports wear cached=True and the stores differ by that flag.
        monkeypatch.setattr(cache_mod, "_PROCESS_CACHE", TimingCache())
        code, _ = run_cli(
            capsys,
            ["cluster", "sweep", *argv_tail, "--server", server.address,
             "--store", str(remote_store), "--json"],
        )
        assert code == 0
        monkeypatch.setattr(cache_mod, "_PROCESS_CACHE", TimingCache())
        code, _ = run_cli(
            capsys,
            ["sweep", *argv_tail, "--store", str(local_store), "--json"],
        )
        assert code == 0
        code, captured = run_cli(
            capsys, ["store-diff", str(local_store), str(remote_store)]
        )
        assert code == 0
        assert "2 unchanged, 0 changed" in captured.out

    def test_sweep_against_dead_server_exits_2(self, capsys):
        code, captured = run_cli(
            capsys,
            ["cluster", "sweep", "-p", "sma:2", "-g", "128",
             "--server", "127.0.0.1:1"],
        )
        assert code == 2
        assert "dead or draining" in captured.err


class TestClusterServing:
    STREAMS = [
        "-s", "alexnet@rate=40,seed=3",
        "-s", "goturn@rate=40,seed=3",
    ]

    def test_local_and_remote_split_agree(self, capsys, server):
        base = ["cluster", "serving", "-p", "sma:2", "--frames", "2",
                "--name", "split", *self.STREAMS, "--partitions", "2",
                "--json"]
        code, local = run_cli(capsys, [*base, "--local"])
        assert code == 0
        code, remote = run_cli(
            capsys, [*base, "--server", server.address]
        )
        assert code == 0
        assert json.loads(local.out) == json.loads(remote.out)
        payload = json.loads(local.out)
        assert payload["kind"] == "serving"
        assert payload["scenario"] == "split"
        assert [s["name"] for s in payload["streams"]] == [
            "alexnet", "goturn",
        ]

    def test_local_and_server_flags_are_exclusive(self, capsys, server):
        code, captured = run_cli(
            capsys,
            ["cluster", "serving", "-p", "sma:2", *self.STREAMS,
             "--local", "--server", server.address],
        )
        assert code == 2
        assert "not both" in captured.err

    def test_needs_local_or_server(self, capsys):
        code, captured = run_cli(
            capsys, ["cluster", "serving", "-p", "sma:2", *self.STREAMS]
        )
        assert code == 2
        assert "--server" in captured.err
