"""Server lifecycle and typed client errors over real TCP and stdio."""

import io
import time
from dataclasses import replace

import pytest

from repro.api import Session, TimingCache
from repro.cluster import ClusterClient, ClusterServer, protocol
from repro.cluster.client import parse_address
from repro.errors import (
    ClusterConnectionError,
    ClusterUnavailableError,
    ConfigError,
    FingerprintMismatchError,
    ProtocolVersionError,
)
from repro.sweep import SweepSpec, expand, run_sweep

GRID = expand(SweepSpec(platforms=("sma:2",), gemms=(128, 256)))
POINTS = tuple(GRID)


@pytest.fixture()
def server():
    with ClusterServer(jobs=1) as srv:
        srv.start()
        yield srv


class TestAddressParsing:
    def test_host_port(self):
        assert parse_address("10.0.0.2:7070") == ("10.0.0.2", 7070)
        assert parse_address("[::1]:7070") == ("::1", 7070)

    @pytest.mark.parametrize("bad", ("7070", "host:", ":7070", "host:abc"))
    def test_rejects_malformed(self, bad):
        with pytest.raises(ConfigError):
            parse_address(bad)


class TestServerLifecycle:
    def test_hello_status_submit(self, server):
        with ClusterClient(server.address) as client:
            welcome = client.hello()
            assert welcome["protocol"] == protocol.PROTOCOL_VERSION
            assert welcome["state"] == "serving"
            reports, _delta = client.submit_points(POINTS)
            status = client.status()
        local = run_sweep(GRID, session=Session(cache=TimingCache()))
        assert reports == local.report_by_id()
        assert status["submissions"] == 1
        assert status["points"] == len(POINTS)

    def test_warm_resubmission_reports_hits_via_status(self, server):
        """Tentpole acceptance: warm resubmission => cache hits > 0."""
        with ClusterClient(server.address) as client:
            client.submit_points(POINTS)
            assert client.status()["cache"]["hits"] == 0
            client.submit_points(POINTS)
            status = client.status()
        assert status["cache"]["hits"] > 0
        assert status["cache"]["misses"] == len(POINTS)

    def test_cache_persists_across_connections(self, server):
        with ClusterClient(server.address) as first:
            first.submit_points(POINTS)
        with ClusterClient(server.address) as second:
            status = second.status()
            second.submit_points(POINTS)
            warm = second.status()
        assert status["cache"]["timings"] == len(POINTS)
        assert warm["cache"]["hits"] > 0

    def test_drain_refuses_submissions_with_typed_error(self, server):
        with ClusterClient(server.address) as client:
            client.drain()
            assert client.status()["state"] == "draining"
            with pytest.raises(ClusterUnavailableError, match="draining"):
                client.submit_points(POINTS)

    def test_graceful_shutdown(self, server):
        with ClusterClient(server.address) as client:
            response = client.shutdown()
        assert response["state"] == "stopped"
        server.wait()
        with pytest.raises(ClusterConnectionError):
            ClusterClient(server.address).status()

    def test_idle_close_returns_promptly(self):
        # With serve_forever's default 0.5 s poll, an idle close took 0.45 s.
        server = ClusterServer(jobs=1)
        server.start()
        start = time.monotonic()
        server.close()
        assert time.monotonic() - start < 0.25

    def test_connect_to_dead_port_is_typed(self):
        with pytest.raises(ClusterConnectionError, match="cannot connect"):
            ClusterClient("127.0.0.1:1").status()


class TestTypedRejections:
    def test_version_mismatch_is_refused(self, server):
        client = ClusterClient(server.address)
        try:
            bad = {**protocol.status_message(), "v": 999}
            with pytest.raises(ProtocolVersionError, match="protocol"):
                client._rpc(bad)
        finally:
            client.close()

    def test_fingerprint_mismatch_is_refused(self, server):
        forged = (replace(POINTS[0], fingerprint="0" * 64),)
        with ClusterClient(server.address) as client:
            with pytest.raises(FingerprintMismatchError, match="diverged"):
                client.submit_points(forged)
            # The server survives the refusal and still serves good work.
            reports, _delta = client.submit_points(POINTS)
        assert len(reports) == len(POINTS)

    def test_unknown_verb_is_protocol_error(self, server):
        from repro.errors import ClusterProtocolError

        with ClusterClient(server.address) as client:
            with pytest.raises(ClusterProtocolError, match="unknown verb"):
                client._rpc(
                    {"v": protocol.PROTOCOL_VERSION, "type": "warp-nine"}
                )


class TestStdioTransport:
    def _converse(self, *messages) -> list[dict]:
        stdin = io.BytesIO(
            b"".join(protocol.encode_message(m) for m in messages)
        )
        stdout = io.BytesIO()
        from repro.cluster.server import serve_stdio

        serve_stdio(jobs=1, stdin=stdin, stdout=stdout)
        return [
            protocol.decode_message(line)
            for line in stdout.getvalue().splitlines()
        ]

    def test_status_and_submit_over_stdio(self):
        responses = self._converse(
            protocol.hello_message(),
            protocol.submit_message(POINTS),
            protocol.status_message(),
        )
        assert [r["type"] for r in responses] == ["welcome", "result", "status"]
        reports, _cache = protocol.parse_result(responses[1])
        local = run_sweep(GRID, session=Session(cache=TimingCache()))
        assert reports == local.report_by_id()
        assert responses[2]["points"] == len(POINTS)

    def test_malformed_line_answers_error_and_continues(self):
        stdin = io.BytesIO(
            b"this is not json\n"
            + protocol.encode_message(protocol.status_message())
        )
        stdout = io.BytesIO()
        from repro.cluster.server import serve_stdio

        serve_stdio(jobs=1, stdin=stdin, stdout=stdout)
        first, second = [
            protocol.decode_message(line)
            for line in stdout.getvalue().splitlines()
        ]
        assert first["type"] == "error" and first["code"] == "protocol"
        assert second["type"] == "status"
