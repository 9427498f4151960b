"""Wire protocol: framing round-trips, version and fingerprint checks."""

import pytest

from repro.api import SimRequest
from repro.cluster import protocol
from repro.errors import (
    ClusterError,
    ClusterProtocolError,
    ClusterUnavailableError,
    FingerprintMismatchError,
    ProtocolVersionError,
)
from repro.gemm.cache import CacheEntries
from repro.sweep.grid import SweepSpec, expand

GRID = expand(SweepSpec(platforms=("sma:2",), models=("alexnet",), gemms=(128,)))


class TestFraming:
    def test_message_round_trip(self):
        message = protocol.submit_message(tuple(GRID), 0.0)
        line = protocol.encode_message(message)
        assert line.endswith(b"\n") and line.count(b"\n") == 1
        assert protocol.decode_message(line) == message

    def test_rejects_non_json(self):
        with pytest.raises(ClusterProtocolError, match="not valid JSON"):
            protocol.decode_message(b"{nope\n")

    def test_rejects_untyped_frames(self):
        with pytest.raises(ClusterProtocolError, match="'type'"):
            protocol.decode_message(b"[1, 2]\n")
        with pytest.raises(ClusterProtocolError, match="'type'"):
            protocol.decode_message(b'{"v": 1}\n')

    def test_rejects_non_utf8(self):
        with pytest.raises(ClusterProtocolError, match="UTF-8"):
            protocol.decode_message(b"\xff\xfe\n")

    def test_oversized_outgoing_frame_rejected(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 64)
        with pytest.raises(ClusterProtocolError, match="64-byte frame limit"):
            protocol.encode_message(protocol.submit_message(tuple(GRID), 0.0))

    def test_oversized_incoming_frame_rejected(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 64)
        line = protocol.encode_message(protocol.hello_message())
        assert protocol.decode_message(line) == protocol.hello_message()
        with pytest.raises(ClusterProtocolError, match="64-byte limit"):
            protocol.decode_message(b" " * 65)


class TestVersioning:
    def test_current_version_passes(self):
        protocol.check_version(protocol.hello_message())

    @pytest.mark.parametrize("version", (0, 2, None, "1"))
    def test_other_versions_rejected(self, version):
        message = {**protocol.hello_message(), "v": version}
        with pytest.raises(ProtocolVersionError):
            protocol.check_version(message)


class TestPoints:
    def test_point_round_trip(self):
        for point in GRID:
            wired = protocol.point_from_wire(protocol.point_to_wire(point))
            assert wired == point

    def test_verify_accepts_matching_fingerprints(self):
        protocol.verify_points(tuple(GRID))

    def test_verify_rejects_tampered_fingerprint(self):
        point = next(iter(GRID))
        from dataclasses import replace

        forged = replace(point, fingerprint="0" * 64)
        with pytest.raises(FingerprintMismatchError, match="diverged"):
            protocol.verify_points((forged,))

    def test_verify_honors_overhead_extras(self):
        # The same request under a different framework overhead is a
        # different stored identity; the server must not accept one as
        # the other.
        grid = expand(
            SweepSpec(
                platforms=("sma:2",),
                models=("alexnet",),
                framework_overhead_s=0.0,
            )
        )
        points = tuple(grid)
        protocol.verify_points(points, 0.0)
        with pytest.raises(FingerprintMismatchError):
            protocol.verify_points(points, None)

    def test_point_must_be_an_object(self):
        with pytest.raises(ClusterProtocolError, match="must be an object"):
            protocol.point_from_wire(["request_id", "fingerprint"])

    def test_point_from_wire_rejects_garbage(self):
        with pytest.raises(ClusterProtocolError):
            protocol.point_from_wire({"request_id": "x"})
        with pytest.raises(ClusterProtocolError, match="undecodable"):
            protocol.point_from_wire(
                {
                    "request_id": "x",
                    "fingerprint": "f",
                    "request": {"platform": "sma:2"},  # no workload
                }
            )


class TestResults:
    def test_result_round_trip(self):
        from repro.api import Session, TimingCache

        session = Session(cache=TimingCache())
        point = next(p for p in GRID if p.request.kind == "gemm")
        report = session.run_request(point.request)
        message = protocol.result_message(
            {point.request_id: report}, session.cache.export_entries()
        )
        decoded = protocol.decode_message(protocol.encode_message(message))
        reports, cache = protocol.parse_result(decoded)
        assert reports == {point.request_id: report}
        assert isinstance(cache, CacheEntries)
        assert len(cache.timings) == 1

    def test_parse_result_rejects_wrong_type(self):
        with pytest.raises(ClusterProtocolError, match="expected a result"):
            protocol.parse_result(protocol.hello_message())

    def test_parse_result_rejects_an_entry_without_request_id(self):
        message = {"type": "result", "reports": [{"report": {}}]}
        with pytest.raises(ClusterProtocolError, match="malformed result"):
            protocol.parse_result(message)

    def test_parse_result_rejects_an_undecodable_report(self):
        message = {
            "type": "result",
            "reports": [{"request_id": "r0", "report": {"kind": "nope"}}],
        }
        with pytest.raises(ClusterProtocolError, match="'r0' is undecodable"):
            protocol.parse_result(message)

    def test_cache_blob_must_hold_cache_entries(self):
        import base64
        import pickle

        blob = base64.b64encode(pickle.dumps({"timings": {}})).decode("ascii")
        with pytest.raises(ClusterProtocolError, match="expected CacheEntries"):
            protocol.decode_cache_entries(blob)

    def test_cache_blob_round_trip_rejects_garbage(self):
        entries = CacheEntries(timings={}, windows={})
        blob = protocol.encode_cache_entries(entries)
        assert protocol.decode_cache_entries(blob) == entries
        with pytest.raises(ClusterProtocolError, match="undecodable"):
            protocol.decode_cache_entries("!!!not-base64!!!")


class TestErrors:
    @pytest.mark.parametrize(
        "code,exc",
        [
            ("protocol", ClusterProtocolError),
            ("version_mismatch", ProtocolVersionError),
            ("fingerprint_mismatch", FingerprintMismatchError),
            ("unavailable", ClusterUnavailableError),
            ("internal", ClusterError),
        ],
    )
    def test_error_frames_raise_typed(self, code, exc):
        message = protocol.error_message(code, "boom")
        with pytest.raises(exc, match="boom"):
            protocol.raise_for_error(message)

    def test_error_code_mapping(self):
        assert (
            protocol.error_code_for(FingerprintMismatchError("x"))
            == "fingerprint_mismatch"
        )
        assert (
            protocol.error_code_for(ProtocolVersionError("x"))
            == "version_mismatch"
        )
        assert protocol.error_code_for(ValueError("x")) == "internal"

    def test_unknown_error_code_rejected(self):
        with pytest.raises(ClusterProtocolError, match="unknown error code"):
            protocol.error_message("meltdown", "boom")

    def test_non_error_frames_pass_through(self):
        protocol.raise_for_error(protocol.hello_message())


class TestFuzzResults:
    def test_parse_fuzz_result_rejects_wrong_type(self):
        with pytest.raises(ClusterProtocolError, match="expected a fuzz_result"):
            protocol.parse_fuzz_result(protocol.hello_message())

    def test_parse_fuzz_result_rejects_an_undecodable_record(self):
        message = protocol.fuzz_result_message(())
        message["records"] = [{"index": "zero"}]
        with pytest.raises(ClusterProtocolError, match="record is undecodable"):
            protocol.parse_fuzz_result(message)
