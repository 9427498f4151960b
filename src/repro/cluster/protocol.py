"""The cluster wire protocol: versioned, fingerprint-checked JSON lines.

Every message is one JSON object on one ``\\n``-terminated line, carrying
its protocol version under ``"v"`` — a server rejects any frame whose
version differs from its own with a typed ``version_mismatch`` error
rather than mis-parsing it. The verbs:

* ``hello`` / ``welcome`` — handshake and server introspection;
* ``status`` — pool and cache counters of a running server;
* ``metrics`` — the server's mergeable metrics-registry snapshot;
* ``submit`` / ``result`` — a shard of sweep points out, typed reports
  plus a :class:`~repro.gemm.cache.CacheEntries` delta back;
* ``drain`` / ``shutdown`` — lifecycle, acknowledged with ``ok``;
* ``error`` — a typed failure (``code`` selects the exception class).

Shard points travel as their canonical ``SimRequest`` dicts *plus* the
client-computed content fingerprint; the server re-derives the
fingerprint from the decoded request and refuses the shard on any
mismatch (:class:`~repro.errors.FingerprintMismatchError`) — a client and
server whose canonicalization diverged must fail loudly, not return
results keyed under the wrong identity. Reports cross the wire in their
``to_dict()`` JSON form (the same encoding the sqlite result store uses,
so a remote report equals its local twin bit-for-bit); cache entries are
pickled and base64-wrapped, the same snapshot sweep workers already ship
across process boundaries.
"""

from __future__ import annotations

import base64
import json
import pickle

from repro.api.results import (
    GemmReport,
    ModelReport,
    SimRequest,
    report_from_dict,
)
from repro.errors import (
    ClusterError,
    ClusterProtocolError,
    ClusterUnavailableError,
    FingerprintMismatchError,
    ProtocolVersionError,
)
from repro.gemm.cache import CacheEntries
from repro.sweep.grid import SweepPoint, point_extras, request_fingerprint

#: Bump on any incompatible wire change; both sides refuse a mismatch.
PROTOCOL_VERSION = 1

#: A single frame (reports + cache blob) may not exceed this.
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: ``error`` codes and the exception each one raises client-side, ordered
#: most-specific first (:func:`error_code_for` scans in order, and e.g. a
#: version mismatch is also a protocol error).
ERROR_TYPES = {
    "version_mismatch": ProtocolVersionError,
    "fingerprint_mismatch": FingerprintMismatchError,
    "unavailable": ClusterUnavailableError,
    "protocol": ClusterProtocolError,
    "internal": ClusterError,
}


# -- framing ---------------------------------------------------------------------------
def encode_message(message: dict) -> bytes:
    """One message as its ``\\n``-terminated JSON line."""
    line = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(line) > MAX_FRAME_BYTES:
        raise ClusterProtocolError(
            f"message of {len(line)} bytes exceeds the"
            f" {MAX_FRAME_BYTES}-byte frame limit"
        )
    return line + b"\n"


def decode_message(line: bytes | str) -> dict:
    """Parse one received line into its message dict."""
    if isinstance(line, bytes):
        if len(line) > MAX_FRAME_BYTES:
            raise ClusterProtocolError(
                f"frame of {len(line)} bytes exceeds the"
                f" {MAX_FRAME_BYTES}-byte limit"
            )
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as error:
            raise ClusterProtocolError(
                f"frame is not valid UTF-8: {error}"
            ) from None
    try:
        message = json.loads(line)
    except json.JSONDecodeError as error:
        raise ClusterProtocolError(f"frame is not valid JSON: {error}") from None
    if not isinstance(message, dict) or "type" not in message:
        raise ClusterProtocolError(
            f"frame must be an object with a 'type', got {message!r}"
        )
    return message


def check_version(message: dict) -> None:
    """Refuse a frame whose protocol version differs from ours."""
    version = message.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolVersionError(
            f"peer speaks protocol version {version!r}, this side speaks"
            f" {PROTOCOL_VERSION}"
        )


# -- cache entries ---------------------------------------------------------------------
def encode_cache_entries(entries: CacheEntries) -> str:
    """A cache snapshot as a base64 string (pickle, like worker shipping)."""
    return base64.b64encode(
        pickle.dumps(entries, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def decode_cache_entries(text: str) -> CacheEntries:
    try:
        entries = pickle.loads(base64.b64decode(text.encode("ascii")))
    except Exception as error:
        raise ClusterProtocolError(
            f"undecodable cache-entries blob: {error}"
        ) from None
    if not isinstance(entries, CacheEntries):
        raise ClusterProtocolError(
            f"cache blob holds {type(entries).__name__}, expected CacheEntries"
        )
    return entries


# -- shard points ----------------------------------------------------------------------
def point_to_wire(point: SweepPoint) -> dict:
    return {
        "index": point.index,
        "request_id": point.request_id,
        "fingerprint": point.fingerprint,
        "request": point.request.to_dict(),
    }


def point_from_wire(data: dict) -> SweepPoint:
    if not isinstance(data, dict):
        raise ClusterProtocolError(
            f"shard point must be an object, got {data!r}"
        )
    for key in ("request_id", "fingerprint", "request"):
        if key not in data:
            raise ClusterProtocolError(f"shard point is missing {key!r}")
    try:
        request = SimRequest.from_dict(data["request"])
    except Exception as error:
        raise ClusterProtocolError(
            f"shard point {data.get('request_id')!r} carries an undecodable"
            f" request: {error}"
        ) from None
    return SweepPoint(
        index=int(data.get("index", 0)),
        request_id=str(data["request_id"]),
        fingerprint=str(data["fingerprint"]),
        request=request,
    )


def verify_points(
    points, framework_overhead_s: float | None = None
) -> None:
    """Re-derive every point's fingerprint; refuse the shard on mismatch.

    This is the config check of the protocol: the fingerprint is a
    SHA-256 over the request's canonical JSON (plus sweep extras), so a
    mismatch means the two sides would disagree about what the request
    *is* — results computed anyway would be stored under a wrong key.

    Catalog-backed requests additionally pin the device-catalog spec:
    the wire request carries the client's catalog fingerprint, and the
    server recomputes its own from the same platform spec. A difference
    means the two hosts would simulate *different hardware* under the
    same name, so the shard is refused even though the wire fingerprint
    (which hashes the client's catalog value) is internally consistent.
    """
    from repro.catalog.loader import catalog_fingerprint

    for point in points:
        expected = request_fingerprint(
            point.request,
            point_extras(framework_overhead_s, point.request.kind),
        )
        if expected != point.fingerprint:
            raise FingerprintMismatchError(
                f"point {point.request_id!r}: client fingerprint"
                f" {point.fingerprint[:12]}... does not match this server's"
                f" {expected[:12]}... — client and server configurations"
                " have diverged"
            )
        local_catalog = catalog_fingerprint(point.request.platform)
        if point.request.catalog != local_catalog:
            raise FingerprintMismatchError(
                f"point {point.request_id!r}: client catalog fingerprint"
                f" {point.request.catalog!r} does not match this server's"
                f" {local_catalog!r} for platform"
                f" {point.request.platform!r} — the device catalogs have"
                " diverged"
            )


# -- message builders ------------------------------------------------------------------
def hello_message() -> dict:
    return {"v": PROTOCOL_VERSION, "type": "hello"}


def status_message() -> dict:
    return {"v": PROTOCOL_VERSION, "type": "status"}


def metrics_message() -> dict:
    """Ask a server for its metrics snapshot (see ``repro.obs.metrics``).

    The reply's ``metrics`` object is a registry snapshot — counters,
    gauges, and histogram sketch multisets — that merges associatively
    with any other server's, so a client can fold a whole fleet into one
    view in any order.
    """
    return {"v": PROTOCOL_VERSION, "type": "metrics"}


def drain_message() -> dict:
    return {"v": PROTOCOL_VERSION, "type": "drain"}


def shutdown_message() -> dict:
    return {"v": PROTOCOL_VERSION, "type": "shutdown"}


def submit_message(
    points, framework_overhead_s: float | None = None
) -> dict:
    return {
        "v": PROTOCOL_VERSION,
        "type": "submit",
        "framework_overhead_s": framework_overhead_s,
        "points": [point_to_wire(point) for point in points],
    }


def result_message(
    reports: dict[str, "GemmReport | ModelReport"], cache: CacheEntries
) -> dict:
    return {
        "v": PROTOCOL_VERSION,
        "type": "result",
        "reports": [
            {"request_id": request_id, "report": report.to_dict()}
            for request_id, report in reports.items()
        ],
        "cache": encode_cache_entries(cache),
    }


def fuzz_message(
    seed: int,
    indices,
    shrink: bool = True,
    inject: str | None = None,
    differential: bool = False,
) -> dict:
    """A fuzz shard: regenerate-and-evaluate these campaign indices.

    Cases travel as ``(seed, index)`` coordinates, not scenarios — both
    sides derive the identical case from the shared generator, so the
    shard is a few bytes regardless of batch size. ``differential``
    asks the server to re-run every case on the reference engine
    (servers default it off when absent, so the key is wire-compatible).
    """
    return {
        "v": PROTOCOL_VERSION,
        "type": "fuzz",
        "seed": int(seed),
        "indices": [int(index) for index in indices],
        "shrink": bool(shrink),
        "inject": inject,
        "differential": bool(differential),
    }


def fuzz_result_message(records) -> dict:
    """A fuzz shard's outcome: CaseRecords in their ``to_dict()`` form."""
    return {
        "v": PROTOCOL_VERSION,
        "type": "fuzz_result",
        "records": [record.to_dict() for record in records],
    }


def parse_fuzz_result(message: dict) -> list:
    """Decode a ``fuzz_result`` frame into its CaseRecords."""
    # Deferred: repro.fuzz sits above the cluster layer.
    from repro.fuzz.campaign import CaseRecord

    if message.get("type") != "fuzz_result":
        raise ClusterProtocolError(
            f"expected a fuzz_result frame, got {message.get('type')!r}"
        )
    records = []
    for item in message.get("records", ()):
        try:
            records.append(CaseRecord.from_dict(item))
        except Exception as error:
            raise ClusterProtocolError(
                f"fuzz case record is undecodable: {error}"
            ) from None
    return records


def error_message(code: str, message: str) -> dict:
    if code not in ERROR_TYPES:
        raise ClusterProtocolError(f"unknown error code {code!r}")
    return {
        "v": PROTOCOL_VERSION,
        "type": "error",
        "code": code,
        "message": message,
    }


def error_code_for(error: Exception) -> str:
    """The wire code a server reports ``error`` under."""
    for code, exc_type in ERROR_TYPES.items():
        if code != "internal" and isinstance(error, exc_type):
            return code
    return "internal"


def raise_for_error(message: dict) -> None:
    """Re-raise an ``error`` frame as its typed client-side exception."""
    if message.get("type") != "error":
        return
    code = message.get("code", "internal")
    text = message.get("message", "unspecified cluster error")
    raise ERROR_TYPES.get(code, ClusterError)(text)


def parse_result(message: dict) -> tuple[dict, CacheEntries]:
    """Decode a ``result`` frame into (reports by request ID, cache delta)."""
    if message.get("type") != "result":
        raise ClusterProtocolError(
            f"expected a result frame, got {message.get('type')!r}"
        )
    reports = {}
    for item in message.get("reports", ()):
        if not isinstance(item, dict) or "request_id" not in item:
            raise ClusterProtocolError(f"malformed result entry: {item!r}")
        try:
            reports[item["request_id"]] = report_from_dict(item["report"])
        except Exception as error:
            raise ClusterProtocolError(
                f"result for {item['request_id']!r} is undecodable: {error}"
            ) from None
    cache = decode_cache_entries(message.get("cache", ""))
    return reports, cache


__all__ = [
    "ERROR_TYPES",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "check_version",
    "decode_cache_entries",
    "decode_message",
    "drain_message",
    "encode_cache_entries",
    "encode_message",
    "error_code_for",
    "error_message",
    "fuzz_message",
    "fuzz_result_message",
    "hello_message",
    "metrics_message",
    "parse_fuzz_result",
    "parse_result",
    "point_from_wire",
    "point_to_wire",
    "raise_for_error",
    "result_message",
    "shutdown_message",
    "status_message",
    "submit_message",
    "verify_points",
]
