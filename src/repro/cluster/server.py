"""The cluster server daemon: a long-lived simulation service.

A :class:`ClusterServer` owns one :class:`~repro.cluster.pool.WarmPool`
(warm process pool + shared timing cache) and answers the wire protocol
of :mod:`repro.cluster.protocol` over TCP (``repro cluster serve``) or a
plain byte-stream pair (``--stdio``, or in-process tests). Many clients
may connect over its lifetime; they all feed the same pool, which is the
whole point — the second submission finds the cache the first one filled.

Lifecycle: ``serving`` accepts everything; ``drain`` flips to
``draining``, where submissions are refused with a typed ``unavailable``
error while status/introspection keep working; ``shutdown`` drains,
waits for in-flight submissions to finish, acknowledges, and stops the
listener — a graceful exit that never abandons accepted work.
"""

from __future__ import annotations

import socketserver
import threading

from repro.cluster import protocol
from repro.cluster.pool import WarmPool
from repro.errors import (
    ClusterProtocolError,
    ConfigError,
    ProtocolVersionError,
)
from repro.gemm.cache import TimingCache
from repro.obs.selfprof import profile_phase


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:  # pragma: no cover - exercised via TCP tests
        self.server.cluster.serve_stream(self.rfile, self.wfile)


class _TcpServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    cluster: "ClusterServer"


class ClusterServer:
    """A long-lived simulation service over one warm pool.

    ``port=0`` binds an ephemeral port (tests); :meth:`start` returns the
    bound ``(host, port)``. ``cache_path`` pre-warms the pool cache from
    a :meth:`~repro.gemm.cache.TimingCache.save` file when it exists.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        jobs: int = 1,
        cache: TimingCache | None = None,
        cache_path=None,
    ) -> None:
        self.host = host
        self.port = port
        self.pool = WarmPool(jobs=jobs, cache=cache)
        if cache_path is not None:
            from pathlib import Path

            if Path(cache_path).exists():
                self.pool.cache.load(cache_path)
        self.state = "serving"
        self._tcp: _TcpServer | None = None
        self._thread: threading.Thread | None = None
        self._inflight = 0
        self._idle = threading.Condition()
        self._stopped = threading.Event()

    # -- lifecycle ---------------------------------------------------------------------
    def start(self) -> tuple[str, int]:
        """Bind and serve on a background thread; returns (host, port)."""
        if self._tcp is not None:
            raise ConfigError("cluster server is already started")
        self._tcp = _TcpServer((self.host, self.port), _Handler)
        self._tcp.cluster = self
        self.host, self.port = self._tcp.server_address[:2]
        self._thread = threading.Thread(
            target=self._tcp.serve_forever, name="cluster-server", daemon=True
        )
        self._thread.start()
        return self.host, self.port

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def wait(self) -> None:
        """Block until the server is stopped (shutdown verb or close)."""
        self._stopped.wait()
        if self._thread is not None:
            self._thread.join()

    def close(self) -> None:
        """Stop listening and release the pool; idempotent."""
        tcp, self._tcp = self._tcp, None
        if tcp is not None:
            tcp.shutdown()
            tcp.server_close()
        self.pool.close()
        self._stopped.set()

    def __enter__(self) -> "ClusterServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _stop_async(self) -> None:
        # ThreadingTCPServer.shutdown must not run on the serve_forever
        # thread; handler threads are distinct, but detach anyway so the
        # shutdown acknowledgement is written before the listener dies.
        threading.Thread(target=self.close, daemon=True).start()

    # -- protocol ----------------------------------------------------------------------
    def serve_stream(self, rfile, wfile) -> None:
        """Answer one peer's messages until EOF (TCP handler and stdio)."""
        while True:
            line = rfile.readline(protocol.MAX_FRAME_BYTES + 2)
            if not line:
                return
            if not line.strip():
                continue
            response, stop = self.handle_line(line)
            try:
                frame = protocol.encode_message(response)
            except ClusterProtocolError as error:
                # E.g. a result too large for one frame: answer with a
                # typed error rather than dying without a reply.
                frame = protocol.encode_message(
                    protocol.error_message("protocol", str(error))
                )
                stop = False
            wfile.write(frame)
            wfile.flush()
            if stop:
                self._stop_async()
                return

    def handle_line(self, line: bytes | str) -> tuple[dict, bool]:
        """Decode and answer one frame; returns (response, stop-serving)."""
        try:
            message = protocol.decode_message(line)
            protocol.check_version(message)
            return self._dispatch(message)
        except ProtocolVersionError as error:
            return protocol.error_message("version_mismatch", str(error)), False
        except ClusterProtocolError as error:
            return protocol.error_message("protocol", str(error)), False

    def _dispatch(self, message: dict) -> tuple[dict, bool]:
        verb = message["type"]
        if verb == "hello":
            return self._welcome(), False
        if verb == "status":
            return self._status(), False
        if verb == "metrics":
            return self._metrics(), False
        if verb == "drain":
            with self._idle:
                self.state = "draining"
            return self._ok(), False
        if verb == "shutdown":
            # State flips and the in-flight wait share one lock with
            # submission admission, so a submit either lands before the
            # drain (and is waited for) or is refused — never abandoned.
            with self._idle:
                self.state = "draining"
                self._idle.wait_for(lambda: self._inflight == 0)
                self.state = "stopped"
            return self._ok(), True
        if verb == "submit":
            return self._admitted(self._submit, message)
        if verb == "fuzz":
            return self._admitted(self._fuzz, message)
        return (
            protocol.error_message("protocol", f"unknown verb {verb!r}"),
            False,
        )

    def _admitted(self, handler, message: dict) -> tuple[dict, bool]:
        """Run one ``submit``/``fuzz`` verb through the admission gate.

        Admission is atomic with the drain/shutdown state flip: a server
        that is not serving refuses with a typed ``unavailable`` error,
        and once inflight is bumped here a concurrent shutdown waits for
        the handler to finish — accepted work is never abandoned.
        """
        with self._idle:
            if self.state != "serving":
                return (
                    protocol.error_message(
                        "unavailable",
                        f"server {self.address} is {self.state}; submissions"
                        " are refused",
                    ),
                    False,
                )
            self._inflight += 1
        try:
            return handler(message), False
        finally:
            with self._idle:
                self._inflight -= 1
                self._idle.notify_all()

    def _submit(self, message: dict) -> dict:
        try:
            points = tuple(
                protocol.point_from_wire(item)
                for item in message.get("points", ())
            )
            overhead = message.get("framework_overhead_s")
            protocol.verify_points(points, overhead)
        except Exception as error:
            return protocol.error_message(
                protocol.error_code_for(error), str(error)
            )
        try:
            with profile_phase(self.pool.metrics, "rpc_submit"):
                reports, cache = self.pool.run_points(points, overhead)
            return protocol.result_message(reports, cache)
        except Exception as error:
            return protocol.error_message("internal", f"shard failed: {error}")

    def _fuzz(self, message: dict) -> dict:
        # Deferred: repro.fuzz sits above the cluster layer.
        from repro.fuzz.campaign import run_indices

        try:
            seed = int(message["seed"])
            indices = [int(index) for index in message["indices"]]
            shrink = bool(message.get("shrink", True))
            inject = message.get("inject")
            differential = bool(message.get("differential", False))
        except (KeyError, TypeError, ValueError) as error:
            return protocol.error_message(
                "protocol", f"malformed fuzz shard: {error!r}"
            )
        try:
            with profile_phase(self.pool.metrics, "rpc_fuzz"):
                records = run_indices(
                    seed,
                    indices,
                    shrink=shrink,
                    inject=inject,
                    differential=differential,
                )
            return protocol.fuzz_result_message(records)
        except Exception as error:
            return protocol.error_message(
                "internal", f"fuzz shard failed: {error}"
            )

    # -- responses ---------------------------------------------------------------------
    def _ok(self) -> dict:
        return {
            "v": protocol.PROTOCOL_VERSION,
            "type": "ok",
            "state": self.state,
        }

    def _welcome(self) -> dict:
        return {
            "v": protocol.PROTOCOL_VERSION,
            "type": "welcome",
            "protocol": protocol.PROTOCOL_VERSION,
            "state": self.state,
            "jobs": self.pool.jobs,
        }

    def _status(self) -> dict:
        return {
            "v": protocol.PROTOCOL_VERSION,
            "type": "status",
            "protocol": protocol.PROTOCOL_VERSION,
            "state": self.state,
            "address": self.address,
            "inflight": self._inflight,
            **self.pool.status(),
        }

    def _metrics(self) -> dict:
        return {
            "v": protocol.PROTOCOL_VERSION,
            "type": "metrics",
            "state": self.state,
            "address": self.address,
            "metrics": self.pool.metrics_snapshot(),
        }


def serve_stdio(
    jobs: int = 1, cache_path=None, stdin=None, stdout=None
) -> None:
    """Serve the protocol over stdin/stdout (single-peer transport)."""
    import sys

    server = ClusterServer(jobs=jobs, cache_path=cache_path)
    rfile = stdin if stdin is not None else sys.stdin.buffer
    wfile = stdout if stdout is not None else sys.stdout.buffer
    try:
        server.serve_stream(rfile, wfile)
    finally:
        server.pool.close()


__all__ = ["ClusterServer", "serve_stdio"]
