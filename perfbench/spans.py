"""In-memory span recording around the simulator's public entry points.

The benchmark never edits the program: a :class:`SpanRecorder` replaces
class methods and module attributes at run time with thin wrappers that
record one span per call (name, start, end, parent, thread, counts) and
puts the originals back on :meth:`SpanRecorder.uninstall`. Spans stay in
memory; :func:`layer_totals` folds them into per-layer figures and
:func:`chrome_trace` writes them as Chrome trace-event JSON.

A span opened on a thread with nothing open on that thread (a dispatch
worker thread, the loopback cluster server's handler) is parented to the
span opened last among those still open on any thread. Load is one op at
a time, so that span is the call blocked on this thread's work (the
client's RPC waiting for the server), and a layer's self time (its span
minus its child spans) stays correct across threads.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    thread: int = 0
    counts: dict = field(default_factory=dict)


def _sm_counts(args, result) -> dict:
    return {
        "sim_insts": int(result.counters.get("instructions_issued")),
        "sim_cycles": float(result.cycles),
    }


def _schedule_counts(args, result) -> dict:
    return {
        "tasks": len(args[1]),
        "segments": len(result.segments),
        "drops": len(result.drops),
    }


#: Sweep payload frames by direction; control frames (status probes,
#: whose counters grow over a server's life) are not counted.
_WIRE_DIRECTION = {"submit": "bytes_out", "result": "bytes_in"}


def _wire_counts(args, result) -> dict:
    key = _WIRE_DIRECTION.get(args[0].get("type"))
    return {key: len(result)} if key else {}


def _length_counts(args, result) -> dict:
    return {"bytes": len(result)}


#: (span name, module, class or None, attribute, count extractor or None).
#: Module attributes are patched where a caller imported the name itself.
TARGETS = (
    ("dnn.build_model", "repro.api.registry", None, "build_model", None),
    ("dnn.build_model", "repro.api.session", None, "build_model", None),
    ("platforms.lower_model", "repro.platforms.base", "Platform", "lower_model", None),
    ("gemm.time_gemm", "repro.gemm.executor", "GemmExecutor", "time_gemm", None),
    ("gpu.sm.run", "repro.gpu.sm", "StreamingMultiprocessor", "run", _sm_counts),
    ("schedule.instantiate", "repro.api.session", None, "instantiate_frames", None),
    ("schedule.run", "repro.schedule.timeline", "TimelineScheduler", "run", _schedule_counts),
    ("api.report_build", "repro.api.results", "GemmReport", "from_timing", None),
    ("api.report_build", "repro.api.results", "ModelReport", "from_result", None),
    ("api.report_build", "repro.api.results", "ScheduleReport", "from_timeline", None),
    ("api.report_build", "repro.api.results", "ServingReport", "from_timeline", None),
    ("api.encode", "repro.api.results", "GemmReport", "to_dict", None),
    ("api.encode", "repro.api.results", "ModelReport", "to_dict", None),
    ("api.encode", "repro.api.results", "ScheduleReport", "to_dict", None),
    ("api.encode", "repro.api.results", "ServingReport", "to_dict", None),
    ("api.decode", "repro.api.results", None, "report_from_dict", None),
    ("api.decode", "repro.sweep.store", None, "report_from_dict", None),
    ("api.decode", "repro.cluster.protocol", None, "report_from_dict", None),
    ("sweep.expand", "repro.sweep.grid", None, "expand", None),
    ("sweep.expand", "repro.sweep.workers", None, "expand", None),
    ("sweep.expand", "repro.cluster.dispatch", None, "expand", None),
    ("sweep.store.put", "repro.sweep.store", "ResultStore", "put", None),
    ("sweep.store.read", "repro.sweep.store", "ResultStore", "get", None),
    ("cluster.rpc", "repro.cluster.client", "ClusterClient", "status", None),
    ("cluster.rpc", "repro.cluster.client", "ClusterClient", "submit_points", None),
    ("cluster.server.execute", "repro.cluster.pool", "WarmPool", "run_points", None),
    ("cluster.wire", "repro.cluster.protocol", None, "encode_message", _wire_counts),
    ("cluster.cache_entries", "repro.cluster.protocol", None, "encode_cache_entries", _length_counts),
)


class SpanRecorder:
    """Records spans from wrapped callables; one recorder per traced op."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._open_spans: list[int] = []
        self._threads: dict[int, int] = {threading.main_thread().ident: 0}
        self._patched: list[tuple[object, str, object]] = []
        #: Targets the program no longer has (renamed or removed entry
        #: points). A traced run fails its check for each: its layer would
        #: read 0, a gain that is not the program's.
        self.missing: list[str] = []

    # -- recording ---------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> tuple[list[int], int]:
        stack = self._stack()
        with self._lock:
            if stack:
                parent = stack[-1]
            else:
                parent = self._open_spans[-1] if self._open_spans else None
            thread = self._threads.setdefault(threading.get_ident(), len(self._threads))
            index = len(self.spans)
            self.spans.append(Span(name, 0.0, parent=parent, thread=thread))
            self._open_spans.append(index)
        stack.append(index)
        self.spans[index].start = time.perf_counter()
        return stack, index

    def _close(self, stack: list[int], index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        stack.pop()
        with self._lock:
            self._open_spans.remove(index)
        return span

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the benchmark's own calls."""
        stack, index = self._open(name)
        try:
            yield
        finally:
            self._close(stack, index)

    def wrap(self, name: str, function, counts=None):
        recorder = self

        def traced(*args, **kwargs):
            stack, index = recorder._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                span = recorder._close(stack, index)
            if counts is not None:
                span.counts = counts(args, result)
            return result

        traced.__wrapped__ = function
        return traced

    # -- patching ----------------------------------------------------------------------
    def patch(self, owner, attribute: str, name: str, counts=None) -> None:
        """Replace ``owner.attribute`` with a recording wrapper."""
        static = inspect.getattr_static(owner, attribute)
        if isinstance(static, classmethod):
            replacement = classmethod(self.wrap(name, static.__func__, counts))
        else:
            replacement = self.wrap(name, static, counts)
        self._patched.append((owner, attribute, static))
        setattr(owner, attribute, replacement)

    def patch_item(self, mapping: dict, key, name: str) -> None:
        """Replace one dict entry (a runner table) with a recording wrapper."""
        original = mapping[key]
        self._patched.append((mapping, key, original))
        mapping[key] = self.wrap(name, original)

    def install(self) -> "SpanRecorder":
        """Wrap every entry point in :data:`TARGETS` that still exists."""
        for name, module_name, class_name, attribute, counts in TARGETS:
            path = ".".join(filter(None, (module_name, class_name, attribute)))
            try:
                owner = importlib.import_module(module_name)
                if class_name is not None:
                    owner = getattr(owner, class_name)
                getattr(owner, attribute)
            except (ImportError, AttributeError):
                self.missing.append(path)
                continue
            self.patch(owner, attribute, name, counts)
        return self

    def uninstall(self) -> None:
        """Put every original back (in reverse, so stacked patches unwind)."""
        for owner, attribute, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attribute] = original
            else:
                setattr(owner, attribute, original)
        self._patched.clear()

    def to_list(self) -> list[dict]:
        return [vars(span) for span in self.spans]


def spans_from_list(items) -> list[Span]:
    return [Span(**item) for item in items]


# -- aggregation -----------------------------------------------------------------------
@dataclass
class LayerTotal:
    calls: int = 0
    host_s: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)


def layer_totals(spans: list[Span], root: int | None = None) -> dict[str, LayerTotal]:
    """Per-name calls, inclusive host time, self time and summed counts.

    With ``root``, only spans beneath that span count. Inclusive time sums
    the outermost span of each name, so a layer that re-enters itself is
    not counted twice; self time subtracts every direct child.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start

    def ancestors(index: int):
        parent = spans[index].parent
        while parent is not None:
            yield parent
            parent = spans[parent].parent

    totals: dict[str, LayerTotal] = {}
    for index, span in enumerate(spans):
        chain = list(ancestors(index))
        if root is not None and root not in chain:
            continue
        total = totals.setdefault(span.name, LayerTotal())
        duration = span.end - span.start
        total.calls += 1
        total.self_s += duration - child_time[index]
        if all(spans[other].name != span.name for other in chain):
            total.host_s += duration
        for key, value in span.counts.items():
            total.counts[key] = total.counts.get(key, 0) + value
    return totals


def chrome_trace(spans: list[Span], *, name: str) -> dict:
    """The spans as a Chrome trace-event payload (complete ``X`` events)."""
    origin = min((span.start for span in spans), default=0.0)
    events: list[dict] = [
        {"ph": "M", "pid": 1, "tid": 0, "name": "process_name", "args": {"name": name}}
    ]
    for thread in sorted({span.thread for span in spans}):
        label = "main" if thread == 0 else f"thread-{thread}"
        events.append(
            {"ph": "M", "pid": 1, "tid": thread, "name": "thread_name", "args": {"name": label}}
        )
    for span in spans:
        events.append(
            {
                "ph": "X",
                "pid": 1,
                "tid": span.thread,
                "name": span.name,
                "ts": (span.start - origin) * 1e6,
                "dur": max(0.0, span.end - span.start) * 1e6,
                "args": dict(span.counts),
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
