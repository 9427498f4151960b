"""The timeline core: the reference loop's hot path, restructured.

:meth:`~repro.schedule.timeline.TimelineScheduler.run` and the streaming
serving driver run every schedule through :class:`VectorCore`. Its
semantics — and the produced :class:`~repro.schedule.timeline.Timeline`,
bit for bit — are those of the per-event reference loop in
:mod:`repro.schedule.reference`; what changes is the cost model per
event:

* **heap event queues** — ``pending`` is a binary heap keyed
  ``(release_s, uid)`` instead of a sorted list with O(n) head pops and
  O(n) sorted inserts;
* **incremental queued-frame index** — the reference loop rescans *every*
  frame head twice per event to build the QoS review dict (quadratic in
  trace length); here heads enter a sorted arrival index once, when their
  release passes, and leave it on start/drop. The dict is built again
  only when that index changes, so ``review`` and ``next_event`` share it;
* **share plans** — when a task is dispatched its policy weight, its
  counted claims and its interference pressure are folded once into a
  plan of ``(resource slot, amount * weight)`` adds and its share class
  (its counted slots and weight), whose slowdown is computed once for
  all the running tasks in it;
* **per-class columns in remaining-work order** — a running task's
  remaining work, completion limit and dispatch sequence number sit in
  its class's column, sorted by remaining work. An event advances a
  column in one ``rem - dt / slowdown`` comprehension (the reference's
  float per task), and IEEE-754 subtraction is monotonic (``a <= b``
  gives ``fl(a - s) <= fl(b - s)``), so the column stays sorted: its
  least ``rem`` is its first. The running term of ``dt`` is the least
  over columns of that first ``rem`` times the column's slowdown (exact:
  a positive factor keeps the order). A task finishes only when its
  ``rem`` is at or below its own limit, which is at most the column's
  largest limit, so only the column's prefix up to that largest limit is
  checked, each task against its own limit;
* **whole-number loads** — when fewer than 2**21 tasks run and each one's
  adds are whole numbers whose magnitudes sum below 2**32, every partial
  sum the reference forms is an integer below 2**53, so each of its
  additions is exact in any order: the loads are integer totals kept as
  tasks start and finish. Fractional adds are summed in running order;
* **slot-indexed accrual** — busy time and load integral accrue into
  per-slot float lists, each slot from 0.0 as the reference's dicts
  start a key, and the slots are remembered in the order they first
  accrued: the key order of the reference's dicts, rebuilt once at the
  end. Whether every slot the integer totals touch has accrued is a
  count kept as plans start and finish and as slots first accrue;
* **analytic solo-chain fast path** — when exactly one task runs, its
  slowdown is exactly 1.0 (unless its claims on one resource add up to
  more than its weight, which its plan records), so a dependency chain's
  completions are the plain left-to-right sum of durations. The fast
  path advances whole chain segments in a tight loop — skipping release
  scans, QoS review, and policy dispatch per step — whenever it can
  prove those would be no-ops: no other ready task, the next pending
  release and the QoS horizon strictly after the chain step's
  completion, and (under QoS) the successor is not a frame head. Every
  float operation it performs is the same operation, in the same order,
  as the reference loop's.

Bit-identity is pinned three ways: the parity suite
(``tests/schedule/test_vectorized.py``) compares reports against the
reference loop, every scenario/serving golden runs on this core, and the
differential fuzz campaign mode (``repro fuzz run --differential``)
treats any report divergence from the reference as an invariant
violation.

The core additionally supports *incremental* task injection and state
pruning (:meth:`VectorCore.inject` / :meth:`VectorCore.prune`), which is
what the bounded-memory streaming serving driver
(:mod:`repro.serving.streaming`) builds on: million-frame traces run
through the same engine without ever materializing the full task set.
"""

from __future__ import annotations

import heapq

from bisect import bisect_left, bisect_right, insort
from dataclasses import replace
from typing import NamedTuple

from repro.errors import SchedulingError
from repro.schedule.policies import (
    ExclusivePolicy,
    ExclusivePreemptPolicy,
    FifoPolicy,
    PriorityPolicy,
    SchedulingPolicy,
)
from repro.schedule.timeline import (
    _touches_substrate,
    DropRecord,
    OpTask,
    PreemptRecord,
    Timeline,
    TimelineSegment,
)
from repro.schedule.resources import ResourceKind
from repro.serving.qos import (
    AbortLatePolicy,
    AdmissionPolicy,
    DropLatePolicy,
    QueueCapPolicy,
    ShedPolicy,
)


#: The slot of each resource kind in a load vector.
_KINDS = tuple(ResourceKind)
_SLOT = {kind: slot for slot, kind in enumerate(_KINDS)}


class _Column:
    """The running tasks of one share class (``(counted slots, weight)``),
    in remaining-work order: each one's remaining work, completion limit
    and dispatch sequence number as parallel lists. While a task runs in
    the generic loop, its remaining work is stored only here.

    The order needs no re-sorting. A task enters at ``bisect_right`` of
    its work, and an event subtracts one ``step = dt / slowdown`` from
    every ``rem``; IEEE-754 subtraction is monotonic (``a <= b`` gives
    ``fl(a - s) <= fl(b - s)``), so the column stays sorted and its least
    work is ``rems[0]``. A task finishes only when its ``rem`` is at or
    below its own limit, and that limit is at most ``high``, so the
    finished tasks all lie in ``rems[:bisect_right(rems, high)]``."""

    __slots__ = ("counted", "weight", "rems", "limits", "seqs", "high",
                 "slowdown")

    def __init__(self, counted: tuple[int, ...], weight: float) -> None:
        #: Slots of the counted claims, the loads the slowdown reads.
        self.counted = counted
        self.weight = weight
        self.rems: list[float] = []
        self.limits: list[float] = []
        self.seqs: list[int] = []
        #: ``max(limits)`` while the column is not empty.
        self.high = 0.0
        #: The class's slowdown, set by ``VectorCore._compute_shares``.
        self.slowdown = 1.0


class _SharePlan(NamedTuple):
    """A dispatched task's part in the shares, built once by
    :meth:`VectorCore._build_plan` for every task with equal claims and
    policy weight."""

    #: ``(slot, amount * weight)`` load contributions in the reference
    #: loop's order: counted claims, then interference pressure.
    adds: tuple[tuple[int, float], ...]
    #: The share class's column: tasks of one class share a slowdown.
    column: _Column
    #: ``adds`` as ``(slot, int)`` pairs when each is a whole number and
    #: their magnitudes sum below 2**32, else None (see
    #: :meth:`VectorCore._compute_shares`).
    whole: tuple[tuple[int, int], ...] | None
    #: The task's slowdown when it runs alone: exactly 1.0 unless its
    #: claims on one kind add up to more than its weight. The solo chain
    #: condenses only steps at 1.0.
    solo_slowdown: float
    #: The task's ``(slot, load)`` busy/load-integral accrual when it
    #: runs alone.
    solo_accrual: tuple[tuple[int, float], ...]
    touches_substrate: bool


def _sum_loads(adds_seq) -> tuple[list, list]:
    """Sum ``(slot, amount)`` adds left to right, each slot from 0.0, as
    the reference loop builds its load dict. Returns the per-slot loads
    (None where untouched) and, in that dict's key order, ``(slot,
    min(load, 1.0))`` per touched slot: what each second of an event's
    ``dt`` adds to its busy time and load integral."""
    loads: list = [None] * len(_KINDS)
    touched: list[int] = []
    for adds in adds_seq:
        for slot, amount in adds:
            load = loads[slot]
            if load is None:
                touched.append(slot)
                load = 0.0
            loads[slot] = load + amount
    return loads, [(slot, min(loads[slot], 1.0)) for slot in touched]


def _slowdown_of(
    loads: list, counted: tuple[int, ...], weight: float
) -> float:
    """The reference loop's slowdown of a task with these counted slots
    and weight under these loads."""
    worst = 1.0
    for slot in counted:
        worst = max(worst, loads[slot] / weight)
    return worst


#: Task lifecycle states (internal).
_BLOCKED, _PENDING, _READY, _RUNNING, _DONE, _DROPPED = range(6)

#: Policies whose dispatch of a single ready task with nothing running is
#: provably that task — the precondition for the solo-chain fast path to
#: condense a dispatch without consulting the policy. Custom subclasses
#: fall back to the generic loop (correct, just slower).
#: ``exclusive_preempt`` qualifies: it dispatches exactly like
#: ``exclusive``, and a condensed step always dispatches the finished
#: kernel's sole successor (nothing else is ready), which is precisely
#: the resume case — no deschedule record could be emitted.
_FAST_POLICIES = (
    SchedulingPolicy,
    FifoPolicy,
    PriorityPolicy,
    ExclusivePolicy,
    ExclusivePreemptPolicy,
)

#: Admission policies known to honor the ``next_event`` contract (their
#: review decision cannot change before the returned horizon). The fast
#: path relies on that contract to skip reviews; unknown QoS classes
#: disable it. ``abort_late`` additionally honors ``next_inflight_event``
#: — the fast path breaks at that horizon too (in-flight expiries are
#: fixed once a head starts, and no head starts inside a condensation).
_FAST_QOS = (
    AdmissionPolicy,
    DropLatePolicy,
    QueueCapPolicy,
    ShedPolicy,
    AbortLatePolicy,
)


class VectorCore:
    """The engine state machine; one instance runs one schedule.

    ``collect`` keeps segments/drop tuples for a full
    :class:`~repro.schedule.timeline.Timeline` (materialized runs);
    streaming drivers turn it off and consume ``on_resolve`` callbacks
    instead, pruning per-task state as frames retire.

    ``on_resolve(task, end_s, drop_record)`` fires once per task, at
    completion (``end_s`` set) or drop (``drop_record`` set). The
    callback may :meth:`inject` new tasks (streaming arrival feed) but
    must not mutate engine state otherwise.

    ``tracer`` is an optional :class:`~repro.obs.trace.Tracer`; every
    emission site mirrors the reference loop's so both produce
    identical event sequences (the ``tests/obs`` parity gate), and the
    tracer never touches engine floats (transparency gate).
    """

    def __init__(
        self,
        policy,
        qos=None,
        interference=None,
        max_events: int = 10_000_000,
        collect: bool = True,
        on_resolve=None,
        tracer=None,
    ) -> None:
        self.policy = policy
        self.qos = qos
        self.matrix = interference
        self.max_events = max_events
        self.collect = collect
        self.on_resolve = on_resolve
        self.tracer = tracer

        self.by_uid: dict[int, OpTask] = {}
        self.unmet: dict[int, int] = {}
        self.dependents: dict[int, list[int]] = {}
        self.remaining: dict[int, float] = {}
        # Total charged work per task (base seconds + switch surcharge);
        # the completion epsilon scales with this (reference parity).
        self.charged: dict[int, float] = {}
        self.status: dict[int, int] = {}
        self.pending: list[tuple[float, int]] = []
        self.ready: list[OpTask] = []
        self.running: list[OpTask] = []
        self.start: dict[int, float] = {}
        self.end: dict[int, float] = {}
        self.completion_order: list[int] = []
        self.drop_records: list[DropRecord] = []
        self.substrate_mode: str | None = None
        self.substrate_stream: str | None = None
        self.mode_switches = 0
        self.switch_overhead = 0.0

        # Queued-frame index (maintained only under QoS): heads sit in
        # ``arrival_heap`` until their release passes, then in the
        # ``queued_keys`` sorted list — keyed by their *static* (build
        # time) release so review dicts iterate in exactly the reference
        # loop's head order.
        self.head_key: dict[int, tuple[float, int]] = {}
        self.arrival_heap: list[tuple[float, int]] = []
        self.queued_keys: list[tuple[float, int]] = []

        # Preemption state (bookkeeping only runs when a preemptive
        # policy/QoS is installed — non-preemptive runs take none of the
        # new branches, keeping them bit-identical to the seed engine).
        self.policy_preemptive = getattr(policy, "preemptive", False)
        self.qos_preemptive = qos is not None and getattr(
            qos, "preemptive", False
        )
        self.preempt_records: list[PreemptRecord] = []
        self.resume_uid: int | None = None
        self.frame_uids: dict[tuple[str, int], list[int]] = {}
        self.frame_left: dict[tuple[str, int], int] = {}
        self.frame_head_uid: dict[tuple[str, int], int] = {}
        self.aborted: set[tuple[str, int]] = set()
        # Started-but-unfinished frame heads, sorted by effective
        # (release, uid) — the in-flight mirror of ``queued_keys``.
        self.inflight_keys: list[tuple[float, int]] = []

        self.now = 0.0
        self.events = 0
        self.done = 0
        self.total = 0
        self.live = 0
        self.peak_live = 0

        # Share plans by (claims, weight), and in front of them by
        # (id(claims), weight): frames share their template's claim
        # tuple, so the id lookup hits without hashing claim contents.
        # Its entries are (claims, plan), holding the tuple so its id
        # cannot be reused while the entry lives.
        self._plans_by_value: dict[tuple[tuple, float], _SharePlan] = {}
        self._plans_by_id: dict[tuple[int, float], tuple] = {}
        # The column of each share class (counted slots, weight), and
        # the columns that hold running tasks.
        self._columns: dict[tuple[tuple[int, ...], float], _Column] = {}
        self._present: list[_Column] = []
        # Each task of ``running``'s plan and dispatch sequence number, in
        # running order, kept in step with it wherever a task starts or
        # finishes.
        self._running_plans: list[_SharePlan] = []
        self._running_seqs: list[int] = []
        self._seq = 0
        # Per slot, the running whole plans' adds summed and counted; and
        # the count of running fractional plans.
        self._totals = [0] * len(_KINDS)
        self._touches = [0] * len(_KINDS)
        self._fractional = 0
        # Busy time and load integral per slot, and the slots in the
        # order they first accrued (see ``accounting``). Busy time grows
        # only by positive steps, so a slot has accrued once its busy
        # time is not 0.0. ``_unaccrued`` sums ``_touches`` over the
        # slots that have not.
        self._busy = [0.0] * len(_KINDS)
        self._load = [0.0] * len(_KINDS)
        self._accrued: list[int] = []
        self._unaccrued = 0
        # Derived by ``_compute_shares`` when the running set changes:
        # ``(slot, load)`` accrual pairs and each column's slowdown.
        self._shares_dirty = True
        self._accrual: list[tuple[int, float]] = []
        # The dict ``_queued_frames`` built last, until ``queued_keys``
        # changes.
        self._queued_view: dict[str, list[OpTask]] | None = None
        self._fast_ok = type(policy) in _FAST_POLICIES and (
            qos is None or type(qos) in _FAST_QOS
        )

    # -- task intake / retirement ------------------------------------------------------
    def inject(self, tasks, presatisfied=frozenset()) -> None:
        """Register tasks (validating uids/deps exactly like the reference
        loop). ``presatisfied`` uids count as already-resolved
        dependencies — the streaming driver's bridge to pruned frames."""
        by_uid = self.by_uid
        for task in tasks:
            if task.uid in by_uid:
                raise SchedulingError("duplicate task uids in schedule")
            by_uid[task.uid] = task
        qos = self.qos
        status = self.status
        status_get = status.get
        dependents = self.dependents
        unmet_map = self.unmet
        remaining = self.remaining
        pending = self.pending
        heappush = heapq.heappush
        for task in tasks:
            uid = task.uid
            unmet = 0
            for dep in task.deps:
                if dep in by_uid:
                    if status_get(dep, _BLOCKED) in (_DONE, _DROPPED):
                        continue
                    dependents.setdefault(dep, []).append(uid)
                    unmet += 1
                elif dep not in presatisfied:
                    raise SchedulingError(
                        f"task {task.name!r} depends on unknown uid {dep}"
                    )
            unmet_map[uid] = unmet
            remaining[uid] = task.seconds
            self.charged[uid] = task.seconds
            if unmet == 0 and task.think_s is None:
                status[uid] = _PENDING
                heappush(pending, (task.release_s, uid))
            else:
                status[uid] = _BLOCKED
            if qos is not None and task.frame_head:
                self.head_key[uid] = (task.release_s, uid)
                if task.think_s is None:
                    heappush(self.arrival_heap, (task.release_s, uid))
            if self.qos_preemptive:
                key = (task.stream, task.frame)
                self.frame_uids.setdefault(key, []).append(uid)
                self.frame_left[key] = self.frame_left.get(key, 0) + 1
                if task.frame_head:
                    self.frame_head_uid[key] = uid
        self.total += len(tasks)
        self.live += len(tasks)
        if self.live > self.peak_live:
            self.peak_live = self.live

    def prune(self, uids) -> None:
        """Forget per-task state for resolved tasks (streaming retirement)."""
        for uid in uids:
            task = self.by_uid[uid]
            # Drop incoming edges from still-live predecessors (a dropped
            # frame can retire while the previous frame's tasks run) so
            # no resolution ever follows an edge to pruned state.
            for dep in task.deps:
                edges = self.dependents.get(dep)
                if edges is not None:
                    try:
                        edges.remove(uid)
                    except ValueError:
                        pass
            del self.by_uid[uid]
            self.status.pop(uid, None)
            self.unmet.pop(uid, None)
            self.remaining.pop(uid, None)
            self.charged.pop(uid, None)
            self.start.pop(uid, None)
            self.end.pop(uid, None)
            self.dependents.pop(uid, None)
            self.head_key.pop(uid, None)
            if self.qos_preemptive:
                key = (task.stream, task.frame)
                self.frame_uids.pop(key, None)
                self.frame_left.pop(key, None)
                self.frame_head_uid.pop(key, None)
                self.aborted.discard(key)
        self.live -= len(uids)

    # -- queued and in-flight frame indexes --------------------------------------------
    def _drain_arrivals(self) -> None:
        heap = self.arrival_heap
        now = self.now
        while heap and heap[0][0] <= now:
            _, uid = heapq.heappop(heap)
            if self.status.get(uid) in (_DONE, _DROPPED) or uid in self.start:
                continue
            insort(self.queued_keys, self.head_key[uid])
            self._queued_view = None

    def _discard(self, keys: list, uid: int) -> bool:
        """Take ``uid``'s head key out of the sorted ``keys``, if there."""
        key = self.head_key.get(uid)
        index = len(keys) if key is None else bisect_left(keys, key)
        if index < len(keys) and keys[index] == key:
            del keys[index]
            return True
        return False

    def _queued_discard(self, uid: int) -> None:
        if self._discard(self.queued_keys, uid):
            self._queued_view = None

    def _frames(self, keys: list) -> dict[str, list[OpTask]]:
        """The heads of ``keys`` per stream, in ``keys`` order."""
        frames: dict[str, list[OpTask]] = {}
        for _, uid in keys:
            task = self.by_uid[uid]
            frames.setdefault(task.stream, []).append(task)
        return frames

    def _queued_frames(self) -> dict[str, list[OpTask]]:
        """The admission policies' view of the queue, built again only
        after ``queued_keys`` changed (a queued head's task never
        changes)."""
        if self._queued_view is None:
            self._queued_view = self._frames(self.queued_keys)
        return self._queued_view

    def _frame_resolved(self, task: OpTask) -> None:
        """Account one resolved (completed/dropped/aborted) frame member;
        a fully-resolved frame leaves the in-flight index."""
        key = (task.stream, task.frame)
        left = self.frame_left.get(key)
        if left is None:
            return
        left -= 1
        self.frame_left[key] = left
        if left <= 0:
            head_uid = self.frame_head_uid.get(key)
            if head_uid is not None:
                self._discard(self.inflight_keys, head_uid)
            self.aborted.discard(key)

    # -- event queue helpers -----------------------------------------------------------
    def _pending_release(self) -> float | None:
        heap = self.pending
        status = self.status
        while heap and status.get(heap[0][1]) != _PENDING:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def _drain_releases(self) -> None:
        release = self._pending_release()
        while release is not None and release <= self.now:
            _, uid = heapq.heappop(self.pending)
            task = self.by_uid[uid]
            self.status[uid] = _READY
            self.ready.append(task)
            release = self._pending_release()

    # -- dependency resolution ---------------------------------------------------------
    def _satisfy_dep(self, successor_uid: int) -> None:
        self.unmet[successor_uid] -= 1
        if (
            self.unmet[successor_uid] == 0
            and self.status[successor_uid] != _DROPPED
        ):
            successor = self.by_uid[successor_uid]
            if successor.think_s is not None:
                # Closed-loop pacing: rewrite the release now that it is
                # known (mirrors the reference loop exactly).
                successor = replace(
                    successor,
                    release_s=max(
                        successor.release_s, self.now + successor.think_s
                    ),
                )
                self.by_uid[successor_uid] = successor
                if self.qos is not None and successor.frame_head:
                    # Re-key the head by its *effective* release before
                    # it enters the arrival/queued indexes, so queue
                    # review sees true arrival order (a closed-loop head
                    # can arrive after later-declared open-loop ones).
                    self.head_key[successor_uid] = (
                        successor.release_s,
                        successor_uid,
                    )
                    heapq.heappush(
                        self.arrival_heap,
                        (successor.release_s, successor_uid),
                    )
            self.status[successor_uid] = _PENDING
            heapq.heappush(
                self.pending, (successor.release_s, successor_uid)
            )

    def _drop_frame(self, head: OpTask, reason: str) -> None:
        stack = [head]
        while stack:
            task = stack.pop()
            uid = task.uid
            if self.status.get(uid) == _DROPPED or uid in self.end:
                continue
            state = self.status.get(uid)
            self.status[uid] = _DROPPED
            record = DropRecord(
                uid, task.name, task.stream, task.frame, self.now, reason
            )
            if self.collect:
                self.drop_records.append(record)
            if self.tracer is not None:
                self.tracer.instant("drop", record)
            self.done += 1
            if self.qos_preemptive:
                self._frame_resolved(task)
            if state == _READY:
                self.ready.remove(task)
            if self.qos is not None and task.frame_head:
                self._queued_discard(uid)
            for successor_uid in self.dependents.get(uid, ()):
                successor = self.by_uid[successor_uid]
                if (
                    successor.stream == task.stream
                    and successor.frame == task.frame
                ):
                    stack.append(successor)
                else:
                    self._satisfy_dep(successor_uid)
            if self.on_resolve is not None:
                self.on_resolve(task, None, record)

    def _complete(self, task: OpTask) -> None:
        uid = task.uid
        self.status[uid] = _DONE
        self.end[uid] = self.now
        if self.tracer is not None:
            self.tracer.end(self.now, task)
        if self.collect:
            self.completion_order.append(uid)
        self.done += 1
        if self.qos_preemptive:
            self._frame_resolved(task)
        for successor_uid in self.dependents.get(uid, ()):
            self._satisfy_dep(successor_uid)
        if self.policy_preemptive:
            # Remember the kernel boundary's natural continuation (the
            # finished kernel's dispatchable same-frame successor) so
            # the next dispatch can tell a yield from a resume.
            self.resume_uid = None
            for successor_uid in self.dependents.get(uid, ()):
                successor = self.by_uid[successor_uid]
                if (
                    successor.stream == task.stream
                    and successor.frame == task.frame
                    and self.unmet[successor_uid] == 0
                    and self.status[successor_uid] != _DROPPED
                    and successor.think_s is None
                    and successor.release_s <= self.now
                ):
                    self.resume_uid = successor_uid
                    break
        if self.on_resolve is not None:
            self.on_resolve(task, self.now, None)

    def _abort_frame(self, head: OpTask, reason: str) -> None:
        """Cancel the unstarted remainder of a started frame (mirrors the
        reference ``abort_frame`` exactly, including record order)."""
        key = (head.stream, head.frame)
        self.aborted.add(key)
        self._discard(self.inflight_keys, head.uid)
        for uid in sorted(self.frame_uids.get(key, ())):
            if uid in self.start or self.status.get(uid) == _DROPPED:
                continue
            task = self.by_uid[uid]
            state = self.status.get(uid)
            self.status[uid] = _DROPPED
            self.frame_left[key] -= 1
            record = PreemptRecord(
                uid=uid,
                name=task.name,
                stream=task.stream,
                frame=task.frame,
                time_s=self.now,
                reason=reason,
                action="abort",
            )
            if self.collect:
                self.preempt_records.append(record)
            if self.tracer is not None:
                self.tracer.instant("abort", record)
            self.done += 1
            if self.resume_uid == uid:
                self.resume_uid = None
            if state == _READY:
                self.ready.remove(task)
            for successor_uid in self.dependents.get(uid, ()):
                successor = self.by_uid[successor_uid]
                if (successor.stream, successor.frame) != key:
                    self._satisfy_dep(successor_uid)
            if self.on_resolve is not None:
                self.on_resolve(task, None, record)

    # -- shares ------------------------------------------------------------------------
    def _plan(self, task: OpTask) -> _SharePlan:
        """``task``'s share plan (see :class:`_SharePlan`), cached.

        The policy weight is read here, once per dispatched task, which
        is why :meth:`SchedulingPolicy.weight` must be a pure function of
        the task.
        """
        weight = self.policy.weight(task)
        claims = task.claims
        entry = self._plans_by_id.get((id(claims), weight))
        if entry is not None:
            return entry[1]
        # Lowering gives every op its own claim tuple, but there are few
        # distinct ones: an equal tuple's plan serves this one too.
        plan = self._plans_by_value.get((claims, weight))
        if plan is None:
            plan = self._plans_by_value[claims, weight] = self._build_plan(
                task, weight
            )
        self._plans_by_id[id(claims), weight] = (claims, plan)
        return plan

    def _build_plan(self, task: OpTask, weight: float) -> _SharePlan:
        """Each ``amount * weight`` here is the float the reference loop
        computes for the same claim on every event."""
        matrix = self.matrix
        adds = [
            (_SLOT[claim.kind], claim.fraction * weight)
            for claim in task.claims
            if matrix is None or claim.fraction >= 1.0
        ]
        counted = tuple(slot for slot, _ in adds)
        if matrix is not None:
            primaries = frozenset(
                claim.kind for claim in task.claims if claim.fraction >= 1.0
            )
            adds += [
                (_SLOT[victim], factor * weight)
                for victim, factor in matrix.pressure(primaries).items()
            ]
        loads, accrual = _sum_loads((adds,))
        column = self._columns.get((counted, weight))
        if column is None:
            column = self._columns[counted, weight] = _Column(counted, weight)
        ints = [(slot, int(a)) for slot, a in adds if float(a).is_integer()]
        small = sum(abs(a) for _, a in ints) < 1 << 32
        return _SharePlan(
            adds=tuple(adds),
            column=column,
            whole=tuple(ints) if small and len(ints) == len(adds) else None,
            solo_slowdown=_slowdown_of(loads, counted, weight),
            solo_accrual=tuple(accrual),
            touches_substrate=_touches_substrate(task),
        )

    def _compute_shares(self) -> None:
        """Loads and slowdowns of the running set, each class's slowdown
        computed once. Whole plans below 2**32 each, fewer than 2**21 of
        them, bound every partial sum to an integer below 2**53, so the
        integer totals are exact. The adds are summed in running order
        otherwise, and while a touched slot has not accrued yet: the
        accrual's first-touch order then sets the slots' accrual order."""
        self._shares_dirty = False
        plans = self._running_plans
        if len(plans) == 1:
            # A lone plan's loads are its own adds, summed by _build_plan.
            plan = plans[0]
            self._accrual = plan.solo_accrual
            plan.column.slowdown = plan.solo_slowdown
            return
        if self._fractional or len(plans) >= 1 << 21 or self._unaccrued:
            loads, self._accrual = _sum_loads([plan.adds for plan in plans])
        else:
            loads = [float(total) for total in self._totals]
            self._accrual = [
                (slot, min(load, 1.0))
                for slot, (load, count) in enumerate(
                    zip(loads, self._touches)
                )
                if count
            ]
        for column in self._present:
            column.slowdown = _slowdown_of(
                loads, column.counted, column.weight
            )

    def _enter(self, task: OpTask, plan: _SharePlan) -> None:
        """Add a dispatched task to the running set: ``running``, its
        plan and sequence number, its class's column and the totals."""
        uid = task.uid
        seq = self._seq
        self._seq = seq + 1
        self.running.append(task)
        self._running_plans.append(plan)
        self._running_seqs.append(seq)
        rem, limit = self.remaining[uid], self._limit(uid)
        column = plan.column
        rems = column.rems
        if rems:
            column.high = max(column.high, limit)
        else:
            column.high = limit
            self._present.append(column)
        at = bisect_right(rems, rem)
        rems.insert(at, rem)
        column.limits.insert(at, limit)
        column.seqs.insert(at, seq)
        self._count(plan, 1)

    def _count(self, plan: _SharePlan, sign: int) -> None:
        """Add (``sign`` 1) or take out (-1) a plan's part in the totals."""
        if plan.whole is None:
            self._fractional += sign
        else:
            totals, touches, busy = self._totals, self._touches, self._busy
            for slot, amount in plan.whole:
                totals[slot] += sign * amount
                touches[slot] += sign
                if not busy[slot]:
                    self._unaccrued += sign
        self._shares_dirty = True

    def _first_accrual(self, slot: int) -> None:
        """Note that ``slot`` accrues for the first time now."""
        self._accrued.append(slot)
        self._unaccrued -= self._touches[slot]

    def accounting(
        self,
    ) -> tuple[dict[ResourceKind, float], dict[ResourceKind, float]]:
        """Busy time and load integral per resource kind, keyed in the
        order the kinds first accrued, as the reference loop's dicts."""
        busy, load = self._busy, self._load
        return (
            {_KINDS[slot]: busy[slot] for slot in self._accrued},
            {_KINDS[slot]: load[slot] for slot in self._accrued},
        )

    def _finish(self, due: list[_Column]) -> None:
        """Complete the finished tasks of the ``due`` columns in running
        order; each one's remaining work goes back to ``remaining``. Only
        a column's prefix with work up to its largest limit can hold a
        finished task (see :class:`_Column`)."""
        finished: list[tuple[int, float]] = []
        for column in due:
            rems, limits = column.rems, column.limits
            for index in reversed([
                at
                for at in range(bisect_right(rems, column.high))
                if rems[at] <= limits[at]
            ]):
                finished.append((column.seqs.pop(index), rems.pop(index)))
                del limits[index]
            if rems:
                column.high = max(limits)
            else:
                self._present.remove(column)
        finished.sort()
        seqs = self._running_seqs
        tasks = []
        for seq, rem in finished:
            index = bisect_left(seqs, seq)
            del seqs[index]
            self._count(self._running_plans.pop(index), -1)
            task = self.running.pop(index)
            self.remaining[task.uid] = rem
            tasks.append(task)
        for task in tasks:
            self._complete(task)

    def _limit(self, uid: int) -> float:
        """The remaining work at or below which a task has finished:
        float dust relative to its charged work (reference parity)."""
        return 1e-12 * self.charged[uid] + 1e-18

    def _charge_substrate(self, task: OpTask) -> None:
        """Mode-switch accounting at dispatch of a task that touches the
        MAC substrate (reference semantics)."""
        if (
            task.cross_switch_s > 0.0
            and self.substrate_mode is not None
            and self.substrate_mode != task.mode
            and self.substrate_stream != task.stream
        ):
            self.remaining[task.uid] += task.cross_switch_s
            self.charged[task.uid] += task.cross_switch_s
            self.mode_switches += 1
            self.switch_overhead += task.cross_switch_s
            if self.tracer is not None:
                self.tracer.switch(self.now, task, task.cross_switch_s)
        self.substrate_mode = task.mode
        self.substrate_stream = task.stream

    # -- the solo-chain fast path ------------------------------------------------------
    def _fast_chain(self) -> bool:
        """Advance a solo dependency chain completion-by-completion
        without the generic loop's per-event scans.

        Every condensed step is provably identical to one full reference-loop
        iteration: nothing else is ready, the running task's slowdown alone
        is exactly 1.0, the next pending release, frame arrival and QoS
        horizon land strictly after the step's completion (so the release
        drain and review would be no-ops — admission policies guarantee
        their decision is constant before ``next_event``), and the
        completed task's single successor is dispatchable alone.
        Returns True when at least one step was condensed.
        """
        # The loop below needs a lone running task and nothing ready;
        # without one, skip its horizon queries (each scans the queue).
        if not self._fast_ok or len(self.running) != 1 or self.ready:
            return False
        qos = self.qos
        horizon = None
        ihorizon = None
        if qos is not None:
            horizon = qos.next_event(self.now, self._queued_frames())
            if self.qos_preemptive:
                # In-flight abort expiries are fixed once a head starts,
                # and no head starts inside a condensation, so the entry
                # horizon bounds the whole chain segment.
                ihorizon = qos.next_inflight_event(
                    self.now, self._frames(self.inflight_keys)
                )
        # Hot loop: hoist every attribute the per-step body touches.
        # Nothing below changes a single float operation relative to the
        # generic loop — the wins are lookup elimination and skipping
        # the pending-heap round-trip for a successor we dispatch on the
        # spot.
        busy = self._busy
        load = self._load
        running = self.running
        ready = self.ready
        remaining = self.remaining
        status = self.status
        end = self.end
        start = self.start
        unmet = self.unmet
        by_uid = self.by_uid
        dependents = self.dependents
        pending = self.pending
        arrivals = self.arrival_heap
        plans_by_id = self._plans_by_id
        plan_for = self._plan
        weight_of = self.policy.weight
        collect = self.collect
        completion_order = self.completion_order
        on_resolve = self.on_resolve
        tracer = self.tracer
        substrate_mode = self.substrate_mode
        substrate_stream = self.substrate_stream
        now = self.now
        events = self.events
        done = self.done
        stepped = False
        entry_plan = plan = self._running_plans[0]
        uid = running[0].uid
        # Inside the chain the running task's work lives in ``remaining``.
        remaining[uid] = plan.column.rems[0]
        while len(running) == 1 and not ready:
            task = running[0]
            if plan.solo_slowdown != 1.0:
                break
            rem = remaining[uid]
            # Alone on the machine the slowdown is exactly 1.0, so the
            # reference loop's dt is exactly ``rem``.
            completion = now + rem
            while pending and status.get(pending[0][1]) != _PENDING:
                heapq.heappop(pending)
            if pending and pending[0][0] <= completion:
                break
            if horizon is not None and horizon <= completion:
                break
            if arrivals and arrivals[0][0] <= completion:
                break
            if ihorizon is not None and ihorizon <= completion:
                break
            successors = dependents.get(uid, ())
            if len(successors) != 1:
                break
            succ_uid = successors[0]
            if unmet[succ_uid] != 1 or status[succ_uid] == _DROPPED:
                break
            successor = by_uid[succ_uid]
            if successor.think_s is not None:
                break
            if successor.release_s > completion:
                break
            if qos is not None and successor.frame_head:
                break
            # Commit: complete ``task`` at ``completion``, start its
            # successor there — one reference iteration, condensed.
            events += 1
            if rem > 0.0:
                for slot, amount in plan.solo_accrual:
                    if not busy[slot]:
                        self._first_accrual(slot)
                    busy[slot] += rem
                    load[slot] += amount * rem
                now += rem
            remaining[uid] = 0.0
            running.clear()
            stepped = True
            # Inlined ``_complete``: the sole successor's dependency
            # resolves here, and since we dispatch it immediately the
            # generic loop's PENDING push/pop pair is unobservable — skip it.
            status[uid] = _DONE
            end[uid] = now
            if tracer is not None:
                tracer.end(now, task)
            if collect:
                completion_order.append(uid)
            done += 1
            if self.qos_preemptive:
                self._frame_resolved(task)
            unmet[succ_uid] = 0
            if on_resolve is not None:
                # Publish counters the hook may observe (it can inject
                # tasks or drop frames), then re-read afterwards.
                self.now = now
                self.events = events
                self.done = done
                on_resolve(task, now, None)
                events = self.events
                done = self.done
                if unmet[succ_uid] != 0 or status[succ_uid] == _DROPPED:
                    break  # a resolve hook intervened (defensive)
            # The successor is not closed-loop and its release has
            # passed, so the reference loop would admit, release, and
            # dispatch exactly it. Condense those three steps.
            status[succ_uid] = _RUNNING
            start[succ_uid] = now
            if tracer is not None:
                tracer.begin(now, successor)
            # Inlined ``_plan`` on a cache hit.
            entry = plans_by_id.get(
                (id(successor.claims), weight_of(successor))
            )
            succ_plan = plan_for(successor) if entry is None else entry[1]
            if succ_plan.touches_substrate:
                # Inlined ``_charge_substrate``.
                if (
                    successor.cross_switch_s > 0.0
                    and substrate_mode is not None
                    and substrate_mode != successor.mode
                    and substrate_stream != successor.stream
                ):
                    remaining[succ_uid] += successor.cross_switch_s
                    self.charged[succ_uid] += successor.cross_switch_s
                    self.mode_switches += 1
                    self.switch_overhead += successor.cross_switch_s
                    if tracer is not None:
                        tracer.switch(now, successor, successor.cross_switch_s)
                substrate_mode = successor.mode
                substrate_stream = successor.stream
            running.append(successor)
            uid, plan = succ_uid, succ_plan
        self.now = now
        self.events = events
        self.done = done
        self.substrate_mode = substrate_mode
        self.substrate_stream = substrate_stream
        if stepped:
            # The entry task finished here, and only the last task
            # dispatched here can still be running. With the entry's plan
            # it takes the entry's place, and the shares stand.
            column = entry_plan.column
            if running and plan is entry_plan:
                column.rems[0] = remaining[uid]
                column.limits[0] = column.high = self._limit(uid)
            else:
                del column.rems[:], column.limits[:], column.seqs[:]
                del self._present[:], self._running_plans[:]
                del self._running_seqs[:]
                self._count(entry_plan, -1)
                if running:
                    self._enter(running.pop(), plan)
        return stepped

    # -- the generic event loop --------------------------------------------------------
    def run_loop(self, feeder=None) -> None:
        """Run until every registered (and fed) task resolves.

        ``feeder(now)`` — optional — is called at each event top and may
        :meth:`inject` newly due work (the streaming arrival bridge).
        """
        qos = self.qos
        policy = self.policy
        while True:
            if feeder is not None:
                feeder(self.now)
            if self.done >= self.total:
                break
            self.events += 1
            if self.events > self.max_events:
                raise SchedulingError(
                    f"schedule exceeded {self.max_events} events"
                    " (policy starvation or zero-length livelock)"
                )
            self._drain_releases()

            if qos is not None:
                self._drain_arrivals()
                for head, reason in qos.review(
                    self.now, self._queued_frames()
                ):
                    self._drop_frame(head, reason)
                if self.done >= self.total:
                    break
                # Drop cascades can admit a stream's next frame at this
                # instant — re-drain before dispatch (reference parity).
                self._drain_releases()
                # Preemptive QoS reviews in-flight frames too, aborting
                # the unstarted remainder of any whose deadline slipped.
                if self.qos_preemptive:
                    for head, reason in qos.review_inflight(
                        self.now, self._frames(self.inflight_keys)
                    ):
                        self._abort_frame(head, reason)
                    if self.done >= self.total:
                        break
                    self._drain_releases()

            dispatched = policy.dispatch(self.ready, self.running)
            if self.policy_preemptive and dispatched:
                resume = self.resume_uid
                if resume is not None and all(
                    task.uid != resume for task in dispatched
                ):
                    passed = self.by_uid[resume]
                    record = PreemptRecord(
                        uid=passed.uid,
                        name=passed.name,
                        stream=passed.stream,
                        frame=passed.frame,
                        time_s=self.now,
                        reason="priority",
                        action="deschedule",
                    )
                    if self.collect:
                        self.preempt_records.append(record)
                    if self.tracer is not None:
                        self.tracer.instant("deschedule", record)
                self.resume_uid = None
            if dispatched:
                if len(dispatched) == len(self.ready):
                    self.ready.clear()
                else:
                    for task in dispatched:
                        self.ready.remove(task)
                for task in dispatched:
                    self.start[task.uid] = self.now
                    self.status[task.uid] = _RUNNING
                    if self.tracer is not None:
                        self.tracer.begin(self.now, task)
                    plan = self._plan(task)
                    if plan.touches_substrate:
                        self._charge_substrate(task)
                    if qos is not None and task.frame_head:
                        self._queued_discard(task.uid)
                        if self.qos_preemptive:
                            insort(
                                self.inflight_keys,
                                self.head_key[task.uid],
                            )
                    self._enter(task, plan)

            if not self.running:
                release = self._pending_release()
                if release is not None:
                    if release > self.now:
                        self.now = release
                    continue
                if feeder is not None and self.done >= self.total:
                    break
                raise SchedulingError(
                    f"policy {policy.name!r} dispatched nothing with"
                    f" {len(self.ready)} ready tasks and nothing running"
                )

            if self._fast_chain():
                continue

            if self._shares_dirty:
                self._compute_shares()
            present = self._present

            # A positive slowdown keeps the order of remaining work, so a
            # class's least ``rem * slowdown`` is its least ``rem`` times
            # the slowdown: the same float as the reference's minimum.
            dt = min(column.rems[0] * column.slowdown for column in present)
            release = self._pending_release()
            if release is not None:
                dt = min(dt, release - self.now)
            if qos is not None:
                horizon = qos.next_event(self.now, self._queued_frames())
                if horizon is not None:
                    dt = min(dt, horizon - self.now)
                if self.qos_preemptive:
                    ihorizon = qos.next_inflight_event(
                        self.now, self._frames(self.inflight_keys)
                    )
                    if ihorizon is not None:
                        dt = min(dt, ihorizon - self.now)
            dt = max(dt, 0.0)

            if dt > 0.0:
                busy = self._busy
                load = self._load
                for slot, amount in self._accrual:
                    if not busy[slot]:
                        self._first_accrual(slot)
                    busy[slot] += dt
                    load[slot] += amount * dt
                for column in present:
                    step = dt / column.slowdown
                    column.rems = [rem - step for rem in column.rems]
                self.now += dt
            # Only a column whose least work is within its largest limit
            # can hold a finished task.
            due = [
                column for column in present if column.rems[0] <= column.high
            ]
            if due:
                self._finish(due)

    # -- materialized-run assembly -----------------------------------------------------
    def build_timeline(self) -> Timeline:
        start = self.start
        end = self.end
        order = self.completion_order
        segments = tuple([
            TimelineSegment(
                uid, task.name, task.stream, task.frame, task.mode,
                start[uid], end[uid], task.seconds,
            )
            for uid, task in zip(order, map(self.by_uid.__getitem__, order))
        ])
        busy, load_integral = self.accounting()
        return Timeline(
            segments=segments,
            makespan_s=self.now,
            busy_s=busy,
            load_integral_s=load_integral,
            mode_switches=self.mode_switches,
            switch_overhead_s=self.switch_overhead,
            drops=tuple(self.drop_records),
            preemptions=tuple(self.preempt_records),
        )


__all__ = ["VectorCore"]
