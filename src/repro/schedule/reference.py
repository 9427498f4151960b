"""The reference timeline loop: the executable spec of the fluid schedule.

:func:`run_reference` is the per-event scalar loop. Each event
rescans every frame head for QoS review, rebuilds the weight-scaled
loads of every running task, and pops releases off a sorted list. It is
slow (quadratic in trace length under QoS), but it states the engine's
semantics in one readable function. The production core
(:class:`~repro.schedule.vectorized.VectorCore`, behind
:meth:`~repro.schedule.timeline.TimelineScheduler.run`) must reproduce
its timelines and trace event sequences bit for bit.

Nothing on a production path calls it. The callers are the differential
and trace-transparency fuzz oracles (``repro fuzz run --differential``,
also served by the cluster ``fuzz`` verb), the parity tests, and the
speedup-ratio benchmarks.
"""

from __future__ import annotations

from dataclasses import replace

from repro.errors import SchedulingError
from repro.schedule.resources import ResourceKind
from repro.schedule.timeline import (
    _touches_substrate,
    DropRecord,
    OpTask,
    PreemptRecord,
    Timeline,
    TimelineSegment,
)


def run_reference(scheduler, tasks) -> Timeline:
    """Run ``tasks`` under ``scheduler``'s settings with the reference loop.

    Reads the scheduler's ``policy``, ``qos``, ``interference``,
    ``max_events`` and ``tracer`` exactly as
    :meth:`~repro.schedule.timeline.TimelineScheduler.run` does, and
    returns the :class:`~repro.schedule.timeline.Timeline` that method
    must reproduce bit for bit.
    """
    tasks = list(tasks)
    if not tasks:
        return Timeline(segments=(), makespan_s=0.0)
    by_uid = {task.uid: task for task in tasks}
    if len(by_uid) != len(tasks):
        raise SchedulingError("duplicate task uids in schedule")
    unmet = {}
    for task in tasks:
        for dep in task.deps:
            if dep not in by_uid:
                raise SchedulingError(
                    f"task {task.name!r} depends on unknown uid {dep}"
                )
        unmet[task.uid] = len(task.deps)
    dependents: dict[int, list[int]] = {}
    for task in tasks:
        for dep in task.deps:
            dependents.setdefault(dep, []).append(task.uid)

    # Tasks whose deps are met, ordered by release time (then uid).
    pending = sorted(
        (task for task in tasks if unmet[task.uid] == 0),
        key=lambda task: (task.release_s, task.uid),
    )
    ready: list[OpTask] = []
    running: list[OpTask] = []
    remaining = {task.uid: task.seconds for task in tasks}
    # Total work charged per task (base seconds plus any cross-stream
    # switch surcharge); the completion epsilon scales with this, not
    # the base seconds, so a zero-length kernel carrying a large
    # switch charge still completes on an appropriately-scaled test.
    charged = {task.uid: task.seconds for task in tasks}
    start: dict[int, float] = {}
    end: dict[int, float] = {}
    busy: dict[ResourceKind, float] = {}
    load_integral: dict[ResourceKind, float] = {}
    completion_order: list[int] = []
    substrate_mode: str | None = None
    substrate_stream: str | None = None
    mode_switches = 0
    switch_overhead = 0.0
    dropped: set[int] = set()
    drop_records: list[DropRecord] = []
    heads = sorted(
        (task for task in tasks if task.frame_head),
        key=lambda task: (task.release_s, task.uid),
    )

    # Preemption state. Both flags default false, in which case none
    # of the bookkeeping below runs and the event sequence (and every
    # float op) is identical to the non-preemptive engine.
    preempt_records: list[PreemptRecord] = []
    policy_preemptive = getattr(scheduler.policy, "preemptive", False)
    qos_preemptive = scheduler.qos is not None and getattr(
        scheduler.qos, "preemptive", False
    )
    # The uid a preemptive policy would resume with (the just-finished
    # task's same-frame successor); dispatching past it is a yield.
    resume_uid: int | None = None
    frame_uids: dict[tuple[str, int], list[int]] = {}
    frame_left: dict[tuple[str, int], int] = {}
    aborted: set[tuple[str, int]] = set()
    if qos_preemptive:
        for task in sorted(tasks, key=lambda task: task.uid):
            key = (task.stream, task.frame)
            frame_uids.setdefault(key, []).append(task.uid)
            frame_left[key] = frame_left.get(key, 0) + 1

    now = 0.0
    events = 0
    done = 0
    tracer = scheduler.tracer

    def admit_to_pending(follower: OpTask) -> None:
        position = 0
        key = (follower.release_s, follower.uid)
        while position < len(pending) and (
            pending[position].release_s,
            pending[position].uid,
        ) <= key:
            position += 1
        pending.insert(position, follower)

    def satisfy_dep(successor_uid: int) -> None:
        unmet[successor_uid] -= 1
        if unmet[successor_uid] == 0 and successor_uid not in dropped:
            successor = by_uid[successor_uid]
            if successor.think_s is not None:
                # Closed-loop pacing: the release is only known now —
                # rewrite it so everything downstream (pending order,
                # queued-frame QoS review, deadline anchoring) sees
                # the dynamic release time.
                successor = replace(
                    successor,
                    release_s=max(
                        successor.release_s, now + successor.think_s
                    ),
                )
                by_uid[successor_uid] = successor
            admit_to_pending(successor)

    def drop_frame(head: OpTask, reason: str) -> None:
        """Cancel ``head`` and its same-frame dependents at ``now``."""
        nonlocal done
        stack = [head]
        while stack:
            task = stack.pop()
            if task.uid in dropped or task.uid in end:
                continue
            dropped.add(task.uid)
            if qos_preemptive:
                frame_left[(task.stream, task.frame)] -= 1
            record = DropRecord(
                uid=task.uid,
                name=task.name,
                stream=task.stream,
                frame=task.frame,
                time_s=now,
                reason=reason,
            )
            drop_records.append(record)
            if tracer is not None:
                tracer.instant("drop", record)
            done += 1
            if task in ready:
                ready.remove(task)
            elif task in pending:
                pending.remove(task)
            for successor_uid in dependents.get(task.uid, ()):
                successor = by_uid[successor_uid]
                if (
                    successor.stream == task.stream
                    and successor.frame == task.frame
                ):
                    stack.append(successor)
                else:
                    satisfy_dep(successor_uid)

    def queued_frames() -> dict[str, list[OpTask]]:
        """Arrived-but-unstarted frame heads per stream, arrival order.

        Ordered by *effective* release: closed-loop heads get their
        release rewritten when their pacing dependency resolves, so
        static declaration order can disagree with arrival order —
        and ``queue_cap``'s newest-first drop must see true arrival
        order to target the right frame.
        """
        entries = []
        for head in heads:
            # Closed-loop heads are rewritten with their dynamic
            # release when their pacing dependency resolves; until
            # then they have not "arrived" and cannot be queued.
            current = by_uid[head.uid]
            if current.think_s is not None and unmet[head.uid] > 0:
                continue
            if (
                current.release_s <= now
                and head.uid not in start
                and head.uid not in dropped
            ):
                entries.append((current.release_s, head.uid, current))
        entries.sort(key=lambda entry: (entry[0], entry[1]))
        queued: dict[str, list[OpTask]] = {}
        for _release, _uid, current in entries:
            queued.setdefault(current.stream, []).append(current)
        return queued

    def inflight_frames() -> dict[str, list[OpTask]]:
        """Started-but-unfinished, non-aborted frame heads per stream.

        Ordered by effective release then uid, matching the
        vectorized engine's sorted in-flight index so abort records
        land in identical order.
        """
        entries = []
        for head in heads:
            key = (head.stream, head.frame)
            if (
                head.uid in start
                and key not in aborted
                and frame_left.get(key, 0) > 0
            ):
                current = by_uid[head.uid]
                entries.append((current.release_s, head.uid, current))
        entries.sort(key=lambda entry: (entry[0], entry[1]))
        inflight: dict[str, list[OpTask]] = {}
        for _release, _uid, current in entries:
            inflight.setdefault(current.stream, []).append(current)
        return inflight

    def abort_frame(head: OpTask, reason: str) -> None:
        """Cancel the unstarted remainder of a started frame at ``now``.

        Kernel-granularity: anything already on the machine (or
        finished) stays; every other task of the frame is cancelled
        with a :class:`PreemptRecord`, and cross-frame dependents are
        released exactly as a drop cascade would release them. The
        frame is marked aborted even when nothing was left to cancel,
        so the QoS review cannot re-select it forever.
        """
        nonlocal done, resume_uid
        key = (head.stream, head.frame)
        aborted.add(key)
        for uid in frame_uids[key]:
            if uid in start or uid in dropped:
                continue
            task = by_uid[uid]
            dropped.add(uid)
            frame_left[key] -= 1
            record = PreemptRecord(
                uid=uid,
                name=task.name,
                stream=task.stream,
                frame=task.frame,
                time_s=now,
                reason=reason,
                action="abort",
            )
            preempt_records.append(record)
            if tracer is not None:
                tracer.instant("abort", record)
            done += 1
            if resume_uid == uid:
                resume_uid = None
            if task in ready:
                ready.remove(task)
            elif task in pending:
                pending.remove(task)
            for successor_uid in dependents.get(uid, ()):
                successor = by_uid[successor_uid]
                if (successor.stream, successor.frame) != key:
                    satisfy_dep(successor_uid)

    while done < len(tasks):
        events += 1
        if events > scheduler.max_events:
            raise SchedulingError(
                f"schedule exceeded {scheduler.max_events} events"
                " (policy starvation or zero-length livelock)"
            )
        # Release pending tasks that have arrived.
        while pending and pending[0].release_s <= now:
            ready.append(pending.pop(0))

        # Admission control sheds queued frames before dispatch.
        if scheduler.qos is not None:
            for head, reason in scheduler.qos.review(now, queued_frames()):
                drop_frame(head, reason)
            if done >= len(tasks):
                break
            # A drop cascade can resolve a cross-frame dependency at
            # this very instant, admitting the stream's next frame to
            # ``pending``; re-drain so dispatch sees it (otherwise an
            # ``exclusive`` gate can start a lighter task ahead of a
            # heavier one released by the drop).
            while pending and pending[0].release_s <= now:
                ready.append(pending.pop(0))
            # Preemptive QoS additionally reviews in-flight frames,
            # aborting the unstarted remainder of any whose deadline
            # slipped; the cascade can release cross-frame deps too.
            if qos_preemptive:
                for head, reason in scheduler.qos.review_inflight(
                    now, inflight_frames()
                ):
                    abort_frame(head, reason)
                if done >= len(tasks):
                    break
                while pending and pending[0].release_s <= now:
                    ready.append(pending.pop(0))

        # Policy decides which ready tasks start now.
        dispatched = scheduler.policy.dispatch(ready, running)
        if policy_preemptive and dispatched:
            # Dispatching past the finished kernel's same-frame
            # successor is a kernel-boundary yield: the interrupted
            # frame's remainder stays queued while a higher-priority
            # frame takes the machine. Record it exactly once.
            if resume_uid is not None and all(
                task.uid != resume_uid for task in dispatched
            ):
                passed = by_uid[resume_uid]
                record = PreemptRecord(
                    uid=passed.uid,
                    name=passed.name,
                    stream=passed.stream,
                    frame=passed.frame,
                    time_s=now,
                    reason="priority",
                    action="deschedule",
                )
                preempt_records.append(record)
                if tracer is not None:
                    tracer.instant("deschedule", record)
            resume_uid = None
        for task in dispatched:
            ready.remove(task)
            start[task.uid] = now
            if tracer is not None:
                tracer.begin(now, task)
            if _touches_substrate(task):
                if (
                    task.cross_switch_s > 0.0
                    and substrate_mode is not None
                    and substrate_mode != task.mode
                    and substrate_stream != task.stream
                ):
                    remaining[task.uid] += task.cross_switch_s
                    charged[task.uid] += task.cross_switch_s
                    mode_switches += 1
                    switch_overhead += task.cross_switch_s
                    if tracer is not None:
                        tracer.switch(now, task, task.cross_switch_s)
                substrate_mode = task.mode
                substrate_stream = task.stream
            running.append(task)

        if not running:
            if pending:
                now = max(now, pending[0].release_s)
                continue
            raise SchedulingError(
                f"policy {scheduler.policy.name!r} dispatched nothing with"
                f" {len(ready)} ready tasks and nothing running"
            )

        # Weight-scaled loads and per-task slowdowns. With a measured
        # interference matrix, fractional (ancillary) claims are
        # superseded: each task's primary claims contribute load as
        # usual, plus the matrix's directional cross-resource
        # pressure; only primary claims feel the resulting load.
        matrix = scheduler.interference
        load: dict[ResourceKind, float] = {}
        for task in running:
            weight = scheduler.policy.weight(task)
            for claim in task.claims:
                if matrix is not None and claim.fraction < 1.0:
                    continue
                load[claim.kind] = (
                    load.get(claim.kind, 0.0) + claim.fraction * weight
                )
            if matrix is not None:
                primaries = frozenset(
                    claim.kind
                    for claim in task.claims
                    if claim.fraction >= 1.0
                )
                for victim, factor in matrix.pressure(primaries).items():
                    load[victim] = (
                        load.get(victim, 0.0) + factor * weight
                    )
        slowdown: dict[int, float] = {}
        for task in running:
            weight = scheduler.policy.weight(task)
            worst = 1.0
            for claim in task.claims:
                if matrix is not None and claim.fraction < 1.0:
                    continue
                worst = max(worst, load[claim.kind] / weight)
            slowdown[task.uid] = worst

        # Advance to the next completion, release, or QoS expiry.
        dt = min(
            remaining[task.uid] * slowdown[task.uid] for task in running
        )
        if pending:
            dt = min(dt, pending[0].release_s - now)
        if scheduler.qos is not None:
            horizon = scheduler.qos.next_event(now, queued_frames())
            if horizon is not None:
                dt = min(dt, horizon - now)
            if qos_preemptive:
                ihorizon = scheduler.qos.next_inflight_event(
                    now, inflight_frames()
                )
                if ihorizon is not None:
                    dt = min(dt, ihorizon - now)
        dt = max(dt, 0.0)

        if dt > 0.0:
            for kind, amount in load.items():
                busy[kind] = busy.get(kind, 0.0) + dt
                load_integral[kind] = (
                    load_integral.get(kind, 0.0) + min(amount, 1.0) * dt
                )
            for task in running:
                remaining[task.uid] -= dt / slowdown[task.uid]
            now += dt

        # Complete finished tasks (FP dust below a relative epsilon
        # scaled to the total charged work, switch surcharge included).
        finished = [
            task
            for task in running
            if remaining[task.uid] <= 1e-12 * charged[task.uid] + 1e-18
        ]
        for task in finished:
            running.remove(task)
            end[task.uid] = now
            if tracer is not None:
                tracer.end(now, task)
            completion_order.append(task.uid)
            done += 1
            if qos_preemptive:
                frame_left[(task.stream, task.frame)] -= 1
            for successor in dependents.get(task.uid, ()):
                satisfy_dep(successor)
            if policy_preemptive:
                # The natural continuation at this kernel boundary is
                # the finished kernel's same-frame successor, if it
                # is now dispatchable; remember it so the next
                # dispatch can tell a yield from a resume.
                resume_uid = None
                for successor_uid in dependents.get(task.uid, ()):
                    successor = by_uid[successor_uid]
                    if (
                        successor.stream == task.stream
                        and successor.frame == task.frame
                        and unmet[successor_uid] == 0
                        and successor_uid not in dropped
                        and successor.think_s is None
                        and successor.release_s <= now
                    ):
                        resume_uid = successor_uid
                        break

    segments = tuple(
        TimelineSegment(
            uid=uid,
            name=by_uid[uid].name,
            stream=by_uid[uid].stream,
            frame=by_uid[uid].frame,
            mode=by_uid[uid].mode,
            start_s=start[uid],
            end_s=end[uid],
            seconds=by_uid[uid].seconds,
        )
        for uid in completion_order
    )
    return Timeline(
        segments=segments,
        makespan_s=now,
        busy_s=busy,
        load_integral_s=load_integral,
        mode_switches=mode_switches,
        switch_overhead_s=switch_overhead,
        drops=tuple(drop_records),
        preemptions=tuple(preempt_records),
    )


__all__ = ["run_reference"]
