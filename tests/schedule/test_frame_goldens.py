"""Pinned frame expansion: ``instantiate_frames`` output for every stream kind.

The golden ``goldens/instantiate_frames.jsonl`` holds one sorted-key JSON
line per task (every :class:`OpTask` field except the opaque ``payload``,
which is checked by identity against its template task instead), per
:class:`FrameRun`, and per plan's ``skipped`` counts. Each case pairs one
stream kind with a back-to-back ``tail`` stream whose uids start after
everything the first stream emits, so a wrong uid base shows too; the
``all_kinds`` case puts every kind in one scenario.

Regenerate with ``PYTHONPATH=src python tests/schedule/test_frame_goldens.py``
only when a change to frame expansion is intended.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.schedule.resources import ResourceClaim, ResourceKind
from repro.schedule.streams import ScenarioSpec, StreamSpec, instantiate_frames
from repro.schedule.timeline import OpTask
from repro.serving.traces import ArrivalSpec

GOLDEN = Path(__file__).parent / "goldens" / "instantiate_frames.jsonl"
FRAMES = 7

#: One stream per kind, all named "x" so each case can pair it with a tail.
KINDS = {
    "back_to_back": StreamSpec(
        name="x", model="m", priority=2.0, deadline_s=0.05
    ),
    "periodic": StreamSpec(
        name="x", model="m", period_s=1 / 60, deadline_s=0.02
    ),
    "poisson": StreamSpec(
        name="x", model="m", priority=3.0,
        arrivals=ArrivalSpec(kind="poisson", rate_hz=90.0, seed=4),
    ),
    "mmpp": StreamSpec(
        name="x", model="m", deadline_s=0.03,
        arrivals=ArrivalSpec(
            kind="mmpp", rate_hz=60.0, burst_fraction=0.3, dwell=3, seed=5
        ),
    ),
    "fixed": StreamSpec(
        name="x", model="m", arrivals=ArrivalSpec(kind="fixed", rate_hz=30.0)
    ),
    "replay_short": StreamSpec(
        name="x", model="m", deadline_s=0.01,
        arrivals=ArrivalSpec(kind="replay", times_s=(0.0, 0.004, 0.011)),
    ),
    "skip3": StreamSpec(
        name="x", model="m", skip_interval=3, period_s=0.01
    ),
    "closed_loop_skip": StreamSpec(
        name="x", model="m", priority=1.5, skip_interval=2, deadline_s=0.04,
        arrivals=ArrivalSpec(kind="closed_loop", think_s=0.003),
    ),
}

TAIL = StreamSpec(name="tail", model="m", deadline_s=0.1)


def _template(stream: str) -> list[OpTask]:
    """A lowered-looking chain whose fields all differ from the defaults."""
    shapes = (
        ("conv", 0.004, (ResourceClaim(ResourceKind.SIMD),), "simd", 0.0),
        (
            "gemm",
            0.0025,
            (
                ResourceClaim(ResourceKind.ARRAY),
                ResourceClaim(ResourceKind.SIMD, 0.25),
            ),
            "systolic",
            0.0001,
        ),
        ("copy", 0.0005, (ResourceClaim(ResourceKind.TRANSFER),), "transfer", 0.0),
    )
    return [
        OpTask(
            uid=index,
            name=f"{stream}/{name}",
            seconds=seconds,
            claims=claims,
            mode=mode,
            stream=stream,
            deps=(index - 1,) if index else (),
            cross_switch_s=switch,
            payload=("stats", stream, index),
        )
        for index, (name, seconds, claims, mode, switch) in enumerate(shapes)
    ]


def _cases() -> dict[str, tuple[ScenarioSpec, dict[str, list[OpTask]]]]:
    cases = {}
    for kind, stream in KINDS.items():
        spec = ScenarioSpec(name=kind, streams=(stream, TAIL), frames=FRAMES)
        cases[kind] = (spec, {"x": _template("x"), "tail": _template("tail")[:1]})
    streams = tuple(
        dataclasses.replace(stream, name=kind) for kind, stream in KINDS.items()
    )
    cases["all_kinds"] = (
        ScenarioSpec(name="all_kinds", streams=streams, frames=FRAMES),
        {stream.name: _template(stream.name) for stream in streams},
    )
    return cases


def _task_row(task: OpTask) -> dict:
    row = {
        field.name: getattr(task, field.name)
        for field in dataclasses.fields(OpTask)
        if field.name != "payload"
    }
    row["claims"] = [[claim.kind.value, claim.fraction] for claim in task.claims]
    return row


def _lines(name: str, spec, templates) -> list[str]:
    plan = instantiate_frames(spec, templates)
    rows = [[name, "task", _task_row(task)] for task in plan.tasks]
    rows += [[name, "run", dataclasses.asdict(run)] for run in plan.runs]
    rows.append([name, "skipped", plan.skipped])
    return [json.dumps(row, sort_keys=True) for row in rows]


def _payloads_follow_templates(spec, templates) -> bool:
    plan = instantiate_frames(spec, templates)
    return all(
        task.payload is templates[task.stream][position].payload
        for run in plan.runs
        for position, task in enumerate(plan.tasks[uid] for uid in run.uids)
    )


CASES = _cases()


def _golden() -> dict[str, list[str]]:
    lines: dict[str, list[str]] = {}
    for line in GOLDEN.read_text().splitlines():
        lines.setdefault(json.loads(line)[0], []).append(line)
    return lines


def test_every_case_is_pinned():
    assert list(_golden()) == list(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_instantiate_frames_matches_golden(name):
    spec, templates = CASES[name]
    assert _lines(name, spec, templates) == _golden()[name]
    assert _payloads_follow_templates(spec, templates)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        "".join(
            line + "\n"
            for name, (spec, templates) in CASES.items()
            for line in _lines(name, spec, templates)
        )
    )
