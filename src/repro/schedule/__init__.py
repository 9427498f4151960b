"""``repro.schedule`` — the temporal timeline scheduler.

The paper's flagship end-to-end result is a *scheduling* result: one GPU
substrate time-multiplexes SIMD and systolic modes at layer granularity
while streams of work (detection, tracking, localization) share the chip.
This package models that directly:

* :mod:`~repro.schedule.resources` — typed execution resources (SIMD
  issue slots, the temporally-reconfigured array, TensorCores, the host
  link, the host CPU) and per-task claims;
* :mod:`~repro.schedule.timeline` — an event-driven weighted
  processor-sharing engine over those claims, with cross-stream
  mode-switch accounting, run on the
  :mod:`~repro.schedule.vectorized` core and pinned to the executable
  spec in :mod:`~repro.schedule.reference`;
* :mod:`~repro.schedule.policies` — fifo / priority / exclusive
  dispatch-and-share policies;
* :mod:`~repro.schedule.streams` — multi-stream :class:`ScenarioSpec`
  declarations (priorities, frame deadlines, frame skipping) expanded
  into frame task sets.

Platforms lower layer graphs into :class:`OpTask` chains
(:meth:`repro.platforms.base.Platform.lower_model`); single-model runs
are the degenerate one-stream case and reproduce the historical
sequential ``run_model`` numbers bit-for-bit.
"""

from repro.schedule.policies import (
    POLICY_NAMES,
    ExclusivePolicy,
    ExclusivePreemptPolicy,
    FifoPolicy,
    PriorityPolicy,
    SchedulingPolicy,
    make_policy,
)
from repro.schedule.resources import (
    RESOURCE_ORDER,
    ResourceClaim,
    ResourceKind,
    claims_for_mode,
)
from repro.schedule.streams import (
    FramePlan,
    FrameRecord,
    FrameRun,
    FrameSource,
    ScenarioSpec,
    StreamSpec,
    frame_sources,
    instantiate_frames,
)
from repro.schedule.timeline import (
    DropRecord,
    OpTask,
    PreemptRecord,
    Timeline,
    TimelineScheduler,
    TimelineSegment,
)

__all__ = [
    "POLICY_NAMES",
    "RESOURCE_ORDER",
    "DropRecord",
    "ExclusivePolicy",
    "ExclusivePreemptPolicy",
    "FifoPolicy",
    "FramePlan",
    "FrameRecord",
    "FrameRun",
    "FrameSource",
    "OpTask",
    "PreemptRecord",
    "PriorityPolicy",
    "ResourceClaim",
    "ResourceKind",
    "ScenarioSpec",
    "SchedulingPolicy",
    "StreamSpec",
    "Timeline",
    "TimelineScheduler",
    "TimelineSegment",
    "claims_for_mode",
    "frame_sources",
    "instantiate_frames",
    "make_policy",
]
