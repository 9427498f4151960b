"""Cycle-level GPU substrate: SM pipeline, memory system, warp schedulers."""

from repro.gpu.coalescer import coalesce
from repro.gpu.dram import DramModel
from repro.gpu.gpu import GpuTimingModel, KernelLaunch, LaunchResult
from repro.gpu.regfile import RegisterFileModel
from repro.gpu.scheduler import (
    GreedyThenOldestScheduler,
    LooseRoundRobinScheduler,
    SchedulerPolicy,
    SmaRoundRobinScheduler,
    make_scheduler,
)
from repro.gpu.scoreboard import Scoreboard
from repro.gpu.shared_memory import SharedMemoryModel
from repro.gpu.sm import KernelSpec, SmResult, StreamingMultiprocessor

__all__ = [
    "DramModel",
    "GpuTimingModel",
    "GreedyThenOldestScheduler",
    "KernelLaunch",
    "KernelSpec",
    "LaunchResult",
    "LooseRoundRobinScheduler",
    "RegisterFileModel",
    "Scoreboard",
    "SchedulerPolicy",
    "SharedMemoryModel",
    "SmResult",
    "SmaRoundRobinScheduler",
    "StreamingMultiprocessor",
    "coalesce",
    "make_scheduler",
]
