"""SMA: the Simultaneous Multi-mode Architecture (the paper's contribution).

An SMA-enabled SM temporally switches its MAC units between the ordinary
SIMD mode and a systolic mode built from the same resources: three 8x8 FP32
(or 8x16 FP16) semi-broadcast weight-stationary arrays driven by the
asynchronous ``LSMA`` instruction and a dedicated systolic controller.
"""

from repro.sma.controller import SystolicControllerModel
from repro.sma.mapping import SmaGemmMapper, SmaKernelShape
from repro.sma.mode import ExecutionMode, ModeSwitchTracker
from repro.sma.sync import WarpSetPartition, make_double_buffer_groups

__all__ = [
    "ExecutionMode",
    "ModeSwitchTracker",
    "SmaGemmMapper",
    "SmaKernelShape",
    "SystolicControllerModel",
    "WarpSetPartition",
    "make_double_buffer_groups",
]
