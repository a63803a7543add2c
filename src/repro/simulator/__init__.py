"""Discrete-event training simulator: timing, memory, fusion, convergence."""

from .engine import Channel, Engine, Task
from .iteration import IterationProfile, simulate_iteration
from .columnar import (
    ColumnarTape,
    columnar_tape_invariants,
    compile_columnar_tape,
    detect_segments,
    simulate_batch,
)
from .memory import MemoryReport, memory_per_device
from .fusion import (
    FUSIBLE_OPS,
    FusionReport,
    KERNEL_LAUNCH_OVERHEAD,
    fuse_graph,
    fused_iteration_time,
)
from .convergence import LossCurve, ScalingLaw, simulate_training_loss
from .trace import (
    engine_to_chrome_trace,
    profile_to_chrome_trace,
    save_chrome_trace,
)

__all__ = [
    "Channel",
    "Engine",
    "Task",
    "IterationProfile",
    "simulate_iteration",
    "detect_segments",
    "ColumnarTape",
    "columnar_tape_invariants",
    "compile_columnar_tape",
    "simulate_batch",
    "MemoryReport",
    "memory_per_device",
    "FUSIBLE_OPS",
    "FusionReport",
    "KERNEL_LAUNCH_OVERHEAD",
    "fuse_graph",
    "fused_iteration_time",
    "LossCurve",
    "ScalingLaw",
    "simulate_training_loss",
    "engine_to_chrome_trace",
    "profile_to_chrome_trace",
    "save_chrome_trace",
]
