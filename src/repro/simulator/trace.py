"""Chrome-trace export of simulated timelines.

The discrete-event engine records every task on every channel; exporting
them in the Chrome ``chrome://tracing`` / Perfetto JSON format makes the
simulated overlap behaviour inspectable — which collectives hide behind
which backward compute, where the pipeline bubbles sit.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from .engine import Engine

__all__ = [
    "engine_to_chrome_trace",
    "profile_to_chrome_trace",
    "save_chrome_trace",
]

#: Microseconds per simulated second (chrome traces use µs timestamps).
_US = 1e6


def engine_to_chrome_trace(
    engine: Engine, process_name: str = "simulated-device"
) -> List[Dict]:
    """Convert an engine's channel logs into chrome trace events.

    Each channel becomes a thread; each task a complete ("X") event.
    """
    events: List[Dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "args": {"name": process_name},
        }
    ]
    for tid, channel in enumerate(engine.channels):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"name": channel.name},
            }
        )
        for task in channel.log:
            events.append(
                {
                    "name": task.name,
                    "ph": "X",
                    "pid": 0,
                    "tid": tid,
                    "ts": task.start * _US,
                    "dur": task.duration * _US,
                    "cat": channel.name,
                }
            )
    return events


def profile_to_chrome_trace(
    profile, process_name: str = "simulated-device"
) -> List[Dict]:
    """Convert an :class:`IterationProfile` into chrome trace events.

    On top of the engine's channel timeline this adds what only the profile
    knows: forward/backward phase spans on their own thread, and the
    step-level numbers (overlap efficiency, bucket count, segment
    diagnostics) as counter args on the phase events — so a trace viewer
    shows the anatomy of the step, not just its tasks.
    """
    if profile.engine is None:
        raise ValueError("profile has no engine attached")
    events = engine_to_chrome_trace(profile.engine, process_name)
    tid = len(profile.engine.channels)
    events.append(
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": tid,
            "args": {"name": "phase"},
        }
    )
    spans = [
        ("forward", 0.0, profile.forward_time),
        ("backward", profile.forward_time, profile.backward_time),
    ]
    summary = {
        "overlap_efficiency": profile.overlap_efficiency,
        "num_gradient_buckets": profile.num_gradient_buckets,
        "exposed_comm_time": profile.exposed_comm_time,
        "segments_detected": profile.segments_detected,
        "nodes_replayed": profile.nodes_replayed,
    }
    for name, start, dur in spans:
        if dur <= 0:
            continue
        events.append(
            {
                "name": name,
                "ph": "X",
                "pid": 0,
                "tid": tid,
                "ts": start * _US,
                "dur": dur * _US,
                "cat": "phase",
                "args": summary,
            }
        )
    return events


def save_chrome_trace(engine: Engine, path, process_name: str = "simulated-device") -> None:
    """Write the engine's timeline as a chrome-trace JSON file."""
    with open(path, "w") as fh:
        json.dump(
            {"traceEvents": engine_to_chrome_trace(engine, process_name)},
            fh,
        )
