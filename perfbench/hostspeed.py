"""How fast the host runs right now, from a fixed probe next to each sample.

The host this benchmark runs on is shared: other machines' work changes
its speed, by up to 1.8x over seconds to hours, and that change lands on
every figure of a run alike.  ``probe`` is a fixed piece of work of the
kind the planner does (interpreter work on dicts, lists and small objects,
a JSON round trip, freshly mapped pages and small numpy arrays) that
imports nothing from ``repro``, so a change to the program never changes
it.  A run takes a probe just before its timed samples (at most every
``INTERVAL_S``, outside any timed span), and ``scaled`` turns a sample's
wall time into the time the reference host would have taken: the wall
time in units of the latest probes, times the probe's time on the
reference host.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from typing import List

import numpy as np

#: Probe time on the reference host, about the median on the 2-vCPU
#: 2.1 GHz host the benchmark was tuned on (7 to 15 ms there as the host
#: got busier); only a scale, so that scaled times read as seconds.
REFERENCE_S = 0.0100
#: Least time between two probes, so that probing costs a few percent.
INTERVAL_S = 0.25
#: A sample is scaled by the median of this many latest probes: one probe
#: is noisy, and the host's speed changes over seconds, not milliseconds.
WINDOW = 3


def probe() -> float:
    """Run the fixed probe once; return its wall time in seconds.

    The cyclic collector is off meanwhile: a collection of the caller's
    heap would time the caller, not the host.
    """
    gc.disable()
    try:
        return _timed_probe()
    finally:
        gc.enable()


def _timed_probe() -> float:
    start = time.perf_counter()
    table = {}
    for i in range(4000):
        table[f"n{i}"] = (i, [i % 7, i % 11], {"w": i * 0.5})
    total = 0.0
    for key, (i, pair, attrs) in table.items():
        total += attrs["w"] * pair[0] + len(key)
    order = sorted(table, key=lambda k: table[k][1][1] * 10000 - table[k][0])
    # A JSON round trip and freshly mapped pages, as plans and replies take.
    doc = json.loads(json.dumps({k: table[k][2] for k in order[:2000]}))
    fresh = np.ones(1 << 17)
    arr = np.arange(4096, dtype=np.float64)
    for _ in range(30):
        arr = np.cumsum(arr[::-1]) % 1000.0
    if total < 0 or len(doc) != 2000 or fresh.sum() < 0 or arr[0] < 0:
        raise AssertionError("unreachable: keeps the work from being skipped")
    return time.perf_counter() - start


def scaled(seconds: float, probe_s: float) -> float:
    """*seconds* measured next to a probe of *probe_s*, on the reference host."""
    return seconds * REFERENCE_S / probe_s


class HostSpeed:
    """The probes of one run, at most one per ``INTERVAL_S``."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._taken = float("-inf")

    def current(self) -> float:
        """Median of the ``WINDOW`` latest probes, after a new probe if the
        latest one is stale."""
        if time.perf_counter() - self._taken >= INTERVAL_S:
            self.samples.append(probe())
            self._taken = time.perf_counter()
        return statistics.median(self.samples[-WINDOW:])

    def slowdown(self) -> float:
        """The run's median probe over the reference one, for the report."""
        if not self.samples:
            return 1.0
        return statistics.median(self.samples) / REFERENCE_S
