"""Counter / gauge hooks riding the same sinks as :mod:`.trace`.

``counter`` accumulates (cache hits, candidates examined), ``gauge``
records a point-in-time value (compression ratio, best cost).  Both are
no-ops while observability is disabled — instrumentation sites may call
them unconditionally, but hot loops should publish totals once at the
end of a phase rather than incrementing per event (the pattern
``search_block_candidates`` uses for the columnar tier's counters).
"""

from __future__ import annotations

import time

from . import trace as _trace
from .sinks import MetricRecord

__all__ = ["counter", "gauge", "enabled"]


def enabled() -> bool:
    """Mirror of :func:`repro.obs.trace.enabled` for metric-only sites."""
    return _trace.enabled()


def counter(name: str, value: float = 1, **attrs) -> None:
    """Add *value* to the counter *name* (sinks aggregate by name)."""
    # Lock-free fast path, same benign race as trace.span()
    if not _trace._ENABLED:  # repro-lint: ignore[unguarded-attr]
        return
    _trace._emit_metric(
        MetricRecord(
            kind="counter",
            name=name,
            value=value,
            ts=time.perf_counter(),
            attrs=attrs,
        )
    )


def gauge(name: str, value: float, **attrs) -> None:
    """Set the gauge *name* to *value* (last write wins in summaries)."""
    # Lock-free fast path, same benign race as trace.span()
    if not _trace._ENABLED:  # repro-lint: ignore[unguarded-attr]
        return
    _trace._emit_metric(
        MetricRecord(
            kind="gauge",
            name=name,
            value=value,
            ts=time.perf_counter(),
            attrs=attrs,
        )
    )
