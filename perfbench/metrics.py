"""Metric names, units and directions, plus the statistics the benchmark uses.

``END_TO_END`` and ``PER_LAYER`` are the one list of what the benchmark
reports; ``BENCHMARK.json`` at the repository root repeats the names, units
and directions (a test keeps the two equal).  Each per-layer metric names
its layer (the module it times, as the name prefix) and the end-to-end
metric and workload it is expected to move.

Every timed sample behind an end-to-end metric is first scaled to the
reference host (``hostspeed.py``).  The throughput and latency metrics
then use each sample's *typical* time: the lower quartile of its class
(``typical_times``), a class being a job's model and mesh, or a request's
kind, key and reply source.  Every round holds the same classes equally
often, so the figures keep the run's mix.

Every workload prints every metric.  A per-layer metric of a layer that a
workload does not exercise reads 0 there (the depth slopes outside
``plan-deep``, the ``service.*`` counters outside ``service-mix``, the
pipeline stages inside ``service-mix``, whose searches run in the daemon).
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Hashable, Iterable, List, NamedTuple, Sequence, Tuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: end-to-end: what a user sees; per-layer: the metric it should move
    about: str


END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower",
           "median of several set-ups: a fresh interpreter importing the "
           "pipeline (plan workloads); daemon start to first healthy "
           "/health (service-mix)"),
    Metric("plans_per_s", "plans/s", "higher",
           "plans delivered per second of work, at each class's typical "
           "time: cold jobs (plan workloads), successful POST /plan "
           "replies (service-mix)"),
    Metric("req_per_s", "req/s", "higher",
           "requests answered per second of work, at each class's typical "
           "time; a plan job is one request, service-mix counts /plan and "
           "/simulate"),
    Metric("plan_s", "s", "lower",
           "geometric mean of the typical time to one plan: a whole cold "
           "job, or a /plan client round trip, hits and misses together"),
    Metric("step_ms", "ms", "lower",
           "geometric mean of the winner's simulated iteration time (plan "
           "quality): the job's own simulation, or the 'tap' profile of "
           "/simulate replies"),
    Metric("peak_rss_mb", "MB", "lower",
           "peak resident memory of the processes doing the planning: the "
           "job process, or the daemon and its worker summed (median over "
           "the rounds)"),
)

_DEEP = "plans_per_s on plan-deep"
_ZOO = "plans_per_s, plan_s on plan-zoo"
_HIT = "plan_s, req_per_s on service-mix"
_MISS = "req_per_s on service-mix (misses)"
_SLOPE = "plan_s on plan-deep (the 192-layer job)"
_NONE = "none: under 3% of every job"

PER_LAYER: Tuple[Metric, ...] = (
    Metric("pipeline.job_s", "s", "lower", "plan_s on plan workloads"),
    Metric("models.build_s", "s", "lower", _DEEP),
    Metric("models.ops", "count", "lower", _DEEP),
    Metric("graph.trim_s", "s", "lower", _DEEP),
    Metric("core.graphnode.coarsen_s", "s", "lower", _DEEP),
    Metric("core.graphnode.nodes", "count", "lower", _DEEP),
    Metric("core.pruning.prune_s", "s", "lower", _DEEP),
    Metric("core.pruning.families", "count", "higher", _ZOO),
    Metric("core.pruning.searched_frac", "ratio", "lower", _ZOO),
    Metric("core.planner.search_s", "s", "lower",
           _ZOO + "; miss latency on service-mix"),
    Metric("core.planner.candidates", "count", "lower", _ZOO),
    Metric("core.planner.valid", "count", "lower", _ZOO),
    Metric("core.planner.bound_skipped", "count", "higher", _ZOO),
    Metric("core.planner.evaluations", "count", "lower", _ZOO),
    Metric("core.planner.cache_hits", "count", "higher", _ZOO),
    Metric("core.planner.bound_skip_frac", "ratio", "higher", _ZOO),
    Metric("core.routing.route_winner_s", "s", "lower", _DEEP),
    Metric("core.rewrite.rewrite_s", "s", "lower", _DEEP),
    Metric("core.rewrite.comm_ops", "count", "lower", _DEEP),
    Metric("core.rewrite.gradient_buckets", "count", "lower", _DEEP),
    Metric("verify.routed_s", "s", "lower", _DEEP),
    Metric("verify.rewrite_s", "s", "lower", _DEEP),
    Metric("verify.errors", "count", "lower", "correctness: must stay 0"),
    Metric("simulator.simulate_s", "s", "lower", _NONE),
    Metric("simulator.memory_s", "s", "lower", _NONE),
    Metric("simulator.segments", "count", "higher", _NONE),
    Metric("simulator.nodes_replayed", "count", "higher", _NONE),
    Metric("simulator.whatif_s", "s", "lower", _MISS),
    Metric("models.depth_slope", "slope", "lower", _SLOPE),
    Metric("core.graphnode.depth_slope", "slope", "lower", _SLOPE),
    Metric("core.pruning.depth_slope", "slope", "lower", _SLOPE),
    Metric("core.planner.depth_slope", "slope", "lower", _SLOPE),
    Metric("core.routing.depth_slope", "slope", "lower", _SLOPE),
    Metric("core.rewrite.depth_slope", "slope", "lower", _SLOPE),
    Metric("verify.depth_slope", "slope", "lower", _SLOPE),
    Metric("simulator.depth_slope", "slope", "lower", _SLOPE),
    Metric("core.serialize.envelope_kb", "kB", "lower", _HIT),
    Metric("core.serialize.encode_ms", "ms", "lower", _HIT),
    Metric("core.serialize.decode_ms", "ms", "lower", _HIT),
    Metric("core.fingerprint.request_key_ms", "ms", "lower", _HIT),
    Metric("service.hit_p50_ms", "ms", "lower", _HIT),
    Metric("service.hit_p90_ms", "ms", "lower", _HIT),
    Metric("service.miss_p50_s", "s", "lower", _MISS),
    Metric("service.server.http_hit_ms", "ms", "lower", _HIT),
    Metric("service.server.http_miss_ms", "ms", "lower", _MISS),
    Metric("service.planner.hit_ms", "ms", "lower", _HIT),
    Metric("service.planner.coalesced", "count", "higher", _MISS),
    Metric("service.planner.overloaded", "count", "lower", _MISS),
    Metric("service.planner.errors", "count", "lower", "correctness"),
    Metric("service.cache.memory_hits", "count", "higher", _HIT),
    Metric("service.cache.disk_hits", "count", "lower", _HIT),
    Metric("service.cache.misses", "count", "lower", _MISS),
    Metric("service.cache.evictions", "count", "lower", _HIT),
    Metric("service.cache.hit_frac", "ratio", "higher", _HIT),
    Metric("service.workers.search_s", "s", "lower", _MISS),
    Metric("service.workers.wall_s", "s", "lower", _MISS),
    Metric("import.s", "s", "lower", "setup_s on every workload"),
    Metric("trace.overhead_ms", "ms", "lower",
           "traced minus untraced time of one job or one cache hit"),
    Metric("trace.overhead_frac", "ratio", "lower",
           "traced over untraced time, minus 1"),
)

UNITS: Dict[str, str] = {m.name: m.unit for m in END_TO_END + PER_LAYER}

#: Layer spans the plan workloads record, in pipeline order.
STAGES = (
    "models.build", "graph.trim", "core.graphnode.coarsen",
    "core.pruning.prune", "core.planner.search", "core.routing.route_winner",
    "core.rewrite.rewrite", "verify.routed", "verify.rewrite",
    "simulator.simulate", "simulator.memory",
)

#: ``<layer>.depth_slope`` -> the stage spans whose summed time it fits.
SLOPE_STAGES = {
    "models": ("models.build",),
    "core.graphnode": ("graph.trim", "core.graphnode.coarsen"),
    "core.pruning": ("core.pruning.prune",),
    "core.planner": ("core.planner.search",),
    "core.routing": ("core.routing.route_winner",),
    "core.rewrite": ("core.rewrite.rewrite",),
    "verify": ("verify.routed", "verify.rewrite"),
    "simulator": ("simulator.simulate", "simulator.memory"),
}


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


#: Percentile of a class's samples that stands for the class.  Other
#: processes on a shared host only ever add time, so a low quantile of
#: repeated identical work follows the program and not its neighbours,
#: while a quartile (not the minimum) is not set by one lucky sample.
TYPICAL_Q = 25.0


def typical_times(samples: Iterable[Tuple[Hashable, float]]) -> List[float]:
    """Each ``(class, seconds)`` sample's time replaced by its class's
    ``TYPICAL_Q`` percentile, in sample order.

    Sums and means over the result keep the run's mix (how often each
    class came) and drop the time other processes added to single samples.
    """
    samples = list(samples)
    by_class: Dict[Hashable, List[float]] = {}
    for cls, value in samples:
        by_class.setdefault(cls, []).append(value)
    low = {cls: percentile(v, TYPICAL_Q) for cls, v in by_class.items()}
    return [low[cls] for cls, _ in samples]


def geomean(values: Iterable[float]) -> float:
    logs = [math.log(v) for v in values if v > 0]
    return math.exp(sum(logs) / len(logs)) if logs else 0.0


def loglog_slope(points: Sequence[Tuple[float, float]]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx if sxx else 0.0


def self_times(spans: Sequence[Tuple[str, float, float, int]]) -> Dict[str, float]:
    """Self time per span name: duration minus what child spans cover.

    *spans* are ``(name, start, duration, thread)``.  A span's children are
    the spans on its thread that lie inside it and inside no other span
    that does; only the spans passed in count, so the caller chooses the
    tree (the benchmark passes its own layer spans).
    """
    out: Dict[str, float] = {}
    ordered = sorted(spans, key=lambda s: (s[3], s[1], -s[2]))
    for i, (name, start, dur, thread) in enumerate(ordered):
        end = start + dur
        covered = 0.0
        reach = start
        for cname, cstart, cdur, cthread in ordered[i + 1:]:
            if cthread != thread or cstart >= end:
                break
            cend = min(cstart + cdur, end)
            if cend <= reach:
                continue  # nested inside an already counted child
            covered += cend - max(cstart, reach)
            reach = cend
        out[name] = out.get(name, 0.0) + dur - covered
    return out
