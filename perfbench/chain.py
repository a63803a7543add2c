"""The cold plan pipeline, one job after another, in a fresh interpreter.

``run.py`` starts this file as a child process, so that every plan run
starts from a clean interpreter and the peak memory is this process's own:

    python3 perfbench/chain.py --probe   # import only; prints the import time
    python3 perfbench/chain.py < spec    # runs jobs; prints one JSON result

The spec is ``{"workload", "seed", "seconds", "trace", "trace_file"}``.
Whole rounds of seeded jobs (see ``workloads.py``) run while time is left
(``workloads.another_round``).
Each job is the chain ``repro plan`` runs, with the tool's defaults, on a
freshly built graph, so every per-graph memo starts cold:

    build -> trim -> coarsen -> prune -> search -> route winner -> rewrite
    -> verify routed + rewrite -> simulate -> memory

Before each job, outside its timing, the run notes the latest host-speed
probes (``hostspeed.py``), taking a new one if they are stale.  Every
stage runs inside a ``repro.obs`` span named after its layer.  With
tracing off those spans are the library's shared no-op; with ``trace``
set, every job runs twice in a row, once untraced and once traced (the
order alternates), which gives the tracing overhead, and the traced run's
spans give each layer's self time.
"""

import time

_T0 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from repro import obs  # noqa: E402
from repro.cluster import paper_testbed  # noqa: E402
from repro.core import (  # noqa: E402
    CostConfig,
    coarsen,
    derive_plan,
    prune_graph,
    rewrite_graph,
    routed_to_json,
)
from repro.graph import trim_auxiliary  # noqa: E402
from repro.models import build_preset, t5_with_depth  # noqa: E402
from repro.simulator import memory_per_device, simulate_iteration  # noqa: E402
from repro.verify import verify_rewrite, verify_routed  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

from hostspeed import HostSpeed  # noqa: E402
from metrics import STAGES, self_times  # noqa: E402
from workloads import Job, another_round, iter_rounds  # noqa: E402


def build_model(name: str):
    """A zoo preset, or ``t5_<depth>L`` from the T5 depth ladder."""
    if name.startswith("t5_") and name.endswith("L"):
        return t5_with_depth(int(name[3:-1]))
    return build_preset(name)


def run_job(job: Job) -> dict:
    """Run the whole chain for *job*; return its wall time and outputs."""
    span = obs.trace.span
    mesh = paper_testbed(job.nodes, job.gpus)
    cfg = CostConfig(batch_tokens=job.batch_tokens)
    start = time.perf_counter()
    with span("job", key=job.key):
        with span("models.build"):
            graph = build_model(job.model)
        with span("graph.trim"):
            trimmed, record = trim_auxiliary(graph)
        with span("core.graphnode.coarsen"):
            ng = coarsen(trimmed)
        # Pruning first: derive_plan then reuses the graph's prune memo,
        # which keeps prune time out of the search span.
        with span("core.pruning.prune"):
            prune = prune_graph(ng)
        with span("core.planner.search"):
            result = derive_plan(ng, mesh, cost_config=cfg,
                                 zero_stage=job.zero_stage)
        with span("core.routing.route_winner"):
            routed = result.routed
        with span("core.rewrite.rewrite"):
            rewrite = rewrite_graph(trimmed, ng, routed, trim_record=record,
                                    packing=cfg.packing)
        with span("verify.routed"):
            report = verify_routed(ng, routed, mesh, cfg)
        with span("verify.rewrite"):
            report.extend(verify_rewrite(ng, routed, rewrite,
                                         packing=cfg.packing))
        with span("simulator.simulate"):
            profile = simulate_iteration(routed, mesh, cfg)
        with span("simulator.memory"):
            memory_per_device(routed, mesh, cfg)
    wall = time.perf_counter() - start
    return {
        "key": job.key,
        "model": job.model,
        "wall_s": wall,
        "sha256": hashlib.sha256(routed_to_json(routed).encode()).hexdigest(),
        "cost": result.cost,
        "iteration_s": profile.iteration_time,
        "verify_errors": len(report.errors),
        "counts": {
            "models.ops": len(graph),
            "core.graphnode.nodes": len(ng),
            "core.pruning.families": len(prune.families),
            "core.pruning.searched_nodes": prune.nodes_after,
            "core.pruning.all_nodes": prune.nodes_before,
            "core.planner.candidates": result.candidates_examined,
            "core.planner.valid": result.valid_plans,
            "core.planner.bound_skipped": result.bound_skipped,
            "core.planner.evaluations": result.evaluations,
            "core.planner.cache_hits": result.cache_hits,
            "core.rewrite.comm_ops": rewrite.num_comm_ops,
            "core.rewrite.gradient_buckets": rewrite.num_gradient_buckets,
            "simulator.segments": profile.segments_detected,
            "simulator.nodes_replayed": profile.nodes_replayed,
        },
    }


def run_traced(job: Job, sinks) -> dict:
    """Run *job* with *sinks* installed; add its layers' self times."""
    memory = sinks[0]
    first = len(memory.spans)
    obs.enable(*sinks)
    try:
        rec = run_job(job)
    finally:
        obs.disable(close=False)
    names = set(STAGES) | {"job"}
    own = [(s.name, s.start, s.duration, s.thread)
           for s in memory.spans[first:] if s.name in names]
    rec["layers"] = self_times(own)
    return rec


def main(spec: dict) -> dict:
    seconds = float(spec["seconds"])
    trace = bool(spec["trace"])
    sinks = (obs.MemorySink(), obs.ChromeTraceSink()) if trace else None
    records, pairs = [], []
    speed = HostSpeed()
    start = time.perf_counter()
    round_s = 0.0
    for number, jobs in enumerate(iter_rounds(spec["workload"], spec["seed"])):
        if number and not another_round(start, round_s, seconds):
            break
        round_start = time.perf_counter()
        for job in jobs:
            probe_s = speed.current()
            if not trace:
                records.append(dict(run_job(job), probe_s=probe_s))
                continue
            traced_first = len(records) % 4 == 0
            if traced_first:
                traced, plain = run_traced(job, sinks), run_job(job)
            else:
                plain, traced = run_job(job), run_traced(job, sinks)
            plain["untraced"] = True
            plain["probe_s"] = traced["probe_s"] = probe_s
            records += [plain, traced]
            pairs.append((plain["wall_s"], traced["wall_s"]))
        round_s = time.perf_counter() - round_start
    elapsed = time.perf_counter() - start
    if trace:
        obs.save_trace_events(sinks[1].events(), spec["trace_file"])
    return {
        "import_s": IMPORT_S,
        "elapsed_s": elapsed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": records,
        "pairs": pairs,
        "host_slowdown": speed.slowdown(),
    }


if __name__ == "__main__":
    if sys.argv[1:] == ["--probe"]:
        print(json.dumps({"import_s": IMPORT_S}))
    else:
        print(json.dumps(main(json.load(sys.stdin))))
