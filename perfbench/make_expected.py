"""Regenerate ``expected.json``: reference outputs for every job and key.

    PYTHONPATH=src python3 perfbench/make_expected.py

For every job the seeded plan rounds can draw and every service key, this
records the sha256 of ``routed_to_json`` of the winning plan, its cost and
its simulated iteration time, all from the reference search tier
(``engine="reference"``) and the reference simulator.  For every
``/simulate`` key it records the sha256 of the reply's ``profiles`` list,
computed by an in-process ``PlannerService`` whose plan search and
simulation both run on the reference tiers.  Benchmark runs compare against
this file and never run the reference themselves; the reference takes
seconds per job, so the jobs run in one worker process per CPU.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from workloads import (
    PLAN_DEEP,
    PLAN_ZOO,
    Job,
    Request,
    all_plan_jobs,
    service_keys,
)

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
COMMAND = "PYTHONPATH=src python3 perfbench/make_expected.py"


def profiles_digest(profiles) -> str:
    """The digest ``expected.json`` keeps for a ``/simulate`` reply."""
    return hashlib.sha256(
        json.dumps(profiles, sort_keys=True).encode()
    ).hexdigest()


def reference_plan(job: Job) -> dict:
    from repro.cluster import paper_testbed
    from repro.core import CostConfig, coarsen, derive_plan, routed_to_json
    from repro.graph import trim_auxiliary
    from repro.simulator import simulate_iteration

    from chain import build_model

    mesh = paper_testbed(job.nodes, job.gpus)
    cfg = CostConfig(batch_tokens=job.batch_tokens)
    ng = coarsen(trim_auxiliary(build_model(job.model))[0])
    result = derive_plan(ng, mesh, cost_config=cfg, engine="reference",
                         zero_stage=job.zero_stage)
    routed = result.routed
    profile = simulate_iteration(routed, mesh, cfg, engine="reference")
    return {
        "sha256": hashlib.sha256(routed_to_json(routed).encode()).hexdigest(),
        "cost": result.cost,
        "iteration_s": profile.iteration_time,
    }


def reference_simulate(req: Request) -> dict:
    from repro.service import PlannerService, PlanRequest, SimulateRequest

    where = dict(model=req.model, mesh_nodes=req.nodes, mesh_gpus=req.gpus,
                 batch_tokens=req.batch_tokens)
    with PlannerService() as service:
        # The plan key leaves the tier out, so the 'tap' candidate of the
        # simulate request below is served this reference-tier plan.
        service.plan(PlanRequest(engine="reference", **where))
        reply = service.simulate(SimulateRequest(engine="reference", **where))
    profiles = reply.profiles
    tap = next(p for p in profiles if p["plan"] == "tap")
    return {
        "sha256": profiles_digest(profiles),
        "tap_iteration_s": tap["profile"]["iteration_time"],
    }


def main() -> int:
    jobs = {}
    for job in all_plan_jobs(PLAN_ZOO) + all_plan_jobs(PLAN_DEEP):
        jobs[job.key] = job
    requests = {}
    for model, nodes, gpus, bt in service_keys():
        jobs.setdefault(Request("plan", model, nodes, gpus, bt).key,
                        Job(model, nodes, gpus, bt, 0))
        req = Request("simulate", model, nodes, gpus, bt)
        requests[req.key] = req
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(os.cpu_count() or 1, mp_context=ctx) as pool:
        plan_futures = {k: pool.submit(reference_plan, j) for k, j in jobs.items()}
        sim_futures = {k: pool.submit(reference_simulate, r)
                       for k, r in requests.items()}
        doc = {
            "command": COMMAND,
            "plans": {k: f.result() for k, f in sorted(plan_futures.items())},
            "simulate": {k: f.result() for k, f in sorted(sim_futures.items())},
        }
    EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc['plans'])} plan and {len(doc['simulate'])} "
          f"simulate entries to {EXPECTED}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
