"""The planner benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload plan-zoo --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/`` and writes only under ``perfbench/out/``.  Workloads:

* ``plan-zoo``: cold plans of wide and shallow presets, where search is
  most of each job;
* ``plan-deep``: cold plans over the T5 depth ladder (48/96/192 layers),
  gpt3_like and moe_deep, where winner routing, rewrite and verify are;
* ``service-mix``: rounds of a seeded Zipf mix of ``/plan`` and
  ``/simulate`` requests, each round from one closed-loop client to a
  fresh ``repro serve`` daemon.

Every output is checked against ``perfbench/expected.json``.  Timed
samples are scaled to a reference host by a fixed probe taken next to
them (``hostspeed.py``).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics, or with ``--trace 1`` the per-layer ones).  The
lines before it print the same figures with their units for a reader.
Without ``--workload`` every workload runs in turn, each printing its own
report and result line.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CHAIN = HERE / "chain.py"
EXPECTED = HERE / "expected.json"

sys.path.insert(0, str(HERE))

from hostspeed import probe, scaled  # noqa: E402
from metrics import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    SLOPE_STAGES,
    STAGES,
    UNITS,
    geomean,
    loglog_slope,
    median,
    typical_times,
)
from workloads import PLAN_DEEP, SERVICE_MIX, T5_DEPTHS, WORKLOADS  # noqa: E402

#: Fresh interpreters started per plan run, half before the jobs and half
#: after; ``setup_s`` is their median.  Spreading them over the run lets
#: them see the same machine as the jobs, not one moment of it.
PLAN_SETUPS = 10
#: Every run must end well inside three minutes.
RUN_LIMIT_S = 170.0


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def check_job(rec: Dict, expected: Dict) -> bool:
    exp = expected["plans"].get(rec["key"])
    return (
        exp is not None
        and rec["sha256"] == exp["sha256"]
        and rec["cost"] == exp["cost"]
        and rec["iteration_s"] == exp["iteration_s"]
        and rec["verify_errors"] == 0
    )


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def plan_layers(traced: List[Dict], result: Dict, workload: str,
                notes: List[str]) -> Dict[str, float]:
    """Per-layer metrics from the traced jobs of a plan workload."""
    layers: Dict[str, float] = {
        "pipeline.job_s": _mean([r["wall_s"] for r in traced]),
    }
    for stage in STAGES:
        layers[stage + "_s"] = _mean([r["layers"][stage] for r in traced])
    per_job = ("models.ops", "core.graphnode.nodes", "core.pruning.families",
               "core.planner.candidates", "core.planner.valid",
               "core.planner.bound_skipped", "core.planner.evaluations",
               "core.planner.cache_hits", "core.rewrite.comm_ops",
               "core.rewrite.gradient_buckets", "simulator.segments",
               "simulator.nodes_replayed")
    for name in per_job:
        layers[name] = _mean([r["counts"][name] for r in traced])

    def total(name: str) -> float:
        return sum(r["counts"][name] for r in traced)

    layers["core.pruning.searched_frac"] = (
        total("core.pruning.searched_nodes") / total("core.pruning.all_nodes"))
    layers["core.planner.bound_skip_frac"] = (
        total("core.planner.bound_skipped") / total("core.planner.candidates"))
    layers["verify.errors"] = sum(r["verify_errors"] for r in traced)
    pairs = result["pairs"]
    layers["trace.overhead_ms"] = median([t - p for p, t in pairs]) * 1e3
    layers["trace.overhead_frac"] = median([t / p - 1 for p, t in pairs])
    back_half = ("core.routing.route_winner", "core.rewrite.rewrite",
                 "verify.routed", "verify.rewrite")
    for model in sorted({r["model"] for r in traced}):
        jobs = [r for r in traced if r["model"] == model]
        wall = _mean([r["wall_s"] for r in jobs])
        search = _mean([r["layers"]["core.planner.search"] for r in jobs])
        back = _mean([sum(r["layers"][s] for s in back_half) for r in jobs])
        notes.append(f"{model}: job {wall:.4f} s, search {search / wall:.0%}, "
                     f"route+rewrite+verify {back / wall:.0%}")
    if workload == PLAN_DEEP:
        for layer, stages in SLOPE_STAGES.items():
            points = []
            for depth in T5_DEPTHS:
                times = [sum(r["layers"][s] for s in stages)
                         for r in traced if r["model"] == f"t5_{depth}L"]
                points.append((depth, _mean(times)))
            layers[f"{layer}.depth_slope"] = loglog_slope(points)
            notes.append(f"{layer}.depth_slope points (layers, s): " + ", ".join(
                f"({d}, {t:.4f})" for d, t in points))
    return layers


def probe_imports(count: int) -> Tuple[List[float], List[float]]:
    """Start *count* fresh interpreters that import the pipeline and exit.

    Returns each one's wall time (interpreter start included), scaled to
    the reference host by a probe just before it, and the import time it
    measured itself.
    """
    walls, imports = [], []
    for _ in range(count):
        probe_s = probe()
        start = time.perf_counter()
        child = subprocess.run(
            [sys.executable, str(CHAIN), "--probe"], env=child_env(),
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
            timeout=60)
        walls.append(scaled(time.perf_counter() - start, probe_s))
        imports.append(json.loads(child.stdout)["import_s"])
    return walls, imports


def run_plan(workload: str, seed: int, seconds: float, trace: bool,
             expected: Dict, trace_file: Path, deadline: float) -> Dict:
    setups, imports = probe_imports(PLAN_SETUPS // 2)
    spec = {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "trace_file": str(trace_file)}
    proc = subprocess.run(
        [sys.executable, str(CHAIN)], input=json.dumps(spec), env=child_env(),
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
        timeout=max(deadline - time.perf_counter(), 1.0))
    result = json.loads(proc.stdout.splitlines()[-1])
    more_setups, more_imports = probe_imports(PLAN_SETUPS - PLAN_SETUPS // 2)
    setups += more_setups
    imports += more_imports
    jobs = result["jobs"]
    measured = [r for r in jobs if not r.get("untraced")]
    # A job's class is its model and mesh (batch size and ZeRO stage move
    # its time little); every round holds each class equally often.
    typical = typical_times((r["key"].split("/")[0],
                             scaled(r["wall_s"], r["probe_s"])) for r in jobs)
    out = {
        "attempted": len(jobs),
        "failed": sum(not check_job(r, expected) for r in jobs),
        "end_to_end": {
            "setup_s": median(setups),
            "plans_per_s": len(jobs) / sum(typical),
            "req_per_s": len(jobs) / sum(typical),
            "plan_s": geomean(typical),
            "step_ms": geomean(r["iteration_s"] for r in jobs) * 1e3,
            "peak_rss_mb": result["peak_rss_mb"],
        },
        "notes": [f"{len(jobs)} jobs in {result['elapsed_s']:.2f} s; as run: "
                  f"{len(jobs) / result['elapsed_s']:.4f} jobs/s, geometric "
                  f"mean job {geomean(r['wall_s'] for r in jobs):.4f} s; "
                  f"host {result['host_slowdown']:.3f}x as slow as the "
                  "reference"],
    }
    if trace:
        out["per_layer"] = plan_layers(measured, result, workload, out["notes"])
        out["per_layer"]["import.s"] = median(imports)
    return out


def run_service(seed: int, seconds: float, trace: bool, expected: Dict,
                trace_file: Path) -> Dict:
    sys.path.insert(0, str(ROOT / "src"))
    import service_mix

    out = service_mix.run(ROOT, OUT, child_env(), seed, seconds, trace,
                          expected, trace_file)
    if trace:
        out["per_layer"]["import.s"] = median(probe_imports(PLAN_SETUPS // 2)[1])
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 expected: Dict) -> None:
    """Run one workload and print its report; the JSON result comes last."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    trace_file = OUT / f"trace-{workload}-seed{seed}.json"
    if workload == SERVICE_MIX:
        out = run_service(seed, seconds, trace, expected, trace_file)
    else:
        out = run_plan(workload, seed, seconds, trace, expected, trace_file,
                       deadline)
    wanted = PER_LAYER if trace else END_TO_END
    source = out["per_layer"] if trace else out["end_to_end"]
    values = {m.name: float(source.get(m.name, 0.0)) for m in wanted}
    print(f"== {workload} seed {seed}")
    for note in out.get("notes", []) + out.get("errors", []):
        print(note)
    print(f"error_rate: {out['failed']}/{out['attempted']} failed")
    for name, value in values.items():
        print(f"{name:36s} {value:14.6g} {UNITS[name]}")
    if trace:
        print(f"trace: {trace_file.relative_to(ROOT)} (Perfetto-loadable)")
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {n: {"value": v, "unit": UNITS[n]} for n, v in values.items()},
    }), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: each in turn)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'repro'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    if args.workload is None:
        # One process per workload, so that no run sees another's children.
        for workload in WORKLOADS:
            subprocess.run([sys.executable, __file__, "--workload", workload,
                            "--seed", str(args.seed), "--seconds",
                            str(args.seconds), "--trace", str(args.trace)],
                           check=True)
        return 0
    OUT.mkdir(exist_ok=True)
    run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                 json.loads(EXPECTED.read_text()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
