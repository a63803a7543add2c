"""Columnar search core at scale — order-of-magnitude-larger graphs.

The large zoo presets (a 96-layer T5 stack, a ResNet with a 300K-class
head, a 48-layer MoE) push the search onto graphs where per-candidate
Python overhead dominates.  This bench times the reference
route-everything loop against the columnar array-batched core on each,
warm (one untimed derivation, then min of several repeats — the sweep
regime the columnar compile-once design amortises), asserts bit-identical
selection, pins the bounded search's valid and bound-skipped counts to
``tests/data/search_counts.json``, and archives the columnar
``speedup`` plus peak tracked memory per tier in ``BENCH_columnar.json``.
"""

import json
import time
import tracemalloc
from pathlib import Path

import pytest

from repro.core import derive_plan
from repro.models import build_preset
from repro.viz import format_table

from common import emit, emit_bench_json, nodes_for, mesh_16w

MODELS = ("t5_96l", "resnet_300k", "moe_deep")

TIERS = ("reference", "columnar")

#: Timed repeats per tier (after one untimed warm-up derivation).
REPEATS = 3

#: Floor on columnar vs. reference wall clock on the deep-stack preset the
#: columnar tier targets.  Nominal: the reference is 10-60x slower, so this
#: only catches a collapse; columnar slowdowns are gated by the ``wall_s``
#: rows of ``benchmarks/baselines/columnar.json``.
MIN_COLUMNAR_SPEEDUP = 3.0

#: Bounded-search counters recorded from the retired engine tier.
PINNED = json.loads(
    (Path(__file__).parent.parent / "tests" / "data" / "search_counts.json")
    .read_text()
)["counts"]


def time_tier(ng, mesh, tier):
    """Warm up once, then return (best wall_s, last result)."""
    derive_plan(ng, mesh, engine=tier)
    best = float("inf")
    result = None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = derive_plan(ng, mesh, engine=tier)
        best = min(best, time.perf_counter() - t0)
    return best, result


def peak_mem_mb(ng, mesh):
    """Peak tracked memory of one warm columnar derivation (outside the
    timing windows — tracemalloc slows allocation)."""
    tracemalloc.start()
    derive_plan(ng, mesh, engine="columnar")
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak / 2**20


def sweep():
    mesh = mesh_16w()
    rows = []
    for label in MODELS:
        ng = nodes_for(build_preset(label))
        timings, results = {}, {}
        for tier in TIERS:
            timings[tier], results[tier] = time_tier(ng, mesh, tier)
        rows.append(
            {
                "model": label,
                "nodes": len(ng),
                "wall": timings,
                "results": results,
                "peak_mb": peak_mem_mb(ng, mesh),
            }
        )
    return rows


@pytest.mark.slow
def test_columnar_scale_speedup(run_once):
    rows = run_once(sweep)
    table = format_table(
        ["model", "nodes", "reference (s)", "columnar (s)", "speed-up",
         "candidates", "bound-skipped"],
        [
            [
                r["model"],
                r["nodes"],
                f"{r['wall']['reference']:.3f}",
                f"{r['wall']['columnar']:.3f}",
                f"{r['wall']['reference'] / r['wall']['columnar']:.1f}x",
                r["results"]["columnar"].candidates_examined,
                r["results"]["columnar"].bound_skipped,
            ]
            for r in rows
        ],
        title="columnar search core at scale, warm min-of-%d (mesh 2x8)"
              % REPEATS,
    )
    emit("columnar_scale", table)
    records = []
    for r in rows:
        for tier in TIERS:
            res = r["results"][tier]
            rec = {
                "model": f"{r['model']}@{tier}",
                "engine": tier,
                "nodes": r["nodes"],
                "wall_s": r["wall"][tier],
                "candidates": res.candidates_examined,
            }
            if tier == "columnar":
                rec.update(
                    evaluations=res.evaluations,
                    cache_hits=res.cache_hits,
                    bound_skipped=res.bound_skipped,
                    peak_mem_mb=r["peak_mb"],
                    speedup=r["wall"]["reference"] / r["wall"][tier],
                )
            records.append(rec)
    emit_bench_json("columnar", records)

    for r in rows:
        ref, col = r["results"]["reference"], r["results"]["columnar"]
        # the columnar core is a pure accelerator: identical selection
        assert col.plan.as_dict == ref.plan.as_dict, r["model"]
        assert col.plan.tp_degree == ref.plan.tp_degree, r["model"]
        assert col.cost == ref.cost, r["model"]
        assert col.candidates_examined == ref.candidates_examined, r["model"]
        pinned = PINNED[f"{r['model']}@testbed_2x8"]
        assert col.valid_plans == pinned["valid_plans"], r["model"]
        assert col.bound_skipped == pinned["bound_skipped"], r["model"]
        # batched pricing never loses to the per-candidate loop at scale
        assert r["wall"]["columnar"] < r["wall"]["reference"], r["model"]

    # the headline: the deep-stack preset clears the speed-up floor
    t5 = next(r for r in rows if r["model"] == "t5_96l")
    speedup = t5["wall"]["reference"] / t5["wall"]["columnar"]
    assert speedup >= MIN_COLUMNAR_SPEEDUP, speedup
