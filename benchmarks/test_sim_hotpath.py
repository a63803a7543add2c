"""Simulation hot path — the columnar tier vs. the reference event loop.

Times `simulate_iteration` on its two tiers.  The legacy pair (48-layer
T5, 100K-class ResNet) times the default columnar tier against the
reference event loop with columnar's cold compile included; the large
zoo presets (96-layer T5, 300K-class ResNet, deep MoE) time both tiers
*warm* — the sweep regime where one routed plan is priced over and over
and the columnar prefix-sum replay amortises its compile.  A final
record times `simulate_batch` pricing every named baseline plan of the
deep T5 (warm) against the equivalent sequence of reference calls — the
what-if/`POST /simulate` shape.

The speed-up floors below compare against the reference loop, which the
columnar tier beats by one to three orders of magnitude, so they are
nominal: they only catch a collapse.  A columnar slowdown is caught by
the regression gate's `+100%` thresholds on the `optimized_s`,
`columnar_s` and `batch_s` rows of `benchmarks/baselines/sim.json`.

Every fast path must be a pure accelerator: profiles and the complete
engine task logs (names, starts, durations — every bit) are asserted
identical to the reference before any timing is trusted.
"""

import time
import tracemalloc

import pytest

from repro.baselines import NAMED_PLANS
from repro.core import CostConfig, DEFAULT_REGISTRY, derive_plan, route_plan
from repro.models import build_preset, resnet_with_classes, t5_with_depth
from repro.viz import format_table

from common import emit, emit_bench_json, nodes_for, mesh_16w

MODELS = (
    ("t5-48L", lambda: t5_with_depth(48), None),
    ("resnet-100K", lambda: resnet_with_classes(100_000),
     CostConfig(batch_tokens=1024)),
)

#: Large zoo presets for the two-tier warm sweep (label, preset name).
LARGE_MODELS = (
    ("t5-96L", "t5_96l"),
    ("resnet-300K", "resnet_300k"),
    ("moe-deep", "moe_deep"),
)

#: Floor on warm reference vs. columnar wall clock on the deep-stack
#: preset the columnar tier targets (nominal: t5-96L lands in the
#: hundreds).  The small presets are only held to "not slower".
MIN_COLUMNAR_SPEEDUP = 8.0

#: Floor on N sequential reference calls vs. one `simulate_batch` of the
#: same N plans (nominal: it lands above 100x).
MIN_BATCH_SPEEDUP = 3.0

#: Simulation rounds per path — the repeated-pricing pattern of the
#: figure sweeps.  The columnar timing includes its cold compile (the
#: plan's tape cache is cleared first), so round 1 pays full price.
ROUNDS = 30

#: Floor on reference vs. columnar wall clock, cold compile included
#: (nominal: the columnar tier lands at 10x and more).
MIN_SPEEDUP = 3.5


def _logs(prof):
    """Channel logs as plain tuples: (channel, task name, start, duration)."""
    out = {}
    for ch in prof.engine.channels:
        out[ch.name] = (
            [(t.name, t.start, t.duration) for t in ch.log],
            ch.free_at,
        )
    return out


def _time_rounds(routed, mesh, cfg, tier):
    """Wall-clock of ROUNDS simulations; columnar re-pays its cold compile."""
    from repro.simulator import simulate_iteration

    routed._sim_cache.clear()
    t0 = time.perf_counter()
    for _ in range(ROUNDS):
        simulate_iteration(routed, mesh, cfg, engine=tier)
    return time.perf_counter() - t0


def _time_warm(routed, mesh, cfg, tier):
    """Wall-clock of ROUNDS warm simulations on *tier* (tapes precompiled)."""
    from repro.simulator import simulate_iteration

    simulate_iteration(routed, mesh, cfg, engine=tier)  # compile untimed
    t0 = time.perf_counter()
    for _ in range(ROUNDS):
        simulate_iteration(routed, mesh, cfg, engine=tier)
    return time.perf_counter() - t0


def _assert_parity(label, routed, mesh, cfg):
    """Both tiers must agree bit-for-bit before timing is trusted."""
    from repro.simulator import simulate_iteration

    ref = simulate_iteration(routed, mesh, cfg, engine="reference")
    routed._sim_cache.clear()
    col = simulate_iteration(routed, mesh, cfg, engine="columnar")
    assert col.as_dict() == ref.as_dict(), label
    assert _logs(col) == _logs(ref), label


def large_sweep():
    """Two-tier warm timings + columnar peak memory on the large zoo."""
    mesh = mesh_16w()
    cfg = CostConfig()
    rows = []
    for label, preset in LARGE_MODELS:
        ng = nodes_for(build_preset(preset))
        plan = NAMED_PLANS["megatron"](ng, mesh.gpus_per_node)
        routed = route_plan(ng, plan, DEFAULT_REGISTRY)
        _assert_parity(label, routed, mesh, cfg)

        t_ref = min(_time_warm(routed, mesh, cfg, "reference")
                    for _ in range(3))
        t_col = min(_time_warm(routed, mesh, cfg, "columnar")
                    for _ in range(3))

        # peak tracked memory of one cold columnar compile + simulate,
        # outside the timing windows
        from repro.simulator import simulate_iteration

        routed._sim_cache.clear()
        tracemalloc.start()
        prof = simulate_iteration(routed, mesh, cfg, engine="columnar")
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()

        rows.append(
            {
                "model": label,
                "engine": "columnar",
                "nodes": len(routed.order),
                "reference_s": t_ref,
                "columnar_s": t_col,
                "speedup": t_ref / t_col,
                "segments": prof.segments_detected,
                "peak_mem_mb": peak / 2**20,
            }
        )
    return rows


def batch_sweep():
    """One `simulate_batch` over every named plan vs. N reference calls."""
    from repro.simulator import simulate_batch, simulate_iteration

    mesh = mesh_16w()
    cfg = CostConfig()
    ng = nodes_for(build_preset("t5_96l"))
    routed_plans = [
        route_plan(ng, builder(ng, mesh.gpus_per_node), DEFAULT_REGISTRY)
        for builder in NAMED_PLANS.values()
    ]
    # parity: the batch must equal the per-plan reference, plan for plan
    batch_profs = simulate_batch(routed_plans, mesh, cfg)
    for routed, prof in zip(routed_plans, batch_profs):
        ref = simulate_iteration(routed, mesh, cfg, engine="reference")
        assert prof.as_dict() == ref.as_dict()
        assert _logs(prof) == _logs(ref)

    def seq():
        t0 = time.perf_counter()
        for _ in range(ROUNDS):
            for routed in routed_plans:
                simulate_iteration(routed, mesh, cfg, engine="reference")
        return time.perf_counter() - t0

    def batched():
        t0 = time.perf_counter()
        for _ in range(ROUNDS):
            simulate_batch(routed_plans, mesh, cfg)
        return time.perf_counter() - t0

    t_seq = min(seq() for _ in range(3))
    t_batch = min(batched() for _ in range(3))
    return {
        "model": "batch-t5-96L",
        "engine": "columnar",
        "plans": len(routed_plans),
        "reference_s": t_seq,
        "batch_s": t_batch,
        "batch_speedup": t_seq / t_batch,
    }


def sweep():
    mesh = mesh_16w()
    rows = []
    for label, build, cfg in MODELS:
        ng = nodes_for(build())
        search = derive_plan(ng, mesh, cost_config=cfg)
        routed = search.routed
        from repro.simulator import simulate_iteration

        # -- bit-exactness first: profile and full task log, both paths --
        ref_prof = simulate_iteration(routed, mesh, cfg, engine="reference")
        routed._sim_cache.clear()
        col_prof = simulate_iteration(routed, mesh, cfg)
        assert col_prof.as_dict() == ref_prof.as_dict(), label
        assert _logs(col_prof) == _logs(ref_prof), label

        # best of three timing windows per path — scheduler noise only
        # ever inflates a window, so the min is the honest number
        t_ref = min(_time_rounds(routed, mesh, cfg, "reference")
                    for _ in range(3))
        t_col = min(_time_rounds(routed, mesh, cfg, "columnar")
                    for _ in range(3))

        # peak tracked memory of one cold columnar simulation (compile +
        # run), measured outside the timing windows
        routed._sim_cache.clear()
        tracemalloc.start()
        simulate_iteration(routed, mesh, cfg)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()

        rows.append(
            {
                "model": label,
                "nodes": len(routed.order),
                "ref_seconds": t_ref,
                "col_seconds": t_col,
                "segments": col_prof.segments_detected,
                "replayed": col_prof.nodes_replayed,
                "peak_mem_mb": peak / 2**20,
            }
        )
    return rows


#: Sweeps are shared between the two tests; the columnar test emits the
#: combined BENCH_sim.json, so records never vanish from the gate.
_CACHE = {}


def _legacy_rows():
    if "legacy" not in _CACHE:
        _CACHE["legacy"] = sweep()
    return _CACHE["legacy"]


def _legacy_records(rows):
    return [
        {
            "model": r["model"],
            "engine": "columnar",
            "reference_s": r["ref_seconds"],
            "optimized_s": r["col_seconds"],
            "speedup": r["ref_seconds"] / r["col_seconds"],
            "nodes": r["nodes"],
            "segments": r["segments"],
            "nodes_replayed": r["replayed"],
            "peak_mem_mb": r["peak_mem_mb"],
        }
        for r in rows
    ]


@pytest.mark.slow
def test_sim_hotpath_replay_speedup(run_once):
    rows = run_once(_legacy_rows)
    table = format_table(
        ["model", "nodes", f"reference (s, {ROUNDS} rounds)",
         "columnar (s)", "speed-up", "segments", "nodes replayed"],
        [
            [
                r["model"],
                r["nodes"],
                f"{r['ref_seconds']:.3f}",
                f"{r['col_seconds']:.3f}",
                f"{r['ref_seconds'] / r['col_seconds']:.1f}x",
                r["segments"],
                r["replayed"],
            ]
            for r in rows
        ],
        title="simulation hot path: columnar (cold compile included) vs. "
              "reference event loop (mesh 2x8)",
    )
    emit("sim_hotpath", table)

    for r in rows:
        # the tape compiler found the layer stacks (ResNet's giant head is
        # unique, so only its trunk replays — a third is the floor)
        assert r["segments"] >= 1, r["model"]
        assert r["replayed"] > r["nodes"] // 3, r["model"]
        # and the whole point: pricing once, replaying often is faster
        speedup = r["ref_seconds"] / r["col_seconds"]
        assert speedup >= MIN_SPEEDUP, (r["model"], speedup)


@pytest.mark.slow
def test_sim_columnar_zoo_and_batch(run_once):
    def run():
        return large_sweep(), batch_sweep()

    zoo, batch = run_once(run)
    table = format_table(
        ["model", "nodes", f"reference (s, {ROUNDS} warm rounds)",
         "columnar (s)", "columnar vs reference", "peak (MB)"],
        [
            [
                r["model"],
                r["nodes"],
                f"{r['reference_s']:.4f}",
                f"{r['columnar_s']:.4f}",
                f"{r['speedup']:.1f}x",
                f"{r['peak_mem_mb']:.2f}",
            ]
            for r in zoo
        ] + [
            [
                batch["model"],
                f"{batch['plans']} plans",
                f"{batch['reference_s']:.4f}",
                f"{batch['batch_s']:.4f}",
                f"{batch['batch_speedup']:.1f}x",
                "-",
            ]
        ],
        title="columnar simulation: warm two-tier sweep + batched "
              "what-if (mesh 2x8)",
    )
    emit("sim_columnar", table)
    emit_bench_json(
        "sim",
        _legacy_records(_legacy_rows()) + zoo + [batch],
        engine="columnar",
    )

    by_model = {r["model"]: r for r in zoo}
    # acceptance floor on the preset the columnar tier targets
    t5 = by_model["t5-96L"]
    assert t5["speedup"] >= MIN_COLUMNAR_SPEEDUP, t5
    # every preset must at least not be slower than the reference, warm
    for r in zoo:
        assert r["speedup"] >= 1.0, (r["model"], r["speedup"])
    assert batch["batch_speedup"] >= MIN_BATCH_SPEEDUP, batch
