"""Property tests: every columnar path is bit-exact against the reference.

The columnar simulator's contract is *zero* observable difference from
the reference event loop — identical :class:`IterationProfile` floats AND
identical task logs, across the model zoo, meshes, plan families and
recompute policies — on each of its three paths: a cold compile, a tape
served from the plan's cache, and ``simulate_batch``.  The batch adds a
second contract: pricing N plans in one call must equal N independent
single-plan simulations.
"""

import dataclasses

import numpy as np
import pytest

from repro.baselines import NAMED_PLANS
from repro.cluster import paper_testbed
from repro.core import CostConfig, DEFAULT_REGISTRY, derive_plan, route_plan
from repro.core.api import what_if_profiles
from repro.passes import select_recompute_scopes
import repro.simulator.columnar as columnar
from repro.core import ENGINE_TIERS
from repro.simulator import (
    ColumnarTape,
    columnar_tape_invariants,
    compile_columnar_tape,
    simulate_batch,
    simulate_iteration,
)
from repro.verify import verify_routed

from .test_replay import MESHES, SWEEP_MODELS, logs, nodes_for


def assert_three_tier_exact(routed, mesh, cfg=None, recompute=None):
    """Reference vs. the columnar tier cold, warm and batched."""
    ref = simulate_iteration(routed, mesh, cfg, recompute, engine="reference")
    routed._sim_cache.clear()
    cold = simulate_iteration(routed, mesh, cfg, recompute, engine="columnar")
    # warm: the tape comes from the plan cache (policy runs recompile)
    warm = simulate_iteration(routed, mesh, cfg, recompute, engine="columnar")
    (batched,) = simulate_batch([routed], mesh, cfg, recompute)
    for prof in (cold, warm, batched):
        assert prof.as_dict() == ref.as_dict()
        assert logs(prof) == logs(ref)


def megatron_routed(model, mesh):
    ng = nodes_for(model)
    plan = NAMED_PLANS["megatron"](ng, mesh.gpus_per_node)
    return ng, route_plan(ng, plan, DEFAULT_REGISTRY)


class TestThreeTierParity:
    """The reference loop against the columnar tier's three paths."""

    @pytest.mark.parametrize("model", SWEEP_MODELS)
    @pytest.mark.parametrize("mesh", MESHES, ids=("8w", "16w"))
    def test_zoo_bit_exact(self, model, mesh):
        _, routed = megatron_routed(model, mesh)
        assert_three_tier_exact(routed, mesh)

    @pytest.mark.parametrize("mesh", MESHES, ids=("8w", "16w"))
    def test_derived_plan_bit_exact(self, mesh):
        ng = nodes_for("t5_large")
        search = derive_plan(ng, mesh)
        assert_three_tier_exact(search.routed, mesh)

    def test_recompute_bit_exact(self):
        ng = nodes_for("t5_large")
        mesh = paper_testbed(2, 8)
        search = derive_plan(ng, mesh)
        policy = select_recompute_scopes(ng)
        assert policy.enabled
        assert_three_tier_exact(search.routed, mesh, recompute=policy)

    def test_nondefault_config_bit_exact(self):
        mesh = paper_testbed(1, 8)
        _, routed = megatron_routed("bert_large", mesh)
        assert_three_tier_exact(routed, mesh, CostConfig(batch_tokens=1024))

    def test_columnar_caches_tape(self):
        mesh = paper_testbed(2, 8)
        _, routed = megatron_routed("t5_large", mesh)
        cfg = CostConfig()
        simulate_iteration(routed, mesh, cfg, engine="columnar")
        # one cache entry per (mesh, config): the columnar tape, nothing else
        assert list(routed._sim_cache) == [("columnar", mesh, cfg)]
        assert isinstance(routed._sim_cache[("columnar", mesh, cfg)],
                          ColumnarTape)


class TestEngineNormalization:
    def test_default_is_columnar(self):
        mesh = paper_testbed(1, 8)
        _, routed = megatron_routed("bert_large", mesh)
        prof = simulate_iteration(routed, mesh)
        assert ("columnar", mesh, CostConfig()) in routed._sim_cache
        assert prof.segments_detected >= 1  # zero on the reference loop

    def test_reference_flag(self):
        """The pre-tier ``reference=`` keyword is gone; ``engine=`` names
        the oracle."""
        mesh = paper_testbed(1, 8)
        _, routed = megatron_routed("bert_large", mesh)
        with pytest.raises(TypeError, match="reference"):
            simulate_iteration(routed, mesh, reference=True)
        prof = simulate_iteration(routed, mesh, engine="reference")
        assert prof.segments_detected == 0

    def test_explicit_tiers_pass_through(self):
        mesh = paper_testbed(1, 8)
        _, routed = megatron_routed("bert_large", mesh)
        profs = [simulate_iteration(routed, mesh, engine=tier)
                 for tier in ENGINE_TIERS]
        assert ENGINE_TIERS == ("reference", "columnar")
        assert profs[0].as_dict() == profs[1].as_dict()

    def test_unknown_tier_rejected(self):
        mesh = paper_testbed(1, 8)
        _, routed = megatron_routed("bert_large", mesh)
        for tier in ("replay", "warp-speed", "", None):
            with pytest.raises(ValueError, match="'reference', 'columnar'"):
                simulate_iteration(routed, mesh, engine=tier)


class TestCompileOnce:
    def test_segments_detected_once_per_fresh_compile(self, monkeypatch):
        calls = []
        real = columnar.detect_segments

        def spy(ids, *args, **kwargs):
            calls.append(len(ids))
            return real(ids, *args, **kwargs)

        monkeypatch.setattr(columnar, "detect_segments", spy)
        mesh = paper_testbed(2, 8)
        _, routed = megatron_routed("t5_large", mesh)
        tape = compile_columnar_tape(routed, mesh)
        assert calls == [len(routed.order)]
        assert tape.segments_detected >= 1
        compile_columnar_tape(routed, mesh)  # cached: no second scan
        assert len(calls) == 1
        routed._sim_cache.clear()
        simulate_iteration(routed, mesh)
        assert len(calls) == 2


class TestSimulateBatch:
    def test_empty_batch(self):
        assert simulate_batch([], paper_testbed(1, 8)) == []

    def test_batch_matches_singles(self):
        mesh = paper_testbed(2, 8)
        ng = nodes_for("t5_large")
        tp = mesh.gpus_per_node
        routed_plans = [
            route_plan(ng, NAMED_PLANS[label](ng, tp), DEFAULT_REGISTRY)
            for label in sorted(NAMED_PLANS)
        ]
        batch = simulate_batch(routed_plans, mesh)
        assert len(batch) == len(routed_plans)
        for routed, prof in zip(routed_plans, batch):
            routed._sim_cache.clear()
            single = simulate_iteration(routed, mesh)
            assert prof.as_dict() == single.as_dict()
            assert logs(prof) == logs(single)

    def test_mixed_models_pad_correctly(self):
        # plans from *different* graphs have very different event counts;
        # pricing them in one batch must not perturb any prefix
        mesh = paper_testbed(1, 8)
        routed_plans = []
        for model in ("t5_large", "resnet50", "clip_base"):
            _, routed = megatron_routed(model, mesh)
            routed_plans.append(routed)
        batch = simulate_batch(routed_plans, mesh)
        for routed, prof in zip(routed_plans, batch):
            routed._sim_cache.clear()
            ref = simulate_iteration(routed, mesh, engine="reference")
            assert prof.as_dict() == ref.as_dict()
            assert logs(prof) == logs(ref)

    def test_batch_with_recompute(self):
        mesh = paper_testbed(2, 8)
        ng = nodes_for("t5_large")
        policy = select_recompute_scopes(ng)
        assert policy.enabled
        tp = mesh.gpus_per_node
        routed_plans = [
            route_plan(ng, NAMED_PLANS[label](ng, tp), DEFAULT_REGISTRY)
            for label in ("megatron", "ffn_only")
        ]
        batch = simulate_batch(routed_plans, mesh, recompute=policy)
        for routed, prof in zip(routed_plans, batch):
            routed._sim_cache.clear()
            ref = simulate_iteration(
                routed, mesh, recompute=policy, engine="reference"
            )
            assert prof.as_dict() == ref.as_dict()
            assert logs(prof) == logs(ref)


class TestWhatIfProfiles:
    def test_columnar_equals_reference_surface(self):
        mesh = paper_testbed(2, 8)
        ng = nodes_for("t5_large")
        tp = mesh.gpus_per_node
        plans = [NAMED_PLANS[label](ng, tp) for label in sorted(NAMED_PLANS)]
        col = what_if_profiles(ng, plans, mesh, engine="columnar")
        ref = what_if_profiles(ng, plans, mesh, engine="reference")
        assert len(col) == len(ref) == len(plans)
        for c, r in zip(col, ref):
            assert (c is None) == (r is None)
            if c is not None:
                assert c[1].as_dict() == r[1].as_dict()
                assert logs(c[1]) == logs(r[1])

    def test_unroutable_plan_gets_none_slot(self):
        from repro.core import ShardingPlan

        mesh = paper_testbed(1, 8)
        ng = nodes_for("t5_large")
        good = NAMED_PLANS["megatron"](ng, mesh.gpus_per_node)
        first = next(n.name for n in ng if n.weights)
        bad = ShardingPlan.of({first: "split_banana"}, 4)
        out = what_if_profiles(ng, [good, bad, good], mesh)
        assert out[1] is None
        assert out[0] is not None and out[2] is not None
        assert out[0][1].as_dict() == out[2][1].as_dict()


class TestTapeInvariants:
    @pytest.fixture()
    def tape_env(self):
        mesh = paper_testbed(2, 8)
        ng, routed = megatron_routed("t5_large", mesh)
        cfg = CostConfig()
        tape = compile_columnar_tape(routed, mesh, cfg)
        return ng, routed, mesh, cfg, tape

    def test_fresh_tape_clean(self, tape_env):
        _, routed, _, _, tape = tape_env
        assert columnar_tape_invariants(routed, tape) == []

    def test_not_a_tape(self, tape_env):
        _, routed, _, _, _ = tape_env
        problems = columnar_tape_invariants(routed, object())
        assert problems and "not a ColumnarTape" in problems[0]

    def test_column_length_mismatch(self, tape_env):
        _, routed, _, _, tape = tape_env
        bad = dataclasses.replace(tape, fwd_dur_col=tape.fwd_dur_col[:-1])
        assert any("disagree on length" in p
                   for p in columnar_tape_invariants(routed, bad))

    def test_negative_duration(self, tape_env):
        _, routed, _, _, tape = tape_env
        dur = tape.bwd_dur_col.copy()
        dur[0] = -1.0
        bad = dataclasses.replace(tape, bwd_dur_col=dur)
        assert any("negative duration" in p
                   for p in columnar_tape_invariants(routed, bad))

    def test_channel_code_out_of_range(self, tape_env):
        _, routed, _, _, tape = tape_env
        ch = tape.fwd_ch_col.copy()
        ch[0] = 7
        bad = dataclasses.replace(tape, fwd_ch_col=ch)
        assert any("channel codes" in p
                   for p in columnar_tape_invariants(routed, bad))

    def test_name_id_out_of_range(self, tape_env):
        _, routed, _, _, tape = tape_env
        nm = tape.fwd_name_col.copy()
        nm[0] = len(tape.names)
        bad = dataclasses.replace(tape, fwd_name_col=nm)
        assert any("name ids" in p
                   for p in columnar_tape_invariants(routed, bad))

    def test_segment_table_must_tile(self, tape_env):
        _, routed, _, _, tape = tape_env
        seg = tape.seg_tab.copy()
        seg[0, 2] += 1  # one extra repeat breaks closure
        bad = dataclasses.replace(tape, seg_tab=seg)
        problems = columnar_tape_invariants(routed, bad)
        assert any("closure" in p or "covers" in p for p in problems)

    def test_gradient_source_out_of_range(self, tape_env):
        _, routed, _, _, tape = tape_env
        axis = tape.bucket_axes[0]
        src = dict(tape.grad_src)
        col = src[axis].copy()
        col[-1] = len(tape.bwd_dur_col)
        src[axis] = col
        bad = dataclasses.replace(tape, grad_src=src)
        assert any("out of range" in p
                   for p in columnar_tape_invariants(routed, bad))

    def test_gradient_source_must_hit_compute(self, tape_env):
        _, routed, _, _, tape = tape_env
        comm = np.flatnonzero(tape.bwd_ch_col == 1)
        if comm.size == 0:
            pytest.skip("plan has no backward collectives")
        axis = tape.bucket_axes[0]
        src = dict(tape.grad_src)
        col = src[axis].copy()
        col[0] = int(comm[0])
        src[axis] = col
        bad = dataclasses.replace(tape, grad_src=src)
        assert any("non-compute" in p
                   for p in columnar_tape_invariants(routed, bad))

    def test_bucket_table_must_start_at_zero(self, tape_env):
        _, routed, _, _, tape = tape_env
        axis = tape.bucket_axes[0]
        lo = dict(tape.bucket_lo_tab)
        col = lo[axis].copy()
        col[0] = 1
        lo[axis] = col
        bad = dataclasses.replace(tape, bucket_lo_tab=lo)
        assert any("does not start at 0" in p
                   for p in columnar_tape_invariants(routed, bad))

    def test_compile_check_raises_on_corruption(self, tape_env):
        ng, routed, mesh, cfg, tape = tape_env
        dur = tape.fwd_dur_col.copy()
        dur[0] = -1.0
        routed._sim_cache[("columnar", mesh, cfg)] = dataclasses.replace(
            tape, fwd_dur_col=dur
        )
        # cached tape is served as-is by compile; the verifier is the gate
        report = verify_routed(ng, routed, mesh, cfg)
        assert report.has_rule("sim/tape-columnar")
        assert not report.ok

    def test_verify_routed_accepts_clean_columnar_cache(self, tape_env):
        ng, routed, mesh, cfg, _ = tape_env
        assert ("columnar", mesh, cfg) in routed._sim_cache
        report = verify_routed(ng, routed, mesh, cfg)
        assert report.ok, report.describe()

    def test_no_verify_skips_invariant_check(self, tape_env):
        _, routed, mesh, cfg, tape = tape_env
        routed._sim_cache.clear()
        # check=False must not raise even though check=True would have
        t1 = compile_columnar_tape(routed, mesh, cfg, check=False)
        assert isinstance(t1, ColumnarTape)
        assert columnar_tape_invariants(routed, t1) == []
