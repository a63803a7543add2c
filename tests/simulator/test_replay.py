"""Property tests: the default columnar tier is bit-exact against the
reference event loop.

The columnar simulator prices each node signature once and replays the
timeline as prefix sums; its whole contract is *zero* observable
difference from the reference event loop — not "close", the same floats.
These tests sweep plans (derived and randomly assigned), models across
the zoo, meshes and recompute policies, and compare both the profile and
the complete engine task log, cold and from the plan's tape cache.
"""

import random

import pytest

from repro.cluster import paper_testbed
from repro.core import (
    CostConfig,
    DEFAULT_REGISTRY,
    ShardingPlan,
    coarsen,
    derive_plan,
    route_plan,
)
from repro.graph import trim_auxiliary
from repro.models import MODEL_PRESETS, build_preset
from repro.passes import select_recompute_scopes
from repro.simulator import detect_segments, simulate_iteration
from repro.simulator.columnar import _GROUP_CACHE, _PACK_CACHE

#: the zoo slice the sweep runs on — every architecture family, kept to
#: sizes that coarsen to a few hundred nodes at most
SWEEP_MODELS = ("t5_large", "bert_large", "resnet50", "vit_huge", "clip_base",
                "wav2vec2", "switch_like")

MESHES = (paper_testbed(1, 8), paper_testbed(2, 8))


def nodes_for(name):
    trimmed, _ = trim_auxiliary(build_preset(name))
    return coarsen(trimmed)


def profile_pair(routed, mesh, cfg=None, recompute=None):
    ref = simulate_iteration(routed, mesh, cfg, recompute, engine="reference")
    routed._sim_cache.clear()
    col = simulate_iteration(routed, mesh, cfg, recompute)
    # once more through the plan's tape cache — the memoised tape must
    # be as exact as the cold one
    col2 = simulate_iteration(routed, mesh, cfg, recompute)
    return ref, col, col2


def logs(prof):
    return {
        ch.name: ([(t.name, t.start, t.duration) for t in ch.log], ch.free_at)
        for ch in prof.engine.channels
    }


def assert_bit_exact(routed, mesh, cfg=None, recompute=None):
    ref, col, col2 = profile_pair(routed, mesh, cfg, recompute)
    assert col.as_dict() == ref.as_dict()
    assert logs(col) == logs(ref)
    assert col2.as_dict() == ref.as_dict()
    assert logs(col2) == logs(ref)


class TestDerivedPlans:
    @pytest.mark.parametrize("model", SWEEP_MODELS)
    @pytest.mark.parametrize("mesh", MESHES, ids=("8w", "16w"))
    def test_derived_plan_bit_exact(self, model, mesh):
        ng = nodes_for(model)
        search = derive_plan(ng, mesh)
        assert_bit_exact(search.routed, mesh)

    def test_replay_actually_replays(self):
        ng = nodes_for("t5_large")
        mesh = paper_testbed(2, 8)
        search = derive_plan(ng, mesh)
        prof = simulate_iteration(search.routed, mesh)
        assert prof.segments_detected >= 1
        assert prof.nodes_replayed > len(search.routed.order) // 2


class TestRecompute:
    @pytest.mark.parametrize("model", ("t5_large", "resnet50"))
    def test_recompute_policy_bit_exact(self, model):
        ng = nodes_for(model)
        mesh = paper_testbed(2, 8)
        search = derive_plan(ng, mesh)
        policy = select_recompute_scopes(ng)
        assert policy.enabled
        assert_bit_exact(search.routed, mesh, recompute=policy)

    def test_recompute_charges_extra_backward(self):
        ng = nodes_for("t5_large")
        mesh = paper_testbed(2, 8)
        search = derive_plan(ng, mesh)
        policy = select_recompute_scopes(ng)
        plain = simulate_iteration(search.routed, mesh)
        recomputed = simulate_iteration(search.routed, mesh, recompute=policy)
        assert recomputed.compute_time > plain.compute_time
        assert recomputed.forward_time == plain.forward_time


class TestRandomPlans:
    def test_random_assignments_bit_exact(self):
        rng = random.Random(1234)
        ng = nodes_for("t5_large")
        weight_nodes = [n.name for n in ng if n.weights]
        for trial in range(6):
            tp = rng.choice((2, 4, 8))
            assignment = {}
            for n in weight_nodes:
                node = ng.node(n)
                options = [p.name for p in DEFAULT_REGISTRY.options(node, tp)]
                if options and rng.random() < 0.5:
                    assignment[n] = rng.choice(options)
            try:
                routed = route_plan(
                    ng, ShardingPlan.of(assignment, tp), DEFAULT_REGISTRY
                )
            except Exception:
                continue  # invalid random plan: routing is allowed to refuse
            mesh = rng.choice(MESHES)
            cfg = CostConfig(batch_tokens=rng.choice((1024, 16 * 512)))
            assert_bit_exact(routed, mesh, cfg)

    def test_cache_caps_hold(self):
        assert len(_GROUP_CACHE) <= 256
        assert len(_PACK_CACHE) <= 4096


class TestDetectSegments:
    def test_pure_repeat(self):
        assert detect_segments([7, 7, 7, 7]) == [(0, 1, 4)]

    def test_alternation(self):
        assert detect_segments([1, 2, 1, 2, 1, 2]) == [(0, 2, 3)]

    def test_two_runs(self):
        assert detect_segments([1, 1, 2, 2]) == [(0, 1, 2), (2, 1, 2)]

    def test_unique_prefix_and_suffix(self):
        ids = [9, 1, 2, 1, 2, 1, 2, 8, 5]
        segs = detect_segments(ids)
        assert (1, 2, 3) in segs
        # full cover, in order, no overlap
        covered = []
        for start, period, reps in segs:
            covered.extend(range(start, start + period * reps))
        assert covered == list(range(len(ids)))

    def test_no_repeats(self):
        assert detect_segments([1, 2, 3, 4]) == [(0, 4, 1)]

    def test_empty(self):
        assert detect_segments([]) == []

    def test_max_period_respected(self):
        ids = list(range(64)) * 2
        assert detect_segments(ids, max_period=16) == [(0, 128, 1)]
        assert detect_segments(ids, max_period=64) == [(0, 64, 2)]
