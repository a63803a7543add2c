"""ZeRO optimizer-state sharding across the simulator stack.

Two families of guarantee:

* **off == today**: a plan with ``zero_stage=0`` is bit-identical to one
  that never heard of the field — same profiles on every sim tier, same
  cost breakdown, same memory report, no gather tasks.
* **on is consistent**: both sim tiers agree bit-exactly with ZeRO
  enabled, the weight all-gather shows up as channelled ``wgather:``
  tasks and as ``weight_gather_time`` in the profile, the cost model
  prices it, and the memory model shrinks optimizer state (and, at
  stage 2, gradients) by ~1/dp.
"""

import dataclasses

import pytest

from repro.cluster import Mesh
from repro.core import (
    CostConfig,
    CostModel,
    DEFAULT_REGISTRY,
    ShardingPlan,
    coarsen,
    route_plan,
)
from repro.graph import trim_auxiliary
from repro.models import TransformerConfig, build_t5
from repro.simulator import memory_per_device, simulate_iteration

TIERS = ("reference", "columnar")

MEGATRON = {
    "mha/q": "split_col", "mha/k": "split_col", "mha/v": "split_col",
    "mha/o": "split_row",
    "ffn/intermediate": "split_col", "ffn/output": "split_row",
}


@pytest.fixture(scope="module")
def t5_nodes():
    g = build_t5(TransformerConfig(encoder_layers=2, decoder_layers=2))
    trimmed, _ = trim_auxiliary(g)
    return coarsen(trimmed)


def routed_for(ng, tp=8, zero_stage=0, patterns=MEGATRON):
    mapping = {}
    for node in ng.weight_nodes():
        for suffix, pattern in patterns.items():
            if node.name.endswith(suffix):
                mapping[node.name] = pattern
    plan = ShardingPlan.of(mapping, tp, zero_stage=zero_stage)
    return route_plan(ng, plan, DEFAULT_REGISTRY)


def task_names(prof):
    return [t.name for t in prof.engine.channel("comm").log]


class TestZeroOffBitIdentity:
    """zero_stage=0 must be indistinguishable from the pre-ZeRO code."""

    @pytest.mark.parametrize("tier", TIERS)
    def test_profiles_bit_identical(self, t5_nodes, tier):
        mesh = Mesh(2, 8)
        plain = routed_for(t5_nodes)
        explicit = routed_for(t5_nodes, zero_stage=0)
        a = simulate_iteration(plain, mesh, engine=tier)
        b = simulate_iteration(explicit, mesh, engine=tier)
        assert a.as_dict() == b.as_dict()
        assert a.weight_gather_time == 0.0

    @pytest.mark.parametrize("tier", TIERS)
    def test_no_gather_tasks(self, t5_nodes, tier):
        prof = simulate_iteration(routed_for(t5_nodes), Mesh(2, 8), engine=tier)
        assert not any(n.startswith("wgather:") for n in task_names(prof))

    def test_cost_breakdown_identical(self, t5_nodes):
        mesh = Mesh(2, 8)
        cm = CostModel(mesh, CostConfig())
        plain = cm.estimate(routed_for(t5_nodes))
        explicit = cm.estimate(routed_for(t5_nodes, zero_stage=0))
        assert plain.as_dict() == explicit.as_dict()
        assert plain.weight_gather_comm == 0.0

    def test_memory_identical(self, t5_nodes):
        mesh = Mesh(2, 8)
        plain = memory_per_device(routed_for(t5_nodes), mesh)
        explicit = memory_per_device(routed_for(t5_nodes, zero_stage=0), mesh)
        assert dataclasses.asdict(plain) == dataclasses.asdict(explicit)


class TestZeroOnTierParity:
    """Both sim tiers agree bit-exactly with ZeRO enabled."""

    @pytest.mark.parametrize("stage", (1, 2))
    def test_tiers_agree(self, t5_nodes, stage):
        mesh = Mesh(2, 8)
        routed = routed_for(t5_nodes, zero_stage=stage)
        ref = simulate_iteration(routed, mesh, engine="reference")
        col = simulate_iteration(routed, mesh, engine="columnar")
        assert ref.as_dict() == col.as_dict()
        assert ref.weight_gather_time > 0.0

    @pytest.mark.parametrize("tier", TIERS)
    def test_task_log_parity(self, t5_nodes, tier):
        """Every tier materialises the same gather tasks, same timing."""
        mesh = Mesh(2, 8)
        routed = routed_for(t5_nodes, zero_stage=1)
        ref = simulate_iteration(routed, mesh, engine="reference")
        other = simulate_iteration(routed, mesh, engine=tier)
        ref_gathers = [
            (t.name, t.start, t.duration)
            for t in ref.engine.channel("comm").log
            if t.name.startswith("wgather:")
        ]
        got = [
            (t.name, t.start, t.duration)
            for t in other.engine.channel("comm").log
            if t.name.startswith("wgather:")
        ]
        assert got == ref_gathers
        assert ref_gathers  # the gather actually happened


class TestZeroOnSemantics:
    @pytest.mark.parametrize("tier", TIERS)
    def test_gather_extends_comm(self, t5_nodes, tier):
        mesh = Mesh(2, 8)
        off = simulate_iteration(routed_for(t5_nodes), mesh, engine=tier)
        on = simulate_iteration(
            routed_for(t5_nodes, zero_stage=1), mesh, engine=tier
        )
        assert on.weight_gather_time > 0.0
        # compute is untouched by the weight-update scheme
        assert on.compute_time == off.compute_time
        assert on.forward_time == off.forward_time

    def test_profile_dict_carries_field(self, t5_nodes):
        prof = simulate_iteration(
            routed_for(t5_nodes, zero_stage=1), Mesh(2, 8)
        )
        assert "weight_gather_time" in prof.as_dict()

    def test_cost_model_prices_gather(self, t5_nodes):
        cm = CostModel(Mesh(2, 8), CostConfig())
        off = cm.estimate(routed_for(t5_nodes))
        on = cm.estimate(routed_for(t5_nodes, zero_stage=1))
        assert on.weight_gather_comm > 0.0
        assert off.weight_gather_comm == 0.0

    def test_stage_validation(self):
        with pytest.raises(ValueError, match="zero_stage"):
            ShardingPlan.of({}, 1, zero_stage=3)
        with pytest.raises(ValueError, match="zero_stage"):
            ShardingPlan.of({}, 1, zero_stage=-1)


class TestZeroMemoryModel:
    def ceil_div(self, x, d):
        return (x + d - 1) // d

    def test_stage1_shards_optimizer(self, t5_nodes):
        mesh = Mesh(2, 8)
        tp = 8
        dp = mesh.num_devices // tp
        base = memory_per_device(routed_for(t5_nodes, tp=tp), mesh)
        s1 = memory_per_device(routed_for(t5_nodes, tp=tp, zero_stage=1), mesh)
        assert s1.optimizer == self.ceil_div(base.optimizer, dp)
        assert s1.gradients == base.gradients
        assert s1.weights == base.weights

    def test_stage2_also_shards_gradients(self, t5_nodes):
        mesh = Mesh(2, 8)
        tp = 8
        dp = mesh.num_devices // tp
        base = memory_per_device(routed_for(t5_nodes, tp=tp), mesh)
        s2 = memory_per_device(routed_for(t5_nodes, tp=tp, zero_stage=2), mesh)
        assert s2.optimizer == self.ceil_div(base.optimizer, dp)
        assert s2.gradients == self.ceil_div(base.gradients, dp)
        assert s2.total < s2.weights + base.optimizer + base.gradients

    def test_dp1_is_noop(self, t5_nodes):
        """tp == world size → no data parallelism → nothing to shard."""
        mesh = Mesh(1, 8)
        base = memory_per_device(routed_for(t5_nodes, tp=8), mesh)
        s2 = memory_per_device(routed_for(t5_nodes, tp=8, zero_stage=2), mesh)
        assert dataclasses.asdict(base) == dataclasses.asdict(s2)
