"""Tests for the static plan verifier (the sharding "type checker").

Clean plans derived for the figure-benchmark model configs must verify
with no diagnostics; deliberately corrupted plans must each trigger the
specific rule that guards against that corruption.
"""

import dataclasses

import pytest

from repro.cluster import paper_testbed
from repro.core import (
    DEFAULT_REGISTRY,
    CostConfig,
    ShardingPattern,
    ShardingPlan,
    coarsen,
    default_registry,
    derive_plan,
    rewrite_graph,
    route_plan,
)
from repro.core.patterns import split_spec
from repro.baselines import megatron_plan
from repro.graph import Graph, trim_auxiliary
from repro.models import build_preset, resnet_with_classes, t5_with_depth
from repro.simulator import simulate_iteration
from repro.verify import (
    PlanVerificationError,
    verify_plan,
    verify_rewrite,
    verify_routed,
)


def prep(graph):
    trimmed, record = trim_auxiliary(graph)
    return trimmed, record, coarsen(trimmed)


@pytest.fixture(scope="module")
def t5():
    """t5 stack — the fig. 6/9/11 model family, scaled down."""
    return prep(t5_with_depth(2))


@pytest.fixture(scope="module")
def mesh():
    return paper_testbed(1, 4)


@pytest.fixture(scope="module")
def t5_routed(t5, mesh):
    _, _, ng = t5
    plan = megatron_plan(ng, 4)
    return plan, route_plan(ng, plan, DEFAULT_REGISTRY)


def find_node(ng, suffix):
    for node in ng.weight_nodes():
        if node.name.endswith(suffix):
            return node.name
    raise AssertionError(f"no weight node ends with {suffix}")


class TestCleanPlans:
    """Plans derived for the figure-benchmark configs verify clean."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: t5_with_depth(2),                 # fig 6 / 9 / 11
            lambda: resnet_with_classes(1000),        # fig 7 / 10 / 12
            lambda: build_preset("clip_base"),        # zoo coverage
        ],
        ids=["t5", "resnet", "clip"],
    )
    def test_derived_plan_verifies(self, build, mesh):
        _, _, ng = prep(build())
        cfg = CostConfig(batch_tokens=1024)
        result = derive_plan(ng, mesh, cost_config=cfg)
        assert verify_plan(ng, result.plan, mesh).ok
        report = verify_routed(ng, result.routed, mesh, cfg)
        assert report.ok, report.describe()

    def test_megatron_routed_and_rewrite_verify(self, t5, mesh, t5_routed):
        trimmed, record, ng = t5
        plan, routed = t5_routed
        cfg = CostConfig(batch_tokens=1024)
        report = verify_routed(ng, routed, mesh, cfg)
        assert report.ok, report.describe()
        rewrite = rewrite_graph(
            trimmed, ng, routed, trim_record=record, packing=cfg.packing
        )
        report = verify_rewrite(ng, routed, rewrite, packing=cfg.packing)
        assert report.ok, report.describe()

    def test_simulated_tapes_verify(self, t5, mesh, t5_routed):
        _, _, ng = t5
        plan, _ = t5_routed
        routed = route_plan(ng, plan, DEFAULT_REGISTRY)
        cfg = CostConfig(batch_tokens=1024)
        simulate_iteration(routed, mesh, cfg)
        assert routed._sim_cache  # tape compiled — sim/tape-columnar ran
        report = verify_routed(ng, routed, mesh, cfg)
        assert report.ok, report.describe()


class TestCorruptedPlans:
    def test_bad_divisibility(self, t5):
        _, _, ng = t5
        name = find_node(ng, "ffn/intermediate")
        plan = ShardingPlan.of({name: "split_col"}, 3)  # 4096 % 3 != 0
        report = verify_plan(ng, plan)
        assert not report.ok
        assert report.has_rule("plan/divisibility")

    def test_unknown_node(self, t5):
        _, _, ng = t5
        plan = ShardingPlan.of({"ghost/node": "split_col"}, 4)
        report = verify_plan(ng, plan)
        assert report.has_rule("plan/unknown-node")

    def test_unknown_pattern(self, t5):
        _, _, ng = t5
        name = find_node(ng, "ffn/intermediate")
        plan = ShardingPlan.of({name: "split_banana"}, 4)
        report = verify_plan(ng, plan)
        assert report.has_rule("plan/unknown-pattern")

    def test_mesh_degree(self, t5, mesh):
        _, _, ng = t5
        plan = ShardingPlan.of({}, 3)  # 3 does not divide 4 devices
        report = verify_plan(ng, plan, mesh)
        assert report.has_rule("plan/mesh-degree")

    def test_broken_pattern_chain(self, t5):
        """A pattern demanding a P input has no collective to feed it."""
        _, _, ng = t5
        registry = default_registry()
        registry.register(
            ShardingPattern(
                name="needs_partial",
                node_kind="matmul",
                weight_shard=split_spec(1),
                input_layout="P",
                output_layout="S",
            )
        )
        name = find_node(ng, "ffn/intermediate")
        plan = ShardingPlan.of({name: "needs_partial"}, 4)
        report = verify_plan(ng, plan, registry=registry)
        assert not report.ok
        assert report.has_rule("plan/chain")

    def test_partial_under_nonlinearity(self, t5):
        """split_row on the GELU-carrying node leaves P under f(x)."""
        _, _, ng = t5
        name = find_node(ng, "ffn/intermediate")
        plan = ShardingPlan.of({name: "split_row"}, 4)
        report = verify_plan(ng, plan)
        assert report.has_rule("plan/partial-nonlinear")


class TestCorruptedRouted:
    def corrupt(self, t5_routed):
        plan, routed = t5_routed
        return plan, dataclasses.replace(routed)

    def test_dropped_order_entry(self, t5, t5_routed):
        _, _, ng = t5
        _, routed = t5_routed
        clone = dataclasses.replace(routed, order=routed.order[:-1])
        report = verify_routed(ng, clone)
        assert report.has_rule("routed/order")

    def test_double_packed_gradient(self, t5, t5_routed):
        """A gradient synchronised twice would double-count the update."""
        _, _, ng = t5
        plan, _ = t5_routed
        routed = route_plan(ng, plan, DEFAULT_REGISTRY)
        for shard in routed.shards.values():
            sync = [ev for ev in shard.events if ev.overlappable]
            if sync:
                shard.events = list(shard.events) + [sync[0]]
                break
        report = verify_routed(ng, routed)
        assert report.has_rule("routed/grad-sync")

    def test_tampered_conversion_table(self, t5, t5_routed):
        _, _, ng = t5
        plan, _ = t5_routed
        routed = route_plan(ng, plan, DEFAULT_REGISTRY)
        nonempty = [k for k, v in routed.conversions.items() if v]
        assert nonempty
        del routed.conversions[nonempty[0]]
        report = verify_routed(ng, routed)
        assert report.has_rule("routed/conversion")

    def test_wrong_layout(self, t5, t5_routed):
        _, _, ng = t5
        plan, _ = t5_routed
        routed = route_plan(ng, plan, DEFAULT_REGISTRY)
        shard = routed.shards[routed.order[0]]
        shard.output_layout = "S" if shard.output_layout != "S" else "P"
        report = verify_routed(ng, routed)
        assert report.has_rule("routed/layout")


class TestCorruptedRewrite:
    @pytest.fixture()
    def rewritten(self, t5, t5_routed):
        trimmed, record, ng = t5
        plan, routed = t5_routed
        cfg = CostConfig(batch_tokens=1024)
        rewrite = rewrite_graph(
            trimmed, ng, routed, trim_record=record, packing=cfg.packing
        )
        return ng, routed, rewrite, cfg

    def test_dropped_collective(self, rewritten):
        """Deleting a conversion comm op leaves the edge unserved."""
        ng, routed, rewrite, cfg = rewritten
        comm = next(op for op in rewrite.graph if op.is_communication)
        bypass = comm.inputs[0]
        pruned = Graph(rewrite.graph.name)
        for name in rewrite.graph.topo_order():
            op = rewrite.graph.op(name)
            if name == comm.name:
                continue
            inputs = tuple(bypass if i == comm.name else i for i in op.inputs)
            pruned.add(dataclasses.replace(op, inputs=inputs))
        corrupted = dataclasses.replace(rewrite, graph=pruned)
        report = verify_rewrite(ng, routed, corrupted, packing=cfg.packing)
        assert not report.ok
        assert report.has_rule("rewrite/missing-collective")

    def test_duplicated_bucket(self, rewritten):
        """A double-packed gradient bucket mismatches a fresh packing."""
        ng, routed, rewrite, cfg = rewritten
        assert rewrite.gradient_buckets
        corrupted = dataclasses.replace(
            rewrite,
            gradient_buckets=rewrite.gradient_buckets
            + [rewrite.gradient_buckets[0]],
        )
        report = verify_rewrite(ng, routed, corrupted, packing=cfg.packing)
        assert report.has_rule("pack/mismatch")

    def test_comm_count_mismatch(self, rewritten):
        ng, routed, rewrite, cfg = rewritten
        corrupted = dataclasses.replace(
            rewrite, num_comm_ops=rewrite.num_comm_ops + 1
        )
        report = verify_rewrite(ng, routed, corrupted, packing=cfg.packing)
        assert report.has_rule("rewrite/count")


class TestApiIntegration:
    def test_auto_parallel_verifies_by_default(self, mesh):
        import repro

        model = t5_with_depth(1)
        result = repro.auto_parallel(model, mesh, batch_tokens=1024)
        # reaching here means the built-in verification passed
        assert result.plan is not None

    def test_report_raises_with_diagnostics(self, t5):
        _, _, ng = t5
        name = find_node(ng, "ffn/intermediate")
        plan = ShardingPlan.of({name: "split_col"}, 3)
        report = verify_plan(ng, plan)
        with pytest.raises(PlanVerificationError) as exc:
            report.raise_if_failed()
        assert exc.value.report is report
        assert "plan/divisibility" in str(exc.value)


class TestZeroStage:
    """The ZeRO axis through the verifier: clean when consistent, caught
    when the gradient-sync collectives contradict the declared stage."""

    def zero_routed(self, ng, stage):
        base = megatron_plan(ng, 4)
        plan = ShardingPlan.of(
            base.as_dict, base.tp_degree, name="z", zero_stage=stage
        )
        return plan, route_plan(ng, plan, DEFAULT_REGISTRY)

    @pytest.mark.parametrize("stage", [0, 1, 2])
    def test_clean_at_every_stage(self, t5, mesh, stage):
        _, _, ng = t5
        plan, routed = self.zero_routed(ng, stage)
        assert verify_plan(ng, plan).ok
        report = verify_routed(ng, routed, mesh, CostConfig(batch_tokens=1024))
        assert report.ok, [p.message for p in report.problems]

    def test_out_of_range_stage_flagged(self, t5):
        _, _, ng = t5
        plan, _ = self.zero_routed(ng, 0)
        object.__setattr__(plan, "zero_stage", 7)  # bypass __post_init__
        report = verify_plan(ng, plan)
        assert report.has_rule("plan/zero-stage")

    def test_allreduce_under_zero_flagged(self, t5):
        """Stage >= 1 demands reduce-scatter; replicated sync is caught."""
        _, _, ng = t5
        _, routed = self.zero_routed(ng, 0)
        stage1, _ = self.zero_routed(ng, 1)
        mismatched = dataclasses.replace(routed, plan=stage1)
        report = verify_routed(ng, mismatched)
        assert report.has_rule("routed/grad-sync")

    def test_reduce_scatter_without_zero_flagged(self, t5):
        _, _, ng = t5
        _, routed = self.zero_routed(ng, 1)
        stage0, _ = self.zero_routed(ng, 0)
        mismatched = dataclasses.replace(routed, plan=stage0)
        report = verify_routed(ng, mismatched)
        assert report.has_rule("routed/grad-sync")
