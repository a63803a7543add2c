"""Tests for candidate enumeration and pricing (:mod:`repro.core.evaluate`).

The columnar tier's contract is bit-exact equivalence with the reference
path: whatever sequence of candidates is evaluated,
:meth:`ColumnarEvaluator.price` must classify each candidate
(valid/invalid) exactly as a fresh ``route_plan`` does and price valid
ones to the exact float ``CostModel.plan_cost`` produces.  These tests
drive randomized candidate sequences through both paths and compare,
plus the Gray-code enumeration and branch-and-bound properties the
search's speed rests on.
"""

import random

import pytest

from repro.cluster import paper_testbed
from repro.graph import trim_auxiliary
from repro.core import (
    DEFAULT_REGISTRY,
    ColumnarEvaluator,
    CostConfig,
    CostModel,
    ShardingPlan,
    coarsen,
    decision_groups,
    derive_plan,
    enumerate_block_plans,
    iter_gray_plans,
    route_plan,
    search_block_candidates,
)
from repro.core.evaluate import EVAL_VALID
from repro.core.routing import RoutingError
from repro.models import TransformerConfig, build_t5


def nodes_for(graph):
    trimmed, _ = trim_auxiliary(graph)
    return coarsen(trimmed)


@pytest.fixture(scope="module")
def t5_nodes():
    return nodes_for(build_t5(TransformerConfig(encoder_layers=2, decoder_layers=2)))


@pytest.fixture(scope="module")
def encoder_block(t5_nodes):
    members = [n.name for n in t5_nodes if "encoder/layer_0" in n.name]
    return t5_nodes.subgraph(members)


@pytest.fixture(scope="module")
def mesh():
    return paper_testbed()


class TestGrayEnumeration:
    GROUPS = [
        (["a"], ["replicate", "x", "y"]),
        (["b1", "b2"], ["replicate", "u"]),
        (["c"], ["replicate", "v", "w", "z"]),
    ]

    def test_covers_full_product_exactly_once(self):
        seen = set()
        for assignment, _changed in iter_gray_plans(self.GROUPS):
            seen.add(tuple(sorted(assignment.items())))
        assert len(seen) == 3 * 2 * 4

    def test_consecutive_assignments_differ_in_one_group(self):
        prev = None
        for assignment, changed in iter_gray_plans(self.GROUPS):
            if prev is not None:
                diff = {
                    k for k in assignment
                    if assignment[k] != prev[k]
                }
                names = set(self.GROUPS[changed][0])
                assert diff == names or diff <= names
            else:
                assert changed is None
            prev = assignment

    def test_tied_names_always_share_an_option(self):
        for assignment, _changed in iter_gray_plans(self.GROUPS):
            assert assignment["b1"] == assignment["b2"]

    def test_first_assignment_is_all_first_option(self):
        first, changed = next(iter_gray_plans(self.GROUPS))
        assert changed is None
        assert first == {"a": "replicate", "b1": "replicate",
                         "b2": "replicate", "c": "replicate"}

    def test_replicate_fallback_survives_truncation(self):
        # No option list contains "replicate": the full walk appends the
        # empty (all-replicate) assignment after the product.
        groups = [(["a"], ["x", "y"]), (["b"], ["u", "v"])]
        plans = list(iter_gray_plans(groups))
        assert len(plans) == 2 * 2 + 1
        assert plans[-1] == ({}, None)
        # Truncation cannot lose the fallback either.
        truncated = list(iter_gray_plans(groups, max_plans=2))
        assert truncated[-1] == ({}, None)

    def test_enumerate_block_plans_fallback_under_cap(self, encoder_block):
        # Even a zero budget yields the guaranteed all-replicate plan.
        plans = list(
            enumerate_block_plans(encoder_block, DEFAULT_REGISTRY, 8, max_plans=0)
        )
        assert len(plans) == 1
        assert plans[0].num_sharded == 0


class TestEvaluatorEquivalence:
    def _reference(self, block, assignment, tp, cm):
        plan = ShardingPlan.of(assignment, tp)
        try:
            routed = route_plan(block, plan, DEFAULT_REGISTRY)
        except RoutingError:
            return None
        return cm.plan_cost(routed)

    def test_randomized_candidates_match_fresh_route_and_price(
        self, encoder_block, mesh
    ):
        """Random one-group mutations: columnar price == fresh price."""
        tp = 8
        cm = CostModel(mesh)
        evaluator = ColumnarEvaluator(encoder_block, DEFAULT_REGISTRY, tp, cm)
        groups = decision_groups(encoder_block, DEFAULT_REGISTRY, tp)
        rng = random.Random(7)
        assignment = {}
        for _ in range(80):
            names, options = groups[rng.randrange(len(groups))]
            option = options[rng.randrange(len(options))]
            for name in names:
                assignment[name] = option
            status, cost = evaluator.price(dict(assignment))
            expected = self._reference(encoder_block, assignment, tp, cm)
            if expected is None:
                assert status != EVAL_VALID
            else:
                assert status == EVAL_VALID
                assert cost == expected  # bit-exact, not approx

    def test_full_graph_multi_group_jumps_match(self, t5_nodes, mesh):
        """Arbitrary multi-group jumps over the whole graph also match."""
        tp = 8
        cm = CostModel(mesh)
        evaluator = ColumnarEvaluator(t5_nodes, DEFAULT_REGISTRY, tp, cm)
        groups = decision_groups(t5_nodes, DEFAULT_REGISTRY, tp)
        rng = random.Random(11)
        assignment = {}
        for _ in range(25):
            for _ in range(rng.randrange(1, 4)):  # change several groups
                names, options = groups[rng.randrange(len(groups))]
                option = options[rng.randrange(len(options))]
                for name in names:
                    assignment[name] = option
            status, cost = evaluator.price(dict(assignment))
            expected = self._reference(t5_nodes, assignment, tp, cm)
            if expected is None:
                assert status != EVAL_VALID
            else:
                assert status == EVAL_VALID
                assert cost == expected

    def test_structural_cache_shares_repeated_layers(self, t5_nodes, mesh):
        """The second identical layer reuses the first's columns: a column
        is compiled per (node class, pattern), not per node."""
        tp = 8
        # a config no other test uses, so this test's compile is a miss
        cm = CostModel(mesh, CostConfig(batch_tokens=3 * 1024))
        evaluator = ColumnarEvaluator(t5_nodes, DEFAULT_REGISTRY, tp, cm)
        status, cost = evaluator.price({})
        assert status == EVAL_VALID
        assert cost == self._reference(t5_nodes, {}, tp, cm)
        weight_nodes = t5_nodes.weight_nodes()
        options = sum(
            len(DEFAULT_REGISTRY.options(node, tp)) for node in weight_nodes
        )
        assert 0 < evaluator.evaluations < options
        assert evaluator.cache_hits == 1
        # a second evaluator over the same graph and degree compiles nothing
        again = ColumnarEvaluator(t5_nodes, DEFAULT_REGISTRY, tp, cm)
        assert again.evaluations == 0


class TestSearchEquivalence:
    def test_columnar_matches_reference_sweep(self, encoder_block, mesh):
        cm = CostModel(mesh)
        col = search_block_candidates(
            encoder_block, DEFAULT_REGISTRY, 8, cm, engine="columnar"
        )
        ref = search_block_candidates(
            encoder_block, DEFAULT_REGISTRY, 8, cm, engine="reference"
        )
        assert col.best_assignment == ref.best_assignment
        assert col.best_cost == ref.best_cost
        assert col.candidates == ref.candidates

    def test_bound_changes_nothing_but_skips_candidates(
        self, encoder_block, mesh
    ):
        cm = CostModel(mesh)
        bounded = search_block_candidates(
            encoder_block, DEFAULT_REGISTRY, 8, cm, use_bound=True
        )
        unbounded = search_block_candidates(
            encoder_block, DEFAULT_REGISTRY, 8, cm, use_bound=False
        )
        assert bounded.best_assignment == unbounded.best_assignment
        assert bounded.best_cost == unbounded.best_cost
        assert bounded.candidates == unbounded.candidates
        assert bounded.bound_skipped > 0
        assert unbounded.bound_skipped == 0
        # bounded candidates are abandoned before validity is known
        assert bounded.valid <= unbounded.valid

    def test_derive_plan_engine_jobs_bound_all_agree(self, t5_nodes, mesh):
        reference = derive_plan(t5_nodes, mesh, engine="reference")
        variants = [
            derive_plan(t5_nodes, mesh),
            derive_plan(t5_nodes, mesh, use_bound=False),
            derive_plan(t5_nodes, mesh, jobs=4),
        ]
        for result in variants:
            assert result.plan.as_dict == reference.plan.as_dict
            assert result.cost == reference.cost
            assert result.tp_degree == reference.tp_degree
            assert result.candidates_examined == reference.candidates_examined
        assert variants[0].evaluations > 0
        assert variants[0].cache_hits > 0
        assert variants[0].bound_skipped > 0

    def test_lazy_routed_plan_matches_eager(self, t5_nodes, mesh):
        col = derive_plan(t5_nodes, mesh)
        ref = derive_plan(t5_nodes, mesh, engine="reference")
        assert col.routed.shards.keys() == ref.routed.shards.keys()
        cm = CostModel(mesh)
        assert cm.plan_cost(col.routed) == col.cost
        assert cm.plan_cost(col.routed) == cm.plan_cost(ref.routed)


class TestCostModelCaches:
    def test_groups_cached_per_degree(self, mesh):
        cm = CostModel(mesh)
        assert cm.groups(8) is cm.groups(8)
        assert cm.groups(8) is not cm.groups(4)
