"""ShardingPlan's name→pattern lookup: a cache field, and what it buys.

``ShardingPlan`` builds its lookup map once, in ``__post_init__``, as a
``compare=False`` field.  The first class pins the invariants that idiom
must keep (equality, hashing, pickling, ``dataclasses.replace``,
serialisation); ``tests/verify/test_lint.py`` and
``tests/verify/test_output_formats.py`` keep lint and analyze clean.
The second guards the linear back half with counts rather than timings:
routing, rewriting and verifying the winner never copy the assignment,
and the winner's walk routes every GraphNode exactly once.
"""

import collections
import dataclasses
import json
import pickle

import pytest

from repro.cluster import paper_testbed
from repro.core import (
    DEFAULT_REGISTRY,
    CostConfig,
    ShardingPlan,
    coarsen,
    derive_plan,
    plan_to_json,
    rewrite_graph,
    route_plan,
    routed_to_json,
)
from repro.core import routing
from repro.graph import trim_auxiliary
from repro.models import t5_with_depth
from repro.verify import verify_rewrite, verify_routed

ASSIGNMENT = {"enc/q": "split_col", "enc/o": "split_row", "head": "replicate"}


def _cache_fields():
    return {f.name for f in dataclasses.fields(ShardingPlan) if not f.compare}


class TestLookupCacheField:
    def test_equal_assignments_compare_and_hash_equal(self):
        a = ShardingPlan.of(ASSIGNMENT, 4, name="a")
        b = ShardingPlan.of(dict(reversed(list(ASSIGNMENT.items()))), 4, name="a")
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_pickle_round_trip_keeps_lookups(self):
        plan = ShardingPlan.of(ASSIGNMENT, 4, name="p", zero_stage=1)
        back = pickle.loads(pickle.dumps(plan))
        assert back == plan and hash(back) == hash(plan)
        for name, pattern in ASSIGNMENT.items():
            assert back.pattern_for(name) == pattern
        assert back.pattern_for("absent") == "replicate"

    def test_replace_rebuilds_the_map(self):
        plan = ShardingPlan.of(ASSIGNMENT, 4)
        moved = dataclasses.replace(
            plan, assignment=(("enc/q", "split_row"),)
        )
        assert moved.pattern_for("enc/q") == "split_row"
        assert moved.pattern_for("enc/o") == "replicate"
        assert plan.pattern_for("enc/q") == "split_col"
        wider = dataclasses.replace(plan, tp_degree=8)
        assert wider.pattern_for("enc/o") == "split_row"

    def test_serialisers_never_write_the_field(self):
        plan = ShardingPlan.of(ASSIGNMENT, 2, name="p")
        doc = json.loads(plan_to_json(plan))
        assert not _cache_fields() & set(doc)

        ng = coarsen(trim_auxiliary(t5_with_depth(2))[0])
        result = derive_plan(ng, paper_testbed(1, 8), cost_config=CostConfig())
        routed_doc = json.loads(routed_to_json(result.routed))
        assert not _cache_fields() & set(routed_doc)
        assert not _cache_fields() & set(routed_doc["plan"])

    def test_mutating_as_dict_leaves_lookups_unchanged(self):
        plan = ShardingPlan.of(ASSIGNMENT, 4)
        copy = plan.as_dict
        copy["enc/q"] = "replicate"
        copy["new"] = "split_col"
        assert plan.pattern_for("enc/q") == "split_col"
        assert plan.pattern_for("new") == "replicate"
        assert plan.as_dict == ASSIGNMENT


@pytest.mark.parametrize("depth", [4, 8, 16])
def test_winner_back_half_is_linear(depth, monkeypatch):
    """Route, rewrite and verify the winner without one assignment copy."""
    trimmed, record = trim_auxiliary(t5_with_depth(depth))
    ng = coarsen(trimmed)
    mesh, cfg = paper_testbed(2, 8), CostConfig()
    result = derive_plan(ng, mesh, cost_config=cfg)

    copies = 0
    as_dict = ShardingPlan.as_dict

    def counting_as_dict(plan):
        nonlocal copies
        copies += 1
        return as_dict.fget(plan)

    routed_nodes = collections.Counter()
    route_node = routing.route_node

    def counting_route_node(node, *args, **kwargs):
        routed_nodes[node.name] += 1
        return route_node(node, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(ShardingPlan, "as_dict", property(counting_as_dict))
        patch.setattr(routing, "route_node", counting_route_node)
        routed = result.routed
        rewrite = rewrite_graph(trimmed, ng, routed, trim_record=record,
                                packing=cfg.packing)
        report = verify_routed(ng, routed, mesh, cfg)
        report.extend(verify_rewrite(ng, routed, rewrite, packing=cfg.packing))

    assert report.ok
    assert copies == 0
    assert routed_nodes == collections.Counter(node.name for node in ng)

    plan = result.plan
    rebuilt = ShardingPlan.of(
        plan.as_dict, plan.tp_degree, name=plan.name,
        zero_stage=plan.zero_stage,
    )
    fresh = route_plan(ng, rebuilt, DEFAULT_REGISTRY)
    assert routed_to_json(routed) == routed_to_json(fresh)
