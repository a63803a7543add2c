"""Property sweep: the columnar tier is bit-identical to the reference.

The columnar search core (``engine="columnar"``, the default) re-expresses
enumeration, routing, and pricing as batched array ops.  Its contract is
exact parity: for every model in the zoo and every mesh, the selected
plan, its cost and the candidate count must equal the reference loop —
not approximately, *exactly*.  The counters only a bounded search has
(valid plans, bound-skipped candidates) are pinned to the committed table
in ``tests/data/search_counts.json``.
"""

import json
from pathlib import Path

import pytest

from repro.cluster import Mesh, paper_testbed
from repro.core import coarsen, derive_plan, routed_from_json, routed_to_json
from repro.graph import trim_auxiliary
from repro.models import LARGE_PRESETS, MODEL_PRESETS, build_preset

TIERS = ("reference", "columnar")

SMALL_PRESETS = [
    n for n in MODEL_PRESETS
    if not n.startswith("m6") and n not in LARGE_PRESETS
]

MESHES = {
    "testbed_2x8": paper_testbed(2, 8),
    "testbed_1x8": paper_testbed(1, 8),
    "flat_1x4": Mesh(num_nodes=1, gpus_per_node=4),
}

PINNED = json.loads(
    (Path(__file__).parent.parent / "data" / "search_counts.json").read_text()
)["counts"]


def _graph(preset):
    trimmed, _ = trim_auxiliary(build_preset(preset))
    return coarsen(trimmed)


def _derive_all_tiers(node_graph, mesh, **kwargs):
    return {
        tier: derive_plan(node_graph, mesh, engine=tier, **kwargs)
        for tier in TIERS
    }


def _assert_tiers_identical(results):
    ref, got = results["reference"], results["columnar"]
    assert got.plan == ref.plan
    assert got.cost == ref.cost
    assert got.tp_degree == ref.tp_degree
    assert got.candidates_examined == ref.candidates_examined
    # Bounded candidates are abandoned before validity is known, so
    # valid_plans may undercount the reference loop — but never exceed.
    assert got.valid_plans <= ref.valid_plans


def _pinned_key(key):
    preset = key.split("@")[0]
    if preset in LARGE_PRESETS or preset.startswith("m6"):
        return pytest.param(key, marks=pytest.mark.slow)
    return key


@pytest.mark.parametrize("preset", SMALL_PRESETS)
def test_all_tiers_agree_on_zoo(preset):
    results = _derive_all_tiers(_graph(preset), paper_testbed(2, 8))
    _assert_tiers_identical(results)


@pytest.mark.slow
@pytest.mark.parametrize("preset", sorted(LARGE_PRESETS))
def test_all_tiers_agree_on_large_graphs(preset):
    results = _derive_all_tiers(_graph(preset), paper_testbed(2, 8))
    _assert_tiers_identical(results)


@pytest.mark.parametrize("key", [_pinned_key(k) for k in sorted(PINNED)])
def test_columnar_counts_match_pinned_table(key):
    """Every zoo preset on every recorded mesh: the bounded columnar
    search reproduces the pinned candidate, valid and bound-skipped
    counts."""
    preset, mesh_name = key.split("@")
    result = derive_plan(_graph(preset), MESHES[mesh_name])
    pinned = PINNED[key]
    assert result.candidates_examined == pinned["candidates"]
    assert result.valid_plans == pinned["valid_plans"]
    assert result.bound_skipped == pinned["bound_skipped"]


@pytest.mark.parametrize("mesh_name", sorted(MESHES))
@pytest.mark.parametrize("preset", ["t5_large", "resnet50"])
def test_tiers_agree_across_meshes(preset, mesh_name):
    results = _derive_all_tiers(_graph(preset), MESHES[mesh_name])
    _assert_tiers_identical(results)


@pytest.mark.parametrize("preset", ["t5_large", "switch_like"])
def test_tiers_agree_without_bound(preset):
    """Disabling branch-and-bound must not change the winner in any tier."""
    ng = _graph(preset)
    bounded = _derive_all_tiers(ng, paper_testbed(2, 8))
    unbounded = _derive_all_tiers(ng, paper_testbed(2, 8), use_bound=False)
    _assert_tiers_identical(bounded)
    _assert_tiers_identical(unbounded)
    # With the bound off every candidate is fully classified, so the
    # valid count matches the reference loop exactly.
    assert (
        unbounded["columnar"].valid_plans == unbounded["reference"].valid_plans
    )
    assert unbounded["columnar"].plan == bounded["columnar"].plan
    assert unbounded["columnar"].cost == bounded["columnar"].cost
    assert unbounded["columnar"].bound_skipped == 0


@pytest.mark.parametrize("jobs", [1, 4])
def test_columnar_winner_round_trips_through_json(jobs):
    """The columnar winner's RoutedPlan survives serialisation exactly,
    through both the serial and the threaded (``jobs=``) search paths."""
    ng = _graph("t5_large")
    result = derive_plan(ng, paper_testbed(2, 8), engine="columnar", jobs=jobs)
    routed = result.routed
    restored = routed_from_json(routed_to_json(routed), ng)
    assert restored == routed
    assert restored.plan == result.plan


def test_columnar_counters_reported():
    """The columnar evaluator reports its tier-specific diagnostics:
    ``evaluations`` counts compiled columns, ``cache_hits`` classified
    rows — both must be live after a real search."""
    ng = _graph("t5_large")
    result = derive_plan(ng, paper_testbed(2, 8), engine="columnar")
    assert result.evaluations > 0
    assert result.cache_hits >= result.candidates_examined > 0
    assert result.valid_plans > 0
