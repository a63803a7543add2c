"""Candidate enumeration and tier selection for Algorithm 2's block search.

The naive search routes and prices every candidate from scratch: for a
transformer block that is 729 full walks of Algorithm 3 plus 729 full cost
estimates, per family, per TP degree.  Two tiers sweep the same candidates:

* ``"reference"`` — a fresh :func:`route_plan` + :meth:`CostModel.plan_cost`
  per candidate: the oracle every fast path is checked against.
* ``"columnar"`` (:mod:`repro.core.columnar`, the default) — the block is
  compiled once into flat arrays and whole chunks of candidates are routed
  and priced as batched numpy operations, with branch-and-bound.

Both consume this module's enumeration:

* **Gray-code enumeration** (:func:`iter_gray_plans`) — candidates are
  emitted in mixed-radix reflected Gray order (Knuth 7.2.1.1, loopless
  Algorithm H), so consecutive candidates differ in exactly *one* decision
  group.  The fastest-changing digit is mapped to the topologically *last*
  group, maximising the routed prefix two neighbours share.

* **Branch-and-bound** — communication terms are non-negative and IEEE
  addition of non-negative values is monotone, so the running partial cost
  is an admissible lower bound on the final cost.  A candidate whose
  partial already *exceeds* the incumbent strictly cannot win under the
  search's strict ``<`` tie-breaking and is abandoned mid-walk.

Determinism is the design constraint: both tiers walk the same
enumeration order and replay the exact per-event float-accumulation order
of :meth:`CostModel.estimate`, so the selected assignment and its cost are
bit-identical whichever tier runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..obs import metrics, trace
from .cost import CostModel
from .graphnode import NodeGraph
from .patterns import PatternRegistry
from .plan import ShardingPlan
from .routing import RoutingError, route_plan

__all__ = [
    "EVAL_VALID",
    "EVAL_INVALID",
    "EVAL_BOUNDED",
    "BlockSearchOutcome",
    "decision_groups",
    "iter_gray_digits",
    "iter_gray_plans",
    "normalize_engine",
    "search_block_candidates",
]

#: The selectable search tiers: the oracle, then the fast path.
ENGINE_TIERS = ("reference", "columnar")


def normalize_engine(engine) -> str:
    """Check the ``engine=`` knob names a search tier and return it."""
    if engine not in ENGINE_TIERS:
        raise ValueError(
            f"engine must be one of {ENGINE_TIERS}, got {engine!r}"
        )
    return engine


#: Outcome of one :meth:`ColumnarEvaluator.price` classification.
EVAL_VALID = 0
EVAL_INVALID = 1
EVAL_BOUNDED = 2


def decision_groups(
    block: NodeGraph, registry: PatternRegistry, tp_degree: int
) -> List[Tuple[List[str], List[str]]]:
    """Decision groups: (node names sharing the decision, option names).

    Weight nodes that are structurally identical *and* play the same role
    (same basename — ``mha/q`` and ``cross_mha/q``) share one pattern
    decision, mirroring the paper's per-weight-tensor count (3 choices for
    each of the 6 distinct transformer-layer weights → 729 candidates).
    """
    groups: Dict[Tuple, Tuple[List[str], List[str]]] = {}
    for node in block.weight_nodes():
        options = [p.name for p in registry.options(node, tp_degree)]
        if len(options) <= 1:
            continue
        basename = node.name.rsplit("/", 1)[-1]
        key = (node.signature(), basename, tuple(options))
        if key in groups:
            groups[key][0].append(node.name)
        else:
            groups[key] = ([node.name], options)
    return list(groups.values())


def iter_gray_digits(
    groups: List[Tuple[List[str], List[str]]],
    max_plans: int = 50_000,
) -> Iterator[Tuple[Optional[Tuple[int, ...]], Optional[int]]]:
    """Per-group option indices in mixed-radix reflected Gray order.

    The digit-level core of :func:`iter_gray_plans`: yields
    ``(option_indices, changed)`` where ``option_indices[g]`` picks
    ``groups[g][1][option_indices[g]]`` and ``changed`` is the single
    group whose option differs from the previous candidate (``None`` for
    the first).  A trailing ``(None, None)`` stands for the guaranteed
    empty-assignment fallback when the ``max_plans`` guard truncated the
    walk before any all-replicate candidate appeared.  The columnar tier
    consumes this directly — candidate vectors are integer rows, so no
    name dictionaries are materialised per candidate.
    """
    n = len(groups)
    if n == 0:
        yield None, None
        return
    radix = [len(groups[n - 1 - j][1]) for j in range(n)]
    digits = [0] * n
    focus = list(range(n + 1))
    direction = [1] * n
    #: option index per *group* (``digits`` is per Gray digit ``j``, which
    #: drives group ``n-1-j``)
    chosen = [0] * n
    nonreplicate = sum(1 for _, options in groups if options[0] != "replicate")
    replicate_seen = False
    changed: Optional[int] = None
    count = 0
    while count < max_plans:
        if nonreplicate == 0:
            replicate_seen = True
        yield tuple(chosen), changed
        count += 1
        j = focus[0]
        focus[0] = 0
        if j == n:  # every combination visited
            break
        digits[j] += direction[j]
        if digits[j] == 0 or digits[j] == radix[j] - 1:
            direction[j] = -direction[j]
            focus[j] = focus[j + 1]
            focus[j + 1] = j + 1
        changed = n - 1 - j
        options = groups[changed][1]
        was_sharded = options[chosen[changed]] != "replicate"
        now_sharded = options[digits[j]] != "replicate"
        if was_sharded != now_sharded:
            nonreplicate += 1 if now_sharded else -1
        chosen[changed] = digits[j]
    if not replicate_seen:
        yield None, None


def iter_gray_plans(
    groups: List[Tuple[List[str], List[str]]],
    max_plans: int = 50_000,
) -> Iterator[Tuple[Dict[str, str], Optional[int]]]:
    """Assignments over *groups* in mixed-radix reflected Gray order.

    Yields ``(assignment, changed)`` where ``changed`` is the index of the
    single group whose option differs from the previous assignment (``None``
    for the first).  Digit ``j`` of the Gray counter drives group
    ``len(groups)-1-j``: the fastest-changing digit is the *last* group, so
    an enumeration walked with topologically ordered groups maximises the
    prefix consecutive candidates share.

    The first assignment picks every group's first option (``replicate``
    under the default registries).  If the ``max_plans`` guard truncates
    the walk before any all-replicate assignment was produced, the empty
    assignment is yielded last — the search is guaranteed its fallback no
    matter how the enumeration is cut short.
    """
    if not groups:
        yield {}, None
        return
    assignment: Dict[str, str] = {}
    for chosen, changed in iter_gray_digits(groups, max_plans):
        if chosen is None:
            yield {}, None
            continue
        if changed is None:
            for g, (names, options) in enumerate(groups):
                option = options[chosen[g]]
                for name in names:
                    assignment[name] = option
        else:
            names, options = groups[changed]
            option = options[chosen[changed]]
            for name in names:
                assignment[name] = option
        yield dict(assignment), changed


@dataclass
class BlockSearchOutcome:
    """Result of the candidate sweep over one block at one TP degree."""

    candidates: int = 0
    valid: int = 0
    best_assignment: Dict[str, str] = field(default_factory=dict)
    best_cost: float = float("inf")
    #: columns compiled for the sweep (0 when the block's compile was cached)
    evaluations: int = 0
    #: candidate rows answered from the compiled tables
    cache_hits: int = 0
    #: candidates abandoned mid-walk by the admissible bound
    bound_skipped: int = 0


def search_block_candidates(
    block: NodeGraph,
    registry: PatternRegistry,
    tp_degree: int,
    cost_model: CostModel,
    max_plans: int = 50_000,
    engine: str = "columnar",
    use_bound: bool = True,
    zero_stage: int = 0,
) -> BlockSearchOutcome:
    """Sweep every candidate assignment of *block* and keep the cheapest.

    ``engine`` selects the tier (see :func:`normalize_engine`):
    ``"reference"`` runs a fresh :func:`route_plan` and
    :meth:`CostModel.plan_cost` per candidate, ``"columnar"`` the
    array-batched core — both over the *same* Gray-ordered enumeration, so
    they examine the identical candidate sequence and, by strict
    first-wins comparison, select the identical assignment at the
    identical cost.  ``use_bound=False`` disables the columnar tier's
    branch-and-bound (every valid candidate is then fully priced and
    counted).
    """
    tier = normalize_engine(engine)
    with trace.span(
        "enumerate", block=block.name, tp=tp_degree, engine=tier
    ):
        out = _search_block_candidates(
            block, registry, tp_degree, cost_model, max_plans, tier,
            use_bound, zero_stage,
        )
    if metrics.enabled():
        # Published once per sweep — never per candidate — so the sweep's
        # inner loop stays uninstrumented (the <2% overhead budget).
        metrics.counter("search.candidates", out.candidates, block=block.name)
        metrics.counter("search.valid", out.valid, block=block.name)
        metrics.counter("search.evaluations", out.evaluations, block=block.name)
        metrics.counter("search.cache_hits", out.cache_hits, block=block.name)
        metrics.counter(
            "search.bound_skipped", out.bound_skipped, block=block.name
        )
    return out


def _search_block_candidates(
    block: NodeGraph,
    registry: PatternRegistry,
    tp_degree: int,
    cost_model: CostModel,
    max_plans: int,
    tier: str,
    use_bound: bool,
    zero_stage: int,
) -> BlockSearchOutcome:
    out = BlockSearchOutcome()
    groups = decision_groups(block, registry, tp_degree)
    if not groups:
        # All-replicate fast path: a block whose every decision group is a
        # single pattern has exactly one candidate — the assembled plan's
        # default — so the family sweep has nothing to enumerate.  Both
        # tiers take this exit, keeping their counters identical.
        return out
    if tier == "columnar":
        from .columnar import columnar_block_search

        return columnar_block_search(
            block, registry, tp_degree, cost_model, max_plans, use_bound,
            groups, zero_stage,
        )
    for assignment, _changed in iter_gray_plans(groups, max_plans):
        out.candidates += 1
        candidate = ShardingPlan.of(assignment, tp_degree, zero_stage=zero_stage)
        try:
            routed = route_plan(block, candidate, registry)
        except RoutingError:
            continue
        out.valid += 1
        cost = cost_model.plan_cost(routed)
        if cost < out.best_cost:
            out.best_cost = cost
            out.best_assignment = candidate.as_dict
    return out
