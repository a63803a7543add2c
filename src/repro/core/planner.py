"""Derivation of the optimal plan — Algorithm 2 (§4.4).

``derive_plan`` runs the paper's pipeline end to end:

1. prune the NodeGraph into shared-subgraph families (Algorithm 1);
2. per family, enumerate every assignment of sharding patterns to the
   representative block's enumerable weight nodes (the paper's 3-way
   choice per 2-D weight gives 3^6 = 729 candidates for a transformer
   block);
3. validate each candidate by pattern routing (Algorithm 3) and price the
   valid ones with the communication cost model;
4. broadcast each family's winner to all its instances, default everything
   uncovered to replication, and route + price the assembled full plan.

Step 3 runs on the columnar search core (:mod:`repro.core.columnar`):
Gray-code enumeration, compile-once column tables, batched pricing and
branch-and-bound — selecting the bit-identical plan the reference
per-candidate loop selects (``engine="reference"`` runs that loop for
comparison).  ``jobs`` spreads
independent (family × TP degree) searches over a thread pool; the
reduction is performed in a fixed order, so results never depend on
scheduling.

Multiple tensor-parallel degrees can be searched; each family's candidates
are evaluated per degree and the best assembled plan across degrees wins.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..cluster import Mesh
from ..obs import metrics, trace
from .cost import CostConfig, CostModel
from .columnar import ColumnarEvaluator
from .evaluate import (
    EVAL_VALID,
    BlockSearchOutcome,
    decision_groups,
    iter_gray_plans,
    normalize_engine,
    search_block_candidates,
)
from .graphnode import NodeGraph
from .patterns import DEFAULT_REGISTRY, PatternRegistry
from .plan import RoutedPlan, ShardingPlan
from .pruning import PruneResult, SubgraphFamily, prune_graph
from .routing import RoutingError, route_plan

__all__ = ["FamilySearch", "SearchResult", "enumerate_block_plans", "derive_plan"]

@dataclass
class FamilySearch:
    """Search record for one shared-subgraph family at one TP degree."""

    family: Optional[SubgraphFamily]
    tp_degree: int
    candidates: int = 0
    valid: int = 0
    best_assignment: Dict[str, str] = field(default_factory=dict)
    best_cost: float = float("inf")
    #: columnar counters (zero on the reference path)
    evaluations: int = 0
    cache_hits: int = 0
    bound_skipped: int = 0


@dataclass
class SearchResult:
    """Outcome of Algorithm 2 over the whole model."""

    plan: ShardingPlan
    cost: float
    prune: PruneResult
    families: List[FamilySearch] = field(default_factory=list)
    candidates_examined: int = 0
    valid_plans: int = 0
    search_seconds: float = 0.0
    #: columns the columnar tier compiled
    evaluations: int = 0
    #: candidate rows the columnar tier classified from its tables
    cache_hits: int = 0
    #: candidates abandoned mid-walk by the admissible bound
    bound_skipped: int = 0
    _routed: Optional[RoutedPlan] = None
    _route_thunk: Optional[Callable[[], RoutedPlan]] = None

    @property
    def routed(self) -> RoutedPlan:
        """Full routing of the winning plan.

        The columnar tier already validated and priced the winner without
        materialising a :class:`RoutedPlan`, so the walk that builds one
        (shards, events, conversion table) runs on first access — callers
        that only need the plan and its cost never pay for it.
        """
        if self._routed is None:
            self._routed = self._route_thunk()
        return self._routed

    @property
    def tp_degree(self) -> int:
        return self.plan.tp_degree


def enumerate_block_plans(
    block: NodeGraph,
    registry: PatternRegistry,
    tp_degree: int,
    max_plans: int = 50_000,
) -> Iterator[ShardingPlan]:
    """All pattern assignments over a block's decision groups.

    Candidates come out in Gray order (consecutive plans differ in one
    decision group); the first is all-replicate, and an all-replicate
    fallback is guaranteed even when the ``max_plans`` guard truncates the
    enumeration mid-product.
    """
    groups = decision_groups(block, registry, tp_degree)
    for assignment, _changed in iter_gray_plans(groups, max_plans):
        yield ShardingPlan.of(assignment, tp_degree)


def _broadcast_assignment(
    family: SubgraphFamily, template_assignment: Dict[str, str]
) -> Dict[str, str]:
    """Map a template block's assignment onto every family instance.

    Instance member lists are index-aligned with the template's (they come
    from the same traversal of structurally identical blocks).
    """
    template_members = family.member_nodes[0]
    index = {name: i for i, name in enumerate(template_members)}
    full: Dict[str, str] = {}
    for members in family.member_nodes:
        for tmpl_name, pattern in template_assignment.items():
            full[members[index[tmpl_name]]] = pattern
    return full


def _candidate_tp_degrees(mesh: Mesh, requested: Optional[Sequence[int]]) -> List[int]:
    if requested is not None:
        degrees = sorted(set(requested))
    else:
        degrees = sorted({1, mesh.gpus_per_node, mesh.num_devices})
    out = []
    for d in degrees:
        if d < 1 or mesh.num_devices % d != 0:
            raise ValueError(
                f"tp degree {d} must divide the device count {mesh.num_devices}"
            )
        out.append(d)
    return out


def derive_plan(
    node_graph: NodeGraph,
    mesh: Mesh,
    registry: PatternRegistry = DEFAULT_REGISTRY,
    cost_config: Optional[CostConfig] = None,
    min_duplicate: int = 2,
    tp_degrees: Optional[Sequence[int]] = None,
    max_plans_per_block: int = 50_000,
    use_pruning: bool = True,
    engine: str = "columnar",
    use_bound: bool = True,
    jobs: int = 1,
    zero_stage: int = 0,
) -> SearchResult:
    """Run the full TAP derivation (Algorithm 2) and return the best plan.

    ``use_pruning=False`` searches the whole graph as a single block — the
    ablation that demonstrates why Algorithm 1 matters.  ``engine``
    selects the search tier: ``"columnar"`` (the default) is the
    array-batched core, ``"reference"`` the route-everything oracle;
    ``use_bound=False`` keeps the chosen tier but disables
    branch-and-bound.  ``jobs`` > 1 searches independent
    (family × TP degree) blocks on a thread pool; ``jobs=0`` auto-detects
    ``os.cpu_count()`` (the convention every parallel knob in this
    library follows) — the selected plan and cost are identical for
    every setting of these knobs, because the reduction runs in a fixed
    order with strict first-wins tie-breaking.

    ``zero_stage`` stamps the optimizer-state sharding axis onto every
    candidate (and the winner): 0 is today's replicated update, 1/2 the
    ZeRO-style reduce-scatter + post-step all-gather pricing.  With
    ``zero_stage=0`` the search is bit-identical to before the knob
    existed.
    """
    start = time.perf_counter()
    if jobs == 0:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError("jobs must be >= 1 (or 0 to auto-detect cpu_count)")
    tier = normalize_engine(engine)
    cost_model = CostModel(mesh, cost_config)
    prune = prune_graph(node_graph, min_duplicate=min_duplicate if use_pruning else 0)
    degrees = _candidate_tp_degrees(mesh, tp_degrees)

    # Block construction is independent of the TP degree: build each
    # family's representative block (and the residual of uncovered weight
    # nodes) once.  Uncovered weight nodes (embeddings, a unique
    # classifier) still need sharding decisions — this is the paper's
    # ResNet case, where the single giant FC layer is exactly what must
    # get sharded.
    family_blocks: List[Tuple[Optional[SubgraphFamily], NodeGraph]] = []
    uncovered_block: Optional[NodeGraph] = None
    if use_pruning:
        # Prune results are memoised on the graph, so the block objects
        # can ride along: reusing them lets block-level compile caches
        # (the columnar skeleton) survive across repeat derives.
        blocks = getattr(prune, "_planner_blocks", None)
        if blocks is None:
            reps = [
                node_graph.subgraph(fam.member_nodes[0], name=fam.normalized)
                for fam in prune.families
            ]
            residual = (
                node_graph.subgraph(prune.uncovered, name="uncovered")
                if prune.uncovered
                else None
            )
            blocks = (reps, residual)
            prune._planner_blocks = blocks
        family_blocks = list(zip(prune.families, blocks[0]))
        if blocks[1] is not None and blocks[1].weight_nodes():
            uncovered_block = blocks[1]
    else:
        family_blocks = [(None, node_graph)]

    def family_task(tp: int, block: NodeGraph) -> BlockSearchOutcome:
        return search_block_candidates(
            block,
            registry,
            tp,
            cost_model,
            max_plans=max_plans_per_block,
            engine=tier,
            use_bound=use_bound,
            zero_stage=zero_stage,
        )

    # Phase A — every (family, tp) candidate sweep is independent.
    tasks = [(tp, idx) for tp in degrees for idx in range(len(family_blocks))]
    outcomes: Dict[Tuple[int, int], BlockSearchOutcome] = {}
    if jobs > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = {
                pool.submit(family_task, tp, family_blocks[idx][1]): (tp, idx)
                for tp, idx in tasks
            }
            for fut in as_completed(futures):
                outcomes[futures[fut]] = fut.result()
    else:
        for tp, idx in tasks:
            outcomes[(tp, idx)] = family_task(tp, family_blocks[idx][1])

    def search_uncovered(
        tp: int,
        assignment: Dict[str, str],
        evaluator,
    ) -> FamilySearch:
        # Uncovered nodes interact with the family plans through their
        # boundary conversions, so they are priced against the *full*
        # graph with the family assignment fixed.  Joint enumeration would
        # be exponential in the number of unique nodes; one greedy
        # coordinate-descent pass (largest weights first, each group's
        # options tried with the others held fixed) needs only a few
        # full-graph routing passes — batched ones on the columnar tier,
        # since each trial changes a single decision group.
        record = FamilySearch(family=None, tp_degree=tp)
        groups = decision_groups(uncovered_block, registry, tp)
        groups.sort(
            key=lambda g: -max(
                uncovered_block.node(n).num_parameters for n in g[0]
            )
        )
        current: Dict[str, str] = {}

        if evaluator is not None:
            # Full-graph evaluator: every node outcome comes straight from
            # the compiled column tables.
            def full_cost(extra: Dict[str, str]) -> Optional[float]:
                status, cost = evaluator.price({**assignment, **extra})
                if status != EVAL_VALID:
                    return None
                return cost
        else:

            def full_cost(extra: Dict[str, str]) -> Optional[float]:
                merged = ShardingPlan.of(
                    {**assignment, **extra}, tp, zero_stage=zero_stage
                )
                try:
                    routed = route_plan(node_graph, merged, registry)
                except RoutingError:
                    return None
                return cost_model.plan_cost(routed)

        base_cost = full_cost(current)
        record.candidates += 1
        if base_cost is not None:
            record.valid += 1
            record.best_cost = base_cost
        for names, options in groups:
            best_option, best_cost_here = "replicate", record.best_cost
            tried = [option for option in options if option != "replicate"]
            if evaluator is not None and tried:
                # One batched compute per group; each trial prices with no
                # incumbent, so the batch replays the sequential trials
                # exactly (same statuses, costs and counter increments).
                base = {**assignment, **current}
                outcomes_here = evaluator.price_batch(
                    base, [{n: option for n in names} for option in tried]
                )
                costs = [
                    cost if status == EVAL_VALID else None
                    for status, cost in outcomes_here
                ]
            else:
                costs = []
                for option in tried:
                    trial = dict(current)
                    trial.update({n: option for n in names})
                    costs.append(full_cost(trial))
            for option, cost in zip(tried, costs):
                record.candidates += 1
                if cost is None:
                    continue
                record.valid += 1
                if cost < best_cost_here:
                    best_cost_here = cost
                    best_option = option
            if best_option != "replicate":
                current.update({n: best_option for n in names})
                record.best_cost = best_cost_here
        record.best_assignment = current
        if evaluator is not None:
            record.evaluations = evaluator.evaluations
            record.cache_hits = evaluator.cache_hits
        return record

    # Phase B — per TP degree: collect family winners, run the uncovered
    # search against them, assemble and price the full plan.  On the
    # columnar tier the assembled plan is priced by the same full-graph
    # evaluator the uncovered descent used (bit-identical to routing and
    # pricing it from scratch), and the single full ``route_plan`` is
    # deferred to the winning degree after the reduction.
    def assemble(
        tp: int,
    ) -> Tuple[
        List[FamilySearch],
        Optional[Tuple[ShardingPlan, Optional[RoutedPlan], float]],
    ]:
        assignment: Dict[str, str] = {}
        records: List[FamilySearch] = []
        for idx, (fam, _block) in enumerate(family_blocks):
            o = outcomes[(tp, idx)]
            records.append(
                FamilySearch(
                    family=fam,
                    tp_degree=tp,
                    candidates=o.candidates,
                    valid=o.valid,
                    best_assignment=o.best_assignment,
                    best_cost=o.best_cost,
                    evaluations=o.evaluations,
                    cache_hits=o.cache_hits,
                    bound_skipped=o.bound_skipped,
                )
            )
            if o.best_assignment:
                if fam is not None:
                    assignment.update(
                        _broadcast_assignment(fam, o.best_assignment)
                    )
                else:
                    assignment.update(o.best_assignment)
        if tier == "columnar":
            evaluator = ColumnarEvaluator(
                node_graph, registry, tp, cost_model, zero_stage
            )
        else:
            evaluator = None
        if uncovered_block is not None:
            record = search_uncovered(tp, assignment, evaluator)
            records.append(record)
            assignment.update(record.best_assignment)
            if metrics.enabled():
                # keep the obs counters equal to the SearchResult totals:
                # the coordinate-descent candidates are part of the search
                metrics.counter("search.candidates", record.candidates,
                                block="uncovered", tp=tp)
                metrics.counter("search.valid", record.valid,
                                block="uncovered", tp=tp)
                metrics.counter("search.evaluations", record.evaluations,
                                block="uncovered", tp=tp)
                metrics.counter("search.cache_hits", record.cache_hits,
                                block="uncovered", tp=tp)
        full_plan = ShardingPlan.of(
            assignment, tp, name=f"tap-tp{tp}", zero_stage=zero_stage
        )
        if evaluator is not None:
            with trace.span("price", tp=tp, engine=tier):
                status, cost = evaluator.price(assignment)
            if status != EVAL_VALID:
                return records, None
            return records, (full_plan, None, cost)
        try:
            routed_full = route_plan(node_graph, full_plan, registry)
        except RoutingError:
            return records, None
        with trace.span("price", tp=tp, engine=tier):
            cost = cost_model.plan_cost(routed_full)
        return records, (full_plan, routed_full, cost)

    per_tp: Dict[int, Tuple[List[FamilySearch], Optional[Tuple]]] = {}
    if jobs > 1 and len(degrees) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = {pool.submit(assemble, tp): tp for tp in degrees}
            for fut in as_completed(futures):
                per_tp[futures[fut]] = fut.result()
    else:
        for tp in degrees:
            per_tp[tp] = assemble(tp)

    # Reduction — fixed ascending-degree order with strict first-wins
    # comparison, so the winner is independent of jobs/engine settings.
    winner: Optional[Tuple[ShardingPlan, Optional[RoutedPlan], float]] = None
    family_records: List[FamilySearch] = []
    for tp in degrees:
        records, assembled = per_tp[tp]
        family_records.extend(records)
        if assembled is None:
            continue
        if winner is None or assembled[2] < winner[2]:
            winner = assembled

    if winner is None:
        raise RoutingError("no valid plan found for any tensor-parallel degree")
    full_plan, routed_full, cost = winner
    # Columnar tier: no degree was ever routed in full — the winner's
    # RoutedPlan materialises lazily on first ``.routed`` access.  The
    # evaluator already validated the plan, so that walk cannot raise.
    best = SearchResult(
        plan=full_plan,
        cost=cost,
        prune=prune,
        _routed=routed_full,
        _route_thunk=lambda: route_plan(node_graph, full_plan, registry),
    )
    best.families = family_records
    best.candidates_examined = sum(r.candidates for r in family_records)
    best.valid_plans = sum(r.valid for r in family_records)
    best.evaluations = sum(r.evaluations for r in family_records)
    best.cache_hits = sum(r.cache_hits for r in family_records)
    best.bound_skipped = sum(r.bound_skipped for r in family_records)
    best.search_seconds = time.perf_counter() - start
    if metrics.enabled():
        # Whole-search totals (the SearchResult counters) as gauges — the
        # per-sweep ``search.*`` counters already accumulated increments.
        metrics.gauge("search.best_cost", best.cost)
        metrics.gauge("search.tp_degree", full_plan.tp_degree)
        metrics.gauge("search.seconds", best.search_seconds)
        metrics.gauge("search.total_candidates", best.candidates_examined)
        metrics.gauge("search.total_evaluations", best.evaluations)
        metrics.gauge("search.total_cache_hits", best.cache_hits)
        metrics.gauge("search.total_bound_skipped", best.bound_skipped)
    return best
