"""Alternative block-search strategies for Algorithm 2.

The paper enumerates every pattern assignment inside the pruned block
(tractable because pruning makes blocks small — 729 candidates for a
transformer layer).  For blocks with many decision groups the exhaustive
product still explodes, so this module provides drop-in strategies with
different cost/quality trade-offs, all operating on the same decision
groups as :func:`repro.core.planner.enumerate_block_plans`:

``exhaustive``
    the paper's behaviour (delegates to the planner's enumeration);
``greedy``
    coordinate descent: decide one group at a time, best-first by weight
    size — O(groups × options) routing calls;
``beam``
    beam search of width k over the group sequence — between the two.

``search_block`` runs one strategy over one block and returns the best
assignment found plus counters, so strategies are directly comparable
(see ``benchmarks/test_ablation_search_strategy.py``).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..cluster import Mesh
from .cost import CostConfig, CostModel
from .evaluate import decision_groups
from .graphnode import NodeGraph
from .patterns import DEFAULT_REGISTRY, PatternRegistry
from .plan import ShardingPlan
from .routing import RoutingError, route_plan

__all__ = ["StrategyResult", "search_block", "STRATEGIES"]


@dataclass
class StrategyResult:
    """Outcome of one strategy on one block."""

    strategy: str
    best_assignment: Dict[str, str] = field(default_factory=dict)
    best_cost: float = float("inf")
    candidates: int = 0
    valid: int = 0
    seconds: float = 0.0


def _evaluate(
    block: NodeGraph,
    assignment: Dict[str, str],
    tp: int,
    registry: PatternRegistry,
    cm: CostModel,
    result: StrategyResult,
) -> Optional[float]:
    result.candidates += 1
    plan = ShardingPlan.of(
        {k: v for k, v in assignment.items() if v != "replicate"}, tp
    )
    try:
        routed = route_plan(block, plan, registry)
    except RoutingError:
        return None
    result.valid += 1
    return cm.plan_cost(routed)


def _exhaustive(block, groups, tp, registry, cm, result, max_candidates):
    names_lists = [names for names, _ in groups]
    option_lists = [opts for _, opts in groups]
    for combo in itertools.product(*option_lists):
        if result.candidates >= max_candidates:
            break
        assignment = {
            n: pat for names, pat in zip(names_lists, combo) for n in names
        }
        cost = _evaluate(block, assignment, tp, registry, cm, result)
        if cost is not None and cost < result.best_cost:
            result.best_cost = cost
            result.best_assignment = assignment


def _greedy(block, groups, tp, registry, cm, result, max_candidates):
    # decide the largest weights first: they dominate the cost landscape
    ordered = sorted(
        groups,
        key=lambda g: -max(block.node(n).num_parameters for n in g[0]),
    )
    current: Dict[str, str] = {}
    base = _evaluate(block, current, tp, registry, cm, result)
    result.best_cost = base if base is not None else float("inf")
    for names, options in ordered:
        best_option, best_cost = "replicate", result.best_cost
        for option in options:
            if option == "replicate" or result.candidates >= max_candidates:
                continue
            trial = dict(current)
            trial.update({n: option for n in names})
            cost = _evaluate(block, trial, tp, registry, cm, result)
            if cost is not None and cost < best_cost:
                best_cost, best_option = cost, option
        if best_option != "replicate":
            current.update({n: best_option for n in names})
            result.best_cost = best_cost
    result.best_assignment = current


def _beam(block, groups, tp, registry, cm, result, max_candidates, width=4):
    ordered = sorted(
        groups,
        key=lambda g: -max(block.node(n).num_parameters for n in g[0]),
    )
    base = _evaluate(block, {}, tp, registry, cm, result)
    beam: List[Tuple[float, Dict[str, str]]] = [
        (base if base is not None else float("inf"), {})
    ]
    for names, options in ordered:
        frontier: List[Tuple[float, Dict[str, str]]] = []
        for cost, assignment in beam:
            for option in options:
                if result.candidates >= max_candidates:
                    break
                trial = dict(assignment)
                if option != "replicate":
                    trial.update({n: option for n in names})
                    new_cost = _evaluate(block, trial, tp, registry, cm, result)
                    if new_cost is None:
                        continue
                else:
                    new_cost = cost
                frontier.append((new_cost, trial))
        frontier.sort(key=lambda t: t[0])
        # dedupe identical assignments while keeping order
        seen = set()
        beam = []
        for cost, assignment in frontier:
            key = tuple(sorted(assignment.items()))
            if key not in seen:
                seen.add(key)
                beam.append((cost, assignment))
            if len(beam) >= width:
                break
        if not beam:
            beam = [(float("inf"), {})]
    result.best_cost, result.best_assignment = beam[0]


STRATEGIES: Dict[str, Callable] = {
    "exhaustive": _exhaustive,
    "greedy": _greedy,
    "beam": _beam,
}


def search_block(
    block: NodeGraph,
    mesh: Mesh,
    tp_degree: int,
    strategy: str = "exhaustive",
    registry: PatternRegistry = DEFAULT_REGISTRY,
    cost_config: Optional[CostConfig] = None,
    max_candidates: int = 50_000,
) -> StrategyResult:
    """Run one strategy over one block; returns the best assignment found."""
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}; options: {sorted(STRATEGIES)}"
        )
    cm = CostModel(mesh, cost_config)
    groups = decision_groups(block, registry, tp_degree)
    result = StrategyResult(strategy=strategy)
    start = time.perf_counter()
    STRATEGIES[strategy](
        block, groups, tp_degree, registry, cm, result, max_candidates
    )
    result.seconds = time.perf_counter() - start
    return result
