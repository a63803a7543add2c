"""Public entry points — the paper's Example 1 interface.

.. code-block:: python

    import repro as tap

    mesh = tap.split([2, 8])               # 2 workers x 8 GPUs
    result = tap.auto_parallel(model_graph, mesh)
    result.plan.describe()                 # the discovered sharding plan
    result.graph                           # the rewritten parallel graph

``auto_parallel`` runs the whole pipeline: trim → coarsen → prune →
enumerate → route → cost → rewrite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..cluster import Mesh
from ..graph import Graph, trim_auxiliary
from .cost import CostBreakdown, CostConfig, CostModel
from .evaluate import normalize_engine
from .graphnode import NodeGraph, coarsen
from .packing import PackingConfig
from .patterns import DEFAULT_REGISTRY, PatternRegistry
from .plan import RoutedPlan, ShardingPlan
from .planner import SearchResult, derive_plan
from .rewrite import RewriteResult, rewrite_graph
from .routing import RoutingError, route_plan

__all__ = [
    "split",
    "plan_request",
    "what_if_profiles",
    "auto_parallel",
    "ParallelizedModel",
]


def split(mesh_shape: Sequence[int] | Mesh) -> Mesh:
    """Build the device mesh S(m, n) from ``[workers, gpus_per_worker]``.

    Mirrors the paper's ``tap.split(mesh)`` annotation; an existing
    :class:`Mesh` passes through so callers can customise interconnects.
    """
    if isinstance(mesh_shape, Mesh):
        return mesh_shape
    shape = list(mesh_shape)
    if len(shape) != 2:
        raise ValueError(f"mesh must be [workers, gpus_per_worker], got {mesh_shape}")
    return Mesh(num_nodes=shape[0], gpus_per_node=shape[1])


@dataclass
class ParallelizedModel:
    """Everything ``auto_parallel`` produces for one model/mesh pair."""

    mesh: Mesh
    search: SearchResult
    rewrite: RewriteResult
    node_graph: NodeGraph
    breakdown: CostBreakdown

    @property
    def plan(self) -> ShardingPlan:
        return self.search.plan

    @property
    def routed(self) -> RoutedPlan:
        return self.search.routed

    @property
    def graph(self) -> Graph:
        """The rewritten parallel graph (one device's SPMD program)."""
        return self.rewrite.graph

    @property
    def tp_degree(self) -> int:
        return self.search.tp_degree

    @property
    def estimated_iteration_time(self) -> float:
        return self.breakdown.iteration_time

    def describe(self) -> str:
        s = self.search
        lines = [
            f"mesh: {self.mesh}",
            f"plan: {s.plan.describe()}",
            f"candidates examined: {s.candidates_examined} "
            f"(valid: {s.valid_plans})",
            f"search time: {s.search_seconds:.2f}s",
            f"estimated iteration time: {self.breakdown.iteration_time * 1e3:.1f} ms "
            f"(comm {self.breakdown.comm_time * 1e3:.1f} ms)",
            f"communication ops inserted: {self.rewrite.num_comm_ops}",
            f"gradient buckets: {self.rewrite.num_gradient_buckets}",
        ]
        from .. import obs

        sink = obs.memory_sink()
        if sink is not None:
            lines.append(f"observability: {sink.summary()}")
        return "\n".join(lines)


def plan_request(
    model: Graph | NodeGraph,
    mesh: Mesh | Sequence[int],
    cost_config: Optional[CostConfig] = None,
    *,
    batch_tokens: int = 16 * 512,
    packing: Optional[PackingConfig] = None,
    min_duplicate: int = 2,
    tp_degrees: Optional[Sequence[int]] = None,
    use_pruning: bool = True,
    max_plans_per_block: int = 50_000,
    engine: str = "columnar",
    jobs: int = 1,
    zero_stage: int = 0,
    registry: PatternRegistry = DEFAULT_REGISTRY,
) -> SearchResult:
    """Answer one planning request: normalise inputs, run the search.

    The single entry point both :func:`auto_parallel` and the planner
    service (:mod:`repro.service`) call, so a request is handled
    identically whether it arrives from the library API, the CLI, or a
    service worker process.  *model* may be an op-level :class:`Graph`
    (trimmed and coarsened here) or an already-coarsened
    :class:`NodeGraph`; *mesh* may be a shape list or a :class:`Mesh`.
    Returns the :class:`SearchResult` — the winner's :class:`RoutedPlan`
    materialises lazily on ``.routed`` access.
    """
    mesh = split(mesh)
    cost_config = cost_config or CostConfig(
        batch_tokens=batch_tokens, packing=packing or PackingConfig()
    )
    if isinstance(model, NodeGraph):
        node_graph = model
    else:
        trimmed, _ = trim_auxiliary(model)
        node_graph = coarsen(trimmed)
    return derive_plan(
        node_graph,
        mesh,
        registry=registry,
        cost_config=cost_config,
        min_duplicate=min_duplicate,
        tp_degrees=tp_degrees,
        max_plans_per_block=max_plans_per_block,
        use_pruning=use_pruning,
        engine=engine,
        jobs=jobs,
        zero_stage=zero_stage,
    )


def what_if_profiles(
    node_graph: NodeGraph,
    plans: Sequence[ShardingPlan],
    mesh: Mesh | Sequence[int],
    config: Optional[CostConfig] = None,
    registry: PatternRegistry = DEFAULT_REGISTRY,
    *,
    engine="columnar",
    recompute=None,
):
    """Route and simulate many candidate plans on one mesh/config.

    The core entry point behind what-if surfaces (plan comparison
    tables, sweep loops, the service's ``POST /simulate``): every plan
    is routed, and each routable plan is priced by
    :func:`repro.simulator.simulate_iteration` on *engine* —
    ``"columnar"`` (the default) or the ``"reference"`` oracle loop,
    bit-identically.

    Returns a list aligned with *plans*: ``(routed, profile)`` per
    routable plan, ``None`` where routing failed.
    """
    from ..simulator import simulate_iteration

    tier = normalize_engine(engine)
    mesh = split(mesh)
    cfg = config or CostConfig()
    slots = []
    routed_plans = []
    for i, plan in enumerate(plans):
        try:
            routed_plans.append(route_plan(node_graph, plan, registry))
        except RoutingError:
            continue
        slots.append(i)
    profiles = [
        simulate_iteration(r, mesh, cfg, recompute, engine=tier)
        for r in routed_plans
    ]
    out = [None] * len(plans)
    for i, routed, prof in zip(slots, routed_plans, profiles):
        out[i] = (routed, prof)
    return out


def auto_parallel(
    model: Graph,
    mesh: Mesh | Sequence[int],
    batch_tokens: int = 16 * 512,
    min_duplicate: int = 2,
    tp_degrees: Optional[Sequence[int]] = None,
    registry: PatternRegistry = DEFAULT_REGISTRY,
    cost_config: Optional[CostConfig] = None,
    packing: Optional[PackingConfig] = None,
    use_pruning: bool = True,
    verify: bool = True,
    zero_stage: int = 0,
) -> ParallelizedModel:
    """Derive and apply the best data/tensor-parallel plan for *model*.

    Parameters mirror the paper's knobs: ``min_duplicate`` is Algorithm 1's
    threshold, ``tp_degrees`` restricts the tensor-parallel degrees tried
    (default: 1, one node's GPUs, and the whole mesh), ``use_pruning=False``
    searches the unpruned graph (the ablation baseline).

    ``verify=True`` (the default) runs the static verifier
    (:mod:`repro.verify`) over the routed plan and the rewritten graph
    before returning; a plan violating a sharding invariant raises
    :class:`repro.verify.PlanVerificationError` instead of silently
    producing a wrong program.  The check is rule-based and cheap —
    ``verify=False`` is the escape hatch, not an optimisation.
    """
    mesh = split(mesh)
    cost_config = cost_config or CostConfig(
        batch_tokens=batch_tokens, packing=packing or PackingConfig()
    )
    trimmed, record = trim_auxiliary(model)
    node_graph = coarsen(trimmed)
    search = plan_request(
        node_graph,
        mesh,
        cost_config,
        registry=registry,
        min_duplicate=min_duplicate,
        tp_degrees=tp_degrees,
        use_pruning=use_pruning,
        zero_stage=zero_stage,
    )
    rewrite = rewrite_graph(
        trimmed,
        node_graph,
        search.routed,
        trim_record=record,
        packing=cost_config.packing,
        registry=registry,
    )
    breakdown = CostModel(mesh, cost_config).estimate(search.routed)
    if verify:
        # Lazy import keeps repro.core's package init acyclic (the verifier
        # imports back into core).
        from ..verify import verify_rewrite, verify_routed

        report = verify_routed(
            node_graph, search.routed, mesh, cost_config, registry=registry
        )
        report.extend(
            verify_rewrite(
                node_graph, search.routed, rewrite, packing=cost_config.packing
            )
        )
        report.raise_if_failed()
    return ParallelizedModel(
        mesh=mesh,
        search=search,
        rewrite=rewrite,
        node_graph=node_graph,
        breakdown=breakdown,
    )
