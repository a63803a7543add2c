"""TAP composed with pipeline parallelism (§4.8).

The paper notes TAP can be combined with pipeline parallelism through
automatic or manual placements.  This pass does the manual-placement
composition: slice the NodeGraph into ``num_stages`` contiguous,
FLOP-balanced stages, give each stage its own slice of the mesh, and run
TAP's full derivation *inside* each stage.  The result is a hybrid
pipeline+tensor plan with per-stage TAP plans, inter-stage activation
transfers, and a GPipe-style bubble model.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..cluster import Mesh
from ..core.cost import CostConfig, CostModel
from ..core.graphnode import NodeGraph
from ..core.patterns import DEFAULT_REGISTRY, PatternRegistry
from ..core.planner import SearchResult, derive_plan
from ..simulator.iteration import simulate_iteration

__all__ = ["HybridStage", "HybridPipelinePlan", "pipeline_with_tap"]


@dataclass
class HybridStage:
    """One pipeline stage with its own TAP-derived tensor plan."""

    index: int
    nodes: List[str]
    mesh: Mesh
    search: SearchResult
    stage_seconds: float
    boundary_bytes: int

    @property
    def tp_degree(self) -> int:
        return self.search.tp_degree


@dataclass
class HybridPipelinePlan:
    """A pipeline of TAP-planned stages."""

    stages: List[HybridStage]
    microbatches: int
    iteration_time: float = 0.0
    bubble_fraction: float = 0.0

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    def describe(self) -> str:
        parts = [
            f"{self.num_stages} stages x {self.microbatches} microbatches, "
            f"iter {self.iteration_time * 1e3:.1f} ms "
            f"(bubble {self.bubble_fraction:.0%})"
        ]
        for s in self.stages:
            parts.append(
                f"  stage {s.index}: {len(s.nodes)} nodes on {s.mesh}, "
                f"tp={s.tp_degree}, {s.search.plan.num_sharded} sharded, "
                f"{s.stage_seconds * 1e3:.1f} ms"
            )
        return "\n".join(parts)


def _balanced_cuts(flops: Sequence[float], num_stages: int) -> List[int]:
    """Greedy FLOP-balanced contiguous partition boundaries (exclusive)."""
    total = sum(flops) or 1.0
    target = total / num_stages
    cuts: List[int] = []
    acc = 0.0
    for i, f in enumerate(flops):
        acc += f
        if acc >= target and len(cuts) < num_stages - 1:
            cuts.append(i + 1)
            acc = 0.0
    while len(cuts) < num_stages - 1:
        cuts.append(len(flops))
    cuts.append(len(flops))
    return cuts


def pipeline_with_tap(
    node_graph: NodeGraph,
    mesh: Mesh,
    num_stages: int,
    microbatches: int = 8,
    cost_config: Optional[CostConfig] = None,
    registry: PatternRegistry = DEFAULT_REGISTRY,
    engine: str = "columnar",
) -> HybridPipelinePlan:
    """Slice into stages, run TAP per stage, assemble the hybrid plan.

    Stages receive contiguous node ranges balanced by forward FLOPs; each
    stage's sub-mesh keeps the original topology class with
    ``num_devices / num_stages`` devices (whole nodes first).  Microbatches
    shrink the pipeline bubble at the usual (m + s - 1)/m cost model.
    ``engine`` forwards to each stage's :func:`simulate_iteration`
    (``"columnar"`` or the ``"reference"`` event loop).
    """
    if num_stages < 1:
        raise ValueError("num_stages must be >= 1")
    if mesh.num_devices % num_stages != 0:
        raise ValueError(
            f"{num_stages} stages must divide {mesh.num_devices} devices"
        )
    if microbatches < 1:
        raise ValueError("microbatches must be >= 1")

    cfg = cost_config or CostConfig()
    order = node_graph.topo_order()
    flops = [node_graph.node(n).flops for n in order]
    cuts = _balanced_cuts(flops, num_stages)

    devices_per_stage = mesh.num_devices // num_stages
    if devices_per_stage >= mesh.gpus_per_node:
        stage_mesh = Mesh(
            num_nodes=devices_per_stage // mesh.gpus_per_node,
            gpus_per_node=mesh.gpus_per_node,
            intra=mesh.intra,
            inter=mesh.inter,
            device_flops=mesh.device_flops,
            compute_efficiency=mesh.compute_efficiency,
        )
    else:
        stage_mesh = Mesh(
            num_nodes=1,
            gpus_per_node=devices_per_stage,
            intra=mesh.intra,
            inter=mesh.inter,
            device_flops=mesh.device_flops,
            compute_efficiency=mesh.compute_efficiency,
        )

    # each stage sees 1/microbatches of the batch at a time
    stage_cfg = dataclasses.replace(
        cfg, batch_tokens=max(cfg.batch_tokens // microbatches, 1)
    )

    stages: List[HybridStage] = []
    lo = 0
    for idx, hi in enumerate(cuts):
        stage_nodes = order[lo:hi]
        block = node_graph.subgraph(stage_nodes, name=f"stage_{idx}")
        search = derive_plan(block, stage_mesh, registry=registry,
                             cost_config=stage_cfg)
        profile = simulate_iteration(
            search.routed, stage_mesh, stage_cfg, engine=engine
        )
        boundary_spec = (
            node_graph.node(order[hi - 1]).output_spec if hi - 1 >= 0 else None
        )
        boundary = 0
        if hi < len(order) and boundary_spec is not None:
            boundary = boundary_spec.with_batch(
                max(stage_cfg.batch_tokens, 1)
            ).size_bytes if boundary_spec.has_symbolic_batch else boundary_spec.size_bytes
        stages.append(
            HybridStage(
                index=idx,
                nodes=stage_nodes,
                mesh=stage_mesh,
                search=search,
                stage_seconds=profile.iteration_time,
                boundary_bytes=boundary,
            )
        )
        lo = hi

    plan = HybridPipelinePlan(stages=stages, microbatches=microbatches)
    slowest = max(s.stage_seconds for s in stages)
    p2p = sum(
        s.boundary_bytes / mesh.inter.bandwidth + mesh.inter.latency
        for s in stages[:-1]
    )
    plan.bubble_fraction = (num_stages - 1) / (microbatches + num_stages - 1)
    # every microbatch flows through the slowest stage once; the bubble
    # inflates the steady state by the GPipe factor
    plan.iteration_time = (slowest * microbatches + p2p) / (
        1.0 - plan.bubble_fraction
    )
    return plan
