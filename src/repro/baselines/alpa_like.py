"""An Alpa-style two-level auto-parallel search (the paper's comparator).

Alpa [33] optimises inter-operator parallelism (pipeline stage slicing,
dynamic programming) in an outer loop and intra-operator parallelism
(per-op sharding, ILP) in an inner loop, after profiling operators on the
target hardware.  This reimplementation preserves the *complexity class*
of each phase on the same graphs TAP consumes (Table 2):

* **profiling** — every distinct operator signature is timed with a real
  numpy microbenchmark at its true shapes (Alpa spends minutes here; our
  substrate makes it seconds, but the work still scales with operator
  count and width);
* **inter-op** — an O(S · V²) stage-slicing DP over the *unpruned* node
  sequence;
* **intra-op** — per stage, a local exhaustive pass over every weight
  node's sharding options with pairwise interaction scans (the ILP stand-
  in), O(W · V) per stage;
* **evaluation** — each shortlisted candidate is priced end to end.

Because no shared-subgraph pruning happens, total work grows superlinearly
with model size — which is precisely the behaviour Figs. 9 and 10 compare
TAP against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cluster import Mesh
from ..core.cost import CostConfig
from ..core.graphnode import NodeGraph

__all__ = ["PipelineStage", "PipelinePlan", "AlpaResult", "alpa_like_search"]


@dataclass
class PipelineStage:
    """One pipeline stage: a contiguous slice of the node sequence."""

    nodes: List[str]
    compute_seconds: float
    boundary_bytes: int          # activations crossing into the next stage
    weight_bytes: int
    sharded_nodes: int = 0
    #: intra-stage collective time when the stage is intra-op sharded —
    #: sharding inside a stage pays the same activation collectives TAP's
    #: tensor plans do (the giant-FC stage cannot escape its logits reduce)
    intra_comm_seconds: float = 0.0

    @property
    def stage_seconds(self) -> float:
        return self.compute_seconds + self.intra_comm_seconds


@dataclass
class PipelinePlan:
    """One candidate: stage slicing + per-stage intra-op choices."""

    num_stages: int
    microbatches: int
    stages: List[PipelineStage]
    iteration_time: float
    bubble_fraction: float

    def describe(self) -> str:
        return (
            f"{self.num_stages} stages x {self.microbatches} microbatches, "
            f"iter {self.iteration_time * 1e3:.1f} ms "
            f"(bubble {self.bubble_fraction:.0%})"
        )


@dataclass
class AlpaResult:
    """Search outcome: every evaluated candidate plus the winner."""

    plans: List[PipelinePlan] = field(default_factory=list)
    best: Optional[PipelinePlan] = None
    search_seconds: float = 0.0
    ops_profiled: int = 0
    dp_states_evaluated: int = 0
    intra_choices_evaluated: int = 0
    #: structurally identical intra-op subproblems (whole stages, or single
    #: weight-node option scans) replayed from the per-search memo instead
    #: of re-routed (the counters above still accumulate as if every stage
    #: had been searched — they measure the algorithm's complexity class,
    #: not our wall-clock)
    stage_cache_hits: int = 0

    @property
    def iteration_times(self) -> List[float]:
        return [p.iteration_time for p in self.plans]


#: (op signature, sample_tokens) -> extrapolated seconds.  The microbench
#: result is a pure function of the signature (shapes are part of it), so
#: re-profiling the same operator across sweep points — fig. 9 runs the
#: same layer stack at every depth — repeats identical numpy matmuls.
#: ``ops_profiled`` still counts every distinct signature discovered by
#: walking every node: the cache removes redundant *hardware* work, not
#: the discovery walk whose growth Table 2 measures.
_MICROBENCH_CACHE: Dict[Tuple, float] = {}
_MICROBENCH_CACHE_LIMIT = 4096


def _profile_operators(node_graph: NodeGraph, tokens: int) -> Dict[Tuple, float]:
    """Microbenchmark each distinct operator signature (Alpa's profiling).

    Real numpy work at the graph's true shapes; cached per signature so a
    repeated layer is measured once, but *discovering* the signatures still
    walks every node — Alpa has no notion of shared subgraphs.
    """
    measured: Dict[Tuple, float] = {}
    sample_tokens = min(tokens, 64)
    for node in node_graph:
        for op in node.ops:
            sig = op.signature()
            if sig in measured or op.weight is None:
                continue
            cached = _MICROBENCH_CACHE.get((sig, sample_tokens))
            if cached is not None:
                measured[sig] = cached
                continue
            shape = op.weight.shape
            if len(shape) >= 2:
                rows = int(np.prod(shape[:-1]))
                cols = shape[-1]
                # cap the microbenchmark so profiling stays minutes→seconds
                rows_c, cols_c = min(rows, 8192), min(cols, 32768)
                x = np.ones((sample_tokens, rows_c), dtype=np.float32)
                w = np.ones((rows_c, cols_c), dtype=np.float32)
                t0 = time.perf_counter()
                x @ w
                dt = time.perf_counter() - t0
                # extrapolate back to the uncapped shape
                scale = (rows / rows_c) * (cols / cols_c)
                measured[sig] = dt * scale
            else:
                measured[sig] = 0.0
            if len(_MICROBENCH_CACHE) >= _MICROBENCH_CACHE_LIMIT:
                _MICROBENCH_CACHE.pop(next(iter(_MICROBENCH_CACHE)))
            _MICROBENCH_CACHE[(sig, sample_tokens)] = measured[sig]
    return measured


def _stage_cost(
    prefix_flops: Sequence[float],
    i: int,
    j: int,
    mesh: Mesh,
    devices_per_stage: int,
    tokens: int,
) -> float:
    """Compute seconds of a stage spanning nodes [i, j) on its devices."""
    flops = prefix_flops[j] - prefix_flops[i]
    return flops * tokens / (mesh.effective_flops * devices_per_stage)


def _stage_fingerprint(
    node_graph: NodeGraph, stage_nodes: List[str], sig_of: Dict[str, Tuple]
) -> Tuple:
    """Structural identity of a stage: node signatures + intra-stage wiring.

    Two stages with the same fingerprint route and price identically (the
    intra-op pass only looks at the stage subgraph), which is exactly the
    shared-subgraph structure of a deep model's repeated layer stacks.
    ``sig_of`` memoises per-node signatures across the stage slicings of
    one search.
    """
    index = {n: i for i, n in enumerate(stage_nodes)}
    fp = []
    for n in stage_nodes:
        sig = sig_of.get(n)
        if sig is None:
            sig = sig_of[n] = node_graph.node(n).signature()
        node = node_graph.node(n)
        fp.append((sig, tuple(index.get(src, -1) for src in node.inputs)))
    return tuple(fp)


def _intra_op_pass(
    node_graph: NodeGraph,
    stage_nodes: List[str],
    mesh: Mesh,
    cm: "CostModel",
    devices_per_stage: int,
    result: "AlpaResult",
    stage_cache: Optional[Dict[Tuple, Tuple[int, int]]] = None,
    sig_of: Optional[Dict[str, Tuple]] = None,
) -> int:
    """Per-stage intra-operator search — the ILP stand-in.

    For every weight node of the stage, every applicable sharding option is
    priced by routing a candidate over the stage subgraph and querying the
    communication cost model.  Each query walks the whole stage — exactly
    the O(E(V+E)) lower bound Table 2 assigns Alpa's inner loop.  The
    cost model itself is shared across stages so its device-group and
    pricing caches warm once per search instead of once per stage.

    ``stage_cache`` memoises the whole pass on the stage's structural
    fingerprint: our *implementation* replays repeated stages instead of
    re-routing them, but the complexity counters are charged as if it had
    not (the recorded choice count is added on a hit), so Table 2 / fig. 9
    still measure the algorithm's no-pruning growth.  Within one stage,
    each weight node's options are priced in one batch through
    :meth:`~repro.core.columnar.ColumnarEvaluator.price_batch` —
    bit-identical costs to ``plan_cost(route_plan(...))`` without a
    Python walk of the stage per option — again a wall-clock change only.
    """
    from ..core.columnar import ColumnarEvaluator
    from ..core.evaluate import EVAL_VALID
    from ..core.patterns import DEFAULT_REGISTRY

    if devices_per_stage <= 1:
        return 0
    tp = devices_per_stage
    if mesh.num_devices % tp != 0:
        return 0
    key = None
    if stage_cache is not None:
        key = (_stage_fingerprint(node_graph, stage_nodes, sig_of), tp)
        hit = stage_cache.get(key)
        if hit is not None:
            sharded, choices = hit
            # replay the recorded work: the complexity counters keep their
            # no-pruning values — only the wall-clock is saved
            result.intra_choices_evaluated += choices
            result.stage_cache_hits += 1
            return sharded
    choices_before = result.intra_choices_evaluated
    block = node_graph.subgraph(stage_nodes, name="stage")
    evaluator = ColumnarEvaluator(block, DEFAULT_REGISTRY, tp, cm)
    # One row per (weight node, option): only that node is sharded in its
    # candidate, so every row of the stage prices in one batch.  The batch
    # has no incumbent, which changes no choice: an option the bound would
    # abandon costs more than the node's best so far anyway.
    trials = [
        (n, p.name)
        for n in stage_nodes
        if block.node(n).weights
        for p in DEFAULT_REGISTRY.options(block.node(n), tp)
    ]
    result.intra_choices_evaluated += len(trials)
    outcomes = evaluator.price_batch({}, [{n: o} for n, o in trials])
    best: Dict[str, Tuple[str, float]] = {}
    for (n, option), (status, cost) in zip(trials, outcomes):
        if status == EVAL_VALID and cost < best.get(n, ("", float("inf")))[1]:
            best[n] = (option, cost)
    sharded = sum(1 for name, _ in best.values() if name != "replicate")
    if key is not None:
        stage_cache[key] = (
            sharded, result.intra_choices_evaluated - choices_before
        )
    return sharded


def alpa_like_search(
    node_graph: NodeGraph,
    mesh: Mesh,
    cost_config: Optional[CostConfig] = None,
    stage_counts: Sequence[int] = (2, 4, 8),
    microbatch_counts: Sequence[int] = (4, 8),
    num_candidates: int = 16,
    profile: bool = True,
) -> AlpaResult:
    """Run the two-level search over the unpruned node graph."""
    from ..core.cost import CostModel

    cfg = cost_config or CostConfig()
    start = time.perf_counter()
    result = AlpaResult()
    cost_model = CostModel(mesh, cfg)
    # per-search memo: structurally identical stages (deep models slice
    # into repeated layer runs) share one intra-op pass
    stage_cache: Dict[Tuple, Tuple[int, int]] = {}
    sig_of: Dict[str, Tuple] = {}

    order = node_graph.topo_order()
    nodes = [node_graph.node(n) for n in order]
    V = len(nodes)
    tokens = cfg.batch_tokens

    if profile:
        profiled = _profile_operators(node_graph, tokens)
        result.ops_profiled = len(profiled)

    # prefix sums for O(1) span queries
    prefix_flops = [0.0]
    prefix_weight = [0]
    for node in nodes:
        prefix_flops.append(prefix_flops[-1] + node.flops)
        prefix_weight.append(
            prefix_weight[-1] + sum(w.size_bytes for w in node.weight_specs)
        )

    def boundary_bytes(j: int) -> int:
        if j >= V:
            return 0
        spec = nodes[j - 1].output_spec
        if spec is None:
            return 0
        per_token = spec.num_elements * 4
        return per_token * min(tokens, 1 << 14)

    for num_stages in stage_counts:
        if num_stages > max(V, 1) or num_stages > mesh.num_devices:
            continue
        devices_per_stage = max(mesh.num_devices // num_stages, 1)

        # ---- inter-op DP: O(num_stages * V^2) --------------------------
        INF = float("inf")
        f = [[INF] * (V + 1) for _ in range(num_stages + 1)]
        cut = [[0] * (V + 1) for _ in range(num_stages + 1)]
        f[0][0] = 0.0
        for s in range(1, num_stages + 1):
            for i in range(1, V + 1):
                best = INF
                best_j = 0
                for j in range(s - 1, i):
                    result.dp_states_evaluated += 1
                    span = _stage_cost(
                        prefix_flops, j, i, mesh, devices_per_stage, tokens
                    )
                    cand = max(f[s - 1][j], span)
                    if cand < best:
                        best = cand
                        best_j = j
                f[s][i] = best
                cut[s][i] = best_j
        if f[num_stages][V] == INF:
            continue

        # recover stage boundaries
        bounds = [V]
        i = V
        for s in range(num_stages, 0, -1):
            i = cut[s][i]
            bounds.append(i)
        bounds.reverse()

        stages: List[PipelineStage] = []
        for k in range(num_stages):
            lo, hi = bounds[k], bounds[k + 1]
            stage_nodes = order[lo:hi]
            sharded = _intra_op_pass(
                node_graph, stage_nodes, mesh, cost_model, devices_per_stage,
                result, stage_cache, sig_of,
            )
            intra_comm = 0.0
            if sharded and devices_per_stage > 1:
                from ..cluster import collective_time

                max_act = max(
                    (
                        node_graph.node(n).output_spec.with_batch(
                            min(tokens, 1 << 14)
                        ).size_bytes
                        for n in stage_nodes
                        if node_graph.node(n).output_spec is not None
                        and node_graph.node(n).output_spec.has_symbolic_batch
                    ),
                    default=0,
                )
                group = mesh.group(list(range(devices_per_stage)))
                intra_comm = collective_time("all_reduce", max_act, group)
            stages.append(
                PipelineStage(
                    nodes=stage_nodes,
                    compute_seconds=_stage_cost(
                        prefix_flops, lo, hi, mesh, devices_per_stage, tokens
                    ),
                    boundary_bytes=boundary_bytes(hi),
                    weight_bytes=prefix_weight[hi] - prefix_weight[lo],
                    sharded_nodes=sharded,
                    intra_comm_seconds=intra_comm,
                )
            )

        for microbatches in microbatch_counts:
            if len(result.plans) >= num_candidates:
                break
            slowest = max(s.stage_seconds for s in stages)
            p2p = sum(
                s.boundary_bytes / mesh.inter.bandwidth + mesh.inter.latency
                for s in stages[:-1]
            )
            bubble = (num_stages - 1) / (microbatches + num_stages - 1)
            iter_time = (slowest * 3.0 + p2p) / (1.0 - bubble)
            result.plans.append(
                PipelinePlan(
                    num_stages=num_stages,
                    microbatches=microbatches,
                    stages=stages,
                    iteration_time=iter_time,
                    bubble_fraction=bubble,
                )
            )

    result.best = min(result.plans, key=lambda p: p.iteration_time, default=None)
    result.search_seconds = time.perf_counter() - start
    return result
