"""Columnar search core — the ``engine="columnar"`` search tier (the default).

The reference sweep (:mod:`repro.core.evaluate`) routes and prices every
candidate with a Python loop over nodes.  On graphs with tens of
thousands of nodes that inner loop is the floor on search time.  This
module removes the loop itself: a block is compiled **once** into a flat
struct-of-arrays form and whole chunks of candidates are then routed and
priced as batched numpy array operations.

Array layout (one compile per ``(block, registry)``, cached on the block):

* **Node classes** — structurally identical nodes intern to one small
  integer class id at skeleton build (a 96-layer stack has thousands of
  dense nodes but only a handful of classes).  Everything downstream keys
  on the id, so the big structural tuples are hashed exactly once.
* **Columns** — every *(node class, pattern name)* pair routes once
  through the real :func:`route_node` + :meth:`CostModel.shard_terms`
  into a *column*: required/output layout codes, validity, compute time,
  pattern-implied collective times, gradient packet bytes.  A candidate
  assignment is then just an integer vector of column ids over the weight
  nodes — its delta against the previous candidate is the Gray-code single
  group change.
* **Edge CSR** — edges live in ``(consumer position, input rank)`` order
  with per-producer segment permutations, so layout transitions, the
  per-``(producer, required-layout)`` conversion dedup and the edge
  collective pricing are all table gathers + segmented cumulative sums.
* **Prefix slots** — each node owns a fixed span of forward/backward cost
  slots (its in-edges, then its pattern-comm budget).  A row-wise
  ``cumsum`` over the slot matrix replays :meth:`CostModel.estimate`'s
  exact left-fold float-accumulation order (padding slots add ``+0.0``,
  which is exact), so per-node partial costs — the admissible
  branch-and-bound values — are the very prefix sums a node-by-node walk
  accumulates.

Bound interaction: partial-cost rows are non-decreasing (every term is a
non-negative IEEE float), so "the first node whose partial strictly
exceeds the incumbent" is one ``searchsorted`` per candidate.  The walk
that bound abandons is the node-ordered one: a candidate is invalid when
an invalid weight node comes at or before its bound node, and nodes
before the resume position (the first node changed since the previous
candidate) are never re-checked against a tightened incumbent.
Classification (invalid-before-bound, resume hints, incumbent updates)
stays sequential per candidate to preserve exact first-wins semantics;
everything per-*node* is vectorized.

Compiled tables are cached by *value* — ``(tp, mesh, cost config)`` are
all frozen dataclasses — so repeat derives over the same graph skip the
compile entirely and pay only the sweep.

Determinism is the contract: plans, costs and candidate counts are
bit-identical to the ``engine="reference"`` oracle across every block and
TP degree.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..cluster import collective_time
from ..graph import TensorSpec
from .cost import (
    CostModel,
    TERM_BWD_TP_COMM,
    TERM_FWD_COMM,
    TERM_GRAD_DP,
    TERM_GRAD_ALL,
)
from .evaluate import (
    EVAL_BOUNDED,
    EVAL_INVALID,
    EVAL_VALID,
    BlockSearchOutcome,
    iter_gray_digits,
)
from .graphnode import GraphNode, NodeGraph
from .packing import pack_gradients
from .patterns import (
    InvalidTransition,
    Layout,
    PatternRegistry,
    conversion_comm,
)
from .routing import (
    FEATURE_AXIS_OPS,
    RoutingError,
    resolve_pattern,
    route_node,
    follow_required,
)

__all__ = ["ColumnarEvaluator", "columnar_block_search"]

#: Layout letters <-> small integer codes used in every layout table.
_LAYOUTS = ("D", "R", "S", "P")
_CODE = {layout: c for c, layout in enumerate(_LAYOUTS)}

#: Collective names <-> codes; code 0 is "no event" and always prices 0.0.
_COLLS = ("", "all_gather", "all_to_all", "all_reduce", "reduce_scatter")
_COLL_CODE = {None: 0, "all_gather": 1, "all_to_all": 2, "all_reduce": 3,
              "reduce_scatter": 4}

#: Layout code -> presence bit, for the follow-layout mask reduction.
_LBIT = np.array([1, 2, 4, 8], dtype=np.uint8)


def _transition_tables() -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """16-entry ``src*4 + required`` tables of edge collective codes.

    ``bwd0``/``bwd1`` bake in :func:`route_node`'s R-state override for
    consumers without/with a backward input reduction.  Transitions into P
    are unroutable, but a *required* layout is never P on any reachable
    walk (patterns demand D/R/S; follow nodes resolve to D/R/S), so those
    entries simply stay "no event" — invalidity is a column property.
    """
    fwd = np.zeros(16, dtype=np.int8)
    bwd0 = np.zeros(16, dtype=np.int8)
    bwd1 = np.zeros(16, dtype=np.int8)
    for s, src in enumerate(_LAYOUTS):
        for r, dst in enumerate(_LAYOUTS):
            try:
                f, b = conversion_comm(src, dst)
            except InvalidTransition:
                continue
            b0 = b1 = b
            if dst == Layout.R and src in (Layout.D, Layout.S, Layout.R):
                b1 = "all_reduce" if src == Layout.R else "reduce_scatter"
                b0 = None
            idx = s * 4 + r
            fwd[idx] = _COLL_CODE[f]
            bwd0[idx] = _COLL_CODE[b0]
            bwd1[idx] = _COLL_CODE[b1]
    return fwd, bwd0, bwd1


_FWD_T, _BWD0_T, _BWD1_T = _transition_tables()


def _follow_table() -> np.ndarray:
    """``(feature_axis, input-layout bitmask) -> layout code`` for follow
    nodes, flattened from :func:`follow_required` (whose result depends
    only on the *set* of input layouts)."""
    table = np.zeros(32, dtype=np.int8)
    for fa in (0, 1):
        for mask in range(16):
            if mask:
                layouts = [_LAYOUTS[c] for c in range(4) if mask & (1 << c)]
                code = _CODE[follow_required(layouts, bool(fa))]
            else:
                code = _CODE[Layout.D]  # zero-input follow nodes sit in D
            table[fa * 16 + mask] = code
    return table


_FOLLOW_FLAT = _follow_table()


def _node_class_key(node: GraphNode, first_spec: Optional[TensorSpec]):
    """Cheap structural identity: everything column building reads.

    Covers pattern resolution (kind, weight shapes/dtypes, divisibility),
    the nonlinearity-after-weight check (op order/types), compute pricing
    (flops, trainability), pattern-comm specs (output + first input spec)
    and the ``(src, P)``-with-inputs invalidity (``bool(inputs)``).
    """
    ops_key = tuple(
        (
            op.op_type,
            op.flops,
            (op.weight.shape, op.weight.dtype) if op.weight is not None else None,
            op.trainable,
            (op.output.shape, op.output.dtype) if op.output is not None else None,
        )
        for op in node.ops
    )
    spec_key = (
        (first_spec.shape, first_spec.dtype) if first_spec is not None else None
    )
    return (ops_key, spec_key, bool(node.inputs))


class _Skeleton:
    """Degree-independent flat-array form of one block (built once)."""

    def __init__(self, block: NodeGraph, registry: PatternRegistry) -> None:
        self.order = block.topo_order()
        self.pos = {name: i for i, name in enumerate(self.order)}
        self.nodes = [block.node(name) for name in self.order]
        n = self.n = len(self.order)
        nodes, pos = self.nodes, self.pos

        self.has_weight = [bool(node.weights) for node in nodes]
        widx_list = [i for i in range(n) if self.has_weight[i]]
        self.widx = np.array(widx_list, dtype=np.int64)
        self.nw = len(widx_list)
        self.wpos = {self.order[i]: j for j, i in enumerate(widx_list)}

        self.feature_axis = [
            any(op.op_type in FEATURE_AXIS_OPS for op in node.ops)
            for node in nodes
        ]
        self.first_spec: List[Optional[TensorSpec]] = []
        for node in nodes:
            spec = None
            for src in node.inputs:
                s = block.node(src).output_spec
                if s is not None:
                    spec = s
                    break
            self.first_spec.append(spec)

        # --- node classes: intern the structural keys once ---------------
        key_index: Dict[Tuple, int] = {}
        cid = np.empty(n, dtype=np.int64)
        rep: List[int] = []
        for i, node in enumerate(nodes):
            key = _node_class_key(node, self.first_spec[i])
            c = key_index.get(key)
            if c is None:
                c = len(rep)
                key_index[key] = c
                rep.append(i)
            cid[i] = c
        self.class_id = cid
        self.class_rep = rep
        self.nclass = len(rep)
        self.wclass = cid[self.widx] if self.nw else np.zeros(0, dtype=np.int64)
        hw = np.array(self.has_weight, dtype=bool)
        self.wl_class_ids = np.unique(cid[~hw]) if n else np.zeros(0, dtype=np.int64)

        # --- edges, in (consumer position, input rank) walk order -------
        esrc: List[int] = []
        edst: List[int] = []
        espec_ok: List[bool] = []
        espec_idx: List[int] = []
        uspec_index: Dict[Tuple, int] = {}
        self.uspecs: List[TensorSpec] = []
        indeg = [0] * n
        for i, node in enumerate(nodes):
            indeg[i] = len(node.inputs)
            for src in node.inputs:
                sp = pos[src]
                esrc.append(sp)
                edst.append(i)
                spec = nodes[sp].output_spec
                if spec is None:
                    espec_ok.append(False)
                    espec_idx.append(0)
                else:
                    key = (spec.shape, spec.dtype)
                    u = uspec_index.get(key)
                    if u is None:
                        u = len(self.uspecs)
                        uspec_index[key] = u
                        self.uspecs.append(spec)
                    espec_ok.append(True)
                    espec_idx.append(u)
        m = self.m = len(esrc)
        self.esrc = np.array(esrc, dtype=np.int64)
        self.edst = np.array(edst, dtype=np.int64)
        self.espec_ok = np.array(espec_ok, dtype=bool)
        self.ebase = np.array(espec_idx, dtype=np.int64) * 5
        self.indeg = indeg

        # Per-producer segments for the conversion-claim dedup: a stable
        # sort by producer keeps walk order within each segment.
        self.perm = np.argsort(self.esrc, kind="stable")
        if m:
            sorted_src = self.esrc[self.perm]
            is_first = np.empty(m, dtype=bool)
            is_first[0] = True
            is_first[1:] = sorted_src[1:] != sorted_src[:-1]
            first_idx = np.where(is_first, np.arange(m), -1)
            fcol = np.maximum.accumulate(first_idx)
            self.prevcol = np.maximum(fcol - 1, 0)
            self.firstzero = fcol == 0
        else:
            self.prevcol = np.zeros(0, dtype=np.int64)
            self.firstzero = np.zeros(0, dtype=bool)

        # --- per-node cost slots: in-edges then pattern-comm budget ------
        # Comm budgets depend only on the node kind; probe the registry
        # once per distinct kind.
        kind_budget: Dict[str, Tuple[int, int]] = {}
        fxb = [0] * n
        bxb = [0] * n
        for i in widx_list:
            kind = nodes[i].kind
            b = kind_budget.get(kind)
            if b is None:
                patterns = registry.for_kind(kind)
                b = (
                    max((len(p.forward_tp_comms) for p in patterns), default=0),
                    max((len(p.backward_tp_comms) for p in patterns), default=0),
                )
                kind_budget[kind] = b
            fxb[i], bxb[i] = b
        self.fxb, self.bxb = fxb, bxb
        indeg_arr = np.array(indeg, dtype=np.int64)
        fxb_arr = np.array(fxb, dtype=np.int64)
        bxb_arr = np.array(bxb, dtype=np.int64)
        fwd_ptr = np.zeros(n + 1, dtype=np.int64)
        bwd_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(indeg_arr + fxb_arr, out=fwd_ptr[1:])
        np.cumsum(indeg_arr + bxb_arr, out=bwd_ptr[1:])
        self.SF = int(fwd_ptr[n])
        self.SB = int(bwd_ptr[n])
        #: slot-matrix *column* index per edge (column 0 is a zero pad, so
        #: flat slot j is column j+1).  Edges are appended consumer-major,
        #: so each consumer's in-edges form one contiguous run and the
        #: input rank is the offset from the run start.
        if m:
            edge_ptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(indeg_arr, out=edge_ptr[1:])
            erank = np.arange(m, dtype=np.int64) - edge_ptr[self.edst]
            self.eslot_f = fwd_ptr[self.edst] + erank + 1
            self.eslot_b = bwd_ptr[self.edst] + erank + 1
        else:
            self.eslot_f = np.zeros(0, dtype=np.int64)
            self.eslot_b = np.zeros(0, dtype=np.int64)
        fxb_w = fxb_arr[self.widx] if self.nw else np.zeros(0, dtype=np.int64)
        bxb_w = bxb_arr[self.widx] if self.nw else np.zeros(0, dtype=np.int64)
        self.exf_j = np.repeat(np.arange(self.nw, dtype=np.int64), fxb_w)
        self.exb_j = np.repeat(np.arange(self.nw, dtype=np.int64), bxb_w)
        foff = np.zeros(self.nw + 1, dtype=np.int64)
        boff = np.zeros(self.nw + 1, dtype=np.int64)
        np.cumsum(fxb_w, out=foff[1:])
        np.cumsum(bxb_w, out=boff[1:])
        self.exf_k = np.arange(len(self.exf_j), dtype=np.int64) - foff[self.exf_j]
        self.exb_k = np.arange(len(self.exb_j), dtype=np.int64) - boff[self.exb_j]
        fi = self.widx[self.exf_j] if len(self.exf_j) else self.exf_j
        bi = self.widx[self.exb_j] if len(self.exb_j) else self.exb_j
        self.exf_slot = fwd_ptr[fi] + indeg_arr[fi] + self.exf_k + 1
        self.exb_slot = bwd_ptr[bi] + indeg_arr[bi] + self.exb_k + 1
        #: prefix columns: cumsum column ``fwd_ptr[i+1]`` is the exact
        #: accumulator value after node ``i``
        self.fcols = fwd_ptr[1:].copy()
        self.bcols = bwd_ptr[1:].copy()

        # --- follow-layout propagation levels ---------------------------
        # Weight nodes and zero-input follow nodes are depth 0; a follow
        # node's depth is 1 + its deepest input, so each level's inputs
        # are fully resolved by the time it is reduced.  Zero-input follow
        # nodes stay out of the reduceat (empty segments misbehave) — the
        # chunk evaluator's zero-initialised layout matrix already holds
        # their D code.
        wdepth = [0] * n
        levels_map: Dict[int, List[int]] = {}
        for i, node in enumerate(nodes):
            if self.has_weight[i] or not node.inputs:
                continue
            d = 1 + max(wdepth[pos[src]] for src in node.inputs)
            wdepth[i] = d
            levels_map.setdefault(d, []).append(i)
        self.levels: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        for d in sorted(levels_map):
            lv = levels_map[d]
            srcs: List[int] = []
            starts: List[int] = []
            for i in lv:
                starts.append(len(srcs))
                srcs.extend(pos[src] for src in nodes[i].inputs)
            fa16 = np.array(
                [16 if self.feature_axis[i] else 0 for i in lv], dtype=np.int64
            )
            self.levels.append(
                (
                    np.array(lv, dtype=np.int64),
                    np.array(starts, dtype=np.int64),
                    np.array(srcs, dtype=np.int64),
                    fa16,
                )
            )

        self.leaf_idx = np.array(
            [pos[leaf.name] for leaf in block.leaves()], dtype=np.int64
        )
        #: compiled tables keyed by value: (tp, mesh, cost config) — all
        #: frozen dataclasses, so repeat derives hit without identity games
        self.degree_cache: Dict[Tuple, "_Degree"] = {}


def _skeleton(block: NodeGraph, registry: PatternRegistry) -> _Skeleton:
    """Get/build the block's skeleton, cached on the block itself.

    The cache entry pins the registry (strong ref) and the hit path
    re-checks identity, so a different registry simply rebuilds.
    """
    cached = getattr(block, "_columnar_skeleton", None)
    if cached is not None and cached[0] is registry:
        return cached[1]
    sk = _Skeleton(block, registry)
    block._columnar_skeleton = (registry, sk)
    return sk


class _Degree:
    """Per-``(skeleton, tp degree, cost model)`` compiled column tables."""

    def __init__(
        self,
        sk: _Skeleton,
        registry: PatternRegistry,
        tp: int,
        cost_model: CostModel,
    ) -> None:
        cfg = cost_model.config
        tp_group, dp_group, all_group = cost_model.groups(tp)
        self.groups = {"tp": tp_group, "dp": dp_group, "all": all_group}
        self.tokens = max(cfg.batch_tokens // cost_model.dp_degree(tp), 1)
        tokens = self.tokens

        # --- weight columns: one per (node class, pattern name) ----------
        # Column 0 is the universal invalid column (unknown pattern names
        # land there, matching resolve_pattern's RoutingError).
        tf = [0.0]
        req = [0]
        out = [0]
        bred = [False]
        valid = [False]
        fxs: List[Tuple[float, ...]] = [()]
        bxs: List[Tuple[float, ...]] = [()]
        gb = [0]
        gax = [-1]
        col_of_class: Dict[int, Dict[str, int]] = {}
        for c in np.unique(sk.wclass).tolist():
            i = sk.class_rep[c]
            node = sk.nodes[i]
            built: Dict[str, int] = {}
            names: List[str] = []
            for p in registry.for_kind(node.kind):
                if p.name not in names:
                    names.append(p.name)
            if "replicate" not in names:
                names.insert(0, "replicate")
            for pname in names:
                col = _weight_column(
                    node, pname, sk.first_spec[i], registry, tp,
                    cost_model, tokens, self.groups,
                )
                built[pname] = len(tf)
                if col is None:
                    tf.append(0.0)
                    req.append(0)
                    out.append(0)
                    bred.append(False)
                    valid.append(False)
                    fxs.append(())
                    bxs.append(())
                    gb.append(0)
                    gax.append(-1)
                else:
                    tf.append(col[0])
                    req.append(col[1])
                    out.append(col[2])
                    bred.append(col[3])
                    valid.append(True)
                    fxs.append(col[4])
                    bxs.append(col[5])
                    gb.append(col[6])
                    gax.append(col[7])
            col_of_class[c] = built
        self.colmap: List[Dict[str, int]] = [
            col_of_class[c] for c in sk.wclass.tolist()
        ]
        self.ncols = len(tf)
        self.TF = np.array(tf, dtype=np.float64)
        self.REQ = np.array(req, dtype=np.int8)
        self.OUT = np.array(out, dtype=np.int8)
        self.BRED = np.array(bred, dtype=bool)
        self.VALIDC = np.array(valid, dtype=bool)
        self.GB = np.array(gb, dtype=np.int64)
        self.GAX = np.array(gax, dtype=np.int8)
        # width = the skeleton's slot budget (degree-independent): a
        # degree may build only shorter comm lists (tp=1 builds none)
        widx_list = sk.widx.tolist()
        fxw = max((sk.fxb[i] for i in widx_list), default=0)
        bxw = max((sk.bxb[i] for i in widx_list), default=0)
        self.FX = np.zeros((self.ncols, max(fxw, 1)), dtype=np.float64)
        self.BX = np.zeros((self.ncols, max(bxw, 1)), dtype=np.float64)
        for c, x in enumerate(fxs):
            for k, v in enumerate(x):
                self.FX[c, k] = v
        for c, x in enumerate(bxs):
            for k, v in enumerate(x):
                self.BX[c, k] = v
        self.replicate_cols = np.array(
            [cols["replicate"] for cols in self.colmap], dtype=np.int64
        )

        # --- follow-node compute times -----------------------------------
        # A follow node's t_fwd takes exactly two values: compute_share is
        # 1/tp when its layout lands in D/S and 1.0 in R/P, priced through
        # the same route_node + shard_terms path the reference uses — once
        # per node class, then gathered out to node positions.
        ts_by_class = np.zeros(sk.nclass, dtype=np.float64)
        tf_by_class = np.zeros(sk.nclass, dtype=np.float64)
        for c in sk.wl_class_ids.tolist():
            node = sk.nodes[sk.class_rep[c]]
            k = len(node.inputs)
            shard_d = route_node(
                node, None, ["D"] * k, [None] * k, tp, {}, strict=True
            )
            ts, _ = cost_model.shard_terms(shard_d, tokens, self.groups)
            if k:
                shard_r = route_node(
                    node, None, ["R"] * k, [None] * k, tp, {}, strict=True
                )
                tful, _ = cost_model.shard_terms(shard_r, tokens, self.groups)
            else:
                tful = ts
            ts_by_class[c] = ts
            tf_by_class[c] = tful
        self.wl_ts = ts_by_class[sk.class_id]
        self.wl_tf = tf_by_class[sk.class_id]

        # --- edge collective price table ---------------------------------
        # One row per unique producer spec, one column per collective code;
        # the floats are the very lru-cached values the reference prices with.
        u = max(len(sk.uspecs), 1)
        ep = np.zeros((u, 5), dtype=np.float64)
        for jj, spec in enumerate(sk.uspecs):
            if spec.has_symbolic_batch:
                nb = spec.with_batch(tokens).size_bytes
            else:
                nb = spec.size_bytes
            for c in range(1, 5):
                ep[jj, c] = collective_time(
                    _COLLS[c], nb, tp_group, use_efficiency=cfg.use_efficiency
                )
        self.EPflat = ep.reshape(-1)
        #: gradient-stream pricing memo — degree-scoped, so repeat derives
        #: with equal cost models share finalize work; values are
        #: (sync time, weight-gather time) pairs (gather is 0.0 off-ZeRO)
        self.grad_time_cache: Dict[Tuple, Tuple[float, float]] = {}


def _weight_column(
    node: GraphNode,
    pattern_name: str,
    first_spec: Optional[TensorSpec],
    registry: PatternRegistry,
    tp: int,
    cost_model: CostModel,
    tokens: int,
    groups: Dict,
):
    """Route + price one (node, pattern) into a column; None if invalid.

    Feeding ``route_node`` all-D input layouts with ``None`` input specs
    makes every inbound hop a no-op (free or skipped before claiming) —
    except a required-P pattern with real inputs, which raises exactly
    when a full routing would reject the node — while the appended real
    first input spec still reaches ``_apply_pattern_effects`` for the
    pattern-comm pricing, because the spec search scans the full list.
    """
    k = len(node.inputs)
    try:
        pattern = resolve_pattern(node, pattern_name, registry, tp)
        shard = route_node(
            node, pattern, ["D"] * k, [None] * k + [first_spec], tp, {},
            strict=True,
        )
    except RoutingError:
        return None
    t_fwd, terms = cost_model.shard_terms(shard, tokens, groups)
    fx = tuple(v for kind, v in terms if kind == TERM_FWD_COMM)
    bx = tuple(v for kind, v in terms if kind == TERM_BWD_TP_COMM)
    grad_bytes, grad_axis = 0, -1
    for kind, v in terms:
        if kind == TERM_GRAD_DP:
            grad_bytes, grad_axis = int(v), 0
        elif kind == TERM_GRAD_ALL:
            grad_bytes, grad_axis = int(v), 1
    required = pattern.input_layout if tp > 1 else Layout.D
    out_layout = pattern.output_layout if tp > 1 else Layout.D
    return (
        t_fwd,
        _CODE[required],
        _CODE[out_layout],
        shard.bwd_input_reduction,
        fx,
        bx,
        grad_bytes,
        grad_axis,
    )


def _degree(
    sk: _Skeleton,
    registry: PatternRegistry,
    tp: int,
    cost_model: CostModel,
    zero_stage: int = 0,
) -> Tuple["_Degree", int]:
    """Get/build the degree compile; returns ``(tables, columns built)``.

    The key is pure value — tp degree plus the frozen mesh, cost config
    and ZeRO stage — so a fresh-but-equal :class:`CostModel` still hits.
    (The compiled columns are zero-invariant — gradient terms are byte
    counts — but the finalize-time pricing memo is not, so stages key
    separately.)  The cache stays tiny (one entry per searched degree);
    eviction is FIFO.
    """
    key = (tp, cost_model.mesh, cost_model.config, zero_stage)
    deg = sk.degree_cache.get(key)
    if deg is not None:
        return deg, 0
    deg = _Degree(sk, registry, tp, cost_model)
    if len(sk.degree_cache) >= 8:
        sk.degree_cache.pop(next(iter(sk.degree_cache)))
    sk.degree_cache[key] = deg
    return deg, deg.ncols


class _Arrays:
    """Per-chunk evaluation arrays (one row per candidate)."""

    __slots__ = ("p", "ip", "lp", "fc", "bc", "FE", "BE", "optmat")

    def __init__(self, p, ip, lp, fc, bc, FE, BE, optmat) -> None:
        self.p = p
        self.ip = ip
        self.lp = lp
        self.fc = fc
        self.bc = bc
        self.FE = FE
        self.BE = BE
        self.optmat = optmat


class ColumnarEvaluator:
    """Route and price candidates of one ``(block, tp_degree)`` search.

    :meth:`price` returns ``(status, cost)`` for one assignment,
    :meth:`price_batch` for many at once; the cost is the float
    ``plan_cost(route_plan(...))`` gives for the same candidate.
    Evaluation is a batch of table gathers and row-wise cumulative sums
    instead of a per-node Python walk.  ``evaluations`` counts columns
    compiled by this construction (0 when the block's compile was already
    cached); ``cache_hits`` counts candidate rows answered from the
    compiled tables.
    """

    def __init__(
        self,
        block: NodeGraph,
        registry: PatternRegistry,
        tp_degree: int,
        cost_model: CostModel,
        zero_stage: int = 0,
    ) -> None:
        self.block = block
        self.registry = registry
        self.tp = tp_degree
        self.cost_model = cost_model
        self.zero = zero_stage
        self._sk = _skeleton(block, registry)
        self._deg, built = _degree(
            self._sk, registry, tp_degree, cost_model, zero_stage
        )
        self.order = self._sk.order
        self.pos = self._sk.pos
        self.wpos = self._sk.wpos
        cfg = cost_model.config
        self._factor = cfg.backward_flops_factor
        self._bound_time = cfg.objective == "time"
        self._committed = 0
        self._last_assignment: Optional[Dict[str, str]] = None
        self._vec: Optional[np.ndarray] = None
        #: columns compiled for this (block, degree) — the columnar
        #: analogue of "node routings executed"
        self.evaluations = built
        #: candidate rows classified from the compiled tables
        self.cache_hits = 0

    # ------------------------------------------------------------------
    def chunk_rows(self) -> int:
        """Rows per :meth:`_compute` call: ~2M cells per per-node array."""
        sk = self._sk
        width = max(sk.n, sk.m, sk.SF + 1, sk.SB + 1, 1)
        return max(16, min(1024, 2_000_000 // width))

    def _vec_for(self, assignment: Dict[str, str]) -> np.ndarray:
        vec = self._deg.replicate_cols.copy()
        for name, pat in assignment.items():
            j = self.wpos.get(name)
            if j is not None:
                vec[j] = self._deg.colmap[j].get(pat, 0)
        return vec

    def _compute(self, optmat: np.ndarray) -> _Arrays:
        """Evaluate a chunk of candidate column-vectors into cost arrays."""
        sk, d = self._sk, self._deg
        rows, n, m = optmat.shape[0], sk.n, sk.m

        # layouts: weight columns, then level-wise follow propagation
        out = np.zeros((rows, n), dtype=np.int8)
        req = np.zeros((rows, n), dtype=np.int8)
        if sk.nw:
            out[:, sk.widx] = d.OUT[optmat]
            req[:, sk.widx] = d.REQ[optmat]
        for nodes_lv, starts_lv, srcs_lv, fa16_lv in sk.levels:
            masks = np.bitwise_or.reduceat(
                _LBIT[out[:, srcs_lv]], starts_lv, axis=1
            )
            codes = _FOLLOW_FLAT[fa16_lv + masks]
            out[:, nodes_lv] = codes
            req[:, nodes_lv] = codes

        # compute times: the two follow values selected by layout, weight
        # columns overwritten on top
        tfm = np.where((out == 0) | (out == 2), d.wl_ts, d.wl_tf)
        if sk.nw:
            tfm[:, sk.widx] = d.TF[optmat]
        fc = np.cumsum(tfm, axis=1)
        bc = np.cumsum(self._factor * tfm, axis=1)

        # edge transitions -> collective codes -> dedup claims -> prices
        FW = np.zeros((rows, sk.SF + 1), dtype=np.float64)
        BWm = np.zeros((rows, sk.SB + 1), dtype=np.float64)
        if m:
            s = out[:, sk.esrc].astype(np.int64)
            r = req[:, sk.edst].astype(np.int64)
            idx = s * 4 + r
            F = _FWD_T[idx]
            if sk.nw:
                brednode = np.zeros((rows, n), dtype=bool)
                brednode[:, sk.widx] = d.BRED[optmat]
                brede = brednode[:, sk.edst]
                B = np.where(brede, _BWD1_T[idx], _BWD0_T[idx])
            else:
                B = _BWD0_T[idx]
            eligible = ((F > 0) | (B > 0)) & sk.espec_ok
            elig_p = eligible[:, sk.perm]
            r_p = r[:, sk.perm]
            claims_p = np.zeros_like(elig_p)
            for rc in range(4):
                maskp = elig_p & (r_p == rc)
                if not maskp.any():
                    continue
                cs = np.cumsum(maskp, axis=1)
                base = np.where(sk.firstzero, 0, cs[:, sk.prevcol])
                claims_p |= maskp & ((cs - base) == 1)
            claim = np.zeros_like(eligible)
            claim[:, sk.perm] = claims_p
            FW[:, sk.eslot_f] = np.where(claim, d.EPflat[sk.ebase + F], 0.0)
            BWm[:, sk.eslot_b] = np.where(claim, d.EPflat[sk.ebase + B], 0.0)
        if len(sk.exf_slot):
            FW[:, sk.exf_slot] = d.FX[optmat[:, sk.exf_j], sk.exf_k]
        if len(sk.exb_slot):
            BWm[:, sk.exb_slot] = d.BX[optmat[:, sk.exb_j], sk.exb_k]
        FE = np.cumsum(FW, axis=1)[:, sk.fcols]
        BE = np.cumsum(BWm, axis=1)[:, sk.bcols]

        # the walk's per-node partial: non-decreasing, bit-exact
        p = FE + BE
        if self._bound_time:
            p = (fc + bc) + p

        # first invalid weight node / partial leaf flags
        if sk.nw:
            invw = ~d.VALIDC[optmat]
            anyinv = invw.any(axis=1)
            ip = np.where(anyinv, sk.widx[invw.argmax(axis=1)], n)
        else:
            ip = np.full(rows, n, dtype=np.int64)
        if len(sk.leaf_idx):
            lp = (out[:, sk.leaf_idx] == 3).any(axis=1)
        else:
            lp = np.zeros(rows, dtype=bool)
        return _Arrays(p, ip, lp, fc, bc, FE, BE, optmat)

    def _classify(
        self,
        arrays: _Arrays,
        t: int,
        hint: Optional[int],
        incumbent: float,
        bp: Optional[int] = None,
    ) -> Tuple[int, Optional[float]]:
        """Classify row ``t`` as the node-ordered walk would end.

        Invalid-before-bound at the same node, the resume-hint clamp of
        the bound (nodes before ``start`` are never re-checked against a
        tightened incumbent) and the committed-prefix bookkeeping follow
        the module docstring's walk semantics.  ``bp`` lets the
        caller supply a precomputed bound position (the count of partials
        ``<= incumbent``, equal to the right-bisect the scalar path runs).
        """
        n = self._sk.n
        self.cache_hits += 1
        start = 0 if hint is None else min(hint, self._committed)
        if bp is None:
            bp = int(np.searchsorted(arrays.p[t], incumbent, side="right"))
        if bp < start:
            bp = start
        ipt = int(arrays.ip[t])
        if ipt < n and ipt <= bp:
            self._committed = ipt
            return EVAL_INVALID, None
        if bp < n:
            self._committed = bp + 1
            return EVAL_BOUNDED, None
        self._committed = n
        if arrays.lp[t]:
            return EVAL_INVALID, None
        return EVAL_VALID, self._finalize(arrays, t)

    def _finalize(self, arrays: _Arrays, t: int) -> float:
        """The candidate's scalar cost — the float :meth:`CostModel.plan_cost`
        computes for a fresh routing of it."""
        d = self._deg
        cfg = self.cost_model.config
        n = self._sk.n
        # Packing + pricing the gradient streams is the one O(n) piece of
        # finalisation; candidates that shard the same weights produce the
        # same streams, so the packed time is memoized on their content.
        # The key is the streams' raw int64 bytes: compact to retain and
        # cheap to hash; Python ints are built only on a miss.
        if self._sk.nw:
            optrow = arrays.optmat[t]
            gbr = d.GB[optrow]
            gaxr = d.GAX[optrow]
            dp_stream, all_stream = gbr[gaxr == 0], gbr[gaxr == 1]
        else:
            dp_stream = all_stream = np.zeros(0, dtype=np.int64)
        gkey = (dp_stream.tobytes(), all_stream.tobytes())
        cached = d.grad_time_cache.get(gkey)
        if cached is None:
            streams = (
                ("dp", dp_stream.tolist()), ("all", all_stream.tolist())
            )
            grad_collective = (
                "reduce_scatter" if self.zero >= 1 else "all_reduce"
            )
            grad_time = 0.0
            for axis, stream in streams:
                buckets = pack_gradients(stream, cfg.packing)
                grad_time += sum(
                    collective_time(
                        grad_collective,
                        b.nbytes,
                        d.groups[axis],
                        use_efficiency=cfg.use_efficiency,
                    )
                    for b in buckets
                )
            gather_time = 0.0
            if self.zero >= 1:
                for axis, stream in streams:
                    gather_time += sum(
                        collective_time(
                            "all_gather",
                            b.nbytes,
                            d.groups[axis],
                            use_efficiency=cfg.use_efficiency,
                        )
                        for b in pack_gradients(stream, cfg.packing)
                    )
            cached = (grad_time, gather_time)
            d.grad_time_cache[gkey] = cached
        grad_time, gather_time = cached
        if n:
            backward_compute = float(arrays.bc[t, n - 1])
            fwd_comm = float(arrays.FE[t, n - 1])
            bwd_comm = float(arrays.BE[t, n - 1])
            forward_compute = float(arrays.fc[t, n - 1])
        else:
            backward_compute = fwd_comm = bwd_comm = forward_compute = 0.0
        overlapped = (
            min(grad_time, backward_compute) if cfg.overlap_gradients else 0.0
        )
        exposed = grad_time - overlapped
        comm = (fwd_comm + bwd_comm + exposed) + gather_time
        if cfg.objective == "comm":
            return comm
        return (forward_compute + backward_compute) + comm

    # ------------------------------------------------------------------
    def price(
        self, assignment: Dict[str, str], incumbent: float = float("inf")
    ) -> Tuple[int, Optional[float]]:
        """Single-candidate evaluation.  The resume hint is the first node
        whose pattern differs from the previous :meth:`price` call's
        assignment, and the candidate vector is maintained incrementally:
        only the diffed names are re-mapped to columns."""
        last = self._last_assignment
        if last is None or self._vec is None:
            hint: Optional[int] = None
            vec = self._vec_for(assignment)
        else:
            diff = [
                nm
                for nm in last
                if last[nm] != assignment.get(nm, "replicate")
            ]
            diff += [
                nm
                for nm in assignment
                if nm not in last and assignment[nm] != "replicate"
            ]
            hint = min(
                (self.pos[nm] for nm in diff if nm in self.pos),
                default=len(self.order),
            )
            vec = self._vec
            for nm in diff:
                j = self.wpos.get(nm)
                if j is not None:
                    vec[j] = self._deg.colmap[j].get(
                        assignment.get(nm, "replicate"), 0
                    )
        self._last_assignment = dict(assignment)
        self._vec = vec
        arrays = self._compute(vec[np.newaxis, :])
        return self._classify(arrays, 0, hint, incumbent)

    def price_batch(
        self, base: Dict[str, str], variants: List[Dict[str, str]]
    ) -> List[Tuple[int, Optional[float]]]:
        """Price ``{**base, **v}`` for every variant in one batched compute.

        Equivalent to the corresponding sequence of :meth:`price` calls:
        with no incumbent the bound never fires and the resume hint only
        clamps bound re-checks, so each row's status and cost are
        independent of evaluation order.  Rows still classify
        sequentially (committed-prefix bookkeeping, ``cache_hits``), and
        are computed :meth:`chunk_rows` at a time to bound memory.
        """
        if not variants:
            return []
        base_vec = self._vec_for(base)
        rows = np.tile(base_vec, (len(variants), 1))
        for t, variant in enumerate(variants):
            for nm, pat in variant.items():
                j = self.wpos.get(nm)
                if j is not None:
                    rows[t, j] = self._deg.colmap[j].get(pat, 0)
        results: List[Tuple[int, Optional[float]]] = []
        chunk = self.chunk_rows()
        for lo in range(0, len(variants), chunk):
            arrays = self._compute(rows[lo : lo + chunk])
            # no incumbent => the bound position is always past the last node
            results.extend(
                self._classify(arrays, t, None, float("inf"), bp=self._sk.n)
                for t in range(arrays.p.shape[0])
            )
        self._last_assignment = {**base, **variants[-1]}
        self._vec = rows[len(variants) - 1].copy()
        return results


def columnar_block_search(
    block: NodeGraph,
    registry: PatternRegistry,
    tp_degree: int,
    cost_model: CostModel,
    max_plans: int,
    use_bound: bool,
    groups: List[Tuple[List[str], List[str]]],
    zero_stage: int = 0,
) -> BlockSearchOutcome:
    """The Gray-order candidate sweep, evaluated in columnar chunks.

    The sweep consumes :func:`iter_gray_digits` directly — candidates are
    integer rows in a preallocated buffer, and the winning assignment
    dict is only materialised when a row actually improves the incumbent.
    Each flush computes every per-node quantity for the whole chunk at
    once and then classifies rows *sequentially in enumeration order*, so
    incumbent updates, bound decisions and first-wins selection are
    those of a per-candidate sweep in the same order.
    """
    out = BlockSearchOutcome()
    ev = ColumnarEvaluator(block, registry, tp_degree, cost_model, zero_stage)
    d = ev._deg
    sk = ev._sk
    pos = ev.pos
    group_start = [
        min(pos[name] for name in names if name in pos) for names, _ in groups
    ]
    group_js = [
        np.array(
            [ev.wpos[name] for name in names if name in ev.wpos],
            dtype=np.int64,
        )
        for names, _ in groups
    ]
    #: per (group, option) column ids aligned with that group's weight js
    group_cols = [
        [
            np.array(
                [d.colmap[j].get(option, 0) for j in js.tolist()],
                dtype=np.int64,
            )
            for option in options
        ]
        for js, (_names, options) in zip(group_js, groups)
    ]
    chunk = ev.chunk_rows()
    vec = d.replicate_cols.copy()
    optbuf = np.empty((chunk, sk.nw), dtype=np.int64)
    meta: List[Tuple[Optional[Tuple[int, ...]], Optional[int]]] = []

    def flush() -> None:
        if not meta:
            return
        rows = len(meta)
        arrays = ev._compute(optbuf[:rows])
        # Bound positions for the whole chunk against the incumbent at
        # flush time; re-vectorized for the tail whenever a valid row
        # tightens the incumbent (rare — one recompute per improvement).
        incumbent = out.best_cost if use_bound else float("inf")
        bp_arr = (arrays.p <= incumbent).sum(axis=1)
        for t, (digits, hint) in enumerate(meta):
            status, cost = ev._classify(
                arrays, t, hint, incumbent, bp=int(bp_arr[t])
            )
            if status == EVAL_BOUNDED:
                out.bound_skipped += 1
                continue
            if status == EVAL_INVALID:
                continue
            out.valid += 1
            if cost < out.best_cost:
                out.best_cost = cost
                if digits is None:
                    out.best_assignment = {}
                else:
                    out.best_assignment = {
                        name: options[digits[g]]
                        for g, (names, options) in enumerate(groups)
                        for name in names
                    }
                if use_bound:
                    incumbent = out.best_cost
                    if t + 1 < rows:
                        bp_arr[t + 1 :] = (
                            arrays.p[t + 1 :] <= incumbent
                        ).sum(axis=1)
        meta.clear()

    for digits, changed in iter_gray_digits(groups, max_plans):
        out.candidates += 1
        if digits is None:
            # the guaranteed all-replicate fallback: empty assignment
            vec = d.replicate_cols.copy()
            hint = None
        elif changed is None:
            vec = d.replicate_cols.copy()
            for g in range(len(groups)):
                if len(group_js[g]):
                    vec[group_js[g]] = group_cols[g][digits[g]]
            hint = None
        else:
            if len(group_js[changed]):
                vec[group_js[changed]] = group_cols[changed][digits[changed]]
            hint = group_start[changed]
        optbuf[len(meta)] = vec
        meta.append((digits, hint))
        if len(meta) == chunk:
            flush()
    flush()
    out.evaluations = ev.evaluations
    out.cache_hits = ev.cache_hits
    return out
