"""Wire-format plan requests: picklable, fingerprintable, preset-based.

A service request names a model *preset* from the zoo rather than
shipping a serialised graph: presets are a few bytes on the wire, build
deterministically in any process, and make the worker-side fingerprint
cross-check (below) meaningful.  The dataclass round-trips through plain
dicts (``to_doc``/``from_doc``) so it can cross both the HTTP boundary
and the process-pool pickle boundary unchanged.

Cache identity is computed from the request via
:func:`request_fingerprints` — the same canonical digests the library
API uses (:mod:`repro.core.fingerprint`), so a plan cached by the
service is the plan ``plan_request`` would have produced in-process.
The worker that executes a miss recomputes the fingerprints from *its*
freshly built graph and refuses to answer if they disagree with the
submitting side — a standing cross-process stability check on the
canonical encoding.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..cluster import Mesh, paper_testbed
from ..core import (
    CostConfig,
    NodeGraph,
    coarsen,
    compose_key,
    config_fingerprint,
    graph_fingerprint,
    mesh_fingerprint,
    normalize_engine,
)
from ..graph import trim_auxiliary
from ..models import MODEL_PRESETS, build_preset

__all__ = [
    "DEFAULT_SIM_PLANS",
    "PlanRequest",
    "SimulateRequest",
    "build_request_graph",
    "request_fingerprints",
    "request_key",
    "simulate_request_key",
]

#: Interconnect fabrics a request may name — the same two the CLI's
#: ``--fabric`` flag offers.  "paper" is the §6.1 testbed (PCIe
#: intra-node, 32 Gbps Ethernet inter-node); "nvlink" is the
#: Mesh-default profile.
FABRICS = ("paper", "nvlink")


@dataclass(frozen=True)
class PlanRequest:
    """One planning request, as it travels over the wire.

    ``engine`` and ``jobs`` steer *how fast* the search runs, never what
    it selects (both tiers are bit-identical) — they are carried for the
    executing worker but excluded from the cache key.
    """

    model: str
    mesh_nodes: int = 2
    mesh_gpus: int = 8
    fabric: str = "paper"
    batch_tokens: int = 16 * 512
    min_duplicate: int = 2
    tp_degrees: Optional[Tuple[int, ...]] = None
    use_pruning: bool = True
    engine: str = "columnar"
    jobs: int = 1
    zero_stage: int = 0

    def __post_init__(self) -> None:
        if self.fabric not in FABRICS:
            raise ValueError(
                f"fabric must be one of {FABRICS}, got {self.fabric!r}"
            )
        if self.mesh_nodes < 1 or self.mesh_gpus < 1:
            raise ValueError(
                f"mesh must be at least 1x1, got "
                f"{self.mesh_nodes}x{self.mesh_gpus}"
            )
        if self.batch_tokens < 1:
            raise ValueError(f"batch_tokens must be >= 1, got {self.batch_tokens}")
        if self.zero_stage not in (0, 1, 2):
            raise ValueError(
                f"zero_stage must be 0, 1 or 2, got {self.zero_stage!r}"
            )
        # Fail fast on a bad tier name here, not in the worker process.
        normalize_engine(self.engine)
        if self.tp_degrees is not None:
            object.__setattr__(self, "tp_degrees", tuple(self.tp_degrees))

    def mesh(self) -> Mesh:
        if self.fabric == "paper":
            return paper_testbed(self.mesh_nodes, self.mesh_gpus)
        return Mesh(num_nodes=self.mesh_nodes, gpus_per_node=self.mesh_gpus)

    def cost_config(self) -> CostConfig:
        return CostConfig(batch_tokens=self.batch_tokens)

    def label(self) -> str:
        """Human-readable tag stored alongside the opaque cache key."""
        zero = f"/zero{self.zero_stage}" if self.zero_stage else ""
        return (
            f"{self.model}@{self.mesh_nodes}x{self.mesh_gpus}"
            f"/{self.fabric}/bt{self.batch_tokens}{zero}"
        )

    def to_doc(self) -> Dict:
        doc = {
            "model": self.model,
            "mesh_nodes": self.mesh_nodes,
            "mesh_gpus": self.mesh_gpus,
            "fabric": self.fabric,
            "batch_tokens": self.batch_tokens,
            "min_duplicate": self.min_duplicate,
            "tp_degrees": list(self.tp_degrees) if self.tp_degrees else None,
            "use_pruning": self.use_pruning,
            "engine": self.engine,
            "jobs": self.jobs,
        }
        # Emitted only when on, so documents exchanged with (and recorded
        # by) pre-ZeRO clients stay byte-identical.
        if self.zero_stage:
            doc["zero_stage"] = self.zero_stage
        return doc

    @classmethod
    def from_doc(cls, doc: Dict) -> "PlanRequest":
        if not isinstance(doc, dict):
            raise TypeError(f"plan request must be a mapping, got {type(doc)}")
        model = doc.get("model")
        if not isinstance(model, str) or not model:
            raise ValueError("plan request must name a model preset")
        known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ValueError(f"unknown plan request fields: {unknown}")
        kwargs = {k: v for k, v in doc.items() if v is not None or k == "tp_degrees"}
        if kwargs.get("tp_degrees") is not None:
            kwargs["tp_degrees"] = tuple(int(d) for d in kwargs["tp_degrees"])
        return cls(**kwargs)


#: Candidate set a simulate request prices when it does not name its own:
#: every named baseline strategy plus TAP's discovered plan.
DEFAULT_SIM_PLANS = ("dp", "mha_only", "ffn_only", "megatron", "tap")


@dataclass(frozen=True)
class SimulateRequest:
    """One batched what-if simulation request, as it travels over the wire.

    Names a preset and a candidate-plan list (baseline labels from
    ``NAMED_PLANS`` and/or ``"tap"``); the service routes every candidate
    and prices them in one columnar batch.  ``engine`` selects the
    simulation tier (``"columnar"`` or ``"reference"``) for the
    *executing* side only — both are bit-identical, so it is excluded
    from the cache key exactly like :class:`PlanRequest.engine`.
    """

    model: str
    mesh_nodes: int = 2
    mesh_gpus: int = 8
    fabric: str = "paper"
    batch_tokens: int = 16 * 512
    plans: Tuple[str, ...] = DEFAULT_SIM_PLANS
    tp_degree: Optional[int] = None
    min_duplicate: int = 2
    tp_degrees: Optional[Tuple[int, ...]] = None
    use_pruning: bool = True
    engine: str = "columnar"

    def __post_init__(self) -> None:
        if self.fabric not in FABRICS:
            raise ValueError(
                f"fabric must be one of {FABRICS}, got {self.fabric!r}"
            )
        if self.mesh_nodes < 1 or self.mesh_gpus < 1:
            raise ValueError(
                f"mesh must be at least 1x1, got "
                f"{self.mesh_nodes}x{self.mesh_gpus}"
            )
        if self.batch_tokens < 1:
            raise ValueError(f"batch_tokens must be >= 1, got {self.batch_tokens}")
        object.__setattr__(self, "plans", tuple(self.plans))
        if not self.plans:
            raise ValueError("simulate request must name at least one plan")
        for label in self.plans:
            if not isinstance(label, str) or not label:
                raise ValueError(f"plan labels must be non-empty strings, got {label!r}")
        if self.tp_degree is not None and self.tp_degree < 1:
            raise ValueError(f"tp_degree must be >= 1, got {self.tp_degree}")
        # Fail fast on a bad simulation-tier name at the client boundary.
        normalize_engine(self.engine)
        if self.tp_degrees is not None:
            object.__setattr__(self, "tp_degrees", tuple(self.tp_degrees))

    def mesh(self) -> Mesh:
        if self.fabric == "paper":
            return paper_testbed(self.mesh_nodes, self.mesh_gpus)
        return Mesh(num_nodes=self.mesh_nodes, gpus_per_node=self.mesh_gpus)

    def cost_config(self) -> CostConfig:
        return CostConfig(batch_tokens=self.batch_tokens)

    def effective_tp(self) -> int:
        """Degree the named-plan builders shard to."""
        return self.tp_degree if self.tp_degree is not None else self.mesh_gpus

    def plan_request(self) -> PlanRequest:
        """The search request backing the ``"tap"`` candidate."""
        return PlanRequest(
            model=self.model,
            mesh_nodes=self.mesh_nodes,
            mesh_gpus=self.mesh_gpus,
            fabric=self.fabric,
            batch_tokens=self.batch_tokens,
            min_duplicate=self.min_duplicate,
            tp_degrees=self.tp_degrees,
            use_pruning=self.use_pruning,
        )

    def label(self) -> str:
        return (
            f"{self.model}@{self.mesh_nodes}x{self.mesh_gpus}"
            f"/{self.fabric}/bt{self.batch_tokens}"
            f"/plans[{','.join(self.plans)}]"
        )

    def to_doc(self) -> Dict:
        return {
            "model": self.model,
            "mesh_nodes": self.mesh_nodes,
            "mesh_gpus": self.mesh_gpus,
            "fabric": self.fabric,
            "batch_tokens": self.batch_tokens,
            "plans": list(self.plans),
            "tp_degree": self.tp_degree,
            "min_duplicate": self.min_duplicate,
            "tp_degrees": list(self.tp_degrees) if self.tp_degrees else None,
            "use_pruning": self.use_pruning,
            "engine": self.engine,
        }

    @classmethod
    def from_doc(cls, doc: Dict) -> "SimulateRequest":
        if not isinstance(doc, dict):
            raise TypeError(f"simulate request must be a mapping, got {type(doc)}")
        model = doc.get("model")
        if not isinstance(model, str) or not model:
            raise ValueError("simulate request must name a model preset")
        known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ValueError(f"unknown simulate request fields: {unknown}")
        kwargs = {
            k: v
            for k, v in doc.items()
            if v is not None or k in ("tp_degrees", "tp_degree")
        }
        if kwargs.get("plans") is not None:
            kwargs["plans"] = tuple(str(p) for p in kwargs["plans"])
        if kwargs.get("tp_degrees") is not None:
            kwargs["tp_degrees"] = tuple(int(d) for d in kwargs["tp_degrees"])
        return cls(**kwargs)


def build_request_graph(request: PlanRequest) -> NodeGraph:
    """Build + trim + coarsen the request's preset into a NodeGraph.

    Raises ``KeyError`` (listing the available presets) for an unknown
    model name — the service maps that to a client error, not a crash.
    """
    if request.model not in MODEL_PRESETS:
        raise KeyError(
            f"unknown preset {request.model!r}; "
            f"available: {sorted(MODEL_PRESETS)}"
        )
    trimmed, _ = trim_auxiliary(build_preset(request.model))
    return coarsen(trimmed)


def request_fingerprints(
    request: PlanRequest,
    node_graph: Optional[NodeGraph] = None,
    *,
    graph_fp: Optional[str] = None,
) -> Dict[str, str]:
    """Full (64-hex) graph/mesh/config digests for *request*.

    The graph digest is the only expensive one: pass ``node_graph`` when
    the graph is already built, or ``graph_fp`` when even the digest is
    memoised (the service caches both per preset — a warm hit then costs
    two small-document hashes and a dict probe).
    """
    if graph_fp is None:
        if node_graph is None:
            node_graph = build_request_graph(request)
        graph_fp = graph_fingerprint(node_graph)
    return {
        "graph": graph_fp,
        "mesh": mesh_fingerprint(request.mesh()),
        "config": config_fingerprint(
            request.cost_config(),
            min_duplicate=request.min_duplicate,
            tp_degrees=request.tp_degrees,
            use_pruning=request.use_pruning,
            zero_stage=getattr(request, "zero_stage", 0),
        ),
    }


def request_key(
    request: PlanRequest,
    node_graph: Optional[NodeGraph] = None,
    *,
    graph_fp: Optional[str] = None,
) -> Tuple[str, Dict[str, str]]:
    """The versioned cache key plus the full fingerprints behind it."""
    fps = request_fingerprints(request, node_graph, graph_fp=graph_fp)
    return compose_key(fps["graph"], fps["mesh"], fps["config"]), fps


def simulate_request_key(
    request: SimulateRequest,
    node_graph: Optional[NodeGraph] = None,
    *,
    graph_fp: Optional[str] = None,
) -> Tuple[str, Dict[str, str]]:
    """Cache key for a simulate request: the plan key scheme + a plan-set digest.

    The ``sim-`` prefix keeps the simulation-profile store disjoint from
    the plan store under one key grammar; the trailing ``-p<16hex>``
    digests the *candidate set* (plan labels and the degree the builders
    shard to), the one piece of request identity the graph/mesh/config
    fingerprints cannot see.  Search knobs (``min_duplicate`` etc.) ride
    in the config fingerprint exactly as they do for plan keys, so the
    embedded ``tap`` candidate is the plan the plan cache would serve.
    """
    fps = request_fingerprints(request, node_graph, graph_fp=graph_fp)  # type: ignore[arg-type]
    plans_doc = {"plans": list(request.plans), "tp_degree": request.effective_tp()}
    plans_fp = hashlib.sha256(
        json.dumps(plans_doc, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    fps = dict(fps)
    fps["plans"] = plans_fp
    base = compose_key(fps["graph"], fps["mesh"], fps["config"])
    return f"sim-{base}-p{plans_fp[:16]}", fps
