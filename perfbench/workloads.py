"""Seeded inputs for the three workloads, and how many rounds of them run.

The inputs are pure functions of the seed and import nothing from
``repro``: the job lists and the request rounds are generated before the
program under test is started, and the program only receives them.
``another_round`` decides, from the clock, when a run stops.

* ``plan-zoo`` and ``plan-deep`` are lists of *rounds*.  A round holds every
  (model, mesh, batch) slot of the workload exactly once, in a seeded
  order, each with a seeded ZeRO stage.  Whole rounds keep the job mix the
  same from seed to seed, so throughput, the median job and the plan
  quality figure compare across seeds; the seed still changes the order
  and the ZeRO stage of every job.
* ``service-mix`` is a list of request rounds: a round holds each of 48
  keys as often as a Zipf law over a fixed popularity order gives, about
  80% ``POST /plan`` and 20% ``POST /simulate``, shuffled by the seed.
  Each round goes to a fresh daemon, so every round holds the same hits
  and first-time keys (the misses) for every seed; the seed sets the
  order, which decides when each miss comes and what the LRU holds.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Iterator, List, Tuple

PLAN_ZOO = "plan-zoo"
PLAN_DEEP = "plan-deep"
SERVICE_MIX = "service-mix"
WORKLOADS = (PLAN_ZOO, PLAN_DEEP, SERVICE_MIX)

#: Wide or shallow presets: search is most of each job.
ZOO_MODELS = (
    "resnet50", "resnet_300k", "clip_base", "bert_large",
    "vit_huge", "widenet", "switch_like", "wav2vec2",
)
ZOO_MESHES = ((1, 8), (2, 8))

#: The T5 depth ladder (layers per stack) plus two deep presets: winner
#: routing, rewrite and verify are most of each job.
T5_DEPTHS = (48, 96, 192)
DEEP_MODELS = tuple(f"t5_{d}L" for d in T5_DEPTHS) + ("gpt3_like", "moe_deep")
DEEP_MESHES = ((2, 8),)

BATCH_TOKENS = (8192, 16384)
ZERO_STAGES = (0, 1, 2)

#: 8 presets x 3 meshes x 2 batch sizes = 48 service keys.
SERVICE_MODELS = (
    "resnet50", "clip_base", "bert_large", "vit_huge",
    "widenet", "switch_like", "wav2vec2", "gpt3_like",
)
SERVICE_MESHES = ((1, 8), (2, 4), (2, 8))
SERVICE_PLAN_SHARE = 0.8
ZIPF_S = 1.0
#: Fixed seed of the popularity order (not the workload seed).
POPULARITY_SEED = 20250


@dataclass(frozen=True)
class Job:
    """One cold plan: model, mesh, batch tokens and ZeRO stage."""

    model: str
    nodes: int
    gpus: int
    batch_tokens: int
    zero_stage: int

    @property
    def key(self) -> str:
        return job_key(self.model, self.nodes, self.gpus, self.batch_tokens,
                       self.zero_stage)


@dataclass(frozen=True)
class Request:
    """One service request: ``kind`` is ``"plan"`` or ``"simulate"``."""

    kind: str
    model: str
    nodes: int
    gpus: int
    batch_tokens: int

    @property
    def key(self) -> str:
        return job_key(self.model, self.nodes, self.gpus, self.batch_tokens, 0)


def job_key(model: str, nodes: int, gpus: int, batch_tokens: int,
            zero_stage: int) -> str:
    """The name a job or request is filed under in ``expected.json``."""
    return f"{model}@{nodes}x{gpus}/bt{batch_tokens}/z{zero_stage}"


def another_round(start: float, round_s: float, seconds: float) -> bool:
    """Whether to start another round of *round_s* seconds.

    Only whole rounds run, so a run ends on the round boundary nearest to
    *seconds* after *start* (a ``time.perf_counter`` reading): on average
    it measures for *seconds*.
    """
    return time.perf_counter() - start + round_s / 2 < seconds


def _slots(workload: str) -> List[Tuple[str, int, int, int]]:
    if workload == PLAN_ZOO:
        models, meshes = ZOO_MODELS, ZOO_MESHES
    elif workload == PLAN_DEEP:
        models, meshes = DEEP_MODELS, DEEP_MESHES
    else:
        raise ValueError(f"{workload!r} has no job rounds")
    return [
        (model, nodes, gpus, bt)
        for model in models
        for nodes, gpus in meshes
        for bt in BATCH_TOKENS
    ]


def iter_rounds(workload: str, seed: int) -> Iterator[List[Job]]:
    """Endless rounds of jobs for a plan workload, drawn from *seed*."""
    rng = random.Random(f"{workload}/{seed}")
    while True:
        slots = _slots(workload)
        rng.shuffle(slots)
        yield [
            Job(model, nodes, gpus, bt, rng.choice(ZERO_STAGES))
            for model, nodes, gpus, bt in slots
        ]


def all_plan_jobs(workload: str) -> List[Job]:
    """Every job the seeded rounds of *workload* can draw."""
    return [
        Job(model, nodes, gpus, bt, z)
        for model, nodes, gpus, bt in _slots(workload)
        for z in ZERO_STAGES
    ]


def service_keys() -> List[Tuple[str, int, int, int]]:
    """The 48 service keys in their fixed popularity order (rank 0 first)."""
    keys = [
        (model, nodes, gpus, bt)
        for model in SERVICE_MODELS
        for nodes, gpus in SERVICE_MESHES
        for bt in BATCH_TOKENS
    ]
    random.Random(POPULARITY_SEED).shuffle(keys)
    return keys


def service_round() -> List[Request]:
    """One round of the service mix, unshuffled.

    Key rank r appears round(48 / (r + 1)) times (Zipf, s = 1), at least
    once; a fifth of each key's requests, rounded, are ``/simulate``.
    """
    keys = service_keys()
    out = []
    for rank, key in enumerate(keys):
        count = max(1, round(len(keys) / (rank + 1) ** ZIPF_S))
        sims = round(count * (1 - SERVICE_PLAN_SHARE))
        out += [Request("plan", *key)] * (count - sims)
        out += [Request("simulate", *key)] * sims
    return out


def iter_request_rounds(seed: int) -> Iterator[List[Request]]:
    """Endless shuffled rounds of the service mix, drawn from *seed*."""
    rng = random.Random(f"{SERVICE_MIX}/{seed}")
    base = service_round()
    while True:
        batch = list(base)
        rng.shuffle(batch)
        yield batch
