"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper: it computes
the rows/series, prints them straight to the terminal (bypassing pytest's
capture so they land in ``bench_output.txt``), and archives them under
``benchmarks/results/`` for EXPERIMENTS.md.
"""

from __future__ import annotations

import json
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

from repro.cluster import paper_testbed
from repro.core import coarsen
from repro.graph import trim_auxiliary

RESULTS_DIR = Path(__file__).parent / "results"
REPO_ROOT = Path(__file__).parent.parent

#: Artifacts emitted during this session, printed by the terminal-summary
#: hook in conftest.py (pytest's fd-level capture swallows direct writes).
EMITTED: list = []


def emit(name: str, text: str) -> None:
    """Archive a regenerated artifact and queue it for the session summary."""
    EMITTED.append((name, text))
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def git_sha() -> str:
    """Short SHA of the benchmarked tree; ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def bench_metadata(engine: str = "columnar") -> dict:
    """Provenance stamped into every ``BENCH_*.json``.

    A bench number without its SHA, tier and timestamp cannot be compared
    to anything later; the regression gate carries records either bare
    (legacy) or wrapped with this meta block.
    """
    return {
        "git_sha": git_sha(),
        "engine": engine,
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def emit_bench_json(name: str, records: list, engine: str = "columnar") -> None:
    """Write ``BENCH_<name>.json`` at the repo root.

    The machine-readable companion to :func:`emit`: a ``meta`` block
    (git SHA, engine tier, ISO-8601 timestamp — see :func:`bench_metadata`)
    over the record list.  Each record carries a ``model``, the wall-clocks
    in seconds, and derived ratios, so external tooling can track the
    hot-path numbers without parsing the archived tables.
    """
    path = REPO_ROOT / f"BENCH_{name}.json"
    doc = {"meta": bench_metadata(engine), "records": records}
    path.write_text(json.dumps(doc, indent=2) + "\n")


def nodes_for(graph):
    """trim + coarsen — the standard preprocessing before planning."""
    trimmed, _ = trim_auxiliary(graph)
    return coarsen(trimmed)


def mesh_16w():
    """The paper's two-node evaluation system (§6.1)."""
    return paper_testbed(2, 8)


def mesh_8w():
    """The single-node variant used by Fig. 6's 8w columns."""
    return paper_testbed(1, 8)
