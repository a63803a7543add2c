"""service-mix: a planner daemon under a seeded closed-loop request mix.

The load comes in rounds (``workloads.iter_request_rounds``), and every
round goes to a fresh daemon, ``repro serve --workers 1 --lru-capacity 16
--no-preload`` on a free localhost port with a fresh cache directory, so
every round holds the same misses, memory hits and disk hits.  One
closed-loop client (``PlannerClient``) sends the round's requests, each
after the previous reply: with two clients, the daemon and its worker on
a two-core host the figures measured the scheduler more than the service.
The 48-key working set is three times the 16-entry memory LRU, so a round
holds memory hits, disk hits and misses that search in the worker.  Rounds
run while time is left (``workloads.another_round``), and only whole
rounds.

Every reply is checked against ``expected.json`` once the load is over,
so the checks cost the client nothing; a wrong plan, an HTTP error or a
timeout counts as a failed operation and the run goes on.  Every daemon is
always stopped: ``POST /shutdown``, a kill if that fails, and its cache
directory is removed, also when a request or the run raises.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
from pathlib import Path
from typing import Dict, List, Optional

from repro import obs
from repro.service import (
    PlannerClient,
    PlanRequest,
    ServiceError,
    SimulateRequest,
)

from hostspeed import HostSpeed, probe, scaled
from make_expected import profiles_digest
from metrics import geomean, median, percentile, typical_times
from workloads import Request, another_round, iter_request_rounds

#: Idle daemon starts before the first round and after the last; with the
#: start of every round's daemon they give ``setup_s``, their median.
IDLE_SETUPS = 4
REQUEST_TIMEOUT_S = 60.0
DAEMON_ARGS = ("serve", "--host", "127.0.0.1", "--port", "0", "--workers",
               "1", "--lru-capacity", "16", "--no-preload")


class Daemon:
    """One ``repro serve`` process and its temporary cache directory."""

    def __init__(self, root: Path, scratch: Path, env: Dict[str, str]) -> None:
        self.root = root
        self.scratch = scratch
        self.env = env
        self.proc: Optional[subprocess.Popen] = None
        self.cache_dir: Optional[str] = None
        self.url = ""

    def start(self) -> float:
        """Start the daemon; return seconds from spawn to a healthy probe."""
        self.cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.scratch)
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *DAEMON_ARGS,
             "--cache-dir", self.cache_dir],
            cwd=self.root, env=self.env, stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        line = self.proc.stdout.readline()
        if "http://" not in line:
            raise RuntimeError(f"daemon did not report its address: {line!r}")
        self.url = line[line.index("http://"):].strip()
        client = PlannerClient(self.url)
        deadline = start + 60.0
        while not client.health(timeout=1.0):
            if time.perf_counter() > deadline or self.proc.poll() is not None:
                raise RuntimeError("daemon never became healthy")
            time.sleep(0.005)
        return time.perf_counter() - start

    def peak_rss_mb(self) -> float:
        """Summed peak resident memory of the daemon and its descendants."""
        total_kb = 0
        pending = [self.proc.pid]
        while pending:
            pid = pending.pop()
            with contextlib.suppress(OSError):
                for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                for task in Path(f"/proc/{pid}/task").iterdir():
                    pending += [int(c) for c in
                                (task / "children").read_text().split()]
        return total_kb / 1024

    def stop(self) -> None:
        """Shut down gracefully, kill if that fails; remove the cache dir.

        The kill takes the daemon's whole session, so its worker goes too.
        """
        try:
            if self.proc is not None and self.proc.poll() is None:
                try:
                    PlannerClient(self.url, timeout=10.0).shutdown()
                    self.proc.wait(timeout=15.0)
                except (ServiceError, OSError, ValueError,
                        subprocess.TimeoutExpired):
                    with contextlib.suppress(ProcessLookupError):
                        os.killpg(self.proc.pid, signal.SIGKILL)
                    self.proc.wait(timeout=15.0)
        finally:
            if self.proc is not None and self.proc.stdout is not None:
                self.proc.stdout.close()
            if self.cache_dir is not None:
                shutil.rmtree(self.cache_dir, ignore_errors=True)

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def _where(req: Request) -> Dict:
    return dict(model=req.model, mesh_nodes=req.nodes, mesh_gpus=req.gpus,
                batch_tokens=req.batch_tokens)


def plan_digest(payload: Dict) -> str:
    """sha256 of ``routed_to_json`` for a routed-plan document."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


class Checker:
    """Checks replies against ``expected.json``.

    The first correct reply of each key is checked by digest and kept;
    later replies of that key are compared with it, which is cheaper than
    re-hashing a large plan.
    """

    def __init__(self, expected: Dict) -> None:
        self.expected = expected
        self.envelopes: Dict[str, Dict] = {}
        self.requests: Dict[str, Request] = {}

    def plan_ok(self, req: Request, reply: Dict) -> bool:
        exp = self.expected["plans"].get(req.key)
        if exp is None or reply.get("cost") != exp["cost"]:
            return False
        envelope = reply["envelope"]
        seen = self.envelopes.get(req.key)
        if seen is not None and envelope["payload"] == seen["payload"]:
            return True
        if plan_digest(envelope["payload"]) != exp["sha256"]:
            return False
        self.envelopes.setdefault(req.key, envelope)
        self.requests.setdefault(req.key, req)
        return True

    def simulate_ok(self, req: Request, reply: Dict) -> bool:
        exp = self.expected["simulate"].get(req.key)
        return exp is not None and profiles_digest(reply["profiles"]) == exp["sha256"]


def _tap_iteration(reply: Dict) -> float:
    for profile in reply["profiles"]:
        if profile["plan"] == "tap":
            return profile["profile"]["iteration_time"]
    return 0.0


def load(url: str, requests: List[Request], trace: bool,
         speed: HostSpeed) -> Dict:
    """Send *requests* to *url*, each after the previous reply; return samples.

    Before each request, outside its round trip, the client notes the
    latest host-speed probe of *speed* in the sample.  Each sample keeps
    its reply for ``check`` to look at after the load.  The kept replies
    are moved out of the cyclic collector's reach as they come, so that
    holding them does not slow the client down.  With *trace*, every other
    request runs inside a ``repro.obs`` span (the others give the untraced
    side of the tracing overhead).
    """
    client = PlannerClient(url, timeout=REQUEST_TIMEOUT_S)
    samples: List[Dict] = []
    start = time.perf_counter()
    try:
        for index, req in enumerate(requests):
            traced = trace and index % 2 == 0
            sample = {"kind": req.kind, "key": req.key, "request": req,
                      "ok": False, "probe_s": speed.current(),
                      "traced": traced}
            samples.append(sample)
            scope = (obs.trace.span(f"service.{req.kind}", key=req.key)
                     if traced else contextlib.nullcontext())
            t0 = time.perf_counter()
            try:
                with scope:
                    if req.kind == "plan":
                        reply = client.plan(PlanRequest(**_where(req)))
                    else:
                        reply = client.simulate(SimulateRequest(**_where(req)))
                sample["rtt_s"] = time.perf_counter() - t0
                sample["source"] = reply["source"]
                sample["cached"] = reply["cached"]
                sample["service_s"] = reply["latency_seconds"]
                sample["timings"] = reply["timings"]
                sample["reply"] = reply
                gc.freeze()
            # An HTTP error, a timeout or a malformed reply fails this
            # request only; the client goes on with the next one.
            except (ServiceError, urllib.error.URLError, OSError, KeyError,
                    TypeError, ValueError) as exc:
                sample["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        gc.unfreeze()
    return {"samples": samples, "elapsed_s": time.perf_counter() - start}


def check(samples: List[Dict], checker: Checker) -> None:
    """Check every reply of the load; drop it once checked."""
    for sample in samples:
        reply = sample.pop("reply", None)
        if reply is None:
            continue
        req = sample["request"]
        try:
            if req.kind == "plan":
                sample["ok"] = checker.plan_ok(req, reply)
            else:
                sample["ok"] = checker.simulate_ok(req, reply)
                sample["tap_iteration_s"] = _tap_iteration(reply)
        except (KeyError, TypeError, ValueError) as exc:
            sample["error"] = f"{type(exc).__name__}: {exc}"


def _layer_timings(checker: Checker, samples: List[Dict],
                   memory: obs.MemorySink) -> Dict[str, float]:
    """Time serialisation and key derivation on the envelopes hits returned.

    Runs after the load, with the daemon idle and tracing on; the times are
    read back from the spans.  Each figure is a mean over the plan hits of
    the run, so a key weighs as much as it was hit.
    """
    from repro.core import envelope_from_json, graph_fingerprint
    from repro.service import build_request_graph, request_key

    hits: Dict[str, int] = {}
    for s in samples:
        if s["kind"] == "plan" and s.get("cached") and s["ok"]:
            hits[s["key"]] = hits.get(s["key"], 0) + 1
    graph_fps: Dict[str, str] = {}
    sizes: Dict[str, float] = {}
    span = obs.trace.span
    for key in hits:
        req = checker.requests[key]
        plan_req = PlanRequest(**_where(req))
        if req.model not in graph_fps:
            graph_fps[req.model] = graph_fingerprint(build_request_graph(plan_req))
        text = json.dumps(checker.envelopes[key])
        with span("core.serialize.decode", key=key):
            env = envelope_from_json(text)
        with span("core.serialize.encode", key=key):
            encoded = env.to_json()
        with span("core.fingerprint.request_key", key=key):
            request_key(plan_req, graph_fp=graph_fps[req.model])
        sizes[key] = len(encoded) / 1024
    durations = {(s.name, s.attrs.get("key")): s.duration for s in memory.spans}
    total = sum(hits.values()) or 1

    def mean(name: str) -> float:
        return sum(durations[name, k] * n for k, n in hits.items()) / total

    return {
        "core.serialize.envelope_kb":
            sum(sizes[k] * n for k, n in hits.items()) / total,
        "core.serialize.decode_ms": mean("core.serialize.decode") * 1e3,
        "core.serialize.encode_ms": mean("core.serialize.encode") * 1e3,
        "core.fingerprint.request_key_ms":
            mean("core.fingerprint.request_key") * 1e3,
    }


def _stats_metrics(rounds: List[Dict]) -> Dict[str, float]:
    """The daemons' ``GET /stats`` counters, as a mean over the rounds."""
    def mean(part: str, name: str) -> float:
        return sum(r["stats"][part][name] for r in rounds) / len(rounds)

    return {
        "service.planner.coalesced": mean("counters", "coalesced"),
        "service.planner.overloaded": mean("counters", "overloaded"),
        "service.planner.errors": mean("counters", "errors"),
        "service.cache.memory_hits": mean("cache", "memory_hits"),
        "service.cache.disk_hits": mean("cache", "disk_hits"),
        "service.cache.misses": mean("cache", "misses"),
        "service.cache.evictions": mean("cache", "evictions"),
        "service.cache.hit_frac": mean("cache", "hit_rate"),
    }


def _round_figures(samples: List[Dict]) -> Dict[str, float]:
    """Throughput and plan latency of one round, at typical times.

    A class here is a request's kind, key and reply source; most misses
    have one sample a round.  Taken per round and then as a median over
    the rounds, the figures do not depend on how many rounds a run held.
    With one closed-loop client the load time is the sum of the round
    trips.
    """
    done = [s for s in samples if "error" not in s]
    typical = typical_times(((s["kind"], s["key"], s["source"]),
                             scaled(s["rtt_s"], s["probe_s"])) for s in done)
    plan_typical = [t for s, t in zip(done, typical) if s["kind"] == "plan"]
    work_s = sum(typical) or float("inf")  # a round whose requests all failed
    return {
        "plans_per_s": len(plan_typical) / work_s,
        "req_per_s": len(done) / work_s,
        "plan_s": geomean(plan_typical),
    }


def run(root: Path, scratch: Path, env: Dict[str, str], seed: int,
        seconds: float, trace: bool, expected: Dict,
        trace_file: Path) -> Dict:
    """One service-mix run: set-ups, rounds of load, checks, metrics."""
    def start_daemon(daemon: Daemon) -> None:
        probe_s = probe()
        setups.append(scaled(daemon.start(), probe_s))

    def start_idle(count: int) -> None:
        for _ in range(count):
            with Daemon(root, scratch, env) as idle:
                start_daemon(idle)

    setups: List[float] = []
    rounds: List[Dict] = []
    speed = HostSpeed()
    start_idle(IDLE_SETUPS // 2)
    checker = Checker(expected)
    memory, chrome = obs.MemorySink(), obs.ChromeTraceSink()
    if trace:
        obs.enable(memory, chrome)
    try:
        start, round_s = time.perf_counter(), 0.0
        for requests in iter_request_rounds(seed):
            if rounds and not another_round(start, round_s, seconds):
                break
            round_start = time.perf_counter()
            with Daemon(root, scratch, env) as daemon:
                start_daemon(daemon)
                result = load(daemon.url, requests, trace, speed)
                result["stats"] = PlannerClient(daemon.url).stats()
                result["peak_rss_mb"] = daemon.peak_rss_mb()
            rounds.append(result)
            round_s = time.perf_counter() - round_start
        samples = [s for r in rounds for s in r["samples"]]
        check(samples, checker)
        layers = _layer_timings(checker, samples, memory) if trace else {}
    finally:
        if trace:
            obs.disable(close=False)
    start_idle(IDLE_SETUPS - IDLE_SETUPS // 2)
    done = [s for s in samples if "error" not in s]
    plans = [s for s in done if s["kind"] == "plan"]
    sims = [s for s in done if s["kind"] == "simulate"]
    elapsed = sum(r["elapsed_s"] for r in rounds)
    figures = [_round_figures(r["samples"]) for r in rounds]
    out = {
        "attempted": len(samples),
        "failed": sum(not s["ok"] for s in samples),
        "errors": [s["error"] for s in samples if "error" in s][:5],
        "end_to_end": {
            "setup_s": median(setups),
            **{name: median([f[name] for f in figures])
               for name in ("plans_per_s", "req_per_s", "plan_s")},
            "step_ms": geomean(s["tap_iteration_s"] for s in sims) * 1e3,
            "peak_rss_mb": median([r["peak_rss_mb"] for r in rounds]),
        },
    }
    hits = [s for s in plans if s["cached"]]
    misses = [s for s in plans if not s["cached"]]
    sim_misses = [s for s in sims if not s["cached"]]
    counters = _stats_metrics(rounds)
    out["notes"] = [
        f"{len(done)} replies in {len(rounds)} rounds, {elapsed:.2f} s: "
        f"/plan {len(hits)} hits, {len(misses)} misses; /simulate "
        f"{len(sims)} ({len(sim_misses)} misses); as run: "
        f"{len(done) / elapsed:.4f} req/s, geometric mean /plan "
        f"{geomean(s['rtt_s'] for s in plans):.4f} s; host "
        f"{speed.slowdown():.3f}x as slow as the reference",
        "per round: {:.0f} memory hits, {:.0f} disk hits, {:.1f} coalesced; "
        "load s {}".format(
            counters["service.cache.memory_hits"],
            counters["service.cache.disk_hits"],
            counters["service.planner.coalesced"],
            " ".join(f"{r['elapsed_s']:.2f}" for r in rounds)),
    ]
    if not trace:
        return out
    traced_hits = [s["rtt_s"] for s in hits if s["traced"]]
    plain_hits = [s["rtt_s"] for s in hits if not s["traced"]]
    overhead = median(traced_hits) - median(plain_hits)
    layers.update(counters)
    layers.update({
        "service.hit_p50_ms": median([s["rtt_s"] for s in hits]) * 1e3,
        "service.hit_p90_ms": percentile([s["rtt_s"] for s in hits], 90) * 1e3,
        "service.miss_p50_s": median([s["rtt_s"] for s in misses]),
        "service.server.http_hit_ms":
            median([s["rtt_s"] - s["service_s"] for s in hits]) * 1e3,
        "service.server.http_miss_ms":
            median([s["rtt_s"] - s["service_s"] for s in misses]) * 1e3,
        "service.planner.hit_ms": median([s["service_s"] for s in hits]) * 1e3,
        "service.workers.search_s":
            median([s["timings"]["search_seconds"] for s in misses]),
        "service.workers.wall_s":
            median([s["timings"]["wall_seconds"] for s in misses]),
        "simulator.whatif_s":
            median([s["timings"]["simulate_s"] for s in sim_misses]),
        "trace.overhead_ms": overhead * 1e3,
        "trace.overhead_frac":
            overhead / median(plain_hits) if plain_hits else 0.0,
    })
    obs.save_trace_events(chrome.events(), trace_file)
    out["per_layer"] = layers
    return out
