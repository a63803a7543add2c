"""Tests of the benchmark itself (run with pytest from the repository root).

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import copy
import itertools
import json
import re
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import hostspeed  # noqa: E402
import run  # noqa: E402
import service_mix  # noqa: E402
from metrics import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    loglog_slope,
    self_times,
    typical_times,
)
from workloads import (  # noqa: E402
    PLAN_DEEP,
    PLAN_ZOO,
    all_plan_jobs,
    iter_request_rounds,
    iter_rounds,
    job_key,
    service_keys,
    service_round,
)

EXPECTED = json.loads((HERE / "expected.json").read_text())


def _rounds(workload, seed, n=3):
    return list(itertools.islice(iter_rounds(workload, seed), n))


def _stream(seed, n=500):
    flat = itertools.chain.from_iterable(iter_request_rounds(seed))
    return list(itertools.islice(flat, n))


@pytest.mark.parametrize("workload", [PLAN_ZOO, PLAN_DEEP])
def test_same_seed_same_jobs(workload):
    assert _rounds(workload, 7) == _rounds(workload, 7)
    assert _rounds(workload, 7) != _rounds(workload, 8)


@pytest.mark.parametrize("workload", [PLAN_ZOO, PLAN_DEEP])
def test_rounds_cover_every_slot_once(workload):
    slots = {(j.model, j.nodes, j.gpus, j.batch_tokens)
             for j in all_plan_jobs(workload)}
    for jobs in _rounds(workload, 3):
        assert sorted((j.model, j.nodes, j.gpus, j.batch_tokens)
                      for j in jobs) == sorted(slots)


def test_same_seed_same_requests():
    assert _stream(7) == _stream(7)
    assert _stream(7) != _stream(8)


def test_request_rounds_hold_the_same_mix():
    first, second = itertools.islice(iter_request_rounds(1), 2)
    assert first != second
    assert sorted(first, key=repr) == sorted(second, key=repr)


def test_request_mix():
    stream = _stream(1, 5000)
    share = sum(r.kind == "simulate" for r in stream) / len(stream)
    assert 0.15 < share < 0.25
    counts = {}
    for r in stream:
        counts[r.key] = counts.get(r.key, 0) + 1
    hottest = job_key(*service_keys()[0], 0)
    assert len(counts) == 48
    assert counts[hottest] == max(counts.values())


def test_expected_covers_every_drawable_key():
    for workload in (PLAN_ZOO, PLAN_DEEP):
        for job in all_plan_jobs(workload):
            assert job.key in EXPECTED["plans"]
    for r in _stream(1, 2000):
        table = EXPECTED["plans" if r.kind == "plan" else "simulate"]
        assert r.key in table


def test_metric_names_and_benchmark_json():
    names = [m.name for m in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == [
        (m.name, m.unit, m.better) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (m.name, m.unit, m.better) for m in PER_LAYER]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)


def test_self_times_subtract_children():
    spans = [
        ("job", 0.0, 10.0, 0),
        ("a", 1.0, 2.0, 0),
        ("a.inner", 1.5, 1.0, 0),
        ("b", 4.0, 3.0, 0),
        ("other-thread", 0.0, 5.0, 1),
    ]
    got = self_times(spans)
    assert got["job"] == pytest.approx(5.0)
    assert got["a"] == pytest.approx(1.0)
    assert got["a.inner"] == pytest.approx(1.0)
    assert got["b"] == pytest.approx(3.0)
    assert got["other-thread"] == pytest.approx(5.0)


def test_typical_times_take_each_class_lower_quartile():
    samples = [("a", 1.0), ("b", 9.0), ("a", 2.0), ("a", 3.0), ("a", 40.0)]
    assert typical_times(samples) == pytest.approx([1.75, 9.0, 1.75, 1.75, 1.75])


def test_host_speed_scaling():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.scaled(3.0, ref) == pytest.approx(3.0)
    assert hostspeed.scaled(3.0, 2 * ref) == pytest.approx(1.5)
    speed = hostspeed.HostSpeed()
    first = speed.current()
    assert speed.current() == first  # too soon for a new probe
    assert speed.samples == [first] and first > 0
    assert speed.slowdown() == pytest.approx(first / ref)


def test_depth_slope_fit():
    assert loglog_slope([(48, 1.0), (96, 4.0), (192, 16.0)]) == pytest.approx(2.0)
    assert loglog_slope([(48, 3.0), (96, 3.0), (192, 3.0)]) == pytest.approx(0.0)


def test_altered_digest_counts_as_failed_job(tmp_path):
    altered = copy.deepcopy(EXPECTED)
    for job in all_plan_jobs(PLAN_ZOO):
        if job.model == "resnet50" and job.nodes == 1 and job.batch_tokens == 8192:
            altered["plans"][job.key]["sha256"] = "0" * 64
    out = run.run_plan(PLAN_ZOO, 1, 0.0, False, altered,
                       tmp_path / "trace.json", deadline=time.perf_counter() + 120)
    assert out["attempted"] == 32  # one round
    assert out["failed"] == 1
    clean = run.run_plan(PLAN_ZOO, 1, 0.0, False, EXPECTED,
                         tmp_path / "trace.json", deadline=time.perf_counter() + 120)
    assert clean["failed"] == 0


def test_altered_digest_counts_as_failed_reply():
    checker = service_mix.Checker(copy.deepcopy(EXPECTED))
    req = next(r for r in _stream(1) if r.kind == "plan")
    exp = EXPECTED["plans"][req.key]
    reply = {"cost": exp["cost"], "envelope": {"payload": {"not": "the plan"}}}
    assert not checker.plan_ok(req, reply)
    samples = [{"kind": "plan", "key": req.key, "request": req, "ok": False,
                "reply": reply}]
    service_mix.check(samples, checker)
    assert samples == [{"kind": "plan", "key": req.key, "request": req,
                        "ok": False}]


def _daemons(monkeypatch):
    started = []
    real_start = service_mix.Daemon.start

    def start(self):
        started.append(self)
        return real_start(self)

    monkeypatch.setattr(service_mix.Daemon, "start", start)
    return started


def test_daemon_stopped_after_run(tmp_path, monkeypatch):
    started = _daemons(monkeypatch)
    out = service_mix.run(ROOT, tmp_path, run.child_env(), 1, 1.0, False,
                          EXPECTED, tmp_path / "trace.json")
    assert out["attempted"] == len(service_round()) and out["failed"] == 0
    assert len(started) == service_mix.IDLE_SETUPS + 1  # one round
    for daemon in started:
        assert daemon.proc.poll() is not None
        assert not Path(daemon.cache_dir).exists()


def test_daemon_stopped_when_a_request_raises(tmp_path, monkeypatch):
    started = _daemons(monkeypatch)

    def failing_load(*args, **kwargs):
        raise RuntimeError("request failed")

    monkeypatch.setattr(service_mix, "load", failing_load)
    with pytest.raises(RuntimeError, match="request failed"):
        service_mix.run(ROOT, tmp_path, run.child_env(), 1, 1.0, False,
                        EXPECTED, tmp_path / "trace.json")
    assert started
    for daemon in started:
        assert daemon.proc.poll() is not None
        assert not Path(daemon.cache_dir).exists()
    assert list(tmp_path.iterdir()) == []


def test_daemon_killed_when_shutdown_fails(tmp_path, monkeypatch):
    def refuse(self):
        raise service_mix.ServiceError("shutdown refused")

    monkeypatch.setattr(service_mix.PlannerClient, "shutdown", refuse)
    daemon = service_mix.Daemon(ROOT, tmp_path, run.child_env())
    with daemon:
        daemon.start()
        assert service_mix.PlannerClient(daemon.url).health()
    assert daemon.proc.poll() is not None
    assert not Path(daemon.cache_dir).exists()
