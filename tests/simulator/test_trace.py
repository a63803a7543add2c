"""Tests for chrome-trace export of simulated timelines."""

import json

from repro.cluster import paper_testbed
from repro.core import DEFAULT_REGISTRY, ShardingPlan, coarsen, route_plan
from repro.graph import trim_auxiliary
from repro.models import TransformerConfig, build_t5
from repro.simulator import (
    Engine,
    engine_to_chrome_trace,
    profile_to_chrome_trace,
    save_chrome_trace,
    simulate_iteration,
)


def simple_engine():
    e = Engine()
    e.channel("compute").submit("a", 1.0)
    e.channel("comm").submit("x", 0.5, ready=0.25)
    return e


class TestTraceExport:
    def test_event_structure(self):
        events = engine_to_chrome_trace(simple_engine())
        complete = [ev for ev in events if ev["ph"] == "X"]
        meta = [ev for ev in events if ev["ph"] == "M"]
        assert len(complete) == 2
        assert any(m["args"].get("name") == "compute" for m in meta)
        a = next(ev for ev in complete if ev["name"] == "a")
        assert a["ts"] == 0.0 and a["dur"] == 1.0e6

    def test_ready_offsets_respected(self):
        events = engine_to_chrome_trace(simple_engine())
        x = next(ev for ev in events if ev["name"] == "x")
        assert x["ts"] == 0.25e6

    def test_save_roundtrip(self, tmp_path):
        path = tmp_path / "trace.json"
        save_chrome_trace(simple_engine(), path)
        doc = json.loads(path.read_text())
        assert "traceEvents" in doc
        assert len(doc["traceEvents"]) >= 2

    def test_profile_carries_engine(self):
        g = build_t5(TransformerConfig(encoder_layers=1, decoder_layers=1,
                                       hidden=64, ffn_dim=128, num_heads=4,
                                       vocab=128))
        trimmed, _ = trim_auxiliary(g)
        ng = coarsen(trimmed)
        routed = route_plan(ng, ShardingPlan.of({}, 1), DEFAULT_REGISTRY)
        prof = simulate_iteration(routed, paper_testbed())
        assert prof.engine is not None
        events = engine_to_chrome_trace(prof.engine)
        names = {ev["name"] for ev in events if ev["ph"] == "X"}
        assert any(n.startswith("fwd:") for n in names)
        assert any(n.startswith("bwd:") for n in names)
        assert any(n.startswith("grad:") for n in names)


def t5_profile(engine="columnar"):
    g = build_t5(TransformerConfig(encoder_layers=2, decoder_layers=2,
                                   hidden=64, ffn_dim=128, num_heads=4,
                                   vocab=128))
    trimmed, _ = trim_auxiliary(g)
    ng = coarsen(trimmed)
    routed = route_plan(ng, ShardingPlan.of({}, 1), DEFAULT_REGISTRY)
    return simulate_iteration(routed, paper_testbed(), engine=engine)


class TestReplayedLogTrace:
    """Spliced (columnar-replayed) logs export identically to submitted
    ones."""

    def test_replay_trace_matches_reference_trace(self):
        ref = engine_to_chrome_trace(t5_profile(engine="reference").engine)
        col = engine_to_chrome_trace(t5_profile(engine="columnar").engine)
        assert col == ref

    def test_save_roundtrip_from_replay(self, tmp_path):
        prof = t5_profile()
        path = tmp_path / "trace.json"
        save_chrome_trace(prof.engine, path)
        doc = json.loads(path.read_text())
        exported = [
            (ev["name"], ev["ts"], ev["dur"], ev["cat"])
            for ev in doc["traceEvents"]
            if ev["ph"] == "X"
        ]
        expected = [
            (t.name, t.start * 1e6, t.duration * 1e6, ch.name)
            for ch in prof.engine.channels
            for t in ch.log
        ]
        assert exported == expected


class TestProfileTrace:
    def test_phase_spans_and_summary_args(self):
        prof = t5_profile()
        events = profile_to_chrome_trace(prof)
        phases = [ev for ev in events if ev.get("cat") == "phase"]
        assert {ev["name"] for ev in phases} == {"forward", "backward"}
        fwd = next(ev for ev in phases if ev["name"] == "forward")
        assert fwd["ts"] == 0.0
        assert fwd["dur"] == prof.forward_time * 1e6
        assert fwd["args"]["num_gradient_buckets"] == prof.num_gradient_buckets
        assert fwd["args"]["overlap_efficiency"] == prof.overlap_efficiency

    def test_includes_all_channel_events(self):
        prof = t5_profile()
        events = profile_to_chrome_trace(prof)
        engine_only = engine_to_chrome_trace(prof.engine)
        assert events[: len(engine_only)] == engine_only

    def test_requires_engine(self):
        import pytest

        from repro.simulator import IterationProfile

        with pytest.raises(ValueError):
            profile_to_chrome_trace(IterationProfile())
