"""Simulation-tier selection: columnar by default everywhere, two tiers only.

Every entry point that simulates an iteration — ``evaluate_plan``,
``sweep``, ``zero_crossover``, ``pipeline_with_tap``, ``repro simulate``
and ``repro plan --trace`` — runs the columnar tier unless told
otherwise, and the tier names are the search's (``ENGINE_TIERS``).
``simulate_iteration`` and ``SimulateRequest`` defaults are covered by
``test_columnar_sim.py::TestEngineNormalization`` and
``tests/service/test_simulate.py``.  The retired spellings
(``"replay"``, the ``reference=`` keyword, ``--reference``,
``--no-engine``) are rejected, while simulation-cache entries written
under the old tier name keep hitting, because sim cache keys leave the
tier out.
"""

import json

import pytest

import repro.simulator.columnar as columnar
from repro.analysis import evaluate_plan, sweep, zero_crossover
from repro.baselines import NAMED_PLANS
from repro.cli import main
from repro.cluster import Mesh
from repro.core import coarsen
from repro.graph import trim_auxiliary
from repro.models import build_preset
from repro.passes import pipeline_with_tap
from repro.service import (
    PlannerClient,
    PlannerServer,
    PlannerService,
    ServiceError,
    SimulateRequest,
)

MESH = Mesh(num_nodes=1, gpus_per_node=4)
SIM_REQ = SimulateRequest(model="clip_base", mesh_nodes=1, mesh_gpus=4,
                          batch_tokens=1024, plans=("dp", "megatron"))
CLI_SIM = ["simulate", "clip_base", "--mesh", "1x4", "--tp", "4",
           "--batch-tokens", "1024"]
CLI_PLAN = ["plan", "clip_base", "--mesh", "1x4", "--batch-tokens", "1024"]
TIER_NAMES = "'reference', 'columnar'"


@pytest.fixture(scope="module")
def clip_nodes():
    trimmed, _ = trim_auxiliary(build_preset("clip_base"))
    return coarsen(trimmed)


@pytest.fixture
def megatron(clip_nodes):
    return NAMED_PLANS["megatron"](clip_nodes, MESH.gpus_per_node)


@pytest.fixture
def columnar_runs(monkeypatch):
    """Count the columnar single-plan simulations run during the test."""
    calls = []
    real = columnar.simulate_columnar

    def spy(routed, *args, **kwargs):
        calls.append(len(routed.order))
        return real(routed, *args, **kwargs)

    monkeypatch.setattr(columnar, "simulate_columnar", spy)
    return calls


@pytest.fixture
def server(tmp_path):
    srv = PlannerServer(
        PlannerService(tmp_path, workers=None), port=0
    ).start_background()
    yield srv
    srv.shutdown()


class TestColumnarIsTheDefault:
    def test_evaluate_plan(self, clip_nodes, megatron, columnar_runs):
        evaluate_plan(clip_nodes, megatron, MESH)
        assert len(columnar_runs) == 1

    def test_sweep(self, clip_nodes, columnar_runs):
        sweep(clip_nodes, {"1x4": MESH}, batch_tokens=(1024,))
        assert len(columnar_runs) == 1

    def test_zero_crossover(self, clip_nodes, columnar_runs):
        zero_crossover(clip_nodes, Mesh(2, 4), stages=(0, 1))
        assert len(columnar_runs) == 2

    def test_pipeline_with_tap(self, clip_nodes, columnar_runs):
        pipeline_with_tap(clip_nodes, Mesh(2, 4), num_stages=2)
        assert len(columnar_runs) == 2

    def test_cli_simulate(self, capsys, columnar_runs):
        assert main(CLI_SIM) == 0
        assert len(columnar_runs) == 1
        assert "[columnar tier]" in capsys.readouterr().out

    def test_cli_plan_trace(self, tmp_path, columnar_runs):
        assert main(CLI_PLAN + ["--trace", str(tmp_path / "t.json")]) == 0
        assert len(columnar_runs) == 1

    def test_cli_tables_match_reference(self, capsys):
        assert main(CLI_SIM) == 0
        col = capsys.readouterr().out.splitlines()
        assert main(CLI_SIM + ["--engine", "reference"]) == 0
        ref = capsys.readouterr().out.splitlines()
        # only the title line names the tier
        assert col[0].endswith("[columnar tier]")
        assert ref[0].endswith("[reference tier]")
        assert col[1:] == ref[1:]


class TestRetiredSpellings:
    def test_pipeline_reference_keyword_rejected(self, clip_nodes):
        with pytest.raises(TypeError, match="reference"):
            pipeline_with_tap(clip_nodes, Mesh(2, 4), num_stages=2,
                              reference=True)

    def test_simulate_request_rejects_replay(self):
        with pytest.raises(ValueError, match=TIER_NAMES):
            SimulateRequest(model="clip_base", engine="replay")
        with pytest.raises(ValueError, match=TIER_NAMES):
            SimulateRequest.from_doc(dict(SIM_REQ.to_doc(), engine="replay"))

    def test_http_simulate_body_naming_replay_gets_400(self, server):
        client = PlannerClient(server.url)
        with pytest.raises(ServiceError, match="400"):
            client._call("/simulate", dict(SIM_REQ.to_doc(), engine="replay"))

    def test_cli_rejects_replay_tier(self, capsys):
        with pytest.raises(SystemExit):
            main(CLI_SIM + ["--engine", "replay"])
        assert "invalid choice: 'replay'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [CLI_SIM + ["--reference"],
                                      CLI_PLAN + ["--no-engine"]],
                             ids=["simulate--reference", "plan--no-engine"])
    def test_cli_aliases_no_longer_parse(self, capsys, argv):
        with pytest.raises(SystemExit):
            main(argv)
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_sim_envelope_from_the_replay_tier_still_hits(self, tmp_path):
        """A disk entry written by the retired tier is served as a hit:
        the tier is provenance in the envelope, not part of the key."""
        with PlannerService(tmp_path, workers=None) as svc:
            fresh = svc.simulate(SIM_REQ)
        path = tmp_path / "sim" / f"{fresh.key}.json"
        doc = json.loads(path.read_text())
        assert doc["engine"] == "columnar"
        doc["engine"] = "replay"
        path.write_text(json.dumps(doc, sort_keys=True))
        with PlannerService(tmp_path, workers=None) as svc:
            again = svc.simulate(SIM_REQ)
        assert again.source == "disk" and again.cached
        assert again.envelope.engine == "replay"
        assert again.key == fresh.key
        assert again.profiles == fresh.profiles
