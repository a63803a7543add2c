"""Search-tier selection: columnar by default everywhere, two tiers only.

Every entry point that runs a search — ``derive_plan``, ``plan_request``,
``auto_parallel``, ``PlanRequest``, the service worker, ``repro plan``
and ``repro plan --remote`` — searches on the columnar tier unless told
otherwise.  The retired spellings of the knob (``True``/``False`` and
``"engine"``) are rejected with an error that names the two tiers, while
cache entries written under the old tier name keep hitting, because
cache keys leave the tier out.
"""

import json

import pytest

import repro.core.columnar as columnar
from repro.cli import main
from repro.cluster import Mesh
from repro.core import auto_parallel, coarsen, derive_plan, plan_request
from repro.graph import trim_auxiliary
from repro.models import build_preset
from repro.service import (
    PlannerClient,
    PlannerServer,
    PlannerService,
    PlanRequest,
    ServiceError,
)
from repro.service.workers import execute_request

MESH = Mesh(num_nodes=1, gpus_per_node=4)
REQ = PlanRequest(model="clip_base", mesh_nodes=1, mesh_gpus=4,
                  batch_tokens=1024)
CLI_PLAN = ["plan", "clip_base", "--mesh", "1x4", "--batch-tokens", "1024"]


@pytest.fixture(scope="module")
def clip_nodes():
    trimmed, _ = trim_auxiliary(build_preset("clip_base"))
    return coarsen(trimmed)


@pytest.fixture
def columnar_sweeps(monkeypatch):
    """Count the columnar block sweeps run while the test is active."""
    calls = []
    real = columnar.columnar_block_search

    def spy(*args, **kwargs):
        calls.append(args[0].name)
        return real(*args, **kwargs)

    monkeypatch.setattr(columnar, "columnar_block_search", spy)
    return calls


@pytest.fixture
def server(tmp_path):
    srv = PlannerServer(
        PlannerService(tmp_path, workers=None), port=0
    ).start_background()
    yield srv
    srv.shutdown()


class TestColumnarIsTheDefault:
    def test_derive_plan(self, clip_nodes, columnar_sweeps):
        result = derive_plan(clip_nodes, MESH)
        assert columnar_sweeps
        # the reference loop leaves the columnar counters at zero
        assert result.cache_hits >= result.candidates_examined > 0

    def test_plan_request(self, clip_nodes, columnar_sweeps):
        result = plan_request(clip_nodes, MESH)
        assert columnar_sweeps
        assert result.cache_hits > 0

    def test_auto_parallel(self, columnar_sweeps):
        model = auto_parallel(build_preset("clip_base"), MESH,
                              batch_tokens=1024)
        assert columnar_sweeps
        assert model.search.cache_hits > 0

    def test_plan_request_dataclass(self):
        assert REQ.engine == "columnar"
        assert REQ.to_doc()["engine"] == "columnar"

    def test_service_worker(self, columnar_sweeps):
        reply = execute_request(REQ.to_doc())
        assert columnar_sweeps
        assert json.loads(reply["envelope"])["engine"] == "columnar"

    def test_cli_plan(self, capsys, columnar_sweeps):
        assert main(CLI_PLAN) == 0
        assert columnar_sweeps
        assert "columnar: " in capsys.readouterr().out

    def test_cli_plan_remote(self, capsys, server, columnar_sweeps):
        assert main(CLI_PLAN + ["--remote", server.url]) == 0
        assert columnar_sweeps
        assert "[columnar tier]" in capsys.readouterr().out


RETIRED = [True, False, "engine"]


class TestRetiredSpellings:
    @pytest.mark.parametrize("engine", RETIRED)
    def test_derive_plan_rejects(self, clip_nodes, engine):
        with pytest.raises(ValueError, match="'reference', 'columnar'"):
            derive_plan(clip_nodes, MESH, engine=engine)

    @pytest.mark.parametrize("engine", RETIRED)
    def test_plan_request_rejects(self, engine):
        with pytest.raises(ValueError, match="'reference', 'columnar'"):
            PlanRequest(model="clip_base", engine=engine)

    def test_http_plan_body_naming_engine_gets_400(self, server):
        client = PlannerClient(server.url)
        with pytest.raises(ServiceError, match="400"):
            client._call("/plan", dict(REQ.to_doc(), engine="engine"))

    def test_cli_rejects_engine_tier(self, capsys):
        with pytest.raises(SystemExit):
            main(CLI_PLAN + ["--engine", "engine"])
        assert "invalid choice: 'engine'" in capsys.readouterr().err

    def test_envelope_from_the_engine_tier_still_hits(self, tmp_path):
        """A disk entry written by the retired tier is served as a hit:
        the tier is provenance in the envelope, not part of the key."""
        with PlannerService(tmp_path, workers=None) as svc:
            fresh = svc.plan(REQ)
        path = tmp_path / f"{fresh.key}.json"
        doc = json.loads(path.read_text())
        assert doc["engine"] == "columnar"
        doc["engine"] = "engine"
        path.write_text(json.dumps(doc, sort_keys=True))
        with PlannerService(tmp_path, workers=None) as svc:
            again = svc.plan(REQ)
        assert again.source == "disk" and again.cached
        assert again.envelope.engine == "engine"
        assert again.key == fresh.key
        assert again.envelope.routed == fresh.envelope.routed
