"""HTTP surface: endpoints, status codes, client, graceful shutdown."""

import time
import urllib.error
import urllib.request

import pytest

from repro.service import (
    PlannerClient,
    PlannerServer,
    PlannerService,
    PlanRequest,
    ServiceError,
)

REQ = PlanRequest(model="clip_base", mesh_nodes=2, mesh_gpus=8,
                  batch_tokens=8192)


@pytest.fixture
def server(tmp_path):
    srv = PlannerServer(
        PlannerService(tmp_path, workers=None), port=0
    ).start_background()
    yield srv
    srv.shutdown()


def test_plan_roundtrip_and_cache_hit(server):
    client = PlannerClient(server.url)
    assert client.health()
    a = client.plan(REQ)
    b = client.plan(REQ)
    assert a["source"] == "search" and not a["cached"]
    assert b["source"] == "memory" and b["cached"]
    assert a["key"] == b["key"] == a["envelope"]["key"]
    # the full envelope crosses the wire bit-identically
    assert a["envelope"] == b["envelope"]
    assert a["engine"] == "columnar"
    assert a["cost"] > 0 and "search_seconds" in a["timings"]


def test_stats_endpoint(server):
    client = PlannerClient(server.url)
    client.plan(REQ)
    stats = client.stats()
    assert stats["counters"]["requests"] == 1
    assert stats["cache"]["disk_entries"] == 1


def test_bad_requests_get_400(server):
    client = PlannerClient(server.url)
    with pytest.raises(ServiceError, match="400"):
        client._call("/plan", {"model": "no_such_preset"})
    with pytest.raises(ServiceError, match="400"):
        client._call("/plan", {"model": "clip_base", "bogus": 1})
    with pytest.raises(ServiceError, match="404"):
        client._call("/nope")
    # malformed JSON body
    url = f"{server.url}/plan"
    req = urllib.request.Request(
        url, data=b"{not json", headers={"Content-Type": "application/json"}
    )
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(req, timeout=10)
    assert err.value.code == 400


def test_remote_shutdown_stops_server(tmp_path):
    server = PlannerServer(
        PlannerService(tmp_path, workers=None), port=0
    ).start_background()
    client = PlannerClient(server.url)
    assert client.health()
    client.shutdown()
    for _ in range(100):
        if not client.health(timeout=1):
            break
        time.sleep(0.05)
    assert not client.health(timeout=1)
