"""Daemon lifecycle and the synchronous endpoints over real HTTP."""

from __future__ import annotations

import pytest

from repro.schemas import (
    SCHEMA_RUN,
    SCHEMA_SERVICE_METRICS,
    SCHEMA_SERVICE_STATUS,
    SCHEMA_TRACE,
    validate_envelope,
)


def test_status_and_metrics(daemon):
    """A freshly booted daemon introspects itself with valid envelopes."""
    _, client = daemon()
    status, payload, _ = client.request("GET", "/status")
    assert status == 200
    assert validate_envelope(payload)["schema"] == SCHEMA_SERVICE_STATUS
    service = payload["service"]
    assert service["pool"]["jobs"] >= 2
    assert service["jobs"] == {
        "queued": 0, "running": 0, "done": 0, "failed": 0, "cancelled": 0,
    }
    assert SCHEMA_RUN in service["schemas"]

    status, payload, _ = client.request("GET", "/metrics")
    assert status == 200
    assert validate_envelope(payload)["schema"] == SCHEMA_SERVICE_METRICS
    # the /status request above has already been observed
    assert payload["metrics"]["service.requests"]["data"] >= 1
    assert payload["latency"]["count"] >= 1


def test_zero_repro_jobs_is_rejected(monkeypatch):
    """``REPRO_JOBS=0`` (or negative) is a usage error everywhere since
    PR 5 — the daemon must raise, not silently reinterpret it as 2."""
    from repro.service.server import _default_jobs

    monkeypatch.setenv("REPRO_JOBS", "0")
    with pytest.raises(ValueError, match="positive integer"):
        _default_jobs()
    monkeypatch.setenv("REPRO_JOBS", "-3")
    with pytest.raises(ValueError, match="positive integer"):
        _default_jobs()
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert _default_jobs() == 3
    monkeypatch.setenv("REPRO_JOBS", "1")
    assert _default_jobs() == 2  # the 2-worker floor still applies


def test_sub_millisecond_latency_is_not_read_as_zero():
    """Latency buckets are 0.1 ms, so fast memo hits report a real p50."""
    from repro.service import ServiceConfig
    from repro.service.server import SimulationService

    service = SimulationService(ServiceConfig(jobs=2))
    try:
        for elapsed in (0.00031, 0.00038, 0.00042):
            service.observe_request("run", 200, elapsed)
        assert service.metrics_payload()["latency"]["p50_ms"] == 0.4
        assert service._saturation_retry_after() == 1.0
    finally:
        service.shutdown()


def test_sync_run_round_trip(daemon):
    """``POST /run`` answers a ``repro.run/v1`` envelope from a pool worker."""
    _, client = daemon()
    status, payload, _ = client.request(
        "POST", "/run", {"benchmark": "compress", "mode": "V", "scale": 3_170}
    )
    assert status == 200
    assert validate_envelope(payload)["schema"] == SCHEMA_RUN
    assert payload["ok"] is True
    assert payload["point"]["benchmark"] == "compress"
    assert payload["stats"]["committed"] > 0


def test_sync_trace_round_trip(daemon):
    """``POST /trace`` answers a ``repro.trace/v1`` envelope with events."""
    _, client = daemon()
    status, payload, _ = client.request(
        "POST", "/trace",
        {"benchmark": "compress", "mode": "V", "scale": 2_130, "limit": 25},
    )
    assert status == 200
    assert validate_envelope(payload)["schema"] == SCHEMA_TRACE
    assert payload["ok"] is True
    assert 0 < len(payload["events"]) <= 25


def test_bad_requests_answer_400_envelopes(daemon):
    """Malformed bodies and invalid points map to 400 + repro.error/v1."""
    _, client = daemon()
    cases = [
        ("POST", "/run", b"", "request.malformed"),          # empty body
        ("POST", "/run", b"{not json", "request.malformed"),  # invalid JSON
        ("POST", "/run", b"[1, 2]", "request.malformed"),     # non-object
    ]
    for method, path, body, kind in cases:
        status, raw, _ = client.raw(method, path, body)
        import json

        payload = json.loads(raw)
        assert status == 400, payload
        info = validate_envelope(payload)
        assert info["name"] == "repro.error"
        assert payload["error"]["kind"] == kind

    status, payload, _ = client.request("POST", "/run", {"benchmark": "nope"})
    assert status == 400
    assert payload["error"]["kind"] == "benchmark.unknown"

    status, payload, _ = client.request(
        "POST", "/run", {"benchmark": "compress", "width": 7}
    )
    assert status == 400
    assert payload["error"]["kind"] == "request.invalid"


def test_unknown_routes_answer_404_envelopes(daemon):
    _, client = daemon()
    for method, path in (("GET", "/nope"), ("POST", "/nope")):
        status, payload, _ = client.request(
            method, path, {} if method == "POST" else None
        )
        assert status == 404
        assert validate_envelope(payload)["name"] == "repro.error"
        assert payload["error"]["kind"] == "http.not_found"

    status, payload, _ = client.request("GET", "/jobs/doesnotexist")
    assert status == 404
    assert payload["error"]["kind"] == "job.unknown"


def test_shutdown_is_clean(daemon):
    """Booting and tearing down leaves no stuck threads (the fixture
    joins the job workers; a hang here fails the test run)."""
    server, client = daemon()
    status, _, _ = client.request("GET", "/status")
    assert status == 200
    server.shutdown()
    server.server_close()
    server.service.shutdown()
