"""The stable ``repro.api`` facade and its versioned JSON schemas."""

from __future__ import annotations

import json

import pytest

import repro
from repro import api
from repro.experiments import runner
from repro.experiments.registry import FIGURES, FigureSpec, get_figure

SCALE = 2_000


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    runner.clear_memo()
    yield
    runner.clear_memo()


def test_simulate_returns_run_result():
    result = api.simulate("li", scale=SCALE)
    assert result.benchmark == "li"
    assert result.stats.committed == SCALE
    assert result.ipc > 0
    payload = result.to_dict()
    assert payload["schema"] == "repro.run/v1"
    assert payload["point"]["benchmark"] == "li"
    assert payload["stats"]["committed"] == SCALE
    assert payload["derived"]["ipc"] == pytest.approx(result.ipc)
    json.dumps(payload)  # schema must be JSON-serializable


def test_simulate_rejects_unknown_benchmark():
    with pytest.raises(ValueError, match="unknown benchmark"):
        api.simulate("mcf")


def test_simulate_with_metrics_attaches_registry_payload():
    result = api.simulate("li", scale=SCALE, metrics=True)
    assert result.metrics is not None
    assert result.metrics["sim.committed"]["data"] == SCALE


def test_simulate_sampling_accepts_tuples():
    result = api.simulate("li", scale=3_000, sampling=(200, 1_000))
    assert result.sampling == (200, 1_000)
    assert result.stats.sampled_windows > 0


def test_grid_returns_report_with_runs_and_metrics():
    points = [("li", 4, 1, "V", SCALE), ("compress", 4, 1, "V", SCALE)]
    report = api.grid(points, jobs=1, metrics=True)
    assert len(report) == 2
    assert report.accounting.requested == 2
    total = sum(run.stats.committed for run in report.runs)
    assert report.metrics.counter("sim.committed").value == total
    payload = report.to_dict()
    assert payload["schema"] == "repro.grid/v1"
    assert payload["accounting"]["requested"] == 2
    assert len(payload["runs"]) == 2
    json.dumps(payload)


def test_grid_sampling_override_applies_to_every_point():
    report = api.grid([("li", 4, 1, "V", 3_000)], jobs=1, sampling=(200, 1_000))
    (run,) = report.runs
    assert run.sampling == (200, 1_000)
    assert run.stats.sampled_windows > 0


def test_trace_captures_events_and_cross_checks():
    report = api.trace(
        "turb3d", width=8, ports=2, scale=4_000, events=["validation", "squash"]
    )
    assert report.events, "a V-mode trace must capture events"
    kinds = {event.kind for event in report.events}
    assert "validate.pass" in kinds
    checks = report.crosscheck()
    assert checks and all(check["match"] for check in checks.values())
    # filtered-out kinds are not cross-checked (they were never counted)
    assert "tl.promote" not in checks
    payload = report.to_dict()
    assert payload["schema"] == "repro.trace/v1"
    assert payload["capture"]["emitted"] >= len(payload["events"])
    json.dumps(payload)


@pytest.mark.parametrize("mode", ["V", "IM"])
def test_sampled_trace_cross_checks_against_the_detailed_windows(mode):
    # Sampled SimStats are weighted estimates; the events must instead
    # add up to the unweighted counters of the windows that ran.
    report = api.trace("swim", mode=mode, scale=6_000, sampling=(500, 2_000))
    assert report.result.stats.sampled_windows == 3
    checks = report.crosscheck()
    assert len(checks) == 5
    assert all(check["match"] for check in checks.values()), checks
    assert checks["flush.branch"]["events"] > 0


def test_sampled_trace_cross_checks_under_a_filter_and_a_full_ring():
    report = api.trace(
        "swim", scale=6_000, sampling=(300, 1_500),
        events=["validation"], capacity=4,
    )
    assert report.bus_summary["dropped"] > 0
    assert "sample.window" in report.bus_summary["kinds"]
    checks = report.crosscheck()
    assert set(checks) == {"validate.pass", "validate.fail"}
    assert all(check["match"] for check in checks.values()), checks
    assert checks["validate.pass"]["events"] > 0


def test_trace_rejects_unknown_event_filter():
    with pytest.raises(ValueError, match="unknown event filter"):
        api.trace("li", scale=SCALE, events=["bogus"])


def test_figure_resolves_specs_and_computes_rows():
    spec = get_figure("fig14")
    assert isinstance(spec, FigureSpec)
    with pytest.raises(KeyError, match="unknown figure"):
        get_figure("fig99")
    result = api.figure("fig14", scale=SCALE, jobs=1)
    assert set(result.rows) >= {"li", "swim"}
    payload = result.to_dict()
    assert payload["schema"] == "repro.figure/v1"
    assert payload["figure"]["name"] == "fig14"


def test_registry_covers_all_known_figures():
    assert set(FIGURES) == {
        "fig01", "fig03", "fig07", "fig09", "fig10",
        "fig11_4way", "fig11_8way", "fig12_4way", "fig12_8way",
        "fig13", "fig14", "fig15",
    }
    for spec in FIGURES.values():
        assert callable(spec.rows) and callable(spec.points)


def test_top_level_exports():
    assert repro.simulate is api.simulate
    assert repro.grid is api.grid
    assert repro.trace is api.trace
    assert repro.api is api
