"""Resume correctness: a killed campaign recomputes only what's missing.

``point_budget`` is the deterministic stand-in for "kill the process at
point k": a budgeted invocation completes exactly k points, checkpoints
the manifest, and exits — the state a SIGKILL would have left behind
(the manifest checkpoint plus the per-point disk-cache entries).  The
memo is cleared between invocations so the resumed run stands in for a
fresh process and the recovery is honestly counted as disk hits.

Asserted every time: only the missing/quarantined points recompute
(``simulated``), ``resume_skipped`` matches the completed prefix (and
the ``dist.resume_skipped`` metric), and the final stats are
bit-identical to a single uninterrupted run.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import api
from repro.experiments import runner
from repro.experiments.campaign import campaign_id, load_manifest
from repro.experiments.parallel import GridPoint, run_grid
from repro.schemas import validate_envelope
from repro.verify import faults

SCALE = 1_500

POINTS = [
    GridPoint("li", 4, 1, "V", SCALE),
    GridPoint("li", 4, 1, "noIM", SCALE),
    GridPoint("compress", 4, 1, "V", SCALE),
    GridPoint("compress", 4, 1, "noIM", SCALE),
    GridPoint("go", 4, 1, "V", SCALE),
    GridPoint("go", 4, 1, "noIM", SCALE),
]


@pytest.fixture
def fresh_state(tmp_path, monkeypatch):
    """Cold memo, private enabled disk cache, nothing armed."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_TASK_TIMEOUT", raising=False)
    monkeypatch.delenv("REPRO_MAX_RETRIES", raising=False)
    runner.clear_memo()
    faults.clear()
    yield tmp_path
    faults.clear()
    runner.clear_memo()


def _fingerprints(results):
    return {p: dataclasses.asdict(s) for p, s in results.items()}


def _reference(tmp_path, monkeypatch):
    """Fault-free serial fingerprints, computed in a throwaway cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "reference-cache"))
    reference = _fingerprints(run_grid(POINTS, jobs=1))
    runner.clear_memo()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return reference


@pytest.mark.parametrize("k", [0, 3, len(POINTS) - 1])
def test_killed_at_point_k_resumes_exactly(k, fresh_state, monkeypatch):
    reference = _reference(fresh_state, monkeypatch)

    first = api.campaign(POINTS, jobs=1, point_budget=k)
    assert not first.ok
    assert first.result.manifest.counts()["done"] == k
    assert first.accounting.simulated == k
    envelope = first.to_dict()
    validate_envelope(envelope)
    assert envelope["ok"] is False
    assert envelope["error"]["kind"] == "campaign.incomplete"
    assert envelope["campaign"]["pending"] == len(POINTS) - k

    # A resumed run is a fresh process: no memo, only the disk cache.
    runner.clear_memo()
    second = api.campaign_resume(first.campaign_id, jobs=1, metrics=True)
    assert second.ok
    assert second.accounting.resume_skipped == k
    assert second.accounting.disk_hits == k
    assert second.accounting.simulated == len(POINTS) - k
    if k:
        assert second.metrics.counter("dist.resume_skipped").value == k
    envelope = second.to_dict()
    validate_envelope(envelope)
    assert envelope["resume"] == {"skipped": k, "recomputed": len(POINTS) - k}
    assert envelope["campaign"]["done"] == len(POINTS)
    assert _fingerprints(second.stats()) == reference

    manifest = load_manifest(first.campaign_id)
    assert manifest is not None
    assert all(state == "done" for state in manifest.state)


def test_same_points_any_order_name_the_same_campaign(fresh_state):
    cid = campaign_id(POINTS)
    assert campaign_id(list(reversed(POINTS))) == cid
    assert campaign_id(POINTS + POINTS[:2]) == cid  # dedup folds in


def test_rerun_on_same_points_transparently_resumes(fresh_state, monkeypatch):
    """``run_campaign`` needs no id: the points *are* the identity."""
    reference = _reference(fresh_state, monkeypatch)
    api.campaign(POINTS, jobs=1, point_budget=2)
    runner.clear_memo()
    # Same call again, no budget, no id — picks the manifest back up.
    again = api.campaign(POINTS, jobs=1)
    assert again.ok
    assert again.accounting.resume_skipped == 2
    assert again.accounting.simulated == len(POINTS) - 2
    assert _fingerprints(again.stats()) == reference


def test_quarantined_point_recomputes_on_resume(fresh_state, monkeypatch):
    """A failed point re-enters with a fresh retry budget; done points
    are not touched."""
    reference = _reference(fresh_state, monkeypatch)
    faults.install([
        {
            "site": "grid.point",
            "action": "raise",
            "match": {"benchmark": "li", "mode": "V"},
        }
    ])
    first = api.campaign(POINTS, jobs=1, max_retries=0)
    assert not first.ok
    counts = first.result.manifest.counts()
    assert counts["failed"] == 1
    assert counts["done"] == len(POINTS) - 1
    envelope = first.to_dict()
    validate_envelope(envelope)
    assert envelope["error"]["kind"] == "campaign.failure"
    assert envelope["error"]["retriable"] is True

    faults.clear()
    runner.clear_memo()
    second = api.campaign_resume(first.campaign_id, jobs=1)
    assert second.ok
    assert second.accounting.simulated == 1  # only the quarantined point
    assert second.accounting.resume_skipped == len(POINTS) - 1
    assert _fingerprints(second.stats()) == reference
