"""Backend parity: the execution substrate must never change the physics.

The same 60-point grid (all 12 benchmarks x 5 configurations spanning
both widths and all three modes) runs through ``LocalPoolBackend`` and
``SubprocessBackend`` from cold caches, and every ``SimStats`` field must
come out bit-identical: sharding, the framed wire protocol and the
cache-mediated result exchange are transport, not semantics.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments import runner
from repro.experiments.distributed import LocalPoolBackend, SubprocessBackend
from repro.experiments.parallel import GridPoint, GridReport, run_grid
from repro.verify import faults
from repro.workloads import ALL_BENCHMARKS

SCALE = 1_500

#: five configurations covering both widths, all port counts, all modes.
CONFIGS = [
    (4, 1, "noIM"),
    (4, 1, "IM"),
    (4, 2, "V"),
    (8, 2, "V"),
    (8, 4, "V"),
]

#: 12 benchmarks x 5 configurations = the 60-point parity grid.
POINTS = [
    GridPoint(name, width, ports, mode, SCALE)
    for name in ALL_BENCHMARKS
    for width, ports, mode in CONFIGS
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


def _run_backend(tmp_path, monkeypatch, backend, cache_name):
    """One cold run through ``backend`` in its own private disk cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / cache_name))
    runner.clear_memo()
    report = GridReport()
    with backend:
        results = run_grid(POINTS, backend=backend, report=report)
    assert report.ok, report.failed
    assert report.simulated == len(POINTS)
    return _fingerprints(results)


def test_sixty_point_grid_identical_through_both_backends(fresh_state, monkeypatch):
    local = _run_backend(fresh_state, monkeypatch, LocalPoolBackend(jobs=2), "local")
    distributed = _run_backend(
        fresh_state, monkeypatch, SubprocessBackend(nodes=2), "dist"
    )
    assert set(local) == set(POINTS)
    assert local == distributed
