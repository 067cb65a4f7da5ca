"""``cached_trace`` is an in-process memo: traces are rebuilt, not persisted.

Rebuilding a functional trace costs less than storing or loading it
(docs/PERFORMANCE.md), so the contract is:

* a cold call writes nothing under ``$REPRO_CACHE_DIR``;
* a repeat call returns the memoized object itself, without re-running
  the program or re-decoding the trace;
* grid points computed from a fresh cache directory still reproduce the
  pinned 60-point fingerprints.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.functional.trace as trace_mod
from repro.experiments import runner
from repro.workloads import spec95
from repro.workloads.spec95 import ALL_BENCHMARKS, cached_trace

from ..verify.test_fingerprints import _FINGERPRINTS, GRID_CONFIGS, GRID_SCALE


@pytest.fixture
def fresh(tmp_path, monkeypatch):
    """An empty, enabled cache directory and cold in-process memos."""
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
    monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)
    cached_trace.cache_clear()
    runner.clear_memo()
    yield cache_dir
    cached_trace.cache_clear()
    runner.clear_memo()


def test_cold_trace_writes_nothing_to_disk(fresh):
    cached_trace("li", GRID_SCALE).soa()
    assert not fresh.exists()


def test_repeat_call_returns_the_memoized_trace(fresh, monkeypatch):
    runs = []
    real_run_program = spec95.run_program

    def counting_run_program(*args, **kwargs):
        runs.append(args)
        return real_run_program(*args, **kwargs)

    monkeypatch.setattr(spec95, "run_program", counting_run_program)
    first = cached_trace("li", GRID_SCALE)
    first.soa()
    assert len(runs) == 1
    soa_builds = trace_mod.SOA_BUILDS

    second = cached_trace("li", GRID_SCALE)
    assert second is first
    assert second.soa() is first.soa()
    assert len(runs) == 1
    assert trace_mod.SOA_BUILDS == soa_builds


def test_fresh_cache_points_match_pinned_fingerprints(fresh):
    points = _FINGERPRINTS["points"]
    for name in ALL_BENCHMARKS:
        for width, ports, mode in GRID_CONFIGS:
            stats = runner.compute_point((name, width, ports, mode, GRID_SCALE, True, None))
            assert dataclasses.asdict(stats) == points[f"{name}/{width}w{ports}p/{mode}"], (
                f"{name}/{width}w{ports}p/{mode}"
            )
