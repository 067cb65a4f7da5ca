"""The behaviour contract: the 60-point grid's SimStats are pinned.

Every benchmark under five machine shapes (12 x 5 points at scale 1500)
must reproduce ``seed_fingerprints.json`` bit-for-bit.  Refactors of the
timing model are pure restructurings, so current results must equal the
pinned ones, for bare runs and for runs observed by a metrics registry
and a stage profiler alike (observation only reads clocks and counters).
The ``pool`` case runs the same points through the worker-pool fabric
from an empty disk cache: pickling results across the process boundary
is transport, not semantics.
"""

import dataclasses
import json
import pathlib

import pytest

from repro.experiments import runner
from repro.experiments.parallel import GridPoint, GridReport, run_grid
from repro.observe import MetricsRegistry, Observer, StageProfiler
from repro.pipeline.config import make_config
from repro.pipeline.machine import Machine
from repro.workloads.spec95 import ALL_BENCHMARKS, cached_trace

#: the fingerprint grid: every benchmark under five machine shapes.
GRID_CONFIGS = ((4, 1, "noIM"), (4, 1, "IM"), (4, 1, "V"), (8, 1, "V"), (4, 4, "V"))
GRID_SCALE = 1500

_FINGERPRINTS = json.loads(
    (pathlib.Path(__file__).parent / "seed_fingerprints.json").read_text()
)


def _machine_results(observed):
    results = {}
    for name in ALL_BENCHMARKS:
        trace = cached_trace(name, GRID_SCALE)
        for width, ports, mode in GRID_CONFIGS:
            observer = (
                Observer(metrics=MetricsRegistry(), profiler=StageProfiler())
                if observed
                else None
            )
            results[name, width, ports, mode] = Machine(
                make_config(width, ports, mode), trace, observer=observer
            ).run()
    return results


def _pool_results(cache_dir, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
    monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    runner.clear_memo()
    points = [
        GridPoint(name, width, ports, mode, GRID_SCALE)
        for name in ALL_BENCHMARKS
        for width, ports, mode in GRID_CONFIGS
    ]
    report = GridReport()
    try:
        results = run_grid(points, jobs=2, report=report)
    finally:
        runner.clear_memo()
    assert report.ok, report.failed
    assert report.simulated == len(points)
    return {tuple(point[:4]): stats for point, stats in results.items()}


@pytest.mark.parametrize("path", ["bare", "observed", "pool"])
def test_sixty_point_grid_matches_pinned_fingerprints(path, tmp_path, monkeypatch):
    assert _FINGERPRINTS["scale"] == GRID_SCALE
    points = _FINGERPRINTS["points"]
    if path == "pool":
        results = _pool_results(tmp_path / "cache", monkeypatch)
    else:
        results = _machine_results(observed=path == "observed")
    assert len(results) == len(points) == 60
    for (name, width, ports, mode), stats in results.items():
        pinned = points[f"{name}/{width}w{ports}p/{mode}"]
        assert dataclasses.asdict(stats) == pinned, (
            f"semantics drift at {name}/{width}w{ports}p{mode}"
        )
