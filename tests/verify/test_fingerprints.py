"""The behaviour contract: the 60-point grid's SimStats are pinned.

Every benchmark under five machine shapes (12 x 5 points at scale 1500)
must reproduce ``seed_fingerprints.json`` bit-for-bit.  Refactors of the
timing model are pure restructurings, so current results must equal the
pinned ones, for bare runs and for runs observed by a metrics registry
and a stage profiler alike (observation only reads clocks and counters).
The ``pool`` case runs the same points through the worker-pool fabric
from an empty disk cache: pickling results across the process boundary
is transport, not semantics.

Sampled mode has its own pin, ``sampled_fingerprints.json``: every
benchmark under the three 4-wide 1-port modes at scale 6000, cut into a
2000-entry head and two 500-entry windows, warmed in-process (no
checkpoints).  How a window is carved out of the trace is mechanics; the
weighted estimate it yields is not.
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
from repro.sampling import SamplingConfig, run_sampled
from repro.workloads.spec95 import ALL_BENCHMARKS, cached_trace

#: the fingerprint grid: every benchmark under five machine shapes.
GRID_CONFIGS = ((4, 1, "noIM"), (4, 1, "IM"), (4, 1, "V"), (8, 1, "V"), (4, 4, "V"))
GRID_SCALE = 1500

#: the sampled grid: three modes per benchmark, sampled at a longer scale.
SAMPLED_CONFIGS = ((4, 1, "noIM"), (4, 1, "IM"), (4, 1, "V"))
SAMPLED_SCALE = 6000
SAMPLING = SamplingConfig(window=500, interval=2000, use_checkpoints=False)

_HERE = pathlib.Path(__file__).parent
_FINGERPRINTS = json.loads((_HERE / "seed_fingerprints.json").read_text())
_SAMPLED_FINGERPRINTS = json.loads(
    (_HERE / "sampled_fingerprints.json").read_text()
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


def sampled_results():
    """``{"<name>/<w>w<p>p/<mode>": asdict(SimStats)}`` over the sampled grid."""
    results = {}
    for name in ALL_BENCHMARKS:
        trace = cached_trace(name, SAMPLED_SCALE)
        for width, ports, mode in SAMPLED_CONFIGS:
            stats = run_sampled(make_config(width, ports, mode), trace, SAMPLING)
            results[f"{name}/{width}w{ports}p/{mode}"] = dataclasses.asdict(stats)
    return results


def test_sampled_grid_matches_pinned_fingerprints():
    pinned = _SAMPLED_FINGERPRINTS
    assert pinned["scale"] == SAMPLED_SCALE
    assert pinned["sampling"] == SAMPLING.fingerprint()
    results = sampled_results()
    assert len(results) == len(pinned["points"]) == 36
    for key, stats in results.items():
        assert stats["sampled_windows"] == 3
        assert stats == pinned["points"][key], f"sampled drift at {key}"
