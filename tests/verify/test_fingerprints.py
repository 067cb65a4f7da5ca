"""The behaviour contract: the 60-point grid's SimStats are pinned.

Every benchmark under five machine shapes (12 x 5 points at scale 1500)
must reproduce ``seed_fingerprints.json`` bit-for-bit.  Refactors of the
timing model are pure restructurings, so current results must equal the
pinned ones, for bare runs and for runs observed by a metrics registry
and a stage profiler alike (observation only reads clocks and counters).
"""

import dataclasses
import json
import pathlib

import pytest

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


@pytest.mark.parametrize("observed", [False, True], ids=["bare", "observed"])
def test_sixty_point_grid_matches_pinned_fingerprints(observed):
    assert _FINGERPRINTS["scale"] == GRID_SCALE
    points = _FINGERPRINTS["points"]
    for name in ALL_BENCHMARKS:
        trace = cached_trace(name, GRID_SCALE)
        for width, ports, mode in GRID_CONFIGS:
            observer = (
                Observer(metrics=MetricsRegistry(), profiler=StageProfiler())
                if observed
                else None
            )
            stats = Machine(
                make_config(width, ports, mode), trace, observer=observer
            ).run()
            pinned = points[f"{name}/{width}w{ports}p/{mode}"]
            assert dataclasses.asdict(stats) == pinned, (
                f"semantics drift at {name}/{width}w{ports}p{mode}"
            )
