"""Serial, in-process replays of a workload's inputs.

A replay runs the same points or requests a workload's timed rounds
send, one after another in the benchmark process, against an empty
cache directory.  It serves twice: untraced, its statistics are the
reference every round's output is compared with; traced (inside
:func:`perfbench.spans.instrument`), its spans give the per-layer
times.  Replays of the same inputs return identical statistics.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.experiments import diskcache, runner
from repro.experiments.diskcache import stats_to_dict
from repro.observe import STAGES, Histogram, MetricsRegistry, Observer, StageProfiler
from repro.pipeline.machine import Machine
from repro import sampling
from repro.service import wire
from repro.workloads import spec95

from perfbench.inputs import point_body, sweep_order
from perfbench.measure import canonical_stats, point_key
from perfbench.spans import SpanRecorder

#: one replayed operation: request id, kind, and the call returning (key, SimStats).
Op = Tuple[str, str, Callable]


@dataclass
class Replay:
    #: point key (or long-point run kind) -> canonical stats.
    stats: Dict[str, str] = field(default_factory=dict)
    #: request id -> (kind, key, wall seconds).
    ops: Dict[str, Tuple[str, str, float]] = field(default_factory=dict)
    #: wall seconds of all operations (set-up excluded).
    wall_s: float = 0.0
    #: keys whose repeated answers disagreed within this replay.
    inconsistent: List[str] = field(default_factory=list)


def fresh_state(cache_dir) -> None:
    """An empty cache directory and empty in-process memo/trace caches."""
    os.makedirs(cache_dir, exist_ok=True)
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    runner.clear_memo()
    spec95.cached_trace.cache_clear()


def _config(point):
    _, width, ports, mode, _, block, _ = point
    return runner.point_config(width, ports, mode, block)


def _long_sampling(inputs: Dict) -> sampling.SamplingConfig:
    window, interval = inputs["sampling"]
    return sampling.SamplingConfig(window=window, interval=interval, use_checkpoints=False)


def _sweep_ops(inputs: Dict, seed: int) -> List[Op]:
    order = sweep_order(seed, 0, inputs["points"])
    return [
        (f"p{i}", "point", lambda point=point: (point_key(point), runner.compute_point(tuple(point))))
        for i, point in enumerate(order)
    ]


def _long_ops(inputs: Dict) -> List[Op]:
    # Set-up, as in a timed round: the traces are built before any op runs.
    traces = {kind: spec95.cached_trace(inputs[kind][0], inputs[kind][4]) for kind in ("scalar", "v")}
    config = _long_sampling(inputs)

    def exact(kind):
        return kind, Machine(_config(inputs[kind]), traces[kind]).run()

    def sampled(kind):
        # Through the package attribute, so an instrumented replay sees the call.
        return f"sampled_{kind}", sampling.run_sampled(_config(inputs[kind]), traces[kind], config)

    return [
        ("scalar", "exact", lambda: exact("scalar")),
        ("v", "exact", lambda: exact("v")),
        ("sampled_scalar", "sampled", lambda: sampled("scalar")),
        ("sampled_v", "sampled", lambda: sampled("v")),
    ]


def serve_requests(inputs: Dict) -> List[Tuple[str, Dict]]:
    """Every ``/run`` item in a causal serial order: both preludes, then
    each client's mix (a client's hits only repeat what it saw answered)."""
    items = []
    for phase in ("prelude", "mix"):
        for c, schedule in enumerate(inputs["clients"]):
            for j, item in enumerate(schedule[phase]):
                items.append((f"c{c}.{phase}.{j}", item))
    return items


def _serve_ops(inputs: Dict) -> List[Op]:
    # Straight to the runner, not through api.grid: the reference must
    # not share the fabric code path whose answers it checks.
    def answer(body):
        params, _ = wire.parse_run_request(body)
        point = params["point"]
        stats = runner.run_point(
            point.name, point.width, point.ports, point.mode, point.scale,
            point.block_on_scalar_operand, sampling=runner.sampling_from_key(point.sampling),
        )
        return point_key(list(point)), stats

    return [
        (rid, item["kind"], lambda body=point_body(item["point"]): answer(body))
        for rid, item in serve_requests(inputs)
    ]


def replay(
    workload: str,
    inputs: Dict,
    seed: int,
    cache_dir,
    recorder: Optional[SpanRecorder] = None,
    instrument=None,
) -> Replay:
    """Run ``workload``'s inputs serially from cold state.

    With ``recorder`` and ``instrument`` (a context-manager factory such
    as :func:`perfbench.spans.instrument`), each operation is a root
    span carrying its request id and the program's layer calls nest
    under it; set-up runs before instrumentation starts.
    """
    fresh_state(cache_dir)
    if workload == "sweep-cold":
        ops = _sweep_ops(inputs, seed)
    elif workload == "long-point":
        ops = _long_ops(inputs)
    else:
        ops = _serve_ops(inputs)
    out = Replay()
    diskcache.COUNTERS.reset()  # count the operations, not the set-up
    context = instrument(recorder) if instrument is not None else contextlib.nullcontext()
    with context:
        start = time.perf_counter()
        for rid, kind, call in ops:
            t0 = time.perf_counter()
            if recorder is not None:
                with recorder.span("replay.op", request=rid):
                    key, stats = call()
            else:
                key, stats = call()
            elapsed = time.perf_counter() - t0
            canon = canonical_stats(stats_to_dict(stats))
            if out.stats.setdefault(key, canon) != canon:
                out.inconsistent.append(key)
            out.ops[rid] = (kind, key, elapsed)
        out.wall_s = time.perf_counter() - start
    return out


def profile_points(points: List) -> Dict:
    """Exact runs of ``points`` under a :class:`StageProfiler` and a
    metrics registry (the stepped, observed loop — not the fused loop
    unobserved runs use).  Traces come from the warm in-process cache."""
    stage_s = {stage: 0.0 for stage in STAGES}
    kernel, engine = Histogram(), Histogram()
    wall = 0.0
    for point in points:
        observer = Observer(metrics=MetricsRegistry(), profiler=StageProfiler())
        trace = spec95.cached_trace(point[0], point[4])
        start = time.perf_counter()
        Machine(_config(point), trace, observer=observer).run()
        wall += time.perf_counter() - start
        for stage, seconds in observer.profiler.stage_seconds.items():
            stage_s[stage] += seconds
        kernel.merge(observer.metrics.histogram("kernel.batch_size"))
        engine.merge(observer.metrics.histogram("engine.batch_size"))
    return {
        "wall_s": wall,
        "stage_s": stage_s,
        "kernel": batch_summary(kernel),
        "engine": batch_summary(engine),
    }


def batch_summary(hist) -> Dict:
    """Operation-weighted median batch width, batch count and maximum.

    The median is the width the median *operation* rode in, so one
    1000-wide batch plus one 1-wide batch reports 1000.
    """
    counts = hist.counts
    if not counts:
        return {"batches": 0, "median": 0, "max": 0}
    weighted = sorted((value, value * count) for value, count in counts.items())
    half = sum(w for _, w in weighted) / 2.0
    seen = 0.0
    median = weighted[-1][0]
    for value, weight in weighted:
        seen += weight
        if seen >= half:
            median = value
            break
    return {"batches": hist.total, "median": median, "max": max(counts)}
