"""Workload orchestration: timed rounds, output checks and metrics.

Untraced (``--trace 0``), a workload runs timed rounds in fresh
processes (:mod:`perfbench.rounds`) until ``--seconds`` are spent and at
least :data:`MIN_ROUNDS` have run, replays the same inputs serially in
this process as the reference, compares every returned statistic
exactly, and reports the end-to-end metrics.  Traced (``--trace 1``),
it runs one round, a warm-up, an untraced and a traced replay, and a
profiled run of the simulated points, and reports the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from perfbench import inputs as gen
from perfbench.measure import median, point_key, tail
from perfbench.replay import Replay, profile_points, replay, serve_requests
from perfbench.spans import SpanRecorder, instrument

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep-cold", "long-point", "serve-mix")
#: rounds per run at least, so set-up time is a median of several.
MIN_ROUNDS = 3
#: no more rounds start once a run has spent this long.
RUN_CAP_S = 60.0
#: a round process that takes longer than this is killed and counted failed.
ROUND_TIMEOUT_S = 90.0
#: worker processes / daemon pool width (at most the host's CPUs).
JOBS = max(1, min(2, os.cpu_count() or 1))
#: environment that would change what the program does under test;
#: the command clears it before anything runs.
PROGRAM_ENV = (
    "REPRO_FAULTS", "REPRO_NO_DISK_CACHE", "REPRO_JOBS", "REPRO_TASK_TIMEOUT",
    "REPRO_MAX_RETRIES", "REPRO_KERNEL", "REPRO_CACHE_DIR",
)

#: every per-layer metric of the traced run: name -> unit.
LAYER_METRICS = {
    "workloads.build_s": "s",
    "functional.run_program_s": "s",
    "functional.soa_build_s": "s",
    "functional.traces_built": "count",
    "diskcache.trace_store_s": "s",
    "diskcache.soa_store_s": "s",
    "diskcache.stats_store_s": "s",
    "diskcache.trace_load_s": "s",
    "diskcache.soa_load_s": "s",
    "diskcache.stats_load_s": "s",
    "diskcache.trace_hits": "count",
    "diskcache.trace_misses": "count",
    "diskcache.soa_hits": "count",
    "diskcache.soa_misses": "count",
    "pipeline.run_s.scalar": "s",
    "pipeline.run_s.v": "s",
    "pipeline.cycles": "count",
    "pipeline.committed": "count",
    "pipeline.stage.fetch_s": "s",
    "pipeline.stage.dispatch_s": "s",
    "pipeline.stage.execute_s": "s",
    "pipeline.stage.memory_s": "s",
    "pipeline.stage.commit_s": "s",
    "pipeline.profiled_overhead": "ratio",
    "core.kernel.batch_median": "count",
    "core.engine.batch_median": "count",
    "core.engine.batches": "count",
    "sampling.run_s": "s",
    "sampling.windows": "count",
    "sampling.ipc_error": "ratio",
    "runner.compute_point_s": "s",
    "parallel.pool_spawn_s": "s",
    "parallel.busy_ratio": "ratio",
    "parallel.overhead_ms_per_point": "ms",
    "parallel.simulated": "count",
    "parallel.retries": "count",
    "parallel.pool_restarts": "count",
    "parallel.failed": "count",
    "service.wire_parse_us": "us",
    "service.status_rtt_ms": "ms",
    "service.server_p50_ms": "ms",
    "service.miss_overhead_ms": "ms",
    "service.dedup_hits": "count",
    "service.rejected_503": "count",
    "service.errors": "count",
    "observe.trace_overhead": "ratio",
    "self_s.workloads": "s",
    "self_s.functional": "s",
    "self_s.diskcache": "s",
    "self_s.pipeline": "s",
    "self_s.sampling": "s",
    "self_s.runner": "s",
    "self_s.service": "s",
    "unaccounted_s": "s",
}

#: the end-to-end metrics every workload reports: name -> unit.
E2E_METRICS = {"setup_s": "s", "peak_rss_mb": "MB", "kips": "kinst/s", "p50_ms": "ms"}


class RunError(RuntimeError):
    """The run cannot produce a result (no round completed)."""


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    #: name -> (value, unit); what the result line carries.
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: human-readable report lines printed before the result line.
    lines: List[str] = field(default_factory=list)

    def report(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.lines.append(f"  {name:<28} {value:>14.6g} {unit}{'  ' + note if note else ''}")

    def result(self) -> Dict:
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit} for name, (value, unit) in self.metrics.items()
            },
        }


# ---------------------------------------------------------------------------
# Round processes
# ---------------------------------------------------------------------------


def run_round(spec: Dict, workdir: pathlib.Path, index: int) -> Optional[Dict]:
    """Run one round in a fresh process group; None if it failed."""
    rdir = workdir / f"round{index}"
    rdir.mkdir(parents=True)
    spec_path, out_path = rdir / "spec.json", rdir / "out.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, REPRO_CACHE_DIR=str(rdir / "cache"))
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "rounds.py"), str(spec_path), str(out_path)],
        cwd=ROOT, env=env, stdout=sys.stderr, start_new_session=True,
    )
    try:
        code = proc.wait(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        # The round's pool workers share its process group: nothing
        # it started may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    result = None
    if code == 0 and out_path.is_file():
        result = json.loads(out_path.read_text())
    else:
        print(f"perfbench: round {index} failed (exit {code})", file=sys.stderr)
    shutil.rmtree(rdir, ignore_errors=True)
    return result


def _round_spec(workload: str, inputs: Dict, seed: int, index: int, seconds: float) -> Dict:
    spec = {"workload": workload, "inputs": inputs, "jobs": JOBS}
    if workload == "sweep-cold":
        spec["order"] = gen.sweep_order(seed, index, inputs["points"])
    elif workload == "long-point":
        spec["seconds"] = seconds / MIN_ROUNDS
    return spec


def run_rounds(workload: str, inputs: Dict, seed: int, seconds: float, workdir, min_rounds: int = MIN_ROUNDS) -> List[Optional[Dict]]:
    rounds: List[Optional[Dict]] = []
    start = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
        if rounds and time.perf_counter() - start > RUN_CAP_S:
            break
        spec = _round_spec(workload, inputs, seed, len(rounds), seconds)
        rounds.append(run_round(spec, workdir, len(rounds)))
    return rounds


# ---------------------------------------------------------------------------
# Output checks (exact, against the serial reference replay)
# ---------------------------------------------------------------------------


def check_sweep(rounds: List[Optional[Dict]], inputs: Dict, ref: Replay) -> Tuple[int, int]:
    """(attempted, failed): every point of every round, compared exactly."""
    keys = [point_key(point) for point in inputs["points"]]
    failed = 0
    for result in rounds:
        got = result["stats"] if result else {}
        failed += sum(got.get(key) != ref.stats[key] for key in keys)
    return len(keys) * len(rounds), failed


def check_long(rounds: List[Optional[Dict]], ref: Replay) -> Tuple[int, int]:
    """Every timed run must repeat the reference statistics exactly."""
    attempted = failed = 0
    for result in rounds:
        if result is None:
            attempted += 4
            failed += 4
            continue
        for rep in result["reps"]:
            for kind, run in rep.items():
                attempted += 1
                failed += run["stats"] != ref.stats[kind]
    return attempted, failed


def check_serve(rounds: List[Optional[Dict]], inputs: Dict, ref: Replay) -> Tuple[int, int]:
    """Each scheduled request: a 200, a valid envelope and exact stats;
    the status/metrics requests: a 200 and a valid envelope."""
    scheduled = len(serve_requests(inputs))
    attempted = failed = 0
    for result in rounds:
        if result is None:
            attempted += scheduled
            failed += scheduled
            continue
        records = result["records"]
        attempted += scheduled + result["side_requests"]
        failed += result["side_failures"] + max(0, scheduled - len(records))
        failed += sum(
            r["status"] != 200 or not r["envelope_ok"] or r["stats"] != ref.stats.get(r["key"])
            for r in records
        )
    return attempted, failed


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ---------------------------------------------------------------------------


def _to_nominal(points: List, nominal: int) -> float:
    """Factor scaling a time measured on ``points`` to the time at the
    nominal per-point scale, so seed-jittered work does not read as speed."""
    return nominal * len(points) / sum(point[4] for point in points)


def contended_hits(records: List[Dict]) -> List[Dict]:
    """Hits sent and answered while the other client waited on a cold
    point, i.e. while one pool worker was simulating."""
    busy = {
        c: [(r["sent_s"], r["sent_s"] + r["latency_s"]) for r in records if r["client"] == c and r["kind"] != "hit"]
        for c in (0, 1)
    }
    return [
        r for r in records
        if r["kind"] == "hit"
        and any(s <= r["sent_s"] and r["sent_s"] + r["latency_s"] <= e for s, e in busy[1 - r["client"]])
    ]


def cold_kips(records: List[Dict]) -> float:
    """Committed instructions of the round's cold points over their
    client-side latency; a duplicated point counts once, at the mean
    latency of its two requests."""
    latencies: Dict[str, List[float]] = {}
    committed: Dict[str, int] = {}
    for rec in records:
        if rec["kind"] != "hit":
            latencies.setdefault(rec["key"], []).append(rec["latency_s"])
            committed[rec["key"]] = rec["committed"]
    seconds = sum(sum(times) / len(times) for times in latencies.values())
    return sum(committed.values()) / 1000.0 / seconds if seconds else 0.0


def _tail_note(samples_ms: List[float]) -> Tuple[float, str]:
    found = tail(samples_ms)
    if found is None:
        return max(samples_ms, default=0.0), f"(max of {len(samples_ms)}; too few for the tail rule)"
    value, percentile, count = found
    return value, f"(p{percentile:.1f} of {count} samples)"


def timed(workload: str, seed: int, seconds: float, size: gen.Size, workdir) -> Tuple[Outcome, Replay]:
    inputs = gen.make_inputs(workload, seed, size)
    rounds = run_rounds(workload, inputs, seed, seconds, workdir)
    done = [r for r in rounds if r is not None]
    if not done:
        raise RunError(f"every {workload} round failed")
    ref = replay(workload, inputs, seed, workdir / "reference-cache")
    out = Outcome()
    out.lines.append(f"{workload} seed={seed} rounds={len(rounds)} jobs={JOBS} inputs={gen.fingerprint(inputs)}")
    setup = median(r["setup_s"] for r in done)
    rss = median(r["peak_rss_mb"] for r in done)
    if workload == "sweep-cold":
        out.attempted, out.failed = check_sweep(rounds, inputs, ref)
        committed = sum(json.loads(ref.stats[point_key(p)])["committed"] for p in inputs["points"])
        kips = median(committed / 1000.0 / r["wall_s"] for r in done)
        arrivals = [t * 1000.0 for r in done for t in r["arrivals_s"]]
        p50 = median(arrivals) * _to_nominal(inputs["points"], size.scale)
        tail_ms, note = _tail_note(arrivals)
        out.report("sweep.kips", kips, "kinst/s", f"({committed} instructions, median of {len(done)} grids)")
        out.report("sweep.result_p50_ms", median(arrivals), "ms", "(time until a point's result arrives)")
        out.report("sweep.result_p50_nominal_ms", p50, "ms", f"(the same at nominal scale {size.scale})")
        out.report("sweep.result_tail_ms", tail_ms, "ms", note)
        out.report("sweep.grid_wall_s", median(r["wall_s"] for r in done), "s")
    elif workload == "long-point":
        out.attempted, out.failed = check_long(rounds, ref)
        reps = [rep for r in done for rep in r["reps"]]

        def kips_of(*kinds):
            return median(
                sum(rep[k]["committed"] for k in kinds) / 1000.0 / sum(rep[k]["cpu_s"] for k in kinds)
                for rep in reps
            )

        kips = kips_of("scalar", "v")
        factor = (size.long_scalar_scale + size.long_v_scale) / (inputs["scalar"][4] + inputs["v"][4])
        p50 = median(1000.0 * (rep["sampled_scalar"]["cpu_s"] + rep["sampled_v"]["cpu_s"]) for rep in reps) * factor
        out.report("long.kips_scalar", kips_of("scalar"), "kinst/s", f"(median of {len(reps)} reps, CPU time)")
        out.report("long.kips_v", kips_of("v"), "kinst/s")
        out.report("long.sampled_kips", kips_of("sampled_scalar", "sampled_v"), "kinst/s")
        out.report("long.kips_exact", kips, "kinst/s", "(scalar and V pooled)")
        out.report("long.sampled_ms", p50, "ms", "(both sampled runs of one repetition, CPU, at nominal scales)")
    else:
        out.attempted, out.failed = check_serve(rounds, inputs, ref)
        records = [rec for r in done for rec in r["records"]]

        def latencies(kind=None):
            return [rec["latency_s"] * 1000.0 for rec in records if kind is None or rec["kind"] == kind]

        misses = [rec for rec in records if rec["kind"] == "miss"]
        committed = sum(json.loads(ref.stats[point_key(p)])["committed"] for p in inputs["cold"])
        kips = median(committed / 1000.0 / r["cpu_s"] for r in done)
        contended = [rec["latency_s"] * 1000.0 for r in done for rec in contended_hits(r["records"])]
        p50 = median(contended)
        tail_ms, note = _tail_note(latencies())
        out.report("serve.hit_p50_ms", p50, "ms", f"({len(contended)} hits while a cold point simulated)")
        out.report("serve.hit_all_p50_ms", median(latencies("hit")), "ms", f"({len(latencies('hit'))} hits)")
        out.report("serve.miss_p50_ms", median(latencies("miss")), "ms", f"({len(misses)} misses)")
        out.report("serve.dup_p50_ms", median(latencies("dup")), "ms", f"({len(latencies('dup'))} duplicated)")
        out.report("serve.tail_ms", tail_ms, "ms", note)
        out.report("serve.rps", median(len(r["records"]) / r["wall_s"] for r in done), "1/s")
        out.report("serve.cold_kips", median(cold_kips(r["records"]) for r in done), "kinst/s",
                   f"(cold-point instructions over their latency, {len(inputs['cold'])} points)")
        out.report("serve.cpu_kips", kips, "kinst/s", "(cold-point instructions over the mix's CPU time, daemon + workers)")
    out.failed += len(ref.inconsistent)
    out.report("setup_s", setup, "s", f"(median of {len(done)})")
    out.report("failed_ratio", out.failed / max(1, out.attempted), "ratio", f"({out.failed}/{out.attempted})")
    out.report("peak_rss_mb", rss, "MB", "(round process + largest child)")
    values = {"setup_s": setup, "peak_rss_mb": rss, "kips": kips, "p50_ms": p50}
    out.metrics = {name: (values[name], unit) for name, unit in E2E_METRICS.items()}
    return out, ref


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------


def _simulated_points(workload: str, inputs: Dict) -> List:
    if workload == "sweep-cold":
        return inputs["points"]
    if workload == "long-point":
        return [inputs["scalar"], inputs["v"]]
    return inputs["cold"]


def _wire_parse_us(inputs: Dict) -> float:
    """Median microseconds of ``wire.parse_run_request`` on the mix's bodies."""
    from repro.service import wire

    per_body = []
    for _, item in serve_requests(inputs):
        body = gen.point_body(item["point"])
        start = time.perf_counter()
        for _ in range(20):
            wire.parse_run_request(body)
        per_body.append((time.perf_counter() - start) / 20 * 1e6)
    return median(per_body)


def traced(workload: str, seed: int, size: gen.Size, workdir, spans_path) -> Outcome:
    from repro.experiments import diskcache

    inputs = gen.make_inputs(workload, seed, size)
    layer = {name: 0.0 for name in LAYER_METRICS}
    round_result = None
    if workload != "long-point":
        (round_result,) = run_rounds(workload, inputs, seed, 0.0, workdir, min_rounds=1)
        if round_result is None:
            raise RunError(f"the {workload} round failed")
    # An untimed replay first, so one-time costs of the benchmark process
    # (lazy imports, first-call set-up) land in neither timed replay.
    replay(workload, inputs, seed, workdir / "warm-cache")
    plain = replay(workload, inputs, seed, workdir / "plain-cache")
    recorder = SpanRecorder()
    traced_run = replay(workload, inputs, seed, workdir / "traced-cache", recorder, instrument)
    counters = diskcache.COUNTERS
    out = Outcome()
    out.lines.append(f"{workload} seed={seed} traced jobs={JOBS} inputs={gen.fingerprint(inputs)}")
    # Output checks: traced replay and the round against the plain replay.
    keys = sorted(plain.stats)
    out.attempted = len(keys)
    out.failed = sum(traced_run.stats.get(k) != plain.stats[k] for k in keys)
    out.failed += len(plain.inconsistent) + len(traced_run.inconsistent)
    if workload == "sweep-cold":
        attempted, failed = check_sweep([round_result], inputs, plain)
    elif workload == "serve-mix":
        attempted, failed = check_serve([round_result], inputs, plain)
    else:
        attempted, failed = 0, 0
    out.attempted += attempted
    out.failed += failed

    # workloads / functional / diskcache
    layer["workloads.build_s"] = recorder.total("workloads.build")
    layer["functional.run_program_s"] = recorder.total("functional.run_program")
    layer["functional.soa_build_s"] = recorder.total("functional.soa_build")
    layer["functional.traces_built"] = recorder.count("functional.run_program")
    for section in ("trace", "soa", "stats"):
        layer[f"diskcache.{section}_store_s"] = recorder.total(f"diskcache.{section}_store")
        layer[f"diskcache.{section}_load_s"] = recorder.total(f"diskcache.{section}_load")
    for section in ("trace", "soa"):
        layer[f"diskcache.{section}_hits"] = getattr(counters, f"{section}_hits")
        layer[f"diskcache.{section}_misses"] = getattr(counters, f"{section}_misses")

    # pipeline / core: exact runs only (sampled windows count under sampling).
    for mode in ("scalar", "v"):
        layer[f"pipeline.run_s.{mode}"] = recorder.total("pipeline.run", mode, outside="sampling.run_sampled")
    exact = [json.loads(plain.stats[k]) for k in keys if not k.startswith("sampled_")]
    layer["pipeline.cycles"] = sum(s["cycles"] for s in exact)
    layer["pipeline.committed"] = sum(s["committed"] for s in exact)
    profile = profile_points(_simulated_points(workload, inputs))
    for stage, seconds in profile["stage_s"].items():
        layer[f"pipeline.stage.{stage}_s"] = seconds
    plain_run_s = layer["pipeline.run_s.scalar"] + layer["pipeline.run_s.v"]
    layer["pipeline.profiled_overhead"] = profile["wall_s"] / plain_run_s if plain_run_s else 0.0
    layer["core.kernel.batch_median"] = profile["kernel"]["median"]
    layer["core.engine.batch_median"] = profile["engine"]["median"]
    layer["core.engine.batches"] = profile["engine"]["batches"]

    # sampling
    layer["sampling.run_s"] = recorder.total("sampling.run_sampled")
    layer["sampling.windows"] = recorder.count("pipeline.run") - recorder.count(
        "pipeline.run", outside="sampling.run_sampled"
    )
    if workload == "long-point":
        layer["sampling.ipc_error"] = max(
            abs(_ipc(plain.stats[f"sampled_{kind}"]) / _ipc(plain.stats[kind]) - 1.0)
            for kind in ("scalar", "v")
        )

    # runner / parallel
    layer["runner.compute_point_s"] = recorder.total("runner.compute_point")
    if workload == "sweep-cold":
        serial = plain.wall_s
        grid = round_result["wall_s"] * JOBS
        points = len(inputs["points"])
        layer["parallel.pool_spawn_s"] = round_result["pool_spawn_s"]
        layer["parallel.busy_ratio"] = serial / grid
        layer["parallel.overhead_ms_per_point"] = (grid - serial) / points * 1000.0
        for name in ("simulated", "retries", "pool_restarts", "failed"):
            layer[f"parallel.{name}"] = round_result["accounting"][name]

    # service
    if workload == "serve-mix":
        records = round_result["records"]
        misses = [r for r in records if r["kind"] == "miss"]
        replayed = {(kind, key): t for kind, key, t in plain.ops.values() if kind == "miss"}
        layer["service.wire_parse_us"] = _wire_parse_us(inputs)
        layer["service.status_rtt_ms"] = median(round_result["status_rtts_s"]) * 1000.0
        layer["service.server_p50_ms"] = round_result["server_p50_ms"]
        layer["service.miss_overhead_ms"] = 1000.0 * (
            median(r["latency_s"] for r in misses)
            - median(replayed[("miss", r["key"])] for r in misses)
        )
        layer["service.dedup_hits"] = round_result["dedup_hits"]
        layer["service.rejected_503"] = sum(r["status"] == 503 for r in records)
        layer["service.errors"] = (
            sum(r["status"] not in (200, 503) or not r["envelope_ok"] for r in records)
            + len(round_result["client_errors"])
            + round_result["side_failures"]
        )

    # observe: tracing overhead, self time, and what no layer span covers.
    layer["observe.trace_overhead"] = traced_run.wall_s / plain.wall_s
    self_times = recorder.self_times()
    for name in LAYER_METRICS:
        if name.startswith("self_s."):
            layer[name] = self_times.get(name.split(".", 1)[1], 0.0)
    covered = sum(t for lay, t in self_times.items() if lay != "replay")
    layer["unaccounted_s"] = traced_run.wall_s - covered

    recorder.write(spans_path)
    for name, unit in LAYER_METRICS.items():
        note = ""
        if name.startswith("pipeline.stage."):
            note = "(StageProfiler: stepped observed loop, not _run_fast)"
        elif name == "pipeline.profiled_overhead":
            note = "(profiled stepped loop vs plain run of the same points)"
        out.report(name, layer[name], unit, note)
    out.lines.append(f"  spans: {len(recorder.spans)} written to {spans_path}")
    out.metrics = {name: (layer[name], unit) for name, unit in LAYER_METRICS.items()}
    return out


def _ipc(canon: str) -> float:
    stats = json.loads(canon)
    return stats["committed"] / stats["cycles"] if stats["cycles"] else 0.0
