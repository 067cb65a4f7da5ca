"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root::

    PYTHONPATH=src:. python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
for _path in (ROOT, ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from perfbench import harness, inputs as gen  # noqa: E402
from perfbench.measure import canonical_stats, digest, point_key, tail  # noqa: E402
from perfbench.replay import Replay, serve_requests  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- the tail rule ----------------------------------------------------------


def test_tail_keeps_ten_samples_beyond():
    value, percentile, count = tail(range(1, 101))
    assert (value, percentile, count) == (90, 90.0, 100)
    assert sum(x > value for x in range(1, 101)) == 10


def test_tail_needs_eleven_samples():
    assert tail(range(10)) is None
    value, percentile, count = tail(range(11))
    assert value == 0 and count == 11
    assert percentile == pytest.approx(100 / 11)


def test_tail_ignores_input_order():
    samples = [5, 1, 9, 3, 7, 2, 8, 4, 6, 0, 11, 10]
    assert tail(samples) == tail(sorted(samples))


# -- seeded inputs ----------------------------------------------------------


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_same_seed_same_inputs(workload):
    a = gen.make_inputs(workload, 7)
    b = gen.make_inputs(workload, 7)
    assert a == b
    assert gen.fingerprint(a) == gen.fingerprint(b)


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_other_seed_other_inputs(workload):
    assert gen.fingerprint(gen.make_inputs(workload, 7)) != gen.fingerprint(gen.make_inputs(workload, 8))


def test_sweep_grid_shape_and_round_orders():
    points = gen.make_inputs("sweep-cold", 3)["points"]
    assert len(points) == 48 and len({point_key(p) for p in points}) == 48
    first = gen.sweep_order(3, 0, points)
    assert sorted(map(point_key, first)) == sorted(map(point_key, points))
    assert first == gen.sweep_order(3, 0, points)
    assert first != gen.sweep_order(3, 1, points)


def test_serve_schedule_hits_repeat_answered_points():
    schedule = gen.make_inputs("serve-mix", 5)
    cold = {point_key(p) for p in schedule["cold"]}
    kinds = {"hit": 0, "miss": 0, "dup": 0}
    for client in schedule["clients"]:
        seen = {point_key(item["point"]) for c in schedule["clients"] for item in c["prelude"]}
        for item in client["mix"]:
            key = point_key(item["point"])
            kinds[item["kind"]] += 1
            if item["kind"] == "hit":
                assert key in seen
            else:
                assert key in cold
            seen.add(key)
    assert all(kinds.values()) and kinds["hit"] > kinds["miss"]
    dups = [[i["dup"] for i in c["mix"] if i["dup"] is not None] for c in schedule["clients"]]
    assert dups[0] == dups[1] == list(range(len(dups[0])))


# -- output checks flag wrong answers ----------------------------------------


def _stats(committed):
    return canonical_stats({"cycles": 10, "committed": committed, "usefulness": {1: 0.5}})


def test_sweep_check_flags_injected_mismatch():
    points = gen.make_inputs("sweep-cold", 1, gen.TINY)["points"]
    ref = Replay(stats={point_key(p): _stats(i) for i, p in enumerate(points)})
    good = {"stats": dict(ref.stats)}
    assert harness.check_sweep([good], {"points": points}, ref) == (48, 0)
    bad = {"stats": dict(ref.stats)}
    bad["stats"][point_key(points[5])] = _stats(999)
    assert harness.check_sweep([good, bad, None], {"points": points}, ref) == (144, 1 + 48)


def test_long_check_flags_injected_mismatch():
    ref = Replay(stats={k: _stats(i) for i, k in enumerate(("scalar", "v", "sampled_scalar", "sampled_v"))})
    rep = {k: {"stats": s, "cpu_s": 1.0, "committed": 1} for k, s in ref.stats.items()}
    bad = dict(rep, v={"stats": _stats(42), "cpu_s": 1.0, "committed": 1})
    assert harness.check_long([{"reps": [rep, rep]}], ref) == (8, 0)
    assert harness.check_long([{"reps": [rep, bad]}], ref) == (8, 1)


def test_serve_check_flags_mismatch_status_and_envelope():
    schedule = gen.make_inputs("serve-mix", 2, gen.TINY)
    items = serve_requests(schedule)
    ref = Replay(stats={point_key(i["point"]): _stats(n) for n, (_, i) in enumerate(items)})
    records = [
        {"kind": i["kind"], "key": point_key(i["point"]), "status": 200,
         "envelope_ok": True, "stats": ref.stats[point_key(i["point"])]}
        for _, i in items
    ]
    side = {"side_requests": 21, "side_failures": 0}
    assert harness.check_serve([dict(side, records=records)], schedule, ref) == (len(items) + 21, 0)
    broken = [dict(r) for r in records]
    broken[0]["stats"] = _stats(-1)
    broken[1]["status"] = 503
    broken[2]["envelope_ok"] = False
    del broken[-1]
    assert harness.check_serve([dict(side, records=broken)], schedule, ref) == (len(items) + 21, 4)


def test_digest_depends_on_every_stat():
    a = {"x": _stats(1), "y": _stats(2)}
    assert digest(a) == digest(dict(reversed(list(a.items()))))
    assert digest(a) != digest({"x": _stats(1), "y": _stats(3)})


# -- the workloads end to end, at tiny scale --------------------------------


@pytest.fixture
def clean_env(monkeypatch):
    """No program settings from the caller; the replays' cache-dir
    setting is undone afterwards."""
    for name in harness.PROGRAM_ENV:
        monkeypatch.delenv(name, raising=False)


def _metric_values(outcome):
    return {name: value for name, (value, _) in outcome.metrics.items()}


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(workload, tmp_path, clean_env):
    outcome, _ = harness.timed(workload, 3, 1.0, gen.TINY, tmp_path)
    result = outcome.result()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for metric in BENCHMARK["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"] and reported["value"] > 0


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_tiny_traced_run_reports_every_layer_metric(workload, tmp_path, clean_env):
    outcome = harness.traced(workload, 3, gen.TINY, tmp_path / "work", tmp_path / "spans.jsonl")
    result = outcome.result()
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    metrics = _metric_values(outcome)
    assert metrics["pipeline.committed"] > 0 and metrics["observe.trace_overhead"] > 0
    assert (tmp_path / "spans.jsonl").stat().st_size > 0
    if workload == "long-point":
        # Traces are built in set-up: none inside the timed region.
        assert metrics["functional.traces_built"] == 0 and metrics["workloads.build_s"] == 0
        assert metrics["sampling.windows"] > 0
    if workload == "sweep-cold":
        assert metrics["parallel.simulated"] == 48 and metrics["parallel.failed"] == 0
    if workload == "serve-mix":
        assert metrics["service.dedup_hits"] > 0 and metrics["service.errors"] == 0


def test_digest_repeats_for_a_seed_and_moves_with_it(tmp_path, clean_env):
    def run_digest(seed):
        _, ref = harness.timed("long-point", seed, 0.5, gen.TINY, tmp_path / str(seed))
        return digest(ref.stats)

    first = run_digest(11)
    assert first == run_digest(11)
    assert first != run_digest(12)


# -- the command ------------------------------------------------------------


def test_command_prints_the_result_line_last():
    proc = _run("--workload", "long-point", "--seed", "1", "--seconds", "1", "--trace", "0")
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for metric in BENCHMARK["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert any(line.startswith("digest long-point seed=1 ") for line in proc.stdout.splitlines())


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "sweep-cold", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
