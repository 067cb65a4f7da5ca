"""One timed round of a workload, in a fresh process.

Run by :mod:`perfbench.run` as ``python3 perfbench/rounds.py SPEC OUT``:
``SPEC`` is a JSON file naming the workload, its generated inputs and
the round's settings; the round's measurements and every returned
statistic land in ``OUT`` as JSON.  Each round starts from a fresh
interpreter and an empty cache directory (``$REPRO_CACHE_DIR``, set by
the harness), so cold work stays cold; the set-up clock starts before
the first import of the program.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
for _path in (ROOT, ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from perfbench.measure import canonical_stats, peak_rss_mb, point_key  # noqa: E402


def sweep_round(spec):
    """The cold grid through ``api.grid`` on a pre-spawned worker pool."""
    from repro import api
    from repro.experiments.diskcache import stats_to_dict

    pool = api.WorkerPool(spec["jobs"])
    spawn_start = time.perf_counter()
    pool.warm()
    spawn = time.perf_counter() - spawn_start
    setup = time.perf_counter() - _T0
    points = [api.GridPoint(*point) for point in spec["order"]]
    arrivals = []
    start = time.perf_counter()
    try:
        report = api.grid(
            points,
            jobs=spec["jobs"],
            pool=pool,
            on_result=lambda point, stats: arrivals.append(time.perf_counter() - start),
        )
        wall = time.perf_counter() - start
    finally:
        pool.shutdown()
    accounting = report.accounting
    return {
        "setup_s": setup,
        "pool_spawn_s": spawn,
        "wall_s": wall,
        "arrivals_s": arrivals,
        "stats": {
            point_key(run.point()): canonical_stats(stats_to_dict(run.stats))
            for run in report.runs
        },
        "accounting": {
            "simulated": accounting.simulated,
            "retries": accounting.retries,
            "pool_restarts": accounting.pool_restarts,
            "failed": len(accounting.failed),
        },
    }


def long_round(spec):
    """Exact and sampled runs of the two long points on warm traces.

    One untimed warm-up of both exact runs, then timed repetitions —
    exact scalar, exact V, sampled scalar, sampled V — until the round's
    time slice is spent.  Times are CPU seconds of this process.
    """
    from repro.experiments.diskcache import stats_to_dict
    from repro.experiments.runner import point_config
    from repro.pipeline.machine import Machine
    from repro.sampling import SamplingConfig, run_sampled
    from repro.workloads.spec95 import cached_trace

    inputs = spec["inputs"]
    traces = {kind: cached_trace(inputs[kind][0], inputs[kind][4]) for kind in ("scalar", "v")}
    setup = time.perf_counter() - _T0
    window, interval = inputs["sampling"]
    sampling = SamplingConfig(window=window, interval=interval, use_checkpoints=False)

    def config(kind):
        _, width, ports, mode, _, block, _ = inputs[kind]
        return point_config(width, ports, mode, block)

    runs = {
        "scalar": lambda: Machine(config("scalar"), traces["scalar"]).run(),
        "v": lambda: Machine(config("v"), traces["v"]).run(),
        "sampled_scalar": lambda: run_sampled(config("scalar"), traces["scalar"], sampling),
        "sampled_v": lambda: run_sampled(config("v"), traces["v"], sampling),
    }
    runs["scalar"]()
    runs["v"]()
    reps = []
    deadline = time.perf_counter() + spec["seconds"]
    while not reps or time.perf_counter() < deadline:
        rep = {}
        for kind, run in runs.items():
            start = time.process_time()
            stats = run()
            cpu = time.process_time() - start
            rep[kind] = {
                "cpu_s": cpu,
                "committed": stats.committed,
                "stats": canonical_stats(stats_to_dict(stats)),
            }
        reps.append(rep)
    return {"setup_s": setup, "reps": reps}


def serve_round(spec):
    """The daemon in-process on an ephemeral port, two keep-alive clients.

    Both clients send their prelude, meet at a barrier, then run their
    mix closed-loop; a duplicated step makes both meet again and send
    the same point at once.  Every response body is checked against
    the envelope contract here; stats are compared by the harness.
    """
    import http.client
    import threading

    from perfbench.inputs import point_body
    from repro.schemas import EnvelopeError, validate_envelope
    from repro.service.server import ServiceConfig, build_server

    server = build_server(ServiceConfig(port=0, jobs=spec["jobs"]))
    service = server.service
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    service.warm()
    host, port = server.server_address[:2]
    setup = time.perf_counter() - _T0
    barrier = threading.Barrier(2, timeout=600)
    records = [[], []]
    errors = []

    def request(conn, method, path, body=None):
        """One exchange; returns (status, payload, envelope_ok, sent, seconds)."""
        headers = {"Content-Type": "application/json"} if body is not None else {}
        start = time.perf_counter()
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        data = response.read()
        elapsed = time.perf_counter() - start
        try:
            payload = json.loads(data)
            validate_envelope(payload)
            ok = True
        except (ValueError, EnvelopeError):
            payload, ok = None, False
        return response.status, payload, ok, start, elapsed

    def client(index):
        conn = http.client.HTTPConnection(host, port, timeout=300)
        schedule = spec["inputs"]["clients"][index]
        try:
            for phase in ("prelude", "mix"):
                if phase == "mix":
                    barrier.wait()
                for item in schedule[phase]:
                    if item["dup"] is not None:
                        barrier.wait()
                    body = json.dumps(point_body(item["point"]))
                    status, payload, ok, sent, elapsed = request(conn, "POST", "/run", body)
                    stats = payload.get("stats") if ok and status == 200 else None
                    records[index].append({
                        "client": index,
                        "kind": item["kind"],
                        "key": point_key(item["point"]),
                        "status": status,
                        "envelope_ok": ok,
                        "sent_s": sent - mix_start,
                        "latency_s": elapsed,
                        "committed": stats["committed"] if stats else 0,
                        "stats": canonical_stats(stats) if stats else None,
                    })
        except Exception as exc:  # a client that dies must not strand the other
            errors.append(f"client {index}: {type(exc).__name__}: {exc}")
            barrier.abort()
        finally:
            conn.close()

    clients = [threading.Thread(target=client, args=(c,)) for c in (0, 1)]
    mix_cpu = time.process_time()
    mix_start = time.perf_counter()
    for worker in clients:
        worker.start()
    for worker in clients:
        worker.join()
    wall = time.perf_counter() - mix_start
    mix_cpu = time.process_time() - mix_cpu

    conn = http.client.HTTPConnection(host, port, timeout=60)
    status_rtts, side_failures = [], 0
    try:
        for _ in range(20):
            status, _, ok, _, elapsed = request(conn, "GET", "/status")
            status_rtts.append(elapsed)
            side_failures += status != 200 or not ok
        status, metrics, ok, _, _ = request(conn, "GET", "/metrics")
        side_failures += status != 200 or not ok
    finally:
        conn.close()
        server.shutdown()
        server.server_close()
        service.shutdown()
        thread.join(timeout=60)
    # The pool workers were forked idle and have now been reaped: their
    # whole CPU time is the cold points' simulation (and the warm-up).
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    metrics = metrics or {}
    dedup = metrics.get("metrics", {}).get("service.dedup_hits", {}).get("data", 0)
    return {
        "setup_s": setup,
        "wall_s": wall,
        "cpu_s": mix_cpu + workers.ru_utime + workers.ru_stime,
        "records": records[0] + records[1],
        "client_errors": errors,
        "status_rtts_s": status_rtts,
        "side_requests": 21,
        "side_failures": side_failures,
        "server_p50_ms": (metrics.get("latency") or {}).get("p50_ms") or 0.0,
        "dedup_hits": dedup,
    }


ROUNDS = {"sweep-cold": sweep_round, "long-point": long_round, "serve-mix": serve_round}


def main(argv):
    spec_path, out_path = argv[1], argv[2]
    with open(spec_path) as handle:
        spec = json.load(handle)
    result = ROUNDS[spec["workload"]](spec)
    result["peak_rss_mb"] = peak_rss_mb()
    with open(out_path, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
