"""Command-line interface: ``python -m repro <command>``.

A thin shell over the stable :mod:`repro.api` facade.  Commands:

* ``figures [--scale N] [--sampled] [--only figNN ...] [--jobs J]
  [--backend B] [--nodes N] [--campaign] [--point-budget N]
  [--task-timeout S] [--max-retries N] [--json]`` — regenerate the
  paper's figures; the grid points behind the selected figures are
  collected up front and fanned out over a fault-tolerant executor
  backend — the in-host process pool by default, or ``--backend
  subprocess`` worker peers with node-loss tolerance (see
  :mod:`repro.experiments.parallel`, :mod:`repro.experiments.distributed`
  and ``docs/PERFORMANCE.md`` §5/§6) — the command exits 1 when any
  grid point remains failed after retries; ``--campaign`` persists a
  resumable manifest (kill it, then ``resume <id>``);
* ``headline [--scale N] [--sampled] [--jobs J] [--backend B]
  [--nodes N] [--task-timeout S] [--max-retries N] [--json]`` —
  measure the paper's headline claims, same batched execution and
  failure semantics;
* ``resume CAMPAIGN_ID [--backend B] [--nodes N] [--jobs J]
  [--point-budget N] [--json]`` — resume a persisted campaign:
  done points are recovered from the disk cache, only missing or
  quarantined points recompute;
* ``worker --node N --generation G [--heartbeat S]`` — internal: one
  subprocess-backend peer speaking the framed JSON task protocol on
  stdin/stdout (spawned by the scheduler, not meant for hand use);
* ``run <benchmark> [--width W] [--ports P] [--mode M] [--scale N]
  [--sampled] [--json]`` — simulate one benchmark on one configuration;
* ``trace <benchmark> [--events SPEC] [--limit N] [--output FILE]``
  — run one *instrumented* simulation and emit its captured events as
  JSONL (one event object per line); ``--events`` filters by kind
  (``validate.fail``), group (``validation,squash``), or subsystem
  prefix (``vrmt``) — see ``docs/OBSERVABILITY.md`` for the taxonomy;
* ``fuzz run [--seed S] [--max-programs N] [--budget-seconds T]
  [--width W] [--ports P] [--artifact-dir DIR] [--no-corpus]
  [--no-minimize] [--json]`` — differential fuzzing: random programs
  through the interpreter / scalar-machine / V-mode-machine oracle
  (:mod:`repro.verify`); exits nonzero if any divergence was found
  (each one minimized and written as a ``.repro.json`` artifact);
* ``fuzz replay ARTIFACT [--json]`` — re-execute a saved reproducer and
  compare against its recorded verdict;
* ``fuzz corpus [--json]`` — show the persistent fuzz corpus;
* ``serve [--port N] [--jobs J] [--queue-limit N] [--sync-limit N]
  [--request-timeout S]`` — run the simulation service daemon: a
  stdlib-only HTTP/JSON server fronting this same facade with a warm
  worker pool, request deduplication, async jobs and backpressure
  (:mod:`repro.service`, ``docs/SERVICE.md``);
* ``cache {info,clear}`` — inspect or drop the persistent result cache
  (the fuzz corpus and campaign manifests are sections of it);
* ``list`` — list the available benchmarks.

All JSON output — success or failure — carries the v2 envelope
(``schema`` / ``ok`` / ``error`` + payload, :mod:`repro.schemas`);
error paths answer with ``repro.error/v1`` envelopes.

``--sampled`` switches the simulations to sampled mode (functional
warming + detailed windows, see :mod:`repro.sampling`);
``--window``/``--interval`` override the sampling parameters (and imply
``--sampled``).  Exact simulation remains the default.

``--json`` on ``run``/``figures``/``headline`` prints the facade's
versioned :meth:`to_dict` payloads instead of tables — the machine
interface scripts should parse.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import api
from .analysis import format_table, suite_rows
from .experiments import diskcache
from .observe import EVENT_GROUPS, EVENT_KINDS
from .workloads import ALL_BENCHMARKS, SPEC_FP, SPEC_INT


def _print_rows(title: str, rows) -> None:
    first = next(iter(rows.values()))
    headers = ["benchmark"] + list(first.keys())
    print(f"\n{title}")
    print(format_table(headers, suite_rows(rows, SPEC_INT, SPEC_FP)))


def _positive_int(text: str) -> int:
    """argparse type for flags where zero is meaningless (window/interval/jobs)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    """argparse type for retry budgets (zero = no retries is meaningful)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse type for timeouts (must be a positive number of seconds)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {value}")
    return value


def _print_grid_failures(accounting) -> None:
    """One stderr line per quarantined grid point (docs/PERFORMANCE.md §5)."""
    for failure in accounting.failed:
        print(f"grid point FAILED: {failure.describe()}", file=sys.stderr)
    print(accounting.summary(), file=sys.stderr)


def _sampling_from_args(args: argparse.Namespace) -> api.SamplingConfig | None:
    """Build the SamplingConfig the flags ask for (None = exact mode)."""
    if not (args.sampled or args.window is not None or args.interval is not None):
        return None
    defaults = api.SamplingConfig()
    interval = args.interval if args.interval is not None else defaults.interval
    window = args.window
    if window is None:
        # Keep the default 10% duty cycle when only the interval shrinks.
        window = min(defaults.window, max(1, interval // 10))
    return api.SamplingConfig(window=window, interval=interval)


def _backend_from_args(args: argparse.Namespace):
    """Resolve (backend spec, jobs) from ``--backend``/``--nodes``/``--jobs``.

    ``--nodes`` implies the subprocess backend; with it, the node count
    wins over ``--jobs`` (which sizes the in-host pool).
    """
    backend = getattr(args, "backend", None)
    nodes = getattr(args, "nodes", None)
    if nodes is not None and backend is None:
        backend = "subprocess"
    if backend == "subprocess":
        return backend, (nodes or args.jobs)
    return backend, args.jobs


def cmd_figures(args: argparse.Namespace) -> int:
    names = args.only or api.figure_names()
    for name in names:
        if name not in api.FIGURES:
            print(f"unknown figure {name!r}; known: {', '.join(api.FIGURES)}")
            return 2
    sampling = _sampling_from_args(args)
    # Collect every simulation point the selected figures need, then fan
    # the whole batch out at once; the figure functions afterwards run
    # entirely from the in-process memo.
    points = []
    for name in names:
        points.extend(api.get_figure(name).points(args.scale, sampling))
    backend, jobs = _backend_from_args(args)
    outcome = None
    if args.campaign:
        # Resumable path: persist a per-point manifest keyed by the
        # points' content hash; a killed/budgeted invocation leaves a
        # campaign id behind that ``resume`` picks back up.
        outcome = api.campaign(
            points,
            backend=backend,
            jobs=jobs,
            sampling=sampling,
            task_timeout=args.task_timeout,
            max_retries=args.max_retries,
            point_budget=args.point_budget,
        )
        print(f"campaign {outcome.campaign_id}", file=sys.stderr)
        batch_ok = outcome.ok
        accounting = outcome.accounting
    else:
        batch = api.grid(
            points,
            jobs=jobs,
            sampling=sampling,
            task_timeout=args.task_timeout,
            max_retries=args.max_retries,
            backend=backend,
        )
        batch_ok = batch.ok
        accounting = batch.accounting
    if not batch_ok:
        # Quarantined points leave holes the figure tables cannot paper
        # over; report the failures and exit nonzero instead of raising
        # a KeyError from deep inside a rows() function.
        if args.json:
            if outcome is not None:
                payload = outcome.to_dict()
            else:
                payload = api.wrap_error(api.GridFailureError(accounting).to_error())
            print(json.dumps(payload, sort_keys=True))
        else:
            _print_grid_failures(accounting)
        return 1
    results = [
        api.figure(name, scale=args.scale, sampling=sampling, prebatched=True)
        for name in names
    ]
    if args.json:
        payload = {
            "schema": api.SCHEMA_FIGURE_SET,
            "ok": True,
            "error": None,
            "grid": (outcome.to_dict() if outcome is not None else batch.to_dict())[
                "accounting"
            ],
            "figures": {result.spec.name: result.to_dict() for result in results},
        }
        if outcome is not None:
            payload["campaign"] = outcome.to_dict()
        print(json.dumps(payload, sort_keys=True))
        return 0
    print(accounting.summary())
    for result in results:
        _print_rows(result.spec.title, result.rows)
    return 0


def cmd_headline(args: argparse.Namespace) -> int:
    sampling = _sampling_from_args(args)
    backend, jobs = _backend_from_args(args)
    try:
        claims = api.headline(
            scale=args.scale,
            sampling=sampling,
            jobs=jobs,
            task_timeout=args.task_timeout,
            max_retries=args.max_retries,
            backend=backend,
        )
    except api.GridFailureError as exc:
        if args.json:
            print(json.dumps(api.wrap_error(exc.to_error()), sort_keys=True))
        else:
            _print_grid_failures(exc.accounting)
        return 1
    if args.json:
        payload = {
            "schema": api.SCHEMA_HEADLINE,
            "ok": True,
            "error": None,
            "scale": args.scale,
            "sampled": sampling is not None,
            "claims": claims,
        }
        print(json.dumps(payload, sort_keys=True))
        return 0
    rows = [[key, f"{value:+.1%}"] for key, value in claims.items()]
    print(format_table(["claim", "measured"], rows))
    return 0


def cmd_resume(args: argparse.Namespace) -> int:
    backend, jobs = _backend_from_args(args)
    try:
        outcome = api.campaign_resume(
            args.campaign_id,
            backend=backend,
            jobs=jobs,
            task_timeout=args.task_timeout,
            max_retries=args.max_retries,
            point_budget=args.point_budget,
        )
    except KeyError:
        message = f"unknown campaign {args.campaign_id!r} (see `cache info`)"
        if args.json:
            print(json.dumps(api.error_envelope("campaign.unknown", message), sort_keys=True))
        else:
            print(message, file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(outcome.to_dict(), sort_keys=True))
    else:
        print(f"campaign {outcome.campaign_id}", file=sys.stderr)
        print(outcome.summary())
        for failure in outcome.accounting.failed:
            print(f"grid point FAILED: {failure.describe()}", file=sys.stderr)
    return 0 if outcome.ok else 1


def cmd_worker(args: argparse.Namespace) -> int:
    from .experiments.distributed.worker import worker_main

    return worker_main(
        node=args.node,
        generation=args.generation,
        heartbeat=args.heartbeat,
    )


def cmd_run(args: argparse.Namespace) -> int:
    if args.benchmark not in ALL_BENCHMARKS:
        message = f"unknown benchmark {args.benchmark!r}; try: {', '.join(ALL_BENCHMARKS)}"
        if args.json:
            print(json.dumps(api.error_envelope("benchmark.unknown", message), sort_keys=True))
        else:
            print(message)
        return 2
    result = api.simulate(
        args.benchmark,
        width=args.width,
        ports=args.ports,
        mode=args.mode,
        scale=args.scale,
        sampling=_sampling_from_args(args),
        metrics=args.json,
    )
    if args.json:
        print(json.dumps(result.to_dict(), sort_keys=True))
    else:
        print(result.stats.summary())
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    if args.benchmark not in ALL_BENCHMARKS:
        print(f"unknown benchmark {args.benchmark!r}; try: {', '.join(ALL_BENCHMARKS)}")
        return 2
    try:
        report = api.trace(
            args.benchmark,
            width=args.width,
            ports=args.ports,
            mode=args.mode,
            scale=args.scale,
            sampling=_sampling_from_args(args),
            events=args.events.split(",") if args.events else None,
            capacity=args.capacity,
        )
    except ValueError as exc:  # unknown event filter token
        print(str(exc), file=sys.stderr)
        return 2
    events = report.events
    if args.limit is not None:
        events = events[: args.limit]
    if args.output:
        with open(args.output, "w", encoding="utf-8") as stream:
            for event in events:
                stream.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
    else:
        for event in events:
            print(json.dumps(event.to_dict(), sort_keys=True))
    # Capture accounting + cross-check go to stderr so stdout stays pure
    # JSONL (pipeable into jq and friends).
    summary = report.bus_summary
    print(
        f"trace: {summary['emitted']} events emitted, "
        f"{summary['captured']} captured, {summary['dropped']} dropped",
        file=sys.stderr,
    )
    failures = [
        kind for kind, check in report.crosscheck().items() if not check["match"]
    ]
    if failures:
        print(f"trace: CROSS-CHECK FAILED for {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    if args.action == "run":
        report = api.fuzz(
            seed=args.seed,
            max_programs=args.max_programs,
            budget_seconds=args.budget_seconds,
            width=args.width,
            ports=args.ports,
            max_instructions=args.max_instructions,
            artifact_dir=args.artifact_dir,
            use_corpus=not args.no_corpus,
            minimize=not args.no_minimize,
            log=None if args.json else lambda line: print(f"fuzz: {line}", file=sys.stderr),
        )
        if args.json:
            print(json.dumps(report.to_dict(), sort_keys=True))
        else:
            print(report.summary())
        return 0 if report.ok else 1
    if args.action == "replay":
        try:
            result = api.fuzz_replay(args.artifact)
        except (OSError, ValueError, KeyError) as exc:
            if args.json:
                payload = api.error_envelope(
                    "fuzz.replay.unreadable", f"cannot replay {args.artifact}: {exc}"
                )
                print(json.dumps(payload, sort_keys=True))
            else:
                print(f"cannot replay {args.artifact}: {exc}", file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps(result, sort_keys=True))
        else:
            recorded = result["recorded"]["verdict"]
            replayed = result["replayed"]["verdict"]
            print(f"recorded verdict: {recorded}")
            print(f"replayed verdict: {replayed}")
            for divergence in result["replayed"]["divergences"]:
                print(
                    f"  [{divergence['stage']}/{divergence['kind']}] "
                    f"{divergence['detail']}"
                )
            print("bit-for-bit match" if result["matches"] else "REPORTS DIFFER")
        return 0 if result["matches"] else 1
    # corpus
    from .verify import Corpus

    info = Corpus().info()
    if args.json:
        payload = {"schema": api.SCHEMA_FUZZ_CORPUS, "ok": True, "error": None, **info}
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"root:           {info['root']}")
        print(f"entries:        {info['entries']}")
        print(f"coverage pairs: {info['coverage_pairs']}")
        for kind, buckets in info["coverage_kinds"].items():
            print(f"  {kind:<18}{buckets} bucket(s)")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .service import ServiceConfig, serve

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        job_workers=args.job_workers,
        queue_limit=args.queue_limit,
        sync_limit=args.sync_limit,
        request_timeout=args.request_timeout,
        max_retries=args.max_retries,
        warm_benchmarks=tuple(args.warm_benchmarks or ()),
        backend=args.backend or ("subprocess" if args.nodes else "local"),
        backend_nodes=args.nodes,
    )
    try:
        return serve(config, warm=not args.no_warm)
    except ValueError as exc:  # e.g. REPRO_JOBS=0 — a usage error, not a crash
        print(f"serve: {exc}", file=sys.stderr)
        return 2


def cmd_cache(args: argparse.Namespace) -> int:
    if args.action == "info":
        info = diskcache.cache_info()
        print(f"root:    {info['root']}")
        print(f"enabled: {info['enabled']}")
        sections = (
            ("stats", "stats"),
            ("traces", "trace"),
            ("soa", "soa"),
            ("checkpoints", "checkpoint"),
            ("corpus", "corpus"),
            ("campaigns", "campaign"),
        )
        for label, key in sections:
            print(
                f"{label + ':':<13}{info[f'{key}_entries']} entries, "
                f"{info[f'{key}_bytes']} bytes"
            )
        print(
            f"{'total:':<13}{info['total_entries']} entries, "
            f"{info['total_bytes']} bytes"
        )
    else:  # clear
        removed = diskcache.clear_cache(section=args.section)
        what = f"{args.section} " if args.section else ""
        print(f"removed {removed} {what}cache entries")
    return 0


def cmd_list(_args: argparse.Namespace) -> int:
    print("SpecInt95-like:", ", ".join(SPEC_INT))
    print("SpecFP95-like: ", ", ".join(SPEC_FP))
    return 0


def _add_sampling_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sampled",
        action="store_true",
        help="sampled simulation: functional warming + detailed windows",
    )
    parser.add_argument(
        "--window",
        type=_positive_int,
        default=None,
        metavar="W",
        help="detailed-window length in trace entries (implies --sampled)",
    )
    parser.add_argument(
        "--interval",
        type=_positive_int,
        default=None,
        metavar="I",
        help="sampling interval in trace entries (implies --sampled)",
    )


def _add_jobs_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        metavar="J",
        help="worker processes (default: $REPRO_JOBS or the CPU count)",
    )


def _add_backend_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        choices=("local", "subprocess"),
        default=None,
        help=(
            "executor backend: the in-host process pool (local, default) "
            "or node-loss-tolerant `python -m repro worker` subprocess "
            "peers (default: $REPRO_BACKEND or local)"
        ),
    )
    parser.add_argument(
        "--nodes",
        type=_positive_int,
        default=None,
        metavar="N",
        help="subprocess-backend worker peers (implies --backend subprocess)",
    )


def _add_fault_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--task-timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-task stall timeout: fail a grid point when no task "
            "completes for this long (default: $REPRO_TASK_TIMEOUT or off)"
        ),
    )
    parser.add_argument(
        "--max-retries",
        type=_nonnegative_int,
        default=None,
        metavar="N",
        help=(
            "retry a failing grid point up to N times before quarantining "
            "it (default: $REPRO_MAX_RETRIES or 2)"
        ),
    )


def _add_json_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the versioned repro.api JSON payload instead of tables",
    )


def _add_point_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("benchmark")
    parser.add_argument("--width", type=int, default=4, choices=(4, 8))
    parser.add_argument("--ports", type=int, default=1, choices=(1, 2, 4))
    parser.add_argument("--mode", default="V", choices=("noIM", "IM", "V"))
    parser.add_argument("--scale", type=int, default=api.EXPERIMENT_SCALE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Speculative Dynamic Vectorization (ISCA 2002) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("figures", help="regenerate the paper's figures")
    p.add_argument("--scale", type=int, default=api.EXPERIMENT_SCALE)
    p.add_argument("--only", nargs="*", metavar="FIG", help="subset, e.g. fig14")
    p.add_argument(
        "--campaign",
        action="store_true",
        help=(
            "persist a resumable per-point manifest; the campaign id is "
            "printed to stderr and `resume` continues a killed run"
        ),
    )
    p.add_argument(
        "--point-budget",
        type=_nonnegative_int,
        default=None,
        metavar="N",
        help="with --campaign: compute at most N cold points this invocation",
    )
    _add_sampling_arguments(p)
    _add_jobs_argument(p)
    _add_backend_arguments(p)
    _add_fault_arguments(p)
    _add_json_argument(p)
    p.set_defaults(fn=cmd_figures)

    p = sub.add_parser("headline", help="measure the paper's headline claims")
    p.add_argument("--scale", type=int, default=api.EXPERIMENT_SCALE)
    _add_sampling_arguments(p)
    _add_jobs_argument(p)
    _add_backend_arguments(p)
    _add_fault_arguments(p)
    _add_json_argument(p)
    p.set_defaults(fn=cmd_headline)

    p = sub.add_parser("resume", help="resume a persisted grid campaign by id")
    p.add_argument("campaign_id", help="content-hash id printed by --campaign")
    p.add_argument(
        "--point-budget",
        type=_nonnegative_int,
        default=None,
        metavar="N",
        help="compute at most N cold points this invocation",
    )
    _add_jobs_argument(p)
    _add_backend_arguments(p)
    _add_fault_arguments(p)
    _add_json_argument(p)
    p.set_defaults(fn=cmd_resume)

    p = sub.add_parser(
        "worker",
        help="internal: subprocess-backend peer (framed JSON on stdin/stdout)",
    )
    p.add_argument("--node", type=_nonnegative_int, default=0, metavar="N")
    p.add_argument("--generation", type=_nonnegative_int, default=0, metavar="G")
    p.add_argument(
        "--heartbeat", type=_positive_float, default=1.0, metavar="SECONDS",
        help="heartbeat-frame interval",
    )
    p.set_defaults(fn=cmd_worker)

    p = sub.add_parser("run", help="simulate one benchmark/configuration")
    _add_point_arguments(p)
    _add_sampling_arguments(p)
    _add_json_argument(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser(
        "trace",
        help="instrumented run: emit captured events as JSONL",
        epilog=(
            "event filters: exact kinds ("
            + ", ".join(sorted(EVENT_KINDS))
            + "), groups ("
            + ", ".join(sorted(EVENT_GROUPS))
            + "), or subsystem prefixes (e.g. vrmt)"
        ),
    )
    _add_point_arguments(p)
    _add_sampling_arguments(p)
    p.add_argument(
        "--events",
        metavar="SPEC",
        default=None,
        help="comma-separated kind/group/prefix filter (default: everything)",
    )
    p.add_argument(
        "--limit",
        type=_positive_int,
        default=None,
        metavar="N",
        help="emit at most the first N captured events",
    )
    p.add_argument(
        "--capacity",
        type=_positive_int,
        default=65_536,
        metavar="N",
        help="ring-buffer capacity (oldest events drop beyond it)",
    )
    p.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help="write JSONL here instead of stdout",
    )
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser(
        "fuzz",
        help="differential fuzzing: interpreter vs scalar vs V-mode machine",
    )
    fuzz_sub = p.add_subparsers(dest="action", required=True)

    pr = fuzz_sub.add_parser("run", help="run a bounded fuzz campaign")
    pr.add_argument("--seed", type=int, default=0, help="campaign RNG seed")
    pr.add_argument(
        "--max-programs", type=_positive_int, default=100, metavar="N",
        help="stop after N generated programs",
    )
    pr.add_argument(
        "--budget-seconds", type=float, default=None, metavar="T",
        help="stop starting new programs after T seconds (CI smoke mode)",
    )
    pr.add_argument("--width", type=int, default=4, choices=(4, 8))
    pr.add_argument("--ports", type=int, default=1, choices=(1, 2, 4))
    pr.add_argument(
        "--max-instructions", type=_positive_int, default=50_000, metavar="N",
        help="per-program dynamic instruction cap",
    )
    pr.add_argument(
        "--artifact-dir", default="fuzz-artifacts", metavar="DIR",
        help="where minimized .repro.json reproducers are written",
    )
    pr.add_argument(
        "--no-corpus", action="store_true",
        help="skip the persistent corpus (pure seeded generation)",
    )
    pr.add_argument(
        "--no-minimize", action="store_true",
        help="report divergences without delta-debugging them",
    )
    _add_json_argument(pr)
    pr.set_defaults(fn=cmd_fuzz)

    pp = fuzz_sub.add_parser("replay", help="re-execute a .repro.json artifact")
    pp.add_argument("artifact", help="path to a .repro.json reproducer")
    _add_json_argument(pp)
    pp.set_defaults(fn=cmd_fuzz)

    pc = fuzz_sub.add_parser("corpus", help="show the persistent fuzz corpus")
    _add_json_argument(pc)
    pc.set_defaults(fn=cmd_fuzz)

    p = sub.add_parser(
        "serve",
        help="run the simulation service daemon (HTTP/JSON, see docs/SERVICE.md)",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument(
        "--port", type=int, default=8642, help="TCP port (0 = ephemeral)"
    )
    _add_jobs_argument(p)
    p.add_argument(
        "--job-workers", type=_positive_int, default=2, metavar="N",
        help="threads draining the async job queue",
    )
    p.add_argument(
        "--queue-limit", type=_positive_int, default=16, metavar="N",
        help="queued async jobs past this answer 503 + Retry-After",
    )
    p.add_argument(
        "--sync-limit", type=_positive_int, default=8, metavar="N",
        help="concurrent synchronous requests past this answer 503",
    )
    p.add_argument(
        "--request-timeout", type=_positive_float, default=300.0, metavar="S",
        help="per-request stall/wait bound in seconds (504 past it)",
    )
    p.add_argument(
        "--max-retries", type=_nonnegative_int, default=None, metavar="N",
        help="fabric retry budget (default: $REPRO_MAX_RETRIES or 2)",
    )
    p.add_argument(
        "--warm-benchmarks", nargs="*", metavar="BENCH", default=None,
        help="preload these benchmarks' traces in every worker at start-up",
    )
    p.add_argument(
        "--no-warm", action="store_true",
        help="skip worker warm-up (first requests pay imports instead)",
    )
    _add_backend_arguments(p)
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("cache", help="inspect or clear the on-disk result cache")
    p.add_argument("action", choices=("info", "clear"))
    p.add_argument(
        "--section",
        choices=("stats", "trace", "soa", "checkpoint", "corpus", "campaign"),
        default=None,
        help="clear only one cache section (default: all)",
    )
    p.set_defaults(fn=cmd_cache)

    p = sub.add_parser("list", help="list the benchmark suite")
    p.set_defaults(fn=cmd_list)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
