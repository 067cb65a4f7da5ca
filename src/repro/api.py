"""repro.api — the stable programmatic facade.

Everything external callers need lives here under guaranteed names and
JSON shapes; the modules behind it (:mod:`repro.experiments.runner`,
:mod:`repro.experiments.parallel`, :mod:`repro.observe`, ...) may
reorganize freely without breaking downstream scripts.  The CLI
(``python -m repro``) is a thin shell over this module.

Entry points:

* :func:`simulate` — one benchmark on one configuration →
  :class:`RunResult`;
* :func:`grid` — a batch of :class:`GridPoint` coordinates fanned out
  over the process pool → :class:`GridReport`;
* :func:`campaign` / :func:`campaign_resume` — resumable sweeps: the
  same batch with a persisted per-point manifest
  (:mod:`repro.experiments.campaign`), so a killed run restarts and
  recomputes only missing/quarantined points;
* :func:`trace` — one instrumented, cache-bypassing run capturing typed
  events → :class:`TraceReport` (JSONL-exportable);
* :func:`figure` / :func:`headline` — the paper's evaluation artifacts,
  batched through :func:`grid` automatically;
* :func:`fuzz` / :func:`fuzz_replay` — the differential fuzzing
  subsystem (:mod:`repro.verify`): bounded campaigns of random programs
  through the interpreter/scalar/V-mode oracle, and replay of saved
  ``.repro.json`` reproducer artifacts.

Result objects expose ``to_dict()`` returning versioned, JSON-serializable
payloads; the CLI's ``--json`` modes and the service daemon
(:mod:`repro.service`, ``python -m repro serve``) print exactly these.

**The wire contract (v2 envelope).**  Every payload carries the same
top-level envelope: ``schema`` (a registered ``repro.<name>/v<N>``
identifier), ``ok`` (did the operation succeed), ``error`` (``None`` or
a ``repro.error/v1`` object: ``kind``/``message``/``retriable``/
``point``), plus the schema-specific payload fields inline.  The single
schema registry lives in :data:`SCHEMAS` (name -> version -> validator,
implemented in :mod:`repro.schemas` and re-exported here);
:func:`validate_envelope` is the shared check the service, the CLI and
the test suites all run, and :func:`error_dict` /
:func:`error_envelope` build the error shapes.  Registered schemas:
``repro.run/v1``, ``repro.grid/v1``, ``repro.campaign/v1``,
``repro.trace/v1``,
``repro.figure/v1`` (one figure), ``repro.figure.set/v1`` (the CLI's
multi-figure payload), ``repro.headline/v1``,
``repro.fuzz/v1``, ``repro.fuzz.oracle/v1``, ``repro.fuzz.repro/v1``,
``repro.fuzz.replay/v1``, ``repro.fuzz.corpus/v1``, ``repro.error/v1``,
and the service's ``repro.service.job/v2`` and
``repro.service.{status,metrics,event}/v1``.
Emitting a schema string literal outside :mod:`repro.schemas` is
deprecated — import the ``SCHEMA_*`` constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .experiments import diskcache
from .experiments import figures as _figures
from .experiments import parallel as _parallel
from .experiments import runner as _runner
from .experiments import campaign as _campaign
from .experiments.campaign import CampaignResult
from .experiments.parallel import GridPoint, WorkerPool
from .experiments.registry import FIGURES, FigureSpec, figure_names, get_figure
from .observe import (
    CROSSCHECK_COUNTERS,
    MetricsRegistry,
    Observer,
    SAMPLE_WINDOW,
    TraceEvent,
)
from . import verify as _verify
from .pipeline.machine import Machine
from .pipeline.stats import SimStats
from .sampling import SamplingConfig, run_sampled
from .schemas import (
    EnvelopeError,
    SCHEMAS,
    SCHEMA_CAMPAIGN,
    SCHEMA_ERROR,
    SCHEMA_FIGURE,
    SCHEMA_FIGURE_SET,
    SCHEMA_FUZZ,
    SCHEMA_FUZZ_CORPUS,
    SCHEMA_FUZZ_ORACLE,
    SCHEMA_FUZZ_REPLAY,
    SCHEMA_FUZZ_REPRO,
    SCHEMA_GRID,
    SCHEMA_HEADLINE,
    SCHEMA_JOB,
    SCHEMA_RUN,
    SCHEMA_SERVICE_EVENT,
    SCHEMA_SERVICE_METRICS,
    SCHEMA_SERVICE_STATUS,
    SCHEMA_TRACE,
    schema_names,
    envelope as _envelope,
    error_dict,
    error_envelope,
    validate_envelope,
    wrap_error,
)
from .verify import CampaignReport, OracleConfig
from .workloads.spec95 import ALL_BENCHMARKS
from .workloads.spec95 import cached_trace as _cached_trace

EXPERIMENT_SCALE = _runner.EXPERIMENT_SCALE

SamplingLike = Union[None, SamplingConfig, Tuple[int, int]]


def _coerce_sampling(sampling: SamplingLike) -> Optional[SamplingConfig]:
    """Accept None, a SamplingConfig, or a ``(window, interval)`` tuple."""
    if sampling is None or isinstance(sampling, SamplingConfig):
        return sampling
    window, interval = sampling
    return SamplingConfig(window=window, interval=interval)


def _check_benchmark(name: str) -> None:
    if name not in ALL_BENCHMARKS:
        raise ValueError(
            f"unknown benchmark {name!r}; known: {', '.join(ALL_BENCHMARKS)}"
        )


class GridFailureError(RuntimeError):
    """A figure/headline grid left failed points after all retries.

    Figures and headline claims need *every* point of their grid; when
    the fault-tolerant runner quarantines points the derived rows would
    be fiction, so the failure list is raised instead.  The parallel
    accounting report (with ``failed`` populated) rides on
    ``.accounting``.
    """

    def __init__(self, accounting: _parallel.GridReport) -> None:
        self.accounting = accounting
        lines = [failure.describe() for failure in accounting.failed]
        super().__init__(
            f"{len(accounting.failed)} grid point(s) failed after retries: "
            + "; ".join(lines)
        )

    def to_error(self) -> Dict:
        """The ``repro.error/v1`` object for this failure (envelope-ready).

        ``retriable`` is False — every quarantined point already
        exhausted its retry budget; an identical resubmission will hit
        the same fault unless the environment changed.  The per-point
        failures ride along as nested error objects.
        """
        return error_dict(
            "grid.failure",
            str(self),
            retriable=False,
            failures=[failure.to_dict() for failure in self.accounting.failed],
        )


class GridCancelled(RuntimeError):
    """A figure/headline grid was stopped by its ``cancel`` signal.

    Figures and headline claims need *every* point; a cancelled batch is
    incomplete by design, so the derived rows cannot be computed and the
    cancellation is raised instead (the partial accounting rides on
    ``.accounting``).  Plain :func:`grid` calls do **not** raise — they
    return the partial report with ``accounting.cancelled`` set.
    """

    def __init__(self, accounting: _parallel.GridReport) -> None:
        self.accounting = accounting
        super().__init__("grid cancelled before completion")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    """One simulation's identity + statistics, JSON-stable via to_dict."""

    benchmark: str
    width: int
    ports: int
    mode: str
    scale: int
    block_on_scalar_operand: bool
    sampling: Optional[Tuple[int, int]]
    stats: SimStats
    metrics: Optional[Dict] = None

    @property
    def ipc(self) -> float:
        return self.stats.ipc

    def point(self) -> GridPoint:
        """The grid coordinate this result answers."""
        return GridPoint(
            self.benchmark,
            self.width,
            self.ports,
            self.mode,
            self.scale,
            self.block_on_scalar_operand,
            self.sampling,
        )

    def to_dict(self) -> Dict:
        return {
            "schema": SCHEMA_RUN,
            "ok": True,
            "error": None,
            "point": {
                "benchmark": self.benchmark,
                "width": self.width,
                "ports": self.ports,
                "mode": self.mode,
                "scale": self.scale,
                "block_on_scalar_operand": self.block_on_scalar_operand,
                "sampling": list(self.sampling) if self.sampling else None,
            },
            "stats": diskcache.stats_to_dict(self.stats),
            "derived": {
                "ipc": self.stats.ipc,
                "validation_fraction": self.stats.validation_fraction,
                "port_occupancy": self.stats.port_occupancy,
                "memory_accesses": self.stats.memory_accesses,
            },
            "metrics": self.metrics,
        }


def simulate(
    benchmark: str,
    *,
    width: int = 4,
    ports: int = 1,
    mode: str = "V",
    scale: int = EXPERIMENT_SCALE,
    block_on_scalar_operand: bool = True,
    sampling: SamplingLike = None,
    metrics: bool = False,
    observer: Optional[Observer] = None,
) -> RunResult:
    """Simulate ``benchmark`` on one machine configuration.

    Results come through the two-layer cache (in-process memo + disk), so
    repeated calls are cheap and deterministic.  ``metrics=True`` attaches
    a fresh :class:`MetricsRegistry` and returns its serialized contents
    in ``RunResult.metrics``; pass ``observer`` instead for full control
    (tracing/profiling) — but note cache hits skip simulation, so an
    event-capture run should use :func:`trace`.
    """
    _check_benchmark(benchmark)
    sampling = _coerce_sampling(sampling)
    if metrics and observer is None:
        observer = Observer.measuring()
    stats = _runner.run_point(
        benchmark,
        width,
        ports,
        mode,
        scale,
        block_on_scalar_operand,
        sampling=sampling,
        observer=observer,
    )
    payload = None
    if observer is not None and observer.metrics is not None:
        payload = observer.metrics.to_dict()
    return RunResult(
        benchmark=benchmark,
        width=width,
        ports=ports,
        mode=mode,
        scale=scale,
        block_on_scalar_operand=block_on_scalar_operand,
        sampling=sampling.key if sampling is not None else None,
        stats=stats,
        metrics=payload,
    )


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------


def _accounting_dict(accounting: _parallel.GridReport) -> Dict:
    """The wire form of fabric accounting.

    ``cancelled`` and ``resume_skipped`` appear only when set, so a
    plain grid's payload carries exactly the fixed keys.
    """
    out = {
        "requested": accounting.requested,
        "unique": accounting.unique,
        "memo_hits": accounting.memo_hits,
        "disk_hits": accounting.disk_hits,
        "simulated": accounting.simulated,
        "jobs": accounting.jobs,
        "retries": accounting.retries,
        "pool_restarts": accounting.pool_restarts,
        "degraded_serial": accounting.degraded_serial,
    }
    if accounting.cancelled:
        out["cancelled"] = True
    if accounting.resume_skipped:
        out["resume_skipped"] = accounting.resume_skipped
    return out


@dataclass
class GridReport:
    """A batch of grid results plus where-they-came-from accounting."""

    runs: List[RunResult]
    accounting: _parallel.GridReport
    metrics: Optional[MetricsRegistry] = None

    def __len__(self) -> int:
        return len(self.runs)

    @property
    def ok(self) -> bool:
        """True when every requested point produced a result."""
        return self.accounting.ok

    @property
    def failures(self) -> List[_parallel.TaskFailure]:
        """Points quarantined after exhausting their retry budget."""
        return self.accounting.failed

    def stats(self) -> Dict[GridPoint, SimStats]:
        return {run.point(): run.stats for run in self.runs}

    def summary(self) -> str:
        return self.accounting.summary()

    def to_dict(self) -> Dict:
        failed = not self.accounting.ok
        return {
            "schema": SCHEMA_GRID,
            "ok": not failed,
            "error": GridFailureError(self.accounting).to_error() if failed else None,
            "accounting": _accounting_dict(self.accounting),
            "failures": [failure.to_dict() for failure in self.accounting.failed],
            "runs": [run.to_dict() for run in self.runs],
            "metrics": self.metrics.to_dict() if self.metrics else None,
        }


def grid(
    points: Iterable[Union[GridPoint, Sequence]],
    *,
    jobs: Optional[int] = None,
    sampling: SamplingLike = None,
    metrics: bool = False,
    task_timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
    pool: Optional[_parallel.WorkerPool] = None,
    on_result=None,
    cancel=None,
) -> GridReport:
    """Compute a batch of grid points, fanning misses over a process pool.

    ``points`` may be :class:`GridPoint` instances or plain tuples in
    GridPoint order.  ``sampling``, when given, overrides the sampling
    coordinate of *every* point (the common "same grid, sampled" case).
    ``metrics=True`` aggregates every point's metrics — whether it came
    from a worker, the disk cache, or the memo — into one registry on the
    returned report.  ``pool``, when given, is a warm
    :class:`repro.experiments.parallel.WorkerPool` reused instead of
    spawning a fresh process pool per call (the service daemon's
    amortization lever).

    Failures are contained per point: a task that keeps failing (or, with
    ``task_timeout``, hanging) is retried ``max_retries`` times with
    backoff and then quarantined into ``report.failures`` while the rest
    of the batch completes — check ``report.ok`` before trusting a full
    grid.  See :class:`repro.experiments.parallel.FaultPolicy`.

    ``on_result(point, stats_dict)`` streams each point as it completes
    (cache hits immediately, computed points from inside the fabric);
    ``cancel`` — anything with ``is_set()`` — stops the batch early with
    ``report.accounting.cancelled`` set, keeping (and caching) whatever
    completed first.  See :func:`repro.experiments.parallel.run_grid`.
    """
    sampling = _coerce_sampling(sampling)
    normalized: List[GridPoint] = []
    for point in points:
        point = GridPoint(*point)
        if sampling is not None:
            point = point._replace(sampling=sampling.key)
        normalized.append(point)
    registry = MetricsRegistry() if metrics else None
    accounting = _parallel.GridReport()
    results = _parallel.run_grid(
        normalized,
        jobs=jobs,
        report=accounting,
        metrics=registry,
        task_timeout=task_timeout,
        max_retries=max_retries,
        pool=pool,
        on_result=on_result,
        cancel=cancel,
    )
    runs = [
        RunResult(
            benchmark=point.name,
            width=point.width,
            ports=point.ports,
            mode=point.mode,
            scale=point.scale,
            block_on_scalar_operand=point.block_on_scalar_operand,
            sampling=point.sampling,
            stats=stats,
        )
        for point, stats in results.items()
    ]
    return GridReport(runs=runs, accounting=accounting, metrics=registry)


# ---------------------------------------------------------------------------
# campaign (resumable sweeps; see repro.experiments.campaign)
# ---------------------------------------------------------------------------


@dataclass
class CampaignOutcome:
    """One campaign invocation, envelope-ready (``repro.campaign/v1``)."""

    result: CampaignResult
    metrics: Optional[MetricsRegistry] = None

    @property
    def ok(self) -> bool:
        return self.result.ok

    @property
    def campaign_id(self) -> str:
        return self.result.campaign_id

    @property
    def accounting(self) -> _parallel.GridReport:
        return self.result.report

    def stats(self) -> Dict[GridPoint, SimStats]:
        return dict(self.result.results)

    def summary(self) -> str:
        return self.result.summary()

    def to_dict(self) -> Dict:
        report = self.result.report
        manifest = self.result.manifest
        error = None
        if report.failed:
            error = error_dict(
                "campaign.failure",
                f"{len(report.failed)} point(s) failed after retries "
                f"(resume retries them with a fresh budget)",
                retriable=True,
                failures=[failure.to_dict() for failure in report.failed],
            )
        elif not self.ok:
            error = error_dict(
                "campaign.incomplete",
                "campaign has pending points (budgeted slice; resume to finish)",
                retriable=True,
            )
        return {
            "schema": SCHEMA_CAMPAIGN,
            "ok": self.ok,
            "error": error,
            "campaign": {
                "id": self.result.campaign_id,
                "created": manifest.created,
                "updated": manifest.updated,
                **manifest.counts(),
            },
            "resume": {
                "skipped": report.resume_skipped,
                "recomputed": report.simulated,
            },
            "accounting": _accounting_dict(report),
            "failures": [failure.to_dict() for failure in report.failed],
            "metrics": self.metrics.to_dict() if self.metrics else None,
        }


def campaign(
    points: Iterable[Union[GridPoint, Sequence]],
    *,
    jobs: Optional[int] = None,
    sampling: SamplingLike = None,
    metrics: bool = False,
    task_timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
    point_budget: Optional[int] = None,
) -> CampaignOutcome:
    """Run — or transparently resume — the resumable campaign on ``points``.

    A campaign is a grid batch with a persisted per-point manifest keyed
    by the content hash of the points themselves: run it again (same
    points, any order) after a kill and only missing/quarantined points
    recompute — previously-done ones are recovered from the disk cache
    and counted in ``accounting.resume_skipped`` / the
    ``dist.resume_skipped`` metric.  ``point_budget`` bounds this
    invocation to that many fresh points (huge sweeps in slices).  See
    :mod:`repro.experiments.campaign`.
    """
    sampling = _coerce_sampling(sampling)
    normalized: List[GridPoint] = []
    for point in points:
        point = GridPoint(*point)
        if sampling is not None:
            point = point._replace(sampling=sampling.key)
        normalized.append(point)
    registry = MetricsRegistry() if metrics else None
    result = _campaign.run_campaign(
        normalized,
        jobs=jobs,
        metrics=registry,
        task_timeout=task_timeout,
        max_retries=max_retries,
        point_budget=point_budget,
    )
    return CampaignOutcome(result=result, metrics=registry)


def campaign_resume(
    campaign_id: str,
    *,
    jobs: Optional[int] = None,
    metrics: bool = False,
    task_timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
    point_budget: Optional[int] = None,
) -> CampaignOutcome:
    """Resume a persisted campaign by id (raises ``KeyError`` if unknown)."""
    registry = MetricsRegistry() if metrics else None
    result = _campaign.resume_campaign(
        campaign_id,
        jobs=jobs,
        metrics=registry,
        task_timeout=task_timeout,
        max_retries=max_retries,
        point_budget=point_budget,
    )
    return CampaignOutcome(result=result, metrics=registry)


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

@dataclass
class TraceReport:
    """One instrumented run's captured events + capture accounting."""

    result: RunResult
    events: List[TraceEvent] = field(default_factory=list)
    bus_summary: Dict = field(default_factory=dict)

    def crosscheck(self) -> Dict[str, Dict]:
        """Per-kind event counts vs the SimStats counters they mirror.

        Only kinds the bus subscribed to are checked (filtered kinds are
        never counted).  A sampled run's ``SimStats`` are weighted
        estimates, so its events are checked against the unweighted
        counter sums of the detailed windows instead, which the last
        ``sample.window`` event carries as ``totals``.  Every ``match``
        is True by construction; a False is an instrumentation bug.
        """
        counts = self.bus_summary.get("counts", {})
        kinds = self.bus_summary.get("kinds")
        reference = self._reference_counters()
        out: Dict[str, Dict] = {}
        for kind, attr in CROSSCHECK_COUNTERS.items():
            if kinds is not None and kind not in kinds:
                continue
            expected = reference[attr]
            got = counts.get(kind, 0)
            out[kind] = {"events": got, "counter": attr,
                         "expected": expected, "match": got == expected}
        return out

    def _reference_counters(self) -> Dict[str, int]:
        stats = self.result.stats
        if not stats.sampled_windows:
            return {attr: getattr(stats, attr) for attr in CROSSCHECK_COUNTERS.values()}
        last = next(e for e in reversed(self.events) if e.kind == SAMPLE_WINDOW)
        return last.data["totals"]

    def to_dict(self) -> Dict:
        return {
            "schema": SCHEMA_TRACE,
            "ok": True,
            "error": None,
            "run": self.result.to_dict(),
            "capture": self.bus_summary,
            "crosscheck": self.crosscheck(),
            "events": [event.to_dict() for event in self.events],
        }

    def export_jsonl(self, stream) -> int:
        """Write the captured events to ``stream`` as JSONL lines."""
        import json

        n = 0
        for event in self.events:
            stream.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
            n += 1
        return n


def trace(
    benchmark: str,
    *,
    width: int = 4,
    ports: int = 1,
    mode: str = "V",
    scale: int = EXPERIMENT_SCALE,
    block_on_scalar_operand: bool = True,
    sampling: SamplingLike = None,
    events: Optional[Iterable[str]] = None,
    capacity: int = 65_536,
    metrics: bool = False,
) -> TraceReport:
    """Run one instrumented simulation and capture its event stream.

    Always simulates (never a stats-cache hit — a cached result has no
    events to replay) and never writes the stats cache, so tracing cannot
    perturb cached experiment state.  Stats are bit-identical to the
    uninstrumented run of the same point.

    ``events`` filters by kind, group alias, or subsystem prefix (see
    :func:`repro.observe.resolve_event_kinds`); None captures everything.
    A sampled trace always captures ``sample.window``: its events mark
    the windows whose cycles and positions the other events count from,
    and the last one carries the totals the cross-check compares with.
    """
    _check_benchmark(benchmark)
    sampling = _coerce_sampling(sampling)
    observer = Observer.tracing(events=events, capacity=capacity, metrics=metrics)
    if sampling is not None and observer.bus.kinds is not None:
        observer.bus.kinds |= {SAMPLE_WINDOW}
    kinds = observer.bus.kinds
    config = _runner.point_config(width, ports, mode, block_on_scalar_operand)
    instr_trace = _cached_trace(benchmark, scale)
    if sampling is not None:
        stats = run_sampled(
            config,
            instr_trace,
            sampling,
            checkpoint_scope={"benchmark": benchmark, "scale": scale, "seed": 0},
            observer=observer,
        )
    else:
        stats = Machine(config, instr_trace, observer=observer).run()
    summary = observer.bus.summary()
    summary["kinds"] = sorted(kinds) if kinds is not None else None
    result = RunResult(
        benchmark=benchmark,
        width=width,
        ports=ports,
        mode=mode,
        scale=scale,
        block_on_scalar_operand=block_on_scalar_operand,
        sampling=sampling.key if sampling is not None else None,
        stats=stats,
        metrics=observer.metrics.to_dict() if observer.metrics else None,
    )
    return TraceReport(
        result=result,
        events=list(observer.bus.events),
        bus_summary=summary,
    )


# ---------------------------------------------------------------------------
# figures / headline
# ---------------------------------------------------------------------------


@dataclass
class FigureResult:
    """One regenerated figure: rows keyed by benchmark, plus identity."""

    spec: FigureSpec
    rows: Dict[str, Dict[str, float]]
    grid: Optional[GridReport] = None

    def to_dict(self) -> Dict:
        return {
            "schema": SCHEMA_FIGURE,
            "ok": True,
            "error": None,
            "figure": self.spec.describe(),
            "rows": self.rows,
        }


def figure(
    name: str,
    *,
    scale: int = EXPERIMENT_SCALE,
    sampling: SamplingLike = None,
    jobs: Optional[int] = None,
    prebatched: bool = False,
    task_timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
    pool: Optional[_parallel.WorkerPool] = None,
    on_result=None,
    cancel=None,
) -> FigureResult:
    """Regenerate one figure of the paper (see :data:`FIGURES` for names).

    The figure's simulation points are batched through :func:`grid` first
    (skipped with ``prebatched=True`` when a driver already warmed the
    batch), then the rows are computed from the in-process memo.  Raises
    :class:`GridFailureError` if any batched point failed after retries —
    partial figures are worse than no figures.
    """
    spec = get_figure(name)
    sampling = _coerce_sampling(sampling)
    report = None
    if not prebatched:
        points = spec.points(scale, sampling)
        if points:
            report = grid(
                points, jobs=jobs,
                task_timeout=task_timeout, max_retries=max_retries,
                pool=pool,
                on_result=on_result, cancel=cancel,
            )
            if not report.ok:
                raise GridFailureError(report.accounting)
            if report.accounting.cancelled:
                raise GridCancelled(report.accounting)
    return FigureResult(spec=spec, rows=spec.rows(scale, sampling), grid=report)


def headline(
    *,
    scale: int = EXPERIMENT_SCALE,
    sampling: SamplingLike = None,
    jobs: Optional[int] = None,
    task_timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
    pool: Optional[_parallel.WorkerPool] = None,
    on_result=None,
    cancel=None,
) -> Dict[str, float]:
    """Measure the paper's headline claims (§1/§4/§6) on this machine.

    Raises :class:`GridFailureError` when any underlying grid point
    failed after retries (the claims need the complete grid).
    """
    sampling = _coerce_sampling(sampling)
    report = grid(
        _figures.headline_points(scale, sampling), jobs=jobs,
        task_timeout=task_timeout, max_retries=max_retries,
        pool=pool,
        on_result=on_result, cancel=cancel,
    )
    if not report.ok:
        raise GridFailureError(report.accounting)
    if report.accounting.cancelled:
        raise GridCancelled(report.accounting)
    return _figures.headline_claims(scale, sampling)


# ---------------------------------------------------------------------------
# fuzz (differential verification; see repro.verify)
# ---------------------------------------------------------------------------


def fuzz(
    *,
    seed: int = 0,
    max_programs: int = 100,
    budget_seconds: Optional[float] = None,
    width: int = 4,
    ports: int = 1,
    scalar_mode: str = "noIM",
    max_instructions: int = 50_000,
    artifact_dir: str = "fuzz-artifacts",
    use_corpus: bool = True,
    minimize: bool = True,
    log=None,
) -> "_verify.CampaignReport":
    """Run a differential fuzz campaign (interpreter vs scalar vs V-mode).

    Generates seeded random programs (mutating the persistent corpus once
    it is non-empty), runs each through the three-way oracle, keeps
    behaviourally novel inputs, and minimizes + persists any divergence
    as a ``.repro.json`` artifact under ``artifact_dir``.  The returned
    :class:`repro.verify.CampaignReport` serializes to the versioned
    ``repro.fuzz/v1`` schema; ``report.ok`` is the CI gate.
    """
    oracle = _verify.OracleConfig(
        width=width,
        ports=ports,
        scalar_mode=scalar_mode,
        max_instructions=max_instructions,
    )
    return _verify.run_campaign(
        seed=seed,
        max_programs=max_programs,
        budget_seconds=budget_seconds,
        oracle=oracle,
        artifact_dir=artifact_dir,
        use_corpus=use_corpus,
        minimize=minimize,
        log=log,
    )


def fuzz_replay(path) -> Dict:
    """Re-execute a ``.repro.json`` reproducer artifact.

    Returns the versioned ``repro.fuzz.replay/v1`` payload: the recorded
    oracle report, the freshly replayed one, and ``matches`` (bit-for-bit
    equality of the two).
    """
    return _verify.replay_artifact(path)


__all__ = [
    "ALL_BENCHMARKS",
    "CampaignOutcome",
    "CampaignReport",
    "CampaignResult",
    "EXPERIMENT_SCALE",
    "EnvelopeError",
    "FIGURES",
    "FigureResult",
    "FigureSpec",
    "GridCancelled",
    "GridFailureError",
    "GridPoint",
    "GridReport",
    "OracleConfig",
    "RunResult",
    "SCHEMAS",
    "SCHEMA_CAMPAIGN",
    "SCHEMA_ERROR",
    "SCHEMA_FIGURE",
    "SCHEMA_FIGURE_SET",
    "SCHEMA_FUZZ",
    "SCHEMA_FUZZ_CORPUS",
    "SCHEMA_FUZZ_ORACLE",
    "SCHEMA_FUZZ_REPLAY",
    "SCHEMA_FUZZ_REPRO",
    "SCHEMA_GRID",
    "SCHEMA_HEADLINE",
    "SCHEMA_JOB",
    "SCHEMA_RUN",
    "SCHEMA_SERVICE_EVENT",
    "SCHEMA_SERVICE_METRICS",
    "SCHEMA_SERVICE_STATUS",
    "SCHEMA_TRACE",
    "SamplingConfig",
    "TraceReport",
    "WorkerPool",
    "campaign",
    "campaign_resume",
    "error_dict",
    "error_envelope",
    "figure",
    "figure_names",
    "fuzz",
    "fuzz_replay",
    "get_figure",
    "grid",
    "headline",
    "schema_names",
    "simulate",
    "trace",
    "validate_envelope",
    "wrap_error",
]
