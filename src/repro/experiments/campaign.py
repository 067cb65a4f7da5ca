"""Resumable grid campaigns: content-hash manifests in the disk cache.

A *campaign* is a batch of grid points whose identity is the content
hash of the points themselves — the sorted per-point stats-cache keys
(which already fold in benchmark, scale, seed, config fingerprint and
simulator-source digest) hashed once more.  The same points always name
the same campaign, across processes and hosts sharing a cache dir.

The manifest — a ``campaigns/<id>.json`` entry in the content-addressed
disk cache (:mod:`repro.experiments.diskcache`) — records per-point
state (``pending`` / ``done`` / ``failed``) and is checkpointed after
every ``checkpoint_every`` completed points, so a campaign killed
mid-sweep restarts cheaply: :func:`run_campaign` on the same points (or
:func:`resume_campaign` on the id) recovers ``done`` points through the
memo/disk cache without simulating (counted as
``GridReport.resume_skipped`` and the ``dist.resume_skipped`` metric),
re-queues ``failed`` ones — quarantined points deserve a fresh retry
budget on a new run — and computes the rest on the process-pool fabric
(:func:`repro.experiments.parallel.run_grid`).

Even points the manifest missed (killed between checkpoints) cost only
a disk-cache probe on resume: every completed simulation was stored by
the worker that ran it.  The manifest makes resume *accounting* exact;
the cache makes resume *correctness* unconditional.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from ..observe import MetricsRegistry
from ..pipeline.stats import SimStats
from . import diskcache, parallel, runner
from .parallel import GridPoint, GridReport

#: manifest checkpoint cadence, in completed points.
DEFAULT_CHECKPOINT_EVERY = 8

_STATES = ("pending", "done", "failed")


def point_cache_key(point: GridPoint) -> str:
    """The content-addressed stats key for one grid point."""
    config = runner.point_config(
        point.width, point.ports, point.mode, point.block_on_scalar_operand
    )
    sampling = runner.sampling_from_key(point.sampling)
    return diskcache.stats_key(
        point.name,
        point.scale,
        0,
        config,
        sampling.fingerprint() if sampling is not None else None,
    )


def _point_to_wire(point) -> list:
    """A GridPoint as a JSON-stable list (tuples survive the round trip)."""
    wire = list(point)
    if wire[6] is not None:
        wire[6] = list(wire[6])
    return wire


def _point_from_wire(wire) -> tuple:
    """Inverse of :func:`_point_to_wire` (returns the GridPoint field tuple)."""
    fields = list(wire)
    if fields[6] is not None:
        fields[6] = tuple(fields[6])
    return tuple(fields)


def campaign_id(points: Iterable[GridPoint]) -> str:
    """Content-hash identity: same points (any order) → same campaign."""
    digest = hashlib.sha256()
    digest.update(b"repro.campaign/v1\n")
    for key in sorted(point_cache_key(GridPoint(*p)) for p in set(points)):
        digest.update(key.encode("ascii") + b"\n")
    return digest.hexdigest()[:16]


@dataclass
class CampaignManifest:
    """Per-point state of one campaign, as persisted in the cache."""

    campaign_id: str
    points: List[GridPoint]
    state: List[str]
    failures: Dict[int, Dict] = field(default_factory=dict)
    created: float = 0.0
    updated: float = 0.0

    @classmethod
    def fresh(cls, cid: str, points: List[GridPoint]) -> "CampaignManifest":
        now = time.time()
        return cls(
            campaign_id=cid,
            points=list(points),
            state=["pending"] * len(points),
            created=now,
            updated=now,
        )

    def counts(self) -> Dict[str, int]:
        out = {name: 0 for name in _STATES}
        for state in self.state:
            out[state] += 1
        out["total"] = len(self.state)
        return out

    def to_payload(self) -> Dict:
        return {
            "campaign_id": self.campaign_id,
            "created": self.created,
            "updated": self.updated,
            "points": [_point_to_wire(point) for point in self.points],
            "state": list(self.state),
            "failures": {str(i): err for i, err in self.failures.items()},
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "CampaignManifest":
        points = [
            GridPoint(*_point_from_wire(wire)) for wire in payload["points"]
        ]
        state = [str(s) for s in payload["state"]]
        if len(state) != len(points) or any(s not in _STATES for s in state):
            raise ValueError("malformed campaign manifest state")
        return cls(
            campaign_id=str(payload["campaign_id"]),
            points=points,
            state=state,
            failures={int(i): err for i, err in payload.get("failures", {}).items()},
            created=float(payload.get("created", 0.0)),
            updated=float(payload.get("updated", 0.0)),
        )

    def store(self) -> None:
        self.updated = time.time()
        diskcache.store_campaign(self.campaign_id, self.to_payload())


def load_manifest(cid: str) -> Optional[CampaignManifest]:
    """The persisted manifest for ``cid``, or None (missing/corrupt)."""
    payload = diskcache.load_campaign(cid)
    if payload is None:
        return None
    try:
        return CampaignManifest.from_payload(payload)
    except (KeyError, ValueError, TypeError):
        return None  # corrupt manifest == missing (cache self-heal rules)


@dataclass
class CampaignResult:
    """One campaign invocation's results + resume accounting."""

    campaign_id: str
    results: Dict[GridPoint, SimStats]
    report: GridReport
    manifest: CampaignManifest

    @property
    def ok(self) -> bool:
        return self.report.ok and all(s == "done" for s in self.manifest.state)

    def summary(self) -> str:
        counts = self.manifest.counts()
        text = (
            f"campaign {self.campaign_id}: {counts['done']}/{counts['total']} done"
        )
        if counts["failed"]:
            text += f", {counts['failed']} failed"
        if counts["pending"]:
            text += f", {counts['pending']} pending"
        if self.report.resume_skipped:
            text += f" ({self.report.resume_skipped} resumed from cache)"
        return text + " — " + self.report.summary()


def _merge_report(master: GridReport, chunk: GridReport) -> None:
    master.memo_hits += chunk.memo_hits
    master.disk_hits += chunk.disk_hits
    master.simulated += chunk.simulated
    master.retries += chunk.retries
    master.pool_restarts += chunk.pool_restarts
    master.degraded_serial = master.degraded_serial or chunk.degraded_serial
    master.jobs = max(master.jobs, chunk.jobs)
    master.failed.extend(chunk.failed)


def run_campaign(
    points: Iterable[GridPoint],
    *,
    jobs: Optional[int] = None,
    metrics: Optional[MetricsRegistry] = None,
    task_timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
    point_budget: Optional[int] = None,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
) -> CampaignResult:
    """Run (or transparently resume) the campaign naming ``points``.

    If a manifest for these points already exists it is resumed: its
    ``done`` points are recovered from the memo/disk cache without
    simulation (``report.resume_skipped``), ``failed`` points get a
    fresh retry budget, and only the remainder executes on ``jobs``
    worker processes (see :func:`repro.experiments.parallel.run_grid`).

    ``point_budget`` bounds this *invocation* to that many fresh points
    (the manifest checkpoint makes the rest resumable later) — the knob
    for running a huge sweep in bounded slices.
    """
    ordered: List[GridPoint] = []
    seen = set()
    for point in points:
        point = GridPoint(*point)
        if point not in seen:
            seen.add(point)
            ordered.append(point)

    cid = campaign_id(ordered)
    manifest = load_manifest(cid)
    if manifest is None or len(manifest.points) != len(ordered):
        manifest = CampaignManifest.fresh(cid, ordered)
    index = {point: i for i, point in enumerate(manifest.points)}

    jobs = parallel.resolve_jobs(jobs)
    report = GridReport()
    report.requested = len(ordered)
    report.unique = len(ordered)
    report.jobs = jobs
    results: Dict[GridPoint, SimStats] = {}

    # Phase 1 — recover previously-done points.  run_grid satisfies
    # them from the memo/disk cache (no pool spawns: there is nothing
    # cold), or honestly recomputes if the cache was wiped under the
    # manifest.
    done_points = [p for p in manifest.points if manifest.state[index[p]] == "done"]
    if done_points:
        recover = GridReport()
        recovered = parallel.run_grid(
            done_points,
            jobs=jobs,
            report=recover,
            metrics=metrics,
            task_timeout=task_timeout,
            max_retries=max_retries,
        )
        results.update(recovered)
        report.resume_skipped = recover.memo_hits + recover.disk_hits
        _merge_report(report, recover)
        for point in done_points:
            if point not in recovered:
                manifest.state[index[point]] = "pending"  # cache lied; redo

    # Phase 2 — execute what remains, a checkpointed chunk at a time.
    # Failed points re-enter with a fresh retry budget.
    remaining = [
        p for p in manifest.points if manifest.state[index[p]] != "done"
    ]
    if point_budget is not None:
        remaining = remaining[: max(0, point_budget)]
    chunk_size = max(1, checkpoint_every)
    for start in range(0, len(remaining), chunk_size):
        chunk = remaining[start:start + chunk_size]
        chunk_report = GridReport()
        chunk_results = parallel.run_grid(
            chunk,
            jobs=jobs,
            report=chunk_report,
            metrics=metrics,
            task_timeout=task_timeout,
            max_retries=max_retries,
        )
        results.update(chunk_results)
        _merge_report(report, chunk_report)
        for point in chunk:
            if point in chunk_results:
                manifest.state[index[point]] = "done"
                manifest.failures.pop(index[point], None)
        for failure in chunk_report.failed:
            i = index.get(failure.point)
            if i is not None:
                manifest.state[i] = "failed"
                manifest.failures[i] = failure.to_dict()
        manifest.store()
    manifest.store()

    if metrics is not None and report.resume_skipped:
        metrics.counter("dist.resume_skipped").inc(report.resume_skipped)
    return CampaignResult(
        campaign_id=cid, results=results, report=report, manifest=manifest
    )


def resume_campaign(
    cid: str,
    *,
    jobs: Optional[int] = None,
    metrics: Optional[MetricsRegistry] = None,
    task_timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
    point_budget: Optional[int] = None,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
) -> CampaignResult:
    """Resume a persisted campaign by id (see :func:`run_campaign`)."""
    manifest = load_manifest(cid)
    if manifest is None:
        raise KeyError(f"no campaign manifest {cid!r} in the cache")
    return run_campaign(
        manifest.points,
        jobs=jobs,
        metrics=metrics,
        task_timeout=task_timeout,
        max_retries=max_retries,
        point_budget=point_budget,
        checkpoint_every=checkpoint_every,
    )
