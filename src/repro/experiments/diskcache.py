"""Persistent on-disk cache for simulation results.

The full figure grid — 12 benchmarks x {4,8}-way x {1,2,4} ports x
{noIM, IM, V} — is the dominant wall-clock cost of every development
loop on a pure-Python cycle model.  The grid is also perfectly
replayable: a (benchmark, scale, seed, machine-configuration) point plus
the simulator sources determines its :class:`~repro.pipeline.stats.SimStats`
bit for bit.  This module caches on disk:

* **stats/** — one JSON file per simulated grid point (exact or sampled;
  sampled keys carry the sampling parameters);
* **checkpoints/** — warmed microarchitectural state (cache contents,
  predictor tables, architectural memory) at sampled-window boundaries,
  written by :mod:`repro.sampling` so re-runs and pool workers
  fast-forward to a window instead of re-streaming the warmer;
* **corpus/** — interesting fuzzing inputs kept by the differential
  fuzzer (:mod:`repro.verify.fuzzer`): program genomes plus the coverage
  signature that earned them a slot.  Content-keyed only (no source
  digest — inputs outlive simulator edits);
* **campaigns/** — resumable-campaign manifests
  (:mod:`repro.experiments.campaign`): per-point state for one
  content-hash-identified grid sweep.  Like the corpus, keyed by
  identity rather than result (the per-point *results* live in
  ``stats/`` and carry the source digest; a manifest whose points went
  stale simply resolves to recomputation).

Functional traces and their :class:`~repro.functional.trace.TraceSoA`
predecode are *not* persisted: rebuilding them costs less than the
serialize/parse round-trip (docs/PERFORMANCE.md), so
:func:`repro.workloads.spec95.cached_trace` memoizes them in-process
only.  The ``traces/`` and ``soa/`` sections remain known to
``cache info``/``cache clear`` so entries written by older versions can
still be reclaimed.

Keying — entries self-invalidate when anything that could change the
result changes:

* benchmark name, scale and seed;
* the resolved :class:`~repro.pipeline.config.MachineConfig` (every field,
  including the nested hierarchy and vector configs, via ``asdict``);
* a digest of the simulator's own source code (every ``repro`` module
  that feeds the result: isa, functional, workloads, frontend, memory,
  core, pipeline).  Editing the simulator orphans old entries rather than
  serving stale results.

Location: ``$REPRO_CACHE_DIR`` if set, else ``$XDG_CACHE_HOME/repro``,
else ``~/.cache/repro``.  Set ``REPRO_CACHE_DIR=`` (empty) or
``REPRO_NO_DISK_CACHE=1`` to disable persistence entirely.

Robustness: a corrupted or truncated cache file is treated as a miss —
the point is re-simulated and the bad file overwritten.  Writes go
through a temp file + :func:`os.replace` so concurrent workers (the
process-pool grid runner) never observe half-written entries.

Process-wide hit/miss/store counters feed the CLI's cache summary line
(``python -m repro figures`` reports how many points were served from
cache vs. simulated).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import sys
import tempfile
from typing import Dict, Optional, Tuple

from ..functional import traceio
from ..pipeline.config import MachineConfig
from ..pipeline.stats import SimStats

#: bumped whenever the on-disk layout or serialization changes.
CACHE_FORMAT = 1

#: source groups hashed into cache keys.  Stats depend on everything
#: that feeds a simulation; sampled results and checkpoints additionally
#: depend on the sampling subsystem.
_STATS_SOURCE_PACKAGES = (
    "isa",
    "functional",
    "workloads",
    "frontend",
    "memory",
    "core",
    "pipeline",
)
_SAMPLING_SOURCE_PACKAGES = _STATS_SOURCE_PACKAGES + ("sampling",)


class CacheCounters:
    """Process-wide cache accounting (reset per CLI invocation).

    ``trace_*`` and ``soa_*`` stay at zero (traces are no longer
    persisted); they remain because ``perfbench/harness.py`` reads them.
    """

    __slots__ = (
        "stats_hits",
        "stats_misses",
        "stats_stores",
        "trace_hits",
        "trace_misses",
        "checkpoint_hits",
        "checkpoint_misses",
        "checkpoint_stores",
        "soa_hits",
        "soa_misses",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.stats_hits = 0
        self.stats_misses = 0
        self.stats_stores = 0
        self.trace_hits = 0
        self.trace_misses = 0
        self.checkpoint_hits = 0
        self.checkpoint_misses = 0
        self.checkpoint_stores = 0
        self.soa_hits = 0
        self.soa_misses = 0


COUNTERS = CacheCounters()


# ---------------------------------------------------------------------------
# Location
# ---------------------------------------------------------------------------


def cache_enabled() -> bool:
    """False when the user disabled persistence via the environment."""
    if os.environ.get("REPRO_NO_DISK_CACHE"):
        return False
    return os.environ.get("REPRO_CACHE_DIR", None) != ""


def cache_root() -> pathlib.Path:
    """The cache directory (not created until first write)."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return pathlib.Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = pathlib.Path(xdg) if xdg else pathlib.Path.home() / ".cache"
    return base / "repro"


def _stats_dir() -> pathlib.Path:
    return cache_root() / "stats"


def _traces_dir() -> pathlib.Path:
    return cache_root() / "traces"


def _checkpoints_dir() -> pathlib.Path:
    return cache_root() / "checkpoints"


def _soa_dir() -> pathlib.Path:
    return cache_root() / "soa"


def _corpus_dir() -> pathlib.Path:
    return cache_root() / "corpus"


def _campaigns_dir() -> pathlib.Path:
    return cache_root() / "campaigns"


def corpus_dir() -> pathlib.Path:
    """The fuzzing corpus directory (see :mod:`repro.verify.fuzzer`).

    The corpus lives beside the result caches so one knob
    (``REPRO_CACHE_DIR``) relocates everything, CI can cache it between
    runs, and ``cache info``/``cache clear`` account for it — but unlike
    the stats/checkpoint sections its entries are *inputs*, keyed by content
    alone, and survive simulator edits (an interesting program stays
    interesting across timing-model changes).
    """
    return _corpus_dir()


# ---------------------------------------------------------------------------
# Source digests
# ---------------------------------------------------------------------------


def _package_files(package: str) -> list:
    root = pathlib.Path(__file__).resolve().parent.parent / package
    return sorted(p for p in root.glob("*.py"))


def _digest_packages(packages) -> str:
    h = hashlib.sha256()
    for package in packages:
        for path in _package_files(package):
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


_DIGEST_MEMO: Dict[tuple, str] = {}


def source_digest(kind: str = "stats") -> str:
    """Digest of the sources feeding ``kind`` ("stats"/"sampling").

    Computed once per process; editing any hashed file between processes
    changes the digest and thereby every cache key.
    """
    packages = _SAMPLING_SOURCE_PACKAGES if kind == "sampling" else _STATS_SOURCE_PACKAGES
    memo = _DIGEST_MEMO.get(packages)
    if memo is None:
        memo = _DIGEST_MEMO[packages] = _digest_packages(packages)
    return memo


# ---------------------------------------------------------------------------
# Keys
# ---------------------------------------------------------------------------


def config_fingerprint(config: MachineConfig) -> Dict:
    """A JSON-safe rendering of every field of a resolved config."""
    return dataclasses.asdict(config)


def stats_key(
    name: str,
    scale: int,
    seed: int,
    config: MachineConfig,
    sampling: Optional[Dict] = None,
) -> str:
    """Content-hash key for one simulated grid point.

    ``sampling`` is None for an exact run, or the sampling-parameter
    fingerprint (window/interval) for a sampled one — sampled and exact
    results at the same coordinates never share an entry, and sampled
    entries additionally hash the sampling subsystem's sources.
    """
    payload = {
        "format": CACHE_FORMAT,
        "kind": "stats",
        "benchmark": name,
        "scale": scale,
        "seed": seed,
        "config": config_fingerprint(config),
        "sampling": sampling,
        "source": source_digest("sampling" if sampling else "stats"),
    }
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# SimStats serialization
# ---------------------------------------------------------------------------


def stats_to_dict(stats: SimStats) -> Dict:
    """Counter fields only — derived metrics are recomputed properties."""
    return dataclasses.asdict(stats)


def stats_from_dict(payload: Dict) -> SimStats:
    field_names = {f.name for f in dataclasses.fields(SimStats)}
    if set(payload) != field_names:
        raise ValueError("stats payload fields do not match SimStats")
    return SimStats(**payload)


def _corrupt_fault(section: str, path: pathlib.Path) -> None:
    """Fault-injection hook: corrupt the entry just written to ``path``.

    Lets the test suites prove the self-healing contract (corrupt entry
    == miss, dropped, rewritten) for every cache section without hand
    carving files.  Lazy import for the same cycle reason as
    :func:`repro.experiments.runner._fire_fault`; free when nothing is
    armed.
    """
    module = sys.modules.get("repro.verify.faults")
    if module is None:
        if not os.environ.get("REPRO_FAULTS"):
            return
        from ..verify import faults as module
    module.corrupt_file("cache.store", path, section=section)


def _atomic_write(path: pathlib.Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ---------------------------------------------------------------------------
# Stats entries
# ---------------------------------------------------------------------------


def load_stats_entry(key: str) -> Optional[Tuple[SimStats, Optional[Dict]]]:
    """The cached ``(stats, metrics-payload)`` for ``key``, or None.

    The second element is the serialized
    :class:`~repro.observe.metrics.MetricsRegistry` persisted alongside
    the stats by an observed run, or None for entries written without
    metrics (older entries, unobserved runs) — stats entries stay
    readable either way.
    """
    if not cache_enabled():
        return None
    path = _stats_dir() / f"{key}.json"
    try:
        payload = json.loads(path.read_text())
        if payload.get("format") != CACHE_FORMAT:
            raise ValueError("format mismatch")
        stats = stats_from_dict(payload["stats"])
        metrics = payload.get("metrics")
        if metrics is not None and not isinstance(metrics, dict):
            raise ValueError("metrics payload is not an object")
    except FileNotFoundError:
        COUNTERS.stats_misses += 1
        return None
    except (ValueError, KeyError, TypeError, OSError):
        # Corrupted/truncated/foreign file: treat as a miss and drop it so
        # the re-simulated result can take its place.
        COUNTERS.stats_misses += 1
        try:
            path.unlink()
        except OSError:
            pass
        return None
    COUNTERS.stats_hits += 1
    return stats, metrics


def load_stats(key: str) -> Optional[SimStats]:
    """The cached stats for ``key``, or None on miss/corruption."""
    entry = load_stats_entry(key)
    return entry[0] if entry is not None else None


def store_stats(
    key: str,
    stats: SimStats,
    describe: Optional[Dict] = None,
    metrics: Optional[Dict] = None,
) -> None:
    """Persist ``stats`` under ``key`` (atomic; no-op when disabled).

    ``metrics`` (a ``MetricsRegistry.to_dict()`` payload) rides along in
    the same entry so later processes can aggregate an observed grid
    without re-simulating; readers that only want stats ignore it.
    """
    if not cache_enabled():
        return
    payload = {"format": CACHE_FORMAT, "stats": stats_to_dict(stats)}
    if describe:
        payload["point"] = describe
    if metrics:
        payload["metrics"] = metrics
    path = _stats_dir() / f"{key}.json"
    _atomic_write(path, json.dumps(payload))
    COUNTERS.stats_stores += 1
    _corrupt_fault("stats", path)


# ---------------------------------------------------------------------------
# Retired trace/SoA entry points (kept only for perfbench's span targets)
# ---------------------------------------------------------------------------


def load_cached_trace(key: str) -> None:
    """Always None: traces are no longer persisted.

    Kept only because ``perfbench/spans.py`` wraps this name; remove it
    together with that span target.
    """
    return None


def store_trace(key: str, trace) -> None:
    """No-op: traces are no longer persisted.

    Kept only because ``perfbench/spans.py`` wraps this name; remove it
    together with that span target.
    """


def load_soa(key: str) -> None:
    """Always None: trace predecodes are no longer persisted.

    Kept only because ``perfbench/spans.py`` wraps this name; remove it
    together with that span target.
    """
    return None


def store_soa(key: str, soa) -> None:
    """No-op: trace predecodes are no longer persisted.

    Kept only because ``perfbench/spans.py`` wraps this name; remove it
    together with that span target.
    """


# ---------------------------------------------------------------------------
# Checkpoint entries (warmed state at sampled-window boundaries)
# ---------------------------------------------------------------------------


def checkpoint_key(
    name: str,
    scale: int,
    seed: int,
    position: int,
    config: MachineConfig,
    sampling: Dict,
) -> str:
    """Content-hash key for warmed state at trace position ``position``.

    The state at a window boundary is a pure function of the trace
    coordinates, the *full* machine configuration (earlier detailed
    windows shape cache LRU order), the sampling parameters (they place
    the earlier windows) and the simulator + sampling sources.
    """
    payload = {
        "format": CACHE_FORMAT,
        "kind": "checkpoint",
        "benchmark": name,
        "scale": scale,
        "seed": seed,
        "position": position,
        "config": config_fingerprint(config),
        "sampling": sampling,
        "source": source_digest("sampling"),
    }
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def load_checkpoint(key: str) -> Optional[Dict]:
    """The warmed-state payload for ``key``, or None on miss/corruption."""
    if not cache_enabled():
        return None
    path = _checkpoints_dir() / f"{key}.ckpt"
    try:
        header_line, body_line = path.read_text().splitlines()[:2]
        header = json.loads(header_line)
        if header.get("format") != CACHE_FORMAT:
            raise ValueError("format mismatch")
        payload = traceio.unpack_json(body_line)
        if not isinstance(payload, dict):
            raise ValueError("checkpoint body is not an object")
    except FileNotFoundError:
        COUNTERS.checkpoint_misses += 1
        return None
    except (ValueError, KeyError, TypeError, OSError):
        COUNTERS.checkpoint_misses += 1
        try:
            path.unlink()
        except OSError:
            pass
        return None
    COUNTERS.checkpoint_hits += 1
    return payload


def store_checkpoint(key: str, payload: Dict) -> None:
    """Persist warmed state (compressed, atomic; no-op when disabled)."""
    if not cache_enabled():
        return
    text = json.dumps({"format": CACHE_FORMAT}) + "\n" + traceio.pack_json(payload) + "\n"
    path = _checkpoints_dir() / f"{key}.ckpt"
    _atomic_write(path, text)
    COUNTERS.checkpoint_stores += 1
    _corrupt_fault("checkpoint", path)


# ---------------------------------------------------------------------------
# Corpus entries (fuzzing inputs; see repro.verify.fuzzer)
# ---------------------------------------------------------------------------


def corpus_key(payload: Dict) -> str:
    """Content-hash key for one corpus entry (pure function of the input).

    Deliberately *not* salted with :func:`source_digest`: corpus entries
    are fuzzing inputs, not derived results, and must survive simulator
    edits.
    """
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def store_corpus_entry(key: str, payload: Dict) -> bool:
    """Persist one corpus entry (atomic); False when persistence is off."""
    if not cache_enabled():
        return False
    path = _corpus_dir() / f"{key}.json"
    _atomic_write(path, json.dumps(payload, sort_keys=True))
    _corrupt_fault("corpus", path)
    return True


def load_corpus_entry(key: str) -> Optional[Dict]:
    """One corpus entry by key, or None on miss/corruption (file dropped)."""
    if not cache_enabled():
        return None
    path = _corpus_dir() / f"{key}.json"
    try:
        payload = json.loads(path.read_text())
        if not isinstance(payload, dict):
            raise ValueError("corpus entry is not an object")
    except FileNotFoundError:
        return None
    except (ValueError, OSError):
        try:
            path.unlink()
        except OSError:
            pass
        return None
    return payload


def corpus_keys() -> list:
    """Sorted keys of every persisted corpus entry."""
    directory = _corpus_dir()
    if not cache_enabled() or not directory.is_dir():
        return []
    return sorted(p.stem for p in directory.iterdir() if p.suffix == ".json")


# ---------------------------------------------------------------------------
# Campaign manifests (resumable sweeps; see experiments.campaign)
# ---------------------------------------------------------------------------


def store_campaign(campaign_id: str, payload: Dict) -> bool:
    """Persist one campaign manifest (atomic); False when persistence is off.

    Without a persistent cache there is nothing to resume *from*, so the
    campaign layer treats a False return as "run everything, remember
    nothing" — correct, just not resumable.
    """
    if not cache_enabled():
        return False
    path = _campaigns_dir() / f"{campaign_id}.json"
    _atomic_write(path, json.dumps(payload, sort_keys=True))
    _corrupt_fault("campaign", path)
    return True


def load_campaign(campaign_id: str) -> Optional[Dict]:
    """One campaign manifest by id, or None on miss/corruption (dropped)."""
    if not cache_enabled():
        return None
    path = _campaigns_dir() / f"{campaign_id}.json"
    try:
        payload = json.loads(path.read_text())
        if not isinstance(payload, dict):
            raise ValueError("campaign manifest is not an object")
    except FileNotFoundError:
        return None
    except (ValueError, OSError):
        try:
            path.unlink()
        except OSError:
            pass
        return None
    return payload


def campaign_ids() -> list:
    """Sorted ids of every persisted campaign manifest."""
    directory = _campaigns_dir()
    if not cache_enabled() or not directory.is_dir():
        return []
    return sorted(p.stem for p in directory.iterdir() if p.suffix == ".json")


# ---------------------------------------------------------------------------
# Maintenance (the ``python -m repro cache`` subcommand)
# ---------------------------------------------------------------------------


#: section name -> (directory fn, payload suffixes).  Nothing writes
#: ``trace``/``soa`` any more; they stay so ``cache info``/``cache clear``
#: can account for and reclaim entries left by older versions.
_SECTIONS = {
    "stats": (_stats_dir, (".json",)),
    "trace": (_traces_dir, (".jsonl",)),
    "soa": (_soa_dir, (".soa",)),
    "checkpoint": (_checkpoints_dir, (".ckpt",)),
    "corpus": (_corpus_dir, (".json",)),
    "campaign": (_campaigns_dir, (".json",)),
}


def cache_info() -> Dict:
    """Per-section entry counts and byte totals, for ``cache info``.

    Flat ``<section>_entries`` / ``<section>_bytes`` keys per section
    (every :data:`_SECTIONS` entry) plus grand totals.
    """
    info = {
        "root": str(cache_root()),
        "enabled": cache_enabled(),
        "total_entries": 0,
        "total_bytes": 0,
    }
    for kind, (directory_fn, suffixes) in _SECTIONS.items():
        entries = 0
        size = 0
        directory = directory_fn()
        if directory.is_dir():
            for path in directory.iterdir():
                if path.suffix in suffixes:
                    entries += 1
                    size += path.stat().st_size
        info[f"{kind}_entries"] = entries
        info[f"{kind}_bytes"] = size
        info["total_entries"] += entries
        info["total_bytes"] += size
    return info


def clear_cache(section: Optional[str] = None) -> int:
    """Delete cache entries; returns the number of files removed.

    ``section`` restricts the sweep to one of :data:`_SECTIONS` (e.g.
    ``"corpus"``); None clears everything.
    """
    if section is not None and section not in _SECTIONS:
        raise ValueError(
            f"unknown cache section {section!r}; one of {sorted(_SECTIONS)}"
        )
    removed = 0
    sections = (
        _SECTIONS.values() if section is None else (_SECTIONS[section],)
    )
    for directory_fn, suffixes in sections:
        directory = directory_fn()
        if not directory.is_dir():
            continue
        for path in directory.iterdir():
            if path.suffix in suffixes + (".tmp",):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
    return removed
