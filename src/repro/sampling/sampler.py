"""The sampled-simulation driver: warm, window, aggregate.

:func:`run_sampled` is the sampled counterpart of
:func:`repro.pipeline.machine.simulate`: same inputs plus a
:class:`~repro.sampling.config.SamplingConfig`, same ``SimStats`` out —
but only the detailed windows pay cycle-model cost.

**Stratification.**  The trace is cut into one stratum per sampling
interval.  The *head* stratum is simulated in detail end to end: the
startup transient (cold caches, heap construction) concentrates there,
its IPC is far from steady state and changes too fast for any sparse
sample to represent — on the suite it accounts for up to a third of the
exact run's cycles at 120k entries, and extrapolating any 10% of it was
measured at up to ±20% whole-run IPC error.  Every later stratum is
represented by one detailed window at its *end* (the SMARTS placement:
functionally warm through the gap, then measure).

**Estimation.**  Each window's counters are scaled by its stratum's
weight — stratum entries / window entries — before summing, so every
additive field of the returned ``SimStats`` is an estimate of the exact
run's value at full trace length (``committed`` lands on the trace
length by construction, ``cycles`` is the estimated exact cycle count,
and ratio metrics like IPC inherit consistency).  The stats also carry
``sampled_windows``, per-window IPC variance, and warming/checkpoint
telemetry.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from ..functional.trace import Trace
from ..observe.events import CROSSCHECK_COUNTERS, SAMPLE_WINDOW
from ..pipeline.config import MachineConfig
from ..pipeline.machine import Machine
from ..pipeline.stats import SimStats
from .checkpoint import restore_state, snapshot_state
from .config import SamplingConfig
from .warmer import WarmState, warm_to

#: SimStats fields that are NOT summed across windows: ratio/derived
#: fields get weighted merges below; the sampling telemetry is filled in
#: once at the end.
_NON_ADDITIVE = frozenset(
    (
        "usefulness",
        "port_occupancy",
        "sampled_windows",
        "warmed_entries",
        "checkpoint_restores",
        "sampled_ipc_variance",
    )
)

_ADDITIVE_FIELDS: Tuple[str, ...] = tuple(
    f.name for f in dataclasses.fields(SimStats) if f.name not in _NON_ADDITIVE
)


def window_spans(
    total: int, sampling: SamplingConfig
) -> List[Tuple[int, int, float]]:
    """Detailed-window ``(start, end, weight)`` triples for a trace of
    ``total`` entries.

    The first triple is the head stratum — the whole first interval,
    simulated in detail at weight 1.0 (see the module docstring for why
    the startup transient cannot be sampled).  Each later interval gets
    one window at its *end* — functional warming through the gap, then
    measurement — whose weight ``stratum entries / window entries``
    extrapolates it over the entries the stratum skipped.  A trace
    shorter than one interval degrades gracefully into a single
    fully-detailed "sampled" run.
    """
    head_end = min(sampling.interval, total)
    spans = [(0, head_end, 1.0)]
    for base in range(sampling.interval, total, sampling.interval):
        stratum_end = min(base + sampling.interval, total)
        start = max(base, stratum_end - sampling.window)
        spans.append((start, stratum_end, (stratum_end - base) / (stratum_end - start)))
    return spans


def _window_trace(trace: Trace, start: int, end: int, state: WarmState) -> Trace:
    """A self-contained sub-trace for one detailed window.

    The window is a view of the parent: its entries are the parent's own
    ``TraceEntry`` objects ``[start, end)`` and its predecode is the
    parent's memoized :meth:`~Trace.soa` sliced to the same range, so
    cutting a window copies no entry and rescans nothing.  Positions are
    window-local: the machine indexes entries and predecode by fetch
    index (``FetchUnit.redirect`` jumps to it), while each entry keeps
    its ``seq`` in the parent trace.  The window's initial memory is the
    warmed architectural image, which is what the detailed machine's
    commit-time memory would hold here.
    """
    window = Trace(
        program=trace.program,
        entries=trace.entries[start:end],
        initial_memory=state.memory,
        final_memory=trace.final_memory,
        halted=True,
    )
    window._soa = trace.soa().window(start, end)
    return window


class _Aggregate:
    """Weighted running aggregate over detailed windows.

    Additive counters accumulate as ``weight * value`` floats and are
    rounded into the final ``SimStats`` once — each becomes an estimate
    of the exact run's total.  Ratio metrics merge with their natural
    weights: port occupancy is a per-cycle fraction (weight: estimated
    cycles), the usefulness histogram a per-read-transaction one
    (weight: estimated read accesses).
    """

    def __init__(self) -> None:
        self._sums: Dict[str, float] = {name: 0.0 for name in _ADDITIVE_FIELDS}
        self._occupancy = 0.0
        self._usefulness: Dict[str, float] = {}
        self._useful_weight = 0.0
        self.ipcs: List[float] = []

    def add(self, window_stats: SimStats, weight: float) -> None:
        sums = self._sums
        for name in _ADDITIVE_FIELDS:
            sums[name] += weight * getattr(window_stats, name)
        self.ipcs.append(window_stats.ipc)
        self._occupancy += weight * window_stats.cycles * window_stats.port_occupancy
        if window_stats.usefulness:
            w = weight * window_stats.read_accesses
            self._useful_weight += w
            for key, value in window_stats.usefulness.items():
                self._usefulness[key] = self._usefulness.get(key, 0.0) + w * value

    def finalize(self) -> SimStats:
        total = SimStats()
        for name, value in self._sums.items():
            setattr(total, name, round(value))
        if total.cycles:
            total.port_occupancy = self._occupancy / total.cycles
        if self._useful_weight:
            total.usefulness = {
                key: value / self._useful_weight
                for key, value in self._usefulness.items()
            }
        if len(self.ipcs) > 1:
            mean = sum(self.ipcs) / len(self.ipcs)
            total.sampled_ipc_variance = sum(
                (x - mean) ** 2 for x in self.ipcs
            ) / len(self.ipcs)
        return total


def run_sampled(
    config: MachineConfig,
    trace: Trace,
    sampling: Optional[SamplingConfig] = None,
    checkpoint_scope: Optional[Dict] = None,
    observer=None,
) -> SimStats:
    """Simulate ``trace`` under ``config`` by sampling.

    ``checkpoint_scope`` — ``{"benchmark", "scale", "seed"}`` — names the
    grid point for the disk cache's checkpoint section; omit it (None) to
    run without persistence (state still flows between windows
    in-process).  Imports of the cache layer stay inside the function:
    :mod:`repro.experiments` imports the runner, which imports this
    package, so a module-level import would cycle.

    ``observer`` (optional :class:`repro.observe.Observer`) threads into
    every window's machine; the sampler additionally emits one
    ``sample.window`` event per detailed window and records the
    per-window IPC distribution as a ``sampled.window.ipc`` series
    (x = window start position in the full trace).  Each event's
    ``totals`` sums the cross-checked counters, unweighted, over this
    and every earlier window, so the last event alone holds what the
    run's events must add up to, even after the ring dropped the rest.
    """
    sampling = sampling or SamplingConfig()
    n = len(trace.entries)
    if n == 0:
        return SimStats()

    diskcache = None
    scope_key = None
    if checkpoint_scope is not None and sampling.use_checkpoints:
        from ..experiments import diskcache as _diskcache

        if _diskcache.cache_enabled():
            diskcache = _diskcache
            scope_key = (
                checkpoint_scope["benchmark"],
                checkpoint_scope["scale"],
                checkpoint_scope["seed"],
            )

    state = WarmState.cold(config, trace)
    checkpoint_restores = 0
    aggregate = _Aggregate()
    totals = dict.fromkeys(CROSSCHECK_COUNTERS.values(), 0)
    spans = window_spans(n, sampling)
    for start, end, weight in spans:
        if start > state.position:
            restored = None
            if diskcache is not None:
                key = diskcache.checkpoint_key(
                    scope_key[0],
                    scope_key[1],
                    scope_key[2],
                    start,
                    config,
                    sampling.fingerprint(),
                )
                payload = diskcache.load_checkpoint(key)
                if payload is not None and payload.get("position") == start:
                    try:
                        restored = restore_state(config, trace, payload)
                    except (ValueError, KeyError, TypeError, IndexError):
                        restored = None  # geometry mismatch: treat as miss
            if restored is not None:
                state = restored
                checkpoint_restores += 1
            else:
                warm_to(state, trace, start)
                if diskcache is not None:
                    diskcache.store_checkpoint(key, snapshot_state(state))
        vec = state.vec
        machine = Machine(
            config,
            _window_trace(trace, start, end, state),
            hierarchy=state.hierarchy,
            gshare=state.gshare,
            indirect=state.indirect,
            observer=observer,
        )
        if vec is not None:
            vec.prepare(machine)
        window_stats = machine.run()
        aggregate.add(window_stats, weight)
        if observer is not None:
            if observer.bus is not None:
                for name in totals:
                    totals[name] += getattr(window_stats, name)
                observer.bus.emit(
                    window_stats.cycles, SAMPLE_WINDOW,
                    start=start, end=end, weight=round(weight, 6),
                    cycles=window_stats.cycles, ipc=round(window_stats.ipc, 6),
                    totals=dict(totals),
                )
            if observer.metrics is not None:
                observer.metrics.series("sampled.window.ipc").append(
                    start, window_stats.ipc
                )
        # Window boundary: drop timing residue, adopt the committed image.
        state.hierarchy.drain_mshrs()
        if vec is not None:
            vec.absorb(machine)
        state.memory = machine.commit_memory
        state.position = end

    total = aggregate.finalize()
    total.sampled_windows = len(spans)
    total.warmed_entries = state.warmed_entries
    total.checkpoint_restores = checkpoint_restores
    return total
