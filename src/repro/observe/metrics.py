"""Metrics registry: counters, gauges, histograms and time series.

Where the event bus (:mod:`repro.observe.events`) answers "what happened,
in order", the registry answers "how much, of what, distributed how".  It
is the structured replacement for bolting ever more ad-hoc counters onto
:class:`~repro.pipeline.stats.SimStats`:

* **Counter** — monotonically increasing count (``inc``);
* **Gauge** — last-written value (``set``);
* **Histogram** — value -> count map with summary statistics; the natural
  shape for *labelled* counts such as per-PC validation failures
  (``histogram("validate.fail.pc").observe(pc)``);
* **Series** — ``(x, value)`` samples, e.g. the port-occupancy time
  series sampled during an observed run, or per-window IPC in sampled
  mode.

All metric types **merge**: merging two registries adds counters and
histogram buckets, concatenates series and keeps the later gauge — which
is exactly what aggregating per-point metrics across the process-pool
grid runner needs (:func:`repro.experiments.parallel.run_grid`).  The
whole registry serializes to/from plain JSON-safe dicts so pool workers
can ship it across the pickle boundary and the disk cache can persist it
alongside the stats payload.

:func:`record_sim_stats` is the thin recording shim between the legacy
``SimStats`` counters and the registry: it mirrors every counter field
into namespaced ``sim.*`` metrics, so registry consumers read one format
whether a number originated in a hot-loop ``stats.x += 1`` or a labelled
``metrics`` call.  (The hot loops keep their direct increments — a
pure-Python simulator cannot afford an indirection per event — the shim
runs once per completed run.)
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Tuple, Union

Number = Union[int, float]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self, value: Number = 0) -> None:
        self.value = value

    def inc(self, amount: Number = 1) -> None:
        self.value += amount

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def to_payload(self) -> Number:
        return self.value

    @classmethod
    def from_payload(cls, payload: Number) -> "Counter":
        return cls(payload)


class Gauge:
    """A last-write-wins sampled value."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self, value: Number = 0) -> None:
        self.value = value

    def set(self, value: Number) -> None:
        self.value = value

    def merge(self, other: "Gauge") -> None:
        self.value = other.value

    def to_payload(self) -> Number:
        return self.value

    @classmethod
    def from_payload(cls, payload: Number) -> "Gauge":
        return cls(payload)


class Histogram:
    """A value -> count map (labelled counts / discrete distributions).

    Keys may be ints (PCs, element counts) or strings (labels); float
    observations are allowed but merged by exact value — quantize first
    if you need buckets.
    """

    __slots__ = ("counts",)
    kind = "histogram"

    def __init__(self, counts: Optional[Dict] = None) -> None:
        self.counts: Dict = counts if counts is not None else {}

    def observe(self, value, count: int = 1) -> None:
        self.counts[value] = self.counts.get(value, 0) + count

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def top(self, n: int = 10) -> List[Tuple]:
        """The ``n`` most frequent values, most frequent first."""
        return sorted(self.counts.items(), key=lambda kv: (-kv[1], str(kv[0])))[:n]

    def merge(self, other: "Histogram") -> None:
        for value, count in other.counts.items():
            self.counts[value] = self.counts.get(value, 0) + count

    def quantile(self, q: float) -> Optional[Number]:
        """The smallest numeric key at or above the ``q`` quantile.

        Walks the sorted numeric keys accumulating counts (nearest-rank
        definition, so ``quantile(0.5)`` on {1: 1, 3: 1} is 1, not 2);
        string-keyed entries are ignored.  None on an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        numeric = sorted(
            (key, count) for key, count in self.counts.items()
            if isinstance(key, (int, float)) and not isinstance(key, bool)
        )
        total = sum(count for _, count in numeric)
        if total == 0:
            return None
        rank = max(1, math.ceil(q * total))
        seen = 0
        for key, count in numeric:
            seen += count
            if seen >= rank:
                return key
        return numeric[-1][0]

    def to_payload(self) -> Dict:
        # JSON object keys are strings; keep the original type in-band
        # ("i" int, "f" float, "s" string) so numeric keys stay numeric.
        return {
            str(k): ["i" if isinstance(k, int) else "f" if isinstance(k, float) else "s", v]
            for k, v in self.counts.items()
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "Histogram":
        counts: Dict = {}
        for key, (tag, count) in payload.items():
            counts[int(key) if tag == "i" else float(key) if tag == "f" else key] = count
        return cls(counts)


class Series:
    """An append-only list of ``(x, value)`` samples (x: cycle, position, ...)."""

    __slots__ = ("samples",)
    kind = "series"

    def __init__(self, samples: Optional[List] = None) -> None:
        self.samples: List[Tuple[Number, Number]] = samples if samples is not None else []

    def append(self, x: Number, value: Number) -> None:
        self.samples.append((x, value))

    def merge(self, other: "Series") -> None:
        self.samples.extend(other.samples)

    def to_payload(self) -> List:
        return [list(sample) for sample in self.samples]

    @classmethod
    def from_payload(cls, payload: List) -> "Series":
        return cls([tuple(sample) for sample in payload])


_METRIC_TYPES = {cls.kind: cls for cls in (Counter, Gauge, Histogram, Series)}


class MetricsRegistry:
    """A flat name -> metric map with lazy creation and type checking.

    Naming convention: dotted ``<subsystem>.<what>[.<label-dimension>]``,
    e.g. ``sim.validation_failures``, ``validate.fail.pc``,
    ``ports.occupancy.series`` — see docs/OBSERVABILITY.md for the index.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    # -- typed accessors (create on first use) -----------------------------

    def _get(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls()
        elif type(metric) is not cls:
            raise TypeError(
                f"metric {name!r} is a {type(metric).kind}, not a {cls.kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def series(self, name: str) -> Series:
        return self._get(name, Series)

    # -- introspection -----------------------------------------------------

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def get(self, name: str):
        """The metric registered under ``name``, or None."""
        return self._metrics.get(name)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    # -- aggregation / serialization ---------------------------------------

    def merge(self, other: Union["MetricsRegistry", Dict]) -> None:
        """Fold another registry (or its serialized dict) into this one."""
        if isinstance(other, dict):
            other = MetricsRegistry.from_dict(other)
        for name, metric in other._metrics.items():
            mine = self._metrics.get(name)
            if mine is None:
                self._metrics[name] = type(metric).from_payload(metric.to_payload())
            else:
                if type(mine) is not type(metric):
                    raise TypeError(
                        f"cannot merge {type(metric).kind} into "
                        f"{type(mine).kind} metric {name!r}"
                    )
                mine.merge(metric)

    def to_dict(self) -> Dict:
        """JSON-safe rendering: ``{name: {"kind": ..., "data": ...}}``."""
        return {
            name: {"kind": metric.kind, "data": metric.to_payload()}
            for name, metric in sorted(self._metrics.items())
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "MetricsRegistry":
        registry = cls()
        for name, entry in payload.items():
            metric_cls = _METRIC_TYPES.get(entry.get("kind"))
            if metric_cls is None:
                raise ValueError(f"unknown metric kind in entry {name!r}: {entry!r}")
            registry._metrics[name] = metric_cls.from_payload(entry["data"])
        return registry


# ---------------------------------------------------------------------------
# The SimStats recording shim
# ---------------------------------------------------------------------------


def record_sim_stats(registry: MetricsRegistry, stats, prefix: str = "sim.") -> None:
    """Mirror every ``SimStats`` counter field into ``registry``.

    Numeric fields become ``<prefix><field>`` counters (so merging across
    grid points *sums* them, matching how sampled-window aggregation
    already treats them); the usefulness histogram becomes a gauge per
    bucket; derived ratios are left to consumers (they do not merge).
    """
    ratio_fields = ("port_occupancy", "sampled_ipc_variance")
    for field in dataclasses.fields(stats):
        value = getattr(stats, field.name)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        if field.name in ratio_fields:
            registry.gauge(prefix + field.name).set(value)
        else:
            registry.counter(prefix + field.name).inc(value)
    for bucket, fraction in (stats.usefulness or {}).items():
        registry.gauge(f"{prefix}usefulness.{bucket}").set(fraction)
