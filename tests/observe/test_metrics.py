"""Unit tests for the metrics registry: types, merge, serialization."""

from __future__ import annotations

import pytest

from repro.observe.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Series,
    record_sim_stats,
)
from repro.pipeline.stats import SimStats


def test_lazy_creation_and_type_checking():
    reg = MetricsRegistry()
    reg.counter("a").inc(3)
    assert reg.counter("a").value == 3
    assert "a" in reg and len(reg) == 1
    with pytest.raises(TypeError, match="counter"):
        reg.gauge("a")


def test_merge_semantics_per_type():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("c").inc(2)
    b.counter("c").inc(5)
    a.gauge("g").set(1)
    b.gauge("g").set(9)
    a.histogram("h").observe(4)
    b.histogram("h").observe(4)
    b.histogram("h").observe(7)
    a.series("s").append(0, 0.5)
    b.series("s").append(10, 0.7)
    b.counter("only_b").inc(1)

    a.merge(b)
    assert a.counter("c").value == 7  # counters add
    assert a.gauge("g").value == 9  # gauges last-write-win
    assert a.histogram("h").counts == {4: 2, 7: 1}  # buckets add
    assert a.series("s").samples == [(0, 0.5), (10, 0.7)]  # concatenate
    assert a.counter("only_b").value == 1  # new names copy over


def test_merge_copies_do_not_alias():
    a, b = MetricsRegistry(), MetricsRegistry()
    b.counter("c").inc(1)
    a.merge(b)
    b.counter("c").inc(10)
    assert a.counter("c").value == 1


def test_merge_rejects_kind_mismatch():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("x").inc()
    b.gauge("x").set(1)
    with pytest.raises(TypeError, match="cannot merge"):
        a.merge(b)


def test_dict_round_trip_preserves_types_and_values():
    reg = MetricsRegistry()
    reg.counter("c").inc(4)
    reg.gauge("g").set(0.25)
    reg.histogram("h").observe(12)
    reg.histogram("h").observe("label", count=3)
    reg.series("s").append(4096, 0.5)

    back = MetricsRegistry.from_dict(reg.to_dict())
    assert type(back.get("c")) is Counter and back.counter("c").value == 4
    assert type(back.get("g")) is Gauge and back.gauge("g").value == 0.25
    # int and str histogram keys survive JSON's string-keyed objects
    assert type(back.get("h")) is Histogram
    assert back.histogram("h").counts == {12: 1, "label": 3}
    assert type(back.get("s")) is Series
    assert back.series("s").samples == [(4096, 0.5)]
    # merging a serialized dict works too (the pool-worker path)
    again = MetricsRegistry()
    again.merge(reg.to_dict())
    assert again.counter("c").value == 4


def test_float_histogram_keys_survive_the_payload_round_trip():
    # Float keys (sub-millisecond latency buckets) must come back numeric,
    # or quantile() skips them as labels after a merge.
    reg = MetricsRegistry()
    hist = reg.histogram("latency_ms")
    for value in (0.3, 0.4, 0.4, 2.5):
        hist.observe(value)
    hist.observe(7)

    back = MetricsRegistry.from_dict(reg.to_dict())
    assert back.histogram("latency_ms").counts == {0.3: 1, 0.4: 2, 2.5: 1, 7: 1}
    merged = MetricsRegistry()
    merged.merge(reg.to_dict())
    assert merged.histogram("latency_ms").quantile(0.5) == 0.4
    assert merged.histogram("latency_ms").quantile(1.0) == 7


def test_from_dict_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown metric kind"):
        MetricsRegistry.from_dict({"x": {"kind": "exotic", "data": 1}})


def test_histogram_top():
    h = Histogram()
    for pc, n in ((4, 5), (8, 2), (12, 5)):
        h.observe(pc, count=n)
    assert h.top(2) == [(12, 5), (4, 5)] or h.top(2) == [(4, 5), (12, 5)]
    assert h.total == 12


def test_record_sim_stats_counters_and_ratio_gauges():
    stats = SimStats(
        cycles=100,
        committed=400,
        validation_failures=3,
        port_occupancy=0.75,
        usefulness={"1": 0.5, "unused": 0.1},
    )
    reg = MetricsRegistry()
    record_sim_stats(reg, stats)
    record_sim_stats(reg, stats)  # a second point on the same registry
    # plain counters sum across points...
    assert reg.counter("sim.committed").value == 800
    assert reg.counter("sim.validation_failures").value == 6
    # ...ratios are gauges (summing fractions would be meaningless)
    assert reg.gauge("sim.port_occupancy").value == 0.75
    assert reg.gauge("sim.usefulness.unused").value == 0.1
    # non-numeric fields (the usefulness dict itself) are skipped
    assert "sim.usefulness" not in reg
