"""Window placement, weighted aggregation, and run_sampled invariants."""

import pytest

from repro.experiments import diskcache
from repro.experiments.runner import point_config
from repro.functional import trace as trace_module
from repro.functional.trace import TraceSoA
from repro.pipeline.machine import Machine
from repro.sampling import SamplingConfig, WarmState, run_sampled, window_spans
from repro.sampling.sampler import _window_trace
from repro.workloads.spec95 import cached_trace

#: SimStats fields expected to differ between exact and sampled runs even
#: when sampling degrades to a single fully-detailed window.
TELEMETRY = ("sampled_windows", "warmed_entries", "checkpoint_restores")


def _strip_telemetry(stats):
    d = diskcache.stats_to_dict(stats)
    for name in TELEMETRY:
        d.pop(name, None)
    return d


# ---------------------------------------------------------------------------
# SamplingConfig
# ---------------------------------------------------------------------------


def test_config_defaults_are_valid():
    c = SamplingConfig()
    assert c.window >= 1
    assert c.interval >= c.window


def test_config_rejects_bad_geometry():
    with pytest.raises(ValueError):
        SamplingConfig(window=0)
    with pytest.raises(ValueError):
        SamplingConfig(window=100, interval=50)


def test_config_key_and_fingerprint():
    c = SamplingConfig(window=200, interval=1000)
    assert c.key == (200, 1000)
    assert c.fingerprint() == {"window": 200, "interval": 1000}
    # use_checkpoints is a persistence toggle, not a result-affecting
    # parameter: it must not split the cache keyspace.
    assert SamplingConfig(200, 1000, use_checkpoints=False).fingerprint() == (
        c.fingerprint()
    )


# ---------------------------------------------------------------------------
# window_spans
# ---------------------------------------------------------------------------


def test_spans_short_trace_degrades_to_exact():
    spans = window_spans(500, SamplingConfig(window=100, interval=1000))
    assert spans == [(0, 500, 1.0)]


def test_spans_head_stratum_is_fully_detailed():
    spans = window_spans(10_000, SamplingConfig(window=100, interval=1000))
    assert spans[0] == (0, 1000, 1.0)


def test_spans_later_windows_sit_at_stratum_ends():
    sampling = SamplingConfig(window=100, interval=1000)
    spans = window_spans(10_000, sampling)
    assert len(spans) == 10
    for start, end, weight in spans[1:]:
        assert end - start == sampling.window
        assert end % sampling.interval == 0
        assert weight == sampling.interval / sampling.window


def test_spans_partial_tail_stratum():
    spans = window_spans(2_300, SamplingConfig(window=100, interval=1000))
    # Strata: [0,1000) head, [1000,2000) sampled, [2000,2300) sampled.
    assert spans[0] == (0, 1000, 1.0)
    assert spans[1] == (1900, 2000, 10.0)
    assert spans[2] == (2200, 2300, 3.0)


def test_spans_weights_cover_the_whole_trace():
    # Sum over spans of weight * window entries == trace entries: the
    # estimator's committed-instruction total lands on the trace length.
    for total in (12_000, 120_000, 7_777):
        spans = window_spans(total, SamplingConfig(window=150, interval=1500))
        covered = sum(weight * (end - start) for start, end, weight in spans)
        assert covered == pytest.approx(total)


def test_spans_are_ordered_and_disjoint():
    spans = window_spans(50_000, SamplingConfig(window=300, interval=3000))
    for (_, prev_end, _), (start, end, _) in zip(spans, spans[1:]):
        assert prev_end <= start < end


# ---------------------------------------------------------------------------
# run_sampled
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["noIM", "V"])
def test_single_window_sampled_equals_exact(mode):
    # When the whole trace fits in the head stratum, sampling IS an exact
    # run: same counters, bit for bit, plus telemetry.
    config = point_config(4, 1, mode)
    trace = cached_trace("li", 3000)
    exact = Machine(point_config(4, 1, mode), cached_trace("li", 3000)).run()
    sampled = run_sampled(config, trace, SamplingConfig(window=500, interval=4000))
    assert _strip_telemetry(sampled) == _strip_telemetry(exact)
    assert sampled.sampled_windows == 1
    assert sampled.warmed_entries == 0


def test_sampled_is_deterministic():
    config = point_config(4, 1, "V")
    sampling = SamplingConfig(window=200, interval=1000)
    a = run_sampled(config, cached_trace("li", 6000), sampling)
    b = run_sampled(config, cached_trace("li", 6000), sampling)
    assert diskcache.stats_to_dict(a) == diskcache.stats_to_dict(b)


def test_sampled_estimates_full_trace_committed():
    config = point_config(4, 1, "IM")
    sampling = SamplingConfig(window=200, interval=1000)
    trace = cached_trace("compress", 6000)
    stats = run_sampled(config, trace, sampling)
    assert stats.committed == len(trace.entries)
    assert stats.sampled_windows == len(window_spans(len(trace.entries), sampling))
    assert stats.warmed_entries > 0
    assert stats.sampled_ipc_variance >= 0.0


def test_empty_trace_returns_empty_stats():
    from repro.functional.trace import Trace
    from repro.isa import assemble

    program = assemble(".text\n halt\n")
    trace = Trace(program=program, entries=[], initial_memory={}, final_memory={})
    stats = run_sampled(point_config(4, 1, "noIM"), trace)
    assert stats.committed == 0 and stats.cycles == 0


# ---------------------------------------------------------------------------
# windows are views of the parent trace
# ---------------------------------------------------------------------------


def test_window_shares_the_parent_entries_and_predecode():
    trace = cached_trace("swim", 6000)
    start, end = 3500, 4000
    window = _window_trace(
        trace, start, end, WarmState.cold(point_config(4, 1, "V"), trace)
    )
    assert len(window.entries) == end - start
    assert all(
        mine is theirs
        for mine, theirs in zip(window.entries, trace.entries[start:end])
    )
    # The sliced predecode equals a fresh scan of the window's entries.
    rebuilt = TraceSoA(window.entries)
    view = window.soa()
    for name in TraceSoA.__slots__:
        assert getattr(view, name) == getattr(rebuilt, name), name


def test_sampled_run_never_rebuilds_the_predecode():
    trace = cached_trace("compress", 6000)
    trace.soa()
    before = trace_module.SOA_BUILDS
    stats = run_sampled(
        point_config(4, 1, "IM"),
        trace,
        SamplingConfig(window=300, interval=1500, use_checkpoints=False),
    )
    assert stats.sampled_windows > 1
    assert trace_module.SOA_BUILDS == before


# ---------------------------------------------------------------------------
# checkpoint reuse
# ---------------------------------------------------------------------------


def test_second_sampled_run_does_zero_warming():
    config = point_config(4, 1, "V")
    sampling = SamplingConfig(window=200, interval=1000)
    # A seed no other test (or the experiment runner, which always uses
    # seed 0) shares, so this test owns its checkpoint keyspace.
    scope = {"benchmark": "li", "scale": 6000, "seed": 993}
    trace = cached_trace("li", 6000)
    first = run_sampled(config, trace, sampling, checkpoint_scope=scope)
    second = run_sampled(config, trace, sampling, checkpoint_scope=scope)
    assert first.warmed_entries > 0
    assert first.checkpoint_restores == 0
    # Every gap now restores from the disk cache's checkpoint section.
    assert second.warmed_entries == 0
    assert second.checkpoint_restores == first.sampled_windows - 1
    # And restoring is result-invisible: only the telemetry differs.
    assert _strip_telemetry(second) == _strip_telemetry(first)


def test_checkpoints_are_scoped_by_sampling_geometry():
    # A different window length must not reuse the other geometry's
    # checkpoints at the same positions.
    config = point_config(4, 1, "noIM")
    scope = {"benchmark": "compress", "scale": 6000, "seed": 994}
    trace = cached_trace("compress", 6000)
    run_sampled(config, trace, SamplingConfig(window=200, interval=1000), scope)
    other = run_sampled(config, trace, SamplingConfig(window=250, interval=1000), scope)
    assert other.checkpoint_restores == 0
    assert other.warmed_entries > 0
