"""Persistent result cache: keying, invalidation, robustness.

The disk cache may only ever serve a result that the simulator would
recompute bit-for-bit: its key must change whenever anything feeding the
result changes (configuration, scale, simulator sources), and anything
unreadable on disk must degrade to a miss, never to an exception or a
wrong answer.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.experiments import diskcache, runner

SCALE = 1_500
POINT = ("li", 4, 1, "V", SCALE, True, None)  # None = exact (not sampled)


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """Private, enabled cache directory plus a cold memo."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)
    runner.clear_memo()
    yield tmp_path / "cache"
    runner.clear_memo()


def _stats_files(cache_dir):
    stats_dir = cache_dir / "stats"
    return sorted(stats_dir.glob("*.json")) if stats_dir.is_dir() else []


def test_second_process_equivalent_hits_disk(cache_dir):
    first = runner.compute_point(POINT)
    assert len(_stats_files(cache_dir)) == 1
    before = runner.simulations_run()
    runner.clear_memo()  # simulate a fresh process, disk intact
    second = runner.compute_point(POINT)
    assert runner.simulations_run() == before  # pure disk hit
    assert dataclasses.asdict(first) == dataclasses.asdict(second)


def test_key_depends_on_config_scale_and_sources(monkeypatch):
    name, scale, seed = "li", SCALE, 0
    config = runner.point_config(4, 1, "V")
    base = diskcache.stats_key(name, scale, seed, config)

    assert diskcache.stats_key(name, scale + 1, seed, config) != base
    assert diskcache.stats_key(name, scale, seed + 1, config) != base
    assert diskcache.stats_key("compress", scale, seed, config) != base

    other = runner.point_config(4, 2, "V")
    assert diskcache.stats_key(name, scale, seed, other) != base
    nested = runner.point_config(4, 1, "V", block_on_scalar_operand=False)
    assert diskcache.stats_key(name, scale, seed, nested) != base

    # Editing any simulator source orphans old entries.
    monkeypatch.setitem(
        diskcache._DIGEST_MEMO, diskcache._STATS_SOURCE_PACKAGES, "tampered"
    )
    assert diskcache.stats_key(name, scale, seed, config) != base


def test_corrupted_entry_is_a_miss_and_heals(cache_dir):
    reference = dataclasses.asdict(runner.compute_point(POINT))
    (entry,) = _stats_files(cache_dir)

    for poison in ("", "{trunca", json.dumps({"format": 999}), json.dumps({"format": 1, "stats": {"committed": 1}})):
        entry.write_text(poison)
        runner.clear_memo()
        healed = runner.compute_point(POINT)
        assert dataclasses.asdict(healed) == reference
        # The bad file was dropped and replaced by the re-simulated result.
        (rewritten,) = _stats_files(cache_dir)
        assert rewritten == entry
        assert json.loads(entry.read_text())["format"] == diskcache.CACHE_FORMAT


def test_disabled_cache_writes_nothing(cache_dir, monkeypatch):
    monkeypatch.setenv("REPRO_NO_DISK_CACHE", "1")
    runner.compute_point(POINT)
    assert not diskcache.cache_enabled()
    assert _stats_files(cache_dir) == []


def test_cache_info_and_clear(cache_dir):
    runner.compute_point(POINT)
    info = diskcache.cache_info()
    assert info["enabled"] and info["root"] == str(cache_dir)
    assert info["stats_entries"] == 1 and info["stats_bytes"] > 0
    assert diskcache.clear_cache() >= 1
    assert diskcache.cache_info()["stats_entries"] == 0


@pytest.mark.parametrize(
    "section, subdir, suffix", [("trace", "traces", ".jsonl"), ("soa", "soa", ".soa")]
)
def test_legacy_trace_sections_are_counted_and_reclaimed(cache_dir, section, subdir, suffix):
    # Older versions persisted traces and their predecode; nothing writes
    # these sections now, but `cache info`/`cache clear` still reclaim them.
    directory = cache_dir / subdir
    directory.mkdir(parents=True)
    (directory / f"{'ab' * 32}{suffix}").write_text("legacy\n")
    (directory / f"{'cd' * 32}{suffix}.tmp").write_text("orphan\n")
    info = diskcache.cache_info()
    assert info[f"{section}_entries"] == 1 and info[f"{section}_bytes"] == 7
    assert diskcache.clear_cache(section=section) == 2
    assert list(directory.iterdir()) == []
