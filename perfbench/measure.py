"""Small measurement helpers shared by the harness and the round processes."""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
from typing import Dict, Iterable, List, Optional, Tuple

#: the tail rule: the reported tail percentile keeps this many samples beyond it.
TAIL_BEYOND = 10


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def tail(samples: Iterable[float], beyond: int = TAIL_BEYOND) -> Optional[Tuple[float, float, int]]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, count)``: the sample at that rank, the
    percentile it sits at (share of samples at or below it, in percent)
    and the sample count.  None when there are not ``beyond + 1`` samples.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= beyond:
        return None
    rank = n - beyond - 1
    return ordered[rank], 100.0 * (rank + 1) / n, n


def canonical_stats(stats: Dict) -> str:
    """One stats dict as canonical JSON (integer dict keys become strings,
    exactly as they do on the wire), so two sources compare as strings."""
    return json.dumps(json.loads(json.dumps(stats)), sort_keys=True)


def digest(stats_by_key: Dict[str, str]) -> str:
    """SHA-256 over canonical stats keyed by point (order-independent)."""
    h = hashlib.sha256()
    for key in sorted(stats_by_key):
        h.update(key.encode())
        h.update(b"\0")
        h.update(stats_by_key[key].encode())
        h.update(b"\n")
    return h.hexdigest()


def point_key(point: List) -> str:
    """A stable string identity for one point (a GridPoint-ordered list)."""
    return json.dumps(list(point))


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest waited-for
    child (Linux reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0
