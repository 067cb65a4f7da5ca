"""Seeded inputs for the three workloads.

Everything a workload feeds the program is generated here from one
integer seed: grid points and their order, long-point scales, and the
daemon's request schedule.  The program under test receives only the
generated points and request bodies.  Generation is pure: the same seed
and :class:`Size` always give equal inputs (compare with ``==`` or
:func:`fingerprint`).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.experiments.runner import EXPERIMENT_SCALE
from repro.workloads.spec95 import ALL_BENCHMARKS

#: the machine modes of the paper's grid (Fig 11).
MODES = ("noIM", "IM", "V")

#: GridPoint field order; points travel as plain lists in this order.
Point = Tuple[str, int, int, str, int, bool, Optional[Tuple[int, int]]]


@dataclass(frozen=True)
class Size:
    """How much work one workload's inputs carry.

    Cold points run at the program's own default scale,
    ``runner.EXPERIMENT_SCALE`` (what ``api.grid``, the figures and a
    ``POST /run`` without ``scale`` use), jittered by the seed.
    """

    #: sweep-cold and serve-mix: nominal scale of a cold point (+-jitter).
    scale: int = EXPERIMENT_SCALE
    jitter: float = 0.10
    #: long-point: nominal scales of the scalar and the V point (+-long_jitter).
    long_scalar_scale: int = 60_000
    long_v_scale: int = 40_000
    long_jitter: float = 0.05
    #: long-point: detailed window and window interval of the sampled runs.
    sample_window: int = 1_000
    sample_interval: int = 5_000
    #: serve-mix: cold points answered before the mix (the first hit pool).
    serve_prelude: int = 6
    #: serve-mix: mix steps of each kind (a duplicate step is two requests).
    #: prelude + misses + dups cold points come from :func:`serve_combos`.
    serve_hits: int = 240
    serve_misses: int = 14
    serve_dups: int = 4


#: the sizes the benchmark runs at.
FULL = Size()
#: a few seconds per workload; for the benchmark's own tests only.
TINY = Size(
    scale=600,
    long_scalar_scale=3_000,
    long_v_scale=2_000,
    sample_window=300,
    sample_interval=1_000,
    serve_prelude=4,
    serve_hits=16,
    serve_misses=5,
    serve_dups=3,
)


def _jitter(rng: random.Random, nominal: int, share: float) -> int:
    """``nominal`` moved by a uniform +-``share``, rounded to 10 instructions."""
    return max(100, int(round(nominal * (1.0 + rng.uniform(-share, share)), -1)))


def _point(name: str, ports: int, mode: str, scale: int) -> Point:
    return (name, 4, ports, mode, scale, True, None)


def point_body(point: Point) -> Dict:
    """The ``POST /run`` JSON body for one point."""
    name, width, ports, mode, scale, block, sampling = point
    return {
        "benchmark": name,
        "width": width,
        "ports": ports,
        "mode": mode,
        "scale": scale,
        "block_on_scalar_operand": block,
        "sampling": list(sampling) if sampling else None,
    }


# ---------------------------------------------------------------------------
# sweep-cold
# ---------------------------------------------------------------------------


def grid_combos() -> List[Tuple[str, int, str]]:
    """The Fig-11 grid: 12 benchmarks x {noIM, IM, V} at 1 port, plus V
    at 2 ports — 48 (benchmark, ports, mode) combinations."""
    combos = [(name, 1, mode) for name in ALL_BENCHMARKS for mode in MODES]
    return combos + [(name, 2, "V") for name in ALL_BENCHMARKS]


def sweep_inputs(seed: int, size: Size = FULL) -> Dict:
    """The 48-point grid, each benchmark at its own jittered scale.

    :func:`sweep_order` gives each timed round its point order.
    """
    rng = random.Random(f"sweep-{seed}")
    scales = {name: _jitter(rng, size.scale, size.jitter) for name in ALL_BENCHMARKS}
    return {"points": [_point(name, ports, mode, scales[name]) for name, ports, mode in grid_combos()]}


#: rounds in a cycle of :func:`sweep_order` rotations.
ORDER_ROTATIONS = 3


def sweep_order(seed: int, round_index: int, points: List[Point]) -> List[Point]:
    """The point order of one timed round: the seed's shuffle, rotated by
    a third of the grid per round.

    Over three rounds every point runs once early, once mid-grid and
    once late.  When each round drew its own shuffle, the order alone
    moved the pooled result p50 of three rounds by about 6.5% between
    seeds; rotations of one shuffle halve that (simulated from serial
    point times at the default scale).
    """
    order = list(points)
    random.Random(f"sweep-order-{seed}").shuffle(order)
    shift = (round_index % ORDER_ROTATIONS) * len(order) // ORDER_ROTATIONS
    return order[shift:] + order[:shift]


# ---------------------------------------------------------------------------
# long-point
# ---------------------------------------------------------------------------


def long_inputs(seed: int, size: Size = FULL) -> Dict:
    """One scalar point (compress IM) and one V point (swim V) at long,
    jittered scales, plus the sampled runs' window shape."""
    rng = random.Random(f"long-{seed}")
    return {
        "scalar": _point("compress", 1, "IM", _jitter(rng, size.long_scalar_scale, size.long_jitter)),
        "v": _point("swim", 1, "V", _jitter(rng, size.long_v_scale, size.long_jitter)),
        "sampling": (size.sample_window, size.sample_interval),
    }


# ---------------------------------------------------------------------------
# serve-mix
# ---------------------------------------------------------------------------


def serve_combos(rng: random.Random) -> List[Tuple[str, int, str]]:
    """Half the grid, balanced: per benchmark one scalar point (noIM or
    IM, 1 port) and one V point (1 or 2 ports), the variants seed-chosen."""
    return [
        combo
        for name in ALL_BENCHMARKS
        for combo in ((name, 1, rng.choice(MODES[:2])), (name, rng.choice((1, 2)), "V"))
    ]


def serve_inputs(seed: int, size: Size = FULL) -> Dict:
    """The daemon's request schedule for two closed-loop clients.

    The cold points are :func:`serve_combos` in a seeded order, each at
    its own jittered scale; at full size they are all 24, so every seed
    carries one scalar and one V point per benchmark.  The prelude answers the first ``serve_prelude`` of them (alternating
    clients).  Each mix step is then a *hit* (a point this client has
    already seen answered), a *miss* (the next cold point) or a *dup*
    (the next cold point, sent by both clients at once); the seed places
    the fixed number of each kind.  Returns, per client, a ``prelude``
    and a ``mix`` list of ``{"kind", "point", "dup"}`` items — ``dup``
    numbers the shared steps so both clients can meet before sending —
    and the list of cold points in first-request order.
    """
    rng = random.Random(f"serve-{seed}")
    combos = serve_combos(rng)
    needed = size.serve_prelude + size.serve_misses + size.serve_dups
    if needed > len(combos):
        raise ValueError(f"serve-mix needs {needed} cold points; there are {len(combos)}")
    rng.shuffle(combos)
    cold: List[Point] = [
        _point(name, ports, mode, _jitter(rng, size.scale, size.jitter))
        for name, ports, mode in combos[:needed]
    ]
    fresh = iter(cold)

    clients: List[Dict[str, List[Dict]]] = [{"prelude": [], "mix": []} for _ in (0, 1)]
    for i in range(size.serve_prelude):
        clients[i % 2]["prelude"].append({"kind": "miss", "point": next(fresh), "dup": None})
    # Both clients may hit every prelude point: the mix starts after a
    # barrier at which the whole prelude has been answered.
    prelude = cold[: size.serve_prelude]
    answered: List[List[Point]] = [list(prelude), list(prelude)]
    kinds = ["dup"] * size.serve_dups + ["miss"] * size.serve_misses + ["hit"] * size.serve_hits
    rng.shuffle(kinds)
    dups = 0
    for step, kind in enumerate(kinds):
        if kind == "dup":
            point = next(fresh)
            for c in (0, 1):
                clients[c]["mix"].append({"kind": "dup", "point": point, "dup": dups})
                answered[c].append(point)
            dups += 1
            continue
        c = step % 2
        if kind == "miss":
            point = next(fresh)
            clients[c]["mix"].append({"kind": "miss", "point": point, "dup": None})
        else:
            point = rng.choice(answered[c])
            clients[c]["mix"].append({"kind": "hit", "point": point, "dup": None})
        answered[c].append(point)
    return {"clients": clients, "cold": cold}


GENERATORS = {
    "sweep-cold": sweep_inputs,
    "long-point": long_inputs,
    "serve-mix": serve_inputs,
}


def make_inputs(workload: str, seed: int, size: Size = FULL) -> Dict:
    """The workload's inputs for ``seed``; a round-trip through JSON so
    what the child processes receive is exactly what is compared."""
    inputs = GENERATORS[workload](seed, size)
    return json.loads(json.dumps(inputs))


def fingerprint(inputs: Dict) -> str:
    """A short content hash of generated inputs (printed per run)."""
    blob = json.dumps(inputs, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
