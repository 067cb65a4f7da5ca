"""In-memory spans around the program's public calls, recorded from outside.

:func:`instrument` wraps a fixed list of module attributes — the layer
boundaries a request crosses — for the duration of a ``with`` block and
restores them afterwards; nothing under ``src/`` changes.  Each call
through a wrapped attribute becomes a :class:`Span` (name, start, end,
parent, request id).  The recorder is single-threaded by design: the
traced run replays a workload serially in the benchmark process.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[str]
    #: "scalar" / "v" on pipeline.run spans, else None.
    mode: Optional[str] = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Spans kept in memory; :meth:`write` dumps them as JSON lines."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self.request: Optional[str] = None

    @contextlib.contextmanager
    def span(self, name: str, request: Optional[str] = None, mode: Optional[str] = None):
        if request is not None:
            self.request = request
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self.request, mode)
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")

    # -- analysis ----------------------------------------------------------

    def total(self, name: str, mode: Optional[str] = None, outside: Optional[str] = None) -> float:
        """Summed seconds of spans called ``name`` (optionally of one
        ``mode``, optionally excluding those nested under ``outside``)."""
        return sum(s.seconds for s in self.find(name, mode, outside))

    def count(self, name: str, mode: Optional[str] = None, outside: Optional[str] = None) -> int:
        return len(self.find(name, mode, outside))

    def find(self, name: str, mode: Optional[str] = None, outside: Optional[str] = None) -> List[Span]:
        return [
            s for s in self.spans
            if s.name == name
            and (mode is None or s.mode == mode)
            and (outside is None or not self.nested_under(s, outside))
        ]

    def nested_under(self, span: Span, name: str) -> bool:
        parent = span.parent
        while parent is not None:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def self_times(self) -> Dict[str, float]:
        """Per-layer self time: each span's duration minus its children's."""
        child_time: Dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] = child_time.get(span.parent, 0.0) + span.seconds
        out: Dict[str, float] = {}
        for span in self.spans:
            out[span.layer] = out.get(span.layer, 0.0) + span.seconds - child_time.get(span.id, 0.0)
        return out


def _targets():
    """``(owner, attribute, span name)`` for every wrapped boundary."""
    from repro import sampling
    from repro.experiments import diskcache, runner
    from repro.functional.trace import Trace
    from repro.pipeline.machine import Machine
    from repro.service import wire
    from repro.workloads import spec95

    return [
        (spec95, "build", "workloads.build"),
        (spec95, "run_program", "functional.run_program"),
        (runner, "cached_trace", "workloads.cached_trace"),
        (diskcache, "load_cached_trace", "diskcache.trace_load"),
        (diskcache, "store_trace", "diskcache.trace_store"),
        (diskcache, "load_soa", "diskcache.soa_load"),
        (diskcache, "store_soa", "diskcache.soa_store"),
        (diskcache, "load_stats_entry", "diskcache.stats_load"),
        (diskcache, "store_stats", "diskcache.stats_store"),
        (runner, "compute_point", "runner.compute_point"),
        (runner, "run_sampled", "sampling.run_sampled"),
        (sampling, "run_sampled", "sampling.run_sampled"),
        (wire, "parse_run_request", "service.wire_parse"),
        (Machine, "run", "pipeline.run"),
        (Trace, "soa", "functional.soa_build"),
    ]


def _wrap(recorder: SpanRecorder, name: str, fn):
    if name == "pipeline.run":
        def wrapped(machine, *args, **kwargs):
            mode = "v" if machine.config.vectorize else "scalar"
            with recorder.span(name, mode=mode):
                return fn(machine, *args, **kwargs)
    elif name == "functional.soa_build":
        # Only a real predecode build is a span; a cached SoA is a field read.
        def wrapped(trace, *args, **kwargs):
            if getattr(trace, "_soa", None) is not None:
                return fn(trace, *args, **kwargs)
            with recorder.span(name):
                return fn(trace, *args, **kwargs)
    else:
        def wrapped(*args, **kwargs):
            with recorder.span(name):
                return fn(*args, **kwargs)
    wrapped.__wrapped__ = fn
    return wrapped


@contextlib.contextmanager
def instrument(recorder: SpanRecorder):
    """Route the program's layer boundaries through ``recorder``."""
    saved = []
    try:
        for owner, attribute, name in _targets():
            original = owner.__dict__[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, _wrap(recorder, name, original))
        yield recorder
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
