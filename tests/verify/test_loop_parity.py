"""One cycle body, three drivers: ``run()``, ``step(now)`` called cycle
by cycle, and an observed run (metrics + stage profiler) must all
produce bit-identical SimStats."""

import dataclasses
import random

import pytest

from repro.functional import run_program
from repro.observe import MetricsRegistry, Observer, StageProfiler
from repro.pipeline.config import make_config
from repro.pipeline.machine import Machine
from repro.verify.fuzzer import generate_genome, synthesize
from repro.workloads.spec95 import cached_trace

POINTS = [("compress", 4, 1, "noIM"), ("compress", 4, 1, "IM"), ("swim", 4, 1, "V")]


def _run(trace, width, ports, mode, observer=None):
    machine = Machine(make_config(width, ports, mode), trace, observer=observer)
    return dataclasses.asdict(machine.run())


def _stepped(trace, width, ports, mode):
    machine = Machine(make_config(width, ports, mode), trace)
    now = 0
    while machine.committed_count < len(trace.entries):
        machine.step(now)
        now += 1
    return dataclasses.asdict(machine.finish(now))


@pytest.mark.parametrize("name,width,ports,mode", POINTS)
def test_step_loop_matches_run(name, width, ports, mode):
    trace = cached_trace(name, 3000)
    assert _stepped(trace, width, ports, mode) == _run(trace, width, ports, mode)


@pytest.mark.parametrize("name,width,ports,mode", POINTS)
def test_observed_run_matches_bare_run(name, width, ports, mode):
    """The hooks fire (the profiler saw every cycle, the batch histogram
    filled) and change nothing."""
    trace = cached_trace(name, 3000)
    observer = Observer(metrics=MetricsRegistry(), profiler=StageProfiler())
    observed = _run(trace, width, ports, mode, observer=observer)
    assert observed == _run(trace, width, ports, mode)
    profiler = observer.profiler
    assert profiler.cycles == observed["cycles"]
    assert profiler.stage_cycles["commit"] > 0
    assert all(seconds > 0 for seconds in profiler.stage_seconds.values())
    assert observer.metrics.histogram("kernel.batch_size").counts


@pytest.mark.parametrize("seed", (7, 23, 91))
def test_fuzz_program_loop_parity(seed):
    """Seeded fuzz-generator programs through the V machine, all drivers."""
    program = synthesize(generate_genome(random.Random(seed)))
    trace = run_program(program, max_instructions=20_000)
    assert trace.halted
    bare = _run(trace, 4, 1, "V")
    assert _stepped(trace, 4, 1, "V") == bare
    observer = Observer(metrics=MetricsRegistry(), profiler=StageProfiler())
    assert _run(trace, 4, 1, "V", observer=observer) == bare
