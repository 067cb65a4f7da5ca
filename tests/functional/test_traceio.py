"""Trace serialization round trips and timing-model equivalence."""

import json

import pytest

from repro.functional.traceio import (
    TraceFormatError,
    dumps_trace,
    loads_trace,
)
from repro.pipeline import make_config
from repro.pipeline.machine import Machine

from ..conftest import asm_trace


def test_roundtrip_preserves_entries(sum_loop):
    loaded = loads_trace(dumps_trace(sum_loop))
    assert len(loaded.entries) == len(sum_loop.entries)
    for a, b in zip(sum_loop.entries, loaded.entries):
        assert (a.seq, a.pc, a.op, a.rd, a.addr, a.value, a.taken, a.next_pc) == (
            b.seq,
            b.pc,
            b.op,
            b.rd,
            b.addr,
            b.value,
            b.taken,
            b.next_pc,
        )


def test_roundtrip_preserves_boundary_state(sum_loop):
    loaded = loads_trace(dumps_trace(sum_loop))
    assert loaded.halted == sum_loop.halted
    assert loaded.final_int_regs == sum_loop.final_int_regs
    assert loaded.initial_memory == sum_loop.initial_memory
    assert loaded.final_memory == sum_loop.final_memory


def test_float_values_roundtrip():
    trace = asm_trace(
        """
        .data
        v: .word 2.5 0.1
        .text
        li r1, v
        fld f1, 0(r1)
        fld f2, 8(r1)
        fadd f3, f1, f2
        fst f3, 0(r1)
        halt
        """
    )
    loaded = loads_trace(dumps_trace(trace))
    assert loaded.final_memory.load(0x1000) == 2.5 + 0.1


def test_loaded_trace_simulates_identically(sum_loop):
    """A serialized trace is a complete simulation input: cycles and all
    vectorization statistics must match the original exactly."""
    loaded = loads_trace(dumps_trace(sum_loop))
    for mode in ("noIM", "IM", "V"):
        a = Machine(make_config(4, 1, mode), sum_loop).run()
        b = Machine(make_config(4, 1, mode), loaded).run()
        assert a.cycles == b.cycles, mode
        assert a.read_accesses == b.read_accesses
        assert a.validations_committed == b.validations_committed
        assert a.branch_mispredicts == b.branch_mispredicts


def test_bad_header_rejected():
    with pytest.raises(TraceFormatError):
        loads_trace("not json\n")


def test_wrong_version_rejected():
    with pytest.raises(TraceFormatError):
        loads_trace('{"format": 99, "entries": 0, "halted": true, "program_len": 1}\n{}\n{"int": [], "fp": []}\n')


def test_bad_row_rejected(sum_loop):
    """A header whose entry count disagrees with the column block."""
    header, body = dumps_trace(sum_loop).splitlines()
    meta = json.loads(header)
    meta["entries"] += 1
    with pytest.raises(TraceFormatError, match="column block"):
        loads_trace(json.dumps(meta) + "\n" + body + "\n")


# ---------------------------------------------------------------------------
# packed format
# ---------------------------------------------------------------------------


def test_default_format_is_packed(sum_loop):
    text = dumps_trace(sum_loop)
    header = text.splitlines()[0]
    assert '"format": 3' in header
    assert len(text.splitlines()) == 2  # header + one packed body line


def test_corrupt_packed_body_rejected(sum_loop):
    text = dumps_trace(sum_loop)
    header, body = text.splitlines()
    for poison in ("", "!!!not-base85-at-all~~~", body[: len(body) // 2]):
        with pytest.raises(TraceFormatError):
            loads_trace(header + "\n" + poison + "\n")


def test_packed_floats_roundtrip_exactly():
    trace = asm_trace(
        """
        .data
        v: .word 0.1 2.5
        .text
        li r1, v
        fld f1, 0(r1)
        fld f2, 8(r1)
        fadd f3, f1, f2
        fst f3, 0(r1)
        halt
        """
    )
    loaded = loads_trace(dumps_trace(trace))
    for a, b in zip(trace.entries, loaded.entries):
        assert a.s1 == b.s1 and a.s2 == b.s2 and a.value == b.value
