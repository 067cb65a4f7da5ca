"""Trace serialization: save/load dynamic traces.

The timing model is trace-driven, so a serialized trace is a complete,
self-contained simulation input — useful for regression fixtures (pin a
trace, assert cycle counts), for sharing a misbehaving workload without
its generator, and for offline analysis in other tools.

The format (version 3) is packed and compressed, so a pinned or shared
trace stays small as scales grow:

* line 1 — plain-JSON header: format version, entry count, halted flag,
  program listing length, backward-branch PCs;
* line 2 — one Base85 line holding the zlib-compressed JSON *body*:
  initial memory image, final register state, and the trace entries as
  thirteen parallel per-field columns (columnar layout compresses far
  better than row-major: every column is near-constant or slowly
  varying).

Any other format version is rejected.  The disk cache does not store
traces (rebuilding one is cheaper than a load); this format is for
fixtures and exchange.

Floats round-trip exactly (JSON numbers are IEEE doubles, the same type
the simulator computes with, and zlib compression is lossless).  The
:class:`~repro.isa.program.Program` itself is *not* serialized — a
loaded trace carries a stub program that supports exactly what the
timing model needs (``is_backward`` per PC and ``len``).  The header
records the backward-branch PCs, so a loaded trace reproduces
``is_backward`` — and therefore every GMRBB-dependent timing
statistic — bit-for-bit.
"""

from __future__ import annotations

import base64
import io
import json
import zlib
from typing import IO, List, Union

from ..isa.instruction import Instruction
from ..isa.opcodes import Opcode
from ..isa.program import Program
from .memory import MemoryImage
from .trace import Trace, TraceEntry

FORMAT_VERSION = 3


def pack_json(obj) -> str:
    """Compress a JSON-able object into one newline-free Base85 line.

    Shared by trace format 3 and the disk cache's checkpoint section: the
    payload stays a *text* line (safe for line-oriented files and atomic
    text writes) while costing a fraction of plain JSON on disk.
    """
    raw = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    return base64.b85encode(zlib.compress(raw, 6)).decode("ascii")


def unpack_json(text: str):
    """Inverse of :func:`pack_json`; raises ValueError on corrupt input."""
    try:
        raw = zlib.decompress(base64.b85decode(text.strip().encode("ascii")))
        return json.loads(raw.decode("utf-8"))
    except (ValueError, zlib.error, UnicodeDecodeError) as exc:
        raise ValueError(f"corrupt packed payload: {exc}") from exc


class TraceFormatError(Exception):
    """Raised when a stream does not hold a valid serialized trace."""


#: TraceEntry fields in body column order.
_ENTRY_FIELDS = (
    "seq", "pc", "op", "rd", "rs1", "rs2", "imm",
    "s1", "s2", "value", "addr", "taken", "next_pc",
)


def _header(trace: Trace) -> dict:
    program = trace.program
    return {
        "format": FORMAT_VERSION,
        "entries": len(trace.entries),
        "halted": trace.halted,
        "program_len": len(program),
        "backward": [pc for pc in range(len(program)) if program.is_backward(pc)],
    }


def dump_trace(trace: Trace, stream: IO[str]) -> None:
    """Serialize ``trace`` to a text stream."""
    stream.write(json.dumps(_header(trace)) + "\n")
    columns = [[] for _ in _ENTRY_FIELDS]
    for e in trace.entries:
        row = (
            e.seq, e.pc, int(e.op), e.rd, e.rs1, e.rs2, e.imm,
            e.s1, e.s2, e.value, e.addr, 1 if e.taken else 0, e.next_pc,
        )
        for col, value in zip(columns, row):
            col.append(value)
    body = {
        "memory": {str(addr): value for addr, value in trace.initial_memory.items()},
        "int": trace.final_int_regs,
        "fp": trace.final_fp_regs,
        "cols": columns,
    }
    stream.write(pack_json(body) + "\n")


def dumps_trace(trace: Trace) -> str:
    """Serialize ``trace`` to a string."""
    buf = io.StringIO()
    dump_trace(trace, buf)
    return buf.getvalue()


def _stub_program(program_len: int, backward: List[int]) -> Program:
    """A program skeleton adequate for the timing model: the header names
    every backward-control pc, so the skeleton reproduces ``is_backward``
    exactly (a self-targeting jump is backward by definition; everything
    else is NOP)."""
    instructions = [Instruction(Opcode.NOP) for _ in range(max(1, program_len))]
    for pc in backward:
        if not 0 <= pc < len(instructions):
            raise TraceFormatError(f"backward pc {pc} out of range")
        instructions[pc] = Instruction(Opcode.J, target=pc)
    return Program(instructions)


def load_trace(stream: IO[str]) -> Trace:
    """Deserialize a trace written by :func:`dump_trace`."""
    try:
        header = json.loads(stream.readline())
    except json.JSONDecodeError as exc:
        raise TraceFormatError("bad header line") from exc
    version = header.get("format")
    if version != FORMAT_VERSION:
        raise TraceFormatError(f"unsupported format {version!r}")
    try:
        body = unpack_json(stream.readline())
        memory = body["memory"]
        int_regs = body["int"]
        fp_regs = body["fp"]
        cols = body["cols"]
    except (ValueError, KeyError, TypeError) as exc:
        raise TraceFormatError(f"bad packed body: {exc}") from exc
    if len(cols) != len(_ENTRY_FIELDS) or any(
        len(col) != header["entries"] for col in cols
    ):
        raise TraceFormatError("bad column block")
    (seqs, pcs, ops, rds, rs1s, rs2s, imms,
     s1s, s2s, values, addrs, takens, next_pcs) = cols
    entries = [
        TraceEntry(
            seq=seqs[i],
            pc=pcs[i],
            op=Opcode(ops[i]),
            rd=rds[i],
            rs1=rs1s[i],
            rs2=rs2s[i],
            imm=imms[i],
            s1=s1s[i],
            s2=s2s[i],
            value=values[i],
            addr=addrs[i],
            taken=bool(takens[i]),
            next_pc=next_pcs[i],
        )
        for i in range(header["entries"])
    ]
    initial = MemoryImage({int(addr): value for addr, value in memory.items()})
    # Rebuild the final memory by replaying stores over the initial image.
    final = initial.copy()
    for e in entries:
        if e.is_store:
            final.store(e.addr, e.value)
    program = _stub_program(header["program_len"], header.get("backward", []))
    return Trace(
        program=program,
        entries=entries,
        initial_memory=initial,
        final_memory=final,
        final_int_regs=list(int_regs),
        final_fp_regs=list(fp_regs),
        halted=header["halted"],
    )


def loads_trace(text: Union[str, bytes]) -> Trace:
    """Deserialize a trace from a string."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    return load_trace(io.StringIO(text))

