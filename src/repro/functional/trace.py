"""Dynamic-trace records produced by the functional interpreter.

The timing model is trace-driven: the functional interpreter executes the
program architecturally and emits one :class:`TraceEntry` per retired
instruction; the cycle-level model then replays that stream through the
pipeline structures.  Each entry therefore carries everything any pipeline
stage could need — source values (for the VRMT scalar-operand check),
memory address and result (for stride detection and validation), and branch
outcome (for the predictor).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Union

from ..isa.opcodes import (
    FU_LATENCY,
    FuClass,
    Opcode,
    VECTORIZABLE_ALU_OPS,
    fu_class_of,
)
from ..isa.program import INSTR_BYTES, Program
from .memory import MemoryImage

Number = Union[int, float]

#: process-wide count of :class:`TraceSoA` builds (the full predecode
#: scan) — tests use it to prove a memoized trace is decoded once.
SOA_BUILDS = 0


@dataclass(slots=True)
class TraceEntry:
    """One retired dynamic instruction.

    Attributes:
        seq: position in the dynamic stream (0-based).
        pc: static instruction index.
        op: opcode.
        rd / rs1 / rs2: encoded register ids (``NO_REG`` when absent).
        imm: the instruction immediate.
        s1 / s2: architectural values read from ``rs1`` / ``rs2``.
        value: the value written to ``rd`` (loads included) or, for stores,
            the value written to memory.
        addr: effective byte address for memory operations, else -1.
        taken: branch/jump outcome (unconditional control is always taken).
        next_pc: pc of the next retired instruction (HALT repeats its own).
    """

    seq: int
    pc: int
    op: Opcode
    rd: int
    rs1: int
    rs2: int
    imm: int
    s1: Number
    s2: Number
    value: Number
    addr: int
    taken: bool
    next_pc: int

    @property
    def is_load(self) -> bool:
        return self.op is Opcode.LD or self.op is Opcode.FLD

    @property
    def is_store(self) -> bool:
        return self.op is Opcode.ST or self.op is Opcode.FST

    @property
    def is_branch(self) -> bool:
        o = self.op
        return Opcode.BEQ <= o <= Opcode.BGE

    @property
    def is_control(self) -> bool:
        o = self.op
        return Opcode.BEQ <= o <= Opcode.JAL


class TraceSoA:
    """Structure-of-arrays predecode of a trace (batch-scheduler feed).

    One parallel array per per-instruction property the pipeline hot
    loops read, indexed by ``seq``.  Built once per trace (lazily, via
    :meth:`Trace.soa`) and shared by every machine that replays it, the
    arrays replace per-entry attribute lookups, enum dispatch and
    property calls in fetch/dispatch/execute with plain list indexing.

    ``kind`` uses the machine's static instruction kinds: 0 = scalar
    (ALU / control / nop), 1 = load, 2 = store — the same numeric values
    as ``pipeline.machine.K_SCALAR`` / ``K_LOAD`` / ``K_STORE`` (the
    dynamic vector kinds are decided at dispatch and never static).

    ``bkind`` classifies control flow for the fetch unit: 0 = not a
    control transfer, 1 = conditional branch (gshare), 2 = indirect jump
    (JR, indirect predictor), 3 = direct jump (J/JAL, perfect BTB).
    """

    __slots__ = (
        "kind",
        "cls",
        "lat",
        "valu",
        "rd",
        "dep1",
        "dep2",
        "addr",
        "pc",
        "pc_bytes",
        "bkind",
        "taken",
        "next_pc",
    )

    def __init__(self, entries: List["TraceEntry"]) -> None:
        global SOA_BUILDS
        SOA_BUILDS += 1
        n = len(entries)
        self.kind = [0] * n
        #: functional-unit class (int) and latency for scalar execution.
        self.cls = [0] * n
        self.lat = [1] * n
        #: opcode is in VECTORIZABLE_ALU_OPS (dispatch's vectorizer probe).
        self.valu = [False] * n
        self.rd = [0] * n
        #: dependence source registers (-1 = none: NO_REG or the zero reg).
        self.dep1 = [-1] * n
        self.dep2 = [-1] * n
        self.addr = [0] * n
        self.pc = [0] * n
        self.pc_bytes = [0] * n
        self.bkind = [0] * n
        self.taken = [False] * n
        self.next_pc = [0] * n
        kind = self.kind
        cls_arr = self.cls
        lat = self.lat
        valu = self.valu
        rd_arr = self.rd
        dep1 = self.dep1
        dep2 = self.dep2
        addr = self.addr
        pc_arr = self.pc
        pc_bytes = self.pc_bytes
        bkind = self.bkind
        taken = self.taken
        next_pc = self.next_pc
        valu_ops = VECTORIZABLE_ALU_OPS
        fu_lat = FU_LATENCY
        ld, fld = Opcode.LD, Opcode.FLD
        st, fst = Opcode.ST, Opcode.FST
        beq, bge, jr, jal = Opcode.BEQ, Opcode.BGE, Opcode.JR, Opcode.JAL
        nop, halt = Opcode.NOP, Opcode.HALT
        none_cls = FuClass.NONE
        for i, e in enumerate(entries):
            op = e.op
            if op is ld or op is fld:
                kind[i] = 1
            elif op is st or op is fst:
                kind[i] = 2
            else:
                cls = none_cls if (op is nop or op is halt) else fu_class_of(op)
                cls_arr[i] = int(cls)
                lat[i] = fu_lat[cls]
                valu[i] = op in valu_ops
            rd_arr[i] = e.rd
            r = e.rs1
            if r > 0:  # neither NO_REG (-1) nor the zero register (0)
                dep1[i] = r
            r = e.rs2
            if r > 0:
                dep2[i] = r
            addr[i] = e.addr
            pc = e.pc
            pc_arr[i] = pc
            pc_bytes[i] = pc * INSTR_BYTES
            if beq <= op <= jal:
                bkind[i] = 1 if op <= bge else (2 if op is jr else 3)
            taken[i] = e.taken
            next_pc[i] = e.next_pc


@dataclass
class Trace:
    """A full functional execution: entries plus boundary state.

    Attributes:
        program: the program that produced the trace.
        entries: retired instructions in order.
        initial_memory: memory image *before* execution (the timing model's
            commit-time image starts from a copy of this).
        final_memory: memory image after execution.
        final_int_regs / final_fp_regs: architectural register state at halt.
        halted: True if execution reached HALT (False = instruction cap hit).
    """

    program: Program
    entries: List[TraceEntry]
    initial_memory: MemoryImage
    final_memory: MemoryImage
    final_int_regs: List[int] = field(default_factory=list)
    final_fp_regs: List[float] = field(default_factory=list)
    halted: bool = True

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i: int) -> TraceEntry:
        return self.entries[i]

    @property
    def dynamic_count(self) -> int:
        """Number of retired dynamic instructions."""
        return len(self.entries)

    def soa(self) -> TraceSoA:
        """The structure-of-arrays predecode of this trace, built lazily
        once and shared by every machine that replays the trace."""
        s = getattr(self, "_soa", None)
        if s is None:
            s = self._soa = TraceSoA(self.entries)
        return s
