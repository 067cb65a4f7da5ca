"""Functional warmer: evolve microarchitectural state without timing.

Between detailed windows the sampled simulator does not need cycles — it
needs the *state* a detailed machine would have left behind: cache tags
and LRU order, branch-predictor counters and history, and the
architectural memory image the next window's speculative vector loads
read from.  :func:`warm_to` streams trace entries through exactly those
side effects and nothing else, which is why it runs an order of magnitude
faster than the cycle model.

What is warmed, and the detailed-path behaviour each line mirrors:

* **I-cache** — one probe per fetch-line transition, with the tracker
  reset after every taken control transfer (``FetchUnit.fetch_cycle_group``
  probes on line changes and clears ``_last_line`` after a taken branch).
* **D-cache / L2** — every load and store touches the data side with the
  access's write flag (``Machine`` issues loads from its memory stage
  and stores at commit; both end in ``MemoryHierarchy.data_access``).
* **Branch predictors** — conditional branches train gshare, ``JR``
  trains the indirect last-target table (``FetchUnit`` consults and
  trains both on the same stream).
* **Memory image** — stores update the architectural image so the next
  window's ``initial_memory`` equals the detailed machine's
  ``commit_memory`` at that point.
* **Vectorization predictor state** (V configurations only) — the Table
  of Loads trains on every committed load and the GMRBB tag follows
  committed backward branches, so each window's engine starts with the
  stride confidence an exact run would have — see
  :mod:`repro.sampling.vectorwarm` for why only this slice of the engine
  is carried.

Deliberately *not* warmed: MSHRs (timing residue — windows start
drained), port/FU occupancy (per-cycle state, meaningless without a
clock), and the vector register file/VRMT (short-lived datapath state;
rebuilt by each window — rationale in :mod:`repro.sampling.vectorwarm`).
"""

from __future__ import annotations

from typing import List, Optional

from ..frontend.branch_predictor import GsharePredictor, IndirectPredictor
from ..functional.memory import MemoryImage
from ..functional.trace import Trace
from ..isa.opcodes import Opcode
from ..isa.program import INSTR_BYTES
from ..memory.hierarchy import MemoryHierarchy
from ..pipeline.config import MachineConfig
from .vectorwarm import VectorWarm

#: opcode range bounds, hoisted for the hot loop (cf. FetchUnit).
_BEQ = Opcode.BEQ
_BGE = Opcode.BGE
_JAL = Opcode.JAL
_JR = Opcode.JR
_LD, _FLD = Opcode.LD, Opcode.FLD
_ST, _FST = Opcode.ST, Opcode.FST


class WarmState:
    """Everything the warmer carries between detailed windows."""

    __slots__ = (
        "hierarchy",
        "gshare",
        "indirect",
        "memory",
        "vec",
        "position",
        "warmed_entries",
    )

    def __init__(
        self,
        hierarchy: MemoryHierarchy,
        gshare: GsharePredictor,
        indirect: IndirectPredictor,
        memory: MemoryImage,
        vec: Optional[VectorWarm] = None,
        position: int = 0,
    ) -> None:
        self.hierarchy = hierarchy
        self.gshare = gshare
        self.indirect = indirect
        #: architectural memory as of ``position`` (committed stores applied).
        self.memory = memory
        #: the carried vectorization engine (None for noIM/IM configs).
        self.vec = vec
        #: trace index up to which state has evolved (entries consumed).
        self.position = position
        #: entries streamed by :func:`warm_to` (the telemetry that proves
        #: checkpoint reuse did *zero* warming work).
        self.warmed_entries = 0

    @classmethod
    def cold(cls, config: MachineConfig, trace: Trace) -> "WarmState":
        """Fresh state at trace position 0 (what an exact run starts from)."""
        return cls(
            hierarchy=MemoryHierarchy(config.hierarchy),
            gshare=GsharePredictor(entries=config.gshare_entries),
            indirect=IndirectPredictor(),
            memory=trace.initial_memory.copy(),
            vec=VectorWarm(config) if config.vectorize else None,
        )


def warm_to(state: WarmState, trace: Trace, stop: int) -> None:
    """Stream ``trace`` entries ``[state.position, stop)`` through ``state``.

    Pure state evolution — no cycles, no stats, no speculation.  The body
    is written flat (no per-entry helper calls, hoisted bounds) because it
    is the sampled mode's throughput ceiling: everything the detailed
    model skips must still pass through here.
    """
    start = state.position
    if stop <= start:
        return
    entries = trace.entries
    hierarchy = state.hierarchy
    l1d = hierarchy.l1d
    l2 = hierarchy.l2
    l1i = hierarchy.l1i
    gshare = state.gshare
    indirect = state.indirect
    memory = state.memory
    memory_store = memory.store
    l1i_line = hierarchy.config.l1i_line
    beq, bge, jal, jr = _BEQ, _BGE, _JAL, _JR
    ld, fld, st, fst = _LD, _FLD, _ST, _FST
    vec = state.vec
    last_line = None
    if vec is None:
        for i in range(start, stop):
            e = entries[i]
            # I-side: probe on fetch-line transitions (cf. FetchUnit).
            line = (e.pc * INSTR_BYTES) // l1i_line
            if line != last_line:
                addr = e.pc * INSTR_BYTES
                if not l1i.access(addr):
                    l1i.fill(addr)
                last_line = line
            op = e.op
            if op is ld or op is fld:
                # D-side read (inlined MemoryHierarchy.warm_data_access).
                addr = e.addr
                if not l1d.access(addr, False):
                    if not l2.access(addr, False):
                        l2.fill(addr, dirty=False)
                    l1d.fill(addr, dirty=False)
            elif op is st or op is fst:
                addr = e.addr
                if not l1d.access(addr, True):
                    if not l2.access(addr, True):
                        l2.fill(addr, dirty=False)
                    l1d.fill(addr, dirty=True)
                memory_store(addr, e.value)
            elif beq <= op <= bge:
                gshare.warm(e.pc, e.taken)
            elif op is jr:
                indirect.warm(e.pc, e.next_pc)
            if e.taken and beq <= op <= jal:
                # Taken control transfer: next fetch group starts a new line.
                last_line = None
    else:
        # V configurations additionally train the TL on every committed
        # load (decode_load observes each first-decode instance) and
        # follow committed backward branches with the GMRBB tag.
        program = trace.program
        is_backward = [program.is_backward(pc) for pc in range(len(program))]
        tl_observe = vec.tl.observe
        for i in range(start, stop):
            e = entries[i]
            line = (e.pc * INSTR_BYTES) // l1i_line
            if line != last_line:
                addr = e.pc * INSTR_BYTES
                if not l1i.access(addr):
                    l1i.fill(addr)
                last_line = line
            op = e.op
            if op is ld or op is fld:
                addr = e.addr
                if not l1d.access(addr, False):
                    if not l2.access(addr, False):
                        l2.fill(addr, dirty=False)
                    l1d.fill(addr, dirty=False)
                tl_observe(e.pc, addr)
            elif op is st or op is fst:
                addr = e.addr
                if not l1d.access(addr, True):
                    if not l2.access(addr, True):
                        l2.fill(addr, dirty=False)
                    l1d.fill(addr, dirty=True)
                memory_store(addr, e.value)
            elif beq <= op <= bge:
                gshare.warm(e.pc, e.taken)
            elif op is jr:
                indirect.warm(e.pc, e.next_pc)
            if beq <= op <= jal:
                if e.taken:
                    last_line = None
                if is_backward[e.pc]:
                    vec.gmrbb = e.pc
    state.position = stop
    state.warmed_entries += stop - start
