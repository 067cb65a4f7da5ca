"""Cycle-level out-of-order superscalar timing model (trace-driven).

The machine replays a functional trace through the structures of Table 1:
fetch (gshare + I-cache), dispatch/rename (with the V/S vector extension of
Fig 6 when vectorization is on), a unified instruction window (ROB), a
load/store queue with store-to-load forwarding and conservative
disambiguation ("loads may execute when prior store addresses are known"),
per-class functional-unit pools with the paper's latencies, 1/2/4 L1 data
ports (scalar or wide), and in-order commit.

Dynamic vectorization hooks (V mode only):

* dispatch consults :class:`~repro.core.engine.VectorizationEngine` to turn
  loads/arithmetic into vector triggers or validation ops;
* the memory stage schedules speculative vector element fetches over
  left-over wide-bus capacity;
* commit performs the §3.6 store coherence check, F-flag bookkeeping and
  GMRBB tracking, and fires misspeculation recovery squashes;
* branch-misprediction recovery leaves all vector state intact (§3.5).

The model is trace-driven: wrong-path instructions are not simulated, a
misprediction costs fetch starvation until the branch resolves plus a
refill penalty (DESIGN.md §5.1).

Execution is *batched*: each cycle the execute stage makes one pass over
the waiting window, routes ready instructions into per-kind groups
(validations, zero-latency ops, loads + FU ops), and completes each group
as a unit (one shared completion time per FU class).  The
per-instruction properties the scheduler needs (kind, FU class, latency,
dependence registers, ...) come from the trace's structure-of-arrays
predecode (:meth:`repro.functional.trace.Trace.soa`), shared by fetch,
dispatch and execute.

The whole cycle (commit -> execute -> memory -> dispatch -> fetch) is one
loop body, :meth:`Machine._cycles`.  :meth:`Machine.run` drives it to
completion, :meth:`Machine.step` runs it for exactly one cycle, and
observed runs (metrics, stage profiler) run the same body with their
hooks armed.
"""

from __future__ import annotations

import gc
import sys
from collections import deque
from heapq import heapify, heappop, heappush
from operator import attrgetter
from typing import Deque, List, Optional, Tuple, Union

from ..core.engine import DecodeKind, VectorizationEngine
from ..frontend.fetch import FetchUnit
from ..functional.memory import MemoryImage
from ..functional.semantics import s64
from ..functional.trace import Trace, TraceEntry
from ..isa.opcodes import FU_LATENCY, FuClass, Opcode
from ..isa.registers import NO_REG, NUM_LOGICAL_REGS, ZERO_REG
from ..memory.hierarchy import MemoryHierarchy
from ..memory.ports import DataPorts
from ..observe import profile as observe_profile
from ..observe.events import FLUSH_BRANCH, VFETCH_ISSUE
from .config import MachineConfig
from .stats import SimStats

# Instruction kinds inside the window.  K_SCALAR/K_LOAD/K_STORE match the
# trace SoA's static ``kind`` array; the vector kinds are dynamic.
K_SCALAR = 0  # ALU / control / nop-like, executes on a scalar FU
K_LOAD = 1
K_STORE = 2
K_VALIDATION = 3  # checks one vector element, no FU, no memory port
K_TRIGGER = 4  # created a vector instance; completes with its start element

#: dependence token: None (ready), a producing InFlight, or (reg, elem).
Dep = Union[None, "InFlight", Tuple]

#: mul/div scalar FUs are unpipelined (SimpleScalar convention).
_UNPIPELINED_FUS = frozenset(
    (FuClass.INT_MUL, FuClass.INT_DIV, FuClass.FP_MUL, FuClass.FP_DIV)
)

#: int FU class -> cycles a unit stays busy after accepting one op
#: (latency for unpipelined mul/div units, 1 for pipelined ones).
_FU_BUSY = {
    int(cls): (FU_LATENCY[cls] if cls in _UNPIPELINED_FUS else 1)
    for cls in FuClass
}

_FU_NONE = int(FuClass.NONE)

#: one ports.occupancy sample every 4096 cycles (metrics-observed runs).
_OCCUPANCY_MASK = 0x0FFF

#: single-source fp/convert forms whose missing rs2 is NOT an immediate.
_NO_IMM_OPS = frozenset(
    (Opcode.FNEG, Opcode.FABS, Opcode.FMOV, Opcode.FSQRT, Opcode.ITOF, Opcode.FTOI)
)


class InFlight:
    """One dynamic instruction occupying the window.

    An instruction reads at most two renamed sources (``dep1``/``dep2``;
    None = ready) and writes at most one destination, so the squash-time
    rename rollback is a single (``saved_rd``, ``saved_tok``) pair.
    """

    __slots__ = (
        "seq",
        "entry",
        "kind",
        "cls",
        "lat",
        "static_ready",
        "dep1",
        "dep2",
        "base_dep",
        "data_dep",
        "done_at",
        "addr",
        "mispredicted",
        "redirected",
        "saved_rd",
        "saved_tok",
        "waiters",
        "squashed",
    )

    def __init__(self, seq: int, entry: TraceEntry, kind: int, addr: int) -> None:
        self.seq = seq
        self.entry = entry
        self.kind = kind
        # cls/lat are only set (by dispatch) for K_SCALAR instructions.
        self.static_ready = 0
        self.dep1: Dep = None
        self.dep2: Dep = None
        self.base_dep: Dep = None
        self.data_dep: Dep = None
        self.done_at: Optional[int] = None
        self.addr = addr
        self.mispredicted = False
        self.redirected = False
        self.saved_rd = -1
        self.saved_tok = None
        #: instructions sleeping until this one's completion time is known
        #: (lazily created; see the dependence check in Machine._cycles).
        self.waiters: Optional[List["InFlight"]] = None
        #: True once removed from the window by a squash — a stale entry on
        #: some producer's ``waiters`` list must not be re-woken.
        self.squashed = False


class VecInFlight(InFlight):
    """In-flight instruction carrying vectorizer decode state (V mode).

    Only instructions whose decode decision touched the engine use this
    class — validations, triggers, and scalars with VRMT rollback data.
    Plain scalars stay :class:`InFlight` even in V mode; the flush hook
    keys off the class to skip the engine rollback for them."""

    __slots__ = (
        "vreg",
        "velem",
        "pred_addr",
        "mismatch",
        "counts_as_validation",
        "vrmt_rollback",
    )

    def __init__(self, seq: int, entry: TraceEntry, kind: int, addr: int) -> None:
        # InFlight.__init__'s body, flattened: one constructor frame per
        # decode-touched instruction instead of two (V-mode dispatch path).
        self.seq = seq
        self.entry = entry
        self.kind = kind
        self.static_ready = 0
        self.dep1 = None
        self.dep2 = None
        self.base_dep = None
        self.data_dep = None
        self.done_at = None
        self.addr = addr
        self.mispredicted = False
        self.redirected = False
        self.saved_rd = -1
        self.saved_tok = None
        self.waiters = None
        self.squashed = False
        self.vreg = None
        self.velem = -1
        self.pred_addr: Optional[int] = None
        self.mismatch = False
        self.counts_as_validation = False
        self.vrmt_rollback = None

    # Validation/trigger records are only ever referenced by the ROB and
    # the scheduler lists (rename holds a (reg, elem) tuple, never the
    # record itself), so the cycle loop recycles them at commit through a
    # free pool; reset re-runs the full constructor.
    reset = __init__


_SEQ_KEY = attrgetter("seq")


class Machine:
    """One timing simulation of one trace under one configuration."""

    def __init__(
        self,
        config: MachineConfig,
        trace: Trace,
        hierarchy: Optional[MemoryHierarchy] = None,
        gshare=None,
        indirect=None,
        observer=None,
    ) -> None:
        self.config = config
        self.trace = trace
        self.stats = SimStats()
        # Observability: the default (observer=None) leaves every hook
        # dormant — emission sites and the cycle loop's stage hooks each
        # cost one `is not None` test.
        self.observer = observer
        bus = observer.bus if observer is not None else None
        self._bus = bus
        # Sampled simulation passes in a pre-warmed hierarchy and
        # predictors (repro.sampling); exact mode builds them cold.
        self.hierarchy = hierarchy if hierarchy is not None else MemoryHierarchy(config.hierarchy)
        self.hierarchy.bus = bus
        self.ports = DataPorts(config.ports, config.wide_bus)
        self.fetch_unit = FetchUnit(
            trace,
            self.hierarchy,
            config.width,
            config.gshare_entries,
            gshare=gshare,
            indirect=indirect,
        )
        self.fetch_unit.bus = bus
        #: architectural memory as of the last committed store — the image
        #: speculative vector loads read from.
        self.commit_memory: MemoryImage = trace.initial_memory.copy()
        self.engine: Optional[VectorizationEngine] = (
            VectorizationEngine(config, self.stats, observer) if config.vectorize else None
        )
        #: structure-of-arrays predecode shared with fetch and dispatch.
        self._soa = trace.soa()
        self._entries = trace.entries

        self.rob: Deque[InFlight] = deque()
        self.lsq: List[InFlight] = []
        self.waiting: List[InFlight] = []
        #: instructions whose first blocking time is *known* and in the
        #: future, parked off the per-cycle scan until that cycle.
        #: Min-heap of (wake_cycle, seq, InFlight) — see the execute stage
        #: of _cycles for the exactness argument.
        self._parked: List[Tuple[int, int, InFlight]] = []
        #: recycled validation/trigger records (see VecInFlight.reset).
        self._vec_pool: List[VecInFlight] = []
        self.mem_queue: List[InFlight] = []
        #: fetched-but-undispatched instructions as packed ints:
        #: (seq << 1) | mispredicted  (see FetchUnit.fetch_into).
        self.fetch_queue: Deque[int] = deque()
        #: flat rename map indexed by logical register: None = architectural
        #: (ready), an InFlight = scalar producer, (vreg, elem) = vector.
        self.rename: List = [None] * NUM_LOGICAL_REGS
        #: committed vector mappings per logical register: (reg, gen, elem).
        self.committed_vec_map: List[Optional[Tuple]] = [None] * NUM_LOGICAL_REGS
        self.committed_count = 0
        self._max_dispatched_seq = -1
        #: scalar FU pools: int FU class -> list of unit free-at cycles.
        self.fu_free = {
            int(cls): [0] * count for cls, count in config.fu_pool_sizes().items()
        }
        #: (branch_seq, resolved_cycle) windows for Fig 10 accounting.
        self.cfi_windows: Deque[Tuple[int, int]] = deque()
        #: per-pc backward-branch flags for GMRBB tracking.
        program = trace.program
        self._is_backward = [program.is_backward(pc) for pc in range(len(program))]
        # Hoisted configuration scalars (read every cycle in the hot loop;
        # going through the config dataclass costs two attribute lookups).
        self._width = config.width
        self._commit_width = config.commit_width
        self._rob_size = config.rob_size
        self._lsq_size = config.lsq_size
        self._fetch_queue_size = config.fetch_queue_size
        self._mispredict_penalty = config.mispredict_penalty
        self._wide_bus = config.wide_bus
        self._line_bytes = config.hierarchy.l1d_line
        self._max_store_commit = config.vector.max_store_commit
        self._block_scalar = (
            self.engine is not None and config.vector.block_on_scalar_operand
        )
        #: ports.busy_port_cycles at the last ports.occupancy sample.
        self._occupancy_mark = 0

    # ==================================================================
    # stage helpers (called from the cycle loop)
    # ==================================================================

    def _resolve_mispredict(self, fl: InFlight, now: int) -> None:
        """Branch resolution: start the fetch-redirect/refill epilogue."""
        fl.redirected = True
        self.stats.branch_mispredicts += 1
        resolve = fl.done_at
        if self._bus is not None:
            self._bus.emit(
                now, FLUSH_BRANCH, pc=fl.entry.pc, seq=fl.seq, resolve=resolve
            )
        self.fetch_unit.redirect(fl.seq + 1, resolve + self._mispredict_penalty)
        self.cfi_windows.append((fl.seq, resolve))

    def _schedule_memory(self, now: int) -> None:
        """Wide-bus L1 data-port transactions: scalar loads, then (V mode)
        speculative vector element fetches over the remaining capacity.

        The cycle loop serves the scalar-bus case, and a lone wide-bus
        load with no vector fetches pending, inline."""
        ports = self.ports
        if ports.available() == 0:
            return
        engine = self.engine
        # Group pending reads by line; one access serves up to 4.
        # Group members mix scalar loads (InFlight objects) and vector
        # element fetches (3-tuples) — the member's type is its tag.
        line_bytes = self._line_bytes
        mem_queue = self.mem_queue
        groups: List[Tuple[int, List]] = []
        index = {}
        for fl in mem_queue:
            addr = fl.addr
            line = addr - (addr % line_bytes)
            g = index.get(line)
            if g is not None and len(g) < 4:
                g.append(fl)
            else:
                g = [fl]
                index[line] = g
                groups.append((line, g))
        taken_fetches = []
        if engine is not None:
            # Up to one line group per free port, four elements per group.
            budget = 4 * ports.available()
            taken_fetches = engine.take_fetches(budget)
            for item in taken_fetches:
                addr = item[2]
                line = addr - (addr % line_bytes)
                g = index.get(line)
                if g is not None and len(g) < 4:
                    g.append(item)
                else:
                    g = [item]
                    index[line] = g
                    groups.append((line, g))

        # Serving marks members in place (done_at / r_time[elem] become
        # non-None), so the retain filters below need no served-id sets.
        scalar_served = False
        vector_served = False
        blocked = False
        bus = self._bus
        stats = self.stats
        data_access = self.hierarchy.data_access
        commit_load = self.commit_memory.load
        for line, members in groups:
            if blocked or ports.available() == 0:
                break
            ready = data_access(line, now)
            if ready is None:  # MSHR full: stop issuing this cycle
                blocked = True
                break
            ports.take()
            txn = ports.open_read()
            stats.read_accesses += 1
            scalar_words = None
            spec_words = 0
            for m in members:
                if type(m) is tuple:
                    reg, elem, addr = m
                    # Apply the architectural write-back conversion (LD
                    # wraps to int64, FLD coerces to float): a raw memory
                    # word can be the other domain's type — e.g. an FST'd
                    # float re-read by LD — and downstream vector ALU
                    # instances must see what a scalar consumer would.
                    word = commit_load(addr)
                    reg.values[elem] = (
                        float(word) if reg.fp_load else s64(int(word))
                    )
                    reg.r_time[elem] = ready
                    reg.txn_ids[elem] = txn
                    spec_words += 1
                    vector_served = True
                    if bus is not None:
                        bus.emit(
                            now, VFETCH_ISSUE, pc=reg.pc,
                            elem=elem, addr=addr, ready=ready,
                        )
                else:
                    m.done_at = ready
                    if m.waiters is not None:
                        # The load's completion time is now known: move its
                        # sleepers to the timed park heap (squashed ones
                        # are dropped; their re-fetched copies re-register).
                        parked = self._parked
                        for c in m.waiters:
                            if not c.squashed:
                                heappush(parked, (ready, c.seq, c))
                        m.waiters = None
                    if scalar_words is None:
                        scalar_words = {m.addr}
                    else:
                        scalar_words.add(m.addr)
                    scalar_served = True
                    stats.scalar_loads_to_memory += 1
            if scalar_words:
                ports.add_useful(txn, len(scalar_words))
            if spec_words:
                ports.add_speculative(txn, spec_words)

        if scalar_served:
            self.mem_queue = [fl for fl in mem_queue if fl.done_at is None]
        if taken_fetches:
            if vector_served:
                engine.requeue_fetches(
                    [
                        item
                        for item in taken_fetches
                        if item[0].r_time[item[1]] is None
                    ]
                )
            else:
                engine.requeue_fetches(taken_fetches)

    def _blocked_on_scalar_operand(self, entry: TraceEntry, now: int) -> bool:
        """§3.2 / Fig 7: an instruction that *was previously vectorized*
        with a scalar register operand must compare that register's current
        value against the VRMT's captured value before it can be turned
        into a validation — so it waits at decode until the value is
        available.  Fresh vector instances do not stall: the vector FU
        reads the scalar register file once, when it is ready (§3.4).

        Callers pre-check ``self._block_scalar`` and membership in
        ``VECTORIZABLE_ALU_OPS`` (dispatch hot path)."""
        mapping = self.engine.vrmt.table.peek(entry.pc)
        if mapping is None or mapping.scalar_value is None:
            return False
        rename = self.rename
        for src in (entry.rs1, entry.rs2):
            if src <= 0:  # absent source or the always-ready zero register
                continue
            tok = rename[src]
            if tok is not None and type(tok) is not tuple:
                t = tok.done_at
                if t is None or t > now:
                    return True
        return False

    def _src_descs(self, entry: TraceEntry) -> List[Tuple]:
        """Source descriptors for the engine's ALU decode (see decode_alu).

        Returns a list (not a tuple): the engine only iterates it, and the
        decode path runs once per arithmetic instruction."""
        rename = self.rename
        descs: List[Tuple] = []
        src = entry.rs1
        if src != NO_REG:
            tok = rename[src] if src != ZERO_REG else None
            if type(tok) is tuple:
                descs.append(("V", tok[0], tok[1]))
            else:
                descs.append(("S", src, entry.s1))
        src = entry.rs2
        if src == NO_REG:
            # Immediate-operand forms carry the immediate as the final operand.
            if entry.op not in _NO_IMM_OPS:
                descs.append(("imm", entry.imm))
        else:
            tok = rename[src] if src != ZERO_REG else None
            if type(tok) is tuple:
                descs.append(("V", tok[0], tok[1]))
            else:
                descs.append(("S", src, entry.s2))
        return descs

    # ==================================================================
    # squash
    # ==================================================================

    def _flush_from(self, from_seq: int, resume_cycle: int, now: int) -> None:
        """Remove every in-flight instruction with seq >= from_seq and
        restart fetch there.  Vector registers survive (§3.5); scalar-side
        bookkeeping (rename, VRMT offsets, U flags) rolls back."""
        engine = self.engine
        rename = self.rename
        rob = self.rob
        while rob and rob[-1].seq >= from_seq:
            fl = rob.pop()
            # A squashed entry may still sit on a surviving producer's
            # waiters list; the flag keeps it from being re-woken.
            fl.squashed = True
            # Youngest-first pop leaves the oldest flushed writer's saved
            # token as the final rename state — the exact pre-flush map.
            rd = fl.saved_rd
            if rd >= 0:
                rename[rd] = fl.saved_tok
            if engine is not None and fl.__class__ is not InFlight:
                # Plain InFlight records never touched the engine at decode
                # (no rollback data, no U flag); only VecInFlight ones need
                # the engine-side rewind.
                engine.on_flush_entry(fl, now)
        self.lsq = [fl for fl in self.lsq if fl.seq < from_seq]
        self.waiting = [fl for fl in self.waiting if fl.seq < from_seq]
        if self._parked:
            self._parked = [e for e in self._parked if e[1] < from_seq]
            heapify(self._parked)
        self.mem_queue = [fl for fl in self.mem_queue if fl.seq < from_seq]
        self.fetch_queue.clear()
        self.fetch_unit.redirect(from_seq, resume_cycle)

    # ==================================================================
    # the cycle loop
    # ==================================================================

    def step(self, now: int) -> None:
        """Simulate exactly one cycle, starting at ``now``.

        Runs one pass of :meth:`_cycles`, the same body :meth:`run`
        loops over, so single-stepped and run-to-completion machines are
        bit-identical cycle for cycle.
        """
        self._cycles(now, now + 1, sys.maxsize)

    def _cycles(self, now: int, stop: int, total: int) -> int:
        """Simulate cycles ``now, now + 1, ...`` until ``total``
        instructions have committed or cycle ``stop`` is reached; returns
        the first cycle not simulated.

        One cycle is commit -> execute -> memory -> dispatch -> fetch, in
        that order.  Stages whose structures are provably idle this cycle
        are skipped outright (an empty ROB cannot commit, an empty waiting
        list cannot issue, ...); each guard reproduces the stage's own
        first-iteration exit condition, so elided and executed stages are
        indistinguishable.  The stage bodies are inlined and every
        loop-invariant object is hoisted to a local once: one simulated
        cycle costs one pass through this body instead of a method call
        per stage, each re-hoisting the same attributes.  Structures a
        squash rebinds (``waiting``, ``lsq``, ``mem_queue``, ``_parked``)
        are re-read from ``self`` at each stage; everything hoisted here
        is only ever mutated in place.

        Observation hooks are hoisted locals too, each behind one
        ``is not None`` test: the :class:`~repro.observe.StageProfiler`
        clock reads around each stage, the ``kernel.batch_size``
        histogram of execute-stage ready groups, and the
        ``ports.occupancy`` series.  They only read clocks and counters,
        never machine state, so observed runs are bit-identical to bare
        ones — and the profile measures the loop every run takes.
        """
        ports = self.ports
        engine = self.engine
        rob = self.rob
        stats = self.stats
        fetch_queue = self.fetch_queue
        rename = self.rename
        entries = self._entries
        soa = self._soa
        kinds = soa.kind
        clss = soa.cls
        lats = soa.lat
        valus = soa.valu
        rds = soa.rd
        d1s = soa.dep1
        d2s = soa.dep2
        addrs = soa.addr
        pcs_soa = soa.pc
        bkinds = soa.bkind
        vec_map = self.committed_vec_map
        cfi_windows = self.cfi_windows
        is_backward = self._is_backward
        data_access = self.hierarchy.data_access
        commit_store = self.commit_memory.store
        line_bytes = self._line_bytes
        resolve_mispredict = self._resolve_mispredict
        flush_from = self._flush_from
        schedule_memory = self._schedule_memory
        fetch_unit = self.fetch_unit
        fetch_into = fetch_unit.fetch_into
        blocked_on_scalar = self._blocked_on_scalar_operand
        src_descs_of = self._src_descs
        fu_free = self.fu_free
        fu_busy = _FU_BUSY
        ports_available = ports.available
        ports_take = ports.take
        ports_open_read = ports.open_read
        ports_open_write = ports.open_write
        ports_add_useful = ports.add_useful
        width = self._width
        commit_width = self._commit_width
        rob_size = self._rob_size
        lsq_size = self._lsq_size
        fq_size = self._fetch_queue_size
        mispredict_penalty = self._mispredict_penalty
        max_store_commit = self._max_store_commit
        block_scalar = self._block_scalar
        wide_bus = self._wide_bus
        vec_pool = self._vec_pool
        if engine is not None:
            vpcs = engine.vrmt.pcs
            engine_tick = engine.tick
            decode_load = engine.decode_load
            decode_alu = engine.decode_alu
            on_store_commit = engine.on_store_commit
            on_validation_commit = engine.on_validation_commit
            on_validation_failure = engine.on_validation_failure
            set_element_freed = engine.set_element_freed
            on_backward_branch_commit = engine.on_backward_branch_commit
        else:
            vpcs = None
        # Observation hooks (None = dormant).
        observer = self.observer
        prof = bh = series = None
        if observer is not None:
            prof = observer.profiler
            metrics = observer.metrics
            if metrics is not None:
                # One observation per non-empty ready group per cycle.
                bh = metrics.histogram("kernel.batch_size").observe
                series = metrics.series("ports.occupancy")
                occupancy_mark = self._occupancy_mark
                occupancy_scale = (_OCCUPANCY_MASK + 1) * ports.n_ports
        if prof is not None:
            clock = observe_profile.perf_counter
            account = prof.account
            wall_start = clock()
        hooked = prof is not None or series is not None
        committed_count = self.committed_count
        while committed_count < total:
            # ---- begin cycle (inlined ports.begin_cycle) -----------------
            ports.cycles += 1
            ports._used_this_cycle = 0
            if engine is not None and engine.pending_alu:
                if prof is None:
                    engine_tick(now)
                else:
                    t0 = clock()
                    engine_tick(now)
                    # Vector ALU work: execute time, not an execute cycle.
                    account("execute", clock() - t0, False)

            # ---- commit ----------------------------------------------------
            if rob:
                t = rob[0].done_at
                if t is not None and t <= now:
                    if prof is not None:
                        t0 = clock()
                    committed = 0
                    stores_this_cycle = 0
                    while rob and committed < commit_width:
                        fl = rob[0]
                        t = fl.done_at
                        if t is None or t > now:
                            break
                        entry = fl.entry
                        kind = fl.kind
                        conflict = False
                        if kind == K_STORE:
                            if (
                                engine is not None
                                and stores_this_cycle >= max_store_commit
                            ):
                                break
                            if ports_available() == 0:
                                break
                            ready = data_access(fl.addr, now, is_write=True)
                            if ready is None:  # MSHR full
                                break
                            ports_take()
                            ports_open_write()
                            stats.write_accesses += 1
                            commit_store(fl.addr, entry.value)
                            stores_this_cycle += 1
                            stats.committed_stores += 1
                            if engine is not None:
                                conflict = on_store_commit(fl.addr, now)
                        rob.popleft()
                        if kind == K_LOAD or kind == K_STORE:
                            # In-order commit: the oldest memory op leaves
                            # first, so this is lsq[0] except across a
                            # just-flushed window.
                            lsq = self.lsq
                            if lsq[0] is fl:
                                del lsq[0]
                            else:
                                lsq.remove(fl)
                        committed += 1
                        stats.committed += 1
                        if cfi_windows:
                            # Fig 10: count committed instructions in the
                            # 100 after each mispredicted branch, and which
                            # of them reuse pre-flush vector work.
                            cseq = fl.seq
                            while cfi_windows and cseq > cfi_windows[0][0] + 100:
                                cfi_windows.popleft()
                            if cfi_windows:
                                is_validation = (
                                    kind >= K_VALIDATION and fl.counts_as_validation
                                )
                                for bseq, resolved in cfi_windows:
                                    if bseq < cseq <= bseq + 100:
                                        stats.cfi_window_instructions += 1
                                        if (
                                            is_validation
                                            and fl.vreg is not None
                                            and fl.velem >= 0
                                        ):
                                            # Needed no execution: it
                                            # validated vector state that
                                            # survived the flush.
                                            stats.cfi_reused += 1
                                            rt = fl.vreg.r_time[fl.velem]
                                            if rt is not None and rt <= resolved:
                                                stats.cfi_precomputed += 1
                        if engine is not None:
                            # Vector-side commit state, which the scalar
                            # (noIM/IM) machines do not have.
                            if kind >= K_VALIDATION:
                                on_validation_commit(fl, now, ports)
                            rd = entry.rd
                            if rd > 0:
                                old = vec_map[rd]
                                if old is not None:
                                    set_element_freed(old[0], old[1], old[2], now)
                                if kind >= K_VALIDATION:
                                    vec_map[rd] = (fl.vreg, fl.vreg.gen, fl.velem)
                                else:
                                    vec_map[rd] = None
                            if is_backward[entry.pc] and bkinds[fl.seq]:
                                on_backward_branch_commit(entry.pc, now)
                            if kind >= K_VALIDATION:
                                # Commit is the last reference to a
                                # validation/trigger record (never in lsq,
                                # rename, or a waiters list): recycle it.
                                vec_pool.append(fl)
                        if conflict:
                            # §3.6: squash everything younger than the store.
                            flush_from(fl.seq + 1, now + 1 + mispredict_penalty, now)
                            break
                    committed_count += committed
                    if prof is not None:
                        account("commit", clock() - t0)

            # ---- execute ---------------------------------------------------
            # One batched pass over the waiting window.  Phase 1 walks the
            # seq-sorted waiting list once, resolving dependences and
            # routing *ready* instructions into per-kind groups
            # (validations/triggers, zero-latency completions, issue ops);
            # phases 2-4 then complete each group as a unit.  The split is
            # exact because the deferred work has no intra-cycle feedback
            # into phase 1's routing decisions:
            #
            # * validations and stores consume neither issue width nor FUs,
            #   so extracting them from the seq-ordered scan leaves every
            #   width/FU allocation decision — made in phase 4 in seq order
            #   over the issue group — unchanged;
            # * completion times assigned this cycle are always > ``now``,
            #   so no instruction processed later in the same pass can
            #   observe them as ready — consumers sleep on the producer's
            #   ``waiters`` list and re-enter at exactly the cycle the
            #   per-instruction rescan would have advanced;
            # * a validation failure at seq F only flushes instructions
            #   with seq >= F; phases 3-4 gate on F, and instructions older
            #   than F are unaffected by the failure's vector-side writes.
            if self.waiting or self._parked:
                if prof is not None:
                    t0 = clock()
                issues_left = width
                # Parked instructions whose wake cycle has arrived rejoin
                # the scan.  Both lists are seq-sorted, so extend+sort is a
                # cheap two-run merge and the scan order matches the
                # never-parked order.
                parked = self._parked
                if parked and parked[0][0] <= now:
                    waiting = self.waiting
                    while parked and parked[0][0] <= now:
                        waiting.append(heappop(parked)[2])
                    waiting.sort(key=_SEQ_KEY)
                still_waiting: List[InFlight] = []
                keep = still_waiting.append
                flush_seq: Optional[int] = None
                # Ready groups, built lazily (most cycles most are empty).
                rv: Optional[List] = None  # validations / triggers
                rf: Optional[List] = None  # zero-latency: stores + no-FU scalars
                ri: Optional[List] = None  # issue ops: loads + FU scalars
                # ---- phase 1: dependence scan + routing ------------------
                for fl in self.waiting:
                    # Dependence check, with compaction: a satisfied token
                    # can never become unsatisfied again (done_at and
                    # r_time are written once per object, ``now`` only
                    # grows), so each slot is cleared the first cycle it is
                    # ready and later rescans skip straight to the
                    # structural checks.  A blocked instruction leaves the
                    # scan instead of being rescanned every cycle: when the
                    # blocking token's time is already known it parks on
                    # the timed heap until that cycle; when the producer
                    # has not issued yet (done_at still None) it sleeps on
                    # the producer's ``waiters`` list and moves to the heap
                    # the moment the producer's completion time is set.
                    # Either way it rejoins the scan — in seq order —
                    # exactly at the first cycle the every-cycle rescan
                    # could have advanced past that token, so the elided
                    # rescans are unobservable.
                    dep = fl.dep1
                    if dep is not None:
                        if type(dep) is tuple:
                            t = dep[0].r_time[dep[1]]
                            if t is None:
                                # Unscheduled vector element: no wake hook;
                                # rescan.
                                keep(fl)
                                continue
                            if t > now:
                                heappush(parked, (t, fl.seq, fl))
                                continue
                        else:
                            t = dep.done_at
                            if t is None:
                                w = dep.waiters
                                if w is None:
                                    dep.waiters = [fl]
                                else:
                                    w.append(fl)
                                continue
                            if t > now:
                                heappush(parked, (t, fl.seq, fl))
                                continue
                        fl.dep1 = None
                    dep = fl.dep2
                    if dep is not None:
                        if type(dep) is tuple:
                            t = dep[0].r_time[dep[1]]
                            if t is None:
                                keep(fl)
                                continue
                            if t > now:
                                heappush(parked, (t, fl.seq, fl))
                                continue
                        else:
                            t = dep.done_at
                            if t is None:
                                w = dep.waiters
                                if w is None:
                                    dep.waiters = [fl]
                                else:
                                    w.append(fl)
                                continue
                            if t > now:
                                heappush(parked, (t, fl.seq, fl))
                                continue
                        fl.dep2 = None
                    if fl.static_ready > now:
                        keep(fl)
                        continue
                    kind = fl.kind
                    if kind == K_SCALAR:
                        if fl.cls == _FU_NONE:
                            if rf is None:
                                rf = [fl]
                            else:
                                rf.append(fl)
                        elif ri is None:
                            ri = [fl]
                        else:
                            ri.append(fl)
                    elif kind == K_LOAD:
                        if ri is None:
                            ri = [fl]
                        else:
                            ri.append(fl)
                    elif kind == K_STORE:
                        if rf is None:
                            rf = [fl]
                        else:
                            rf.append(fl)
                    elif rv is None:
                        rv = [fl]
                    else:
                        rv.append(fl)

                done1 = now + 1
                # ---- phase 2: validations / triggers ---------------------
                if rv is not None:
                    if bh is not None:
                        bh(len(rv))
                    for fl in rv:
                        # Element still live and (for loads) predicted
                        # address matches the actual one.  The address
                        # verdict was precomputed at dispatch
                        # (``fl.mismatch``): both operands are decode-time
                        # constants.
                        vreg = fl.vreg
                        if vreg.freed or vreg.defunct or fl.mismatch:
                            # Misspeculation: recover to scalar from here.
                            on_validation_failure(fl, now)
                            flush_seq = fl.seq
                            # The rest of the group is younger: flushed.
                            break
                        t = vreg.r_time[fl.velem]
                        if t is not None:
                            if t <= now:
                                fl.done_at = done1
                            else:
                                # The completion time is known and r_time
                                # is write-once while this op is in flight
                                # (its U flag pins the register against
                                # freeing/recycling), so the op cannot
                                # become ready before cycle ``t``.  It can
                                # only *fail* early via a defunct flip, and
                                # both defunct writers already wake it: a
                                # store-coherence conflict flushes
                                # everything younger than the committing
                                # store (which includes every parked op),
                                # and a validation failure drains the park
                                # heap below.  Parking is therefore exact.
                                heappush(parked, (t, fl.seq, fl))
                        else:
                            keep(fl)
                # ---- phase 3: zero-latency completions -------------------
                if rf is not None:
                    for fl in rf:
                        if flush_seq is not None and fl.seq >= flush_seq:
                            break
                        fl.done_at = done1
                        if fl.kind != K_STORE:
                            # Address generation + data capture for stores;
                            # memory is written at commit and nothing
                            # renames to a store.
                            if fl.waiters is not None:
                                # Completion time now known: move sleepers
                                # to the park heap (squashed ones dropped;
                                # their re-fetched copies re-register).
                                for c in fl.waiters:
                                    if not c.squashed:
                                        heappush(parked, (done1, c.seq, c))
                                fl.waiters = None
                            if fl.mispredicted and not fl.redirected:
                                resolve_mispredict(fl, now)
                # ---- phase 4: issue (loads + FU ops, seq order, width-limited)
                if ri is not None:
                    by_cls = {}
                    for fl in ri:
                        if flush_seq is not None and fl.seq >= flush_seq:
                            break
                        if fl.kind == K_LOAD:
                            if issues_left <= 0:
                                keep(fl)
                                continue
                            # Disambiguation: every older store must have a
                            # known address (base dep ready); the youngest
                            # older store to the same address forwards.
                            # ``res`` ends as None (issued: forwarded or
                            # queued to the memory stage), -1 (blocked on
                            # an unscheduled vector element: rescan), a
                            # cycle > now to park until, or the blocking
                            # producer to sleep on (time not yet known).
                            my_addr = fl.addr
                            my_seq = fl.seq
                            forwarding_store = None
                            res = None
                            for other in self.lsq:
                                if other.seq >= my_seq:
                                    break
                                if other.kind != K_STORE:
                                    continue
                                dep = other.base_dep
                                if dep is not None:
                                    if type(dep) is tuple:
                                        t = dep[0].r_time[dep[1]]
                                        if t is None:
                                            res = -1
                                            break
                                        if t + 1 > now:
                                            # Exact rejoin: the per-cycle
                                            # rescan would first pass this
                                            # store at t + 1 (write-once t).
                                            res = t + 1
                                            break
                                    else:
                                        t = dep.done_at
                                        if t is None:
                                            res = dep
                                            break
                                        if t + 1 > now:
                                            res = t + 1
                                            break
                                if other.addr == my_addr:
                                    forwarding_store = other
                            if res is None:
                                if forwarding_store is None:
                                    self.mem_queue.append(fl)
                                    issues_left -= 1
                                    continue
                                dep = forwarding_store.data_dep
                                if dep is not None:
                                    if type(dep) is tuple:
                                        t = dep[0].r_time[dep[1]]
                                        if t is None:
                                            res = -1
                                        elif t > now:
                                            res = t
                                    else:
                                        t = dep.done_at
                                        if t is None:
                                            res = dep
                                        elif t > now:
                                            res = t
                                if res is None:
                                    fl.done_at = done1
                                    if fl.waiters is not None:
                                        for c in fl.waiters:
                                            if not c.squashed:
                                                heappush(parked, (done1, c.seq, c))
                                        fl.waiters = None
                                    stats.forwarded_loads += 1
                                    issues_left -= 1
                                    continue
                            if type(res) is int:
                                if res < 0:
                                    keep(fl)
                                else:
                                    heappush(parked, (res, fl.seq, fl))
                            else:
                                w = res.waiters
                                if w is None:
                                    res.waiters = [fl]
                                else:
                                    w.append(fl)
                            continue
                        if issues_left <= 0:
                            keep(fl)
                            continue
                        # Grab a scalar FU: simple units are fully
                        # pipelined, mul/div units are busy for the whole
                        # operation (see _FU_BUSY).
                        cls = fl.cls
                        pool = fu_free.get(cls)
                        if pool is not None:
                            for ui, free_at in enumerate(pool):
                                if free_at <= now:
                                    pool[ui] = now + fu_busy[cls]
                                    break
                            else:
                                keep(fl)
                                continue
                        issues_left -= 1
                        group = by_cls.get(cls)
                        if group is None:
                            by_cls[cls] = [fl]
                        else:
                            group.append(fl)
                    # Complete each functional class as one batch: one
                    # shared completion time per class.
                    for cls, group in by_cls.items():
                        if bh is not None:
                            bh(len(group))
                        done = now + group[0].lat
                        for fl in group:
                            fl.done_at = done
                            # Only scalar ALU ops and scalar loads ever
                            # appear as producers in the rename map, so
                            # only they can hold sleepers.
                            if fl.waiters is not None:
                                for c in fl.waiters:
                                    if not c.squashed:
                                        heappush(parked, (done, c.seq, c))
                                fl.waiters = None
                            if fl.mispredicted and not fl.redirected:
                                resolve_mispredict(fl, now)

                if flush_seq is not None and parked:
                    # The failure defuncted a register; any parked op — in
                    # particular an *older* validation of the same register
                    # — must be rescanned so it notices the flip next
                    # cycle, as an unparked entry would.  (Younger ones are
                    # flushed below.)
                    still_waiting.extend(e[2] for e in parked)
                    del parked[:]
                if len(still_waiting) > 1:
                    # Phases 1/2/4 each keep in seq order, so this is a
                    # cheap merge of a few sorted runs, restoring the
                    # seq-sorted invariant the next scan relies on.
                    still_waiting.sort(key=_SEQ_KEY)
                self.waiting = still_waiting
                if flush_seq is not None:
                    flush_from(flush_seq, now + 1 + mispredict_penalty, now)
                if prof is not None:
                    account("execute", clock() - t0)

            # ---- memory ----------------------------------------------------
            # L1 data-port transactions for queued loads and (V mode)
            # speculative vector element fetches.
            if self.mem_queue or (engine is not None and engine.pending_fetches):
                if prof is not None:
                    t0 = clock()
                if wide_bus:
                    queue = self.mem_queue
                    if (
                        len(queue) == 1
                        and (engine is None or not engine.pending_fetches)
                        and ports_available() != 0
                    ):
                        # One pending scalar load and no vector fetches to
                        # group with it: serve its line directly, skipping
                        # the group-building call (the common IM-mode case;
                        # take_fetches on an empty queue has no effect, so
                        # skipping the call is exact in V mode too).
                        fl = queue[0]
                        addr = fl.addr
                        ready = data_access(addr - (addr % line_bytes), now)
                        if ready is not None:
                            ports_take()
                            txn = ports_open_read()
                            ports_add_useful(txn, 1)
                            stats.read_accesses += 1
                            stats.scalar_loads_to_memory += 1
                            fl.done_at = ready
                            if fl.waiters is not None:
                                parked = self._parked
                                for c in fl.waiters:
                                    if not c.squashed:
                                        heappush(parked, (ready, c.seq, c))
                                fl.waiters = None
                            self.mem_queue = []
                    else:
                        schedule_memory(now)
                elif self.mem_queue and ports_available() != 0:
                    # Scalar buses: one word per port per transaction.
                    queue = self.mem_queue
                    nq = len(queue)
                    served = 0
                    while served < nq:
                        fl = queue[served]
                        if ports_available() == 0:
                            break
                        ready = data_access(fl.addr, now)
                        if ready is None:  # MSHR full; retry next cycle
                            break
                        ports_take()
                        txn = ports_open_read()
                        ports_add_useful(txn, 1)
                        stats.read_accesses += 1
                        stats.scalar_loads_to_memory += 1
                        fl.done_at = ready
                        if fl.waiters is not None:
                            parked = self._parked
                            for c in fl.waiters:
                                if not c.squashed:
                                    heappush(parked, (ready, c.seq, c))
                            fl.waiters = None
                        served += 1
                    if served:
                        self.mem_queue = queue[served:]
                if prof is not None:
                    account("memory", clock() - t0)

            # ---- dispatch --------------------------------------------------
            # Rename and insert up to ``width`` fetched instructions into
            # the window.  Static per-instruction properties come from the
            # trace SoA arrays, indexed by the packed seq from the fetch
            # queue.
            if fetch_queue:
                if prof is not None:
                    t0 = clock()
                dispatched = 0
                lsq = self.lsq
                waiting = self.waiting
                max_seq = self._max_dispatched_seq
                ready_at = now + 1
                rob_room = rob_size - len(rob)
                while fetch_queue and dispatched < width:
                    if rob_room <= 0:
                        break
                    packed = fetch_queue[0]
                    seq = packed >> 1
                    kind = kinds[seq]
                    if kind != K_SCALAR and len(lsq) >= lsq_size:
                        break
                    entry = entries[seq]
                    is_valu = valus[seq]
                    # Vectorizer probe fast path: an arithmetic instruction
                    # whose PC never had a VRMT mapping and whose renamed
                    # sources are all scalar can only decode to a plain
                    # scalar with no engine state touched — skip the decode
                    # call (and the scalar-operand stall check, which needs
                    # a live mapping).  ``vpcs`` is a conservative superset
                    # of the live VRMT keys, and a VRMT probe for an
                    # unmapped PC has no side effects, so elided and
                    # executed decodes are indistinguishable.
                    vec_probe = False
                    if is_valu and vpcs is not None:
                        if pcs_soa[seq] in vpcs:
                            vec_probe = True
                        else:
                            r = d1s[seq]
                            if r >= 0 and type(rename[r]) is tuple:
                                vec_probe = True
                            else:
                                r = d2s[seq]
                                if r >= 0 and type(rename[r]) is tuple:
                                    vec_probe = True
                    if (
                        block_scalar
                        and vec_probe
                        and blocked_on_scalar(entry, now)
                    ):
                        stats.scalar_operand_stall_cycles += 1
                        break
                    fetch_queue.popleft()
                    dispatched += 1
                    rob_room -= 1

                    first_time = seq > max_seq
                    if first_time:
                        max_seq = seq
                        self._max_dispatched_seq = seq

                    decision = None
                    if engine is not None:
                        if kind == K_LOAD:
                            decision = decode_load(entry, now, first_time)
                        elif vec_probe and entry.rd != NO_REG:
                            decision = decode_alu(entry, src_descs_of(entry), now)

                    if decision is not None and decision.kind is not DecodeKind.SCALAR:
                        vkind = (
                            K_VALIDATION
                            if decision.kind is DecodeKind.VALIDATION
                            else K_TRIGGER
                        )
                        if vec_pool:
                            fl = vec_pool.pop()
                            fl.reset(seq, entry, vkind, addrs[seq])
                        else:
                            fl = VecInFlight(seq, entry, vkind, addrs[seq])
                        fl.vreg = decision.reg
                        fl.velem = decision.elem
                        p = decision.pred_addr
                        fl.pred_addr = p
                        # Both compare operands are fixed at decode, so the
                        # validation verdict is precomputed here.
                        if p is not None and p != entry.addr:
                            fl.mismatch = True
                        fl.counts_as_validation = decision.counts_as_validation
                        fl.vrmt_rollback = decision.vrmt_rollback
                        fl.static_ready = ready_at
                        if kind == K_LOAD:
                            # The address check needs the base register.
                            r = d1s[seq]
                            if r >= 0:
                                fl.dep1 = rename[r]
                        rd = rds[seq]
                        if rd > 0:
                            fl.saved_rd = rd
                            fl.saved_tok = rename[rd]
                            rename[rd] = (decision.reg, decision.elem)
                        rob.append(fl)
                        waiting.append(fl)
                        continue

                    # A scalar decision may still have touched the VRMT
                    # (entry invalidated or chain attempt failed); only
                    # then does the record need the vector-capable class
                    # for its rollback slot.
                    if decision is not None and decision.vrmt_rollback is not None:
                        fl = VecInFlight(seq, entry, kind, addrs[seq])
                        fl.vrmt_rollback = decision.vrmt_rollback
                    else:
                        fl = InFlight(seq, entry, kind, addrs[seq])
                    if kind == K_LOAD:
                        r = d1s[seq]
                        dep = rename[r] if r >= 0 else None
                        fl.base_dep = dep
                        fl.dep1 = dep
                        rd = rds[seq]
                        if rd > 0:
                            fl.saved_rd = rd
                            fl.saved_tok = rename[rd]
                            rename[rd] = fl
                        lsq.append(fl)
                    elif kind == K_STORE:
                        r = d1s[seq]
                        base = rename[r] if r >= 0 else None
                        r = d2s[seq]
                        data = rename[r] if r >= 0 else None
                        fl.base_dep = base
                        fl.data_dep = data
                        fl.dep1 = base
                        fl.dep2 = data
                        lsq.append(fl)
                    else:
                        fl.cls = clss[seq]
                        fl.lat = lats[seq]
                        r = d1s[seq]
                        if r >= 0:
                            fl.dep1 = rename[r]
                        r = d2s[seq]
                        if r >= 0:
                            fl.dep2 = rename[r]
                        rd = rds[seq]
                        if rd > 0:
                            fl.saved_rd = rd
                            fl.saved_tok = rename[rd]
                            rename[rd] = fl
                    fl.static_ready = ready_at
                    if packed & 1:
                        fl.mispredicted = True
                    rob.append(fl)
                    waiting.append(fl)
                stats.fetched += dispatched
                if prof is not None:
                    account("dispatch", clock() - t0)

            # ---- fetch -----------------------------------------------------
            # fetch_into's own early-outs, checked here to skip the call
            # during mispredict bubbles and after the trace runs dry.
            if (
                fq_size > len(fetch_queue)
                and not fetch_unit._blocked
                and now >= fetch_unit._stalled_until
            ):
                if prof is None:
                    fetch_into(now, fetch_queue, fq_size - len(fetch_queue))
                else:
                    t0 = clock()
                    fetched = fetch_into(now, fetch_queue, fq_size - len(fetch_queue))
                    account("fetch", clock() - t0, fetched > 0)

            now += 1
            if hooked:
                if prof is not None:
                    prof.tick()
                if series is not None and not (now & _OCCUPANCY_MASK):
                    busy = ports.busy_port_cycles
                    series.append(now, (busy - occupancy_mark) / occupancy_scale)
                    occupancy_mark = busy
            if now >= stop:
                break
        self.committed_count = committed_count
        if series is not None:
            self._occupancy_mark = occupancy_mark
        if prof is not None:
            prof.wall_seconds += clock() - wall_start
        return now

    def run(self) -> SimStats:
        """Simulate until the whole trace has committed; returns stats."""
        total = len(self.trace.entries)
        if total == 0:
            return self.stats
        # A healthy machine commits well within this; past it, report a
        # wedge instead of spinning forever.
        safety = 2000 + 600 * total
        # The loop allocates heavily (InFlight, dep tuples) but creates no
        # reference cycles worth collecting mid-run; pausing the cyclic GC
        # saves its generation-0 scans.  Restore the caller's setting after.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            now = self._cycles(0, safety + 1, total)
        finally:
            if gc_was_enabled:
                gc.enable()
        if self.committed_count < total:
            raise RuntimeError(
                f"simulation wedged: {self.committed_count}/{total} "
                f"committed after {now} cycles"
            )
        return self.finish(now)

    def finish(self, now: int) -> SimStats:
        """Close the run at cycle ``now`` (the first cycle not simulated):
        finalize the end-of-run statistics and return them.  :meth:`run`
        calls this; a caller driving :meth:`step` itself calls it once
        the trace has committed."""
        stats = self.stats
        stats.cycles = now
        if self.engine is not None:
            self.engine.finalize(now)
        stats.usefulness = self.ports.usefulness_histogram()
        stats.port_occupancy = self.ports.occupancy
        obs = self.observer
        if obs is not None and obs.metrics is not None:
            self._record_metrics(obs.metrics)
        return stats

    def _record_metrics(self, registry) -> None:
        """End-of-run machine-level gauges (cache and port accounting).

        Whole-run ``sim.*`` counters are recorded by the experiment layer
        (:func:`repro.observe.metrics.record_sim_stats`) so sampled-mode
        windows, which each run their own machine against a shared
        observer, do not double-count.  Gauges are safe either way: the
        last window's write wins, and the hierarchy's cumulative stats
        make that the whole-run total.
        """
        self.hierarchy.record_metrics(registry)
        ports = self.ports
        registry.gauge("ports.read_transactions").set(ports.read_transactions)
        registry.gauge("ports.write_transactions").set(ports.write_transactions)
        registry.gauge("ports.busy_port_cycles").set(ports.busy_port_cycles)
        registry.gauge("ports.occupancy.final").set(ports.occupancy)


def simulate(config: MachineConfig, trace: Trace, observer=None) -> SimStats:
    """Run ``trace`` through a machine built from ``config`` (convenience)."""
    return Machine(config, trace, observer=observer).run()
