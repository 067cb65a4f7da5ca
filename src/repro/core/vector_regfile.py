"""Vector register file with the paper's per-element state machine (§3.3).

Each of the 128 vector registers holds 4 elements (64-bit words).  Every
element carries four flags (Fig 8):

* **R** (Ready)  — the element has been computed (loaded / produced by a
  vector FU).  In the timing model this is a cycle number: the element is
  R at cycle ``t`` once ``r_time is not None and r_time <= t``.
* **V** (Valid)  — the validation for this element has *committed*.
* **U** (Used)   — a validation for this element is in flight (dispatched,
  not yet committed); blocks freeing.
* **F** (Free)   — the element's value is architecturally dead: the next
  write to the same logical register has committed.

Each register also records the **MRBB** tag — the PC of the most recently
committed backward branch when the register was allocated — and, for
loads, the first/last predicted addresses used by the §3.6 store
coherence check.

Freeing (verbatim from §3.3): a register is released when

1. every element has R and F set; or
2. every V element has F set, all elements are R, no element has U set,
   and the register's MRBB differs from the global GMRBB (the loop that
   allocated it has terminated).

Registers are Python objects handed out by slot; freeing bumps the slot
generation so stale references (squashed consumers) can never alias a
newly allocated register.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

Number = Union[int, float]


class VectorRegister:
    """One allocated vector register and its element state."""

    __slots__ = (
        "slot",
        "gen",
        "pc",
        "is_load",
        "fp_load",
        "length",
        "start_offset",
        "full_mask",
        "values",
        "r_time",
        "v_bits",
        "u_bits",
        "f_bits",
        "pend_bits",
        "pred_addrs",
        "first_addr",
        "last_addr",
        "mrbb",
        "defunct",
        "txn_ids",
        "freed",
        "next_fetch",
        "abandoned",
    )

    def __init__(
        self,
        slot: int,
        gen: int,
        pc: int,
        is_load: bool,
        length: int,
        start_offset: int,
        mrbb: int,
    ) -> None:
        self.slot = slot
        self.gen = gen
        self.pc = pc
        self.is_load = is_load
        #: FLD (vs LD) register: element fetches coerce to float the way
        #: the architectural write-back does (set by the engine at
        #: promotion; LD elements wrap to int64 instead).
        self.fp_load = False
        self.length = length
        self.start_offset = start_offset
        #: all-elements bitmask; the V/U/F flag vectors below are packed
        #: ints indexed by element (bit ``k`` = element ``k``), so the
        #: whole-register predicates the freeing rules need (any U? every
        #: element F?) are single int compares instead of list scans.
        self.full_mask = (1 << length) - 1
        self.values: List[Number] = [0] * length
        #: cycle each element's computation completes; None = not scheduled.
        self.r_time: List[Optional[int]] = [None] * length
        self.v_bits = 0
        self.u_bits = 0
        # Elements below start_offset do not exist for this instance; mark
        # them vacuously complete so the freeing rules read naturally.
        self.f_bits = (1 << start_offset) - 1
        #: elements whose ALU result value sits in the engine's deferred
        #: cross-cycle batch and has not been written to ``values`` yet.
        self.pend_bits = 0
        #: predicted element addresses (loads only).
        self.pred_addrs: List[int] = []
        self.first_addr = 0
        self.last_addr = -1
        self.mrbb = mrbb
        #: True once invalidated by a store conflict / misspeculation: no
        #: further validations may attach.
        self.defunct = False
        #: read-transaction ids that fetched each element (loads only;
        #: Fig 13).  ALU registers never carry transactions.
        self.txn_ids: Optional[List[Optional[int]]] = (
            [None] * length if is_load else None
        )
        self.freed = False
        #: next element index awaiting a fetch request (loads; see the
        #: engine's throttled-fetch extension).
        self.next_fetch = 0
        #: set by the engine when the register is dead and its remaining
        #: elements will never be fetched/computed (throttled-fetch
        #: extension); unscheduled elements then no longer block freeing.
        self.abandoned = False
        for k in range(start_offset):
            self.r_time[k] = 0

    # ------------------------------------------------------------------

    def set_load_addresses(self, base_addr: int, stride: int) -> None:
        """Record the predicted element addresses and the §3.6 range."""
        pa = [base_addr + k * stride for k in range(self.length)]
        self.pred_addrs = pa
        # Strided addresses are monotone, so the range is the two ends.
        if stride >= 0:
            self.first_addr = pa[0]
            self.last_addr = pa[-1]
        else:
            self.first_addr = pa[-1]
            self.last_addr = pa[0]

    def covers(self, addr: int) -> bool:
        """True when ``addr`` lies in this load register's address range."""
        return self.is_load and self.first_addr <= addr <= self.last_addr

    def elem_scheduled(self, k: int) -> bool:
        return self.r_time[k] is not None

    def elem_done(self, k: int, now: int) -> bool:
        t = self.r_time[k]
        return t is not None and t <= now

    def all_computed(self, now: int) -> bool:
        if self.abandoned:
            # Unscheduled elements of an abandoned register will never be
            # written; they cannot block release.
            return all(t is None or t <= now for t in self.r_time)
        return all(t is not None and t <= now for t in self.r_time)

    # ------------------------------------------------------------------

    def should_free(self, now: int, gmrbb: int) -> bool:
        """Evaluate the two §3.3 release conditions at cycle ``now``."""
        if self.freed:
            return False
        if self.u_bits:
            return False
        if self.defunct:
            # Invalidated register: nothing further will validate; release
            # as soon as no validation is in flight.
            return True
        if not self.all_computed(now):
            return False
        # Rule 1: every element computed and freed.
        if self.f_bits == self.full_mask:
            return True
        # Rule 2: every validated element freed, everything computed, no
        # element in use, and the allocating loop has terminated.
        if self.mrbb != gmrbb and not (self.v_bits & ~self.f_bits):
            return True
        return False

    def element_fates(self, now: int) -> Tuple[int, int, int]:
        """(computed&validated, computed&unvalidated, not computed) counts.

        Fig 15's three stacks, evaluated over the full architectural
        vector length (pre-start elements count as not computed, matching
        the paper's 'not comp.' population).
        """
        used = 0
        unused = 0
        not_computed = self.start_offset
        v_bits = self.v_bits
        for k in range(self.start_offset, self.length):
            if self.r_time[k] is not None and self.r_time[k] <= now:
                if (v_bits >> k) & 1:
                    used += 1
                else:
                    unused += 1
            else:
                not_computed += 1
        return used, unused, not_computed


class VectorRegisterFile:
    """Allocation pool over ``num_registers`` slots with generations."""

    def __init__(self, num_registers: int = 128, vector_length: int = 4) -> None:
        self.num_registers = num_registers
        self.vector_length = vector_length
        self._free_slots = list(range(num_registers - 1, -1, -1))
        self._gens = [0] * num_registers
        self._live: List[Optional[VectorRegister]] = [None] * num_registers
        # Coherence index for the §3.6 store check: parallel arrays of the
        # [first, last] address range of every indexed load register, so a
        # committing store tests all ranges in one comprehension over flat
        # lists instead of walking the live registers' attributes.  Freed registers leave a dead
        # row (filtered on lookup) until the lazy compaction runs.
        self._load_regs: List[VectorRegister] = []
        self._load_firsts: List[int] = []
        self._load_lasts: List[int] = []
        self._load_dead = 0

    # ------------------------------------------------------------------

    @property
    def free_count(self) -> int:
        return len(self._free_slots)

    def allocate(
        self, pc: int, is_load: bool, start_offset: int, mrbb: int
    ) -> Optional[VectorRegister]:
        """Allocate a register, or None when the pool is empty (§3.3: the
        instruction then simply stays scalar)."""
        if not self._free_slots:
            return None
        slot = self._free_slots.pop()
        self._gens[slot] += 1
        reg = VectorRegister(
            slot,
            self._gens[slot],
            pc,
            is_load,
            self.vector_length,
            start_offset,
            mrbb,
        )
        self._live[slot] = reg
        return reg

    def free(self, reg: VectorRegister) -> None:
        """Release ``reg``'s slot (idempotence guarded by ``freed``)."""
        if reg.freed:
            return
        reg.freed = True
        self._live[reg.slot] = None
        self._free_slots.append(reg.slot)
        if reg.is_load:
            self._load_dead += 1
            dead = self._load_dead
            if dead > 32 and dead * 2 > len(self._load_regs):
                self._compact_load_index()

    # -- §3.6 coherence index ------------------------------------------

    def index_load(self, reg: VectorRegister) -> None:
        """Register a load's predicted address range for the store check
        (called by the engine after ``set_load_addresses``)."""
        self._load_regs.append(reg)
        self._load_firsts.append(reg.first_addr)
        self._load_lasts.append(reg.last_addr)

    def coherence_candidates(self, addr: int) -> List[VectorRegister]:
        """Live load registers whose predicted range covers ``addr``."""
        firsts = self._load_firsts
        if not firsts:
            return []
        regs = self._load_regs
        lasts = self._load_lasts
        return [
            regs[i]
            for i in range(len(firsts))
            if firsts[i] <= addr <= lasts[i] and not regs[i].freed
        ]

    def _compact_load_index(self) -> None:
        regs = self._load_regs
        keep = [i for i, reg in enumerate(regs) if not reg.freed]
        firsts = self._load_firsts
        lasts = self._load_lasts
        self._load_regs = [regs[i] for i in keep]
        self._load_firsts = [firsts[i] for i in keep]
        self._load_lasts = [lasts[i] for i in keep]
        self._load_dead = 0

    def live_registers(self) -> List[VectorRegister]:
        """Currently allocated registers (for sweeps and the store check)."""
        return [reg for reg in self._live if reg is not None]

    @property
    def storage_bytes(self) -> int:
        """Hardware cost per §4.1: elements * 8 bytes * registers."""
        return self.vector_length * 8 * self.num_registers
