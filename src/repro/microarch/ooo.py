"""Out-of-order core model (the paper's "OoO-core", an Alpha IVM-class design).

A two-wide superscalar, out-of-order machine:

``fetch -> decode/rename -> dispatch (ROB + issue queue) -> issue -> execute
-> writeback -> commit``

with a reorder buffer, a store queue that drains at commit, branch
checkpointing for mispredict recovery, and per-entry flip-flop structures for
every queue.  The design reproduces the properties the paper's OoO results
rest on:

* roughly an order of magnitude more flip-flops than the in-order core
  (about 13.8k, Table 1), dominated by the ROB, issue queue and load/store
  machinery;
* a substantially larger fraction of flip-flops whose errors always vanish
  (branch predictor, L1 d-cache interface registers, load-queue bookkeeping,
  performance counters -- the Appendix-A structures); none of them feeds
  behaviour, so the injection engine folds undetected flips there as golden
  copies (:attr:`OutOfOrderCore.hint_plane_inert`);
* an IPC above 1 on compute-dense workloads (the paper reports 1.3);
* a reorder-buffer boundary past which detected errors can no longer be
  recovered by RoB recovery (architecturally committed state).

The memory arrays (caches, physical register file contents) are RAM and are
not injection targets, as in the paper.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, replace

from repro.isa.encoding import DECODED
from repro.isa.instructions import Opcode, OPCODE_BY_VALUE, OPCODE_INFO
from repro.isa.program import Program, WORD_BYTES
from repro.isa.registers import NUM_REGISTERS
from repro.microarch.core import BaseCore, CoreClass
from repro.microarch.events import TerminationReason, TrapKind
from repro.microarch.execute import ExecuteTrap, execute_operation
from repro.microarch.memory import MemoryFault, MemorySystem
from repro.microarch.state import LatchState

OOO_CLOCK_MHZ = 600.0
"""Nominal clock of the OoO-core (600 MHz, Table 1)."""

ROB_ENTRIES = 40
IQ_ENTRIES = 16
STQ_ENTRIES = 8
LDQ_ENTRIES = 8
FETCH_BUFFER_ENTRIES = 6
CHECKPOINTS = 4
FETCH_WIDTH = 2
RENAME_WIDTH = 2
ISSUE_WIDTH = 2
COMMIT_WIDTH = 2

_TRAP_CODES = {
    TrapKind.ILLEGAL_INSTRUCTION: 1,
    TrapKind.MEMORY_FAULT: 2,
    TrapKind.FETCH_FAULT: 3,
    TrapKind.DIVIDE_BY_ZERO: 4,
    TrapKind.SOFTWARE_ASSERTION: 5,
}
_TRAP_FROM_CODE = {code: kind for kind, code in _TRAP_CODES.items()}

_IMM_MASK = 0x7FFF
"""Width mask of the ``iq.imm`` latches (15-bit immediates)."""
_IMM_SIGN = 0x4000

# Per-entry latch fields of the queue structures, in registration order.
_FB_FIELDS = (("valid", 1), ("inst", 32), ("pc", 32), ("fault", 1))
_ROB_FIELDS = (("valid", 1), ("op", 7), ("rd", 5), ("result", 32),
               ("ready", 1), ("exception", 1), ("expkind", 3),
               ("is_store", 1), ("is_out", 1), ("is_branch", 1),
               ("ckpt", 3), ("pc", 32))
_IQ_FIELDS = (("valid", 1), ("op", 7), ("rob", 6), ("imm", 15), ("pc", 32),
              ("s1ready", 1), ("s1tag", 6), ("s1val", 32),
              ("s2ready", 1), ("s2tag", 6), ("s2val", 32), ("issued", 1))
_STQ_FIELDS = (("valid", 1), ("rob", 6), ("addr", 32), ("addrvalid", 1),
               ("data", 32), ("byte", 1))
_RAT_FIELDS = (("busy", 1), ("rob", 6))
_CKPT_FIELDS = (("map", 7 * NUM_REGISTERS), ("valid", 1))

_FB_ENTRY = "fb.e{}"
_ROB_ENTRY = "rob.e{:02d}"
_IQ_ENTRY = "iq.e{:02d}"
_STQ_ENTRY = "stq.e{}"
_RAT_ENTRY = "rat.r{:02d}"
_CKPT_ENTRY = "ckpt.c{}"

# Slot tuples: one per queue entry, holding the latch slot of each field.
_FbSlots = namedtuple("_FbSlots", [name for name, _ in _FB_FIELDS])
_RobSlots = namedtuple("_RobSlots", [name for name, _ in _ROB_FIELDS])
_IqSlots = namedtuple("_IqSlots", [name for name, _ in _IQ_FIELDS])
_StqSlots = namedtuple("_StqSlots", [name for name, _ in _STQ_FIELDS])
_RatSlots = namedtuple("_RatSlots", [name for name, _ in _RAT_FIELDS])
_CkptSlots = namedtuple("_CkptSlots", [name for name, _ in _CKPT_FIELDS])

_SCALAR_LATCHES = (
    "fetch.pc", "fetch.stall", "fb.head", "fb.tail", "fb.count",
    "bp.gshare.table", "bp.gshare.history",
    "rob.head", "rob.tail", "rob.count", "stq.head", "stq.tail", "stq.count",
    "mem.l1dcache.addr1.out", "mem.l1dcache.accessaddr0",
    "mem.l1dcache.accessfulldata0",
    "perf.counter0", "perf.counter1", "ldq.numentries",
)
"""Single-instance latches the per-cycle path reads or writes."""

_ScalarSlots = namedtuple(
    "_ScalarSlots", [name.replace(".", "_") for name in _SCALAR_LATCHES])


def _entry_slots(latches: LatchState, slots_type, entry: str, entries: int,
                 count: int | None = None) -> tuple:
    """Slot tuples for indices ``0 .. count - 1`` (default: ``entries``).

    Index ``i`` addresses entry ``i % entries``, so a table may be longer
    than its structure.
    """
    return tuple(
        slots_type._make(latches.slot(f"{entry.format(i % entries)}.{field}")
                         for field in slots_type._fields)
        for i in range(entries if count is None else count))


def _pointer_range(latches: LatchState, *names: str) -> int:
    """Number of values the widest of the named pointer latches can hold."""
    registry = latches.registry
    return max(1 << registry.structure(name).width for name in names)


@dataclass
class _InFlightOp:
    """Execution-unit bookkeeping for an issued, not-yet-written-back op."""

    rob_index: int
    opcode: Opcode
    rs1_value: int
    rs2_value: int
    imm: int
    pc: int
    remaining_cycles: int
    is_load: bool = False
    load_address: int | None = None


class OutOfOrderCore(BaseCore):
    """Cycle-level model of the complex out-of-order core."""

    # The hint plane is behaviour-free.  Only these stages touch hint
    # latches, and none reads one into a decision, a register, memory or
    # output:
    # * writeback -> _resolve_branch -> _train_predictor trains gshare
    #   (bp.gshare.table, bp.gshare.history), which feeds only itself --
    #   fetch is static not-taken and recovery compares against pc + 4;
    # * _commit_store and _complete_load write the mem.l1dcache.* staging
    #   registers, write-only;
    # * _touch_background_state advances perf.counter0/1 (self-incrementing)
    #   and writes ldq.numentries, write-only.
    # Every other hint structure is never touched after reset.
    # tests/test_engine.py::TestHintPlane inverts every hint structure and
    # checks it.
    hint_plane_inert = True
    # Dead flips hold most OoO replay time: flips into a freed IQ/ROB/STQ
    # entry field or an inactive rename checkpoint, which the golden run
    # next writes.  tests/test_engine.py::TestDeadFold checks the fold.
    dead_flip_fold = True

    def __init__(self, name: str = "OoO-core"):
        super().__init__(name=name, clock_mhz=OOO_CLOCK_MHZ,
                         core_class=CoreClass.OUT_OF_ORDER)
        self._declare_state()
        self._finalize_state()
        self.memory = MemorySystem()
        self.registers: list[int] = [0] * NUM_REGISTERS
        self._in_flight: list[_InFlightOp] = []
        self._fetch_stalled = False
        # Slot tables: every latch the per-cycle path touches, resolved once.
        # The stages index ``self.latches.values`` by these slots, and such
        # writes are not masked, so only a value that can exceed its latch's
        # width is masked where it is written: ``iq.imm`` (a signed
        # immediate) and the perf counters.  Results, addresses and store
        # data arrive 32-bit from execute_operation and memory, queue
        # pointers wrap modulo their entry counts, and every ``+= 1`` /
        # ``-= 1`` on a queue count follows its full / empty check.
        # Pointer latches are wider than their structures need (rob.head/tail
        # and the ROB tags of the issue queue and rename map are 6-bit for 40
        # entries, fb.head/tail 3-bit for 6), so an injected flip can leave a
        # pointer past the last entry.  Real hardware would address whatever
        # the extra bits select; the model wraps the index: the ROB and
        # fetch-buffer tables span the pointers' full range, with index ``i``
        # addressing entry ``i % entries``, so corrupted pointers keep
        # simulating (and get classified by outcome) instead of raising.
        latches = self.latches
        self._slots = _ScalarSlots._make(map(latches.slot, _SCALAR_LATCHES))
        self._fb = _entry_slots(
            latches, _FbSlots, _FB_ENTRY, FETCH_BUFFER_ENTRIES,
            _pointer_range(latches, "fb.head", "fb.tail"))
        self._rob = _entry_slots(
            latches, _RobSlots, _ROB_ENTRY, ROB_ENTRIES,
            _pointer_range(latches, "rob.head", "rob.tail", "iq.e00.rob",
                           "rat.r00.rob"))
        self._iq = _entry_slots(latches, _IqSlots, _IQ_ENTRY, IQ_ENTRIES)
        self._stq = _entry_slots(latches, _StqSlots, _STQ_ENTRY, STQ_ENTRIES)
        self._rat = _entry_slots(latches, _RatSlots, _RAT_ENTRY, NUM_REGISTERS)
        self._ckpt = _entry_slots(latches, _CkptSlots, _CKPT_ENTRY, CHECKPOINTS)

    # ------------------------------------------------------------------ state declaration
    def _declare_state(self) -> None:
        reg = self.registry.register

        # Front end.
        reg("fetch.pc", 32, "fetch")
        reg("fetch.valid", 1, "fetch")
        reg("fetch.stall", 1, "fetch")
        for i in range(FETCH_BUFFER_ENTRIES):
            for field, width in _FB_FIELDS:
                reg(f"{_FB_ENTRY.format(i)}.{field}", width, "fetch")
        reg("fb.head", 3, "fetch")
        reg("fb.tail", 3, "fetch")
        reg("fb.count", 4, "fetch")

        # Branch predictor (hint-only: the front end fetches not-taken paths
        # and recovers at execute, so predictor corruption never changes
        # architectural results).
        reg("bp.gshare.table", 2048, "branchpred", architectural=False)
        reg("bp.gshare.history", 12, "branchpred", architectural=False)
        reg("bp.ras", 128, "branchpred", architectural=False)
        reg("bp.btb.tags", 512, "branchpred", architectural=False)

        # Rename map (architectural register -> ROB entry).
        for i in range(NUM_REGISTERS):
            for field, width in _RAT_FIELDS:
                reg(f"{_RAT_ENTRY.format(i)}.{field}", width, "rename")
        for i in range(CHECKPOINTS):
            for field, width in _CKPT_FIELDS:
                reg(f"{_CKPT_ENTRY.format(i)}.{field}", width, "rename")

        # Reorder buffer.
        for i in range(ROB_ENTRIES):
            for field, width in _ROB_FIELDS:
                reg(f"{_ROB_ENTRY.format(i)}.{field}", width, "rob")
        reg("rob.head", 6, "rob")
        reg("rob.tail", 6, "rob")
        reg("rob.count", 7, "rob")

        # Issue queue (reservation stations).
        for i in range(IQ_ENTRIES):
            for field, width in _IQ_FIELDS:
                reg(f"{_IQ_ENTRY.format(i)}.{field}", width, "issue")

        # Store queue (drains at commit).
        for i in range(STQ_ENTRIES):
            for field, width in _STQ_FIELDS:
                reg(f"{_STQ_ENTRY.format(i)}.{field}", width, "lsu")
        reg("stq.head", 3, "lsu")
        reg("stq.tail", 3, "lsu")
        reg("stq.count", 4, "lsu")

        # Load queue: ordering bookkeeping only (the conservative scheduler
        # never violates memory ordering, so, as in the paper's Appendix A,
        # errors here vanish).
        for i in range(LDQ_ENTRIES):
            prefix = f"ldq.e{i}"
            reg(f"{prefix}.valid", 1, "lsu", architectural=False)
            reg(f"{prefix}.addr", 32, "lsu", architectural=False)
            reg(f"{prefix}.rob", 6, "lsu", architectural=False)
        reg("ldq.numentries", 4, "lsu", architectural=False)

        # Execution-unit bookkeeping registers (multiplier accumulators,
        # carry chains, ... -- Appendix-A style vanish structures).
        for unit, width in (("exec.mu0.a01", 32), ("exec.mu0.a12", 32),
                            ("exec.mu0.a23", 32), ("exec.mu0.a34", 32),
                            ("exec.mu0.b01", 32), ("exec.mu0.b12", 32),
                            ("exec.mu0.b23", 32), ("exec.mu0.b34", 32),
                            ("exec.ca0.p0", 32), ("exec.ca0.p1", 32),
                            ("exec.ca0.p2", 32), ("exec.ca0.br", 8),
                            ("exec.cb0.buffer.valid", 8), ("exec.cb0.queue.head", 4),
                            ("exec.cb0.queue.tail", 4)):
            reg(unit, width, "execute", architectural=False)

        # L1 data-cache interface registers (the cache arrays are SRAM; these
        # staging registers are flip-flops whose errors vanish because the
        # conservative LSU re-reads memory authoritatively).
        for i in range(8):
            reg(f"mem.l1dcache.addr.in{i}", 32, "dcache", architectural=False)
            reg(f"mem.l1dcache.data.in{i}", 32, "dcache", architectural=False)
            reg(f"mem.l1dcache.write.in{i}", 32, "dcache", architectural=False)
        for name, width in (("mem.l1dcache.accessaddr0", 32),
                            ("mem.l1dcache.accessaddr1", 32),
                            ("mem.l1dcache.accessfulldata0", 32),
                            ("mem.l1dcache.accessfulldata1", 32),
                            ("mem.l1dcache.accesshit0", 1),
                            ("mem.l1dcache.addr1.out", 32),
                            ("mem.l1dcache.addr2.out", 32),
                            ("mem.l1dcache.data2.out", 32),
                            ("mem.l1dcache.missqueue.returnedaddr1", 32),
                            ("mem.l1dcache.missqueue.returnedaddr2", 32),
                            ("mem.l1dcache.missqueue.done", 8),
                            ("mem.l1dcache.missqueue.type", 8),
                            ("mem.l1dcache.mobid2.out", 8),
                            ("mem.l1dcache.size1.out", 4),
                            ("mem.l1dcache.size2.out", 4),
                            ("mem.stb.forward.data1", 32),
                            ("mem.stb.forward.data2", 32),
                            ("mem.stb.forward.stid1", 8),
                            ("mem.stb.forward.stid2", 8),
                            ("mem.returned.hintvalid1", 1),
                            ("mem.finished.st2", 8)):
            reg(name, width, "dcache", architectural=False)

        # L2 interface / miss-status-holding registers (vanish: the simple
        # memory model services every access synchronously, so these staging
        # registers never feed architectural results).
        for i in range(4):
            reg(f"mem.mshr{i}.addr", 32, "dcache", architectural=False)
            reg(f"mem.mshr{i}.data", 64, "dcache", architectural=False)
            reg(f"mem.mshr{i}.state", 4, "dcache", architectural=False)
        for i in range(4):
            reg(f"mem.l2q.e{i}.addr", 32, "dcache", architectural=False)
            reg(f"mem.l2q.e{i}.data", 64, "dcache", architectural=False)
            reg(f"mem.l2q.e{i}.valid", 1, "dcache", architectural=False)

        # Performance counters and debug support (vanish).
        for i in range(6):
            reg(f"perf.counter{i}", 48, "debug", architectural=False)
        reg("debug.breakpoint.addr", 32, "debug", architectural=False)
        reg("debug.ctrl", 16, "debug", architectural=False)
        reg("irq.pending", 16, "peripherals", architectural=False)
        reg("irq.mask", 16, "peripherals", architectural=False)

    # ------------------------------------------------------------------ small helpers
    def _rob_age(self, index: int) -> int:
        """Age of a ROB entry relative to the head (0 = oldest)."""
        head = self.latches.values[self._slots.rob_head]
        return (index - head) % ROB_ENTRIES

    def _read_register(self, index: int) -> int:
        return self.registers[index & 0x1F]

    def _write_register(self, index: int, value: int) -> None:
        index &= 0x1F
        if index != 0:
            self.registers[index] = value & 0xFFFFFFFF

    # ------------------------------------------------------------------ reset
    def _reset_microarchitecture(self, program: Program) -> None:
        self.memory.reset(program)
        self.registers = [0] * NUM_REGISTERS
        from repro.isa.program import DEFAULT_STACK_TOP

        self.registers[2] = DEFAULT_STACK_TOP - WORD_BYTES
        self._in_flight = []
        self._fetch_stalled = False
        self.latches.set("fetch.pc", program.entry_point)
        self.latches.set("fetch.valid", 1)

    # ------------------------------------------------------------------ checkpointing
    def _snapshot_microarchitecture(self) -> dict:
        # _InFlightOp.remaining_cycles is decremented in place every cycle,
        # so the ops must be copied in both directions.
        return {
            "registers": list(self.registers),
            "memory": self.memory.snapshot_words(),
            "in_flight": [replace(op) for op in self._in_flight],
            "fetch_stalled": self._fetch_stalled,
        }

    def _restore_microarchitecture(self, micro: dict) -> None:
        self.registers = list(micro["registers"])
        self.memory.restore_words(micro["memory"])
        self._in_flight = [replace(op) for op in micro["in_flight"]]
        self._fetch_stalled = micro["fetch_stalled"]

    def _fingerprint_microarchitecture(self) -> tuple:
        return (tuple(self.registers), self.memory.fingerprint_digest(),
                tuple((op.rob_index, int(op.opcode), op.rs1_value,
                       op.rs2_value, op.imm, op.pc, op.remaining_cycles,
                       op.is_load, op.load_address)
                      for op in self._in_flight),
                self._fetch_stalled)

    # ------------------------------------------------------------------ cycle
    def _step_cycle(self) -> None:
        self._commit()
        if self.terminated:
            return
        self._writeback()
        self._issue()
        self._rename_dispatch()
        self._fetch()
        self._touch_background_state()

    # ------------------------------------------------------------------ commit
    def _commit(self) -> None:
        v = self.latches.values
        s = self._slots
        for _ in range(COMMIT_WIDTH):
            if v[s.rob_count] == 0:
                return
            head = v[s.rob_head]
            rob = self._rob[head]
            if not v[rob.valid]:
                # Head bookkeeping corrupted; treat as a pipeline hang source.
                return
            if not v[rob.ready]:
                return
            if v[rob.exception]:
                kind = _TRAP_FROM_CODE.get(v[rob.expkind],
                                           TrapKind.ILLEGAL_INSTRUCTION)
                reason = (TerminationReason.DETECTED
                          if kind is TrapKind.SOFTWARE_ASSERTION
                          else TerminationReason.TRAP)
                self.force_termination(reason, kind)
                return
            opcode = OPCODE_BY_VALUE.get(v[rob.op])
            if v[rob.is_store]:
                if not self._commit_store(head):
                    return
            if v[rob.is_out]:
                self.emit_output(v[rob.result])
            if opcode is not None and OPCODE_INFO[opcode].writes_rd:
                rd = v[rob.rd]
                self._write_register(rd, v[rob.result])
                rat = self._rat[rd]
                if v[rat.busy] and v[rat.rob] == head:
                    v[rat.busy] = 0
                # Keep live checkpoints consistent: once this producer has
                # committed, a later recovery must map its destination to the
                # architectural register file, not to the freed ROB entry.
                self._patch_checkpoints_for_commit(rd, head)
            if v[rob.is_branch]:
                ckpt = v[rob.ckpt]
                if ckpt < CHECKPOINTS:
                    v[self._ckpt[ckpt].valid] = 0
            self.note_retired()
            v[rob.valid] = 0
            v[s.rob_head] = (head + 1) % ROB_ENTRIES
            v[s.rob_count] -= 1
            if opcode is Opcode.HALT:
                self.force_termination(TerminationReason.HALTED)
                return

    def _patch_checkpoints_for_commit(self, rd: int, rob_index: int) -> None:
        """Clear ``rd -> rob_index`` mappings inside every live checkpoint."""
        v = self.latches.values
        shift = 7 * rd
        for ckpt in self._ckpt:
            if not v[ckpt.valid]:
                continue
            packed = v[ckpt.map]
            entry = (packed >> shift) & 0x7F
            if (entry & 1) and ((entry >> 1) & 0x3F) == rob_index:
                v[ckpt.map] = packed & ~(0x7F << shift)

    def _commit_store(self, rob_index: int) -> bool:
        """Drain the store-queue head for the committing store.

        Returns False (and terminates the run) on a memory fault.
        """
        v = self.latches.values
        s = self._slots
        head = v[s.stq_head]
        stq = self._stq[head]
        if v[s.stq_count] == 0 or not v[stq.valid]:
            # Store queue out of sync with the ROB (only possible under
            # injection): raise a machine trap.
            self.force_termination(TerminationReason.TRAP, TrapKind.MEMORY_FAULT)
            return False
        address = v[stq.addr]
        data = v[stq.data]
        try:
            if v[stq.byte]:
                self.memory.store_byte(address, data)
            else:
                self.memory.store_word(address, data)
        except MemoryFault:
            self.force_termination(TerminationReason.TRAP, TrapKind.MEMORY_FAULT)
            return False
        v[stq.valid] = 0
        v[s.stq_head] = (head + 1) % STQ_ENTRIES
        v[s.stq_count] -= 1
        v[s.mem_l1dcache_addr1_out] = address
        return True

    # ------------------------------------------------------------------ writeback
    def _writeback(self) -> None:
        still_in_flight: list[_InFlightOp] = []
        for op in self._in_flight:
            op.remaining_cycles -= 1
            if op.remaining_cycles > 0:
                still_in_flight.append(op)
                continue
            if op.is_load:
                completed = self._complete_load(op)
                if not completed:
                    op.remaining_cycles = 1
                    still_in_flight.append(op)
                continue
            self._complete_op(op)
        self._in_flight = still_in_flight

    def _complete_op(self, op: _InFlightOp) -> None:
        v = self.latches.values
        rob_index = op.rob_index
        rob = self._rob[rob_index]
        if not v[rob.valid]:
            return  # squashed while executing
        try:
            result = execute_operation(op.opcode, op.rs1_value, op.rs2_value,
                                       op.imm, op.pc)
        except ExecuteTrap as trap:
            v[rob.exception] = 1
            v[rob.expkind] = _TRAP_CODES[trap.kind]
            v[rob.ready] = 1
            return
        info = OPCODE_INFO.get(op.opcode)
        if op.opcode in (Opcode.SW, Opcode.SB):
            self._fill_store_queue(rob_index, result.memory_address, result.store_value,
                                   is_byte=op.opcode is Opcode.SB)
        if op.opcode is Opcode.OUT:
            v[rob.result] = result.output_value or 0
        elif info is not None and info.writes_rd:
            v[rob.result] = result.value
            self._broadcast(rob_index, result.value)
        v[rob.ready] = 1
        if v[rob.is_branch] or op.opcode in (Opcode.JAL, Opcode.JALR):
            self._resolve_branch(op, result.branch_taken, result.branch_target)

    def _fill_store_queue(self, rob_index: int, address: int | None, data: int | None,
                          is_byte: bool) -> None:
        v = self.latches.values
        for stq in self._stq:
            if v[stq.valid] and v[stq.rob] == rob_index:
                v[stq.addr] = address or 0
                v[stq.addrvalid] = 1
                v[stq.data] = data or 0
                v[stq.byte] = 1 if is_byte else 0
                return

    def _broadcast(self, rob_index: int, value: int) -> None:
        """Wake issue-queue consumers waiting on a ROB tag."""
        v = self.latches.values
        for iq in self._iq:
            if not v[iq.valid]:
                continue
            if not v[iq.s1ready] and v[iq.s1tag] == rob_index:
                v[iq.s1val] = value
                v[iq.s1ready] = 1
            if not v[iq.s2ready] and v[iq.s2tag] == rob_index:
                v[iq.s2val] = value
                v[iq.s2ready] = 1

    # ------------------------------------------------------------------ branch recovery
    def _resolve_branch(self, op: _InFlightOp, taken: bool, target: int) -> None:
        v = self.latches.values
        s = self._slots
        rob_index = op.rob_index
        predicted_next = (op.pc + WORD_BYTES) & 0xFFFFFFFF
        actual_next = target if taken else predicted_next
        self._train_predictor(op.pc, taken)
        if actual_next == predicted_next:
            return  # fall-through prediction was correct
        # Mispredict: squash everything younger than the branch.
        branch_age = self._rob_age(rob_index)
        rob = self._rob[rob_index]
        ckpt = v[rob.ckpt]
        if ckpt < CHECKPOINTS and v[self._ckpt[ckpt].valid]:
            self._restore_checkpoint(ckpt)
        # The checkpoint slot is consumed here; clear the ROB's reference so
        # the slot is not freed a second time at commit after another branch
        # has re-allocated it.
        v[rob.ckpt] = CHECKPOINTS
        self._squash_younger_than(branch_age)
        v[s.rob_tail] = (rob_index + 1) % ROB_ENTRIES
        v[s.rob_count] = branch_age + 1
        v[s.fetch_pc] = actual_next
        v[s.fetch_stall] = 0
        self._fetch_stalled = False
        self._clear_fetch_buffer()

    def _restore_checkpoint(self, ckpt: int) -> None:
        v = self.latches.values
        checkpoint = self._ckpt[ckpt]
        packed = v[checkpoint.map]
        for r, rat in enumerate(self._rat):
            fieldvalue = (packed >> (7 * r)) & 0x7F
            v[rat.busy] = fieldvalue & 1
            v[rat.rob] = (fieldvalue >> 1) & 0x3F
        v[checkpoint.valid] = 0

    def _squash_younger_than(self, age_limit: int) -> None:
        """Invalidate every in-flight instruction younger than ``age_limit``."""
        v = self.latches.values
        s = self._slots
        for i in range(ROB_ENTRIES):
            rob = self._rob[i]
            if v[rob.valid] and self._rob_age(i) > age_limit:
                if v[rob.is_branch]:
                    ckpt = v[rob.ckpt]
                    if ckpt < CHECKPOINTS:
                        v[self._ckpt[ckpt].valid] = 0
                v[rob.valid] = 0
        for iq in self._iq:
            if v[iq.valid]:
                if self._rob_age(v[iq.rob]) > age_limit:
                    v[iq.valid] = 0
        # Store queue entries of squashed stores are removed by rebuilding the
        # queue in order.
        surviving: list[_StqSlots] = []
        head = v[s.stq_head]
        count = v[s.stq_count]
        for offset in range(count):
            stq = self._stq[(head + offset) % STQ_ENTRIES]
            entry = _StqSlots._make(v[slot] for slot in stq)
            if entry.valid and self._rob_age(entry.rob) <= age_limit:
                surviving.append(entry)
            v[stq.valid] = 0
        for offset, entry in enumerate(surviving):
            for slot, value in zip(self._stq[(head + offset) % STQ_ENTRIES], entry):
                v[slot] = value
        v[s.stq_tail] = (head + len(surviving)) % STQ_ENTRIES
        v[s.stq_count] = len(surviving)
        # Drop squashed ops from the execution units.
        self._in_flight = [op for op in self._in_flight
                           if self._rob_age(op.rob_index) <= age_limit]

    def _clear_fetch_buffer(self) -> None:
        v = self.latches.values
        s = self._slots
        for i in range(FETCH_BUFFER_ENTRIES):
            v[self._fb[i].valid] = 0
        v[s.fb_head] = 0
        v[s.fb_tail] = 0
        v[s.fb_count] = 0

    def _train_predictor(self, pc: int, taken: bool) -> None:
        """Update gshare hint state (never consulted for correctness)."""
        v = self.latches.values
        s = self._slots
        history = v[s.bp_gshare_history]
        index = ((pc >> 2) ^ history) % 1024
        table = v[s.bp_gshare_table]
        counter = (table >> (2 * index)) & 0x3
        counter = min(3, counter + 1) if taken else max(0, counter - 1)
        table &= ~(0x3 << (2 * index))
        table |= counter << (2 * index)
        v[s.bp_gshare_table] = table
        v[s.bp_gshare_history] = ((history << 1) | int(taken)) & 0xFFF

    # ------------------------------------------------------------------ memory ops
    def _complete_load(self, op: _InFlightOp) -> bool:
        """Try to complete a load; returns False if it must retry next cycle."""
        v = self.latches.values
        s = self._slots
        rob_index = op.rob_index
        rob = self._rob[rob_index]
        if not v[rob.valid]:
            return True  # squashed
        address = op.load_address
        if address is None:
            result = execute_operation(op.opcode, op.rs1_value, op.rs2_value,
                                       op.imm, op.pc)
            address = result.memory_address or 0
            op.load_address = address
        load_age = self._rob_age(rob_index)
        forwarded: int | None = None
        head = v[s.stq_head]
        count = v[s.stq_count]
        for offset in range(count):
            stq = self._stq[(head + offset) % STQ_ENTRIES]
            if not v[stq.valid]:
                continue
            if self._rob_age(v[stq.rob]) >= load_age:
                continue  # younger than or same as the load
            if not v[stq.addrvalid]:
                return False  # older store with unknown address: wait
            if v[stq.addr] == address:
                forwarded = v[stq.data]
        if forwarded is not None:
            value = forwarded
        else:
            try:
                if op.opcode is Opcode.LB:
                    value = self.memory.load_byte(address)
                else:
                    value = self.memory.load_word(address)
            except MemoryFault:
                v[rob.exception] = 1
                v[rob.expkind] = _TRAP_CODES[TrapKind.MEMORY_FAULT]
                v[rob.ready] = 1
                return True
        v[rob.result] = value
        v[rob.ready] = 1
        self._broadcast(rob_index, value)
        v[s.mem_l1dcache_accessaddr0] = address
        v[s.mem_l1dcache_accessfulldata0] = value
        return True

    # ------------------------------------------------------------------ issue
    def _issue(self) -> None:
        v = self.latches.values
        candidates: list[tuple[int, int]] = []
        for i, iq in enumerate(self._iq):
            if (v[iq.valid] and not v[iq.issued]
                    and v[iq.s1ready] and v[iq.s2ready]):
                candidates.append((self._rob_age(v[iq.rob]), i))
        candidates.sort()
        for _, iq_index in candidates[:ISSUE_WIDTH]:
            iq = self._iq[iq_index]
            rob_index = v[iq.rob]
            rob = self._rob[rob_index]
            if not v[rob.valid]:
                v[iq.valid] = 0
                continue
            opcode = OPCODE_BY_VALUE.get(v[iq.op])
            if opcode is None:
                v[rob.exception] = 1
                v[rob.expkind] = _TRAP_CODES[TrapKind.ILLEGAL_INSTRUCTION]
                v[rob.ready] = 1
                v[iq.valid] = 0
                continue
            info = OPCODE_INFO[opcode]
            imm = v[iq.imm]
            if imm & _IMM_SIGN:
                imm -= _IMM_MASK + 1
            in_flight = _InFlightOp(
                rob_index=rob_index,
                opcode=opcode,
                rs1_value=v[iq.s1val],
                rs2_value=v[iq.s2val],
                imm=imm,
                pc=v[iq.pc],
                remaining_cycles=max(1, info.execute_latency),
                is_load=info.is_load,
            )
            self._in_flight.append(in_flight)
            v[iq.issued] = 1
            v[iq.valid] = 0

    # ------------------------------------------------------------------ rename / dispatch
    def _rename_dispatch(self) -> None:
        v = self.latches.values
        s = self._slots
        for _ in range(RENAME_WIDTH):
            if v[s.fb_count] == 0:
                return
            if v[s.rob_count] >= ROB_ENTRIES:
                return
            free_iq = self._find_free_iq_entry()
            if free_iq is None:
                return
            fb_head = v[s.fb_head]
            fb = self._fb[fb_head]
            fault = v[fb.fault]
            word = v[fb.inst]
            pc = v[fb.pc]
            instruction = None
            trap_kind: TrapKind | None = None
            if fault:
                trap_kind = TrapKind.FETCH_FAULT
            else:
                instruction = DECODED[word]
                if instruction is None:
                    trap_kind = TrapKind.ILLEGAL_INSTRUCTION
            if instruction is not None:
                info = OPCODE_INFO[instruction.opcode]
                if info.is_store and v[s.stq_count] >= STQ_ENTRIES:
                    return
                if ((info.is_branch or info.is_jump)
                        and self._find_free_checkpoint() is None):
                    return
            # Consume the fetch-buffer entry.
            v[fb.valid] = 0
            v[s.fb_head] = (fb_head + 1) % FETCH_BUFFER_ENTRIES
            v[s.fb_count] -= 1
            # Allocate the ROB entry.
            tail = v[s.rob_tail]
            rob = self._rob[tail]
            v[rob.valid] = 1
            v[rob.ready] = 0
            v[rob.exception] = 0
            v[rob.expkind] = 0
            v[rob.is_store] = 0
            v[rob.is_out] = 0
            v[rob.is_branch] = 0
            v[rob.ckpt] = CHECKPOINTS
            v[rob.pc] = pc
            v[s.rob_tail] = (tail + 1) % ROB_ENTRIES
            v[s.rob_count] += 1
            if trap_kind is not None:
                v[rob.op] = 0
                v[rob.rd] = 0
                v[rob.exception] = 1
                v[rob.expkind] = _TRAP_CODES[trap_kind]
                v[rob.ready] = 1
                continue
            info = OPCODE_INFO[instruction.opcode]
            needs_checkpoint = info.is_branch or info.is_jump
            v[rob.op] = int(instruction.opcode)
            v[rob.rd] = instruction.rd
            v[rob.is_store] = 1 if info.is_store else 0
            v[rob.is_out] = 1 if info.is_output else 0
            v[rob.is_branch] = 1 if needs_checkpoint else 0
            if info.is_store:
                stq_tail = v[s.stq_tail]
                stq = self._stq[stq_tail]
                v[stq.valid] = 1
                v[stq.rob] = tail
                v[stq.addrvalid] = 0
                v[s.stq_tail] = (stq_tail + 1) % STQ_ENTRIES
                v[s.stq_count] += 1
            # Fill the issue-queue entry with renamed operands.
            self._fill_iq_entry(free_iq, instruction, tail, pc, info)
            # Update the rename map for the destination.
            if info.writes_rd and instruction.rd != 0:
                rat = self._rat[instruction.rd]
                v[rat.busy] = 1
                v[rat.rob] = tail
            # Checkpoint the rename map *after* the control instruction's own
            # destination rename, so recovery restores the map younger
            # instructions must observe on the correct path.
            if needs_checkpoint:
                ckpt = self._find_free_checkpoint()
                v[rob.ckpt] = ckpt
                self._save_checkpoint(ckpt)
            # HALT and NOP need no execution: mark ready immediately.
            if instruction.opcode in (Opcode.HALT, Opcode.NOP):
                v[rob.ready] = 1
                v[self._iq[free_iq].valid] = 0

    def _fill_iq_entry(self, iq_index: int, instruction, rob_index: int, pc: int,
                       info) -> None:
        v = self.latches.values
        iq = self._iq[iq_index]
        v[iq.valid] = 1
        v[iq.issued] = 0
        v[iq.op] = int(instruction.opcode)
        v[iq.rob] = rob_index
        v[iq.imm] = instruction.imm & _IMM_MASK
        v[iq.pc] = pc
        ready1, tag1, value1 = self._rename_source(instruction.rs1, info.reads_rs1)
        ready2, tag2, value2 = self._rename_source(instruction.rs2, info.reads_rs2)
        v[iq.s1ready] = ready1
        v[iq.s1tag] = tag1
        v[iq.s1val] = value1
        v[iq.s2ready] = ready2
        v[iq.s2tag] = tag2
        v[iq.s2val] = value2

    def _rename_source(self, arch_reg: int, is_read: bool) -> tuple[int, int, int]:
        """Return (ready, tag, value) for one source operand."""
        v = self.latches.values
        if not is_read or arch_reg == 0:
            return 1, 0, self._read_register(arch_reg) if is_read else 0
        rat = self._rat[arch_reg]
        if v[rat.busy]:
            producer = v[rat.rob]
            rob = self._rob[producer]
            if not v[rob.valid]:
                # Stale mapping (possible transiently under fault injection):
                # fall back to the architectural value.
                return 1, 0, self._read_register(arch_reg)
            if v[rob.ready] and not v[rob.exception]:
                return 1, 0, v[rob.result]
            return 0, producer, 0
        return 1, 0, self._read_register(arch_reg)

    def _find_free_iq_entry(self) -> int | None:
        v = self.latches.values
        for i, iq in enumerate(self._iq):
            if not v[iq.valid]:
                return i
        return None

    def _find_free_checkpoint(self) -> int | None:
        v = self.latches.values
        for i, ckpt in enumerate(self._ckpt):
            if not v[ckpt.valid]:
                return i
        return None

    def _save_checkpoint(self, ckpt: int) -> None:
        v = self.latches.values
        packed = 0
        for r, rat in enumerate(self._rat):
            fieldvalue = v[rat.busy] | (v[rat.rob] << 1)
            packed |= fieldvalue << (7 * r)
        checkpoint = self._ckpt[ckpt]
        v[checkpoint.map] = packed
        v[checkpoint.valid] = 1

    # ------------------------------------------------------------------ fetch
    def _fetch(self) -> None:
        v = self.latches.values
        s = self._slots
        if self._fetch_stalled or v[s.fetch_stall]:
            return
        words = self._program.words
        for _ in range(FETCH_WIDTH):
            if v[s.fb_count] >= FETCH_BUFFER_ENTRIES:
                return
            pc = v[s.fetch_pc]
            index = pc >> 2
            tail = v[s.fb_tail]
            fb = self._fb[tail]
            v[fb.pc] = pc
            v[fb.valid] = 1
            if pc & 3 or index >= len(words):
                v[fb.inst] = 0
                v[fb.fault] = 1
                v[s.fb_tail] = (tail + 1) % FETCH_BUFFER_ENTRIES
                v[s.fb_count] += 1
                v[s.fetch_stall] = 1
                self._fetch_stalled = True
                return
            v[fb.inst] = words[index]
            v[fb.fault] = 0
            v[s.fb_tail] = (tail + 1) % FETCH_BUFFER_ENTRIES
            v[s.fb_count] += 1
            v[s.fetch_pc] = (pc + WORD_BYTES) & 0xFFFFFFFF

    def _touch_background_state(self) -> None:
        """Advance vanish-class bookkeeping so those flip-flops really toggle."""
        v = self.latches.values
        s = self._slots
        v[s.perf_counter0] = (v[s.perf_counter0] + 1) & (2**48 - 1)
        v[s.perf_counter1] = ((v[s.perf_counter1] + len(self._in_flight))
                              & (2**48 - 1))
        v[s.ldq_numentries] = len(self._in_flight) & 0xF
