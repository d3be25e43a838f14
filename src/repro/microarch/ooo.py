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

from dataclasses import dataclass, replace
from itertools import compress
from operator import itemgetter

from repro.isa.encoding import DECODED, DecodeMap
from repro.isa.instructions import Opcode, OPCODE_BY_VALUE, OPCODE_INFO
from repro.isa.program import Program, WORD_BYTES
from repro.isa.registers import NUM_REGISTERS
from repro.microarch.core import BaseCore, CoreClass
from repro.microarch.events import TerminationReason, TrapKind
from repro.microarch.execute import ExecuteTrap, execute_operation
from repro.microarch.flipflop import FlipFlopRegistry
from repro.microarch.memory import MemoryFault, MemorySystem

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
_ILLEGAL = _TRAP_CODES[TrapKind.ILLEGAL_INSTRUCTION]
_MEMORY_FAULT = _TRAP_CODES[TrapKind.MEMORY_FAULT]
_FETCH_FAULT = _TRAP_CODES[TrapKind.FETCH_FAULT]

# Opcode-value tables, one entry per value of a 7-bit op latch (None, False
# or 1 for a value no opcode has).
_OPCODE = [OPCODE_BY_VALUE.get(value) for value in range(128)]
_INFO = [None if op is None else OPCODE_INFO[op] for op in _OPCODE]
_WRITES_RD = [info is not None and info.writes_rd for info in _INFO]
_IS_LOAD = [info is not None and info.is_load for info in _INFO]
_LATENCY = [1 if info is None else max(1, info.execute_latency)
            for info in _INFO]
_HALT = int(Opcode.HALT)
_STORES = (Opcode.SW, Opcode.SB)
_JUMPS = (Opcode.JAL, Opcode.JALR)
_WORD_MASK = 0xFFFFFFFF
_PERF_MASK = (1 << 48) - 1
"""Width mask of the ``perf.counter*`` latches."""
_IMM_MASK = 0x7FFF
"""Width mask of the ``iq.imm`` latches (15-bit immediates)."""
_IMM_SIGN = 0x4000


def _rename_fields(word: int) -> tuple | None:
    """What rename dispatches for ``word`` (``None``: illegal instruction):
    ``(op, rd, imm, is_store, is_out, needs_checkpoint, renames_rd, src1,
    src2, ready_now)``.  ``imm`` is masked to the ``iq.imm`` width; a source
    is its register when the op reads it, else 0, which (like ``r0``)
    renames to the ready constant 0; ``ready_now`` marks HALT and NOP,
    which need no execution."""
    instruction = DECODED[word]
    if instruction is None:
        return None
    opcode = instruction.opcode
    info = OPCODE_INFO[opcode]
    return (int(opcode), instruction.rd, instruction.imm & _IMM_MASK,
            int(info.is_store), int(info.is_output),
            int(info.is_branch or info.is_jump),
            info.writes_rd and instruction.rd != 0,
            instruction.rs1 if info.reads_rs1 else 0,
            instruction.rs2 if info.reads_rs2 else 0,
            int(opcode in (Opcode.HALT, Opcode.NOP)))


_RENAME = DecodeMap(_rename_fields)
"""word -> what rename dispatches for it (``None``: illegal)."""

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


def _declare_state(registry: FlipFlopRegistry) -> None:
    """Register the OoO-core's flip-flop structures, in slot order."""
    reg = registry.register

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


_LAYOUT = FlipFlopRegistry("OoO-core")
_declare_state(_LAYOUT)
_slot = {structure.name: slot
         for slot, structure in enumerate(_LAYOUT.structures)}.__getitem__

# The slot of every latch the cycle touches: registration order is slot
# order, the same in every OutOfOrderCore, so the cycle indexes the latch
# list by these constants.  A queue entry's fields are consecutive slots,
# so a field's slot is its entry's base slot plus the field's offset:
# ``_ROB[i] + R_READY`` is ``rob.eNN.ready`` of ROB entry ``i`` (F_: fetch
# buffer, R_: reorder buffer, Q_: issue queue, S_: store queue, A_: rename
# map, C_: rename checkpoints).
(FETCH_PC, FETCH_STALL, FB_HEAD, FB_TAIL, FB_COUNT, BP_GSHARE_TABLE,
 BP_GSHARE_HISTORY, ROB_HEAD, ROB_TAIL, ROB_COUNT, STQ_HEAD, STQ_TAIL,
 STQ_COUNT, MEM_L1DCACHE_ADDR1_OUT, MEM_L1DCACHE_ACCESSADDR0,
 MEM_L1DCACHE_ACCESSFULLDATA0, PERF_COUNTER0, PERF_COUNTER1,
 LDQ_NUMENTRIES) = map(_slot, (
    "fetch.pc", "fetch.stall", "fb.head", "fb.tail", "fb.count",
    "bp.gshare.table", "bp.gshare.history", "rob.head", "rob.tail",
    "rob.count", "stq.head", "stq.tail", "stq.count",
    "mem.l1dcache.addr1.out", "mem.l1dcache.accessaddr0",
    "mem.l1dcache.accessfulldata0", "perf.counter0", "perf.counter1",
    "ldq.numentries"))

F_VALID, F_INST, F_PC, F_FAULT = range(len(_FB_FIELDS))
(R_VALID, R_OP, R_RD, R_RESULT, R_READY, R_EXCEPTION, R_EXPKIND,
 R_IS_STORE, R_IS_OUT, R_IS_BRANCH, R_CKPT, R_PC) = range(len(_ROB_FIELDS))
(Q_VALID, Q_OP, Q_ROB, Q_IMM, Q_PC, Q_S1READY, Q_S1TAG, Q_S1VAL, Q_S2READY,
 Q_S2TAG, Q_S2VAL, Q_ISSUED) = range(len(_IQ_FIELDS))
S_VALID, S_ROB, S_ADDR, S_ADDRVALID, S_DATA, S_BYTE = range(len(_STQ_FIELDS))
A_BUSY, A_ROB = range(len(_RAT_FIELDS))
C_MAP, C_VALID = range(len(_CKPT_FIELDS))


def _bases(entry: str, fields: tuple, entries: int,
           *pointers: str) -> tuple[int, ...]:
    """First slot of each entry of a queue, indexed by entry number, or,
    given ``pointers``, by every value the widest of those latches can
    hold: index ``i`` addresses entry ``i % entries``."""
    count = max((1 << _LAYOUT.structure(name).width for name in pointers),
                default=entries)
    first = fields[0][0]
    return tuple(_slot(f"{entry.format(i % entries)}.{first}")
                 for i in range(count))


# Pointer latches are wider than their structures need (rob.head/tail and
# the ROB tags of the issue queue, store queue and rename map are 6-bit for
# 40 entries, fb.head/tail 3-bit for 6), so an injected flip can leave a
# pointer past the last entry.  Real hardware would address whatever the
# extra bits select; the model wraps the index: the ROB and fetch-buffer
# base tuples span their pointers' full range, so corrupted pointers keep
# simulating (and get classified by outcome) instead of raising.
_ROB = _bases(_ROB_ENTRY, _ROB_FIELDS, ROB_ENTRIES, "rob.head", "rob.tail",
              "iq.e00.rob", "stq.e0.rob", "rat.r00.rob")
_FB = _bases(_FB_ENTRY, _FB_FIELDS, FETCH_BUFFER_ENTRIES, "fb.head",
             "fb.tail")
_IQ = _bases(_IQ_ENTRY, _IQ_FIELDS, IQ_ENTRIES)
_STQ = _bases(_STQ_ENTRY, _STQ_FIELDS, STQ_ENTRIES)
_RAT = _bases(_RAT_ENTRY, _RAT_FIELDS, NUM_REGISTERS)
_CKPT = _bases(_CKPT_ENTRY, _CKPT_FIELDS, CHECKPOINTS)

# Whole-structure reads, in C: each getter reads one field of every entry
# through the list's ``__getitem__``, so the access log sees every read.
_rob_valid = itemgetter(*(base + R_VALID for base in _ROB[:ROB_ENTRIES]))
_iq_valid = itemgetter(*(base + Q_VALID for base in _IQ))
_rat_busy = itemgetter(*(base + A_BUSY for base in _RAT))
_rat_rob = itemgetter(*(base + A_ROB for base in _RAT))
_ckpt_valid = itemgetter(*(base + C_VALID for base in _CKPT))
_MAP_SHIFTS = tuple(7 * r for r in range(NUM_REGISTERS))
"""Bit offset of each register's ``busy | rob << 1`` field in a
``ckpt.cN.map``."""


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

    # The hint plane is behaviour-free.  Only these parts of the cycle touch
    # hint latches, and none reads one into a decision, a register, memory
    # or output:
    # * writeback -> _resolve_branch trains gshare (bp.gshare.table,
    #   bp.gshare.history), which feeds only itself -- fetch is static
    #   not-taken and recovery compares against pc + 4;
    # * the commit of a store and the completion of a load write the
    #   mem.l1dcache.* staging registers, write-only;
    # * the end of every cycle advances perf.counter0/1 (self-incrementing)
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
        _declare_state(self.registry)
        self._finalize_state()
        self.memory = MemorySystem()
        self.registers: list[int] = [0] * NUM_REGISTERS
        self._in_flight: list[_InFlightOp] = []
        self._fetch_stalled = False

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

    # ------------------------------------------------------------------ the cycle
    # A segment steps the cycle body below once per cycle that has no
    # recovery stall pending.
    def _advance(self, stop: int) -> None:
        step_cycle = self._step_cycle
        while self._cycle < stop and self._termination is None:
            if self._pending_recovery > 0:
                self._pending_recovery -= 1
            else:
                step_cycle()
            self._cycle += 1

    # One body runs the stages back to front, so every structure drains
    # before the stage behind refills it: commit, writeback (complete an
    # op, broadcast its result, resolve a branch), issue, rename/dispatch,
    # then the _fetch hook and the background counters.  Every latch access
    # is an item access, by a module slot constant, on the list read at
    # the top (the itemgetters read items too): the dead-flip access log
    # (repro.engine.liveness) sees each one and keeps whether a slot's first
    # access in a cycle is a read or a write, so an access moves only where
    # that kind stays the same.  Writes are not masked, so each one stores
    # a value already within its latch's width: a move, a constant, a
    # 32-bit result, address or store value from execute_operation or
    # memory, a decoded field (iq.imm masked by _RENAME), a pointer wrapped
    # modulo its entry count, a queue count stepped after its full or empty
    # check, or an explicitly masked counter.
    def _step_cycle(self) -> None:
        v = self.latches.values

        # Commit: retire up to COMMIT_WIDTH ready ops at the ROB head.
        for _ in range(COMMIT_WIDTH):
            if v[ROB_COUNT] == 0:
                break
            head = v[ROB_HEAD]
            rob = _ROB[head]
            # An invalid head is corrupted bookkeeping: a hang source.
            if not v[rob + R_VALID] or not v[rob + R_READY]:
                break
            if v[rob + R_EXCEPTION]:
                kind = _TRAP_FROM_CODE.get(v[rob + R_EXPKIND],
                                           TrapKind.ILLEGAL_INSTRUCTION)
                self.force_termination(
                    TerminationReason.DETECTED
                    if kind is TrapKind.SOFTWARE_ASSERTION
                    else TerminationReason.TRAP, kind)
                return
            op = v[rob + R_OP]
            if v[rob + R_IS_STORE]:
                # Drain the store-queue head.  A queue out of sync with the
                # ROB (only possible under injection) is a machine trap.
                stq_head = v[STQ_HEAD]
                stq = _STQ[stq_head]
                if v[STQ_COUNT] == 0 or not v[stq + S_VALID]:
                    self.force_termination(TerminationReason.TRAP,
                                           TrapKind.MEMORY_FAULT)
                    return
                address = v[stq + S_ADDR]
                data = v[stq + S_DATA]
                try:
                    if v[stq + S_BYTE]:
                        self.memory.store_byte(address, data)
                    else:
                        self.memory.store_word(address, data)
                except MemoryFault:
                    self.force_termination(TerminationReason.TRAP,
                                           TrapKind.MEMORY_FAULT)
                    return
                v[stq + S_VALID] = 0
                v[STQ_HEAD] = (stq_head + 1) % STQ_ENTRIES
                v[STQ_COUNT] -= 1
                v[MEM_L1DCACHE_ADDR1_OUT] = address
            if v[rob + R_IS_OUT]:
                self.emit_output(v[rob + R_RESULT])
            if _WRITES_RD[op]:
                rd = v[rob + R_RD]
                result = v[rob + R_RESULT]
                if rd:
                    self.registers[rd] = result
                rat = _RAT[rd]
                if v[rat + A_BUSY] and v[rat + A_ROB] == head:
                    v[rat + A_BUSY] = 0
                # Keep live checkpoints consistent: once this producer has
                # committed, a later recovery must map its destination to
                # the architectural register file, not to the freed entry.
                shift = 7 * rd
                for ckpt in compress(_CKPT, _ckpt_valid(v)):
                    packed = v[ckpt + C_MAP]
                    entry = (packed >> shift) & 0x7F
                    if entry & 1 and entry >> 1 == head:
                        v[ckpt + C_MAP] = packed & ~(0x7F << shift)
            if v[rob + R_IS_BRANCH]:
                ckpt = v[rob + R_CKPT]
                if ckpt < CHECKPOINTS:
                    v[_CKPT[ckpt] + C_VALID] = 0
            self._retired += 1
            v[rob + R_VALID] = 0
            v[ROB_HEAD] = (head + 1) % ROB_ENTRIES
            v[ROB_COUNT] -= 1
            if op == _HALT:
                self.force_termination(TerminationReason.HALTED)
                return
        if self._termination is not None:
            return

        # Writeback: complete the ops whose latency has run out.
        still_in_flight: list[_InFlightOp] = []
        for op in self._in_flight:
            op.remaining_cycles -= 1
            if op.remaining_cycles > 0:
                still_in_flight.append(op)
                continue
            rob_index = op.rob_index
            rob = _ROB[rob_index]
            if not v[rob + R_VALID]:
                continue  # squashed while executing
            opcode = op.opcode
            if op.is_load:
                address = op.load_address
                if address is None:
                    address = op.load_address = execute_operation(
                        opcode, op.rs1_value, op.rs2_value, op.imm,
                        op.pc).memory_address or 0
                # Forward from the youngest older store to the address; an
                # older store whose address is unknown makes the load wait.
                head = v[ROB_HEAD]
                load_age = (rob_index - head) % ROB_ENTRIES
                value = None
                waiting = False
                stq_head = v[STQ_HEAD]
                for offset in range(v[STQ_COUNT]):
                    stq = _STQ[(stq_head + offset) % STQ_ENTRIES]
                    if (not v[stq + S_VALID]
                            or (v[stq + S_ROB] - head) % ROB_ENTRIES
                            >= load_age):
                        continue  # younger than or the same as the load
                    if not v[stq + S_ADDRVALID]:
                        waiting = True
                        break
                    if v[stq + S_ADDR] == address:
                        value = v[stq + S_DATA]
                if waiting:
                    op.remaining_cycles = 1
                    still_in_flight.append(op)
                    continue
                if value is None:
                    try:
                        if opcode is Opcode.LB:
                            value = self.memory.load_byte(address)
                        else:
                            value = self.memory.load_word(address)
                    except MemoryFault:
                        v[rob + R_EXCEPTION] = 1
                        v[rob + R_EXPKIND] = _MEMORY_FAULT
                        v[rob + R_READY] = 1
                        continue
                v[rob + R_RESULT] = value
                v[rob + R_READY] = 1
                v[MEM_L1DCACHE_ACCESSADDR0] = address
                v[MEM_L1DCACHE_ACCESSFULLDATA0] = value
                resolve = False
            else:
                try:
                    result = execute_operation(opcode, op.rs1_value,
                                               op.rs2_value, op.imm, op.pc)
                except ExecuteTrap as trap:
                    v[rob + R_EXCEPTION] = 1
                    v[rob + R_EXPKIND] = _TRAP_CODES[trap.kind]
                    v[rob + R_READY] = 1
                    continue
                if opcode in _STORES:
                    for stq in _STQ:
                        if v[stq + S_VALID] and v[stq + S_ROB] == rob_index:
                            v[stq + S_ADDR] = result.memory_address or 0
                            v[stq + S_ADDRVALID] = 1
                            v[stq + S_DATA] = result.store_value or 0
                            v[stq + S_BYTE] = 1 if opcode is Opcode.SB else 0
                            break
                value = None
                if opcode is Opcode.OUT:
                    v[rob + R_RESULT] = result.output_value or 0
                elif _WRITES_RD[opcode]:
                    value = v[rob + R_RESULT] = result.value
                v[rob + R_READY] = 1
                resolve = v[rob + R_IS_BRANCH] or opcode in _JUMPS
            if value is not None:
                # Wake the issue-queue consumers waiting on this ROB tag.
                for iq in compress(_IQ, _iq_valid(v)):
                    if not v[iq + Q_S1READY] and v[iq + Q_S1TAG] == rob_index:
                        v[iq + Q_S1VAL] = value
                        v[iq + Q_S1READY] = 1
                    if not v[iq + Q_S2READY] and v[iq + Q_S2TAG] == rob_index:
                        v[iq + Q_S2VAL] = value
                        v[iq + Q_S2READY] = 1
            if resolve:
                self._resolve_branch(v, op, result.branch_taken,
                                     result.branch_target)
        self._in_flight = in_flight = still_in_flight

        # Issue: the ISSUE_WIDTH oldest ready entries go to execution.
        candidates = []
        head = None
        for iq in compress(_IQ, _iq_valid(v)):
            if (not v[iq + Q_ISSUED] and v[iq + Q_S1READY]
                    and v[iq + Q_S2READY]):
                if head is None:
                    head = v[ROB_HEAD]
                candidates.append(((v[iq + Q_ROB] - head) % ROB_ENTRIES, iq))
        if candidates:
            candidates.sort()
            for _, iq in candidates[:ISSUE_WIDTH]:
                rob_index = v[iq + Q_ROB]
                rob = _ROB[rob_index]
                if not v[rob + R_VALID]:
                    v[iq + Q_VALID] = 0
                    continue
                op = v[iq + Q_OP]
                opcode = _OPCODE[op]
                if opcode is None:
                    v[rob + R_EXCEPTION] = 1
                    v[rob + R_EXPKIND] = _ILLEGAL
                    v[rob + R_READY] = 1
                    v[iq + Q_VALID] = 0
                    continue
                imm = v[iq + Q_IMM]
                if imm & _IMM_SIGN:
                    imm -= _IMM_MASK + 1
                in_flight.append(_InFlightOp(
                    rob_index, opcode, v[iq + Q_S1VAL], v[iq + Q_S2VAL], imm,
                    v[iq + Q_PC], _LATENCY[op], _IS_LOAD[op]))
                v[iq + Q_ISSUED] = 1
                v[iq + Q_VALID] = 0

        # Rename/dispatch: up to RENAME_WIDTH fetch-buffer entries into the
        # ROB, the issue queue and (stores) the store queue.
        registers = self.registers
        for _ in range(RENAME_WIDTH):
            if v[FB_COUNT] == 0 or v[ROB_COUNT] >= ROB_ENTRIES:
                break
            # The first free issue-queue entry.  Issue has read every valid
            # bit this cycle, so reading them all again leaves the log as is.
            try:
                iq = _IQ[_iq_valid(v).index(0)]
            except ValueError:
                break  # the issue queue is full
            fb_head = v[FB_HEAD]
            fb = _FB[fb_head]
            fault = v[fb + F_FAULT]
            word = v[fb + F_INST]
            pc = v[fb + F_PC]
            fields = None if fault else _RENAME[word]
            if fields is not None:
                (op, rd, imm, is_store, is_out, needs_checkpoint, renames_rd,
                 src1, src2, ready_now) = fields
                if is_store and v[STQ_COUNT] >= STQ_ENTRIES:
                    break
                ckpt = CHECKPOINTS
                if needs_checkpoint:
                    for ckpt in range(CHECKPOINTS):
                        if not v[_CKPT[ckpt] + C_VALID]:
                            break
                    else:
                        break  # every checkpoint is live
            # Consume the fetch-buffer entry and allocate the ROB entry.
            v[fb + F_VALID] = 0
            v[FB_HEAD] = (fb_head + 1) % FETCH_BUFFER_ENTRIES
            v[FB_COUNT] -= 1
            tail = v[ROB_TAIL]
            rob = _ROB[tail]
            v[ROB_TAIL] = (tail + 1) % ROB_ENTRIES
            v[ROB_COUNT] += 1
            v[rob + R_VALID] = 1
            v[rob + R_PC] = pc
            if fields is None:
                v[rob + R_OP] = 0
                v[rob + R_RD] = 0
                v[rob + R_READY] = 1
                v[rob + R_EXCEPTION] = 1
                v[rob + R_EXPKIND] = _FETCH_FAULT if fault else _ILLEGAL
                v[rob + R_IS_STORE] = 0
                v[rob + R_IS_OUT] = 0
                v[rob + R_IS_BRANCH] = 0
                v[rob + R_CKPT] = CHECKPOINTS
                continue
            v[rob + R_OP] = op
            v[rob + R_RD] = rd
            v[rob + R_READY] = ready_now
            v[rob + R_EXCEPTION] = 0
            v[rob + R_EXPKIND] = 0
            v[rob + R_IS_STORE] = is_store
            v[rob + R_IS_OUT] = is_out
            v[rob + R_IS_BRANCH] = needs_checkpoint
            v[rob + R_CKPT] = ckpt
            if is_store:
                stq_tail = v[STQ_TAIL]
                stq = _STQ[stq_tail]
                v[stq + S_VALID] = 1
                v[stq + S_ROB] = tail
                v[stq + S_ADDRVALID] = 0
                v[STQ_TAIL] = (stq_tail + 1) % STQ_ENTRIES
                v[STQ_COUNT] += 1
            # Fill the issue-queue entry (HALT and NOP need no execution),
            # renaming each source to (ready, tag, value) through the map.
            v[iq + Q_VALID] = 0 if ready_now else 1
            v[iq + Q_ISSUED] = 0
            v[iq + Q_OP] = op
            v[iq + Q_ROB] = tail
            v[iq + Q_IMM] = imm
            v[iq + Q_PC] = pc
            for src, ready_slot, tag_slot, value_slot in (
                    (src1, iq + Q_S1READY, iq + Q_S1TAG, iq + Q_S1VAL),
                    (src2, iq + Q_S2READY, iq + Q_S2TAG, iq + Q_S2VAL)):
                ready, tag, value = 1, 0, 0
                if src:
                    rat = _RAT[src]
                    value = registers[src]
                    # A stale mapping (possible transiently under fault
                    # injection) falls back to the architectural value.
                    if v[rat + A_BUSY]:
                        producer = v[rat + A_ROB]
                        entry = _ROB[producer]
                        if v[entry + R_VALID]:
                            if (v[entry + R_READY]
                                    and not v[entry + R_EXCEPTION]):
                                value = v[entry + R_RESULT]
                            else:
                                ready, tag, value = 0, producer, 0
                v[ready_slot] = ready
                v[tag_slot] = tag
                v[value_slot] = value
            # Rename the destination.
            if renames_rd:
                rat = _RAT[rd]
                v[rat + A_BUSY] = 1
                v[rat + A_ROB] = tail
            # Checkpoint the rename map *after* the control instruction's
            # own destination rename, so recovery restores the map younger
            # instructions must observe on the correct path.
            if needs_checkpoint:
                packed = 0
                for busy, producer, shift in zip(_rat_busy(v), _rat_rob(v),
                                                 _MAP_SHIFTS):
                    packed |= (busy | producer << 1) << shift
                checkpoint = _CKPT[ckpt]
                v[checkpoint + C_MAP] = packed
                v[checkpoint + C_VALID] = 1

        self._fetch()

        # Background bookkeeping, so vanish-class flip-flops really toggle.
        count = len(in_flight)
        v[PERF_COUNTER0] = (v[PERF_COUNTER0] + 1) & _PERF_MASK
        v[PERF_COUNTER1] = (v[PERF_COUNTER1] + count) & _PERF_MASK
        v[LDQ_NUMENTRIES] = count & 0xF

    # ------------------------------------------------------------------ branch recovery
    def _resolve_branch(self, v: list, op: _InFlightOp, taken: bool,
                        target: int) -> None:
        """Train gshare on a resolved branch or jump (hint state, never
        consulted) and, on a mispredict, restore the rename checkpoint,
        squash everything younger and refetch from the right target."""
        rob_index = op.rob_index
        pc = op.pc
        predicted_next = (pc + WORD_BYTES) & _WORD_MASK
        actual_next = target if taken else predicted_next
        history = v[BP_GSHARE_HISTORY]
        shift = 2 * (((pc >> 2) ^ history) % 1024)
        table = v[BP_GSHARE_TABLE]
        counter = (table >> shift) & 0x3
        counter = min(3, counter + 1) if taken else max(0, counter - 1)
        v[BP_GSHARE_TABLE] = (table & ~(0x3 << shift)) | counter << shift
        v[BP_GSHARE_HISTORY] = ((history << 1) | int(taken)) & 0xFFF
        if actual_next == predicted_next:
            return  # fall-through prediction was correct
        head = v[ROB_HEAD]
        branch_age = (rob_index - head) % ROB_ENTRIES
        rob = _ROB[rob_index]
        ckpt = v[rob + R_CKPT]
        if ckpt < CHECKPOINTS:
            checkpoint = _CKPT[ckpt]
            if v[checkpoint + C_VALID]:
                packed = v[checkpoint + C_MAP]
                for rat in _RAT:
                    v[rat + A_BUSY] = packed & 1
                    v[rat + A_ROB] = (packed >> 1) & 0x3F
                    packed >>= 7
                v[checkpoint + C_VALID] = 0
        # The checkpoint slot is consumed here; clear the ROB's reference so
        # the slot is not freed a second time at commit after another branch
        # has re-allocated it.
        v[rob + R_CKPT] = CHECKPOINTS
        # Squash every ROB and issue-queue entry younger than the branch.
        for i in compress(range(ROB_ENTRIES), _rob_valid(v)):
            if (i - head) % ROB_ENTRIES > branch_age:
                entry = _ROB[i]
                if v[entry + R_IS_BRANCH]:
                    ckpt = v[entry + R_CKPT]
                    if ckpt < CHECKPOINTS:
                        v[_CKPT[ckpt] + C_VALID] = 0
                v[entry + R_VALID] = 0
        for iq in compress(_IQ, _iq_valid(v)):
            if (v[iq + Q_ROB] - head) % ROB_ENTRIES > branch_age:
                v[iq + Q_VALID] = 0
        # Rebuild the store queue in order without the squashed stores.
        surviving = []
        stq_head = v[STQ_HEAD]
        for offset in range(v[STQ_COUNT]):
            stq = _STQ[(stq_head + offset) % STQ_ENTRIES]
            entry = [v[slot] for slot in range(stq, stq + len(_STQ_FIELDS))]
            if (entry[S_VALID]
                    and (entry[S_ROB] - head) % ROB_ENTRIES <= branch_age):
                surviving.append(entry)
            v[stq + S_VALID] = 0
        for offset, entry in enumerate(surviving):
            stq = _STQ[(stq_head + offset) % STQ_ENTRIES]
            for field, value in enumerate(entry):
                v[stq + field] = value
        v[STQ_TAIL] = (stq_head + len(surviving)) % STQ_ENTRIES
        v[STQ_COUNT] = len(surviving)
        # Squashed ops still executing stay in flight; writeback drops each
        # one that completes while its ROB entry is still invalid.
        v[ROB_TAIL] = (rob_index + 1) % ROB_ENTRIES
        v[ROB_COUNT] = branch_age + 1
        v[FETCH_PC] = actual_next
        v[FETCH_STALL] = 0
        self._fetch_stalled = False
        for fb in _FB[:FETCH_BUFFER_ENTRIES]:
            v[fb + F_VALID] = 0
        v[FB_HEAD] = 0
        v[FB_TAIL] = 0
        v[FB_COUNT] = 0

    # ------------------------------------------------------------------ fetch
    # The cycle's one stage hook: tests override it to plant mutants.
    def _fetch(self) -> None:
        v = self.latches.values
        if self._fetch_stalled or v[FETCH_STALL]:
            return
        words = self._program.words
        for _ in range(FETCH_WIDTH):
            if v[FB_COUNT] >= FETCH_BUFFER_ENTRIES:
                return
            pc = v[FETCH_PC]
            index = pc >> 2
            tail = v[FB_TAIL]
            fb = _FB[tail]
            v[fb + F_PC] = pc
            v[fb + F_VALID] = 1
            v[FB_TAIL] = (tail + 1) % FETCH_BUFFER_ENTRIES
            v[FB_COUNT] += 1
            if pc & 3 or index >= len(words):
                v[fb + F_INST] = 0
                v[fb + F_FAULT] = 1
                v[FETCH_STALL] = 1
                self._fetch_stalled = True
                return
            v[fb + F_INST] = words[index]
            v[fb + F_FAULT] = 0
            v[FETCH_PC] = (pc + WORD_BYTES) & _WORD_MASK
