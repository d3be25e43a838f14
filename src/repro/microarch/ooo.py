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
  performance counters -- the Appendix-A structures);
* an IPC above 1 on compute-dense workloads (the paper reports 1.3);
* a reorder-buffer boundary past which detected errors can no longer be
  recovered by RoB recovery (architecturally committed state).

The memory arrays (caches, physical register file contents) are RAM and are
not injection targets, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.isa.encoding import EncodingError, decode_instruction, encode_instruction
from repro.isa.instructions import Opcode, OPCODE_INFO
from repro.isa.program import Program, WORD_BYTES
from repro.isa.registers import NUM_REGISTERS
from repro.microarch.core import BaseCore, CoreClass
from repro.microarch.events import TerminationReason, TrapKind
from repro.microarch.execute import ExecuteTrap, execute_operation
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

    def __init__(self, name: str = "OoO-core"):
        super().__init__(name=name, clock_mhz=OOO_CLOCK_MHZ,
                         core_class=CoreClass.OUT_OF_ORDER)
        self._declare_state()
        self._finalize_state()
        self.memory = MemorySystem()
        self.registers: list[int] = [0] * NUM_REGISTERS
        self._in_flight: list[_InFlightOp] = []
        self._fetch_stalled = False

    # ------------------------------------------------------------------ state declaration
    def _declare_state(self) -> None:
        reg = self.registry.register

        # Front end.
        reg("fetch.pc", 32, "fetch")
        reg("fetch.valid", 1, "fetch")
        reg("fetch.stall", 1, "fetch")
        for i in range(FETCH_BUFFER_ENTRIES):
            prefix = f"fb.e{i}"
            reg(f"{prefix}.valid", 1, "fetch")
            reg(f"{prefix}.inst", 32, "fetch")
            reg(f"{prefix}.pc", 32, "fetch")
            reg(f"{prefix}.fault", 1, "fetch")
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
            reg(f"rat.r{i:02d}.busy", 1, "rename")
            reg(f"rat.r{i:02d}.rob", 6, "rename")
        for i in range(CHECKPOINTS):
            reg(f"ckpt.c{i}.map", 7 * NUM_REGISTERS, "rename")
            reg(f"ckpt.c{i}.valid", 1, "rename")

        # Reorder buffer.
        for i in range(ROB_ENTRIES):
            prefix = f"rob.e{i:02d}"
            reg(f"{prefix}.valid", 1, "rob")
            reg(f"{prefix}.op", 7, "rob")
            reg(f"{prefix}.rd", 5, "rob")
            reg(f"{prefix}.result", 32, "rob")
            reg(f"{prefix}.ready", 1, "rob")
            reg(f"{prefix}.exception", 1, "rob")
            reg(f"{prefix}.expkind", 3, "rob")
            reg(f"{prefix}.is_store", 1, "rob")
            reg(f"{prefix}.is_out", 1, "rob")
            reg(f"{prefix}.is_branch", 1, "rob")
            reg(f"{prefix}.ckpt", 3, "rob")
            reg(f"{prefix}.pc", 32, "rob")
        reg("rob.head", 6, "rob")
        reg("rob.tail", 6, "rob")
        reg("rob.count", 7, "rob")

        # Issue queue (reservation stations).
        for i in range(IQ_ENTRIES):
            prefix = f"iq.e{i:02d}"
            reg(f"{prefix}.valid", 1, "issue")
            reg(f"{prefix}.op", 7, "issue")
            reg(f"{prefix}.rob", 6, "issue")
            reg(f"{prefix}.imm", 15, "issue")
            reg(f"{prefix}.pc", 32, "issue")
            reg(f"{prefix}.s1ready", 1, "issue")
            reg(f"{prefix}.s1tag", 6, "issue")
            reg(f"{prefix}.s1val", 32, "issue")
            reg(f"{prefix}.s2ready", 1, "issue")
            reg(f"{prefix}.s2tag", 6, "issue")
            reg(f"{prefix}.s2val", 32, "issue")
            reg(f"{prefix}.issued", 1, "issue")

        # Store queue (drains at commit).
        for i in range(STQ_ENTRIES):
            prefix = f"stq.e{i}"
            reg(f"{prefix}.valid", 1, "lsu")
            reg(f"{prefix}.rob", 6, "lsu")
            reg(f"{prefix}.addr", 32, "lsu")
            reg(f"{prefix}.addrvalid", 1, "lsu")
            reg(f"{prefix}.data", 32, "lsu")
            reg(f"{prefix}.byte", 1, "lsu")
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
    # Pointer latches are wider than their structures need (rob.head/tail are
    # 6-bit for 40 entries, fb.head/tail 3-bit for 6), so an injected flip
    # can leave a pointer past the last entry.  Real hardware would address
    # whatever the extra bits select; the model wraps the index so corrupted
    # pointers keep simulating (and get classified by outcome) instead of
    # raising KeyError on a nonexistent latch.
    def _rob_field(self, index: int, fieldname: str) -> str:
        return f"rob.e{index % ROB_ENTRIES:02d}.{fieldname}"

    def _fb_field(self, index: int, fieldname: str) -> str:
        return f"fb.e{index % FETCH_BUFFER_ENTRIES}.{fieldname}"

    def _iq_field(self, index: int, fieldname: str) -> str:
        return f"iq.e{index:02d}.{fieldname}"

    def _stq_field(self, index: int, fieldname: str) -> str:
        return f"stq.e{index}.{fieldname}"

    def _rob_age(self, index: int) -> int:
        """Age of a ROB entry relative to the head (0 = oldest)."""
        head = self.latches.get("rob.head")
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
        self._execute_memory_ops()
        self._issue()
        self._rename_dispatch()
        self._fetch()
        self._touch_background_state()

    # ------------------------------------------------------------------ commit
    def _commit(self) -> None:
        latches = self.latches
        for _ in range(COMMIT_WIDTH):
            if latches.get("rob.count") == 0:
                return
            head = latches.get("rob.head")
            if not latches.get(self._rob_field(head, "valid")):
                # Head bookkeeping corrupted; treat as a pipeline hang source.
                return
            if not latches.get(self._rob_field(head, "ready")):
                return
            if latches.get(self._rob_field(head, "exception")):
                kind = _TRAP_FROM_CODE.get(
                    latches.get(self._rob_field(head, "expkind")),
                    TrapKind.ILLEGAL_INSTRUCTION)
                reason = (TerminationReason.DETECTED
                          if kind is TrapKind.SOFTWARE_ASSERTION
                          else TerminationReason.TRAP)
                self.force_termination(reason, kind)
                return
            op_value = latches.get(self._rob_field(head, "op"))
            try:
                opcode = Opcode(op_value)
                info = OPCODE_INFO[opcode]
            except ValueError:
                opcode = None
                info = None
            if latches.get(self._rob_field(head, "is_store")):
                if not self._commit_store(head):
                    return
            if latches.get(self._rob_field(head, "is_out")):
                self.emit_output(latches.get(self._rob_field(head, "result")))
            if info is not None and info.writes_rd:
                rd = latches.get(self._rob_field(head, "rd"))
                self._write_register(rd, latches.get(self._rob_field(head, "result")))
                if (latches.get(f"rat.r{rd:02d}.busy")
                        and latches.get(f"rat.r{rd:02d}.rob") == head):
                    latches.set(f"rat.r{rd:02d}.busy", 0)
                # Keep live checkpoints consistent: once this producer has
                # committed, a later recovery must map its destination to the
                # architectural register file, not to the freed ROB entry.
                self._patch_checkpoints_for_commit(rd, head)
            if latches.get(self._rob_field(head, "is_branch")):
                ckpt = latches.get(self._rob_field(head, "ckpt"))
                if ckpt < CHECKPOINTS:
                    latches.set(f"ckpt.c{ckpt}.valid", 0)
            self.note_retired()
            latches.set(self._rob_field(head, "valid"), 0)
            latches.set("rob.head", (head + 1) % ROB_ENTRIES)
            latches.set("rob.count", latches.get("rob.count") - 1)
            if opcode is Opcode.HALT:
                self.force_termination(TerminationReason.HALTED)
                return

    def _patch_checkpoints_for_commit(self, rd: int, rob_index: int) -> None:
        """Clear ``rd -> rob_index`` mappings inside every live checkpoint."""
        latches = self.latches
        shift = 7 * rd
        for i in range(CHECKPOINTS):
            if not latches.get(f"ckpt.c{i}.valid"):
                continue
            packed = latches.get(f"ckpt.c{i}.map")
            entry = (packed >> shift) & 0x7F
            if (entry & 1) and ((entry >> 1) & 0x3F) == rob_index:
                latches.set(f"ckpt.c{i}.map", packed & ~(0x7F << shift))

    def _commit_store(self, rob_index: int) -> bool:
        """Drain the store-queue head for the committing store.

        Returns False (and terminates the run) on a memory fault.
        """
        latches = self.latches
        head = latches.get("stq.head")
        if latches.get("stq.count") == 0 or not latches.get(self._stq_field(head, "valid")):
            # Store queue out of sync with the ROB (only possible under
            # injection): raise a machine trap.
            self.force_termination(TerminationReason.TRAP, TrapKind.MEMORY_FAULT)
            return False
        address = latches.get(self._stq_field(head, "addr"))
        data = latches.get(self._stq_field(head, "data"))
        is_byte = latches.get(self._stq_field(head, "byte"))
        try:
            if is_byte:
                self.memory.store_byte(address, data)
            else:
                self.memory.store_word(address, data)
        except MemoryFault:
            self.force_termination(TerminationReason.TRAP, TrapKind.MEMORY_FAULT)
            return False
        latches.set(self._stq_field(head, "valid"), 0)
        latches.set("stq.head", (head + 1) % STQ_ENTRIES)
        latches.set("stq.count", latches.get("stq.count") - 1)
        latches.set("mem.l1dcache.addr1.out", address)
        return True

    # ------------------------------------------------------------------ writeback
    def _writeback(self) -> None:
        latches = self.latches
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
        latches = self.latches
        rob_index = op.rob_index
        if not latches.get(self._rob_field(rob_index, "valid")):
            return  # squashed while executing
        try:
            result = execute_operation(op.opcode, op.rs1_value, op.rs2_value,
                                       op.imm, op.pc)
        except ExecuteTrap as trap:
            latches.set(self._rob_field(rob_index, "exception"), 1)
            latches.set(self._rob_field(rob_index, "expkind"), _TRAP_CODES[trap.kind])
            latches.set(self._rob_field(rob_index, "ready"), 1)
            return
        info = OPCODE_INFO.get(op.opcode)
        if op.opcode in (Opcode.SW, Opcode.SB):
            self._fill_store_queue(rob_index, result.memory_address, result.store_value,
                                   is_byte=op.opcode is Opcode.SB)
        if op.opcode is Opcode.OUT:
            latches.set(self._rob_field(rob_index, "result"), result.output_value or 0)
        elif info is not None and info.writes_rd:
            latches.set(self._rob_field(rob_index, "result"), result.value)
            self._broadcast(rob_index, result.value)
        latches.set(self._rob_field(rob_index, "ready"), 1)
        if latches.get(self._rob_field(rob_index, "is_branch")) or op.opcode in (
                Opcode.JAL, Opcode.JALR):
            self._resolve_branch(op, result.branch_taken, result.branch_target)

    def _fill_store_queue(self, rob_index: int, address: int | None, data: int | None,
                          is_byte: bool) -> None:
        latches = self.latches
        for i in range(STQ_ENTRIES):
            if (latches.get(self._stq_field(i, "valid"))
                    and latches.get(self._stq_field(i, "rob")) == rob_index):
                latches.set(self._stq_field(i, "addr"), address or 0)
                latches.set(self._stq_field(i, "addrvalid"), 1)
                latches.set(self._stq_field(i, "data"), data or 0)
                latches.set(self._stq_field(i, "byte"), 1 if is_byte else 0)
                return

    def _broadcast(self, rob_index: int, value: int) -> None:
        """Wake issue-queue consumers waiting on a ROB tag."""
        latches = self.latches
        for i in range(IQ_ENTRIES):
            if not latches.get(self._iq_field(i, "valid")):
                continue
            if (not latches.get(self._iq_field(i, "s1ready"))
                    and latches.get(self._iq_field(i, "s1tag")) == rob_index):
                latches.set(self._iq_field(i, "s1val"), value)
                latches.set(self._iq_field(i, "s1ready"), 1)
            if (not latches.get(self._iq_field(i, "s2ready"))
                    and latches.get(self._iq_field(i, "s2tag")) == rob_index):
                latches.set(self._iq_field(i, "s2val"), value)
                latches.set(self._iq_field(i, "s2ready"), 1)

    # ------------------------------------------------------------------ branch recovery
    def _resolve_branch(self, op: _InFlightOp, taken: bool, target: int) -> None:
        latches = self.latches
        rob_index = op.rob_index
        predicted_next = (op.pc + WORD_BYTES) & 0xFFFFFFFF
        actual_next = target if taken else predicted_next
        self._train_predictor(op.pc, taken)
        if actual_next == predicted_next:
            return  # fall-through prediction was correct
        # Mispredict: squash everything younger than the branch.
        branch_age = self._rob_age(rob_index)
        ckpt = latches.get(self._rob_field(rob_index, "ckpt"))
        if ckpt < CHECKPOINTS and latches.get(f"ckpt.c{ckpt}.valid"):
            self._restore_checkpoint(ckpt)
        # The checkpoint slot is consumed here; clear the ROB's reference so
        # the slot is not freed a second time at commit after another branch
        # has re-allocated it.
        latches.set(self._rob_field(rob_index, "ckpt"), CHECKPOINTS)
        self._squash_younger_than(branch_age)
        latches.set("rob.tail", (rob_index + 1) % ROB_ENTRIES)
        latches.set("rob.count", branch_age + 1)
        latches.set("fetch.pc", actual_next)
        latches.set("fetch.stall", 0)
        self._fetch_stalled = False
        self._clear_fetch_buffer()

    def _restore_checkpoint(self, ckpt: int) -> None:
        latches = self.latches
        packed = latches.get(f"ckpt.c{ckpt}.map")
        for r in range(NUM_REGISTERS):
            fieldvalue = (packed >> (7 * r)) & 0x7F
            latches.set(f"rat.r{r:02d}.busy", fieldvalue & 1)
            latches.set(f"rat.r{r:02d}.rob", (fieldvalue >> 1) & 0x3F)
        latches.set(f"ckpt.c{ckpt}.valid", 0)

    def _squash_younger_than(self, age_limit: int) -> None:
        """Invalidate every in-flight instruction younger than ``age_limit``."""
        latches = self.latches
        for i in range(ROB_ENTRIES):
            if latches.get(self._rob_field(i, "valid")) and self._rob_age(i) > age_limit:
                if latches.get(self._rob_field(i, "is_branch")):
                    ckpt = latches.get(self._rob_field(i, "ckpt"))
                    if ckpt < CHECKPOINTS:
                        latches.set(f"ckpt.c{ckpt}.valid", 0)
                latches.set(self._rob_field(i, "valid"), 0)
        for i in range(IQ_ENTRIES):
            if latches.get(self._iq_field(i, "valid")):
                rob_index = latches.get(self._iq_field(i, "rob"))
                if self._rob_age(rob_index) > age_limit:
                    latches.set(self._iq_field(i, "valid"), 0)
        # Store queue entries of squashed stores are removed by rebuilding the
        # queue in order.
        surviving: list[dict[str, int]] = []
        head = latches.get("stq.head")
        count = latches.get("stq.count")
        for offset in range(count):
            index = (head + offset) % STQ_ENTRIES
            entry = {name: latches.get(self._stq_field(index, name))
                     for name in ("valid", "rob", "addr", "addrvalid", "data", "byte")}
            if entry["valid"] and self._rob_age(entry["rob"]) <= age_limit:
                surviving.append(entry)
            latches.set(self._stq_field(index, "valid"), 0)
        for offset, entry in enumerate(surviving):
            index = (head + offset) % STQ_ENTRIES
            for name, value in entry.items():
                latches.set(self._stq_field(index, name), value)
        latches.set("stq.tail", (head + len(surviving)) % STQ_ENTRIES)
        latches.set("stq.count", len(surviving))
        # Drop squashed ops from the execution units.
        self._in_flight = [op for op in self._in_flight
                           if self._rob_age(op.rob_index) <= age_limit]

    def _clear_fetch_buffer(self) -> None:
        latches = self.latches
        for i in range(FETCH_BUFFER_ENTRIES):
            latches.set(f"fb.e{i}.valid", 0)
        latches.set("fb.head", 0)
        latches.set("fb.tail", 0)
        latches.set("fb.count", 0)

    def _train_predictor(self, pc: int, taken: bool) -> None:
        """Update gshare hint state (never consulted for correctness)."""
        latches = self.latches
        history = latches.get("bp.gshare.history")
        index = ((pc >> 2) ^ history) % 1024
        table = latches.get("bp.gshare.table")
        counter = (table >> (2 * index)) & 0x3
        counter = min(3, counter + 1) if taken else max(0, counter - 1)
        table &= ~(0x3 << (2 * index))
        table |= counter << (2 * index)
        latches.set("bp.gshare.table", table)
        latches.set("bp.gshare.history", ((history << 1) | int(taken)) & 0xFFF)

    # ------------------------------------------------------------------ memory ops
    def _execute_memory_ops(self) -> None:
        """Advance loads waiting on store-address resolution (handled in
        :meth:`_complete_load`); nothing additional to do per cycle."""

    def _complete_load(self, op: _InFlightOp) -> bool:
        """Try to complete a load; returns False if it must retry next cycle."""
        latches = self.latches
        rob_index = op.rob_index
        if not latches.get(self._rob_field(rob_index, "valid")):
            return True  # squashed
        address = op.load_address
        if address is None:
            result = execute_operation(op.opcode, op.rs1_value, op.rs2_value,
                                       op.imm, op.pc)
            address = result.memory_address or 0
            op.load_address = address
        load_age = self._rob_age(rob_index)
        forwarded: int | None = None
        head = latches.get("stq.head")
        count = latches.get("stq.count")
        for offset in range(count):
            index = (head + offset) % STQ_ENTRIES
            if not latches.get(self._stq_field(index, "valid")):
                continue
            store_rob = latches.get(self._stq_field(index, "rob"))
            if self._rob_age(store_rob) >= load_age:
                continue  # younger than or same as the load
            if not latches.get(self._stq_field(index, "addrvalid")):
                return False  # older store with unknown address: wait
            if latches.get(self._stq_field(index, "addr")) == address:
                forwarded = latches.get(self._stq_field(index, "data"))
        if forwarded is not None:
            value = forwarded
        else:
            try:
                if op.opcode is Opcode.LB:
                    value = self.memory.load_byte(address)
                else:
                    value = self.memory.load_word(address)
            except MemoryFault:
                latches.set(self._rob_field(rob_index, "exception"), 1)
                latches.set(self._rob_field(rob_index, "expkind"),
                            _TRAP_CODES[TrapKind.MEMORY_FAULT])
                latches.set(self._rob_field(rob_index, "ready"), 1)
                return True
        latches.set(self._rob_field(rob_index, "result"), value)
        latches.set(self._rob_field(rob_index, "ready"), 1)
        self._broadcast(rob_index, value)
        latches.set("mem.l1dcache.accessaddr0", address)
        latches.set("mem.l1dcache.accessfulldata0", value)
        return True

    # ------------------------------------------------------------------ issue
    def _issue(self) -> None:
        latches = self.latches
        candidates: list[tuple[int, int]] = []
        for i in range(IQ_ENTRIES):
            if (latches.get(self._iq_field(i, "valid"))
                    and not latches.get(self._iq_field(i, "issued"))
                    and latches.get(self._iq_field(i, "s1ready"))
                    and latches.get(self._iq_field(i, "s2ready"))):
                rob_index = latches.get(self._iq_field(i, "rob"))
                candidates.append((self._rob_age(rob_index), i))
        candidates.sort()
        for _, iq_index in candidates[:ISSUE_WIDTH]:
            rob_index = latches.get(self._iq_field(iq_index, "rob"))
            if not latches.get(self._rob_field(rob_index, "valid")):
                latches.set(self._iq_field(iq_index, "valid"), 0)
                continue
            op_value = latches.get(self._iq_field(iq_index, "op"))
            try:
                opcode = Opcode(op_value)
                info = OPCODE_INFO[opcode]
            except ValueError:
                latches.set(self._rob_field(rob_index, "exception"), 1)
                latches.set(self._rob_field(rob_index, "expkind"),
                            _TRAP_CODES[TrapKind.ILLEGAL_INSTRUCTION])
                latches.set(self._rob_field(rob_index, "ready"), 1)
                latches.set(self._iq_field(iq_index, "valid"), 0)
                continue
            in_flight = _InFlightOp(
                rob_index=rob_index,
                opcode=opcode,
                rs1_value=latches.get(self._iq_field(iq_index, "s1val")),
                rs2_value=latches.get(self._iq_field(iq_index, "s2val")),
                imm=latches.get_signed(self._iq_field(iq_index, "imm")),
                pc=latches.get(self._iq_field(iq_index, "pc")),
                remaining_cycles=max(1, info.execute_latency),
                is_load=info.is_load,
            )
            self._in_flight.append(in_flight)
            latches.set(self._iq_field(iq_index, "issued"), 1)
            latches.set(self._iq_field(iq_index, "valid"), 0)

    # ------------------------------------------------------------------ rename / dispatch
    def _rename_dispatch(self) -> None:
        latches = self.latches
        for _ in range(RENAME_WIDTH):
            if latches.get("fb.count") == 0:
                return
            if latches.get("rob.count") >= ROB_ENTRIES:
                return
            free_iq = self._find_free_iq_entry()
            if free_iq is None:
                return
            fb_head = latches.get("fb.head")
            fault = latches.get(self._fb_field(fb_head, "fault"))
            word = latches.get(self._fb_field(fb_head, "inst"))
            pc = latches.get(self._fb_field(fb_head, "pc"))
            instruction = None
            trap_kind: TrapKind | None = None
            if fault:
                trap_kind = TrapKind.FETCH_FAULT
            else:
                try:
                    instruction = decode_instruction(word)
                except EncodingError:
                    trap_kind = TrapKind.ILLEGAL_INSTRUCTION
            if instruction is not None:
                info = OPCODE_INFO[instruction.opcode]
                if info.is_store and latches.get("stq.count") >= STQ_ENTRIES:
                    return
                if ((info.is_branch or info.is_jump)
                        and self._find_free_checkpoint() is None):
                    return
            # Consume the fetch-buffer entry.
            latches.set(self._fb_field(fb_head, "valid"), 0)
            latches.set("fb.head", (fb_head + 1) % FETCH_BUFFER_ENTRIES)
            latches.set("fb.count", latches.get("fb.count") - 1)
            # Allocate the ROB entry.
            tail = latches.get("rob.tail")
            latches.set(self._rob_field(tail, "valid"), 1)
            latches.set(self._rob_field(tail, "ready"), 0)
            latches.set(self._rob_field(tail, "exception"), 0)
            latches.set(self._rob_field(tail, "expkind"), 0)
            latches.set(self._rob_field(tail, "is_store"), 0)
            latches.set(self._rob_field(tail, "is_out"), 0)
            latches.set(self._rob_field(tail, "is_branch"), 0)
            latches.set(self._rob_field(tail, "ckpt"), CHECKPOINTS)
            latches.set(self._rob_field(tail, "pc"), pc)
            latches.set("rob.tail", (tail + 1) % ROB_ENTRIES)
            latches.set("rob.count", latches.get("rob.count") + 1)
            if trap_kind is not None:
                latches.set(self._rob_field(tail, "op"), 0)
                latches.set(self._rob_field(tail, "rd"), 0)
                latches.set(self._rob_field(tail, "exception"), 1)
                latches.set(self._rob_field(tail, "expkind"), _TRAP_CODES[trap_kind])
                latches.set(self._rob_field(tail, "ready"), 1)
                continue
            info = OPCODE_INFO[instruction.opcode]
            needs_checkpoint = info.is_branch or info.is_jump
            latches.set(self._rob_field(tail, "op"), int(instruction.opcode))
            latches.set(self._rob_field(tail, "rd"), instruction.rd)
            latches.set(self._rob_field(tail, "is_store"), 1 if info.is_store else 0)
            latches.set(self._rob_field(tail, "is_out"), 1 if info.is_output else 0)
            latches.set(self._rob_field(tail, "is_branch"), 1 if needs_checkpoint else 0)
            if info.is_store:
                stq_tail = latches.get("stq.tail")
                latches.set(self._stq_field(stq_tail, "valid"), 1)
                latches.set(self._stq_field(stq_tail, "rob"), tail)
                latches.set(self._stq_field(stq_tail, "addrvalid"), 0)
                latches.set("stq.tail", (stq_tail + 1) % STQ_ENTRIES)
                latches.set("stq.count", latches.get("stq.count") + 1)
            # Fill the issue-queue entry with renamed operands.
            self._fill_iq_entry(free_iq, instruction, tail, pc, info)
            # Update the rename map for the destination.
            if info.writes_rd and instruction.rd != 0:
                latches.set(f"rat.r{instruction.rd:02d}.busy", 1)
                latches.set(f"rat.r{instruction.rd:02d}.rob", tail)
            # Checkpoint the rename map *after* the control instruction's own
            # destination rename, so recovery restores the map younger
            # instructions must observe on the correct path.
            if needs_checkpoint:
                ckpt = self._find_free_checkpoint()
                latches.set(self._rob_field(tail, "ckpt"), ckpt)
                self._save_checkpoint(ckpt)
            # HALT and NOP need no execution: mark ready immediately.
            if instruction.opcode in (Opcode.HALT, Opcode.NOP):
                latches.set(self._rob_field(tail, "ready"), 1)
                latches.set(self._iq_field(free_iq, "valid"), 0)

    def _fill_iq_entry(self, iq_index: int, instruction, rob_index: int, pc: int,
                       info) -> None:
        latches = self.latches
        latches.set(self._iq_field(iq_index, "valid"), 1)
        latches.set(self._iq_field(iq_index, "issued"), 0)
        latches.set(self._iq_field(iq_index, "op"), int(instruction.opcode))
        latches.set(self._iq_field(iq_index, "rob"), rob_index)
        latches.set(self._iq_field(iq_index, "imm"), instruction.imm)
        latches.set(self._iq_field(iq_index, "pc"), pc)
        ready1, tag1, value1 = self._rename_source(instruction.rs1, info.reads_rs1)
        ready2, tag2, value2 = self._rename_source(instruction.rs2, info.reads_rs2)
        latches.set(self._iq_field(iq_index, "s1ready"), ready1)
        latches.set(self._iq_field(iq_index, "s1tag"), tag1)
        latches.set(self._iq_field(iq_index, "s1val"), value1)
        latches.set(self._iq_field(iq_index, "s2ready"), ready2)
        latches.set(self._iq_field(iq_index, "s2tag"), tag2)
        latches.set(self._iq_field(iq_index, "s2val"), value2)

    def _rename_source(self, arch_reg: int, is_read: bool) -> tuple[int, int, int]:
        """Return (ready, tag, value) for one source operand."""
        latches = self.latches
        if not is_read or arch_reg == 0:
            return 1, 0, self._read_register(arch_reg) if is_read else 0
        if latches.get(f"rat.r{arch_reg:02d}.busy"):
            producer = latches.get(f"rat.r{arch_reg:02d}.rob")
            if not latches.get(self._rob_field(producer, "valid")):
                # Stale mapping (possible transiently under fault injection):
                # fall back to the architectural value.
                return 1, 0, self._read_register(arch_reg)
            if (latches.get(self._rob_field(producer, "ready"))
                    and not latches.get(self._rob_field(producer, "exception"))):
                return 1, 0, latches.get(self._rob_field(producer, "result"))
            return 0, producer, 0
        return 1, 0, self._read_register(arch_reg)

    def _find_free_iq_entry(self) -> int | None:
        latches = self.latches
        for i in range(IQ_ENTRIES):
            if not latches.get(self._iq_field(i, "valid")):
                return i
        return None

    def _find_free_checkpoint(self) -> int | None:
        latches = self.latches
        for i in range(CHECKPOINTS):
            if not latches.get(f"ckpt.c{i}.valid"):
                return i
        return None

    def _save_checkpoint(self, ckpt: int) -> None:
        latches = self.latches
        packed = 0
        for r in range(NUM_REGISTERS):
            fieldvalue = (latches.get(f"rat.r{r:02d}.busy")
                          | (latches.get(f"rat.r{r:02d}.rob") << 1))
            packed |= fieldvalue << (7 * r)
        latches.set(f"ckpt.c{ckpt}.map", packed)
        latches.set(f"ckpt.c{ckpt}.valid", 1)

    # ------------------------------------------------------------------ fetch
    def _fetch(self) -> None:
        latches = self.latches
        if self._fetch_stalled or latches.get("fetch.stall"):
            return
        for _ in range(FETCH_WIDTH):
            if latches.get("fb.count") >= FETCH_BUFFER_ENTRIES:
                return
            pc = latches.get("fetch.pc")
            instruction = self._program.instruction_at(pc) if self._program else None
            tail = latches.get("fb.tail")
            latches.set(self._fb_field(tail, "pc"), pc)
            latches.set(self._fb_field(tail, "valid"), 1)
            if instruction is None:
                latches.set(self._fb_field(tail, "inst"), 0)
                latches.set(self._fb_field(tail, "fault"), 1)
                latches.set("fb.tail", (tail + 1) % FETCH_BUFFER_ENTRIES)
                latches.set("fb.count", latches.get("fb.count") + 1)
                latches.set("fetch.stall", 1)
                self._fetch_stalled = True
                return
            latches.set(self._fb_field(tail, "inst"), encode_instruction(instruction))
            latches.set(self._fb_field(tail, "fault"), 0)
            latches.set("fb.tail", (tail + 1) % FETCH_BUFFER_ENTRIES)
            latches.set("fb.count", latches.get("fb.count") + 1)
            latches.set("fetch.pc", (pc + WORD_BYTES) & 0xFFFFFFFF)

    def _touch_background_state(self) -> None:
        """Advance vanish-class bookkeeping so those flip-flops really toggle."""
        latches = self.latches
        latches.set("perf.counter0", (latches.get("perf.counter0") + 1) & (2**48 - 1))
        latches.set("perf.counter1",
                    (latches.get("perf.counter1") + len(self._in_flight)) & (2**48 - 1))
        latches.set("ldq.numentries", len(self._in_flight) & 0xF)
