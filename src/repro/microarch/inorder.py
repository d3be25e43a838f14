"""In-order core model (the paper's "InO-core", a Leon3-class design).

A seven-stage, single-issue, in-order pipeline:

``fetch -> decode -> regaccess -> execute -> memory -> exception -> writeback``

matching the Leon3 integer unit organisation the paper injects into.  The
important properties reproduced here:

* every pipeline latch, control register and bookkeeping register is a named
  flip-flop structure (about 1.25k flip-flops, as in Table 1), so fault
  injection has the same surface as the paper's RTL campaigns;
* hazards are resolved by scoreboard stalls (no forwarding), which yields an
  IPC close to the 0.4 the paper reports for the Leon3;
* branches resolve in the execute stage with a static not-taken policy; the
  bimodal predictor is trained but never read, hint-only state mirroring the
  Appendix-A structures whose errors always vanish;
* traps (illegal instruction, memory fault, divide-by-zero, software
  assertion) propagate down the pipeline and terminate the run when the
  faulting instruction reaches the exception stage.

Register windows / the register file are modelled as RAM (not flip-flops),
as in the paper, and are therefore not injection targets.
"""

from __future__ import annotations

from collections import namedtuple

from repro.isa.encoding import EncodingError, decode_instruction, encode_instruction
from repro.isa.instructions import Opcode, OPCODE_BY_VALUE, OPCODE_INFO
from repro.isa.program import Program, WORD_BYTES
from repro.isa.registers import NUM_REGISTERS
from repro.microarch.branch_predictor import BimodalPredictor
from repro.microarch.core import BaseCore, CoreClass
from repro.microarch.events import TerminationReason, TrapKind
from repro.microarch.execute import ExecuteResult, ExecuteTrap, execute_operation
from repro.microarch.memory import MemoryFault, MemorySystem

# Trap kinds are carried down the pipeline in a 3-bit field.
_TRAP_CODES = {
    TrapKind.ILLEGAL_INSTRUCTION: 1,
    TrapKind.MEMORY_FAULT: 2,
    TrapKind.FETCH_FAULT: 3,
    TrapKind.DIVIDE_BY_ZERO: 4,
    TrapKind.SOFTWARE_ASSERTION: 5,
}
_TRAP_FROM_CODE = {code: kind for kind, code in _TRAP_CODES.items()}

_INFO_BY_VALUE = {int(op): OPCODE_INFO[op] for op in Opcode}
_HALT = int(Opcode.HALT)
_WORD_MASK = 0xFFFFFFFF
_IMM_MASK = 0x7FFF
"""Width mask of the ``a.imm``/``e.imm`` latches (15-bit immediates)."""
_IMM_SIGN = 0x4000
_MISSING = object()

INO_CLOCK_MHZ = 2000.0
"""Nominal clock of the InO-core (2.0 GHz, Table 1)."""

_SLOT_LATCHES = (
    "f.pc", "f.npc",
    "d.inst", "d.pc", "d.valid", "d.fetchfault",
    "a.op", "a.rd", "a.rs1", "a.rs2", "a.imm", "a.pc", "a.valid", "a.trap",
    "a.trapkind",
    "e.op", "e.rd", "e.rs1val", "e.rs2val", "e.imm", "e.pc", "e.valid",
    "e.trap", "e.trapkind",
    "m.op", "m.rd", "m.result", "m.addr", "m.storeval", "m.valid", "m.trap",
    "m.trapkind", "m.branch_taken",
    "x.op", "x.rd", "x.result", "x.valid", "x.trap", "x.trapkind",
    "x.outval", "x.outpending", "x.icc",
    "w.op", "w.rd", "w.result", "w.wen", "w.valid", "w.trap", "w.trapkind",
    "w.outval", "w.outpending", "w.s.icc",
    "ic.ctrl.state", "dc.ctrl.state", "irq.pending",
)
"""Latches the per-cycle path reads or writes (the predictor keeps its own)."""

_Slots = namedtuple("_Slots",
                    [name.replace(".", "_") for name in _SLOT_LATCHES])


class InOrderCore(BaseCore):
    """Cycle-level model of the simple in-order core."""

    # The hint plane is behaviour-free.  Only these stages touch hint
    # latches, and none reads one into a decision, a register, memory or
    # output:
    # * execute trains the bimodal predictor (f.bp.table, f.bp.history),
    #   which feeds only itself -- fetch is static not-taken;
    # * exception -> writeback copies x.icc into w.s.icc, hint to hint;
    # * fetch, memory and the end of every cycle advance the
    #   ic.ctrl.state / dc.ctrl.state / irq.pending counters, write-only.
    # Every other hint structure is never touched after reset.
    # tests/test_engine.py::TestHintPlane flips every hint bit and checks it.
    hint_plane_inert = True

    def __init__(self, name: str = "InO-core"):
        super().__init__(name=name, clock_mhz=INO_CLOCK_MHZ,
                         core_class=CoreClass.IN_ORDER)
        self._declare_state()
        self._finalize_state()
        self.memory = MemorySystem()
        self.registers: list[int] = [0] * NUM_REGISTERS
        # audit: allow[state-coverage] the predictor is a stateless view; its tables/history live in self.latches, which the contract covers
        self._predictor = BimodalPredictor(
            self.latches, "f.bp.table", "f.bp.history", entries=32)
        # Fetch and decode memos: pure functions of the bound program and of
        # the instruction word, never run state.
        # audit: allow[state-coverage] identity of the program _fetch_words memoises; a core bound to another program rebuilds the memo
        self._fetch_program: Program | None = None
        # audit: allow[state-coverage] pc -> encoded word memo of self._program, rebuilt whenever the bound program changes
        self._fetch_words: dict[int, int | None] = {}
        # audit: allow[state-coverage] word -> decoded latch fields memo; decoding is a pure function of the word
        self._decoded: dict[int, tuple | None] = {}
        # Every latch the per-cycle path touches, resolved to its slot once.
        s = self._slots = _Slots._make(map(self.latches.slot, _SLOT_LATCHES))
        # (valid, trap, op, rd) of the memory, exception and writeback
        # latches: the in-flight results the scoreboard checks.
        self._hazard_slots = ((s.m_valid, s.m_trap, s.m_op, s.m_rd),
                              (s.x_valid, s.x_trap, s.x_op, s.x_rd),
                              (s.w_valid, s.w_trap, s.w_op, s.w_rd))
        # Slot -> width mask of each hint counter :meth:`_count` advances.
        self._counter_masks = {
            slot: (1 << self.registry.structures[slot].width) - 1
            for slot in (s.irq_pending, s.ic_ctrl_state, s.dc_ctrl_state)}

    # ------------------------------------------------------------------ state declaration
    def _declare_state(self) -> None:
        reg = self.registry.register

        # Fetch unit.
        reg("f.pc", 32, "fetch")
        reg("f.npc", 32, "fetch")
        reg("f.valid", 1, "fetch")
        reg("f.bp.table", 64, "fetch", architectural=False)
        reg("f.bp.history", 8, "fetch", architectural=False)

        # Fetch -> decode latch.
        reg("d.inst", 32, "decode")
        reg("d.pc", 32, "decode")
        reg("d.valid", 1, "decode")
        reg("d.fetchfault", 1, "decode")
        reg("d.pv", 2, "decode", architectural=False)

        # Decode -> register-access latch.
        reg("a.op", 7, "regaccess")
        reg("a.rd", 5, "regaccess")
        reg("a.rs1", 5, "regaccess")
        reg("a.rs2", 5, "regaccess")
        reg("a.imm", 15, "regaccess")
        reg("a.pc", 32, "regaccess")
        reg("a.valid", 1, "regaccess")
        reg("a.trap", 1, "regaccess")
        reg("a.trapkind", 3, "regaccess")
        reg("a.ctrl.tt", 8, "regaccess", architectural=False)
        reg("a.cwp", 5, "regaccess", architectural=False)
        reg("a.rfe1", 1, "regaccess", architectural=False)
        reg("a.rfe2", 1, "regaccess", architectural=False)

        # Register-access -> execute latch.
        reg("e.op", 7, "execute")
        reg("e.rd", 5, "execute")
        reg("e.rs1val", 32, "execute")
        reg("e.rs2val", 32, "execute")
        reg("e.imm", 15, "execute")
        reg("e.pc", 32, "execute")
        reg("e.valid", 1, "execute")
        reg("e.trap", 1, "execute")
        reg("e.trapkind", 3, "execute")
        reg("e.ctrl.tt", 8, "execute", architectural=False)
        reg("e.mulstep", 6, "execute", architectural=False)
        reg("e.su", 1, "execute", architectural=False)
        reg("e.et", 1, "execute", architectural=False)

        # Execute -> memory latch.
        reg("m.op", 7, "memory")
        reg("m.rd", 5, "memory")
        reg("m.result", 32, "memory")
        reg("m.addr", 32, "memory")
        reg("m.storeval", 32, "memory")
        reg("m.valid", 1, "memory")
        reg("m.trap", 1, "memory")
        reg("m.trapkind", 3, "memory")
        reg("m.branch_taken", 1, "memory")
        reg("m.ctrl.tt", 8, "memory", architectural=False)
        reg("m.dci.asi", 8, "memory", architectural=False)
        reg("m.dci.lock", 1, "memory", architectural=False)
        reg("m.dci.signed", 1, "memory", architectural=False)
        reg("m.irqen", 1, "memory", architectural=False)
        reg("m.irqen2", 1, "memory", architectural=False)

        # Memory -> exception latch.
        reg("x.op", 7, "exception")
        reg("x.rd", 5, "exception")
        reg("x.result", 32, "exception")
        reg("x.valid", 1, "exception")
        reg("x.trap", 1, "exception")
        reg("x.trapkind", 3, "exception")
        reg("x.outval", 32, "exception")
        reg("x.outpending", 1, "exception")
        reg("x.ctrl.tt", 8, "exception", architectural=False)
        reg("x.icc", 4, "exception", architectural=False)
        reg("x.ipend", 1, "exception", architectural=False)
        reg("x.intack", 1, "exception", architectural=False)

        # Exception -> writeback latch.
        reg("w.op", 7, "writeback")
        reg("w.rd", 5, "writeback")
        reg("w.result", 32, "writeback")
        reg("w.wen", 1, "writeback")
        reg("w.valid", 1, "writeback")
        reg("w.trap", 1, "writeback")
        reg("w.trapkind", 3, "writeback")
        reg("w.outval", 32, "writeback")
        reg("w.outpending", 1, "writeback")
        # Processor status register fields (mostly hint/privilege state the
        # workloads never read back; errors there vanish).
        reg("w.s.icc", 4, "writeback", architectural=False)
        reg("w.s.tt", 8, "writeback", architectural=False)
        reg("w.s.pil", 4, "writeback", architectural=False)
        reg("w.s.ec", 1, "writeback", architectural=False)
        reg("w.s.ef", 1, "writeback", architectural=False)
        reg("w.s.ps", 1, "writeback", architectural=False)
        reg("w.s.et", 1, "writeback", architectural=False)
        reg("w.s.cwp", 5, "writeback", architectural=False)
        reg("w.s.dwt", 1, "writeback", architectural=False)

        # Cache controllers (control/bookkeeping only; the cache arrays
        # themselves are SRAM).
        reg("ic.ctrl.state", 4, "icache", architectural=False)
        reg("ic.ctrl.hold", 1, "icache", architectural=False)
        reg("dc.ctrl.state", 4, "dcache", architectural=False)
        reg("dc.ctrl.hold", 1, "dcache", architectural=False)

        # Interrupt controller: toggles during execution but the workloads
        # never consume it, so its errors vanish (Appendix A analogues).
        reg("irq.pending", 16, "peripherals", architectural=False)
        reg("irq.mask", 16, "peripherals", architectural=False)

    # ------------------------------------------------------------------ reset
    def _reset_microarchitecture(self, program: Program) -> None:
        self.memory.reset(program)
        self.registers = [0] * NUM_REGISTERS
        # Stack pointer starts at the top of the stack region.
        from repro.isa.program import DEFAULT_STACK_TOP

        self.registers[2] = DEFAULT_STACK_TOP - WORD_BYTES
        latches = self.latches
        latches.set("f.pc", program.entry_point)
        latches.set("f.npc", program.entry_point + WORD_BYTES)
        latches.set("f.valid", 1)

    # ------------------------------------------------------------------ checkpointing
    def _snapshot_microarchitecture(self) -> dict:
        # The bimodal predictor lives entirely in latch state; everything
        # else the pipeline touches between cycles is captured here.
        return {
            "registers": list(self.registers),
            "memory": self.memory.snapshot_words(),
            "redirect_target": self._redirect_target,
        }

    def _restore_microarchitecture(self, micro: dict) -> None:
        self.registers = list(micro["registers"])
        self.memory.restore_words(micro["memory"])
        self._redirect_target = micro["redirect_target"]

    def _fingerprint_microarchitecture(self) -> tuple:
        return (tuple(self.registers), self.memory.fingerprint_digest(),
                self._redirect_target)

    # ------------------------------------------------------------------ helpers
    def _read_register(self, index: int) -> int:
        return self.registers[index & 0x1F]

    def _write_register(self, index: int, value: int) -> None:
        index &= 0x1F
        if index != 0:
            self.registers[index] = value & _WORD_MASK

    def _execute(self, opcode: Opcode, rs1_value: int, rs2_value: int,
                 imm: int, pc: int) -> ExecuteResult:
        """The execute stage's compute (raises :class:`ExecuteTrap`)."""
        return execute_operation(opcode, rs1_value, rs2_value, imm, pc)

    def _count(self, slot: int) -> None:
        """Advance the hint counter at ``slot`` by one (wrapping)."""
        v = self.latches.values
        v[slot] = (v[slot] + 1) & self._counter_masks[slot]

    def _fetch_word(self, pc: int) -> int | None:
        """Encoded instruction word at ``pc`` (``None``: fetch fault)."""
        if self._fetch_program is not self._program:
            self._fetch_program = self._program
            self._fetch_words = {}
        word = self._fetch_words.get(pc, _MISSING)
        if word is _MISSING:
            instruction = (self._program.instruction_at(pc)
                           if self._program else None)
            word = (None if instruction is None
                    else encode_instruction(instruction))
            self._fetch_words[pc] = word
        return word

    def _decode_fields(self, word: int) -> tuple | None:
        """``(op, rd, rs1, rs2, imm)`` latch values of ``word`` (``None``:
        illegal instruction); ``imm`` is masked to the latch width."""
        fields = self._decoded.get(word, _MISSING)
        if fields is _MISSING:
            try:
                instruction = decode_instruction(word)
            except EncodingError:
                fields = None
            else:
                fields = (int(instruction.opcode), instruction.rd,
                          instruction.rs1, instruction.rs2,
                          instruction.imm & _IMM_MASK)
            self._decoded[word] = fields
        return fields

    def _hazard_destinations(self, v: list) -> set[int]:
        """Destination registers of in-flight, not-yet-committed instructions.

        Called after the downstream latch moves of the current cycle, so older
        instructions live in the memory, exception and writeback latches.
        """
        destinations: set[int] = set()
        for valid, trap, op, rd in self._hazard_slots:
            if v[valid] and not v[trap]:
                info = _INFO_BY_VALUE.get(v[op])
                if info is not None and info.writes_rd and v[rd] != 0:
                    destinations.add(v[rd])
        return destinations

    # ------------------------------------------------------------------ pipeline stages
    # Every stage indexes the flat latch list directly.  Writes are not
    # masked there, so each one stores a value already within its latch's
    # width: a move, a constant, a masked execute/memory/register result, or
    # an explicitly masked pc increment.  The batched lockstep replay runs
    # these same stages with per-lane numpy columns in the lane-local latches.
    def _step_cycle(self) -> None:
        self._commit_writeback()
        if self.terminated:
            return
        self._stage_exception_to_writeback()
        self._stage_memory_to_exception()
        redirect = self._stage_execute_to_memory()
        stalled = self._stage_regaccess_to_execute(redirect)
        self._stage_decode_to_regaccess(redirect, stalled)
        self._stage_fetch_to_decode(redirect, stalled)
        # Peripheral hint state toggles so vanish-class flip-flops see traffic.
        self._count(self._slots.irq_pending)

    # WB: commit results, outputs, halts and traps.
    def _commit_writeback(self) -> None:
        v = self.latches.values
        s = self._slots
        if not v[s.w_valid]:
            return
        if v[s.w_trap]:
            kind = _TRAP_FROM_CODE.get(v[s.w_trapkind],
                                       TrapKind.ILLEGAL_INSTRUCTION)
            reason = (TerminationReason.DETECTED
                      if kind is TrapKind.SOFTWARE_ASSERTION
                      else TerminationReason.TRAP)
            self.force_termination(reason, kind)
            v[s.w_valid] = 0
            return
        if v[s.w_wen]:
            self._write_register(v[s.w_rd], v[s.w_result])
        if v[s.w_outpending]:
            self.emit_output(v[s.w_outval])
        self.note_retired()
        if v[s.w_op] == _HALT:
            self.force_termination(TerminationReason.HALTED)
        v[s.w_valid] = 0
        v[s.w_wen] = 0
        v[s.w_outpending] = 0

    # XC -> WB
    def _stage_exception_to_writeback(self) -> None:
        v = self.latches.values
        s = self._slots
        if not v[s.x_valid]:
            v[s.w_valid] = 0
            v[s.w_wen] = 0
            v[s.w_outpending] = 0
            return
        v[s.w_op] = v[s.x_op]
        v[s.w_rd] = v[s.x_rd]
        v[s.w_result] = v[s.x_result]
        v[s.w_trap] = v[s.x_trap]
        v[s.w_trapkind] = v[s.x_trapkind]
        v[s.w_outval] = v[s.x_outval]
        v[s.w_outpending] = v[s.x_outpending]
        v[s.w_valid] = 1
        wen = 0
        if not v[s.x_trap]:
            info = _INFO_BY_VALUE.get(v[s.x_op])
            if info is not None and info.writes_rd and v[s.x_rd] != 0:
                wen = 1
        v[s.w_wen] = wen
        # Status-register bookkeeping (hint-only state).
        v[s.w_s_icc] = v[s.x_icc]
        v[s.x_valid] = 0

    # ME -> XC: data memory access.
    def _stage_memory_to_exception(self) -> None:
        v = self.latches.values
        s = self._slots
        if not v[s.m_valid]:
            v[s.x_valid] = 0
            v[s.x_outpending] = 0
            return
        v[s.x_op] = v[s.m_op]
        v[s.x_rd] = v[s.m_rd]
        v[s.x_trap] = v[s.m_trap]
        v[s.x_trapkind] = v[s.m_trapkind]
        v[s.x_valid] = 1
        v[s.x_outpending] = 0
        result = v[s.m_result]
        if not v[s.m_trap]:
            opcode = OPCODE_BY_VALUE.get(v[s.m_op])
            address = v[s.m_addr]
            try:
                if opcode is Opcode.LW:
                    result = self.memory.load_word(address)
                elif opcode is Opcode.LB:
                    result = self.memory.load_byte(address)
                elif opcode is Opcode.SW:
                    self.memory.store_word(address, v[s.m_storeval])
                elif opcode is Opcode.SB:
                    self.memory.store_byte(address, v[s.m_storeval])
                elif opcode is Opcode.OUT:
                    v[s.x_outval] = v[s.m_storeval]
                    v[s.x_outpending] = 1
            except MemoryFault:
                v[s.x_trap] = 1
                v[s.x_trapkind] = _TRAP_CODES[TrapKind.MEMORY_FAULT]
            # Track data-cache controller hint state.
            self._count(s.dc_ctrl_state)
        v[s.x_result] = result
        v[s.m_valid] = 0

    # EX -> ME: ALU, branch resolution.
    def _stage_execute_to_memory(self) -> bool:
        v = self.latches.values
        s = self._slots
        if not v[s.e_valid]:
            v[s.m_valid] = 0
            return False
        v[s.m_op] = v[s.e_op]
        v[s.m_rd] = v[s.e_rd]
        v[s.m_trap] = v[s.e_trap]
        v[s.m_trapkind] = v[s.e_trapkind]
        v[s.m_valid] = 1
        v[s.m_branch_taken] = 0
        redirect = False
        if not v[s.e_trap]:
            pc = v[s.e_pc]
            imm = v[s.e_imm]
            if imm & _IMM_SIGN:
                imm -= _IMM_MASK + 1
            opcode = OPCODE_BY_VALUE.get(v[s.e_op])
            if opcode is None:
                v[s.m_trap] = 1
                v[s.m_trapkind] = _TRAP_CODES[TrapKind.ILLEGAL_INSTRUCTION]
            else:
                try:
                    result = self._execute(opcode, v[s.e_rs1val],
                                           v[s.e_rs2val], imm, pc)
                except ExecuteTrap as trap:
                    v[s.m_trap] = 1
                    v[s.m_trapkind] = _TRAP_CODES[trap.kind]
                else:
                    v[s.m_result] = result.value
                    if result.memory_address is not None:
                        v[s.m_addr] = result.memory_address
                    if result.store_value is not None:
                        v[s.m_storeval] = result.store_value
                    if result.output_value is not None:
                        # Reuse the store-value path to carry the OUT payload.
                        v[s.m_storeval] = result.output_value
                    if OPCODE_INFO[opcode].is_branch:
                        self._predictor.update(pc, result.branch_taken)
                    if result.branch_taken:
                        redirect = True
                        v[s.m_branch_taken] = 1
                        self._redirect_target = result.branch_target
        v[s.e_valid] = 0
        return redirect

    # RA -> EX: register read with scoreboard stall.
    def _stage_regaccess_to_execute(self, redirect: bool) -> bool:
        v = self.latches.values
        s = self._slots
        if redirect or not v[s.a_valid]:
            v[s.e_valid] = 0
            if redirect:
                v[s.a_valid] = 0
            return False
        info = _INFO_BY_VALUE.get(v[s.a_op])
        if info is not None and not v[s.a_trap]:
            hazards = self._hazard_destinations(v)
            if hazards and ((info.reads_rs1 and v[s.a_rs1] in hazards)
                            or (info.reads_rs2 and v[s.a_rs2] in hazards)):
                # Stall: keep the regaccess latch, feed a bubble to execute.
                v[s.e_valid] = 0
                return True
        v[s.e_op] = v[s.a_op]
        v[s.e_rd] = v[s.a_rd]
        v[s.e_imm] = v[s.a_imm]
        v[s.e_pc] = v[s.a_pc]
        v[s.e_trap] = v[s.a_trap]
        v[s.e_trapkind] = v[s.a_trapkind]
        v[s.e_rs1val] = self._read_register(v[s.a_rs1])
        v[s.e_rs2val] = self._read_register(v[s.a_rs2])
        v[s.e_valid] = 1
        v[s.a_valid] = 0
        return False

    # DE -> RA: decode.
    def _stage_decode_to_regaccess(self, redirect: bool, stalled: bool) -> None:
        v = self.latches.values
        s = self._slots
        if stalled:
            return
        if redirect or not v[s.d_valid]:
            v[s.a_valid] = 0
            if redirect:
                v[s.d_valid] = 0
            return
        v[s.a_pc] = v[s.d_pc]
        v[s.a_valid] = 1
        v[s.a_trap] = 0
        v[s.a_trapkind] = 0
        if v[s.d_fetchfault]:
            fields = None
            trap_kind = TrapKind.FETCH_FAULT
        else:
            fields = self._decode_fields(v[s.d_inst])
            trap_kind = TrapKind.ILLEGAL_INSTRUCTION
        if fields is None:
            v[s.a_trap] = 1
            v[s.a_trapkind] = _TRAP_CODES[trap_kind]
            fields = (0, 0, 0, 0, 0)
        v[s.a_op], v[s.a_rd], v[s.a_rs1], v[s.a_rs2], v[s.a_imm] = fields
        v[s.d_valid] = 0

    # FE -> DE: instruction fetch.
    def _stage_fetch_to_decode(self, redirect: bool, stalled: bool) -> None:
        v = self.latches.values
        s = self._slots
        if stalled:
            return
        if redirect:
            target = self._redirect_target
            v[s.d_valid] = 0
            v[s.f_pc] = target
            v[s.f_npc] = (target + WORD_BYTES) & _WORD_MASK
            return
        pc = v[s.f_pc]
        word = self._fetch_word(pc)
        v[s.d_pc] = pc
        v[s.d_valid] = 1
        if word is None:
            # Fetch fault: send a trap-carrying bubble down the pipeline.  It
            # only terminates the run if an older instruction (for example a
            # HALT already in flight) does not commit or redirect first.
            v[s.d_inst] = 0
            v[s.d_fetchfault] = 1
            return
        v[s.d_fetchfault] = 0
        v[s.d_inst] = word
        v[s.f_pc] = (pc + WORD_BYTES) & _WORD_MASK
        v[s.f_npc] = (pc + 2 * WORD_BYTES) & _WORD_MASK
        self._count(s.ic_ctrl_state)

    # ------------------------------------------------------------------ attributes
    _redirect_target: int = 0
