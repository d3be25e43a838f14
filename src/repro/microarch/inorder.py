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
  bimodal predictor state is maintained as hint-only state, mirroring the
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
from repro.microarch.execute import ExecuteTrap, execute_operation
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
        # Every latch the per-cycle path touches, resolved to its slot once.
        s = self._slots = _Slots._make(map(self.latches.slot, _SLOT_LATCHES))
        # (valid, trap, op, rd) of the memory, exception and writeback
        # latches: the in-flight results the scoreboard checks.
        self._hazard_slots = ((s.m_valid, s.m_trap, s.m_op, s.m_rd),
                              (s.x_valid, s.x_trap, s.x_op, s.x_rd),
                              (s.w_valid, s.w_trap, s.w_op, s.w_rd))

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
            self.registers[index] = value & 0xFFFFFFFF

    def _hazard_destinations(self) -> set[int]:
        """Destination registers of in-flight, not-yet-committed instructions.

        Called after the downstream latch moves of the current cycle, so older
        instructions live in the memory, exception and writeback latches.
        """
        destinations: set[int] = set()
        latches = self.latches
        for valid, trap, op, rd in self._hazard_slots:
            if latches.get_at(valid) and not latches.get_at(trap):
                opcode = OPCODE_BY_VALUE.get(latches.get_at(op))
                if opcode is None:
                    continue
                if OPCODE_INFO[opcode].writes_rd:
                    destination = latches.get_at(rd)
                    if destination != 0:
                        destinations.add(destination)
        return destinations

    # ------------------------------------------------------------------ pipeline stages
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
        self._touch_background_state()

    # WB: commit results, outputs, halts and traps.
    def _commit_writeback(self) -> None:
        latches = self.latches
        s = self._slots
        if not latches.get_at(s.w_valid):
            return
        if latches.get_at(s.w_trap):
            kind = _TRAP_FROM_CODE.get(latches.get_at(s.w_trapkind),
                                       TrapKind.ILLEGAL_INSTRUCTION)
            reason = (TerminationReason.DETECTED
                      if kind is TrapKind.SOFTWARE_ASSERTION
                      else TerminationReason.TRAP)
            self.force_termination(reason, kind)
            latches.set_at(s.w_valid, 0)
            return
        op_value = latches.get_at(s.w_op)
        if latches.get_at(s.w_wen):
            self._write_register(latches.get_at(s.w_rd), latches.get_at(s.w_result))
        if latches.get_at(s.w_outpending):
            self.emit_output(latches.get_at(s.w_outval))
        self.note_retired()
        if OPCODE_BY_VALUE.get(op_value) is Opcode.HALT:
            self.force_termination(TerminationReason.HALTED)
        latches.set_at(s.w_valid, 0)
        latches.set_at(s.w_wen, 0)
        latches.set_at(s.w_outpending, 0)

    # XC -> WB
    def _stage_exception_to_writeback(self) -> None:
        latches = self.latches
        s = self._slots
        if not latches.get_at(s.x_valid):
            latches.set_at(s.w_valid, 0)
            latches.set_at(s.w_wen, 0)
            latches.set_at(s.w_outpending, 0)
            return
        latches.set_at(s.w_op, latches.get_at(s.x_op))
        latches.set_at(s.w_rd, latches.get_at(s.x_rd))
        latches.set_at(s.w_result, latches.get_at(s.x_result))
        latches.set_at(s.w_trap, latches.get_at(s.x_trap))
        latches.set_at(s.w_trapkind, latches.get_at(s.x_trapkind))
        latches.set_at(s.w_outval, latches.get_at(s.x_outval))
        latches.set_at(s.w_outpending, latches.get_at(s.x_outpending))
        latches.set_at(s.w_valid, 1)
        wen = 0
        if not latches.get_at(s.x_trap):
            opcode = OPCODE_BY_VALUE.get(latches.get_at(s.x_op))
            if (opcode is not None and OPCODE_INFO[opcode].writes_rd
                    and latches.get_at(s.x_rd) != 0):
                wen = 1
        latches.set_at(s.w_wen, wen)
        # Status-register bookkeeping (hint-only state).
        latches.set_at(s.w_s_icc, latches.get_at(s.x_icc))
        latches.set_at(s.x_valid, 0)

    # ME -> XC: data memory access.
    def _stage_memory_to_exception(self) -> None:
        latches = self.latches
        s = self._slots
        if not latches.get_at(s.m_valid):
            latches.set_at(s.x_valid, 0)
            latches.set_at(s.x_outpending, 0)
            return
        latches.set_at(s.x_op, latches.get_at(s.m_op))
        latches.set_at(s.x_rd, latches.get_at(s.m_rd))
        latches.set_at(s.x_trap, latches.get_at(s.m_trap))
        latches.set_at(s.x_trapkind, latches.get_at(s.m_trapkind))
        latches.set_at(s.x_valid, 1)
        latches.set_at(s.x_outpending, 0)
        result = latches.get_at(s.m_result)
        if not latches.get_at(s.m_trap):
            opcode = OPCODE_BY_VALUE.get(latches.get_at(s.m_op))
            address = latches.get_at(s.m_addr)
            try:
                if opcode is Opcode.LW:
                    result = self.memory.load_word(address)
                elif opcode is Opcode.LB:
                    result = self.memory.load_byte(address)
                elif opcode is Opcode.SW:
                    self.memory.store_word(address, latches.get_at(s.m_storeval))
                elif opcode is Opcode.SB:
                    self.memory.store_byte(address, latches.get_at(s.m_storeval))
                elif opcode is Opcode.OUT:
                    latches.set_at(s.x_outval, latches.get_at(s.m_storeval))
                    latches.set_at(s.x_outpending, 1)
            except MemoryFault:
                latches.set_at(s.x_trap, 1)
                latches.set_at(s.x_trapkind, _TRAP_CODES[TrapKind.MEMORY_FAULT])
            # Track data-cache controller hint state.
            latches.set_at(s.dc_ctrl_state,
                           (latches.get_at(s.dc_ctrl_state) + 1) & 0xF)
        latches.set_at(s.x_result, result)
        latches.set_at(s.m_valid, 0)

    # EX -> ME: ALU, branch resolution.
    def _stage_execute_to_memory(self) -> bool:
        latches = self.latches
        s = self._slots
        if not latches.get_at(s.e_valid):
            latches.set_at(s.m_valid, 0)
            return False
        latches.set_at(s.m_op, latches.get_at(s.e_op))
        latches.set_at(s.m_rd, latches.get_at(s.e_rd))
        latches.set_at(s.m_trap, latches.get_at(s.e_trap))
        latches.set_at(s.m_trapkind, latches.get_at(s.e_trapkind))
        latches.set_at(s.m_valid, 1)
        latches.set_at(s.m_branch_taken, 0)
        redirect = False
        if not latches.get_at(s.e_trap):
            pc = latches.get_at(s.e_pc)
            imm = latches.get_signed_at(s.e_imm)
            rs1_value = latches.get_at(s.e_rs1val)
            rs2_value = latches.get_at(s.e_rs2val)
            opcode = OPCODE_BY_VALUE.get(latches.get_at(s.e_op))
            if opcode is None:
                latches.set_at(s.m_trap, 1)
                latches.set_at(s.m_trapkind, _TRAP_CODES[TrapKind.ILLEGAL_INSTRUCTION])
            else:
                try:
                    result = execute_operation(opcode, rs1_value, rs2_value, imm, pc)
                except ExecuteTrap as trap:
                    latches.set_at(s.m_trap, 1)
                    latches.set_at(s.m_trapkind, _TRAP_CODES[trap.kind])
                else:
                    latches.set_at(s.m_result, result.value)
                    if result.memory_address is not None:
                        latches.set_at(s.m_addr, result.memory_address)
                    if result.store_value is not None:
                        latches.set_at(s.m_storeval, result.store_value)
                    if result.output_value is not None:
                        # Reuse the store-value path to carry the OUT payload.
                        latches.set_at(s.m_storeval, result.output_value)
                    if OPCODE_INFO[opcode].is_branch:
                        self._predictor.update(pc, result.branch_taken)
                    if result.branch_taken:
                        redirect = True
                        latches.set_at(s.m_branch_taken, 1)
                        self._redirect_target = result.branch_target
        latches.set_at(s.e_valid, 0)
        return redirect

    # RA -> EX: register read with scoreboard stall.
    def _stage_regaccess_to_execute(self, redirect: bool) -> bool:
        latches = self.latches
        s = self._slots
        if redirect or not latches.get_at(s.a_valid):
            latches.set_at(s.e_valid, 0)
            if redirect:
                latches.set_at(s.a_valid, 0)
            return False
        opcode = OPCODE_BY_VALUE.get(latches.get_at(s.a_op))
        if opcode is not None and not latches.get_at(s.a_trap):
            info = OPCODE_INFO[opcode]
            hazards = self._hazard_destinations()
            sources = []
            if info.reads_rs1:
                sources.append(latches.get_at(s.a_rs1))
            if info.reads_rs2:
                sources.append(latches.get_at(s.a_rs2))
            if any(source in hazards for source in sources):
                # Stall: keep the regaccess latch, feed a bubble to execute.
                latches.set_at(s.e_valid, 0)
                return True
        latches.set_at(s.e_op, latches.get_at(s.a_op))
        latches.set_at(s.e_rd, latches.get_at(s.a_rd))
        latches.set_at(s.e_imm, latches.get_at(s.a_imm))
        latches.set_at(s.e_pc, latches.get_at(s.a_pc))
        latches.set_at(s.e_trap, latches.get_at(s.a_trap))
        latches.set_at(s.e_trapkind, latches.get_at(s.a_trapkind))
        latches.set_at(s.e_rs1val, self._read_register(latches.get_at(s.a_rs1)))
        latches.set_at(s.e_rs2val, self._read_register(latches.get_at(s.a_rs2)))
        latches.set_at(s.e_valid, 1)
        latches.set_at(s.a_valid, 0)
        return False

    # DE -> RA: decode.
    def _stage_decode_to_regaccess(self, redirect: bool, stalled: bool) -> None:
        latches = self.latches
        s = self._slots
        if stalled:
            return
        if redirect or not latches.get_at(s.d_valid):
            latches.set_at(s.a_valid, 0)
            if redirect:
                latches.set_at(s.d_valid, 0)
            return
        word = latches.get_at(s.d_inst)
        pc = latches.get_at(s.d_pc)
        latches.set_at(s.a_pc, pc)
        latches.set_at(s.a_valid, 1)
        latches.set_at(s.a_trap, 0)
        latches.set_at(s.a_trapkind, 0)
        trap_kind: TrapKind | None = None
        if latches.get_at(s.d_fetchfault):
            trap_kind = TrapKind.FETCH_FAULT
        else:
            try:
                instruction = decode_instruction(word)
            except EncodingError:
                trap_kind = TrapKind.ILLEGAL_INSTRUCTION
        if trap_kind is None:
            latches.set_at(s.a_op, int(instruction.opcode))
            latches.set_at(s.a_rd, instruction.rd)
            latches.set_at(s.a_rs1, instruction.rs1)
            latches.set_at(s.a_rs2, instruction.rs2)
            latches.set_at(s.a_imm, instruction.imm)
        else:
            latches.set_at(s.a_trap, 1)
            latches.set_at(s.a_trapkind, _TRAP_CODES[trap_kind])
            latches.set_at(s.a_op, 0)
            latches.set_at(s.a_rd, 0)
            latches.set_at(s.a_rs1, 0)
            latches.set_at(s.a_rs2, 0)
            latches.set_at(s.a_imm, 0)
        latches.set_at(s.d_valid, 0)

    # FE -> DE: instruction fetch.
    def _stage_fetch_to_decode(self, redirect: bool, stalled: bool) -> None:
        latches = self.latches
        s = self._slots
        if stalled:
            return
        if redirect:
            latches.set_at(s.d_valid, 0)
            latches.set_at(s.f_pc, self._redirect_target)
            latches.set_at(s.f_npc, self._redirect_target + WORD_BYTES)
            return
        pc = latches.get_at(s.f_pc)
        instruction = self._program.instruction_at(pc) if self._program else None
        if instruction is None:
            # Fetch fault: send a trap-carrying bubble down the pipeline.  It
            # only terminates the run if an older instruction (for example a
            # HALT already in flight) does not commit or redirect first.
            latches.set_at(s.d_inst, 0)
            latches.set_at(s.d_pc, pc)
            latches.set_at(s.d_fetchfault, 1)
            latches.set_at(s.d_valid, 1)
            return
        latches.set_at(s.d_fetchfault, 0)
        latches.set_at(s.d_inst, encode_instruction(instruction))
        latches.set_at(s.d_pc, pc)
        latches.set_at(s.d_valid, 1)
        latches.set_at(s.f_pc, pc + WORD_BYTES)
        latches.set_at(s.f_npc, pc + 2 * WORD_BYTES)
        latches.set_at(s.ic_ctrl_state, (latches.get_at(s.ic_ctrl_state) + 1) & 0xF)
        # Hint-only branch prediction bookkeeping.
        if OPCODE_INFO[instruction.opcode].is_branch:
            self._predictor.predict_taken(pc)

    def _touch_background_state(self) -> None:
        """Advance peripheral hint state so vanish-class flip-flops toggle."""
        latches = self.latches
        s = self._slots
        latches.set_at(s.irq_pending, (latches.get_at(s.irq_pending) + 1) & 0xFFFF)

    # ------------------------------------------------------------------ attributes
    _redirect_target: int = 0
