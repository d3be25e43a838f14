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

from repro.isa.encoding import EncodingError, decode_instruction
from repro.isa.instructions import Opcode, OPCODE_BY_VALUE, OPCODE_INFO
from repro.isa.program import Program, WORD_BYTES
from repro.isa.registers import NUM_REGISTERS
from repro.microarch.branch_predictor import BimodalPredictor
from repro.microarch.core import BaseCore, CoreClass
from repro.microarch.events import TerminationReason, TrapKind
from repro.microarch.execute import ExecuteResult, ExecuteTrap, execute_operation
from repro.microarch.flipflop import FlipFlopRegistry
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
_ILLEGAL = _TRAP_CODES[TrapKind.ILLEGAL_INSTRUCTION]
_MEMORY_FAULT = _TRAP_CODES[TrapKind.MEMORY_FAULT]
_FETCH_FAULT = _TRAP_CODES[TrapKind.FETCH_FAULT]

# Opcode-value tables, one entry per value of a 7-bit op latch (None or
# False for a value no opcode has).
_OPCODE = [OPCODE_BY_VALUE.get(value) for value in range(128)]
_INFO = [None if op is None else OPCODE_INFO[op] for op in _OPCODE]
_WRITES_RD = [info is not None and info.writes_rd for info in _INFO]
_LW, _LB, _SW, _SB, _OUT, _HALT = map(int, (
    Opcode.LW, Opcode.LB, Opcode.SW, Opcode.SB, Opcode.OUT, Opcode.HALT))
_WORD_MASK = 0xFFFFFFFF
_IMM_MASK = 0x7FFF
"""Width mask of the ``a.imm``/``e.imm`` latches (15-bit immediates)."""
_IMM_SIGN = 0x4000
_MISSING = object()

INO_CLOCK_MHZ = 2000.0
"""Nominal clock of the InO-core (2.0 GHz, Table 1)."""


def _declare_state(registry: FlipFlopRegistry) -> None:
    """Register the InO-core's flip-flop structures, in slot order."""
    reg = registry.register

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


_LAYOUT = FlipFlopRegistry("InO-core")
_declare_state(_LAYOUT)
_slot = {structure.name: slot
         for slot, structure in enumerate(_LAYOUT.structures)}.__getitem__

# The slot of every latch the cycle touches (the predictor keeps its own):
# registration order is slot order, the same in every InOrderCore, so the
# cycle indexes the latch list by these constants.
F_PC, F_NPC = map(_slot, ("f.pc", "f.npc"))
D_INST, D_PC, D_VALID, D_FETCHFAULT = map(_slot, (
    "d.inst", "d.pc", "d.valid", "d.fetchfault"))
A_OP, A_RD, A_RS1, A_RS2, A_IMM, A_PC, A_VALID, A_TRAP, A_TRAPKIND = map(
    _slot, ("a.op", "a.rd", "a.rs1", "a.rs2", "a.imm", "a.pc", "a.valid",
            "a.trap", "a.trapkind"))
(E_OP, E_RD, E_RS1VAL, E_RS2VAL, E_IMM, E_PC, E_VALID, E_TRAP,
 E_TRAPKIND) = map(_slot, (
    "e.op", "e.rd", "e.rs1val", "e.rs2val", "e.imm", "e.pc", "e.valid",
    "e.trap", "e.trapkind"))
(M_OP, M_RD, M_RESULT, M_ADDR, M_STOREVAL, M_VALID, M_TRAP, M_TRAPKIND,
 M_BRANCH_TAKEN) = map(_slot, (
    "m.op", "m.rd", "m.result", "m.addr", "m.storeval", "m.valid", "m.trap",
    "m.trapkind", "m.branch_taken"))
(X_OP, X_RD, X_RESULT, X_VALID, X_TRAP, X_TRAPKIND, X_OUTVAL, X_OUTPENDING,
 X_ICC) = map(_slot, (
    "x.op", "x.rd", "x.result", "x.valid", "x.trap", "x.trapkind",
    "x.outval", "x.outpending", "x.icc"))
(W_OP, W_RD, W_RESULT, W_WEN, W_VALID, W_TRAP, W_TRAPKIND, W_OUTVAL,
 W_OUTPENDING, W_S_ICC) = map(_slot, (
    "w.op", "w.rd", "w.result", "w.wen", "w.valid", "w.trap", "w.trapkind",
    "w.outval", "w.outpending", "w.s.icc"))
IC_CTRL_STATE, DC_CTRL_STATE, IRQ_PENDING = map(_slot, (
    "ic.ctrl.state", "dc.ctrl.state", "irq.pending"))
COUNTER_MASKS = {slot: (1 << _LAYOUT.structures[slot].width) - 1
                 for slot in (IRQ_PENDING, IC_CTRL_STATE, DC_CTRL_STATE)}
"""Slot -> width mask of each hint counter :meth:`InOrderCore._count`
advances."""


class InOrderCore(BaseCore):
    """Cycle-level model of the simple in-order core."""

    # The hint plane is behaviour-free.  Only these parts of the cycle touch
    # hint latches, and none reads one into a decision, a register, memory
    # or output:
    # * EX -> ME trains the bimodal predictor (f.bp.table, f.bp.history),
    #   which feeds only itself -- fetch is static not-taken;
    # * XC -> WB copies x.icc into w.s.icc, hint to hint;
    # * FE -> DE, ME -> XC and the end of every cycle advance the
    #   ic.ctrl.state / dc.ctrl.state / irq.pending counters, write-only.
    # Every other hint structure is never touched after reset.
    # tests/test_engine.py::TestHintPlane flips every hint bit and checks it.
    hint_plane_inert = True

    def __init__(self, name: str = "InO-core"):
        super().__init__(name=name, clock_mhz=INO_CLOCK_MHZ,
                         core_class=CoreClass.IN_ORDER)
        _declare_state(self.registry)
        self._finalize_state()
        self.memory = MemorySystem()
        self.registers: list[int] = [0] * NUM_REGISTERS
        # audit: allow[state-coverage] the predictor is a stateless view; its tables/history live in self.latches, which the contract covers
        self._predictor = BimodalPredictor(
            self.latches, "f.bp.table", "f.bp.history", entries=32)
        # Decode memo (fetch memoises in BaseCore._fetch_word).
        # audit: allow[state-coverage] word -> decoded latch fields memo; decoding is a pure function of the word
        self._decoded: dict[int, tuple | None] = {}

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

    # ------------------------------------------------------------------ hooks
    # The cycle reaches registers, the execute unit, hint counters, output,
    # fetch (BaseCore._fetch_word) and decode through these; the batched
    # lockstep replay's lane core overrides some and inherits the cycle.
    def _write_register(self, index: int, value: int) -> None:
        index &= 0x1F
        if index != 0:
            self.registers[index] = value & _WORD_MASK

    def _execute(self, opcode: Opcode, rs1_value: int, rs2_value: int,
                 imm: int, pc: int) -> ExecuteResult:
        """The execute stage's compute (raises :class:`ExecuteTrap`)."""
        return execute_operation(opcode, rs1_value, rs2_value, imm, pc)

    def _count(self, v: list, slot: int) -> None:
        """Advance the hint counter at ``slot`` of the latch list ``v`` by
        one (wrapping)."""
        v[slot] = (v[slot] + 1) & COUNTER_MASKS[slot]

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

    # ------------------------------------------------------------------ the cycle
    # One body runs the seven stages back to front, so every latch is drained
    # into the next before the stage behind refills it: WB commit, XC -> WB,
    # ME -> XC, EX -> ME, then RA -> EX, DE -> RA and FE -> DE, which a taken
    # branch squashes and a scoreboard stall freezes.  Every latch access is
    # an item access, by a module slot constant, on the list read at the
    # top: the dead-flip access log (repro.engine.liveness) sees each one and
    # keeps whether a slot's first access in a cycle is a read or a write,
    # so moving a read ahead of a write changes its masks.  Writes are not
    # masked, so each one stores a value already within its latch's width: a
    # move, a constant, a masked execute/memory/register result, or an
    # explicitly masked pc increment.  The batched lockstep replay runs this
    # same cycle with per-lane numpy columns in the lane-local latches.
    def _step_cycle(self) -> None:
        v = self.latches.values

        # WB: commit results, outputs, halts and traps.
        if v[W_VALID]:
            if v[W_TRAP]:
                kind = _TRAP_FROM_CODE.get(v[W_TRAPKIND],
                                           TrapKind.ILLEGAL_INSTRUCTION)
                self.force_termination(
                    TerminationReason.DETECTED
                    if kind is TrapKind.SOFTWARE_ASSERTION
                    else TerminationReason.TRAP, kind)
                v[W_VALID] = 0
                return
            if v[W_WEN]:
                self._write_register(v[W_RD], v[W_RESULT])
            if v[W_OUTPENDING]:
                self.emit_output(v[W_OUTVAL])
            self._retired += 1
            if v[W_OP] == _HALT:
                self.force_termination(TerminationReason.HALTED)
            v[W_VALID] = 0
            v[W_WEN] = 0
            v[W_OUTPENDING] = 0
        if self._termination is not None:
            return

        # XC -> WB
        if v[X_VALID]:
            op = v[W_OP] = v[X_OP]
            rd = v[W_RD] = v[X_RD]
            v[W_RESULT] = v[X_RESULT]
            trap = v[W_TRAP] = v[X_TRAP]
            v[W_TRAPKIND] = v[X_TRAPKIND]
            v[W_OUTVAL] = v[X_OUTVAL]
            v[W_OUTPENDING] = v[X_OUTPENDING]
            v[W_VALID] = 1
            v[W_WEN] = 1 if not trap and _WRITES_RD[op] and rd != 0 else 0
            # Status-register bookkeeping (hint-only state).
            v[W_S_ICC] = v[X_ICC]
            v[X_VALID] = 0
        else:
            v[W_VALID] = 0
            v[W_WEN] = 0
            v[W_OUTPENDING] = 0

        # ME -> XC: data memory access.
        if v[M_VALID]:
            op = v[X_OP] = v[M_OP]
            v[X_RD] = v[M_RD]
            trap = v[X_TRAP] = v[M_TRAP]
            v[X_TRAPKIND] = v[M_TRAPKIND]
            v[X_VALID] = 1
            v[X_OUTPENDING] = 0
            result = v[M_RESULT]
            if not trap:
                address = v[M_ADDR]
                memory = self.memory
                try:
                    if op == _LW:
                        result = memory.load_word(address)
                    elif op == _LB:
                        result = memory.load_byte(address)
                    elif op == _SW:
                        memory.store_word(address, v[M_STOREVAL])
                    elif op == _SB:
                        memory.store_byte(address, v[M_STOREVAL])
                    elif op == _OUT:
                        v[X_OUTVAL] = v[M_STOREVAL]
                        v[X_OUTPENDING] = 1
                except MemoryFault:
                    v[X_TRAP] = 1
                    v[X_TRAPKIND] = _MEMORY_FAULT
                # Track data-cache controller hint state.
                self._count(v, DC_CTRL_STATE)
            v[X_RESULT] = result
            v[M_VALID] = 0
        else:
            v[X_VALID] = 0
            v[X_OUTPENDING] = 0

        # EX -> ME: ALU, branch resolution.
        redirect = False
        if v[E_VALID]:
            op = v[M_OP] = v[E_OP]
            v[M_RD] = v[E_RD]
            trap = v[M_TRAP] = v[E_TRAP]
            v[M_TRAPKIND] = v[E_TRAPKIND]
            v[M_VALID] = 1
            v[M_BRANCH_TAKEN] = 0
            if not trap:
                pc = v[E_PC]
                imm = v[E_IMM]
                if imm & _IMM_SIGN:
                    imm -= _IMM_MASK + 1
                opcode = _OPCODE[op]
                if opcode is None:
                    v[M_TRAP] = 1
                    v[M_TRAPKIND] = _ILLEGAL
                else:
                    try:
                        result = self._execute(opcode, v[E_RS1VAL],
                                               v[E_RS2VAL], imm, pc)
                    except ExecuteTrap as exc:
                        v[M_TRAP] = 1
                        v[M_TRAPKIND] = _TRAP_CODES[exc.kind]
                    else:
                        v[M_RESULT] = result.value
                        if result.memory_address is not None:
                            v[M_ADDR] = result.memory_address
                        if result.store_value is not None:
                            v[M_STOREVAL] = result.store_value
                        if result.output_value is not None:
                            # The store-value path carries the OUT payload.
                            v[M_STOREVAL] = result.output_value
                        if _INFO[op].is_branch:
                            self._predictor.update(pc, result.branch_taken)
                        if result.branch_taken:
                            redirect = True
                            v[M_BRANCH_TAKEN] = 1
                            self._redirect_target = result.branch_target
            v[E_VALID] = 0
        else:
            v[M_VALID] = 0

        if redirect:
            # Squash RA and DE, refetch from the branch target.
            v[E_VALID] = 0
            v[A_VALID] = 0
            v[D_VALID] = 0
            target = self._redirect_target
            v[F_PC] = target
            v[F_NPC] = (target + WORD_BYTES) & _WORD_MASK
        else:
            # RA -> EX: register read, stalled by the scoreboard while an
            # older uncommitted instruction (ME, XC, WB) writes a source.
            stall = False
            if v[A_VALID]:
                op = v[A_OP]
                info = _INFO[op]
                if info is not None and not v[A_TRAP]:
                    busy = 0
                    if v[M_VALID] and not v[M_TRAP] and _WRITES_RD[v[M_OP]]:
                        busy = 1 << v[M_RD]
                    if v[X_VALID] and not v[X_TRAP] and _WRITES_RD[v[X_OP]]:
                        busy |= 1 << v[X_RD]
                    if v[W_VALID] and not v[W_TRAP] and _WRITES_RD[v[W_OP]]:
                        busy |= 1 << v[W_RD]
                    busy &= ~1  # r0 is never written
                    stall = busy and (
                        (info.reads_rs1 and busy >> v[A_RS1] & 1)
                        or (info.reads_rs2 and busy >> v[A_RS2] & 1))
                if stall:
                    # Keep the RA latch (and DE, FE), feed EX a bubble.
                    v[E_VALID] = 0
                else:
                    registers = self.registers
                    v[E_OP] = op
                    v[E_RD] = v[A_RD]
                    v[E_IMM] = v[A_IMM]
                    v[E_PC] = v[A_PC]
                    v[E_TRAP] = v[A_TRAP]
                    v[E_TRAPKIND] = v[A_TRAPKIND]
                    v[E_RS1VAL] = registers[v[A_RS1] & 0x1F]
                    v[E_RS2VAL] = registers[v[A_RS2] & 0x1F]
                    v[E_VALID] = 1
                    v[A_VALID] = 0
            else:
                v[E_VALID] = 0

            if not stall:
                # DE -> RA: decode.
                if v[D_VALID]:
                    v[A_PC] = v[D_PC]
                    v[A_VALID] = 1
                    if v[D_FETCHFAULT]:
                        fields = None
                        code = _FETCH_FAULT
                    else:
                        fields = self._decode_fields(v[D_INST])
                        code = _ILLEGAL
                    if fields is None:
                        v[A_TRAP] = 1
                        v[A_TRAPKIND] = code
                        fields = (0, 0, 0, 0, 0)
                    else:
                        v[A_TRAP] = 0
                        v[A_TRAPKIND] = 0
                    v[A_OP], v[A_RD], v[A_RS1], v[A_RS2], v[A_IMM] = fields
                    v[D_VALID] = 0
                else:
                    v[A_VALID] = 0

                # FE -> DE: instruction fetch.
                pc = v[F_PC]
                word = self._fetch_word(pc)
                v[D_PC] = pc
                v[D_VALID] = 1
                if word is None:
                    # Fetch fault: send a trap-carrying bubble down the
                    # pipeline.  It only terminates the run if an older
                    # instruction (a HALT already in flight, say) does not
                    # commit or redirect first.
                    v[D_INST] = 0
                    v[D_FETCHFAULT] = 1
                else:
                    v[D_FETCHFAULT] = 0
                    v[D_INST] = word
                    v[F_PC] = (pc + WORD_BYTES) & _WORD_MASK
                    v[F_NPC] = (pc + 2 * WORD_BYTES) & _WORD_MASK
                    self._count(v, IC_CTRL_STATE)

        # Peripheral hint state toggles so vanish-class flip-flops see traffic.
        self._count(v, IRQ_PENDING)

    # ------------------------------------------------------------------ attributes
    _redirect_target: int = 0
