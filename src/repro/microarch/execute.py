"""Shared execute-stage semantics.

Both cores perform the same 32-bit ALU/branch arithmetic; only the pipeline
organisation around it differs.  Keeping the semantics in one module means an
injected bit flip that reaches an operand latch produces identical functional
behaviour on either core.

The unit is a table: :data:`_UNITS` holds, for each value of the 7-bit
opcode field, one function ``(a, b, imm, pc)`` computing that opcode
(``None`` for a value no opcode has), and :func:`execute_operation` indexes
it by the opcode's value.  Each function returns an :class:`ExecuteResult`,
a slotted record built positionally.

It is the only copy of these semantics.  Its callers are the two cores'
execute stages, the functional simulator, and the batched lockstep replay's
execute pre-pass (:mod:`repro.engine.batch`), which runs it once per
distinct operand pair of its lanes.
"""

from __future__ import annotations

from repro.isa.instructions import LUI_SHIFT, Opcode
from repro.microarch.events import TrapKind

WORD_MASK = 0xFFFFFFFF
_SIGN = 0x8000_0000


def to_signed(value: int) -> int:
    """Interpret a 32-bit unsigned value as two's-complement signed."""
    value &= WORD_MASK
    if value & 0x8000_0000:
        return value - (1 << 32)
    return value


def to_unsigned(value: int) -> int:
    """Wrap a Python int into 32-bit unsigned representation."""
    return value & WORD_MASK


class ExecuteTrap(Exception):
    """Raised when the execute stage encounters a trap condition."""

    def __init__(self, kind: TrapKind, detail: str = ""):
        super().__init__(f"{kind.value}: {detail}")
        self.kind = kind
        self.detail = detail


class ExecuteResult:
    """Outcome of executing one instruction's compute portion.

    Attributes:
        value: ALU result / link value / effective address payload.
        branch_taken: True when a conditional branch or jump redirects fetch.
        branch_target: byte address fetch should redirect to when taken.
        memory_address: effective address for loads/stores (None otherwise).
        store_value: value to be written for stores (None otherwise).
        output_value: value emitted by ``out`` (None otherwise).
    """

    __slots__ = ("value", "branch_taken", "branch_target", "memory_address",
                 "store_value", "output_value")

    def __init__(self, value=0, branch_taken=False, branch_target=0,
                 memory_address=None, store_value=None, output_value=None):
        self.value = value
        self.branch_taken = branch_taken
        self.branch_target = branch_target
        self.memory_address = memory_address
        self.store_value = store_value
        self.output_value = output_value


# Operands arrive masked to 32 bits; ``(x ^ _SIGN) - _SIGN`` reads one as
# two's-complement signed.  DIV/REM truncate toward zero through float
# division, which is exact for every 32-bit operand pair.
def _divide(a, b, imm, pc):
    if b == 0:
        raise ExecuteTrap(TrapKind.DIVIDE_BY_ZERO, f"pc={pc:#x}")
    return ExecuteResult(int(((a ^ _SIGN) - _SIGN) / ((b ^ _SIGN) - _SIGN))
                         & WORD_MASK)


def _remainder(a, b, imm, pc):
    if b == 0:
        raise ExecuteTrap(TrapKind.DIVIDE_BY_ZERO, f"pc={pc:#x}")
    sa = (a ^ _SIGN) - _SIGN
    sb = (b ^ _SIGN) - _SIGN
    return ExecuteResult((sa - int(sa / sb) * sb) & WORD_MASK)


def _assert_eq(a, b, imm, pc):
    if a != b:
        raise ExecuteTrap(TrapKind.SOFTWARE_ASSERTION,
                          f"assert_eq failed at pc={pc:#x}: {a} != {b}")
    return ExecuteResult()


def _assert_range(a, b, imm, pc):
    if a > b:
        raise ExecuteTrap(TrapKind.SOFTWARE_ASSERTION,
                          f"assert_range failed at pc={pc:#x}: {a} > {b}")
    return ExecuteResult()


_R = ExecuteResult
_SEMANTICS = {
    Opcode.ADD: lambda a, b, imm, pc: _R((a + b) & WORD_MASK),
    Opcode.SUB: lambda a, b, imm, pc: _R((a - b) & WORD_MASK),
    Opcode.MUL: lambda a, b, imm, pc: _R(((a ^ _SIGN) - _SIGN) * ((b ^ _SIGN) - _SIGN) & WORD_MASK),
    Opcode.DIV: _divide,
    Opcode.REM: _remainder,
    Opcode.AND: lambda a, b, imm, pc: _R(a & b),
    Opcode.OR: lambda a, b, imm, pc: _R(a | b),
    Opcode.XOR: lambda a, b, imm, pc: _R(a ^ b),
    Opcode.SLL: lambda a, b, imm, pc: _R((a << (b & 31)) & WORD_MASK),
    Opcode.SRL: lambda a, b, imm, pc: _R(a >> (b & 31)),
    Opcode.SRA: lambda a, b, imm, pc: _R(((a ^ _SIGN) - _SIGN) >> (b & 31) & WORD_MASK),
    Opcode.SLT: lambda a, b, imm, pc: _R(1 if a ^ _SIGN < b ^ _SIGN else 0),
    Opcode.SLTU: lambda a, b, imm, pc: _R(1 if a < b else 0),
    Opcode.ADDI: lambda a, b, imm, pc: _R((a + imm) & WORD_MASK),
    Opcode.ANDI: lambda a, b, imm, pc: _R(a & imm & WORD_MASK),
    Opcode.ORI: lambda a, b, imm, pc: _R(a | (imm & WORD_MASK)),
    Opcode.XORI: lambda a, b, imm, pc: _R(a ^ (imm & WORD_MASK)),
    Opcode.SLTI: lambda a, b, imm, pc: _R(1 if (a ^ _SIGN) - _SIGN < imm else 0),
    Opcode.SLLI: lambda a, b, imm, pc: _R((a << (imm & 31)) & WORD_MASK),
    Opcode.SRLI: lambda a, b, imm, pc: _R(a >> (imm & 31)),
    Opcode.SRAI: lambda a, b, imm, pc: _R(((a ^ _SIGN) - _SIGN) >> (imm & 31) & WORD_MASK),
    Opcode.LUI: lambda a, b, imm, pc: _R((imm << LUI_SHIFT) & WORD_MASK),
    Opcode.LW: lambda a, b, imm, pc: _R(0, False, 0, (a + imm) & WORD_MASK),
    Opcode.LB: lambda a, b, imm, pc: _R(0, False, 0, (a + imm) & WORD_MASK),
    Opcode.SW: lambda a, b, imm, pc: _R(0, False, 0, (a + imm) & WORD_MASK, b),
    Opcode.SB: lambda a, b, imm, pc: _R(0, False, 0, (a + imm) & WORD_MASK, b),
    Opcode.BEQ: lambda a, b, imm, pc: _R(0, a == b, (pc + 4 + 4 * imm) & WORD_MASK),
    Opcode.BNE: lambda a, b, imm, pc: _R(0, a != b, (pc + 4 + 4 * imm) & WORD_MASK),
    Opcode.BLT: lambda a, b, imm, pc: _R(0, a ^ _SIGN < b ^ _SIGN, (pc + 4 + 4 * imm) & WORD_MASK),
    Opcode.BGE: lambda a, b, imm, pc: _R(0, a ^ _SIGN >= b ^ _SIGN, (pc + 4 + 4 * imm) & WORD_MASK),
    Opcode.BLTU: lambda a, b, imm, pc: _R(0, a < b, (pc + 4 + 4 * imm) & WORD_MASK),
    Opcode.BGEU: lambda a, b, imm, pc: _R(0, a >= b, (pc + 4 + 4 * imm) & WORD_MASK),
    Opcode.JAL: lambda a, b, imm, pc: _R((pc + 4) & WORD_MASK, True, (4 * imm) & WORD_MASK),
    Opcode.JALR: lambda a, b, imm, pc: _R((pc + 4) & WORD_MASK, True, (a + imm) & WORD_MASK & ~0x3),
    Opcode.OUT: lambda a, b, imm, pc: _R(0, False, 0, None, None, a),
    Opcode.HALT: lambda a, b, imm, pc: _R(),
    Opcode.NOP: lambda a, b, imm, pc: _R(),
    Opcode.ASSERT_EQ: _assert_eq,
    Opcode.ASSERT_RANGE: _assert_range,
}
_UNITS = [_SEMANTICS.get(value) for value in range(128)]


def execute_operation(opcode: Opcode, rs1_value: int, rs2_value: int, imm: int,
                      pc: int) -> ExecuteResult:
    """Execute the compute portion of one instruction.

    ``opcode`` is an :class:`Opcode` (or its value), ``rs1_value`` and
    ``rs2_value`` are 32-bit unsigned register contents, ``imm`` is the
    signed immediate and ``pc`` the byte address of the instruction.
    Memory is *not* accessed here; loads and stores only have their
    effective address computed.

    Raises:
        ExecuteTrap: for divide-by-zero, software assertion failures and a
            value no opcode has.
    """
    try:
        unit = _UNITS[opcode]
    except (IndexError, TypeError):
        unit = None
    if unit is None:
        raise ExecuteTrap(TrapKind.ILLEGAL_INSTRUCTION,
                          f"unhandled opcode {opcode!r}")
    return unit(rs1_value & WORD_MASK, rs2_value & WORD_MASK, imm, pc)
