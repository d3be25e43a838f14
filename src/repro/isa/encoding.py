"""Binary encoding of instructions.

Flip-flop-level fault injection flips single bits in pipeline latches.  For
latches that hold *instructions* (fetch/decode registers), the flipped bit
must map onto a concrete instruction word so that the corrupted value decodes
to a different -- possibly illegal -- instruction, exactly as it would in
RTL.  This module defines that 32-bit word layout:

========  =====================================
bits      field
========  =====================================
[31:25]   opcode (7 bits)
[24:20]   rd
[19:15]   rs1
[14:10]   rs2
[9:0]     unused for R-format
[14:0]    immediate (I/B-format, signed 15 bit)
========  =====================================

For I/B formats the ``rs2``/``rd`` field overlaps the immediate high bits are
avoided by giving the immediate its own low 15 bits, so every field remains
independently addressable by a bit flip.
"""

from __future__ import annotations

from repro.isa.instructions import (Instruction, InstructionFormat, OPCODE_BY_VALUE,
                                    OPCODE_INFO)

INSTRUCTION_BITS = 32
IMMEDIATE_BITS = 15
_IMM_MASK = (1 << IMMEDIATE_BITS) - 1
_IMM_SIGN = 1 << (IMMEDIATE_BITS - 1)
_IMM_MIN = -(1 << (IMMEDIATE_BITS - 1))
_IMM_MAX = (1 << (IMMEDIATE_BITS - 1)) - 1


class EncodingError(ValueError):
    """Raised when an instruction cannot be encoded or decoded."""


def _check_register(value: int, field_name: str) -> None:
    if not 0 <= value < 32:
        raise EncodingError(f"{field_name} out of range: {value}")


def encode_instruction(instruction: Instruction) -> int:
    """Encode an :class:`Instruction` into its 32-bit binary word."""
    info = OPCODE_INFO[instruction.opcode]
    _check_register(instruction.rd, "rd")
    _check_register(instruction.rs1, "rs1")
    _check_register(instruction.rs2, "rs2")

    word = int(instruction.opcode) << 25
    word |= instruction.rd << 20
    word |= instruction.rs1 << 15
    if info.fmt is InstructionFormat.R:
        word |= instruction.rs2 << 10
    else:
        imm = instruction.imm
        if not _IMM_MIN <= imm <= _IMM_MAX:
            raise EncodingError(
                f"immediate {imm} out of range for {info.mnemonic} "
                f"({_IMM_MIN}..{_IMM_MAX})")
        if info.fmt is InstructionFormat.B:
            # B-format carries rs2 in the rd slot so stores/branches keep both
            # source registers addressable; rd is never written.
            word &= ~(0x1F << 20)
            word |= instruction.rs2 << 20
        word |= imm & _IMM_MASK
    return word


def decode_instruction(word: int) -> Instruction:
    """Decode a 32-bit word back into an :class:`Instruction`.

    Raises:
        EncodingError: if the opcode field does not name a valid opcode.  The
            cores convert this into an illegal-instruction trap, which the
            outcome classifier records as an Unexpected Termination.
    """
    if not 0 <= word < (1 << INSTRUCTION_BITS):
        raise EncodingError(f"instruction word out of range: {word:#x}")
    opcode_value = (word >> 25) & 0x7F
    opcode = OPCODE_BY_VALUE.get(opcode_value)
    if opcode is None:
        raise EncodingError(f"illegal opcode field: {opcode_value:#x}")

    info = OPCODE_INFO[opcode]
    rd = (word >> 20) & 0x1F
    rs1 = (word >> 15) & 0x1F
    if info.fmt is InstructionFormat.R:
        rs2 = (word >> 10) & 0x1F
        return Instruction(opcode, rd=rd, rs1=rs1, rs2=rs2)
    imm = word & _IMM_MASK
    if imm & _IMM_SIGN:
        imm -= 1 << IMMEDIATE_BITS
    if info.fmt is InstructionFormat.B:
        return Instruction(opcode, rs1=rs1, rs2=rd, imm=imm)
    return Instruction(opcode, rd=rd, rs1=rs1, imm=imm)
