"""Opcode definitions and the in-memory instruction representation.

The ISA is a compact 32-bit RISC machine with three instruction formats:

* **R-format** -- register/register ALU operations (``add rd, rs1, rs2``).
* **I-format** -- register/immediate ALU operations, loads, jumps and the
  I/O instructions (``addi rd, rs1, imm``; ``lw rd, imm(rs1)``).
* **B-format** -- conditional branches and stores, which carry two source
  registers and an immediate (``beq rs1, rs2, offset``;
  ``sw rs2, imm(rs1)``).

Instruction semantics are implemented by the cores in
:mod:`repro.microarch.execute`; this module only defines the static metadata
(formats, operand usage, latencies) both cores and the fault-injection
tooling rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, IntEnum, unique


@unique
class InstructionFormat(Enum):
    """Static instruction format, which determines operand fields used."""

    R = "R"
    I = "I"
    B = "B"


@unique
class Opcode(IntEnum):
    """All opcodes in the reproduction ISA.

    The numeric values double as the 7-bit opcode field of the binary
    encoding (:mod:`repro.isa.encoding`).
    """

    # R-format ALU
    ADD = 0x01
    SUB = 0x02
    MUL = 0x03
    DIV = 0x04
    REM = 0x05
    AND = 0x06
    OR = 0x07
    XOR = 0x08
    SLL = 0x09
    SRL = 0x0A
    SRA = 0x0B
    SLT = 0x0C
    SLTU = 0x0D

    # I-format ALU / upper immediate
    ADDI = 0x11
    ANDI = 0x12
    ORI = 0x13
    XORI = 0x14
    SLTI = 0x15
    SLLI = 0x16
    SRLI = 0x17
    SRAI = 0x18
    LUI = 0x19

    # Memory
    LW = 0x21
    LB = 0x22
    SW = 0x23
    SB = 0x24

    # Control flow
    BEQ = 0x31
    BNE = 0x32
    BLT = 0x33
    BGE = 0x34
    BLTU = 0x35
    BGEU = 0x36
    JAL = 0x37
    JALR = 0x38

    # System / I/O
    OUT = 0x41      # append register value to the program output stream
    HALT = 0x42     # normal program termination
    NOP = 0x43
    ASSERT_EQ = 0x44  # software-check helper: trap if rs1 != rs2
    ASSERT_RANGE = 0x45  # software-check helper: trap if rs1 > rs2 (unsigned)


@dataclass(frozen=True)
class OpcodeInfo:
    """Static metadata attached to each opcode."""

    mnemonic: str
    fmt: InstructionFormat
    reads_rs1: bool = False
    reads_rs2: bool = False
    writes_rd: bool = False
    is_branch: bool = False
    is_jump: bool = False
    is_load: bool = False
    is_store: bool = False
    is_output: bool = False
    is_halt: bool = False
    execute_latency: int = 1
    """Execute-stage latency in cycles (used by the out-of-order core)."""


OPCODE_INFO: dict[Opcode, OpcodeInfo] = {
    Opcode.ADD: OpcodeInfo("add", InstructionFormat.R, True, True, True),
    Opcode.SUB: OpcodeInfo("sub", InstructionFormat.R, True, True, True),
    Opcode.MUL: OpcodeInfo("mul", InstructionFormat.R, True, True, True, execute_latency=3),
    Opcode.DIV: OpcodeInfo("div", InstructionFormat.R, True, True, True, execute_latency=10),
    Opcode.REM: OpcodeInfo("rem", InstructionFormat.R, True, True, True, execute_latency=10),
    Opcode.AND: OpcodeInfo("and", InstructionFormat.R, True, True, True),
    Opcode.OR: OpcodeInfo("or", InstructionFormat.R, True, True, True),
    Opcode.XOR: OpcodeInfo("xor", InstructionFormat.R, True, True, True),
    Opcode.SLL: OpcodeInfo("sll", InstructionFormat.R, True, True, True),
    Opcode.SRL: OpcodeInfo("srl", InstructionFormat.R, True, True, True),
    Opcode.SRA: OpcodeInfo("sra", InstructionFormat.R, True, True, True),
    Opcode.SLT: OpcodeInfo("slt", InstructionFormat.R, True, True, True),
    Opcode.SLTU: OpcodeInfo("sltu", InstructionFormat.R, True, True, True),
    Opcode.ADDI: OpcodeInfo("addi", InstructionFormat.I, True, False, True),
    Opcode.ANDI: OpcodeInfo("andi", InstructionFormat.I, True, False, True),
    Opcode.ORI: OpcodeInfo("ori", InstructionFormat.I, True, False, True),
    Opcode.XORI: OpcodeInfo("xori", InstructionFormat.I, True, False, True),
    Opcode.SLTI: OpcodeInfo("slti", InstructionFormat.I, True, False, True),
    Opcode.SLLI: OpcodeInfo("slli", InstructionFormat.I, True, False, True),
    Opcode.SRLI: OpcodeInfo("srli", InstructionFormat.I, True, False, True),
    Opcode.SRAI: OpcodeInfo("srai", InstructionFormat.I, True, False, True),
    Opcode.LUI: OpcodeInfo("lui", InstructionFormat.I, False, False, True),
    Opcode.LW: OpcodeInfo("lw", InstructionFormat.I, True, False, True, is_load=True, execute_latency=2),
    Opcode.LB: OpcodeInfo("lb", InstructionFormat.I, True, False, True, is_load=True, execute_latency=2),
    Opcode.SW: OpcodeInfo("sw", InstructionFormat.B, True, True, False, is_store=True, execute_latency=1),
    Opcode.SB: OpcodeInfo("sb", InstructionFormat.B, True, True, False, is_store=True, execute_latency=1),
    Opcode.BEQ: OpcodeInfo("beq", InstructionFormat.B, True, True, False, is_branch=True),
    Opcode.BNE: OpcodeInfo("bne", InstructionFormat.B, True, True, False, is_branch=True),
    Opcode.BLT: OpcodeInfo("blt", InstructionFormat.B, True, True, False, is_branch=True),
    Opcode.BGE: OpcodeInfo("bge", InstructionFormat.B, True, True, False, is_branch=True),
    Opcode.BLTU: OpcodeInfo("bltu", InstructionFormat.B, True, True, False, is_branch=True),
    Opcode.BGEU: OpcodeInfo("bgeu", InstructionFormat.B, True, True, False, is_branch=True),
    Opcode.JAL: OpcodeInfo("jal", InstructionFormat.I, False, False, True, is_jump=True),
    Opcode.JALR: OpcodeInfo("jalr", InstructionFormat.I, True, False, True, is_jump=True),
    Opcode.OUT: OpcodeInfo("out", InstructionFormat.I, True, False, False, is_output=True),
    Opcode.HALT: OpcodeInfo("halt", InstructionFormat.I, False, False, False, is_halt=True),
    Opcode.NOP: OpcodeInfo("nop", InstructionFormat.I, False, False, False),
    Opcode.ASSERT_EQ: OpcodeInfo("assert_eq", InstructionFormat.B, True, True, False),
    Opcode.ASSERT_RANGE: OpcodeInfo("assert_range", InstructionFormat.B, True, True, False),
}

MNEMONIC_TO_OPCODE = {info.mnemonic: op for op, info in OPCODE_INFO.items()}

OPCODE_BY_VALUE: dict[int, Opcode] = {int(op): op for op in Opcode}
"""Opcode-field value -> :class:`Opcode`.

``OPCODE_BY_VALUE.get(value)`` is the per-cycle form of ``Opcode(value)``:
a corrupted or unassigned field yields ``None`` instead of raising, without
the cost of ``Enum.__call__``.
"""

LUI_SHIFT = 14
"""Left shift applied to the LUI immediate.

Chosen to equal the unsigned portion of the 15-bit immediate field so that a
``lui``/``ori`` pair can materialise any constant below 2**29, which covers
the whole simulated memory map.
"""


@dataclass(frozen=True)
class Instruction:
    """A single decoded instruction.

    Attributes:
        opcode: the operation to perform.
        rd: destination register index (0 when unused).
        rs1: first source register index (0 when unused).
        rs2: second source register index (0 when unused).
        imm: signed immediate operand (0 when unused).
        label: optional symbolic annotation kept for diagnostics.
    """

    opcode: Opcode
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0
    label: str = field(default="", compare=False)

    @property
    def info(self) -> OpcodeInfo:
        """Static metadata for this instruction's opcode."""
        return OPCODE_INFO[self.opcode]

    def destination(self) -> int | None:
        """Return the written register index, or ``None`` if none is written."""
        if self.info.writes_rd and self.rd != 0:
            return self.rd
        return None

    def sources(self) -> tuple[int, ...]:
        """Return the register indices read by this instruction."""
        sources: list[int] = []
        if self.info.reads_rs1:
            sources.append(self.rs1)
        if self.info.reads_rs2:
            sources.append(self.rs2)
        return tuple(sources)

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        from repro.isa.registers import register_name

        info = self.info
        if info.fmt is InstructionFormat.R:
            return (f"{info.mnemonic} {register_name(self.rd)}, "
                    f"{register_name(self.rs1)}, {register_name(self.rs2)}")
        if info.is_load:
            return (f"{info.mnemonic} {register_name(self.rd)}, "
                    f"{self.imm}({register_name(self.rs1)})")
        if info.is_store:
            return (f"{info.mnemonic} {register_name(self.rs2)}, "
                    f"{self.imm}({register_name(self.rs1)})")
        if info.is_branch:
            return (f"{info.mnemonic} {register_name(self.rs1)}, "
                    f"{register_name(self.rs2)}, {self.imm}")
        return f"{info.mnemonic} rd={self.rd} rs1={self.rs1} imm={self.imm}"


def is_branch(instruction: Instruction) -> bool:
    """Return True for conditional branches."""
    return instruction.info.is_branch


def is_load(instruction: Instruction) -> bool:
    """Return True for memory loads."""
    return instruction.info.is_load


def is_store(instruction: Instruction) -> bool:
    """Return True for memory stores."""
    return instruction.info.is_store


def is_arithmetic(instruction: Instruction) -> bool:
    """Return True for register-writing ALU operations (R- or I-format)."""
    info = instruction.info
    return info.writes_rd and not (info.is_load or info.is_jump)
