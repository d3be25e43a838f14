"""Assembled program images.

A :class:`Program` is what a core executes: a list of decoded instructions
(the text segment), an initial data segment and the symbol table produced by
the assembler.  Programs are value objects -- running one never mutates it --
so a single assembled benchmark can be reused across millions of injection
runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.isa.encoding import encode_instruction
from repro.isa.instructions import Instruction

WORD_BYTES = 4

# The memory map is kept below 2**28 so that ``li``/``la`` pseudo-instruction
# expansions (LUI of the upper 14 bits + ORI of the lower 14 bits) always fit
# the 15-bit signed immediate field of the binary encoding.
DEFAULT_DATA_BASE = 0x0010_0000
DEFAULT_STACK_TOP = 0x0020_0000
DEFAULT_OUTPUT_BASE = 0x0030_0000


@dataclass
class DataSegment:
    """Initial memory contents of a program.

    Attributes:
        base: byte address the segment is loaded at.
        words: initial 32-bit word values, laid out contiguously from ``base``.
    """

    base: int = DEFAULT_DATA_BASE
    words: list[int] = field(default_factory=list)

    def word_address(self, index: int) -> int:
        """Byte address of the ``index``-th word in the segment."""
        return self.base + WORD_BYTES * index

    def as_memory_image(self) -> dict[int, int]:
        """Return a ``{byte_address: word_value}`` map for loading memory."""
        return {self.word_address(i): value & 0xFFFFFFFF
                for i, value in enumerate(self.words)}


@dataclass
class Program:
    """An assembled program ready for execution on a simulated core.

    Attributes:
        name: human-readable benchmark name.
        instructions: the text segment, indexed by word (PC = index * 4).
        data: initial data segment.
        symbols: label -> byte-address map produced by the assembler.
        entry_point: byte address of the first instruction to execute.
        expected_output: optional golden output stream; populated by workload
            definitions that know their correct answer a priori.
    """

    name: str
    instructions: list[Instruction]
    data: DataSegment = field(default_factory=DataSegment)
    symbols: dict[str, int] = field(default_factory=dict)
    entry_point: int = 0
    expected_output: list[int] | None = None

    def __len__(self) -> int:
        return len(self.instructions)

    @cached_property
    def words(self) -> tuple[int, ...]:
        """The encoded text, which both cores fetch: ``words[pc >> 2]`` at
        an aligned ``pc``.  A misaligned ``pc``, or one past the end, is a
        fetch fault (:meth:`instruction_at` returns ``None`` there)."""
        return tuple(encode_instruction(i) for i in self.instructions)

    def instruction_at(self, pc: int) -> Instruction | None:
        """Return the instruction at byte address ``pc``.

        Returns ``None`` when ``pc`` falls outside the text segment or is not
        word aligned, which the cores treat as an instruction-fetch fault.
        """
        if pc % WORD_BYTES != 0 or pc < 0:
            return None
        index = pc // WORD_BYTES
        if index >= len(self.instructions):
            return None
        return self.instructions[index]

    def address_of(self, label: str) -> int:
        """Return the byte address of a label.

        Raises:
            KeyError: if the label is not defined.
        """
        return self.symbols[label]
