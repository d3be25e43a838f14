"""Tests for the ISA substrate: registers, encoding, assembler, simulator."""

from __future__ import annotations

import pytest

from repro.isa import (
    AssemblerError,
    EncodingError,
    Instruction,
    Opcode,
    OPCODE_INFO,
    assemble,
    decode_instruction,
    encode_instruction,
    register_index,
    register_name,
)
from repro.isa.instructions import InstructionFormat, LUI_SHIFT
from repro.isa.program import DEFAULT_DATA_BASE, Program, DataSegment
from repro.isa.simulator import FunctionalSimulator
from repro.microarch.events import TrapKind


class TestRegisters:
    def test_alias_round_trip(self):
        assert register_index("sp") == 2
        assert register_index("t0") == 5
        assert register_index("a0") == 10
        assert register_name(2) == "sp"

    def test_numeric_names(self):
        assert register_index("r7") == 7
        assert register_index("x31") == 31
        assert register_index("12") == 12

    @pytest.mark.parametrize("bad", ["r32", "x-1", "foo", "t9"])
    def test_invalid_names_raise(self, bad):
        with pytest.raises(ValueError):
            register_index(bad)

    def test_register_name_out_of_range(self):
        with pytest.raises(ValueError):
            register_name(32)


class TestEncoding:
    @pytest.mark.parametrize("opcode", list(Opcode))
    def test_round_trip_every_opcode(self, opcode):
        info = OPCODE_INFO[opcode]
        if info.fmt is InstructionFormat.R:
            instruction = Instruction(opcode, rd=3, rs1=4, rs2=5)
        elif info.fmt is InstructionFormat.B:
            instruction = Instruction(opcode, rs1=4, rs2=5, imm=-12)
        else:
            instruction = Instruction(opcode, rd=3, rs1=4, imm=100)
        assert decode_instruction(encode_instruction(instruction)) == instruction

    def test_immediate_overflow_rejected(self):
        with pytest.raises(EncodingError):
            encode_instruction(Instruction(Opcode.ADDI, rd=1, rs1=1, imm=1 << 20))

    def test_illegal_opcode_field_rejected(self):
        with pytest.raises(EncodingError):
            decode_instruction(0x7F << 25)

    def test_register_field_validation(self):
        with pytest.raises(EncodingError):
            encode_instruction(Instruction(Opcode.ADD, rd=40, rs1=0, rs2=0))


class TestAssembler:
    def test_simple_program(self):
        program = assemble("""
            li t0, 5
            li t1, 7
            add t2, t0, t1
            out t2
            halt
        """)
        assert len(program.instructions) == 7  # two li expansions + 3
        result = FunctionalSimulator().run(program)
        assert result.result.output == [12]

    def test_labels_and_branches(self):
        program = assemble("""
            li t0, 0
            li t1, 4
        loop:
            addi t0, t0, 1
            blt t0, t1, loop
            out t0
            halt
        """)
        assert FunctionalSimulator().run_output(program) == [4]

    def test_data_segment_and_loads(self):
        program = assemble("""
            .data
        values:
            .word 10, 20, 30
            .text
            la a0, values
            lw t0, 4(a0)
            out t0
            halt
        """)
        assert program.symbols["values"] == DEFAULT_DATA_BASE
        assert FunctionalSimulator().run_output(program) == [20]

    def test_space_directive_zero_fills(self):
        program = assemble("""
            .data
        buffer:
            .space 4
            .text
            la a0, buffer
            lw t0, 8(a0)
            out t0
            halt
        """)
        assert FunctionalSimulator().run_output(program) == [0]

    def test_call_and_ret(self):
        program = assemble("""
            li a0, 21
            call double
            out a0
            halt
        double:
            add a0, a0, a0
            ret
        """)
        assert FunctionalSimulator().run_output(program) == [42]

    @pytest.mark.parametrize("source", [
        "bogus t0, t1, t2",
        "addi t0, t1",
        "lw t0, 4[t1]",
        ".data\n .word nonsense",
    ])
    def test_errors_raise_assembler_error(self, source):
        with pytest.raises(AssemblerError):
            assemble(source)

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("a:\n nop\na:\n halt")

    def test_comments_ignored(self):
        program = assemble("""
            # full line comment
            li t0, 1   # trailing comment
            out t0     ; alt comment
            halt
        """)
        assert FunctionalSimulator().run_output(program) == [1]


class TestProgram:
    def test_instruction_at_bounds(self):
        program = assemble("nop\nhalt")
        assert program.instruction_at(0).opcode is Opcode.NOP
        assert program.instruction_at(4).opcode is Opcode.HALT
        assert program.instruction_at(8) is None
        assert program.instruction_at(2) is None

    def test_words_are_the_encoded_text(self):
        from repro.workloads import full_suite

        for workload in full_suite():
            program = workload.program()
            assert len(program.words) == len(program.instructions)
            for i, instruction in enumerate(program.instructions):
                assert program.words[i] == encode_instruction(instruction)
            assert program.words is program.words  # built once

    def test_data_segment_image(self):
        segment = DataSegment(base=0x100, words=[1, 2, 3])
        assert segment.as_memory_image() == {0x100: 1, 0x104: 2, 0x108: 3}

    def test_address_of_unknown_label(self):
        program = Program(name="p", instructions=[])
        with pytest.raises(KeyError):
            program.address_of("missing")


class TestFunctionalSimulator:
    def test_lui_shift_semantics(self):
        program = assemble("lui t0, 3\nout t0\nhalt")
        assert FunctionalSimulator().run_output(program) == [3 << LUI_SHIFT]

    def test_divide_by_zero_traps(self):
        program = assemble("li t0, 3\nli t1, 0\ndiv t2, t0, t1\nhalt")
        trace = FunctionalSimulator().run(program)
        assert trace.result.trap is TrapKind.DIVIDE_BY_ZERO

    def test_trace_collection(self):
        program = assemble("""
            .data
        buf:
            .word 0
            .text
            li t0, 9
            la a0, buf
            sw t0, 0(a0)
            halt
        """)
        trace = FunctionalSimulator().run(program, collect_trace=True)
        assert trace.memory_writes and trace.memory_writes[0].value == 9
        assert any(entry.rd == register_index("t0") for entry in trace.register_writes)
