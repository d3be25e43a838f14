"""Pinned execute-unit semantics, opcode by opcode.

Both cores and the functional simulator compute through
:func:`~repro.microarch.execute.execute_operation`, so a drift in one
opcode's arithmetic, branch target or trap message moves every campaign
that reaches it.  These pins hold any rewrite of the execute unit to the
exact results it produced when they were recorded: for every
:class:`~repro.isa.instructions.Opcode`, a digest of every result field
(or of the trap kind and message) over an operand grid of edge values and
seeded draws.

A pin changes only with a deliberate change of the ISA's semantics.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.isa.instructions import Opcode
from repro.microarch.events import TrapKind
from repro.microarch.execute import ExecuteTrap, execute_operation

EDGE_OPERANDS = (0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF)
EDGE_IMMEDIATES = (-16384, -1, 0, 16383)
PCS = (0, 0x1000, 0xFFFFFFF8, 0xFFFFFFFC)
"""Byte addresses of the instruction, two of them at the 32-bit wrap."""

SEED = 25
DRAWS = 6
"""Seeded operands and immediates added to the edge values."""

DIGESTS = {
    # opcode name: sha256 of the results over the grid, 16 hex
    "ADD": "8ba941ad34708387",
    "SUB": "c86b22a7cc61c914",
    "MUL": "cbd0aa8a0b65c95b",
    "DIV": "daa0a30bb59e11a2",
    "REM": "4e017190e6643384",
    "AND": "e66e5da643aa22f4",
    "OR": "c92ef591098a4d1e",
    "XOR": "09b199ae3b708591",
    "SLL": "ff464bdc88aa0f4b",
    "SRL": "dff8c99f017004bf",
    "SRA": "937333f855da970a",
    "SLT": "a6c282e4ec686ede",
    "SLTU": "5e34f501ac217fa1",
    "ADDI": "46667d1d6e482fe4",
    "ANDI": "e43a02b9d9197f27",
    "ORI": "9814cb91ab2a3429",
    "XORI": "05eacfc42d322ad4",
    "SLTI": "0e576977a7ff909b",
    "SLLI": "110398ef6b97dfdf",
    "SRLI": "b370395f337d12f7",
    "SRAI": "535d8ca924615cb3",
    "LUI": "5155ecc0a660f651",
    "LW": "9b36445fe552d77b",
    "LB": "9b36445fe552d77b",
    "SW": "286e27600e679933",
    "SB": "286e27600e679933",
    "BEQ": "191171f2d83e8c51",
    "BNE": "c6b912e2f7489b34",
    "BLT": "cc5f5b679cad477e",
    "BGE": "037f7aba8bb6f12f",
    "BLTU": "9dc4352cc5fd62d4",
    "BGEU": "ac14641ec1db40c9",
    "JAL": "bea85b0bc891ab5d",
    "JALR": "114befd0cfcfd238",
    "OUT": "22777c33ed671c60",
    "HALT": "488174d6f888dd5f",
    "NOP": "488174d6f888dd5f",
    "ASSERT_EQ": "f6addb315f0ea415",
    "ASSERT_RANGE": "bc43196486d97911",
}


def _grid():
    rng = random.Random(SEED)
    operands = EDGE_OPERANDS + tuple(rng.getrandbits(32) for _ in range(DRAWS))
    immediates = EDGE_IMMEDIATES + tuple(rng.randint(-16384, 16383)
                                         for _ in range(DRAWS))
    for a in operands:
        for b in operands:
            for imm in immediates:
                for pc in PCS:
                    yield a, b, imm, pc


def _outcome(opcode, a, b, imm, pc):
    try:
        result = execute_operation(opcode, a, b, imm, pc)
    except ExecuteTrap as trap:
        return ("trap", trap.kind.value, trap.detail, str(trap))
    return (result.value, result.branch_taken, result.branch_target,
            result.memory_address, result.store_value, result.output_value)


def _digest(opcode) -> str:
    hasher = hashlib.sha256()
    for a, b, imm, pc in _grid():
        hasher.update(repr(_outcome(opcode, a, b, imm, pc)).encode())
    return hasher.hexdigest()[:16]


@pytest.mark.parametrize("opcode", list(Opcode), ids=lambda op: op.name)
def test_execute_results_are_pinned(opcode):
    assert _digest(opcode) == DIGESTS[opcode.name]


def test_every_opcode_is_pinned():
    assert set(DIGESTS) == {opcode.name for opcode in Opcode}


def test_divide_by_zero_traps_with_the_pc():
    for opcode in (Opcode.DIV, Opcode.REM):
        with pytest.raises(ExecuteTrap) as caught:
            execute_operation(opcode, 7, 0, 0, 0xFFFFFFFC)
        assert caught.value.kind is TrapKind.DIVIDE_BY_ZERO
        assert str(caught.value) == "divide_by_zero: pc=0xfffffffc"


@pytest.mark.parametrize("value", [0, 0x10, 0x7F, 0x80, -1])
def test_a_value_no_opcode_has_is_illegal(value):
    assert value not in {int(opcode) for opcode in Opcode}
    with pytest.raises(ExecuteTrap) as caught:
        execute_operation(value, 1, 2, 3, 0x100)
    assert caught.value.kind is TrapKind.ILLEGAL_INSTRUCTION
    assert caught.value.detail == f"unhandled opcode {value!r}"


class _Wavefront:
    """What the batched pre-pass units use of a wavefront; demotions are
    recorded, not performed."""

    def __init__(self, lanes: int):
        import numpy as np

        self.lanes = lanes
        self._zeros = np.zeros(lanes, dtype=np.int64)
        self.demoted: set[int] = set()

    def _demote_divergent(self, values) -> None:
        self.demoted.update(int(lane) for lane, value in enumerate(values)
                            if value != values[0])


def _control(outcome):
    if outcome[0] == "trap":
        return outcome[:2]
    return outcome[1:4]


@pytest.mark.parametrize("opcode", list(Opcode), ids=lambda op: op.name)
def test_batched_prepass_matches_the_scalar_unit(opcode):
    """Every lane the pre-pass keeps computes what the scalar unit computes
    for its operands, and it demotes exactly the lanes whose trap, branch
    decision, target or address differs from lane 0's."""
    np = pytest.importorskip("numpy")
    from repro.engine.batch import _LANE_UNITS

    grid = list(_grid())
    pairs = sorted({(a, b) for a, b, _, _ in grid})
    for imm, pc in sorted({(imm, pc) for _, _, imm, pc in grid}):
        for lead in (0, len(pairs) // 2, len(pairs) - 1):
            lanes = pairs[lead:] + pairs[:lead]
            a = np.array([pair[0] for pair in lanes], dtype=np.int64)
            b = np.array([pair[1] for pair in lanes], dtype=np.int64)
            wave = _Wavefront(len(lanes))
            result = _LANE_UNITS[opcode](wave, a, b, imm, pc)
            scalar = [_outcome(opcode, x, y, imm, pc) for x, y in lanes]
            assert wave.demoted == {
                lane for lane, outcome in enumerate(scalar)
                if _control(outcome) != _control(scalar[0])}
            for lane, outcome in enumerate(scalar):
                if lane in wave.demoted:
                    continue
                if isinstance(result, TrapKind):
                    assert outcome[:2] == ("trap", result.value)
                    continue
                store = result.store_value
                output = result.output_value
                assert outcome == (
                    int(result.value[lane]), result.branch_taken,
                    result.branch_target, result.memory_address,
                    None if store is None else int(store[lane]),
                    None if output is None else int(output[lane]))
