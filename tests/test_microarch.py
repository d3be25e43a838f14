"""Tests for the micro-architectural core models."""

from __future__ import annotations

import random

import pytest

from repro.isa import assemble
from repro.isa.simulator import FunctionalSimulator
from repro.microarch import (
    InOrderCore,
    MemoryFault,
    MemorySystem,
    OutOfOrderCore,
    TerminationReason,
    TrapKind,
)
from repro.microarch import inorder, ooo
from repro.microarch.flipflop import FlipFlopRegistry
from repro.microarch.state import LatchState
from repro.workloads import full_suite, suite_for_core


class TestFlipFlopRegistry:
    def test_registration_and_flat_indices(self):
        registry = FlipFlopRegistry("test")
        a = registry.register("a", 4, "u0")
        b = registry.register("b", 8, "u1")
        assert a.first_index == 0 and b.first_index == 4
        assert registry.total_flip_flops == 12
        site = registry.site(9)
        assert site.structure.name == "b" and site.bit == 5

    def test_duplicate_and_invalid(self):
        registry = FlipFlopRegistry("test")
        registry.register("a", 4, "u0")
        with pytest.raises(ValueError):
            registry.register("a", 2, "u0")
        with pytest.raises(ValueError):
            registry.register("b", 0, "u0")
        with pytest.raises(IndexError):
            registry.site(99)

    def test_freeze_prevents_additions(self):
        registry = FlipFlopRegistry("test")
        registry.register("a", 4, "u0")
        registry.freeze()
        with pytest.raises(ValueError):
            registry.register("b", 4, "u0")

    def test_units_and_fractions(self):
        registry = FlipFlopRegistry("test")
        registry.register("a", 4, "u0")
        registry.register("b", 4, "u1", architectural=False)
        assert registry.units() == ["u0", "u1"]
        assert registry.non_architectural_fraction() == 0.5


class TestLatchState:
    def test_set_get_masking_and_flip(self):
        registry = FlipFlopRegistry("test")
        registry.register("field", 4, "u")
        registry.freeze()
        latches = LatchState(registry)
        latches.set("field", 0x1F)
        assert latches.get("field") == 0xF
        latches.flip_bit("field", 0)
        assert latches.get("field") == 0xE
        name = latches.flip_flat(3)
        assert name == "field" and latches.get("field") == 0x6

    def test_deserialize_rejects_foreign_layout(self):
        """Serialized values from a differently-built registry must raise,
        not half-restore: the core would be left in a state neither run
        ever held."""
        registry = FlipFlopRegistry("test")
        registry.register("field", 8, "u")
        registry.freeze()
        latches = LatchState(registry)
        latches.set("field", 7)
        with pytest.raises(ValueError, match="registry expects 1"):
            latches.deserialize((3, 1))
        assert latches.get("field") == 7, "failed restore must not mutate"


class TestSlotTables:
    """The cores address latches by module slot constants: scalar slots,
    and, for the out-of-order queues, per-entry base slots plus field
    offsets."""

    @staticmethod
    def assert_entry(base, fields, latches, name: str) -> None:
        for offset, (field, _) in enumerate(fields):
            assert base + offset == latches.slot(f"{name}.{field}")

    def test_rob_table_covers_every_pointer_value(self, ooo_core):
        registry, latches = ooo_core.registry, ooo_core.latches
        pointers = ("rob.head", "rob.tail", "iq.e00.rob", "stq.e0.rob",
                    "rat.r00.rob")
        assert {registry.structure(name).width for name in pointers} == {6}
        assert len(ooo._ROB) == 64
        for i, base in enumerate(ooo._ROB):
            self.assert_entry(base, ooo._ROB_FIELDS, latches,
                              f"rob.e{i % 40:02d}")

    def test_fetch_buffer_table_covers_every_pointer_value(self, ooo_core):
        registry, latches = ooo_core.registry, ooo_core.latches
        assert registry.structure("fb.head").width == 3
        assert registry.structure("fb.tail").width == 3
        assert len(ooo._FB) == 8
        for i, base in enumerate(ooo._FB):
            self.assert_entry(base, ooo._FB_FIELDS, latches, f"fb.e{i % 6}")

    def test_other_tables_name_their_entries(self, ooo_core):
        latches = ooo_core.latches
        for bases, fields, name, count in (
                (ooo._IQ, ooo._IQ_FIELDS, "iq.e{:02d}", 16),
                (ooo._STQ, ooo._STQ_FIELDS, "stq.e{}", 8),
                (ooo._RAT, ooo._RAT_FIELDS, "rat.r{:02d}", 32),
                (ooo._CKPT, ooo._CKPT_FIELDS, "ckpt.c{}", 4)):
            assert len(bases) == count
            for i, base in enumerate(bases):
                self.assert_entry(base, fields, latches, name.format(i))

    def test_field_offsets_follow_registration_order(self):
        for prefix, fields in (("F_", ooo._FB_FIELDS),
                               ("R_", ooo._ROB_FIELDS),
                               ("Q_", ooo._IQ_FIELDS),
                               ("S_", ooo._STQ_FIELDS),
                               ("A_", ooo._RAT_FIELDS),
                               ("C_", ooo._CKPT_FIELDS)):
            for offset, (field, _) in enumerate(fields):
                assert getattr(ooo, prefix + field.upper()) == offset

    @pytest.mark.parametrize("core_fixture", ["ino_core", "ooo_core"])
    def test_scalar_slots_match_names(self, core_fixture, request):
        """Each core module's slot constants (``F_PC`` for ``f.pc``,
        ``ROB_HEAD`` for ``rob.head``) name their latch."""
        core = request.getfixturevalue(core_fixture)
        module, count = {"ino_core": (inorder, 55),
                         "ooo_core": (ooo, 19)}[core_fixture]
        by_field = {structure.name.replace(".", "_").upper(): structure.name
                    for structure in core.registry.structures}
        slots = {field: getattr(module, field) for field in by_field
                 if hasattr(module, field)}
        assert len(slots) == count
        for field, slot in slots.items():
            assert slot == core.latches.slot(by_field[field])

    @pytest.mark.parametrize("pointer", ["rob.head", "rob.tail",
                                         "fb.head", "fb.tail"])
    def test_pointer_forced_to_maximum_mid_run_terminates(self, pointer):
        from repro.workloads import workload_by_name

        core = OutOfOrderCore()
        program = workload_by_name("vpr").program()
        golden = core.run(program)
        middle = golden.cycles // 2
        maximum = (1 << core.registry.structure(pointer).width) - 1

        def force(core, cycle):
            if cycle == middle:
                core.latches.set(pointer, maximum)

        result = core.run(program, max_cycles=4 * golden.cycles,
                          cycle_hook=force)
        assert result.reason in TerminationReason
        assert result.cycles > middle


class TestLatchWidthInvariant:
    """Every latch value fits its structure's width at every cycle boundary.

    The pipeline stages write ``LatchState.values`` unmasked and mask only
    the values that can exceed a width, so a missing mask shows up here as a
    value outside ``[0, 2**width)``.
    """

    FLIPS_PER_PROGRAM = 6

    @staticmethod
    def violations(core, masks) -> list[str]:
        structures = core.registry.structures
        return [f"{structures[i].name}={value}"
                for i, (value, mask) in enumerate(zip(core.latches.values,
                                                      masks))
                if not 0 <= value <= mask]

    @pytest.mark.parametrize("core_fixture, programs", [
        ("ino_core", ("vpr", "fft", "crafty")),
        ("ooo_core", ("vpr", "crafty", "parser")),
    ], ids=["InO", "OoO"])
    def test_values_fit_widths_under_injection(self, core_fixture, programs,
                                               request):
        from repro.workloads import workload_by_name

        core = request.getfixturevalue(core_fixture)
        masks = [(1 << s.width) - 1 for s in core.registry.structures]
        rng = random.Random(2016)
        for name in programs:
            program = workload_by_name(name).program()
            golden = core.run(program).cycles
            for _ in range(self.FLIPS_PER_PROGRAM):
                flip_cycle = rng.randrange(golden)
                flat_index = rng.randrange(core.flip_flop_count)

                def check_then_flip(core, cycle):
                    bad = self.violations(core, masks)
                    assert not bad, (name, flat_index, cycle, bad)
                    if cycle == flip_cycle:
                        core.latches.flip_flat(flat_index)

                core.run(program, max_cycles=max(2 * golden, golden + 64),
                         cycle_hook=check_then_flip)
                assert not self.violations(core, masks), (name, flat_index)


class TestMemorySystem:
    def test_word_and_byte_access(self):
        from repro.isa.program import DEFAULT_DATA_BASE

        memory = MemorySystem()
        memory.reset(assemble("halt"))
        memory.store_word(DEFAULT_DATA_BASE, 0x11223344)
        assert memory.load_word(DEFAULT_DATA_BASE) == 0x11223344
        assert memory.load_byte(DEFAULT_DATA_BASE + 1) == 0x33
        memory.store_byte(DEFAULT_DATA_BASE + 3, 0xAA)
        assert memory.load_word(DEFAULT_DATA_BASE) == 0xAA223344

    @pytest.mark.parametrize("address", [0x0, 0xFFFF_FFF0])
    def test_unmapped_access_faults(self, address):
        memory = MemorySystem()
        memory.reset(assemble("halt"))
        with pytest.raises(MemoryFault):
            memory.load_word(address)

    def test_misaligned_access_faults(self):
        from repro.isa.program import DEFAULT_DATA_BASE

        memory = MemorySystem()
        memory.reset(assemble("halt"))
        with pytest.raises(MemoryFault):
            memory.load_word(DEFAULT_DATA_BASE + 2)


class TestCoreProperties:
    def test_flip_flop_counts_match_paper_scale(self, ino_core, ooo_core):
        # Table 1: 1,250 flip-flops (InO) and 13,819 (OoO); our models land in
        # the same regime with the OoO core roughly an order of magnitude larger.
        assert 600 <= ino_core.flip_flop_count <= 2000
        assert 10_000 <= ooo_core.flip_flop_count <= 16_000
        assert ooo_core.flip_flop_count > 8 * ino_core.flip_flop_count

    def test_vanish_class_fraction_ordering(self, ino_core, ooo_core):
        # The OoO core has a larger fraction of hint/bookkeeping flip-flops.
        assert (ooo_core.registry.non_architectural_fraction()
                > ino_core.registry.non_architectural_fraction())

    def test_clock_frequencies(self, ino_core, ooo_core):
        assert ino_core.clock_mhz == 2000.0
        assert ooo_core.clock_mhz == 600.0


@pytest.mark.parametrize("workload", full_suite(), ids=lambda w: w.name)
class TestInOrderCorrectness:
    def test_matches_reference_output(self, ino_core, workload):
        result = ino_core.run(workload.program(), max_cycles=300_000)
        assert result.reason is TerminationReason.HALTED
        assert result.output == workload.expected_output()

    def test_matches_functional_simulator(self, ino_core, workload):
        functional = FunctionalSimulator().run_output(workload.program())
        assert functional == workload.expected_output()


@pytest.mark.parametrize("workload", suite_for_core("OoO-core"), ids=lambda w: w.name)
def test_out_of_order_correctness(ooo_core, workload):
    result = ooo_core.run(workload.program(), max_cycles=300_000)
    assert result.reason is TerminationReason.HALTED
    assert result.output == workload.expected_output()


def test_ipc_regimes(ino_core, ooo_core):
    """InO IPC ~0.4 and OoO IPC >1 (Table 1 regime)."""
    from repro.workloads import workload_by_name

    program = workload_by_name("crafty").program()
    ino = ino_core.run(program)
    ooo = ooo_core.run(program)
    assert 0.2 < ino.ipc < 0.6
    assert ooo.ipc > 0.9
    assert ooo.cycles < ino.cycles


def _flip_fetch_pc_to(pc: int):
    """Cycle hook: at cycle 0, flip the fetch-pc latch's bits from the entry
    point 0 to ``pc``."""
    def hook(core, cycle):
        if cycle == 0:
            name = "f.pc" if isinstance(core, InOrderCore) else "fetch.pc"
            for bit in range(32):
                if pc >> bit & 1:
                    core.latches.flip_bit(name, bit)
    return hook


def test_fetch_fault_traps():
    cases = [
        ("nop\nnop", None),        # no halt: fetches one past the text
        ("nop\nhalt", 0x8),        # one past the text
        ("nop\nhalt", 0x2),        # misaligned
        ("nop\nhalt", 0x6),        # misaligned, inside the text
        ("nop\nhalt", 0xFFFFFFFC), # the last word of the address space
    ]
    for core_cls in (InOrderCore, OutOfOrderCore):
        for source, fetch_pc in cases:
            hook = None if fetch_pc is None else _flip_fetch_pc_to(fetch_pc)
            result = core_cls().run(assemble(source), max_cycles=1000,
                                    cycle_hook=hook)
            case = (core_cls.__name__, source, fetch_pc)
            assert result.reason is TerminationReason.TRAP, case
            assert result.trap is TrapKind.FETCH_FAULT, case


def test_illegal_memory_access_traps():
    core = OutOfOrderCore()
    program = assemble("li t0, 0\nlw t1, 0(t0)\nhalt")
    result = core.run(program, max_cycles=1000)
    assert result.reason is TerminationReason.TRAP
    assert result.trap is TrapKind.MEMORY_FAULT


def test_assert_instruction_is_detected_outcome():
    core = InOrderCore()
    program = assemble("li t0, 1\nli t1, 2\nassert_eq t0, t1\nhalt")
    result = core.run(program, max_cycles=1000)
    assert result.reason is TerminationReason.DETECTED
    assert result.trap is TrapKind.SOFTWARE_ASSERTION


def test_run_result_watchdog_hang():
    core = InOrderCore()
    program = assemble("loop:\n j loop\n halt")
    result = core.run(program, max_cycles=500)
    assert result.reason is TerminationReason.HANG
    assert result.cycles == 500


class _SquashedOp(ooo._InFlightOp):
    """An in-flight op a mispredict squashed.  Writeback reads an op's
    opcode only after its ROB entry's valid check passes, so each read is
    a squashed op completing into a valid entry."""

    @property
    def opcode(self):
        self.completions.append((self.pc, self.rob_index))
        return self.__dict__["opcode"]


class _SquashProbeCore(OutOfOrderCore):
    """Tags every executing op that a mispredict squashes, and records each
    one that later completes into a valid ROB entry."""

    def __init__(self):
        super().__init__()
        # audit: allow[state-coverage] the probe observes one run from reset and is never snapshotted
        self.squashed = 0
        self.completions = []

    def _resolve_branch(self, v, op, taken, target):
        super()._resolve_branch(v, op, taken, target)
        for executing in self._in_flight:
            if (type(executing) is ooo._InFlightOp
                    and not v[ooo._ROB[executing.rob_index] + ooo.R_VALID]):
                executing.__class__ = _SquashedOp
                executing.completions = self.completions
                self.squashed += 1


class TestSquashedOps:
    """A mispredict squash leaves the squashed ops executing; writeback must
    drop each one, never complete it into its ROB entry once a younger
    instruction re-allocated that entry."""

    @pytest.fixture(scope="class")
    def probed(self):
        program = next(w for w in suite_for_core(OutOfOrderCore())
                       if w.name == "inner_product").program()
        core = _SquashProbeCore()
        return core, core.run(program), OutOfOrderCore().run(program)

    def test_probe_sees_squashes_and_changes_nothing(self, probed):
        core, result, golden = probed
        assert core.squashed > 0
        assert result == golden

    @pytest.mark.xfail(strict=True, reason=(
        "writeback checks only the ROB entry's valid bit, so a squashed op "
        "completes into a re-allocated entry (4 times in inner_product's "
        "golden run); dropping squashed ops changes the out-of-order golden "
        "runs, so the fix re-pins tests/test_ooo_pins.py and "
        "perfbench/reference/ooo.json and waits for a change to the "
        "benchmark"))
    def test_no_squashed_op_completes_into_a_reallocated_entry(self, probed):
        core, _, _ = probed
        assert core.completions == []
