"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

import functools
import operator
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.faultinjection import OutcomeCategory, OutcomeCounts, margin_of_error
from repro.faultinjection.vulnerability import VulnerabilityMap
from repro.isa import Instruction, Opcode, OPCODE_INFO, decode_instruction, encode_instruction
from repro.isa.instructions import InstructionFormat
from repro.microarch.execute import execute_operation, to_signed, to_unsigned
from repro.microarch.flipflop import FlipFlopRegistry
from repro.microarch.state import LatchState
from repro.physical.costmodel import CostReport

_WORD = st.integers(min_value=0, max_value=0xFFFFFFFF)
_REG = st.integers(min_value=0, max_value=31)
_IMM = st.integers(min_value=-(1 << 14), max_value=(1 << 14) - 1)


@st.composite
def instructions(draw):
    opcode = draw(st.sampled_from(sorted(Opcode, key=int)))
    info = OPCODE_INFO[opcode]
    if info.fmt is InstructionFormat.R:
        return Instruction(opcode, rd=draw(_REG), rs1=draw(_REG), rs2=draw(_REG))
    if info.fmt is InstructionFormat.B:
        return Instruction(opcode, rs1=draw(_REG), rs2=draw(_REG), imm=draw(_IMM))
    return Instruction(opcode, rd=draw(_REG), rs1=draw(_REG), imm=draw(_IMM))


class TestEncodingProperties:
    @given(instructions())
    @settings(max_examples=300)
    def test_encode_decode_round_trip(self, instruction):
        assert decode_instruction(encode_instruction(instruction)) == instruction

    @given(instructions())
    def test_encoding_fits_32_bits(self, instruction):
        assert 0 <= encode_instruction(instruction) < (1 << 32)


class TestArithmeticProperties:
    @given(_WORD, _WORD)
    def test_add_matches_python_semantics(self, a, b):
        result = execute_operation(Opcode.ADD, a, b, 0, 0)
        assert result.value == (a + b) & 0xFFFFFFFF

    @given(_WORD, _WORD)
    def test_sub_then_add_round_trips(self, a, b):
        difference = execute_operation(Opcode.SUB, a, b, 0, 0).value
        restored = execute_operation(Opcode.ADD, difference, b, 0, 0).value
        assert restored == a

    @given(_WORD, _WORD)
    def test_xor_is_involution(self, a, b):
        once = execute_operation(Opcode.XOR, a, b, 0, 0).value
        twice = execute_operation(Opcode.XOR, once, b, 0, 0).value
        assert twice == a

    @given(_WORD)
    def test_signed_unsigned_round_trip(self, value):
        assert to_unsigned(to_signed(value)) == value

    @given(_WORD, _WORD)
    def test_sltu_consistent_with_comparison(self, a, b):
        assert execute_operation(Opcode.SLTU, a, b, 0, 0).value == int(a < b)

    @given(_WORD, _WORD, _IMM)
    def test_branch_taken_iff_predicate(self, a, b, offset):
        beq = execute_operation(Opcode.BEQ, a, b, offset, 0)
        bne = execute_operation(Opcode.BNE, a, b, offset, 0)
        assert beq.branch_taken == (a == b)
        assert beq.branch_taken != bne.branch_taken


class TestLatchStateProperties:
    @given(st.integers(min_value=1, max_value=64),
           st.integers(min_value=0, max_value=2**64 - 1),
           st.data())
    def test_double_flip_is_identity(self, width, value, data):
        registry = FlipFlopRegistry("prop")
        registry.register("field", width, "u")
        registry.freeze()
        latches = LatchState(registry)
        latches.set("field", value)
        original = latches.get("field")
        bit = data.draw(st.integers(min_value=0, max_value=width - 1))
        latches.flip_bit("field", bit)
        assert latches.get("field") != original
        latches.flip_bit("field", bit)
        assert latches.get("field") == original

    @given(st.integers(min_value=1, max_value=64),
           st.integers(min_value=0, max_value=2**70))
    def test_set_masks_to_width(self, width, value):
        registry = FlipFlopRegistry("prop")
        registry.register("field", width, "u")
        registry.freeze()
        latches = LatchState(registry)
        latches.set("field", value)
        assert latches.get("field") < (1 << width)


    @given(st.lists(st.integers(min_value=1, max_value=70), min_size=1,
                    max_size=8),
           st.data())
    def test_slot_accessors_agree_with_name_accessors(self, widths, data):
        registry = FlipFlopRegistry("prop")
        names = [f"s{i}" for i in range(len(widths))]
        for name, width in zip(names, widths):
            registry.register(name, width, "u")
        registry.freeze()
        by_name, by_slot = LatchState(registry), LatchState(registry)
        slots = [by_slot.slot(name) for name in names]
        masks = [(1 << width) - 1 for width in widths]
        assert slots == list(range(len(names)))
        index = st.integers(min_value=0, max_value=len(names) - 1)
        value = st.integers(min_value=-(2**72), max_value=2**72)
        operations = data.draw(st.lists(st.one_of(
            st.tuples(st.just("set"), index, value),
            st.tuples(st.just("deserialize"),
                      st.lists(st.integers(min_value=0, max_value=2**72),
                               min_size=len(names), max_size=len(names))),
            st.tuples(st.just("clear"))), max_size=25))
        for operation in operations:
            if operation[0] == "set":
                _, i, value = operation
                by_name.set(names[i], value)
                # A direct write bypasses the width mask, so the writer masks.
                by_slot.values[slots[i]] = value & masks[i]
            elif operation[0] == "deserialize":
                by_name.deserialize(operation[1])
                by_slot.deserialize(operation[1])
            else:
                by_name.clear()
                by_slot.clear()
            assert by_slot.serialize() == by_name.serialize()
            # Slots are positions: re-read the live list after every
            # operation, since deserialize and clear replace it.
            values = by_slot.values
            for name, slot in zip(names, slots):
                assert values[slot] == by_name.get(name)
                assert values[slot] == by_slot.get(name)


class TestOutcomeCountProperties:
    @given(st.lists(st.sampled_from(list(OutcomeCategory)), max_size=200))
    def test_totals_are_consistent(self, outcomes):
        counts = OutcomeCounts()
        for outcome in outcomes:
            counts.record(outcome)
        assert counts.total == len(outcomes)
        assert counts.sdc_count + counts.due_count <= counts.total
        assert counts.vanished_count == outcomes.count(OutcomeCategory.VANISHED)

    @given(st.integers(min_value=1, max_value=10**7),
           st.floats(min_value=0.0, max_value=1.0))
    def test_margin_of_error_bounds(self, samples, proportion):
        margin = margin_of_error(samples, proportion)
        assert 0.0 <= margin <= 1.0


class TestCostReportProperties:
    @given(st.floats(min_value=0, max_value=50), st.floats(min_value=0, max_value=50),
           st.floats(min_value=0, max_value=50), st.floats(min_value=0, max_value=50))
    def test_combination_is_commutative(self, a_area, a_power, b_area, b_power):
        a = CostReport.from_power_and_time(a_area, a_power, 0.0)
        b = CostReport.from_power_and_time(b_area, b_power, 0.0)
        ab = a.combined_with(b)
        ba = b.combined_with(a)
        assert ab.area_pct == ba.area_pct
        assert abs(ab.energy_pct - ba.energy_pct) < 1e-9

    @given(st.floats(min_value=0, max_value=100), st.floats(min_value=0, max_value=100))
    def test_energy_at_least_power_when_time_grows(self, power, time):
        report = CostReport.from_power_and_time(0.0, power, time)
        assert report.energy_pct >= report.power_pct - 1e-9


_BENCHMARK_NAMES = ("a", "b", "c", "d")


@st.composite
def _vulnerability_maps(draw):
    """Small maps over a few benchmarks, with the records they were built
    from; some sites recorded with 0 samples, some never recorded."""
    total = draw(st.integers(min_value=1, max_value=12))
    drawn = draw(st.lists(st.tuples(st.sampled_from(_BENCHMARK_NAMES),
                                    st.integers(min_value=0, max_value=total - 1),
                                    st.integers(min_value=0, max_value=9),
                                    st.integers(min_value=0, max_value=9),
                                    st.integers(min_value=0, max_value=9)),
                          max_size=30))
    records = []
    for name, flat_index, samples, sdc, due in drawn:
        sdc = min(sdc, samples)
        records.append((name, flat_index, samples, sdc, min(due, samples - sdc)))
    return _map_from(total, records), records


def _map_from(total, records):
    vulnerability = VulnerabilityMap("prop", total)
    for name, flat_index, samples, sdc, due in records:
        vulnerability.record(name, flat_index, samples=samples, sdc=sdc, due=due)
    return vulnerability


# None, [], subsets, reorderings, duplicates and unknown names.
_BENCHMARK_LISTS = st.one_of(
    st.none(), st.lists(st.sampled_from(_BENCHMARK_NAMES + ("unknown",)),
                        max_size=6))


def _site_counts(records):
    """(benchmark, flat_index) -> summed (samples, sdc, due)."""
    counts = {}
    for name, flat_index, *added in records:
        known = counts.get((name, flat_index), (0, 0, 0))
        counts[name, flat_index] = tuple(map(operator.add, known, added))
    return counts


def _site_probability(counts, name, flat_index, kind):
    """p_sdc (``kind`` 1) or p_due (``kind`` 2) of one site under one
    benchmark: count over samples, 0.0 without samples."""
    site = counts.get((name, flat_index), (0, 0, 0))
    return site[kind] / site[0] if site[0] else 0.0


def _reference_probabilities(total, records, benchmarks):
    """The per-site definition the dense arrays must reproduce bit for bit:
    per-benchmark probabilities summed left to right in the caller's order
    (the builtin ``sum`` is compensated from Python 3.12 on)."""
    counts = _site_counts(records)
    names = (sorted({record[0] for record in records})
             if benchmarks is None else benchmarks)
    if not names:
        return ((0.0,) * total,) * 2
    return tuple(
        tuple(functools.reduce(operator.add,
                               [_site_probability(counts, name, i, kind)
                                for name in names], 0.0) / len(names)
              for i in range(total))
        for kind in (1, 2))


class TestDenseVulnerabilityProperties:
    """``VulnerabilityMap.probabilities`` is the per-site average, memoised.

    The planner's equivalence baselines read the same arrays, so this is
    the test that pins the dense lookup itself."""

    @settings(max_examples=150, deadline=None)
    @given(drawn=_vulnerability_maps(), benchmarks=_BENCHMARK_LISTS)
    def test_dense_arrays_equal_per_site_average(self, drawn, benchmarks):
        vulnerability, records = drawn
        dense = vulnerability.probabilities(benchmarks)
        assert dense == _reference_probabilities(
            vulnerability.total_flip_flops, records, benchmarks)
        assert [vulnerability.sdc_probability(i, benchmarks)
                for i in range(vulnerability.total_flip_flops)] \
            == list(dense[0])
        assert vulnerability.probabilities(benchmarks) is dense
        if benchmarks is None:
            assert vulnerability.probabilities(vulnerability.benchmarks) is dense

    @settings(max_examples=100, deadline=None)
    @given(drawn=_vulnerability_maps(), benchmarks=_BENCHMARK_LISTS,
           data=st.data())
    def test_record_after_query_changes_the_next_answer(self, drawn,
                                                        benchmarks, data):
        vulnerability, records = drawn
        names = vulnerability.benchmarks if benchmarks is None else benchmarks
        before = vulnerability.probabilities(benchmarks)
        name = names[0] if names else "a"
        flat_index = data.draw(st.integers(
            min_value=0, max_value=vulnerability.total_flip_flops - 1))
        # One more sample moves p_sdc at this site off its current value.
        p_sdc = _site_probability(_site_counts(records), name, flat_index, 1)
        sdc = 1 if p_sdc < 1.0 else 0
        vulnerability.record(name, flat_index, samples=1, sdc=sdc, due=0)
        records.append((name, flat_index, 1, sdc, 0))
        after = vulnerability.probabilities(benchmarks)
        assert after == _reference_probabilities(
            vulnerability.total_flip_flops, records, benchmarks)
        if names or benchmarks is None:
            assert after[0][flat_index] != before[0][flat_index]

    @settings(max_examples=100, deadline=None)
    @given(drawn=_vulnerability_maps(), benchmarks=_BENCHMARK_LISTS,
           extra=st.tuples(st.sampled_from(_BENCHMARK_NAMES),
                           st.integers(min_value=0, max_value=11),
                           st.integers(min_value=1, max_value=9)))
    def test_pickled_map_recorded_after_a_query_equals_a_fresh_map(
            self, drawn, benchmarks, extra):
        """A map pickled after a query -- memo included -- round-trips to a
        map that answers later writes exactly as a freshly built one does."""
        vulnerability, records = drawn
        vulnerability.probabilities(benchmarks)
        copy = pickle.loads(pickle.dumps(vulnerability))
        copy.probabilities(benchmarks)
        name, flat_index, samples = extra
        flat_index %= copy.total_flip_flops
        copy.record(name, flat_index, samples=samples, sdc=samples, due=0)
        fresh = _map_from(copy.total_flip_flops,
                          records + [(name, flat_index, samples, samples, 0)])
        assert copy.probabilities(benchmarks) == fresh.probabilities(benchmarks)
        assert copy.benchmarks == fresh.benchmarks


@st.composite
def _registries(draw):
    """Small frozen registries with mixed widths and architectural flags."""
    widths = draw(st.lists(st.integers(min_value=1, max_value=64),
                           min_size=1, max_size=6))
    registry = FlipFlopRegistry("prop")
    for position, width in enumerate(widths):
        registry.register(f"s{position}", width, f"u{position % 2}",
                          architectural=draw(st.booleans()))
    registry.freeze()
    return registry


class TestArrayLatchStateEquivalence:
    """The array-backed LatchState must be observationally identical to the
    obvious dict-of-values model under any operation sequence: same reads,
    same serialize/fingerprint keys, same snapshot/restore round-trips."""

    @settings(max_examples=60, deadline=None)
    @given(registry=_registries(), data=st.data())
    def test_operation_sequence_matches_dict_model(self, registry, data):
        latches = LatchState(registry)
        model: dict[str, int] = {s.name: 0 for s in registry.structures}
        masks = {s.name: (1 << s.width) - 1 for s in registry.structures}
        names = sorted(model)
        operations = data.draw(st.lists(st.tuples(
            st.sampled_from(["set", "flip", "flip_flat"]),
            st.sampled_from(names),
            st.integers(min_value=0, max_value=2**64 - 1)), max_size=12))
        for kind, name, value in operations:
            if kind == "set":
                latches.set(name, value)
                model[name] = value & masks[name]
            elif kind == "flip":
                bit = value % registry.structure(name).width
                latches.flip_bit(name, bit)
                model[name] ^= 1 << bit
            else:
                flat = value % registry.total_flip_flops
                site = registry.site(flat)
                latches.flip_flat(flat)
                model[site.structure.name] ^= 1 << site.bit
        for name in names:
            assert latches.get(name) == model[name]
        assert latches.serialize() == tuple(
            model[s.name] for s in registry.structures)
        # serialize -> deserialize round-trips onto a fresh instance
        # bit-identically.
        via_serialize = LatchState(registry)
        via_serialize.deserialize(latches.serialize())
        assert via_serialize.serialize() == latches.serialize()
        assert via_serialize.fingerprint_digest() == \
            latches.fingerprint_digest()


class TestMemoryDigestProperties:
    @settings(max_examples=40, deadline=None)
    @given(ops=st.lists(
        st.tuples(st.sampled_from(["word", "byte", "restore", "probe"]),
                  st.integers(min_value=0, max_value=63), _WORD),
        max_size=40))
    def test_cached_digest_matches_a_fresh_recompute(self, ops):
        """The write-invalidated digest cache never serves a stale digest:
        after any interleaving of word/byte stores, wholesale restores and
        probes it equals the digest of a fresh memory holding the same
        words.  Addresses stride across many 1 KiB pages (521 words apart),
        so page creation, mutation and all-zero deletion are all exercised."""
        from repro.isa.program import DEFAULT_DATA_BASE
        from repro.microarch.memory import MemorySystem

        def fresh_digest(words):
            memory = MemorySystem()
            memory.restore_words(words)
            return memory.fingerprint_digest()

        memory = MemorySystem()
        image: dict[int, int] = {}
        for kind, slot, value in ops:
            address = DEFAULT_DATA_BASE + 4 * slot * 521
            if kind == "word":
                memory.store_word(address, value)
            elif kind == "byte":
                memory.store_byte(address + value % 4, value)
            elif kind == "restore":
                memory.restore_words(image)
            else:
                image = memory.snapshot_words()
                assert memory.fingerprint_digest() == fresh_digest(image)
        assert memory.fingerprint_digest() == \
            fresh_digest(memory.snapshot_words())


class TestBatchedReplayProperties:
    """Whole-campaign property: any seed, width and convergence setting must
    leave outcome counts and per-site tallies bit-identical to scalar replay
    (the wavefront is a pure performance transform)."""

    @settings(max_examples=3, deadline=None)
    @given(data=st.data())
    def test_batched_campaign_equals_scalar_campaign(self, data):
        from repro.engine import EngineConfig, GoldenRunCache, InjectionEngine
        from repro.microarch import InOrderCore, OutOfOrderCore
        from repro.workloads import workload_by_name

        core_cls = data.draw(st.sampled_from([InOrderCore, OutOfOrderCore]),
                             label="core")
        seed = data.draw(st.integers(min_value=0, max_value=2**16),
                         label="seed")
        width = data.draw(st.sampled_from([3, 8]), label="batch_width")
        convergence = data.draw(st.booleans(), label="convergence")
        program = workload_by_name("vpr").program()
        runs = []
        for batch_width in (0, width):
            engine = InjectionEngine(
                core_cls(), program, seed=seed,
                config=EngineConfig(
                    batch_width=batch_width,
                    convergence_interval=None if convergence else 0),
                golden_cache=GoldenRunCache())
            runs.append(engine.run(injections=8))
        scalar, batched = runs
        assert batched.outcomes == scalar.outcomes
        assert batched.per_site == scalar.per_site
