"""Tests for the fault-injection framework."""

from __future__ import annotations

import pytest

from repro.engine import InjectionEngine
from repro.faultinjection import (
    CalibratedVulnerabilityModel,
    FlipFlopInjector,
    HighLevelInjector,
    Injection,
    InjectionLevel,
    OutcomeCategory,
    OutcomeCounts,
    SemuModel,
    SiteProtection,
    VulnerabilityMap,
    classify_outcome,
    exhaustive_site_plan,
    margin_of_error,
    profile_for_core,
    uniform_injection_plan,
)
from repro.microarch import InOrderCore, TerminationReason
from repro.microarch.events import DetectionEvent, RunResult
from repro.physical import Placement


def _result(reason, output, trap=None, detections=()):
    return RunResult(program_name="p", core_name="c", reason=reason, trap=trap,
                     cycles=100, instructions_retired=40, output=list(output),
                     detections=list(detections))


class TestOutcomeClassification:
    def test_vanished(self):
        golden = _result(TerminationReason.HALTED, [1, 2])
        injected = _result(TerminationReason.HALTED, [1, 2])
        assert classify_outcome(golden, injected) is OutcomeCategory.VANISHED

    def test_omm_is_sdc(self):
        golden = _result(TerminationReason.HALTED, [1, 2])
        injected = _result(TerminationReason.HALTED, [1, 3])
        outcome = classify_outcome(golden, injected)
        assert outcome is OutcomeCategory.OMM and outcome.is_sdc

    def test_trap_is_ut(self):
        golden = _result(TerminationReason.HALTED, [1])
        injected = _result(TerminationReason.TRAP, [])
        outcome = classify_outcome(golden, injected)
        assert outcome is OutcomeCategory.UT and outcome.is_due

    def test_hang(self):
        golden = _result(TerminationReason.HALTED, [1])
        injected = _result(TerminationReason.HANG, [])
        assert classify_outcome(golden, injected) is OutcomeCategory.HANG

    def test_unrecovered_detection_is_ed(self):
        golden = _result(TerminationReason.HALTED, [1])
        injected = _result(TerminationReason.DETECTED, [],
                           detections=[DetectionEvent("parity", 5)])
        assert classify_outcome(golden, injected) is OutcomeCategory.ED

    def test_recovered_detection_with_matching_output_vanishes(self):
        golden = _result(TerminationReason.HALTED, [1])
        injected = _result(TerminationReason.HALTED, [1],
                           detections=[DetectionEvent("parity", 5, recovered=True)])
        assert classify_outcome(golden, injected) is OutcomeCategory.VANISHED


class TestOutcomeCounts:
    def test_counting_and_rates(self):
        counts = OutcomeCounts()
        counts.record(OutcomeCategory.OMM, 3)
        counts.record(OutcomeCategory.UT)
        counts.record(OutcomeCategory.ED)
        counts.record(OutcomeCategory.VANISHED, 5)
        assert counts.total == 10
        assert counts.sdc_count == 3
        assert counts.due_count == 2
        assert counts.rate(OutcomeCategory.VANISHED) == 0.5

    def test_merge(self):
        a = OutcomeCounts()
        a.record(OutcomeCategory.OMM, 2)
        b = OutcomeCounts()
        b.record(OutcomeCategory.OMM, 3)
        assert a.merged_with(b).sdc_count == 5

    def test_margin_of_error_decreases_with_samples(self):
        assert margin_of_error(100) > margin_of_error(10_000)
        assert margin_of_error(0) == 1.0


class TestInjectionPlans:
    def test_uniform_plan_shape(self):
        plan = uniform_injection_plan(100, 500, 50, seed=1)
        assert len(plan) == 50
        assert all(0 <= i.flat_index < 100 and 0 <= i.cycle < 500 for i in plan)
        assert plan == uniform_injection_plan(100, 500, 50, seed=1)

    def test_exhaustive_plan_covers_every_site(self):
        plan = exhaustive_site_plan(20, 100, 2, seed=1)
        assert len(plan) == 40
        assert {i.flat_index for i in plan} == set(range(20))


class TestFlipFlopInjector:
    def test_injection_changes_behaviour_sometimes(self, ino_core, small_workload):
        injector = FlipFlopInjector(ino_core, seed=3)
        program = small_workload.program()
        golden = injector.golden_run(program)
        outcomes = set()
        plan = uniform_injection_plan(ino_core.flip_flop_count, golden.cycles, 40, seed=3)
        for injection in plan:
            _, outcome = injector.run_with_injection(program, injection, golden)
            outcomes.add(outcome)
        assert OutcomeCategory.VANISHED in outcomes
        assert len(outcomes) >= 2  # at least some non-vanished outcomes

    def test_protected_site_suppresses_error(self, small_workload):
        class FullProtection:
            def site_protection(self, flat_index):
                return SiteProtection(technique="leap-dice", suppression=1.0)

        core = InOrderCore()
        injector = FlipFlopInjector(core, protection=FullProtection(), seed=1)
        program = small_workload.program()
        golden = injector.golden_run(program)
        plan = uniform_injection_plan(core.flip_flop_count, golden.cycles, 25, seed=5)
        for injection in plan:
            _, outcome = injector.run_with_injection(program, injection, golden)
            assert outcome is OutcomeCategory.VANISHED

    def test_detection_without_recovery_terminates_as_ed(self, small_workload):
        class DetectOnly:
            def site_protection(self, flat_index):
                return SiteProtection(technique="parity", detects=True, recoverable=False)

        core = InOrderCore()
        injector = FlipFlopInjector(core, protection=DetectOnly(), seed=1)
        program = small_workload.program()
        golden = injector.golden_run(program)
        injected, outcome = injector.run_with_injection(
            program, Injection(flat_index=10, cycle=golden.cycles // 2), golden)
        assert outcome is OutcomeCategory.ED
        assert injected.reason is TerminationReason.DETECTED

    def test_detection_with_recovery_vanishes_and_costs_cycles(self, small_workload):
        class DetectRecover:
            def site_protection(self, flat_index):
                return SiteProtection(technique="parity", detects=True, recoverable=True,
                                      recovery_latency=7)

        core = InOrderCore()
        injector = FlipFlopInjector(core, protection=DetectRecover(), seed=1)
        program = small_workload.program()
        golden = injector.golden_run(program)
        injected, outcome = injector.run_with_injection(
            program, Injection(flat_index=10, cycle=golden.cycles // 2), golden)
        assert outcome is OutcomeCategory.VANISHED
        assert injected.recovery_cycles == 7
        assert injected.cycles >= golden.cycles


class TestCampaign:
    def test_campaign_aggregates_and_contributes(self, small_workload):
        core = InOrderCore()
        engine = InjectionEngine(core, small_workload.program(), seed=11)
        result = engine.run(injections=30)
        assert result.injections == 30
        assert 0.0 < result.achieved_margin_of_error <= 1.0
        vulnerability = VulnerabilityMap(core.name, core.flip_flop_count)
        result.contribute_to(vulnerability)
        assert vulnerability.benchmarks == [small_workload.name]


class TestVulnerabilityMap:
    def test_record_and_rank(self):
        vmap = VulnerabilityMap("core", 4)
        vmap.record("b", 0, samples=10, sdc=5, due=1)
        vmap.record("b", 1, samples=10, sdc=1, due=8)
        vmap.record("b", 2, samples=10, sdc=0, due=0)
        assert vmap.probabilities()[0][0] == 0.5
        assert vmap.fraction_with_sdc() == 0.5
        assert vmap.fraction_with_any() == 0.5
        ranking = vmap.ranked_by_vulnerability()
        assert ranking[0] in (0, 1) and ranking[-1] in (2, 3)

    def test_ranking_metrics(self):
        vmap = VulnerabilityMap("core", 3)
        vmap.record("b", 0, samples=10, sdc=5, due=0)
        vmap.record("b", 1, samples=10, sdc=1, due=8)
        vmap.record("b", 2, samples=10, sdc=3, due=3)
        assert vmap.ranked_by_vulnerability(metric="sdc") == [0, 2, 1]
        assert vmap.ranked_by_vulnerability(metric="due") == [1, 2, 0]
        assert vmap.ranked_by_vulnerability(metric="sdc+due") == [1, 2, 0]

    @pytest.mark.parametrize("metric", ["SDC", "sdc_due", "due+sdc", ""])
    def test_unknown_ranking_metric_raises(self, metric):
        vmap = VulnerabilityMap("core", 2)
        vmap.record("b", 0, samples=10, sdc=5, due=1)
        with pytest.raises(ValueError, match="metric"):
            vmap.ranked_by_vulnerability(metric=metric)

    def test_merged(self):
        """Merging sums counts per (benchmark, site); only then are
        probabilities taken, and averaged over benchmarks."""
        a = VulnerabilityMap("core", 2)
        a.record("b", 0, samples=2, sdc=2, due=0)
        b = VulnerabilityMap("core", 2)
        b.record("b", 0, samples=8, sdc=0, due=4)
        b.record("c", 0, samples=4, sdc=1, due=0)
        merged = a.merged(b)
        # 2/2 and 0/8 pool to 2/10, not to the mean of 1.0 and 0.0.
        assert merged.probabilities(["b"]) == ((0.2, 0.0), (0.4, 0.0))
        assert merged.probabilities() == (((0.2 + 0.25) / 2, 0.0),
                                          ((0.4 + 0.0) / 2, 0.0))
        assert a.probabilities() == ((1.0, 0.0), (0.0, 0.0))
        assert merged.benchmarks == ["b", "c"]


class TestCalibratedModel:
    def test_matches_profile_fractions(self, ino_core):
        profile = profile_for_core(ino_core.name)
        model = CalibratedVulnerabilityModel(ino_core.registry, ["a", "b", "c"], seed=5)
        vmap = model.build_map()
        assert abs(vmap.fraction_with_sdc() - profile.fraction_sdc_ffs) < 0.03
        assert abs(vmap.fraction_with_due() - profile.fraction_due_ffs) < 0.03
        assert abs(vmap.fraction_with_any() - profile.fraction_any_ffs) < 0.03

    def test_deterministic_given_seed(self, ino_core):
        first = CalibratedVulnerabilityModel(ino_core.registry, ["a"], seed=9).build_map()
        second = CalibratedVulnerabilityModel(ino_core.registry, ["a"], seed=9).build_map()
        assert first.total_sdc_rate() == second.total_sdc_rate()

    def test_top_decile_concentration(self, ino_framework):
        vmap = ino_framework.vulnerability
        ranking = vmap.ranked_by_vulnerability()
        total = vmap.total_sdc_rate()
        top = ranking[:len(ranking) // 10]
        p_sdc = vmap.probabilities()[0]
        top_share = sum(p_sdc[i] for i in top) / total
        assert top_share > 0.35  # heavy concentration in the top decile


class TestHighLevelInjection:
    def test_register_uniform_campaign(self, small_workload):
        core = InOrderCore()
        injector = HighLevelInjector(core, seed=2)
        result = injector.campaign(InjectionLevel.REGISTER_UNIFORM,
                                   small_workload.program(), count=15)
        assert result.counts.total == 15
        assert result.level is InjectionLevel.REGISTER_UNIFORM

    def test_plan_levels(self, small_workload):
        core = InOrderCore()
        injector = HighLevelInjector(core, seed=2)
        golden = core.run(small_workload.program())
        for level in (InjectionLevel.REGISTER_WRITE, InjectionLevel.VARIABLE_UNIFORM,
                      InjectionLevel.VARIABLE_WRITE):
            plan = injector.plan(level, small_workload.program(), golden, 5)
            assert len(plan) == 5


class TestSemu:
    def test_multiplicity_and_parity_constraint(self, ino_core):
        placement = Placement(ino_core.registry, seed=3)
        semu = SemuModel(placement, seed=3)
        distribution = semu.multiplicity_distribution(sample_size=200)
        assert sum(distribution.values()) == pytest.approx(1.0)
        assert max(distribution) >= 2  # some strikes upset multiple flip-flops
        event = semu.upset_set(0)
        assert 0 in event.upset_indices
        # A group spread by the layout constraint is never double-upset.
        far_apart = [0, ino_core.flip_flop_count // 2, ino_core.flip_flop_count - 1]
        assert not semu.violates_parity_group(far_apart)
