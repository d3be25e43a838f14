"""End-to-end integration tests: injection campaigns against protected designs."""

from __future__ import annotations

import pytest

from repro.core import ResilienceTarget, SelectiveHardeningPlanner, sdc_improvement
from repro.engine import InjectionEngine
from repro.faultinjection import (
    FlipFlopInjector,
    OutcomeCategory,
    uniform_injection_plan,
)
from repro.microarch import InOrderCore, TerminationReason
from repro.physical import RecoveryKind
from repro.resilience import harden_top_flip_flops, ProtectedDesign
from repro.workloads import workload_by_name


@pytest.fixture(scope="module")
def baseline_campaign(small_workload):
    """A small measured campaign on the unprotected in-order core."""
    core = InOrderCore()
    engine = InjectionEngine(core, small_workload.program(), seed=42)
    return engine.run(injections=120)


def test_baseline_campaign_has_all_outcome_classes(baseline_campaign):
    counts = baseline_campaign.outcomes
    assert counts.total == 120
    assert counts.vanished_count > 0
    assert counts.sdc_count + counts.due_count > 0


def test_full_hardening_eliminates_measured_errors(small_workload, baseline_campaign):
    core = InOrderCore()
    plan = harden_top_flip_flops(list(range(core.flip_flop_count)),
                                 core.flip_flop_count)
    design = ProtectedDesign(registry=core.registry, hardening=plan)
    engine = InjectionEngine(core, small_workload.program(), protection=design,
                             seed=42)
    protected = engine.run(injections=120)
    assert protected.outcomes.sdc_count == 0
    assert protected.outcomes.due_count == 0
    improvement = sdc_improvement(baseline_campaign.outcomes, protected.outcomes,
                                  design.gamma())
    assert improvement > 1.0


def test_parity_with_flush_recovery_removes_most_sdc(small_workload, baseline_campaign):
    core = InOrderCore()
    framework_registry = core.registry
    # Protect everything with parity + flush recovery; unflushable stages with
    # LEAP-DICE, as Heuristic 1 prescribes.
    from repro.core import SelectionPolicy
    from repro.physical import TimingModel
    from repro.faultinjection import CalibratedVulnerabilityModel

    vulnerability = CalibratedVulnerabilityModel(
        framework_registry, [small_workload.name], seed=1).build_map()
    planner = SelectiveHardeningPlanner(framework_registry, vulnerability,
                                        TimingModel(framework_registry, seed=1),
                                        benchmarks=[small_workload.name])
    result = planner.plan(ResilienceTarget(sdc=float("inf")),
                          recovery=RecoveryKind.FLUSH, policy=SelectionPolicy())
    engine = InjectionEngine(core, small_workload.program(),
                             protection=result.design, seed=42)
    protected = engine.run(injections=120)
    assert protected.outcomes.sdc_count <= max(1, baseline_campaign.outcomes.sdc_count // 5)


def test_abft_protected_workload_detects_injected_corruption(small_workload):
    """Injections into the ABFT-protected matrix kernel either vanish, are
    detected by the checksum, or corrupt state the checksum cannot see --
    but the detection path is exercised."""
    workload = workload_by_name("inner_product")
    core = InOrderCore()
    injector = FlipFlopInjector(core, seed=9)
    program = workload.abft_program()
    golden = injector.golden_run(program)
    assert golden.reason is TerminationReason.HALTED
    outcomes = []
    plan = uniform_injection_plan(core.flip_flop_count, golden.cycles, 60, seed=9)
    for injection in plan:
        _, outcome = injector.run_with_injection(program, injection, golden)
        outcomes.append(outcome)
    assert OutcomeCategory.VANISHED in outcomes
    assert len([o for o in outcomes if o is not OutcomeCategory.VANISHED]) >= 1
