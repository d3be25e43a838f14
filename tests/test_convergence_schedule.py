"""The convergence-probe schedule: fewer probes, never different outcomes.

:func:`~repro.engine.executors.should_check` thins the fingerprint-grid
probes of every injected replay: all of the first ``DENSE_WINDOW`` grid
points after the injection, then power-of-two gaps capped at ``MAX_GAP``.
A skipped probe can only delay the convergence early-out, never change a
classification.  This module pins the schedule arithmetic, the convergence
hook's handling of skipped and matching probes, the probe saving on a
standard campaign, the engine-level consequence (campaign statistics are
bit-identical to full replay across serial / parallel / batched
executors), and the rules that switch the gate off: no fingerprint grid,
or a golden run that hung.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    EngineConfig,
    GoldenRunCache,
    InjectionEngine,
    ParallelExecutor,
)
from repro.engine.executors import (
    DENSE_WINDOW,
    MAX_GAP,
    _ConvergedEarly,
    _convergence_hook,
    should_check,
)
from repro.engine.checkpoint import record_checkpointed_golden
from repro.faultinjection import (
    HighLevelInjection,
    HighLevelInjector,
    InjectionLevel,
)
from repro.microarch import InOrderCore, OutOfOrderCore
from repro.microarch.events import TerminationReason
from repro.obs.phases import COUNT_FINGERPRINT_CHECKS
from repro.workloads import workload_by_name

CORE_CLASSES = (InOrderCore, OutOfOrderCore)


@pytest.fixture(scope="module")
def program():
    return workload_by_name("vpr").program()


class TestSitePlan:
    """The probe plan every injection site follows."""

    def test_dense_window_then_backoff(self):
        checked = [k for k in range(1, 4 * MAX_GAP) if should_check(k)]
        assert checked[:DENSE_WINDOW] == list(range(1, DENSE_WINDOW + 1))
        past_window = [k - DENSE_WINDOW for k in checked[DENSE_WINDOW:]]
        assert all(k % MAX_GAP == 0 or (k & (k - 1)) == 0
                   for k in past_window)

    def test_never_probes_at_or_before_the_injection(self):
        assert not should_check(0)
        assert not should_check(-5)

    @settings(max_examples=50, deadline=None)
    @given(start=st.integers(min_value=1, max_value=1 << 20))
    def test_gap_is_bounded_by_max_gap(self, start):
        assert any(should_check(k) for k in range(start, start + MAX_GAP))


class TestConvergenceHook:
    @pytest.fixture
    def core(self, program):
        core = InOrderCore()
        core.run(program, max_cycles=400)
        return core

    def test_matching_digest_converges(self, core):
        hook = _convergence_hook(
            lambda c, cycle: None, 0,
            SimpleNamespace(fingerprints={8: core.state_fingerprint()},
                            fingerprint_interval=8))
        with pytest.raises(_ConvergedEarly) as exc:
            hook(core, 8)
        assert exc.value.cycle == 8

    def test_plan_skips_suppress_the_probe(self, core):
        skipped = DENSE_WINDOW + 3
        assert not should_check(skipped)
        hook = _convergence_hook(
            lambda c, cycle: None, 0,
            SimpleNamespace(fingerprints={8 * skipped:
                                          core.state_fingerprint()},
                            fingerprint_interval=8))
        hook(core, 8 * skipped)  # skipped point, so no _ConvergedEarly


class TestEngineBitExactness:
    """The probe schedule must be invisible in the statistics."""

    @pytest.mark.parametrize("core_cls", CORE_CLASSES,
                             ids=lambda c: c.__name__)
    def test_probe_schedule_matches_ungated_campaign(self, core_cls, program):
        # Seed 11 leaves live replays on both cores (2 and 5 of the 8
        # injections fold inert); a plan whose injections all fold would
        # compare golden copies only.
        def run(config, executor=None):
            engine = InjectionEngine(core_cls(), program, seed=11,
                                     config=config, executor=executor,
                                     golden_cache=GoldenRunCache())
            return engine.run(injections=8)

        reference = run(EngineConfig(convergence_interval=0))
        # No grid, no gate: batched lanes and their scalar fallback must
        # never converge when the golden run carries no fingerprints.
        ungated_batched = run(EngineConfig(batch_width=8,
                                           convergence_interval=0))
        assert ungated_batched.converged_count == 0
        variants = [
            run(EngineConfig()),
            run(EngineConfig(), ParallelExecutor(workers=2)),
            run(EngineConfig(batch_width=8)),
            ungated_batched,
        ]
        for result in [reference] + variants:
            assert result.replayed_cycles > 0
            assert result.outcomes == reference.outcomes
            assert result.per_site == reference.per_site


class TestProbeCount:
    """The schedule pays: on the standard mcf campaign it probes at most a
    third as often as probing every grid point after the injection (1855
    probes on the in-order core, 3273 on the out-of-order core)."""

    DENSE_PROBES = {InOrderCore: 1855, OutOfOrderCore: 3273}

    @pytest.mark.parametrize("core_cls", CORE_CLASSES,
                             ids=lambda c: c.__name__)
    def test_probes_at_most_a_third_of_dense(self, core_cls):
        program = workload_by_name("mcf").program()

        def run(config):
            return InjectionEngine(core_cls(), program, seed=9,
                                   config=config,
                                   golden_cache=GoldenRunCache()
                                   ).run(injections=30)

        gated = run(EngineConfig(metrics=True))
        full = run(EngineConfig(convergence_interval=0))
        probes = gated.metrics["counters"][COUNT_FINGERPRINT_CHECKS]
        assert probes <= self.DENSE_PROBES[core_cls] // 3
        assert gated.outcomes == full.outcomes
        assert gated.per_site == full.per_site


class TestHighLevelCampaignGate:
    @pytest.mark.parametrize("level", [InjectionLevel.REGISTER_UNIFORM,
                                       InjectionLevel.VARIABLE_WRITE],
                             ids=lambda level: level.value)
    def test_gate_leaves_counts_bit_identical(self, small_workload, level):
        program = small_workload.program()
        ungated, gated = (
            HighLevelInjector(InOrderCore(), seed=5).campaign(
                level, program, count=25, convergence=convergence)
            for convergence in (False, True))
        assert gated.counts == ungated.counts
        assert gated.level is ungated.level is level
        assert ungated.converged_count == 0 and ungated.saved_cycles == 0
        assert gated.converged_count > 0
        assert gated.saved_cycles > 0
        assert gated.replayed_cycles < ungated.replayed_cycles

    def test_hung_golden_never_gates(self, program):
        """A golden run cut by its watchdog carries a fingerprint grid, but
        high-level replays on it must still simulate to termination -- even
        a flip of the hard-wired zero register, which changes nothing."""
        hung = record_checkpointed_golden(InOrderCore(), program,
                                          max_cycles=300)
        assert hung.golden.reason is TerminationReason.HANG
        assert hung.fingerprints
        injector = HighLevelInjector(InOrderCore(), seed=5)
        plan = injector.plan(InjectionLevel.REGISTER_UNIFORM, program,
                             hung.golden, 4)
        plan.append(HighLevelInjection(InjectionLevel.REGISTER_UNIFORM,
                                       cycle=10, register=0))
        for injection in plan:
            injected, converged_at, simulated = injector._replay(
                program, injection, hung)
            assert converged_at is None
            assert injected.reason is TerminationReason.HANG
