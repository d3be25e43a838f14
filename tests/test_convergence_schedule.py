"""Adaptive convergence-probe spacing: schedules that never change outcomes.

:class:`~repro.engine.schedule.SitePlan` thins the fingerprint-grid probes
of one injected replay, and :class:`~repro.engine.schedule.
ConvergenceSchedule` learns a plan per fault site from earlier campaigns.
A skipped probe can only delay the convergence early-out, never change a
classification.  This module pins the plan and schedule arithmetic, the
convergence hook's handling of skipped and matching probes, and the
engine-level consequence: campaign statistics are bit-identical with
adaptive spacing on or off, across serial / parallel / batched executors and
across repeat campaigns that refine the learned schedule.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import EngineConfig, GoldenRunCache, InjectionEngine
from repro.engine.executors import _ConvergedEarly, _convergence_hook
from repro.engine.schedule import (
    MAX_DENSE_WINDOW,
    MIN_DENSE_WINDOW,
    ConvergenceSchedule,
    SitePlan,
)
from repro.faultinjection import HighLevelInjector, InjectionLevel
from repro.microarch import InOrderCore, OutOfOrderCore
from repro.workloads import workload_by_name

CORE_CLASSES = (InOrderCore, OutOfOrderCore)


@pytest.fixture(scope="module")
def program():
    return workload_by_name("vpr").program()


class TestSitePlan:
    def test_dense_window_then_backoff(self):
        plan = SitePlan(dense_window=4, max_gap=8)
        checked = [k for k in range(1, 64) if plan.should_check(k)]
        assert checked[:4] == [1, 2, 3, 4]
        past_window = [k - 4 for k in checked[4:]]
        assert all(k % 8 == 0 or (k & (k - 1)) == 0 for k in past_window)

    def test_never_probes_at_or_before_the_injection(self):
        plan = SitePlan()
        assert not plan.should_check(0)
        assert not plan.should_check(-5)

    @settings(max_examples=50, deadline=None)
    @given(dense=st.integers(min_value=MIN_DENSE_WINDOW,
                             max_value=MAX_DENSE_WINDOW),
           max_gap=st.sampled_from([8, 16, 32, 64]))
    def test_gap_is_bounded_by_max_gap(self, dense, max_gap):
        plan = SitePlan(dense_window=dense, max_gap=max_gap)
        checked = [k for k in range(1, dense + 6 * max_gap)
                   if plan.should_check(k)]
        gaps = [b - a for a, b in zip(checked, checked[1:])]
        assert max(gaps) <= max_gap


class TestConvergenceSchedule:
    def test_unknown_site_gets_the_default_plan(self):
        assert ConvergenceSchedule().plan(3, 16) == SitePlan()

    def test_diverging_site_drops_to_the_minimum_window(self):
        schedule = ConvergenceSchedule()
        schedule.observe({5: (0, 4, 0)})
        assert schedule.plan(5, 16).dense_window == MIN_DENSE_WINDOW

    def test_converging_site_window_tracks_observed_lag(self):
        schedule = ConvergenceSchedule()
        interval = 16
        # 4 convergences at a mean lag of 5 grid points each.
        schedule.observe({2: (4, 0, 4 * 5 * interval)})
        assert schedule.plan(2, interval).dense_window == 5 + 2

    def test_observation_fold_is_order_invariant(self):
        batches = [{1: (1, 0, 32)}, {1: (0, 2, 0), 2: (1, 0, 16)},
                   {2: (2, 1, 64)}]
        forward, backward = ConvergenceSchedule(), ConvergenceSchedule()
        for batch in batches:
            forward.observe(batch)
        for batch in reversed(batches):
            backward.observe(batch)
        assert forward.history() == backward.history()
        assert forward.plans_for([1, 2, 3], 16) == \
            backward.plans_for([1, 2, 3], 16)


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
        plan = SitePlan(dense_window=0, max_gap=32)
        assert plan.should_check(1)   # backoff probes powers of two
        assert not plan.should_check(3)
        hook = _convergence_hook(
            lambda c, cycle: None, 0,
            SimpleNamespace(fingerprints={24: core.state_fingerprint()},
                            fingerprint_interval=8),
            plan=plan)
        hook(core, 24)  # grid point 3: skipped, so no _ConvergedEarly


class TestEngineBitExactness:
    """Adaptive spacing must be invisible in the statistics."""

    @pytest.mark.parametrize("core_cls", CORE_CLASSES,
                             ids=lambda c: c.__name__)
    def test_adaptive_matches_dense_across_executors(self, core_cls, program):
        def run(config):
            engine = InjectionEngine(core_cls(), program, seed=13,
                                     config=config,
                                     golden_cache=GoldenRunCache())
            return engine.run(injections=8)

        reference = run(EngineConfig())
        variants = [
            EngineConfig(adaptive_check_spacing=True),
            EngineConfig(adaptive_check_spacing=True,
                         workers=2, parallel_threshold=0, chunk_size=3),
            EngineConfig(adaptive_check_spacing=True, batch_width=8),
        ]
        for config in variants:
            result = run(config)
            assert result.outcomes == reference.outcomes
            assert result.per_site == reference.per_site

    def test_repeat_campaigns_refine_the_schedule_without_drift(self, program):
        adaptive = InjectionEngine(
            InOrderCore(), program, seed=21,
            config=EngineConfig(adaptive_check_spacing=True),
            golden_cache=GoldenRunCache())
        dense = InjectionEngine(InOrderCore(), program, seed=21,
                                config=EngineConfig(),
                                golden_cache=GoldenRunCache())
        for _ in range(2):
            learned = adaptive.run(injections=10)
            reference = dense.run(injections=10)
            assert learned.outcomes == reference.outcomes
            assert learned.per_site == reference.per_site
        # The second campaign ran against plans learned from the first.
        assert adaptive._schedule.history()


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
