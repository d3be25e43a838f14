"""Tests for the checkpointed parallel injection engine.

Covers the four invariants the engine rests on:

1. core snapshot/restore is bit-exact (property-tested on both cores);
2. checkpointed replay, serial or parallel, reproduces the legacy serial
   campaign loop exactly (outcome counts *and* per-site tallies);
3. the golden-run cache shares recorded runs across protection configs and
   distinguishes programs by content;
4. convergence-gated early termination is invisible in the statistics:
   campaigns report bit-identical outcome counts and per-site tallies with
   the gate on and off (both cores, both executors, varied seeds and grid
   intervals), and runs carrying detections, recoveries or output divergence
   never early-terminate.
"""

from __future__ import annotations

import pickle
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import (
    GOLDEN_RUN_CACHE,
    CheckpointedGoldenRun,
    EngineConfig,
    GoldenArtifactStore,
    GoldenRunCache,
    InjectionEngine,
    ParallelExecutor,
    PlannedInjection,
    SerialExecutor,
    artifact_digest,
    record_checkpointed_golden,
    replay_planned_injection,
    run_suite_campaign,
)
from repro.engine import batch
from repro.engine.executors import CampaignSpec, is_inert, replay
from repro.engine.liveness import LogGapError, _AccessLog, record_dead_cycles
from repro.faultinjection import (
    FlipFlopInjector,
    Injection,
    OutcomeCategory,
    OutcomeCounts,
    SiteProtection,
    exhaustive_site_plan,
    uniform_injection_plan,
)
from repro.faultinjection.injector import build_injection, injection_watchdog
from repro.isa.assembler import assemble
from repro.isa.program import DataSegment
from repro.microarch import InOrderCore, OutOfOrderCore, inorder, ooo
from repro.microarch.events import TerminationReason
from repro.obs.phases import COUNT_DEAD_ON_ARRIVAL, COUNT_INERT
from repro.workloads import workload_by_name

CORE_CLASSES = (InOrderCore, OutOfOrderCore)


@pytest.fixture(scope="module")
def program():
    return workload_by_name("vpr").program()


@pytest.fixture(scope="module")
def full_results(program):
    """Uncheckpointed reference RunResult per core class."""
    return {cls: cls().run(program) for cls in CORE_CLASSES}


class MixedProtection:
    """Protection with suppression, detection and recovery sites, so the
    equivalence tests exercise the suppression-lottery stream."""

    def site_protection(self, flat_index):
        if flat_index % 3 == 0:
            return SiteProtection(technique="lhl", suppression=0.75)
        if flat_index % 7 == 0:
            return SiteProtection(technique="parity", detects=True,
                                  recoverable=flat_index % 2 == 0,
                                  recovery_latency=7)
        return SiteProtection()


def legacy_campaign(core, program, protection, seed, plan):
    """The pre-engine serial loop: full re-simulation from cycle 0, one
    sequential suppression draw per injection."""
    injector = FlipFlopInjector(core, protection=protection, seed=seed)
    golden = injector.golden_run(program)
    outcomes = OutcomeCounts()
    per_site = {}
    for injection in plan:
        _, outcome = injector.run_with_injection(program, injection, golden)
        outcomes.record(outcome)
        per_site.setdefault(injection.flat_index, OutcomeCounts()).record(outcome)
    return golden, outcomes, per_site


class TestSnapshotRestore:
    @pytest.mark.parametrize("core_cls", CORE_CLASSES, ids=lambda c: c.__name__)
    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_snapshot_extra_cycles_restore_is_bit_exact(self, core_cls, program,
                                                        full_results, data):
        """snapshot() -> extra cycles -> restore() -> run-to-end reproduces
        the uncheckpointed RunResult bit-for-bit."""
        full = full_results[core_cls]
        cycle = data.draw(st.integers(min_value=0, max_value=full.cycles - 1),
                          label="snapshot_cycle")
        extra = data.draw(st.integers(min_value=0, max_value=64),
                          label="extra_cycles")
        core = core_cls()
        core.reset(program)
        for _ in range(cycle):
            core.step()
        snapshot = core.snapshot()
        for _ in range(extra):
            if not core.step():
                break
        resumed = core.resume(program, snapshot)
        assert resumed == full

    @pytest.mark.parametrize("core_cls", CORE_CLASSES, ids=lambda c: c.__name__)
    def test_restore_onto_fresh_core_and_double_restore(self, core_cls, program,
                                                        full_results):
        recorded = record_checkpointed_golden(core_cls(), program, interval=100)
        snapshot = recorded.snapshots[len(recorded.snapshots) // 2]
        other = core_cls()
        assert other.resume(program, snapshot) == full_results[core_cls]
        # Restoring the same snapshot again must not be corrupted by the
        # first resume (mutable state must be copied on restore).
        assert other.resume(program, snapshot) == full_results[core_cls]

    def test_restore_rejects_foreign_snapshot(self, program):
        snapshot = record_checkpointed_golden(InOrderCore(), program,
                                              interval=100).snapshots[0]
        with pytest.raises(ValueError):
            OutOfOrderCore().restore(program, snapshot)

    def test_latch_serialize_roundtrip(self, program):
        core = InOrderCore()
        core.reset(program)
        for _ in range(50):
            core.step()
        values = core.latches.serialize()
        core.latches.clear()
        assert core.latches.serialize() != values
        core.latches.deserialize(values)
        assert core.latches.serialize() == values
        with pytest.raises(ValueError):
            core.latches.deserialize(values[:-1])


class TestCheckpointedGolden:
    def test_recording_does_not_change_golden(self, program, full_results):
        recorded = record_checkpointed_golden(InOrderCore(), program)
        assert recorded.golden == full_results[InOrderCore]
        assert recorded.checkpoint_count > 0
        cycles = [s.cycle for s in recorded.snapshots]
        assert cycles == sorted(cycles)

    def test_nearest_picks_latest_at_or_below(self, program):
        recorded = record_checkpointed_golden(InOrderCore(), program, interval=100)
        assert recorded.nearest(99) is None
        assert recorded.nearest(100).cycle == 100
        assert recorded.nearest(399).cycle == 300
        last = recorded.snapshots[-1]
        assert recorded.nearest(10**9) is last

    def test_adaptive_interval_bounds_snapshot_count(self, program):
        recorded = record_checkpointed_golden(InOrderCore(), program,
                                              max_checkpoints=4)
        assert recorded.checkpoint_count <= 4
        assert recorded.interval > 64  # doubled at least once on this workload

    def test_interval_zero_disables_checkpointing(self, program):
        recorded = record_checkpointed_golden(InOrderCore(), program, interval=0)
        assert recorded.snapshots == []
        assert recorded.nearest(500) is None


class TestEngineEquivalence:
    @pytest.mark.parametrize("core_cls", CORE_CLASSES, ids=lambda c: c.__name__)
    @pytest.mark.parametrize("protected", [False, True], ids=["bare", "protected"])
    def test_engine_matches_legacy_serial_loop(self, core_cls, program, protected):
        protection = MixedProtection() if protected else None
        seed, count = 11, 16
        core = core_cls()
        golden = core.run(program)
        plan = uniform_injection_plan(core.flip_flop_count, golden.cycles,
                                      count, seed=seed)
        _, outcomes, per_site = legacy_campaign(core_cls(), program, protection,
                                                seed, plan)
        engine = InjectionEngine(core_cls(), program, protection=protection,
                                 seed=seed, golden_cache=GoldenRunCache())
        result = engine.run(injections=count)
        assert result.outcomes == outcomes
        assert result.per_site == per_site

    def test_serial_and_parallel_executors_identical(self, program):
        seed, count = 23, 24
        results = []
        for executor in (SerialExecutor(), ParallelExecutor(workers=2)):
            engine = InjectionEngine(InOrderCore(), program,
                                     protection=MixedProtection(), seed=seed,
                                     executor=executor,
                                     golden_cache=GoldenRunCache())
            results.append(engine.run(injections=count))
        serial, parallel = results
        assert serial.outcomes == parallel.outcomes
        assert serial.per_site == parallel.per_site
        assert serial.outcomes.total == count

    def test_explicit_plan_routes_through_engine(self, program):
        core = InOrderCore()
        golden = core.run(program)
        plan = exhaustive_site_plan(8, golden.cycles, 2, seed=3)
        _, outcomes, per_site = legacy_campaign(InOrderCore(), program, None,
                                                3, plan)
        result = InjectionEngine(InOrderCore(), program, seed=3,
                                 golden_cache=GoldenRunCache()).run(plan=plan)
        assert result.outcomes == outcomes
        assert result.per_site == per_site
        assert set(result.per_site) == set(range(8))


class TestStateFingerprint:
    @pytest.mark.parametrize("core_cls", CORE_CLASSES, ids=lambda c: c.__name__)
    def test_identical_trajectories_fingerprint_equal(self, core_cls, program):
        first, second = core_cls(), core_cls()
        first.reset(program)
        second.reset(program)
        previous = None
        for _ in range(40):
            digest = first.state_fingerprint()
            assert digest == second.state_fingerprint()
            # The cycle is part of the hashed state, so consecutive
            # fingerprints of even an idle structure never collide.
            assert digest != previous
            previous = digest
            first.step()
            second.step()

    @pytest.mark.parametrize("core_cls", CORE_CLASSES, ids=lambda c: c.__name__)
    def test_flip_changes_fingerprint_and_restore_recovers_it(self, core_cls,
                                                              program):
        core = core_cls()
        core.reset(program)
        for _ in range(30):
            core.step()
        snapshot = core.snapshot()
        reference = core.state_fingerprint()
        core.latches.flip_flat(0)
        assert core.state_fingerprint() != reference
        core.restore(program, snapshot)
        assert core.state_fingerprint() == reference

    def test_memory_key_normalises_explicit_zero_words(self, program):
        """A stored zero and a never-touched word load identically, so the
        fingerprint must not distinguish them (it would only delay
        convergence)."""
        core = InOrderCore()
        core.reset(program)
        key = core.memory.fingerprint_digest()
        untouched = next(address for address in range(
            program.data.base, program.data.base + 0x1000, 4)
            if core.memory.load_word(address) == 0)
        core.memory.store_word(untouched, 0)
        assert core.memory.fingerprint_digest() == key
        core.memory.store_word(untouched, 7)
        assert core.memory.fingerprint_digest() != key
        core.memory.store_byte(untouched, 0)
        assert core.memory.fingerprint_digest() == key

    def test_output_prefix_is_fingerprinted(self, program):
        core = InOrderCore()
        core.reset(program)
        reference = core.state_fingerprint()
        core.emit_output(1)
        assert core.state_fingerprint() != reference


class TestConvergenceGolden:
    def test_fingerprint_grid_denser_than_snapshots(self, program):
        recorded = record_checkpointed_golden(InOrderCore(), program)
        assert recorded.fingerprint_interval > 0
        assert recorded.fingerprint_interval <= recorded.interval
        assert recorded.fingerprint_count > recorded.checkpoint_count
        core = InOrderCore()
        core.reset(program)
        grid_cycle = min(recorded.fingerprints)
        for _ in range(grid_cycle):
            core.step()
        assert core.state_fingerprint() == recorded.fingerprints[grid_cycle]

    def test_adaptive_grid_bounds_fingerprint_count(self, program):
        recorded = record_checkpointed_golden(InOrderCore(), program,
                                              max_fingerprints=16)
        assert 0 < recorded.fingerprint_count <= 16
        assert all(cycle % recorded.fingerprint_interval == 0
                   for cycle in recorded.fingerprints)

    def test_fingerprint_interval_zero_disables_grid(self, program):
        recorded = record_checkpointed_golden(InOrderCore(), program,
                                              fingerprint_interval=0)
        assert recorded.fingerprints == {}
        assert recorded.fingerprint_interval == 0
        # Snapshots are unaffected; recording still observes only.
        assert recorded.checkpoint_count > 0

    def test_recording_does_not_change_golden(self, program, full_results):
        recorded = record_checkpointed_golden(InOrderCore(), program)
        assert recorded.golden == full_results[InOrderCore]


class TestConvergenceBitExactness:
    """The hard requirement of the convergence gate: with a fixed seed,
    outcome counts and per-site tallies are identical with the gate on and
    off -- on both cores, serial and parallel, for bare and protected
    campaigns, across grid intervals."""

    @pytest.mark.parametrize("core_cls", CORE_CLASSES, ids=lambda c: c.__name__)
    @settings(max_examples=4, deadline=None)
    @given(data=st.data())
    def test_campaigns_bit_exact_vs_full_replay(self, core_cls, program, data):
        seed = data.draw(st.integers(min_value=0, max_value=2**16),
                         label="seed")
        interval = data.draw(st.sampled_from([None, 4, 24]),
                             label="convergence_interval")
        protected = data.draw(st.booleans(), label="protected")
        protection = MixedProtection() if protected else None
        results = []
        for convergence_interval in (0, interval):
            config = EngineConfig(convergence_interval=convergence_interval)
            engine = InjectionEngine(core_cls(), program,
                                     protection=protection, seed=seed,
                                     config=config,
                                     golden_cache=GoldenRunCache())
            results.append(engine.run(injections=10))
        full, gated = results
        assert gated.outcomes == full.outcomes
        assert gated.per_site == full.per_site
        assert full.converged_count == 0 and full.saved_cycles == 0
        # Early-outs require a clean event log and matching output, so only
        # Vanished runs ever converge; the saved cycles must be consistent.
        assert gated.converged_count <= gated.outcomes.vanished_count
        assert gated.replayed_cycles + gated.saved_cycles == full.replayed_cycles

    def test_parallel_gated_matches_serial_full_replay(self, program):
        # Seed 29 folds every converging replay dead on arrival; seed 30
        # still leaves three that converge.
        seed, count = 30, 24
        full = InjectionEngine(
            InOrderCore(), program, protection=MixedProtection(), seed=seed,
            config=EngineConfig(convergence_interval=0),
            executor=SerialExecutor(),
            golden_cache=GoldenRunCache()).run(injections=count)
        gated = InjectionEngine(
            InOrderCore(), program, protection=MixedProtection(), seed=seed,
            executor=ParallelExecutor(workers=2),
            golden_cache=GoldenRunCache()).run(injections=count)
        assert gated.outcomes == full.outcomes
        assert gated.per_site == full.per_site
        assert gated.converged_count > 0
        assert gated.saved_cycle_fraction > 0.0

    def test_convergence_saves_cycles_on_bare_campaign(self, program):
        gated = InjectionEngine(InOrderCore(), program, seed=7,
                                golden_cache=GoldenRunCache()).run(injections=20)
        assert gated.converged_count > 0
        assert gated.saved_cycles > 0
        assert 0.0 < gated.saved_cycle_fraction < 1.0
        assert gated.converged_fraction == pytest.approx(
            gated.converged_count / 20)


class TestConvergenceReplay:
    """Per-replay semantics of the gate, driven through
    replay_planned_injection directly."""

    @pytest.fixture(scope="class")
    def checkpointed(self, program):
        return record_checkpointed_golden(InOrderCore(), program)

    def test_suppressed_injection_converges_at_first_grid_cycle(
            self, program, checkpointed):
        """A suppressed strike never perturbs state, so the replay converges
        at the first grid cycle after the injection and synthesizes the
        golden result exactly."""
        injection = Injection(flat_index=0, cycle=10)
        planned = PlannedInjection(injection=injection,
                                   protection=SiteProtection(suppression=1.0),
                                   suppressed=True)
        replay = replay_planned_injection(InOrderCore(), program, planned,
                                          checkpointed)
        assert replay.outcome is OutcomeCategory.VANISHED
        expected = min(cycle for cycle in checkpointed.fingerprints
                       if cycle > injection.cycle)
        assert replay.converged_at == expected
        assert replay.converged_at - replay.resumed_from == \
            replay.simulated_cycles
        assert replay.saved_cycles == \
            checkpointed.golden.cycles - replay.converged_at
        assert replay.result == checkpointed.golden
        assert replay.result.output is not checkpointed.golden.output

    def test_detection_runs_never_converge(self, program, checkpointed):
        """Detected errors (recovered or not) must replay to termination:
        their event logs diverge from the golden run's by definition."""
        injection = Injection(flat_index=3, cycle=40)
        unrecovered = PlannedInjection(
            injection=injection,
            protection=SiteProtection(technique="parity", detects=True),
            suppressed=False)
        replay = replay_planned_injection(InOrderCore(), program, unrecovered,
                                          checkpointed)
        assert replay.outcome is OutcomeCategory.ED
        assert replay.converged_at is None

        recovered = PlannedInjection(
            injection=injection,
            protection=SiteProtection(technique="parity", detects=True,
                                      recoverable=True, recovery_latency=7),
            suppressed=False)
        replay = replay_planned_injection(InOrderCore(), program, recovered,
                                          checkpointed)
        # The recovery makes the run architecturally clean (Vanished), but
        # its detection log and recovery stall keep it off the golden
        # trajectory -- it must simulate to termination.
        assert replay.outcome is OutcomeCategory.VANISHED
        assert replay.converged_at is None
        assert replay.result.recovery_cycles == 7

    def test_output_divergence_never_converges(self, program, checkpointed):
        """Flips that corrupt emitted output must replay to termination and
        classify OMM -- identically with the gate on and off."""
        core = InOrderCore()
        outval_sites = [index for index in range(core.flip_flop_count)
                        if core.registry.site(index).structure.name
                        == "w.outval"]
        # Find a cycle at which the writeback stage holds a pending output:
        # flipping w.outval there corrupts the emitted stream directly.
        pending_cycles = []

        def observe(observed, cycle):
            if observed.latches.get("w.outpending"):
                pending_cycles.append(cycle)

        core.run(program, cycle_hook=observe)
        assert pending_cycles, "workload emits no output"
        planned = PlannedInjection(
            injection=Injection(flat_index=outval_sites[0],
                                cycle=pending_cycles[-1]),
            protection=SiteProtection(), suppressed=False)
        replay = replay_planned_injection(core, program, planned, checkpointed)
        assert replay.outcome is OutcomeCategory.OMM
        assert replay.converged_at is None
        ungated = replay_planned_injection(
            core, program, planned,
            replace(checkpointed, fingerprints={}, fingerprint_interval=0))
        assert ungated.outcome is OutcomeCategory.OMM
        assert ungated.result == replay.result

    def test_gate_disabled_when_grid_missing(self, program):
        bare = record_checkpointed_golden(InOrderCore(), program,
                                          fingerprint_interval=0)
        planned = PlannedInjection(injection=Injection(flat_index=0, cycle=10),
                                   protection=SiteProtection(suppression=1.0),
                                   suppressed=True)
        replay = replay_planned_injection(InOrderCore(), program, planned, bare)
        assert replay.converged_at is None
        assert replay.outcome is OutcomeCategory.VANISHED

    def test_gate_disabled_when_golden_hung(self, program):
        """A golden run cut by its watchdog still carries a fingerprint grid,
        but the injected watchdog differs from it, so its tail is not
        reproducible from the grid: even a no-op replay must not converge."""
        hung = record_checkpointed_golden(InOrderCore(), program,
                                          max_cycles=300)
        assert hung.golden.reason is TerminationReason.HANG
        assert any(cycle > 10 for cycle in hung.fingerprints)
        planned = PlannedInjection(injection=Injection(flat_index=0, cycle=10),
                                   protection=SiteProtection(suppression=1.0),
                                   suppressed=True)
        replay = replay_planned_injection(InOrderCore(), program, planned,
                                          hung)
        assert replay.converged_at is None
        assert replay.simulated_cycles == \
            replay.result.cycles - replay.resumed_from

    def test_engine_config_gating_knobs(self):
        assert EngineConfig().convergence_enabled
        assert not EngineConfig(convergence_interval=0).convergence_enabled
        assert EngineConfig(convergence_interval=4).convergence_enabled


class TestGoldenRunCache:
    def test_shared_across_protection_configs(self, program):
        cache = GoldenRunCache()
        core = InOrderCore()
        for protection in (None, MixedProtection()):
            InjectionEngine(core, program, protection=protection, seed=1,
                            golden_cache=cache).run(injections=4)
        assert cache.misses == 1
        assert cache.hits >= 1

    def test_distinguishes_program_content(self, program):
        cache = GoldenRunCache()
        core = InOrderCore()
        cache.get(core, program)
        modified = replace(program, data=DataSegment(
            base=program.data.base, words=list(program.data.words) + [99]))
        cache.get(core, modified)
        assert cache.misses == 2

    def test_lru_eviction(self, program):
        cache = GoldenRunCache(max_entries=1)
        core = InOrderCore()
        cache.get(core, program, interval=100)
        cache.get(core, program, interval=200)
        cache.get(core, program, interval=100)
        assert cache.misses == 3
        assert len(cache) == 1

    def test_stats_and_reporting(self, program):
        from repro.reporting import format_golden_cache_stats

        cache = GoldenRunCache(max_entries=4)
        core = InOrderCore()
        cache.get(core, program)
        cache.get(core, program)
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.entries,
                stats.max_entries) == (1, 1, 1, 4)
        assert stats.hit_rate == pytest.approx(0.5)
        rendered = format_golden_cache_stats(cache)
        assert "50%" in rendered and "hit rate" in rendered
        cache.clear()
        assert cache.stats().hit_rate == 0.0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            GoldenRunCache(max_entries=0)

    def test_suite_runner_sizes_private_cache(self, program):
        """A cache is sized by building it: repeated suite runs sharing a
        ``GoldenRunCache(max_entries=n)`` record each golden once."""
        workloads = [workload_by_name("histogram"), workload_by_name("vpr")]
        cache = GoldenRunCache(max_entries=2)
        for _ in range(2):
            vulnerability, results = run_suite_campaign(
                InOrderCore(), workloads, injections_per_workload=2,
                golden_cache=cache)
            assert len(results) == 2
        assert (cache.stats().recorded, cache.hits) == (2, 2)

    def test_default_capacity_holds_every_builtin_suite(self, tmp_path):
        from repro.engine import GoldenArtifactStore
        from repro.microarch.core import CoreClass
        from repro.workloads.suite import suite_for_core

        largest = max(len(suite_for_core(core_class))
                      for core_class in CoreClass)
        for cache in (GoldenRunCache(), GOLDEN_RUN_CACHE,
                      GoldenRunCache(store=GoldenArtifactStore(tmp_path))):
            assert cache.max_entries >= largest

    def test_repeated_default_suite_campaign_records_no_golden(self):
        """The process-wide cache the default suite runner (and
        ``ClearFramework.measure_vulnerability``) uses holds the whole
        in-order suite, so a second campaign over it hits every golden."""
        from repro.workloads.suite import suite_for_core

        core = InOrderCore()
        suite = suite_for_core(core)
        run_suite_campaign(core, suite, injections_per_workload=1)
        before = GOLDEN_RUN_CACHE.stats()
        run_suite_campaign(core, suite, injections_per_workload=1)
        after = GOLDEN_RUN_CACHE.stats()
        assert after.misses == before.misses
        assert after.hits - before.hits == len(suite)


class TestBatchedReplay:
    """Batched lockstep replay is a pure performance knob: with a fixed seed
    and any ``batch_width``, campaigns report outcome counts and per-site
    tallies bit-identical to scalar replay -- on both cores (unsupported
    cores transparently fall back to scalar), both executors, with the
    convergence gate on and off, and with protections exercising the
    suppressed and detecting paths."""

    @pytest.mark.parametrize("core_cls", CORE_CLASSES, ids=lambda c: c.__name__)
    @settings(max_examples=4, deadline=None)
    @given(data=st.data())
    def test_batched_campaigns_bit_exact_vs_scalar(self, core_cls, program,
                                                   data):
        seed = data.draw(st.integers(min_value=0, max_value=2**16),
                         label="seed")
        width = data.draw(st.sampled_from([2, 5, 16]), label="batch_width")
        convergence = data.draw(st.booleans(), label="convergence")
        protected = data.draw(st.booleans(), label="protected")
        protection = MixedProtection() if protected else None
        results = []
        for batch_width in (0, width):
            config = EngineConfig(
                convergence_interval=None if convergence else 0,
                batch_width=batch_width)
            engine = InjectionEngine(core_cls(), program,
                                     protection=protection, seed=seed,
                                     config=config,
                                     golden_cache=GoldenRunCache())
            results.append(engine.run(injections=12))
        scalar, batched = results
        assert batched.outcomes == scalar.outcomes
        assert batched.per_site == scalar.per_site
        assert scalar.evicted_count == 0 and scalar.lockstep_cycles == 0

    def test_batched_parallel_executor_matches_scalar_serial(self, program):
        seed, count = 17, 24
        scalar = InjectionEngine(
            InOrderCore(), program, protection=MixedProtection(), seed=seed,
            executor=SerialExecutor(),
            golden_cache=GoldenRunCache()).run(injections=count)
        batched = InjectionEngine(
            InOrderCore(), program, protection=MixedProtection(), seed=seed,
            config=EngineConfig(batch_width=8),
            executor=ParallelExecutor(workers=2),
            golden_cache=GoldenRunCache()).run(injections=count)
        assert batched.outcomes == scalar.outcomes
        assert batched.per_site == scalar.per_site

    def test_supported_core_seam(self):
        from repro.engine.batch import batched_replay_supported

        assert batched_replay_supported(InOrderCore())
        assert not batched_replay_supported(OutOfOrderCore())

        class TweakedInOrder(InOrderCore):
            """The wavefront steps its own InOrderCore subclass, which would
            not inherit a subclass's overrides, so they fall back to scalar."""

        assert not batched_replay_supported(TweakedInOrder())

    def test_batched_telemetry_fractions(self, program):
        result = InjectionEngine(
            InOrderCore(), program, seed=5,
            config=EngineConfig(batch_width=8),
            golden_cache=GoldenRunCache()).run(injections=20)
        assert 0.0 <= result.evicted_fraction <= 1.0
        assert 0.0 <= result.lockstep_cycle_fraction <= 1.0
        assert 0 < result.lockstep_cycles <= result.replayed_cycles

    def test_replay_telemetry_report(self, program):
        from repro.reporting import format_replay_telemetry

        result = InjectionEngine(
            InOrderCore(), program, seed=5,
            config=EngineConfig(batch_width=8),
            golden_cache=GoldenRunCache()).run(injections=20)
        rendered = format_replay_telemetry([("vpr/batched x8", result)])
        assert "vpr/batched x8" in rendered
        assert "lockstep" in rendered and "evicted" in rendered
        assert str(result.replayed_cycles) in rendered
        assert f"{100 * result.converged_fraction:.0f}%" in rendered

    def test_width_below_two_stays_scalar(self, program):
        result = InjectionEngine(
            InOrderCore(), program, seed=5,
            config=EngineConfig(batch_width=1),
            golden_cache=GoldenRunCache()).run(injections=6)
        assert result.evicted_count == 0 and result.lockstep_cycles == 0

    # One flip per lane: the value latches, the offset-stored hint counters
    # and the other hint structures the stages train or move.
    _LANE_FLIPS = (
        ("e.rs1val", 3), ("e.rs2val", 0), ("m.result", 31),
        ("m.storeval", 1), ("x.result", 2), ("x.outval", 0),
        ("w.result", 30), ("w.outval", 4),
        ("irq.pending", 0), ("ic.ctrl.state", 1), ("dc.ctrl.state", 0),
        ("f.bp.table", 63), ("f.bp.history", 0), ("w.s.icc", 3), ("x.icc", 1),
    )

    @staticmethod
    def _lockstep(program, width: int):
        """A wavefront with ``width`` free slots and a scalar reference core,
        both 20 cycles past the golden snapshot nearest cycle 300 (so the
        hint counters have moved off the snapshot)."""
        from repro.engine.batch import _CorePool, _StreamingWavefront

        template = InOrderCore()
        checkpointed = record_checkpointed_golden(template, program,
                                                  interval=100)
        base = checkpointed.nearest(300)
        wavefront = _StreamingWavefront(
            template, program,
            replace(checkpointed, fingerprints={}, fingerprint_interval=0),
            width=width, pool=_CorePool(template))
        wavefront._load_reference(base)
        reference = InOrderCore()
        reference.restore(program, base)
        for _ in range(20):
            TestBatchedReplay._step(wavefront)
            reference.step()
        return wavefront, reference

    @staticmethod
    def _step(wavefront) -> None:
        lane_core = wavefront._core
        lane_core.prepass = wavefront._execute_prepass()
        lane_core.step()

    @staticmethod
    def _record(flat: int, cycle: int):
        from repro.engine.batch import _LaneRecord
        from repro.engine.executors import PlannedInjection

        return _LaneRecord(planned=PlannedInjection(
            injection=Injection(flat_index=flat, cycle=cycle),
            protection=SiteProtection(), suppressed=False))

    def _join_flips(self, wavefront, reference, program, flips):
        """Seat one lane per ``(latch, bit)`` flip, each beside a scalar core
        given the same flip; returns ``(name, record, scalar)`` triples."""
        joined = reference.snapshot()
        registry = reference.registry
        lanes = []
        for name, bit in flips:
            flat = registry.structure(name).first_index + bit
            record = self._record(flat, joined.cycle)
            assert wavefront._join_lane(record, flat)
            scalar = InOrderCore()
            scalar.restore(program, joined)
            scalar.latches.flip_flat(flat)
            lanes.append((name, record, scalar))
        return lanes

    def _compare(self, wavefront, reference, lanes, cycles: int = 60,
                 observe=lambda: None) -> dict[str, int]:
        """Step everything ``cycles`` cycles, checking lane 0 against
        ``reference`` and every seated lane against its scalar core as whole
        states; returns the cycles each lane was seated."""
        lane_core = wavefront._core
        seated = {name: 0 for name, _, _ in lanes}
        for _ in range(cycles):
            assert lane_core.lane_snapshot(0) == reference.snapshot()
            for name, record, scalar in lanes:
                if wavefront._slot_records[record.slot] is record:
                    assert lane_core.lane_snapshot(record.slot) == \
                        scalar.snapshot(), name
                    seated[name] += 1
            observe()
            self._step(wavefront)
            reference.step()
            for _, _, scalar in lanes:
                scalar.step()
        return seated

    def test_wavefront_lanes_equal_scalar_cores(self, program):
        """Every seated lane is, cycle for cycle, the scalar core given the
        same flip.  Hint state never changes an outcome, so a lane whose
        hint latches drift (a counter flipped in the wrong lane, say) passes
        every campaign-level test; this compares whole states."""
        wavefront, reference = self._lockstep(program, len(self._LANE_FLIPS))
        lanes = self._join_flips(wavefront, reference, program,
                                 self._LANE_FLIPS)
        seated = self._compare(wavefront, reference, lanes)
        assert all(seated.values()), seated
        # Hint-only flips never steer control, so those lanes never demote.
        for name in ("irq.pending", "ic.ctrl.state", "dc.ctrl.state",
                     "f.bp.table", "f.bp.history", "w.s.icc", "x.icc"):
            assert seated[name] == 60, name

    def test_table_flip_under_an_int_history(self, program):
        """A flipped predictor table is a uint64 column while the history is
        still an int, so the predictor trains the column with an int shift
        (a negative int mask there raises under NumPy 2)."""
        wavefront, reference = self._lockstep(program, 1)
        lanes = self._join_flips(wavefront, reference, program,
                                 (("f.bp.table", 63),))
        latches = wavefront._core.latches
        table, history = latches.slot("f.bp.table"), latches.slot("f.bp.history")
        trained = set()

        def observe():
            assert type(latches.values[history]) is int
            assert type(latches.values[table]) is not int
            trained.add(int(latches.values[table][0]))

        seated = self._compare(wavefront, reference, lanes, observe=observe)
        assert seated == {"f.bp.table": 60}
        assert len(trained) > 1  # branches trained the column meanwhile

    def test_rejoin_into_int_lanes(self, program):
        """A tandem rejoining a wavefront whose values are all ints turns
        exactly the values it differs in into columns, and then steps as its
        scalar core does."""
        from repro.engine.batch import _Tandem

        wavefront, reference = self._lockstep(program, 1)
        lane_core = wavefront._core
        latches = lane_core.latches
        assert all(type(value) is int for value in latches.values)
        assert all(type(value) is int for value in lane_core.registers)
        scalar = InOrderCore()
        scalar.restore(program, reference.snapshot())
        # What a healed control divergence leaves behind: data and hint
        # state that differ, control state that does not.
        for name, bit in (("w.result", 3), ("irq.pending", 2),
                          ("f.bp.history", 1)):
            scalar.latches.flip_bit(name, bit)
        scalar.registers[9] ^= 1 << 20
        address = max(scalar.memory.snapshot_words())
        scalar.memory.store_word(address,
                                 scalar.memory.load_word(address) ^ 0x100)
        assert lane_core.control_matches(scalar)
        record = self._record(latches.registry.structure("w.result")
                              .first_index, reference.cycle)
        tandem = _Tandem(scalar, record, deadline=reference.cycle)
        wavefront._tandems.append(tandem)
        wavefront._rejoin(tandem)
        columns = [position for position, value in enumerate(latches.values)
                   if type(value) is not int]
        assert columns == sorted(latches.slot(name) for name in (
            "w.result", "irq.pending", "f.bp.history"))
        assert [index for index, value in enumerate(lane_core.registers)
                if type(value) is not int] == [9]
        assert lane_core.memory.columns()
        seated = self._compare(wavefront, reference,
                               [("rejoined", record, scalar)])
        assert seated == {"rejoined": 60}

    def test_column_overwritten_by_a_uniform_value(self, program):
        """A flipped value latch is a column until the pipeline moves an
        agreed value into it; from then on it is an int again, and the lane
        still equals its scalar core."""
        wavefront, reference = self._lockstep(program, 1)
        lanes = self._join_flips(wavefront, reference, program,
                                 (("m.result", 12),))
        latches = wavefront._core.latches
        position = latches.slot("m.result")
        kinds = []
        seated = self._compare(
            wavefront, reference, lanes,
            observe=lambda: kinds.append(type(latches.values[position])))
        assert kinds[0] is not int and int in kinds
        assert seated == {"m.result": 60}

    @pytest.mark.parametrize("convergence", [True, False])
    def test_every_structure_batched_equals_scalar(self, program,
                                                   convergence):
        """Bits 0 and width-1 of every InO structure, at spread cycles: the
        random property campaigns draw a dozen of ~1.25k sites and rarely
        reach any given structure."""
        registry = InOrderCore().registry
        golden_cycles = InOrderCore().run(program).cycles
        plan = []
        for structure in registry.structures:
            for bit in sorted({0, structure.width - 1}):
                cycle = (37 * len(plan) + 11) % (golden_cycles - 1)
                plan.append(Injection(flat_index=structure.first_index + bit,
                                      cycle=cycle))
        results = []
        for batch_width in (0, 16):
            results.append(InjectionEngine(
                InOrderCore(), program, seed=4,
                config=EngineConfig(
                    batch_width=batch_width,
                    convergence_interval=None if convergence else 0),
                golden_cache=GoldenRunCache()).run(plan=plan))
        scalar, batched = results
        assert batched.outcomes == scalar.outcomes
        assert batched.per_site == scalar.per_site
        assert batched.lockstep_cycles > 0


def _hint_sites(core):
    """Flat indices of every bit of every hint (``architectural=False``)
    structure of ``core``."""
    return [index for structure in core.registry.structures
            if not structure.architectural
            for index in structure.bit_indices()]


def _probe_cycles(golden):
    """Cycles 1, the middle and two before the end of ``golden``."""
    return 1, golden.cycles // 2, golden.cycles - 2


def _flip_differences(core, program, checkpointed, flips):
    """Yield each ``(flat_index, cycle)`` of ``flips`` whose single-bit
    replay does not return the golden :class:`RunResult`.  The replay
    simulates the flip: it bypasses the dead-on-arrival fold, which would
    return the golden result for exactly the flips some checks replay."""
    for flat_index, cycle in flips:
        injection = Injection(flat_index=flat_index, cycle=cycle)
        inject = build_injection(injection, SiteProtection(), False)
        result = replay(core, program, cycle, inject, checkpointed).result
        if result != checkpointed.golden:
            yield flat_index, cycle


def _hint_plane_differences(core_cls, program):
    """Yield ``(flat_index, cycle)`` for each single hint-bit flip, at the
    probe cycles, whose full replay (no convergence gate) does not return
    the golden :class:`RunResult`."""
    checkpointed = record_checkpointed_golden(core_cls(), program,
                                              fingerprint_interval=0)
    core = core_cls()
    yield from _flip_differences(
        core, program, checkpointed,
        [(flat_index, cycle) for cycle in _probe_cycles(checkpointed.golden)
         for flat_index in _hint_sites(core)])


class _PredictorReadingCore(InOrderCore):
    """A mutant that consults the bimodal predictor: on odd cycles the whole
    pipeline stalls (the cycle does nothing) while the counter the fetch pc
    indexes predicts taken.  It steps one cycle per segment so it can look
    at every cycle."""

    def _advance(self, stop):
        while self._cycle < stop and self._termination is None:
            if self._cycle % 2 and self._pending_recovery <= 0:
                pc = self.latches.get("f.pc")
                counter = (self.latches.get("f.bp.table")
                           >> 2 * ((pc >> 2) % 32))
                if counter & 0b10:
                    self._cycle += 1
                    continue
            super()._advance(self._cycle + 1)


def _hint_structure_differences(core_cls, program):
    """Yield what changes the run, as ``(structure name or flat index,
    cycle)``: every bit of one hint structure inverted at once by a cycle
    hook at the probe cycles, then 256 seeded single hint-bit flips.
    Every replay is ungated and runs under the injection watchdog."""
    checkpointed = record_checkpointed_golden(core_cls(), program,
                                              fingerprint_interval=0)
    golden = checkpointed.golden
    watchdog = injection_watchdog(golden)
    core = core_cls()
    for cycle in _probe_cycles(golden):
        for structure in core.registry.structures:
            if structure.architectural:
                continue
            def invert(hooked, now, name=structure.name,
                       mask=(1 << structure.width) - 1, at=cycle):
                if now == at:
                    hooked.latches.set(name, hooked.latches.get(name) ^ mask)
            snapshot = checkpointed.nearest(cycle)
            result = (core.run(program, watchdog, invert) if snapshot is None
                      else core.resume(program, snapshot, watchdog, invert))
            if result != golden:
                yield structure.name, cycle
    rng = random.Random(0)
    sites = _hint_sites(core)
    yield from _flip_differences(
        core, program, checkpointed,
        [(rng.choice(sites), rng.randrange(golden.cycles))
         for _ in range(256)])


class _GsharePredictingCore(OutOfOrderCore):
    """A mutant whose fetch consults the gshare predictor: on odd cycles it
    stalls while the counter the fetch pc indexes predicts taken."""

    def _fetch(self):
        if self.cycle % 2:
            latches = self.latches
            index = (((latches.get("fetch.pc") >> 2)
                      ^ latches.get("bp.gshare.history")) % 1024)
            if (latches.get("bp.gshare.table") >> 2 * index) & 0b10:
                return
        super()._fetch()


class TestHintPlane:
    """``hint_plane_inert`` is a proof obligation, not an option, on both
    cores: the engine folds undetected hint-plane flips as golden copies
    without simulating them, so every such flip must provably run as the
    golden run."""

    def test_core_declarations(self):
        assert InOrderCore.hint_plane_inert
        assert OutOfOrderCore.hint_plane_inert
        assert len(_hint_sites(InOrderCore())) == 207
        assert len(_hint_sites(OutOfOrderCore())) == 5726

    @pytest.mark.parametrize("name", ["fft", "vpr"])
    def test_every_hint_flip_runs_as_golden(self, name):
        program = workload_by_name(name).program()
        assert list(_hint_plane_differences(InOrderCore, program)) == []

    def test_check_catches_a_core_that_reads_its_predictor(self):
        """The check above has teeth on both its programs: one predictor
        read per cycle makes an f.bp.table flip change the run's timing."""
        assert _PredictorReadingCore.hint_plane_inert  # the claim is wrong
        table = _PredictorReadingCore().registry.structure("f.bp.table")
        for name in ("fft", "vpr"):
            differences = _hint_plane_differences(
                _PredictorReadingCore, workload_by_name(name).program())
            assert any(flat_index in table.bit_indices()
                       for flat_index, _ in differences), name

    @pytest.mark.parametrize("name", ["vpr", "crafty"])
    def test_every_ooo_hint_structure_runs_as_golden(self, name):
        """OoO's 5,726 hint bits are too many to flip one by one at three
        cycles, so each of its 123 hint structures is inverted whole, plus a
        seeded sample of single-bit flips."""
        program = workload_by_name(name).program()
        assert list(_hint_structure_differences(OutOfOrderCore, program)) == []

    def test_ooo_check_catches_a_core_that_reads_its_predictor(self, program):
        assert _GsharePredictingCore.hint_plane_inert  # the claim is wrong
        assert next(_hint_structure_differences(_GsharePredictingCore,
                                                program), None) is not None


def _architectural_flips(core, golden, dead_cycles, dead, count,
                         where=lambda flat_index: True):
    """``count`` seeded ``(flat_index, cycle)`` single-bit flips into
    architectural latches (sites that satisfy ``where``), each one dead
    (``dead``) or not according to ``dead_cycles``."""
    rng = random.Random(0)
    sites = [index for structure in core.registry.structures
             if structure.architectural
             for index in structure.bit_indices() if where(index)]
    flips = []
    while len(flips) < count:
        flat_index = rng.choice(sites)
        cycle = rng.randrange(golden.cycles)
        slot = core.latches.slot(core.registry.site(flat_index).structure.name)
        if bool(dead_cycles[slot] >> cycle & 1) == dead:
            flips.append((flat_index, cycle))
    return flips


def _dead_flip_differences(core_cls, program, dead=True, count=256):
    """Yield each of ``count`` seeded architectural flips that the access
    log marks dead (``dead``; else not dead) whose ungated replay does not
    return the golden :class:`RunResult`."""
    checkpointed = record_checkpointed_golden(core_cls(), program,
                                              fingerprint_interval=0)
    core = core_cls()
    dead_cycles = record_dead_cycles(core, program, checkpointed.golden)
    yield from _flip_differences(
        core, program, checkpointed,
        _architectural_flips(core, checkpointed.golden, dead_cycles, dead,
                             count))


class _AliasReadingCore(OutOfOrderCore):
    """A mutant that reads a latch behind the access log's back: fetch
    stalls on odd cycles while ``rob.count`` is odd, read through a
    values-list alias taken at reset (and refreshed on restore)."""

    def _reset_microarchitecture(self, program):
        super()._reset_microarchitecture(program)
        # audit: allow[state-coverage] names the live latch list, re-taken on reset and restore; no state of its own
        self._alias = self.latches.values

    def _restore_microarchitecture(self, micro):
        super()._restore_microarchitecture(micro)
        self._alias = self.latches.values

    def _fetch(self):
        if self.cycle % 2 and self._alias[ooo.ROB_COUNT] % 2:
            return
        super()._fetch()


class _UnloggedReadCore(OutOfOrderCore):
    """A mutant whose fetch reads a latch through ``list.__getitem__``,
    which the access log does not see: it stalls on odd cycles while rename
    checkpoint 0's map has odd parity."""

    def _fetch(self):
        checkpoint_map = list.__getitem__(self.latches.values,
                                          ooo._CKPT[0] + ooo.C_MAP)
        if self.cycle % 2 and checkpoint_map.bit_count() % 2:
            return
        super()._fetch()


class _LatchProbingCore(OutOfOrderCore):
    """Runs ``probe(latches)`` at the start of cycle 3's stages."""

    probe = None

    def _step_cycle(self):
        if self.cycle == 3:
            type(self).probe(self.latches)
        super()._step_cycle()


class TestDeadFold:
    """``dead_flip_fold``: the engine folds undetected flips into an
    architectural latch that the golden run next writes, or never touches
    again, as golden copies.  The access log that decides it must be
    complete, so every dead flip must provably run as the golden run, and
    any latch access the log cannot classify must be loud."""

    def test_core_declarations(self):
        assert OutOfOrderCore.dead_flip_fold
        assert not InOrderCore.dead_flip_fold

    @pytest.mark.parametrize("name", ["vpr", "crafty"])
    def test_every_dead_flip_runs_as_golden(self, name):
        program = workload_by_name(name).program()
        assert list(_dead_flip_differences(OutOfOrderCore, program)) == []

    def test_live_flips_change_runs(self, program):
        """The rule is not vacuous: flips the log keeps live do differ."""
        assert next(_dead_flip_differences(OutOfOrderCore, program,
                                           dead=False, count=64),
                    None) is not None

    @pytest.mark.parametrize("mutant", [_AliasReadingCore,
                                        _UnloggedReadCore])
    def test_check_catches_a_core_that_reads_behind_the_log(self, program,
                                                            mutant):
        """A read the log misses makes the logged run diverge (the alias
        reads stale values there) or a dead flip change the run."""
        assert mutant.dead_flip_fold
        try:
            differences = list(_dead_flip_differences(mutant, program))
        except LogGapError:
            return
        assert differences

    def test_logged_run_must_reproduce_the_golden_run(self, program):
        golden = OutOfOrderCore().run(program)
        with pytest.raises(LogGapError, match="did not reproduce"):
            record_dead_cycles(OutOfOrderCore(), program,
                               replace(golden, output=golden.output + [0]))

    def test_replaced_latch_list_is_caught(self, program, monkeypatch):
        # The same values, in a list the log never sees.
        monkeypatch.setattr(_LatchProbingCore, "probe",
                            lambda latches: latches.deserialize(
                                list.copy(latches.values)))
        golden = _LatchProbingCore().run(program)
        with pytest.raises(LogGapError, match="replaced before cycle 4"):
            record_dead_cycles(_LatchProbingCore(), program, golden)

    @pytest.mark.parametrize("probe", [
        pytest.param(lambda latches: latches.values[0:2], id="slice-read"),
        pytest.param(lambda latches: latches.values.__setitem__(
            slice(0, 1), list.copy(latches.values)[0:1]), id="slice-write"),
        pytest.param(lambda latches: sum(latches.values), id="iteration"),
        pytest.param(lambda latches: latches.serialize(), id="serialize"),
        pytest.param(lambda latches: latches.fingerprint_digest(),
                     id="fingerprint_digest"),
    ])
    def test_unclassified_access_raises(self, program, monkeypatch, probe):
        monkeypatch.setattr(_LatchProbingCore, "probe", probe)
        golden = _LatchProbingCore().run(program)
        with pytest.raises(LogGapError, match="unclassified latch access"):
            record_dead_cycles(_LatchProbingCore(), program, golden)

    def test_augmented_assignment_is_a_read(self):
        log = _AccessLog([0, 0, 0])
        log.cycle = 4
        log[0] += 1
        log[1] ^= 1
        log[2] = 7
        masks = log.masks(8, [True] * 3)
        # Slots 0 and 1 are read at cycle 4, then never touched again.
        assert masks[0] == masks[1] == 0b1110_0000
        assert masks[2] == 0b1111_1111

    def test_masks_follow_the_first_access_rule(self):
        """Across gaps of every length and byte boundaries, a cycle's mask
        bit is set exactly when the slot's first access at or after it is a
        write, or there is none."""
        rng = random.Random(5)
        cycles = 203
        densities = (0.9, 0.5, 0.1, 0.02)
        log = _AccessLog([0] * len(densities))
        accesses = [[] for _ in densities]
        for cycle in range(cycles):
            log.cycle = cycle
            for slot, density in enumerate(densities):
                while rng.random() < density:
                    write = rng.random() < 0.5
                    if write:
                        log[slot] = cycle
                    else:
                        log[slot]
                    accesses[slot].append((cycle, write))
        masks = log.masks(cycles, [True] * len(densities))
        for slot, slot_accesses in enumerate(accesses):
            for cycle in range(cycles):
                dead = next((write for at, write in slot_accesses
                             if at >= cycle), True)
                assert masks[slot] >> cycle & 1 == dead, (slot, cycle)


_OUT_HEAVY = assemble("""
    .data
buf:
    .word 3, 1, 4, 1, 5, 9, 2, 6
    .text
main:
    la a0, buf
    li t0, 0
    li t1, 8
    li s0, 0
loop:
    bge t0, t1, done
    slli t2, t0, 2
    add t2, a0, t2
    lw t3, 0(t2)
    add s0, s0, t3
    out s0
    sw s0, 0(t2)
    lb t4, 0(t2)
    out t4
    sb t0, 1(t2)
    out t3
    addi t0, t0, 1
    j loop
done:
    out s0
    halt
""", name="out-heavy")
"""Three OUTs, a word and a byte store and two loads per iteration, so the
output, store and address latches are live far more often than in the
suites' programs (which emit two to four values at the end)."""


def _rule_cycles(core, program):
    """``(dead, live)``: per :data:`inorder.READ_GUARDS` slot, the golden
    run's cycles at whose start ``core`` says a flip there is dead on
    arrival, and the others, grouped by the values the slot's guard reads
    there."""
    dead = {slot: {} for slot in inorder.READ_GUARDS}
    live = {slot: {} for slot in inorder.READ_GUARDS}
    first_bit = {slot: core.registry.structures[slot].first_index
                 for slot in inorder.READ_GUARDS}

    def observe(observed, cycle):
        v = observed.latches.values
        for slot, guard in inorder.READ_GUARDS.items():
            table = dead if observed.flip_is_dead(first_bit[slot]) else live
            state = tuple(v[term] for term, _ in guard or ())
            table[slot].setdefault(state, []).append(cycle)

    core.run(program, cycle_hook=observe)
    return dead, live


def _rule_flips(core, cycles, count, slots=None):
    """``count`` seeded ``(flat_index, cycle)`` flips per slot of ``slots``
    (default: every rule slot), each into a random bit of the slot at one
    of its ``cycles``, taken from its guard states in turn so that rare
    states (an LB in the M latch, say) are flipped too."""
    rng = random.Random(0)
    flips = []
    for slot in inorder.READ_GUARDS if slots is None else slots:
        bits = core.registry.structures[slot].bit_indices()
        states = list(cycles[slot].values())
        if states:
            flips.extend((rng.choice(bits),
                          rng.choice(states[k % len(states)]))
                         for k in range(count))
    return flips


def _dead_on_arrival_differences(core_cls, program, dead=True, count=48,
                                 slots=None):
    """Yield each of ``count`` seeded flips per rule slot that ``core_cls``
    calls dead on arrival (``dead``; else not) whose ungated, unfolded
    replay does not return the golden :class:`RunResult`."""
    checkpointed = record_checkpointed_golden(core_cls(), program,
                                              fingerprint_interval=0)
    core = core_cls()
    cycles = _rule_cycles(core, program)[0 if dead else 1]
    yield from _flip_differences(core, program, checkpointed,
                                 _rule_flips(core, cycles, count, slots))


class _OutvalEmittingCore(InOrderCore):
    """A mutant whose writeback emits ``w.outval`` for every instruction it
    commits, pending OUT or not.  It steps one cycle per segment so it can
    look at every cycle."""

    def _advance(self, stop):
        while self._cycle < stop and self._termination is None:
            v = self.latches.values
            if (v[inorder.W_VALID] and not v[inorder.W_TRAP]
                    and not v[inorder.W_OUTPENDING]
                    and self._pending_recovery <= 0):
                self.emit_output(v[inorder.W_OUTVAL])
            super()._advance(self._cycle + 1)


class _StorevalCopyingCore(InOrderCore):
    """A mutant whose memory stage sends ``m.storeval`` to the output for
    every untrapped instruction, as it does for an OUT."""

    def _advance(self, stop):
        while self._cycle < stop and self._termination is None:
            v = self.latches.values
            copy = (v[inorder.M_VALID] and not v[inorder.M_TRAP]
                    and self._pending_recovery <= 0)
            storeval = v[inorder.M_STOREVAL]
            super()._advance(self._cycle + 1)
            if copy and self._termination is None:
                v[inorder.X_OUTVAL] = storeval
                v[inorder.X_OUTPENDING] = 1


class TestDeadOnArrival:
    """``InOrderCore.flip_is_dead``: a replay ends at its injection cycle
    as a golden copy when the core's own start-of-cycle state shows that
    the flipped payload latch is overwritten before anything reads it
    (``inorder.READ_GUARDS``).  Every such flip must provably run as the
    golden run, and the lockstep wavefront must fold exactly the flips the
    scalar replay folds."""

    @pytest.mark.parametrize("name", ["fft", "vpr", "out-heavy"])
    def test_every_dead_flip_runs_as_golden(self, name):
        program = (_OUT_HEAVY if name == "out-heavy"
                   else workload_by_name(name).program())
        assert list(_dead_on_arrival_differences(InOrderCore, program)) == []

    def test_guarded_flips_change_runs(self):
        """The rules are not vacuous: under every guard, some flip made
        while the guard holds changes the run."""
        core = InOrderCore()
        changed = set()
        for program in (workload_by_name("fft").program(), _OUT_HEAVY):
            changed.update(
                inorder.READ_GUARDS[core.latches.slot(
                    core.registry.site(flat_index).structure.name)]
                for flat_index, _ in _dead_on_arrival_differences(
                    InOrderCore, program, dead=False, count=8))
        guards = set(inorder.READ_GUARDS.values()) - {None}
        assert changed == guards

    @pytest.mark.parametrize("mutant, latch", [
        (_OutvalEmittingCore, "w.outval"),
        (_StorevalCopyingCore, "m.storeval")])
    def test_check_catches_a_core_that_reads_a_dead_latch(self, mutant,
                                                          latch):
        slot = InOrderCore().latches.slot(latch)
        assert next(_dead_on_arrival_differences(mutant, _OUT_HEAVY,
                                                 slots=[slot]),
                    None) is not None

    def test_rules_read_only_the_control_plane(self):
        """Payloads are architectural and never their own guard, so the
        guard reads the same before the flip as after it.  Guards are
        control-plane latches, uniform across a lockstep wavefront, so its
        reference lane answers for every lane."""
        structures = InOrderCore().registry.structures
        guard_slots = set()
        for slot, guard in inorder.READ_GUARDS.items():
            terms = {term for term, _ in guard or ()}
            assert structures[slot].architectural
            assert slot not in terms
            guard_slots |= terms
        assert guard_slots
        for slot in guard_slots:
            assert structures[slot].architectural
            assert structures[slot].name not in batch._DATA_LATCHES

    def test_replay_ends_at_the_injection_cycle(self, program):
        checkpointed = record_checkpointed_golden(InOrderCore(), program)
        cycle = checkpointed.golden.cycles // 2
        outval = InOrderCore().registry.structure("x.outval").first_index
        planned = PlannedInjection(
            injection=Injection(flat_index=outval, cycle=cycle),
            protection=SiteProtection(), suppressed=False)
        folded = replay_planned_injection(InOrderCore(), program, planned,
                                          checkpointed)
        assert folded.dead_on_arrival
        assert folded.converged_at is None and folded.saved_cycles == 0
        assert folded.simulated_cycles == cycle - folded.resumed_from
        assert folded.result == checkpointed.golden
        assert folded.result.output is not checkpointed.golden.output
        detected = replay_planned_injection(
            InOrderCore(), program,
            replace(planned, protection=SiteProtection(technique="parity",
                                                       detects=True)),
            checkpointed)
        assert not detected.dead_on_arrival
        assert detected.outcome is OutcomeCategory.ED
        hung = record_checkpointed_golden(InOrderCore(), program,
                                          max_cycles=cycle + 100)
        assert not replay_planned_injection(InOrderCore(), program, planned,
                                            hung).dead_on_arrival

    @pytest.mark.parametrize("name, seed", [("vpr", 5), ("fft", 2)])
    def test_batched_folds_what_scalar_folds(self, name, seed):
        """At ``batch_width`` 0 and 16, gate on and off: the same outcomes,
        per-site tallies and dead-on-arrival count, which is the number of
        live planned flips the golden run's state calls dead."""
        program = workload_by_name(name).program()
        results = [
            InjectionEngine(InOrderCore(), program,
                            protection=MixedProtection(), seed=seed,
                            config=EngineConfig(batch_width=width,
                                                convergence_interval=interval),
                            golden_cache=GoldenRunCache()).run(injections=96)
            for width in (0, 16) for interval in (None, 0)]
        counts = [result.metrics["counters"].get(COUNT_DEAD_ON_ARRIVAL, 0)
                  for result in results]
        engine = InjectionEngine(InOrderCore(), program,
                                 protection=MixedProtection(), seed=seed,
                                 golden_cache=GoldenRunCache())
        golden = engine.golden().golden
        dead = {slot: {cycle for cycles in states.values()
                       for cycle in cycles}
                for slot, states in _rule_cycles(InOrderCore(),
                                                 program)[0].items()}
        expected = 0
        for planned in engine.resolve_plan(uniform_injection_plan(
                engine.core.flip_flop_count, golden.cycles, 96, seed=seed)):
            slot = engine.core.latches.slot(engine.core.registry.site(
                planned.injection.flat_index).structure.name)
            expected += (not is_inert(engine.core, golden, planned)
                         and not planned.protection.detects
                         and planned.injection.cycle in dead.get(slot, ()))
        assert expected > 0
        assert counts == [expected] * 4
        for result in results[1:]:
            assert result.outcomes == results[0].outcomes
            assert result.per_site == results[0].per_site


class TestInertFold:
    """Inert injections (``executors.is_inert``) are folded at plan time as
    golden copies; every executor must still match the legacy serial loop,
    which simulates them."""

    @staticmethod
    def _hint_plan(core, golden_cycles, stride=1):
        """Bit 0 and the top bit of every ``stride``-th hint structure at two
        cycles."""
        hints = [structure for structure in core.registry.structures
                 if not structure.architectural]
        return [Injection(flat_index=structure.first_index + bit, cycle=cycle)
                for cycle in (golden_cycles // 3, 2 * golden_cycles // 3)
                for structure in hints[::stride]
                for bit in sorted({0, structure.width - 1})]

    @staticmethod
    def _inert_count(result):
        return result.metrics["counters"].get(COUNT_INERT, 0)

    # Which flips of :meth:`_architectural_plan` the access log marks dead.
    _ARCHITECTURAL_DEAD = [True] * 8 + [False] * 4 + [True] * 2

    @staticmethod
    def _architectural_plan(core, program, golden):
        """Eight architectural flips the golden run's access log marks dead,
        four it keeps live, and two dead ones on sites
        :class:`MixedProtection` detects (and so never folds)."""
        dead_cycles = record_dead_cycles(core, program, golden)
        detected = MixedProtection().site_protection
        return [Injection(flat_index=flat_index, cycle=cycle)
                for dead, count, where in (
                    (True, 8, lambda flat_index: True),
                    (False, 4, lambda flat_index: True),
                    (True, 2, lambda flat_index: detected(flat_index).detects))
                for flat_index, cycle in _architectural_flips(
                    core, golden, dead_cycles, dead, count, where)]

    @pytest.fixture(scope="class")
    def references(self, program):
        """The hint and architectural parts of the plan and the whole
        plan's legacy (fully simulated) tallies per core and protection."""
        references = {}
        for core_cls in CORE_CLASSES:
            # Every fourth of OoO's 123 hint structures keeps the legacy
            # oracle, which simulates every injection from cycle 0, short.
            stride = 4 if core_cls is OutOfOrderCore else 1
            golden = core_cls().run(program)
            hint_plan = self._hint_plan(core_cls(), golden.cycles, stride)
            architectural_plan = self._architectural_plan(core_cls(), program,
                                                          golden)
            for protected in (False, True):
                references[core_cls, protected] = (
                    hint_plan, architectural_plan, legacy_campaign(
                        core_cls(), program,
                        MixedProtection() if protected else None, 8,
                        hint_plan + architectural_plan))
        return references

    # The in-order cases keep their historical ids; "-ooo" marks the others.
    @pytest.mark.parametrize("core_cls, protected", [
        pytest.param(core_cls, protected, id=label + suffix)
        for core_cls, suffix in ((InOrderCore, ""), (OutOfOrderCore, "-ooo"))
        for protected, label in ((False, "bare"), (True, "protected"))])
    @pytest.mark.parametrize("runner", ["scalar", "batched", "parallel"])
    def test_fold_matches_legacy_oracle(self, program, references, core_cls,
                                        protected, runner):
        """On the out-of-order core ``batched`` covers the scalar fallback
        of a batched campaign (only the in-order core runs lockstep)."""
        hint_plan, architectural_plan, (_, outcomes, per_site) = \
            references[core_cls, protected]
        plan = hint_plan + architectural_plan
        protection = MixedProtection() if protected else None
        config = {"scalar": EngineConfig(),
                  "batched": EngineConfig(batch_width=8),
                  "parallel": EngineConfig()}[runner]
        executor = ParallelExecutor(workers=2) if runner == "parallel" else None
        engine = InjectionEngine(core_cls(), program,
                                 protection=protection, seed=8,
                                 config=config, executor=executor,
                                 golden_cache=GoldenRunCache())
        result = engine.run(plan=plan)
        assert result.outcomes == outcomes
        assert result.per_site == per_site
        checkpointed = engine.golden()
        golden = checkpointed.golden
        resolved = engine.resolve_plan(plan)
        hint_resolved = resolved[:len(hint_plan)]
        architectural_resolved = resolved[len(hint_plan):]
        hint_inert = sum(is_inert(engine.core, golden, planned)
                         for planned in hint_resolved)
        if protected:
            # Parity-detected hint sites keep the simulated path.
            assert 0 < hint_inert < len(hint_plan)
        else:
            assert hint_inert == len(hint_plan)
        shallow = hint_inert + sum(is_inert(engine.core, golden, planned)
                                   for planned in architectural_resolved)
        expected = sum(is_inert(engine.core, golden, planned,
                                checkpointed.dead_cycles)
                       for planned in resolved)
        assert self._inert_count(result) == expected
        # Independently of ``is_inert``: an architectural flip folds when it
        # is suppressed or, on the out-of-order core, dead and undetected.
        dead_fold = core_cls.dead_flip_fold
        assert expected == hint_inert + sum(
            planned.suppressed
            or (dead_fold and dead and not planned.protection.detects)
            for planned, dead in zip(architectural_resolved,
                                     self._ARCHITECTURAL_DEAD))
        # Live architectural flips keep the simulated path.
        assert expected < len(plan)
        if core_cls is OutOfOrderCore:
            # Dead architectural flips fold on top of the hint plane and
            # the suppressed strikes.
            assert expected > shallow
        else:
            assert checkpointed.dead_cycles is None
            assert expected == shallow

    def test_dead_cycles_are_never_pickled(self, program, tmp_path):
        """The access log stays in the campaign process: pool workers and
        golden artifacts get the golden run without it."""
        store = GoldenArtifactStore(tmp_path)
        engine = InjectionEngine(OutOfOrderCore(), program, seed=8,
                                 golden_cache=GoldenRunCache(store=store))
        checkpointed = engine.golden()
        before = pickle.dumps(checkpointed)
        core = OutOfOrderCore()
        engine.run(plan=self._architectural_plan(core, program,
                                                 checkpointed.golden))
        assert checkpointed.dead_cycles is not None
        assert pickle.dumps(checkpointed) == before
        spec = CampaignSpec(core=core, program=program,
                            checkpointed=checkpointed)
        assert pickle.loads(pickle.dumps(spec)).checkpointed.dead_cycles \
            is None
        digest = artifact_digest(core, program)
        assert store.save(digest, checkpointed) is not None
        assert store.load(digest).dead_cycles is None

    def test_out_of_order_folds_hint_plane(self, program):
        core = OutOfOrderCore()
        golden = core.run(program)
        table = core.registry.structure("bp.gshare.table")
        plan = [Injection(flat_index=table.first_index + bit,
                          cycle=golden.cycles // 2) for bit in range(6)]
        _, outcomes, per_site = legacy_campaign(
            OutOfOrderCore(), program, MixedProtection(), 3, plan)
        engine = InjectionEngine(OutOfOrderCore(), program,
                                 protection=MixedProtection(), seed=3,
                                 golden_cache=GoldenRunCache())
        result = engine.run(plan=plan)
        assert result.outcomes == outcomes
        assert result.per_site == per_site
        resolved = engine.resolve_plan(plan)
        suppressed = sum(planned.suppressed for planned in resolved)
        assert 0 < suppressed < len(plan)
        inert = sum(is_inert(engine.core, engine.golden().golden, planned)
                    for planned in resolved)
        assert self._inert_count(result) == inert
        assert inert > suppressed

    def test_hung_golden_folds_nothing(self, program):
        engine = InjectionEngine(InOrderCore(), program,
                                 protection=MixedProtection(), seed=8,
                                 config=EngineConfig(max_cycles=300),
                                 golden_cache=GoldenRunCache())
        golden = engine.golden().golden
        assert golden.reason is TerminationReason.HANG
        plan = self._hint_plan(InOrderCore(), golden.cycles)
        assert any(planned.suppressed for planned in engine.resolve_plan(plan))
        result = engine.run(plan=plan)
        assert result.outcomes.total == len(plan)
        assert self._inert_count(result) == 0
