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

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import (
    CheckpointedGoldenRun,
    EngineConfig,
    GoldenRunCache,
    InjectionEngine,
    ParallelExecutor,
    PlannedInjection,
    SerialExecutor,
    record_checkpointed_golden,
    replay_planned_injection,
)
from repro.faultinjection import (
    FlipFlopInjector,
    Injection,
    OutcomeCategory,
    OutcomeCounts,
    SiteProtection,
    exhaustive_site_plan,
    uniform_injection_plan,
)
from repro.isa.program import DataSegment
from repro.microarch import InOrderCore, OutOfOrderCore
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
        expected = core.latches.snapshot()
        core.latches.clear()
        core.latches.deserialize(values)
        assert core.latches.snapshot() == expected
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
                                     config=EngineConfig(chunk_size=5),
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
        for convergence in (False, True):
            config = EngineConfig(convergence=convergence,
                                  convergence_interval=interval)
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
        seed, count = 29, 24
        full = InjectionEngine(
            InOrderCore(), program, protection=MixedProtection(), seed=seed,
            config=EngineConfig(convergence=False),
            executor=SerialExecutor(),
            golden_cache=GoldenRunCache()).run(injections=count)
        gated = InjectionEngine(
            InOrderCore(), program, protection=MixedProtection(), seed=seed,
            config=EngineConfig(chunk_size=5),
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
        ungated = replay_planned_injection(core, program, planned,
                                           checkpointed, convergence=False)
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

    def test_engine_config_gating_knobs(self):
        assert EngineConfig().convergence_enabled
        assert not EngineConfig(convergence=False).convergence_enabled
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
        from repro.faultinjection.campaign import run_suite_campaign

        workloads = [workload_by_name("histogram"), workload_by_name("vpr")]
        with pytest.raises(ValueError):
            run_suite_campaign(InOrderCore(), workloads,
                               injections_per_workload=2,
                               golden_cache=GoldenRunCache(),
                               max_cache_entries=2)
        vulnerability, results = run_suite_campaign(
            InOrderCore(), workloads, injections_per_workload=2,
            max_cache_entries=2)
        assert len(results) == 2


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
            config = EngineConfig(convergence=convergence,
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
            config=EngineConfig(batch_width=8, chunk_size=8),
            executor=ParallelExecutor(workers=2),
            golden_cache=GoldenRunCache()).run(injections=count)
        assert batched.outcomes == scalar.outcomes
        assert batched.per_site == scalar.per_site

    def test_supported_core_seam(self):
        from repro.engine.batch import batched_replay_supported

        assert batched_replay_supported(InOrderCore())
        assert not batched_replay_supported(OutOfOrderCore())

        class TweakedInOrder(InOrderCore):
            """Subclasses may override stage behaviour the lockstep stepper
            does not mirror, so they must fall back to scalar."""

        assert not batched_replay_supported(TweakedInOrder())

    def test_batched_telemetry_fractions(self, program):
        result = InjectionEngine(
            InOrderCore(), program, seed=5,
            config=EngineConfig(batch_width=8),
            golden_cache=GoldenRunCache()).run(injections=20)
        assert 0.0 <= result.evicted_fraction <= 1.0
        assert 0.0 <= result.lockstep_cycle_fraction <= 1.0
        try:
            import numpy  # noqa: F401
        except ImportError:
            assert result.lockstep_cycles == 0  # graceful scalar fallback
        else:
            assert result.lockstep_cycles > 0
            assert result.lockstep_cycles <= result.replayed_cycles

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
