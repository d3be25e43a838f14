"""Tests for the synthetic-workload generation subsystem."""

from __future__ import annotations

import warnings

import pytest

from repro.engine import EngineConfig, GoldenRunCache, ParallelExecutor
from repro.isa import encode_instruction
from repro.microarch import CoreClass, InOrderCore, TerminationReason
from repro.workloads import (
    WorkloadClass,
    build_family,
    family_names,
    full_suite,
    register_family,
    register_suite,
    suite_for_core,
    synthetic_suite,
    workload_by_name,
)
from repro.workloads.synthesis import (
    BUILTIN_PROFILES,
    InstructionMix,
    ProgramSynthesizer,
    WorkloadProfile,
    run_synthetic_sweep,
    synthesize_workload,
)

QUICK = {"target_cycles": 1000, "data_words": 32}
"""Profile overrides keeping generated programs small for fast tests."""


def quick_profile(name: str = "mixed", **overrides) -> WorkloadProfile:
    return BUILTIN_PROFILES[name].evolve(**{**QUICK, **overrides})


# ---------------------------------------------------------------------- generator
class TestGeneratorDeterminism:
    def test_same_profile_and_seed_give_identical_program_bytes(self):
        profile = quick_profile()
        first = synthesize_workload(profile, seed=11)
        second = synthesize_workload(profile, seed=11)
        assert first.source == second.source
        first_bytes = [encode_instruction(i) for i in first.program().instructions]
        second_bytes = [encode_instruction(i) for i in second.program().instructions]
        assert first_bytes == second_bytes
        assert first.program().data.words == second.program().data.words
        assert first.expected_output() == second.expected_output()

    def test_different_seeds_give_different_programs(self):
        profile = quick_profile()
        assert (synthesize_workload(profile, seed=11).source
                != synthesize_workload(profile, seed=12).source)

    def test_distinct_families_draw_independent_streams(self):
        # Same seed, same-length family names: the data sections must not be
        # prefixes of one another (the RNG mixes the full name, not len()).
        streaming = synthesize_workload(
            BUILTIN_PROFILES["memory_streaming"].evolve(target_cycles=1000),
            seed=11).program().data.words
        dense = synthesize_workload(
            BUILTIN_PROFILES["arithmetic_dense"].evolve(target_cycles=1000),
            seed=11).program().data.words
        assert streaming[:len(dense)] != dense

    @pytest.mark.parametrize("family", sorted(BUILTIN_PROFILES))
    def test_generation_is_stable_per_family(self, family):
        profile = quick_profile(family)
        one = ProgramSynthesizer(profile, seed=5).generate()
        two = ProgramSynthesizer(profile, seed=5).generate()
        assert one == two
        assert one.loop_trips and all(t >= 1 for t in one.loop_trips)

    def test_cycle_budget_is_approximately_honoured(self, ino_core):
        profile = BUILTIN_PROFILES["mixed"].evolve(target_cycles=8000)
        workload = synthesize_workload(profile, seed=3)
        result = ino_core.run(workload.program(), max_cycles=200_000)
        assert result.reason is TerminationReason.HALTED
        assert 0.2 * profile.target_cycles < result.cycles < 5 * profile.target_cycles

    def test_floor_cycles_bounds_small_budgets(self, ino_core):
        # A budget far below the data-reduction floor yields a floor-sized
        # program, and floor_cycles predicts that within the CPI slack.
        profile = BUILTIN_PROFILES["memory_streaming"].evolve(target_cycles=1000)
        assert profile.floor_cycles > profile.target_cycles
        workload = synthesize_workload(profile, seed=3)
        result = ino_core.run(workload.program(), max_cycles=200_000)
        assert result.reason is TerminationReason.HALTED
        assert result.cycles >= 0.5 * profile.floor_cycles


class TestOracleAgreement:
    @pytest.mark.parametrize("family", sorted(BUILTIN_PROFILES))
    def test_simulator_golden_matches_inorder_core(self, ino_core, family):
        workload = synthesize_workload(quick_profile(family), seed=21)
        result = ino_core.run(workload.program(), max_cycles=200_000)
        assert result.reason is TerminationReason.HALTED
        assert result.output == workload.expected_output()
        assert len(workload.expected_output()) >= 4

    def test_simulator_golden_matches_ooo_core(self, ooo_core):
        workload = synthesize_workload(quick_profile("mixed"), seed=21)
        result = ooo_core.run(workload.program(), max_cycles=200_000)
        assert result.reason is TerminationReason.HALTED
        assert result.output == workload.expected_output()


class TestProfileValidation:
    def test_rejects_bad_loop_depth(self):
        with pytest.raises(ValueError):
            WorkloadProfile(name="x", loop_depth=4)

    def test_rejects_non_power_of_two_data(self):
        with pytest.raises(ValueError):
            WorkloadProfile(name="x", data_words=48)

    def test_rejects_empty_mix(self):
        with pytest.raises(ValueError):
            InstructionMix(0, 0, 0, 0)

    def test_rejects_budget_beyond_engine_watchdog(self):
        with pytest.raises(ValueError):
            WorkloadProfile(name="x", target_cycles=50_000_000)

    def test_evolve_revalidates(self):
        with pytest.raises(ValueError):
            BUILTIN_PROFILES["mixed"].evolve(target_cycles=1)


# ---------------------------------------------------------------------- registry
class TestRegistry:
    def test_builtin_families_registered(self):
        assert set(BUILTIN_PROFILES) <= set(family_names())

    def test_build_family_by_name(self):
        workloads = build_family("mixed", seed=9, count=2, **QUICK)
        assert len(workloads) == 2
        assert all(w.suite is WorkloadClass.SYNTHETIC for w in workloads)
        assert workloads[0].name != workloads[1].name

    def test_synthetic_suite_single_seeded_call(self):
        suite = synthetic_suite(seed=9, per_family=4, **QUICK)
        assert len(suite) >= 20
        names = [w.name for w in suite]
        assert len(names) == len(set(names))

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_suite("spec", list)
        with pytest.raises(ValueError):
            register_family("mixed", list)

    def test_registration_before_builtin_load_is_safe(self):
        # In a fresh process, a user registration must load the built-in
        # families first: collisions surface immediately and family order
        # (which derives sweep campaign seeds) stays stable.
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        # repro is a namespace package (no __init__.py), so locate it via
        # __path__ rather than __file__.
        src_dir = Path(next(iter(repro.__path__))).resolve().parent
        script = (
            "from repro.workloads import register_family, family_names\n"
            "try:\n"
            "    register_family('mixed', list)\n"
            "except ValueError:\n"
            "    pass\n"
            "else:\n"
            "    raise SystemExit('collision with builtin not detected')\n"
            "register_family('user_family', list)\n"
            "names = family_names()\n"
            "assert names[-1] == 'user_family', names\n"
            "assert 'control_heavy' in names and 'mixed' in names, names\n"
        )
        subprocess.run([sys.executable, "-c", script], check=True,
                       env={**os.environ, "PYTHONPATH": str(src_dir)})

    def test_unknown_family_raises(self):
        with pytest.raises(KeyError):
            build_family("does-not-exist")

    def test_workload_by_name_cached_lookup(self):
        assert workload_by_name("bzip2") is workload_by_name("bzip2")
        with pytest.raises(KeyError):
            workload_by_name("does-not-exist")


class TestSuiteForCore:
    def test_accepts_core_objects(self, ino_core, ooo_core):
        assert len(suite_for_core(ino_core)) == 18
        assert len(suite_for_core(ooo_core)) == 11

    def test_accepts_core_class(self):
        assert len(suite_for_core(CoreClass.IN_ORDER)) == 18
        assert len(suite_for_core(CoreClass.OUT_OF_ORDER)) == 11

    def test_renamed_core_keeps_its_suite(self):
        assert len(suite_for_core(InOrderCore(name="my-ino"))) == 18

    def test_unknown_name_string_raises(self):
        with pytest.raises(KeyError):
            suite_for_core("mystery-core")


# ---------------------------------------------------------------------- sweep
def _assert_sweeps_identical(serial, other):
    assert [p.family for p in other.profiles] == \
           [p.family for p in serial.profiles]
    for mine, theirs in zip(serial.profiles, other.profiles):
        assert mine.outcomes.as_dict() == theirs.outcomes.as_dict()
        assert mine.workload_names == theirs.workload_names
        assert mine.golden_cycles == theirs.golden_cycles
    names = serial.workload_names
    assert serial.vulnerability.probabilities(names) == \
           other.vulnerability.probabilities(names)


class TestSyntheticSweep:
    def test_seeded_sweep_is_reproducible_and_executor_independent(self, ino_core):
        """The acceptance path: one seeded call generates a >=20-workload
        suite, campaigns it through the engine, and tabulates per-profile
        vulnerability -- bit-identically across executors and repeats."""
        cache = GoldenRunCache(max_entries=20)
        kwargs = dict(seed=5, per_family=4, injections_per_workload=3,
                      golden_cache=cache, **QUICK)
        serial = run_synthetic_sweep(ino_core, **kwargs)
        repeat = run_synthetic_sweep(ino_core, **kwargs)
        pooled = run_synthetic_sweep(ino_core, workers=2, **kwargs)

        assert len(serial.workload_names) >= 20
        assert serial.table().count("\n") >= len(serial.profiles)
        for other in (repeat, pooled):
            _assert_sweeps_identical(serial, other)

    def test_workload_sharded_sweep_matches_serial_loop(self, ino_core):
        """Sharding whole campaigns over the executor layer is bit-exact."""
        kwargs = dict(seed=11, per_family=2, injections_per_workload=3, **QUICK)
        serial = run_synthetic_sweep(ino_core, workers=1, **kwargs)
        sharded = run_synthetic_sweep(ino_core, workers=2, **kwargs)
        odd_chunks = run_synthetic_sweep(ino_core, workers=3, **kwargs)
        _assert_sweeps_identical(serial, sharded)
        _assert_sweeps_identical(serial, odd_chunks)

    def test_workload_sharded_sweep_matches_serial_loop_ooo(self, ooo_core):
        kwargs = dict(seed=11, per_family=1, injections_per_workload=2,
                      families=["mixed", "arithmetic_dense"], **QUICK)
        serial = run_synthetic_sweep(ooo_core, workers=1, **kwargs)
        sharded = run_synthetic_sweep(ooo_core, workers=2, **kwargs)
        _assert_sweeps_identical(serial, sharded)

    def test_undersized_cache_warns(self, ino_core):
        """The default sweep's 20 workloads overflow a default 18-entry
        cache; an exactly sized one is quiet."""
        kwargs = dict(seed=5, injections_per_workload=1, **QUICK)
        with pytest.warns(RuntimeWarning, match="holds 18 .* has 20 "):
            run_synthetic_sweep(ino_core, golden_cache=GoldenRunCache(),
                                **kwargs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_synthetic_sweep(ino_core,
                                golden_cache=GoldenRunCache(max_entries=20),
                                **kwargs)

    def test_sharded_sweep_leaves_caller_cache_untouched(self, ino_core):
        # Worker processes build private golden-run caches; the caller's
        # cache must never be consulted (or mutated) on the sharded path.
        cache = GoldenRunCache()
        run_synthetic_sweep(ino_core, seed=3, per_family=1,
                            injections_per_workload=2, workers=2,
                            families=["mixed", "control_heavy"],
                            golden_cache=cache, **QUICK)
        assert len(cache) == 0 and cache.misses == 0

    def test_seed_block_collisions_rejected(self, ino_core):
        from repro.workloads.synthesis.sweep import _FAMILY_SEED_STRIDE

        with pytest.raises(ValueError, match="family seed stride"):
            run_synthetic_sweep(ino_core, per_family=_FAMILY_SEED_STRIDE)
        with pytest.raises(ValueError, match="non-negative"):
            run_synthetic_sweep(ino_core, seed=-1)
        with pytest.raises(ValueError, match="64-bit"):
            run_synthetic_sweep(ino_core, seed=2 ** 62)
        with pytest.raises(ValueError, match="per_family"):
            run_synthetic_sweep(ino_core, per_family=0)
        with pytest.raises(ValueError, match="injections_per_workload"):
            run_synthetic_sweep(ino_core, injections_per_workload=0)

    def test_sweep_builds_vulnerability_map_for_dependence_analysis(self, ino_core):
        sweep = run_synthetic_sweep(ino_core, seed=5, per_family=1,
                                    injections_per_workload=4,
                                    families=["mixed", "branch_chaotic"],
                                    **QUICK)
        assert sweep.vulnerability.core_name == ino_core.name
        assert set(sweep.workload_names) == {
            name for profile in sweep.profiles for name in profile.workload_names}
        assert sum(p.injections for p in sweep.profiles) == 8

    def test_engine_config_selects_executor_by_worker_count(self, ino_core):
        from repro.engine import InjectionEngine, SerialExecutor

        program = synthesize_workload(quick_profile(), seed=2).program()
        serial = InjectionEngine(ino_core, program, config=EngineConfig())
        pooled = InjectionEngine(ino_core, program,
                                 config=EngineConfig(workers=2))
        assert isinstance(serial._executor, SerialExecutor)
        assert isinstance(pooled._executor, ParallelExecutor)
        assert pooled._executor.workers == 2
