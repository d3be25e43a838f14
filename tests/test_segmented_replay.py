"""The gated replay against a per-cycle reference.

:func:`~repro.engine.executors.run_gated` finishes every injected replay.
This module keeps, as an oracle, the plain way to run one: step the core
cycle by cycle and call, at the start of every cycle, an injection hook
that flips the bit on the injection cycle and a convergence hook that
probes the golden fingerprint grid on the :func:`should_check` schedule.
The engine's replay must agree with it exactly -- the same
``RunResult``, the same convergence cycle, the same simulated cycles and
the same number of fingerprint probes -- on both cores and for the
high-level injector, including the edge cases: the first and last cycle,
snapshot and grid cycles, detected and recovered flips, a hung golden run,
a golden run without a grid, and a replay resumed mid-run.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from repro.engine.checkpoint import record_checkpointed_golden
from repro.engine.executors import (
    DENSE_WINDOW,
    golden_copy,
    replay,
    run_gated,
    should_check,
)
from repro.faultinjection import HighLevelInjection, HighLevelInjector
from repro.faultinjection import InjectionLevel
from repro.faultinjection.injector import (
    FlipFlopInjector,
    Injection,
    SiteProtection,
    build_injection,
    injection_watchdog,
)
from repro.faultinjection.outcomes import classify_outcome
from repro.microarch import InOrderCore, OutOfOrderCore
from repro.microarch.events import (
    DetectionEvent,
    RunResult,
    TerminationReason,
)
from repro.obs import MetricsRegistry
from repro.obs.phases import COUNT_FINGERPRINT_CHECKS
from repro.workloads import workload_by_name

CORE_CLASSES = (InOrderCore, OutOfOrderCore)

SITES = 6
"""Seeded architectural flip sites per case."""

HUNG_MAX_CYCLES = 300


# ---------------------------------------------------------------------- oracle
class _Converged(Exception):
    def __init__(self, cycle: int):
        super().__init__(cycle)
        self.cycle = cycle


def _oracle_loop(core, max_cycles: int, hook) -> RunResult:
    """Step ``core`` one cycle at a time to termination or ``max_cycles``,
    calling ``hook(core, cycle)`` at the start of every cycle.  A cycle
    with recovery stall pending is charged here, so the pipeline is only
    ever asked to step a one-cycle segment with no stall."""
    while core._termination is None:
        if core._cycle >= max_cycles:
            core._termination = TerminationReason.HANG
            break
        if hook is not None:
            hook(core, core._cycle)
        if core._termination is not None:
            break
        if core._pending_recovery > 0:
            core._pending_recovery -= 1
            core._cycle += 1
        else:
            core._advance(core._cycle + 1)
    return RunResult(
        program_name=core._program.name, core_name=core.name,
        reason=core._termination, trap=core._trap, cycles=core._cycle,
        instructions_retired=core._retired, output=list(core._output),
        detections=list(core._detections),
        recovery_cycles=core._recovery_cycles)


def _oracle_injection_hook(injection: Injection, protection: SiteProtection):
    def hook(core, cycle: int) -> None:
        if cycle != injection.cycle:
            return
        if protection.detects and protection.recoverable:
            core.signal_detection(DetectionEvent(
                technique=protection.technique, cycle=cycle + 1,
                detail=f"ff={injection.flat_index}", recovered=True))
            core.schedule_recovery(protection.recovery_latency)
            return
        structure = core.latches.flip_flat(injection.flat_index)
        if protection.detects:
            core.signal_detection(DetectionEvent(
                technique=protection.technique, cycle=cycle + 1,
                detail=f"ff={injection.flat_index} structure={structure}",
                recovered=False))
            core.force_termination(TerminationReason.DETECTED)

    return hook


def _oracle_gated(core, checkpointed, injection_cycle: int, hook,
                  metrics: MetricsRegistry):
    golden = checkpointed.golden
    if checkpointed.fingerprints and golden.reason is not TerminationReason.HANG:
        fingerprints = checkpointed.fingerprints
        interval = checkpointed.fingerprint_interval
        base_point = injection_cycle // interval
        inner = hook

        def hook(core, cycle: int) -> None:
            if inner is not None:
                inner(core, cycle)
            if cycle <= injection_cycle or cycle % interval:
                return
            expected = fingerprints.get(cycle)
            if expected is None or not should_check(cycle // interval
                                                    - base_point):
                return
            metrics.inc(COUNT_FINGERPRINT_CHECKS)
            if core.state_fingerprint() == expected:
                raise _Converged(cycle)

    try:
        return _oracle_loop(core, injection_watchdog(golden), hook), None
    except _Converged as converged:
        return golden_copy(golden), converged.cycle


# ---------------------------------------------------------------------- harness
def _position(core, program, checkpointed, cycle: int) -> int:
    snapshot = checkpointed.nearest(cycle)
    if snapshot is None:
        core.reset(program)
        return 0
    core.restore(program, snapshot)
    return snapshot.cycle


def _replay_both(core_cls, program, checkpointed, injection: Injection,
                 protection: SiteProtection):
    """``(engine, oracle)`` tuples of ``(result, converged_at, simulated
    cycles, fingerprint probes)`` for one flip."""
    outcomes = []
    for engine_side in (True, False):
        core = core_cls()
        resumed_from = _position(core, program, checkpointed, injection.cycle)
        metrics = MetricsRegistry()
        if engine_side:
            inject = build_injection(injection, protection, False)
            result, converged_at = run_gated(core, checkpointed,
                                             injection.cycle, inject,
                                             metrics=metrics)
        else:
            hook = _oracle_injection_hook(injection, protection)
            result, converged_at = _oracle_gated(core, checkpointed,
                                                 injection.cycle, hook,
                                                 metrics)
        stopped = result.cycles if converged_at is None else converged_at
        outcomes.append((result, converged_at, stopped - resumed_from,
                         metrics.value(COUNT_FINGERPRINT_CHECKS)))
    return outcomes


def _sites(core, count: int = SITES, seed: int = 3) -> list[int]:
    rng = random.Random(seed)
    architectural = [index for index in range(core.flip_flop_count)
                     if core.registry.site(index).structure.architectural]
    return rng.sample(architectural, count)


@pytest.fixture(scope="module")
def program():
    return workload_by_name("vpr").program()


@pytest.fixture(scope="module", params=CORE_CLASSES, ids=lambda c: c.__name__)
def core_cls(request):
    return request.param


@pytest.fixture(scope="module")
def recorded(core_cls, program):
    return record_checkpointed_golden(core_cls(), program)


def _assert_agree(core_cls, program, checkpointed, cycles,
                  protection=SiteProtection()):
    converged = 0
    for cycle in cycles:
        for site in _sites(core_cls()):
            engine, oracle = _replay_both(core_cls, program, checkpointed,
                                          Injection(site, cycle), protection)
            assert engine == oracle, (site, cycle)
            converged += engine[1] is not None
    return converged


# ---------------------------------------------------------------------- cases
class TestFlipFlopReplay:
    def test_edge_cycles(self, core_cls, program, recorded):
        golden = recorded.golden
        snapshot_cycle = recorded.snapshots[len(recorded.snapshots) // 2].cycle
        interval = recorded.fingerprint_interval
        grid_cycle = next(cycle for cycle in sorted(recorded.fingerprints)
                          if cycle > golden.cycles // 3
                          and cycle % recorded.interval)
        assert grid_cycle % interval == 0
        converged = _assert_agree(
            core_cls, program, recorded,
            [0, snapshot_cycle, grid_cycle, grid_cycle - 1,
             golden.cycles - 1])
        assert converged  # the gate fires on some of these replays

    def test_detected_unrecoverable_flip(self, core_cls, program, recorded):
        cycles = [0, recorded.snapshots[0].cycle, recorded.golden.cycles - 1]
        _assert_agree(core_cls, program, recorded, cycles,
                      SiteProtection(technique="parity", detects=True))

    def test_watchdog_comes_before_the_injection(self, core_cls, program):
        """An injection due on the watchdog cycle of a hung golden run
        never fires: the run hangs first, undetected."""
        hung = record_checkpointed_golden(core_cls(), program,
                                          max_cycles=HUNG_MAX_CYCLES)
        watchdog = injection_watchdog(hung.golden)
        _assert_agree(core_cls, program, hung, [watchdog - 1, watchdog],
                      SiteProtection(technique="parity", detects=True))

    def test_recovery_stall_spans_probe_cycles(self, core_cls, program,
                                               recorded):
        interval = recorded.fingerprint_interval
        grid_cycle = sorted(recorded.fingerprints)[4]
        protection = SiteProtection(technique="parity", detects=True,
                                    recoverable=True,
                                    recovery_latency=3 * interval + 1)
        _assert_agree(core_cls, program, recorded,
                      [grid_cycle - 1, grid_cycle], protection)

    def test_hung_golden_run(self, core_cls, program):
        hung = record_checkpointed_golden(core_cls(), program,
                                          max_cycles=HUNG_MAX_CYCLES)
        assert hung.golden.reason is TerminationReason.HANG
        assert hung.fingerprints
        converged = _assert_agree(core_cls, program, hung,
                                  [0, 100, HUNG_MAX_CYCLES - 1])
        assert converged == 0

    def test_golden_without_a_grid(self, core_cls, program):
        ungridded = record_checkpointed_golden(core_cls(), program,
                                               fingerprint_interval=0)
        assert not ungridded.fingerprints
        converged = _assert_agree(core_cls, program, ungridded,
                                  [0, ungridded.golden.cycles // 2])
        assert converged == 0

    @pytest.mark.parametrize("points_after", [1, DENSE_WINDOW + 3])
    def test_resumed_mid_run_on_a_grid_cycle(self, core_cls, program,
                                             recorded, points_after):
        """A replay handed over mid-run (as the batched tandem fallback
        does) first probes the cycle it starts on, if that is a scheduled
        grid point."""
        interval = recorded.fingerprint_interval
        injection_cycle = recorded.golden.cycles // 4
        start = (injection_cycle // interval + points_after) * interval
        assert should_check(points_after) is (points_after <= DENSE_WINDOW)
        checked = 0
        for site in _sites(core_cls()):
            source = core_cls()
            _position(source, program, recorded, injection_cycle)
            while source.cycle < injection_cycle:
                source.step()
            source.latches.flip_flat(site)
            while source.cycle < start and source.step():
                pass
            if source.terminated:
                continue
            handed_over = source.snapshot()
            outcomes = []
            for engine_side in (True, False):
                core = core_cls()
                core.restore(program, handed_over)
                metrics = MetricsRegistry()
                if engine_side:
                    result, converged_at = run_gated(
                        core, recorded, injection_cycle, None,
                        metrics=metrics)
                else:
                    result, converged_at = _oracle_gated(
                        core, recorded, injection_cycle, None, metrics)
                outcomes.append((result, converged_at,
                                 metrics.value(COUNT_FINGERPRINT_CHECKS)))
            assert outcomes[0] == outcomes[1], site
            checked += 1
        assert checked


class TestFlipFlopInjector:
    """The injector's plain (uncheckpointed, ungated) run uses the same
    one-shot injection."""

    @pytest.mark.parametrize("protection", [
        SiteProtection(),
        SiteProtection(technique="parity", detects=True),
        SiteProtection(technique="parity", detects=True, recoverable=True,
                       recovery_latency=20)],
        ids=["unprotected", "detected", "recovered"])
    def test_matches_the_per_cycle_reference(self, core_cls, program,
                                             recorded, protection):
        golden = recorded.golden
        provider = SimpleNamespace(site_protection=lambda index: protection)
        for cycle in (0, golden.cycles // 2, golden.cycles - 1):
            for site in _sites(core_cls(), count=3):
                injection = Injection(site, cycle)
                engine = FlipFlopInjector(core_cls(), provider).\
                    run_with_injection(program, injection, golden)
                core = core_cls()
                core.reset(program)
                oracle = _oracle_loop(
                    core, injection_watchdog(golden),
                    _oracle_injection_hook(injection, protection))
                assert engine == (oracle, classify_outcome(golden, oracle))


class TestHighLevelReplay:
    @staticmethod
    def _oracle(core, program, injection: HighLevelInjection, checkpointed):
        def hook(core, cycle: int) -> None:
            if cycle != injection.cycle:
                return
            if injection.register is not None and injection.address is None:
                index = injection.register & 0x1F
                if index != 0:
                    core.registers[index] ^= 1 << injection.bit
            elif injection.address is not None:
                memory = core.memory
                if memory.is_mapped(injection.address):
                    value = memory.load_word(injection.address)
                    memory.store_word(injection.address,
                                      value ^ (1 << injection.bit))

        resumed_from = _position(core, program, checkpointed, injection.cycle)
        result, converged_at = _oracle_gated(core, checkpointed,
                                             injection.cycle, hook,
                                             MetricsRegistry())
        stopped = result.cycles if converged_at is None else converged_at
        return result, converged_at, stopped - resumed_from

    @pytest.mark.parametrize("hung", [False, True], ids=["halted", "hung"])
    def test_matches_the_per_cycle_reference(self, core_cls, program,
                                             recorded, hung):
        checkpointed = (record_checkpointed_golden(
            core_cls(), program, max_cycles=HUNG_MAX_CYCLES)
            if hung else recorded)
        golden = checkpointed.golden
        injector = HighLevelInjector(core_cls(), seed=4)
        plan = (injector.plan(InjectionLevel.REGISTER_UNIFORM, program,
                              golden, 6)
                + injector.plan(InjectionLevel.VARIABLE_UNIFORM, program,
                                golden, 6))
        plan += [HighLevelInjection(InjectionLevel.REGISTER_UNIFORM,
                                    cycle=cycle, register=5, bit=2)
                 for cycle in (0, golden.cycles - 1)]
        converged = 0
        for injection in plan:
            # A fresh core on each side: a core reset for cycle 0 keeps
            # some state of its previous run, which can shift convergence.
            run = replay(core_cls(), program, injection.cycle,
                         injection.apply, checkpointed)
            oracle = self._oracle(core_cls(), program, injection,
                                  checkpointed)
            engine = (run.result, run.converged_at, run.simulated_cycles)
            assert engine == oracle, injection
            converged += run.converged_at is not None
        assert (converged == 0) is hung
