"""Alternative (higher-level) injection models.

Tables 11 and 14 of the paper compare resilience improvements evaluated with
accurate flip-flop-level injection against four naive higher-level injection
models: uniform architectural-register injection (regU), register-write
injection (regW), uniform program-variable injection (varU) and
program-variable-write injection (varW).  This module implements those four
models on top of the cycle-level cores so the same comparison can be made.

Campaigns route through the injection engine's checkpointed golden runs: the
golden run comes from the shared :data:`~repro.engine.GOLDEN_RUN_CACHE` (so
flip-flop and high-level campaigns on the same workload share it), every
injected run fast-forwards from the nearest snapshot at or below its
injection cycle and finishes through the engine's
:func:`~repro.engine.executors.run_gated` -- the same watchdog and
convergence gate as a flip-flop replay.  When the golden run carries a
fingerprint grid, a run whose fingerprint matches it is bit-identical to the
golden run from that cycle on, so it stops simulating and classifies against
a copy of the golden result.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum, unique

from repro.engine.checkpoint import GOLDEN_RUN_CACHE, CheckpointedGoldenRun
from repro.faultinjection.outcomes import OutcomeCounts, classify_outcome
from repro.isa.program import Program
from repro.isa.simulator import FunctionalSimulator
from repro.microarch.core import BaseCore
from repro.microarch.events import RunResult
from repro.isa.registers import NUM_REGISTERS


@unique
class InjectionLevel(Enum):
    """Where an error is injected."""

    FLIP_FLOP = "flip-flop"
    REGISTER_UNIFORM = "regU"
    REGISTER_WRITE = "regW"
    VARIABLE_UNIFORM = "varU"
    VARIABLE_WRITE = "varW"


@dataclass(frozen=True)
class HighLevelInjection:
    """A single architectural-level injection."""

    level: InjectionLevel
    cycle: int
    register: int | None = None
    address: int | None = None
    bit: int = 0


@dataclass(frozen=True)
class HighLevelCampaignResult:
    """One high-level campaign's outcome counts plus convergence telemetry.

    ``counts`` is the same :class:`OutcomeCounts` the campaign always
    produced (bit-identical with the gate on or off, by the fingerprint
    contract); ``converged_count`` / ``saved_cycles`` expose how much of the
    campaign the convergence gate decided early, and ``replayed_cycles``
    sums the cycles actually simulated after snapshot fast-forward.
    """

    level: InjectionLevel
    counts: OutcomeCounts
    converged_count: int = 0
    saved_cycles: int = 0
    replayed_cycles: int = 0


class HighLevelInjector:
    """Injects errors into architectural registers or program variables."""

    def __init__(self, core: BaseCore, seed: int = 0):
        self.core = core
        self._rng = random.Random(seed)
        self._functional = FunctionalSimulator()

    # ------------------------------------------------------------------ planning
    def plan(self, level: InjectionLevel, program: Program, golden: RunResult,
             count: int) -> list[HighLevelInjection]:
        """Sample ``count`` injections for the given injection level."""
        if level is InjectionLevel.REGISTER_UNIFORM:
            return [HighLevelInjection(level, cycle=self._rng.randrange(max(1, golden.cycles)),
                                       register=self._rng.randrange(1, NUM_REGISTERS),
                                       bit=self._rng.randrange(32))
                    for _ in range(count)]
        if level is InjectionLevel.VARIABLE_UNIFORM:
            addresses = sorted(program.data.as_memory_image()) or [program.data.base]
            return [HighLevelInjection(level, cycle=self._rng.randrange(max(1, golden.cycles)),
                                       address=self._rng.choice(addresses),
                                       bit=self._rng.randrange(32))
                    for _ in range(count)]
        trace = self._functional.run(program, collect_trace=True)
        if level is InjectionLevel.REGISTER_WRITE:
            events = trace.register_writes
            plan = []
            for _ in range(count):
                entry = self._rng.choice(events)
                cycle = self._scale_cycle(entry.index, trace.result.instructions,
                                          golden.cycles)
                plan.append(HighLevelInjection(level, cycle=cycle, register=entry.rd,
                                               bit=self._rng.randrange(32)))
            return plan
        if level is InjectionLevel.VARIABLE_WRITE:
            events = trace.memory_writes or trace.register_writes
            plan = []
            for _ in range(count):
                entry = self._rng.choice(events)
                cycle = self._scale_cycle(entry.index, trace.result.instructions,
                                          golden.cycles)
                plan.append(HighLevelInjection(level, cycle=cycle,
                                               address=entry.store_address,
                                               register=entry.rd,
                                               bit=self._rng.randrange(32)))
            return plan
        raise ValueError(f"plan() does not handle {level}")

    @staticmethod
    def _scale_cycle(instruction_index: int, total_instructions: int,
                     golden_cycles: int) -> int:
        """Map an instruction index onto an approximate commit cycle."""
        if total_instructions <= 0:
            return 0
        fraction = instruction_index / total_instructions
        return min(golden_cycles - 1, max(0, int(fraction * golden_cycles)))

    # ------------------------------------------------------------------ execution
    def _replay(self, program: Program, injection: HighLevelInjection,
                checkpointed: CheckpointedGoldenRun,
                ) -> tuple[RunResult, int | None, int]:
        """One replay from the nearest golden snapshot, finished by the
        engine's :func:`~repro.engine.executors.run_gated`:
        ``(result, converged_at, simulated_cycles)``."""
        # Deferred: executors imports this package's injector module, so a
        # module-level import here would be circular.
        from repro.engine.executors import run_gated

        def inject(core: BaseCore) -> None:
            if injection.register is not None and injection.address is None:
                index = injection.register & 0x1F
                if index != 0:
                    core.registers[index] ^= 1 << injection.bit
            elif injection.address is not None:
                memory = core.memory
                if memory.is_mapped(injection.address):
                    value = memory.load_word(injection.address)
                    memory.store_word(injection.address, value ^ (1 << injection.bit))

        snapshot = checkpointed.nearest(injection.cycle)
        if snapshot is None:
            self.core.reset(program)
        else:
            self.core.restore(program, snapshot)
        resumed_from = snapshot.cycle if snapshot is not None else 0
        injected, converged_at = run_gated(self.core, checkpointed,
                                           injection.cycle, inject)
        stopped = injected.cycles if converged_at is None else converged_at
        return injected, converged_at, stopped - resumed_from

    def campaign(self, level: InjectionLevel, program: Program,
                 count: int = 100,
                 convergence: bool = True) -> HighLevelCampaignResult:
        """Run a campaign at one injection level.

        ``convergence`` picks the golden run: with it off, the golden run
        is recorded without a fingerprint grid, so every injected run
        simulates to termination.  The returned
        :class:`HighLevelCampaignResult`'s ``counts`` are bit-identical
        either way.
        """
        checkpointed = GOLDEN_RUN_CACHE.get(
            self.core, program,
            fingerprint_interval=None if convergence else 0)
        golden = checkpointed.golden
        counts = OutcomeCounts()
        converged_count = 0
        saved_cycles = 0
        replayed_cycles = 0
        for injection in self.plan(level, program, golden, count):
            injected, converged_at, simulated = self._replay(
                program, injection, checkpointed)
            counts.record(classify_outcome(golden, injected))
            replayed_cycles += simulated
            if converged_at is not None:
                converged_count += 1
                saved_cycles += max(0, golden.cycles - converged_at)
        return HighLevelCampaignResult(level=level, counts=counts,
                                       converged_count=converged_count,
                                       saved_cycles=saved_cycles,
                                       replayed_cycles=replayed_cycles)
