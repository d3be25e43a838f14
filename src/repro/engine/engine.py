"""The checkpointed parallel injection engine.

:class:`InjectionEngine` is the front door for statistical injection
campaigns.  It composes three pieces:

1. a **checkpointed golden run** (from the shared :class:`GoldenRunCache`),
   so every injected run fast-forwards from the nearest snapshot at or below
   its injection cycle instead of re-simulating from cycle 0;
2. a **resolved plan**: the suppression lottery of every protected site is
   drawn centrally, in plan order, from the campaign seed -- reproducing the
   exact random stream of the original serial campaign loop while making
   every injection independently replayable;
3. a **pluggable executor** (serial or process-pool parallel) that streams
   per-chunk aggregates back into a :class:`CampaignResult`.

With a fixed seed the engine reports outcome counts and per-site tallies
identical to the pre-engine serial campaign, independent of worker count,
chunking or checkpoint spacing (see ``tests/test_engine.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.engine.checkpoint import (
    DEFAULT_MAX_CHECKPOINTS,
    DEFAULT_MAX_FINGERPRINTS,
    GOLDEN_RUN_CACHE,
    CheckpointedGoldenRun,
    GoldenRunCache,
    resolve_golden_cache,
)
from repro.engine.executors import (
    CampaignExecutor,
    CampaignSpec,
    ParallelExecutor,
    PlannedInjection,
    SerialExecutor,
    shard_plan,
    shard_plan_guided,
)
from repro.engine.schedule import ConvergenceSchedule
from repro.faultinjection.injector import (
    Injection,
    ProtectionProvider,
    SiteProtection,
    uniform_injection_plan,
)
from repro.faultinjection.outcomes import OutcomeCounts
from repro.isa.program import Program
from repro.microarch.core import BaseCore, DEFAULT_MAX_CYCLES
from repro.obs import Instrumentation
from repro.obs.phases import (
    COUNT_CONVERGED,
    COUNT_EVICTED,
    CYCLES_LOCKSTEP,
    CYCLES_SAVED,
    SPAN_CAMPAIGN,
    SPAN_PLAN,
    replayed_cycle_total,
)

if TYPE_CHECKING:  # pragma: no cover - typing only (campaign imports us lazily)
    from repro.faultinjection.campaign import CampaignResult


@dataclass(frozen=True)
class EngineConfig:
    """Tuning knobs of the injection engine.

    Attributes:
        checkpoint_interval: golden-run snapshot spacing in cycles.  ``None``
            (default) adapts the spacing to the run length under a bounded
            snapshot budget; ``0`` disables checkpointing (every injected run
            re-simulates from cycle 0 -- the pre-engine behaviour, kept as a
            benchmarking baseline).
        max_checkpoints: snapshot budget for the adaptive spacing.
        workers: worker-process count; ``1`` selects the serial executor.
        chunk_size: injections per work shard.  ``None`` derives a size that
            gives each worker a handful of chunks (load balancing without
            drowning in per-chunk pickling).
        max_cycles: golden-run watchdog.
        convergence: gate injected runs on golden-run fingerprint
            convergence -- once an injected core's full architectural state
            re-converges with the golden run at a grid cycle, the remainder
            is bit-identical by construction and is skipped.  ``False``
            restores the pre-convergence behaviour (full replay to
            termination, no fingerprint grid recorded) for benchmarking.
        convergence_interval: fingerprint-grid spacing in cycles.  ``None``
            (default) adapts a grid ~8-16x denser than the snapshot grid
            under a bounded budget; ``0`` disables the grid (same baseline
            as ``convergence=False``).
        max_fingerprints: fingerprint budget for the adaptive grid spacing.
        batch_width: lockstep wavefront width for batched replay
            (:mod:`repro.engine.batch`).  ``0`` (default) keeps every replay
            scalar; ``>= 2`` advances up to that many injected runs of one
            golden run together as vectorised wavefronts on supported cores
            (currently the in-order core; others fall back to scalar),
            composing with checkpoints and convergence gating.  Outcomes are
            bit-identical to scalar replay at any width.
        metrics: enable wall-clock phase timers and per-replay histograms
            (:mod:`repro.obs`).  Phase *cycle counters* are always collected
            -- they back the campaign telemetry -- so this flag only adds
            clock reads; outcomes are bit-identical either way.
        trace: span-based tracing of the campaign -> chunk -> replay
            lifecycle in Chrome trace-event format.  ``True`` collects the
            events on ``CampaignResult.trace_events``; a path additionally
            writes the JSON there (loadable in ``chrome://tracing`` /
            Perfetto).  ``False`` (default) skips span bookkeeping entirely.
        artifact_dir: directory of the persistent content-addressed
            golden-artifact store (:mod:`repro.engine.artifacts`).  ``None``
            (default) keeps golden runs in memory only; a path makes the
            golden cache two-tier -- memory, then disk, then recording --
            so repeated processes, pool workers and repeated campaigns load
            golden runs instead of re-recording them.  Engines pointing at
            the same directory share one in-memory cache per process.
        parallel_threshold: smallest plan size worth a process pool.  Plans
            below it run on the serial executor even when ``workers > 1``
            (pool spin-up plus payload pickling costs more than it saves on
            small campaigns -- a measured regression at 30 injections).
            ``0`` disables the fallback; an explicitly passed executor is
            always honoured as given.
        adaptive_check_spacing: learn a per-site convergence probe schedule
            (:mod:`repro.engine.schedule`) across this engine's campaigns:
            fast-reconverging sites keep dense early probes then back off
            exponentially, historically diverging sites go sparse
            immediately.  Probe schedules never change outcomes (a skipped
            probe only delays the early-out), only the saved-cycle
            telemetry; schedule state folds through ``ChunkResult`` as
            per-site integer sums, so it is deterministic across executors.
    """

    checkpoint_interval: int | None = None
    max_checkpoints: int = DEFAULT_MAX_CHECKPOINTS
    workers: int = 1
    chunk_size: int | None = None
    max_cycles: int = DEFAULT_MAX_CYCLES
    convergence: bool = True
    convergence_interval: int | None = None
    max_fingerprints: int = DEFAULT_MAX_FINGERPRINTS
    batch_width: int = 0
    metrics: bool = False
    trace: bool | str | Path = False
    artifact_dir: str | Path | None = None
    parallel_threshold: int = 64
    adaptive_check_spacing: bool = False

    @property
    def convergence_enabled(self) -> bool:
        return self.convergence and self.convergence_interval != 0

    @property
    def trace_enabled(self) -> bool:
        return bool(self.trace)

    @property
    def trace_path(self) -> Path | None:
        """Where to write the trace JSON (None: collect in memory only)."""
        if isinstance(self.trace, (str, Path)):
            return Path(self.trace)
        return None


class InjectionEngine:
    """Checkpointed, optionally parallel injection campaigns for one
    (core, program, protection) combination."""

    def __init__(self, core: BaseCore, program: Program,
                 protection: ProtectionProvider | None = None, seed: int = 0,
                 config: EngineConfig | None = None,
                 executor: CampaignExecutor | None = None,
                 golden_cache: GoldenRunCache | None = None):
        self.core = core
        self.program = program
        self.protection = protection
        self.seed = seed
        self.config = config or EngineConfig()
        resolved = resolve_golden_cache(golden_cache, None,
                                        artifact_dir=self.config.artifact_dir)
        self._cache = resolved if resolved is not None else GOLDEN_RUN_CACHE
        # Only an executor the engine built itself may be swapped for the
        # small-plan serial fallback; an explicit one is a caller decision.
        self._config_built_executor = executor is None
        if executor is not None:
            self._executor = executor
        elif self.config.workers > 1:
            self._executor = ParallelExecutor(workers=self.config.workers)
        else:
            self._executor = SerialExecutor()
        # Per-site probe-schedule learner; lives as long as the engine so
        # repeated campaigns keep refining their schedules.
        self._schedule = (ConvergenceSchedule()
                          if self.config.adaptive_check_spacing else None)

    @property
    def golden_cache(self) -> GoldenRunCache:
        """The golden-run cache this engine resolves goldens through."""
        return self._cache

    # ------------------------------------------------------------------ golden
    def golden(self, obs: Instrumentation | None = None
               ) -> CheckpointedGoldenRun:
        """The (cached) checkpointed golden run for this core and program."""
        return self._cache.get(
            self.core, self.program,
            interval=self.config.checkpoint_interval,
            max_checkpoints=self.config.max_checkpoints,
            max_cycles=self.config.max_cycles,
            fingerprint_interval=(self.config.convergence_interval
                                  if self.config.convergence_enabled else 0),
            max_fingerprints=self.config.max_fingerprints, obs=obs)

    # ------------------------------------------------------------------ planning
    def resolve_plan(self, plan: list[Injection]) -> list[PlannedInjection]:
        """Attach protection semantics and suppression draws to a raw plan.

        Draw order matches the serial injector exactly: one ``random()`` call
        per injection, in plan order, only for sites with a non-zero
        suppression probability.
        """
        rng = random.Random(self.seed)
        resolved = []
        for injection in plan:
            protection = (self.protection.site_protection(injection.flat_index)
                          if self.protection is not None else SiteProtection())
            suppressed = (protection.suppression > 0.0
                          and rng.random() < protection.suppression)
            resolved.append(PlannedInjection(injection=injection,
                                             protection=protection,
                                             suppressed=suppressed))
        return resolved

    def _select_executor(self, plan_length: int) -> CampaignExecutor:
        """The executor for one plan: the configured one, downgraded to
        serial when a config-built pool would lose to its own spin-up cost
        (``parallel_threshold``)."""
        if (self._config_built_executor
                and isinstance(self._executor, ParallelExecutor)
                and self.config.parallel_threshold > 0
                and plan_length < self.config.parallel_threshold):
            return SerialExecutor()
        return self._executor

    def _shard(self, planned: list[PlannedInjection],
               executor: CampaignExecutor) -> list:
        """Shard a resolved plan for ``executor``.

        Process pools get guided decreasing-size chunks (unless an explicit
        ``chunk_size`` pins fixed-size chunks); everything else
        keeps contiguous fixed-size chunks.  Both partitions preserve the
        bit-exactness contract: results merge in chunk-index order and each
        planned injection carries its pre-resolved lottery draw.
        """
        if (self.config.chunk_size is None
                and isinstance(executor, ParallelExecutor)
                and executor.workers > 1):
            # Late chunks never shrink below a lockstep wavefront's width.
            return shard_plan_guided(planned, self.seed, executor.workers,
                                     min_chunk=max(4, self.config.batch_width))
        return shard_plan(planned, self.seed,
                          self._chunk_size(len(planned), executor))

    def _chunk_size(self, plan_length: int,
                    executor: CampaignExecutor | None = None) -> int:
        if self.config.chunk_size is not None:
            return max(1, self.config.chunk_size)
        if executor is None:
            executor = self._executor
        workers = getattr(executor, "workers", 1)
        if workers <= 1:
            return max(1, plan_length)
        # ~4 chunks per worker: enough slack to balance uneven replay costs
        # (late injections replay fewer cycles than early ones).
        return max(1, -(-plan_length // (workers * 4)))

    # ------------------------------------------------------------------ running
    def run(self, injections: int = 200,
            plan: list[Injection] | None = None) -> CampaignResult:
        """Run a campaign of ``injections`` uniform samples (or an explicit
        ``plan``) and aggregate the streamed chunk results.

        Chunk results stream back in completion order but are buffered and
        *merged in chunk-index order*, so the aggregated metrics (float
        timers included) are deterministic for any executor or scheduling.
        Outcome counts and cycle counters are integer sums -- bit-identical
        in any order -- which is what keeps the campaign's exactness
        contract independent of the instrumentation flags.
        """
        from repro.faultinjection.campaign import CampaignResult

        config = self.config
        obs = Instrumentation.configure(metrics=config.metrics,
                                        trace=config.trace_enabled)
        tracer = obs.tracer
        with tracer.span(SPAN_CAMPAIGN,
                         args={"core": self.core.name,
                               "program": self.program.name,
                               "seed": self.seed,
                               "workers": config.workers,
                               "batch_width": config.batch_width}) as span:
            checkpointed = self.golden(obs=obs)
            golden = checkpointed.golden
            if plan is None:
                plan = uniform_injection_plan(self.core.flip_flop_count,
                                              golden.cycles, injections,
                                              seed=self.seed)
            with tracer.span(SPAN_PLAN, args={"injections": len(plan)}):
                planned = self.resolve_plan(plan)
                executor = self._select_executor(len(planned))
                chunks = self._shard(planned, executor)
            schedule_plans = None
            if (self._schedule is not None and config.convergence_enabled
                    and checkpointed.fingerprint_interval > 0):
                schedule_plans = self._schedule.plans_for(
                    (p.injection.flat_index for p in planned),
                    checkpointed.fingerprint_interval)
            spec = CampaignSpec(core=self.core, program=self.program,
                                checkpointed=checkpointed,
                                convergence=config.convergence_enabled,
                                batch_width=config.batch_width,
                                metrics=config.metrics,
                                trace=config.trace_enabled,
                                schedule_plans=schedule_plans)
            outcomes = OutcomeCounts()
            per_site: dict[int, OutcomeCounts] = {}
            chunk_results = sorted(executor.run_chunks(spec, chunks),
                                   key=lambda result: result.index)
            for chunk_result in chunk_results:
                outcomes = outcomes.merged_with(chunk_result.outcomes)
                for flat_index, counts in chunk_result.per_site.items():
                    merged = per_site.get(flat_index)
                    per_site[flat_index] = (counts if merged is None
                                            else merged.merged_with(counts))
                obs.metrics.merge(chunk_result.metrics)
                tracer.absorb(chunk_result.trace_events)
                if self._schedule is not None:
                    self._schedule.observe(chunk_result.site_observations)
            span.note(injections=len(planned), chunks=len(chunks))
        merged = obs.metrics
        trace_path = config.trace_path
        if trace_path is not None:
            tracer.save(trace_path)
        return CampaignResult(core_name=self.core.name,
                              program_name=self.program.name,
                              golden=golden, outcomes=outcomes,
                              per_site=per_site,
                              replayed_cycles=replayed_cycle_total(merged),
                              converged_count=merged.value(COUNT_CONVERGED),
                              saved_cycles=merged.value(CYCLES_SAVED),
                              evicted_count=merged.value(COUNT_EVICTED),
                              lockstep_cycles=merged.value(CYCLES_LOCKSTEP),
                              metrics=merged.to_dict(),
                              trace_events=(tracer.events
                                            if tracer.enabled else None))


def run_suite_campaign(core: BaseCore, workloads,
                       injections_per_workload: int = 100,
                       protection: ProtectionProvider | None = None,
                       seed: int = 0, config: EngineConfig | None = None,
                       golden_cache: GoldenRunCache | None = None,
                       max_cache_entries: int | None = None):
    """Run engine-backed campaigns over workloads and build a vulnerability map.

    Returns ``(vulnerability_map, [CampaignResult, ...])``.  Workload ``i``
    runs with seed ``seed + i``, matching the historical suite runner, and
    all campaigns share one golden-run cache.  ``max_cache_entries`` sizes a
    fresh private cache to the suite (one golden run per workload; the
    default process-wide cache holds 8 entries and thrashes on wider
    suites); it cannot be combined with an explicit ``golden_cache``.  With
    ``config.artifact_dir`` set, the suite's cache is backed by the
    persistent golden-artifact store, so repeated suite runs load golden
    runs instead of re-recording them.
    """
    from repro.faultinjection.vulnerability import VulnerabilityMap

    golden_cache = resolve_golden_cache(
        golden_cache, max_cache_entries,
        artifact_dir=config.artifact_dir if config is not None else None)
    vulnerability = VulnerabilityMap(core.name, core.flip_flop_count)
    results = []
    for offset, workload in enumerate(workloads):
        engine = InjectionEngine(core, workload.program(),
                                 protection=protection, seed=seed + offset,
                                 config=config, golden_cache=golden_cache)
        result = engine.run(injections=injections_per_workload)
        result.contribute_to(vulnerability)
        results.append(result)
    return vulnerability, results
