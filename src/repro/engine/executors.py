"""Pluggable streaming shard executors.

An executor takes one shared *payload* (pickled once per worker via the pool
initializer), a list of shard objects (each carrying a stable ``index``) and
a module-level shard function, and *streams* per-shard results back as they
complete, so consumers can fold aggregates incrementally instead of
materialising every raw result.  Two consumers ride this layer today: the
injection engine (payload = :class:`CampaignSpec`, shards =
:class:`ChunkSpec`) and the cross-layer exploration engine (payload =
``ExplorationSpec``, shards of (combination, target) work).

Two executors ship here:

* :class:`SerialExecutor` runs shards in order on the calling process --
  zero overhead, exact pre-engine semantics.
* :class:`ParallelExecutor` fans shards out over a
  :class:`concurrent.futures.ProcessPoolExecutor`; each worker receives one
  pickled copy of the payload via the pool initializer and then only shard
  objects per task.  Shards carry deterministic derived seeds and
  pre-resolved stochastic draws, so results are independent of sharding,
  scheduling and completion order.  If the pool cannot start (OS limits in
  sandboxes), loses a worker, or cannot pickle a task, execution falls back
  to serial for the shards that have not completed; an exception raised
  *by* a shard propagates unchanged.

The campaign-specific ``run_chunks`` entry points remain as thin wrappers
binding the generic layer to :func:`execute_chunk`.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterator, Protocol, TypeVar

from repro.faultinjection.injector import (
    Injection,
    SiteProtection,
    build_injection_hook,
    injection_watchdog,
)
from repro.faultinjection.outcomes import OutcomeCategory, OutcomeCounts, classify_outcome
from repro.isa.program import Program
from repro.microarch.core import BaseCore, CycleHook
from repro.microarch.events import RunResult, TerminationReason
from repro.engine.checkpoint import CheckpointedGoldenRun
from repro.engine.schedule import SitePlan
from repro.obs import Instrumentation, MetricsRegistry
from repro.obs.metrics import NULL_METRICS
from repro.obs.phases import (
    COUNT_CONVERGED,
    COUNT_FINGERPRINT_CHECKS,
    COUNT_FINGERPRINT_FULL,
    COUNT_REPLAYS,
    CYCLES_FASTFORWARD,
    CYCLES_LOCKSTEP,
    CYCLES_SAVED,
    CYCLES_SCALAR,
    HISTOGRAM_CHECK_LATENCY_US,
    HISTOGRAM_REPLAY_CYCLES,
    PHASE_CONVERGENCE,
    PHASE_FASTFORWARD,
    PHASE_SCALAR_REPLAY,
    REPLAY_CYCLE_COUNTERS,
    SPAN_CHUNK,
)
from repro.obs.phases import COUNT_EVICTED as _COUNT_EVICTED

_SEED_STRIDE = 1_000_003
"""Multiplier for deriving per-chunk seeds from the campaign seed."""


@dataclass(frozen=True)
class PlannedInjection:
    """One injection with its protection semantics fully resolved.

    The suppression lottery is drawn centrally (in campaign-plan order, from
    the campaign seed) before sharding, which is what makes chunk execution
    order-independent: no worker ever touches a shared random stream.
    """

    injection: Injection
    protection: SiteProtection
    suppressed: bool


@dataclass
class CampaignSpec:
    """Everything a worker needs to replay injections for one campaign.

    ``convergence`` gates early termination of injected runs whose state
    fingerprint re-converges with the golden run's grid; set it to False to
    force full replay to termination (the pre-convergence baseline).

    ``batch_width`` >= 2 enables batched lockstep replay
    (:mod:`repro.engine.batch`): up to that many injections advance together
    as one vectorised wavefront on supported cores, with divergent runs
    evicted to the scalar path.  0 (the default) keeps every replay scalar.

    ``metrics`` / ``trace`` switch on the worker-side instrumentation
    (:mod:`repro.obs`): wall-clock phase timers + replay histograms, and
    Chrome-trace spans of the chunk -> replay lifecycle.  Phase *cycle
    counters* are always collected -- they back the campaign telemetry --
    and both flags off is the pre-observability fast path (no clock reads,
    no span objects).

    ``schedule_plans`` carries the engine's adaptive per-site probe
    schedules, keyed by flat fault-site index; None probes every grid
    cycle.  Plans only shape *when* probes run -- outcomes are bit-identical
    regardless (see :mod:`repro.engine.schedule`).
    """

    core: BaseCore
    program: Program
    checkpointed: CheckpointedGoldenRun
    convergence: bool = True
    batch_width: int = 0
    metrics: bool = False
    trace: bool = False
    schedule_plans: dict[int, SitePlan] | None = None


@dataclass
class ChunkSpec:
    """A shard of the injection plan.

    Attributes:
        index: position of the chunk in the plan (stable across executors).
        planned: the injections of this shard, in plan order.
        seed: deterministic per-chunk seed, ``campaign_seed * stride + index``.
            Replay itself is fully deterministic, but backends that add
            stochastic behaviour (sampling accelerators, approximate modes)
            must draw from this seed so results stay chunking-independent.
    """

    index: int
    planned: list[PlannedInjection]
    seed: int


@dataclass
class ChunkResult:
    """Streamed aggregate for one executed chunk.

    The chunk's replay telemetry lives in one
    :class:`~repro.obs.MetricsRegistry` (``metrics``) keyed by the shared
    phase vocabulary of :mod:`repro.obs.phases` -- per-phase cycle counters
    always, wall-clock timers and histograms when the spec enabled them.
    The registry (and, when tracing, the chunk's span events) serializes
    through the normal pickle path back to the campaign process, where
    registries merge deterministically in chunk-index order.  The
    historical telemetry attributes (``replayed_cycles`` & co.) remain as
    read-only views over the counters.

    Attributes:
        outcomes / per_site: classification tallies.
        metrics: the chunk's metric registry (phase cycle counters et al.).
        trace_events: Chrome-trace events recorded during the chunk
            (empty unless the spec enabled tracing).
    """

    index: int
    outcomes: OutcomeCounts = field(default_factory=OutcomeCounts)
    per_site: dict[int, OutcomeCounts] = field(default_factory=dict)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    trace_events: list[dict] = field(default_factory=list)
    # {flat_index: (converged, diverged, lag_cycles)} -- the adaptive
    # schedule's per-site observations.  Integer sums, so campaign-level
    # merging is independent of chunk partition and completion order.
    site_observations: dict[int, tuple[int, int, int]] = field(
        default_factory=dict)

    @property
    def replayed_cycles(self) -> int:
        """Cycles actually simulated across the chunk's injected runs."""
        value = self.metrics.value
        return sum(value(name) for name in REPLAY_CYCLE_COUNTERS)

    @property
    def converged_count(self) -> int:
        """Runs terminated early on golden-fingerprint convergence."""
        return self.metrics.value(COUNT_CONVERGED)

    @property
    def saved_cycles(self) -> int:
        """Cycles the convergence early-outs skipped."""
        return self.metrics.value(CYCLES_SAVED)

    @property
    def evicted_count(self) -> int:
        """Runs evicted from a lockstep wavefront to the scalar path."""
        return self.metrics.value(_COUNT_EVICTED)

    @property
    def lockstep_cycles(self) -> int:
        """Per-lane cycles advanced inside batched wavefronts."""
        return self.metrics.value(CYCLES_LOCKSTEP)

    def record(self, flat_index: int, outcome: OutcomeCategory) -> None:
        self.outcomes.record(outcome)
        self.per_site.setdefault(flat_index, OutcomeCounts()).record(outcome)

    def observe_site(self, flat_index: int, converged_at: int | None,
                     injection_cycle: int) -> None:
        """Record one replay's convergence behaviour for schedule learning."""
        converged, diverged, lag = self.site_observations.get(
            flat_index, (0, 0, 0))
        if converged_at is None:
            diverged += 1
        else:
            converged += 1
            lag += max(0, converged_at - injection_cycle)
        self.site_observations[flat_index] = (converged, diverged, lag)


def shard_plan(planned: list[PlannedInjection], seed: int,
               chunk_size: int) -> list[ChunkSpec]:
    """Split a resolved plan into contiguous chunks with derived seeds."""
    chunk_size = max(1, chunk_size)
    return [ChunkSpec(index=index, planned=planned[start:start + chunk_size],
                      seed=seed * _SEED_STRIDE + index)
            for index, start in enumerate(range(0, len(planned), chunk_size))]


def shard_plan_guided(planned: list[PlannedInjection], seed: int,
                      workers: int, min_chunk: int = 4) -> list[ChunkSpec]:
    """Split a plan into *guided* decreasing-size chunks for pull dispatch.

    Each chunk takes ``max(min_chunk, ceil(remaining / (workers * 2)))``
    injections: early chunks are large (low dispatch overhead while every
    worker is busy anyway), late chunks shrink toward ``min_chunk`` so the
    tail stays balanced even when replay costs are skewed -- the classic
    guided self-scheduling schedule.  Seeds follow the same
    ``seed * stride + index`` scheme as :func:`shard_plan`, and because every
    planned injection carries its pre-resolved lottery draw, the partition
    never affects campaign statistics (the engine's bit-exactness contract).

    ``min_chunk`` should be at least the batch width when batched lockstep
    replay is on, so late chunks still fill a wavefront.
    """
    workers = max(1, workers)
    min_chunk = max(1, min_chunk)
    chunks: list[ChunkSpec] = []
    start = 0
    while start < len(planned):
        remaining = len(planned) - start
        size = max(min_chunk, -(-remaining // (workers * 2)))
        index = len(chunks)
        chunks.append(ChunkSpec(index=index,
                                planned=planned[start:start + size],
                                seed=seed * _SEED_STRIDE + index))
        start += size
    return chunks


class _ConvergedEarly(Exception):
    """Raised from the convergence hook to abort a provably-decided replay."""

    def __init__(self, cycle: int):
        super().__init__(f"re-converged with the golden run at cycle {cycle}")
        self.cycle = cycle


def _convergence_hook(inner: CycleHook, injection_cycle: int,
                      checkpointed: CheckpointedGoldenRun,
                      metrics: MetricsRegistry = NULL_METRICS,
                      plan: SitePlan | None = None) -> CycleHook:
    """Wrap the injection hook with the fingerprint convergence check.

    At fingerprint-grid cycles strictly after the injection, the injected
    core's digest is compared against the golden grid.  The fingerprint
    covers exactly the state a snapshot round-trips -- latches,
    microarchitecture, memory, emitted-output prefix, detection/recovery
    log -- so a match means the remainder of the run is bit-identical to
    the golden run by construction (a run that raised a detection,
    scheduled a recovery, or diverged in output can never match) and
    simulation can stop on the spot.

    ``plan`` (a :class:`~repro.engine.schedule.SitePlan`) thins the probe
    grid adaptively; grid points it skips can only delay the early-out,
    never change the outcome.

    ``metrics`` counts the grid probes and, when timing is enabled, the
    per-probe latency (detailed instrumentation only; the default is the
    shared disabled registry, so the unmetered hook pays two no-op calls
    per probe next to a state digest).
    """
    fingerprints = checkpointed.fingerprints
    interval = checkpointed.fingerprint_interval
    base_point = injection_cycle // interval

    def hook(core: BaseCore, cycle: int) -> None:
        inner(core, cycle)
        if cycle <= injection_cycle or cycle % interval:
            return
        expected = fingerprints.get(cycle)
        if expected is None:
            return
        if plan is not None \
                and not plan.should_check(cycle // interval - base_point):
            return
        metrics.inc(COUNT_FINGERPRINT_CHECKS)
        metrics.inc(COUNT_FINGERPRINT_FULL)
        timed = metrics.timing
        if timed:
            start = time.perf_counter()
        digest = core.state_fingerprint()
        if timed:
            elapsed = time.perf_counter() - start
            metrics.add_time(PHASE_CONVERGENCE, elapsed)
            metrics.observe_wall(HISTOGRAM_CHECK_LATENCY_US,
                                 int(elapsed * 1e6))
        if digest == expected:
            raise _ConvergedEarly(cycle)

    return hook


@dataclass(frozen=True)
class Replay:
    """Everything one injected replay produced.

    Attributes:
        result: the injected :class:`RunResult` -- synthesized from the
            golden run when the replay converged early (bit-identical to what
            full simulation would have returned).
        outcome: classification of ``result`` against the golden run.
        resumed_from: cycle of the restored snapshot (0 = ran from reset).
        simulated_cycles: cycles actually simulated.
        converged_at: grid cycle at which the run re-converged with the
            golden run, or None when it simulated to termination.
    """

    result: RunResult
    outcome: OutcomeCategory
    resumed_from: int
    simulated_cycles: int
    converged_at: int | None = None

    @property
    def saved_cycles(self) -> int:
        """Cycles the convergence early-out skipped (0 for full replays)."""
        if self.converged_at is None:
            return 0
        return self.result.cycles - self.converged_at


def replay_planned_injection(core: BaseCore, program: Program,
                             planned: PlannedInjection,
                             checkpointed: CheckpointedGoldenRun,
                             convergence: bool = True,
                             obs: Instrumentation | None = None,
                             plan: SitePlan | None = None) -> Replay:
    """Run one injection, fast-forwarding from the nearest golden snapshot
    and early-terminating once the run provably re-converges.

    Restoring the latest snapshot at or before the injection cycle is exact:
    the injection hook cannot have fired earlier, so the pre-injection prefix
    of the run is identical to the golden run the snapshot was taken from.

    With ``convergence`` enabled (and a fingerprint grid recorded), the
    injected core's state fingerprint is checked at grid cycles after the
    injection; on a match the remainder of the run is bit-identical to the
    golden run, so the replay stops and returns a synthesized copy of the
    golden :class:`RunResult` -- classified exactly as the full run would
    have been (VANISHED whenever the golden run terminated normally).
    Golden runs that hit the watchdog are never gated: their injected
    watchdog differs, so the tail is not reproducible from the grid.

    ``obs`` (an :class:`~repro.obs.Instrumentation`) adds a
    ``snapshot.fastforward`` span around the restore and fingerprint-probe
    counting; ``None`` is the uninstrumented path, byte-for-byte the
    pre-observability behaviour.
    """
    golden = checkpointed.golden
    watchdog = injection_watchdog(golden)
    hook = build_injection_hook(planned.injection, planned.protection,
                                planned.suppressed)
    if (convergence and checkpointed.fingerprint_interval > 0
            and checkpointed.fingerprints
            and golden.reason is not TerminationReason.HANG):
        probe_metrics = (obs.metrics if obs is not None and obs.detailed
                         else NULL_METRICS)
        hook = _convergence_hook(hook, planned.injection.cycle, checkpointed,
                                 metrics=probe_metrics, plan=plan)
    snapshot = checkpointed.nearest(planned.injection.cycle)
    resumed_from = 0 if snapshot is None else snapshot.cycle
    tracing = obs is not None and obs.tracer.enabled
    try:
        if snapshot is None:
            injected = core.run(program, max_cycles=watchdog, cycle_hook=hook)
        elif tracing:
            # resume() is restore + _run_loop; splitting it lets the
            # fast-forward phase carry its own span without changing what
            # runs (property-tested equal in tests/test_engine.py).
            with obs.tracer.span(PHASE_FASTFORWARD,
                                 args={"to_cycle": snapshot.cycle}):
                core.restore(program, snapshot)
            injected = core._run_loop(watchdog, hook)
        else:
            injected = core.resume(program, snapshot, max_cycles=watchdog,
                                   cycle_hook=hook)
    except _ConvergedEarly as converged:
        injected = replace(golden, output=list(golden.output),
                           detections=list(golden.detections))
        return Replay(result=injected,
                      outcome=classify_outcome(golden, injected),
                      resumed_from=resumed_from,
                      simulated_cycles=converged.cycle - resumed_from,
                      converged_at=converged.cycle)
    return Replay(result=injected, outcome=classify_outcome(golden, injected),
                  resumed_from=resumed_from,
                  simulated_cycles=injected.cycles - resumed_from)


def fold_scalar_replay(result: ChunkResult, planned: PlannedInjection,
                       replay: Replay, obs: Instrumentation) -> None:
    """Fold one scalar-path replay into a chunk result (outcome + metrics)."""
    metrics = result.metrics
    metrics.inc(COUNT_REPLAYS)
    metrics.inc(CYCLES_SCALAR, replay.simulated_cycles)
    metrics.inc(CYCLES_FASTFORWARD, replay.resumed_from)
    if replay.converged_at is not None:
        metrics.inc(COUNT_CONVERGED)
        metrics.inc(CYCLES_SAVED, replay.saved_cycles)
    if obs.detailed:
        metrics.observe(HISTOGRAM_REPLAY_CYCLES, replay.simulated_cycles)
    result.record(planned.injection.flat_index, replay.outcome)
    result.observe_site(planned.injection.flat_index, replay.converged_at,
                        planned.injection.cycle)


def execute_chunk(spec: CampaignSpec, chunk: ChunkSpec) -> ChunkResult:
    """Replay every injection of one chunk and aggregate the outcomes.

    With ``spec.batch_width`` >= 2 the chunk is handed to the batched
    lockstep replay engine, which produces bit-identical outcomes (divergent
    and unbatchable runs are replayed by this scalar path internally).  The
    batched engine needs numpy; when it is unavailable the chunk falls back
    to scalar replay with a warning rather than failing the campaign.

    Instrumentation is worker-local: the chunk builds one
    :class:`~repro.obs.Instrumentation` from the spec's ``metrics`` /
    ``trace`` flags, and everything it collects rides home inside the
    returned :class:`ChunkResult`.
    """
    obs = Instrumentation.configure(metrics=spec.metrics, trace=spec.trace)
    if spec.batch_width >= 2:
        try:
            from repro.engine.batch import execute_chunk_batched
        except ImportError as error:
            import warnings

            warnings.warn(
                f"batched lockstep replay unavailable ({error}); replaying "
                f"serially", RuntimeWarning, stacklevel=2)
        else:
            return execute_chunk_batched(spec, chunk, obs=obs)
    result = ChunkResult(index=chunk.index, metrics=obs.metrics)
    tracing = obs.tracer.enabled
    with obs.tracer.span(SPAN_CHUNK, args={"index": chunk.index,
                                           "injections": len(chunk.planned)}):
        for planned in chunk.planned:
            with obs.tracer.span(
                    PHASE_SCALAR_REPLAY,
                    args={"site": planned.injection.flat_index,
                          "cycle": planned.injection.cycle}) as span:
                with obs.metrics.timer(PHASE_SCALAR_REPLAY):
                    plans = spec.schedule_plans
                    replay = replay_planned_injection(
                        spec.core, spec.program, planned, spec.checkpointed,
                        convergence=spec.convergence,
                        obs=obs if tracing or obs.detailed else None,
                        plan=(plans.get(planned.injection.flat_index)
                              if plans else None))
                span.note(outcome=replay.outcome.name,
                          cycles=replay.simulated_cycles,
                          converged_at=replay.converged_at)
            fold_scalar_replay(result, planned, replay, obs)
    if tracing:
        checks = obs.metrics.value(COUNT_FINGERPRINT_CHECKS)
        if checks:
            obs.tracer.instant(PHASE_CONVERGENCE,
                               args={"checks": checks,
                                     "converged": result.converged_count})
        result.trace_events = obs.tracer.events
    return result


ShardT = TypeVar("ShardT")
ResultT = TypeVar("ResultT")

#: A module-level (picklable) function executing one shard against the
#: shared payload.  Results must expose a stable ``index`` mirroring their
#: shard's, so partially-completed pools can be finished serially.
ShardFunction = Callable[[Any, ShardT], ResultT]


class CampaignExecutor(Protocol):
    """Anything that can execute a sharded workload and stream aggregates."""

    def stream(self, payload: Any, shards: list, fn: ShardFunction) -> Iterator:
        """Execute ``fn(payload, shard)`` per shard and yield each result, in
        any completion order."""
        ...  # pragma: no cover - protocol definition

    def run_chunks(self, spec: CampaignSpec,
                   chunks: list[ChunkSpec]) -> Iterator[ChunkResult]:
        """Campaign binding: :meth:`stream` with :func:`execute_chunk`."""
        ...  # pragma: no cover - protocol definition


class SerialExecutor:
    """Executes shards in order on the calling process."""

    def stream(self, payload: Any, shards: list, fn: ShardFunction) -> Iterator:
        for shard in shards:
            yield fn(payload, shard)

    def run_chunks(self, spec: CampaignSpec,
                   chunks: list[ChunkSpec]) -> Iterator[ChunkResult]:
        return self.stream(spec, chunks, execute_chunk)


# ---------------------------------------------------------------------- workers
# audit: allow[module-mutable-state] pool-initializer slot: written exactly once per worker by _init_worker, before any shard runs
_WORKER_PAYLOAD: Any = None
# audit: allow[module-mutable-state] pool-initializer slot: written exactly once per worker by _init_worker, before any shard runs
_WORKER_FN: ShardFunction | None = None


def _init_worker(payload: Any, fn: ShardFunction) -> None:
    global _WORKER_PAYLOAD, _WORKER_FN
    _WORKER_PAYLOAD = payload
    _WORKER_FN = fn


def _run_shard_in_worker(shard: Any) -> Any:
    assert _WORKER_FN is not None, "worker used before initialisation"
    return _WORKER_FN(_WORKER_PAYLOAD, shard)


class ParallelExecutor:
    """Fans shards out over a process pool, streaming results as they finish.

    Shards are dispatched pull-style: the pool holds at most ``workers + 1``
    in-flight shards and each worker takes the next shard the moment it
    finishes one, so a slow shard never strands pre-assigned work on its
    worker.  Results stream back in completion order; consumers that need
    determinism fold them by shard index.

    Attributes:
        workers: process count.  Defaults to ``os.cpu_count()`` capped at 8
            (shards are CPU-bound, so more processes than cores only add
            pickling overhead); an explicit count is honoured as given,
            which also lets tests exercise the pool on single-core machines.
    """

    def __init__(self, workers: int | None = None):
        import os

        if workers is None:
            workers = min(os.cpu_count() or 1, 8)
        self.workers = max(1, workers)

    def stream(self, payload: Any, shards: list, fn: ShardFunction) -> Iterator:
        if self.workers == 1 or len(shards) <= 1:
            yield from SerialExecutor().stream(payload, shards, fn)
            return
        # Deferred like the pool itself: serial-only processes never import
        # the multiprocessing machinery.
        from concurrent.futures.process import BrokenProcessPool

        done: set[int] = set()
        try:
            yield from self._stream_pooled(payload, shards, fn, done)
        except (BrokenProcessPool, OSError, pickle.PicklingError) as error:
            # Process pools can be unavailable (restricted environments) or
            # die mid-run; replay the shards that never completed serially so
            # the run still finishes with exact results.  Warn so benchmark/
            # throughput readings are not misattributed to parallel execution.
            # Any other exception was raised by a shard itself: deterministic,
            # so re-running it serially would only fail twice.
            import warnings

            warnings.warn(
                f"parallel shard execution failed ({type(error).__name__}: "
                f"{error}); finishing the remaining shards serially",
                RuntimeWarning, stacklevel=2)
            remaining = [shard for shard in shards if shard.index not in done]
            for shard in remaining:
                result = fn(payload, shard)
                done.add(result.index)
                yield result

    def run_chunks(self, spec: CampaignSpec,
                   chunks: list[ChunkSpec]) -> Iterator[ChunkResult]:
        return self.stream(spec, chunks, execute_chunk)

    def _stream_pooled(self, payload: Any, shards: list, fn: ShardFunction,
                       done: set[int]) -> Iterator:
        from concurrent.futures import (FIRST_COMPLETED, ProcessPoolExecutor,
                                        wait)

        with ProcessPoolExecutor(max_workers=min(self.workers, len(shards)),
                                 initializer=_init_worker,
                                 initargs=(payload, fn)) as pool:
            # Pull-based dispatch: keep just enough shards in flight that no
            # worker idles between completions (one spare beyond the worker
            # count), and hand out the next queued shard per completion --
            # workers effectively steal from one shared queue.
            queue = iter(shards)
            pending = set()
            for shard in queue:
                pending.add(pool.submit(_run_shard_in_worker, shard))
                if len(pending) > self.workers:
                    break
            while pending:
                completed, pending = wait(pending,
                                          return_when=FIRST_COMPLETED)
                for _ in completed:
                    shard = next(queue, None)
                    if shard is None:
                        break
                    pending.add(pool.submit(_run_shard_in_worker, shard))
                for future in completed:
                    result = future.result()
                    done.add(result.index)
                    yield result
