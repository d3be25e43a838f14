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
from repro.obs import Instrumentation, MetricsRegistry
from repro.obs.metrics import NULL_METRICS
from repro.obs.phases import (
    COUNT_CONVERGED,
    COUNT_FINGERPRINT_CHECKS,
    COUNT_FINGERPRINT_FULL,
    COUNT_REPLAYS,
    CYCLES_FASTFORWARD,
    CYCLES_SAVED,
    CYCLES_SCALAR,
    HISTOGRAM_CHECK_LATENCY_US,
    HISTOGRAM_REPLAY_CYCLES,
    PHASE_CONVERGENCE,
    PHASE_FASTFORWARD,
    PHASE_SCALAR_REPLAY,
    SPAN_CHUNK,
)

_SEED_STRIDE = 1_000_003
"""Multiplier for deriving per-chunk seeds from the campaign seed."""

DENSE_WINDOW = 8
"""Grid points after the injection that are all probed for convergence."""

MAX_GAP = 32
"""Backoff cap: past the dense window, probe at least every MAX_GAP points."""


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

    Whether injected runs are convergence-gated is decided by
    ``checkpointed`` alone (see :func:`run_gated`): a golden run recorded
    without a fingerprint grid (``EngineConfig(convergence_interval=0)``)
    replays every injection to termination.

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
    """

    core: BaseCore
    program: Program
    checkpointed: CheckpointedGoldenRun
    batch_width: int = 0
    metrics: bool = False
    trace: bool = False


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
    registries merge deterministically in chunk-index order.

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

    def record(self, flat_index: int, outcome: OutcomeCategory) -> None:
        self.outcomes.record(outcome)
        self.per_site.setdefault(flat_index, OutcomeCounts()).record(outcome)


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


def should_check(grid_points_elapsed: int) -> bool:
    """Whether to probe convergence at the ``grid_points_elapsed``-th grid
    point after the injection (1-based; 0 or negative never probes).

    Replays that re-converge do so within a few grid points of the
    injection, and replays that never re-converge would pay for every
    remaining point: the first ``DENSE_WINDOW`` points are all probed, then
    the gaps grow as powers of two, capped at ``MAX_GAP`` points so a late
    re-convergence is still caught.
    """
    k = grid_points_elapsed
    if k <= 0:
        return False
    if k <= DENSE_WINDOW:
        return True
    k -= DENSE_WINDOW
    return k % MAX_GAP == 0 or (k & (k - 1)) == 0


class _ConvergedEarly(Exception):
    """Raised from the convergence hook to abort a provably-decided replay."""

    def __init__(self, cycle: int):
        super().__init__(f"re-converged with the golden run at cycle {cycle}")
        self.cycle = cycle


def _convergence_hook(inner: CycleHook | None, injection_cycle: int,
                      checkpointed: CheckpointedGoldenRun,
                      metrics: MetricsRegistry = NULL_METRICS) -> CycleHook:
    """Wrap the injection hook (``None``: none) with the fingerprint
    convergence check.

    At fingerprint-grid cycles strictly after the injection, the injected
    core's digest is compared against the golden grid.  The fingerprint
    covers exactly the state a snapshot round-trips -- latches,
    microarchitecture, memory, emitted-output prefix, detection/recovery
    log -- so a match means the remainder of the run is bit-identical to
    the golden run by construction (a run that raised a detection,
    scheduled a recovery, or diverged in output can never match) and
    simulation can stop on the spot.

    Grid points are probed on the :func:`should_check` schedule.  A skipped
    point can only delay the early-out, never change the outcome: a replay
    whose digest matches the golden grid at one cycle stays bit-identical
    to the golden run at every later grid cycle too.

    ``metrics`` counts the grid probes and, when timing is enabled, the
    per-probe latency (detailed instrumentation only; the default is the
    shared disabled registry, so the unmetered hook pays two no-op calls
    per probe next to a state digest).
    """
    fingerprints = checkpointed.fingerprints
    interval = checkpointed.fingerprint_interval
    base_point = injection_cycle // interval

    def hook(core: BaseCore, cycle: int) -> None:
        if inner is not None:
            inner(core, cycle)
        if cycle <= injection_cycle or cycle % interval:
            return
        expected = fingerprints.get(cycle)
        if expected is None:
            return
        if not should_check(cycle // interval - base_point):
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


def run_gated(core: BaseCore, checkpointed: CheckpointedGoldenRun,
              injection_cycle: int, hook: CycleHook | None,
              metrics: MetricsRegistry = NULL_METRICS,
              ) -> tuple[RunResult, int | None]:
    """Finish one injected run: ``(result, converged_at)``.

    ``core`` must already be positioned on the injected run -- reset to
    cycle 0, restored from a golden snapshot, or mid-run -- and ``hook``
    applies whatever the run still has to inject (``None``: nothing).  The
    run goes to termination under the golden watchdog.  It is
    convergence-gated exactly when the golden run carries a fingerprint
    grid and did not hang (a hung golden run's injected watchdog differs,
    so its tail is not reproducible from the grid): on a grid match the
    remainder is bit-identical to the golden run, so simulation stops and
    ``result`` is a copy of the golden :class:`RunResult`, classified
    exactly as the full run would have been.  ``converged_at`` is the grid
    cycle of the match, or None when the run simulated to termination.

    ``metrics`` counts the convergence probes (see :func:`_convergence_hook`).
    """
    golden = checkpointed.golden
    if (checkpointed.fingerprints
            and golden.reason is not TerminationReason.HANG):
        hook = _convergence_hook(hook, injection_cycle, checkpointed,
                                 metrics=metrics)
    try:
        return core._run_loop(injection_watchdog(golden), hook), None
    except _ConvergedEarly as converged:
        return golden_copy(golden), converged.cycle


def golden_copy(golden: RunResult) -> RunResult:
    """The result of an injected run that provably ran as the golden run:
    equal to ``golden``, with lists of its own so callers may mutate them."""
    return replace(golden, output=list(golden.output),
                   detections=list(golden.detections))


def is_inert(core: BaseCore, golden: RunResult, planned: PlannedInjection,
             dead_cycles: tuple[int, ...] | None = None) -> bool:
    """Whether ``planned`` provably runs as the golden run, so its result is
    :func:`golden_copy` without simulating it.

    A hung golden run never qualifies: an injected run's watchdog exceeds
    the golden one's, so even a no-op replay runs past it.  Otherwise an
    injection is inert when it is suppressed (the hook returns before
    touching state, on every core).  A flip the protection detects never is
    (a detection is logged, so the run differs).  An undetected flip is
    inert when it lands in a hint structure (``architectural=False``) of a
    core that declares its hint plane behaviour-free
    (:attr:`BaseCore.hint_plane_inert`), or when it is *dead*: the golden
    run's first access to the flipped latch at or after the injection cycle
    is a write, or there is none.  ``dead_cycles`` holds those facts, one
    mask per latch slot (:func:`repro.engine.liveness.dead_cycles`); None
    folds no dead flips.
    """
    if golden.reason is TerminationReason.HANG:
        return False
    if planned.suppressed:
        return True
    if planned.protection.detects:
        return False
    injection = planned.injection
    structure = core.registry.site(injection.flat_index).structure
    if not structure.architectural and core.hint_plane_inert:
        return True
    if dead_cycles is None:
        return False
    mask = dead_cycles[core.latches.slot(structure.name)]
    return bool(mask >> injection.cycle & 1)


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
                             obs: Instrumentation | None = None) -> Replay:
    """Run one injection, fast-forwarding from the nearest golden snapshot
    and finishing through :func:`run_gated`.

    Restoring the latest snapshot at or before the injection cycle is exact:
    the injection hook cannot have fired earlier, so the pre-injection prefix
    of the run is identical to the golden run the snapshot was taken from.
    Whether the replay may stop early on convergence is decided by the
    golden run's fingerprint grid alone (see :func:`run_gated`).

    ``obs`` (an :class:`~repro.obs.Instrumentation`) adds a
    ``snapshot.fastforward`` span around the restore and fingerprint-probe
    counting; ``None`` is the uninstrumented path.
    """
    snapshot = checkpointed.nearest(planned.injection.cycle)
    if snapshot is None:
        core.reset(program)
    elif obs is not None and obs.tracer.enabled:
        with obs.tracer.span(PHASE_FASTFORWARD,
                             args={"to_cycle": snapshot.cycle}):
            core.restore(program, snapshot)
    else:
        core.restore(program, snapshot)
    resumed_from = 0 if snapshot is None else snapshot.cycle
    hook = build_injection_hook(planned.injection, planned.protection,
                                planned.suppressed)
    probe_metrics = (obs.metrics if obs is not None and obs.detailed
                     else NULL_METRICS)
    injected, converged_at = run_gated(core, checkpointed,
                                       planned.injection.cycle, hook,
                                       metrics=probe_metrics)
    stopped = injected.cycles if converged_at is None else converged_at
    return Replay(result=injected,
                  outcome=classify_outcome(checkpointed.golden, injected),
                  resumed_from=resumed_from,
                  simulated_cycles=stopped - resumed_from,
                  converged_at=converged_at)


def fold_replay(result: ChunkResult, planned: PlannedInjection,
                replay: Replay, obs: Instrumentation) -> None:
    """Fold one finished replay into a chunk result: the outcome plus the
    per-replay bookkeeping counters.

    Phase *cycle* counters are the caller's job: a scalar replay adds its
    simulated cycles to ``CYCLES_SCALAR``, a wavefront lane record
    partitions them across the batched phases.
    """
    metrics = result.metrics
    metrics.inc(COUNT_REPLAYS)
    metrics.inc(CYCLES_FASTFORWARD, replay.resumed_from)
    if replay.converged_at is not None:
        metrics.inc(COUNT_CONVERGED)
        metrics.inc(CYCLES_SAVED, replay.saved_cycles)
    if obs.detailed:
        metrics.observe(HISTOGRAM_REPLAY_CYCLES, replay.simulated_cycles)
    result.record(planned.injection.flat_index, replay.outcome)


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
                    replay = replay_planned_injection(
                        spec.core, spec.program, planned, spec.checkpointed,
                        obs=obs if tracing or obs.detailed else None)
                span.note(outcome=replay.outcome.name,
                          cycles=replay.simulated_cycles,
                          converged_at=replay.converged_at)
            obs.metrics.inc(CYCLES_SCALAR, replay.simulated_cycles)
            fold_replay(result, planned, replay, obs)
    if tracing:
        checks = obs.metrics.value(COUNT_FINGERPRINT_CHECKS)
        if checks:
            obs.tracer.instant(
                PHASE_CONVERGENCE,
                args={"checks": checks,
                      "converged": obs.metrics.value(COUNT_CONVERGED)})
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
