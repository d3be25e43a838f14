"""Pluggable streaming shard executors.

An executor takes one shared *payload* (pickled once per worker via the pool
initializer), a list of shard objects (each carrying a stable ``index``) and
a module-level shard function, and *streams* per-shard results back as they
complete, so consumers can fold aggregates incrementally instead of
materialising every raw result.  Two consumers ride this layer: the
injection engine (payload = :class:`CampaignSpec`, shards =
:class:`ChunkSpec`) and the synthetic workload sweep (payload =
``SweepSpec``, shards of whole campaigns).

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

How the work is cut is shared too: :func:`guided_slices` is the one
partition of every pool, and each consumer wraps its slices in its own
shard type.  A serial campaign keeps one chunk for its whole live plan.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterator, Protocol, TypeVar

from repro.faultinjection.injector import (
    Inject,
    Injection,
    SiteProtection,
    build_injection,
    inject_at,
    injection_watchdog,
)
from repro.faultinjection.outcomes import OutcomeCategory, OutcomeCounts, classify_outcome
from repro.isa.program import Program
from repro.microarch.core import BaseCore
from repro.microarch.events import RunResult, TerminationReason
from repro.engine.checkpoint import CheckpointedGoldenRun
from repro.obs import Instrumentation, MetricsRegistry
from repro.obs.metrics import NULL_METRICS
from repro.obs.phases import (
    COUNT_CONVERGED,
    COUNT_DEAD_ON_ARRIVAL,
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


def guided_slices(count: int, workers: int,
                  min_chunk: int = 1) -> list[range]:
    """Cut ``range(count)`` into *guided* decreasing-size slices for pull
    dispatch -- the one partition every process pool in the package uses.

    Each slice takes ``max(min_chunk, ceil(remaining / (workers * 2)))``
    items: early slices are large (low dispatch overhead while every worker
    is busy anyway), late slices shrink toward ``min_chunk`` so the tail
    stays balanced even when item costs are skewed -- the classic guided
    self-scheduling schedule.  The slices cover ``range(count)`` exactly, in
    order; only the last may be shorter than ``min_chunk``.

    Callers wrap the slices in their own shard type (:class:`ChunkSpec`,
    ``SweepShard``) and fold results by shard index,
    so the partition never affects what a run computes.
    """
    workers = max(1, workers)
    min_chunk = max(1, min_chunk)
    slices: list[range] = []
    start = 0
    while start < count:
        size = max(min_chunk, -(-(count - start) // (workers * 2)))
        slices.append(range(start, min(start + size, count)))
        start += size
    return slices


def next_check(grid_points_elapsed: int) -> int:
    """The first grid point after the ``grid_points_elapsed``-th (counted
    from the injection, 1-based) at which to probe convergence.

    Replays that re-converge do so within a few grid points of the
    injection, and replays that never re-converge would pay for every
    remaining point: the first ``DENSE_WINDOW`` points are all probed, then
    the gaps grow as powers of two, capped at ``MAX_GAP`` points so a late
    re-convergence is still caught.
    """
    k = max(grid_points_elapsed, 0) + 1
    if k <= DENSE_WINDOW:
        return k
    k -= DENSE_WINDOW
    power = 1 << (k - 1).bit_length()
    multiple = -(-k // MAX_GAP) * MAX_GAP
    return DENSE_WINDOW + min(power, multiple)


def should_check(grid_points_elapsed: int) -> bool:
    """Whether the ``grid_points_elapsed``-th grid point after the injection
    is probed (1-based; 0 or negative never is): the :func:`next_check`
    schedule as a predicate."""
    return (grid_points_elapsed > 0
            and next_check(grid_points_elapsed - 1) == grid_points_elapsed)


def _probe_grid(core: BaseCore, checkpointed: CheckpointedGoldenRun,
                injection_cycle: int, watchdog: int,
                metrics: MetricsRegistry) -> int | None:
    """Advance ``core`` from one scheduled grid probe to the next and
    return the grid cycle at which its state fingerprint matches the
    golden grid, or None once the run terminates or no probe is left
    before ``watchdog``.

    The probes are the grid cycles strictly after the injection that the
    golden grid holds and :func:`next_check` schedules; a core that starts
    past the injection (mid-run) first probes its current cycle if it is
    one.  The fingerprint covers exactly the state a snapshot round-trips
    -- latches, microarchitecture, memory, emitted-output prefix,
    detection/recovery log -- so a match means the remainder of the run is
    bit-identical to the golden run by construction (a run that raised a
    detection, scheduled a recovery, or diverged in output can never
    match).  A skipped grid point can only delay the match, never change
    the outcome: a replay that matches the golden grid at one cycle stays
    bit-identical to the golden run at every later grid cycle too.

    ``metrics`` counts the probes and, when timing is enabled, the
    per-probe latency.
    """
    fingerprints = checkpointed.fingerprints
    interval = checkpointed.fingerprint_interval
    base_point = injection_cycle // interval
    first = max(core.cycle, injection_cycle + 1)
    point = next_check(-(-first // interval) - base_point - 1)
    timed = metrics.timing
    while True:
        cycle = (base_point + point) * interval
        if cycle >= watchdog:
            return None
        expected = fingerprints.get(cycle)
        if expected is not None:
            core._advance(cycle)
            if core.terminated:
                return None
            metrics.inc(COUNT_FINGERPRINT_CHECKS)
            metrics.inc(COUNT_FINGERPRINT_FULL)
            if timed:
                start = time.perf_counter()
            digest = core.state_fingerprint()
            if timed:
                elapsed = time.perf_counter() - start
                metrics.add_time(PHASE_CONVERGENCE, elapsed)
                metrics.observe_wall(HISTOGRAM_CHECK_LATENCY_US,
                                     int(elapsed * 1e6))
            if digest == expected:
                return cycle
        point = next_check(point)


def run_gated(core: BaseCore, checkpointed: CheckpointedGoldenRun,
              injection_cycle: int, inject: Inject | None,
              metrics: MetricsRegistry = NULL_METRICS,
              ) -> tuple[RunResult, int | None]:
    """Finish one injected run: ``(result, converged_at)``.

    ``core`` must already be positioned on the injected run -- reset to
    cycle 0, restored from a golden snapshot, or mid-run -- and ``inject``
    applies the injection at the start of ``injection_cycle`` (``None``:
    nothing left to inject).  The run goes to termination under the golden
    watchdog, in segments: to the injection cycle, then from one scheduled
    convergence probe to the next (:func:`_probe_grid`), then to the end,
    with nothing called between them.  It is convergence-gated exactly when
    the golden run carries a fingerprint grid and did not hang (a hung
    golden run's injected watchdog differs, so its tail is not reproducible
    from the grid): on a grid match the remainder is bit-identical to the
    golden run, so simulation stops and ``result`` is a copy of the golden
    :class:`RunResult`, classified exactly as the full run would have been.
    ``converged_at`` is the grid cycle of the match, or None when the run
    simulated to termination.

    ``metrics`` counts the convergence probes.
    """
    golden = checkpointed.golden
    watchdog = injection_watchdog(golden)
    inject_at(core, injection_cycle, inject, watchdog)
    if (checkpointed.fingerprints
            and golden.reason is not TerminationReason.HANG):
        converged_at = _probe_grid(core, checkpointed, injection_cycle,
                                   watchdog, metrics)
        if converged_at is not None:
            return golden_copy(golden), converged_at
    return core._run_loop(watchdog), None


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
    injection is inert when it is suppressed (the injection returns before
    touching state, on every core).  A flip the protection detects never is
    (a detection is logged, so the run differs).  An undetected flip is
    inert when it lands in a hint structure (``architectural=False``) of a
    core that declares its hint plane behaviour-free
    (:attr:`BaseCore.hint_plane_inert`), or when it is *dead*: the golden
    run's first access to the flipped latch at or after the injection cycle
    is a write, or there is none.  ``dead_cycles`` holds those facts, one
    mask per latch slot (:func:`repro.engine.liveness.dead_cycles`); None
    folds no dead flips.

    These clauses are decided at plan time.  The run-time clause,
    :func:`dead_on_arrival`, needs the core's state at the injection cycle,
    so the replay asks it there and stops at once as a golden copy.
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


def dead_on_arrival(core: BaseCore, golden: RunResult,
                    planned: PlannedInjection) -> bool:
    """Whether ``planned`` provably runs as the golden run, judged at run
    time from ``core``, which stands at the start of the injection cycle
    with the flip not yet applied: the run-time clause of :func:`is_inert`.

    It holds under :func:`is_inert`'s conditions -- a golden run that did
    not hang, an unsuppressed strike the protection does not detect --
    when the core says the flipped latch is overwritten before anything
    reads it (:meth:`~repro.microarch.core.BaseCore.flip_is_dead`).  The
    core's state there is the golden run's, so the scalar replay and the
    lockstep wavefront (which asks its reference lane) fold exactly the
    same injections.
    """
    return (golden.reason is not TerminationReason.HANG
            and not planned.suppressed
            and not planned.protection.detects
            and core.flip_is_dead(planned.injection.flat_index))


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
            golden run, or None when it simulated to termination or was
            folded.
        dead_on_arrival: True when the replay ended at its injection cycle
            as a golden copy (:func:`dead_on_arrival`).
    """

    result: RunResult
    outcome: OutcomeCategory
    resumed_from: int
    simulated_cycles: int
    converged_at: int | None = None
    dead_on_arrival: bool = False

    @property
    def saved_cycles(self) -> int:
        """Cycles the convergence early-out skipped (0 for full replays)."""
        if self.converged_at is None:
            return 0
        return self.result.cycles - self.converged_at


def replay(core: BaseCore, program: Program, cycle: int, inject: Inject,
           checkpointed: CheckpointedGoldenRun,
           obs: Instrumentation | None = None,
           dead: Callable[[BaseCore], bool] | None = None) -> Replay:
    """Run one injected run, fast-forwarding from the nearest golden
    snapshot and finishing through :func:`run_gated`; ``inject`` is applied
    at the start of ``cycle``.

    Restoring the latest snapshot at or before the injection cycle is exact:
    the injection cannot have been applied earlier, so the pre-injection prefix
    of the run is identical to the golden run the snapshot was taken from.
    Whether the replay may stop early on convergence is decided by the
    golden run's fingerprint grid alone (see :func:`run_gated`).  Flip-flop
    replays (:func:`replay_planned_injection`) and the high-level campaigns
    of :mod:`repro.faultinjection.levels` both run through here.

    ``dead`` is asked once the core stands at the start of ``cycle``, where
    ``inject`` would apply: True ends the replay there as a golden copy
    (``Replay.dead_on_arrival``), unconverged, having simulated only the
    cycles up to the injection.

    ``obs`` (an :class:`~repro.obs.Instrumentation`) adds a
    ``snapshot.fastforward`` span around the restore and fingerprint-probe
    counting; ``None`` is the uninstrumented path.
    """
    snapshot = checkpointed.nearest(cycle)
    if snapshot is None:
        core.reset(program)
    elif obs is not None and obs.tracer.enabled:
        with obs.tracer.span(PHASE_FASTFORWARD,
                             args={"to_cycle": snapshot.cycle}):
            core.restore(program, snapshot)
    else:
        core.restore(program, snapshot)
    resumed_from = 0 if snapshot is None else snapshot.cycle
    golden = checkpointed.golden
    if dead is not None:
        watchdog = injection_watchdog(golden)
        inject_at(core, cycle, None, watchdog)
        if (core.cycle == cycle < watchdog and not core.terminated
                and dead(core)):
            folded = golden_copy(golden)
            return Replay(result=folded,
                          outcome=classify_outcome(golden, folded),
                          resumed_from=resumed_from,
                          simulated_cycles=cycle - resumed_from,
                          dead_on_arrival=True)
    probe_metrics = (obs.metrics if obs is not None and obs.detailed
                     else NULL_METRICS)
    injected, converged_at = run_gated(core, checkpointed, cycle, inject,
                                       metrics=probe_metrics)
    stopped = injected.cycles if converged_at is None else converged_at
    return Replay(result=injected,
                  outcome=classify_outcome(golden, injected),
                  resumed_from=resumed_from,
                  simulated_cycles=stopped - resumed_from,
                  converged_at=converged_at)


def replay_planned_injection(core: BaseCore, program: Program,
                             planned: PlannedInjection,
                             checkpointed: CheckpointedGoldenRun,
                             obs: Instrumentation | None = None) -> Replay:
    """:func:`replay` one planned flip-flop injection, ending it at the
    injection cycle when the flip is :func:`dead_on_arrival` there."""
    inject = build_injection(planned.injection, planned.protection,
                             planned.suppressed)
    golden = checkpointed.golden
    return replay(core, program, planned.injection.cycle, inject,
                  checkpointed, obs,
                  dead=lambda arrived: dead_on_arrival(arrived, golden,
                                                       planned))


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
    if replay.dead_on_arrival:
        metrics.inc(COUNT_DEAD_ON_ARRIVAL)
    if obs.detailed:
        metrics.observe(HISTOGRAM_REPLAY_CYCLES, replay.simulated_cycles)
    result.record(planned.injection.flat_index, replay.outcome)


def execute_chunk(spec: CampaignSpec, chunk: ChunkSpec) -> ChunkResult:
    """Replay every injection of one chunk and aggregate the outcomes.

    With ``spec.batch_width`` >= 2 the chunk is handed to the batched
    lockstep replay engine, which produces bit-identical outcomes (divergent
    and unbatchable runs are replayed by this scalar path internally).

    Instrumentation is worker-local: the chunk builds one
    :class:`~repro.obs.Instrumentation` from the spec's ``metrics`` /
    ``trace`` flags, and everything it collects rides home inside the
    returned :class:`ChunkResult`.
    """
    obs = Instrumentation.configure(metrics=spec.metrics, trace=spec.trace)
    if spec.batch_width >= 2:
        from repro.engine.batch import execute_chunk_batched

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


class SerialExecutor:
    """Executes shards in order on the calling process."""

    def stream(self, payload: Any, shards: list, fn: ShardFunction) -> Iterator:
        for shard in shards:
            yield fn(payload, shard)


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
