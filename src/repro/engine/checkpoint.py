"""Checkpointed golden runs.

The golden (error-free) run is the reference every injected run is classified
against, and -- once checkpointed -- the springboard that makes injected runs
cheap: a run with an injection at cycle ``c`` restores the nearest snapshot
at or below ``c`` and simulates only the remaining cycles, instead of
re-simulating from cycle 0.  For injections uniformly distributed over the
golden run this roughly halves simulated cycles per injection; for campaigns
that target late application regions the saving is far larger.

Golden runs depend only on (core, program) -- never on the protection
configuration, which acts purely on injected runs -- so a
:class:`GoldenRunCache` shares one recorded run across every protection
config evaluated for the same workload.
"""

from __future__ import annotations

import bisect
from collections import OrderedDict
from dataclasses import dataclass, field
from operator import methodcaller
from typing import Any, Callable

from repro.isa.program import Program
from repro.microarch.core import BaseCore, CoreSnapshot, DEFAULT_MAX_CYCLES
from repro.microarch.events import RunResult
from repro.obs import Instrumentation
from repro.obs.phases import (
    COUNT_ARTIFACTS_LOADED,
    COUNT_ARTIFACTS_SAVED,
    COUNT_FINGERPRINTS,
    COUNT_GOLDEN_CACHE_HITS,
    COUNT_GOLDEN_RECORDS,
    COUNT_SNAPSHOTS,
    CYCLES_GOLDEN,
    PHASE_GOLDEN_RECORD,
)

INITIAL_CHECKPOINT_INTERVAL = 64
"""Starting snapshot spacing for the adaptive recorder."""

DEFAULT_MAX_CHECKPOINTS = 48
"""Snapshot-count budget; the adaptive recorder doubles the interval (and
thins existing snapshots) whenever the budget is exceeded, so memory stays
bounded regardless of how long the golden run turns out to be."""

FINGERPRINT_DENSITY = 8
"""How much denser the adaptive fingerprint grid starts than the snapshot
grid.  A fingerprint is a 16-byte digest where a snapshot is a full state
copy, so the grid the convergence check probes can afford to be ~8-16x
finer -- the finer the grid, the earlier a re-converged injected run is
caught."""

INITIAL_FINGERPRINT_INTERVAL = INITIAL_CHECKPOINT_INTERVAL // FINGERPRINT_DENSITY
"""Starting fingerprint spacing for the adaptive recorder."""

DEFAULT_MAX_FINGERPRINTS = DEFAULT_MAX_CHECKPOINTS * 16
"""Fingerprint-count budget, with the same doubling/thinning policy as the
snapshot budget (16 bytes each, so the grid stays ~12 KiB at worst)."""

DEFAULT_CACHE_ENTRIES = 18
"""Golden runs a :class:`GoldenRunCache` holds by default: the largest
built-in suite (the in-order suite's 18 programs; the out-of-order suite has
11), so a repeated suite campaign records no golden.  All 18 in-order
goldens hold 3.3 MB (the 11 out-of-order ones 2.9 MB), measured with
tracemalloc."""


@dataclass
class CheckpointedGoldenRun:
    """A golden run plus the periodic core snapshots recorded during it.

    Attributes:
        golden: the golden :class:`RunResult` (identical to what an
            unrecorded run would produce -- recording only observes).
        snapshots: core snapshots in ascending cycle order.
        interval: final snapshot spacing in cycles.
        fingerprints: dense grid of :meth:`BaseCore.state_fingerprint`
            digests, keyed by cycle.  An injected run whose fingerprint
            equals ``fingerprints[c]`` at cycle ``c`` is bit-identical to the
            golden run from ``c`` onwards and can stop simulating.
        fingerprint_interval: final fingerprint spacing in cycles (0 when no
            grid was recorded).
        dead_cycles: per latch slot, the cycles at which a flip is dead
            (:mod:`repro.engine.liveness`), or None until the first campaign
            that needs them logs them.  Memory only: pickling drops them, so
            they reach neither pool workers nor golden artifacts.
    """

    golden: RunResult
    snapshots: list[CoreSnapshot] = field(default_factory=list)
    interval: int = 0
    fingerprints: dict[int, bytes] = field(default_factory=dict)
    fingerprint_interval: int = 0
    dead_cycles: tuple[int, ...] | None = field(default=None, repr=False,
                                                compare=False)

    def __post_init__(self) -> None:
        self._cycles = [snapshot.cycle for snapshot in self.snapshots]

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("dead_cycles", None)
        return state

    def nearest(self, cycle: int) -> CoreSnapshot | None:
        """Latest snapshot taken at or before ``cycle`` (None: start from 0)."""
        index = bisect.bisect_right(self._cycles, cycle)
        if index == 0:
            return None
        return self.snapshots[index - 1]

    @property
    def checkpoint_count(self) -> int:
        return len(self.snapshots)

    @property
    def fingerprint_count(self) -> int:
        return len(self.fingerprints)


class _GridRecorder:
    """Captures the core on an (adaptively growing) grid of cycles.

    Every ``interval`` cycles (cycle 0 excluded) it stores
    ``capture(core)`` keyed by cycle.  An adaptive recorder
    (``interval=None``) starts at ``initial`` and, whenever it holds more
    than ``budget`` captures, doubles its interval and drops the captures
    off the new grid, so memory stays bounded whatever the run length.
    Snapshots and fingerprints each get one recorder; the fingerprint grid
    starts :data:`FINGERPRINT_DENSITY` times finer.
    """

    def __init__(self, capture: Callable[[BaseCore], Any],
                 interval: int | None, initial: int, budget: int):
        self.capture = capture
        self.adaptive = interval is None
        self.interval = interval if interval else initial
        self.budget = max(1, budget)
        self.captures: dict[int, Any] = {}

    def next_cycle(self, cycle: int) -> int:
        """The first grid cycle after ``cycle``."""
        return (cycle // self.interval + 1) * self.interval

    def record(self, core: BaseCore, cycle: int) -> None:
        """Capture ``core`` at the start of ``cycle`` if it is a grid cycle."""
        if cycle % self.interval != 0:
            return
        self.captures[cycle] = self.capture(core)
        if self.adaptive and len(self.captures) > self.budget:
            self.interval *= 2
            self.captures = {c: value for c, value in self.captures.items()
                             if c % self.interval == 0}


def record_checkpointed_golden(core: BaseCore, program: Program,
                               interval: int | None = None,
                               max_checkpoints: int = DEFAULT_MAX_CHECKPOINTS,
                               max_cycles: int = DEFAULT_MAX_CYCLES,
                               fingerprint_interval: int | None = None,
                               max_fingerprints: int = DEFAULT_MAX_FINGERPRINTS,
                               obs: Instrumentation | None = None,
                               ) -> CheckpointedGoldenRun:
    """Run ``program`` on ``core`` once, recording snapshots + fingerprints.

    ``interval=None`` selects the adaptive snapshot grid (bounded snapshot
    count for any run length); ``interval=0`` disables checkpointing entirely
    (every injected run replays from cycle 0 -- the pre-engine behaviour,
    kept for benchmarking baselines).  ``fingerprint_interval`` works the
    same way for the dense convergence grid: ``None`` adapts from a grid
    :data:`FINGERPRINT_DENSITY` times finer than the snapshot grid, ``0``
    records no fingerprints (injected runs always simulate to termination --
    the pre-convergence baseline).

    ``obs`` (see :mod:`repro.obs`) wraps the recording in a
    ``golden.record`` span/timer and counts recorded cycles, snapshots and
    fingerprints; ``None`` records nothing.
    """
    if interval is not None and interval < 0:
        raise ValueError(f"checkpoint interval must be >= 0, got {interval}")
    if fingerprint_interval is not None and fingerprint_interval < 0:
        raise ValueError(f"fingerprint interval must be >= 0, "
                         f"got {fingerprint_interval}")
    recorders = []
    checkpointer = None
    if interval != 0:
        checkpointer = _GridRecorder(methodcaller("snapshot"), interval,
                                     INITIAL_CHECKPOINT_INTERVAL,
                                     max_checkpoints)
        recorders.append(checkpointer)
    fingerprinter = None
    if fingerprint_interval != 0:
        fingerprinter = _GridRecorder(methodcaller("state_fingerprint"),
                                      fingerprint_interval,
                                      max(1, INITIAL_FINGERPRINT_INTERVAL),
                                      max_fingerprints)
        recorders.append(fingerprinter)
    if obs is None:
        obs = Instrumentation.off()
    with obs.tracer.span(PHASE_GOLDEN_RECORD,
                         args={"core": core.name,
                               "program": program.name}) as span:
        with obs.metrics.timer(PHASE_GOLDEN_RECORD):
            golden = _record(core, program, max_cycles, recorders)
        snapshots = list(checkpointer.captures.values()) if checkpointer else []
        span.note(cycles=golden.cycles, snapshots=len(snapshots))
    fingerprints = fingerprinter.captures if fingerprinter else {}
    metrics = obs.metrics
    metrics.inc(COUNT_GOLDEN_RECORDS)
    metrics.inc(CYCLES_GOLDEN, golden.cycles)
    if checkpointer:
        metrics.inc(COUNT_SNAPSHOTS, len(snapshots))
    if fingerprinter:
        metrics.inc(COUNT_FINGERPRINTS, len(fingerprints))
    return CheckpointedGoldenRun(
        golden=golden, snapshots=snapshots,
        interval=checkpointer.interval if checkpointer else 0,
        fingerprints=fingerprints,
        fingerprint_interval=(fingerprinter.interval if fingerprinter else 0))


def _record(core: BaseCore, program: Program, max_cycles: int,
            recorders: list[_GridRecorder]) -> RunResult:
    """Run ``program`` to termination, advancing from grid cycle to grid
    cycle and letting every recorder capture the core at the start of each
    (before that cycle steps, in ``recorders`` order)."""
    core.reset(program)
    while recorders:
        core._advance(min(max_cycles, *(recorder.next_cycle(core.cycle)
                                        for recorder in recorders)))
        cycle = core.cycle
        if core.terminated or cycle >= max_cycles:
            break
        for recorder in recorders:
            recorder.record(core, cycle)
    return core._run_loop(max_cycles)


def _program_fingerprint(program: Program) -> tuple:
    """Content identity of a program (workloads rebuild equal Program objects
    on every ``.program()`` call, so object identity is useless as a key)."""
    return (program.name, program.entry_point, program.data.base,
            tuple(program.data.words),
            program.words)


def golden_run_key(core: BaseCore, program: Program, *,
                   interval: int | None = None,
                   max_checkpoints: int | None = None,
                   max_cycles: int | None = None,
                   fingerprint_interval: int | None = None,
                   max_fingerprints: int | None = None) -> tuple:
    """Canonical identity tuple of one checkpointed golden run.

    Everything the recorded artifact is a function of: the core's class,
    name and flip-flop count (two differently-built cores sharing a
    user-supplied name must never exchange snapshots -- a snapshot restored
    onto the wrong model would misclassify every outcome), the program's
    content fingerprint, and the recording knobs.  The in-memory cache keys
    on this tuple directly; the persistent artifact store hashes it into a
    content address (:func:`repro.engine.artifacts.artifact_digest`), so
    the two tiers can never disagree about what a key means.  ``None``
    budget knobs normalise to the module defaults so explicit-default and
    default calls address the same artifact.
    """
    return (type(core).__qualname__, core.name, core.flip_flop_count,
            _program_fingerprint(program), interval,
            DEFAULT_MAX_CHECKPOINTS if max_checkpoints is None
            else max_checkpoints,
            DEFAULT_MAX_CYCLES if max_cycles is None else max_cycles,
            fingerprint_interval,
            DEFAULT_MAX_FINGERPRINTS if max_fingerprints is None
            else max_fingerprints)


@dataclass(frozen=True)
class GoldenCacheStats:
    """Point-in-time health readout of one :class:`GoldenRunCache`.

    ``hits``/``misses`` count the in-memory tier; ``artifacts_loaded`` /
    ``artifacts_saved`` the disk tier (always 0 without a store).  A miss
    satisfied by a loaded artifact is *not* a recording -- the number of
    golden runs actually simulated is :attr:`recorded`.
    """

    hits: int
    misses: int
    entries: int
    max_entries: int
    artifacts_loaded: int = 0
    artifacts_saved: int = 0

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    @property
    def recorded(self) -> int:
        """Golden runs actually simulated (misses the store could not fill)."""
        return self.misses - self.artifacts_loaded

    def merged_with(self, other: "GoldenCacheStats") -> "GoldenCacheStats":
        """Field-wise sum, for aggregating per-worker cache stats.

        ``entries``/``max_entries`` sum too: the merge describes the fleet
        of caches (total held entries / total capacity), not any one LRU.
        """
        return GoldenCacheStats(
            hits=self.hits + other.hits, misses=self.misses + other.misses,
            entries=self.entries + other.entries,
            max_entries=self.max_entries + other.max_entries,
            artifacts_loaded=self.artifacts_loaded + other.artifacts_loaded,
            artifacts_saved=self.artifacts_saved + other.artifacts_saved)


class GoldenRunCache:
    """Two-tier cache of checkpointed golden runs, keyed by (core, program).

    The key is the core's identity plus a content fingerprint of the
    program, so repeated campaigns on the same workload -- e.g. one per
    protection configuration -- pay for the golden run and its snapshots
    exactly once.  With a :class:`~repro.engine.artifacts.GoldenArtifactStore`
    attached (``store``, or just ``EngineConfig(artifact_dir=...)``), the
    in-memory LRU sits on top of a persistent content-addressed disk tier:
    a memory miss first tries to *load* the artifact (integrity-guarded;
    any defective blob degrades to re-recording), and a fresh recording is
    persisted on the way out -- so pool workers and repeated processes join
    warm instead of re-simulating golden runs from cycle 0.

    ``max_entries`` bounds memory (LRU eviction).  The default,
    :data:`DEFAULT_CACHE_ENTRIES`, holds every built-in suite; pass a cache
    built with a larger ``max_entries`` to hold more distinct programs.
    :meth:`stats` makes thrash visible.
    """

    def __init__(self, max_entries: int = DEFAULT_CACHE_ENTRIES, store=None):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.store = store
        self._entries: OrderedDict[tuple, CheckpointedGoldenRun] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.artifacts_loaded = 0
        self.artifacts_saved = 0

    def get(self, core: BaseCore, program: Program, *,
            interval: int | None = None,
            max_checkpoints: int = DEFAULT_MAX_CHECKPOINTS,
            max_cycles: int = DEFAULT_MAX_CYCLES,
            fingerprint_interval: int | None = None,
            max_fingerprints: int = DEFAULT_MAX_FINGERPRINTS,
            obs: Instrumentation | None = None,
            ) -> CheckpointedGoldenRun:
        """Return the checkpointed golden run: memory, then the artifact
        store, then recording (persisting the fresh recording).
        """
        key = golden_run_key(core, program, interval=interval,
                             max_checkpoints=max_checkpoints,
                             max_cycles=max_cycles,
                             fingerprint_interval=fingerprint_interval,
                             max_fingerprints=max_fingerprints)
        cached = self._entries.get(key)
        if cached is not None:
            self.hits += 1
            if obs is not None:
                obs.metrics.inc(COUNT_GOLDEN_CACHE_HITS)
            self._entries.move_to_end(key)
            return cached
        self.misses += 1
        recorded = None
        if self.store is not None:
            recorded = self.store.load_key(key)
            if recorded is not None:
                self.artifacts_loaded += 1
                if obs is not None:
                    obs.metrics.inc(COUNT_ARTIFACTS_LOADED)
        if recorded is None:
            recorded = record_checkpointed_golden(
                core, program, interval=interval,
                max_checkpoints=max_checkpoints, max_cycles=max_cycles,
                fingerprint_interval=fingerprint_interval,
                max_fingerprints=max_fingerprints, obs=obs)
            if self.store is not None and \
                    self.store.save_key(key, recorded) is not None:
                self.artifacts_saved += 1
                if obs is not None:
                    obs.metrics.inc(COUNT_ARTIFACTS_SAVED)
        self._entries[key] = recorded
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        return recorded

    def attach_store(self, store) -> None:
        """Attach a persistent artifact store (no-op when one is attached).

        Keeping the first-attached store makes repeated
        ``EngineConfig(artifact_dir=...)`` engines sharing one cache stable:
        the cache's disk tier never silently switches directories mid-run.
        """
        if self.store is None:
            self.store = store

    def stats(self) -> GoldenCacheStats:
        """Hit/miss/size counters since construction (or the last clear)."""
        return GoldenCacheStats(hits=self.hits, misses=self.misses,
                                entries=len(self._entries),
                                max_entries=self.max_entries,
                                artifacts_loaded=self.artifacts_loaded,
                                artifacts_saved=self.artifacts_saved)

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.artifacts_loaded = 0
        self.artifacts_saved = 0

    def __len__(self) -> int:
        return len(self._entries)


def cache_for_artifact_dir(artifact_dir) -> GoldenRunCache:
    """The process-wide store-backed cache for one artifact directory.

    One shared cache per resolved directory keeps the in-memory tier shared
    across every engine pointed at the same store (the same sharing the
    storeless :data:`GOLDEN_RUN_CACHE` provides), while different
    directories stay fully isolated.
    """
    from pathlib import Path

    from repro.engine.artifacts import GoldenArtifactStore

    root = Path(artifact_dir).expanduser().resolve()
    cache = _STORE_CACHES.get(root)
    if cache is None:
        cache = GoldenRunCache(store=GoldenArtifactStore(root))
        _STORE_CACHES[root] = cache
    return cache


# audit: allow[module-mutable-state] parent-process-only interning table; workers receive caches via the executor payload, never this dict
_STORE_CACHES: dict = {}
"""Per-artifact-directory shared caches (see :func:`cache_for_artifact_dir`)."""


def resolve_golden_cache(golden_cache: GoldenRunCache | None,
                         artifact_dir=None) -> GoldenRunCache | None:
    """Resolve the golden cache a suite/sweep runner was given, plus the
    optional persistent store.

    Returns the explicit cache, the shared store-backed cache for
    ``artifact_dir``, or None when neither was given (the caller then
    applies its own default).  An ``artifact_dir`` combines with an explicit
    cache by attaching the store to it (first store wins on a cache that
    already has one).
    """
    if artifact_dir is None:
        return golden_cache
    if golden_cache is None:
        return cache_for_artifact_dir(artifact_dir)
    from repro.engine.artifacts import GoldenArtifactStore

    golden_cache.attach_store(GoldenArtifactStore(artifact_dir))
    return golden_cache


GOLDEN_RUN_CACHE = GoldenRunCache()
"""Process-wide default cache, shared by every engine unless one is passed."""
