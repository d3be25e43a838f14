"""Per-profile vulnerability sweeps over synthetic workload suites.

:func:`run_synthetic_sweep` is the single seeded call the subsystem promises:
generate a synthetic suite (every registered family, ``per_family`` members
each -- 20 workloads with the five built-in families at the default), run a
fault-injection campaign on each member through the checkpointed parallel
engine, and aggregate a per-profile vulnerability table.  Campaign seeds are
derived deterministically from the sweep seed -- and validated against
cross-family block collisions -- so results are bit-identical across
repeated runs and across serial / process-pool executors.

With ``workers > 1`` the per-workload campaign loop itself is sharded over
the engine's generic payload+shard executor layer
(:class:`repro.engine.executors.ParallelExecutor`): workloads are generated
up-front in the calling process, cut into shards of whole campaigns by the
pool partition every executor consumer shares
(:func:`repro.engine.executors.guided_slices`), fanned out to worker
processes, and folded back in deterministic (family, member) order
regardless of shard completion order.  Shared-mutable state stays out
of the workers by construction: the :class:`VulnerabilityMap` is built only
in the parent from the streamed results, and each worker process uses a
private default-capacity :class:`GoldenRunCache` (a cache cannot be
shared across process boundaries; a caller-supplied cache is therefore only
consulted on the serial path).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.engine.engine import EngineConfig, InjectionEngine
from repro.engine.checkpoint import (
    GoldenCacheStats,
    GoldenRunCache,
    resolve_golden_cache,
)
from repro.engine.executors import ParallelExecutor, guided_slices
from repro.faultinjection.outcomes import OutcomeCounts
from repro.faultinjection.vulnerability import VulnerabilityMap
from repro.isa.program import Program
from repro.microarch.core import BaseCore
from repro.reporting import format_table
from repro.workloads import suite as registry

_FAMILY_SEED_STRIDE = 100_003
"""Seed stride between families' campaign seed blocks."""

_MAX_DERIVED_SEED = 2 ** 63 - 1
"""Ceiling on every derived seed.  The engine multiplies campaign seeds by
its chunk stride (``repro.engine.executors._SEED_STRIDE``) when deriving
per-chunk seeds; keeping that product inside a signed 64-bit lane protects
backends that narrow seeds (numpy bit generators, accelerator RNGs) from
silent truncation -- the same bug class as the crc32/hash-randomization fix
in ``faultinjection/calibrated.py``."""


@dataclass
class ProfileVulnerability:
    """Aggregated campaign outcomes for one scenario family."""

    family: str
    workload_names: list[str]
    outcomes: OutcomeCounts
    golden_cycles: int
    converged_count: int = 0
    saved_cycles: int = 0
    replayed_cycles: int = 0

    @property
    def injections(self) -> int:
        return self.outcomes.total

    @property
    def sdc_rate(self) -> float:
        return self.outcomes.sdc_count / self.injections if self.injections else 0.0

    @property
    def due_rate(self) -> float:
        return self.outcomes.due_count / self.injections if self.injections else 0.0

    @property
    def converged_fraction(self) -> float:
        """Share of the family's replays the convergence gate decided early."""
        return self.converged_count / self.injections if self.injections else 0.0


@dataclass
class SyntheticSweepResult:
    """Everything one seeded sweep produced.

    ``cache_stats`` aggregates the golden-run cache traffic of this sweep
    across the serial path or every pool worker (a
    :class:`~repro.engine.GoldenCacheStats` fleet merge); ``store_stats``
    is a census of the persistent artifact store when
    ``config.artifact_dir`` was set.  Either is None when unavailable.
    """

    core_name: str
    seed: int
    profiles: list[ProfileVulnerability]
    vulnerability: VulnerabilityMap
    campaign_results: list = field(default_factory=list)
    cache_stats: GoldenCacheStats | None = None
    store_stats: object | None = None

    @property
    def workload_names(self) -> list[str]:
        return [name for profile in self.profiles
                for name in profile.workload_names]

    def table(self) -> str:
        """Render the per-profile vulnerability table."""
        rows = [[p.family, len(p.workload_names), p.golden_cycles,
                 p.injections, f"{100 * p.sdc_rate:.1f}%",
                 f"{100 * p.due_rate:.1f}%",
                 f"{100 * p.converged_fraction:.1f}%", p.saved_cycles]
                for p in self.profiles]
        return format_table(
            f"Per-profile vulnerability on {self.core_name} (seed {self.seed})",
            ["profile", "workloads", "golden cycles", "injections",
             "SDC rate", "DUE rate", "converged", "saved cycles"],
            rows)

    def cache_table(self) -> str:
        """Render the sweep's golden-cache (and store) telemetry tables,
        plus the per-profile convergence-gate summary."""
        from repro.reporting import (format_artifact_store_stats,
                                     format_convergence_summary,
                                     format_golden_cache_stats)

        parts = []
        if self.cache_stats is not None:
            parts.append(format_golden_cache_stats(
                self.cache_stats,
                title=f"Golden-run cache (sweep seed {self.seed})"))
        if self.store_stats is not None:
            parts.append(format_artifact_store_stats(self.store_stats))
        if self.profiles:
            parts.append(format_convergence_summary(
                [(p.family, p) for p in self.profiles],
                title=f"Convergence gate (sweep seed {self.seed})"))
        return "\n\n".join(parts)


# ---------------------------------------------------------------------- sharding
@dataclass(frozen=True)
class SweepUnit:
    """One workload campaign of the sweep, fully resolved and picklable.

    Carries the assembled :class:`Program` rather than the
    :class:`~repro.workloads.base.Workload` (whose golden-reference closure
    does not pickle); the campaign seed is derived up-front so it is
    independent of executor choice, sharding and completion order.
    """

    family_index: int
    family: str
    offset: int
    workload_name: str
    program: Program
    campaign_seed: int


@dataclass(frozen=True)
class SweepShard:
    """A contiguous slice of the sweep's campaign units
    (one :func:`~repro.engine.executors.guided_slices` range)."""

    index: int
    units: tuple[SweepUnit, ...]


@dataclass
class SweepShardResult:
    """Streamed aggregate for one executed sweep shard (unit order).

    ``cache_stats`` snapshots the shard's private golden-run cache so the
    parent can merge a fleet-wide readout (loads vs recordings across all
    workers)."""

    index: int
    results: list
    cache_stats: GoldenCacheStats | None = None


@dataclass
class SweepSpec:
    """Everything a worker needs to run sweep campaigns.

    ``config`` always has ``workers == 1``: shard workers run their campaigns
    serially (the parallelism lives at the workload level), which avoids
    nested process pools.
    """

    core: BaseCore
    injections: int
    config: EngineConfig


def evaluate_sweep_shard(spec: SweepSpec, shard: SweepShard) -> SweepShardResult:
    """Run every campaign of one shard (worker entry point).

    Each invocation builds a private :class:`GoldenRunCache`: golden runs
    depend only on (core, program) and every unit's program is distinct, so
    nothing is lost -- and no cache object is ever shared across processes.
    """
    cache = GoldenRunCache()
    results = [_run_campaign(spec.core, unit.program, seed=unit.campaign_seed,
                             injections=spec.injections, config=spec.config,
                             cache=cache)
               for unit in shard.units]
    return SweepShardResult(index=shard.index, results=results,
                            cache_stats=cache.stats())


def _run_units_sharded(core: BaseCore, units: list[SweepUnit], injections: int,
                       config: EngineConfig | None, workers: int
                       ) -> tuple[list, GoldenCacheStats | None]:
    """Fan campaigns out over the process pool; results in unit order.

    Returns ``(campaign_results, merged_cache_stats)``: the shards' private
    golden-cache snapshots merge (in shard order) into one fleet readout.
    """
    inner = replace(config or EngineConfig(), workers=1)
    spec = SweepSpec(core=core, injections=injections, config=inner)
    shards = [SweepShard(index=index, units=tuple(units[part.start:part.stop]))
              for index, part in enumerate(guided_slices(len(units), workers))]
    executor = ParallelExecutor(workers=workers)
    by_index: dict[int, list] = {}
    stats_by_index: dict[int, GoldenCacheStats | None] = {}
    for shard_result in executor.stream(spec, shards, evaluate_sweep_shard):
        by_index[shard_result.index] = shard_result.results
        stats_by_index[shard_result.index] = shard_result.cache_stats
    merged_stats: GoldenCacheStats | None = None
    for index in range(len(shards)):
        shard_stats = stats_by_index.get(index)
        if shard_stats is None:
            continue
        merged_stats = (shard_stats if merged_stats is None
                        else merged_stats.merged_with(shard_stats))
    return ([result for index in range(len(shards))
             for result in by_index[index]], merged_stats)


# ---------------------------------------------------------------------- validation
def _validate_sweep_seeds(seed: int, per_family: int, family_count: int,
                          injections_per_workload: int) -> None:
    """Reject parameter choices that would silently collide seed blocks.

    Family ``f``'s member ``i`` campaigns with seed
    ``seed + f * _FAMILY_SEED_STRIDE + i``; ``per_family >=
    _FAMILY_SEED_STRIDE`` would overlap adjacent families' blocks and
    silently correlate their injection streams.  Large seeds are bounded so
    the engine's derived per-chunk seeds stay inside 64 signed bits (see
    :data:`_MAX_DERIVED_SEED`).
    """
    if per_family < 1:
        raise ValueError(f"per_family must be >= 1, got {per_family}")
    if injections_per_workload < 1:
        raise ValueError("injections_per_workload must be >= 1, got "
                         f"{injections_per_workload}")
    if per_family >= _FAMILY_SEED_STRIDE:
        raise ValueError(
            f"per_family={per_family} reaches the family seed stride "
            f"({_FAMILY_SEED_STRIDE}): member seed blocks of adjacent "
            f"families would overlap and their campaigns would share "
            f"injection streams.  Split the sweep across several seeds "
            f"instead.")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    largest = seed + max(0, family_count - 1) * _FAMILY_SEED_STRIDE \
        + (per_family - 1)
    from repro.engine.executors import _SEED_STRIDE as _CHUNK_STRIDE
    if largest * _CHUNK_STRIDE >= _MAX_DERIVED_SEED:
        raise ValueError(
            f"seed={seed} is too large: the derived per-chunk campaign seeds "
            f"(up to ~{largest * _CHUNK_STRIDE:.2e}) would overflow a signed "
            f"64-bit lane and could be silently truncated by narrowing RNG "
            f"backends.  Use a seed below "
            f"{_MAX_DERIVED_SEED // _CHUNK_STRIDE - largest + seed}.")


# ---------------------------------------------------------------------- sweep
def run_synthetic_sweep(core: BaseCore, seed: int = 0, per_family: int = 4,
                        injections_per_workload: int = 40,
                        families: list[str] | None = None,
                        config: EngineConfig | None = None,
                        golden_cache: GoldenRunCache | None = None,
                        workers: int = 1,
                        **profile_overrides) -> SyntheticSweepResult:
    """Generate a synthetic suite and sweep vulnerability across its profiles.

    ``families`` defaults to every registered family; ``profile_overrides``
    (e.g. ``target_cycles=1000``) evolve each family's profile before
    generation.  The campaign seed of family ``f``'s member ``i`` is
    ``seed + f * stride + i`` -- independent of executor choice and worker
    count, which is what makes the sweep reproducible bit-for-bit.

    ``workers > 1`` shards whole workload campaigns over the engine's
    process-pool executor (each worker running its campaigns serially);
    results are identical to the serial loop.  ``golden_cache`` is consulted
    only on the serial path -- without one the serial path builds a fresh
    cache, and each pool shard builds a private one, so a shared cache
    object is never mutated across processes.  Every sweep visits each of
    its programs once, so these caches record one golden per workload and
    never hit.  A cache pays only across calls: pass repeated serial sweeps
    the same ``golden_cache``, built with ``max_entries`` of at least the
    sweep's workload count, or set ``config.artifact_dir``.
    """
    family_names = families if families is not None else registry.family_names()
    _validate_sweep_seeds(seed, per_family, len(family_names),
                          injections_per_workload)
    artifact_dir = config.artifact_dir if config is not None else None
    resolved_cache = resolve_golden_cache(golden_cache,
                                          artifact_dir=artifact_dir)
    units: list[SweepUnit] = []
    for family_index, family in enumerate(family_names):
        workloads = registry.build_family(family, seed=seed, count=per_family,
                                          **profile_overrides)
        base_seed = seed + family_index * _FAMILY_SEED_STRIDE
        for offset, workload in enumerate(workloads):
            units.append(SweepUnit(
                family_index=family_index, family=family, offset=offset,
                workload_name=workload.name, program=workload.program(),
                campaign_seed=base_seed + offset))

    if workers > 1 and len(units) > 1:
        results, cache_stats = _run_units_sharded(
            core, units, injections_per_workload, config, workers)
    else:
        cache = resolved_cache if resolved_cache is not None else GoldenRunCache()
        before = cache.stats()
        results = [_run_campaign(core, unit.program, seed=unit.campaign_seed,
                                 injections=injections_per_workload,
                                 config=config, cache=cache)
                   for unit in units]
        cache_stats = _stats_delta(cache.stats(), before)
    store_stats = None
    if artifact_dir is not None:
        from repro.engine.artifacts import GoldenArtifactStore

        # Census-only view in the parent: the load/save traffic happened on
        # the serial cache's store or inside the pool workers.
        store = (resolved_cache.store
                 if resolved_cache is not None
                 and resolved_cache.store is not None
                 else GoldenArtifactStore(artifact_dir))
        store_stats = store.stats()

    # Fold in (family, member) order -- deterministic however shards landed.
    vulnerability = VulnerabilityMap(core.name, core.flip_flop_count)
    profiles: list[ProfileVulnerability] = []
    last_family_index = None
    campaign_results = []
    for unit, result in zip(units, results):
        result.contribute_to(vulnerability)
        campaign_results.append(result)
        if unit.family_index != last_family_index:
            profiles.append(ProfileVulnerability(
                family=unit.family, workload_names=[],
                outcomes=OutcomeCounts(), golden_cycles=0))
            last_family_index = unit.family_index
        profile = profiles[-1]
        profile.workload_names.append(unit.workload_name)
        profile.outcomes = profile.outcomes.merged_with(result.outcomes)
        profile.golden_cycles += result.golden.cycles
        profile.converged_count += result.converged_count
        profile.saved_cycles += result.saved_cycles
        profile.replayed_cycles += result.replayed_cycles
    return SyntheticSweepResult(core_name=core.name, seed=seed,
                                profiles=profiles, vulnerability=vulnerability,
                                campaign_results=campaign_results,
                                cache_stats=cache_stats,
                                store_stats=store_stats)


def _stats_delta(after: GoldenCacheStats,
                 before: GoldenCacheStats) -> GoldenCacheStats:
    """Traffic attributable to this sweep on a possibly pre-used cache
    (counters subtract; entries/capacity keep the final snapshot)."""
    return GoldenCacheStats(
        hits=after.hits - before.hits, misses=after.misses - before.misses,
        entries=after.entries, max_entries=after.max_entries,
        artifacts_loaded=after.artifacts_loaded - before.artifacts_loaded,
        artifacts_saved=after.artifacts_saved - before.artifacts_saved)


def _run_campaign(core: BaseCore, program: Program, seed: int, injections: int,
                  config: EngineConfig | None, cache: GoldenRunCache):
    """One workload campaign.  The seed handoff is pure integer arithmetic
    end to end (sweep seed -> campaign seed -> ``random.Random`` /
    ``uniform_injection_plan`` -> chunk seeds); no ``hash()``-style
    per-process randomization anywhere in the chain."""
    engine = InjectionEngine(core, program, seed=seed, config=config,
                             golden_cache=cache)
    return engine.run(injections=injections)
