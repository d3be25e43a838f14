"""Synthetic-workload-driven exploration frontiers.

This module closes the loop between the synthesis subsystem and the
cross-layer exploration engine: one seeded call goes profile -> synthetic
injection campaigns -> :class:`VulnerabilityMap` -> schedule evaluation
-> :class:`ParetoFrontier`, making the paper's Fig. 1(d)-style
cost/improvement cloud computable for *any* synthesized scenario family,
not just the 18 fixed benchmarks.

The injection campaigns ride the engine's payload+shard executor layer --
``sweep_workers`` fans them out per workload, bit-identically across
serial and process-pool execution -- and the combination pool is then
evaluated in process, so the resulting frontier (labels included, thanks
to the deterministic coordinate tie-break) is a pure function of the seed
and parameters.  Frontiers can be persisted alongside their sweep metadata
(:mod:`repro.analysis.store`) for cross-run comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.pareto import ParetoFrontier
from repro.analysis.store import save_frontier
from repro.core.exploration import CrossLayerExplorer
from repro.core.improvement import ResilienceTarget, sdc_targets
from repro.engine.engine import EngineConfig
from repro.microarch.core import BaseCore
from repro.obs import manifest_dict
from repro.workloads import suite as registry
from repro.workloads.synthesis.sweep import SyntheticSweepResult, run_synthetic_sweep


@dataclass
class SyntheticFrontierResult:
    """One synthetic sweep plus the Pareto frontier explored on top of it."""

    sweep: SyntheticSweepResult
    frontier: ParetoFrontier
    metadata: dict = field(default_factory=dict)
    manifest: dict = field(default_factory=dict)

    def save(self, path: str | Path) -> Path:
        """Persist the frontier (with sweep metadata and the run's
        provenance manifest) for cross-run merges."""
        return save_frontier(path, self.frontier, metadata=self.metadata,
                             manifest=self.manifest or None)


def explorer_for_sweep(core: BaseCore, sweep: SyntheticSweepResult,
                       ) -> CrossLayerExplorer:
    """A cross-layer explorer driven by a sweep's measured vulnerability.

    The sweep's synthetic workload names become the explorer's benchmark
    list, so vulnerability profiles, schedules and frontiers are all
    *workload-dependent* in exactly the sense the paper argues they must be.
    """
    if sweep.core_name != core.name:
        raise ValueError(
            f"sweep was measured on {sweep.core_name!r} but the explorer "
            f"was asked to plan for {core.name!r}; vulnerability maps are "
            f"core-specific")
    return CrossLayerExplorer(core.registry, sweep.vulnerability,
                              benchmarks=sweep.workload_names)


def frontier_from_sweep(core: BaseCore, sweep: SyntheticSweepResult,
                        targets: list[ResilienceTarget] | None = None,
                        combinations: list | None = None,
                        metric: str = "sdc") -> ParetoFrontier:
    """Stream a sweep-driven combination evaluation into a Pareto frontier."""
    explorer = explorer_for_sweep(core, sweep)
    return explorer.explore_frontier(targets=targets, combinations=combinations,
                                     metric=metric)


def explore_synthetic_frontier(core: BaseCore, seed: int = 0,
                               per_family: int = 4,
                               injections_per_workload: int = 40,
                               families: list[str] | None = None,
                               config: EngineConfig | None = None,
                               targets: list[ResilienceTarget] | None = None,
                               combinations: list | None = None,
                               sweep_workers: int = 1,
                               metric: str = "sdc",
                               store_path: str | Path | None = None,
                               **profile_overrides) -> SyntheticFrontierResult:
    """The single seeded synthesis-to-frontier call.

    Generates the synthetic suite, measures per-flip-flop vulnerability
    through the (optionally sharded) injection engine, evaluates the
    cross-layer combination pool against that measured map from incremental
    improvement/cost curves, and folds the results into a dominance-pruned
    Pareto frontier.  ``store_path`` persists the frontier plus its sweep
    metadata on the way out.

    Every stage derives its randomness from ``seed`` alone, so the returned
    frontier is bit-identical for any ``sweep_workers`` choice.
    """
    sweep = run_synthetic_sweep(core, seed=seed, per_family=per_family,
                                injections_per_workload=injections_per_workload,
                                families=families, config=config,
                                workers=sweep_workers, **profile_overrides)
    swept_targets = targets if targets is not None else sdc_targets()
    frontier = frontier_from_sweep(core, sweep, targets=swept_targets,
                                   combinations=combinations, metric=metric)
    metadata = {
        "kind": "synthetic-frontier",
        "core": core.name,
        "seed": seed,
        "per_family": per_family,
        "injections_per_workload": injections_per_workload,
        "families": (list(families) if families is not None
                     else registry.family_names()),
        "profile_overrides": dict(profile_overrides),
        "targets": [target.label for target in swept_targets],
        "metric": metric,
        "workloads": len(sweep.workload_names),
        "swept_points": frontier.seen,
    }
    if sweep.cache_stats is not None:
        stats = sweep.cache_stats
        metadata["golden_cache"] = {
            "hits": stats.hits, "misses": stats.misses,
            "artifacts_loaded": stats.artifacts_loaded,
            "artifacts_saved": stats.artifacts_saved,
            "recorded": stats.recorded,
        }
    manifest = manifest_dict(seed=seed, core=core, config=config,
                             kind="synthetic-frontier", metric=metric)
    result = SyntheticFrontierResult(sweep=sweep, frontier=frontier,
                                     metadata=metadata, manifest=manifest)
    if store_path is not None:
        result.save(store_path)
    return result
