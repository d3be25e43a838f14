"""Checkpointed parallel injection engine.

The engine layers statistical injection campaigns on top of the core models'
snapshot/restore support:

* :mod:`repro.engine.checkpoint` -- golden runs recorded with periodic core
  snapshots and a denser fingerprint grid (the core advances from grid
  cycle to grid cycle, captured at each), plus the process-wide golden-run
  cache shared across protection configurations;
* :mod:`repro.engine.artifacts` -- the content-addressed persistent
  golden-artifact store: checkpointed golden runs serialised to versioned,
  integrity-guarded on-disk blobs, making the golden cache two-tier
  (``EngineConfig(artifact_dir=...)``) so repeated processes and pool
  workers start warm;
* :mod:`repro.engine.executors` -- pluggable serial / process-pool executors
  that replay pre-resolved injection shards and stream aggregates back.
  Every injected run -- scalar, high-level, or a batched lane's scalar
  fallback -- finishes through :func:`run_gated`, which cuts it short once
  its state fingerprint re-converges with the golden run's grid.  It steps
  the core hook-free (:meth:`~repro.microarch.core.BaseCore._advance`)
  from the injection cycle, where a one-shot injection is applied, to each
  probe cycle of one fixed schedule (:func:`should_check`,
  :func:`next_check`) in turn;
* :mod:`repro.engine.liveness` -- golden-run latch liveness: one logged
  re-run of a golden run yields, per latch slot, the cycles at which a flip
  is dead (the golden run next writes the latch, or never touches it
  again), so the engine folds those flips as golden copies on cores that
  declare :attr:`~repro.microarch.core.BaseCore.dead_flip_fold`;
* :mod:`repro.engine.engine` -- :class:`InjectionEngine`, the campaign front
  door, and the engine-backed suite runner;
* :mod:`repro.engine.batch` -- batched lockstep replay: numpy-vectorised
  injection wavefronts behind the :attr:`EngineConfig.batch_width` knob.

Campaign results are :class:`repro.faultinjection.campaign.CampaignResult`
objects, re-exported here.
"""

from repro.engine.artifacts import (
    ArtifactStoreStats,
    GoldenArtifactStore,
    artifact_digest,
)
from repro.engine.checkpoint import (
    DEFAULT_MAX_CHECKPOINTS,
    DEFAULT_MAX_FINGERPRINTS,
    GOLDEN_RUN_CACHE,
    CheckpointedGoldenRun,
    GoldenCacheStats,
    GoldenRunCache,
    cache_for_artifact_dir,
    golden_run_key,
    record_checkpointed_golden,
)
from repro.engine.engine import (
    EngineConfig,
    InjectionEngine,
    run_suite_campaign,
)
from repro.faultinjection.campaign import CampaignResult
from repro.engine.executors import (
    CampaignExecutor,
    CampaignSpec,
    ChunkResult,
    ChunkSpec,
    ParallelExecutor,
    PlannedInjection,
    Replay,
    SerialExecutor,
    execute_chunk,
    guided_slices,
    replay_planned_injection,
)

__all__ = [
    "DEFAULT_MAX_CHECKPOINTS",
    "DEFAULT_MAX_FINGERPRINTS",
    "GOLDEN_RUN_CACHE",
    "ArtifactStoreStats",
    "GoldenArtifactStore",
    "artifact_digest",
    "CheckpointedGoldenRun",
    "GoldenCacheStats",
    "GoldenRunCache",
    "cache_for_artifact_dir",
    "golden_run_key",
    "record_checkpointed_golden",
    "CampaignResult",
    "EngineConfig",
    "InjectionEngine",
    "run_suite_campaign",
    "CampaignExecutor",
    "CampaignSpec",
    "ChunkResult",
    "ChunkSpec",
    "ParallelExecutor",
    "PlannedInjection",
    "Replay",
    "SerialExecutor",
    "execute_chunk",
    "guided_slices",
    "replay_planned_injection",
]
