"""The shared phase vocabulary of the replay engine's instrumentation.

Every layer of the engine -- golden recording, snapshot fast-forward,
scalar replay, lockstep wavefronts, tandem co-simulation, scalar fallback,
convergence checks -- records against the names defined here, so trace
spans, metric counters and the reporting layer's phase-breakdown table all
agree on what a "phase" is.

Two reconciliation identities hold by construction and are what the
phase-breakdown table (and the observability tests) verify:

* ``CampaignResult.replayed_cycles`` equals the sum of the five *replayed*
  cycle counters (:data:`REPLAY_CYCLE_COUNTERS`);
* ``CampaignResult.lockstep_cycles`` equals :data:`CYCLES_LOCKSTEP` and
  ``CampaignResult.saved_cycles`` equals :data:`CYCLES_SAVED` exactly.
"""

from __future__ import annotations

# ---------------------------------------------------------------------- spans
SPAN_CAMPAIGN = "campaign"
"""Root span of one :meth:`InjectionEngine.run` call."""

SPAN_PLAN = "plan.resolve"
"""Resolving protection semantics + the suppression lottery for the plan."""

SPAN_CHUNK = "chunk"
"""One executed shard of the plan (serial or in a worker process)."""

PHASE_GOLDEN_RECORD = "golden.record"
"""Recording the checkpointed golden run (snapshots + fingerprint grid)."""

PHASE_FASTFORWARD = "snapshot.fastforward"
"""Restoring the nearest golden snapshot below the injection cycle."""

PHASE_SCALAR_REPLAY = "replay.scalar"
"""One scalar injected replay (fast-forward + simulate to decision)."""

PHASE_LOCKSTEP = "lockstep.wavefront"
"""One streaming lockstep sweep of a batched chunk."""

PHASE_TANDEM = "tandem.window"
"""A control-diverged lane co-stepping on a pooled scalar core."""

PHASE_FALLBACK = "scalar.fallback"
"""A still-diverged tandem finishing on the plain scalar path."""

PHASE_CONVERGENCE = "convergence.check"
"""Fingerprint-grid comparisons against the golden run."""

# ------------------------------------------------------------------- counters
CYCLES_GOLDEN = "cycles.golden.record"
"""Cycles simulated recording golden runs (cache misses only)."""

CYCLES_FASTFORWARD = "cycles.fastforward.skipped"
"""Cycles *skipped* by restoring golden snapshots (sum of snapshot cycles)."""

CYCLES_SCALAR = "cycles.replay.scalar"
"""Cycles simulated on the plain scalar replay path."""

CYCLES_LOCKSTEP = "cycles.lockstep.lanes"
"""Per-lane cycles advanced inside lockstep wavefronts."""

CYCLES_WAVEFRONT_SHARED = "cycles.lockstep.shared"
"""Reference-lane cycles of wavefront sweeps (shared by every lane)."""

CYCLES_LOCKSTEP_SEGMENTED = "cycles.lockstep.segmented"
"""The shared cycles a wavefront ran in multi-cycle segments (one
:meth:`~repro.microarch.inorder.InOrderCore._advance` call each, no
pre-pass); a part of :data:`CYCLES_WAVEFRONT_SHARED`, not a replayed-cycle
counter of its own."""

CYCLES_TANDEM = "cycles.tandem.window"
"""Cycles tandem cores co-stepped alongside wavefronts."""

CYCLES_FALLBACK = "cycles.scalar.fallback"
"""Cycles hard-evicted tandems simulated on the scalar finish."""

CYCLES_SAVED = "cycles.saved.convergence"
"""Cycles convergence-gated early termination *skipped*."""

COUNT_REPLAYS = "count.replays"
COUNT_CONVERGED = "count.converged"
COUNT_EVICTED = "count.evicted"
COUNT_GOLDEN_RECORDS = "count.golden.records"
COUNT_FINGERPRINT_CHECKS = "count.fingerprint.checks"
COUNT_SNAPSHOTS = "count.golden.snapshots"
COUNT_FINGERPRINTS = "count.golden.fingerprints"

COUNT_INERT = "count.inert"
"""Injections folded as golden copies without simulation (see
:func:`repro.engine.executors.is_inert`).  Not a cycle counter: inert
injections simulate nothing, so they add no replayed or saved cycles."""

COUNT_FINGERPRINT_FULL = "count.fingerprint.full"
"""State digests computed by convergence probes (recorded only under
``EngineConfig(metrics=True)``)."""

HISTOGRAM_REPLAY_CYCLES = "histogram.replay.cycles"
"""Distribution of per-replay simulated cycle counts (power-of-two buckets;
recorded only under ``EngineConfig(metrics=True)``)."""

HISTOGRAM_CHECK_LATENCY_US = "histogram.fingerprint.check_us"
"""Distribution of per-probe fingerprint latencies in microseconds
(power-of-two buckets; recorded only under ``EngineConfig(metrics=True)``,
into the registry's wall-clock histogram family -- latency buckets vary run
to run, so they stay outside the deterministic counter/histogram merge)."""

REPLAY_CYCLE_COUNTERS = (CYCLES_SCALAR, CYCLES_LOCKSTEP,
                         CYCLES_WAVEFRONT_SHARED, CYCLES_TANDEM,
                         CYCLES_FALLBACK)
"""The cycle counters that sum to ``CampaignResult.replayed_cycles``."""

#: (row label, cycle counter, timer/span name or None) in display order for
#: the phase-breakdown table.  The first two and the last two rows are not
#: part of the replayed-cycle total: golden recording happens once per
#: (core, program), fast-forward and convergence-saved cycles are *skipped*
#: work, and the fingerprint-probes row counts probes (its wall column is
#: the accumulated hashing time, making the fingerprint cost explicit).
PHASE_TABLE = (
    ("golden record", CYCLES_GOLDEN, PHASE_GOLDEN_RECORD),
    ("snapshot fast-forward (skipped)", CYCLES_FASTFORWARD, None),
    ("scalar replay", CYCLES_SCALAR, PHASE_SCALAR_REPLAY),
    ("lockstep wavefront (lanes)", CYCLES_LOCKSTEP, PHASE_LOCKSTEP),
    ("wavefront reference (shared)", CYCLES_WAVEFRONT_SHARED, None),
    ("tandem window", CYCLES_TANDEM, None),
    ("scalar fallback", CYCLES_FALLBACK, PHASE_FALLBACK),
    ("convergence early-out (skipped)", CYCLES_SAVED, None),
    ("fingerprint checks (probes)", COUNT_FINGERPRINT_CHECKS,
     PHASE_CONVERGENCE),
)


def counters_of(metrics) -> dict:
    """The counters mapping of a registry, a ``to_dict`` document, or a bare
    counters dict (accepted so reporting can format any of them)."""
    counters = getattr(metrics, "counters", None)
    if counters is not None:
        return counters
    if isinstance(metrics, dict) and "counters" in metrics:
        return metrics["counters"]
    return metrics if isinstance(metrics, dict) else {}


def replayed_cycle_total(metrics) -> int:
    """Sum of the replayed-cycle phase counters (== ``replayed_cycles``)."""
    counters = counters_of(metrics)
    return sum(counters.get(name, 0) for name in REPLAY_CYCLE_COUNTERS)
