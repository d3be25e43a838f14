"""Unified instrumentation layer: metrics, trace spans, run manifests.

The observability plane of the replay engine, in three parts:

* :mod:`repro.obs.metrics` -- a near-zero-overhead-when-disabled
  :class:`MetricsRegistry` (counters, wall-clock phase timers, power-of-two
  histograms) with a process-local default and explicit per-worker
  instances that serialize through ``ChunkResult`` and merge
  deterministically in chunk-index order;
* :mod:`repro.obs.trace` -- :class:`TraceRecorder`, span-based tracing of
  the campaign -> chunk -> replay lifecycle emitting Chrome
  trace-event-format JSON (``chrome://tracing`` / Perfetto);
* :mod:`repro.obs.manifest` -- :class:`RunManifest`, the provenance record
  (seed, engine config, core class, package versions, git revision, host)
  attached to persisted frontiers and ``BENCH_*.json`` documents.

:mod:`repro.obs.phases` defines the shared phase-name vocabulary so spans,
counters and the reporting layer's phase-breakdown table agree.

:class:`Instrumentation` bundles one registry and one recorder -- the
object the engine threads through golden recording, chunk execution,
wavefront stepping and tandem co-simulation.  ``Instrumentation.off()``
hands hot paths a shared fully-disabled bundle whose operations cost one
attribute check each.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs import phases
from repro.obs.manifest import (
    MANIFEST_VERSION,
    RunManifest,
    build_manifest,
    git_revision,
    manifest_dict,
    manifest_drift,
)
from repro.obs.metrics import (
    NULL_METRICS,
    NULL_TIMER,
    MetricsRegistry,
)
from repro.obs.phases import replayed_cycle_total
from repro.obs.trace import (
    NULL_SPAN,
    NULL_TRACER,
    TraceRecorder,
    validate_trace_events,
)


@dataclass
class Instrumentation:
    """One metrics registry plus one trace recorder, threaded together.

    The engine builds one per campaign (process-local) and one per chunk
    (worker-local; its contents ride home inside the ``ChunkResult``).
    """

    metrics: MetricsRegistry
    tracer: TraceRecorder

    @property
    def detailed(self) -> bool:
        """True when fine-grained (per-check / per-replay-histogram)
        instrumentation is on -- follows the registry's ``timing`` flag."""
        return self.metrics.timing

    @classmethod
    def configure(cls, metrics: bool = False,
                  trace: bool = False) -> "Instrumentation":
        """The engine's bundle: counters always on (they back the campaign
        telemetry), wall-clock timers gated on ``metrics``, spans on
        ``trace``."""
        return cls(metrics=MetricsRegistry(enabled=True, timing=metrics),
                   tracer=TraceRecorder(enabled=trace))

    @classmethod
    def off(cls) -> "Instrumentation":
        """The shared fully-disabled bundle (every operation a no-op)."""
        return OBS_OFF


OBS_OFF = Instrumentation(metrics=NULL_METRICS, tracer=NULL_TRACER)
"""Module-level disabled bundle; safe to share (disabled = stateless)."""


__all__ = [
    "MANIFEST_VERSION",
    "NULL_METRICS",
    "NULL_SPAN",
    "NULL_TIMER",
    "NULL_TRACER",
    "OBS_OFF",
    "Instrumentation",
    "MetricsRegistry",
    "RunManifest",
    "TraceRecorder",
    "build_manifest",
    "git_revision",
    "manifest_dict",
    "manifest_drift",
    "phases",
    "replayed_cycle_total",
    "validate_trace_events",
]
