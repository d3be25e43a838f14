"""Statistical injection campaigns (engine-backed).

A campaign runs many single-bit injections of a workload on a core
(optionally with a protection configuration) and aggregates outcomes into an
:class:`~repro.faultinjection.outcomes.OutcomeCounts` plus a per-flip-flop
:class:`~repro.faultinjection.vulnerability.VulnerabilityMap` contribution.

The paper's campaigns are 9-million-injection FPGA/supercomputer runs; here
the sample count is a parameter and the achieved margin of error is reported
so callers can trade precision for time.

Campaign execution lives in :mod:`repro.engine`: golden runs are recorded
with periodic core snapshots (and cached across protection configurations),
every injected run fast-forwards from the nearest snapshot, and plans can be
sharded over worker processes; :class:`repro.engine.InjectionEngine` runs a
campaign and :func:`repro.engine.run_suite_campaign` a suite of them.  This
module holds only their result type, so :mod:`repro.engine` and
:mod:`repro.faultinjection` can be imported in either order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.faultinjection.outcomes import OutcomeCounts, margin_of_error
from repro.microarch.events import RunResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faultinjection.vulnerability import VulnerabilityMap


@dataclass
class CampaignResult:
    """Aggregated results of one injection campaign.

    Beyond the outcome tallies, the result carries the engine's replay
    telemetry so the cost of the campaign -- and the cycles the
    convergence-gated early termination saved -- is measurable per campaign:

    Attributes:
        replayed_cycles: cycles actually simulated across all injected runs
            (after checkpoint fast-forward and convergence early-outs).
        converged_count: injected runs terminated early because their state
            fingerprint re-converged with the golden run's grid.
        saved_cycles: simulated cycles those early-outs skipped.
        evicted_count: runs that diverged out of a batched lockstep
            wavefront and finished on the scalar path (0 when batching is
            off).
        lockstep_cycles: per-run cycles advanced inside batched wavefronts
            (a subset of ``replayed_cycles``; 0 when batching is off).
        metrics: the campaign's merged metric registry as a
            :meth:`~repro.obs.MetricsRegistry.to_dict` document (phase cycle
            counters always; wall-clock timers/histograms under
            ``EngineConfig(metrics=True)``).  ``None`` for results built
            outside the engine.  The per-phase cycle counters partition
            ``replayed_cycles`` exactly (see :mod:`repro.obs.phases`).
        trace_events: Chrome trace-event list recorded under
            ``EngineConfig(trace=...)``; ``None`` when tracing was off.
    """

    core_name: str
    program_name: str
    golden: RunResult
    outcomes: OutcomeCounts
    per_site: dict[int, OutcomeCounts] = field(default_factory=dict)
    replayed_cycles: int = 0
    converged_count: int = 0
    saved_cycles: int = 0
    evicted_count: int = 0
    lockstep_cycles: int = 0
    metrics: dict | None = None
    trace_events: list | None = None

    @property
    def injections(self) -> int:
        return self.outcomes.total

    @property
    def converged_fraction(self) -> float:
        """Fraction of injected runs that early-terminated on convergence."""
        return self.converged_count / self.injections if self.injections else 0.0

    @property
    def saved_cycle_fraction(self) -> float:
        """Fraction of would-be replay cycles skipped by convergence gating.

        The denominator is what full replay would have simulated
        (``replayed + saved``), so 0.6 means convergence gating removed 60%
        of the injected-run simulation work.
        """
        would_be = self.replayed_cycles + self.saved_cycles
        return self.saved_cycles / would_be if would_be else 0.0

    @property
    def evicted_fraction(self) -> float:
        """Fraction of injected runs evicted from a wavefront to scalar replay."""
        return self.evicted_count / self.injections if self.injections else 0.0

    @property
    def lockstep_cycle_fraction(self) -> float:
        """Fraction of simulated replay cycles spent inside lockstep wavefronts."""
        return (self.lockstep_cycles / self.replayed_cycles
                if self.replayed_cycles else 0.0)

    @property
    def sdc_count(self) -> int:
        return self.outcomes.sdc_count

    @property
    def due_count(self) -> int:
        return self.outcomes.due_count

    @property
    def achieved_margin_of_error(self) -> float:
        """95%-confidence margin of error on the SDC rate estimate."""
        rate = (self.sdc_count / self.injections) if self.injections else 0.0
        return margin_of_error(self.injections, rate)

    def contribute_to(self, vulnerability: VulnerabilityMap) -> None:
        """Fold per-site outcome counts into a vulnerability map."""
        for flat_index, counts in self.per_site.items():
            vulnerability.record(self.program_name, flat_index,
                                 samples=counts.total, sdc=counts.sdc_count,
                                 due=counts.due_count)
