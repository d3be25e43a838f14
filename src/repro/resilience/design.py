"""Protected-design configuration: the unit of cross-layer exploration.

A :class:`ProtectedDesign` describes one resilient variant of one core:

* which flip-flops are hardened (and with which cell),
* which flip-flops are covered by logic parity or EDS (and how they are
  grouped),
* which hardware recovery mechanism (if any) is attached,
* which architecture/software/algorithm techniques are layered on top.

It is consumed three ways:

* the fault injector queries :meth:`site_protection` to apply circuit/logic
  protection semantics during injected runs;
* the physical cost model turns it into area/power/energy/execution-time
  overheads (:meth:`cost`);
* the analytic improvement estimator predicts SDC/DUE improvements from a
  vulnerability map (:meth:`estimate_improvement`), including the γ
  susceptibility correction of Eq. 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.faultinjection.injector import SiteProtection
from repro.faultinjection.vulnerability import VulnerabilityMap
from repro.microarch.flipflop import FlipFlopRegistry
from repro.physical.cells import CELL_LIBRARY, CellType, RecoveryKind, recovery_cost
from repro.physical.costmodel import CostReport, DesignCostModel
from repro.resilience.base import GammaContribution, TechniqueDescriptor, core_family
from repro.resilience.circuit import HardeningPlan
from repro.resilience.logic_parity import ParityGroup

#: Additional flip-flops (as a fraction of the core) introduced by recovery
#: hardware, used for the γ correction (shadow register files, replay
#: buffers); calibrated against the γ values reported in Table 3.
RECOVERY_GAMMA = {
    "InO": {RecoveryKind.NONE: 0.0, RecoveryKind.FLUSH: 0.01,
            RecoveryKind.IR: 0.32, RecoveryKind.EIR: 0.40},
    "OoO": {RecoveryKind.NONE: 0.0, RecoveryKind.ROB: 0.005,
            RecoveryKind.IR: 0.05, RecoveryKind.EIR: 0.07},
}

#: Detection latency (cycles) beyond which hardware recovery cannot help.
HARDWARE_RECOVERY_LATENCY_LIMIT = 1024

#: Floor on the residual error rate, as a fraction of the baseline rate.
#: Detection-plus-recovery removes every injected error in simulation, which
#: would give an infinite improvement; the paper caps such configurations at
#: ~100,000x, which a 1e-5 floor reproduces.
RESIDUAL_FLOOR_FRACTION = 1e-5


def residual_floor(baseline: float) -> float:
    """The residual floor of a baseline total: ``baseline *
    RESIDUAL_FLOOR_FRACTION``, but never below the smallest positive float.

    A positive subnormal baseline's product underflows to 0.0, and Eq. 1
    would then divide by zero once the residual sum reaches 0.  Normal
    baselines -- every measured map's -- keep the plain product's bits.
    """
    return max(baseline * RESIDUAL_FLOOR_FRACTION, math.ulp(0.0))


@dataclass(frozen=True)
class ImprovementEstimate:
    """Estimated SDC/DUE improvements of a protected design (Eq. 1)."""

    sdc_improvement: float
    due_improvement: float
    gamma: float
    residual_sdc: float
    residual_due: float


@dataclass
class ProtectedDesign:
    """One resilient configuration of one core."""

    registry: FlipFlopRegistry
    hardening: HardeningPlan = field(default_factory=HardeningPlan)
    parity_groups: list[ParityGroup] = field(default_factory=list)
    eds_flip_flops: set[int] = field(default_factory=set)
    recovery: RecoveryKind = RecoveryKind.NONE
    high_level: list[TechniqueDescriptor] = field(default_factory=list)
    label: str = ""

    def __post_init__(self) -> None:
        self._family = core_family(self.registry.core_name)
        self._parity_membership: dict[int, ParityGroup] = {}
        for group in self.parity_groups:
            for member in group.members:
                self._parity_membership[member] = group
        self._unrecoverable_units = set(
            recovery_cost(self.registry.core_name, self.recovery).unrecoverable_units)
        self._recovery_latency = recovery_cost(self.registry.core_name,
                                               self.recovery).latency_cycles

    # ------------------------------------------------------------------ descriptive
    @property
    def core_name(self) -> str:
        return self.registry.core_name

    @property
    def family(self) -> str:
        return self._family

    def technique_names(self) -> list[str]:
        names = [technique.name for technique in self.high_level]
        if self.hardening.protected_count():
            cells = {cell.value for cell in self.hardening.cell_counts()}
            names.extend(sorted(cells))
        if self.parity_groups:
            names.append("parity")
        if self.eds_flip_flops:
            names.append("eds")
        if self.recovery is not RecoveryKind.NONE:
            names.append(self.recovery.value)
        return names

    # ------------------------------------------------------------------ injector interface
    def recovery_covers(self, flat_index: int) -> bool:
        """True when the attached recovery can recover an error in this flip-flop."""
        if self.recovery is RecoveryKind.NONE:
            return False
        unit = self.registry.site(flat_index).structure.unit
        return unit not in self._unrecoverable_units

    def site_protection(self, flat_index: int) -> SiteProtection:
        """Low-level protection attributes of one flip-flop (injector hook)."""
        cell = self.hardening.cell_for(flat_index)
        if cell not in (CellType.BASELINE, CellType.EDS):
            return SiteProtection(technique=cell.value,
                                  suppression=CELL_LIBRARY[cell].suppression)
        detects = flat_index in self._parity_membership or flat_index in self.eds_flip_flops
        if detects or cell is CellType.EDS:
            technique = "parity" if flat_index in self._parity_membership else "eds"
            return SiteProtection(technique=technique, detects=True,
                                  recoverable=self.recovery_covers(flat_index),
                                  recovery_latency=self._recovery_latency)
        return SiteProtection()

    # ------------------------------------------------------------------ gamma
    def gamma(self) -> float:
        """Susceptibility correction factor γ of the configuration (Sec. 2.1)."""
        factor = 1.0
        for technique in self.high_level:
            factor *= technique.gamma(self._family).factor
        recovery_ffs = RECOVERY_GAMMA[self._family].get(self.recovery, 0.0)
        factor *= 1.0 + recovery_ffs
        added_parity_ffs = 0
        for group in self.parity_groups:
            added_parity_ffs += 1
            if group.pipelined:
                added_parity_ffs += max(1, len(group.members) // 8)
        if added_parity_ffs:
            factor *= 1.0 + added_parity_ffs / max(1, self.registry.total_flip_flops)
        return factor

    def gamma_contribution(self) -> GammaContribution:
        """γ expressed as a single flip-flop-increase-equivalent contribution."""
        return GammaContribution(flip_flop_increase=self.gamma() - 1.0)

    # ------------------------------------------------------------------ cost
    def execution_time_impact_pct(self) -> float:
        """Error-free execution-time impact of the layered techniques."""
        impact = 1.0
        for technique in self.high_level:
            impact *= 1.0 + technique.costs(self._family).exec_time_pct / 100.0
        return (impact - 1.0) * 100.0

    def cost(self, cost_model: DesignCostModel) -> CostReport:
        """Area/power/energy/execution-time overheads over the baseline core.

        Keep the term order and conditionals in sync with
        ``ProtectionSchedule._cost_of_membership`` (repro/core/schedule.py),
        which mirrors this computation for the design-free cost curves; the
        bit-equality is property-tested in tests/test_exploration.py.
        """
        report = CostReport()
        cell_counts = self.hardening.cell_counts()
        if cell_counts:
            report = report.combined_with(cost_model.hardened_cells_cost(cell_counts))
        if self.parity_groups:
            report = report.combined_with(
                cost_model.parity_cost([group.as_plan() for group in self.parity_groups]))
        if self.eds_flip_flops:
            report = report.combined_with(cost_model.eds_cost(len(self.eds_flip_flops)))
        if self.recovery is not RecoveryKind.NONE:
            report = report.combined_with(cost_model.recovery_report(self.recovery))
        for technique in self.high_level:
            costs = technique.costs(self._family)
            report = report.combined_with(cost_model.fixed_overhead(
                costs.area_pct, costs.power_pct, costs.exec_time_pct))
        return report

    # ------------------------------------------------------------------ improvement
    def estimate_improvement(self, vulnerability: VulnerabilityMap,
                             benchmarks: list[str] | None = None) -> ImprovementEstimate:
        """Estimate SDC/DUE improvement over the unprotected design (Eq. 1)."""
        baseline_sdc = 0.0
        baseline_due = 0.0
        residual_sdc = 0.0
        residual_due = 0.0
        site_sdc, site_due = vulnerability.probabilities(benchmarks)
        for flat_index in range(self.registry.total_flip_flops):
            p_sdc = site_sdc[flat_index]
            p_due = site_due[flat_index]
            baseline_sdc += p_sdc
            baseline_due += p_due
            sdc, due = self._residual_for_site(flat_index, p_sdc, p_due)
            residual_sdc += sdc
            residual_due += due
        gamma = self.gamma()
        floor_sdc = residual_floor(baseline_sdc)
        floor_due = residual_floor(baseline_due)
        sdc_improvement = (baseline_sdc / max(residual_sdc, floor_sdc) / gamma
                           if baseline_sdc > 0 else 1.0)
        due_improvement = (baseline_due / max(residual_due, floor_due) / gamma
                           if baseline_due > 0 else 1.0)
        return ImprovementEstimate(sdc_improvement=sdc_improvement,
                                   due_improvement=due_improvement,
                                   gamma=gamma,
                                   residual_sdc=residual_sdc,
                                   residual_due=residual_due)

    def _residual_for_site(self, flat_index: int, p_sdc: float,
                           p_due: float) -> tuple[float, float]:
        """Residual SDC/DUE contribution of one flip-flop under this design."""
        # 1. High-level techniques (algorithm -> software -> architecture order
        #    does not matter for the residual: coverages compose multiplicatively
        #    and converted errors accumulate into DUE).
        for technique in self.high_level:
            coverage = technique.coverage
            if coverage is None:
                continue
            detected_sdc = p_sdc * coverage.overall_sdc_detection
            detected_due = p_due * coverage.overall_due_detection
            recovered = (coverage.corrects
                         or (self.recovery is not RecoveryKind.NONE
                             and coverage.detection_latency_cycles
                             <= HARDWARE_RECOVERY_LATENCY_LIMIT))
            p_sdc -= detected_sdc
            if recovered:
                p_due -= detected_due
            else:
                # Detected SDCs become detected-but-uncorrected errors (ED);
                # detected DUEs remain DUEs.
                p_due += detected_sdc
        # 2. Circuit/logic protection of this specific flip-flop.
        cell = self.hardening.cell_for(flat_index)
        if cell not in (CellType.BASELINE, CellType.EDS):
            suppression = CELL_LIBRARY[cell].suppression
            p_sdc *= 1.0 - suppression
            p_due *= 1.0 - suppression
            return p_sdc, p_due
        detects = (flat_index in self._parity_membership
                   or flat_index in self.eds_flip_flops or cell is CellType.EDS)
        if detects:
            if self.recovery_covers(flat_index):
                return 0.0, 0.0
            # Detected but not recoverable: SDCs convert to DUEs.
            return 0.0, p_due + p_sdc
        return p_sdc, p_due
