"""Selective-hardening heuristics (Heuristic 1 and the Fig. 7 methodology).

The most cost-effective cross-layer combination the paper finds is built by:

1. optionally applying high-level techniques (e.g. ABFT correction) first;
2. ranking flip-flops by the percentage of injected errors that cause SDC or
   DUE (from the vulnerability map);
3. walking down that ranking and protecting each flip-flop with either
   LEAP-DICE or logic parity, chosen by Heuristic 1:

   * HARDEN(f): flip-flops whose errors cannot be recovered by the chosen
     micro-architectural recovery (memory/exception/writeback stages on the
     in-order core; post-reorder-buffer state on the out-of-order core) get
     LEAP-DICE;
   * PARITY(f): flip-flops with enough timing slack for the parity predictor
     tree get parity; everything else falls back to LEAP-DICE;

4. stopping once the estimated SDC/DUE improvement (Eq. 1, including γ)
   meets the target.

Planning is *incremental*: because the walk is independent of the target,
:class:`SelectiveHardeningPlanner` computes one
:class:`~repro.core.schedule.ProtectionSchedule` per (policy, recovery,
high-level set) and answers every target from its improvement curves.
Vulnerability profiles (the map's dense per-site probabilities and the
ranking) and post-high-level residuals are cached and shared across
schedules.  So are the per-site Heuristic-1 inputs: each flip-flop's
functional unit and whether it has the slack for a 32-bit parity tree are
resolved once per planner into two tables
(:meth:`SelectiveHardeningPlanner.site_tables`), which every schedule's
Heuristic-1 choices and parity cost curves read instead of asking the
registry and timing model per site.  The legacy per-target loop survives as
:meth:`SelectiveHardeningPlanner.plan_replanning` -- the reference that
schedules are property-tested to match bit-for-bit; it still resolves each
site through :func:`choose_technique`, so it also checks the tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.improvement import ResilienceTarget
from repro.core.schedule import (
    HARDENING_SUPPRESSION,
    LowLevelChoice,
    ProtectionSchedule,
    ScheduleStep,
    SelectiveHardeningResult,
    materialise_design,
)
from repro.faultinjection.vulnerability import VulnerabilityMap
from repro.microarch.flipflop import FlipFlopRegistry
from repro.physical.cells import CellType, RecoveryKind, recovery_cost
from repro.physical.timing import TimingModel
from repro.resilience.base import TechniqueDescriptor, core_family
from repro.resilience.design import (
    HARDWARE_RECOVERY_LATENCY_LIMIT,
    RECOVERY_GAMMA,
    RESIDUAL_FLOOR_FRACTION,
)
from repro.resilience.logic_parity import UNPIPELINED_GROUP_SIZE

__all__ = [
    "LowLevelChoice",
    "SelectionPolicy",
    "SelectiveHardeningPlanner",
    "SelectiveHardeningResult",
    "choose_technique",
    "descriptor_key",
]


@dataclass
class SelectionPolicy:
    """Which tunable techniques the selective heuristic may use."""

    allow_hardening: bool = True
    allow_parity: bool = True
    allow_eds: bool = False
    hardening_cell: CellType = CellType.LEAP_DICE

    def single_technique(self) -> bool:
        return sum((self.allow_hardening, self.allow_parity, self.allow_eds)) == 1

    def cache_key(self) -> tuple:
        return (self.allow_hardening, self.allow_parity, self.allow_eds,
                self.hardening_cell)


def _choose_in_context(unit: str, has_slack: bool, policy: SelectionPolicy,
                       has_recovery: bool,
                       unrecoverable: tuple[str, ...]) -> LowLevelChoice:
    """Heuristic 1 for one flip-flop, given its unit and 32-bit parity slack."""
    detection_allowed = policy.allow_parity or policy.allow_eds
    detection_choice = LowLevelChoice.PARITY if policy.allow_parity else LowLevelChoice.EDS
    if not detection_allowed:
        return LowLevelChoice.LEAP_DICE
    if not policy.allow_hardening:
        return detection_choice
    if has_recovery and unit in unrecoverable:
        return LowLevelChoice.LEAP_DICE          # HARDEN(f)
    if has_slack:
        return detection_choice                  # PARITY(f)
    return LowLevelChoice.LEAP_DICE


def choose_technique(flat_index: int, registry: FlipFlopRegistry, timing: TimingModel,
                     recovery: RecoveryKind, policy: SelectionPolicy) -> LowLevelChoice:
    """Heuristic 1: choose LEAP-DICE or parity (or EDS) for one flip-flop."""
    unrecoverable = recovery_cost(registry.core_name, recovery).unrecoverable_units
    return _choose_in_context(
        registry.unit_of(flat_index),
        timing.supports_unpipelined(flat_index, UNPIPELINED_GROUP_SIZE),
        policy, recovery is not RecoveryKind.NONE, unrecoverable)


def descriptor_key(technique: TechniqueDescriptor) -> tuple:
    """Hashable content key of a technique descriptor (for schedule caching).

    Content-based (not identity-based) so caller-constructed descriptors that
    equal a library descriptor share its cached schedules, while modified
    copies never collide.
    """
    return (technique.name, technique.layer, technique.tunable,
            technique.detection_only, technique.coverage,
            tuple(sorted(technique.costs_by_core.items())),
            tuple(sorted(technique.gamma_by_core.items())),
            technique.requires_recovery_for_due)


class SelectiveHardeningPlanner:
    """Implements the Fig. 7 loop on top of a vulnerability map.

    One planner serves many (combination, target) queries: the vulnerability
    profile, the per-site Heuristic-1 tables, post-high-level residuals and
    full protection schedules are all computed once and memoised on the
    instance.
    """

    def __init__(self, registry: FlipFlopRegistry, vulnerability: VulnerabilityMap,
                 timing: TimingModel, benchmarks: list[str] | None = None):
        self.registry = registry
        self.vulnerability = vulnerability
        self.timing = timing
        self.benchmarks = benchmarks
        self._family = core_family(registry.core_name)
        self._profile: tuple[tuple[float, ...], tuple[float, ...], float, float,
                             list[int]] | None = None
        self._site_tables: tuple[list[str], list[bool]] | None = None
        self._residual_cache: dict[tuple, tuple[tuple[float, ...], tuple[float, ...]]] = {}
        self._schedule_cache: dict[tuple, ProtectionSchedule] = {}

    # ------------------------------------------------------------------ cached inputs
    def profile(self) -> tuple[tuple[float, ...], tuple[float, ...], float, float,
                               list[int]]:
        """Per-site (p_sdc, p_due), baselines and the vulnerability ranking.

        Depends only on the vulnerability map and benchmark list, both fixed
        at construction, so it is computed exactly once per planner.
        """
        if self._profile is None:
            total = self.registry.total_flip_flops
            p_sdc, p_due = self.vulnerability.probabilities(self.benchmarks)
            baseline_sdc = sum(p_sdc) or 1e-12
            baseline_due = sum(p_due) or 1e-12
            ranking = sorted(range(total), key=lambda i: (-(p_sdc[i] + p_due[i]), i))
            self._profile = (p_sdc, p_due, baseline_sdc, baseline_due, ranking)
        return self._profile

    def site_tables(self) -> tuple[list[str], list[bool]]:
        """Per-site Heuristic-1 inputs: functional unit and 32-bit parity slack.

        Entry ``i`` is ``registry.unit_of(i)`` and
        ``timing.supports_unpipelined(i, UNPIPELINED_GROUP_SIZE)``; resolved
        once per planner and shared by every schedule it builds.
        """
        if self._site_tables is None:
            total = range(self.registry.total_flip_flops)
            self._site_tables = (
                [self.registry.unit_of(i) for i in total],
                [self.timing.supports_unpipelined(i, UNPIPELINED_GROUP_SIZE)
                 for i in total])
        return self._site_tables

    def _residuals(self, high_level: list[TechniqueDescriptor],
                   recovery: RecoveryKind) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Per-site residuals after the high-level techniques (cached).

        The residuals depend on the ordered technique list and on *whether*
        hardware recovery is present (its latency gate), not on which
        mechanism it is -- so IR/EIR/flush variants of one technique set
        share an entry.
        """
        key = (tuple(descriptor_key(t) for t in high_level),
               recovery is not RecoveryKind.NONE)
        cached = self._residual_cache.get(key)
        if cached is not None:
            return cached
        p_sdc, p_due, _, _, _ = self.profile()
        total = self.registry.total_flip_flops
        residual_sdc = list(p_sdc)
        residual_due = list(p_due)
        for technique in high_level:
            coverage = technique.coverage
            if coverage is None:
                continue
            recovered = (coverage.corrects
                         or (recovery is not RecoveryKind.NONE
                             and coverage.detection_latency_cycles
                             <= HARDWARE_RECOVERY_LATENCY_LIMIT))
            for i in range(total):
                detected_sdc = residual_sdc[i] * coverage.overall_sdc_detection
                detected_due = residual_due[i] * coverage.overall_due_detection
                residual_sdc[i] -= detected_sdc
                if recovered:
                    residual_due[i] -= detected_due
                else:
                    residual_due[i] += detected_sdc
        result = (tuple(residual_sdc), tuple(residual_due))
        self._residual_cache[key] = result
        return result

    def _gamma_fixed(self, high_level: list[TechniqueDescriptor],
                     recovery: RecoveryKind) -> float:
        gamma_fixed = 1.0
        for technique in high_level:
            gamma_fixed *= technique.gamma(self._family).factor
        gamma_fixed *= 1.0 + RECOVERY_GAMMA[self._family].get(recovery, 0.0)
        return gamma_fixed

    # ------------------------------------------------------------------ schedules
    def schedule_for(self, recovery: RecoveryKind = RecoveryKind.NONE,
                     policy: SelectionPolicy | None = None,
                     high_level: list[TechniqueDescriptor] | None = None,
                     ) -> ProtectionSchedule:
        """The (cached) full prefix schedule for one planning context."""
        policy = policy or SelectionPolicy()
        high_level = list(high_level or [])
        key = (policy.cache_key(), recovery,
               tuple(descriptor_key(t) for t in high_level))
        cached = self._schedule_cache.get(key)
        if cached is not None:
            return cached
        _, _, baseline_sdc, baseline_due, ranking = self.profile()
        units, has_slack = self.site_tables()
        residual_sdc, residual_due = self._residuals(high_level, recovery)
        unrecoverable = recovery_cost(self.registry.core_name, recovery).unrecoverable_units
        has_recovery = recovery is not RecoveryKind.NONE
        unrecoverable_set = set(unrecoverable)
        steps = []
        for flat_index in ranking:
            unit = units[flat_index]
            choice = _choose_in_context(unit, has_slack[flat_index], policy,
                                        has_recovery, unrecoverable)
            steps.append(ScheduleStep(
                flat_index=flat_index, choice=choice,
                recoverable=has_recovery and unit not in unrecoverable_set,
                zero_residual=(residual_sdc[flat_index] <= 0
                               and residual_due[flat_index] <= 0)))
        schedule = ProtectionSchedule(
            registry=self.registry, timing=self.timing,
            vulnerability=self.vulnerability, units=units, has_slack=has_slack,
            recovery=recovery,
            hardening_cell=policy.hardening_cell, high_level=high_level,
            steps=steps, residual_sdc=list(residual_sdc),
            residual_due=list(residual_due), baseline_sdc=baseline_sdc,
            baseline_due=baseline_due,
            gamma_fixed=self._gamma_fixed(high_level, recovery))
        self._schedule_cache[key] = schedule
        return schedule

    # ------------------------------------------------------------------ main entry
    def plan(self, target: ResilienceTarget, recovery: RecoveryKind = RecoveryKind.NONE,
             policy: SelectionPolicy | None = None,
             high_level: list[TechniqueDescriptor] | None = None,
             label: str = "") -> SelectiveHardeningResult:
        """Protect flip-flops (most vulnerable first) until the target is met.

        A target of ``float('inf')`` protects every flip-flop ("max" columns).
        Answered from the cached protection schedule; bit-identical to
        :meth:`plan_replanning`.
        """
        schedule = self.schedule_for(recovery=recovery, policy=policy,
                                     high_level=high_level)
        return schedule.plan(target, label=label)

    # ------------------------------------------------------------------ reference loop
    def plan_replanning(self, target: ResilienceTarget,
                        recovery: RecoveryKind = RecoveryKind.NONE,
                        policy: SelectionPolicy | None = None,
                        high_level: list[TechniqueDescriptor] | None = None,
                        label: str = "") -> SelectiveHardeningResult:
        """The legacy per-target Fig. 7 loop, kept as the equivalence baseline.

        Recomputes the vulnerability profile, residuals and the walk from
        scratch on every call; used by the property tests and the
        exploration benchmark to validate (and measure) the incremental
        schedules against the original semantics.
        """
        policy = policy or SelectionPolicy()
        high_level = list(high_level or [])
        total = self.registry.total_flip_flops

        p_sdc, p_due = self.vulnerability.probabilities(self.benchmarks)
        baseline_sdc = sum(p_sdc) or 1e-12
        baseline_due = sum(p_due) or 1e-12

        # Residuals after the high-level techniques (applied uniformly).
        residual_sdc = list(p_sdc)
        residual_due = list(p_due)
        for technique in high_level:
            coverage = technique.coverage
            if coverage is None:
                continue
            recovered = (coverage.corrects
                         or (recovery is not RecoveryKind.NONE
                             and coverage.detection_latency_cycles
                             <= HARDWARE_RECOVERY_LATENCY_LIMIT))
            for i in range(total):
                detected_sdc = residual_sdc[i] * coverage.overall_sdc_detection
                detected_due = residual_due[i] * coverage.overall_due_detection
                residual_sdc[i] -= detected_sdc
                if recovered:
                    residual_due[i] -= detected_due
                else:
                    residual_due[i] += detected_sdc

        gamma_fixed = 1.0
        for technique in high_level:
            gamma_fixed *= technique.gamma(self._family).factor
        gamma_fixed *= 1.0 + RECOVERY_GAMMA[self._family].get(recovery, 0.0)

        sum_sdc = sum(residual_sdc)
        sum_due = sum(residual_due)
        ranking = sorted(range(total), key=lambda i: (-(p_sdc[i] + p_due[i]), i))

        hardened: dict[int, CellType] = {}
        parity_members: list[int] = []
        eds_members: set[int] = set()
        suppression = HARDENING_SUPPRESSION
        unrecoverable = set(recovery_cost(self.registry.core_name, recovery).unrecoverable_units)

        def gamma_now() -> float:
            added = len(parity_members) / UNPIPELINED_GROUP_SIZE
            return gamma_fixed * (1.0 + added / max(1, total))

        def improvements() -> tuple[float, float]:
            gamma = gamma_now()
            sdc = baseline_sdc / max(sum_sdc, baseline_sdc * RESIDUAL_FLOOR_FRACTION) / gamma
            due = baseline_due / max(sum_due, baseline_due * RESIDUAL_FLOOR_FRACTION) / gamma
            return sdc, due

        achieved_sdc, achieved_due = improvements()
        protected = 0
        for flat_index in ranking:
            if target.satisfied_by(achieved_sdc, achieved_due):
                break
            if residual_sdc[flat_index] <= 0 and residual_due[flat_index] <= 0 \
                    and (target.sdc or 0) != float("inf") and (target.due or 0) != float("inf"):
                continue
            choice = choose_technique(flat_index, self.registry, self.timing, recovery, policy)
            unit = self.registry.site(flat_index).structure.unit
            recoverable = recovery is not RecoveryKind.NONE and unit not in unrecoverable
            if choice is LowLevelChoice.LEAP_DICE:
                hardened[flat_index] = policy.hardening_cell
                sum_sdc -= residual_sdc[flat_index] * suppression
                sum_due -= residual_due[flat_index] * suppression
                residual_sdc[flat_index] *= 1.0 - suppression
                residual_due[flat_index] *= 1.0 - suppression
            else:
                if choice is LowLevelChoice.PARITY:
                    parity_members.append(flat_index)
                else:
                    eds_members.add(flat_index)
                if recoverable:
                    sum_sdc -= residual_sdc[flat_index]
                    sum_due -= residual_due[flat_index]
                    residual_sdc[flat_index] = 0.0
                    residual_due[flat_index] = 0.0
                else:
                    # Detection without recovery: SDC becomes detected (DUE).
                    sum_due += residual_sdc[flat_index]
                    sum_sdc -= residual_sdc[flat_index]
                    residual_due[flat_index] += residual_sdc[flat_index]
                    residual_sdc[flat_index] = 0.0
            protected += 1
            achieved_sdc, achieved_due = improvements()

        design = materialise_design(self.registry, self.timing, self.vulnerability,
                                    hardened, parity_members, eds_members, recovery,
                                    high_level, label)
        return SelectiveHardeningResult(design=design, protected_count=protected,
                                        achieved_sdc=achieved_sdc,
                                        achieved_due=achieved_due)
