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
Everything a schedule needs is computed on first use and memoised on the
planner, at the coarsest key it depends on:

* the vulnerability profile (the map's dense per-site probabilities, their
  sums and the ranking), once per planner;
* the per-site Heuristic-1 inputs -- each flip-flop's functional unit and
  whether it has the slack for a 32-bit parity tree -- once per planner
  (:meth:`SelectiveHardeningPlanner.site_tables`, and as arrays with the
  ranking in :meth:`SelectiveHardeningPlanner.site_arrays`);
* Heuristic 1 itself, once per *choice context* (the policy's allowed
  techniques, whether recovery is attached, the units it cannot recover):
  the choice and recoverability of every ranked site.  The 586-combination
  sweep has 17 contexts on the in-order and 18 on the out-of-order core,
  against 368 and 152 schedules;
* post-high-level residuals (float64 arrays), their left-to-right sums and
  their zero mask, once per (technique set, recovery present);
* one :class:`~repro.core.schedule.StepTable` per (choice context, zero
  mask), which every schedule on it shares: the effective walk, its
  cumulative membership counts and the protect-everything cost membership.

Non-tunable combinations read the same cached residuals through
:meth:`SelectiveHardeningPlanner.high_level_improvement`.  The legacy
per-target loop survives as
:meth:`SelectiveHardeningPlanner.plan_replanning` -- the reference that
schedules are property-tested to match bit-for-bit; it still resolves each
site through :func:`choose_technique`, so it also checks the tables.  Float
totals go through :func:`~repro.faultinjection.vulnerability.ordered_sum`,
so the numbers do not depend on the Python version.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.core.improvement import ResilienceTarget
from repro.core.schedule import (
    HARDENING_SUPPRESSION,
    LowLevelChoice,
    ProtectionSchedule,
    SelectiveHardeningResult,
    StepTable,
    materialise_design,
)
from repro.faultinjection.vulnerability import VulnerabilityMap, ordered_sum
from repro.microarch.flipflop import FlipFlopRegistry
from repro.physical.cells import CellType, RecoveryKind, recovery_cost
from repro.physical.timing import TimingModel
from repro.resilience.base import TechniqueDescriptor, core_family
from repro.resilience.design import (
    HARDWARE_RECOVERY_LATENCY_LIMIT,
    RECOVERY_GAMMA,
    residual_floor,
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


class Residuals(NamedTuple):
    """Per-site residuals after one high-level technique set (planner cache).

    ``sdc``/``due`` are float64 arrays indexed by flip-flop,
    ``total_sdc``/``total_due`` their left-to-right sums and ``zero`` the
    boolean array of sites whose residuals are both zero (the sites finite
    targets skip).
    """

    sdc: np.ndarray
    due: np.ndarray
    total_sdc: float
    total_due: float
    zero: np.ndarray


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
    profile, the per-site Heuristic-1 tables, the per-context choices,
    post-high-level residuals, step tables and full protection schedules
    are all computed once, on first use, and memoised on the instance.
    """

    def __init__(self, registry: FlipFlopRegistry, vulnerability: VulnerabilityMap,
                 timing: TimingModel, benchmarks: list[str] | None = None):
        self.registry = registry
        self.vulnerability = vulnerability
        self.timing = timing
        self.benchmarks = benchmarks
        self._family = core_family(registry.core_name)
        self._profile: tuple[np.ndarray, np.ndarray, float, float,
                             list[int]] | None = None
        self._site_tables: tuple[list[str], list[bool]] | None = None
        self._site_arrays: tuple[np.ndarray, np.ndarray, np.ndarray,
                                 list[str]] | None = None
        self._residual_cache: dict[tuple, Residuals] = {}
        self._choice_cache: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        self._table_cache: dict[tuple, StepTable] = {}
        self._schedule_cache: dict[tuple, ProtectionSchedule] = {}

    # ------------------------------------------------------------------ cached inputs
    def profile(self) -> tuple[np.ndarray, np.ndarray, float, float, list[int]]:
        """Per-site (p_sdc, p_due), baselines and the vulnerability ranking.

        Depends only on the vulnerability map and benchmark list, both fixed
        at construction, so it is computed exactly once per planner.  The
        probabilities are read-only float64 arrays.
        """
        if self._profile is None:
            total = self.registry.total_flip_flops
            p_sdc, p_due = self.vulnerability.probabilities(self.benchmarks)
            baseline_sdc = ordered_sum(p_sdc) or 1e-12
            baseline_due = ordered_sum(p_due) or 1e-12
            ranking = sorted(range(total), key=lambda i: (-(p_sdc[i] + p_due[i]), i))
            p_sdc = np.array(p_sdc, dtype=np.float64)
            p_due = np.array(p_due, dtype=np.float64)
            p_sdc.flags.writeable = p_due.flags.writeable = False
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

    def site_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str]]:
        """The ranking, per-site unit ids and parity slack as arrays.

        What the step tables read: the ranking of :meth:`profile`, each
        flip-flop's functional unit as an index into the returned unit
        names (numbered in first-appearance order) and the slack flags of
        :meth:`site_tables`; built once per planner.
        """
        if self._site_arrays is None:
            units, has_slack = self.site_tables()
            ids: dict[str, int] = {}
            unit_ids = [ids.setdefault(unit, len(ids)) for unit in units]
            self._site_arrays = (np.asarray(self.profile()[4], dtype=np.intp),
                                 np.asarray(unit_ids, dtype=np.intp),
                                 np.asarray(has_slack, dtype=bool), list(ids))
        return self._site_arrays

    def _residuals(self, high_level: list[TechniqueDescriptor],
                   recovery: RecoveryKind) -> Residuals:
        """Per-site residuals after the high-level techniques (cached).

        The residuals depend on the ordered technique list and on *whether*
        hardware recovery is present (its latency gate), not on which
        mechanism it is -- so IR/EIR/flush variants of one technique set
        share an entry.  Each technique applies the legacy loop's per-site
        operations elementwise; the entry also carries the residuals'
        left-to-right sums and their zero mask.
        """
        key = (tuple(descriptor_key(t) for t in high_level),
               recovery is not RecoveryKind.NONE)
        cached = self._residual_cache.get(key)
        if cached is not None:
            return cached
        residual_sdc, residual_due, _, _, _ = self.profile()
        for technique in high_level:
            coverage = technique.coverage
            if coverage is None:
                continue
            recovered = (coverage.corrects
                         or (recovery is not RecoveryKind.NONE
                             and coverage.detection_latency_cycles
                             <= HARDWARE_RECOVERY_LATENCY_LIMIT))
            sdc_detection = coverage.overall_sdc_detection
            due_detection = coverage.overall_due_detection
            detected_sdc = residual_sdc * sdc_detection
            if recovered:
                residual_due = residual_due - residual_due * due_detection
            else:
                residual_due = residual_due + detected_sdc
            residual_sdc = residual_sdc - detected_sdc
        residual_sdc.flags.writeable = residual_due.flags.writeable = False
        result = Residuals(residual_sdc, residual_due, ordered_sum(residual_sdc.tolist()),
                           ordered_sum(residual_due.tolist()),
                           (residual_sdc <= 0) & (residual_due <= 0))
        self._residual_cache[key] = result
        return result

    def _choices(self, policy: SelectionPolicy, recovery: RecoveryKind,
                 ) -> tuple[tuple, np.ndarray, np.ndarray]:
        """Heuristic-1 choice and recoverability of every ranked site (cached).

        Both depend only on the *choice context* -- the policy's allowed
        techniques, whether recovery is attached and the units it cannot
        recover -- which is returned as the cache key.  Heuristic 1 runs
        once per (unit, slack) pair; the ranked sites index the result.
        Choices are indices into ``tuple(LowLevelChoice)``.
        """
        unrecoverable = recovery_cost(self.registry.core_name,
                                      recovery).unrecoverable_units
        has_recovery = recovery is not RecoveryKind.NONE
        key = (policy.allow_hardening, policy.allow_parity, policy.allow_eds,
               has_recovery, unrecoverable)
        cached = self._choice_cache.get(key)
        if cached is None:
            ranking, units, has_slack, names = self.site_arrays()
            order = tuple(LowLevelChoice)
            choice_of = np.array(
                [[order.index(_choose_in_context(name, slack, policy, has_recovery,
                                                 unrecoverable))
                  for slack in (False, True)] for name in names], dtype=np.int8)
            covered = np.array([has_recovery and name not in unrecoverable
                                for name in names], dtype=bool)
            ranked_units = units[ranking]
            cached = (choice_of[ranked_units, has_slack[ranking].astype(np.intp)],
                      covered[ranked_units])
            self._choice_cache[key] = cached
        return key, *cached

    def _gamma_fixed(self, high_level: list[TechniqueDescriptor],
                     recovery: RecoveryKind) -> float:
        gamma_fixed = 1.0
        for technique in high_level:
            gamma_fixed *= technique.gamma(self._family).factor
        gamma_fixed *= 1.0 + RECOVERY_GAMMA[self._family].get(recovery, 0.0)
        return gamma_fixed

    def high_level_improvement(self, high_level: list[TechniqueDescriptor],
                               recovery: RecoveryKind) -> tuple[float, float]:
        """Eq. 1 (SDC, DUE) improvements with no flip-flop protected.

        Bit-identical to ``ProtectedDesign.estimate_improvement`` of a design
        holding only ``high_level`` and ``recovery``: its per-site residuals
        are the cached :meth:`_residuals` (same operations in the same
        order), its totals accumulate them and the map's probabilities left
        to right from ``0.0`` (the entry without techniques), and its γ is
        :meth:`_gamma_fixed` (no parity groups).
        """
        baseline = self._residuals([], recovery)
        residuals = self._residuals(high_level, recovery)
        gamma = self._gamma_fixed(high_level, recovery)
        floor_sdc = residual_floor(baseline.total_sdc)
        floor_due = residual_floor(baseline.total_due)
        sdc = (baseline.total_sdc / max(residuals.total_sdc, floor_sdc) / gamma
               if baseline.total_sdc > 0 else 1.0)
        due = (baseline.total_due / max(residuals.total_due, floor_due) / gamma
               if baseline.total_due > 0 else 1.0)
        return sdc, due

    # ------------------------------------------------------------------ schedules
    def schedule_for(self, recovery: RecoveryKind = RecoveryKind.NONE,
                     policy: SelectionPolicy | None = None,
                     high_level: list[TechniqueDescriptor] | None = None,
                     ) -> ProtectionSchedule:
        """The (cached) full prefix schedule for one planning context.

        Its step table is shared with every schedule of the same choice
        context and zero-residual mask.
        """
        policy = policy or SelectionPolicy()
        high_level = list(high_level or [])
        key = (policy.cache_key(), recovery,
               tuple(descriptor_key(t) for t in high_level))
        cached = self._schedule_cache.get(key)
        if cached is not None:
            return cached
        _, _, baseline_sdc, baseline_due, _ = self.profile()
        residuals = self._residuals(high_level, recovery)
        context, choices, recoverable = self._choices(policy, recovery)
        table_key = (context, residuals.zero.tobytes())
        table = self._table_cache.get(table_key)
        if table is None:
            ranking, units, has_slack, _ = self.site_arrays()
            table = StepTable(ranking, choices, recoverable, residuals.zero,
                              units, has_slack, max(1, self.registry.total_flip_flops))
            self._table_cache[table_key] = table
        schedule = ProtectionSchedule(
            registry=self.registry, timing=self.timing,
            vulnerability=self.vulnerability, table=table, recovery=recovery,
            hardening_cell=policy.hardening_cell, high_level=high_level,
            residual_sdc=residuals.sdc, residual_due=residuals.due,
            total_sdc=residuals.total_sdc, total_due=residuals.total_due,
            baseline_sdc=baseline_sdc, baseline_due=baseline_due,
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
        baseline_sdc = ordered_sum(p_sdc) or 1e-12
        baseline_due = ordered_sum(p_due) or 1e-12

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

        sum_sdc = ordered_sum(residual_sdc)
        sum_due = ordered_sum(residual_due)
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
            sdc = baseline_sdc / max(sum_sdc, residual_floor(baseline_sdc)) / gamma
            due = baseline_due / max(sum_due, residual_floor(baseline_due)) / gamma
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
