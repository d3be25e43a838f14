"""Incremental protection schedules (one-pass Fig. 7 planning).

The selective-hardening loop of Fig. 7 is deterministic given the selection
policy, the recovery mechanism and the high-level technique set: the target
only decides *where the walk down the vulnerability ranking stops*.  A
:class:`ProtectionSchedule` therefore records the whole walk once -- the
Heuristic-1 choice per flip-flop plus the cumulative SDC/DUE improvement
curves (Eq. 1, including the evolving parity-γ) -- and answers any target by
locating its first crossing on the curve: O(ffs) once per schedule plus
O(log ffs) per target, instead of O(ffs) per (combination, target) pair.

Cost is answered the same way: :meth:`ProtectionSchedule.plan_costed` reads
energy/area/execution-time for a prefix from incremental cost curves
(memoised per cost model, bit-identical to materialising the design and
costing it), so streaming sweeps never rebuild parity plans per target.

Bit-exactness with per-target replanning
(:meth:`repro.core.heuristics.SelectiveHardeningPlanner.plan_replanning`) is
guaranteed by construction and property-tested:

* the walk applies the exact arithmetic sequence of the legacy loop (zero-
  residual sites contribute bitwise no-ops, so one pass serves both the
  finite-target path, which skips them, and the protect-everything path,
  which does not);
* a target's stopping point is its *first* crossing of the improvement
  curve.  The curve need not be monotone (parity-γ and detection-to-DUE
  conversion can lower it), but any first crossing of a single-metric
  threshold is a strict running maximum, so single-metric targets bisect the
  record subsequence; joint targets scan forward from the later of their two
  single-metric crossings.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum, unique

from repro.core.improvement import ResilienceTarget
from repro.faultinjection.vulnerability import VulnerabilityMap
from repro.microarch.flipflop import FlipFlopRegistry
from repro.physical.cells import CellType, RecoveryKind
from repro.physical.costmodel import CostReport, DesignCostModel, ParityGroupPlan
from repro.physical.timing import TimingModel
from repro.resilience.base import TechniqueDescriptor, core_family
from repro.resilience.circuit import HardeningPlan
from repro.resilience.design import ProtectedDesign, RESIDUAL_FLOOR_FRACTION
from repro.resilience.logic_parity import (
    ParityHeuristic,
    ParityPlanner,
    PIPELINED_GROUP_SIZE,
    UNPIPELINED_GROUP_SIZE,
)

#: LEAP-DICE-class residual soft-error rate (Table 4), as a suppression
#: probability.  Shared with the legacy replanning loop.
HARDENING_SUPPRESSION = 1.0 - 2.0e-4


@unique
class LowLevelChoice(Enum):
    """Technique choices Heuristic 1 can make for a single flip-flop."""

    LEAP_DICE = "leap-dice"
    PARITY = "parity"
    EDS = "eds"


@dataclass
class SelectiveHardeningResult:
    """Output of the Fig. 7 selective-protection loop."""

    design: ProtectedDesign
    protected_count: int
    achieved_sdc: float
    achieved_due: float


@dataclass(frozen=True)
class CostedPlan:
    """One target answered from the improvement *and* cost curves.

    Carries everything streaming exploration needs -- achieved improvements
    plus the exact :class:`CostReport` of the prefix design -- without ever
    materialising the :class:`ProtectedDesign` itself.
    """

    protected_count: int
    achieved_sdc: float
    achieved_due: float
    cost: CostReport


@dataclass(frozen=True, slots=True)
class ScheduleStep:
    """One flip-flop's slot in the vulnerability-ranked protection walk.

    Attributes:
        flat_index: the flip-flop.
        choice: the Heuristic-1 technique choice (policy- and recovery-
            dependent, but target-independent).
        recoverable: whether the schedule's recovery mechanism covers this
            flip-flop's unit (decides detection semantics).
        zero_residual: True when the site's post-high-level SDC and DUE
            residuals are both zero; finite targets skip such sites, the
            protect-everything walk does not.
    """

    flat_index: int
    choice: LowLevelChoice
    recoverable: bool
    zero_residual: bool


def materialise_design(registry: FlipFlopRegistry, timing: TimingModel,
                       vulnerability: VulnerabilityMap,
                       hardened: dict[int, CellType], parity_members: list[int],
                       eds_members: set[int], recovery: RecoveryKind,
                       high_level: list[TechniqueDescriptor],
                       label: str) -> ProtectedDesign:
    """Turn selected memberships into a :class:`ProtectedDesign` (Fig. 3 parity)."""
    planner = ParityPlanner(registry, timing, vulnerability)
    groups = planner.build_groups(parity_members, ParityHeuristic.OPTIMIZED)
    plan = HardeningPlan(assignments=dict(hardened))
    return ProtectedDesign(registry=registry, hardening=plan, parity_groups=groups,
                           eds_flip_flops=set(eds_members), recovery=recovery,
                           high_level=high_level, label=label)


def _first_index_at_least(record_values: list[float], record_indices: list[int],
                          threshold: float) -> int | None:
    """First curve index whose value reaches ``threshold`` (record bisection)."""
    position = bisect_left(record_values, threshold)
    if position == len(record_values):
        return None
    return record_indices[position]


class ProtectionSchedule:
    """The full prefix schedule for one (policy, recovery, high-level) context.

    Built once by :meth:`SelectiveHardeningPlanner.schedule_for`; answers
    every resilience target through :meth:`plan` without replanning.
    ``units``/``has_slack`` are the planner's per-site Heuristic-1 tables
    (functional unit, 32-bit parity slack), shared by all its schedules.
    """

    def __init__(self, registry: FlipFlopRegistry, timing: TimingModel,
                 vulnerability: VulnerabilityMap, units: list[str],
                 has_slack: list[bool], recovery: RecoveryKind,
                 hardening_cell: CellType,
                 high_level: list[TechniqueDescriptor],
                 steps: list[ScheduleStep],
                 residual_sdc: list[float], residual_due: list[float],
                 baseline_sdc: float, baseline_due: float, gamma_fixed: float):
        self.registry = registry
        self.timing = timing
        self.vulnerability = vulnerability
        self._units = units
        self._has_slack = has_slack
        self.recovery = recovery
        self.hardening_cell = hardening_cell
        self.high_level = high_level
        self.steps = steps
        self._baseline_sdc = baseline_sdc
        self._baseline_due = baseline_due
        self._gamma_fixed = gamma_fixed
        # One (cost model, {prefix or "full" -> CostReport}) memo entry:
        # schedules live inside a planner that serves one explorer with one
        # cost model, so a single identity-checked slot memoises the whole
        # sweep without pinning every model ever passed.
        self._cost_curve_entry: tuple[DesignCostModel, dict] | None = None
        self._walk(residual_sdc, residual_due)
        self._build_records()

    # ------------------------------------------------------------------ construction
    def _walk(self, residual_sdc: list[float], residual_due: list[float]) -> None:
        """One pass down the ranking, recording both stopping-rule curves.

        Zero-residual sites change the sums by exact floating-point no-ops,
        so a single pass yields bitwise-identical curves for the finite-
        target walk (which skips them) and the protect-everything walk
        (which visits them, growing the parity count).

        Improvements follow Eq. 1 with the exact arithmetic of the legacy
        loop; only its loop-invariant terms (the residual floors and the
        flip-flop count) are hoisted.
        """
        baseline_sdc = self._baseline_sdc
        baseline_due = self._baseline_due
        floor_sdc = baseline_sdc * RESIDUAL_FLOOR_FRACTION
        floor_due = baseline_due * RESIDUAL_FLOOR_FRACTION
        gamma_fixed = self._gamma_fixed
        total = max(1, self.registry.total_flip_flops)

        def improvements(parity_count: int, sum_sdc: float,
                         sum_due: float) -> tuple[float, float]:
            gamma = gamma_fixed * (1.0 + parity_count / UNPIPELINED_GROUP_SIZE / total)
            return (baseline_sdc / max(sum_sdc, floor_sdc) / gamma,
                    baseline_due / max(sum_due, floor_due) / gamma)

        sum_sdc = sum(residual_sdc)
        sum_due = sum(residual_due)
        parity_finite = 0
        parity_full = 0
        effective: list[ScheduleStep] = []
        start = improvements(0, sum_sdc, sum_due)
        curve_sdc = [start[0]]
        curve_due = [start[1]]
        # Cumulative membership counts accumulated alongside the improvement
        # curves: the cost curves read prefix membership from these instead
        # of re-scanning the walk per target.
        cum_hardened = [0]
        cum_eds = [0]
        hardened = 0
        eds = 0
        parity_prefix_ends: list[int] = []   # prefix length that admits member i
        parity_flats: list[int] = []
        leap_dice = LowLevelChoice.LEAP_DICE
        parity = LowLevelChoice.PARITY
        for step in self.steps:
            flat_index = step.flat_index
            choice = step.choice
            site_sdc = residual_sdc[flat_index]
            site_due = residual_due[flat_index]
            if choice is leap_dice:
                sum_sdc -= site_sdc * HARDENING_SUPPRESSION
                sum_due -= site_due * HARDENING_SUPPRESSION
            else:
                if choice is parity:
                    parity_full += 1
                if step.recoverable:
                    sum_sdc -= site_sdc
                    sum_due -= site_due
                else:
                    # Detection without recovery: SDC becomes detected (DUE).
                    sum_due += site_sdc
                    sum_sdc -= site_sdc
            if not step.zero_residual:
                effective.append(step)
                if choice is leap_dice:
                    hardened += 1
                elif choice is parity:
                    parity_finite += 1
                    parity_prefix_ends.append(len(effective))
                    parity_flats.append(flat_index)
                else:
                    eds += 1
                cum_hardened.append(hardened)
                cum_eds.append(eds)
                achieved = improvements(parity_finite, sum_sdc, sum_due)
                curve_sdc.append(achieved[0])
                curve_due.append(achieved[1])
        self._effective = effective
        self._curve_sdc = curve_sdc
        self._curve_due = curve_due
        self._cum_hardened = cum_hardened
        self._cum_eds = cum_eds
        self._parity_prefix_ends = parity_prefix_ends
        self._parity_flats = parity_flats
        self._full_achieved = improvements(parity_full, sum_sdc, sum_due)

    def _build_records(self) -> None:
        """Strict-running-maximum subsequences enabling first-crossing bisection."""
        self._sdc_record_values: list[float] = []
        self._sdc_record_indices: list[int] = []
        self._due_record_values: list[float] = []
        self._due_record_indices: list[int] = []
        best_sdc = best_due = float("-inf")
        for index, (sdc, due) in enumerate(zip(self._curve_sdc, self._curve_due)):
            if sdc > best_sdc:
                best_sdc = sdc
                self._sdc_record_values.append(sdc)
                self._sdc_record_indices.append(index)
            if due > best_due:
                best_due = due
                self._due_record_values.append(due)
                self._due_record_indices.append(index)

    # ------------------------------------------------------------------ queries
    @property
    def effective_length(self) -> int:
        """Number of walk steps finite targets can take (zero sites excluded)."""
        return len(self._effective)

    def improvement_curve(self) -> list[tuple[int, float, float]]:
        """The (protected count, SDC, DUE) improvement curve for finite targets."""
        return [(k, self._curve_sdc[k], self._curve_due[k])
                for k in range(len(self._curve_sdc))]

    def prefix_for(self, target: ResilienceTarget) -> int:
        """Smallest finite-walk prefix length meeting ``target``.

        Falls back to the full effective walk when the target is never met,
        matching the legacy loop's exhaustion behaviour.  Callers must route
        protect-everything ("max") targets through :meth:`plan` instead.
        """
        length = len(self._effective)
        first_sdc = 0 if target.sdc is None else _first_index_at_least(
            self._sdc_record_values, self._sdc_record_indices, target.sdc)
        first_due = 0 if target.due is None else _first_index_at_least(
            self._due_record_values, self._due_record_indices, target.due)
        if first_sdc is None or first_due is None:
            return length
        if target.sdc is None or target.due is None:
            return max(first_sdc, first_due)
        # Joint target: satisfaction is not monotone along the walk, so scan
        # forward from the later single-metric crossing (a valid lower bound).
        for k in range(max(first_sdc, first_due), length + 1):
            if target.satisfied_by(self._curve_sdc[k], self._curve_due[k]):
                return k
        return length

    @staticmethod
    def _protects_everything(target: ResilienceTarget) -> bool:
        return ((target.sdc or 0) == float("inf")
                or (target.due or 0) == float("inf"))

    # ------------------------------------------------------------------ planning
    def _membership(self, steps: list[ScheduleStep],
                    ) -> tuple[dict[int, CellType], list[int], set[int]]:
        hardened: dict[int, CellType] = {}
        parity_members: list[int] = []
        eds_members: set[int] = set()
        for step in steps:
            if step.choice is LowLevelChoice.LEAP_DICE:
                hardened[step.flat_index] = self.hardening_cell
            elif step.choice is LowLevelChoice.PARITY:
                parity_members.append(step.flat_index)
            else:
                eds_members.add(step.flat_index)
        return hardened, parity_members, eds_members

    def plan(self, target: ResilienceTarget, label: str = "") -> SelectiveHardeningResult:
        """Answer one target from the precomputed schedule (no replanning)."""
        if self._protects_everything(target):
            selected = self.steps
            protected = len(self.steps)
            achieved_sdc, achieved_due = self._full_achieved
        else:
            prefix = self.prefix_for(target)
            selected = self._effective[:prefix]
            protected = prefix
            achieved_sdc = self._curve_sdc[prefix]
            achieved_due = self._curve_due[prefix]
        hardened, parity_members, eds_members = self._membership(selected)
        design = materialise_design(self.registry, self.timing, self.vulnerability,
                                    hardened, parity_members, eds_members,
                                    self.recovery, list(self.high_level), label)
        return SelectiveHardeningResult(design=design, protected_count=protected,
                                        achieved_sdc=achieved_sdc,
                                        achieved_due=achieved_due)

    # ------------------------------------------------------------------ cost curves
    #
    # The walk's membership at any prefix determines its physical cost, and
    # the cost computation factors through counts alone: hardened cells and
    # EDS cost linearly in their counts, and the Fig. 3 "optimized" parity
    # grouping produces group *sizes* that depend only on how many members
    # each (functional unit, slack class) bucket holds.  The helpers below
    # recompute `ProtectedDesign.cost` term for term from that membership --
    # same conditionals, same combine order, same per-group arithmetic -- so
    # the answers are bit-identical to materialising the design, at
    # O(prefix + groups) per (memoised) prefix instead of a full
    # materialise + cost per target.

    def _classify_parity(self, flat_indices: list[int]) -> tuple[list, list]:
        """Split parity members into (flat index, unit) slack-class buckets."""
        slack_members: list[tuple[int, str]] = []
        pipelined_members: list[tuple[int, str]] = []
        units = self._units
        has_slack = self._has_slack
        for flat_index in flat_indices:
            bucket = slack_members if has_slack[flat_index] else pipelined_members
            bucket.append((flat_index, units[flat_index]))
        return slack_members, pipelined_members

    def _cost_membership(self, steps: list[ScheduleStep],
                         ) -> tuple[int, int, list, list]:
        """Counts and parity (flat index, unit) pairs of one step sequence."""
        hardened = 0
        eds = 0
        parity_flats: list[int] = []
        for step in steps:
            if step.choice is LowLevelChoice.LEAP_DICE:
                hardened += 1
            elif step.choice is LowLevelChoice.PARITY:
                parity_flats.append(step.flat_index)
            else:
                eds += 1
        slack_members, pipelined_members = self._classify_parity(parity_flats)
        return hardened, eds, slack_members, pipelined_members

    @staticmethod
    def _bucket_group_sizes(members: list[tuple[int, str]],
                            group_size: int) -> list[int]:
        """Group sizes of one slack class, in the planner's canonical order.

        Mirrors ``ParityPlanner._locality_groups``: members sorted by flat
        index, units in first-appearance order, each unit chunked into full
        groups plus one remainder.
        """
        by_unit: dict[str, int] = {}
        for _, unit in sorted(members):
            by_unit[unit] = by_unit.get(unit, 0) + 1
        sizes: list[int] = []
        for count in by_unit.values():
            sizes.extend([group_size] * (count // group_size))
            if count % group_size:
                sizes.append(count % group_size)
        return sizes

    def _parity_plans(self, slack_members: list, pipelined_members: list,
                      ) -> list[ParityGroupPlan]:
        """The optimized-heuristic group plan (sizes are all the model reads)."""
        plans = [ParityGroupPlan(members=(0,) * size, pipelined=False, local=True)
                 for size in self._bucket_group_sizes(slack_members,
                                                      UNPIPELINED_GROUP_SIZE)]
        plans.extend(ParityGroupPlan(members=(0,) * size, pipelined=True, local=True)
                     for size in self._bucket_group_sizes(pipelined_members,
                                                          PIPELINED_GROUP_SIZE))
        return plans

    def _cost_of_membership(self, cost_model: DesignCostModel, hardened: int,
                            eds: int, slack_members: list,
                            pipelined_members: list) -> CostReport:
        report = CostReport()
        if hardened and self.hardening_cell is not CellType.BASELINE:
            report = report.combined_with(
                cost_model.hardened_cells_cost({self.hardening_cell: hardened}))
        plans = self._parity_plans(slack_members, pipelined_members)
        if plans:
            report = report.combined_with(cost_model.parity_cost(plans))
        if eds:
            report = report.combined_with(cost_model.eds_cost(eds))
        if self.recovery is not RecoveryKind.NONE:
            report = report.combined_with(cost_model.recovery_report(self.recovery))
        family = core_family(self.registry.core_name)
        for technique in self.high_level:
            costs = technique.costs(family)
            report = report.combined_with(cost_model.fixed_overhead(
                costs.area_pct, costs.power_pct, costs.exec_time_pct))
        return report

    def _cost_memo(self, cost_model: DesignCostModel) -> dict:
        entry = self._cost_curve_entry
        if entry is None or entry[0] is not cost_model:
            entry = (cost_model, {})
            self._cost_curve_entry = entry
        return entry[1]

    def cost_at(self, prefix: int, cost_model: DesignCostModel) -> CostReport:
        """Exact cost of the finite-walk prefix design (no materialisation).

        Membership comes straight from the cumulative counts recorded during
        the walk -- O(parity members + groups) per uncached prefix.
        """
        memo = self._cost_memo(cost_model)
        report = memo.get(prefix)
        if report is None:
            parity_count = bisect_right(self._parity_prefix_ends, prefix)
            slack_members, pipelined_members = self._classify_parity(
                self._parity_flats[:parity_count])
            report = self._cost_of_membership(
                cost_model, self._cum_hardened[prefix], self._cum_eds[prefix],
                slack_members, pipelined_members)
            memo[prefix] = report
        return report

    def full_cost(self, cost_model: DesignCostModel) -> CostReport:
        """Exact cost of the protect-everything walk (no materialisation)."""
        memo = self._cost_memo(cost_model)
        report = memo.get("full")
        if report is None:
            report = self._cost_of_membership(
                cost_model, *self._cost_membership(self.steps))
            memo["full"] = report
        return report

    def cost_curve(self, cost_model: DesignCostModel,
                   ) -> list[tuple[int, CostReport]]:
        """The cumulative (protected count, cost) curve of the finite walk.

        The companion of :meth:`improvement_curve`: index ``k`` costs the
        same design whose improvements sit at curve index ``k``.
        """
        return [(k, self.cost_at(k, cost_model))
                for k in range(self.effective_length + 1)]

    def plan_costed(self, target: ResilienceTarget,
                    cost_model: DesignCostModel) -> CostedPlan:
        """Answer one target with improvements and cost from the curves.

        Bit-identical to ``plan(target).design.cost(cost_model)`` but never
        builds the design -- this is what lets frontier sweeps and the pruned
        cheapest search evaluate thousands of (combination, target) pairs
        while materialising only the designs a caller actually asks for.
        """
        if self._protects_everything(target):
            return CostedPlan(protected_count=len(self.steps),
                              achieved_sdc=self._full_achieved[0],
                              achieved_due=self._full_achieved[1],
                              cost=self.full_cost(cost_model))
        prefix = self.prefix_for(target)
        return CostedPlan(protected_count=prefix,
                          achieved_sdc=self._curve_sdc[prefix],
                          achieved_due=self._curve_due[prefix],
                          cost=self.cost_at(prefix, cost_model))
