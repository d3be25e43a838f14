"""Incremental protection schedules (one-pass Fig. 7 planning).

The selective-hardening loop of Fig. 7 is deterministic given the selection
policy, the recovery mechanism and the high-level technique set: the target
only decides *where the walk down the vulnerability ranking stops*.  A
:class:`ProtectionSchedule` therefore records the whole walk once -- the
cumulative SDC/DUE improvement curves (Eq. 1, including the evolving
parity-γ) -- and answers any target by locating its first crossing on the
curve: O(ffs) once per schedule plus O(log ffs) per target, instead of
O(ffs) per (combination, target) pair.

Most of a walk does not even depend on the schedule.  Heuristic 1's choice
for a flip-flop depends only on its *choice context* (the policy's allowed
techniques, whether recovery is attached and which units it cannot
recover), and whether finite targets skip it only on its post-high-level
residuals being zero.  A :class:`StepTable` holds everything that follows
from one context and one zero-residual mask alone: the ranked steps, the
cumulative membership counts, the parity-γ factor of every prefix and the
protect-everything membership.  The planner builds one table per (context,
mask) -- 17 on the in-order and 18 on the out-of-order core, against 368
and 152 schedules in the 586-combination sweep -- and every schedule on it
shares the table; a schedule's own walk is one pass over the table's
effective sites with its residuals and fixed γ.

Cost is answered the same way: :meth:`ProtectionSchedule.plan_costed` reads
energy/area/execution-time for a prefix from incremental cost curves
(memoised per cost model, bit-identical to materialising the design and
costing it), so streaming sweeps never rebuild parity plans per target.
The membership a prefix's cost reads (hardened and EDS counts, parity group
sizes) is memoised on the shared table.

Bit-exactness with per-target replanning
(:meth:`repro.core.heuristics.SelectiveHardeningPlanner.plan_replanning`) is
guaranteed by construction and property-tested:

* the walk applies the exact arithmetic sequence of the legacy loop.
  Residuals are never negative, so a zero-residual site has both residuals
  ``+0.0`` and would change the sums by exact floating-point no-ops: the
  walk visits only the other sites, and the protect-everything answer
  differs from the end of the finite walk only in its parity count (every
  parity choice of the context);
* a target's stopping point is its *first* crossing of the improvement
  curve.  The curve need not be monotone (parity-γ and detection-to-DUE
  conversion can lower it), but any first crossing of a single-metric
  threshold is a strict running maximum, so single-metric targets bisect the
  record subsequence; joint targets scan forward from the later of their two
  single-metric crossings.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from enum import Enum, unique
from functools import cached_property

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


#: Membership a design's cost reads: hardened count, EDS count and the
#: optimized-heuristic parity group plan (group sizes are all the cost model
#: reads of it).
Membership = tuple[int, int, tuple[ParityGroupPlan, ...]]


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


def _bucket_group_sizes(units: list[str], group_size: int) -> list[int]:
    """Group sizes of one slack class, in the planner's canonical order.

    ``units`` holds the class members' functional units in flat-index order.
    Mirrors ``ParityPlanner._locality_groups``: units in first-appearance
    order (a :class:`Counter` keeps insertion order), each unit chunked into
    full groups plus one remainder.
    """
    sizes: list[int] = []
    for count in Counter(units).values():
        sizes.extend([group_size] * (count // group_size))
        if count % group_size:
            sizes.append(count % group_size)
    return sizes


class StepTable:
    """The ranked Heuristic-1 walk of one choice context over one zero mask.

    Built by :meth:`SelectiveHardeningPlanner.schedule_for` from the
    vulnerability ranking, the context's per-site choices and
    recoverability (in ranking order) and the residual key's zero mask
    (indexed by flip-flop); shared by every schedule with that context and
    mask, which only read it.

    The effective walk -- the sites finite targets visit -- is stored as
    parallel sequences the schedules' walks iterate: ``flats``, ``hardens``
    (the choice is LEAP-DICE), ``recovers`` (detection the recovery
    covers) and ``gamma_factors`` (the parity-γ factor
    ``1 + parity / UNPIPELINED_GROUP_SIZE / total`` of every prefix).  The
    :class:`ScheduleStep` objects themselves are built only when asked for.
    """

    def __init__(self, ranking: list[int], choices: tuple[LowLevelChoice, ...],
                 recoverable: tuple[bool, ...], zero: tuple[bool, ...],
                 units: list[str], has_slack: list[bool], total: int):
        self._ranking = ranking
        self._choices = choices
        self._recoverable = recoverable
        self._zero = zero
        self._units = units
        self._has_slack = has_slack
        self.site_count = len(ranking)
        # The protect-everything walk's parity-γ factor: every parity choice.
        self.full_gamma_factor = (1.0 + choices.count(LowLevelChoice.PARITY)
                                  / UNPIPELINED_GROUP_SIZE / total)
        leap_dice = LowLevelChoice.LEAP_DICE
        parity = LowLevelChoice.PARITY
        flats: list[int] = []
        hardens: list[bool] = []
        recovers: list[bool] = []
        gamma_factors = [1.0 + 0 / UNPIPELINED_GROUP_SIZE / total]
        # Cumulative membership counts per effective prefix: the cost curves
        # read prefix membership from these instead of re-scanning the walk.
        cum_hardened = [0]
        cum_eds = [0]
        parity_prefix_ends: list[int] = []   # prefix length that admits member i
        parity_flats: list[int] = []
        hardened = eds = parity_count = 0
        for flat_index, choice, covered in zip(ranking, choices, recoverable):
            if zero[flat_index]:
                continue
            flats.append(flat_index)
            hardens.append(choice is leap_dice)
            recovers.append(covered)
            if choice is leap_dice:
                hardened += 1
            elif choice is parity:
                parity_count += 1
                parity_prefix_ends.append(len(flats))
                parity_flats.append(flat_index)
            else:
                eds += 1
            cum_hardened.append(hardened)
            cum_eds.append(eds)
            gamma_factors.append(1.0 + parity_count / UNPIPELINED_GROUP_SIZE / total)
        # Tuples: every schedule on the table reads them, none may change them.
        self.flats = tuple(flats)
        self.hardens = tuple(hardens)
        self.recovers = tuple(recovers)
        self.gamma_factors = tuple(gamma_factors)
        self.cum_hardened = tuple(cum_hardened)
        self.cum_eds = tuple(cum_eds)
        self.parity_prefix_ends = tuple(parity_prefix_ends)
        self.parity_flats = tuple(parity_flats)
        self._prefix_memberships: dict[int, Membership] = {}

    @cached_property
    def steps(self) -> tuple[ScheduleStep, ...]:
        """Every site's step, in ranking order (the protect-everything walk)."""
        zero = self._zero
        return tuple(map(ScheduleStep, self._ranking, self._choices,
                         self._recoverable, [zero[i] for i in self._ranking]))

    @cached_property
    def effective(self) -> tuple[ScheduleStep, ...]:
        """The steps finite targets can take (zero-residual sites excluded)."""
        return tuple(step for step in self.steps if not step.zero_residual)

    def _membership(self, hardened: int, eds: int,
                    parity_flats: tuple[int, ...] | list[int]) -> Membership:
        units = self._units
        has_slack = self._has_slack
        ordered = sorted(parity_flats)
        slack_sizes = _bucket_group_sizes(
            [units[i] for i in ordered if has_slack[i]], UNPIPELINED_GROUP_SIZE)
        pipelined_sizes = _bucket_group_sizes(
            [units[i] for i in ordered if not has_slack[i]], PIPELINED_GROUP_SIZE)
        plans = [ParityGroupPlan(members=(0,) * size, pipelined=False, local=True)
                 for size in slack_sizes]
        plans.extend(ParityGroupPlan(members=(0,) * size, pipelined=True, local=True)
                     for size in pipelined_sizes)
        return hardened, eds, tuple(plans)

    def membership_at(self, prefix: int) -> Membership:
        """Cost membership of the finite-walk prefix (memoised per prefix)."""
        membership = self._prefix_memberships.get(prefix)
        if membership is None:
            parity_count = bisect_right(self.parity_prefix_ends, prefix)
            membership = self._membership(self.cum_hardened[prefix],
                                          self.cum_eds[prefix],
                                          self.parity_flats[:parity_count])
            self._prefix_memberships[prefix] = membership
        return membership

    @cached_property
    def full_membership(self) -> Membership:
        """Cost membership of the protect-everything walk (every site)."""
        choices = self._choices
        parity = LowLevelChoice.PARITY
        return self._membership(
            choices.count(LowLevelChoice.LEAP_DICE),
            choices.count(LowLevelChoice.EDS),
            [flat_index for flat_index, choice in zip(self._ranking, choices)
             if choice is parity])


class ProtectionSchedule:
    """The full prefix schedule for one (policy, recovery, high-level) context.

    Built once by :meth:`SelectiveHardeningPlanner.schedule_for` on a shared
    :class:`StepTable`; answers every resilience target through
    :meth:`plan` without replanning.  ``residual_sdc``/``residual_due`` are
    the per-site residuals after the high-level techniques and
    ``total_sdc``/``total_due`` their left-to-right sums.
    """

    def __init__(self, registry: FlipFlopRegistry, timing: TimingModel,
                 vulnerability: VulnerabilityMap, table: StepTable,
                 recovery: RecoveryKind, hardening_cell: CellType,
                 high_level: list[TechniqueDescriptor],
                 residual_sdc: tuple[float, ...], residual_due: tuple[float, ...],
                 total_sdc: float, total_due: float,
                 baseline_sdc: float, baseline_due: float, gamma_fixed: float):
        self.registry = registry
        self.timing = timing
        self.vulnerability = vulnerability
        self.table = table
        self.recovery = recovery
        self.hardening_cell = hardening_cell
        self.high_level = high_level
        self._baseline_sdc = baseline_sdc
        self._baseline_due = baseline_due
        self._gamma_fixed = gamma_fixed
        # One (cost model, {prefix or "full" -> CostReport}) memo entry:
        # schedules live inside a planner that serves one explorer with one
        # cost model, so a single identity-checked slot memoises the whole
        # sweep without pinning every model ever passed.
        self._cost_curve_entry: tuple[DesignCostModel, dict] | None = None
        self._walk(residual_sdc, residual_due, total_sdc, total_due)

    # ------------------------------------------------------------------ construction
    def _walk(self, residual_sdc: tuple[float, ...], residual_due: tuple[float, ...],
              sum_sdc: float, sum_due: float) -> None:
        """One pass down the effective ranking: both curves and their records.

        Improvements follow Eq. 1 with the exact arithmetic of the legacy
        loop -- ``gamma_fixed * (1 + parity / UNPIPELINED_GROUP_SIZE /
        total)``, then ``baseline / max(sum, floor) / gamma`` -- with only
        its loop-invariant terms (the floors, the parity factors) hoisted;
        ``max`` is spelled out with its argument order kept.  The strict
        running maxima of both curves are recorded in the same pass.
        """
        table = self.table
        baseline_sdc = self._baseline_sdc
        baseline_due = self._baseline_due
        floor_sdc = baseline_sdc * RESIDUAL_FLOOR_FRACTION
        floor_due = baseline_due * RESIDUAL_FLOOR_FRACTION
        gamma_fixed = self._gamma_fixed
        suppression = HARDENING_SUPPRESSION
        factors = table.gamma_factors
        # Prefix 0, the unprotected design.  Its improvements are finite and
        # positive, so each opens its curve's record subsequence.
        gamma = gamma_fixed * factors[0]
        best_sdc = baseline_sdc / (floor_sdc if floor_sdc > sum_sdc else sum_sdc) / gamma
        best_due = baseline_due / (floor_due if floor_due > sum_due else sum_due) / gamma
        curve_sdc = [best_sdc]
        curve_due = [best_due]
        record_sdc_values = [best_sdc]
        record_sdc_indices = [0]
        record_due_values = [best_due]
        record_due_indices = [0]
        for index, flat_index, hardens, recovers in zip(
                range(1, len(factors)), table.flats, table.hardens, table.recovers):
            site_sdc = residual_sdc[flat_index]
            if hardens:
                sum_sdc -= site_sdc * suppression
                sum_due -= residual_due[flat_index] * suppression
            elif recovers:
                sum_sdc -= site_sdc
                sum_due -= residual_due[flat_index]
            else:
                # Detection without recovery: SDC becomes detected (DUE).
                sum_due += site_sdc
                sum_sdc -= site_sdc
            gamma = gamma_fixed * factors[index]
            sdc = baseline_sdc / (floor_sdc if floor_sdc > sum_sdc else sum_sdc) / gamma
            due = baseline_due / (floor_due if floor_due > sum_due else sum_due) / gamma
            curve_sdc.append(sdc)
            curve_due.append(due)
            if sdc > best_sdc:
                best_sdc = sdc
                record_sdc_values.append(sdc)
                record_sdc_indices.append(index)
            if due > best_due:
                best_due = due
                record_due_values.append(due)
                record_due_indices.append(index)
        self._curve_sdc = curve_sdc
        self._curve_due = curve_due
        self._sdc_record_values = record_sdc_values
        self._sdc_record_indices = record_sdc_indices
        self._due_record_values = record_due_values
        self._due_record_indices = record_due_indices
        gamma = gamma_fixed * table.full_gamma_factor
        self._full_achieved = (
            baseline_sdc / (floor_sdc if floor_sdc > sum_sdc else sum_sdc) / gamma,
            baseline_due / (floor_due if floor_due > sum_due else sum_due) / gamma)

    # ------------------------------------------------------------------ queries
    @property
    def steps(self) -> tuple[ScheduleStep, ...]:
        """Every site's step in ranking order (shared with the step table)."""
        return self.table.steps

    @property
    def _effective(self) -> tuple[ScheduleStep, ...]:
        return self.table.effective

    @property
    def effective_length(self) -> int:
        """Number of walk steps finite targets can take (zero sites excluded)."""
        return len(self.table.flats)

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
        length = self.effective_length
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
    def _membership(self, steps: tuple[ScheduleStep, ...],
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
            protected = self.table.site_count
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
    # each (functional unit, slack class) bucket holds.  The step table
    # derives that membership per prefix; the helpers below recompute
    # `ProtectedDesign.cost` term for term from it -- same conditionals, same
    # combine order, same per-group arithmetic -- so the answers are
    # bit-identical to materialising the design, at O(prefix + groups) per
    # (memoised) prefix instead of a full materialise + cost per target.

    def _cost_of_membership(self, cost_model: DesignCostModel,
                            membership: Membership) -> CostReport:
        hardened, eds, plans = membership
        report = CostReport()
        if hardened and self.hardening_cell is not CellType.BASELINE:
            report = report.combined_with(
                cost_model.hardened_cells_cost({self.hardening_cell: hardened}))
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
        """Exact cost of the finite-walk prefix design (no materialisation)."""
        memo = self._cost_memo(cost_model)
        report = memo.get(prefix)
        if report is None:
            report = self._cost_of_membership(cost_model,
                                              self.table.membership_at(prefix))
            memo[prefix] = report
        return report

    def full_cost(self, cost_model: DesignCostModel) -> CostReport:
        """Exact cost of the protect-everything walk (no materialisation)."""
        memo = self._cost_memo(cost_model)
        report = memo.get("full")
        if report is None:
            report = self._cost_of_membership(cost_model, self.table.full_membership)
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
            return CostedPlan(protected_count=self.table.site_count,
                              achieved_sdc=self._full_achieved[0],
                              achieved_due=self._full_achieved[1],
                              cost=self.full_cost(cost_model))
        prefix = self.prefix_for(target)
        return CostedPlan(protected_count=prefix,
                          achieved_sdc=self._curve_sdc[prefix],
                          achieved_due=self._curve_due[prefix],
                          cost=self.cost_at(prefix, cost_model))
