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
shares the table; a schedule's own walk is a few array operations over
the table's effective sites with its residuals and fixed γ.

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

Everything per site lives in numpy arrays, built once where it is shared:

* per planner, the probabilities, ranking, unit ids and slack flags;
  per residual key, the float64 residuals and their zero mask (on the
  planner's ``Residuals`` entry); per choice context, the choice codes and
  recoverability of the ranked sites;
* per :class:`StepTable`, the effective walk (``flats``, ``hardens``,
  ``recovers``), the cumulative hardened/EDS/parity counts and parity-γ
  factors of every prefix, and the parity members ordered by (slack class,
  unit) bucket and flat index;
* per :class:`ProtectionSchedule`, the two float64 curves and their records
  (values and intp indices).

The array path does the legacy loop's IEEE operations in the same order:

* running sums are ``np.add.accumulate`` over ``[total, -d1, -d2, ...]``,
  which adds one term after another, and ``a - b == a + (-b)`` exactly.
  ``total - np.cumsum(d)`` rounds differently and ``np.sum`` is pairwise;
  neither may be used;
* Eq. 1 is elementwise ``baseline / np.maximum(sums, floor) / (gamma_fixed *
  factors)``;
* records are the strict running maxima (``curve[k] > max(curve[:k])`` via
  ``np.maximum.accumulate``), looked up with ``np.searchsorted(side="left")``,
  which is ``bisect_left``;
* a prefix's parity buckets keep first-appearance order by flat index; only
  the non-empty buckets are ordered, the prefix itself is never re-sorted.

Values become Python ``float``/``int`` where they leave the schedule:
:class:`CostedPlan`, :meth:`ProtectionSchedule.plan`,
:meth:`~ProtectionSchedule.improvement_curve`,
:meth:`~ProtectionSchedule.prefix_for` and
:meth:`~ProtectionSchedule.cost_curve`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, unique
from functools import cached_property

import numpy as np

from repro.core.improvement import ResilienceTarget
from repro.faultinjection.vulnerability import VulnerabilityMap
from repro.microarch.flipflop import FlipFlopRegistry
from repro.physical.cells import CellType, RecoveryKind
from repro.physical.costmodel import CostReport, DesignCostModel, ParityGroupPlan
from repro.physical.timing import TimingModel
from repro.resilience.base import TechniqueDescriptor, core_family
from repro.resilience.circuit import HardeningPlan
from repro.resilience.design import ProtectedDesign, residual_floor
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


def _first_index_at_least(record_values: np.ndarray, record_indices: np.ndarray,
                          threshold: float) -> int | None:
    """First curve index whose value reaches ``threshold`` (record bisection)."""
    position = int(np.searchsorted(record_values, threshold, side="left"))
    if position == len(record_values):
        return None
    return int(record_indices[position])


def _records(curve: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values and indices of the strict running maxima of ``curve``.

    Index 0 always opens the subsequence; index ``k`` joins it when its
    value exceeds every earlier one.
    """
    is_record = np.empty(len(curve), dtype=bool)
    is_record[0] = True
    np.greater(curve[1:], np.maximum.accumulate(curve)[:-1], out=is_record[1:])
    indices = np.flatnonzero(is_record)
    return curve[indices], indices


def _group_plan(size: int, pipelined: bool) -> ParityGroupPlan:
    """The cost model's view of one local parity group (sizes are all it reads)."""
    return ParityGroupPlan(members=(0,) * size, pipelined=pipelined, local=True)


class _ParityBuckets:
    """Parity group plans of every walk-order prefix of one member list.

    Mirrors ``ParityPlanner._locality_groups`` on the sizes alone: members
    fall into buckets by slack class and functional unit; unpipelined
    (slack) buckets come first, each class in first-appearance order by
    flat index, and each bucket is chunked into full groups plus one
    remainder.  The members are stored once, ordered by bucket and then by
    flat index, with their walk positions; a prefix of ``count`` members is
    then one mask (walk position below ``count``) and two segment
    reductions per bucket -- its size and its smallest flat index -- and
    only the non-empty buckets are ordered.
    """

    def __init__(self, flats: np.ndarray, units: np.ndarray, has_slack: np.ndarray):
        pipelined = ~has_slack[flats]
        buckets = units[flats] * 2 + pipelined
        order = np.lexsort((flats, buckets))
        self._positions = order
        self._flats = flats[order]
        ordered = buckets[order]
        first = np.ones(len(ordered), dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        self._starts = np.flatnonzero(first)
        self._pipelined = pipelined[order][self._starts]
        self.size = len(flats)

    def plans(self, count: int) -> tuple[ParityGroupPlan, ...]:
        """Group plans of the first ``count`` members in walk order."""
        if count == 0:
            return ()
        starts = self._starts
        in_prefix = self._positions < count
        sizes = np.add.reduceat(in_prefix, starts, dtype=np.intp)
        firsts = np.minimum.reduceat(
            np.where(in_prefix, self._flats, np.iinfo(np.intp).max), starts)
        present = np.flatnonzero(sizes)
        present = present[np.lexsort((firsts[present], self._pipelined[present]))]
        plans: list[ParityGroupPlan] = []
        for members, piped in zip(sizes[present].tolist(),
                                  self._pipelined[present].tolist()):
            size = PIPELINED_GROUP_SIZE if piped else UNPIPELINED_GROUP_SIZE
            plans.extend([_group_plan(size, piped)] * (members // size))
            if members % size:
                plans.append(_group_plan(members % size, piped))
        return tuple(plans)


#: The step tables hold each choice as its index in this tuple.
_CHOICES = tuple(LowLevelChoice)
_LEAP_DICE = _CHOICES.index(LowLevelChoice.LEAP_DICE)
_PARITY = _CHOICES.index(LowLevelChoice.PARITY)
_EDS = _CHOICES.index(LowLevelChoice.EDS)


class StepTable:
    """The ranked Heuristic-1 walk of one choice context over one zero mask.

    Built by :meth:`SelectiveHardeningPlanner.schedule_for` from the
    vulnerability ranking, the context's per-site choices (indices into
    ``tuple(LowLevelChoice)``) and recoverability (in ranking order), the
    residual key's zero mask and the per-site unit ids and parity slack
    (indexed by flip-flop); shared by every schedule with that context and
    mask, which only read it.

    The effective walk -- the sites finite targets visit -- is stored as
    parallel arrays the schedules' walks read: ``flats``, ``hardens`` (the
    choice is LEAP-DICE), ``recovers`` (detection the recovery covers) and
    ``gamma_factors`` (the parity-γ factor ``1 + parity /
    UNPIPELINED_GROUP_SIZE / total`` of every prefix), with the cumulative
    hardened and EDS counts per prefix.  The :class:`ScheduleStep` objects
    themselves are built only when asked for.
    """

    def __init__(self, ranking, choices, recoverable, zero, units, has_slack,
                 total: int):
        ranking = np.asarray(ranking, dtype=np.intp)
        codes = np.asarray(choices, dtype=np.int8)
        recoverable = np.asarray(recoverable, dtype=bool)
        zero = np.asarray(zero, dtype=bool)
        units = np.asarray(units, dtype=np.intp)
        has_slack = np.asarray(has_slack, dtype=bool)
        self._ranking = ranking
        self._codes = codes
        self._recoverable = recoverable
        self._zero = zero
        self._units = units
        self._has_slack = has_slack
        self.site_count = len(ranking)
        effective = ~zero[ranking]
        effective_codes = codes[effective]
        parity = effective_codes == _PARITY
        self.flats = ranking[effective]
        self.hardens = effective_codes == _LEAP_DICE
        self.recovers = recoverable[effective]
        # Cumulative membership counts per effective prefix: the cost curves
        # read prefix membership from these instead of re-scanning the walk.
        self.cum_hardened = np.concatenate(([0], np.cumsum(self.hardens)))
        self.cum_eds = np.concatenate(([0], np.cumsum(effective_codes == _EDS)))
        self.cum_parity = np.concatenate(([0], np.cumsum(parity)))
        self.gamma_factors = 1.0 + self.cum_parity / UNPIPELINED_GROUP_SIZE / total
        for array in (self.flats, self.hardens, self.recovers, self.cum_hardened,
                      self.cum_eds, self.cum_parity, self.gamma_factors):
            array.flags.writeable = False   # shared by every schedule on the table
        self._parity = _ParityBuckets(self.flats[parity], units, has_slack)
        self._prefix_memberships: dict[int, Membership] = {}
        # The protect-everything walk's parity-γ factor: every parity choice.
        self.full_gamma_factor = (1.0 + int(np.count_nonzero(codes == _PARITY))
                                  / UNPIPELINED_GROUP_SIZE / total)

    @cached_property
    def steps(self) -> tuple[ScheduleStep, ...]:
        """Every site's step, in ranking order (the protect-everything walk)."""
        return tuple(map(ScheduleStep, self._ranking.tolist(),
                         map(_CHOICES.__getitem__, self._codes.tolist()),
                         self._recoverable.tolist(),
                         self._zero[self._ranking].tolist()))

    @cached_property
    def effective(self) -> tuple[ScheduleStep, ...]:
        """The steps finite targets can take (zero-residual sites excluded)."""
        return tuple(step for step in self.steps if not step.zero_residual)

    def membership_at(self, prefix: int) -> Membership:
        """Cost membership of the finite-walk prefix (memoised per prefix)."""
        membership = self._prefix_memberships.get(prefix)
        if membership is None:
            membership = (int(self.cum_hardened[prefix]), int(self.cum_eds[prefix]),
                          self._parity.plans(int(self.cum_parity[prefix])))
            self._prefix_memberships[prefix] = membership
        return membership

    @cached_property
    def full_membership(self) -> Membership:
        """Cost membership of the protect-everything walk (every site)."""
        codes = self._codes
        parity = _ParityBuckets(self._ranking[codes == _PARITY], self._units,
                                self._has_slack)
        return (int(np.count_nonzero(codes == _LEAP_DICE)),
                int(np.count_nonzero(codes == _EDS)), parity.plans(parity.size))


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
                 high_level: list[TechniqueDescriptor], residual_sdc, residual_due,
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
    def _walk(self, residual_sdc, residual_due, sum_sdc: float, sum_due: float) -> None:
        """Both curves and their records over the whole effective walk.

        The running sums are ``np.add.accumulate`` -- one addition after
        another, left to right -- over the starting total followed by each
        step's change, so ``sum -= x`` becomes ``sum + (-x)``, the same IEEE
        result.  Improvements follow Eq. 1 with the operations of the legacy
        loop in its order: ``baseline / max(sum, floor) / (gamma_fixed *
        (1 + parity / UNPIPELINED_GROUP_SIZE / total))``.
        """
        table = self.table
        baseline_sdc = self._baseline_sdc
        baseline_due = self._baseline_due
        floor_sdc = residual_floor(baseline_sdc)
        floor_due = residual_floor(baseline_due)
        flats = table.flats
        hardens = table.hardens
        site_sdc = np.asarray(residual_sdc, dtype=np.float64)[flats]
        site_due = np.asarray(residual_due, dtype=np.float64)[flats]
        suppression = HARDENING_SUPPRESSION
        # Hardening suppresses both residuals; detection removes them when
        # the recovery covers the site, and otherwise turns SDC into DUE.
        steps = len(flats) + 1
        sums_sdc = np.empty(steps)
        sums_sdc[0] = sum_sdc
        sums_sdc[1:] = -np.where(hardens, site_sdc * suppression, site_sdc)
        np.add.accumulate(sums_sdc, out=sums_sdc)
        sums_due = np.empty(steps)
        sums_due[0] = sum_due
        sums_due[1:] = np.where(hardens, -(site_due * suppression),
                                np.where(table.recovers, -site_due, site_sdc))
        np.add.accumulate(sums_due, out=sums_due)
        gamma = self._gamma_fixed * table.gamma_factors
        self._curve_sdc = baseline_sdc / np.maximum(sums_sdc, floor_sdc) / gamma
        self._curve_due = baseline_due / np.maximum(sums_due, floor_due) / gamma
        self._sdc_record_values, self._sdc_record_indices = _records(self._curve_sdc)
        self._due_record_values, self._due_record_indices = _records(self._curve_due)
        sum_sdc = float(sums_sdc[-1])
        sum_due = float(sums_due[-1])
        gamma = self._gamma_fixed * table.full_gamma_factor
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
        return list(zip(range(len(self._curve_sdc)), self._curve_sdc.tolist(),
                        self._curve_due.tolist()))

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
        start = max(first_sdc, first_due)
        met = np.flatnonzero((self._curve_sdc[start:] >= target.sdc)
                             & (self._curve_due[start:] >= target.due))
        return start + int(met[0]) if len(met) else length

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
            achieved_sdc = float(self._curve_sdc[prefix])
            achieved_due = float(self._curve_due[prefix])
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
    # bit-identical to materialising the design, at one array pass over the
    # table's parity members plus O(groups) per (memoised) prefix instead of
    # a full materialise + cost per target.

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
                          achieved_sdc=float(self._curve_sdc[prefix]),
                          achieved_due=float(self._curve_due[prefix]),
                          cost=self.cost_at(prefix, cost_model))
