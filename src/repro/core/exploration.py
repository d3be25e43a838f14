"""Cross-layer exploration engine.

Evaluates cross-layer combinations: for a combination (a set of techniques
plus a recovery mechanism) and a resilience target, it builds the cheapest
protected design reachable with that combination -- applying high-level
techniques first and then selectively adding tunable circuit/logic protection
per the Fig. 7 methodology -- and reports its cost and achieved improvement.
This is the machinery behind Tables 17, 19, 20, 21 and Figures 1(d), 9
and 10.

The engine is *incremental and streaming*:

* tunable combinations are answered from cached
  :class:`~repro.core.schedule.ProtectionSchedule` prefix schedules (one
  Fig. 7 walk per (policy, recovery, high-level set), any number of
  targets);
* non-tunable combinations are target-independent, so their design, Eq. 1
  estimate and cost are computed once and reused across the target sweep;
* high-level :class:`TechniqueDescriptor`s are immutable and constructed
  once per process (:func:`high_level_descriptor`), not per evaluation;
* sweeps stream lightweight :class:`ExplorationRecord` aggregates
  (:meth:`CrossLayerExplorer.stream_records`), which feed the
  dominance-pruned :class:`~repro.analysis.pareto.ParetoFrontier`;
* :meth:`CrossLayerExplorer.cheapest_meeting_target` orders candidates by
  their fixed-cost energy lower bound and stops as soon as the incumbent
  beats every remaining bound, instead of evaluating all 586 combinations.

:meth:`CrossLayerExplorer.evaluate_reference` preserves the original
replan-from-scratch semantics; the property tests pin the incremental paths
to it bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from repro.analysis.pareto import ParetoFrontier, ParetoPoint
from repro.core.combinations import (
    ABFT_CORRECTION,
    ABFT_DETECTION,
    ASSERTIONS,
    CFCSS,
    CrossLayerCombination,
    DFC,
    EDDI,
    EDS,
    LEAP_DICE,
    MONITOR,
    PARITY,
    enumerate_combinations,
)
from repro.core.heuristics import SelectionPolicy, SelectiveHardeningPlanner
from repro.core.improvement import MAX_TARGET, ResilienceTarget, sdc_targets
from repro.faultinjection.vulnerability import VulnerabilityMap
from repro.microarch.flipflop import FlipFlopRegistry
from repro.physical.cells import RecoveryKind
from repro.physical.costmodel import CostReport, DesignCostModel
from repro.physical.timing import TimingModel
from repro.resilience.algorithm import abft_correction_descriptor, abft_detection_descriptor
from repro.resilience.architecture import dfc_descriptor, monitor_core_descriptor
from repro.resilience.base import TechniqueDescriptor, core_family
from repro.resilience.design import ProtectedDesign
from repro.resilience.software import assertions_descriptor, cfcss_descriptor, eddi_descriptor

_HIGH_LEVEL_FACTORIES: dict[str, Callable[[], TechniqueDescriptor]] = {
    DFC: dfc_descriptor,
    MONITOR: monitor_core_descriptor,
    ASSERTIONS: assertions_descriptor,
    CFCSS: cfcss_descriptor,
    EDDI: eddi_descriptor,
    ABFT_CORRECTION: abft_correction_descriptor,
    ABFT_DETECTION: abft_detection_descriptor,
}

#: Descriptors are immutable value objects; build each exactly once per
#: process instead of on every ``evaluate()`` call.
_HIGH_LEVEL_DESCRIPTORS: dict[str, TechniqueDescriptor] = {}


def high_level_descriptor(name: str) -> TechniqueDescriptor:
    """The process-wide shared descriptor of one high-level technique."""
    descriptor = _HIGH_LEVEL_DESCRIPTORS.get(name)
    if descriptor is None:
        descriptor = _HIGH_LEVEL_FACTORIES[name]()
        _HIGH_LEVEL_DESCRIPTORS[name] = descriptor
    return descriptor


def high_level_descriptors(combination: CrossLayerCombination) -> list[TechniqueDescriptor]:
    """The (shared) high-level descriptors of one combination, in order."""
    return [high_level_descriptor(name) for name in combination.techniques
            if name in _HIGH_LEVEL_FACTORIES]


@dataclass
class EvaluatedDesign:
    """One evaluated (combination, target) point."""

    combination: CrossLayerCombination
    target: ResilienceTarget
    design: ProtectedDesign
    cost: CostReport
    sdc_improvement: float
    due_improvement: float
    protected_flip_flops: int

    @property
    def meets_target(self) -> bool:
        return self.target.satisfied_by(self.sdc_improvement, self.due_improvement)

    @property
    def energy_pct(self) -> float:
        return self.cost.energy_pct


@dataclass(frozen=True)
class CostedEvaluation:
    """One (combination, target) point costed without materialising a design.

    Numerically bit-identical to :class:`EvaluatedDesign` -- improvements
    come from the same schedule curves and the cost from the schedule's
    incremental cost curves -- it just never builds the
    :class:`ProtectedDesign`.  Streaming consumers (frontier sweeps, the
    pruned cheapest search) run on this; call
    :meth:`CrossLayerExplorer.evaluate` when the design itself is needed.
    """

    combination: CrossLayerCombination
    target: ResilienceTarget
    cost: CostReport
    sdc_improvement: float
    due_improvement: float
    protected_flip_flops: int

    @property
    def meets_target(self) -> bool:
        return self.target.satisfied_by(self.sdc_improvement, self.due_improvement)

    @property
    def energy_pct(self) -> float:
        return self.cost.energy_pct


@dataclass(frozen=True)
class ExplorationRecord:
    """Streamed lightweight aggregate of one (combination, target) evaluation.

    Carries everything frontier construction and reporting need -- costs,
    achieved improvements, pool coordinates -- without materialising the
    full :class:`ProtectedDesign`.
    """

    combination_index: int
    target_index: int
    label: str
    target_label: str
    area_pct: float
    power_pct: float
    energy_pct: float
    exec_time_pct: float
    sdc_improvement: float
    due_improvement: float
    protected_flip_flops: int
    meets_target: bool

    def pareto_point(self, metric: str = "sdc") -> ParetoPoint:
        if metric not in ("sdc", "due"):
            raise ValueError(f"metric must be 'sdc' or 'due', got {metric!r}")
        improvement = self.sdc_improvement if metric == "sdc" else self.due_improvement
        return ParetoPoint(improvement=improvement, energy_pct=self.energy_pct,
                           area_pct=self.area_pct, exec_time_pct=self.exec_time_pct,
                           label=f"{self.label} @ {self.target_label}", payload=self)


class CrossLayerExplorer:
    """Evaluates combinations over a vulnerability map and a cost model."""

    def __init__(self, registry: FlipFlopRegistry, vulnerability: VulnerabilityMap,
                 timing: TimingModel | None = None,
                 cost_model: DesignCostModel | None = None,
                 benchmarks: list[str] | None = None):
        self.registry = registry
        self.vulnerability = vulnerability
        self.timing = timing or TimingModel(registry)
        self.cost_model = cost_model or DesignCostModel(registry.core_name,
                                                        registry.total_flip_flops)
        self.benchmarks = benchmarks
        self.family = core_family(registry.core_name)
        self._planner = SelectiveHardeningPlanner(registry, vulnerability, self.timing,
                                                  benchmarks)
        # (high-level names, recovery) -> (design, sdc, due, cost); non-
        # tunable combinations are target-independent, so one entry answers
        # the whole sweep.
        self._fixed_cache: dict[tuple, tuple[ProtectedDesign, float, float, CostReport]] = {}

    # ------------------------------------------------------------------ single combination
    def _high_level_descriptors(self, combination: CrossLayerCombination) -> list[TechniqueDescriptor]:
        return high_level_descriptors(combination)

    def _policy_for(self, combination: CrossLayerCombination) -> SelectionPolicy:
        return SelectionPolicy(
            allow_hardening=LEAP_DICE in combination.techniques,
            allow_parity=PARITY in combination.techniques,
            allow_eds=EDS in combination.techniques,
        )

    def _fixed_design(self, combination: CrossLayerCombination,
                      ) -> tuple[ProtectedDesign, float, float, CostReport]:
        """Design/improvement/cost of a combination with no tunable technique.

        The improvement comes from the planner's cached residuals, bit for
        bit the design's own ``estimate_improvement``.
        """
        key = (tuple(name for name in combination.techniques
                     if name in _HIGH_LEVEL_FACTORIES), combination.recovery)
        cached = self._fixed_cache.get(key)
        if cached is not None:
            return cached
        high_level = self._high_level_descriptors(combination)
        design = ProtectedDesign(registry=self.registry, recovery=combination.recovery,
                                 high_level=high_level, label=combination.label)
        sdc, due = self._planner.high_level_improvement(high_level,
                                                        combination.recovery)
        result = (design, sdc, due, design.cost(self.cost_model))
        self._fixed_cache[key] = result
        return result

    def _schedule_for(self, combination: CrossLayerCombination):
        return self._planner.schedule_for(
            recovery=combination.recovery,
            policy=self._policy_for(combination),
            high_level=self._high_level_descriptors(combination))

    def evaluate(self, combination: CrossLayerCombination,
                 target: ResilienceTarget) -> EvaluatedDesign:
        """Build and cost the cheapest design for one combination and target."""
        if combination.has_tunable_technique:
            result = self._schedule_for(combination).plan(target,
                                                          label=combination.label)
            design = result.design
            protected = result.protected_count
            sdc, due = result.achieved_sdc, result.achieved_due
            cost = design.cost(self.cost_model)
        else:
            design, sdc, due, cost = self._fixed_design(combination)
            protected = 0
        return EvaluatedDesign(combination=combination, target=target, design=design,
                               cost=cost, sdc_improvement=sdc, due_improvement=due,
                               protected_flip_flops=protected)

    def evaluate_costed(self, combination: CrossLayerCombination,
                        target: ResilienceTarget) -> CostedEvaluation:
        """Cost one (combination, target) pair from the schedule's curves.

        Bit-identical numbers to :meth:`evaluate` without materialising the
        design: tunable combinations answer from the cached
        :class:`ProtectionSchedule`'s improvement *and* incremental cost
        curves, non-tunable ones from the per-context fixed cache.
        """
        if combination.has_tunable_technique:
            costed = self._schedule_for(combination).plan_costed(target,
                                                                 self.cost_model)
            cost = costed.cost
            protected = costed.protected_count
            sdc, due = costed.achieved_sdc, costed.achieved_due
        else:
            _, sdc, due, cost = self._fixed_design(combination)
            protected = 0
        return CostedEvaluation(combination=combination, target=target, cost=cost,
                                sdc_improvement=sdc, due_improvement=due,
                                protected_flip_flops=protected)

    def evaluate_reference(self, combination: CrossLayerCombination,
                           target: ResilienceTarget) -> EvaluatedDesign:
        """The original replan-from-scratch evaluation (equivalence baseline).

        Rebuilds descriptors, vulnerability profiles and the whole Fig. 7
        walk per call; the incremental :meth:`evaluate` is property-tested
        to match it bit-for-bit.
        """
        high_level = [_HIGH_LEVEL_FACTORIES[name]() for name in combination.techniques
                      if name in _HIGH_LEVEL_FACTORIES]
        if combination.has_tunable_technique:
            policy = self._policy_for(combination)
            result = self._planner.plan_replanning(
                target, recovery=combination.recovery, policy=policy,
                high_level=high_level, label=combination.label)
            design = result.design
            protected = result.protected_count
            sdc, due = result.achieved_sdc, result.achieved_due
        else:
            design = ProtectedDesign(registry=self.registry, recovery=combination.recovery,
                                     high_level=high_level, label=combination.label)
            estimate = design.estimate_improvement(self.vulnerability, self.benchmarks)
            protected = 0
            sdc, due = estimate.sdc_improvement, estimate.due_improvement
        cost = design.cost(self.cost_model)
        return EvaluatedDesign(combination=combination, target=target, design=design,
                               cost=cost, sdc_improvement=sdc, due_improvement=due,
                               protected_flip_flops=protected)

    def record(self, combination: CrossLayerCombination, target: ResilienceTarget,
               combination_index: int = 0, target_index: int = 0) -> ExplorationRecord:
        """Evaluate one pair into a lightweight streaming record.

        Runs on the design-free :meth:`evaluate_costed` path -- records only
        ever carry aggregates, so sweeps never pay for materialisation.
        """
        evaluated = self.evaluate_costed(combination, target)
        return ExplorationRecord(
            combination_index=combination_index, target_index=target_index,
            label=combination.label, target_label=target.label,
            area_pct=evaluated.cost.area_pct, power_pct=evaluated.cost.power_pct,
            energy_pct=evaluated.cost.energy_pct,
            exec_time_pct=evaluated.cost.exec_time_pct,
            sdc_improvement=evaluated.sdc_improvement,
            due_improvement=evaluated.due_improvement,
            protected_flip_flops=evaluated.protected_flip_flops,
            meets_target=evaluated.meets_target)

    # ------------------------------------------------------------------ sweeps
    def sweep_targets(self, combination: CrossLayerCombination,
                      targets: list[ResilienceTarget] | None = None) -> list[EvaluatedDesign]:
        """Evaluate one combination over the standard target sweep (Table 17/19).

        All targets are answered from one cached protection schedule.
        """
        return [self.evaluate(combination, target)
                for target in (targets or sdc_targets())]

    def explore_all(self, target: ResilienceTarget,
                    combinations: list[CrossLayerCombination] | None = None) -> list[EvaluatedDesign]:
        """Evaluate every combination at one target (the Fig. 1d cloud)."""
        pool = combinations if combinations is not None \
            else enumerate_combinations(self.family)
        return [self.evaluate(combination, target) for combination in pool]

    def stream_records(self, targets: list[ResilienceTarget],
                       combinations: list[CrossLayerCombination] | None = None,
                       ) -> Iterator[ExplorationRecord]:
        """Stream every (combination, target) evaluation in pool order.

        Combinations come first, then targets within each combination, so
        each combination's target sweep is answered from one cached
        schedule; every record carries its pool coordinates.
        """
        pool = combinations if combinations is not None \
            else enumerate_combinations(self.family)
        for ci, combination in enumerate(pool):
            for ti, target in enumerate(targets):
                yield self.record(combination, target,
                                  combination_index=ci, target_index=ti)

    def explore_frontier(self, targets: list[ResilienceTarget] | None = None,
                         combinations: list[CrossLayerCombination] | None = None,
                         metric: str = "sdc") -> ParetoFrontier:
        """Stream the sweep into a dominance-pruned Pareto frontier."""
        frontier = ParetoFrontier()
        for record in self.stream_records(targets or sdc_targets(), combinations):
            frontier.add(record.pareto_point(metric))
        return frontier

    # ------------------------------------------------------------------ cheapest search
    def fixed_energy_lower_bound(self, combination: CrossLayerCombination) -> float:
        """Energy of the combination's non-tunable parts -- a lower bound.

        Tunable protection only ever adds area/power (and never execution
        time), and combined energy is monotone in both, so the recovery +
        high-level cost bounds the full design's energy from below.  For
        combinations without tunable techniques the bound is exact.
        """
        report = CostReport()
        if combination.recovery is not RecoveryKind.NONE:
            report = report.combined_with(
                self.cost_model.recovery_report(combination.recovery))
        for technique in self._high_level_descriptors(combination):
            costs = technique.costs(self.family)
            report = report.combined_with(self.cost_model.fixed_overhead(
                costs.area_pct, costs.power_pct, costs.exec_time_pct))
        return report.energy_pct

    def cheapest_meeting_target(self, target: ResilienceTarget,
                                combinations: list[CrossLayerCombination] | None = None,
                                prune: bool = True) -> EvaluatedDesign | None:
        """The minimum-energy combination that meets a target (Question 2).

        Candidates are visited in ascending order of their fixed-cost energy
        lower bound; the search stops as soon as the incumbent's energy is
        below every remaining bound.  Ties are broken by enumeration order,
        matching the historical first-minimum semantics exactly.  Candidates
        are costed from the incremental cost curves; only the winner is
        materialised into a design.
        """
        pool = combinations if combinations is not None \
            else enumerate_combinations(self.family)
        if not prune:
            evaluated = [e for e in self.explore_all(target, pool) if e.meets_target]
            if not evaluated:
                return None
            return min(evaluated, key=lambda e: e.cost.energy_pct)
        bounds = [self.fixed_energy_lower_bound(combination) for combination in pool]
        order = sorted(range(len(pool)), key=lambda i: (bounds[i], i))
        best_index: int | None = None
        best_key: tuple[float, int] | None = None
        for i in order:
            if best_key is not None and bounds[i] > best_key[0]:
                break
            costed = self.evaluate_costed(pool[i], target)
            if not costed.meets_target:
                continue
            key = (costed.cost.energy_pct, i)
            if best_key is None or key < best_key:
                best_index, best_key = i, key
        if best_index is None:
            return None
        return self.evaluate(pool[best_index], target)

    # ------------------------------------------------------------------ named combinations
    def named_combination(self, names: tuple[str, ...],
                          recovery: RecoveryKind = RecoveryKind.NONE) -> CrossLayerCombination:
        """Convenience constructor for the named combinations of Tables 17/19/21."""
        return CrossLayerCombination(core_family=self.family, techniques=names,
                                     recovery=recovery)

    def best_practice_combination(self) -> CrossLayerCombination:
        """LEAP-DICE + parity + micro-architectural recovery (the paper's winner)."""
        recovery = RecoveryKind.FLUSH if self.family == "InO" else RecoveryKind.ROB
        return self.named_combination((LEAP_DICE, PARITY), recovery)

    def bounds_envelope(self, targets: list[ResilienceTarget] | None = None,
                        standalone: bool = False) -> list[tuple[float, float]]:
        """Energy-cost vs improvement envelope for new-technique bounds (Fig. 9/10).

        Returns (improvement, energy_pct) points for the best-practice
        cross-layer combination (Fig. 9) or for standalone LEAP-DICE
        (Fig. 10).
        """
        if standalone:
            combination = self.named_combination((LEAP_DICE,))
        else:
            combination = self.best_practice_combination()
        points = []
        for evaluated in self.sweep_targets(combination, targets):
            improvement = evaluated.target.sdc if evaluated.target.sdc is not None \
                else evaluated.target.due
            if improvement == MAX_TARGET:
                improvement = evaluated.sdc_improvement
            points.append((improvement, evaluated.cost.energy_pct))
        return points
