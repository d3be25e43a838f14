"""The CLEAR framework facade.

Ties together the reliability-analysis, physical-design and resilience-library
components (Fig. 1) for one core: construct it with a core model and a
benchmark list and it wires up vulnerability data (measured injection
campaigns, the calibrated model, or a mix), the placement/timing/cost models
and the cross-layer exploration engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.pareto import ParetoFrontier
from repro.core.exploration import CrossLayerExplorer, EvaluatedDesign
from repro.core.improvement import ResilienceTarget
from repro.engine.engine import EngineConfig, run_suite_campaign
from repro.faultinjection.calibrated import CalibratedVulnerabilityModel
from repro.faultinjection.vulnerability import VulnerabilityMap
from repro.microarch.core import BaseCore
from repro.microarch.inorder import InOrderCore
from repro.microarch.ooo import OutOfOrderCore
from repro.physical.costmodel import DesignCostModel
from repro.physical.placement import Placement
from repro.physical.timing import TimingModel
from repro.workloads.base import Workload
from repro.workloads.suite import suite_for_core


@dataclass
class ClearFramework:
    """One CLEAR instance: a core, its workloads and all derived models.

    Attributes:
        core: the simulated core under study.
        workloads: the benchmarks used for reliability analysis.
        seed: seed for every stochastic component (placement, calibration).
        vulnerability: per-flip-flop vulnerability data.  By default it comes
            from the calibrated model; call :meth:`measure_vulnerability` to
            replace (or augment) it with measured injection campaigns.
    """

    core: BaseCore
    workloads: list[Workload] = field(default_factory=list)
    seed: int = 2016
    vulnerability: VulnerabilityMap | None = None

    def __post_init__(self) -> None:
        if not self.workloads:
            self.workloads = suite_for_core(self.core)
        self.placement = Placement(self.core.registry, seed=self.seed)
        self.timing = TimingModel(self.core.registry, seed=self.seed)
        self.cost_model = DesignCostModel(self.core.name, self.core.flip_flop_count)
        if self.vulnerability is None:
            self.vulnerability = self.calibrated_vulnerability()
        self._explorer: CrossLayerExplorer | None = None

    # ------------------------------------------------------------------ constructors
    @classmethod
    def for_inorder_core(cls, seed: int = 2016) -> "ClearFramework":
        return cls(core=InOrderCore(), seed=seed)

    @classmethod
    def for_out_of_order_core(cls, seed: int = 2016) -> "ClearFramework":
        return cls(core=OutOfOrderCore(), seed=seed)

    # ------------------------------------------------------------------ reliability analysis
    def benchmark_names(self) -> list[str]:
        return [workload.name for workload in self.workloads]

    def calibrated_vulnerability(self) -> VulnerabilityMap:
        """Vulnerability data from the calibrated model (fast, table-scale)."""
        model = CalibratedVulnerabilityModel(self.core.registry,
                                             self.benchmark_names(), seed=self.seed)
        return model.build_map()

    def measure_vulnerability(self, injections_per_workload: int = 100,
                              workloads: list[Workload] | None = None,
                              engine_config: EngineConfig | None = None,
                              ) -> VulnerabilityMap:
        """Measured vulnerability from real injection campaigns.

        Campaigns run on the checkpointed injection engine; pass
        ``engine_config`` (e.g. ``EngineConfig(workers=8)``) to fan the
        injections out over worker processes or tune the checkpoint spacing.
        """
        vulnerability, _ = run_suite_campaign(
            self.core, workloads or self.workloads,
            injections_per_workload=injections_per_workload, seed=self.seed,
            config=engine_config)
        self.vulnerability = vulnerability
        self._explorer = None
        return vulnerability

    # ------------------------------------------------------------------ exploration
    @property
    def explorer(self) -> CrossLayerExplorer:
        if self._explorer is None:
            self._explorer = CrossLayerExplorer(
                self.core.registry, self.vulnerability, timing=self.timing,
                cost_model=self.cost_model, benchmarks=self.benchmark_names())
        return self._explorer

    def evaluate_best_practice(self, target: ResilienceTarget) -> EvaluatedDesign:
        """Evaluate LEAP-DICE + parity + micro-architectural recovery at a target."""
        return self.explorer.evaluate(self.explorer.best_practice_combination(), target)

    def find_cheapest_solution(self, target: ResilienceTarget,
                               max_combinations: int | None = None,
                               prune: bool = True) -> EvaluatedDesign | None:
        """Search the combination space for the minimum-energy solution.

        Uses the incumbent/lower-bound pruned search by default; pass
        ``prune=False`` to force exhaustive evaluation (same result).
        """
        from repro.core.combinations import enumerate_combinations

        combinations = enumerate_combinations(self.explorer.family)
        if max_combinations is not None:
            combinations = combinations[:max_combinations]
        return self.explorer.cheapest_meeting_target(target, combinations, prune=prune)

    def explore_frontier(self, targets: list[ResilienceTarget] | None = None,
                         metric: str = "sdc") -> ParetoFrontier:
        """Sweep the full combination pool into a streaming Pareto frontier.

        The sweep runs in process: every combination's target sweep is
        answered from one cached protection schedule.
        """
        return self.explorer.explore_frontier(targets=targets, metric=metric)
