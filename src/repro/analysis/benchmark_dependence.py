"""Application-benchmark dependence study (Sec. 4).

Selective hardening is guided by error injection on *benchmarks*; the field
application mix may differ.  The paper quantifies the resulting optimism/
pessimism by training the protection on a random subset of benchmarks and
validating the achieved improvement on the rest (50 train/validate splits),
and mitigates it by protecting the remaining flip-flops with Light-Hardened
LEAP cells (Tables 23-26) and by analysing how similar the per-benchmark
vulnerability rankings are (Table 27, Eq. 2).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from statistics import NormalDist

from repro.core.heuristics import SelectionPolicy, SelectiveHardeningPlanner
from repro.core.improvement import ResilienceTarget
from repro.faultinjection.vulnerability import VulnerabilityMap, ordered_sum
from repro.microarch.flipflop import FlipFlopRegistry
from repro.physical.cells import RecoveryKind
from repro.physical.costmodel import DesignCostModel
from repro.physical.timing import TimingModel
from repro.resilience.base import TechniqueDescriptor
from repro.resilience.circuit import harden_remaining_with_lhl
from repro.resilience.design import ProtectedDesign


@dataclass(frozen=True)
class TrainValidateSplit:
    """One train/validate partition of the benchmark list."""

    training: tuple[str, ...]
    validation: tuple[str, ...]


def make_splits(benchmarks: list[str], training_size: int = 4, count: int = 50,
                seed: int = 0) -> list[TrainValidateSplit]:
    """Random train/validate splits (the paper uses 50 splits of 4 vs 7)."""
    rng = random.Random(seed)
    splits = []
    for _ in range(count):
        training = tuple(rng.sample(benchmarks, min(training_size, len(benchmarks))))
        validation = tuple(b for b in benchmarks if b not in training)
        splits.append(TrainValidateSplit(training=training, validation=validation))
    return splits


@dataclass
class TrainValidateResult:
    """Trained vs validated improvement for one configuration."""

    target: float
    trained_sdc: float
    validated_sdc: float
    trained_due: float
    validated_due: float

    @property
    def sdc_underestimate_pct(self) -> float:
        if self.trained_sdc == 0:
            return 0.0
        return 100.0 * (self.validated_sdc - self.trained_sdc) / self.trained_sdc

    @property
    def due_underestimate_pct(self) -> float:
        if self.trained_due == 0:
            return 0.0
        return 100.0 * (self.validated_due - self.trained_due) / self.trained_due


def paired_p_value(differences: list[float]) -> float:
    """Two-sided p-value of a paired comparison (normal approximation).

    Used to report how likely trained and validated improvements agree
    (Tables 23/24's p-value column).
    """
    n = len(differences)
    if n < 2:
        return 1.0
    mean = ordered_sum(differences) / n
    variance = ordered_sum((d - mean) ** 2 for d in differences) / (n - 1)
    if variance == 0:
        return 1.0 if mean == 0 else 0.0
    standard_error = (variance / n) ** 0.5
    z = mean / standard_error
    return 2.0 * (1.0 - NormalDist().cdf(abs(z)))


class BenchmarkDependenceStudy:
    """Train/validate analysis for selective hardening and standalone techniques."""

    def __init__(self, registry: FlipFlopRegistry, vulnerability: VulnerabilityMap,
                 timing: TimingModel | None = None, seed: int = 0):
        self.registry = registry
        self.vulnerability = vulnerability
        self.timing = timing or TimingModel(registry)
        self.seed = seed

    # ------------------------------------------------------------------ selective hardening
    def evaluate_selective(self, target: float, split: TrainValidateSplit,
                           recovery: RecoveryKind = RecoveryKind.NONE,
                           with_lhl: bool = False,
                           cost_model: DesignCostModel | None = None):
        """Train a selective-hardening design and validate it on unseen benchmarks.

        Returns a tuple ``(TrainValidateResult, CostReport | None)``; the cost
        report is included when a cost model is supplied (for Tables 25/26).
        """
        planner = SelectiveHardeningPlanner(self.registry, self.vulnerability,
                                            self.timing, benchmarks=list(split.training))
        result = planner.plan(ResilienceTarget(sdc=target), recovery=recovery,
                              policy=SelectionPolicy(allow_parity=False))
        design = result.design
        if with_lhl:
            harden_remaining_with_lhl(design.hardening,
                                      range(self.registry.total_flip_flops))
        trained = design.estimate_improvement(self.vulnerability, list(split.training))
        validated = design.estimate_improvement(self.vulnerability, list(split.validation))
        outcome = TrainValidateResult(target=target,
                                      trained_sdc=trained.sdc_improvement,
                                      validated_sdc=validated.sdc_improvement,
                                      trained_due=trained.due_improvement,
                                      validated_due=validated.due_improvement)
        cost = design.cost(cost_model) if cost_model is not None else None
        return outcome, cost

    # ------------------------------------------------------------------ standalone high-level techniques
    def evaluate_high_level(self, technique: TechniqueDescriptor,
                            splits: list[TrainValidateSplit]) -> TrainValidateResult:
        """Trained vs validated improvement of a standalone high-level technique.

        High-level techniques cannot be tuned to a target, so train/validate
        simply compares the improvement estimated over the training
        benchmarks with the one over the validation benchmarks, averaged over
        splits (Tables 23/24).
        """
        design = ProtectedDesign(registry=self.registry, high_level=[technique])
        trained_sdc, validated_sdc, trained_due, validated_due = [], [], [], []
        for split in splits:
            trained = design.estimate_improvement(self.vulnerability, list(split.training))
            validated = design.estimate_improvement(self.vulnerability,
                                                    list(split.validation))
            trained_sdc.append(trained.sdc_improvement)
            validated_sdc.append(validated.sdc_improvement)
            trained_due.append(trained.due_improvement)
            validated_due.append(validated.due_improvement)
        count = len(splits) or 1
        return TrainValidateResult(
            target=0.0,
            trained_sdc=ordered_sum(trained_sdc) / count,
            validated_sdc=ordered_sum(validated_sdc) / count,
            trained_due=ordered_sum(trained_due) / count,
            validated_due=ordered_sum(validated_due) / count)
