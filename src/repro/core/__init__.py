"""The CLEAR framework core: metrics, heuristics, combinations, exploration."""

from repro.core.combinations import (
    CrossLayerCombination,
    combination_counts,
    enumerate_combinations,
    total_combination_count,
)
from repro.core.exploration import (
    CostedEvaluation,
    CrossLayerExplorer,
    EvaluatedDesign,
    ExplorationRecord,
    ExplorationShard,
    ExplorationSpec,
    high_level_descriptor,
)
from repro.core.framework import ClearFramework
from repro.core.heuristics import (
    LowLevelChoice,
    SelectionPolicy,
    SelectiveHardeningPlanner,
    SelectiveHardeningResult,
    choose_technique,
)
from repro.core.improvement import (
    MAX_TARGET,
    ResilienceTarget,
    STANDARD_TARGETS,
    due_improvement,
    due_targets,
    joint_targets,
    sdc_improvement,
    sdc_targets,
)
from repro.core.schedule import CostedPlan, ProtectionSchedule, ScheduleStep

__all__ = [
    "CostedEvaluation",
    "CostedPlan",
    "CrossLayerCombination",
    "combination_counts",
    "enumerate_combinations",
    "total_combination_count",
    "CrossLayerExplorer",
    "EvaluatedDesign",
    "ExplorationRecord",
    "ExplorationShard",
    "ExplorationSpec",
    "high_level_descriptor",
    "ClearFramework",
    "LowLevelChoice",
    "SelectionPolicy",
    "SelectiveHardeningPlanner",
    "SelectiveHardeningResult",
    "ProtectionSchedule",
    "ScheduleStep",
    "choose_technique",
    "MAX_TARGET",
    "ResilienceTarget",
    "STANDARD_TARGETS",
    "due_improvement",
    "due_targets",
    "joint_targets",
    "sdc_improvement",
    "sdc_targets",
]
