"""Logic-level parity checking.

XOR-tree parity predictors/checkers detect flip-flop soft errors (Sec. 2.4).
The cost of parity depends strongly on how flip-flops are grouped; the paper
evaluates five grouping heuristics (Table 7) and settles on the "optimized"
strategy of Fig. 3: 32-bit unpipelined groups where timing slack allows,
16-bit pipelined groups elsewhere, both formed within functional units
(locality) to keep wiring short.  Layouts additionally enforce a minimum
spacing between members of the same group so that a single strike (SEMU)
cannot flip two bits checked by the same parity tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, unique

from repro.faultinjection.vulnerability import VulnerabilityMap
from repro.microarch.flipflop import FlipFlopRegistry
from repro.physical.costmodel import DesignCostModel, ParityGroupPlan
from repro.physical.timing import TimingModel

UNPIPELINED_GROUP_SIZE = 32
PIPELINED_GROUP_SIZE = 16


@unique
class ParityHeuristic(Enum):
    """Parity-group formation heuristics evaluated in Table 7."""

    GROUP_SIZE = "group-size"
    VULNERABILITY = "vulnerability"
    LOCALITY = "locality"
    TIMING = "timing"
    OPTIMIZED = "optimized"


@dataclass(frozen=True)
class ParityGroup:
    """A set of flip-flops checked by one parity predictor/checker pair."""

    members: tuple[int, ...]
    pipelined: bool
    local: bool

    def as_plan(self) -> ParityGroupPlan:
        return ParityGroupPlan(members=self.members, pipelined=self.pipelined,
                               local=self.local)


def _chunk(indices: list[int], size: int) -> list[list[int]]:
    return [indices[start:start + size] for start in range(0, len(indices), size)]


def _unit_of(registry: FlipFlopRegistry, flat_index: int) -> str:
    return registry.unit_of(flat_index)


class ParityPlanner:
    """Builds parity groups over a set of flip-flops with a chosen heuristic."""

    def __init__(self, registry: FlipFlopRegistry, timing: TimingModel,
                 vulnerability: VulnerabilityMap | None = None):
        self.registry = registry
        self.timing = timing
        self.vulnerability = vulnerability

    # ------------------------------------------------------------------ public
    def build_groups(self, flip_flops: list[int], heuristic: ParityHeuristic,
                     group_size: int = PIPELINED_GROUP_SIZE,
                     benchmarks: list[str] | None = None) -> list[ParityGroup]:
        """Group ``flip_flops`` according to ``heuristic``."""
        if not flip_flops:
            return []
        if heuristic is ParityHeuristic.OPTIMIZED:
            return self._optimized_groups(flip_flops)
        if heuristic is ParityHeuristic.GROUP_SIZE:
            ordered = sorted(flip_flops)
            local = False
        elif heuristic is ParityHeuristic.VULNERABILITY:
            ordered = self._order_by_vulnerability(flip_flops, benchmarks)
            local = False
        elif heuristic is ParityHeuristic.LOCALITY:
            return self._locality_groups(flip_flops, group_size, pipelined=None)
        elif heuristic is ParityHeuristic.TIMING:
            ordered = sorted(flip_flops, key=lambda i: (-self.timing.slack_levels(i), i))
            local = False
        else:  # pragma: no cover - exhaustive enum
            raise ValueError(f"unknown heuristic {heuristic}")
        groups = []
        for members in _chunk(ordered, group_size):
            pipelined = not self.timing.group_supports_unpipelined(members, group_size)
            groups.append(ParityGroup(tuple(members), pipelined=pipelined, local=local))
        return groups

    # ------------------------------------------------------------------ helpers
    def _order_by_vulnerability(self, flip_flops: list[int],
                                benchmarks: list[str] | None) -> list[int]:
        if self.vulnerability is None:
            return sorted(flip_flops)
        p_sdc, p_due = self.vulnerability.probabilities(benchmarks)
        return sorted(flip_flops, key=lambda i: (-(p_sdc[i] + p_due[i]), i))

    def _locality_groups(self, flip_flops: list[int], group_size: int,
                         pipelined: bool | None) -> list[ParityGroup]:
        # Keep in sync with ProtectionSchedule._bucket_group_sizes
        # (repro/core/schedule.py), which reproduces this chunking from
        # member counts for the incremental cost curves; the equivalence is
        # property-tested in tests/test_exploration.py.
        groups: list[ParityGroup] = []
        by_unit: dict[str, list[int]] = {}
        for flat_index in sorted(flip_flops):
            by_unit.setdefault(_unit_of(self.registry, flat_index), []).append(flat_index)
        for members_in_unit in by_unit.values():
            for members in _chunk(members_in_unit, group_size):
                if pipelined is None:
                    group_pipelined = not self.timing.group_supports_unpipelined(
                        members, group_size)
                else:
                    group_pipelined = pipelined
                groups.append(ParityGroup(tuple(members), pipelined=group_pipelined,
                                          local=True))
        return groups

    def _optimized_groups(self, flip_flops: list[int]) -> list[ParityGroup]:
        """Fig. 3: 32-bit unpipelined where slack allows, 16-bit pipelined else.

        Flip-flops are first split by whether they can absorb a 32-bit
        predictor tree, then grouped by functional unit (locality) within
        each class.
        """
        with_slack = [i for i in flip_flops
                      if self.timing.supports_unpipelined(i, UNPIPELINED_GROUP_SIZE)]
        slack_set = set(with_slack)
        without_slack = [i for i in flip_flops if i not in slack_set]
        groups = self._locality_groups(with_slack, UNPIPELINED_GROUP_SIZE, pipelined=False)
        groups.extend(self._locality_groups(without_slack, PIPELINED_GROUP_SIZE,
                                            pipelined=True))
        return groups

    # ------------------------------------------------------------------ costs
    def cost_of(self, groups: list[ParityGroup], cost_model: DesignCostModel):
        """Physical cost of a parity plan."""
        return cost_model.parity_cost([group.as_plan() for group in groups])

    def compare_heuristics(self, flip_flops: list[int], cost_model: DesignCostModel,
                           benchmarks: list[str] | None = None) -> dict[str, dict[str, float]]:
        """Reproduce the Table 7 comparison over all heuristics/group sizes."""
        rows: dict[str, dict[str, float]] = {}
        for size in (4, 8, 16, 32):
            groups = self.build_groups(flip_flops, ParityHeuristic.VULNERABILITY,
                                       group_size=size, benchmarks=benchmarks)
            report = self.cost_of(groups, cost_model)
            rows[f"vulnerability-{size}"] = {"area_pct": report.area_pct,
                                             "power_pct": report.power_pct,
                                             "energy_pct": report.energy_pct}
        for heuristic, label in ((ParityHeuristic.LOCALITY, "locality-16"),
                                 (ParityHeuristic.TIMING, "timing-16")):
            groups = self.build_groups(flip_flops, heuristic,
                                       group_size=PIPELINED_GROUP_SIZE,
                                       benchmarks=benchmarks)
            report = self.cost_of(groups, cost_model)
            rows[label] = {"area_pct": report.area_pct, "power_pct": report.power_pct,
                           "energy_pct": report.energy_pct}
        optimized = self.build_groups(flip_flops, ParityHeuristic.OPTIMIZED)
        report = self.cost_of(optimized, cost_model)
        rows["optimized"] = {"area_pct": report.area_pct, "power_pct": report.power_pct,
                             "energy_pct": report.energy_pct}
        return rows

    def added_flip_flops(self, groups: list[ParityGroup]) -> int:
        """Parity and pipeline flip-flops added by a parity plan (for γ)."""
        added = 0
        for group in groups:
            added += 1  # parity flip-flop
            if group.pipelined:
                added += max(1, len(group.members) // 8)
        return added
