"""Tests for the incremental Pareto exploration engine.

Covers the invariants the exploration refactor rests on:

1. prefix-schedule planning is bit-identical to per-target replanning across
   randomized targets, policies and recoveries on both cores (hypothesis);
2. the incremental explorer matches the replan-from-scratch reference
   evaluation, including non-tunable and high-level combinations;
3. sharded record streaming is independent of worker count and sharding;
4. ParetoFrontier dominance, pruning and order-independence (labels
   included, via the deterministic coordinate tie-break);
5. the incumbent/lower-bound pruned cheapest-combination search returns the
   exhaustive search's answer;
6. the design-free costed evaluation path (incremental cost curves) is
   bit-identical to materialising and costing the design;
7. measured-CPI calibration of synthetic cycle budgets.
"""

from __future__ import annotations

import dataclasses
import json
from enum import Enum

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import load_frontier, save_frontier
from repro.analysis.pareto import ParetoFrontier, ParetoPoint
from repro.core import (
    CrossLayerExplorer,
    ResilienceTarget,
    SelectionPolicy,
    enumerate_combinations,
    due_targets,
    joint_targets,
    sdc_targets,
)
from repro.core.combinations import EDS, LEAP_DICE, PARITY
from repro.core.exploration import high_level_descriptor, high_level_descriptors
from repro.core.heuristics import SelectiveHardeningPlanner, choose_technique
from repro.physical import RecoveryKind
from repro.resilience.logic_parity import UNPIPELINED_GROUP_SIZE
from repro.workloads.synthesis import (
    BUILTIN_PROFILES,
    synthesize_calibrated_workload,
    synthesize_workload,
)
from repro.workloads.synthesis.calibration import calibrate_cpi

_TARGET_VALUES = (1.5, 2.0, 5.0, 17.3, 50.0, 500.0, 1e6, float("inf"))
_RECOVERIES = {
    "InO": (RecoveryKind.NONE, RecoveryKind.FLUSH, RecoveryKind.IR, RecoveryKind.EIR),
    "OoO": (RecoveryKind.NONE, RecoveryKind.ROB, RecoveryKind.IR, RecoveryKind.EIR),
}
_HIGH_LEVEL_POOLS = {
    "InO": ("dfc", "assertions", "cfcss", "eddi", "abft-correction"),
    "OoO": ("dfc", "monitor-core", "abft-detection"),
}


def _assert_results_identical(incremental, reference):
    """Planner outputs must match bit-for-bit, designs included."""
    assert incremental.protected_count == reference.protected_count
    assert incremental.achieved_sdc == reference.achieved_sdc
    assert incremental.achieved_due == reference.achieved_due
    assert (incremental.design.hardening.assignments
            == reference.design.hardening.assignments)
    assert incremental.design.parity_groups == reference.design.parity_groups
    assert incremental.design.eds_flip_flops == reference.design.eds_flip_flops
    assert incremental.design.recovery == reference.design.recovery
    assert incremental.design.gamma() == reference.design.gamma()


@st.composite
def _targets(draw):
    kind = draw(st.sampled_from(("sdc", "due", "joint")))
    sdc = draw(st.sampled_from(_TARGET_VALUES)) if kind in ("sdc", "joint") else None
    due = draw(st.sampled_from(_TARGET_VALUES)) if kind in ("due", "joint") else None
    return ResilienceTarget(sdc=sdc, due=due)


class TestScheduleEquivalence:
    """Prefix schedules reproduce per-target replanning exactly."""

    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_plan_matches_replanning(self, data, ino_framework, ooo_framework):
        framework = data.draw(st.sampled_from((ino_framework, ooo_framework)),
                              label="framework")
        family = "InO" if framework is ino_framework else "OoO"
        target = data.draw(_targets(), label="target")
        recovery = data.draw(st.sampled_from(_RECOVERIES[family]), label="recovery")
        policy = SelectionPolicy(
            allow_hardening=data.draw(st.booleans(), label="hardening"),
            allow_parity=data.draw(st.booleans(), label="parity"),
            allow_eds=data.draw(st.booleans(), label="eds"))
        names = data.draw(st.lists(st.sampled_from(_HIGH_LEVEL_POOLS[family]),
                                   unique=True, max_size=3), label="high_level")
        high_level = [high_level_descriptor(name) for name in names]
        planner = SelectiveHardeningPlanner(framework.core.registry,
                                            framework.vulnerability, framework.timing,
                                            framework.benchmark_names())
        incremental = planner.plan(target, recovery=recovery, policy=policy,
                                   high_level=high_level)
        reference = planner.plan_replanning(target, recovery=recovery, policy=policy,
                                            high_level=high_level)
        _assert_results_identical(incremental, reference)

    def test_schedule_is_cached_and_reused(self, ino_framework):
        planner = SelectiveHardeningPlanner(ino_framework.core.registry,
                                            ino_framework.vulnerability,
                                            ino_framework.timing)
        first = planner.schedule_for(recovery=RecoveryKind.FLUSH)
        second = planner.schedule_for(recovery=RecoveryKind.FLUSH)
        assert first is second
        assert planner.schedule_for(recovery=RecoveryKind.NONE) is not first

    def test_improvement_curve_shape(self, ino_framework):
        planner = SelectiveHardeningPlanner(ino_framework.core.registry,
                                            ino_framework.vulnerability,
                                            ino_framework.timing)
        schedule = planner.schedule_for(recovery=RecoveryKind.FLUSH)
        curve = schedule.improvement_curve()
        assert len(curve) == schedule.effective_length + 1
        assert curve[0][0] == 0
        # The final point answers any unreachable finite target.
        assert schedule.prefix_for(ResilienceTarget(sdc=1e18)) == schedule.effective_length


class TestHeuristicOneTables:
    """The planner's per-site unit/slack tables feed the one Heuristic 1."""

    @pytest.fixture(params=("ino", "ooo"))
    def framework(self, request, ino_framework, ooo_framework):
        return ino_framework if request.param == "ino" else ooo_framework

    @staticmethod
    def _planner(framework):
        return SelectiveHardeningPlanner(framework.core.registry,
                                         framework.vulnerability, framework.timing,
                                         framework.benchmark_names())

    def test_tables_match_registry_and_timing(self, framework):
        registry = framework.core.registry
        units, has_slack = self._planner(framework).site_tables()
        total = range(registry.total_flip_flops)
        assert units == [registry.unit_of(i) for i in total]
        assert has_slack == [framework.timing.supports_unpipelined(
            i, UNPIPELINED_GROUP_SIZE) for i in total]

    def test_schedule_choices_match_choose_technique(self, framework):
        """Every (policy, recovery) context of the 586-combination sweep."""
        registry = framework.core.registry
        planner = self._planner(framework)
        contexts = {}
        for combination in enumerate_combinations(framework.explorer.family):
            if combination.has_tunable_technique:
                policy = SelectionPolicy(
                    allow_hardening=LEAP_DICE in combination.techniques,
                    allow_parity=PARITY in combination.techniques,
                    allow_eds=EDS in combination.techniques)
                contexts[(policy.cache_key(), combination.recovery)] = policy
        assert contexts
        for (_, recovery), policy in contexts.items():
            schedule = planner.schedule_for(recovery=recovery, policy=policy)
            assert len(schedule.steps) == registry.total_flip_flops
            for step in schedule.steps:
                assert step.choice is choose_technique(
                    step.flat_index, registry, framework.timing, recovery, policy)


class TestSharedStepTables:
    """Schedules sharing step tables answer as if each were built alone.

    One planner builds the schedule of every tunable (policy, recovery,
    high-level) context of the sweep pool, in pool order, so most of them
    share a step table with schedules built before them.
    """

    @staticmethod
    def _contexts(family):
        contexts = {}
        for combination in enumerate_combinations(family):
            if not combination.has_tunable_technique:
                continue
            policy = SelectionPolicy(
                allow_hardening=LEAP_DICE in combination.techniques,
                allow_parity=PARITY in combination.techniques,
                allow_eds=EDS in combination.techniques)
            high_level = high_level_descriptors(combination)
            key = (policy.cache_key(), combination.recovery,
                   tuple(technique.name for technique in high_level))
            contexts.setdefault(key, (combination.recovery, policy, high_level))
        return list(contexts.values())

    @staticmethod
    def _planner(framework):
        return SelectiveHardeningPlanner(framework.core.registry,
                                         framework.vulnerability, framework.timing,
                                         framework.benchmark_names())

    @pytest.fixture(scope="class")
    def shared(self, ino_framework, ooo_framework):
        built = {}
        for family, framework in (("InO", ino_framework), ("OoO", ooo_framework)):
            planner = self._planner(framework)
            contexts = self._contexts(family)
            schedules = [planner.schedule_for(recovery, policy, high_level)
                         for recovery, policy, high_level in contexts]
            assert len({id(schedule.table) for schedule in schedules}) < len(schedules)
            built[family] = (framework, planner, contexts)
        return built

    @settings(max_examples=16, deadline=None)
    @given(data=st.data())
    def test_shared_schedules_match_replanning(self, data, shared):
        family = data.draw(st.sampled_from(("InO", "InO", "InO", "OoO")),
                           label="family")
        framework, planner, contexts = shared[family]
        recovery, policy, high_level = data.draw(st.sampled_from(contexts),
                                                 label="context")
        targets = data.draw(st.lists(_targets(), min_size=3, max_size=3),
                            label="targets")
        schedule = planner.schedule_for(recovery, policy, high_level)
        fresh = self._planner(framework)
        cost_model = framework.cost_model
        for target in targets:
            reference = fresh.plan_replanning(target, recovery=recovery,
                                              policy=policy, high_level=high_level)
            _assert_results_identical(
                planner.plan(target, recovery=recovery, policy=policy,
                             high_level=high_level), reference)
            costed = schedule.plan_costed(target, cost_model)
            assert costed.cost == reference.design.cost(cost_model)
            assert costed.protected_count == reference.protected_count
            assert costed.achieved_sdc == reference.achieved_sdc
            assert costed.achieved_due == reference.achieved_due

    def test_every_ino_context_matches_an_unshared_schedule(self, shared):
        framework, planner, contexts = shared["InO"]
        cost_model = framework.cost_model
        for recovery, policy, high_level in contexts:
            schedule = planner.schedule_for(recovery, policy, high_level)
            alone = self._planner(framework).schedule_for(recovery, policy, high_level)
            assert schedule.steps == alone.steps
            assert schedule._effective == alone._effective
            assert schedule.improvement_curve() == alone.improvement_curve()
            for target in sdc_targets():
                assert (schedule.plan_costed(target, cost_model)
                        == alone.plan_costed(target, cost_model))


def _plain(value) -> bool:
    """Every number inside ``value`` is a builtin ``int``, ``float`` or ``bool``.

    numpy scalars subclass ``float`` but ``repr`` differently (numpy 2), so
    the check is on the exact type.
    """
    if dataclasses.is_dataclass(value):
        return all(_plain(getattr(value, field.name))
                   for field in dataclasses.fields(value))
    if isinstance(value, (list, tuple, set, frozenset)):
        return all(map(_plain, value))
    if isinstance(value, dict):
        return _plain(list(value)) and _plain(list(value.values()))
    if value is None or isinstance(value, (str, Enum)):
        return True
    return type(value) in (int, float, bool)


class TestPlainPythonBoundary:
    """Numbers leave the array-backed schedules as builtin Python values."""

    _TARGETS = (sdc_targets() + due_targets() + joint_targets()
                + [ResilienceTarget(sdc=1e18)])

    @pytest.fixture(scope="class")
    def pool(self):
        combinations = enumerate_combinations("InO")
        tunable = [c for c in combinations if c.has_tunable_technique]
        return tunable[::9] + [c for c in combinations if not c.has_tunable_technique][:3]

    def test_schedule_answers_are_builtin(self, ino_framework, ooo_framework):
        for framework in (ino_framework, ooo_framework):
            planner = SelectiveHardeningPlanner(framework.core.registry,
                                                framework.vulnerability,
                                                framework.timing,
                                                framework.benchmark_names())
            schedule = planner.schedule_for(recovery=RecoveryKind.IR)
            assert _plain(schedule.improvement_curve())
            assert _plain(schedule.cost_curve(framework.cost_model)[::97])
            for target in self._TARGETS:
                assert type(schedule.prefix_for(target)) is int
                assert _plain(schedule.plan_costed(target, framework.cost_model))
                result = schedule.plan(target)
                assert _plain((result.protected_count, result.achieved_sdc,
                               result.achieved_due))
                assert _plain(result.design.hardening.assignments)
                assert _plain(result.design.eds_flip_flops)
                assert _plain([group.members for group in result.design.parity_groups])

    def test_stream_records_are_builtin(self, ino_framework, pool):
        records = list(ino_framework.explorer.stream_records(sdc_targets(), pool))
        assert len(records) == 5 * len(pool)
        assert all(_plain(record) for record in records)

    def test_frontier_store_round_trip_is_exact(self, ino_framework, pool, tmp_path):
        frontier = ino_framework.explorer.explore_frontier(sdc_targets(), pool)
        first = save_frontier(tmp_path / "a.json", frontier)
        stored = load_frontier(first).frontier
        coords = lambda f: [(p.improvement, p.energy_pct, p.area_pct,
                             p.exec_time_pct, p.label) for p in f.points()]
        assert coords(stored) == coords(frontier)
        assert _plain(coords(stored)) and _plain(coords(frontier))
        assert stored.seen == frontier.seen == 5 * len(pool)
        second = save_frontier(tmp_path / "b.json", stored)
        assert json.loads(first.read_text())["points"] == \
               json.loads(second.read_text())["points"]


class TestExplorerEquivalence:
    """The incremental explorer matches replan-from-scratch evaluation."""

    @pytest.fixture(scope="class")
    def sample(self):
        combos = enumerate_combinations("InO")
        return combos[::31]  # tunable, fixed, ABFT and recovery variants

    def test_evaluate_matches_reference(self, ino_framework, sample):
        explorer = ino_framework.explorer
        for combination in sample:
            for target in (ResilienceTarget(sdc=5), ResilienceTarget(sdc=float("inf"))):
                incremental = explorer.evaluate(combination, target)
                reference = explorer.evaluate_reference(combination, target)
                assert incremental.cost == reference.cost
                assert incremental.sdc_improvement == reference.sdc_improvement
                assert incremental.due_improvement == reference.due_improvement
                assert incremental.protected_flip_flops == reference.protected_flip_flops

    def test_costed_evaluation_matches_materialised(self, ino_framework, sample):
        """The incremental cost curves reproduce design costing bit-for-bit."""
        explorer = ino_framework.explorer
        targets = (ResilienceTarget(sdc=5), ResilienceTarget(due=17.3),
                   ResilienceTarget(sdc=50, due=10),
                   ResilienceTarget(sdc=float("inf")))
        for combination in sample:
            for target in targets:
                costed = explorer.evaluate_costed(combination, target)
                materialised = explorer.evaluate(combination, target)
                assert costed.cost == materialised.cost
                assert costed.sdc_improvement == materialised.sdc_improvement
                assert costed.due_improvement == materialised.due_improvement
                assert costed.protected_flip_flops == materialised.protected_flip_flops
                assert costed.meets_target == materialised.meets_target

    def test_costed_evaluation_matches_materialised_ooo(self, ooo_framework):
        explorer = ooo_framework.explorer
        for combination in enumerate_combinations("OoO")[::67]:
            for target in (ResilienceTarget(sdc=50), ResilienceTarget(sdc=float("inf"))):
                costed = explorer.evaluate_costed(combination, target)
                materialised = explorer.evaluate(combination, target)
                assert costed.cost == materialised.cost
                assert costed.sdc_improvement == materialised.sdc_improvement

    def test_cost_curve_aligns_with_improvement_curve(self, ino_framework):
        """Curve index k costs the same design the improvements describe."""
        planner = SelectiveHardeningPlanner(ino_framework.core.registry,
                                            ino_framework.vulnerability,
                                            ino_framework.timing,
                                            ino_framework.benchmark_names())
        schedule = planner.schedule_for(recovery=RecoveryKind.FLUSH)
        cost_model = ino_framework.cost_model
        curve = schedule.cost_curve(cost_model)
        assert len(curve) == schedule.effective_length + 1
        assert curve[0][1].area_pct >= 0.0
        # Spot-check three prefixes against full materialisation.
        from repro.core.schedule import materialise_design

        for prefix in (0, schedule.effective_length // 2, schedule.effective_length):
            report = schedule.cost_at(prefix, cost_model)
            hardened, parity, eds = schedule._membership(schedule._effective[:prefix])
            design = materialise_design(schedule.registry, schedule.timing,
                                        schedule.vulnerability, hardened, parity,
                                        eds, schedule.recovery,
                                        list(schedule.high_level), "spot")
            assert report == design.cost(cost_model)

    def test_fixed_combinations_cached_across_targets(self, ino_framework):
        explorer = ino_framework.explorer
        combination = explorer.named_combination(("dfc",))
        first = explorer.evaluate(combination, ResilienceTarget(sdc=2))
        second = explorer.evaluate(combination, ResilienceTarget(sdc=500))
        assert first.design is second.design          # one design, any target
        assert first.sdc_improvement == second.sdc_improvement

    def test_stream_records_independent_of_workers(self, ino_framework):
        explorer = ino_framework.explorer
        combos = enumerate_combinations("InO")[:12]
        targets = sdc_targets()[:3]
        key = lambda r: (r.combination_index, r.target_index)
        serial = sorted(explorer.stream_records(targets, combos, workers=1), key=key)
        sharded = sorted(explorer.stream_records(targets, combos, workers=2),
                         key=key)
        assert serial == sharded
        assert len(serial) == len(combos) * len(targets)

    def test_shard_combinations_covers_pool(self, ino_framework, monkeypatch):
        """The sharded sweep cuts the pool into in-order guided slices that
        cover every combination exactly once (an empty pool, no shard)."""
        import repro.core.exploration as exploration
        from repro.engine import SerialExecutor

        seen = []

        class _RecordingExecutor(SerialExecutor):
            def __init__(self, workers):
                super().__init__()

            def stream(self, payload, shards, fn):
                seen.append(list(shards))
                return super().stream(payload, shards, fn)

        monkeypatch.setattr(exploration, "ParallelExecutor", _RecordingExecutor)
        explorer = ino_framework.explorer
        combos = enumerate_combinations("InO")[:17]
        records = list(explorer.stream_records(sdc_targets()[:1], combos,
                                               workers=2))
        shards = seen.pop()
        indices = [i for shard in shards for i in shard.combination_indices]
        assert indices == list(range(17))
        assert [shard.index for shard in shards] == list(range(len(shards)))
        assert len(shards) > 1
        assert sorted(r.combination_index for r in records) == list(range(17))
        assert list(explorer.stream_records(sdc_targets()[:1], [],
                                            workers=4)) == []
        assert seen.pop() == []

    def test_cheapest_pruned_matches_exhaustive(self, ino_framework):
        explorer = ino_framework.explorer
        combos = enumerate_combinations("InO")[::7]
        for target in (ResilienceTarget(sdc=5), ResilienceTarget(sdc=50),
                       ResilienceTarget(sdc=1e18)):
            pruned = explorer.cheapest_meeting_target(target, combos)
            exhaustive = explorer.cheapest_meeting_target(target, combos, prune=False)
            if exhaustive is None:
                assert pruned is None
            else:
                assert pruned is not None
                assert pruned.combination == exhaustive.combination
                assert pruned.cost == exhaustive.cost

    def test_lower_bound_is_a_lower_bound(self, ino_framework):
        explorer = ino_framework.explorer
        for combination in enumerate_combinations("InO")[::43]:
            bound = explorer.fixed_energy_lower_bound(combination)
            actual = explorer.evaluate(combination, ResilienceTarget(sdc=50))
            assert bound <= actual.cost.energy_pct + 1e-9

    def test_high_level_descriptors_are_singletons(self):
        assert high_level_descriptor("dfc") is high_level_descriptor("dfc")

    def test_explore_frontier_dominance(self, ino_framework):
        explorer = ino_framework.explorer
        combos = enumerate_combinations("InO")[:20]
        frontier = explorer.explore_frontier(sdc_targets()[:3], combos, workers=1)
        points = frontier.points()
        assert 0 < len(points) <= frontier.seen == 60
        for a in points:
            assert not any(b.dominates(a) for b in points if b is not a)


class TestParetoFrontier:
    def _point(self, improvement, energy, area=1.0, exec_time=0.0, label=""):
        return ParetoPoint(improvement=improvement, energy_pct=energy,
                           area_pct=area, exec_time_pct=exec_time, label=label)

    def test_dominance(self):
        better = self._point(50, 2.0)
        worse = self._point(10, 5.0)
        assert better.dominates(worse)
        assert not worse.dominates(better)
        # Equal coordinates dominate in neither direction.
        assert not better.dominates(self._point(50, 2.0))

    def test_incomparable_points_coexist(self):
        frontier = ParetoFrontier()
        assert frontier.add(self._point(50, 5.0))
        assert frontier.add(self._point(10, 1.0))   # cheaper but weaker
        assert len(frontier) == 2

    def test_dominated_points_are_pruned(self):
        frontier = ParetoFrontier()
        frontier.add(self._point(10, 5.0, label="old"))
        assert frontier.add(self._point(50, 2.0, label="new"))
        assert len(frontier) == 1 and frontier.points()[0].label == "new"
        assert not frontier.add(self._point(5, 9.0))
        assert frontier.seen == 3

    def test_duplicates_folded_and_order_independent(self):
        points = [self._point(50, 2.0), self._point(50, 2.0),
                  self._point(10, 1.0), self._point(10, 5.0), self._point(60, 9.0)]
        forward, backward = ParetoFrontier(), ParetoFrontier()
        forward.update(points)
        backward.update(list(reversed(points)))
        coords = lambda f: sorted((p.improvement, p.energy_pct) for p in f)
        assert coords(forward) == coords(backward) == [(10, 1.0), (50, 2.0), (60, 9.0)]

    def test_coordinate_ties_keep_smallest_label(self):
        """Exact-coordinate duplicates fold to the smallest label, both ways."""
        for order in ((("b", "a"), ("a", "b"))):
            frontier = ParetoFrontier()
            for label in order:
                frontier.add(self._point(50, 2.0, label=label))
            assert [p.label for p in frontier.points()] == ["a"]
            assert frontier.seen == 2

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_frontier_invariant_under_insertion_order(self, data):
        """The frontier -- labels and payloads included -- is a pure function
        of the offered point *set*, not of shard completion order.

        Regression: the old "first one wins" duplicate folding leaked the
        insertion order into the surviving label under workers=N streaming.
        """
        coordinate = st.sampled_from((1.0, 2.0, 5.0, 50.0))
        base_points = data.draw(st.lists(
            st.builds(lambda i, e, label: ParetoPoint(
                improvement=i, energy_pct=e, area_pct=1.0, exec_time_pct=0.0,
                label=label, payload=("payload", label)),
                coordinate, coordinate, st.sampled_from("abcdef")),
            min_size=1, max_size=8), label="points")
        permutation = data.draw(st.permutations(base_points), label="order")
        reference, permuted = ParetoFrontier(), ParetoFrontier()
        reference.update(base_points)
        permuted.update(permutation)
        describe = lambda f: [(p.improvement, p.energy_pct, p.label, p.payload)
                              for p in f.points()]
        assert describe(reference) == describe(permuted)
        assert reference.seen == permuted.seen == len(base_points)

    def test_cheapest_at_least_and_envelope(self):
        frontier = ParetoFrontier()
        frontier.update([self._point(10, 1.0), self._point(50, 2.0),
                         self._point(500, 8.0)])
        assert frontier.cheapest_at_least(40).energy_pct == 2.0
        assert frontier.cheapest_at_least(1000) is None
        envelope = frontier.envelope()
        assert envelope == sorted(envelope)


class TestCalibratedMapDeterminism:
    def test_map_identical_across_hash_randomization(self):
        """The calibrated map must not depend on per-process str-hash salt.

        Regression test: per-benchmark RNG streams were once derived from
        ``hash((seed, benchmark))``, which silently re-rolled the whole
        vulnerability population (and every table built on it) each run.
        """
        import os
        import subprocess
        import sys
        from pathlib import Path

        code = (
            "from repro.faultinjection.calibrated import CalibratedVulnerabilityModel\n"
            "from repro.microarch import InOrderCore\n"
            "registry = InOrderCore().registry\n"
            "model = CalibratedVulnerabilityModel(registry, ['a', 'b'], seed=11)\n"
            "v = model.build_map()\n"
            "names = ['a', 'b']\n"
            "print(repr(sum(v.sdc_probability(i, names)\n"
            "               for i in range(registry.total_flip_flops))))\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        outputs = []
        for hash_seed in ("1", "271828"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            result = subprocess.run([sys.executable, "-c", code], env=env,
                                    capture_output=True, text=True, check=True)
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]


class TestCycleCalibration:
    def test_calibration_reduces_cycle_error(self):
        # control_heavy misses its budget by >10% with the fixed CPI estimate.
        profile = BUILTIN_PROFILES["control_heavy"]
        calibrated = synthesize_calibrated_workload(profile, seed=2016)
        assert calibrated.relative_error <= 0.10
        assert calibrated.effective_cpi != pytest.approx(3.0)

    def test_calibration_is_deterministic(self):
        profile = BUILTIN_PROFILES["mixed"]
        first = synthesize_calibrated_workload(profile, seed=5)
        second = synthesize_calibrated_workload(profile, seed=5)
        assert first.workload.source == second.workload.source
        assert first.achieved_cycles == second.achieved_cycles
        assert first.effective_cpi == second.effective_cpi

    def test_cpi_override_preserves_rng_stream(self):
        # Calibration rescales trip counts but must not re-roll the body.
        profile = BUILTIN_PROFILES["arithmetic_dense"]
        default = synthesize_workload(profile, seed=9)
        scaled = synthesize_workload(profile, seed=9, cpi=1.5)
        body = lambda source: [line for line in source.splitlines()
                               if not line.startswith("    li a")]
        assert body(default.source) == body(scaled.source)

    def test_floor_limited_budget_reported_honestly(self):
        # memory_streaming's 4000-cycle budget sits below its epilogue floor;
        # calibration converges to the floor and reports the residual error.
        profile = BUILTIN_PROFILES["memory_streaming"]
        cpi, achieved, rounds = calibrate_cpi(profile, seed=2016, max_rounds=3)
        assert achieved >= profile.floor_cycles
        assert rounds <= 3
