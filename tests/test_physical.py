"""Tests for the physical-design models."""

from __future__ import annotations

import pytest

from repro.physical import (
    CELL_LIBRARY,
    CellType,
    CostReport,
    DesignCostModel,
    ParityGroupPlan,
    Placement,
    RecoveryKind,
    TimingModel,
    available_recoveries,
    budget_for_core,
    levels_for_group_size,
    recovery_cost,
)


class TestCellLibrary:
    def test_table4_values(self):
        dice = CELL_LIBRARY[CellType.LEAP_DICE]
        assert dice.soft_error_rate == pytest.approx(2.0e-4)
        assert dice.area == 2.0 and dice.energy == 1.8
        lhl = CELL_LIBRARY[CellType.LHL]
        assert lhl.suppression == pytest.approx(0.75)
        assert CELL_LIBRARY[CellType.EDS].detects
        assert CELL_LIBRARY[CellType.EDS].suppression == 0.0

    def test_leap_ctrl_modes(self):
        economy = CELL_LIBRARY[CellType.LEAP_CTRL_ECONOMY]
        resilient = CELL_LIBRARY[CellType.LEAP_CTRL_RESILIENT]
        assert economy.area == resilient.area == 3.1
        assert economy.power < resilient.power
        assert economy.suppression == 0.0 and resilient.suppression > 0.99


class TestRecoveryCosts:
    def test_per_core_availability(self):
        assert RecoveryKind.FLUSH in available_recoveries("InO-core")
        assert RecoveryKind.ROB in available_recoveries("OoO-core")
        assert RecoveryKind.ROB not in available_recoveries("InO-core")

    def test_table15_values(self):
        ir = recovery_cost("InO-core", RecoveryKind.IR)
        assert ir.area_pct == 16.0 and ir.latency_cycles == 47
        rob = recovery_cost("OoO-core", RecoveryKind.ROB)
        assert rob.energy_pct == pytest.approx(0.01)
        flush = recovery_cost("InO-core", RecoveryKind.FLUSH)
        assert "memory" in flush.unrecoverable_units

    def test_unknown_combination_raises(self):
        with pytest.raises(KeyError):
            recovery_cost("InO-core", RecoveryKind.ROB)


class TestCostReport:
    def test_combination_compounds_energy(self):
        a = CostReport.from_power_and_time(1.0, 2.0, 0.0)
        b = CostReport.from_power_and_time(0.5, 1.0, 10.0)
        combined = a.combined_with(b)
        assert combined.area_pct == pytest.approx(1.5)
        assert combined.power_pct == pytest.approx(3.0)
        assert combined.exec_time_pct == pytest.approx(10.0)
        assert combined.energy_pct > combined.power_pct

    def test_energy_equals_power_without_time_impact(self):
        report = CostReport.from_power_and_time(1.0, 5.0, 0.0)
        assert report.energy_pct == pytest.approx(5.0)


class TestDesignCostModel:
    @pytest.mark.parametrize("core_name,expected_energy", [("InO-core", 22.4),
                                                           ("OoO-core", 9.4)])
    def test_all_ff_leap_dice_matches_anchor(self, core_name, expected_energy,
                                             ino_core, ooo_core):
        core = ino_core if core_name == "InO-core" else ooo_core
        model = DesignCostModel(core.name, core.flip_flop_count)
        report = model.hardened_cells_cost({CellType.LEAP_DICE: core.flip_flop_count})
        assert report.energy_pct == pytest.approx(expected_energy, rel=0.05)
        budget = budget_for_core(core_name)
        assert report.area_pct == pytest.approx(100 * budget.flip_flop_area_fraction,
                                                rel=0.05)

    def test_all_ff_parity_matches_anchor(self, ino_core):
        # The Table 3 anchor (10.9% area / 23.1% power for all flip-flops)
        # corresponds to the Fig. 3 optimized mix of unpipelined and
        # pipelined groups; an all-unpipelined plan must come in somewhat
        # cheaper and an all-pipelined plan somewhat costlier.
        model = DesignCostModel(ino_core.name, ino_core.flip_flop_count)
        count = ino_core.flip_flop_count
        unpipelined = [ParityGroupPlan(tuple(range(start, start + 32)), False, True)
                       for start in range(0, count - 31, 32)]
        pipelined = [ParityGroupPlan(tuple(range(start, start + 16)), True, True)
                     for start in range(0, count - 15, 16)]
        cheap = model.parity_cost(unpipelined)
        costly = model.parity_cost(pipelined)
        assert cheap.area_pct < 10.9 < costly.area_pct * 1.35
        assert cheap.power_pct < 23.1 < costly.power_pct * 1.15
        assert cheap.power_pct == pytest.approx(23.1, rel=0.25)

    def test_parity_cost_scales_with_coverage(self, ino_core):
        model = DesignCostModel(ino_core.name, ino_core.flip_flop_count)
        small = model.parity_cost([ParityGroupPlan(tuple(range(16)), True, True)])
        large = model.parity_cost([ParityGroupPlan(tuple(range(16)), True, True),
                                   ParityGroupPlan(tuple(range(16, 32)), True, True)])
        assert large.area_pct > small.area_pct

    def test_pipelined_parity_costlier_than_unpipelined(self, ino_core):
        model = DesignCostModel(ino_core.name, ino_core.flip_flop_count)
        members = tuple(range(16))
        pipelined = model.parity_cost([ParityGroupPlan(members, True, True)])
        unpipelined = model.parity_cost([ParityGroupPlan(members, False, True)])
        assert pipelined.power_pct > unpipelined.power_pct

    def test_eds_cost_anchor(self, ino_core):
        model = DesignCostModel(ino_core.name, ino_core.flip_flop_count)
        report = model.eds_cost(ino_core.flip_flop_count)
        assert report.area_pct == pytest.approx(10.7, rel=0.05)
        assert report.power_pct == pytest.approx(22.9, rel=0.05)

    def test_recovery_report(self, ino_core):
        model = DesignCostModel(ino_core.name, ino_core.flip_flop_count)
        report = model.recovery_report(RecoveryKind.FLUSH)
        assert report.area_pct == pytest.approx(0.6)


class TestPlacement:
    def test_baseline_spacing_distribution(self, ino_core):
        placement = Placement(ino_core.registry, seed=1)
        distribution = placement.baseline_spacing_distribution()
        assert sum(distribution.fractions) == pytest.approx(1.0, abs=1e-6)
        # A majority of flip-flops sit closer than one flip-flop length
        # (Table 5 reports 65.2% for the InO-core).
        assert distribution.fractions[0] > 0.4

    def test_baseline_spacing_average_is_pinned(self, ino_core, ooo_core):
        # Table 5's average spacing is summed left to right, so it reads the
        # same bits on every Python version (the builtin float ``sum`` is
        # compensated from 3.12 on).
        averages = [Placement(core.registry, seed=1).baseline_spacing_distribution().average
                    for core in (ino_core, ooo_core)]
        assert averages == [0.9043275900946637, 0.9668403123990011]

    def test_parity_groups_respect_minimum_spacing(self, ino_core):
        placement = Placement(ino_core.registry, seed=1)
        groups = [list(range(start, start + 16)) for start in range(0, 128, 16)]
        distribution = placement.parity_spacing_distribution(groups)
        assert distribution.fractions[0] == 0.0  # no members within SEMU range
        assert distribution.average > 1.0

    def test_positions_deterministic(self, ino_core):
        a = Placement(ino_core.registry, seed=4)
        b = Placement(ino_core.registry, seed=4)
        assert a.position(10) == b.position(10)
        assert a.distance(0, 1) == b.distance(0, 1)


class TestTimingModel:
    def test_slack_levels_bounded(self, ino_core):
        timing = TimingModel(ino_core.registry, seed=2)
        for index in range(0, ino_core.flip_flop_count, 97):
            assert 1 <= timing.slack_levels(index) <= 8

    def test_group_size_levels(self):
        assert levels_for_group_size(32) == 5
        assert levels_for_group_size(16) == 4
        assert levels_for_group_size(2) == 1

    def test_fraction_with_slack_monotone_in_group_size(self, ino_core):
        timing = TimingModel(ino_core.registry, seed=2)
        assert timing.fraction_with_slack(16) >= timing.fraction_with_slack(32)

    def test_ranked_by_slack(self, ino_core):
        timing = TimingModel(ino_core.registry, seed=2)
        ranked = timing.ranked_by_slack()
        assert len(ranked) == ino_core.flip_flop_count
        assert timing.slack_levels(ranked[0]) >= timing.slack_levels(ranked[-1])
