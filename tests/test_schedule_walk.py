"""Oracle property test for the protection-schedule walk.

A :class:`~repro.core.schedule.ProtectionSchedule` walks its shared
:class:`~repro.core.schedule.StepTable` once and answers every target from
the resulting improvement curves, their strict running-maximum records and
the table's per-prefix cost memberships.  This test draws small step tables
and residual vectors -- zeros, ties, sums that clamp at the residual floor,
detection without recovery (SDC turning into DUE), parity-γ and fixed-γ
factors -- and checks all of it against the plain per-site loop below,
which follows the legacy Fig. 7 walk one flip-flop at a time.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.core.improvement import ResilienceTarget
from repro.core.schedule import (
    HARDENING_SUPPRESSION,
    LowLevelChoice,
    ProtectionSchedule,
    StepTable,
)
from repro.faultinjection.vulnerability import ordered_sum
from repro.physical.cells import CellType, RecoveryKind
from repro.physical.costmodel import ParityGroupPlan
from repro.resilience.design import RESIDUAL_FLOOR_FRACTION, residual_floor
from repro.resilience.logic_parity import PIPELINED_GROUP_SIZE, UNPIPELINED_GROUP_SIZE

#: Residual values drawn often enough to tie, plus exact zeros.
_RESIDUAL_POOL = (0.0, 0.0, 0.125, 0.1, 1.0 / 3.0, 1e-3, 5e-8, 0.7)


# ---------------------------------------------------------------------- reference
def _reference_walk(case):
    """Curves, records and protect-everything point, one site at a time."""
    (ranking, choices, recoverable, zero, _units, _slack, total,
     residual_sdc, residual_due, baseline_sdc, baseline_due, gamma_fixed) = case
    sum_sdc = ordered_sum(residual_sdc)
    sum_due = ordered_sum(residual_due)
    parity = 0

    def point():
        gamma = gamma_fixed * (1.0 + parity / UNPIPELINED_GROUP_SIZE / total)
        return (baseline_sdc / max(sum_sdc, residual_floor(baseline_sdc)) / gamma,
                baseline_due / max(sum_due, residual_floor(baseline_due)) / gamma)

    curve = [point()]
    for flat, choice, covered in zip(ranking, choices, recoverable):
        if zero[flat]:
            continue
        site_sdc = residual_sdc[flat]
        site_due = residual_due[flat]
        if choice is LowLevelChoice.LEAP_DICE:
            sum_sdc -= site_sdc * HARDENING_SUPPRESSION
            sum_due -= site_due * HARDENING_SUPPRESSION
        else:
            if choice is LowLevelChoice.PARITY:
                parity += 1
            if covered:
                sum_sdc -= site_sdc
                sum_due -= site_due
            else:
                sum_due += site_sdc
                sum_sdc -= site_sdc
        curve.append(point())
    parity = choices.count(LowLevelChoice.PARITY)
    return [sdc for sdc, _ in curve], [due for _, due in curve], point()


def _reference_records(curve):
    """Indices and values of the strict running maxima of ``curve``."""
    indices = [0]
    for index, value in enumerate(curve):
        if value > curve[indices[-1]]:
            indices.append(index)
    return [curve[index] for index in indices], indices


def _reference_prefix(curve_sdc, curve_due, target):
    """First curve index meeting ``target`` (the whole walk if none does)."""
    for index, (sdc, due) in enumerate(zip(curve_sdc, curve_due)):
        if target.satisfied_by(sdc, due):
            return index
    return len(curve_sdc) - 1


def _reference_membership(steps, units, slack):
    """Hardened count, EDS count and parity group plans of ``steps``."""
    choices = [choice for _, choice in steps]
    parity = sorted(flat for flat, choice in steps if choice is LowLevelChoice.PARITY)
    plans = []
    for pipelined, size in ((False, UNPIPELINED_GROUP_SIZE), (True, PIPELINED_GROUP_SIZE)):
        counts = Counter(units[flat] for flat in parity if slack[flat] is not pipelined)
        for count in counts.values():
            sizes = [size] * (count // size) + ([count % size] if count % size else [])
            plans.extend(ParityGroupPlan(members=(0,) * group, pipelined=pipelined,
                                         local=True) for group in sizes)
    return (choices.count(LowLevelChoice.LEAP_DICE), choices.count(LowLevelChoice.EDS),
            tuple(plans))


# ---------------------------------------------------------------------- cases
@st.composite
def _cases(draw):
    sites = draw(st.integers(min_value=1, max_value=40), label="sites")
    ranking = draw(st.permutations(range(sites)), label="ranking")
    choices = tuple(draw(st.lists(st.sampled_from(tuple(LowLevelChoice)),
                                  min_size=sites, max_size=sites), label="choices"))
    recoverable = tuple(draw(st.lists(st.booleans(), min_size=sites, max_size=sites),
                             label="recoverable"))
    # Few units and small groups' worth of members, so first-appearance
    # order and remainder groups both matter.
    units = draw(st.lists(st.integers(min_value=0, max_value=3),
                          min_size=sites, max_size=sites), label="units")
    slack = draw(st.lists(st.booleans(), min_size=sites, max_size=sites), label="slack")
    residual = st.one_of(st.sampled_from(_RESIDUAL_POOL),
                         st.floats(min_value=0.0, max_value=1.0))
    residual_sdc = tuple(draw(st.lists(residual, min_size=sites, max_size=sites),
                              label="residual_sdc"))
    residual_due = tuple(draw(st.lists(residual, min_size=sites, max_size=sites),
                              label="residual_due"))
    zero = tuple(sdc <= 0 and due <= 0 for sdc, due in zip(residual_sdc, residual_due))
    # Baselines far above the residual totals make the walk clamp at the
    # floor early; equal ones mimic a walk without high-level techniques.
    scale = draw(st.sampled_from((1.0, 1.0, 40.0, 1e5, 1e7)), label="baseline_scale")
    baseline_sdc = (ordered_sum(residual_sdc) * scale) or 1e-12
    baseline_due = (ordered_sum(residual_due) * scale) or 1e-12
    gamma_fixed = draw(st.one_of(st.sampled_from((1.0, 1.05, 1.3 * 1.1)),
                                 st.floats(min_value=1.0, max_value=4.0)), label="gamma")
    return (list(ranking), choices, recoverable, zero, units, slack, sites,
            residual_sdc, residual_due, baseline_sdc, baseline_due, gamma_fixed)


def _build(case):
    (ranking, choices, recoverable, zero, units, slack, total,
     residual_sdc, residual_due, baseline_sdc, baseline_due, gamma_fixed) = case
    codes = [tuple(LowLevelChoice).index(choice) for choice in choices]
    table = StepTable(ranking, codes, recoverable, zero, units, slack, total)
    return ProtectionSchedule(
        registry=None, timing=None, vulnerability=None, table=table,
        recovery=RecoveryKind.NONE, hardening_cell=CellType.LEAP_DICE, high_level=[],
        residual_sdc=residual_sdc, residual_due=residual_due,
        total_sdc=ordered_sum(residual_sdc), total_due=ordered_sum(residual_due),
        baseline_sdc=baseline_sdc, baseline_due=baseline_due, gamma_fixed=gamma_fixed)


def _floats(values):
    return [float(value) for value in values]


def _ints(values):
    return [int(value) for value in values]


class TestWalkOracle:
    """The schedule's walk matches the per-site reference bit for bit."""

    def test_subnormal_total_keeps_a_positive_floor(self):
        """One LEAP-DICE site holding the smallest subnormal SDC residual:
        ``total * RESIDUAL_FLOOR_FRACTION`` underflows to 0.0 and hardening
        brings the sum to 0.0, so Eq. 1 needs the floor to stay positive."""
        assert 5e-324 * RESIDUAL_FLOOR_FRACTION == 0.0
        assert residual_floor(5e-324) == 5e-324
        assert residual_floor(0.37) == 0.37 * RESIDUAL_FLOOR_FRACTION
        case = ([0], (LowLevelChoice.LEAP_DICE,), (False,), (False,), [0],
                [False], 1, (5e-324,), (0.0,), 5e-324, 1e-12, 1.0)
        schedule = _build(case)
        curve_sdc, curve_due, full = _reference_walk(case)
        assert curve_sdc == [1.0, 1.0]
        assert _floats(schedule._curve_sdc) == curve_sdc
        assert _floats(schedule._curve_due) == curve_due
        assert tuple(map(float, schedule._full_achieved)) == full

    @settings(max_examples=200, deadline=None)
    @given(case=_cases(), data=st.data())
    def test_walk_matches_reference(self, case, data):
        schedule = _build(case)
        curve_sdc, curve_due, full = _reference_walk(case)
        assert _floats(schedule._curve_sdc) == curve_sdc
        assert _floats(schedule._curve_due) == curve_due
        assert tuple(map(float, schedule._full_achieved)) == full
        assert schedule.effective_length == len(curve_sdc) - 1

        values, indices = _reference_records(curve_sdc)
        assert _floats(schedule._sdc_record_values) == values
        assert _ints(schedule._sdc_record_indices) == indices
        values, indices = _reference_records(curve_due)
        assert _floats(schedule._due_record_values) == values
        assert _ints(schedule._due_record_indices) == indices

        # Thresholds on the curves hit records exactly; the others fall
        # between points, below the start or beyond the end.
        threshold = st.one_of(st.sampled_from(curve_sdc + curve_due),
                              st.floats(min_value=0.0, max_value=1e9))
        for _ in range(6):
            kind = data.draw(st.sampled_from(("sdc", "due", "joint")), label="kind")
            target = ResilienceTarget(
                sdc=data.draw(threshold, label="sdc") if kind != "due" else None,
                due=data.draw(threshold, label="due") if kind != "sdc" else None)
            assert schedule.prefix_for(target) == _reference_prefix(
                curve_sdc, curve_due, target)

    @settings(max_examples=200, deadline=None)
    @given(case=_cases())
    def test_memberships_match_reference(self, case):
        schedule = _build(case)
        ranking, choices, _, zero, units, slack = case[:6]
        steps = list(zip(ranking, choices))
        effective = [(flat, choice) for flat, choice in steps if not zero[flat]]
        for prefix in range(len(effective) + 1):
            assert schedule.table.membership_at(prefix) == _reference_membership(
                effective[:prefix], units, slack)
        assert schedule.table.full_membership == _reference_membership(
            steps, units, slack)
