"""Pinned exploration records and frontiers.

The equivalence tests hold the incremental explorer to the replanning
reference, but both could drift together (a changed sum, a reordered cost
term).  These pins hold every streamed (combination, target) record and the
resulting Pareto frontier to the exact values they had when recorded:

* every record of ``stream_records(sdc_targets())`` -- pool coordinates,
  labels, area/power/energy/execution-time overheads, achieved SDC/DUE
  improvements, protected flip-flop count and whether the target is met,
  floats by ``repr``;
* every point of ``explore_frontier(sdc_targets())`` over the same pool.

Both cores run at framework seed :data:`SEED`: the whole in-order pool, and
every :data:`OOO_STRIDE`-th out-of-order combination (the out-of-order
schedules walk 13,663 flip-flops each).

A pin changes only with a deliberate change of the model's numbers.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core import ClearFramework, enumerate_combinations, sdc_targets

SEED = 2016
"""Framework seed of both pinned cores."""

OOO_STRIDE = 7
"""Every ``OOO_STRIDE``-th out-of-order combination is pinned."""

PINS = {
    # core: (records digest, frontier digest)
    "InO": ("30689bf3889038eb", "5417eed0ba94becf"),
    "OoO": ("b8ab81b98575fb82", "e51c751b81b61bb9"),
}

_FACTORIES = {"InO": ClearFramework.for_inorder_core,
              "OoO": ClearFramework.for_out_of_order_core}


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:16]


def _record_row(record) -> list:
    return [record.combination_index, record.target_index, record.label,
            record.target_label, repr(record.area_pct),
            repr(record.power_pct), repr(record.energy_pct),
            repr(record.exec_time_pct), repr(record.sdc_improvement),
            repr(record.due_improvement), record.protected_flip_flops,
            record.meets_target]


def exploration_digests(family: str) -> tuple[str, str]:
    """(records, frontier) digests of one core's pinned pool."""
    explorer = _FACTORIES[family](seed=SEED).explorer
    pool = enumerate_combinations(family)
    if family == "OoO":
        pool = pool[::OOO_STRIDE]
    targets = sdc_targets()
    records = [_record_row(record)
               for record in explorer.stream_records(targets, pool)]
    frontier = explorer.explore_frontier(targets, pool)
    points = [[repr(p.improvement), repr(p.energy_pct), repr(p.area_pct),
               repr(p.exec_time_pct), p.label] for p in frontier.points()]
    return _digest(records), _digest([frontier.seen, points])


@pytest.mark.parametrize("family", sorted(PINS))
def test_exploration_is_pinned(family):
    assert exploration_digests(family) == PINS[family]
