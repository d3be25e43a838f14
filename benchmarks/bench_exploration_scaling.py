"""Exploration-engine scaling: per-target replanning vs incremental schedules.

Measures the full cross-layer sweep -- every one of the 586 combinations
(417 InO + 169 OoO) over the standard SDC target ladder -- under two
strategies:

* ``serial, replanning`` -- the pre-schedule behaviour: every (combination,
  target) pair reruns the Fig. 7 loop from scratch
  (``CrossLayerExplorer.evaluate_reference``);
* ``serial, incremental`` -- prefix schedules answer all targets of a
  combination from one cached walk (``stream_records``).

Both strategies produce bit-identical records (asserted below); the energy
numbers feed the same Pareto frontier either way.  ``BENCH_exploration.json``
persists the sweep timings so later PRs can diff exploration throughput.

The ``smoke`` benchmark runs a small slice of the same comparison
and is what CI executes (``-k smoke``).
"""

from __future__ import annotations

import time

from _harness import persist_bench, run_once

from repro.core import ClearFramework, enumerate_combinations, sdc_targets
from repro.reporting import format_table

SMOKE_COMBINATIONS = 24


def _reference_sweep(explorer, combinations, targets):
    records = []
    for ci, combination in enumerate(combinations):
        for ti, target in enumerate(targets):
            evaluated = explorer.evaluate_reference(combination, target)
            records.append((ci, ti, evaluated.cost.energy_pct,
                            evaluated.sdc_improvement, evaluated.due_improvement,
                            evaluated.protected_flip_flops))
    return records


def _record_sweep(explorer, combinations, targets):
    return [(r.combination_index, r.target_index, r.energy_pct,
             r.sdc_improvement, r.due_improvement, r.protected_flip_flops)
            for r in explorer.stream_records(targets, combinations)]


def _sweep_rows(frameworks, combination_cap=None):
    """Run the two-way comparison; returns (table rows, pair count)."""
    targets = sdc_targets()
    pools = {family: enumerate_combinations(family)[:combination_cap]
             for family in frameworks}
    pairs = sum(len(pool) for pool in pools.values()) * len(targets)

    def timed(strategy):
        start = time.perf_counter()
        outputs = {}
        for family, framework in frameworks.items():
            outputs[family] = strategy(framework.explorer, pools[family], targets)
        return time.perf_counter() - start, outputs

    # Strategy order keeps the timing honest: replanning bypasses the
    # schedule caches entirely, so the incremental pass that follows still
    # starts cold.

    replan_elapsed, replan = timed(_reference_sweep)
    serial_elapsed, serial = timed(_record_sweep)
    for family in frameworks:
        assert serial[family] == replan[family], \
            "incremental schedules must reproduce replanning bit-for-bit"

    rows = []
    for label, elapsed in (("serial, replanning", replan_elapsed),
                           ("serial, incremental", serial_elapsed)):
        rows.append([label, pairs, f"{elapsed:.2f}s", f"{pairs / elapsed:.1f}",
                     f"{replan_elapsed / elapsed:.2f}x"])
    return rows, pairs


def _fresh_frameworks(families):
    frameworks = {}
    if "InO" in families:
        frameworks["InO"] = ClearFramework.for_inorder_core(seed=2016)
    if "OoO" in families:
        frameworks["OoO"] = ClearFramework.for_out_of_order_core(seed=2016)
    return frameworks


def bench_exploration_smoke(benchmark):
    """CI-sized slice of the sweep comparison (no persistence)."""
    def payload():
        frameworks = _fresh_frameworks(("InO",))
        return _sweep_rows(frameworks, combination_cap=SMOKE_COMBINATIONS)

    rows, pairs = run_once(benchmark, payload)
    print()
    print(format_table(
        f"Exploration scaling (smoke): {SMOKE_COMBINATIONS} InO combinations "
        f"x {pairs // SMOKE_COMBINATIONS} targets",
        ["strategy", "pairs", "wall time", "pairs/s", "speedup"], rows))


def bench_exploration_full_sweep(benchmark):
    """The full 586-combination x standard-target sweep on both cores."""
    def payload():
        frameworks = _fresh_frameworks(("InO", "OoO"))
        return _sweep_rows(frameworks)

    rows, pairs = run_once(benchmark, payload)
    headers = ["strategy", "pairs", "wall time", "pairs/s", "speedup"]
    persist_bench("exploration", headers, rows,
                  context={"combinations": 586, "targets": len(sdc_targets())},
                  seed=2016, core="InO+OoO")
    print()
    print(format_table(
        f"Exploration scaling: 586 combinations x {len(sdc_targets())} targets "
        f"({pairs} pairs)",
        headers, rows))
