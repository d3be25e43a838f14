"""Synthetic-workload-driven frontier: the synthesis-to-exploration loop.

One seeded call per core: generate a synthetic suite, measure per-flip-flop
vulnerability through the sharded injection engine, sweep a sample of the
cross-layer combination pool against that measured map (incremental
improvement + cost curves, no per-target design materialisation), and fold
the results into a Pareto frontier.  The frontier itself is persisted via
the ``repro.analysis.store`` round trip and reloaded to validate it, and the
timing/condensation table is written to ``BENCH_synthetic_frontier.json``.
"""

from __future__ import annotations

import time

import _harness
from _harness import persist_bench, run_once

from repro.analysis.store import load_frontier
from repro.core import enumerate_combinations, sdc_targets
from repro.microarch import InOrderCore
from repro.reporting import (format_convergence_summary, format_frontier,
                             format_table)
from repro.workloads.synthesis import explore_synthetic_frontier

SEED = 2016
PER_FAMILY = 2
INJECTIONS_PER_WORKLOAD = 12
TARGET_CYCLES = 1500
COMBINATION_STEP = 6          # ~70 of the 417 InO combinations
TARGET_COUNT = 4


def bench_synthetic_frontier(benchmark):
    def payload():
        core = InOrderCore()
        pool = enumerate_combinations("InO")[::COMBINATION_STEP]
        targets = sdc_targets()[:TARGET_COUNT]
        started = time.perf_counter()
        result = explore_synthetic_frontier(
            core, seed=SEED, per_family=PER_FAMILY,
            injections_per_workload=INJECTIONS_PER_WORKLOAD,
            target_cycles=TARGET_CYCLES, targets=targets, combinations=pool,
            sweep_workers=2)
        elapsed = time.perf_counter() - started

        store_path = _harness.bench_output_dir() / "FRONTIER_synthetic_ino.json"
        store_started = time.perf_counter()
        result.save(store_path)
        reloaded = load_frontier(store_path)
        store_elapsed = time.perf_counter() - store_started
        assert len(reloaded.frontier) == len(result.frontier)

        injections = sum(p.injections for p in result.sweep.profiles)
        rows = [[core.name, len(result.sweep.workload_names), injections,
                 len(pool), result.frontier.seen, len(result.frontier),
                 f"{elapsed:.1f}", f"{1000 * store_elapsed:.1f}"]]
        return result, rows

    result, rows = run_once(benchmark, payload)
    headers = ["core", "workloads", "injections", "combinations",
               "swept points", "frontier points", "pipeline s",
               "store round trip ms"]
    persist_bench("synthetic_frontier", headers, rows,
                  context={"seed": SEED, "per_family": PER_FAMILY,
                           "injections_per_workload": INJECTIONS_PER_WORKLOAD,
                           "target_cycles": TARGET_CYCLES,
                           "combination_step": COMBINATION_STEP,
                           "targets": TARGET_COUNT},
                  seed=SEED, core=InOrderCore())
    print()
    print(format_table("Synthetic-workload-driven frontier pipeline",
                       headers, rows))
    print()
    print(format_frontier("Frontier (measured synthetic vulnerability)",
                          result.frontier))
    print()
    print(format_convergence_summary(
        [(p.family, p) for p in result.sweep.profiles],
        title="Convergence gate (sweep behind the frontier)"))
