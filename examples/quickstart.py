"""Quickstart: explore cross-layer soft-error resilience for a processor core.

Builds a CLEAR framework instance for the in-order core, asks for the paper's
headline result -- a 50x SDC improvement using the best-practice combination
of selective LEAP-DICE hardening, logic parity and micro-architectural
(flush) recovery -- compares it against selective hardening alone, and then
sweeps ``--sample`` evenly spaced InO combinations (of the 586 cross-layer
combinations) into a Pareto frontier.

With ``--frontier-store PATH`` the swept frontier is persisted as versioned
JSON; when the file already holds a previous run, the two are merged and
compared -- the cross-run comparison workflow of ``repro.analysis.store``.

Run with:  python examples/quickstart.py [--sample N] [--frontier-store PATH]
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.analysis.store import load_frontier, merge_frontiers, save_frontier
from repro.core import ClearFramework, ResilienceTarget, enumerate_combinations, sdc_targets
from repro.reporting import format_frontier_comparison


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sample", type=int, default=48,
                        help="evenly spaced combinations to sweep into the "
                             "Pareto frontier (0 = the full 417-combination "
                             "InO pool)")
    parser.add_argument("--frontier-store", type=str, default=None,
                        help="persist the swept frontier here; an existing "
                             "store is loaded and merged for comparison")
    args = parser.parse_args()

    framework = ClearFramework.for_inorder_core()
    target = ResilienceTarget(sdc=50)

    print(f"Core: {framework.core.name} with {framework.core.flip_flop_count} flip-flops, "
          f"{len(framework.workloads)} benchmarks")

    best_practice = framework.evaluate_best_practice(target)
    print("\nBest-practice cross-layer combination "
          f"({best_practice.combination.label}):")
    print(f"  protected flip-flops : {best_practice.protected_flip_flops}")
    print(f"  SDC improvement      : {best_practice.sdc_improvement:.1f}x")
    print(f"  DUE improvement      : {best_practice.due_improvement:.1f}x")
    print(f"  energy cost          : {best_practice.cost.energy_pct:.1f}%")
    print(f"  area cost            : {best_practice.cost.area_pct:.1f}%")

    dice_only = framework.explorer.evaluate(
        framework.explorer.named_combination(("leap-dice",)), target)
    print("\nSelective LEAP-DICE hardening alone:")
    print(f"  energy cost          : {dice_only.cost.energy_pct:.1f}%")
    print(f"  SDC improvement      : {dice_only.sdc_improvement:.1f}x")

    pool = enumerate_combinations("InO")
    if 0 < args.sample < len(pool):
        pool = [pool[i * len(pool) // args.sample] for i in range(args.sample)]
    frontier = framework.explorer.explore_frontier(sdc_targets()[:4], pool)
    print(f"\nPareto frontier over {frontier.seen} swept (combination, target) "
          f"points ({len(pool)} combinations):")
    print(f"  non-dominated points : {len(frontier)}")
    cheapest = frontier.cheapest_at_least(50)
    if cheapest is not None:
        print(f"  cheapest >=50x       : {cheapest.label} "
              f"({cheapest.energy_pct:.1f}% energy)")

    if args.frontier_store:
        store_path = Path(args.frontier_store)
        previous = load_frontier(store_path) if store_path.exists() else None
        save_frontier(store_path, frontier,
                      metadata={"label": "current", "core": framework.core.name,
                                "combinations": len(pool)})
        print(f"\nFrontier persisted to {store_path}")
        if previous is not None:
            merged = merge_frontiers([previous.frontier, frontier])
            print(format_frontier_comparison(
                "Cross-run frontier comparison",
                [("previous", previous.frontier), ("current", frontier),
                 ("merged", merged)]))

    print("\nConclusion (paper Sec. 1): a carefully optimized combination of circuit "
          "hardening, logic parity and micro-architectural recovery — or selective "
          "hardening alone guided by error injection — achieves large SDC improvements "
          "at a few percent energy cost.")


if __name__ == "__main__":
    main()
