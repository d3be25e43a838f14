"""Synthetic-workload vulnerability sweep (and sweep-driven exploration).

One seeded call generates a synthetic suite (every registered scenario
family x ``--per-family`` members), runs a fault-injection campaign on each
member through the checkpointed parallel engine -- whole workload campaigns
sharded over ``--workers`` processes -- and prints the per-profile
vulnerability table.  The measured per-flip-flop vulnerability map is then
fed to the application-benchmark-dependence analysis (Sec. 4 machinery),
training a selective-hardening design on a random subset of the synthetic
workloads and validating it on the rest -- the same optimism/pessimism study
the paper runs on its 18 fixed benchmarks, now on generated stimulus.

``--explore`` closes the loop: the sweep's vulnerability map drives the
cross-layer exploration engine into a Pareto frontier over a sample of the
combination pool, persisted to ``--frontier-out`` and reloaded to verify the
round trip (the synthesis -> campaign -> frontier -> store pipeline).

Results are bit-identical across repeated runs with the same seed and across
serial / process-pool executors.

Run with:  python examples/synthetic_sweep.py [--seed S] [--per-family N]
           [--injections I] [--workers W] [--families a,b,...] [--core ooo]
           [--explore] [--frontier-out PATH] [--sample N] [--smoke]
"""

from __future__ import annotations

import argparse
import time

from repro.analysis.benchmark_dependence import BenchmarkDependenceStudy, make_splits
from repro.analysis.store import load_frontier
from repro.core import enumerate_combinations, sdc_targets
from repro.microarch import InOrderCore, OutOfOrderCore
from repro.reporting import format_frontier
from repro.workloads import family_names
from repro.workloads.synthesis import frontier_from_sweep, run_synthetic_sweep
from repro.workloads.synthesis.frontier import SyntheticFrontierResult


def main() -> None:
    parser = argparse.ArgumentParser(
        description="Per-profile vulnerability sweep over synthetic workloads")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--per-family", type=int, default=4,
                        help="workloads generated per scenario family")
    parser.add_argument("--injections", type=int, default=40,
                        help="injections per workload")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes sharding whole workload "
                             "campaigns (1 = serial loop)")
    parser.add_argument("--families", type=str, default=None,
                        help="comma-separated family subset "
                             f"(default: all of {family_names()})")
    parser.add_argument("--target-cycles", type=int, default=None,
                        help="override every profile's cycle budget")
    parser.add_argument("--core", choices=["ino", "ooo"], default="ino")
    parser.add_argument("--explore", action="store_true",
                        help="explore a cross-layer Pareto frontier on the "
                             "sweep's vulnerability map")
    parser.add_argument("--frontier-out", type=str, default=None,
                        help="persist the explored frontier (JSON) and "
                             "verify the reload round trip")
    parser.add_argument("--sample", type=int, default=48,
                        help="combinations sampled into the frontier sweep "
                             "(0 = the full pool)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny CI-sized run: one small workload per "
                             "family, a handful of injections")
    args = parser.parse_args()

    if args.smoke:
        args.per_family, args.injections = 1, 8
        args.sample = min(args.sample, 24)
        if args.target_cycles is None:
            args.target_cycles = 1000

    core = OutOfOrderCore() if args.core == "ooo" else InOrderCore()
    families = args.families.split(",") if args.families else None
    overrides = ({"target_cycles": args.target_cycles}
                 if args.target_cycles is not None else {})

    started = time.perf_counter()
    sweep = run_synthetic_sweep(core, seed=args.seed,
                                per_family=args.per_family,
                                injections_per_workload=args.injections,
                                families=families, workers=args.workers,
                                **overrides)
    elapsed = time.perf_counter() - started
    total = sum(p.injections for p in sweep.profiles)
    print(sweep.table())
    print(f"\n{len(sweep.workload_names)} generated workloads, {total} "
          f"injections in {elapsed:.1f}s ({total / elapsed:.1f} injections/s, "
          f"{args.workers} worker(s))")

    if args.explore:
        _explore(core, sweep, args)

    names = sweep.workload_names
    if len(names) < 4:
        return
    # Benchmark-dependence on generated stimulus: train selective hardening
    # on a random subset of the synthetic workloads, validate on the rest.
    study = BenchmarkDependenceStudy(core.registry, sweep.vulnerability,
                                     seed=args.seed)
    splits = make_splits(names, training_size=max(2, len(names) // 3),
                         count=5, seed=args.seed)
    outcome, _ = study.evaluate_selective(target=10.0, split=splits[0])
    print(f"\nBenchmark-dependence (train {len(splits[0].training)} / "
          f"validate {len(splits[0].validation)} synthetic workloads, "
          f"SDC target {outcome.target:.0f}x):")
    print(f"  trained SDC improvement   : {outcome.trained_sdc:.1f}x")
    print(f"  validated SDC improvement : {outcome.validated_sdc:.1f}x "
          f"({outcome.sdc_underestimate_pct:+.1f}% vs trained)")


def _explore(core, sweep, args) -> None:
    """Sweep-driven frontier exploration plus the persistence round trip."""
    family = "OoO" if args.core == "ooo" else "InO"
    pool = enumerate_combinations(family)
    if 0 < args.sample < len(pool):
        pool = [pool[i * len(pool) // args.sample] for i in range(args.sample)]
    started = time.perf_counter()
    frontier = frontier_from_sweep(core, sweep, targets=sdc_targets()[:4],
                                   combinations=pool)
    elapsed = time.perf_counter() - started
    print()
    print(format_frontier(
        f"Synthetic-workload-driven frontier on {core.name} "
        f"({len(pool)} combinations in {elapsed:.1f}s)", frontier))
    if args.frontier_out:
        result = SyntheticFrontierResult(
            sweep=sweep, frontier=frontier,
            metadata={"kind": "synthetic-frontier", "core": core.name,
                      "seed": args.seed, "workloads": len(sweep.workload_names)})
        path = result.save(args.frontier_out)
        reloaded = load_frontier(path)
        coords = lambda f: [(p.improvement, p.energy_pct, p.area_pct,
                             p.exec_time_pct, p.label) for p in f.points()]
        if coords(reloaded.frontier) != coords(frontier) \
                or reloaded.frontier.seen != frontier.seen:
            raise SystemExit("frontier store round trip diverged")
        print(f"\npersisted {len(frontier)} frontier points to {path} "
              f"(reload round trip verified)")


if __name__ == "__main__":
    main()
