"""Regenerate ``reference/``: the input sets and the pinned results.

Usage (from the repository root)::

    python3 perfbench/pin.py --table ino      # InO campaign seeds + digests
    python3 perfbench/pin.py --table ooo      # OoO campaign seeds + digests
    python3 perfbench/pin.py --table explore  # framework seeds + digests

A campaign table runs one suite pass at each of ``POOL`` candidate campaign
seeds (9, 109, 209, ...) and keeps the ``INPUT_SETS`` seeds whose replayed
cycles lie closest to the pool's median.  The seed still changes every
injection plan, but no longer the amount of work by tens of percent, so
run-to-run spread measures the host and the code rather than the draw.
The ``ino`` table serves both InO workloads: it is recorded on the scalar
path and re-checked on the batched path, which must agree bit for bit.
Re-pin only when a change is meant to alter simulated outcomes, and say why.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

from workloads import (CAMPAIGN_SEED, FRAMEWORK_SEED,  # noqa: E402
                       WORKLOADS, Tally, campaign_digest, explore_digest,
                       reference_path)

INPUT_SETS = 16
POOL = 96


def campaign_table(workload, verify_with=None) -> dict:
    core, suite = workload.prepare()
    cache, _ = workload.record_goldens(core, suite)
    work, digests = {}, {}
    for index in range(POOL):
        seed = CAMPAIGN_SEED + 100 * index
        tally = Tally()
        results = workload.run_pass(core, suite, cache, seed, tally)
        if tally.problems:
            raise SystemExit("\n".join(tally.problems))
        work[seed] = sum(result.replayed_cycles for result in results)
        digests[seed] = {result.program_name: campaign_digest(result)
                         for result in results}
        print(f"{workload.name}: seed {seed} replays {work[seed]} cycles",
              file=sys.stderr)
    middle = statistics.median(work.values())
    seeds = sorted(sorted(work, key=lambda seed: (abs(work[seed] - middle),
                                                  seed))[:INPUT_SETS])
    table = {"seeds": seeds,
             "replayed_cycles": {str(seed): work[seed] for seed in seeds},
             "digests": {str(seed): digests[seed] for seed in seeds}}
    if verify_with is not None:
        core, suite = verify_with.prepare()
        cache, _ = verify_with.record_goldens(core, suite)
        for seed in seeds:
            tally = Tally()
            results = verify_with.run_pass(core, suite, cache, seed, tally)
            verify_with.check(seed, results, tally, table)
            if tally.problems:
                raise SystemExit("\n".join(tally.problems))
        print(f"{verify_with.name}: agrees on every input set",
              file=sys.stderr)
    return table


def explore_table() -> dict:
    workload = WORKLOADS["explore-586"]
    seeds = [FRAMEWORK_SEED + index for index in range(INPUT_SETS)]
    digests = {}
    for seed in seeds:
        frameworks = workload.build(seed)
        frontiers = workload.sweep(frameworks)
        digests[str(seed)] = {
            framework.core.name: explore_digest(framework, frontier)
            for framework, frontier in zip(frameworks, frontiers)}
        print(f"explore-586: framework seed {seed} pinned", file=sys.stderr)
    return {"seeds": seeds, "digests": digests}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--table", required=True,
                        choices=("ino", "ooo", "explore"))
    args = parser.parse_args()
    if args.table == "ino":
        table = campaign_table(WORKLOADS["campaign-ino"],
                               verify_with=WORKLOADS["campaign-ino-batched"])
    elif args.table == "ooo":
        table = campaign_table(WORKLOADS["campaign-ooo"])
    else:
        table = explore_table()
    path = reference_path(args.table)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
