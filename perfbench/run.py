"""CLEAR benchmark: one workload, one run, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload campaign-ino --seed 0 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints its per-layer metrics from a separate traced run.  The
last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; problems found by the correctness check go to standard error.
The program under test is imported from ``src/`` of the same checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE = ROOT / "src"


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def result_line(metrics: dict, declared: list[dict], tally,
                require_all: bool) -> dict:
    """The result object; per-layer metrics a workload does not exercise
    read 0, but every end-to-end metric must have been measured."""
    names = {metric["name"] for metric in declared}
    unknown = sorted(set(metrics) - names)
    if unknown:
        raise SystemExit(f"metrics not declared in BENCHMARK.json: {unknown}")
    missing = sorted(names - set(metrics))
    if require_all and missing:
        raise SystemExit(f"end-to-end metrics not measured: {missing}")
    values = {}
    for metric in declared:
        value = float(metrics.get(metric["name"], 0.0))
        if not math.isfinite(value):
            raise SystemExit(f"metric {metric['name']} is {value}")
        values[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return {"correct": not tally.problems, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SOURCE / "repro").is_dir():
        print(f"no program to benchmark: {SOURCE / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS, ReferenceMissing

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    declared = declared_metrics(bool(args.trace))
    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            metrics, tally = workload.traced(args.seed)
            metrics["failed_fraction"] = tally.failed / max(1, tally.attempted)
        else:
            metrics, tally = workload.untraced(args.seed, args.seconds)
    except ReferenceMissing as error:
        print(error, file=sys.stderr)
        return 3
    for problem in tally.problems:
        print(f"{args.workload}: {problem}", file=sys.stderr)
    print(json.dumps(result_line(metrics, declared, tally,
                                 require_all=not args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
