"""Flip-flop-level fault-injection campaign on the in-order core.

Runs a measured soft-error injection campaign for one benchmark on the
unprotected core, classifies every outcome (Vanished / OMM / UT / Hang / ED),
then repeats the campaign with every flip-flop hardened (LEAP-DICE) and with
logic parity + flush recovery, and reports the measured SDC/DUE improvements
(Eq. 1 of the paper).

All three campaigns run on the checkpointed parallel injection engine: the
golden run is recorded once with periodic core snapshots and shared across
the three protection configurations (they only differ in injected-run
semantics), each injected run fast-forwards from the nearest snapshot at or
below its injection cycle, and the plan is sharded over worker processes.
With the same seed the engine reports statistics identical to a serial
cycle-0 re-simulation loop.

Run with:  python examples/injection_campaign.py [injections] [--workers N] [--seed S]
           [--artifact-dir DIR]
"""

from __future__ import annotations

import argparse
import time

from repro.core import ResilienceTarget, SelectionPolicy, SelectiveHardeningPlanner, sdc_improvement, due_improvement
from repro.engine import (GOLDEN_RUN_CACHE, EngineConfig, GoldenArtifactStore,
                          GoldenRunCache, InjectionEngine)
from repro.faultinjection import CalibratedVulnerabilityModel
from repro.microarch import InOrderCore
from repro.physical import RecoveryKind, TimingModel
from repro.reporting import format_phase_breakdown
from repro.resilience import ProtectedDesign, harden_top_flip_flops
from repro.workloads import workload_by_name


def main(injections: int = 150, workers: int = 2, seed: int = 1,
         trace: str | None = None, artifact_dir: str | None = None) -> None:
    core = InOrderCore()
    workload = workload_by_name("histogram")
    program = workload.program()
    config = EngineConfig(workers=workers, metrics=True)
    # Only the baseline campaign is traced: the three campaigns share one
    # config otherwise, and each traced run would overwrite the file.
    baseline_config = EngineConfig(workers=workers, metrics=True,
                                   trace=trace if trace else False)
    # With --artifact-dir the golden cache sits on a persistent store, so a
    # repeat run loads the golden run instead of re-recording it.
    cache = (GoldenRunCache(store=GoldenArtifactStore(artifact_dir))
             if artifact_dir else GOLDEN_RUN_CACHE)
    print(f"Workload: {workload.name} ({workload.description})")
    print(f"Engine: {workers} worker(s), adaptive checkpointing, seed {seed}")
    if artifact_dir:
        print(f"Golden-artifact store: {artifact_dir} (repeat runs load "
              f"golden runs instead of re-recording them)")

    started = time.perf_counter()
    baseline = InjectionEngine(core, program, seed=seed, config=baseline_config,
                               golden_cache=cache).run(injections=injections)
    checkpointed = cache.get(core, program)
    print(f"\nGolden run: {checkpointed.golden.cycles} cycles, "
          f"{checkpointed.checkpoint_count} checkpoints "
          f"every {checkpointed.interval} cycles, "
          f"{checkpointed.fingerprint_count} fingerprints "
          f"every {checkpointed.fingerprint_interval} cycles")
    print(f"Baseline campaign: {baseline.injections} injections "
          f"(margin of error {100 * baseline.achieved_margin_of_error:.1f}%)")
    print(f"Convergence gating: {baseline.converged_count}/{baseline.injections} "
          f"runs early-terminated, "
          f"{100 * baseline.saved_cycle_fraction:.0f}% of replay cycles skipped")
    for outcome, count in baseline.outcomes.as_dict().items():
        print(f"  {outcome:22s} {count}")
    print("\n" + format_phase_breakdown(baseline,
                                        title="Baseline phase breakdown"))
    if trace:
        print(f"Trace written to {trace} (open in chrome://tracing "
              f"or ui.perfetto.dev)")

    # Configuration 1: every flip-flop hardened with LEAP-DICE.  The golden
    # run (and its checkpoints) are reused from the cache: protection only
    # changes injected-run semantics.
    hardened = ProtectedDesign(
        registry=core.registry,
        hardening=harden_top_flip_flops(list(range(core.flip_flop_count)),
                                        core.flip_flop_count))
    hardened_run = InjectionEngine(core, program, protection=hardened, seed=seed,
                                   config=config, golden_cache=cache
                                   ).run(injections=injections)

    # Configuration 2: Heuristic-1 mix of parity + LEAP-DICE with flush recovery.
    vulnerability = CalibratedVulnerabilityModel(core.registry, [workload.name]).build_map()
    planner = SelectiveHardeningPlanner(core.registry, vulnerability,
                                        TimingModel(core.registry),
                                        benchmarks=[workload.name])
    cross_layer = planner.plan(ResilienceTarget(sdc=float("inf")),
                               recovery=RecoveryKind.FLUSH,
                               policy=SelectionPolicy()).design
    cross_layer_run = InjectionEngine(core, program, protection=cross_layer,
                                      seed=seed, config=config,
                                      golden_cache=cache).run(injections=injections)

    for label, run, design in (("LEAP-DICE everywhere", hardened_run, hardened),
                               ("parity + LEAP-DICE + flush", cross_layer_run, cross_layer)):
        gamma = design.gamma()
        sdc = sdc_improvement(baseline.outcomes, run.outcomes, gamma)
        due = due_improvement(baseline.outcomes, run.outcomes, gamma)
        print(f"\n{label}:")
        print(f"  residual SDC / DUE counts : {run.outcomes.sdc_count} / {run.outcomes.due_count}")
        print("  measured SDC improvement  : " + _improvement(
            sdc, "SDC", baseline.outcomes.sdc_count, run.outcomes.sdc_count,
            gamma, run.injections))
        print("  measured DUE improvement  : " + _improvement(
            due, "DUE", baseline.outcomes.due_count, run.outcomes.due_count,
            gamma, run.injections))

    elapsed = time.perf_counter() - started
    total = 3 * injections
    print(f"\n{total} injections across 3 protection configs in {elapsed:.1f}s "
          f"({total / elapsed:.1f} injections/s; golden runs cached: "
          f"{cache.hits} hit(s), {cache.misses} miss(es))")
    if artifact_dir:
        stats = cache.stats()
        store_stats = cache.store.stats()
        print(f"Artifact store: {stats.artifacts_loaded} loaded, "
              f"{stats.recorded} recorded this run; "
              f"{store_stats.entries} artifact(s), "
              f"{store_stats.size_bytes / 1024:.0f} KiB on disk")


def _improvement(measured: float, kind: str, baseline_count: int,
                 residual: int, gamma: float, injections: int) -> str:
    """The improvement as printed.  With no residual error left the ratio
    has no finite value; what the campaign shows is that it exceeds the
    ratio one residual error would have given."""
    if residual == 0 and baseline_count:
        return (f"> {baseline_count / gamma:.1f}x "
                f"(0 residual {kind} in {injections} injections)")
    return f"{measured:.1f}x"


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Engine-backed injection campaign across three "
                    "protection configurations")
    parser.add_argument("injections", nargs="?", type=int, default=150,
                        help="injections per protection configuration")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes for the parallel executor "
                             "(1 = serial)")
    parser.add_argument("--seed", type=int, default=1,
                        help="campaign seed (same seed => identical statistics)")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write a Chrome trace-event JSON of the "
                             "baseline campaign to PATH")
    parser.add_argument("--artifact-dir", default=None, metavar="DIR",
                        help="persistent golden-artifact store directory: "
                             "repeat runs load the golden run from disk "
                             "instead of re-recording it")
    args = parser.parse_args()
    main(args.injections, workers=args.workers, seed=args.seed,
         trace=args.trace, artifact_dir=args.artifact_dir)
