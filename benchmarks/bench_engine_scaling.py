"""Injection-engine scaling: re-simulation vs checkpoints vs convergence vs batching.

Measures campaign throughput (injections/second) for the same fixed-seed
campaign on a >=5k-cycle workload under two groups of execution strategies.

The first group runs the standard campaign size and shows the scalar-path
trajectory:

* ``serial, no checkpoints`` -- every injected run re-simulates from cycle 0
  to termination (the pre-engine behaviour,
  ``EngineConfig(checkpoint_interval=0, convergence_interval=0)``);
* ``serial, checkpointed`` -- injected runs fast-forward from the nearest
  golden-run snapshot but still simulate to termination
  (``convergence_interval=0``, the pre-convergence baseline);
* ``serial, converged`` -- checkpointed replay plus convergence-gated early
  termination: an injected run stops once its state fingerprint, probed on
  the engine's fixed schedule over the golden run's fingerprint grid,
  re-converges with the golden run;
* ``parallel, converged`` -- the convergence-gated plan sharded over an
  explicit worker pool.

The second group adds batched lockstep replay (``EngineConfig.batch_width``)
on top of the convergence-gated configuration.  Batched rows run a larger
campaign: at small N the wall time is dominated by the handful of
never-reconverging runs each wavefront hard-evicts to the scalar path, so
throughput is quoted at a size where the wavefront is actually saturated.
Serial throughput is N-independent (each injection replays in isolation),
but the serial-converged reference is re-measured at the batched size anyway
so the comparison is same-N by construction.  The reference and each batched
row are the fastest of ``BATCH_ROUNDS`` campaigns: on a shared 2-CPU host
single runs of the batched/serial ratio spread 1.1-2.1x.

Within each group the ``speedup`` column is relative to the group's first
row (the group's serial baseline).  All strategies must report bit-identical
outcome statistics (asserted below, including per-site tallies for the
batched rows); convergence gating must cut the checkpointed baseline's
simulated cycles by >=30% and batched replay at width >=16 must beat the
serial-converged reference by >=5x (both asserted below).  Golden-run
recording time is excluded via a warm cache, matching the steady-state
regime of multi-config campaigns.
"""

from __future__ import annotations

import os
import time

from _harness import persist_bench, run_once

from repro.engine import (EngineConfig, GoldenRunCache, InjectionEngine,
                          ParallelExecutor)
from repro.microarch import InOrderCore
from repro.reporting import format_table
from repro.workloads import workload_by_name

WORKLOAD = "mcf"          # 7.4k golden cycles on the InO-core
INJECTIONS = 30
BATCH_INJECTIONS = 120
BATCH_WIDTHS = (8, 16, 32)
BATCH_ROUNDS = 5
"""The batched group's rows are each the fastest of this many campaigns."""
PARALLEL_WORKERS = max(2, min(os.cpu_count() or 1, 4))
MIN_SAVED_CYCLE_FRACTION = 0.30
"""Acceptance floor: convergence gating must remove at least this fraction
of the simulated injected-run cycles on the standard campaign."""
MIN_BATCH_SPEEDUP = 5.0
"""Acceptance floor: batched lockstep replay at width >=16 must beat the
serial convergence-gated reference (same campaign size) by this factor."""


def bench_engine_scaling(benchmark):
    def payload():
        program = workload_by_name(WORKLOAD).program()

        def run_campaign(config, injections, executor=None):
            engine = InjectionEngine(InOrderCore(), program, seed=9,
                                     config=config, executor=executor,
                                     golden_cache=GoldenRunCache())
            checkpointed = engine.golden()  # warm the cache
            start = time.perf_counter()
            result = engine.run(injections=injections)
            elapsed = time.perf_counter() - start
            return checkpointed, result, elapsed

        def best_campaign(config, injections):
            return min((run_campaign(config, injections)
                        for _ in range(BATCH_ROUNDS)),
                       key=lambda run: run[2])

        rows = []

        # -------------------------------------------------- scalar strategies
        modes = [
            ("serial, no checkpoints",
             EngineConfig(checkpoint_interval=0, convergence_interval=0),
             None),
            ("serial, checkpointed", EngineConfig(convergence_interval=0),
             None),
            ("serial, converged", EngineConfig(), None),
            # An explicit pool: at N=30 the engine's small-plan fallback
            # would silently serialize a config-built one, hiding what this
            # row measures (pool spin-up cost on a small campaign).
            (f"parallel x{PARALLEL_WORKERS}, converged", EngineConfig(),
             ParallelExecutor(workers=PARALLEL_WORKERS)),
        ]
        reference = None
        baseline_rate = None
        checkpointed_cycles = None
        for label, config, executor in modes:
            checkpointed, result, elapsed = run_campaign(config, INJECTIONS,
                                                         executor)
            if reference is None:
                reference = result.outcomes
            assert result.outcomes == reference, \
                "execution strategies must report identical statistics"
            if label == "serial, checkpointed":
                checkpointed_cycles = result.replayed_cycles
            if config.convergence_enabled and checkpointed_cycles:
                saved_fraction = 1 - result.replayed_cycles / checkpointed_cycles
                assert saved_fraction >= MIN_SAVED_CYCLE_FRACTION, (
                    f"convergence gating saved only {saved_fraction:.0%} of "
                    f"the checkpointed baseline's simulated cycles "
                    f"(floor {MIN_SAVED_CYCLE_FRACTION:.0%})")
            rate = INJECTIONS / elapsed
            if baseline_rate is None:
                baseline_rate = rate
            rows.append([label, "-", checkpointed.checkpoint_count,
                         checkpointed.fingerprint_count,
                         result.replayed_cycles,
                         f"{100 * result.saved_cycle_fraction:.0f}%",
                         "0%", f"{elapsed:.2f}s", f"{rate:.1f}",
                         f"{rate / baseline_rate:.2f}x"])

        # ------------------------------------------------- batched strategies
        checkpointed, scalar_ref, elapsed = best_campaign(
            EngineConfig(), BATCH_INJECTIONS)
        reference_rate = BATCH_INJECTIONS / elapsed
        rows.append([f"serial, converged (N={BATCH_INJECTIONS})", "-",
                     checkpointed.checkpoint_count,
                     checkpointed.fingerprint_count,
                     scalar_ref.replayed_cycles,
                     f"{100 * scalar_ref.saved_cycle_fraction:.0f}%",
                     "0%", f"{elapsed:.2f}s", f"{reference_rate:.1f}", "1.00x"])
        for width in BATCH_WIDTHS:
            checkpointed, result, elapsed = best_campaign(
                EngineConfig(batch_width=width), BATCH_INJECTIONS)
            assert result.outcomes == scalar_ref.outcomes \
                and result.per_site == scalar_ref.per_site, \
                "batched replay must report statistics bit-identical to scalar"
            rate = BATCH_INJECTIONS / elapsed
            speedup = rate / reference_rate
            if width >= 16:
                assert speedup >= MIN_BATCH_SPEEDUP, (
                    f"batched x{width} reached only {speedup:.1f}x over the "
                    f"serial-converged reference (floor {MIN_BATCH_SPEEDUP}x)")
            rows.append([f"batched x{width}, converged", width,
                         checkpointed.checkpoint_count,
                         checkpointed.fingerprint_count,
                         result.replayed_cycles,
                         f"{100 * result.saved_cycle_fraction:.0f}%",
                         f"{100 * result.evicted_fraction:.0f}%",
                         f"{elapsed:.2f}s", f"{rate:.1f}",
                         f"{speedup:.2f}x"])

        return rows

    rows = run_once(benchmark, payload)
    headers = ["strategy", "batch width", "checkpoints", "fingerprints",
               "replayed cycles", "cycles saved", "evicted",
               "wall time", "injections/s", "speedup"]
    persist_bench("engine", headers, rows,
                  context={"workload": WORKLOAD, "injections": INJECTIONS,
                           "batch_injections": BATCH_INJECTIONS,
                           "batch_widths": list(BATCH_WIDTHS),
                           "batch_rounds": BATCH_ROUNDS,
                           "parallel_workers": PARALLEL_WORKERS,
                           "min_saved_cycle_fraction": MIN_SAVED_CYCLE_FRACTION,
                           "min_batch_speedup": MIN_BATCH_SPEEDUP},
                  seed=9, core=InOrderCore(),
                  config=EngineConfig())
    print()
    print(format_table(
        f"Engine scaling on {WORKLOAD} (InO-core); speedup is vs each "
        f"group's serial baseline row",
        headers, rows))
