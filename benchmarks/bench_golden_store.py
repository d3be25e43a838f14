"""Persistent golden-artifact store: cold vs warm starts, serial vs parallel.

Two row groups, both on the mcf workload (7.4k golden cycles on the
InO-core), persisted to ``BENCH_golden_store.json``.

**Store round-trip** (small campaign, N=3, so golden recording dominates):

* ``store-less`` -- in-memory cache only, the pre-store behaviour: every
  fresh process re-records the golden run from cycle 0;
* ``cold store`` -- fresh artifact directory: records the golden run once
  and persists it (recording + atomic blob write + campaign);
* ``warm store`` -- same directory, fresh process-equivalent cache: the
  golden run is *loaded* (integrity-checked deserialisation, zero
  simulated golden cycles) and the campaign starts immediately.

Wall time includes golden acquisition -- that is the quantity the store
changes.  The warm start must be >= 3x faster than the cold start with zero
golden recordings, and all three rows must report bit-identical statistics
(both asserted).

**Execution schedule** (batched campaign, N=120, width 16, best of
``SCHEDULE_ROUNDS``): serial vs ``workers=2`` pulling guided chunks from one
shared queue.  Both must be
bit-identical (asserted); on multi-core hosts the pool must be >= serial
(asserted when ``os.cpu_count() >= 2`` -- a single-core host cannot speed
anything up by adding processes, but the rows are still recorded there).
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time

from _harness import persist_bench, run_once

from repro.engine import (
    EngineConfig,
    GoldenArtifactStore,
    GoldenRunCache,
    InjectionEngine,
)
from repro.microarch import InOrderCore
from repro.reporting import format_table
from repro.workloads import workload_by_name

WORKLOAD = "mcf"
STORE_INJECTIONS = 3
"""Small on purpose: the store amortises *golden acquisition*, so the rows
quote the regime where acquisition dominates (repeat campaigns, sweep
workers, CI smoke runs -- all small-N, many-process shapes)."""
SCHEDULE_INJECTIONS = 120
SCHEDULE_ROUNDS = 3
"""Each schedule row is the faster of this many campaigns: on a shared
2-CPU host the first pooled campaign in a process intermittently measured
~2x slower, its workers getting half a CPU each."""
BATCH_WIDTH = 16
WORKERS = 2
MIN_WARM_SPEEDUP = 3.0
"""Acceptance floor: a warm start (artifact loaded) must beat a cold start
(artifact recorded + saved) by this factor on the small campaign."""


def _campaign(config, cache, injections, seed=9):
    """One engine campaign, timed *including* golden acquisition."""
    program = workload_by_name(WORKLOAD).program()
    engine = InjectionEngine(InOrderCore(), program, seed=seed, config=config,
                             golden_cache=cache)
    start = time.perf_counter()
    result = engine.run(injections=injections)
    elapsed = time.perf_counter() - start
    return result, elapsed, cache.stats()


def bench_golden_store(benchmark):
    def payload():
        rows = []
        store_dir = tempfile.mkdtemp(prefix="bench_golden_store_")
        try:
            # ---------------------------------------------- store round-trip
            reference = None
            cold_elapsed = warm_elapsed = None
            modes = [
                ("store-less", lambda: GoldenRunCache()),
                ("cold store", lambda: GoldenRunCache(
                    store=GoldenArtifactStore(store_dir))),
                ("warm store", lambda: GoldenRunCache(
                    store=GoldenArtifactStore(store_dir))),
            ]
            for label, make_cache in modes:
                result, elapsed, stats = _campaign(EngineConfig(),
                                                   make_cache(),
                                                   STORE_INJECTIONS)
                if reference is None:
                    reference = result
                assert result.outcomes == reference.outcomes \
                    and result.per_site == reference.per_site, \
                    "the store must be invisible in campaign statistics"
                if label == "cold store":
                    cold_elapsed = elapsed
                    assert stats.artifacts_saved == 1
                if label == "warm store":
                    warm_elapsed = elapsed
                    assert stats.recorded == 0, (
                        "a warm start must load the golden artifact, "
                        f"not re-record it (recorded {stats.recorded})")
                    assert stats.artifacts_loaded == 1
                rows.append(["store round-trip", label,
                             STORE_INJECTIONS, stats.artifacts_loaded,
                             stats.recorded, f"{elapsed:.3f}s",
                             f"{STORE_INJECTIONS / elapsed:.1f}"])
            warm_speedup = cold_elapsed / warm_elapsed
            assert warm_speedup >= MIN_WARM_SPEEDUP, (
                f"warm start is only {warm_speedup:.1f}x faster than cold "
                f"(floor {MIN_WARM_SPEEDUP}x)")
            rows.append(["store round-trip", "warm vs cold speedup", "-",
                         "-", "-", "-", f"{warm_speedup:.1f}x"])

            # --------------------------------------------- execution schedule
            schedules = [
                ("serial", EngineConfig(batch_width=BATCH_WIDTH)),
                (f"parallel x{WORKERS}",
                 EngineConfig(batch_width=BATCH_WIDTH, workers=WORKERS)),
            ]
            serial_rate = parallel_rate = None
            schedule_ref = None
            for label, config in schedules:
                result, elapsed, stats = min(
                    (_campaign(config,
                               GoldenRunCache(
                                   store=GoldenArtifactStore(store_dir)),
                               SCHEDULE_INJECTIONS)
                     for _ in range(SCHEDULE_ROUNDS)),
                    key=lambda run: run[1])
                assert stats.recorded == 0, \
                    "every schedule row must start warm from the store"
                if schedule_ref is None:
                    schedule_ref = result
                assert result.outcomes == schedule_ref.outcomes \
                    and result.per_site == schedule_ref.per_site, \
                    "schedules must report bit-identical statistics"
                rate = SCHEDULE_INJECTIONS / elapsed
                if label == "serial":
                    serial_rate = rate
                else:
                    parallel_rate = rate
                rows.append(["execution schedule", label,
                             SCHEDULE_INJECTIONS, stats.artifacts_loaded,
                             stats.recorded, f"{elapsed:.2f}s",
                             f"{rate:.1f}"])
            if (os.cpu_count() or 1) >= 2:
                assert parallel_rate >= serial_rate, (
                    f"parallel ({parallel_rate:.1f} inj/s) lost to serial "
                    f"({serial_rate:.1f} inj/s) on a multi-core host")
            rows.append(["execution schedule", "parallel vs serial", "-", "-",
                         "-", "-", f"{parallel_rate / serial_rate:.2f}x"])
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)
        return rows

    rows = run_once(benchmark, payload)
    headers = ["group", "mode", "injections", "artifacts loaded",
               "goldens recorded", "wall time", "injections/s"]
    persist_bench("golden_store", headers, rows,
                  context={"workload": WORKLOAD,
                           "store_injections": STORE_INJECTIONS,
                           "schedule_injections": SCHEDULE_INJECTIONS,
                           "schedule_rounds": SCHEDULE_ROUNDS,
                           "batch_width": BATCH_WIDTH,
                           "workers": WORKERS,
                           "min_warm_speedup": MIN_WARM_SPEEDUP},
                  seed=9, core=InOrderCore(), config=EngineConfig())
    print()
    print(format_table(
        f"Golden-artifact store on {WORKLOAD} (InO-core); wall time "
        f"includes golden acquisition",
        headers, rows))
