"""The benchmark's workloads: injection campaigns on both cores and the
586-combination exploration sweep, each driven through the public API from
one process (see ``NOTES.md`` for why each workload exists).

Every workload offers two runs:

* ``untraced(seed, seconds)`` -- the end-to-end metrics: set-up time
  (median over several cold set-ups), throughput (median over passes of
  fixed work, repeated until ``seconds`` is spent) and peak RSS.  Every
  set-up and pass is timed through :class:`hostspeed.HostSpeed`, so the
  times are scaled to the reference host's speed;
* ``traced(seed)`` -- set-up and one pass untraced, then the same set-up
  and pass again under cProfile, folded into layers (:mod:`layers`), plus
  the deterministic counts, which must agree exactly between the two.

The run seed selects one of the input sets pinned in ``reference/``
(written by ``pin.py``), and every pass is checked against the digests
pinned there: an operation whose result disagrees, or that raised, counts
as failed; it never aborts the run.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core import ClearFramework, sdc_targets
from repro.engine import (EngineConfig, GoldenArtifactStore, GoldenRunCache,
                          InjectionEngine, golden_run_key, run_suite_campaign)
from repro.faultinjection.injector import uniform_injection_plan
from repro.microarch import InOrderCore, OutOfOrderCore
from repro.workloads.suite import suite_for_core

from hostspeed import HostSpeed
from layers import LAYERS, LayerProfile

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_DIR = BENCH_DIR / "reference"

CAMPAIGN_SEED = 9
FRAMEWORK_SEED = 2016

CAMPAIGN_SETUP_REPEATS = 3
EXPLORE_SETUP_REPEATS = 7

LATCH_ACCESSORS = ("get", "set", "get_signed", "set_signed", "get_bit",
                   "flip_bit", "col", "set_col")
"""``microarch.state`` functions that read or write a latch value."""


_now = time.perf_counter


def digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()
                          ).hexdigest()[:16]


class ReferenceMissing(Exception):
    """The pinned table a workload checks against is missing or broken."""


def reference_path(table: str) -> Path:
    return REFERENCE_DIR / f"{table}.json"


def load_reference(table: str) -> dict:
    try:
        return json.loads(reference_path(table).read_text())
    except (OSError, ValueError) as error:
        raise ReferenceMissing(f"no usable pinned table "
                               f"{reference_path(table)} ({error!r}); "
                               f"run pin.py") from error


def input_set(table: dict, seed: int) -> int:
    """The pinned input set (campaign or framework seed) of a run seed."""
    seeds = table["seeds"]
    return seeds[seed % len(seeds)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Tally:
    """Operations attempted and failed, plus every problem found."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        self.problems.append(message)


# ---------------------------------------------------------------- campaigns
def campaign_digest(result) -> str:
    """Digest of one program's outcome tallies and per-site tallies."""
    return digest([result.outcomes.as_dict(),
                   sorted((site, counts.as_dict())
                          for site, counts in result.per_site.items())])


def _replay_counts(results) -> dict[str, int]:
    return {
        "injections": sum(r.injections for r in results),
        "replay.cycles": sum(r.replayed_cycles for r in results),
        "converged": sum(r.converged_count for r in results),
        "saved": sum(r.saved_cycles for r in results),
        "evicted": sum(r.evicted_count for r in results),
        "lockstep": sum(r.lockstep_cycles for r in results),
    }


def _golden_counts(goldens) -> dict[str, int]:
    return {
        "golden.cycles": sum(g.golden.cycles for g in goldens),
        "golden.snapshots": sum(g.checkpoint_count for g in goldens),
        "golden.fingerprints": sum(g.fingerprint_count for g in goldens),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _counter(results, name: str) -> int:
    return sum((r.metrics or {}).get("counters", {}).get(name, 0)
               for r in results)


@dataclass(frozen=True)
class CampaignWorkload:
    """``run_suite_campaign`` over a core's whole suite.

    One *pass* is a suite campaign of ``injections`` per program at each
    of the ``input_sets`` campaign seeds the run's seed selects; an
    untraced run repeats that pass until ``seconds`` is spent (the traced
    run uses the first seed only), and throughput is taken over the median
    pass time.
    """

    name: str
    core_factory: type
    config: EngineConfig
    injections: int
    reference: str
    input_sets: int = 1
    min_passes: int = 2
    """Passes per untraced run even when fewer fill ``seconds``."""

    def prepare(self):
        core = self.core_factory()
        return core, suite_for_core(core)

    def seeds(self, table: dict, seed: int) -> list[int]:
        """The campaign seeds of one pass: ``input_sets`` consecutive pinned
        input sets starting at the run seed's."""
        return [input_set(table, seed + k) for k in range(self.input_sets)]

    def record_goldens(self, core, suite, config=None):
        """Cold-record every suite golden into a fresh cache, as the first
        campaign of a process does; returns (cache, goldens)."""
        config = config or self.config
        cache = GoldenRunCache(max_entries=len(suite))
        goldens = [InjectionEngine(core, workload.program(), config=config,
                                   golden_cache=cache).golden()
                   for workload in suite]
        return cache, goldens

    def run_pass(self, core, suite, cache, seed: int, tally: Tally,
                 config=None):
        """One suite campaign; returns its results.  A campaign that raises
        counts all its injections as failed."""
        planned = self.injections * len(suite)
        tally.attempted += planned
        try:
            _, results = run_suite_campaign(
                core, suite, injections_per_workload=self.injections,
                seed=seed, config=config or self.config, golden_cache=cache)
        except Exception as error:  # counted as failed, never fatal
            tally.fail(planned, f"seed {seed}: campaign raised {error!r}")
            return []
        return results

    @staticmethod
    def check(seed: int, results, tally: Tally, table: dict) -> None:
        """Compare every program's tallies with the pinned digest."""
        expected = table["digests"].get(str(seed), {})
        for result in results:
            if expected.get(result.program_name) != campaign_digest(result):
                tally.fail(result.injections,
                           f"seed {seed}: {result.program_name} tallies "
                           f"{result.outcomes.as_dict()} differ from the "
                           f"pinned reference")

    def untraced(self, seed: int, seconds: float):
        table = load_reference(self.reference)
        seeds = self.seeds(table, seed)
        core, suite = self.prepare()
        tally = Tally()
        setups, passes = [], []
        with HostSpeed() as host:
            for _ in range(CAMPAIGN_SETUP_REPEATS):
                gc.collect()
                (cache, _), *times = host.time(self.record_goldens, core,
                                               suite)
                setups.append(times)
            attempts, start = 0, _now()
            while True:
                gc.collect()
                times, complete = [0.0, 0.0], True
                for campaign_seed in seeds:
                    results, *seed_times = host.time(
                        self.run_pass, core, suite, cache, campaign_seed,
                        tally)
                    self.check(campaign_seed, results, tally, table)
                    complete = complete and bool(results)
                    times = [a + b for a, b in zip(times, seed_times)]
                if complete:
                    passes.append(times)
                attempts += 1
                spent = _now() - start
                if attempts >= self.min_passes and \
                        spent + spent / attempts > seconds:
                    break
        injections = self.injections * len(suite) * len(seeds)
        return medians(injections, passes, setups, self.name), tally

    def traced(self, seed: int):
        table = load_reference(self.reference)
        seed = input_set(table, seed)
        core, suite = self.prepare()
        tally = Tally()
        gc.collect()
        start = _now()
        cache, goldens = self.record_goldens(core, suite)
        record_s = _now() - start
        save_s, load_s = store_round_trip(core, suite, goldens, self.config,
                                          tally)
        resolve_s = self.plan_resolve_s(core, suite, goldens, seed)
        start = _now()
        results = self.run_pass(core, suite, cache, seed, tally)
        pass_s = _now() - start
        self.check(seed, results, tally, table)
        del cache
        gc.collect()
        metered = dataclasses.replace(self.config, metrics=True)

        def setup_and_pass():
            cache, goldens = self.record_goldens(core, suite, metered)
            return goldens, self.run_pass(core, suite, cache, seed, tally,
                                          metered)

        start = _now()
        (traced_goldens, traced_results), profile = LayerProfile.capture(
            setup_and_pass)
        traced_s = _now() - start
        self.check(seed, traced_results, tally, table)

        counts = {**_golden_counts(goldens), **_replay_counts(results)}
        traced_counts = {**_golden_counts(traced_goldens),
                         **_replay_counts(traced_results)}
        if counts != traced_counts:
            tally.problems.append(f"deterministic counts varied between "
                                  f"runs: {counts} != {traced_counts}")
        injections = counts["injections"]
        replayed = counts["replay.cycles"]
        accesses = profile.calls("microarch.state", *LATCH_ACCESSORS)
        metrics = layer_metrics(profile, _ratio(traced_s, record_s + pass_s))
        metrics.update({
            "injections_per_s": _ratio(injections, pass_s),
            "golden.record_s": record_s,
            "golden.store_save_s": save_s,
            "golden.store_load_s": load_s,
            "golden.cycles": counts["golden.cycles"],
            "golden.snapshots": counts["golden.snapshots"],
            "golden.fingerprints": counts["golden.fingerprints"],
            "replay.cycles": replayed,
            "replay.ns_per_cycle": _ratio(1e9 * pass_s, replayed),
            "replay.converged_fraction": _ratio(counts["converged"],
                                                injections),
            "replay.saved_cycle_fraction": _ratio(counts["saved"],
                                                  replayed + counts["saved"]),
            "batch.evicted_fraction": _ratio(counts["evicted"], injections),
            "batch.lockstep_cycle_fraction": _ratio(counts["lockstep"],
                                                    replayed),
            "plan.resolve_s": resolve_s,
            "convergence.probes": _counter(traced_results,
                                           "count.fingerprint.checks"),
            "count.fingerprint.full": _counter(traced_results,
                                               "count.fingerprint.full"),
            "count.fingerprint.rolling": _counter(
                traced_results, "count.fingerprint.rolling"),
            "latch.accesses": accesses,
            "latch.accesses_per_cycle": _ratio(
                accesses, counts["golden.cycles"] + replayed),
        })
        return metrics, tally

    def plan_resolve_s(self, core, suite, goldens, seed: int) -> float:
        """Time ``InjectionEngine.resolve_plan`` on the pass's plans."""
        total = 0.0
        for offset, (workload, golden) in enumerate(zip(suite, goldens)):
            engine = InjectionEngine(core, workload.program(),
                                     seed=seed + offset, config=self.config)
            plan = uniform_injection_plan(core.flip_flop_count,
                                          golden.golden.cycles,
                                          self.injections, seed=seed + offset)
            start = _now()
            engine.resolve_plan(plan)
            total += _now() - start
        return total


def store_round_trip(core, suite, goldens, config, tally):
    """Save then load every recorded golden through a
    ``GoldenArtifactStore`` inside the checkout; returns (save_s, load_s)."""
    root = ROOT / ".perfbench_tmp" / f"store-{os.getpid()}"
    store = GoldenArtifactStore(root)
    keys = [golden_run_key(
        core, workload.program(), interval=config.checkpoint_interval,
        max_checkpoints=config.max_checkpoints, max_cycles=config.max_cycles,
        fingerprint_interval=(config.convergence_interval
                              if config.convergence_enabled else 0),
        max_fingerprints=config.max_fingerprints) for workload in suite]
    try:
        start = _now()
        for key, golden in zip(keys, goldens):
            store.save_key(key, golden)
        save_s = _now() - start
        start = _now()
        loaded = [store.load_key(key) for key in keys]
        load_s = _now() - start
    finally:
        shutil.rmtree(root, ignore_errors=True)
    for workload, golden, back in zip(suite, goldens, loaded):
        if back is None or back.golden != golden.golden \
                or back.fingerprints != golden.fingerprints \
                or back.checkpoint_count != golden.checkpoint_count:
            tally.problems.append(f"{workload.name}: golden artifact did "
                                  f"not round-trip through the store")
    return save_s, load_s


# -------------------------------------------------------------- exploration
def _record_row(record) -> list:
    return [record.combination_index, record.target_index, record.label,
            record.target_label, repr(record.area_pct),
            repr(record.power_pct), repr(record.energy_pct),
            repr(record.exec_time_pct), repr(record.sdc_improvement),
            repr(record.due_improvement), record.protected_flip_flops,
            record.meets_target]


def explore_digest(framework, frontier) -> str:
    """Digest of every (combination, target) record and of the frontier.

    The records come from a second sweep over the framework's now-warm
    schedules, which is cheap and must reproduce the timed sweep exactly.
    """
    records = sorted(_record_row(record) for record in
                     framework.explorer.stream_records(sdc_targets()))
    points = [[repr(p.improvement), repr(p.energy_pct), repr(p.area_pct),
               repr(p.exec_time_pct), p.label] for p in frontier.points()]
    return digest([frontier.seen, records, points])


@dataclass(frozen=True)
class ExploreWorkload:
    """``explore_frontier`` over all 586 combinations x 5 SDC targets on
    freshly built InO and OoO frameworks (calibrated vulnerability)."""

    name: str = "explore-586"
    reference: str = "explore"

    @staticmethod
    def build(seed: int):
        """Build both frameworks."""
        return [factory(seed=seed) for factory in (
            ClearFramework.for_inorder_core,
            ClearFramework.for_out_of_order_core)]

    @staticmethod
    def sweep(frameworks):
        return [framework.explore_frontier(targets=sdc_targets())
                for framework in frameworks]

    @staticmethod
    def check(seed, frameworks, frontiers, tally, table) -> int:
        """Check every core against the pinned digest; returns pairs."""
        expected = table["digests"].get(str(seed), {})
        pairs = 0
        for framework, frontier in zip(frameworks, frontiers):
            tally.attempted += frontier.seen
            pairs += frontier.seen
            if expected.get(framework.core.name) != explore_digest(
                    framework, frontier):
                tally.fail(frontier.seen,
                           f"framework seed {seed}: {framework.core.name} "
                           f"records or frontier differ from the pinned "
                           f"reference")
        return pairs

    def untraced(self, seed: int, seconds: float):
        table = load_reference(self.reference)
        seed = input_set(table, seed)
        tally = Tally()
        builds, sweeps, pairs = [], [], 0
        with HostSpeed() as host:
            for _ in range(EXPLORE_SETUP_REPEATS):
                frameworks = None
                gc.collect()
                frameworks, *times = host.time(self.build, seed)
                builds.append(times)
            start = _now()
            while True:
                gc.collect()
                frontiers, *times = host.time(self.sweep, frameworks)
                sweeps.append(times)
                pairs = self.check(seed, frameworks, frontiers, tally, table)
                del frameworks, frontiers
                spent = _now() - start
                if spent + spent / len(sweeps) > seconds:
                    break
                gc.collect()
                frameworks, *times = host.time(self.build, seed)
                builds.append(times)
        return medians(pairs, sweeps, builds, self.name), tally

    def traced(self, seed: int):
        table = load_reference(self.reference)
        seed = input_set(table, seed)
        tally = Tally()
        gc.collect()
        start = _now()
        frameworks = self.build(seed)
        build_s = _now() - start
        start = _now()
        frontiers = self.sweep(frameworks)
        sweep_s = _now() - start
        pairs = self.check(seed, frameworks, frontiers, tally, table)
        points = sum(len(frontier) for frontier in frontiers)
        del frameworks, frontiers
        gc.collect()

        def setup_and_sweep():
            frameworks = self.build(seed)
            return frameworks, self.sweep(frameworks)

        start = _now()
        (frameworks, frontiers), profile = LayerProfile.capture(
            setup_and_sweep)
        traced_s = _now() - start
        traced_pairs = self.check(seed, frameworks, frontiers, tally, table)
        traced_points = sum(len(frontier) for frontier in frontiers)
        if (pairs, points) != (traced_pairs, traced_points):
            tally.problems.append(
                f"deterministic counts varied between runs: pairs/points "
                f"{pairs}/{points} != {traced_pairs}/{traced_points}")
        metrics = layer_metrics(profile, _ratio(traced_s, build_s + sweep_s))
        metrics.update({
            "pairs_per_s": _ratio(pairs, sweep_s),
            "frontier.points": points,
            "frontier.add_s": profile.cumulative_s("analysis.pareto", "add"),
            "vulnerability.lookups": profile.calls(
                "faultinjection.vulnerability", "site"),
            "planner.profile_s": profile.cumulative_s("core.heuristics",
                                                      "profile"),
            "planner.schedules": profile.calls("core.schedule", "__init__"),
            "planner.schedule_for_s": profile.cumulative_s(
                "core.heuristics", "schedule_for"),
            "schedule.plan_costed_s": profile.cumulative_s(
                "core.schedule", "plan_costed"),
        })
        return metrics, tally


def medians(work: int, passes: list, setups: list, name: str) -> dict:
    """End-to-end metrics from the (wall, scaled) seconds of every complete
    pass and every set-up: work over the median pass, and the median
    set-up.  A run without a complete pass reads 0 operations per second.
    The wall-clock figures go to standard error."""
    def median(times, column):
        return statistics.median(t[column] for t in times) if times else 0.0

    wall, scaled = ({"ops_per_s": _ratio(work, median(passes, column)),
                     "setup_s": median(setups, column)} for column in (0, 1))
    print(f"{name}: wall-clock ops_per_s {wall['ops_per_s']:.4g}, setup_s "
          f"{wall['setup_s']:.4g}; scaled to the reference host "
          f"{scaled['ops_per_s']:.4g} and {scaled['setup_s']:.4g}",
          file=sys.stderr)
    return {**scaled, "peak_rss_mb": peak_rss_mb()}


def layer_metrics(profile: LayerProfile, overhead: float) -> dict:
    metrics = {"trace.overhead": overhead,
               "trace.named_share": 1.0 - profile.share("other")}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = profile.self_s[layer]
        metrics[f"{layer}.share"] = profile.share(layer)
    return metrics


WORKLOADS = {
    workload.name: workload for workload in (
        CampaignWorkload("campaign-ino", InOrderCore, EngineConfig(),
                         injections=20, reference="ino"),
        CampaignWorkload("campaign-ino-batched", InOrderCore,
                         EngineConfig(batch_width=16), injections=20,
                         reference="ino", input_sets=8, min_passes=1),
        CampaignWorkload("campaign-ooo", OutOfOrderCore, EngineConfig(),
                         injections=3, reference="ooo", input_sets=4,
                         min_passes=1),
        ExploreWorkload(),
    )
}
