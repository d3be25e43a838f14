"""Tests for the unified instrumentation layer (:mod:`repro.obs`).

Covers the observability contracts the engine now rests on:

1. the disabled fast path really is a no-op: disabled registries/recorders
   hand back shared null singletons and stay empty, and campaigns report
   bit-identical outcomes with instrumentation fully on and fully off
   (both cores, both executors);
2. worker metrics merge deterministically: a parallel campaign with pinned
   chunking reproduces the serial campaign's counters and histograms
   exactly;
3. the emitted trace is valid Chrome trace-event JSON carrying the expected
   phase spans, and the phase cycle counters reconcile *exactly* with the
   campaign telemetry (``replayed_cycles`` / ``saved_cycles`` /
   ``lockstep_cycles``);
4. run manifests ride along with persisted frontiers and ``BENCH_*.json``
   documents and survive the round-trip.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.analysis.pareto import ParetoFrontier, ParetoPoint
from repro.analysis.store import (
    STORE_VERSION,
    frontier_from_dict,
    frontier_to_dict,
    load_frontier,
    save_frontier,
)
from repro.engine import (CampaignSpec, ChunkSpec, EngineConfig,
                          GoldenRunCache, InjectionEngine, ParallelExecutor,
                          SerialExecutor, execute_chunk)
from repro.faultinjection import uniform_injection_plan
from repro.microarch import InOrderCore, OutOfOrderCore
from repro.obs import (
    NULL_METRICS,
    NULL_SPAN,
    NULL_TIMER,
    NULL_TRACER,
    Instrumentation,
    MetricsRegistry,
    TraceRecorder,
    build_manifest,
    git_revision,
    manifest_dict,
    validate_trace_events,
)
from repro.obs.phases import (
    CYCLES_LOCKSTEP,
    CYCLES_SAVED,
    HISTOGRAM_REPLAY_CYCLES,
    PHASE_GOLDEN_RECORD,
    PHASE_LOCKSTEP,
    REPLAY_CYCLE_COUNTERS,
    SPAN_CAMPAIGN,
    SPAN_CHUNK,
    SPAN_PLAN,
    replayed_cycle_total,
)
from repro.reporting import format_phase_breakdown, format_table
from repro.workloads import workload_by_name

CORE_CLASSES = (InOrderCore, OutOfOrderCore)


@pytest.fixture(scope="module")
def program():
    return workload_by_name("histogram").program()


def run_campaign(core, program, seed=3, injections=24, executor=None,
                 **config_kwargs):
    """One engine campaign on a private golden cache (so the golden-record
    counters do not depend on which test ran first)."""
    engine = InjectionEngine(core, program, seed=seed,
                             config=EngineConfig(**config_kwargs),
                             executor=executor,
                             golden_cache=GoldenRunCache())
    return engine.run(injections=injections)


def assert_same_statistics(a, b):
    """The campaign exactness contract: outcome counts, per-site tallies and
    the replay telemetry all agree."""
    assert a.outcomes == b.outcomes
    assert a.per_site == b.per_site
    assert a.replayed_cycles == b.replayed_cycles
    assert a.saved_cycles == b.saved_cycles
    assert a.converged_count == b.converged_count
    assert a.evicted_count == b.evicted_count
    assert a.lockstep_cycles == b.lockstep_cycles


# ---------------------------------------------------------------------------
# MetricsRegistry
# ---------------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counters_accumulate(self):
        metrics = MetricsRegistry()
        metrics.inc("cycles", 10)
        metrics.inc("cycles", 5)
        metrics.inc("replays")
        assert metrics.value("cycles") == 15
        assert metrics.value("replays") == 1
        assert metrics.value("never-touched") == 0

    def test_timer_accumulates_seconds_and_count(self):
        metrics = MetricsRegistry(timing=True)
        with metrics.timer("phase"):
            pass
        metrics.add_time("phase", 0.5)
        assert metrics.seconds("phase") >= 0.5
        assert metrics.timers["phase"][1] == 2

    def test_histogram_power_of_two_buckets(self):
        metrics = MetricsRegistry()
        for value in (0, 1, 2, 3, 4, 7, 8, 1000):
            metrics.observe("lengths", value)
        assert metrics.histograms["lengths"] == {
            0: 1, 1: 1, 2: 2, 3: 2, 4: 1, 10: 1}

    def test_dict_round_trip_and_merge(self):
        metrics = MetricsRegistry(timing=True)
        metrics.inc("cycles", 7)
        metrics.add_time("phase", 1.25, count=3)
        metrics.observe("lengths", 5)
        restored = MetricsRegistry.from_dict(metrics.to_dict())
        assert restored.to_dict() == metrics.to_dict()

        merged = MetricsRegistry(timing=True)
        merged.merge(metrics)
        merged.merge(restored)
        assert merged.value("cycles") == 14
        assert merged.seconds("phase") == 2.5
        assert merged.histograms["lengths"] == {3: 2}

    def test_disabled_registry_is_a_no_op(self):
        metrics = MetricsRegistry(enabled=False)
        metrics.inc("cycles", 10)
        metrics.add_time("phase", 1.0)
        metrics.observe("lengths", 5)
        metrics.merge_dict({"counters": {"cycles": 3}})
        assert metrics.timer("phase") is NULL_TIMER
        assert not metrics.counters and not metrics.timers
        assert not metrics.histograms
        # The shared singleton must never have accumulated anything either.
        assert not NULL_METRICS.counters

    def test_counters_without_timing_skip_the_clock(self):
        """The engine's per-chunk shape: counters on, clock off."""
        metrics = MetricsRegistry(enabled=True, timing=False)
        metrics.inc("cycles", 2)
        metrics.add_time("phase", 1.0)
        assert metrics.timer("phase") is NULL_TIMER
        assert metrics.value("cycles") == 2
        assert not metrics.timers


# ---------------------------------------------------------------------------
# TraceRecorder
# ---------------------------------------------------------------------------
class TestTraceRecorder:
    def test_disabled_recorder_hands_back_null_span(self):
        tracer = TraceRecorder(enabled=False)
        assert tracer.span("anything") is NULL_SPAN
        tracer.instant("event")
        tracer.absorb([{"name": "x"}])
        assert tracer.events == []
        assert NULL_TRACER.events == []

    def test_span_and_instant_events_validate(self):
        tracer = TraceRecorder(enabled=True)
        with tracer.span("outer", args={"seed": 3}) as span:
            span.note(cycles=12)
            tracer.instant("marker", args={"k": 1})
        events = validate_trace_events(tracer.to_dict())
        assert [event["name"] for event in events] == ["marker", "outer"]
        outer = events[1]
        assert outer["ph"] == "X" and outer["dur"] >= 0
        assert outer["args"] == {"seed": 3, "cycles": 12}
        assert tracer.span_names() == {"outer", "marker"}

    def test_absorb_keeps_worker_events_verbatim(self):
        worker = TraceRecorder(enabled=True)
        with worker.span("chunk"):
            pass
        worker.events[0]["pid"] = 99999  # simulate a different process
        home = TraceRecorder(enabled=True)
        home.absorb(worker.events)
        assert home.events[0]["pid"] == 99999

    def test_validate_rejects_malformed_documents(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_trace_events({"events": []})
        with pytest.raises(ValueError, match="missing"):
            validate_trace_events({"traceEvents": [{"name": "x", "ph": "i"}]})
        with pytest.raises(ValueError, match="dur"):
            validate_trace_events({"traceEvents": [
                {"name": "x", "ph": "X", "ts": 0.0, "pid": 1, "tid": 0}]})

    def test_save_writes_loadable_json(self, tmp_path):
        tracer = TraceRecorder(enabled=True)
        with tracer.span("campaign"):
            pass
        path = tracer.save(tmp_path / "nested" / "trace.json")
        document = json.loads(path.read_text())
        assert validate_trace_events(document)[0]["name"] == "campaign"
        assert document["displayTimeUnit"] == "ms"


# ---------------------------------------------------------------------------
# Instrumentation bundle
# ---------------------------------------------------------------------------
class TestInstrumentation:
    def test_off_is_the_shared_disabled_bundle(self):
        obs = Instrumentation.off()
        assert obs.metrics is NULL_METRICS
        assert obs.tracer is NULL_TRACER
        assert not obs.detailed

    def test_configure_tiers(self):
        default = Instrumentation.configure()
        assert default.metrics.enabled and not default.metrics.timing
        assert not default.tracer.enabled and not default.detailed
        detailed = Instrumentation.configure(metrics=True, trace=True)
        assert detailed.metrics.timing and detailed.tracer.enabled
        assert detailed.detailed


# ---------------------------------------------------------------------------
# Disabled fast path through real campaigns
# ---------------------------------------------------------------------------
class TestCampaignsUnchangedByInstrumentation:
    @pytest.mark.parametrize("core_class", CORE_CLASSES,
                             ids=lambda cls: cls.__name__)
    @pytest.mark.parametrize("workers", (1, 2), ids=("serial", "parallel"))
    def test_outcomes_identical_obs_on_and_off(self, core_class, workers,
                                               program, tmp_path):
        baseline = run_campaign(core_class(), program, workers=workers)
        traced = run_campaign(core_class(), program, workers=workers,
                              metrics=True,
                              trace=str(tmp_path / "trace.json"))
        assert_same_statistics(baseline, traced)
        assert baseline.trace_events is None
        assert traced.trace_events

    def test_outcomes_identical_with_batched_replay(self, program, tmp_path):
        baseline = run_campaign(InOrderCore(), program, batch_width=8)
        traced = run_campaign(InOrderCore(), program, batch_width=8,
                              metrics=True,
                              trace=str(tmp_path / "trace.json"))
        assert_same_statistics(baseline, traced)

    def test_counters_collected_even_with_obs_off(self, program):
        """Phase cycle counters back the campaign telemetry, so they are
        always on; only timers/histograms/spans are gated."""
        result = run_campaign(InOrderCore(), program)
        counters = result.metrics["counters"]
        assert result.replayed_cycles == sum(
            counters.get(name, 0) for name in REPLAY_CYCLE_COUNTERS)
        assert not result.metrics["timers"]
        assert not result.metrics["histograms"]


# ---------------------------------------------------------------------------
# Deterministic cross-worker merge
# ---------------------------------------------------------------------------
class TestDeterministicWorkerMerge:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_parallel_counters_match_serial_exactly(self, program):
        """One chunk list, streamed through the serial executor and through
        a 2-worker pool, merges to the same counters and histograms, bit for
        bit.  (Chunking itself must be pinned: each chunk sweeps its own
        wavefront reference lane, so chunk *shape* legitimately shapes the
        shared-cycle counter -- the executor must not.  The warning filter
        fails the test if the pool falls back to serial.)"""
        engine = InjectionEngine(InOrderCore(), program, seed=3,
                                 golden_cache=GoldenRunCache())
        checkpointed = engine.golden()
        planned = engine.resolve_plan(uniform_injection_plan(
            engine.core.flip_flop_count, checkpointed.golden.cycles, 30,
            seed=3))
        chunks = [ChunkSpec(index=index, planned=planned[start:start + 8],
                            seed=index)
                  for index, start in enumerate(range(0, len(planned), 8))]
        spec = CampaignSpec(core=engine.core, program=program,
                            checkpointed=checkpointed, batch_width=8,
                            metrics=True)

        def merged(executor):
            results = sorted(executor.stream(spec, chunks, execute_chunk),
                             key=lambda result: result.index)
            metrics = MetricsRegistry()
            for result in results:
                metrics.merge(result.metrics)
            return ([(result.outcomes, result.per_site) for result in results],
                    metrics.to_dict())

        serial_tallies, serial = merged(SerialExecutor())
        parallel_tallies, parallel = merged(ParallelExecutor(workers=2))
        assert len(chunks) == 4
        assert serial_tallies == parallel_tallies
        assert serial["counters"] == parallel["counters"]
        assert serial["histograms"] == parallel["histograms"]
        assert serial["histograms"].get(HISTOGRAM_REPLAY_CYCLES)
        # Wall-clock seconds differ run to run, but the invocation counts
        # under each timer are part of the deterministic merge.
        assert ({name: entry["count"]
                 for name, entry in serial["timers"].items()}
                == {name: entry["count"]
                    for name, entry in parallel["timers"].items()})


# ---------------------------------------------------------------------------
# Acceptance scenario: traced parallel batched campaign reconciles
# ---------------------------------------------------------------------------
class TestTracedCampaignReconciliation:
    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory):
        program = workload_by_name("histogram").program()
        trace_path = tmp_path_factory.mktemp("obs") / "campaign_trace.json"
        # An explicit pool: the fixture's 30 injections sit below the
        # engine's small-plan serial fallback, and this class asserts
        # multi-process trace tracks.
        result = run_campaign(InOrderCore(), program, seed=3, injections=30,
                              executor=ParallelExecutor(workers=2),
                              batch_width=8, metrics=True,
                              trace=str(trace_path))
        return result, trace_path

    def test_phase_counters_reconcile_with_telemetry(self, traced):
        result, _ = traced
        counters = result.metrics["counters"]
        assert result.replayed_cycles == sum(
            counters.get(name, 0) for name in REPLAY_CYCLE_COUNTERS)
        assert result.replayed_cycles == replayed_cycle_total(result.metrics)
        assert result.lockstep_cycles == counters.get(CYCLES_LOCKSTEP, 0)
        assert result.saved_cycles == counters.get(CYCLES_SAVED, 0)
        assert result.lockstep_cycles > 0
        assert result.saved_cycles > 0

    def test_trace_file_is_valid_chrome_trace_json(self, traced):
        result, trace_path = traced
        document = json.loads(trace_path.read_text())
        events = validate_trace_events(document)
        names = {event["name"] for event in events}
        assert {SPAN_CAMPAIGN, SPAN_PLAN, SPAN_CHUNK,
                PHASE_GOLDEN_RECORD, PHASE_LOCKSTEP} <= names
        # Worker chunks keep their own pid: multiple process tracks.
        assert len({event["pid"] for event in events}) >= 2
        # The in-memory events are the same document.
        assert events == result.trace_events

    def test_outcomes_match_untraced_campaign(self, traced):
        result, _ = traced
        program = workload_by_name("histogram").program()
        plain = run_campaign(InOrderCore(), program, seed=3, injections=30,
                             executor=ParallelExecutor(workers=2),
                             batch_width=8)
        assert_same_statistics(plain, result)

    def test_phase_breakdown_table_reconciles(self, traced):
        result, _ = traced
        table = format_phase_breakdown(result)
        lines = table.splitlines()
        assert lines[2].split() == ["phase", "cycles", "share", "wall"]
        total_line = lines[-1]
        assert total_line.startswith("replayed total")
        assert int(total_line.split()[2]) == result.replayed_cycles


# ---------------------------------------------------------------------------
# Run manifests
# ---------------------------------------------------------------------------
class TestRunManifest:
    def test_git_revision_in_checkout(self):
        revision = git_revision()
        assert revision is None or (len(revision) == 40
                                    and set(revision) <= set("0123456789abcdef"))

    def test_build_manifest_records_core_and_config(self):
        manifest = build_manifest(seed=7, core=InOrderCore(),
                                  config=EngineConfig(workers=2),
                                  kind="unit-test")
        assert manifest.seed == 7
        assert manifest.core_class == "InOrderCore"
        assert manifest.engine_config["workers"] == 2
        assert manifest.extra == {"kind": "unit-test"}
        assert manifest.packages["python"]
        document = manifest.to_dict()
        json.dumps(document)  # must be JSON-ready
        assert document == manifest_dict(seed=7, core=InOrderCore(),
                                         config=EngineConfig(workers=2),
                                         kind="unit-test") | {
                                             "created": document["created"]}

    def test_frontier_store_round_trips_manifest(self, tmp_path):
        frontier = ParetoFrontier()
        frontier.update([ParetoPoint(improvement=2.0, energy_pct=5.0,
                                     area_pct=1.0, exec_time_pct=0.0,
                                     label="combo")])
        manifest = manifest_dict(seed=11, core="InO-core")
        path = save_frontier(tmp_path / "frontier.json", frontier,
                             metadata={"label": "run"}, manifest=manifest)
        document = json.loads(path.read_text())
        assert document["version"] == STORE_VERSION
        stored = load_frontier(path)
        assert stored.manifest == manifest
        assert stored.metadata == {"label": "run"}

    def test_frontier_store_builds_default_manifest(self, tmp_path):
        frontier = ParetoFrontier()
        document = frontier_to_dict(frontier)
        assert document["manifest"]["version"] == 1
        assert "host" in document["manifest"]

    def test_version1_document_loads_without_manifest(self):
        document = frontier_to_dict(ParetoFrontier())
        del document["manifest"]
        document["version"] = 1
        stored = frontier_from_dict(document)
        assert stored.manifest == {}


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------
class TestReporting:
    def test_format_table_has_no_trailing_whitespace(self):
        table = format_table("T", ["long header", "x"],
                             [["a", "bbbb"], ["cc", "d"]])
        for line in table.splitlines():
            assert line == line.rstrip()

    def test_phase_breakdown_accepts_bare_metrics_document(self):
        table = format_phase_breakdown(
            {"counters": {"cycles.replay.scalar": 100,
                          "cycles.saved.convergence": 40}})
        assert "scalar replay" in table and "100.0%" in table
        assert "wall" not in table.splitlines()[2]

    def test_phase_breakdown_tolerates_missing_metrics(self):
        table = format_phase_breakdown(None)
        assert table.splitlines()[-1].startswith("replayed total")


# ---------------------------------------------------------------------------
# Benchmark harness persistence
# ---------------------------------------------------------------------------
class TestBenchPersistence:
    def test_persist_bench_schema_and_provenance(self, tmp_path, monkeypatch):
        benchmarks = Path(__file__).resolve().parents[1] / "benchmarks"
        monkeypatch.syspath_prepend(str(benchmarks))
        monkeypatch.setenv("BENCH_OUTPUT_DIR", str(tmp_path))
        sys.modules.pop("_harness", None)
        import _harness

        path = _harness.persist_bench("obs_unit", ["col"], [[1]],
                                      context={"note": "test"})
        document = json.loads(path.read_text())
        assert document["schema"] == _harness.BENCH_SCHEMA == 2
        assert document["context"]["note"] == "test"
        assert "git" in document["context"]
        assert document["manifest"]["extra"]["benchmark"] == "obs_unit"
