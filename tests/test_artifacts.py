"""Tests for the persistent content-addressed golden-artifact store.

Covers the store's robustness contract (truncated / corrupted / foreign /
future-versioned / mis-keyed blobs and racing writers all degrade to a clean
re-record -- never a crash, never stale state), the two-tier
:class:`GoldenRunCache`, the warm-vs-cold bit-exactness property on both
cores, and the executor layer: guided sharding, the small-plan serial
fallback, and the split between pool failures (finished serially) and shard
exceptions (raised unchanged).  It also pins the on-disk fingerprint format.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import (
    EngineConfig,
    GoldenArtifactStore,
    GoldenRunCache,
    InjectionEngine,
    ParallelExecutor,
    SerialExecutor,
    artifact_digest,
    cache_for_artifact_dir,
    golden_run_key,
    shard_plan,
    shard_plan_guided,
)
from repro.engine.artifacts import (
    ARTIFACT_FORMAT,
    ARTIFACT_SUFFIX,
    ARTIFACT_VERSION,
    digest_of_key,
)
from repro.engine.checkpoint import resolve_golden_cache
from repro.microarch import InOrderCore, OutOfOrderCore
from repro.workloads import workload_by_name

CORE_CLASSES = (InOrderCore, OutOfOrderCore)


@pytest.fixture(scope="module")
def program():
    return workload_by_name("vpr").program()


@pytest.fixture()
def store(tmp_path):
    return GoldenArtifactStore(tmp_path / "artifacts")


def _save_one(store, program, core=None):
    core = core or InOrderCore()
    cache = GoldenRunCache(store=store)
    artifact = cache.get(core, program)
    digest = artifact_digest(core, program)
    assert store.path_for(digest).exists()
    return digest, artifact


# --------------------------------------------------------------------- digests
class TestContentAddressing:
    def test_digest_is_deterministic(self, program):
        core = InOrderCore()
        assert artifact_digest(core, program) == artifact_digest(core, program)

    def test_digest_depends_on_recording_knobs(self, program):
        core = InOrderCore()
        base = artifact_digest(core, program)
        assert artifact_digest(core, program, interval=17) != base
        assert artifact_digest(core, program, max_checkpoints=3) != base
        assert artifact_digest(core, program, fingerprint_interval=9) != base

    def test_digest_distinguishes_cores(self, program):
        assert (artifact_digest(InOrderCore(), program)
                != artifact_digest(OutOfOrderCore(), program))

    def test_default_knobs_normalise_to_explicit_defaults(self, program):
        """None budget knobs hash identically to their explicit defaults, so
        the disk tier and the memory tier agree about key identity."""
        from repro.engine.checkpoint import (DEFAULT_MAX_CHECKPOINTS,
                                             DEFAULT_MAX_FINGERPRINTS)
        from repro.microarch.core import DEFAULT_MAX_CYCLES

        core = InOrderCore()
        assert artifact_digest(core, program) == artifact_digest(
            core, program, max_checkpoints=DEFAULT_MAX_CHECKPOINTS,
            max_cycles=DEFAULT_MAX_CYCLES,
            max_fingerprints=DEFAULT_MAX_FINGERPRINTS)

    def test_digest_of_key_matches(self, program):
        core = InOrderCore()
        assert digest_of_key(golden_run_key(core, program)) == \
            artifact_digest(core, program)


# ------------------------------------------------------------------- integrity
class TestBlobIntegrity:
    def test_round_trip(self, store, program):
        digest, artifact = _save_one(store, program)
        loaded = store.load(digest)
        assert pickle.dumps(loaded) == pickle.dumps(artifact)
        assert store.stats().errors == 0

    def test_missing_blob_is_plain_miss(self, store):
        assert store.load("0" * 40) is None
        assert store.stats().errors == 0

    def test_truncated_blob_re_records(self, store, program):
        digest, _ = _save_one(store, program)
        path = store.path_for(digest)
        path.write_bytes(path.read_bytes()[:100])
        assert store.load(digest) is None
        assert store.stats().errors == 1
        # The cache degrades to re-recording and heals the blob in place.
        cache = GoldenRunCache(store=store)
        healed = cache.get(InOrderCore(), program)
        assert healed is not None
        assert store.load(digest) is not None

    def test_corrupted_payload_re_records(self, store, program):
        digest, _ = _save_one(store, program)
        path = store.path_for(digest)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert store.load(digest) is None
        assert store.stats().errors == 1

    def test_version_mismatch_re_records(self, store, program):
        digest, artifact = _save_one(store, program)
        payload = pickle.dumps(artifact, protocol=4)
        import hashlib

        store.path_for(digest).write_bytes(pickle.dumps({
            "format": ARTIFACT_FORMAT, "version": ARTIFACT_VERSION + 1,
            "key": digest, "payload": payload,
            "payload_digest": hashlib.blake2b(payload,
                                              digest_size=16).digest(),
        }, protocol=4))
        assert store.load(digest) is None
        assert store.stats().errors == 1

    def test_foreign_pickle_re_records(self, store, program):
        digest = artifact_digest(InOrderCore(), program)
        store.root.mkdir(parents=True, exist_ok=True)
        store.path_for(digest).write_bytes(pickle.dumps({"surprise": 1}))
        assert store.load(digest) is None
        assert store.stats().errors == 1

    def test_renamed_blob_key_mismatch(self, store, program):
        digest, _ = _save_one(store, program)
        other = "f" * 40
        store.path_for(digest).rename(store.path_for(other))
        assert store.load(other) is None
        assert store.stats().errors == 1

    def test_unusable_root_degrades_to_recording(self, tmp_path, program):
        # A plain file where the store directory should be: every mkdir and
        # read below it fails, the cache still serves recordings.
        root = tmp_path / "blocker"
        root.write_text("not a directory")
        store = GoldenArtifactStore(root)
        cache = GoldenRunCache(store=store)
        artifact = cache.get(InOrderCore(), program)
        assert artifact is not None
        assert store.stats().saved == 0
        assert store.stats().errors >= 1
        assert cache.stats().artifacts_saved == 0

    def test_concurrent_writers_race_cleanly(self, store, program):
        """Two stores racing on one key both publish complete blobs; the
        last rename wins and the loser's artifact stays usable."""
        core = InOrderCore()
        key = golden_run_key(core, program)
        first = GoldenRunCache(store=store)
        artifact_a = first.get(core, program)
        # Second writer saves the same content-addressed key again (what a
        # losing racer does after the winner already renamed into place).
        other = GoldenArtifactStore(store.root)
        assert other.save_key(key, artifact_a) is not None
        assert len(store) == 1
        reloaded = other.load_key(key)
        assert pickle.dumps(reloaded) == pickle.dumps(artifact_a)
        # No leftover scratch files from either writer.
        assert not list(store.root.glob(".*.tmp"))

    def test_store_census(self, store, program):
        _save_one(store, program)
        stats = store.stats()
        assert stats.entries == len(store) == 1
        assert stats.size_bytes > 0
        assert stats.saved == 1


# ------------------------------------------------------------- two-tier cache
class TestTwoTierCache:
    def test_warm_cache_loads_instead_of_recording(self, store, program):
        core = InOrderCore()
        cold = GoldenRunCache(store=store)
        cold.get(core, program)
        assert cold.stats().artifacts_saved == 1
        assert cold.stats().recorded == 1
        warm = GoldenRunCache(store=store)
        warm.get(core, program)
        stats = warm.stats()
        assert stats.artifacts_loaded == 1
        assert stats.recorded == 0
        assert stats.misses == 1  # disk load still counts as a memory miss

    def test_memory_tier_shortcuts_disk(self, store, program):
        core = InOrderCore()
        cache = GoldenRunCache(store=store)
        cache.get(core, program)
        cache.get(core, program)
        assert cache.stats().hits == 1
        assert store.stats().loaded == 0

    def test_storeless_cache_unchanged(self, program):
        cache = GoldenRunCache()
        cache.get(InOrderCore(), program)
        stats = cache.stats()
        assert (stats.artifacts_loaded, stats.artifacts_saved) == (0, 0)
        assert stats.recorded == 1

    def test_stats_merge_across_fleet(self):
        from repro.engine import GoldenCacheStats

        a = GoldenCacheStats(hits=2, misses=3, entries=3, max_entries=8,
                             artifacts_loaded=1, artifacts_saved=2)
        b = GoldenCacheStats(hits=1, misses=1, entries=1, max_entries=8,
                             artifacts_loaded=1, artifacts_saved=0)
        merged = a.merged_with(b)
        assert (merged.hits, merged.misses) == (3, 4)
        assert merged.artifacts_loaded == 2
        assert merged.recorded == 2

    def test_cache_for_artifact_dir_is_shared_per_root(self, tmp_path):
        first = cache_for_artifact_dir(tmp_path / "store")
        again = cache_for_artifact_dir(tmp_path / "store")
        other = cache_for_artifact_dir(tmp_path / "elsewhere")
        assert first is again
        assert first is not other

    def test_resolve_attaches_store_to_explicit_cache(self, tmp_path):
        cache = GoldenRunCache()
        resolved = resolve_golden_cache(cache, None,
                                        artifact_dir=tmp_path / "store")
        assert resolved is cache
        assert cache.store is not None
        with pytest.raises(ValueError):
            resolve_golden_cache(cache, 4)


# ------------------------------------------------------ executor-layer pieces
class TestGuidedSharding:
    def _plan(self, engine, program, count):
        from repro.faultinjection import uniform_injection_plan

        core = InOrderCore()
        plan = uniform_injection_plan(core.flip_flop_count, 500, count, seed=3)
        return engine.resolve_plan(plan)

    def test_partition_preserves_plan_order(self, program):
        engine = InjectionEngine(InOrderCore(), program, seed=3)
        planned = self._plan(engine, program, 97)
        chunks = shard_plan_guided(planned, seed=3, workers=3, min_chunk=4)
        flattened = [p for chunk in chunks for p in chunk.planned]
        assert flattened == planned
        assert [chunk.index for chunk in chunks] == list(range(len(chunks)))

    def test_sizes_decrease_toward_min_chunk(self, program):
        engine = InjectionEngine(InOrderCore(), program, seed=3)
        planned = self._plan(engine, program, 120)
        chunks = shard_plan_guided(planned, seed=3, workers=2, min_chunk=4)
        sizes = [len(chunk.planned) for chunk in chunks]
        assert sizes == sorted(sizes, reverse=True)
        assert all(size >= 4 for size in sizes[:-1])
        assert sizes[0] == 30  # ceil(120 / (2 * 2))

    def test_seeds_match_static_scheme(self, program):
        engine = InjectionEngine(InOrderCore(), program, seed=5)
        planned = self._plan(engine, program, 40)
        guided = shard_plan_guided(planned, seed=5, workers=2)
        static = shard_plan(planned, seed=5, chunk_size=10)
        assert guided[0].seed == static[0].seed


class TestSerialFallbackAndStealing:
    def test_small_plan_falls_back_to_serial(self, program):
        engine = InjectionEngine(InOrderCore(), program, seed=1,
                                 config=EngineConfig(workers=2))
        assert isinstance(engine._select_executor(30), SerialExecutor)
        assert isinstance(engine._select_executor(64), ParallelExecutor)

    def test_explicit_executor_is_honoured(self, program):
        executor = ParallelExecutor(workers=2)
        engine = InjectionEngine(InOrderCore(), program, seed=1,
                                 config=EngineConfig(workers=2),
                                 executor=executor)
        assert engine._select_executor(2) is executor

    def test_pooled_stream_matches_serial(self):
        """The pull-based dispatcher yields every shard result exactly once
        (order-insensitively), including with more shards than workers."""
        from repro.engine import ChunkSpec

        payload = {"scale": 10}
        shards = [ChunkSpec(index=i, planned=[], seed=i) for i in range(9)]
        pooled = ParallelExecutor(workers=2).stream(payload, shards,
                                                    _echo_shard)
        serial = SerialExecutor().stream(payload, shards, _echo_shard)
        assert sorted(r.index for r in pooled) == \
            [r.index for r in serial] == list(range(9))

    def test_shard_exception_propagates_without_serial_rerun(self):
        """A deterministic shard failure is raised as-is, not mistaken for
        an unavailable pool and replayed serially."""
        import warnings

        from repro.engine import ChunkSpec

        shards = [ChunkSpec(index=i, planned=[], seed=i) for i in range(4)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="shard 2"):
                list(ParallelExecutor(workers=2).stream(None, shards,
                                                        _failing_shard))

    def test_killed_worker_finishes_the_remaining_shards_serially(self):
        from repro.engine import ChunkSpec

        shards = [ChunkSpec(index=i, planned=[], seed=i) for i in range(4)]
        with pytest.warns(RuntimeWarning, match="BrokenProcessPool"):
            results = list(ParallelExecutor(workers=2).stream(
                None, shards, _exit_in_worker))
        assert sorted(r.index for r in results) == [0, 1, 2, 3]


def _echo_shard(payload, shard):
    return shard


def _failing_shard(payload, shard):
    if shard.index == 2:
        raise ValueError(f"shard {shard.index} is broken")
    return shard


def _exit_in_worker(payload, shard):
    """Kill the pool worker running shard 1; run normally in the parent."""
    import multiprocessing
    import os

    if shard.index == 1 and multiprocessing.parent_process() is not None:
        os._exit(1)
    return shard


# ------------------------------------------------------------ digest format
class TestDigestFormat:
    """Persisted golden grids store ``state_fingerprint()`` digests, so the
    digest layout (pickled header, 32-slot latch banks, 1 KiB memory pages,
    microarchitecture key) is part of the artifact format: changing any
    digest below requires bumping ``ARTIFACT_VERSION`` together with it."""

    PINNED = {
        InOrderCore: "ea15f31127ceff1baec7e8a3c30341d8",
        OutOfOrderCore: "d145d025a588df99a6f70c056c005d76",
    }

    @pytest.mark.parametrize("core_class", CORE_CLASSES)
    def test_fingerprint_bytes_are_pinned(self, core_class, program):
        from repro.isa.program import DEFAULT_DATA_BASE

        core = core_class()
        core.reset(program)
        for _ in range(200):
            core.step()
        core.latches.flip_flat(17)
        core.memory.store_word(DEFAULT_DATA_BASE + 0x40, 0xDEADBEEF)
        assert ARTIFACT_VERSION == 2
        assert core.state_fingerprint().hex() == self.PINNED[core_class]


# ----------------------------------------------------- warm/cold bit-exactness
class TestWarmColdEquivalence:
    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 16))
    @pytest.mark.parametrize("core_class", CORE_CLASSES)
    def test_campaigns_bit_identical_warm_vs_cold(self, core_class, seed,
                                                  tmp_path_factory, program):
        """Store on/off x cold/warm: outcome counts and per-site tallies are
        bit-identical -- a loaded artifact is interchangeable with a fresh
        recording."""
        root = tmp_path_factory.mktemp("artifacts")
        core = core_class()

        def campaign(cache):
            engine = InjectionEngine(core, program, seed=seed,
                                     golden_cache=cache)
            return engine.run(injections=12)

        storeless = campaign(GoldenRunCache())
        cold_cache = GoldenRunCache(store=GoldenArtifactStore(root))
        cold = campaign(cold_cache)
        assert cold_cache.stats().artifacts_saved == 1
        warm_cache = GoldenRunCache(store=GoldenArtifactStore(root))
        warm = campaign(warm_cache)
        assert warm_cache.stats().artifacts_loaded == 1
        assert warm_cache.stats().recorded == 0
        for result in (cold, warm):
            assert result.outcomes.as_dict() == storeless.outcomes.as_dict()
            assert result.per_site == storeless.per_site

    @pytest.mark.parametrize("core_class", CORE_CLASSES)
    def test_batched_and_parallel_paths_match_warm(self, core_class, tmp_path,
                                                   program):
        """Store x serial/parallel x batch on/off all agree on a warm start."""
        core = core_class()
        reference = InjectionEngine(core, program, seed=9,
                                    golden_cache=GoldenRunCache()).run(
            injections=40)
        variants = [
            (EngineConfig(artifact_dir=tmp_path), None),
            (EngineConfig(artifact_dir=tmp_path, batch_width=8), None),
            (EngineConfig(artifact_dir=tmp_path), ParallelExecutor(workers=2)),
            (EngineConfig(artifact_dir=tmp_path, batch_width=8),
             ParallelExecutor(workers=2)),
            (EngineConfig(artifact_dir=tmp_path, chunk_size=10),
             ParallelExecutor(workers=2)),
        ]
        for config, executor in variants:
            result = InjectionEngine(core, program, seed=9, config=config,
                                     executor=executor,
                                     golden_cache=GoldenRunCache(
                                         store=GoldenArtifactStore(tmp_path))
                                     ).run(injections=40)
            assert result.outcomes.as_dict() == reference.outcomes.as_dict()
            assert result.per_site == reference.per_site
