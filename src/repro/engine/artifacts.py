"""Content-addressed persistent golden-artifact store.

Recording a golden run is the one cost the engine's accelerations cannot
amortise away: checkpointed replay, convergence gating and batched lockstep
all *start* from the recorded snapshots and fingerprint grid, so every new
process -- every pool worker, every repeated campaign, every sweep rerun --
used to pay for the recording again from cycle 0.

This module makes golden artifacts durable.  A
:class:`~repro.engine.checkpoint.CheckpointedGoldenRun` (golden
:class:`~repro.microarch.events.RunResult`, snapshots, fingerprint grid,
recording knobs) serialises to one on-disk blob whose filename is a blake2b
digest of everything the run is a function of: the core's class and
configuration fingerprint, the program *bytes*, and the snapshot /
fingerprint recording parameters.  Content addressing is what makes the
store safe to share: equal digests imply the artifact would be re-recorded
bit-identically, so a loaded artifact is interchangeable with a fresh
recording -- and a (core, program) pair is recorded exactly once per
machine, ever, no matter how many protection configs, workers or campaigns
replay it.

Robustness contract (exercised in ``tests/test_artifacts.py``):

* writes are atomic -- blob bytes go to a writer-unique temp file that is
  ``os.replace``d into place, so concurrent recorders racing on one key
  both succeed and readers only ever observe complete blobs;
* loads are integrity-guarded -- a version/format header, the key digest
  and a payload digest are all checked before the payload is unpickled;
  truncated, corrupted, mis-keyed or future-versioned blobs degrade to a
  cache miss (the caller re-records and overwrites), never a crash and
  never stale state;
* a store on a read-only or vanished filesystem degrades to recording
  without persistence (saves count as errors, loads as misses).
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass
from pathlib import Path

from repro.engine.checkpoint import CheckpointedGoldenRun, golden_run_key
from repro.isa.program import Program
from repro.microarch.core import BaseCore

ARTIFACT_FORMAT = "repro.golden-artifact"
"""Blob discriminator, so stray pickle files fail fast with a clean miss."""

ARTIFACT_VERSION = 2
"""Blob layout version; bump on incompatible changes.  A store never reads
a version it does not understand -- the artifact is simply re-recorded.

Version 2: the fingerprint grid switched to the tree digest composition
(header + latch banks + microarchitecture component), so version-1 grids
are not comparable against either fingerprint path of this build."""

ARTIFACT_SUFFIX = ".golden.pkl"
"""Filename suffix of every blob in a store directory."""

_DIGEST_SIZE = 20
"""Key-digest size in bytes (40 hex chars -- comfortably collision-free for
per-machine artifact counts while keeping directory listings readable)."""


def artifact_digest(core: BaseCore, program: Program, *,
                    interval: int | None = None,
                    max_checkpoints: int | None = None,
                    max_cycles: int | None = None,
                    fingerprint_interval: int | None = None,
                    max_fingerprints: int | None = None) -> str:
    """Content address of one golden artifact, as a hex digest.

    Hashes exactly the identity tuple the in-memory
    :class:`~repro.engine.checkpoint.GoldenRunCache` keys on -- core class +
    name + flip-flop count, the program's content fingerprint (entry point,
    data words, encoded instructions), and every recording knob -- so the
    disk store and the memory tier can never disagree about what a key
    means.  Digests are process- and host-independent (plain-data pickle,
    no ``hash()`` randomisation), which is what lets one store warm every
    worker on a machine.
    """
    key = golden_run_key(core, program, interval=interval,
                         max_checkpoints=max_checkpoints,
                         max_cycles=max_cycles,
                         fingerprint_interval=fingerprint_interval,
                         max_fingerprints=max_fingerprints)
    return digest_of_key(key)


def digest_of_key(key: tuple) -> str:
    """Hex digest of an already-built golden-run identity tuple.

    ``pickle`` of plain data (strings, ints, bytes, tuples) is deterministic
    across processes and hosts, unlike ``hash()``; the same pattern backs the
    engine's state fingerprints.
    """
    return hashlib.blake2b(pickle.dumps(key, protocol=4),
                           digest_size=_DIGEST_SIZE).hexdigest()


@dataclass(frozen=True)
class ArtifactStoreStats:
    """Point-in-time health readout of one :class:`GoldenArtifactStore`.

    ``loaded`` / ``saved`` / ``errors`` count this store object's own
    traffic since construction; ``entries`` / ``size_bytes`` scan the
    directory, so they reflect everything ever persisted there -- including
    by other processes.
    """

    loaded: int
    saved: int
    errors: int
    entries: int
    size_bytes: int


class GoldenArtifactStore:
    """Directory of content-addressed golden-run blobs.

    One store maps digests (:func:`artifact_digest`) to versioned pickle
    blobs under ``root``.  The store is deliberately dumb -- no index, no
    locking, no eviction: the filename *is* the index, atomic rename *is*
    the locking, and artifacts are small enough (a few hundred KB each at
    the default budgets) that pruning is a deliberate ``rm`` by the user.

    Plug one into a :class:`~repro.engine.checkpoint.GoldenRunCache`
    (``GoldenRunCache(store=GoldenArtifactStore(path))``) to make the cache
    two-tier: memory first, then disk, then recording.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.loaded = 0
        self.saved = 0
        self.errors = 0

    def path_for(self, digest: str) -> Path:
        """Blob path of one artifact digest."""
        return self.root / f"{digest}{ARTIFACT_SUFFIX}"

    # ------------------------------------------------------------------ load
    def load(self, digest: str) -> CheckpointedGoldenRun | None:
        """The stored artifact for ``digest``, or None (miss / unusable blob).

        Any defect -- truncation, corruption, a foreign or future version,
        a key mismatch from a renamed file, an unreadable filesystem --
        returns None so the caller re-records; defective blobs additionally
        count into ``errors``.  A loaded artifact is always a fully
        validated :class:`CheckpointedGoldenRun`.
        """
        try:
            blob = self.path_for(digest).read_bytes()
        except OSError:
            return None  # plain miss: nothing persisted (or unreadable root)
        try:
            document = pickle.loads(blob)
            if not isinstance(document, dict):
                raise ValueError("blob is not an artifact document")
            if document.get("format") != ARTIFACT_FORMAT:
                raise ValueError(f"foreign blob format "
                                 f"{document.get('format')!r}")
            version = document.get("version")
            if version != ARTIFACT_VERSION:
                raise ValueError(f"unsupported artifact version {version!r}")
            if document.get("key") != digest:
                raise ValueError("key digest mismatch (renamed blob?)")
            payload = document["payload"]
            expected = document["payload_digest"]
            actual = hashlib.blake2b(payload, digest_size=16).digest()
            if actual != expected:
                raise ValueError("payload digest mismatch (corrupted blob)")
            artifact = pickle.loads(payload)
            if not isinstance(artifact, CheckpointedGoldenRun):
                raise ValueError(f"payload is {type(artifact).__name__}, "
                                 f"not a CheckpointedGoldenRun")
        except Exception:
            # Unpicklable garbage raises anything (UnpicklingError, EOFError,
            # AttributeError, ...); every defect degrades to a re-record.
            self.errors += 1
            return None
        self.loaded += 1
        return artifact

    # ------------------------------------------------------------------ save
    def save(self, digest: str,
             artifact: CheckpointedGoldenRun) -> Path | None:
        """Persist ``artifact`` under ``digest`` atomically.

        The blob is written to a temp file whose name embeds the writer's
        pid (plus a per-store counter), then ``os.replace``d onto the final
        path: concurrent writers racing on the same key each publish a
        complete blob and the last rename wins -- which is harmless, because
        content addressing guarantees both wrote identical artifacts.
        Filesystem failures degrade to not persisting (returns None, counts
        an error); the recording the caller already holds stays usable.
        """
        payload = pickle.dumps(artifact, protocol=4)
        document = pickle.dumps({
            "format": ARTIFACT_FORMAT,
            "version": ARTIFACT_VERSION,
            "key": digest,
            "payload": payload,
            "payload_digest": hashlib.blake2b(payload,
                                              digest_size=16).digest(),
        }, protocol=4)
        path = self.path_for(digest)
        scratch = path.with_name(
            f".{path.name}.{os.getpid()}.{self.saved + self.errors}.tmp")
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            scratch.write_bytes(document)
            os.replace(scratch, path)
        except OSError:
            self.errors += 1
            try:
                scratch.unlink(missing_ok=True)
            except OSError:
                pass
            return None
        self.saved += 1
        return path

    # ------------------------------------------------------------ key-tuple API
    def load_key(self, key: tuple) -> CheckpointedGoldenRun | None:
        """:meth:`load` addressed by a raw golden-run identity tuple (the
        form :class:`~repro.engine.checkpoint.GoldenRunCache` keys on)."""
        return self.load(digest_of_key(key))

    def save_key(self, key: tuple,
                 artifact: CheckpointedGoldenRun) -> Path | None:
        """:meth:`save` addressed by a raw golden-run identity tuple."""
        return self.save(digest_of_key(key), artifact)

    # ------------------------------------------------------------------ stats
    def __len__(self) -> int:
        try:
            return sum(1 for _ in self.root.glob(f"*{ARTIFACT_SUFFIX}"))
        except OSError:
            return 0

    def stats(self) -> ArtifactStoreStats:
        """Traffic counters plus an on-disk census (entries, bytes)."""
        entries = 0
        size = 0
        try:
            # sorted: glob order is filesystem-dependent, and the census must
            # not change shape between hosts sharing one store directory.
            for path in sorted(self.root.glob(f"*{ARTIFACT_SUFFIX}")):
                try:
                    size += path.stat().st_size
                except OSError:
                    continue
                entries += 1
        except OSError:
            pass
        return ArtifactStoreStats(loaded=self.loaded, saved=self.saved,
                                  errors=self.errors, entries=entries,
                                  size_bytes=size)
