"""Simulated data memory.

Both cores share a simple word-addressable memory with three regions (data,
stack, output scratch).  Accesses outside those regions or misaligned
accesses raise :class:`MemoryFault`, which the cores turn into a trap; the
outcome classifier then records the run as an Unexpected Termination --
exactly the symptom a wild pointer produces on the paper's RTL platforms.

The memory array itself models SRAM, which the paper assumes is protected by
ECC; it is therefore *not* part of the flip-flop registry and never receives
injections.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass

from repro.isa.program import (
    DEFAULT_DATA_BASE,
    DEFAULT_OUTPUT_BASE,
    DEFAULT_STACK_TOP,
    Program,
    WORD_BYTES,
)

try:  # numpy backs only the batched store; the scalar path never needs it.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    _np = None


class MemoryFault(Exception):
    """Raised for accesses outside the legal memory map or misaligned words."""

    def __init__(self, address: int, reason: str):
        super().__init__(f"memory fault at {address:#x}: {reason}")
        self.address = address
        self.reason = reason


@dataclass(frozen=True)
class MemoryRegion:
    """A legal address range ``[base, base + size)``."""

    name: str
    base: int
    size: int

    def contains(self, address: int) -> bool:
        return self.base <= address < self.base + self.size


DEFAULT_REGIONS = (
    MemoryRegion("data", DEFAULT_DATA_BASE, 0x4_0000),
    MemoryRegion("stack", DEFAULT_STACK_TOP - 0x1_0000, 0x1_0000),
    MemoryRegion("output", DEFAULT_OUTPUT_BASE, 0x1_0000),
)

_PAGE_SHIFT = 10
"""Fingerprint page granularity: byte address >> 10, i.e. 1 KiB pages.

The memory contribution to a state fingerprint is, per non-empty page, an
8-byte little-endian page id followed by the pickled sorted nonzero
``(address, word)`` items of that page, pages in ascending id order.  The
layout is part of the persisted fingerprint format: changing it invalidates
every stored golden grid (bump ``ARTIFACT_VERSION``).
"""


class MemorySystem:
    """Word-addressable simulated memory with region checking."""

    def __init__(self, regions: tuple[MemoryRegion, ...] = DEFAULT_REGIONS):
        self._regions = regions
        self._words: dict[int, int] = {}
        # audit: allow[state-coverage] memoised digest of _words, invalidated on every write; carries no state of its own
        self._digest_cache: bytes | None = None

    def reset(self, program: Program) -> None:
        """Clear memory and load the program's data segment."""
        self._words = dict(program.data.as_memory_image())
        self._digest_cache = None

    # ------------------------------------------------------------------ checks
    def _check(self, address: int, *, aligned_to: int) -> None:
        if address % aligned_to != 0:
            raise MemoryFault(address, f"misaligned access (alignment {aligned_to})")
        if not any(region.contains(address) for region in self._regions):
            raise MemoryFault(address, "address outside mapped regions")

    def is_mapped(self, address: int) -> bool:
        """True when ``address`` falls inside a legal region."""
        return any(region.contains(address) for region in self._regions)

    # ------------------------------------------------------------------ access
    def load_word(self, address: int) -> int:
        self._check(address, aligned_to=WORD_BYTES)
        return self._words.get(address, 0)

    def store_word(self, address: int, value: int) -> None:
        self._check(address, aligned_to=WORD_BYTES)
        self._words[address] = value & 0xFFFFFFFF
        self._digest_cache = None

    def load_byte(self, address: int) -> int:
        self._check(address, aligned_to=1)
        word_address = address - (address % WORD_BYTES)
        if not self.is_mapped(word_address):
            raise MemoryFault(address, "address outside mapped regions")
        word = self._words.get(word_address, 0)
        shift = 8 * (address % WORD_BYTES)
        return (word >> shift) & 0xFF

    def store_byte(self, address: int, value: int) -> None:
        self._check(address, aligned_to=1)
        word_address = address - (address % WORD_BYTES)
        if not self.is_mapped(word_address):
            raise MemoryFault(address, "address outside mapped regions")
        shift = 8 * (address % WORD_BYTES)
        word = self._words.get(word_address, 0)
        word &= ~(0xFF << shift)
        word |= (value & 0xFF) << shift
        self._words[word_address] = word
        self._digest_cache = None

    # ------------------------------------------------------------------ checkpointing
    def snapshot_words(self) -> dict[int, int]:
        """Copy of the entire memory contents (used by core checkpoints)."""
        return dict(self._words)

    def restore_words(self, words: dict[int, int]) -> None:
        """Replace memory contents with a copy captured by :meth:`snapshot_words`."""
        self._words = dict(words)
        self._digest_cache = None

    # ------------------------------------------------------------------ digests
    def fingerprint_digest(self) -> bytes:
        """Canonical page-wise digest of memory contents.

        Zero-valued words are normalised away: an explicitly stored zero and
        a never-touched word are architecturally indistinguishable (loads of
        both return 0 and region checks ignore contents), so two memories
        with equal digests behave identically from here on.  The result is
        cached and write-invalidated, so back-to-back digests of a quiet
        memory are a cache hit.
        """
        if self._digest_cache is None:
            pages: dict[int, list[tuple[int, int]]] = {}
            for address, value in self._words.items():
                if value:
                    pages.setdefault(address >> _PAGE_SHIFT, []).append(
                        (address, value))
            self._digest_cache = b"".join(
                page.to_bytes(8, "little")
                + pickle.dumps(tuple(sorted(pages[page])), protocol=4)
                for page in sorted(pages))
        return self._digest_cache

    # ------------------------------------------------------------------ export
    def dump_region(self, name: str) -> dict[int, int]:
        """Return ``{address: word}`` for all touched words in region ``name``."""
        region = next(r for r in self._regions if r.name == name)
        return {addr: value for addr, value in self._words.items()
                if region.contains(addr)}

    def words_written(self) -> int:
        """Number of distinct words currently holding data."""
        return len(self._words)


class BatchedWordStore:
    """Word store for ``lanes`` lockstep replays of the same golden run.

    All lanes share one address space layout; per-address values are a
    ``(lanes,)`` int64 vector.  Because lanes start bit-identical and the
    batched stepper keeps addresses uniform across the wavefront (divergent
    lanes are evicted), storage is a shared base image plus a copy-on-write
    overlay of per-lane vectors -- only addresses actually written during the
    wavefront cost ``lanes`` words.

    Overlay rows are shared with the wavefront's latches and registers (a
    load hands out the row itself), so a row is replaced, never written in
    place -- except by :meth:`reset_lane`, whose copy of the reference lane
    gives every alias the value it must hold anyway.

    The store tracks, incrementally, how many overlay words differ from a
    reference lane (lane 0), so "is this lane's memory bit-identical to the
    golden run's" is an O(1) counter read at convergence-check time.  The
    comparison matches :meth:`MemorySystem.fingerprint_digest` semantics: lanes
    share the written-address set (uniform addresses), so per-address value
    equality is exactly zero-normalised image equality.
    """

    _WORD_MASK = 0xFFFFFFFF

    def __init__(self, base_words: dict[int, int], lanes: int,
                 regions: tuple[MemoryRegion, ...] = DEFAULT_REGIONS,
                 reference_lane: int = 0):
        if _np is None:  # pragma: no cover - exercised on numpy-free installs
            raise RuntimeError("BatchedWordStore requires numpy")
        self._regions = regions
        self.lanes = lanes
        self._reference = reference_lane
        self._base = dict(base_words)
        self._overlay: dict[int, "_np.ndarray"] = {}
        self._diverged = _np.zeros(lanes, dtype=_np.int64)

    # ------------------------------------------------------------------ checks
    def _check(self, address: int, *, aligned_to: int) -> None:
        if address % aligned_to != 0:
            raise MemoryFault(address, f"misaligned access (alignment {aligned_to})")
        if not any(region.contains(address) for region in self._regions):
            raise MemoryFault(address, "address outside mapped regions")

    def is_mapped(self, address: int) -> bool:
        return any(region.contains(address) for region in self._regions)

    def _row(self, address: int):
        """The per-lane values at ``address`` (a fresh row if unwritten)."""
        values = self._overlay.get(address)
        if values is None:
            values = _np.full(self.lanes, self._base.get(address, 0),
                              dtype=_np.int64)
        return values

    # ------------------------------------------------------------------ access
    def load_word(self, address: int):
        """Load one address on every lane; returns a ``(lanes,)`` int64 array."""
        self._check(address, aligned_to=WORD_BYTES)
        return self._row(address)

    def store_word(self, address: int, values) -> None:
        """Store per-lane ``values`` (masked to 32 bits) at one address."""
        self._check(address, aligned_to=WORD_BYTES)
        self._store(address, values)

    def _store(self, address: int, values) -> None:
        new = _np.asarray(values).astype(_np.int64, copy=False) \
            & self._WORD_MASK
        previous = self._overlay.get(address)
        if previous is None:
            previous_diff = 0
        else:
            previous_diff = (previous != previous[self._reference]).astype(_np.int64)
        self._diverged += (new != new[self._reference]).astype(_np.int64)
        self._diverged -= previous_diff
        self._overlay[address] = new

    def load_byte(self, address: int):
        self._check(address, aligned_to=1)
        word_address = address - (address % WORD_BYTES)
        if not self.is_mapped(word_address):
            raise MemoryFault(address, "address outside mapped regions")
        shift = 8 * (address % WORD_BYTES)
        return (self._row(word_address) >> shift) & 0xFF

    def store_byte(self, address: int, values) -> None:
        self._check(address, aligned_to=1)
        word_address = address - (address % WORD_BYTES)
        if not self.is_mapped(word_address):
            raise MemoryFault(address, "address outside mapped regions")
        shift = 8 * (address % WORD_BYTES)
        masked = self._row(word_address) & (self._WORD_MASK ^ (0xFF << shift))
        merged = masked | ((_np.asarray(values).astype(_np.int64, copy=False)
                            & 0xFF) << shift)
        self._store(word_address, merged)

    # ------------------------------------------------------------------ lane lifecycle
    def reset_lane(self, lane: int) -> None:
        """Make ``lane``'s memory bit-identical to the reference lane.

        Used when a streaming wavefront recycles a freed lane slot for a new
        injection joining at the current cycle: the joining replay's memory
        is, by construction, the reference (golden) image.
        """
        reference = self._reference
        for values in self._overlay.values():
            values[lane] = values[reference]
        self._diverged[lane] = 0

    def set_lane_words(self, lane: int, words: dict[int, int]) -> None:
        """Adopt a full scalar memory image for one lane (a wavefront rejoin).

        ``words`` is a :meth:`MemorySystem.snapshot_words` image.  Addresses
        it diverges on that the wavefront never wrote get overlay rows on
        demand (all other lanes keep the base value); overlay addresses the
        image never stored are architecturally zero on this lane (word
        stores never delete, so an address missing from a scalar image was
        never written there).  Every changed row is a copy.
        """
        overlay = self._overlay
        base = self._base
        for address, value in words.items():
            value &= self._WORD_MASK
            values = overlay.get(address)
            if values is None:
                if value == base.get(address, 0):
                    continue
                values = self._row(address)
            elif values[lane] == value:
                continue
            else:
                values = values.copy()
            values[lane] = value
            overlay[address] = values
        for address, values in overlay.items():
            if address not in words and values[lane] != 0:
                values = values.copy()
                values[lane] = 0
                overlay[address] = values
        reference = self._reference
        self._diverged[lane] = sum(
            1 for values in overlay.values()
            if values[lane] != values[reference])

    # ------------------------------------------------------------------ equality / export
    def lanes_match_reference(self):
        """Per-lane boolean: memory bit-identical to the reference lane."""
        return self._diverged == 0

    def lane_words(self, lane: int) -> dict[int, int]:
        """One lane's full memory image (``MemorySystem.snapshot_words`` form)."""
        words = dict(self._base)
        for address, values in self._overlay.items():
            words[address] = int(values[lane])
        return words
