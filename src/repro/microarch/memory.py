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

import numpy as np

from repro.isa.program import (
    DEFAULT_DATA_BASE,
    DEFAULT_OUTPUT_BASE,
    DEFAULT_STACK_TOP,
    Program,
    WORD_BYTES,
)


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


# A lockstep lane value is an int (every lane holds it) or a (lanes,)
# numpy column; these helpers keep it an int whenever the lanes agree.
def collapsed(value):
    """``value`` as one int if it is a ``(lanes,)`` column whose lanes all
    hold the same value, else ``value`` unchanged."""
    if type(value) is np.ndarray:
        first = value[0]
        if (value == first).all():
            return int(first)
    return value


def released(value, lane: int):
    """``value`` with lane ``lane`` given lane 0's value (in place), as an
    int if its lanes then agree."""
    if type(value) is int:
        return value
    value[lane] = value[0]
    return collapsed(value)


def with_lane(value, lanes: int, lane: int, new: int, dtype=np.int64):
    """``value`` with lane ``lane`` holding ``new``: ``value`` itself when it
    already does, else a fresh ``(lanes,)`` column."""
    if type(value) is int:
        if value == new:
            return value
        column = np.full(lanes, value, dtype=dtype)
    elif value[lane] == new:
        return value
    else:
        column = value.copy()
    column[lane] = new
    return column


class BatchedWordStore:
    """Word store for ``lanes`` lockstep replays of the same golden run.

    One dict maps every word address to its value on all lanes: a plain int
    while the lanes agree on it, a ``(lanes,)`` int64 column once they
    differ.  The lockstep wavefront keeps addresses uniform (a lane whose
    address would differ is demoted first), so lanes share the address set
    and lane ``L``'s image is the dict with every column read at ``L``.
    A store whose lanes all agree stores an int, so only words a lane
    actually made different cost ``lanes`` words; the addresses holding a
    column are kept apart so lane-wide passes visit only those.

    Column rows are shared with the wavefront's latches and registers (a
    load hands out the row itself), so a row is replaced, never written in
    place -- except by :meth:`release_lane`, whose copy of lane 0 gives
    every alias the value it must hold anyway.
    """

    _WORD_MASK = 0xFFFFFFFF

    def __init__(self, words: dict[int, int], lanes: int,
                 regions: tuple[MemoryRegion, ...] = DEFAULT_REGIONS):
        self._regions = regions
        self.lanes = lanes
        self._words: dict = dict(words)
        # Addresses whose word is a column, in insertion order.
        self._columns: dict[int, None] = {}

    # ------------------------------------------------------------------ checks
    def _check(self, address: int, *, aligned_to: int) -> None:
        if address % aligned_to != 0:
            raise MemoryFault(address, f"misaligned access (alignment {aligned_to})")
        if not any(region.contains(address) for region in self._regions):
            raise MemoryFault(address, "address outside mapped regions")

    def is_mapped(self, address: int) -> bool:
        return any(region.contains(address) for region in self._regions)

    # ------------------------------------------------------------------ access
    def load_word(self, address: int):
        """The word at ``address`` on every lane: an int or a column."""
        self._check(address, aligned_to=WORD_BYTES)
        return self._words.get(address, 0)

    def store_word(self, address: int, value) -> None:
        """Store ``value`` (an int or a column, masked to 32 bits)."""
        self._check(address, aligned_to=WORD_BYTES)
        self._store(address, value & self._WORD_MASK)

    def _store(self, address: int, value) -> None:
        value = collapsed(value)
        if type(value) is int:
            self._columns.pop(address, None)
        else:
            self._columns[address] = None
        self._words[address] = value

    def load_byte(self, address: int):
        self._check(address, aligned_to=1)
        word_address = address - (address % WORD_BYTES)
        if not self.is_mapped(word_address):
            raise MemoryFault(address, "address outside mapped regions")
        shift = 8 * (address % WORD_BYTES)
        return (self._words.get(word_address, 0) >> shift) & 0xFF

    def store_byte(self, address: int, value) -> None:
        self._check(address, aligned_to=1)
        word_address = address - (address % WORD_BYTES)
        if not self.is_mapped(word_address):
            raise MemoryFault(address, "address outside mapped regions")
        shift = 8 * (address % WORD_BYTES)
        word = self._words.get(word_address, 0)
        self._store(word_address,
                    (word & (self._WORD_MASK ^ (0xFF << shift)))
                    | ((value & 0xFF) << shift))

    # ------------------------------------------------------------------ lane lifecycle
    def release_lane(self, lane: int) -> None:
        """Give ``lane`` lane 0's image again (its replay left the
        wavefront); words whose lanes then all agree become ints."""
        words = self._words
        for address in list(self._columns):
            value = words[address] = released(words[address], lane)
            if type(value) is int:
                del self._columns[address]

    def set_lane_words(self, lane: int, words: dict[int, int]) -> None:
        """Adopt a full scalar memory image for one lane (a wavefront rejoin).

        ``words`` is a :meth:`MemorySystem.snapshot_words` image.  A word
        that differs from the wavefront's becomes (or stays) a column with
        ``lane`` set; an address the image lacks was never written there,
        so it reads 0 on this lane.  Every changed column is a copy.
        """
        for address, value in words.items():
            self._set_lane(address, lane, value & self._WORD_MASK)
        for address in self._words.keys() - words.keys():
            self._set_lane(address, lane, 0)

    def _set_lane(self, address: int, lane: int, value: int) -> None:
        word = self._words.get(address, 0)
        column = with_lane(word, self.lanes, lane, value)
        if column is not word:
            self._words[address] = column
            self._columns[address] = None

    # ------------------------------------------------------------------ export
    def columns(self) -> list:
        """Every word whose lanes differ, as ``(lanes,)`` columns."""
        words = self._words
        return [words[address] for address in self._columns]

    def lane_words(self, lane: int) -> dict[int, int]:
        """One lane's full memory image (``MemorySystem.snapshot_words`` form)."""
        words = dict(self._words)
        for address in self._columns:
            words[address] = int(words[address][lane])
        return words
