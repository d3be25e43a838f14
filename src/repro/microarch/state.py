"""Flip-flop backed latch state.

:class:`LatchState` stores the value of every registered flip-flop structure
of a core and is the only place where bit flips are applied.  Cores read and
write fields through it every cycle, which guarantees that an injected flip
is observed by whatever logic consumes the latch next -- the property that
makes flip-flop-level injection meaningful.

Storage is a flat list indexed by the frozen
:class:`~repro.microarch.flipflop.FlipFlopRegistry` order, with per-structure
width masks precomputed at construction.  Two APIs read and write it:

* the *flat list* itself -- :attr:`LatchState.values` is the live list, and
  every per-cycle core path indexes it directly by slot, a position bound
  once: the in-order cycle reads the list once per cycle and indexes it by
  module constants (registration order is slot order), the out-of-order
  stages by slot tables resolved with :meth:`LatchState.slot` at
  construction.  Writes through it are not masked, so such a writer masks
  every value that could exceed the structure's width.  The batched
  lockstep replay (:mod:`repro.engine.batch`) runs the in-order cycle over
  a list whose lane-local slots hold per-lane numpy columns;
* the *name-keyed* API (:meth:`~LatchState.get`, :meth:`~LatchState.set`,
  :meth:`~LatchState.flip_flat`, ...) -- one ``name -> slot`` dict lookup per
  access, for fault injection, the resilience hooks and tests.

Slots are positions, not references: :meth:`~LatchState.deserialize` and
:meth:`~LatchState.clear` replace the backing list, so callers keep slots
and re-read :attr:`~LatchState.values` rather than holding the list.
"""

from __future__ import annotations

import pickle

from repro.microarch.flipflop import FlipFlopRegistry, FlipFlopStructure

_BANK_SIZE = 32
"""Structure slots per fingerprint bank.

The latch contribution to a state fingerprint is the concatenation of one
pickled tuple per bank of ``_BANK_SIZE`` consecutive ``_data`` slots, in
bank order.  The layout is part of the persisted fingerprint format: changing
it invalidates every stored golden grid (bump ``ARTIFACT_VERSION``).
"""


class LatchState:
    """Mutable value store for every flip-flop structure of one core."""

    def __init__(self, registry: FlipFlopRegistry):
        self._registry = registry
        structures = registry.structures
        self._index: dict[str, int] = {s.name: i for i, s in enumerate(structures)}
        self._widths: list[int] = [s.width for s in structures]
        self._masks: list[int] = [(1 << s.width) - 1 for s in structures]
        self._data: list[int] = [0] * len(structures)

    @property
    def registry(self) -> FlipFlopRegistry:
        return self._registry

    @property
    def values(self) -> list:
        """The live flat value list, in registry order.

        :meth:`deserialize` and :meth:`clear` replace it, so read it afresh
        after either.  Writers bypass the width masks.
        """
        return self._data

    # ------------------------------------------------------------------ slot access
    def slot(self, name: str) -> int:
        """Position of structure ``name`` in the flat value array.

        Stable for the lifetime of the registry, so a core resolves each
        name once at construction and addresses it by slot every cycle.
        """
        return self._index[name]

    # ------------------------------------------------------------------ name access
    def get(self, name: str) -> int:
        """Current value of structure ``name`` (unsigned, ``width`` bits)."""
        return self._data[self._index[name]]

    def set(self, name: str, value: int) -> None:
        """Set structure ``name`` to ``value`` (masked to its width)."""
        position = self._index[name]
        self._data[position] = value & self._masks[position]

    def flip_bit(self, name: str, bit: int) -> None:
        """Flip a single bit of a structure (the soft-error primitive)."""
        position = self._index[name]
        if not 0 <= bit < self._widths[position]:
            raise IndexError(
                f"bit {bit} out of range for {name} (width {self._widths[position]})")
        self._data[position] ^= 1 << bit

    def flip_flat(self, flat_index: int) -> str:
        """Flip the flip-flop with global index ``flat_index``.

        Returns the name of the affected structure, for diagnostics.
        """
        site = self._registry.site(flat_index)
        self.flip_bit(site.structure.name, site.bit)
        return site.structure.name

    # ------------------------------------------------------------------ bulk
    def clear(self) -> None:
        """Reset every structure to zero (power-on state)."""
        self._data = [0] * len(self._data)

    # ------------------------------------------------------------------ serialization
    def serialize(self) -> tuple[int, ...]:
        """All structure values in registry order (compact, picklable).

        The registry is frozen when the core is built, so the ordering is
        stable for the lifetime of the core and across identically-built
        cores -- which lets checkpoints travel to worker processes without
        carrying structure names.
        """
        return tuple(self._data)

    # ------------------------------------------------------------------ digests
    def fingerprint_digest(self) -> bytes:
        """Latch contribution to :meth:`BaseCore.state_fingerprint`.

        One pickled tuple per bank of ``_BANK_SIZE`` consecutive values,
        concatenated in bank order.
        """
        data = self._data
        return b"".join(pickle.dumps(tuple(data[start:start + _BANK_SIZE]),
                                     protocol=4)
                        for start in range(0, len(data), _BANK_SIZE))

    def deserialize(self, values: "tuple[int, ...] | list[int]") -> None:
        """Restore values captured by :meth:`serialize`.

        Raises:
            ValueError: if ``values`` does not match the registry layout.
        """
        if len(values) != len(self._data):
            raise ValueError(
                f"serialized latch state has {len(values)} values, registry "
                f"expects {len(self._data)}")
        self._data = list(values)

    def structures(self) -> tuple[FlipFlopStructure, ...]:
        return self._registry.structures
