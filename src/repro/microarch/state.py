"""Flip-flop backed latch state.

:class:`LatchState` stores the value of every registered flip-flop structure
of a core and is the only place where bit flips are applied.  Cores read and
write fields through it every cycle, which guarantees that an injected flip
is observed by whatever logic consumes the latch next -- the property that
makes flip-flop-level injection meaningful.

Storage is a flat integer array indexed by the frozen
:class:`~repro.microarch.flipflop.FlipFlopRegistry` order; the name-keyed
API is a thin view over it (one ``name -> position`` lookup per access, with
per-structure width masks precomputed at construction).  The flat layout is
what makes :class:`BatchedLatchState` -- the same state for N cores at once,
as one ``(lanes, n_structures)`` matrix -- a natural extension, which the
batched lockstep replay engine (:mod:`repro.engine.batch`) builds on.
"""

from __future__ import annotations

import pickle

from repro.microarch.flipflop import FlipFlopRegistry, FlipFlopStructure

try:  # numpy backs only the batched state; the scalar path never needs it.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    _np = None

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
        # audit: allow[state-coverage] lazily-built index over the frozen registry layout; derived from structure, not run state
        self._unit_indices: dict[str, list[int]] | None = None

    @property
    def registry(self) -> FlipFlopRegistry:
        return self._registry

    # ------------------------------------------------------------------ access
    def get(self, name: str) -> int:
        """Current value of structure ``name`` (unsigned, ``width`` bits)."""
        return self._data[self._index[name]]

    def get_signed(self, name: str) -> int:
        """Current value of structure ``name`` interpreted as two's complement."""
        position = self._index[name]
        value = self._data[position]
        sign_bit = 1 << (self._widths[position] - 1)
        if value & sign_bit:
            return value - (1 << self._widths[position])
        return value

    def set(self, name: str, value: int) -> None:
        """Set structure ``name`` to ``value`` (masked to its width)."""
        position = self._index[name]
        self._data[position] = value & self._masks[position]

    def set_signed(self, name: str, value: int) -> None:
        """Set a structure from a signed Python int (two's complement wrap)."""
        self.set(name, value)

    def get_bit(self, name: str, bit: int) -> int:
        return (self._data[self._index[name]] >> bit) & 1

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

    def clear_unit(self, unit: str) -> None:
        """Reset every structure belonging to ``unit`` (used by pipeline flushes)."""
        if self._unit_indices is None:
            self._unit_indices = {}
            for position, structure in enumerate(self._registry.structures):
                self._unit_indices.setdefault(structure.unit, []).append(position)
        for position in self._unit_indices.get(unit, ()):
            self._data[position] = 0

    def snapshot(self) -> dict[str, int]:
        """Copy of all structure values (used by recovery checkpoints)."""
        return dict(zip(self._index, self._data))

    def restore(self, snapshot: dict[str, int]) -> None:
        """Restore values captured by :meth:`snapshot`.

        Raises:
            ValueError: if ``snapshot`` names a structure this registry does
                not contain.  A snapshot from a differently-built core would
                otherwise half-restore silently, leaving the core in a state
                neither run ever had.
        """
        index = self._index
        for name in snapshot:
            if name not in index:
                raise ValueError(
                    f"snapshot names unknown flip-flop structure {name!r} "
                    f"(registry {self._registry.core_name!r})")
        for name, value in snapshot.items():
            self._data[index[name]] = value

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


class BatchedLatchState:
    """Latch state for ``lanes`` identically-built cores as one matrix.

    Row ``lane`` holds one core's flat latch array (the exact values
    :meth:`LatchState.serialize` would produce for that core), so N replays
    of the same golden run can advance as numpy-vectorised wavefronts: a
    column slice is "this structure across every replay", an XOR into one
    element is a soft-error injection, and a row compare against a reference
    lane is a whole-state convergence check.

    Values are stored as ``uint64``, which covers every structure the cores
    register (widths are bounded by 64); construction rejects wider ones.
    """

    def __init__(self, registry: FlipFlopRegistry, lanes: int):
        if _np is None:  # pragma: no cover - exercised on numpy-free installs
            raise RuntimeError("BatchedLatchState requires numpy")
        if lanes < 1:
            raise ValueError(f"lanes must be >= 1, got {lanes}")
        structures = registry.structures
        too_wide = [s.name for s in structures if s.width > 64]
        if too_wide:
            raise ValueError(f"structures wider than 64 bits cannot be "
                             f"batched: {too_wide}")
        self._registry = registry
        self.lanes = lanes
        self._index = {s.name: i for i, s in enumerate(structures)}
        self._widths = [s.width for s in structures]
        self._masks = _np.array([(1 << s.width) - 1 for s in structures],
                                dtype=_np.uint64)
        self.array = _np.zeros((lanes, len(structures)), dtype=_np.uint64)

    @classmethod
    def from_serialized(cls, registry: FlipFlopRegistry,
                        values: "tuple[int, ...] | list[int]",
                        lanes: int) -> "BatchedLatchState":
        """Broadcast one core's serialized latch values to every lane."""
        state = cls(registry, lanes)
        if len(values) != state.array.shape[1]:
            raise ValueError(
                f"serialized latch state has {len(values)} values, registry "
                f"expects {state.array.shape[1]}")
        state.array[:] = _np.array(values, dtype=_np.uint64)
        return state

    @property
    def registry(self) -> FlipFlopRegistry:
        return self._registry

    def position(self, name: str) -> int:
        """Column index of structure ``name`` (registry order)."""
        return self._index[name]

    # ------------------------------------------------------------------ access
    def col(self, name: str):
        """Writable ``(lanes,)`` view of one structure across every lane."""
        return self.array[:, self._index[name]]

    def set_col(self, name: str, values) -> None:
        """Set a structure on every lane (masked to the structure width)."""
        position = self._index[name]
        self.array[:, position] = _np.asarray(values).astype(
            _np.uint64, copy=False) & self._masks[position]

    def get(self, lane: int, name: str) -> int:
        return int(self.array[lane, self._index[name]])

    def set(self, lane: int, name: str, value: int) -> None:
        position = self._index[name]
        self.array[lane, position] = _np.uint64(value) & self._masks[position]

    def flip_flat(self, lane: int, flat_index: int) -> str:
        """Flip one flip-flop of one lane; returns the structure name."""
        site = self._registry.site(flat_index)
        position = self._index[site.structure.name]
        self.array[lane, position] ^= _np.uint64(1 << site.bit)
        return site.structure.name

    # ------------------------------------------------------------------ bulk
    def lane_serialized(self, lane: int) -> tuple[int, ...]:
        """One lane's values in registry order (``LatchState.serialize`` form)."""
        return tuple(int(value) for value in self.array[lane])

    def rows_equal(self, reference_lane: int = 0, columns=None):
        """Per-lane equality with ``reference_lane`` (over ``columns``, or all).

        Returns a ``(lanes,)`` boolean array; the reference lane compares
        True to itself.
        """
        view = self.array if columns is None else self.array[:, columns]
        return (view == view[reference_lane]).all(axis=1)
