"""Flip-flop level description of a simulated core.

The paper performs *flip-flop-level* soft error injection: every injection
targets a specific bit of a specific sequential element (pipeline latch,
control register, queue entry, ...) at a specific cycle.  To reproduce that,
each simulated core declares every sequential structure it contains in a
:class:`FlipFlopRegistry`.  A structure is a named, fixed-width field (for
example ``e.result`` -- the 32-bit execute-stage result latch).  Each bit of
each structure is one flip-flop and receives a global *flat index*, which is
the unit of injection, selective hardening and parity grouping throughout the
framework.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FlipFlopStructure:
    """A named group of flip-flops (one RTL register / latch field).

    Attributes:
        name: hierarchical name, e.g. ``"e.ctrl.inst"``; mirrors the paper's
            Appendix A naming style (``<stage>.<unit>.<field>``).
        width: number of flip-flops (bits) in the structure.
        unit: functional unit the structure belongs to (``"fetch"``,
            ``"execute"``, ``"rob"``, ...).  Used by the locality parity
            grouping heuristic and by the placement model.
        first_index: flat index of bit 0 of this structure.
        architectural: True when the structure holds program-visible data
            whose corruption can directly change program results; False for
            hint/bookkeeping state (branch predictor, performance counters,
            debug registers).  Both cores declare their hint plane
            behaviour-free (:attr:`BaseCore.hint_plane_inert`), so on both
            the flag decides outcomes: the injection engine classifies an
            undetected flip here as a golden copy without running the
            program (:func:`repro.engine.executors.is_inert`).  On a core
            without that declaration it is descriptive, and classification
            comes from running the program.
    """

    name: str
    width: int
    unit: str
    first_index: int
    architectural: bool = True

    @property
    def last_index(self) -> int:
        """Flat index of the highest bit of this structure."""
        return self.first_index + self.width - 1

    def bit_indices(self) -> range:
        """Flat indices covered by this structure."""
        return range(self.first_index, self.first_index + self.width)


@dataclass(frozen=True)
class FaultSite:
    """A single injectable flip-flop: (structure, bit) with its flat index."""

    structure: FlipFlopStructure
    bit: int

    @property
    def flat_index(self) -> int:
        return self.structure.first_index + self.bit

    @property
    def name(self) -> str:
        return f"{self.structure.name}[{self.bit}]"


class FlipFlopRegistry:
    """Registry of all sequential state in one core.

    Cores build their registry at construction time; the registry is then
    immutable for the lifetime of the core and shared with the fault
    injector, the resilience techniques and the physical-design model.
    """

    def __init__(self, core_name: str):
        self.core_name = core_name
        self._structures: list[FlipFlopStructure] = []
        self._by_name: dict[str, FlipFlopStructure] = {}
        self._total_bits = 0
        self._frozen = False

    # ------------------------------------------------------------------ build
    def register(self, name: str, width: int, unit: str,
                 architectural: bool = True) -> FlipFlopStructure:
        """Register a new structure and return its descriptor.

        Raises:
            ValueError: for duplicate names, non-positive widths, or when the
                registry has been frozen.
        """
        if self._frozen:
            raise ValueError("registry is frozen; cores may not add state after construction")
        if width <= 0:
            raise ValueError(f"structure {name!r} must have positive width, got {width}")
        if name in self._by_name:
            raise ValueError(f"duplicate flip-flop structure name: {name!r}")
        structure = FlipFlopStructure(name=name, width=width, unit=unit,
                                      first_index=self._total_bits,
                                      architectural=architectural)
        self._structures.append(structure)
        self._by_name[name] = structure
        self._total_bits += width
        self.__dict__.pop("_units_by_index", None)  # invalidate unit_of table
        return structure

    def freeze(self) -> None:
        """Prevent further registration (called once core construction ends)."""
        self._frozen = True

    # ------------------------------------------------------------------ query
    @property
    def structures(self) -> tuple[FlipFlopStructure, ...]:
        return tuple(self._structures)

    @property
    def total_flip_flops(self) -> int:
        """Total number of flip-flops (bits) in the core."""
        return self._total_bits

    def structure(self, name: str) -> FlipFlopStructure:
        """Look a structure up by name (KeyError if absent)."""
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def structure_names(self) -> list[str]:
        return [s.name for s in self._structures]

    def units(self) -> list[str]:
        """Distinct functional units, in registration order."""
        seen: dict[str, None] = {}
        for structure in self._structures:
            seen.setdefault(structure.unit, None)
        return list(seen)

    def structures_in_unit(self, unit: str) -> list[FlipFlopStructure]:
        return [s for s in self._structures if s.unit == unit]

    def site(self, flat_index: int) -> FaultSite:
        """Map a flat flip-flop index back to its (structure, bit) fault site."""
        if not 0 <= flat_index < self._total_bits:
            raise IndexError(f"flip-flop index out of range: {flat_index}")
        # Binary search over the structure start offsets.
        low, high = 0, len(self._structures) - 1
        while low <= high:
            mid = (low + high) // 2
            structure = self._structures[mid]
            if flat_index < structure.first_index:
                high = mid - 1
            elif flat_index > structure.last_index:
                low = mid + 1
            else:
                return FaultSite(structure=structure, bit=flat_index - structure.first_index)
        raise IndexError(f"flip-flop index not found: {flat_index}")  # pragma: no cover

    def unit_of(self, flat_index: int) -> str:
        """Functional unit of one flip-flop, via a lazily built flat table.

        The exploration engine asks this once per flip-flop per schedule
        (tens of millions of times over a 586-combination sweep), so the
        per-call binary search of :meth:`site` is replaced by one shared
        O(total) table; :meth:`register` invalidates it.
        """
        units = self.__dict__.get("_units_by_index")
        if units is None:
            units = [structure.unit for structure in self._structures
                     for _ in range(structure.width)]
            self._units_by_index = units
        return units[flat_index]

    def all_sites(self) -> list[FaultSite]:
        """Every injectable fault site in the core (one per flip-flop)."""
        return [FaultSite(structure=s, bit=b)
                for s in self._structures for b in range(s.width)]

    def non_architectural_fraction(self) -> float:
        """Fraction of flip-flops in hint/bookkeeping structures."""
        if self._total_bits == 0:
            return 0.0
        inert = sum(s.width for s in self._structures if not s.architectural)
        return inert / self._total_bits
