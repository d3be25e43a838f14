"""Synthetic layout / placement model.

The paper uses full place-and-route in a 28 nm flow; the exploration engine,
however, only consumes three layout-derived quantities:

* nearest-neighbour spacing between flip-flops (Table 5), which determines
  SEMU susceptibility;
* spacing between flip-flops of the same parity group after applying the
  minimum-spacing layout constraint (Table 6);
* locality (which functional unit a flip-flop sits in), which drives the
  wiring cost of parity grouping.

This module synthesises a deterministic placement with those properties:
flip-flops are packed into per-unit regions at a configurable density
(calibrated so the fraction of adjacent flip-flops matches the paper's
baseline distributions), and a constraint solver re-spaces parity groups so
no two members are within the SEMU radius.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.faultinjection.vulnerability import ordered_sum
from repro.microarch.flipflop import FlipFlopRegistry

# Fraction of flip-flops whose nearest neighbour is less than one flip-flop
# length away in the unconstrained baseline placement (Table 5).
DEFAULT_ADJACENT_FRACTION = {"InO": 0.652, "OoO": 0.422}


@dataclass(frozen=True)
class SpacingDistribution:
    """Histogram of nearest-neighbour distances in flip-flop lengths."""

    bins: tuple[float, ...]          # upper edges: (1, 2, 3, 4, inf)
    fractions: tuple[float, ...]
    average: float

    def as_rows(self) -> list[tuple[str, float]]:
        labels = ["< 1 flip-flop length", "1 - 2 lengths", "2 - 3 lengths",
                  "3 - 4 lengths", "> 4 lengths"]
        return list(zip(labels, self.fractions))


class Placement:
    """Deterministic synthetic placement of every flip-flop of a core."""

    def __init__(self, registry: FlipFlopRegistry, seed: int = 2016,
                 adjacent_fraction: float | None = None):
        self.registry = registry
        family = "OoO" if registry.total_flip_flops > 4000 else "InO"
        self._target_adjacent = (adjacent_fraction if adjacent_fraction is not None
                                 else DEFAULT_ADJACENT_FRACTION[family])
        self._rng = random.Random(seed)
        self._positions: dict[int, tuple[float, float]] = {}
        self._build()

    # ------------------------------------------------------------------ construction
    def _build(self) -> None:
        """Place units on a block grid and flip-flops on a jittered sub-grid.

        The sub-grid pitch is chosen so that roughly ``target_adjacent`` of
        flip-flops end up with a nearest neighbour closer than one flip-flop
        length, as observed in the paper's baseline layouts.
        """
        units = self.registry.units()
        blocks_per_row = max(1, math.ceil(math.sqrt(len(units))))
        # Pitch below 1.0 packs flip-flops closer than one length; mix two
        # pitches to hit the target adjacent fraction.
        tight_pitch, loose_pitch = 0.82, 1.55
        flat = 0
        for unit_index, unit in enumerate(units):
            block_x = (unit_index % blocks_per_row) * 120.0
            block_y = (unit_index // blocks_per_row) * 120.0
            sites = [index for structure in self.registry.structures_in_unit(unit)
                     for index in structure.bit_indices()]
            columns = max(1, math.ceil(math.sqrt(len(sites))))
            for local_index, flat_index in enumerate(sites):
                use_tight = self._rng.random() < self._target_adjacent + 0.08
                pitch = tight_pitch if use_tight else loose_pitch
                column = local_index % columns
                row = local_index // columns
                jitter_x = self._rng.uniform(-0.08, 0.08)
                jitter_y = self._rng.uniform(-0.08, 0.08)
                self._positions[flat_index] = (block_x + column * pitch + jitter_x,
                                               block_y + row * pitch + jitter_y)
                flat += 1

    # ------------------------------------------------------------------ queries
    @property
    def flip_flop_count(self) -> int:
        return self.registry.total_flip_flops

    def position(self, flat_index: int) -> tuple[float, float]:
        return self._positions[flat_index]

    def distance(self, a: int, b: int) -> float:
        ax, ay = self._positions[a]
        bx, by = self._positions[b]
        return math.hypot(ax - bx, ay - by)

    def neighbours_within(self, flat_index: int, radius: float) -> list[int]:
        """All flip-flops within ``radius`` flip-flop lengths (excluding self)."""
        ax, ay = self._positions[flat_index]
        neighbours = []
        for other, (bx, by) in self._positions.items():
            if other == flat_index:
                continue
            if abs(ax - bx) <= radius and abs(ay - by) <= radius:
                if math.hypot(ax - bx, ay - by) <= radius:
                    neighbours.append(other)
        return neighbours

    def nearest_neighbour_distance(self, flat_index: int,
                                   candidates: list[int] | None = None) -> float:
        """Distance to the nearest other flip-flop (or nearest of ``candidates``)."""
        ax, ay = self._positions[flat_index]
        best = math.inf
        pool = candidates if candidates is not None else self._positions.keys()
        for other in pool:
            if other == flat_index:
                continue
            bx, by = self._positions[other]
            if abs(ax - bx) >= best or abs(ay - by) >= best:
                continue
            best = min(best, math.hypot(ax - bx, ay - by))
        return best

    # ------------------------------------------------------------------ distributions
    def _distribution(self, distances: list[float]) -> SpacingDistribution:
        edges = (1.0, 2.0, 3.0, 4.0, math.inf)
        counts = [0] * len(edges)
        for distance in distances:
            for bin_index, edge in enumerate(edges):
                if distance < edge:
                    counts[bin_index] += 1
                    break
        total = max(1, len(distances))
        finite = [d for d in distances if math.isfinite(d)]
        average = ordered_sum(finite) / len(finite) if finite else 0.0
        return SpacingDistribution(bins=edges,
                                   fractions=tuple(c / total for c in counts),
                                   average=average)

    def baseline_spacing_distribution(self, sample: int | None = 2000,
                                      seed: int = 1) -> SpacingDistribution:
        """Nearest-neighbour spacing of the unconstrained placement (Table 5)."""
        indices = list(self._positions)
        if sample is not None and len(indices) > sample:
            indices = random.Random(seed).sample(indices, sample)
        distances = [self.nearest_neighbour_distance(i) for i in indices]
        return self._distribution(distances)

    def parity_spacing_distribution(self, groups: list[list[int]]) -> SpacingDistribution:
        """Spacing between same-parity-group flip-flops after re-spacing (Table 6).

        Parity members are logically re-spaced by interleaving: member ``k``
        of a group is treated as being at least ``k`` slots away from member
        ``k-1`` in the constrained layout, reflecting the minimum-spacing
        design constraint applied during place-and-route.
        """
        distances = []
        for group in groups:
            if len(group) < 2:
                continue
            spaced = self.respace_group(group)
            for flat_index in group:
                others = [g for g in group if g != flat_index]
                best = min(math.hypot(spaced[flat_index][0] - spaced[o][0],
                                      spaced[flat_index][1] - spaced[o][1])
                           for o in others)
                distances.append(best)
        return self._distribution(distances)

    def respace_group(self, group: list[int]) -> dict[int, tuple[float, float]]:
        """Positions of a parity group after the minimum-spacing constraint.

        Members are spread over the bounding region of the group on a grid
        with pitch > 1 flip-flop length, which is how the layout constraint
        manifests physically (members of one group are interleaved with
        members of other groups).
        """
        xs = [self._positions[i][0] for i in group]
        ys = [self._positions[i][1] for i in group]
        base_x, base_y = min(xs), min(ys)
        columns = max(1, math.ceil(math.sqrt(len(group))))
        pitch = max(1.6, (max(xs) - base_x + 1.6) / columns)
        spaced = {}
        for order, flat_index in enumerate(sorted(group)):
            column = order % columns
            row = order // columns
            spaced[flat_index] = (base_x + column * pitch, base_y + row * pitch)
        return spaced
