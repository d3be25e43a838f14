"""Streaming Pareto frontier over exploration results.

The cross-layer sweep produces one point per (combination, target): an
achieved improvement plus energy/area/execution-time overheads.  Exploration
questions ("what does 50x cost at minimum?", the Fig. 1(d) cloud, the
Fig. 9/10 bounds envelopes) only ever consult the *non-dominated* subset, so
:class:`ParetoFrontier` folds points in as they stream out of the
explorer and keeps just that subset: a point is dropped the moment any
kept point is at least as good on every axis (higher-or-equal improvement,
lower-or-equal cost on every cost axis) and strictly better on one.

The final frontier is independent of insertion order -- dominance is a
partial order, exact-duplicate coordinates are folded, and coordinate ties
are broken deterministically (lexicographically smallest label wins) -- so a
frontier merged from several stored runs, or folded from points in any
order, is the same frontier, labels included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


@dataclass(frozen=True)
class ParetoPoint:
    """One candidate design point: improvement bought at a cost triple."""

    improvement: float
    energy_pct: float
    area_pct: float
    exec_time_pct: float
    label: str = ""
    payload: object = None

    def _coordinates(self) -> tuple[float, float, float, float]:
        return (self.improvement, self.energy_pct, self.area_pct, self.exec_time_pct)

    def dominates(self, other: "ParetoPoint") -> bool:
        """At least as good on every axis, strictly better on at least one."""
        if (self.improvement < other.improvement
                or self.energy_pct > other.energy_pct
                or self.area_pct > other.area_pct
                or self.exec_time_pct > other.exec_time_pct):
            return False
        return self._coordinates() != other._coordinates()


class ParetoFrontier:
    """Dominance-pruned set of exploration points, filled incrementally."""

    def __init__(self) -> None:
        self._points: list[ParetoPoint] = []
        self._seen = 0

    # ------------------------------------------------------------------ building
    def add(self, point: ParetoPoint) -> bool:
        """Offer one point; returns True when it joins the frontier.

        Exact coordinate duplicates of a kept point are folded with a
        deterministic tie-break -- the lexicographically smallest label wins
        (first offer wins among equal labels) -- so the surviving point,
        label and payload included, does not depend on the order points are
        offered in -- merged stores and order-free folds see one frontier.
        """
        self._seen += 1
        coordinates = point._coordinates()
        for position, kept in enumerate(self._points):
            if kept._coordinates() == coordinates:
                if point.label < kept.label:
                    self._points[position] = point
                    return True
                return False
            if kept.dominates(point):
                return False
        self._points = [kept for kept in self._points if not point.dominates(kept)]
        self._points.append(point)
        return True

    def update(self, points: Iterable[ParetoPoint]) -> int:
        """Offer many points; returns how many survived."""
        return sum(1 for point in points if self.add(point))

    @classmethod
    def from_points(cls, points: Iterable[ParetoPoint],
                    seen: int | None = None) -> "ParetoFrontier":
        """Build a frontier by offering ``points``; ``seen`` restores sweep
        coverage recorded elsewhere (e.g. a persisted frontier whose dominated
        points were pruned before storage)."""
        frontier = cls()
        frontier.update(points)
        if seen is not None:
            frontier._seen = max(seen, frontier._seen)
        return frontier

    # ------------------------------------------------------------------ queries
    @property
    def seen(self) -> int:
        """Total points offered (kept or dominated) -- sweep coverage."""
        return self._seen

    def points(self) -> list[ParetoPoint]:
        """Frontier points sorted by energy (the paper's primary cost axis)."""
        return sorted(self._points,
                      key=lambda p: (p.energy_pct, -p.improvement, p.label))

    def cheapest_at_least(self, improvement: float) -> ParetoPoint | None:
        """Minimum-energy frontier point achieving ``improvement`` or better."""
        candidates = [p for p in self._points if p.improvement >= improvement]
        if not candidates:
            return None
        return min(candidates, key=lambda p: (p.energy_pct, -p.improvement, p.label))

    def envelope(self) -> list[tuple[float, float]]:
        """The (improvement, energy) trade-off curve of the frontier."""
        return [(p.improvement, p.energy_pct) for p in
                sorted(self._points, key=lambda p: (p.improvement, p.energy_pct))]

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[ParetoPoint]:
        return iter(self.points())
