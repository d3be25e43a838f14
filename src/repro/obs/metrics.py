"""Near-zero-overhead-when-disabled metrics: counters, timers, histograms.

One :class:`MetricsRegistry` holds three families of metrics:

* **counters** -- monotonically accumulated integers (cycles per replay
  phase, replays, convergence early-outs).  Counters are the substrate the
  engine's telemetry is plumbed through: every
  :class:`~repro.engine.executors.ChunkResult` carries one registry, and
  campaign aggregation is a deterministic merge of those registries in
  chunk-index order.  Counter merging is integer addition -- associative and
  commutative -- so the merged values are bit-identical for any executor,
  worker count or completion order (the same contract every engine layer
  keeps).
* **wall-clock phase timers** -- accumulated ``time.perf_counter`` seconds
  plus an invocation count per phase, behind the ``timing`` flag so the
  default campaign path never calls the clock.
* **histograms** -- power-of-two bucketed value distributions (replay
  lengths, convergence distances); bucket counts are integers and merge as
  deterministically as counters.
* **wall-clock histograms** -- the same power-of-two bucketing applied to
  wall-clock-derived values (per-probe fingerprint latency).  Gated on the
  ``timing`` flag like the phase timers and kept in a separate family,
  because which bucket a timed sample lands in varies run to run: they are
  deliberately *outside* the deterministic-merge contract the plain
  histograms keep.

The overhead contract: a *disabled* registry (``enabled=False``) reduces
every operation to one attribute check and :meth:`timer` returns a shared
no-op context manager -- no allocation, no clock read, no dict access -- so
instrumentation can stay wired through hot paths unconditionally.  An
enabled registry with ``timing=False`` (what the engine gives each chunk)
accumulates counters but skips the clock.

Workers each build an explicit private registry (a registry is plain data
and pickles, but is not shared across processes).
"""

from __future__ import annotations

import time


class _NullTimer:
    """Shared no-op context manager returned by disabled timers."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc) -> bool:
        return False


NULL_TIMER = _NullTimer()
"""The one no-op timer instance; identity-checkable by the fast-path tests."""


class _Timer:
    """Context manager accumulating one phase's wall-clock time."""

    __slots__ = ("_registry", "_name", "_start")

    def __init__(self, registry: "MetricsRegistry", name: str):
        self._registry = registry
        self._name = name

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self._registry.add_time(self._name, time.perf_counter() - self._start)
        return False


class MetricsRegistry:
    """Counters, wall-clock phase timers and power-of-two histograms.

    Args:
        enabled: ``False`` turns every operation into a no-op (one attribute
            check); the registry stays empty.
        timing: gates the wall-clock timers separately from the counters.
            ``None`` follows ``enabled``; the engine passes ``False`` so
            chunk counters accumulate without any clock reads unless
            ``EngineConfig(metrics=True)`` asked for them.
    """

    __slots__ = ("enabled", "timing", "counters", "timers", "histograms",
                 "wall_histograms")

    def __init__(self, enabled: bool = True, timing: bool | None = None):
        self.enabled = enabled
        self.timing = enabled and (enabled if timing is None else timing)
        self.counters: dict[str, int] = {}
        self.timers: dict[str, list] = {}
        self.histograms: dict[str, dict[int, int]] = {}
        self.wall_histograms: dict[str, dict[int, int]] = {}

    # ------------------------------------------------------------------ record
    def inc(self, name: str, value: int = 1) -> None:
        """Add ``value`` to counter ``name`` (created at 0)."""
        if not self.enabled:
            return
        self.counters[name] = self.counters.get(name, 0) + value

    def timer(self, name: str):
        """Context manager accumulating wall-clock seconds under ``name``."""
        if not self.timing:
            return NULL_TIMER
        return _Timer(self, name)

    def add_time(self, name: str, seconds: float, count: int = 1) -> None:
        """Fold pre-measured seconds into timer ``name``."""
        if not self.timing:
            return
        entry = self.timers.get(name)
        if entry is None:
            self.timers[name] = [seconds, count]
        else:
            entry[0] += seconds
            entry[1] += count

    def observe(self, name: str, value: int) -> None:
        """Record ``value`` into histogram ``name`` (power-of-two buckets).

        Bucket ``b`` holds values whose bit length is ``b`` -- i.e. the
        ``[2**(b-1), 2**b)`` range, with 0 (and negatives, clamped) in
        bucket 0.  Integer bucket counts keep the merge deterministic.
        """
        if not self.enabled:
            return
        bucket = int(value).bit_length() if value > 0 else 0
        histogram = self.histograms.setdefault(name, {})
        histogram[bucket] = histogram.get(bucket, 0) + 1

    def observe_wall(self, name: str, value: int) -> None:
        """Record a wall-clock-derived ``value`` into histogram ``name``.

        Same power-of-two bucketing as :meth:`observe`, but gated on
        ``timing`` and stored in the separate wall-clock family: timed
        samples land in different buckets run to run, so they must not
        contaminate the deterministic histogram merge.
        """
        if not self.timing:
            return
        bucket = int(value).bit_length() if value > 0 else 0
        histogram = self.wall_histograms.setdefault(name, {})
        histogram[bucket] = histogram.get(bucket, 0) + 1

    # ------------------------------------------------------------------ read
    def value(self, name: str, default: int = 0) -> int:
        """Current counter value (``default`` when never incremented)."""
        return self.counters.get(name, default)

    def seconds(self, name: str) -> float:
        """Accumulated wall-clock seconds of timer ``name`` (0.0 if unused)."""
        entry = self.timers.get(name)
        return entry[0] if entry else 0.0

    # ------------------------------------------------------------------ merge
    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's metrics into this one.

        Counter and histogram merging is integer addition, so any merge
        order produces bit-identical values; callers that also carry float
        timers (the engine) still merge in chunk-index order by convention.
        A disabled target registry ignores the merge (it must stay empty).
        """
        self.merge_dict(other.to_dict())

    def merge_dict(self, data: dict) -> None:
        """Fold a :meth:`to_dict` document (e.g. from a worker) into this
        registry."""
        if not self.enabled:
            return
        for name, value in data.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, entry in data.get("timers", {}).items():
            mine = self.timers.get(name)
            if mine is None:
                self.timers[name] = [entry["seconds"], entry["count"]]
            else:
                mine[0] += entry["seconds"]
                mine[1] += entry["count"]
        for name, buckets in data.get("histograms", {}).items():
            histogram = self.histograms.setdefault(name, {})
            for bucket, count in buckets.items():
                bucket = int(bucket)
                histogram[bucket] = histogram.get(bucket, 0) + count
        for name, buckets in data.get("wall_histograms", {}).items():
            histogram = self.wall_histograms.setdefault(name, {})
            for bucket, count in buckets.items():
                bucket = int(bucket)
                histogram[bucket] = histogram.get(bucket, 0) + count

    # ------------------------------------------------------------------ (de)serialize
    def to_dict(self) -> dict:
        """JSON-ready snapshot: ``{"counters", "timers", "histograms"}``.

        Histogram bucket keys become strings (JSON objects key on strings);
        :meth:`merge_dict` converts them back.  ``wall_histograms`` rides
        along next to the timers as the second wall-clock family.
        """
        return {
            "counters": dict(self.counters),
            "timers": {name: {"seconds": entry[0], "count": entry[1]}
                       for name, entry in self.timers.items()},
            "histograms": {name: {str(bucket): count
                                  for bucket, count in sorted(buckets.items())}
                           for name, buckets in self.histograms.items()},
            "wall_histograms": {
                name: {str(bucket): count
                       for bucket, count in sorted(buckets.items())}
                for name, buckets in self.wall_histograms.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsRegistry":
        registry = cls(enabled=True, timing=True)
        registry.merge_dict(data)
        return registry

    def clear(self) -> None:
        self.counters.clear()
        self.timers.clear()
        self.histograms.clear()
        self.wall_histograms.clear()


NULL_METRICS = MetricsRegistry(enabled=False)
"""Shared disabled registry for default parameters on hot paths."""
