"""Host-speed normalisation: time the benchmark's work against a fixed probe.

The benchmark runs on a few cores of a shared host whose speed moves with
the other tenants' load: the same pure-Python loop runs up to ~1.8x slower
for seconds at a time, and the level drifts over tens of minutes.  Medians
within one run cannot remove a slowdown that lasts the whole run, so every
end-to-end time is also divided by the host's speed measured during the
same interval:

* while a :class:`HostSpeed` is active, a timer signal interrupts the work
  every :data:`PROBE_INTERVAL_S` seconds and times :func:`probe_kernel`, a
  fixed pure-Python loop of dict, list, attribute and integer operations
  like the simulator's own;
* :meth:`HostSpeed.time` takes a call's wall time, minus the time spent in
  the probes, and scales it by :data:`REFERENCE_PROBE_S` over the interval's
  typical probe time (a trimmed mean, see :func:`typical`).

The result reads as the seconds the same work takes on the reference host,
a quiet one of the kind in ``NOTES.md``, where the probe takes
:data:`REFERENCE_PROBE_S`.  The probe's code is fixed, so a change to the
program moves the work's time and leaves the probe's alone.
"""

from __future__ import annotations

import signal
import statistics
import time

_now = time.perf_counter

PROBE_INTERVAL_S = 0.01
"""Wall time between two probes; each probe takes about 0.25 ms."""

REFERENCE_PROBE_S = 2.5e-4
"""The probe's typical time on the reference host."""

TRIM = 0.1
"""Share of the slowest probes left out of :func:`typical`."""

PROBE_ROUNDS = 12
_NAMES = tuple(f"rob{index}_field" for index in range(64))


class _Latches:
    def __init__(self):
        self.index = {name: position for position, name in enumerate(_NAMES)}
        self.data = [0] * len(_NAMES)
        self.masks = [(1 << (8 + position % 24)) - 1
                      for position in range(len(_NAMES))]

    def get(self, name):
        return self.data[self.index[name]]

    def set(self, name, value):
        position = self.index[name]
        self.data[position] = value & self.masks[position]


_LATCHES = _Latches()


def probe_kernel(rounds: int = PROBE_ROUNDS) -> int:
    """A fixed amount of interpreter work; returns a checksum."""
    latches, acc = _LATCHES, 0
    for step in range(rounds):
        for offset, name in enumerate(_NAMES):
            value = latches.get(name) + (acc >> (offset & 15))
            latches.set(name, value ^ step)
            acc = (acc * 31 + value) & 0xFFFFFFFF
    return acc


def typical(samples: list[float]) -> float:
    """Mean of the samples without the slowest :data:`TRIM` share: a probe
    hit by a rare multi-millisecond stall would otherwise weigh as much as
    dozens of ordinary ones."""
    ordered = sorted(samples)
    return statistics.fmean(ordered[:max(1, round(len(ordered) * (1 - TRIM)))])


class HostSpeed:
    """Probe the host's speed on a timer while the benchmark works.

    Use as a context manager in the main thread; nothing else in the
    process may use ``SIGALRM`` meanwhile.
    """

    def __init__(self, interval: float = PROBE_INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []
        self.probing_s = 0.0
        self._previous = None

    def _probe(self, signum, frame) -> None:
        start = _now()
        probe_kernel()
        self.samples.append(_now() - start)
        self.probing_s += _now() - start

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def time(self, call, *args):
        """``call(*args)``, its wall seconds without the probes, and those
        seconds scaled to the reference host."""
        first, probing, start = len(self.samples), self.probing_s, _now()
        result = call(*args)
        wall = _now() - start - (self.probing_s - probing)
        samples = self.samples[first:] or self.samples[-1:]
        if not samples:
            raise RuntimeError("no probe ran while the call was timed")
        return result, wall, wall * REFERENCE_PROBE_S / typical(samples)
