"""Golden-run latch liveness: which flips die unread.

A flip into latch slot ``L`` at the start of cycle ``c`` is *dead* when the
golden run's first access to ``L`` at or after ``c`` is a write, or when
nothing accesses ``L`` again.  Until that write the injected run differs
from the golden run in ``L`` alone, and nothing has read ``L``, so it
computes exactly what the golden run computes; the write stores the golden
value and the two runs are identical from then on.  A dead flip's result is
therefore the golden :class:`~repro.microarch.events.RunResult` by
construction, and the injection engine folds it without simulating it
(:func:`repro.engine.executors.is_inert`).  This is def/use fault-space
pruning (FAIL*, Schirmeier et al., EDCC 2015; Relyzer, Hari et al.,
ASPLOS 2012) at flip-flop granularity.

The facts come from one extra golden run, :func:`record_dead_cycles`, whose
latch storage is an :class:`_AccessLog`: a ``list`` whose item reads and
writes note the kind of each slot's first access in every cycle, compacted
as the run goes into one dead-cycle bitmap per slot, and turned at the end
into one Python int per architectural slot (bit ``c`` set: a flip at cycle
``c`` is dead).  The log stays linear in the golden run's length: a slot's
recent bits live in a small int window, which sheds its settled bytes into
a ``bytearray`` once it spans :data:`_WINDOW` cycles.  A gap in the log is loud, never a silently
unsound fold: :class:`LogGapError` is raised for any access the log cannot
classify (a slice, iteration, a bulk read such as
:meth:`~repro.microarch.state.LatchState.serialize`), for a run that swaps
the logged list out, and for a logged run that does not reproduce the
golden run.

The masks live only in memory, beside the golden run they describe
(:attr:`CheckpointedGoldenRun.dead_cycles`, built on first use by
:func:`dead_cycles`); they are never pickled to pool workers or into golden
artifacts, because only the campaign process plans.
"""

from __future__ import annotations

from repro.engine.checkpoint import CheckpointedGoldenRun
from repro.isa.program import Program
from repro.microarch.core import BaseCore
from repro.microarch.events import RunResult

_get = list.__getitem__
_set = list.__setitem__

# Cycles a slot's bit window spans before it sheds its settled bytes: wide
# enough that shedding is rare, narrow enough that the window's int
# arithmetic stays a few machine words.
_WINDOW = 512


class LogGapError(RuntimeError):
    """The access log missed, or could not classify, a latch access."""


class _AccessLog(list):
    """Latch storage that logs each slot's first access in every cycle.

    The logging run's cycle hook advances :attr:`cycle`.  ``v[s] += 1`` and
    ``v[s] ^= x`` are reads, because ``__getitem__`` runs first.

    Attributes:
        cycle: the cycle being simulated.
        last: per slot, the latest cycle with a logged access (-1: none).
        rows: per slot, the settled dead-cycle bits, little-endian: bit
            ``c`` of the bytes covers cycle ``c``.
        windows: per slot, the dead-cycle bits from cycle
            ``8 * len(rows[slot])`` on, as an int.
    """

    __slots__ = ("cycle", "last", "rows", "windows")

    def __init__(self, values: list[int]):
        super().__init__(values)
        self.cycle = 0
        self.last = [-1] * len(values)
        self.rows = [bytearray() for _ in values]
        self.windows = [0] * len(values)

    # A read only marks the slot accessed this cycle.  A write that comes
    # first in its cycle also marks every cycle since the slot's previous
    # access dead: a flip there meets this write first.  Negative indices
    # name the same slot in ``last`` and the bit stores as in the values,
    # and a slice is rejected: ``last[slice] = int`` raises, and
    # ``last[slice]`` is a list, never a cycle.
    def __getitem__(self, slot):
        try:
            self.last[slot] = self.cycle
        except TypeError:
            raise LogGapError(f"unclassified latch access: index "
                              f"{slot!r}") from None
        return _get(self, slot)

    def __setitem__(self, slot, value) -> None:
        last = self.last
        previous = last[slot]
        cycle = self.cycle
        if previous != cycle:
            if type(slot) is not int:
                raise LogGapError(f"unclassified latch access: index "
                                  f"{slot!r}")
            base = len(self.rows[slot]) << 3
            if cycle - base > _WINDOW:
                base = self._settle(slot, previous)
            self.windows[slot] |= (((1 << (cycle - previous)) - 1)
                                   << (previous + 1 - base))
            last[slot] = cycle
        _set(self, slot, value)

    def _settle(self, slot: int, previous: int) -> int:
        """Move the window's whole bytes below cycle ``previous + 1`` (bits
        no later access can set) into the slot's row; return the window's
        new first cycle."""
        row = self.rows[slot]
        base = len(row) << 3
        settled = (previous + 1 - base) >> 3
        window = self.windows[slot]
        row += (window & ((1 << (settled << 3)) - 1)).to_bytes(settled,
                                                                "little")
        self.windows[slot] = window >> (settled << 3)
        return base + (settled << 3)

    def masks(self, cycles: int, keep: list[bool]) -> tuple[int, ...]:
        """The final dead-cycle masks over cycles ``0 .. cycles - 1``: a
        slot is dead from its last access on.  Slots with a false ``keep``
        get 0.  Equal masks are shared (fields of one queue entry are
        mostly written and read together), which halves their memory."""
        shared: dict[int, int] = {}
        masks = []
        for slot, last in enumerate(self.last):
            mask = 0
            if keep[slot]:
                row = self.rows[slot]
                mask = (int.from_bytes(row, "little")
                        | self.windows[slot] << (len(row) << 3))
                tail = cycles - last - 1
                if tail > 0:
                    mask |= ((1 << tail) - 1) << (last + 1)
            masks.append(shared.setdefault(mask, mask))
        return tuple(masks)


def _unclassified(name: str):
    def method(self, *args, **kwargs):
        raise LogGapError(f"unclassified latch access: list.{name}")
    method.__name__ = name
    return method


# Everything else a list offers reads or reshapes many slots at once.
for _name in ("__iter__", "__reversed__", "__contains__", "__eq__", "__ne__",
              "__lt__", "__le__", "__gt__", "__ge__", "__add__", "__iadd__",
              "__mul__", "__rmul__", "__imul__", "__delitem__",
              "__reduce_ex__", "append", "clear", "copy", "count", "extend",
              "index", "insert", "pop", "remove", "reverse", "sort"):
    setattr(_AccessLog, _name, _unclassified(_name))
del _name


def record_dead_cycles(core: BaseCore, program: Program,
                       golden: RunResult) -> tuple[int, ...]:
    """Re-run ``program`` on ``core`` as its golden run ``golden``, logging
    every latch access, and return one dead-cycle mask per latch slot (in
    registry order; 0 for hint structures, ``architectural=False``).

    Raises:
        LogGapError: an access the log cannot classify, a run that replaced
            the logged latch list, or a run that differs from ``golden``.
    """
    latches = core.latches
    core.reset(program)
    log = _AccessLog(latches.values)
    latches._data = log

    def hook(_core: BaseCore, cycle: int) -> None:
        if latches._data is not log:
            raise LogGapError(f"latch storage replaced before cycle {cycle}; "
                              f"its accesses were not logged")
        log.cycle = cycle

    try:
        result = core._run_loop(golden.cycles, hook)
        hook(core, core.cycle)
    finally:
        latches._data = list.copy(log)
    if result != golden:
        raise LogGapError(f"the logged run of {program.name} on {core.name} "
                          f"did not reproduce its golden run")
    return log.masks(golden.cycles, [structure.architectural for structure
                                     in core.registry.structures])


def dead_cycles(core: BaseCore, program: Program,
                checkpointed: CheckpointedGoldenRun) -> tuple[int, ...]:
    """The dead-cycle masks of ``checkpointed``'s golden run: logged by
    :func:`record_dead_cycles` on first use, then cached on
    ``checkpointed`` (in memory only)."""
    if checkpointed.dead_cycles is None:
        checkpointed.dead_cycles = record_dead_cycles(core, program,
                                                      checkpointed.golden)
    return checkpointed.dead_cycles
