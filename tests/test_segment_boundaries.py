"""Where a run is cut into segments does not change an in-order run.

:meth:`InOrderCore._advance` reads the latch list, registers, memory,
program words and its hooks once per call, charges a pending recovery stall
in one step, and then steps the whole segment in one loop.  So a run cut
into segments at arbitrary cycles must equal the same run stepped one cycle
per call (:meth:`~repro.microarch.core.BaseCore.step`) and the same run
finished by a single :meth:`~repro.microarch.core.BaseCore._run_loop`: the
same :class:`RunResult`, and the same latches, registers and output at
every cut, which each segment reaches exactly unless the run ends first.
An object the segment prologue read going stale inside a segment, a stall
charged wrongly across a cut, or a trap or halt that does not end its
segment where it ends its cycle makes them differ.  Each run starts from a
snapshot taken after a seeded latch flip and a scheduled recovery stall,
and one core plays all three, restored between them.
"""

from __future__ import annotations

import functools
import random

from hypothesis import given, settings, strategies as st

from repro.faultinjection.injector import injection_watchdog
from repro.microarch import InOrderCore
from repro.workloads import workload_by_name

PROGRAMS = ("vpr", "fft")

MAX_STALL = 40


@functools.cache
def _golden(name: str):
    program = workload_by_name(name).program()
    return program, InOrderCore().run(program)


def _state(core: InOrderCore) -> tuple:
    return (core.cycle, core.latches.serialize(), list(core.registers),
            list(core.output), core.instructions_retired,
            core._pending_recovery, core.terminated)


@st.composite
def _scenarios(draw):
    """``(program, snapshot, watchdog, cuts)``: a core state right after a
    seeded flip and a recovery stall, and sorted cut cycles, many of them
    inside the stall."""
    name = draw(st.sampled_from(PROGRAMS))
    program, golden = _golden(name)
    watchdog = injection_watchdog(golden)
    start = draw(st.integers(0, golden.cycles - 1))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    stall = draw(st.integers(1, MAX_STALL))
    cuts = draw(st.lists(
        st.one_of(st.integers(start, start + stall + 2),
                  st.integers(start, watchdog)),
        min_size=1, max_size=12))

    core = InOrderCore()
    core.reset(program)
    core._advance(start)
    sites = [index for index in range(core.flip_flop_count)
             if core.registry.site(index).structure.architectural]
    core.latches.flip_flat(rng.choice(sites))
    core.schedule_recovery(stall)
    return program, core.snapshot(), watchdog, sorted(cuts)


@given(_scenarios())
@settings(max_examples=30, deadline=None)
def test_segment_boundaries_do_not_change_the_run(scenario):
    program, snapshot, watchdog, cuts = scenario
    core = InOrderCore()

    # At the drawn cut points, one _advance call per segment.
    core.restore(program, snapshot)
    segmented = []
    for cut in cuts:
        core._advance(cut)
        assert core.cycle == cut or core.terminated
        segmented.append(_state(core))
    segmented_result = core._run_loop(watchdog)
    segmented_end = _state(core)

    # One cycle per call, observed at the same cuts.
    core.restore(program, snapshot)
    stepped = []
    for cut in cuts:
        while core.cycle < cut and core.step():
            pass
        stepped.append(_state(core))
    while core.cycle < watchdog and core.step():
        pass
    stepped_result = core._run_loop(watchdog)
    assert stepped == segmented
    assert stepped_result == segmented_result
    assert _state(core) == segmented_end

    # A single segment to the end.
    core.restore(program, snapshot)
    assert core._run_loop(watchdog) == segmented_result
    assert _state(core) == segmented_end
