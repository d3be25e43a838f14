"""Pinned in-order pipeline behaviour, cycle by cycle.

Outcome tallies can stay equal while the pipeline's per-cycle state drifts
(a stage reordered, a latch written one cycle late).  These pins hold any
rewrite of :class:`InOrderCore`'s cycle to the exact state it produced when
they were recorded:

* the golden ``(cycles, instructions_retired, output)`` of every in-order
  suite program;
* a digest of every cycle's latch values, registers and output length over
  the first :data:`CYCLES` cycles of vpr and fft, uninjected and with
  seeded flips into one latch of each pipeline register;
* a digest of the golden-run dead-cycle masks
  (:func:`~repro.engine.liveness.record_dead_cycles`), which record the
  kind of each latch's first access in every cycle.

A pin changes only with a deliberate change of the model's behaviour.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.engine.liveness import record_dead_cycles
from repro.microarch import InOrderCore
from repro.workloads import workload_by_name
from repro.workloads.suite import suite_for_core

CYCLES = 400
"""Cycles each per-cycle digest covers."""

FLIPS_PER_LATCH = 4
FLIP_WINDOW = 300
"""Seeded flips land in the first ``FLIP_WINDOW`` cycles."""

FLIPPED_LATCHES = ("d.inst", "a.op", "e.rs1val", "m.storeval", "x.outval",
                   "w.trapkind")

GOLDEN = {
    # name: (cycles, instructions_retired, sha256 of the output, 16 hex)
    "bzip2": (2617, 874, "609cf9559e9f9f69"),
    "crafty": (1332, 435, "60a18aeb36fb1929"),
    "gzip": (21195, 6861, "5b1647a0f0f41a9a"),
    "mcf": (7416, 2458, "8ab4e9c1e69dc2b9"),
    "parser": (1834, 598, "f32c24319dfe6810"),
    "gcc": (3039, 1041, "52a465c510c5e69c"),
    "gap": (5103, 1821, "a07b5efd75e5d886"),
    "vortex": (2670, 843, "9bd5ef172cfe02cc"),
    "twolf": (10406, 3551, "9fa32cb4d0462939"),
    "perlbmk": (4031, 1361, "04f00b3935e9d5cf"),
    "vpr": (1063, 346, "4e544a1d3fca670f"),
    "2d_convolution": (35761, 10741, "b2f8257323465b22"),
    "debayer_filter": (2219, 689, "eeb9b6a3d433dcf7"),
    "inner_product": (3911, 1241, "744136e7ee088fb3"),
    "fft": (1029, 339, "36e91f2885a4d380"),
    "histogram": (2737, 928, "b4f4208148ee0d74"),
    "outer_product": (1573, 547, "de354afb6a6162cc"),
    "sort": (7215, 2451, "c7d684af6a577a67"),
}

PER_CYCLE = {
    # (program, flipped latch or None): per-cycle digest
    ("vpr", None): "b1474a393d1d95d6",
    ("vpr", "d.inst"): "c96ac08dad815ecb",
    ("vpr", "a.op"): "55d403b378245d49",
    ("vpr", "e.rs1val"): "a89e0dcf7c7851e0",
    ("vpr", "m.storeval"): "4ab47c9780f81aa2",
    ("vpr", "x.outval"): "fcfe37112b651989",
    ("vpr", "w.trapkind"): "5d6a873a78fff272",
    ("fft", None): "b97a4ceffe2786ae",
    ("fft", "d.inst"): "5cb7dd8c8d8a3b44",
    ("fft", "a.op"): "5fce586d622a2211",
    ("fft", "e.rs1val"): "9e15304e6696ab8a",
    ("fft", "m.storeval"): "a5bdfd2cbcd4eea4",
    ("fft", "x.outval"): "d08ebca410b68d24",
    ("fft", "w.trapkind"): "f2c08d5bd43ea248",
}

DEAD_CYCLES = {
    # program: digest of its in-order dead-cycle masks
    "vpr": "c5f18967421de51e",
    "crafty": "147afa250d943c24",
}


def _digest(payload) -> str:
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


def _flips(core: InOrderCore, latch: str) -> dict[int, list[int]]:
    """``cycle -> bits`` of :data:`FLIPS_PER_LATCH` seeded flips."""
    rng = random.Random(FLIPPED_LATCHES.index(latch))
    width = core.registry.structure(latch).width
    flips: dict[int, list[int]] = {}
    for _ in range(FLIPS_PER_LATCH):
        flips.setdefault(rng.randrange(FLIP_WINDOW), []).append(
            rng.randrange(width))
    return flips


def per_cycle_digest(program_name: str, latch: str | None) -> str:
    """Digest of the start-of-cycle state of every cycle of a
    :data:`CYCLES`-cycle run, with ``latch``'s seeded flips applied."""
    core = InOrderCore()
    program = workload_by_name(program_name).program()
    flips = {} if latch is None else _flips(core, latch)
    hasher = hashlib.sha256()

    def hook(hooked: InOrderCore, cycle: int) -> None:
        for bit in flips.get(cycle, ()):
            hooked.latches.flip_bit(latch, bit)
        hasher.update(repr((hooked.latches.serialize(), hooked.registers,
                            len(hooked.output))).encode())

    result = core.run(program, max_cycles=CYCLES, cycle_hook=hook)
    hasher.update(repr((result.reason, result.trap, result.cycles,
                        result.instructions_retired, result.output)).encode())
    return hasher.hexdigest()[:16]


def golden_pin(program) -> tuple[int, int, str]:
    result = InOrderCore().run(program)
    return (result.cycles, result.instructions_retired,
            _digest(result.output))


def dead_cycles_digest(program_name: str) -> str:
    program = workload_by_name(program_name).program()
    golden = InOrderCore().run(program)
    return _digest(record_dead_cycles(InOrderCore(), program, golden))


@pytest.mark.parametrize(
    "workload", suite_for_core(InOrderCore()), ids=lambda w: w.name)
def test_golden_run_is_pinned(workload):
    assert golden_pin(workload.program()) == GOLDEN[workload.name]


@pytest.mark.parametrize("program_name", ["vpr", "fft"])
@pytest.mark.parametrize("latch", (None,) + FLIPPED_LATCHES)
def test_per_cycle_state_is_pinned(program_name, latch):
    assert per_cycle_digest(program_name, latch) == PER_CYCLE[
        program_name, latch]


@pytest.mark.parametrize("program_name", ["vpr", "crafty"])
def test_dead_cycle_masks_are_pinned(program_name):
    assert dead_cycles_digest(program_name) == DEAD_CYCLES[program_name]
