"""Pinned out-of-order pipeline behaviour, cycle by cycle.

Outcome tallies can stay equal while the pipeline's per-cycle state drifts
(a stage reordered, a queue field written one cycle late, a scan that
reads one more entry).  These pins hold any rewrite of
:class:`OutOfOrderCore`'s cycle to the exact state it produced when they
were recorded:

* the golden ``(cycles, instructions_retired, output)`` of every
  out-of-order suite program;
* a digest of every cycle's latch values, registers, output length and
  micro-architectural fingerprint (memory, in-flight ops, fetch stall)
  over the first :data:`CYCLES` cycles of mcf and vpr, uninjected and with
  seeded flips into fields of the ROB, issue queue, store queue, rename
  map, rename checkpoints and fetch buffer, and into the queue pointers;
* a digest of the golden-run dead-cycle masks
  (:func:`~repro.engine.liveness.record_dead_cycles`) of every suite
  program, which record the kind of each latch's first access in every
  cycle.

A pin changes only with a deliberate change of the model's behaviour.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.engine.liveness import record_dead_cycles
from repro.microarch import OutOfOrderCore
from repro.workloads import workload_by_name
from repro.workloads.suite import suite_for_core

CYCLES = 400
"""Cycles each per-cycle digest covers."""

FLIPS_PER_LATCH = 4
FLIP_WINDOW = 300
"""Seeded flips land in the first ``FLIP_WINDOW`` cycles."""

FLIPPED_LATCHES = (
    "rob.head", "rob.tail", "fb.tail", "stq.head", "iq.e02.s1tag",
    "ckpt.c0.map", "rob.e03.ready", "rob.e01.result", "iq.e00.valid",
    "iq.e01.s2val", "stq.e0.addr", "rat.r08.rob", "fb.e1.inst",
)

SUITE = [workload.name for workload in suite_for_core(OutOfOrderCore())]

GOLDEN = {
    # name: (cycles, instructions_retired, sha256 of the output, 16 hex)
    "bzip2": (826, 874, "609cf9559e9f9f69"),
    "crafty": (338, 435, "60a18aeb36fb1929"),
    "gzip": (6088, 6861, "5b1647a0f0f41a9a"),
    "mcf": (2509, 2458, "8ab4e9c1e69dc2b9"),
    "parser": (674, 598, "f32c24319dfe6810"),
    "gcc": (880, 1041, "52a465c510c5e69c"),
    "vortex": (934, 843, "9bd5ef172cfe02cc"),
    "vpr": (305, 346, "4e544a1d3fca670f"),
    "2d_convolution": (9321, 10741, "b2f8257323465b22"),
    "debayer_filter": (478, 689, "eeb9b6a3d433dcf7"),
    "inner_product": (994, 1241, "744136e7ee088fb3"),
}

PER_CYCLE = {
    # (program, flipped latch or None): per-cycle digest
    ("mcf", None): "029e31eeb96a65e9",
    ("mcf", "rob.head"): "a9ecb65b536ef24a",
    ("mcf", "rob.tail"): "08ad9ebfc9c2d8c8",
    ("mcf", "fb.tail"): "d49e59b84f7d6645",
    ("mcf", "stq.head"): "eaa88b85673a70bd",
    ("mcf", "iq.e02.s1tag"): "867817ec21b9fbe4",
    ("mcf", "ckpt.c0.map"): "629ff96426687691",
    ("mcf", "rob.e03.ready"): "40c77bc85b2d1308",
    ("mcf", "rob.e01.result"): "015975d01d46fe92",
    ("mcf", "iq.e00.valid"): "1eb0e741656439e2",
    ("mcf", "iq.e01.s2val"): "340a26e8ee37f9f5",
    ("mcf", "stq.e0.addr"): "c64386854330d75b",
    ("mcf", "rat.r08.rob"): "84207b8930b87586",
    ("mcf", "fb.e1.inst"): "d2fda9181f39698d",
    ("vpr", None): "aecbeb93b1723a9f",
    ("vpr", "rob.head"): "9e64fc15885987fd",
    ("vpr", "rob.tail"): "c0453c1025904fec",
    ("vpr", "fb.tail"): "60d81e6129dddebc",
    ("vpr", "stq.head"): "7fbce08159775ad0",
    ("vpr", "iq.e02.s1tag"): "f75c2cfb084ba6f9",
    ("vpr", "ckpt.c0.map"): "432f67e146a5aae4",
    ("vpr", "rob.e03.ready"): "fd14ffaae8fac896",
    ("vpr", "rob.e01.result"): "ebbc8861fdc075c4",
    ("vpr", "iq.e00.valid"): "6f9bef255a8ee765",
    ("vpr", "iq.e01.s2val"): "c219909aa5533a6e",
    ("vpr", "stq.e0.addr"): "7cad3a1008346c86",
    ("vpr", "rat.r08.rob"): "6b6fa0d8062ea0c3",
    ("vpr", "fb.e1.inst"): "1df64b6cc5b2738c",
}

DEAD_CYCLES = {
    # program: digest of its out-of-order dead-cycle masks
    "bzip2": "edf86dab2371f82b",
    "crafty": "9a17e5dc37b7906f",
    "gzip": "882f2aafb1d09fe7",
    "mcf": "7c6a05fcfa21fd6c",
    "parser": "ea52435877d5a8fc",
    "gcc": "c9455107ff0bf003",
    "vortex": "b952e48c0ed0c6ad",
    "vpr": "a14342499c38c196",
    "2d_convolution": "5064a24118568268",
    "debayer_filter": "e19044562f5d2a6b",
    "inner_product": "149985010a3261a1",
}


def _digest(payload) -> str:
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


def _flips(core: OutOfOrderCore, latch: str) -> dict[int, list[int]]:
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
    core = OutOfOrderCore()
    program = workload_by_name(program_name).program()
    flips = {} if latch is None else _flips(core, latch)
    hasher = hashlib.sha256()

    def hook(hooked: OutOfOrderCore, cycle: int) -> None:
        for bit in flips.get(cycle, ()):
            hooked.latches.flip_bit(latch, bit)
        hasher.update(repr((hooked.latches.serialize(), hooked.registers,
                            len(hooked.output),
                            hooked._fingerprint_microarchitecture())).encode())

    result = core.run(program, max_cycles=CYCLES, cycle_hook=hook)
    hasher.update(repr((result.reason, result.trap, result.cycles,
                        result.instructions_retired, result.output)).encode())
    return hasher.hexdigest()[:16]


def golden_pin(program) -> tuple[int, int, str]:
    result = OutOfOrderCore().run(program)
    return (result.cycles, result.instructions_retired,
            _digest(result.output))


def dead_cycles_digest(program_name: str) -> str:
    program = workload_by_name(program_name).program()
    golden = OutOfOrderCore().run(program)
    return _digest(record_dead_cycles(OutOfOrderCore(), program, golden))


@pytest.mark.parametrize("name", SUITE)
def test_golden_run_is_pinned(name):
    program = workload_by_name(name).program()
    assert golden_pin(program) == GOLDEN[name]


@pytest.mark.parametrize("program_name", ["mcf", "vpr"])
@pytest.mark.parametrize("latch", (None,) + FLIPPED_LATCHES)
def test_per_cycle_state_is_pinned(program_name, latch):
    assert per_cycle_digest(program_name, latch) == PER_CYCLE[
        program_name, latch]


@pytest.mark.parametrize("name", SUITE)
def test_dead_cycle_masks_are_pinned(name):
    assert dead_cycles_digest(name) == DEAD_CYCLES[name]
