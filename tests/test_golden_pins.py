"""Pinned golden recording: snapshot and fingerprint grids, per program.

Every injected replay restores a golden snapshot and probes the golden
fingerprint grid, so a recorder that captured one cycle late, dropped a
point while thinning its adaptive grid or stopped one cycle early would
shift every replay's start and every convergence point.  These pins hold
:func:`~repro.engine.checkpoint.record_checkpointed_golden` to the grids it
recorded when they were taken, for every in-order and out-of-order suite
program:

* with the adaptive default (snapshot and fingerprint budgets, doubling);
* with one fixed ``interval`` / ``fingerprint_interval``;
* on a golden run its watchdog cuts short (HANG).

Each pin is ``(snapshots, fingerprints, digest)``; the digest covers the
golden cycle count, both final intervals, every snapshot's cycle and latch
values and every fingerprint's cycle and digest.  Each suite is recorded
on one core in suite order, as ``run_suite_campaign`` records it; reset
leaves nothing of the previous run behind
(``test_recording_is_history_independent``), so a program's pins are the
same on a fresh core.  A pin changes only with a deliberate change of the
model or of the recorder.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.engine.checkpoint import record_checkpointed_golden
from repro.microarch import InOrderCore, OutOfOrderCore
from repro.microarch.events import TerminationReason
from repro.workloads import workload_by_name
from repro.workloads.suite import suite_for_core

FIXED = {"interval": 256, "fingerprint_interval": 32}
"""The fixed-grid recording configuration pinned next to the default."""

HUNG_MAX_CYCLES = 300
"""Watchdog that cuts vpr's golden run short on both cores."""

ADAPTIVE = {
    InOrderCore: {
        "bzip2": (40, 327, "66ee959428389f10"),
        "crafty": (20, 166, "cc8c1770db7cf608"),
        "gzip": (41, 662, "b480159424f631c6"),
        "mcf": (28, 463, "b9af83c3b0889472"),
        "parser": (28, 229, "24d0f262cbad0499"),
        "gcc": (47, 379, "630d59463b1f11d9"),
        "gap": (39, 637, "6c6f90b8df3cec64"),
        "vortex": (41, 333, "47a4fcdf4215e318"),
        "twolf": (40, 650, "0293bce22b3f7071"),
        "perlbmk": (31, 503, "dca21b700f9492d4"),
        "vpr": (16, 132, "54c6916a20ffe073"),
        "2d_convolution": (34, 558, "1213e6099677213c"),
        "debayer_filter": (34, 277, "9d66c6289bd9a3d0"),
        "inner_product": (30, 488, "1fb5aa74a2aef123"),
        "fft": (16, 128, "e653dacf05163425"),
        "histogram": (42, 342, "9a808ffe9968a0e7"),
        "outer_product": (24, 196, "9fad97e2074f8120"),
        "sort": (28, 450, "ca968fa030064281"),
    },
    OutOfOrderCore: {
        "bzip2": (12, 103, "66c3fcbdbc5612ff"),
        "crafty": (5, 42, "9273c6c4047cbc01"),
        "gzip": (47, 760, "4de32f450fd4edc6"),
        "mcf": (39, 313, "d3cf0e894b0d71d3"),
        "parser": (10, 84, "e3a96fa18ce34c68"),
        "gcc": (13, 109, "fc838f1a5b92c0cc"),
        "vortex": (14, 116, "ddc1ff2537cebb02"),
        "vpr": (4, 38, "e39e5551d19a0083"),
        "2d_convolution": (36, 582, "9c48a34fe46ce2e0"),
        "debayer_filter": (7, 59, "395af5b46a3be292"),
        "inner_product": (15, 124, "43272f25921ef3f5"),
    },
}

FIXED_GRID = {
    InOrderCore: {
        "bzip2": (10, 81, "dd16913fdfb9704e"),
        "crafty": (5, 41, "ad0e367b249182fa"),
        "gzip": (82, 662, "ed6599bccfb64cd9"),
        "mcf": (28, 231, "90c7dc905e8cd537"),
        "parser": (7, 57, "058dd00177a28e17"),
        "gcc": (11, 94, "6153c55da1adc9fd"),
        "gap": (19, 159, "eb3634d72a76cf09"),
        "vortex": (10, 83, "f837187c69c3b0e8"),
        "twolf": (40, 325, "98de6ccdc263d877"),
        "perlbmk": (15, 125, "b0d0c0ab9104891e"),
        "vpr": (4, 33, "2bfa590f07398d05"),
        "2d_convolution": (139, 1117, "5242dec6e82cfa70"),
        "debayer_filter": (8, 69, "33c7f69e7db6b092"),
        "inner_product": (15, 122, "f2947e55e43f1479"),
        "fft": (4, 32, "7f1235b4be6ebe58"),
        "histogram": (10, 85, "588cdde3820e043e"),
        "outer_product": (6, 49, "b9109a664e72f665"),
        "sort": (28, 225, "1cf8f66cf4c581b8"),
    },
    OutOfOrderCore: {
        "bzip2": (3, 25, "ac9e9d570bf97030"),
        "crafty": (1, 10, "1aa10ea5e8ef7e8a"),
        "gzip": (23, 190, "60a390a10b6669f6"),
        "mcf": (9, 78, "3cc22ca79324a665"),
        "parser": (2, 21, "c4b0422885619ebb"),
        "gcc": (3, 27, "1023833c8426f32d"),
        "vortex": (3, 29, "4ae220f6ba38b249"),
        "vpr": (1, 9, "0872d035840aec12"),
        "2d_convolution": (36, 291, "f9c8042d67d0f00e"),
        "debayer_filter": (1, 14, "7a592f301707793c"),
        "inner_product": (3, 31, "b3e81e424e9502b0"),
    },
}

HUNG = {
    InOrderCore: (4, 37, "577565b36ed2d35b"),
    OutOfOrderCore: (4, 37, "324a2405c33eeb13"),
}

CORE_CLASSES = (InOrderCore, OutOfOrderCore)


def _pin(recorded) -> tuple[int, int, str]:
    digest = hashlib.sha256()
    digest.update(repr((recorded.golden.cycles, recorded.interval,
                        recorded.fingerprint_interval)).encode())
    for snapshot in recorded.snapshots:
        digest.update(repr((snapshot.cycle, snapshot.latches)).encode())
    for cycle, fingerprint in recorded.fingerprints.items():
        digest.update(repr((cycle, fingerprint.hex())).encode())
    return (len(recorded.snapshots), len(recorded.fingerprints),
            digest.hexdigest()[:16])


def _record_suite(core_cls, **config) -> dict[str, tuple[int, int, str]]:
    core = core_cls()
    return {workload.name: _pin(record_checkpointed_golden(
                core, workload.program(), **config))
            for workload in suite_for_core(core)}


@pytest.mark.parametrize("core_cls", CORE_CLASSES, ids=lambda c: c.__name__)
def test_adaptive_grids_are_pinned(core_cls):
    assert _record_suite(core_cls) == ADAPTIVE[core_cls]


@pytest.mark.parametrize("core_cls", CORE_CLASSES, ids=lambda c: c.__name__)
def test_fixed_grids_are_pinned(core_cls):
    assert _record_suite(core_cls, **FIXED) == FIXED_GRID[core_cls]


@pytest.mark.parametrize("core_cls", CORE_CLASSES, ids=lambda c: c.__name__)
def test_hung_golden_grid_is_pinned(core_cls):
    recorded = record_checkpointed_golden(
        core_cls(), workload_by_name("vpr").program(),
        max_cycles=HUNG_MAX_CYCLES)
    assert recorded.golden.reason is TerminationReason.HANG
    assert recorded.golden.cycles == HUNG_MAX_CYCLES
    assert _pin(recorded) == HUNG[core_cls]


@pytest.mark.parametrize("core_cls", CORE_CLASSES, ids=lambda c: c.__name__)
def test_recording_is_history_independent(core_cls):
    """A core that ran another suite program first records every suite
    golden exactly as a fresh core does: reset leaves nothing of the
    previous run in the state the grids hash."""
    programs = [workload.program()
                for workload in suite_for_core(core_cls())]
    used = core_cls()
    used.run(programs[-1])
    for program in programs:  # each recording follows another program's run
        fresh = record_checkpointed_golden(core_cls(), program)
        reused = record_checkpointed_golden(used, program)
        assert reused.golden == fresh.golden, program.name
        assert reused.fingerprints == fresh.fingerprints, program.name
        assert reused.snapshots == fresh.snapshots, program.name
