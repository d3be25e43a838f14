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
on one fresh core in suite order, as ``run_suite_campaign`` records it: a
reset in-order core keeps its previous run's redirect target, which its
early fingerprints hash, so a program's pins depend on what the core ran
before.  A pin changes only with a deliberate change of the model or of
the recorder.
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
        "crafty": (20, 166, "3653c79eee09722c"),
        "gzip": (41, 662, "9209485feecada67"),
        "mcf": (28, 463, "4b6126fe88a03bf7"),
        "parser": (28, 229, "022b8c232b91a40a"),
        "gcc": (47, 379, "f483844c7349cfe9"),
        "gap": (39, 637, "892b9b80bde71033"),
        "vortex": (41, 333, "0a7dc2599ec0ff17"),
        "twolf": (40, 650, "0293bce22b3f7071"),
        "perlbmk": (31, 503, "51da721c789d0272"),
        "vpr": (16, 132, "bc52b59dda2c7696"),
        "2d_convolution": (34, 558, "1213e6099677213c"),
        "debayer_filter": (34, 277, "f0445306d5058e2e"),
        "inner_product": (30, 488, "17dec5a17785011c"),
        "fft": (16, 128, "a0c29dd5df50efef"),
        "histogram": (42, 342, "a8f3e1e99c78b7ba"),
        "outer_product": (24, 196, "7010d0ca52f38c52"),
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
        "crafty": (5, 41, "161dc3d90491396e"),
        "gzip": (82, 662, "5fd55d6defe9bb11"),
        "mcf": (28, 231, "430c7012166083bd"),
        "parser": (7, 57, "35d6875ea3db46d6"),
        "gcc": (11, 94, "4f53483ccd7e8ce7"),
        "gap": (19, 159, "b4465b0913fe49eb"),
        "vortex": (10, 83, "6567c4e4bcfbbe3f"),
        "twolf": (40, 325, "98de6ccdc263d877"),
        "perlbmk": (15, 125, "239f0e495e76fd78"),
        "vpr": (4, 33, "f3bc6205cf98a20c"),
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
