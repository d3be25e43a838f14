"""Shared fixtures for the benchmark harness.

Each ``bench_*.py`` file regenerates one or more of the paper's tables or
figures, or measures this reproduction's own engine (EXPERIMENTS.md indexes
every target and what it reports).  All benchmarks run one round so the
harness completes in minutes; they print the regenerated table to stdout
(run pytest with ``-s`` to see them).  The framework fixtures below are
seeded with 2016, so every regenerated table is deterministic.
"""

from __future__ import annotations

import pytest

from repro.core import ClearFramework


@pytest.fixture(scope="session")
def ino_fw() -> ClearFramework:
    return ClearFramework.for_inorder_core(seed=2016)


@pytest.fixture(scope="session")
def ooo_fw() -> ClearFramework:
    return ClearFramework.for_out_of_order_core(seed=2016)


@pytest.fixture(scope="session")
def frameworks(ino_fw, ooo_fw):
    return {"InO": ino_fw, "OoO": ooo_fw}
