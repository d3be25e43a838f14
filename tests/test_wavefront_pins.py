"""Pinned lockstep wavefront behaviour on batched in-order campaigns.

Outcome tallies stay equal to scalar replay whatever the wavefront does
with its lanes, so ``tests/test_engine.py::TestBatchedReplay`` cannot see
a wavefront that demotes a lane a cycle early, rejoins it late or retires
it at another grid cycle.  The phase counters can: lockstep cycles count
every cycle a lane spent seated, evictions every tandem that finished on
the scalar path, convergences and saved cycles every grid retirement.
These pins hold any rewrite of :mod:`repro.engine.batch` to the lanes it
demoted, rejoined and retired when they were recorded.

A pin changes only with a deliberate change of the wavefront's behaviour.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.engine import EngineConfig, GoldenRunCache, InjectionEngine
from repro.microarch import InOrderCore
from repro.workloads import workload_by_name

INJECTIONS = 320

PINS = {
    # (program, seed): (outcome counts, per-site digest, replayed_cycles,
    #                   lockstep_cycles, evicted_count, converged_count,
    #                   saved_cycles)
    ("mcf", 3): ({"vanished": 285, "output_mismatch": 6,
                  "unexpected_termination": 29, "hang": 0,
                  "error_detected": 0},
                 "3a2fc0ef7805bef0", 73824, 13406, 42, 59, 205176),
    ("mcf", 8): ({"vanished": 296, "output_mismatch": 6,
                  "unexpected_termination": 18, "hang": 0,
                  "error_detected": 0},
                 "58a1fbe5f32c0c67", 104559, 2481, 41, 69, 273448),
    ("vpr", 11): ({"vanished": 275, "output_mismatch": 15,
                   "unexpected_termination": 30, "hang": 0,
                   "error_detected": 0},
                  "95894d8e963940e4", 10368, 1836, 43, 49, 26399),
    ("vpr", 5): ({"vanished": 270, "output_mismatch": 31,
                  "unexpected_termination": 19, "hang": 0,
                  "error_detected": 0},
                 "7c9a4421954b420b", 16574, 6101, 40, 59, 28789),
}


def per_site_digest(per_site) -> str:
    payload = sorted((flat, counts.as_dict())
                     for flat, counts in per_site.items())
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


@pytest.mark.parametrize("program_name, seed", sorted(PINS))
def test_batched_campaign_counters_are_pinned(program_name, seed):
    result = InjectionEngine(
        InOrderCore(), workload_by_name(program_name).program(), seed=seed,
        config=EngineConfig(batch_width=16),
        golden_cache=GoldenRunCache()).run(injections=INJECTIONS)
    assert (result.outcomes.as_dict(), per_site_digest(result.per_site),
            result.replayed_cycles, result.lockstep_cycles,
            result.evicted_count, result.converged_count,
            result.saved_cycles) == PINS[program_name, seed]
