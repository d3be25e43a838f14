"""Segmented lockstep stepping equals per-cycle stepping, record by record.

Between events the wavefront runs its lane core in one segment while the
core is quiet (``_StreamingWavefront._quiet``), without the execute
pre-pass.  ``_PerCycleWavefront`` below is never quiet, so every cycle
takes the pre-pass path, as every cycle did before segments.  Both sweep
the same plans; every finished record must agree -- outcome, injected
result, lockstep, tandem and scalar cycles, ``converged_at`` -- and so
must the sweeps' shared cycles.  Outcome counts and per-site tallies are
functions of those records.

``store_reload`` is an OUT-heavy program that reloads every value it
stores, and its plan aims at ``m.storeval``, the operand latches and
``x.outval``: a live store of a column, a stale ``m.storeval`` column and
``x.outval``/``w.outval`` columns all ride along there.  A quiet check that
ignored registers, memory or the live store would let a column reach an
execute operand inside a segment, which the lane core refuses loudly.

An idle wavefront -- no lane seated, no tandem live -- restores the golden
snapshot nearest its next admission instead of stepping the golden run up
to it.  ``_NeverTeleportingWavefront`` keeps stepping, and must finish the
same records; a spy on ``_LaneCore._advance`` checks that no idle stretch
starts before such a snapshot, however the wavefront emptied.
"""

from __future__ import annotations

import bisect

import numpy as np
import pytest

from repro.engine import EngineConfig, GoldenRunCache, InjectionEngine
from repro.engine.batch import (_CorePool, _LaneCore, _LaneRecord,
                                _StreamingWavefront)
from repro.faultinjection.injector import Injection, uniform_injection_plan
from repro.isa import assemble
from repro.microarch import InOrderCore
from repro.microarch.inorder import E_RS1VAL, E_TRAP, E_VALID
from repro.workloads import workload_by_name

WIDTH = 8

STORE_RELOAD = """
        li s0, 0
        li s1, 24
        la a0, buf
    loop:
        add t0, s0, s0
        sw t0, 0(a0)
        lw t1, 0(a0)
        out t1
        addi t2, t1, 3
        out t2
        sb t2, 4(a0)
        lb t3, 4(a0)
        add t4, t3, t1
        out t4
        addi s0, s0, 1
        blt s0, s1, loop
        halt
        .data
    buf:
        .word 0, 0
"""


class _PerCycleWavefront(_StreamingWavefront):
    """A wavefront that is never quiet: every cycle runs the pre-pass."""

    def _quiet(self) -> bool:
        return False


class _NeverTeleportingWavefront(_StreamingWavefront):
    """A wavefront that re-runs the golden run over every idle gap: after
    the snapshot it starts from, it is offered no snapshot ahead of it."""

    _start = None

    def _base_at(self, cycle: int):
        if self._start is None:
            self._start = super()._base_at(cycle)
        return self._start


def _store_reload_plan(core: InOrderCore, golden_cycles: int
                       ) -> list[Injection]:
    registry = core.registry
    sites = [registry.structure(name).first_index + bit
             for name in ("m.storeval", "e.rs1val", "e.rs2val", "x.outval")
             for bit in (0, 3)]
    return [Injection(flat_index=site, cycle=cycle)
            for cycle in range(1, golden_cycles, 3) for site in sites]


def _program(name: str):
    if name == "store_reload":
        return assemble(STORE_RELOAD, name="store_reload")
    return workload_by_name(name).program()


def _sweep(wavefront_type, core, program, checkpointed, planned):
    """Every planned injection through successive sweeps, as a batched
    chunk runs them; returns (rows in plan order, shared, segmented)."""
    position = {id(entry): index for index, entry in enumerate(planned)}
    pending = sorted((_LaneRecord(planned=entry) for entry in planned),
                     key=lambda record: record.planned.injection.cycle)
    pool = _CorePool(core)
    rows = [None] * len(planned)
    shared = segmented = 0
    while pending:
        wavefront = wavefront_type(core, program, checkpointed, WIDTH, pool)
        finished, pending = wavefront.sweep(pending)
        shared += wavefront.shared_cycles
        segmented += wavefront.segmented_cycles
        for record in finished:
            replay = record.replay
            result = replay.result
            rows[position[id(record.planned)]] = (
                record.planned.injection, replay.outcome, result.reason,
                result.trap, result.cycles, tuple(result.output),
                record.lockstep_cycles, record.tandem_cycles,
                record.scalar_cycles, record.evicted, replay.converged_at,
                replay.resumed_from, replay.simulated_cycles)
        if not finished:
            break
    return rows, shared, segmented


def _campaign(program_name, seed, injections=160):
    """(core, program, checkpointed golden, planned injections) of a
    uniform batched plan, plus the store/reload plan on its program."""
    core = InOrderCore()
    program = _program(program_name)
    engine = InjectionEngine(core, program, seed=seed,
                             config=EngineConfig(batch_width=WIDTH),
                             golden_cache=GoldenRunCache())
    checkpointed = engine.golden()
    cycles = checkpointed.golden.cycles
    plan = uniform_injection_plan(core.flip_flop_count, cycles, injections,
                                  seed=seed)
    if program_name == "store_reload":
        plan += _store_reload_plan(core, cycles)
    return core, program, checkpointed, engine.resolve_plan(plan)


@pytest.mark.parametrize("program_name, seed", [
    ("mcf", 3), ("vpr", 11), ("gzip", 5), ("store_reload", 0)])
def test_segmented_sweep_matches_per_cycle_sweep(program_name, seed):
    core, program, checkpointed, planned = _campaign(program_name, seed)

    rows, shared, segmented = _sweep(_StreamingWavefront, core, program,
                                     checkpointed, planned)
    per_cycle_rows, per_cycle_shared, per_cycle_segmented = _sweep(
        _PerCycleWavefront, core, program, checkpointed, planned)

    assert None not in rows and None not in per_cycle_rows
    assert rows == per_cycle_rows
    assert shared == per_cycle_shared
    assert per_cycle_segmented == 0
    assert 0 < segmented < shared


@pytest.mark.parametrize("program_name, seed, injections", [
    ("mcf", 3, 40), ("mcf", 8, 160), ("vpr", 11, 16), ("gzip", 5, 160)])
def test_teleporting_sweep_matches_golden_rerun(program_name, seed,
                                                injections):
    """Restoring a golden snapshot over an idle gap changes no record,
    only the reference lane's shared cycles."""
    core, program, checkpointed, planned = _campaign(program_name, seed,
                                                     injections)

    rows, shared, _ = _sweep(_StreamingWavefront, core, program,
                             checkpointed, planned)
    rerun_rows, rerun_shared, _ = _sweep(_NeverTeleportingWavefront, core,
                                         program, checkpointed, planned)

    assert None not in rows and None not in rerun_rows
    assert rows == rerun_rows
    assert shared < rerun_shared


@pytest.mark.parametrize("program_name, seed", [
    ("mcf", 3), ("mcf", 8), ("vpr", 11), ("gzip", 5)])
def test_idle_stretches_pass_no_golden_snapshot(program_name, seed,
                                                monkeypatch):
    """Every lane-core stretch stepped with no lane seated and no tandem
    live starts at or after the golden snapshot nearest the admission it
    steps towards: an idle wavefront restores that snapshot rather than
    re-run the golden run up to it, whether a retirement, a tandem's exit
    or a dead-on-arrival admission emptied it."""
    core, program, checkpointed, planned = _campaign(program_name, seed)
    sweeps = []  # (wavefront, its records' injection cycles), latest last
    idle = []
    advance = _LaneCore._advance

    def spy(lane_core, stop):
        wavefront, admissions = sweeps[-1]
        if not wavefront._occupied_count and not wavefront._tandems:
            start = lane_core.cycle
            later = admissions[bisect.bisect_right(admissions, start):]
            idle.append((start, stop, later[0] if later else None))
        return advance(lane_core, stop)

    class _Spied(_StreamingWavefront):
        def sweep(self, records):
            sweeps.append((self, [record.planned.injection.cycle
                                  for record in records]))
            return super().sweep(records)

    monkeypatch.setattr(_LaneCore, "_advance", spy)
    rows, _, _ = _sweep(_Spied, core, program, checkpointed, planned)

    assert None not in rows
    assert idle, "the plan leaves no idle stretch to check"
    for start, stop, admission in idle:
        assert admission is not None, f"idle stretch {start}->{stop}"
        assert stop <= admission
        nearest = checkpointed.nearest(admission)
        assert nearest is None or nearest.cycle <= start, (
            f"idle stretch {start}->{stop} re-runs the golden run past the "
            f"snapshot at {nearest.cycle} (next admission {admission})")


def test_lane_core_refuses_a_column_operand_without_a_prepass():
    core = InOrderCore()
    program = workload_by_name("vpr").program()
    core.reset(program)
    values = core.latches.values
    while not values[E_VALID] or values[E_TRAP]:
        core.step()  # until the execute stage holds an instruction
    lanes = _LaneCore(core.name, 4)
    lanes.restore(program, core.snapshot())
    values = lanes.latches.values
    column = np.full(4, values[E_RS1VAL], dtype=np.int64)
    column[2] ^= 1
    values[E_RS1VAL] = column
    cycle = lanes.cycle
    with pytest.raises(RuntimeError, match=rf"at pc 0x[0-9a-f]+ .*"
                                           rf"cycle {cycle}\b"):
        lanes.step()
