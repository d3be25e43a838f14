"""Batched lockstep replay: streaming vectorised injection wavefronts.

The scalar replay path costs ~20 microseconds of Python dispatch per
simulated cycle, and the process-pool executor cannot help because the cost
sits *inside* one replay, not across them.  This module attacks the
per-cycle cost directly: injected replays of the same golden run advance
together as one struct-of-arrays *wavefront*, so each interpreted pipeline
step pays its Python overhead once for the whole batch while per-lane data
moves are numpy column operations.

The key observation making lockstep exact rather than approximate: until an
injected bit flip propagates into control flow, an injected run executes the
*same instruction stream* as the golden run -- only operand/result *values*
differ.  The wavefront therefore splits the in-order core's flip-flop
structures into two planes:

* **control plane** -- pc/validity/opcode/destination/trap/address fields
  that decide *what the pipeline does*.  These are required to stay uniform
  across the wavefront and are stored once as plain scalars (lane 0, the
  uninjected reference lane, defines them; it reproduces the golden run
  bit-for-bit by construction).
* **lane plane** -- operand/result value latches plus every hint-only
  structure (branch predictor, status register, cache/IRQ bookkeeping).
  These live as ``(lanes,)`` numpy columns in a
  :class:`~repro.microarch.state.BatchedLatchState` and may diverge freely:
  they never feed control decisions, only register writes, stores and
  program output -- all of which are vectorised per lane.

One wavefront *streams* over the whole chunk: it sweeps the golden timeline
once, and each planned injection joins a free lane slot when the sweep
reaches its injection cycle (a joining lane is bit-identical to the
reference lane by construction).  Idle gaps with no occupied lanes teleport
forward via the golden snapshot grid.  A lane leaves the wavefront by:

* **Convergence retirement** (architectural): at the fingerprint-grid
  cadence, a lane whose architectural state -- value latches, registers,
  memory, emitted output -- is bit-identical to the reference lane is
  retired with a synthesized golden-copy result.  Hint-only structures
  (branch predictor, IRQ/cache counters, status shadow) are deliberately
  excluded from the check: the in-order core never reads them into
  behaviour, so architectural equality alone implies the remainder of the
  run emits golden output.  The scalar path classifies such runs VANISHED
  (by full replay or full-state convergence); retirement returns the same
  classification without the replay tail.
* **Divergence demotion to a tandem**: the moment a lane's control would
  differ from the reference -- a flip landing in a control-plane structure,
  a divergent branch decision/target, memory address, or execute-trap
  predicate -- the lane is extracted in its pristine start-of-cycle state
  and continues on a pooled scalar core *in tandem* with the wavefront.
  Control divergence is usually transient (a corrupted instruction drains
  within a few cycles); once the tandem's control plane re-equals the
  reference it **rejoins** the wavefront as a vectorised lane, carrying its
  divergent data values.  Tandems that terminate, or stay diverged past a
  bounded window, finish on the ordinary scalar path (with the convergence
  gate), exactly as a plain scalar replay of that injection would.

The wavefront stepper mirrors :meth:`InOrderCore._step_cycle` stage for
stage and is therefore specific to the in-order pipeline.  Other cores --
the out-of-order model in particular, whose dynamic scheduling makes
"uniform control" a far weaker invariant -- transparently fall back to the
scalar path: :func:`batched_replay_supported` is the seam, and a batched
campaign on an unsupported core is simply a scalar campaign.

Injections whose protection *detects* without suppression also take the
scalar path (they raise detection events / recovery stalls rather than flip
state), as do campaigns whose golden run hung, detected or recovered (the
scalar gate refuses those too).  Everything else batches, including
suppressed injections (no flip: the lane joins and retires at the first
eligible grid cycle, exactly like the scalar no-op replay converges).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.engine.checkpoint import CheckpointedGoldenRun
from repro.engine.executors import (
    ChunkResult,
    ChunkSpec,
    CampaignSpec,
    PlannedInjection,
    Replay,
    _ConvergedEarly,
    _convergence_hook,
    fold_scalar_replay,
    replay_planned_injection,
)
from repro.faultinjection.injector import injection_watchdog
from repro.faultinjection.outcomes import classify_outcome
from repro.isa.encoding import EncodingError, decode_instruction, encode_instruction
from repro.isa.instructions import LUI_SHIFT, Opcode, OPCODE_INFO
from repro.isa.program import Program, WORD_BYTES
from repro.microarch.core import BaseCore, CoreSnapshot
from repro.microarch.events import RunResult, TerminationReason, TrapKind
from repro.microarch.inorder import _TRAP_CODES, _TRAP_FROM_CODE, InOrderCore
from repro.microarch.memory import BatchedWordStore, MemoryFault
from repro.microarch.state import BatchedLatchState
from repro.obs import Instrumentation
from repro.obs.metrics import NULL_METRICS
from repro.obs.phases import (
    COUNT_CONVERGED,
    COUNT_EVICTED,
    COUNT_REPLAYS,
    CYCLES_FALLBACK,
    CYCLES_FASTFORWARD,
    CYCLES_LOCKSTEP,
    CYCLES_SAVED,
    CYCLES_TANDEM,
    CYCLES_WAVEFRONT_SHARED,
    HISTOGRAM_REPLAY_CYCLES,
    PHASE_FALLBACK,
    PHASE_LOCKSTEP,
    PHASE_SCALAR_REPLAY,
    PHASE_TANDEM,
    SPAN_CHUNK,
)
from repro.obs.trace import now_us

_WORD = 0xFFFFFFFF

_MIN_WAVEFRONT_LANES = 2
"""Smallest batchable population worth building a wavefront for."""

_TANDEM_WINDOW = 64
"""Cycles a control-diverged tandem may chase the wavefront before it is
evicted to a plain scalar finish.  Transient control corruption (a flipped
instruction word, operand, or address) drains from the 6-stage pipeline
within a handful of cycles; runs still diverged after this window have
genuinely forked control flow and rarely return."""

_BRANCH_OPCODES = frozenset((Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE,
                             Opcode.BLTU, Opcode.BGEU))

_DATA_COLUMNS = frozenset((
    "e.rs1val", "e.rs2val",      # operands read at regaccess
    "m.result", "m.storeval",    # ALU result / store payload
    "x.result", "x.outval",      # post-memory result / OUT payload
    "w.result", "w.outval",      # committing result / OUT payload
))
"""Architectural value latches that may differ per lane under uniform control."""

_DELTA_COLUMNS = ("irq.pending", "ic.ctrl.state", "dc.ctrl.state")
"""Hint counters the pipeline bumps by a lane-uniform increment.  The
wavefront stores them offset by a scalar running delta instead of touching
the columns every cycle; true values materialise only at lane extraction."""

# Enum __call__ and mapping-by-member lookups cost ~1us each and sit on the
# per-cycle path; these precomputed int-keyed tables replace them.
_OPCODE_BY_INT = {int(op): op for op in Opcode}
_INFO_BY_INT = {int(op): OPCODE_INFO[op] for op in Opcode}
_HALT_INT = int(Opcode.HALT)

_U1 = np.uint64(1)
_U2 = np.uint64(2)
_U3 = np.uint64(3)

_MISSING = object()


def batched_replay_supported(core: BaseCore) -> bool:
    """True when ``core`` has a lockstep wavefront stepper.

    The stepper mirrors the in-order pipeline exactly, so only the exact
    :class:`InOrderCore` type qualifies (a subclass may override stage
    behaviour the mirror would not reproduce).  Everything else -- the
    out-of-order core in particular -- replays on the scalar path.
    """
    return type(core) is InOrderCore


def _golden_batchable(golden: RunResult) -> bool:
    """Golden runs the wavefront can reproduce as its reference lane.

    Mirrors the scalar convergence gate's exclusions (a hung golden run's
    injected watchdog differs) plus detections/recovery, which the lockstep
    reference lane does not model -- such campaigns fall back to scalar.
    """
    return (golden.reason is not TerminationReason.HANG
            and not golden.detections
            and golden.recovery_cycles == 0
            and golden.cycles > 0)


@dataclass
class _LaneRecord:
    """Lifecycle bookkeeping for one planned injection in the wavefront.

    The three cycle tallies partition a finished record's simulated cycles
    by phase -- lockstep lanes, tandem co-stepping, scalar fallback -- so
    the chunk's phase counters reconcile exactly with ``simulated_cycles``
    (their sum).
    """

    planned: PlannedInjection
    slot: int = -1
    resumed_from: int = 0
    segment_start: int = 0
    lockstep_cycles: int = 0
    tandem_cycles: int = 0
    scalar_cycles: int = 0
    evicted: bool = False
    replay: Replay | None = None

    @property
    def simulated_cycles(self) -> int:
        return self.lockstep_cycles + self.tandem_cycles + self.scalar_cycles


class _Tandem:
    """A control-diverged replay co-stepping on a pooled scalar core."""

    __slots__ = ("core", "record", "deadline", "started")

    def __init__(self, core: BaseCore, record: _LaneRecord, deadline: int,
                 started: float = 0.0):
        self.core = core
        self.record = record
        self.deadline = deadline
        self.started = started


class _CorePool:
    """Reusable scalar cores for tandem co-simulation (one per live tandem)."""

    def __init__(self, template: BaseCore):
        self._template = template
        self._idle: list[BaseCore] = []

    def acquire(self) -> BaseCore:
        if self._idle:
            return self._idle.pop()
        return type(self._template)(name=self._template.name)

    def release(self, core: BaseCore) -> None:
        self._idle.append(core)


@dataclass
class _ExecOutcome:
    """Vectorised execute-stage result under uniform (reference) control.

    ``value``/``store_col``/``out_col`` may be per-lane arrays; everything
    control-bearing (``taken``, ``target``, ``mem_addr``, ``trap``) is a
    scalar -- lanes that would disagree with the reference lane were demoted
    to tandems during the pre-pass that computed this outcome.
    """

    illegal: bool = False
    value: object = 0
    taken: bool = False
    target: int = 0
    mem_addr: int | None = None
    store_col: object = None
    out_col: object = None
    trap: bool = False
    trapkind: int = 0
    is_branch: bool = False


class _StreamingWavefront:
    """One streaming lockstep sweep over a chunk's batchable injections.

    Lane 0 is the uninjected reference lane; slots ``1..width`` are recycled
    across injections as lanes join, retire, and demote.  Control-plane
    latches are kept as plain scalars in ``self._ctrl`` (the lockstep
    invariant makes them uniform); the matching columns of the latch matrix
    are *stale* and never read -- lane extraction recomposes full latch
    tuples from the scalar control plane plus the lane's data/hint columns.
    """

    def __init__(self, core: BaseCore, program: Program,
                 checkpointed: CheckpointedGoldenRun, convergence: bool,
                 width: int, pool: _CorePool,
                 obs: Instrumentation | None = None, schedule_plans=None):
        self._obs = Instrumentation.off() if obs is None else obs
        self._tracing = self._obs.tracer.enabled
        self._program = program
        self._checkpointed = checkpointed
        self._golden = checkpointed.golden
        self._core_name = core.name
        self._registry = core.registry
        self._pool = pool
        self._watchdog = injection_watchdog(self._golden)
        self.lanes = width + 1
        structures = self._registry.structures
        self._structures = structures
        self._is_lane_local = {
            s.name: (not s.architectural) or s.name in _DATA_COLUMNS
            for s in structures}
        self._cmask = {s.name: (1 << s.width) - 1 for s in structures
                       if not self._is_lane_local[s.name]}
        self._ctrl_positions = [
            (i, s.name) for i, s in enumerate(structures)
            if not self._is_lane_local[s.name]]
        self._lane_positions = [
            i for i, s in enumerate(structures) if self._is_lane_local[s.name]]
        self._data_columns = np.array(
            [i for i, s in enumerate(structures) if s.name in _DATA_COLUMNS],
            dtype=np.intp)
        index = {s.name: i for i, s in enumerate(structures)}
        self._delta_sites = {
            name: (index[name], (1 << structures[index[name]].width) - 1)
            for name in _DELTA_COLUMNS}
        self._fingerprints = checkpointed.fingerprints
        self._fp_interval = checkpointed.fingerprint_interval
        self._schedule_plans = schedule_plans or {}
        self._gate = (convergence and self._fp_interval > 0
                      and bool(self._fingerprints))
        self._convergence = convergence
        self._predictor_entries = np.uint64(core._predictor._entries)
        self._history_mask = np.uint64(
            (1 << structures[index["f.bp.history"]].width) - 1)
        self._fetch_cache: dict[int, int | None] = {}
        self._decode_cache: dict[int, tuple | None] = {}
        self.shared_cycles = 0
        self._tandems: list[_Tandem] = []
        self._base_snapshot: CoreSnapshot | None = None

    # ------------------------------------------------------------------ reference state
    def _load_reference(self, base: CoreSnapshot) -> None:
        """(Re)initialise the whole wavefront from one golden snapshot.

        Used for the initial base and for teleporting over idle gaps; legal
        only while no lane slot is occupied and no tandem is live.
        """
        if base.pending_recovery or base.detections or base.recovery_cycles:
            raise ValueError("wavefronts require a clean golden prefix")
        lanes = self.lanes
        self._ctrl = {name: base.latches[position]
                      for position, name in self._ctrl_positions}
        self._latches = BatchedLatchState.from_serialized(
            self._registry, base.latches, lanes)
        self._view = {name: self._latches.col(name) for name in (
            "e.rs1val", "e.rs2val", "m.result", "m.storeval", "x.result",
            "x.outval", "w.result", "w.outval", "w.s.icc", "x.icc",
            "f.bp.table", "f.bp.history")}
        self.regs = np.zeros((lanes, len(base.micro["registers"])),
                             dtype=np.uint64)
        self.regs[:] = np.array(base.micro["registers"], dtype=np.uint64)
        self.mem = BatchedWordStore(base.micro["memory"], lanes)
        self.redirect_target = int(base.micro["redirect_target"])
        self.cycle = base.cycle
        self.retired = base.retired
        self.reason: TerminationReason | None = None
        self.trap: TrapKind | None = None
        self._output_prefix = list(base.output)
        self._emitted: list[np.ndarray] = []
        self.output_ok = np.ones(lanes, dtype=bool)
        self._occupied = np.zeros(lanes, dtype=bool)
        self._occupied_count = 0
        self._free_slots = list(range(1, lanes))
        self._slot_records: list[_LaneRecord | None] = [None] * lanes
        self._inj_cycles = np.full(lanes, np.iinfo(np.int64).max,
                                   dtype=np.int64)
        self._deltas = {name: 0 for name in _DELTA_COLUMNS}

    def _base_at(self, cycle: int) -> CoreSnapshot:
        """Golden snapshot at or before ``cycle`` (cycle-0 reset if none)."""
        snapshot = self._checkpointed.nearest(cycle)
        if snapshot is not None:
            return snapshot
        if self._base_snapshot is None:
            core = self._pool.acquire()
            core.reset(self._program)
            self._base_snapshot = core.snapshot()
            self._pool.release(core)
        return self._base_snapshot

    # ------------------------------------------------------------------ sweep driver
    def sweep(self, records: list[_LaneRecord]
              ) -> tuple[list[_LaneRecord], list[_LaneRecord]]:
        """Stream ``records`` (sorted by injection cycle) through one sweep.

        Returns ``(finished, deferred)``: finished records carry a
        :class:`Replay`; deferred ones found no free lane slot at their
        injection cycle and need another pass (or the scalar path).
        """
        finished: list[_LaneRecord] = []
        deferred: list[_LaneRecord] = []
        if not records:
            return finished, deferred
        self._load_reference(self._base_at(records[0].planned.injection.cycle))
        golden_cycles = self._golden.cycles
        index = 0
        total = len(records)
        while self.reason is None:
            cycle = self.cycle
            if self._occupied_count == 0 and not self._tandems:
                if index >= total:
                    break  # pass exhausted without reaching golden termination
                target = records[index].planned.injection.cycle
                if target > cycle:
                    snapshot = self._checkpointed.nearest(target)
                    if snapshot is not None and snapshot.cycle > cycle:
                        self._load_reference(snapshot)
                        cycle = self.cycle
            if cycle > golden_cycles:
                raise RuntimeError(
                    "batched lockstep replay desynchronised: reference lane "
                    f"passed the golden termination cycle {golden_cycles}")
            while (index < total
                   and records[index].planned.injection.cycle == cycle):
                self._admit(records[index], deferred)
                index += 1
            if self._tandems:
                self._service_tandems(finished)
            if (self._gate and self._occupied_count
                    and cycle % self._fp_interval == 0):
                self._retire_converged(cycle, finished)
            self._advance_one_cycle()
            self.shared_cycles += 1
            if self._tandems:
                self._step_tandems(finished)
        if self.reason is not None:
            if (self.cycle != golden_cycles
                    or self.reason is not self._golden.reason
                    or self.trap is not self._golden.trap
                    or self.retired != self._golden.instructions_retired):
                raise RuntimeError(
                    "batched lockstep replay reference lane diverged from "
                    f"the golden run (cycle {self.cycle} vs {golden_cycles}, "
                    f"reason {self.reason} vs {self._golden.reason})")
            for lane in np.nonzero(self._occupied)[0]:
                self._dispose_survivor(int(lane), finished)
            for tandem in list(self._tandems):
                self._hard_evict(tandem, finished)
        deferred.extend(records[index:])
        return finished, deferred

    # ------------------------------------------------------------------ lane lifecycle
    def _admit(self, record: _LaneRecord, deferred: list[_LaneRecord]) -> None:
        planned = record.planned
        record.resumed_from = self.cycle
        record.segment_start = self.cycle
        if planned.suppressed:
            # The hardened cell absorbed the strike: a no-op lane.
            if not self._join_lane(record, flat_index=None):
                deferred.append(record)
            return
        site = self._registry.site(planned.injection.flat_index)
        if self._is_lane_local[site.structure.name]:
            if not self._join_lane(record, planned.injection.flat_index):
                deferred.append(record)
        else:
            # Control-plane flip: the instruction stream diverges from the
            # wavefront at the instant of injection.  Chase it in tandem.
            snapshot = self._lane_snapshot(0)
            flipped = list(snapshot.latches)
            flipped[self._latches.position(site.structure.name)] ^= 1 << site.bit
            snapshot.latches = tuple(flipped)
            self._spawn_tandem(record, snapshot)

    def _join_lane(self, record: _LaneRecord, flat_index: int | None) -> bool:
        """Seat ``record`` in a free slot as a copy of the reference lane."""
        if not self._free_slots:
            return False
        slot = self._free_slots.pop()
        self._latches.array[slot] = self._latches.array[0]
        self.regs[slot] = self.regs[0]
        self.mem.reset_lane(slot)
        for values in self._emitted:
            values[slot] = values[0]
        self.output_ok[slot] = True
        if flat_index is not None:
            self._flip_lane_local(slot, flat_index)
        self._occupied[slot] = True
        self._occupied_count += 1
        self._slot_records[slot] = record
        self._inj_cycles[slot] = record.planned.injection.cycle
        record.slot = slot
        record.segment_start = self.cycle
        return True

    def _flip_lane_local(self, slot: int, flat_index: int) -> None:
        site = self._registry.site(flat_index)
        name = site.structure.name
        delta_site = self._delta_sites.get(name)
        if delta_site is None:
            self._latches.flip_flat(slot, flat_index)
            return
        # Delta-offset column: flip the *materialised* value, store it back
        # in offset form.
        position, mask = delta_site
        delta = self._deltas[name]
        true_value = (int(self._latches.array[slot, position]) + delta) & mask
        true_value ^= 1 << site.bit
        self._latches.array[slot, position] = np.uint64(
            (true_value - delta) & mask)

    def _release_slot(self, slot: int) -> None:
        self._occupied[slot] = False
        self._occupied_count -= 1
        self._slot_records[slot] = None
        self._inj_cycles[slot] = np.iinfo(np.int64).max
        self._free_slots.append(slot)

    def _spawn_tandem(self, record: _LaneRecord,
                      snapshot: CoreSnapshot) -> None:
        core = self._pool.acquire()
        core.restore(self._program, snapshot)
        self._tandems.append(
            _Tandem(core, record, deadline=self.cycle + _TANDEM_WINDOW,
                    started=now_us() if self._tracing else 0.0))

    def _finish_tandem_span(self, tandem: _Tandem, disposition: str) -> None:
        """Emit the ``tandem.window`` span (spawn -> rejoin/finish/evict)."""
        if not self._tracing:
            return
        self._obs.tracer.complete(
            PHASE_TANDEM, start_us=tandem.started,
            dur_us=now_us() - tandem.started,
            args={"site": tandem.record.planned.injection.flat_index,
                  "disposition": disposition})

    def _demote_divergent(self, values: np.ndarray) -> None:
        """Demote occupied lanes whose ``values`` entry differs from lane 0's.

        Called from the execute pre-pass *before* any stage mutates state,
        so the extracted snapshot is the lane's pristine start-of-cycle
        state -- exactly what a scalar replay would hold here.
        """
        mask = values != values[0]
        mask &= self._occupied
        if mask.any():
            for lane in np.nonzero(mask)[0]:
                lane = int(lane)
                record = self._slot_records[lane]
                record.lockstep_cycles += self.cycle - record.segment_start
                snapshot = self._lane_snapshot(lane)
                self._release_slot(lane)
                self._spawn_tandem(record, snapshot)

    def _lane_snapshot(self, lane: int) -> CoreSnapshot:
        row = self._latches.array[lane]
        ctrl = self._ctrl
        lane_local = self._is_lane_local
        latches = [
            int(row[i]) if lane_local[s.name] else ctrl[s.name]
            for i, s in enumerate(self._structures)]
        for name, (position, mask) in self._delta_sites.items():
            latches[position] = (latches[position] + self._deltas[name]) & mask
        return CoreSnapshot(
            core_name=self._core_name,
            cycle=self.cycle,
            retired=self.retired,
            output=self._lane_output(lane),
            detections=[],
            recovery_cycles=0,
            pending_recovery=0,
            latches=tuple(latches),
            micro={
                "registers": [int(v) for v in self.regs[lane]],
                "memory": self.mem.lane_words(lane),
                "redirect_target": self.redirect_target,
            })

    def _lane_output(self, lane: int) -> list[int]:
        return self._output_prefix + [int(values[lane])
                                      for values in self._emitted]

    def _dispose_survivor(self, lane: int, finished: list[_LaneRecord]) -> None:
        record = self._slot_records[lane]
        record.lockstep_cycles += self.cycle - record.segment_start
        self._release_slot(lane)
        result = RunResult(
            program_name=self._golden.program_name,
            core_name=self._golden.core_name,
            reason=self.reason,
            trap=self.trap,
            cycles=self.cycle,
            instructions_retired=self.retired,
            output=self._lane_output(lane),
            detections=[],
            recovery_cycles=0)
        record.replay = Replay(
            result=result, outcome=classify_outcome(self._golden, result),
            resumed_from=record.resumed_from,
            simulated_cycles=record.simulated_cycles)
        finished.append(record)

    def _retire_converged(self, cycle: int,
                          finished: list[_LaneRecord]) -> None:
        """Retire lanes whose architectural state re-converged with lane 0.

        Hint-only columns are excluded on purpose: the in-order core never
        reads them (the predictor read is a discarded prediction), so a lane
        that matches architecturally emits golden output from here on --
        VANISHED, exactly what the scalar path reports for it.
        """
        eligible = self._occupied & self.output_ok & (self._inj_cycles < cycle)
        if not eligible.any():
            return
        eligible &= self._latches.rows_equal(columns=self._data_columns)
        eligible &= (self.regs == self.regs[0]).all(axis=1)
        eligible &= self.mem.lanes_match_reference()
        if not eligible.any():
            return
        golden = self._golden
        for lane in np.nonzero(eligible)[0]:
            lane = int(lane)
            record = self._slot_records[lane]
            record.lockstep_cycles += cycle - record.segment_start
            self._release_slot(lane)
            synthesized = replace(golden, output=list(golden.output),
                                  detections=list(golden.detections))
            record.replay = Replay(
                result=synthesized,
                outcome=classify_outcome(golden, synthesized),
                resumed_from=record.resumed_from,
                simulated_cycles=record.simulated_cycles,
                converged_at=cycle)
            finished.append(record)

    # ------------------------------------------------------------------ tandems
    def _tandem_rejoinable(self, tandem: _Tandem) -> bool:
        core = tandem.core
        if (core._retired != self.retired
                or core._redirect_target != self.redirect_target
                or core._pending_recovery or core._detections
                or core._recovery_cycles
                or len(core._output) != (len(self._output_prefix)
                                         + len(self._emitted))):
            return False
        data = core.latches._data
        ctrl = self._ctrl
        for position, name in self._ctrl_positions:
            if data[position] != ctrl[name]:
                return False
        return True

    def _service_tandems(self, finished: list[_LaneRecord]) -> None:
        cycle = self.cycle
        for tandem in list(self._tandems):
            if self._free_slots and self._tandem_rejoinable(tandem):
                self._rejoin(tandem)
            elif cycle >= tandem.deadline:
                self._tandems.remove(tandem)
                self._hard_evict(tandem, finished)

    def _rejoin(self, tandem: _Tandem) -> None:
        """Seat a re-converged tandem back into a vectorised lane slot.

        Control equality (plus retired count, redirect target, and output
        length) implies the tandem will execute the same instruction stream
        as the reference from here on; its divergent *data* -- registers,
        memory, value latches, emitted output -- rides along vectorised and
        is re-checked by the pre-pass every cycle like any other lane's.
        """
        self._tandems.remove(tandem)
        self._finish_tandem_span(tandem, disposition="rejoined")
        record = tandem.record
        core = tandem.core
        slot = self._free_slots.pop()
        data = core.latches._data
        row = self._latches.array[slot]
        for position in self._lane_positions:
            row[position] = data[position]
        for name, (position, mask) in self._delta_sites.items():
            row[position] = np.uint64((data[position] - self._deltas[name])
                                      & mask)
        micro = core._snapshot_microarchitecture()
        self.regs[slot] = np.array(micro["registers"], dtype=np.uint64)
        self.mem.set_lane_words(slot, micro["memory"])
        output = core._output
        base_length = len(self._output_prefix)
        ok = True
        for offset, values in enumerate(self._emitted):
            values[slot] = output[base_length + offset]
            ok = ok and values[slot] == values[0]
        self.output_ok[slot] = ok
        self._occupied[slot] = True
        self._occupied_count += 1
        self._slot_records[slot] = record
        self._inj_cycles[slot] = record.planned.injection.cycle
        record.slot = slot
        record.segment_start = self.cycle
        self._pool.release(core)

    def _step_tandems(self, finished: list[_LaneRecord]) -> None:
        for tandem in list(self._tandems):
            tandem.record.tandem_cycles += 1
            if not tandem.core.step():
                self._tandems.remove(tandem)
                self._finish_tandem_terminated(tandem, finished)

    def _finish_tandem_terminated(self, tandem: _Tandem,
                                  finished: list[_LaneRecord]) -> None:
        core = tandem.core
        result = RunResult(
            program_name=self._golden.program_name,
            core_name=core.name,
            reason=core._termination,
            trap=core._trap,
            cycles=core.cycle,
            instructions_retired=core._retired,
            output=list(core._output),
            detections=list(core._detections),
            recovery_cycles=core._recovery_cycles)
        record = tandem.record
        record.evicted = True
        record.replay = Replay(
            result=result, outcome=classify_outcome(self._golden, result),
            resumed_from=record.resumed_from,
            simulated_cycles=record.simulated_cycles)
        finished.append(record)
        self._finish_tandem_span(tandem, disposition="terminated")
        self._pool.release(core)

    def _hard_evict(self, tandem: _Tandem,
                    finished: list[_LaneRecord]) -> None:
        """Finish a still-diverged tandem on the plain scalar path.

        The flip is long applied, so the resume hook carries only the
        convergence gate -- the same gate a scalar replay of this injection
        runs under.  (Grid cycles inside the tandem window need no check: a
        full-state fingerprint match implies control-plane equality, which
        would have rejoined the lane instead.)
        """
        core = tandem.core
        record = tandem.record
        record.evicted = True
        self._finish_tandem_span(tandem, disposition="evicted")
        golden = self._golden
        start_cycle = core.cycle
        obs = self._obs
        hook = None
        if self._gate:
            probe_metrics = obs.metrics if obs.detailed else NULL_METRICS
            hook = _convergence_hook(
                _noop_hook, record.planned.injection.cycle,
                self._checkpointed, metrics=probe_metrics,
                plan=self._schedule_plans.get(
                    record.planned.injection.flat_index))
        try:
            with obs.tracer.span(
                    PHASE_FALLBACK,
                    args={"site": record.planned.injection.flat_index,
                          "from_cycle": start_cycle}):
                with obs.metrics.timer(PHASE_FALLBACK):
                    injected = core._run_loop(self._watchdog, hook)
        except _ConvergedEarly as converged:
            synthesized = replace(golden, output=list(golden.output),
                                  detections=list(golden.detections))
            record.scalar_cycles += converged.cycle - start_cycle
            record.replay = Replay(
                result=synthesized,
                outcome=classify_outcome(golden, synthesized),
                resumed_from=record.resumed_from,
                simulated_cycles=record.simulated_cycles,
                converged_at=converged.cycle)
        else:
            record.scalar_cycles += injected.cycles - start_cycle
            record.replay = Replay(
                result=injected,
                outcome=classify_outcome(golden, injected),
                resumed_from=record.resumed_from,
                simulated_cycles=record.simulated_cycles)
        finished.append(record)
        self._pool.release(core)

    # ------------------------------------------------------------------ per-cycle step
    def _advance_one_cycle(self) -> None:
        execute = self._execute_prepass()
        self._commit_writeback()
        if self.reason is not None:
            self.cycle += 1
            return
        self._stage_exception_to_writeback()
        self._stage_memory_to_exception()
        redirect = self._stage_execute_to_memory(execute)
        stalled = self._stage_regaccess_to_execute(redirect)
        self._stage_decode_to_regaccess(redirect, stalled)
        self._stage_fetch_to_decode(redirect, stalled)
        self._deltas["irq.pending"] += 1
        self.cycle += 1

    def _emit(self, values: np.ndarray) -> None:
        values = values.copy()
        self._emitted.append(values)
        self.output_ok &= values == values[0]

    def _terminate(self, reason: TerminationReason,
                   trap: TrapKind | None) -> None:
        if self.reason is None:
            self.reason = reason
            self.trap = trap

    def _cset(self, name: str, value: int) -> None:
        self._ctrl[name] = value & self._cmask[name]

    # ------------------------------------------------------------------ pipeline mirror
    # Each stage below mirrors the same-named InOrderCore stage exactly, with
    # control reads/writes on the scalar control plane and value moves as
    # whole-column numpy operations.

    def _commit_writeback(self) -> None:
        c = self._ctrl
        if not c["w.valid"]:
            return
        if c["w.trap"]:
            kind = _TRAP_FROM_CODE.get(c["w.trapkind"],
                                       TrapKind.ILLEGAL_INSTRUCTION)
            reason = (TerminationReason.DETECTED
                      if kind is TrapKind.SOFTWARE_ASSERTION
                      else TerminationReason.TRAP)
            self._terminate(reason, kind)
            c["w.valid"] = 0
            return
        if c["w.wen"]:
            rd = c["w.rd"] & 0x1F
            if rd != 0:
                self.regs[:, rd] = self._view["w.result"]
        if c["w.outpending"]:
            self._emit(self._view["w.outval"])
        self.retired += 1
        if c["w.op"] == _HALT_INT:
            self._terminate(TerminationReason.HALTED, None)
        c["w.valid"] = 0
        c["w.wen"] = 0
        c["w.outpending"] = 0

    def _stage_exception_to_writeback(self) -> None:
        c = self._ctrl
        v = self._view
        if not c["x.valid"]:
            c["w.valid"] = 0
            c["w.wen"] = 0
            c["w.outpending"] = 0
            return
        c["w.op"] = c["x.op"]
        c["w.rd"] = c["x.rd"]
        v["w.result"][:] = v["x.result"]
        c["w.trap"] = c["x.trap"]
        c["w.trapkind"] = c["x.trapkind"]
        v["w.outval"][:] = v["x.outval"]
        c["w.outpending"] = c["x.outpending"]
        c["w.valid"] = 1
        wen = 0
        if not c["x.trap"]:
            info = _INFO_BY_INT.get(c["x.op"])
            if info is not None:
                wen = 1 if (info.writes_rd and c["x.rd"] != 0) else 0
        c["w.wen"] = wen
        v["w.s.icc"][:] = v["x.icc"]
        c["x.valid"] = 0

    def _stage_memory_to_exception(self) -> None:
        c = self._ctrl
        v = self._view
        if not c["m.valid"]:
            c["x.valid"] = 0
            c["x.outpending"] = 0
            return
        c["x.op"] = c["m.op"]
        c["x.rd"] = c["m.rd"]
        c["x.trap"] = c["m.trap"]
        c["x.trapkind"] = c["m.trapkind"]
        c["x.valid"] = 1
        c["x.outpending"] = 0
        result = v["m.result"]
        if not c["m.trap"]:
            opcode = _OPCODE_BY_INT.get(c["m.op"])
            address = c["m.addr"]
            try:
                if opcode is Opcode.LW:
                    result = self.mem.load_word(address)
                elif opcode is Opcode.LB:
                    result = self.mem.load_byte(address)
                elif opcode is Opcode.SW:
                    self.mem.store_word(address, v["m.storeval"])
                elif opcode is Opcode.SB:
                    self.mem.store_byte(address, v["m.storeval"])
                elif opcode is Opcode.OUT:
                    v["x.outval"][:] = v["m.storeval"]
                    c["x.outpending"] = 1
            except MemoryFault:
                c["x.trap"] = 1
                c["x.trapkind"] = _TRAP_CODES[TrapKind.MEMORY_FAULT]
            self._deltas["dc.ctrl.state"] += 1
        v["x.result"][:] = result
        c["m.valid"] = 0

    def _execute_prepass(self) -> _ExecOutcome | None:
        """Compute the execute stage for the whole wavefront *before* any
        mutation, demoting lanes whose control-bearing outputs (branch
        decision/target, memory address, trap predicate) diverge from the
        reference lane.

        Running ahead of the older stages is exact: they never touch the
        ``e.*`` latches this reads, and a demoted lane's snapshot must be
        its start-of-cycle state anyway.
        """
        c = self._ctrl
        if not c["e.valid"] or c["e.trap"]:
            return None
        opcode = _OPCODE_BY_INT.get(c["e.op"])
        if opcode is None:
            return _ExecOutcome(illegal=True)
        pc = c["e.pc"]
        imm = c["e.imm"]
        if imm & 0x4000:  # sign-extend the 15-bit immediate
            imm -= 0x8000
        a = self._view["e.rs1val"]
        b = self._view["e.rs2val"]
        ai = a.astype(np.int64)
        bi = b.astype(np.int64)
        out = _ExecOutcome()

        if opcode is Opcode.ADD:
            out.value = (ai + bi) & _WORD
        elif opcode is Opcode.SUB:
            out.value = (ai - bi) & _WORD
        elif opcode is Opcode.MUL:
            out.value = (self._signed(ai) * self._signed(bi)) & _WORD
        elif opcode in (Opcode.DIV, Opcode.REM):
            trap_lanes = bi == 0
            self._demote_divergent(trap_lanes)
            if trap_lanes[0]:
                out.trap = True
                out.trapkind = _TRAP_CODES[TrapKind.DIVIDE_BY_ZERO]
            else:
                sa = self._signed(ai)
                sb = self._signed(bi)
                safe = np.where(sb == 0, np.int64(1), sb)
                # Matches the scalar semantics bit-for-bit: execute_operation
                # computes int(a / b), i.e. float64 division truncated toward
                # zero, and float64 is exact for all 32-bit operand pairs.
                quotient = np.trunc(sa / safe).astype(np.int64)
                if opcode is Opcode.DIV:
                    out.value = quotient & _WORD
                else:
                    out.value = (sa - quotient * safe) & _WORD
        elif opcode is Opcode.AND:
            out.value = ai & bi
        elif opcode is Opcode.OR:
            out.value = ai | bi
        elif opcode is Opcode.XOR:
            out.value = ai ^ bi
        elif opcode is Opcode.SLL:
            out.value = (ai << (bi & 31)) & _WORD
        elif opcode is Opcode.SRL:
            out.value = ai >> (bi & 31)
        elif opcode is Opcode.SRA:
            out.value = (self._signed(ai) >> (bi & 31)) & _WORD
        elif opcode is Opcode.SLT:
            out.value = (self._signed(ai) < self._signed(bi)).astype(np.int64)
        elif opcode is Opcode.SLTU:
            out.value = (ai < bi).astype(np.int64)
        elif opcode is Opcode.ADDI:
            out.value = (ai + imm) & _WORD
        elif opcode is Opcode.ANDI:
            out.value = ai & (imm & _WORD)
        elif opcode is Opcode.ORI:
            out.value = ai | (imm & _WORD)
        elif opcode is Opcode.XORI:
            out.value = ai ^ (imm & _WORD)
        elif opcode is Opcode.SLTI:
            out.value = (self._signed(ai) < imm).astype(np.int64)
        elif opcode is Opcode.SLLI:
            out.value = (ai << (imm & 31)) & _WORD
        elif opcode is Opcode.SRLI:
            out.value = ai >> (imm & 31)
        elif opcode is Opcode.SRAI:
            out.value = (self._signed(ai) >> (imm & 31)) & _WORD
        elif opcode is Opcode.LUI:
            out.value = (imm << LUI_SHIFT) & _WORD
        elif opcode in (Opcode.LW, Opcode.LB):
            addresses = (ai + imm) & _WORD
            self._demote_divergent(addresses)
            out.mem_addr = int(addresses[0])
        elif opcode in (Opcode.SW, Opcode.SB):
            addresses = (ai + imm) & _WORD
            self._demote_divergent(addresses)
            out.mem_addr = int(addresses[0])
            out.store_col = b
        elif opcode in _BRANCH_OPCODES:
            if opcode is Opcode.BEQ:
                taken = ai == bi
            elif opcode is Opcode.BNE:
                taken = ai != bi
            elif opcode is Opcode.BLT:
                taken = self._signed(ai) < self._signed(bi)
            elif opcode is Opcode.BGE:
                taken = self._signed(ai) >= self._signed(bi)
            elif opcode is Opcode.BLTU:
                taken = ai < bi
            else:  # BGEU
                taken = ai >= bi
            self._demote_divergent(taken)
            out.taken = bool(taken[0])
            out.target = (pc + 4 + 4 * imm) & _WORD
            out.is_branch = True
        elif opcode is Opcode.JAL:
            out.value = (pc + 4) & _WORD
            out.taken = True
            out.target = (4 * imm) & _WORD
        elif opcode is Opcode.JALR:
            targets = ((ai + imm) & _WORD) & ~0x3
            self._demote_divergent(targets)
            out.value = (pc + 4) & _WORD
            out.taken = True
            out.target = int(targets[0])
        elif opcode is Opcode.OUT:
            out.out_col = a
        elif opcode in (Opcode.HALT, Opcode.NOP):
            pass
        elif opcode is Opcode.ASSERT_EQ:
            trap_lanes = ai != bi
            self._demote_divergent(trap_lanes)
            if trap_lanes[0]:
                out.trap = True
                out.trapkind = _TRAP_CODES[TrapKind.SOFTWARE_ASSERTION]
        elif opcode is Opcode.ASSERT_RANGE:
            trap_lanes = ai > bi
            self._demote_divergent(trap_lanes)
            if trap_lanes[0]:
                out.trap = True
                out.trapkind = _TRAP_CODES[TrapKind.SOFTWARE_ASSERTION]
        else:
            # Mirrors execute_operation's terminal ExecuteTrap for opcodes
            # with no compute semantics.
            out.illegal = True
        return out

    @staticmethod
    def _signed(values: np.ndarray) -> np.ndarray:
        """Sign-extend 32-bit values held in int64 lanes (branch-free)."""
        return values - ((values >> 31) << 32)

    def _stage_execute_to_memory(self, execute: _ExecOutcome | None) -> bool:
        c = self._ctrl
        if not c["e.valid"]:
            c["m.valid"] = 0
            return False
        c["m.op"] = c["e.op"]
        c["m.rd"] = c["e.rd"]
        c["m.trap"] = c["e.trap"]
        c["m.trapkind"] = c["e.trapkind"]
        c["m.valid"] = 1
        c["m.branch_taken"] = 0
        redirect = False
        if not c["e.trap"]:
            assert execute is not None
            if execute.illegal or execute.trap:
                c["m.trap"] = 1
                c["m.trapkind"] = (execute.trapkind if execute.trap
                                   else _TRAP_CODES[TrapKind.ILLEGAL_INSTRUCTION])
            else:
                self._view["m.result"][:] = execute.value
                if execute.mem_addr is not None:
                    self._cset("m.addr", execute.mem_addr)
                if execute.store_col is not None:
                    self._view["m.storeval"][:] = execute.store_col
                if execute.out_col is not None:
                    self._view["m.storeval"][:] = execute.out_col
                if execute.is_branch:
                    self._predictor_update(c["e.pc"], execute.taken)
                if execute.taken:
                    redirect = True
                    c["m.branch_taken"] = 1
                    self.redirect_target = execute.target
        c["e.valid"] = 0
        return redirect

    def _predictor_update(self, pc: int, taken: bool) -> None:
        """Vectorised :meth:`BimodalPredictor.update` (per-lane history)."""
        table = self._view["f.bp.table"]
        history = self._view["f.bp.history"]
        index = (np.uint64(pc >> 2) ^ history) % self._predictor_entries
        shift = _U2 * index
        counter = (table >> shift) & _U3
        if taken:
            counter = np.minimum(counter + _U1, _U3)
        else:
            counter = np.maximum(counter, _U1) - _U1
        table &= ~(_U3 << shift)
        table |= counter << shift
        history <<= _U1
        if taken:
            history |= _U1
        history &= self._history_mask

    def _hazard_destinations(self) -> set[int]:
        c = self._ctrl
        destinations: set[int] = set()
        for prefix in ("m", "x", "w"):
            if c[f"{prefix}.valid"] and not c[f"{prefix}.trap"]:
                info = _INFO_BY_INT.get(c[f"{prefix}.op"])
                if info is not None and info.writes_rd:
                    rd = c[f"{prefix}.rd"]
                    if rd != 0:
                        destinations.add(rd)
        return destinations

    def _stage_regaccess_to_execute(self, redirect: bool) -> bool:
        c = self._ctrl
        if redirect or not c["a.valid"]:
            c["e.valid"] = 0
            if redirect:
                c["a.valid"] = 0
            return False
        info = _INFO_BY_INT.get(c["a.op"])
        if info is not None and not c["a.trap"]:
            hazards = self._hazard_destinations()
            if hazards:
                if ((info.reads_rs1 and c["a.rs1"] in hazards)
                        or (info.reads_rs2 and c["a.rs2"] in hazards)):
                    c["e.valid"] = 0
                    return True
        c["e.op"] = c["a.op"]
        c["e.rd"] = c["a.rd"]
        c["e.imm"] = c["a.imm"]
        c["e.pc"] = c["a.pc"]
        c["e.trap"] = c["a.trap"]
        c["e.trapkind"] = c["a.trapkind"]
        self._view["e.rs1val"][:] = self.regs[:, c["a.rs1"] & 0x1F]
        self._view["e.rs2val"][:] = self.regs[:, c["a.rs2"] & 0x1F]
        c["e.valid"] = 1
        c["a.valid"] = 0
        return False

    def _stage_decode_to_regaccess(self, redirect: bool, stalled: bool) -> None:
        c = self._ctrl
        if stalled:
            return
        if redirect or not c["d.valid"]:
            c["a.valid"] = 0
            if redirect:
                c["d.valid"] = 0
            return
        word = c["d.inst"]
        c["a.pc"] = c["d.pc"]
        c["a.valid"] = 1
        c["a.trap"] = 0
        c["a.trapkind"] = 0
        if c["d.fetchfault"]:
            c["a.trap"] = 1
            c["a.trapkind"] = _TRAP_CODES[TrapKind.FETCH_FAULT]
            c["a.op"] = 0
            c["a.rd"] = 0
            c["a.rs1"] = 0
            c["a.rs2"] = 0
            c["a.imm"] = 0
            c["d.valid"] = 0
            return
        fields = self._decode_cache.get(word, _MISSING)
        if fields is _MISSING:
            try:
                instruction = decode_instruction(word)
            except EncodingError:
                fields = None
            else:
                fields = (int(instruction.opcode), instruction.rd,
                          instruction.rs1, instruction.rs2, instruction.imm)
            self._decode_cache[word] = fields
        if fields is None:
            c["a.trap"] = 1
            c["a.trapkind"] = _TRAP_CODES[TrapKind.ILLEGAL_INSTRUCTION]
            c["a.op"] = 0
            c["a.rd"] = 0
            c["a.rs1"] = 0
            c["a.rs2"] = 0
            c["a.imm"] = 0
        else:
            self._cset("a.op", fields[0])
            self._cset("a.rd", fields[1])
            self._cset("a.rs1", fields[2])
            self._cset("a.rs2", fields[3])
            self._cset("a.imm", fields[4])
        c["d.valid"] = 0

    def _stage_fetch_to_decode(self, redirect: bool, stalled: bool) -> None:
        c = self._ctrl
        if stalled:
            return
        if redirect:
            c["d.valid"] = 0
            self._cset("f.pc", self.redirect_target)
            self._cset("f.npc", self.redirect_target + WORD_BYTES)
            return
        pc = c["f.pc"]
        word = self._fetch_cache.get(pc, _MISSING)
        if word is _MISSING:
            instruction = self._program.instruction_at(pc)
            word = (None if instruction is None
                    else encode_instruction(instruction))
            self._fetch_cache[pc] = word
        if word is None:
            c["d.inst"] = 0
            self._cset("d.pc", pc)
            c["d.fetchfault"] = 1
            c["d.valid"] = 1
            return
        c["d.fetchfault"] = 0
        self._cset("d.inst", word)
        self._cset("d.pc", pc)
        c["d.valid"] = 1
        self._cset("f.pc", pc + WORD_BYTES)
        self._cset("f.npc", pc + 2 * WORD_BYTES)
        self._deltas["ic.ctrl.state"] += 1
        # The scalar stage also calls predictor.predict_taken(pc) for
        # branches -- a pure read with no state effect, so it is skipped.


def _noop_hook(core: BaseCore, cycle: int) -> None:
    return None


def execute_chunk_batched(spec: CampaignSpec, chunk: ChunkSpec,
                          obs: Instrumentation | None = None) -> ChunkResult:
    """Replay one chunk with streaming lockstep wavefronts where possible.

    Injections the wavefront cannot carry -- unsuppressed detecting
    protections (they raise events/recovery instead of flipping state), or
    any injection when the core/golden run is unsupported -- replay on the
    scalar path, so a batched chunk always produces the same outcomes and
    per-site tallies as a scalar one.

    Slot starvation (more simultaneous riders than ``batch_width``) defers
    injections to another sweep; a pass that finishes nothing sends the
    leftovers to the scalar path, so progress is guaranteed.

    ``obs`` is the chunk's instrumentation bundle (built by
    :func:`~repro.engine.executors.execute_chunk` from the spec's flags;
    ``None`` builds one here for direct callers).  Wavefront cycles land in
    phase counters -- lockstep lanes, shared reference, tandem windows,
    scalar fallback -- that partition ``replayed_cycles`` exactly.
    """
    if obs is None:
        obs = Instrumentation.configure(metrics=spec.metrics,
                                        trace=spec.trace)
    result = ChunkResult(index=chunk.index, metrics=obs.metrics)
    metrics = obs.metrics
    width = spec.batch_width
    batchable: list[PlannedInjection] = []
    scalar: list[PlannedInjection] = []
    if (width >= _MIN_WAVEFRONT_LANES and batched_replay_supported(spec.core)
            and _golden_batchable(spec.checkpointed.golden)):
        for planned in chunk.planned:
            if planned.protection.detects and not planned.suppressed:
                scalar.append(planned)
            else:
                batchable.append(planned)
    else:
        scalar = list(chunk.planned)
    if len(batchable) < _MIN_WAVEFRONT_LANES:
        scalar.extend(batchable)
        batchable = []
    with obs.tracer.span(SPAN_CHUNK, args={"index": chunk.index,
                                           "injections": len(chunk.planned),
                                           "batchable": len(batchable)}):
        if batchable:
            pool = _CorePool(spec.core)
            pending = [_LaneRecord(planned=planned) for planned in batchable]
            pending.sort(key=lambda record: record.planned.injection.cycle)
            while pending:
                wavefront = _StreamingWavefront(
                    spec.core, spec.program, spec.checkpointed,
                    spec.convergence, width, pool, obs=obs,
                    schedule_plans=spec.schedule_plans)
                with obs.tracer.span(PHASE_LOCKSTEP,
                                     args={"riders": len(pending)}) as span:
                    with metrics.timer(PHASE_LOCKSTEP):
                        finished, deferred = wavefront.sweep(pending)
                    span.note(finished=len(finished),
                              shared_cycles=wavefront.shared_cycles)
                metrics.inc(CYCLES_WAVEFRONT_SHARED, wavefront.shared_cycles)
                for record in finished:
                    metrics.inc(CYCLES_LOCKSTEP, record.lockstep_cycles)
                    metrics.inc(CYCLES_TANDEM, record.tandem_cycles)
                    metrics.inc(CYCLES_FALLBACK, record.scalar_cycles)
                    if record.evicted:
                        metrics.inc(COUNT_EVICTED)
                    _fold_replay(result, record.planned, record.replay, obs)
                if not finished:
                    # No lane made progress (degenerate plan, e.g. every
                    # injection beyond golden termination): fall back to
                    # scalar.
                    scalar.extend(record.planned for record in deferred)
                    break
                pending = deferred
        plans = spec.schedule_plans
        for planned in scalar:
            with obs.metrics.timer(PHASE_SCALAR_REPLAY):
                replay = replay_planned_injection(
                    spec.core, spec.program, planned, spec.checkpointed,
                    convergence=spec.convergence,
                    obs=obs if obs.tracer.enabled or obs.detailed else None,
                    plan=(plans.get(planned.injection.flat_index)
                          if plans else None))
            fold_scalar_replay(result, planned, replay, obs)
    if obs.tracer.enabled:
        result.trace_events = obs.tracer.events
    return result


def _fold_replay(result: ChunkResult, planned: PlannedInjection,
                 replay: Replay, obs: Instrumentation) -> None:
    """Fold one wavefront-finished replay into the chunk result.

    Phase *cycle* counters are the caller's job (the lane record partitions
    them); this folds the outcome plus the per-replay bookkeeping counters.
    """
    metrics = result.metrics
    metrics.inc(COUNT_REPLAYS)
    metrics.inc(CYCLES_FASTFORWARD, replay.resumed_from)
    if replay.converged_at is not None:
        metrics.inc(COUNT_CONVERGED)
        metrics.inc(CYCLES_SAVED, replay.saved_cycles)
    if obs.detailed:
        metrics.observe(HISTOGRAM_REPLAY_CYCLES, replay.simulated_cycles)
    result.record(planned.injection.flat_index, replay.outcome)
    result.observe_site(planned.injection.flat_index, replay.converged_at,
                        planned.injection.cycle)
