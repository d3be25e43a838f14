"""Batched lockstep replay: streaming vectorised injection wavefronts.

The scalar replay path costs ~20 microseconds of Python dispatch per
simulated cycle, and the process-pool executor cannot help because the cost
sits *inside* one replay, not across them.  This module attacks the
per-cycle cost directly: injected replays of the same golden run advance
together as one *wavefront*, so each interpreted pipeline step pays its
Python overhead once for the whole batch.  Lanes almost always agree, so a
value is one Python int until lanes differ on it, and only then a numpy
column.

The key observation making lockstep exact rather than approximate: until an
injected bit flip propagates into control flow, an injected run executes the
*same instruction stream* as the golden run -- only operand/result *values*
differ.  The wavefront therefore splits the in-order core's flip-flop
structures into two planes:

* **control plane** -- pc/validity/opcode/destination/trap/address fields
  that decide *what the pipeline does*.  These are required to stay uniform
  across the wavefront and are stored once as plain ints (lane 0, the
  uninjected reference lane, defines them; it reproduces the golden run
  bit-for-bit by construction).
* **lane plane** -- operand/result value latches plus every hint-only
  structure (branch predictor, status register, cache/IRQ bookkeeping).
  These may diverge freely: they never feed control decisions, only
  register writes, stores and program output, which may differ per lane
  too.  Each lane-plane value -- latch, register, memory word or output
  entry -- is one Python int while all lanes agree on it and a ``(lanes,)``
  numpy column only once a flip, a tandem rejoin or a computation on a
  column makes the lanes differ; freed lane slots are reset to the
  reference lane, so columns turn back into ints when the lane that made
  them leaves.

There is one in-order pipeline.  The wavefront steps a :class:`_LaneCore`,
an :class:`InOrderCore` whose latch list holds ints in the control plane and
ints or columns in the lane plane, so :class:`InOrderCore`'s own cycle
(:meth:`~InOrderCore._advance`, all seven stages in one loop) advances every
lane at once, at a scalar core's cost while every value is an int.  The
lane core overrides only two of the cycle's hooks: execute runs the scalar
unit on int operands and otherwise takes the outcome of a pre-pass, which
runs the same scalar unit once per distinct operand pair and demotes lanes
whose control would diverge, and output keeps per-lane "equals lane 0"
flags.  There is one execute unit,
:func:`~repro.microarch.execute.execute_operation`; this module holds no
opcode semantics.  It is the orchestration around the lane core:
admission, the pre-pass and demotion, tandems, retirement and eviction.

The sweep stops only at events -- the next admission cycle, the next grid
cycle while a lane is seated, golden termination -- and steps the lane core
a segment at a time between them.  While no tandem is live and the core is
*quiet* -- ``e.rs1val``, ``e.rs2val``, ``m.result``, ``x.result``,
``w.result``, every register and every memory word are ints, and so is
``m.storeval`` under a valid, untrapped SW, SB or OUT in the M latch -- one
``_advance(stop)`` call runs the whole stretch with no pre-pass.  That is
exact because quiet is closed under the cycle: int operands give int
results and store values, int memory loads ints, copies of ints stay ints,
a stale ``m.storeval`` column is overwritten by the next storing
instruction's EX before its ME reads it, and ``x.outval``, ``w.outval`` and
hint columns reach only output and hint state.  No execute operand becomes
a column inside the segment, so the pre-pass would have returned ``None``
on every cycle of it (and the lane core raises if one ever does).  A loud
core steps cycle by cycle behind the pre-pass up to the same stop, and
every cycle with a tandem live is stepped singly with the tandems.  On a
seed-0 ``campaign-ino-batched`` pass (2-CPU shared host, phase timers on,
6 alternating runs per side), 65% of the 535,346 shared cycles run in
multi-cycle segments, and the lockstep phase less its scalar fallbacks
went 3.33-5.26 -> 2.75-3.37 us per shared cycle against stepping every
cycle behind the pre-pass.

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
  run emits golden output (:attr:`InOrderCore.hint_plane_inert`).  A
  scalar replay of such a run ends VANISHED as well; retirement returns the
  same classification without the replay tail.
* **Divergence demotion to a tandem**: the moment a lane's control would
  differ from the reference -- a flip landing in a control-plane structure,
  a divergent branch decision/target, memory address, or execute-trap
  predicate -- the lane is extracted in its pristine start-of-cycle state
  and continues on a pooled scalar core *in tandem* with the wavefront.
  Control divergence is usually transient (a corrupted instruction drains
  within a few cycles); once the tandem's control plane re-equals the
  reference it **rejoins** the wavefront as a vectorised lane, carrying its
  divergent data values.  Tandems that terminate, or stay diverged past a
  bounded window, finish through
  :func:`~repro.engine.executors.run_gated` (the watchdog and convergence
  gate of every scalar replay), exactly as a plain scalar replay of that
  injection would.

The lane core is specific to the in-order pipeline.  Other cores --
the out-of-order model in particular, whose dynamic scheduling makes
"uniform control" a far weaker invariant -- transparently fall back to the
scalar path: :func:`batched_replay_supported` is the seam, and a batched
campaign on an unsupported core is simply a scalar campaign.

Injections whose protection *detects* without suppression also take the
scalar path (they raise detection events / recovery stalls rather than flip
state), as do campaigns whose golden run hung, detected or recovered (the
scalar gate refuses those too).  Everything else batches.  Suppressed
injections and undetected hint-plane flips never arrive from
:class:`~repro.engine.engine.InjectionEngine`, which folds them as golden
copies unsimulated (:func:`~repro.engine.executors.is_inert`); a direct
caller may still pass them, and a suppressed lane then joins and retires at
the first eligible grid cycle, like the scalar no-op replay converges.  An
injection whose flip is dead on arrival
(:func:`~repro.engine.executors.dead_on_arrival`, asked of the reference
lane when the sweep reaches its cycle) takes no lane and no tandem: it
finishes at admission as a golden copy, as its scalar replay does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.checkpoint import CheckpointedGoldenRun
from repro.engine.executors import (
    ChunkResult,
    ChunkSpec,
    CampaignSpec,
    PlannedInjection,
    Replay,
    dead_on_arrival,
    fold_replay,
    golden_copy,
    replay_planned_injection,
    run_gated,
)
from repro.faultinjection.outcomes import classify_outcome
from repro.isa.instructions import Opcode
from repro.isa.program import Program
from repro.microarch.core import BaseCore, CoreSnapshot
from repro.microarch.events import RunResult, TerminationReason, TrapKind
from repro.microarch.execute import (ExecuteResult, ExecuteTrap,
                                     execute_operation)
from repro.microarch.inorder import (E_IMM, E_OP, E_PC, E_RS1VAL, E_RS2VAL,
                                     E_TRAP, E_VALID, M_OP, M_RESULT,
                                     M_STOREVAL, M_TRAP, M_VALID, W_RESULT,
                                     X_RESULT, InOrderCore)
from repro.microarch.memory import BatchedWordStore, released, with_lane
from repro.obs import Instrumentation
from repro.obs.metrics import NULL_METRICS
from repro.obs.phases import (
    COUNT_EVICTED,
    CYCLES_FALLBACK,
    CYCLES_LOCKSTEP,
    CYCLES_LOCKSTEP_SEGMENTED,
    CYCLES_SCALAR,
    CYCLES_TANDEM,
    CYCLES_WAVEFRONT_SHARED,
    PHASE_FALLBACK,
    PHASE_LOCKSTEP,
    PHASE_SCALAR_REPLAY,
    PHASE_TANDEM,
    SPAN_CHUNK,
)
from repro.obs.trace import now_us

_MIN_WAVEFRONT_LANES = 2
"""Smallest batchable population worth building a wavefront for."""

_TANDEM_WINDOW = 64
"""Cycles a control-diverged tandem may chase the wavefront before it is
evicted to a plain scalar finish.  Transient control corruption (a flipped
instruction word, operand, or address) drains from the 6-stage pipeline
within a handful of cycles; runs still diverged after this window have
genuinely forked control flow and rarely return."""

_DATA_LATCHES = frozenset((
    "e.rs1val", "e.rs2val",      # operands read at regaccess
    "m.result", "m.storeval",    # ALU result / store payload
    "x.result", "x.outval",      # post-memory result / OUT payload
    "w.result", "w.outval",      # committing result / OUT payload
))
"""Architectural value latches that may differ per lane under uniform control."""

_STORING_OPS = frozenset(map(int, (Opcode.SW, Opcode.SB, Opcode.OUT)))
"""Opcodes whose memory stage reads ``m.storeval``."""


def batched_replay_supported(core: BaseCore) -> bool:
    """True when ``core`` can be stepped as a lockstep wavefront.

    The wavefront runs :class:`InOrderCore`'s own cycle, so only that exact
    type qualifies (a subclass may override the cycle or a hook in ways the
    wavefront's lane core would not inherit).  Everything else -- the
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


class _LaneCore(InOrderCore):
    """``lanes`` in-order replays stepped at once by the inherited cycle.

    Control-plane latches hold lane 0's ints (uniform across the wavefront
    by the lockstep invariant).  Every lane-plane value -- a lane-local
    latch (the value latches and every hint-only structure), a register, a
    memory word (a :class:`BatchedWordStore`) or an emitted output -- is one
    Python int while all lanes agree on it, and becomes a ``(lanes,)``
    numpy column only when a flip, a tandem rejoin (:meth:`adopt`) or a
    computation on a column makes the lanes differ.  While the execute
    operands are ints the inherited cycle runs exactly as the scalar
    core's, the execute unit included; a column operand takes the
    wavefront's pre-pass outcome instead, which the same unit computed lane
    by lane.

    Free lane slots mirror lane 0 in every column: :meth:`release` copies
    lane 0 into a slot its replay left and turns the columns whose lanes
    then agree back into ints, so a joining lane needs no copy and no column
    outlives the lanes that made it differ.  The cycle shares column
    objects between latches, registers and memory rows, so a column is
    replaced, never written in place -- except by :meth:`release`, which
    gives every alias the value it must hold anyway.  A lane core is never
    snapshotted or fingerprinted as a whole: :meth:`lane_snapshot` extracts
    one lane as the scalar core's :class:`CoreSnapshot`.
    """

    def __init__(self, name: str, lanes: int):
        super().__init__(name=name)
        self.lanes = lanes
        structures = self.registry.structures
        self.lane_local = [(not s.architectural) or s.name in _DATA_LATCHES
                           for s in structures]
        self._lane_positions = [
            i for i, local in enumerate(self.lane_local) if local]
        self._control_positions = [
            i for i, local in enumerate(self.lane_local) if not local]
        self._data_positions = [i for i, s in enumerate(structures)
                                if s.name in _DATA_LATCHES]
        # Value columns (latches, registers, memory) are int64, the pre-pass
        # arithmetic's type; hint columns are uint64 (f.bp.table is 64 bits).
        self._dtypes = [np.int64 if s.name in _DATA_LATCHES else np.uint64
                        for s in structures]
        # audit: allow[state-coverage] per-lane "output equals lane 0's" flags, reset on restore; lane_snapshot extracts the output itself
        self.output_ok = None
        # The wavefront's execute outcome for the cycle being stepped
        # (None: the operands are ints and the scalar unit runs).
        self.prepass: ExecuteResult | TrapKind | None = None

    # ------------------------------------------------------------------ stage hooks
    def _execute(self, opcode, rs1_value, rs2_value, imm, pc) -> ExecuteResult:
        outcome = self.prepass
        if outcome is None:
            if type(rs1_value) is int and type(rs2_value) is int:
                return execute_operation(opcode, rs1_value, rs2_value, imm,
                                         pc)
            # A segment began on a state the quiet rule should have refused.
            raise RuntimeError(
                f"lockstep lane core: column execute operand at pc {pc:#x} "
                f"without a pre-pass outcome, in the segment stepped from "
                f"cycle {self._cycle}")
        if isinstance(outcome, TrapKind):
            raise ExecuteTrap(outcome)
        return outcome

    def emit_output(self, value) -> None:
        self._output.append(value)
        if type(value) is not int:
            self.output_ok &= value == value[0]

    def _restore_microarchitecture(self, micro: dict) -> None:
        """Give every lane one golden snapshot's state (all ints)."""
        self.registers = list(micro["registers"])
        self.memory = BatchedWordStore(micro["memory"], self.lanes)
        self._redirect_target = micro["redirect_target"]
        self.output_ok = np.ones(self.lanes, dtype=bool)

    # ------------------------------------------------------------------ lanes
    def flip(self, slot: int, flat_index: int) -> None:
        """Flip one lane-local flip-flop of lane ``slot`` (copy-on-write)."""
        site = self.registry.site(flat_index)
        position = self.latches.slot(site.structure.name)
        values = self.latches.values
        value = values[position]
        if type(value) is int:
            column = np.full(self.lanes, value, dtype=self._dtypes[position])
        else:
            column = value.copy()
        column[slot] ^= 1 << site.bit
        values[position] = column

    def release(self, slot: int) -> None:
        """Make free slot ``slot`` a copy of lane 0 again, and every column
        whose lanes then agree an int."""
        values = self.latches.values
        for position in self._lane_positions:
            values[position] = released(values[position], slot)
        self.registers = [released(value, slot) for value in self.registers]
        self.memory.release_lane(slot)
        self._output = [released(value, slot) for value in self._output]
        self.output_ok[slot] = True

    def adopt(self, slot: int, core: InOrderCore) -> None:
        """Seat a scalar core's state in lane ``slot`` (a tandem rejoin).

        The caller has checked that ``core``'s control plane equals lane 0's
        (so its output is as long); the values that differ from the
        wavefront's become columns with ``slot`` set.
        """
        lanes = self.lanes
        data = core.latches.values
        values = self.latches.values
        for position in self._lane_positions:
            values[position] = with_lane(values[position], lanes, slot,
                                         data[position],
                                         self._dtypes[position])
        self.registers = [with_lane(value, lanes, slot, new)
                          for value, new in zip(self.registers,
                                                core.registers)]
        self.memory.set_lane_words(slot, core.memory.snapshot_words())
        self._output = [with_lane(value, lanes, slot, new)
                        for value, new in zip(self._output, core.output)]
        self.output_ok[slot] = core.output == self.lane_output(0)

    def control_matches(self, core: InOrderCore) -> bool:
        """True when ``core`` would execute lane 0's instruction stream."""
        if (core._retired != self._retired
                or core._redirect_target != self._redirect_target
                or core._pending_recovery or core._detections
                or core._recovery_cycles
                or len(core._output) != len(self._output)):
            return False
        data = core.latches.values
        values = self.latches.values
        return all(data[position] == values[position]
                   for position in self._control_positions)

    def lanes_converged(self, lanes: list[int]) -> list[int]:
        """The lanes of ``lanes`` whose value latches, registers and memory
        equal lane 0's.

        Only columns can differ, so only they are compared, and only at the
        candidate lanes; the comparison stops once no candidate is left.
        Hint-only columns are left out on purpose -- the in-order core never
        reads them into behaviour.
        """
        values = self.latches.values
        for group in ([values[position] for position in self._data_positions],
                      self.registers, self.memory.columns()):
            for value in group:
                if type(value) is not int:
                    reference = value[0]
                    lanes = [lane for lane in lanes
                             if value[lane] == reference]
                    if not lanes:
                        return lanes
        return lanes

    def lane_output(self, lane: int) -> list[int]:
        return _lane_values(self._output, lane)

    def lane_snapshot(self, lane: int) -> CoreSnapshot:
        """Lane ``lane``'s state as the scalar core's snapshot."""
        return CoreSnapshot(
            core_name=self.name,
            cycle=self._cycle,
            retired=self._retired,
            output=self.lane_output(lane),
            detections=[],
            recovery_cycles=0,
            pending_recovery=0,
            latches=tuple(_lane_values(self.latches.values, lane)),
            micro={
                "registers": _lane_values(self.registers, lane),
                "memory": self.memory.lane_words(lane),
                "redirect_target": self._redirect_target,
            })


def _lane_values(values: list, lane: int) -> list[int]:
    """Lane ``lane``'s value of each int or column in ``values``."""
    return [value if type(value) is int else int(value[lane])
            for value in values]


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


class _StreamingWavefront:
    """One streaming lockstep sweep over a chunk's batchable injections.

    Lane 0 is the uninjected reference lane; slots ``1..width`` are recycled
    across injections as lanes join, retire, and demote.  The lanes step on
    one :class:`_LaneCore`; this class admits, demotes, retires and evicts
    them, and runs the execute pre-pass that keeps control uniform.
    """

    def __init__(self, core: BaseCore, program: Program,
                 checkpointed: CheckpointedGoldenRun,
                 width: int, pool: _CorePool,
                 obs: Instrumentation | None = None):
        self._obs = Instrumentation.off() if obs is None else obs
        self._tracing = self._obs.tracer.enabled
        self._program = program
        self._checkpointed = checkpointed
        self._golden = checkpointed.golden
        self._registry = core.registry
        self._pool = pool
        self.lanes = width + 1
        self._core = _LaneCore(core.name, self.lanes)
        self._fp_interval = checkpointed.fingerprint_interval
        # _golden_batchable already turned hung golden runs away, so the
        # grid alone decides the gate, as it does in run_gated.
        self._gate = bool(checkpointed.fingerprints)
        self.shared_cycles = 0
        self.segmented_cycles = 0
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
        self._core.restore(self._program, base)
        self._occupied = np.zeros(lanes, dtype=bool)
        self._occupied_count = 0
        self._free_slots = list(range(1, lanes))
        self._slot_records: list[_LaneRecord | None] = [None] * lanes
        self._inj_cycles = np.full(lanes, np.iinfo(np.int64).max,
                                   dtype=np.int64)

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

        The sweep acts only at events: an admission cycle, a grid cycle
        while a lane is seated, golden termination, and every cycle while a
        tandem is live.  Between events it advances the lane core in one
        :meth:`~InOrderCore._advance` segment while the core is quiet
        (:meth:`_quiet`), else cycle by cycle behind the execute pre-pass.
        """
        finished: list[_LaneRecord] = []
        deferred: list[_LaneRecord] = []
        if not records:
            return finished, deferred
        self._load_reference(self._base_at(records[0].planned.injection.cycle))
        core = self._core
        golden = self._golden
        gate = self._gate
        interval = self._fp_interval
        index = 0
        total = len(records)
        while not core.terminated:
            cycle = core.cycle
            idle = self._occupied_count == 0 and not self._tandems
            if idle:
                if index >= total:
                    break  # pass exhausted without reaching golden termination
                target = records[index].planned.injection.cycle
                if target > cycle:
                    snapshot = self._checkpointed.nearest(target)
                    if snapshot is not None and snapshot.cycle > cycle:
                        self._load_reference(snapshot)
                        cycle = core.cycle
            if cycle > golden.cycles:
                raise RuntimeError(
                    "batched lockstep replay desynchronised: reference lane "
                    f"passed the golden termination cycle {golden.cycles}")
            while (index < total
                   and records[index].planned.injection.cycle == cycle):
                self._admit(records[index], finished, deferred)
                index += 1
            if self._tandems:
                self._service_tandems(finished)
            if gate and self._occupied_count and cycle % interval == 0:
                self._retire_converged(cycle, finished)
            if self._tandems:
                self._step_loud(cycle, cycle + 1, finished)
                continue
            stop = golden.cycles
            if index < total:
                stop = min(stop, records[index].planned.injection.cycle)
            if self._occupied_count:
                if gate:
                    stop = min(stop, cycle - cycle % interval + interval)
            elif not idle:
                # Retirement or a tandem's exit emptied the wavefront at
                # this cycle.  The teleport check runs only at the top of an
                # iteration, before those, so an emptied wavefront steps
                # this one cycle and teleports at the next.  Keep that step:
                # the shared and replayed cycles count it, and
                # tests/test_wavefront_pins.py pins them.
                stop = cycle + 1
            stop = max(stop, cycle + 1)
            if self._quiet():
                core.prepass = None
                core._advance(stop)
                stepped = core.cycle - cycle
                self.shared_cycles += stepped
                if stepped > 1:
                    self.segmented_cycles += stepped
            else:
                self._step_loud(cycle, stop, finished)
        if core.terminated:
            if (core.cycle != golden.cycles
                    or core._termination is not golden.reason
                    or core._trap is not golden.trap
                    or core.instructions_retired
                    != golden.instructions_retired):
                raise RuntimeError(
                    "batched lockstep replay reference lane diverged from "
                    f"the golden run (cycle {core.cycle} vs {golden.cycles}, "
                    f"reason {core._termination} vs {golden.reason})")
            for lane in np.nonzero(self._occupied)[0]:
                self._dispose_survivor(int(lane), finished)
            for tandem in list(self._tandems):
                self._hard_evict(tandem, finished)
        deferred.extend(records[index:])
        return finished, deferred

    def _quiet(self) -> bool:
        """True when the lane core is quiet (see the module docstring): no
        execute operand can become a column before the next event, so the
        core may run there in one segment without the pre-pass."""
        core = self._core
        v = core.latches.values
        if (type(v[E_RS1VAL]) is not int or type(v[E_RS2VAL]) is not int
                or type(v[M_RESULT]) is not int
                or type(v[X_RESULT]) is not int
                or type(v[W_RESULT]) is not int
                or (type(v[M_STOREVAL]) is not int and v[M_VALID]
                    and not v[M_TRAP] and v[M_OP] in _STORING_OPS)):
            return False
        registers = core.registers
        return (list(map(type, registers)).count(int) == len(registers)
                and not core.memory.has_columns())

    def _step_loud(self, cycle: int, stop: int,
                   finished: list[_LaneRecord]) -> None:
        """Step the lane core from ``cycle`` towards ``stop`` one cycle at a
        time behind the execute pre-pass.  Stops early when the run
        terminates or a tandem is live (a demotion spawned one), and
        co-steps the live tandems with the last cycle stepped."""
        core = self._core
        prepass = self._execute_prepass
        advance = core._advance
        start = cycle
        while cycle < stop:
            core.prepass = prepass()
            cycle += 1
            advance(cycle)
            if self._tandems or core._termination is not None:
                break
        self.shared_cycles += cycle - start
        if self._tandems:
            self._step_tandems(finished)

    # ------------------------------------------------------------------ lane lifecycle
    def _admit(self, record: _LaneRecord, finished: list[_LaneRecord],
               deferred: list[_LaneRecord]) -> None:
        planned = record.planned
        record.resumed_from = self._core.cycle
        record.segment_start = self._core.cycle
        if dead_on_arrival(self._core, self._golden, planned):
            # The reference lane stands where the scalar replay would ask:
            # the flip is overwritten before it is read, so no lane or
            # tandem is needed.
            folded = golden_copy(self._golden)
            record.replay = Replay(
                result=folded, outcome=classify_outcome(self._golden, folded),
                resumed_from=record.resumed_from, simulated_cycles=0,
                dead_on_arrival=True)
            finished.append(record)
            return
        if planned.suppressed:
            # The hardened cell absorbed the strike: a no-op lane.
            if not self._join_lane(record, flat_index=None):
                deferred.append(record)
            return
        site = self._registry.site(planned.injection.flat_index)
        position = self._core.latches.slot(site.structure.name)
        if self._core.lane_local[position]:
            if not self._join_lane(record, planned.injection.flat_index):
                deferred.append(record)
        else:
            # Control-plane flip: the instruction stream diverges from the
            # wavefront at the instant of injection.  Chase it in tandem.
            snapshot = self._core.lane_snapshot(0)
            flipped = list(snapshot.latches)
            flipped[position] ^= 1 << site.bit
            snapshot.latches = tuple(flipped)
            self._spawn_tandem(record, snapshot)

    def _join_lane(self, record: _LaneRecord, flat_index: int | None) -> bool:
        """Seat ``record`` in a free slot as a copy of the reference lane."""
        if not self._free_slots:
            return False
        slot = self._free_slots.pop()
        if flat_index is not None:
            self._core.flip(slot, flat_index)
        self._occupy(slot, record)
        return True

    def _occupy(self, slot: int, record: _LaneRecord) -> None:
        self._occupied[slot] = True
        self._occupied_count += 1
        self._slot_records[slot] = record
        self._inj_cycles[slot] = record.planned.injection.cycle
        record.slot = slot
        record.segment_start = self._core.cycle

    def _release_slot(self, slot: int) -> None:
        self._occupied[slot] = False
        self._occupied_count -= 1
        self._slot_records[slot] = None
        self._inj_cycles[slot] = np.iinfo(np.int64).max
        self._free_slots.append(slot)
        self._core.release(slot)

    def _spawn_tandem(self, record: _LaneRecord,
                      snapshot: CoreSnapshot) -> None:
        core = self._pool.acquire()
        core.restore(self._program, snapshot)
        self._tandems.append(
            _Tandem(core, record, deadline=self._core.cycle + _TANDEM_WINDOW,
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

    def _demote_divergent(self, mask: np.ndarray) -> None:
        """Demote the occupied lanes set in the boolean ``mask``.

        Called from the execute pre-pass *before* any stage mutates state,
        so the extracted snapshot is the lane's pristine start-of-cycle
        state -- exactly what a scalar replay would hold here.
        """
        mask &= self._occupied
        if mask.any():
            for lane in np.nonzero(mask)[0]:
                lane = int(lane)
                record = self._slot_records[lane]
                record.lockstep_cycles += self._core.cycle - record.segment_start
                snapshot = self._core.lane_snapshot(lane)
                self._release_slot(lane)
                self._spawn_tandem(record, snapshot)

    def _dispose_survivor(self, lane: int, finished: list[_LaneRecord]) -> None:
        core = self._core
        record = self._slot_records[lane]
        record.lockstep_cycles += core.cycle - record.segment_start
        result = RunResult(
            program_name=self._golden.program_name,
            core_name=self._golden.core_name,
            reason=core._termination,
            trap=core._trap,
            cycles=core.cycle,
            instructions_retired=core.instructions_retired,
            output=core.lane_output(lane),
            detections=[],
            recovery_cycles=0)
        self._release_slot(lane)
        record.replay = Replay(
            result=result, outcome=classify_outcome(self._golden, result),
            resumed_from=record.resumed_from,
            simulated_cycles=record.simulated_cycles)
        finished.append(record)

    def _retire_converged(self, cycle: int,
                          finished: list[_LaneRecord]) -> None:
        """Retire lanes whose architectural state re-converged with lane 0.

        Hint-only columns are excluded on purpose: the in-order core never
        reads them (the predictor is trained, never consulted), so a lane
        that matches architecturally emits golden output from here on --
        VANISHED, exactly what the scalar path reports for it.
        """
        eligible = np.flatnonzero(self._occupied & self._core.output_ok
                                  & (self._inj_cycles < cycle)).tolist()
        if not eligible:
            return
        golden = self._golden
        for lane in self._core.lanes_converged(eligible):
            record = self._slot_records[lane]
            record.lockstep_cycles += cycle - record.segment_start
            self._release_slot(lane)
            synthesized = golden_copy(golden)
            record.replay = Replay(
                result=synthesized,
                outcome=classify_outcome(golden, synthesized),
                resumed_from=record.resumed_from,
                simulated_cycles=record.simulated_cycles,
                converged_at=cycle)
            finished.append(record)

    # ------------------------------------------------------------------ tandems
    def _service_tandems(self, finished: list[_LaneRecord]) -> None:
        cycle = self._core.cycle
        for tandem in list(self._tandems):
            if self._free_slots and self._core.control_matches(tandem.core):
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
        slot = self._free_slots.pop()
        self._core.adopt(slot, tandem.core)
        self._occupy(slot, tandem.record)
        self._pool.release(tandem.core)

    def _step_tandems(self, finished: list[_LaneRecord]) -> None:
        for tandem in list(self._tandems):
            tandem.record.tandem_cycles += 1
            if not tandem.core.step():
                self._tandems.remove(tandem)
                self._hard_evict(tandem, finished, disposition="terminated")

    def _hard_evict(self, tandem: _Tandem, finished: list[_LaneRecord],
                    disposition: str = "evicted") -> None:
        """Finish a tandem on the plain scalar path through :func:`run_gated`.

        ``disposition`` is "evicted" for a tandem still diverged at its
        deadline or at golden termination, "terminated" for one whose run
        ended while co-stepping (``run_gated`` then returns at once).  The
        flip is long applied, so the run carries no injection, only the
        convergence gate a scalar replay of this injection runs under.
        (Grid cycles inside the tandem window need no check: a full-state
        fingerprint match implies control-plane equality, which would have
        rejoined the lane instead.)
        """
        core = tandem.core
        record = tandem.record
        record.evicted = True
        self._finish_tandem_span(tandem, disposition=disposition)
        start_cycle = core.cycle
        obs = self._obs
        with obs.tracer.span(
                PHASE_FALLBACK,
                args={"site": record.planned.injection.flat_index,
                      "from_cycle": start_cycle}):
            with obs.metrics.timer(PHASE_FALLBACK):
                injected, converged_at = run_gated(
                    core, self._checkpointed,
                    record.planned.injection.cycle, None,
                    metrics=obs.metrics if obs.detailed else NULL_METRICS)
        stopped = injected.cycles if converged_at is None else converged_at
        record.scalar_cycles += stopped - start_cycle
        record.replay = Replay(
            result=injected,
            outcome=classify_outcome(self._golden, injected),
            resumed_from=record.resumed_from,
            simulated_cycles=record.simulated_cycles,
            converged_at=converged_at)
        finished.append(record)
        self._pool.release(core)

    # ------------------------------------------------------------------ execute pre-pass
    def _execute_prepass(self) -> ExecuteResult | TrapKind | None:
        """Run the execute unit for every lane *before* any mutation, and
        demote the lanes whose control -- the trap kind, or the branch
        decision, branch target and memory address -- differs from the
        reference lane's.

        Only a column operand needs it: with two int operands every lane
        computes the same thing, so this returns ``None`` and
        :meth:`_LaneCore._execute` runs the scalar unit.  Otherwise the
        scalar unit runs once per distinct operand pair, and this returns
        what :meth:`_LaneCore._execute` hands the execute stage: lane 0's
        :class:`ExecuteResult` with its values as ints where the lanes agree
        and int64 columns where they do not, or the :class:`TrapKind` it
        raises.  A demoted lane takes lane 0's outcome, so the slot it
        leaves mirrors lane 0 like every free slot.  ``None`` too when the
        stage will not execute this cycle.

        Running ahead of the older stages is exact: they never touch the
        ``e.*`` latches this reads, and a demoted lane's snapshot must be
        its start-of-cycle state anyway.
        """
        v = self._core.latches.values
        if not v[E_VALID] or v[E_TRAP]:
            return None
        a = v[E_RS1VAL]
        b = v[E_RS2VAL]
        if type(a) is int and type(b) is int:
            return None  # every lane agrees: the stage runs the scalar unit
        lanes = self.lanes
        pairs = list(zip([a] * lanes if type(a) is int else a.tolist(),
                         [b] * lanes if type(b) is int else b.tolist()))
        op = v[E_OP]
        imm = v[E_IMM]
        if imm & 0x4000:  # sign-extend the 15-bit immediate
            imm -= 0x8000
        pc = v[E_PC]
        outcomes = {}
        for pair in dict.fromkeys(pairs):
            try:
                outcomes[pair] = execute_operation(op, pair[0], pair[1],
                                                   imm, pc)
            except ExecuteTrap as exc:
                outcomes[pair] = exc.kind
        reference = outcomes[pairs[0]]
        control = _control(reference)
        divergent = [pair for pair, outcome in outcomes.items()
                     if _control(outcome) != control]
        if divergent:
            self._demote_divergent(np.array([pair in divergent
                                             for pair in pairs]))
            for pair in divergent:
                outcomes[pair] = reference
        if type(reference) is TrapKind:
            return reference
        results = [outcomes[pair] for pair in pairs]
        reference.value = _merged([r.value for r in results])
        reference.store_value = _merged([r.store_value for r in results])
        reference.output_value = _merged([r.output_value for r in results])
        return reference


def _control(outcome: ExecuteResult | TrapKind):
    """What of an execute outcome steers the pipeline: the trap kind, or
    the branch decision, branch target and memory address."""
    if type(outcome) is TrapKind:
        return outcome
    return (outcome.branch_taken, outcome.branch_target,
            outcome.memory_address)


def _merged(values: list):
    """Per-lane ``values`` as one value where the lanes agree, else as an
    int64 column."""
    first = values[0]
    if values.count(first) == len(values):
        return first
    return np.array(values, dtype=np.int64)


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
                    width, pool, obs=obs)
                with obs.tracer.span(PHASE_LOCKSTEP,
                                     args={"riders": len(pending)}) as span:
                    with metrics.timer(PHASE_LOCKSTEP):
                        finished, deferred = wavefront.sweep(pending)
                    span.note(finished=len(finished),
                              shared_cycles=wavefront.shared_cycles)
                metrics.inc(CYCLES_WAVEFRONT_SHARED, wavefront.shared_cycles)
                metrics.inc(CYCLES_LOCKSTEP_SEGMENTED,
                            wavefront.segmented_cycles)
                for record in finished:
                    metrics.inc(CYCLES_LOCKSTEP, record.lockstep_cycles)
                    metrics.inc(CYCLES_TANDEM, record.tandem_cycles)
                    metrics.inc(CYCLES_FALLBACK, record.scalar_cycles)
                    if record.evicted:
                        metrics.inc(COUNT_EVICTED)
                    fold_replay(result, record.planned, record.replay, obs)
                if not finished:
                    # No lane made progress (degenerate plan, e.g. every
                    # injection beyond golden termination): fall back to
                    # scalar.
                    scalar.extend(record.planned for record in deferred)
                    break
                pending = deferred
        for planned in scalar:
            with obs.metrics.timer(PHASE_SCALAR_REPLAY):
                replay = replay_planned_injection(
                    spec.core, spec.program, planned, spec.checkpointed,
                    obs=obs if obs.tracer.enabled or obs.detailed else None)
            metrics.inc(CYCLES_SCALAR, replay.simulated_cycles)
            fold_replay(result, planned, replay, obs)
    if obs.tracer.enabled:
        result.trace_events = obs.tracer.events
    return result

