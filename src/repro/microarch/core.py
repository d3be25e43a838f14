"""Common simulated-core interface.

Every core model (in-order, out-of-order, monitor) implements
:class:`BaseCore`.  The fault-injection machinery and the resilience library
interact with cores *only* through this interface plus the flip-flop registry,
which keeps the cores free of any resilience-specific logic: protection
semantics are applied from the outside, on the cycles they concern.  A run
is stepped by :meth:`BaseCore._advance` from one such cycle to the next (an
injection, a convergence probe, a snapshot or fingerprint capture), with
nothing called in between; a per-cycle hook exists only to observe a run.
"""

from __future__ import annotations

import hashlib
import pickle
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from enum import Enum, unique
from typing import Callable

from repro.isa.program import Program
from repro.microarch.events import DetectionEvent, RunResult, TerminationReason, TrapKind
from repro.microarch.flipflop import FlipFlopRegistry
from repro.microarch.state import LatchState

CycleHook = Callable[["BaseCore", int], None]
"""Callback invoked at the start of every cycle: ``hook(core, cycle)``."""

DEFAULT_MAX_CYCLES = 2_000_000
"""Safety watchdog for golden (error-free) runs."""


@unique
class CoreClass(Enum):
    """Microarchitectural class of a core model.

    Workload-suite selection (``repro.workloads.suite.suite_for_core``) keys
    off this attribute instead of pattern-matching core *names*, so renamed
    or subclassed cores keep the correct benchmark subset.
    """

    IN_ORDER = "in-order"
    OUT_OF_ORDER = "out-of-order"


@dataclass
class CoreSnapshot:
    """Complete mid-run state of a core, captured at a cycle boundary.

    A snapshot taken at the *start* of cycle ``cycle`` (before that cycle
    steps) can be restored onto any identically-constructed core;
    :meth:`BaseCore.resume` then reproduces the remainder of the run
    bit-for-bit.  Snapshots are plain data (ints, lists, dicts) so they can be
    pickled to worker processes by the parallel injection engine.

    Attributes:
        core_name: name of the core the snapshot was taken from (validated on
            restore).
        cycle: cycle number at capture time.
        retired: committed instruction count.
        output: program output emitted so far.
        detections: resilience-technique detections raised so far.
        recovery_cycles: total hardware-recovery stall cycles charged.
        pending_recovery: recovery stall cycles not yet consumed.
        latches: flip-flop values in registry order
            (:meth:`~repro.microarch.state.LatchState.serialize`).
        micro: core-specific non-latch state (architectural registers, memory
            image, execution-unit bookkeeping) as produced by the core's
            ``_snapshot_microarchitecture``.
    """

    core_name: str
    cycle: int
    retired: int
    output: list[int]
    detections: list[DetectionEvent]
    recovery_cycles: int
    pending_recovery: int
    latches: tuple[int, ...]
    micro: dict = field(default_factory=dict)


class BaseCore(ABC):
    """Abstract base class for cycle-level core models.

    Concrete cores must populate ``self.registry`` with every sequential
    structure before calling :meth:`_finalize_state`, implement
    :meth:`_reset_microarchitecture` and :meth:`_step_cycle`, and advance the
    documented counters (``_retired``) as instructions commit.
    """

    hint_plane_inert: bool = False
    """True when no flip into a hint structure (``architectural=False``) can
    change the run: the core never reads its hint latches into behaviour, so
    such an undetected flip ends as a copy of the golden run.  A fact about
    the model, not an option; the injection engine folds those flips without
    simulating them (:func:`repro.engine.executors.is_inert`)."""

    dead_flip_fold: bool = False
    """True when the injection engine folds *dead* flips as golden copies:
    undetected flips into an architectural latch that the golden run next
    writes, or never touches again (:mod:`repro.engine.liveness`).  The
    fold is exact on any core whose stages reach their latches through
    ``latches.values`` items, and the logging run raises on any other
    access, so the flag is a cost decision: the first campaign on each
    golden run pays one logged re-run of it, 3.5-4.5x a plain run.  On the
    out-of-order core that pays after a few campaigns, because dead flips
    hold three quarters of its replay cycles.  The in-order core waits: its
    dead flips hold about 12% of its replay cycles (most of its live
    replays already re-converge), and its suite log costs about 2.0 s
    against 0.55 s of golden recording, so with the fold on a single
    campaign pass over 8 input sets (``campaign-ino-batched``) measured 6-9%
    slower on seeds 0 and 1."""

    def __init__(self, name: str, clock_mhz: float, core_class: CoreClass):
        self.name = name
        self.clock_mhz = clock_mhz
        self.core_class = core_class
        self.registry = FlipFlopRegistry(name)
        self.latches: LatchState | None = None
        # audit: allow[state-coverage] snapshots deliberately omit the program; restore(snapshot, program) re-binds it explicitly
        self._program: Program | None = None
        self._cycle = 0
        self._retired = 0
        self._output: list[int] = []
        self._detections: list[DetectionEvent] = []
        self._recovery_cycles = 0
        self._pending_recovery = 0
        # audit: allow[state-coverage] snapshots are only taken at live cycle boundaries, where termination is None by construction
        self._termination: TerminationReason | None = None
        # audit: allow[state-coverage] a trap latches into _termination the same cycle; never live at a snapshot boundary
        self._trap: TrapKind | None = None

    # ------------------------------------------------------------------ build
    def _finalize_state(self) -> None:
        """Freeze the registry and allocate latch storage (call once)."""
        self.registry.freeze()
        self.latches = LatchState(self.registry)

    # ------------------------------------------------------------------ introspection
    @property
    def cycle(self) -> int:
        """Current cycle number."""
        return self._cycle

    @property
    def instructions_retired(self) -> int:
        return self._retired

    @property
    def output(self) -> list[int]:
        """Program output emitted so far."""
        return self._output

    @property
    def program(self) -> Program | None:
        return self._program

    @property
    def flip_flop_count(self) -> int:
        return self.registry.total_flip_flops

    @property
    def terminated(self) -> bool:
        return self._termination is not None

    # ------------------------------------------------------------------ hooks for resilience logic
    def signal_detection(self, event: DetectionEvent) -> None:
        """Record an error detection raised by a resilience technique."""
        self._detections.append(event)

    def force_termination(self, reason: TerminationReason,
                          trap: TrapKind | None = None) -> None:
        """Terminate the run at the end of the current cycle."""
        if self._termination is None:
            self._termination = reason
            self._trap = trap

    def schedule_recovery(self, cycles: int) -> None:
        """Charge ``cycles`` of hardware-recovery stall to the run."""
        self._pending_recovery += cycles
        self._recovery_cycles += cycles

    def emit_output(self, value: int) -> None:
        """Append a value to the program output stream."""
        self._output.append(value & 0xFFFFFFFF)

    def note_retired(self, count: int = 1) -> None:
        """Record committed instructions."""
        self._retired += count

    # ------------------------------------------------------------------ template methods
    @abstractmethod
    def _reset_microarchitecture(self, program: Program) -> None:
        """Reset all core-specific state for a new run of ``program``."""

    @abstractmethod
    def _step_cycle(self) -> None:
        """Advance the core by one clock cycle."""

    @abstractmethod
    def _snapshot_microarchitecture(self) -> dict:
        """Capture all core-specific state not held in the latch registry.

        Must return plain (picklable) data; every mutable container must be
        copied so later simulation does not alias into the snapshot.
        """

    @abstractmethod
    def _restore_microarchitecture(self, micro: dict) -> None:
        """Restore state captured by :meth:`_snapshot_microarchitecture`.

        Must copy mutable containers out of ``micro`` so that restoring the
        same snapshot twice is safe.
        """

    @abstractmethod
    def _fingerprint_microarchitecture(self) -> tuple:
        """Canonical hashable key over the state of
        :meth:`_snapshot_microarchitecture`.

        Must be a plain (picklable, deterministic) value covering every field
        the snapshot captures, so that equal keys imply the snapshots would
        restore identical microarchitectural state.  Unlike the snapshot it
        never copies containers -- it only *reads* -- which is what makes
        fingerprints cheap enough for a dense convergence grid.
        """

    # ------------------------------------------------------------------ checkpointing
    def snapshot(self) -> CoreSnapshot:
        """Capture the complete simulation state at the current cycle boundary.

        Call at the start of a cycle (between :meth:`_advance` calls, or from
        a cycle hook) or after termination; the snapshot can later be handed
        to :meth:`restore`/:meth:`resume` on this core or any
        identically-constructed one.

        **Coverage contract.**  Every run-varying attribute a subclass adds
        must be captured here (via :meth:`_snapshot_microarchitecture`),
        re-adopted by :meth:`restore` (via
        :meth:`_restore_microarchitecture`), *and* hashed by
        :meth:`state_fingerprint` (via
        :meth:`_fingerprint_microarchitecture`) -- state that escapes any
        leg of the trio survives restore silently corrupted, and the
        convergence gate will declare divergent runs converged.  Such an
        attribute must also be assigned on the reset path (:meth:`reset` or
        :meth:`_reset_microarchitecture`), or a reused core carries it from
        one run into the next.  The ``state-coverage`` audit rule
        (``python -m repro.devtools.audit``) enforces this statically:
        attributes mutated outside ``__init__`` and the trio must appear in
        all three and on the reset path, or carry a reasoned
        ``# audit: allow[state-coverage]`` suppression at their declaration
        (as ``_program``, ``_termination`` and ``_trap`` do above).
        """
        if self.latches is None:
            raise RuntimeError("core state was never finalised")
        return CoreSnapshot(
            core_name=self.name,
            cycle=self._cycle,
            retired=self._retired,
            output=list(self._output),
            detections=[replace(d) for d in self._detections],
            recovery_cycles=self._recovery_cycles,
            pending_recovery=self._pending_recovery,
            latches=self.latches.serialize(),
            micro=self._snapshot_microarchitecture(),
        )

    def state_fingerprint(self) -> bytes:
        """Stable 128-bit digest of the complete simulation state.

        The fingerprint hashes exactly the state :meth:`snapshot` captures
        (and :meth:`restore` round-trips): cycle, retired count, emitted
        output prefix, detection log, recovery bookkeeping, every latch value
        and the core-specific microarchitectural key -- so two cores running
        the same program with equal fingerprints at the same cycle provably
        continue bit-identically from that cycle onwards.  That implication
        is what lets the injection engine terminate an injected run the
        moment its fingerprint re-converges with the golden run's.

        Digests are deterministic across processes (no ``hash()``-style
        per-process randomisation), so a grid recorded in the parent can be
        compared against in pool workers.

        The snapshot/fingerprint agreement is a checked invariant: the
        ``state-coverage`` rule of :mod:`repro.devtools` fails the audit
        when a subclass grows run-varying state that this digest (or the
        snapshot/restore pair) does not cover.
        """
        if self.latches is None:
            raise RuntimeError("core state was never finalised")
        digest = hashlib.blake2b(digest_size=16)
        digest.update(pickle.dumps((
            self._cycle, self._retired, self._recovery_cycles,
            self._pending_recovery, tuple(self._output),
            tuple((d.technique, d.cycle, d.detail, d.recovered)
                  for d in self._detections),
        ), protocol=4))
        digest.update(self.latches.fingerprint_digest())
        digest.update(pickle.dumps(self._fingerprint_microarchitecture(),
                                   protocol=4))
        return digest.digest()

    def restore(self, program: Program, snapshot: CoreSnapshot) -> None:
        """Adopt the state captured in ``snapshot`` for a run of ``program``.

        ``program`` must be the program that was running when the snapshot
        was taken (snapshots do not embed the program so that one pickled
        program instance can be shared across many checkpoints).
        """
        if self.latches is None:
            raise RuntimeError("core state was never finalised")
        if snapshot.core_name != self.name:
            raise ValueError(f"snapshot from core {snapshot.core_name!r} cannot "
                             f"be restored onto core {self.name!r}")
        self._program = program
        self._cycle = snapshot.cycle
        self._retired = snapshot.retired
        self._output = list(snapshot.output)
        self._detections = [replace(d) for d in snapshot.detections]
        self._recovery_cycles = snapshot.recovery_cycles
        self._pending_recovery = snapshot.pending_recovery
        self._termination = None
        self._trap = None
        self.latches.deserialize(snapshot.latches)
        self._restore_microarchitecture(snapshot.micro)

    # ------------------------------------------------------------------ run loop
    def reset(self, program: Program) -> None:
        """Prepare the core for a fresh run of ``program``."""
        if self.latches is None:
            raise RuntimeError("core state was never finalised")
        self._program = program
        self._cycle = 0
        self._retired = 0
        self._output = []
        self._detections = []
        self._recovery_cycles = 0
        self._pending_recovery = 0
        self._termination = None
        self._trap = None
        self.latches.clear()
        self._reset_microarchitecture(program)

    def _advance(self, stop: int) -> None:
        """Step cycles until the core reaches the start of cycle ``stop`` or
        terminates -- the one stepping loop every run goes through.

        A cycle with recovery stall pending is charged to the stall instead
        of stepping the pipeline: hardware recovery makes no architectural
        progress.  Nothing is called between cycles, so a caller that must
        act at the start of a cycle (apply an injection, probe or capture
        the state) advances to that cycle, acts, and advances again.
        """
        step_cycle = self._step_cycle
        while self._cycle < stop and self._termination is None:
            if self._pending_recovery > 0:
                self._pending_recovery -= 1
            else:
                step_cycle()
            self._cycle += 1

    def step(self) -> bool:
        """Advance one cycle.  Returns False once the run has terminated."""
        if self._termination is not None:
            return False
        self._advance(self._cycle + 1)
        return self._termination is None

    def run(self, program: Program, max_cycles: int = DEFAULT_MAX_CYCLES,
            cycle_hook: CycleHook | None = None) -> RunResult:
        """Run ``program`` to termination (or the ``max_cycles`` watchdog).

        ``cycle_hook``, when given, is called at the start of every cycle to
        observe the run (tests, the dead-flip access log).  Injections and
        grid captures do not need it: they act on the few cycles they
        concern and the core runs unobserved between them.
        """
        self.reset(program)
        return self._run_loop(max_cycles, cycle_hook)

    def resume(self, program: Program, snapshot: CoreSnapshot,
               max_cycles: int = DEFAULT_MAX_CYCLES,
               cycle_hook: CycleHook | None = None) -> RunResult:
        """Continue a run of ``program`` from ``snapshot`` to termination.

        Behaves exactly like :meth:`run` from the snapshot's cycle onwards:
        an observing cycle hook first fires at the snapshot cycle (the point
        at which the snapshot was captured), and ``max_cycles`` counts
        absolute cycles from cycle 0, so a resumed run reproduces an
        unresumed one bit-for-bit.
        """
        self.restore(program, snapshot)
        return self._run_loop(max_cycles, cycle_hook)

    def _run_loop(self, max_cycles: int,
                  cycle_hook: CycleHook | None = None) -> RunResult:
        """Finish the run: to termination, or a HANG at ``max_cycles``."""
        if cycle_hook is None:
            self._advance(max_cycles)
        else:
            while self._termination is None and self._cycle < max_cycles:
                cycle_hook(self, self._cycle)
                if self._termination is not None:
                    break
                self._advance(self._cycle + 1)
        if self._termination is None:
            self._termination = TerminationReason.HANG
        return RunResult(
            program_name=self._program.name if self._program else "",
            core_name=self.name,
            reason=self._termination,
            trap=self._trap,
            cycles=self._cycle,
            instructions_retired=self._retired,
            output=list(self._output),
            detections=list(self._detections),
            recovery_cycles=self._recovery_cycles,
        )
