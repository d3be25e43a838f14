"""Simulation events, termination reasons and run results.

A single program run on a simulated core ends in exactly one of the
termination reasons below.  The fault-injection outcome classifier
(:mod:`repro.faultinjection.outcomes`) maps a *pair* of runs (golden,
injected) onto the paper's outcome categories (Vanished / OMM / UT / Hang /
ED).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, unique


@unique
class TerminationReason(Enum):
    """Why a simulated run stopped."""

    HALTED = "halted"              # program executed HALT normally
    TRAP = "trap"                  # illegal instruction, memory fault, ...
    HANG = "hang"                  # exceeded the watchdog cycle limit
    DETECTED = "detected"          # a resilience technique flagged an error


@unique
class TrapKind(Enum):
    """Specific trap causes (recorded for diagnostics and DUE analysis)."""

    ILLEGAL_INSTRUCTION = "illegal_instruction"
    MEMORY_FAULT = "memory_fault"
    FETCH_FAULT = "fetch_fault"
    DIVIDE_BY_ZERO = "divide_by_zero"
    SOFTWARE_ASSERTION = "software_assertion"


@dataclass
class DetectionEvent:
    """An error detection raised by a resilience technique during a run.

    Attributes:
        technique: short technique name (``"parity"``, ``"eddi"``, ...).
        cycle: cycle at which the detection fired.
        detail: free-form description (structure name, check id, ...).
        recovered: True when an attached hardware recovery mechanism
            recovered the error in-run (the run then continues).
    """

    technique: str
    cycle: int
    detail: str = ""
    recovered: bool = False


@dataclass
class RunResult:
    """Outcome of running one program once on one core configuration.

    Attributes:
        program_name: name of the executed program.
        core_name: name of the core model.
        reason: how the run terminated.
        trap: trap cause when ``reason`` is TRAP, else None.
        cycles: cycles elapsed until termination.
        instructions_retired: committed instruction count.
        output: the program output stream (values emitted by ``out``).
        detections: resilience-technique detections raised during the run.
        recovery_cycles: extra cycles spent in hardware recovery.
    """

    program_name: str
    core_name: str
    reason: TerminationReason
    trap: TrapKind | None = None
    cycles: int = 0
    instructions_retired: int = 0
    output: list[int] = field(default_factory=list)
    detections: list[DetectionEvent] = field(default_factory=list)
    recovery_cycles: int = 0

    @property
    def ipc(self) -> float:
        """Instructions per cycle for the run (0 when no cycles elapsed)."""
        if self.cycles == 0:
            return 0.0
        return self.instructions_retired / self.cycles

    @property
    def normal_termination(self) -> bool:
        """True when the program ran to completion (HALT committed)."""
        return self.reason is TerminationReason.HALTED

    def unrecovered_detections(self) -> list[DetectionEvent]:
        """Detections that were not recovered by hardware recovery."""
        return [d for d in self.detections if not d.recovered]
