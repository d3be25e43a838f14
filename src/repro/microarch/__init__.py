"""Micro-architectural substrate: flip-flop-accurate core models.

This package provides the two processor models the paper studies --
:class:`~repro.microarch.inorder.InOrderCore` (Leon3-class, "InO-core") and
:class:`~repro.microarch.ooo.OutOfOrderCore` (IVM-class, "OoO-core") -- plus
the flip-flop registry and latch-state machinery that makes flip-flop-level
fault injection possible.
"""

from repro.microarch.core import BaseCore, CoreClass, CoreSnapshot, DEFAULT_MAX_CYCLES
from repro.microarch.events import (
    DetectionEvent,
    RunResult,
    TerminationReason,
    TrapKind,
)
from repro.microarch.flipflop import FaultSite, FlipFlopRegistry, FlipFlopStructure
from repro.microarch.inorder import InOrderCore, INO_CLOCK_MHZ
from repro.microarch.memory import (
    BatchedWordStore,
    MemoryFault,
    MemoryRegion,
    MemorySystem,
)
from repro.microarch.ooo import OutOfOrderCore, OOO_CLOCK_MHZ
from repro.microarch.state import LatchState

__all__ = [
    "BaseCore",
    "CoreClass",
    "CoreSnapshot",
    "DEFAULT_MAX_CYCLES",
    "DetectionEvent",
    "RunResult",
    "TerminationReason",
    "TrapKind",
    "FaultSite",
    "FlipFlopRegistry",
    "FlipFlopStructure",
    "InOrderCore",
    "INO_CLOCK_MHZ",
    "BatchedWordStore",
    "MemoryFault",
    "MemoryRegion",
    "MemorySystem",
    "OutOfOrderCore",
    "OOO_CLOCK_MHZ",
    "LatchState",
]
