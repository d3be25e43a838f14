"""Flip-flop-level soft-error injection.

An :class:`Injection` names a flip-flop (by flat index) and a cycle.  The
:class:`FlipFlopInjector` runs a program on a core with that single bit flip
applied at the chosen cycle and classifies the outcome against a golden run.

The injector is also where low-level protection semantics are honoured.  A
*protection provider* (normally a
:class:`repro.resilience.design.ProtectedDesign`) can describe, per flip-flop:

* **hardening** -- the flip is suppressed with the hardened cell's soft error
  rate ratio (LEAP-DICE suppresses virtually every upset, LHL three out of
  four, ...);
* **detection** (logic parity / EDS) -- the flip is detected one cycle after
  it is latched; with a hardware recovery mechanism that can reach the
  affected flip-flop the error is corrected (the pipeline is rolled back and
  charged the recovery latency), otherwise the run terminates as a detected
  but uncorrected error.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Protocol

from repro.microarch.core import BaseCore
from repro.microarch.events import DetectionEvent, RunResult, TerminationReason
from repro.faultinjection.outcomes import OutcomeCategory, classify_outcome
from repro.isa.program import Program

HANG_FACTOR = 2.0
"""Watchdog multiplier: a run is a Hang past 2x the nominal execution time."""


@dataclass(frozen=True)
class Injection:
    """A single soft-error injection target."""

    flat_index: int
    cycle: int


@dataclass(frozen=True)
class SiteProtection:
    """Low-level protection attributes of one flip-flop.

    Attributes:
        technique: short name of the protecting technique ("leap-dice",
            "lhl", "parity", "eds", ...), empty when unprotected.
        suppression: probability that an upset is masked outright (hardened
            cells).  1.0 means the cell never upsets in practice.
        detects: True when the flip is detected (parity / EDS).
        recoverable: True when an attached hardware recovery mechanism can
            recover errors in this flip-flop.
        recovery_latency: cycles charged for a recovery.
    """

    technique: str = ""
    suppression: float = 0.0
    detects: bool = False
    recoverable: bool = False
    recovery_latency: int = 0


class ProtectionProvider(Protocol):
    """Anything that can describe per-flip-flop low-level protection."""

    def site_protection(self, flat_index: int) -> SiteProtection:
        """Return the protection attributes of one flip-flop."""
        ...  # pragma: no cover - protocol definition


def injection_watchdog(golden: RunResult) -> int:
    """Cycle limit for an injected run (Hang classification threshold)."""
    return max(int(golden.cycles * HANG_FACTOR), golden.cycles + 64)


Inject = Callable[[BaseCore], None]
"""A one-shot injection: ``inject(core)`` applies it to a core standing at
the start of the injection cycle (see :func:`inject_at`)."""


def build_injection(injection: Injection, protection: SiteProtection,
                    suppressed: bool) -> Inject:
    """Build the one-shot action that applies ``injection`` to a core.

    ``suppressed`` is the (already-drawn) outcome of the hardened cell's
    suppression lottery; resolving it up-front keeps the action
    deterministic, which lets the injection engine pre-plan suppression
    decisions centrally and replay injections in any order (or any process)
    without disturbing the random stream.
    """

    def inject(core: BaseCore) -> None:
        if suppressed:
            # The hardened cell absorbed the strike: no state change.
            return
        cycle = core.cycle
        if protection.detects and protection.recoverable:
            # Detection one cycle after the upset followed by hardware
            # recovery: architecturally equivalent to absorbing the
            # upset, at the cost of the recovery latency.
            core.signal_detection(DetectionEvent(
                technique=protection.technique, cycle=cycle + 1,
                detail=f"ff={injection.flat_index}", recovered=True))
            core.schedule_recovery(protection.recovery_latency)
            return
        structure = core.latches.flip_flat(injection.flat_index)
        if protection.detects:
            core.signal_detection(DetectionEvent(
                technique=protection.technique, cycle=cycle + 1,
                detail=f"ff={injection.flat_index} structure={structure}",
                recovered=False))
            core.force_termination(TerminationReason.DETECTED)

    return inject


def inject_at(core: BaseCore, cycle: int, inject: Inject | None,
              watchdog: int) -> None:
    """Advance ``core`` to the start of ``cycle`` and apply ``inject`` there:
    after the watchdog check, before the cycle steps.

    Nothing is applied when ``inject`` is None, when the run terminates or
    meets its ``watchdog`` first, or when the core already stands past
    ``cycle``.
    """
    core._advance(min(cycle, watchdog))
    if (inject is not None and core.cycle == cycle < watchdog
            and not core.terminated):
        inject(core)


class FlipFlopInjector:
    """Runs single-bit flip-flop injections on a core."""

    def __init__(self, core: BaseCore, protection: ProtectionProvider | None = None,
                 seed: int = 0):
        self.core = core
        self.protection = protection
        self._rng = random.Random(seed)

    # ------------------------------------------------------------------ golden
    def golden_run(self, program: Program, max_cycles: int | None = None) -> RunResult:
        """Run the program without injections (the reference run)."""
        from repro.microarch.core import DEFAULT_MAX_CYCLES

        return self.core.run(program, max_cycles=max_cycles or DEFAULT_MAX_CYCLES)

    # ------------------------------------------------------------------ injected
    def run_with_injection(self, program: Program, injection: Injection,
                           golden: RunResult) -> tuple[RunResult, OutcomeCategory]:
        """Run one injection and classify its outcome against ``golden``."""
        watchdog = injection_watchdog(golden)
        core = self.core
        core.reset(program)
        inject_at(core, injection.cycle, self._build_injection(injection),
                  watchdog)
        injected = core._run_loop(watchdog)
        return injected, classify_outcome(golden, injected)

    def _build_injection(self, injection: Injection) -> Inject:
        protection = (self.protection.site_protection(injection.flat_index)
                      if self.protection is not None else SiteProtection())
        # One suppression draw per injection, in call order -- the injection
        # engine reproduces this exact stream when it pre-plans campaigns.
        suppressed = (protection.suppression > 0.0
                      and self._rng.random() < protection.suppression)
        return build_injection(injection, protection, suppressed)


def _sampled_plan(sites: Iterable[int], golden_cycles: int,
                  rng: random.Random) -> list[Injection]:
    """Pair every site in ``sites`` with a uniformly-sampled golden-run cycle.

    The ``max(1, golden_cycles)`` guard keeps the cycle draw well-defined for
    degenerate zero-cycle golden runs (e.g. an empty program that faults on
    its first fetch): the injection then targets cycle 0, which the watchdog
    still executes.  ``sites`` may itself draw from ``rng``; it is consumed
    lazily so site and cycle draws interleave one injection at a time.
    """
    cycle_span = max(1, golden_cycles)
    return [Injection(flat_index=site, cycle=rng.randrange(cycle_span))
            for site in sites]


def uniform_injection_plan(total_flip_flops: int, golden_cycles: int, count: int,
                           seed: int = 0) -> list[Injection]:
    """Sample ``count`` (flip-flop, cycle) pairs uniformly, as in the paper.

    Errors are injected uniformly into all flip-flops and all application
    regions (cycles of the golden run), mimicking real-world strikes.
    """
    rng = random.Random(seed)
    sites = (rng.randrange(total_flip_flops) for _ in range(count))
    return _sampled_plan(sites, golden_cycles, rng)


def exhaustive_site_plan(total_flip_flops: int, golden_cycles: int,
                         samples_per_flip_flop: int, seed: int = 0) -> list[Injection]:
    """Sample a fixed number of cycles for every flip-flop.

    Used when per-flip-flop vulnerability estimates are needed (selective
    hardening), where uniform sampling would leave most flip-flops with too
    few samples.
    """
    rng = random.Random(seed)
    sites = (flat_index
             for flat_index in range(total_flip_flops)
             for _ in range(samples_per_flip_flop))
    return _sampled_plan(sites, golden_cycles, rng)
