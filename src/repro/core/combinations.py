"""Enumeration of the 586 cross-layer combinations (Table 18).

A *combination* is a set of detection/correction techniques plus an optional
hardware recovery mechanism.  Not every subset is valid: ABFT correction and
detection are mutually exclusive, monitor cores are not considered for the
in-order core (same order of size as the core itself), flush/RoB recovery
requires hardening of the unrecoverable stages and a low-level detection
technique, IR recovery pairs with low-level detection, and EIR exists to
give DFC a recovery path (Sec. 2.4, Sec. 3).

The enumeration below reproduces the paper's counting exactly:
417 combinations for the InO-core, 169 for the OoO-core, 586 total.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations as subsets

from repro.physical.cells import RecoveryKind

#: Technique name constants used in combination tuples.
LEAP_DICE = "leap-dice"
EDS = "eds"
PARITY = "parity"
DFC = "dfc"
ASSERTIONS = "assertions"
CFCSS = "cfcss"
EDDI = "eddi"
MONITOR = "monitor-core"
ABFT_CORRECTION = "abft-correction"
ABFT_DETECTION = "abft-detection"

INO_BASE_TECHNIQUES = (LEAP_DICE, EDS, PARITY, DFC, ASSERTIONS, CFCSS, EDDI)
OOO_BASE_TECHNIQUES = (LEAP_DICE, EDS, PARITY, DFC, MONITOR)


@dataclass(frozen=True)
class CrossLayerCombination:
    """One candidate cross-layer resilience combination."""

    core_family: str
    techniques: tuple[str, ...]
    recovery: RecoveryKind

    @property
    def label(self) -> str:
        recovery = "" if self.recovery is RecoveryKind.NONE else f" + {self.recovery.value}"
        return " + ".join(self.techniques) + recovery

    @property
    def has_tunable_technique(self) -> bool:
        return any(t in (LEAP_DICE, EDS, PARITY) for t in self.techniques)


def _non_empty_subsets(techniques: tuple[str, ...]):
    for size in range(1, len(techniques) + 1):
        yield from subsets(techniques, size)


def _no_recovery_combinations(family: str, base: tuple[str, ...]):
    return [CrossLayerCombination(family, subset, RecoveryKind.NONE)
            for subset in _non_empty_subsets(base)]


def _flush_rob_combinations(family: str) -> list[CrossLayerCombination]:
    """Flush (InO) / RoB (OoO) recovery combinations.

    The unrecoverable pipeline stages must be hardened with LEAP-DICE, and at
    least one detection technique recoverable at that latency must be present
    (parity / EDS, plus the monitor core on the OoO-core).
    """
    if family == "InO":
        recovery = RecoveryKind.FLUSH
        detectors = (PARITY, EDS)
    else:
        recovery = RecoveryKind.ROB
        detectors = (PARITY, EDS, MONITOR)
    result = []
    for subset in _non_empty_subsets(detectors):
        result.append(CrossLayerCombination(family, (LEAP_DICE, *subset), recovery))
    return result


def _ir_eir_combinations(family: str) -> list[CrossLayerCombination]:
    """Instruction-replay (IR) and extended-IR (EIR) combinations.

    IR pairs with the low-latency detectors (parity/EDS/monitor core),
    optionally alongside selective LEAP-DICE; EIR exists to provide DFC with
    recovery and is enumerated with DFC plus any subset of the low-level
    techniques.
    """
    if family == "InO":
        detectors = (PARITY, EDS)
        eir_extras = (PARITY, EDS, LEAP_DICE)
    else:
        detectors = (PARITY, EDS, MONITOR)
        eir_extras = (PARITY, EDS, MONITOR, LEAP_DICE)
    result = []
    for subset in _non_empty_subsets(detectors):
        result.append(CrossLayerCombination(family, subset, RecoveryKind.IR))
        result.append(CrossLayerCombination(family, (LEAP_DICE, *subset), RecoveryKind.IR))
    # Drop duplicates created when LEAP_DICE is already in the subset.
    unique_ir = {c.techniques: c for c in result}
    result = list(unique_ir.values())
    for size in range(0, len(eir_extras) + 1):
        for extra in subsets(eir_extras, size):
            result.append(CrossLayerCombination(family, (DFC, *extra), RecoveryKind.EIR))
    return result


def enumerate_combinations(core_family: str) -> list[CrossLayerCombination]:
    """All valid combinations for one core family (Table 18 rows)."""
    base = INO_BASE_TECHNIQUES if core_family == "InO" else OOO_BASE_TECHNIQUES
    plain = (_no_recovery_combinations(core_family, base)
             + _flush_rob_combinations(core_family)
             + _ir_eir_combinations(core_family))
    result = list(plain)
    # ABFT correction / detection alone.
    result.append(CrossLayerCombination(core_family, (ABFT_CORRECTION,), RecoveryKind.NONE))
    result.append(CrossLayerCombination(core_family, (ABFT_DETECTION,), RecoveryKind.NONE))
    # ABFT correction combined with every previous combination.
    result.extend(CrossLayerCombination(core_family,
                                        (ABFT_CORRECTION, *combo.techniques), combo.recovery)
                  for combo in plain)
    # ABFT detection combined with the no-recovery combinations only (its
    # detection latency rules out hardware recovery).
    result.extend(CrossLayerCombination(core_family,
                                        (ABFT_DETECTION, *combo.techniques), RecoveryKind.NONE)
                  for combo in plain if combo.recovery is RecoveryKind.NONE)
    return result


def combination_counts(core_family: str) -> dict[str, int]:
    """Combination counts broken down as in Table 18."""
    base = INO_BASE_TECHNIQUES if core_family == "InO" else OOO_BASE_TECHNIQUES
    no_recovery = len(_no_recovery_combinations(core_family, base))
    flush_rob = len(_flush_rob_combinations(core_family))
    ir_eir = len(_ir_eir_combinations(core_family))
    base_total = no_recovery + flush_rob + ir_eir
    return {
        "base_no_recovery": no_recovery,
        "base_flush_rob": flush_rob,
        "base_ir_eir": ir_eir,
        "base_total": base_total,
        "abft_alone": 2,
        "abft_correction_plus": base_total,
        "abft_detection_plus": no_recovery,
        "total": base_total * 2 + 2 + no_recovery,
    }


def total_combination_count() -> int:
    """Total number of cross-layer combinations explored (586)."""
    return combination_counts("InO")["total"] + combination_counts("OoO")["total"]
