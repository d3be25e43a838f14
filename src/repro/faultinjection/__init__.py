"""Reliability analysis: flip-flop-level soft-error injection.

Implements the paper's reliability-analysis component: single-bit flip-flop
injection with outcome classification (Vanished / OMM / UT / Hang / ED),
statistical campaigns with margin-of-error reporting, per-flip-flop
vulnerability maps, a calibrated vulnerability model for table-scale
experiments, SEMU modelling and the naive higher-level injection models of
Tables 11/14.
"""

from repro.faultinjection.calibrated import (
    CalibratedVulnerabilityModel,
    CalibrationProfile,
    INO_PROFILE,
    OOO_PROFILE,
    profile_for_core,
)
from repro.faultinjection.campaign import CampaignResult
from repro.faultinjection.injector import (
    FlipFlopInjector,
    Injection,
    SiteProtection,
    exhaustive_site_plan,
    uniform_injection_plan,
)
from repro.faultinjection.levels import (
    HighLevelCampaignResult,
    HighLevelInjection,
    HighLevelInjector,
    InjectionLevel,
)
from repro.faultinjection.outcomes import (
    OutcomeCategory,
    OutcomeCounts,
    classify_outcome,
    margin_of_error,
)
from repro.faultinjection.semu import SemuEvent, SemuModel
from repro.faultinjection.vulnerability import VulnerabilityMap

__all__ = [
    "CalibratedVulnerabilityModel",
    "CalibrationProfile",
    "INO_PROFILE",
    "OOO_PROFILE",
    "profile_for_core",
    "CampaignResult",
    "FlipFlopInjector",
    "Injection",
    "SiteProtection",
    "exhaustive_site_plan",
    "uniform_injection_plan",
    "HighLevelCampaignResult",
    "HighLevelInjection",
    "HighLevelInjector",
    "InjectionLevel",
    "OutcomeCategory",
    "OutcomeCounts",
    "classify_outcome",
    "margin_of_error",
    "SemuEvent",
    "SemuModel",
    "VulnerabilityMap",
]
