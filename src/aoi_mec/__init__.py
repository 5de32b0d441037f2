"""Average AoI / peak AoI analysis of a multi-user MEC offloading system.

Library layout:
    model      - system parameterization, derived rates, stability
    analytic   - closed-form average AoI / PAoI, bounds, optimal ratio
    simulate   - discrete-event-equivalent tandem FCFS simulator + estimators
    optimize   - offloading-ratio search and scheme comparison
    validation - simulation vs closed forms, term by term
    cli        - command-line front end (analytic / sweep / validate / optimize)
"""

from .model import (
    EDGE,
    LOCAL,
    PARTIAL,
    ConfigParseError,
    DerivedRates,
    EmptyStableInterval,
    InvalidParams,
    NotHomogeneous,
    Scheme,
    SingularityUnresolved,
    StabilityReport,
    SystemConfig,
    UnstableConfig,
    check_stability,
    derive_rates,
    is_homogeneous,
    normalize_scheme,
)
from .analytic import (
    AoiBounds,
    AoiMetrics,
    POptResult,
    aoi_bounds,
    p_opt_paoi,
    system_metrics,
)
from .simulate import (
    DivergenceWarning,
    Estimate,
    SimParams,
    SimResult,
    simulate_mec,
)
from .optimize import (
    OptResult,
    SchemeComparison,
    compare_schemes,
    search_p,
    stable_p_interval,
)
from .validation import run_validation

__all__ = [
    "LOCAL",
    "EDGE",
    "PARTIAL",
    "Scheme",
    "SystemConfig",
    "DerivedRates",
    "StabilityReport",
    "derive_rates",
    "check_stability",
    "is_homogeneous",
    "normalize_scheme",
    "UnstableConfig",
    "NotHomogeneous",
    "SingularityUnresolved",
    "InvalidParams",
    "ConfigParseError",
    "EmptyStableInterval",
    "AoiMetrics",
    "AoiBounds",
    "POptResult",
    "system_metrics",
    "aoi_bounds",
    "p_opt_paoi",
    "SimParams",
    "SimResult",
    "Estimate",
    "DivergenceWarning",
    "simulate_mec",
    "OptResult",
    "SchemeComparison",
    "stable_p_interval",
    "search_p",
    "compare_schemes",
    "run_validation",
]

__version__ = "0.1.0"
