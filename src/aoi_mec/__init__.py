"""Average AoI / peak AoI analysis of a multi-user MEC offloading system.

Library layout:
    model      - system parameterization, derived rates, stability,
                 error types, simulation controls (SimParams)
    analytic   - closed-form average AoI / PAoI, bounds, optimal ratio
    simulate   - discrete-event-equivalent tandem FCFS simulator + estimators
    optimize   - offloading-ratio search
    validation - simulation vs closed forms, term by term
    cli        - command-line front end (analytic / sweep / validate / optimize)

`import aoi_mec` loads model and analytic only, which need nothing beyond
the standard library. The other names are served on first access
(PEP 562): Estimate, SimResult and simulate_mec from simulate and
run_validation from validation, which need numpy; OptResult,
stable_p_interval and search_p from optimize, which loads numpy only for
a search grid of optimize.ARRAY_MIN_POINTS points or more. So are the
submodules simulate, optimize and validation themselves.
"""

import importlib

from .model import (
    EDGE,
    LOCAL,
    PARTIAL,
    ConfigParseError,
    DerivedRates,
    DivergenceWarning,
    EmptyStableInterval,
    InvalidParams,
    NotHomogeneous,
    Scheme,
    SimParams,
    StabilityReport,
    SystemConfig,
    UnstableConfig,
    check_stability,
    derive_rates,
    is_homogeneous,
)
from .analytic import (
    AoiBounds,
    AoiMetrics,
    POptResult,
    aoi_bounds,
    p_opt_paoi,
    system_metrics,
)

_LAZY = {
    "simulate": ("Estimate", "SimResult", "simulate_mec"),
    "optimize": ("OptResult", "stable_p_interval", "search_p"),
    "validation": ("run_validation",),
}
_LAZY_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    if name in _LAZY:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _LAZY_HOME:
        module = importlib.import_module(f"{__name__}.{_LAZY_HOME[name]}")
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    "UnstableConfig",
    "NotHomogeneous",
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
    "stable_p_interval",
    "search_p",
    "run_validation",
]

__version__ = "0.1.0"
