"""Validation: simulate one config and compare every closed-form quantity.

The report holds the system AoI and peak AoI and, per UE, the three
per-stage correlation terms E[Y_j W] (edge, transmission, local), each
judged against its simulated estimate at MAX_ABS_Z standard errors.
"""

import math
import warnings
from dataclasses import dataclass, replace

from . import analytic
from .model import InvalidParams, SystemConfig, require_stable
from .simulate import DivergenceWarning, SimParams, simulate_mec

# A term passes when its estimate lies within this many standard errors.
MAX_ABS_Z = 3.0


@dataclass(frozen=True)
class ValidationRow:
    name: str
    analytic: float
    estimate: float
    se: float
    z: float
    ok: bool


@dataclass(frozen=True)
class ValidationReport:
    rows: tuple
    passed: bool


def _compare(name, expected, est) -> ValidationRow:
    if est.se == 0.0:
        exact = est.value == expected
        z = 0.0 if exact else math.copysign(math.inf, est.value - expected)
        return ValidationRow(name, expected, est.value, 0.0, z, exact)
    z = (est.value - expected) / est.se
    return ValidationRow(name, expected, est.value, est.se, z, abs(z) <= MAX_ABS_Z)


def run_validation(cfg: SystemConfig, params: SimParams) -> ValidationReport:
    """Simulate cfg and compare every closed-form quantity at MAX_ABS_Z standard errors."""
    require_stable(cfg)
    if params.replications < 2:
        raise InvalidParams("validation needs at least 2 replications for standard errors")

    params = replace(params, record_correlations=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DivergenceWarning)
        result = simulate_mec(cfg, params)

    metrics = analytic.system_metrics(cfg)
    rows = [
        _compare("system_aoi", metrics.system_aoi, result.system_aoi),
        _compare("system_paoi", metrics.system_paoi, result.system_paoi),
    ]
    corr = result.correlations
    for n in range(cfg.num_ues):
        yw_edge, yw_tx, yw_local = analytic.e_yw(cfg, n)
        rows.append(_compare(f"yw_edge[{n}]", yw_edge, corr.yw_edge[n]))
        rows.append(_compare(f"yw_tx[{n}]", yw_tx, corr.yw_tx[n]))
        rows.append(_compare(f"yw_local[{n}]", yw_local, corr.yw_local[n]))
    return ValidationReport(tuple(rows), all(row.ok for row in rows))
