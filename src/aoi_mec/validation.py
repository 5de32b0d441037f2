"""Validation: simulate one config and compare every closed-form quantity.

The report holds the system AoI and peak AoI and, per UE, the three
per-stage correlation terms E[Y_j W] (edge, transmission, local), each
judged against its simulated estimate in standard errors. The bound is
the t(R - 1) quantile that keeps the chance of any false failure among
all 2 + 3N terms at FAMILY_LEVEL (z_bound).
"""

import math
import warnings
from dataclasses import dataclass, replace

from . import analytic
from .model import InvalidParams, SystemConfig, derive_rates, require_stable
from .simulate import DivergenceWarning, SimParams, _t_quantile, simulate_mec

# Chance that a run whose closed forms are all exact fails some term.
FAMILY_LEVEL = 0.01


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
    bound: float


def z_bound(replications: int, terms: int) -> float:
    """The |z| a term may reach and pass, for R replications and `terms` terms.

    A term's z divides the mean of R replication estimates by their
    standard error, so it follows Student's t with R - 1 degrees of
    freedom. The Sidak correction gives each of the terms the two-sided
    level 1 - (1 - FAMILY_LEVEL)^(1/terms), so that all of them pass
    together with probability 1 - FAMILY_LEVEL when they are independent.
    """
    level = -math.expm1(math.log1p(-FAMILY_LEVEL) / terms)
    return _t_quantile(1.0 - level / 2.0, replications - 1)


def _compare(name, expected, est, bound) -> ValidationRow:
    if est.se == 0.0:
        exact = est.value == expected
        z = 0.0 if exact else math.copysign(math.inf, est.value - expected)
        return ValidationRow(name, expected, est.value, 0.0, z, exact)
    z = (est.value - expected) / est.se
    return ValidationRow(name, expected, est.value, est.se, z, abs(z) <= bound)


def run_validation(cfg: SystemConfig, params: SimParams) -> ValidationReport:
    """Simulate cfg and compare every closed-form quantity at z_bound standard errors."""
    require_stable(cfg)
    if params.replications < 2:
        raise InvalidParams("validation needs at least 2 replications for standard errors")

    params = replace(params, record_correlations=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DivergenceWarning)
        result = simulate_mec(cfg, params)

    bound = z_bound(params.replications, 2 + 3 * cfg.num_ues)
    metrics = analytic.system_metrics(cfg)
    rows = [
        _compare("system_aoi", metrics.system_aoi, result.system_aoi, bound),
        _compare("system_paoi", metrics.system_paoi, result.system_paoi, bound),
    ]
    corr = result.correlations
    rates = derive_rates(cfg)
    kind = analytic._kind(cfg.scheme.p, rates.eff_edge)
    for n in range(cfg.num_ues):
        yw_edge, yw_tx, yw_local = analytic._stage_terms(kind, *analytic._ue(rates, n))
        rows.append(_compare(f"yw_edge[{n}]", yw_edge, corr.yw_edge[n], bound))
        rows.append(_compare(f"yw_tx[{n}]", yw_tx, corr.yw_tx[n], bound))
        rows.append(_compare(f"yw_local[{n}]", yw_local, corr.yw_local[n], bound))
    return ValidationReport(tuple(rows), all(row.ok for row in rows), bound)
