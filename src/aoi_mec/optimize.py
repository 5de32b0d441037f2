"""Offloading-ratio optimization and scheme comparison.

The peak-AoI-minimizing ratio has a closed form (analytic.p_opt_paoi);
the AoI-minimizing ratio does not, so the canonical method here is a
grid scan of the analytic objective over the stable ratio interval
followed by local refinement. Peak AoI is convex in p, so refinement is
always safe; AoI is refined only after the grid scan shows a single
local minimum, otherwise the grid argmin is returned as-is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import optimize as sp_opt

from .model import (
    EmptyStableInterval,
    NotHomogeneous,
    Scheme,
    SystemConfig,
    UnstableConfig,
    is_homogeneous,
)
from . import analytic

REFINE_TOL = 1e-6

_OBJECTIVES = ("aoi", "paoi")


@dataclass(frozen=True)
class OptResult:
    """Outcome of an offloading-ratio optimization.

    method is "golden" (grid scan plus local refinement) or "grid" (scan
    only, used when the AoI objective does not look unimodal on the
    grid). evaluations counts objective evaluations at stable ratios.
    """

    best_p: float
    best_value: float
    objective: str
    method: str
    stable_interval: tuple[float, float]
    evaluations: int


@dataclass(frozen=True)
class SchemeComparison:
    """Analytic metrics of the three schemes on one parameter set.

    partial is evaluated at the closed-form peak-AoI-optimal ratio
    partial_p. Unstable schemes carry infinite metrics and are never
    labeled best. best_aoi / best_paoi are in {"local", "edge",
    "partial"}.
    """

    local: analytic.AoiMetrics
    edge: analytic.AoiMetrics
    partial: analytic.AoiMetrics
    partial_p: float
    best_aoi: str
    best_paoi: str


def stable_p_interval(cfg: SystemConfig) -> Optional[tuple[float, float]]:
    """Offloading ratios keeping every queue stable, or None if empty.

    The transmission queue does not depend on p: lam >= mu_d kills the
    whole interval. The edge queue needs p < mu_b/lam, the local queues
    p > 1 - mu_h/lam_h; both clamped to [0, 1]. Interior points of the
    returned interval are strictly stable; an endpoint is stable only
    when it came from clamping rather than from an active constraint.
    """
    if not is_homogeneous(cfg):
        raise NotHomogeneous("the stable ratio interval assumes homogeneous UEs")
    lh = cfg.gen_rates[0]
    lam = lh * cfg.num_ues
    if lam >= cfg.tx_rate:
        return None
    p_min = max(0.0, 1.0 - cfg.local_rates[0] / lh)
    p_max = min(1.0, cfg.edge_rate / lam)
    if p_min >= p_max:
        return None
    return (p_min, p_max)


def _single_local_minimum(values: np.ndarray) -> bool:
    # signs of the nonzero first differences must read -...-+...+
    diffs = np.diff(values)
    signs = np.sign(diffs[diffs != 0.0])
    if len(signs) == 0:
        return True  # flat: any point is the minimum
    transitions = int(np.count_nonzero(signs[1:] != signs[:-1]))
    if transitions > 1:
        return False
    if transitions == 1:
        return signs[0] < 0  # fall then rise; rise-then-fall has two minima
    return True  # monotone: the minimum sits at an endpoint


def search_p(cfg: SystemConfig, objective: str = "paoi",
             resolution: float = 1e-3) -> OptResult:
    """Minimize the analytic system AoI or peak AoI over the ratio p.

    Scans the stable interval at the given resolution, then refines
    around the best grid point down to 1e-6. Ties break toward smaller
    p. Raises EmptyStableInterval when no ratio stabilizes the system.
    """
    if objective not in _OBJECTIVES:
        raise ValueError(f"objective must be one of {_OBJECTIVES}, got {objective!r}")
    if not 0 < resolution <= 0.5:
        raise ValueError(f"resolution must be in (0, 0.5], got {resolution}")
    interval = stable_p_interval(cfg)
    if interval is None:
        raise EmptyStableInterval(
            "no offloading ratio stabilizes this system (check lam < mu_d "
            "and the edge/local service rates)")

    evals = 0

    def counted(p: float) -> float:
        nonlocal evals
        metrics = analytic.system_metrics(cfg.with_scheme(Scheme.partial(float(p))))
        evals += 1
        return metrics.system_aoi if objective == "aoi" else metrics.system_paoi

    # Interval ends from an active constraint are unstable: skipped, not
    # counted. At least two steps keep the midpoint, a stable point, on
    # the grid when the interval is narrower than the resolution.
    p_min, p_max = interval
    steps = max(2, int(math.ceil((p_max - p_min) / resolution)))
    grid, values = [], []
    for p in np.linspace(p_min, p_max, steps + 1):
        try:
            values.append(counted(p))
        except UnstableConfig:
            continue
        grid.append(p)
    grid, values = np.asarray(grid), np.asarray(values)
    best = int(np.argmin(values))
    best_p, best_value = float(grid[best]), float(values[best])

    refine = objective == "paoi" or _single_local_minimum(values)
    method = "golden" if refine else "grid"
    if refine:
        if len(grid) == 1:
            # a lone stable point: both interval ends are unstable, and
            # the bounded method below never evaluates its bounds
            lo, hi = p_min, p_max
        else:
            lo = grid[best - 1] if best > 0 else grid[best]
            hi = grid[best + 1] if best + 1 < len(grid) else grid[best]
        strict = (0 < best < len(grid) - 1
                  and values[best] < values[best - 1]
                  and values[best] < values[best + 1])
        if strict:
            res = sp_opt.minimize_scalar(
                counted, bracket=(lo, grid[best], hi), method="golden",
                options={"xtol": REFINE_TOL})
        else:
            # interval ends (or an fp-flat neighborhood) give no strict
            # interior bracket; bounded refinement of the cell instead
            res = sp_opt.minimize_scalar(
                counted, bounds=(lo, hi), method="bounded",
                options={"xatol": REFINE_TOL})
        # keep the grid winner on the rare fp-level disagreement, so a
        # finer resolution can never return a worse value
        if res.fun < best_value:
            best_p, best_value = float(res.x), float(res.fun)

    return OptResult(
        best_p=best_p,
        best_value=best_value,
        objective=objective,
        method=method,
        stable_interval=interval,
        evaluations=evals,
    )


def _infinite_metrics(n: int) -> analytic.AoiMetrics:
    return analytic.AoiMetrics(
        per_ue_aoi=(math.inf,) * n,
        per_ue_paoi=(math.inf,) * n,
        system_aoi=math.inf,
        system_paoi=math.inf,
    )


def compare_schemes(cfg: SystemConfig) -> SchemeComparison:
    """Local vs Edge vs Partial(peak-AoI-optimal p), analytic metrics.

    Schemes whose queues cannot be stable come back with infinite
    metrics and never win a label.
    """
    opt = analytic.p_opt_paoi(cfg)  # also enforces homogeneity
    results = {}
    schemes = {
        "local": Scheme.local(),
        "edge": Scheme.edge(),
        "partial": Scheme.partial(opt.p),
    }
    for name, scheme in schemes.items():
        try:
            results[name] = analytic.system_metrics(cfg.with_scheme(scheme))
        except UnstableConfig:
            results[name] = _infinite_metrics(cfg.num_ues)
    best_aoi = min(results, key=lambda k: results[k].system_aoi)
    best_paoi = min(results, key=lambda k: results[k].system_paoi)
    return SchemeComparison(
        local=results["local"],
        edge=results["edge"],
        partial=results["partial"],
        partial_p=opt.p,
        best_aoi=best_aoi,
        best_paoi=best_paoi,
    )
