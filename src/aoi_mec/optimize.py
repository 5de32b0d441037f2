"""Offloading-ratio optimization.

The peak-AoI-minimizing ratio has a closed form (analytic.p_opt_paoi);
the AoI-minimizing ratio does not, so the canonical method here is a
grid scan of the analytic objective over the stable ratio interval
followed by local refinement. Peak AoI is convex in p, so refinement is
always safe; AoI is refined only after the grid scan shows a single
local minimum, otherwise the grid argmin is returned as-is.

The scan is one numpy evaluation of analytic's closed forms over the
whole grid; only p = 0 and p = 1, where a stage is a pass-through, go
through the scalar system_metrics. The refinement is an in-house golden
section search (Kiefer, "Sequential minimax search for a maximum",
1953) of the grid cells on both sides of the grid winner, with scalar
system_metrics calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import (
    PARTIAL,
    EmptyStableInterval,
    NotHomogeneous,
    Scheme,
    SystemConfig,
    is_homogeneous,
)
from . import analytic

# The golden-section refinement's tolerance; also the finest grid step
# search_p accepts, since a finer grid resolves nothing the refinement
# does not.
REFINE_TOL = 1e-6

# golden-section constants: the section ratio 2/(1 + sqrt(5)) to scipy's
# eight digits, and its complement
_GR = 0.61803399
_GC = 1.0 - _GR
_GOLDEN_MAXITER = 5000

_OBJECTIVES = ("aoi", "paoi")


@dataclass(frozen=True)
class OptResult:
    """Outcome of an offloading-ratio optimization.

    method is "golden" (grid scan plus golden-section refinement) or
    "grid" (scan only, used when the AoI objective does not look unimodal
    on the grid). evaluations counts each stable grid point once, plus
    each objective evaluation of the refinement; unstable grid points are
    skipped and not counted.
    """

    best_p: float
    best_value: float
    objective: str
    method: str
    stable_interval: tuple[float, float]
    evaluations: int


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


def _grid_values(cfg: SystemConfig, p: np.ndarray,
                 objective: str) -> tuple[np.ndarray, np.ndarray]:
    """Objective values on the ratio grid p, and the stability mask.

    Stable interior points take one array evaluation of the closed forms
    (one UE: the UEs are identical). A stable p = 0 or p = 1 goes through
    the scalar system_metrics, which takes the local or edge scheme there.
    The mask uses check_stability's expressions; unstable points get nan.
    """
    ln = cfg.gen_rates[0]
    lam = math.fsum(cfg.gen_rates)
    lo = lam - ln
    d = cfg.tx_rate
    with np.errstate(divide="ignore"):  # the +inf rates of p = 0 and p = 1
        a = cfg.edge_rate / p
        u = cfg.local_rates[0] / (1.0 - p)
    stable = (lam < a) & (lam < d) & (ln < u)
    fast = stable & (p > 0.0) & (p < 1.0)
    a, u = a[fast], u[fast]
    if objective == "paoi":
        x = analytic._paoi(ln, lam, a, d, u)
    else:
        yw = analytic._stage_terms(PARTIAL, ln, lo, lam, a, d, u, np.sqrt)
        x = analytic._aoi(ln, a, d, u, yw)
    values = np.full(len(p), np.nan)
    # the N equal UEs: N * x rounds the exact sum once, as math.fsum does
    values[fast] = (cfg.num_ues * x) / cfg.num_ues
    for i in np.flatnonzero(stable & ~fast):
        values[i] = _objective(cfg, objective, float(p[i]))
    return values, stable


def _objective(cfg: SystemConfig, objective: str, p: float) -> float:
    metrics = analytic.system_metrics(cfg.with_scheme(Scheme.partial(p)))
    return metrics.system_aoi if objective == "aoi" else metrics.system_paoi


def _golden(f, xa: float, xb: float, xc: float, tol: float,
            relative: bool) -> tuple[float, float]:
    """Golden-section minimization of f inside the bracket xa < xb < xc.

    Returns (x, f(x)). The iteration is Kiefer's, with the constants and
    update of scipy.optimize.golden; f is never evaluated at xa, xb or xc.
    The search stops when the bracket is at most tol wide, or, with
    relative=True, tol times the magnitude of the two inner points.
    """
    x0, x3 = xa, xc
    if abs(xc - xb) > abs(xb - xa):
        x1, x2 = xb, xb + _GC * (xc - xb)
    else:
        x1, x2 = xb - _GC * (xb - xa), xb
    f1, f2 = f(x1), f(x2)
    for _ in range(_GOLDEN_MAXITER):
        if abs(x3 - x0) <= (tol * (abs(x1) + abs(x2)) if relative else tol):
            break
        if f2 < f1:
            x0, x1 = x1, x2
            x2 = _GR * x1 + _GC * x3
            f1, f2 = f2, f(x2)
        else:
            x3, x2 = x2, x1
            x1 = _GR * x2 + _GC * x0
            f2, f1 = f1, f(x1)
    return (x1, f1) if f1 < f2 else (x2, f2)


def search_p(cfg: SystemConfig, objective: str = "paoi",
             resolution: float = 1e-3) -> OptResult:
    """Minimize the analytic system AoI or peak AoI over the ratio p.

    Scans the stable interval at the given resolution, in
    [REFINE_TOL, 0.5], then refines around the best grid point down to
    REFINE_TOL. Ties break toward smaller
    p. Raises EmptyStableInterval when no ratio stabilizes the system.
    """
    if objective not in _OBJECTIVES:
        raise ValueError(f"objective must be one of {_OBJECTIVES}, got {objective!r}")
    if not REFINE_TOL <= resolution <= 0.5:
        raise ValueError(f"resolution must be in [{REFINE_TOL:g}, 0.5], got {resolution}")
    interval = stable_p_interval(cfg)
    if interval is None:
        raise EmptyStableInterval(
            "no offloading ratio stabilizes this system (check lam < mu_d "
            "and the edge/local service rates)")

    # Interval ends from an active constraint are unstable: skipped, not
    # counted. At least two steps keep the midpoint, a stable point, on
    # the grid when the interval is narrower than the resolution.
    p_min, p_max = interval
    steps = max(2, int(math.ceil((p_max - p_min) / resolution)))
    p = np.linspace(p_min, p_max, steps + 1)
    values, stable = _grid_values(cfg, p, objective)
    evals = int(np.count_nonzero(stable))
    best = int(np.nanargmin(values))  # the first minimum: ties go to smaller p
    best_p, best_value = float(p[best]), float(values[best])

    refine = objective == "paoi" or _single_local_minimum(values[stable])
    method = "golden" if refine else "grid"
    if refine:
        def counted(x: float) -> float:
            nonlocal evals
            evals += 1
            return _objective(cfg, objective, x)

        # The neighbours come from the full grid, so a cell next to an
        # unstable interval end is searched too; no bracket end is
        # evaluated. An unstable neighbour's nan is never strictly higher.
        lo = float(p[max(best - 1, 0)])
        hi = float(p[min(best + 1, len(p) - 1)])
        strict = (0 < best < len(p) - 1
                  and values[best] < values[best - 1]
                  and values[best] < values[best + 1])
        if strict:
            x, fx = _golden(counted, lo, best_p, hi, REFINE_TOL, relative=True)
        else:
            # an interval end, an fp-flat neighbourhood or a lone stable
            # point: search the whole cell from its midpoint
            x, fx = _golden(counted, lo, 0.5 * (lo + hi), hi, REFINE_TOL, relative=False)
        # keep the grid winner on the rare fp-level disagreement, so a
        # finer resolution can never return a worse value
        if fx < best_value:
            best_p, best_value = x, fx

    return OptResult(
        best_p=best_p,
        best_value=best_value,
        objective=objective,
        method=method,
        stable_interval=interval,
        evaluations=evals,
    )

