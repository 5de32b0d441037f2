"""Offloading-ratio optimization.

The peak-AoI-minimizing ratio has a closed form (analytic.p_opt_paoi);
the AoI-minimizing ratio does not, so the canonical method here is a
grid scan of the analytic objective over the stable ratio interval
followed by local refinement. Peak AoI is convex in p, so refinement is
always safe; AoI is refined only after the grid scan shows a single
local minimum, otherwise the grid argmin is returned as-is.

The scan evaluates analytic's closed forms at every stable interior grid
point; only p = 0 and p = 1, where a stage is a pass-through, go through
the scalar system_metrics. It runs on numpy arrays when numpy is already
loaded or the grid has at least ARRAY_MIN_POINTS points, and on Python
floats otherwise, with the same values, so a cold `aoi-mec optimize`
loads no numpy. The refinement is an in-house golden section search
(Kiefer, "Sequential minimax search for a maximum", 1953) of the grid
cells on both sides of the grid winner, with scalar system_metrics calls.
"""

from __future__ import annotations

import importlib
import math
import sys
from dataclasses import dataclass
from typing import Optional

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

# Fewest grid points for which search_p imports numpy for its scan when
# numpy is not loaded yet. Measured on 2 cores, Python 3.11, numpy 2.4,
# with cold `aoi-mec optimize` commands (two searches over [0, 1]): the
# float scan costs about 4.3 us per grid point, the import and the array
# scan a flat ~58 ms plus 0.4 us per point. They break even at 16,000 to
# 17,000 points; at 1,001 points the command takes 85 against 143 ms,
# at 50,000 points 298 against 162 ms.
ARRAY_MIN_POINTS = 16_000

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


def _float_grid(p_min: float, p_max: float, steps: int) -> list[float]:
    """np.linspace(p_min, p_max, steps + 1) as a list, by its own arithmetic."""
    step = (p_max - p_min) / steps
    return [i * step + p_min for i in range(steps)] + [p_max]


def _single_local_minimum(values, stable) -> bool:
    """Whether the stable grid values have one local minimum.

    The signs of their nonzero first differences must read -...-+...+.
    values and stable are numpy arrays or lists, as _grid_values returns.
    """
    if isinstance(values, list):
        values = [v for v, ok in zip(values, stable) if ok]
        diffs = (y - x for x, y in zip(values, values[1:]))
        # np.sign's values: a nan difference keeps a nan sign
        signs = [1.0 if d > 0.0 else -1.0 if d < 0.0 else d for d in diffs if d != 0.0]
        transitions = sum(s != t for s, t in zip(signs, signs[1:]))
    else:
        np = sys.modules["numpy"]
        diffs = np.diff(values[stable])
        signs = np.sign(diffs[diffs != 0.0])
        transitions = int(np.count_nonzero(signs[1:] != signs[:-1]))
    if len(signs) == 0:
        return True  # flat: any point is the minimum
    if transitions > 1:
        return False
    if transitions == 1:
        return signs[0] < 0  # fall then rise; rise-then-fall has two minima
    return True  # monotone: the minimum sits at an endpoint


def _grid_values(cfg: SystemConfig, p, objective: str):
    """Objective values on the ratio grid p, and the stability mask.

    p is a numpy array or a list of floats; the values and the mask come
    back as the same kind. Stable interior points go through the closed
    forms of one UE (the UEs are identical): one array evaluation, or one
    float evaluation per point. A stable p = 0 or p = 1 goes through the
    scalar system_metrics, which takes the local or edge scheme there.
    The mask uses check_stability's expressions; unstable points get nan.
    """
    ln = cfg.gen_rates[0]
    lam = math.fsum(cfg.gen_rates)
    lo = lam - ln
    d = cfg.tx_rate

    def interior(a, u, sqrt=math.sqrt):
        if objective == "paoi":
            x = analytic._paoi(ln, lam, a, d, u)
        else:
            yw = analytic._stage_terms(PARTIAL, ln, lo, lam, a, d, u, sqrt)
            x = analytic._aoi(ln, a, d, u, yw)
        # the N equal UEs: N * x rounds the exact sum once, as math.fsum does
        return (cfg.num_ues * x) / cfg.num_ues

    if isinstance(p, list):
        values, stable = [], []
        for x in p:
            # the +inf rates of p = 0 and p = 1, as numpy's division gives
            a = cfg.edge_rate / x if x else math.inf
            u = cfg.local_rates[0] / (1.0 - x) if x != 1.0 else math.inf
            ok = lam < a and lam < d and ln < u
            stable.append(ok)
            values.append(math.nan if not ok else interior(a, u) if 0.0 < x < 1.0
                          else _objective(cfg, objective, x))
        return values, stable
    np = sys.modules["numpy"]
    with np.errstate(divide="ignore"):  # the +inf rates of p = 0 and p = 1
        a = cfg.edge_rate / p
        u = cfg.local_rates[0] / (1.0 - p)
    stable = (lam < a) & (lam < d) & (ln < u)
    fast = stable & (p > 0.0) & (p < 1.0)
    values = np.full(len(p), np.nan)
    values[fast] = interior(a[fast], u[fast], np.sqrt)
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
    np = (importlib.import_module("numpy") if steps + 1 >= ARRAY_MIN_POINTS
          else sys.modules.get("numpy"))
    p = (_float_grid(p_min, p_max, steps) if np is None
         else np.linspace(p_min, p_max, steps + 1))
    values, stable = _grid_values(cfg, p, objective)
    if np is None:
        evals = stable.count(True)
        # np.nanargmin's rule: the first minimum, with nan read as +inf
        keys = [math.inf if v != v else v for v in values]
        best = keys.index(min(keys))
    else:
        evals = int(np.count_nonzero(stable))
        best = int(np.nanargmin(values))  # the first minimum: ties go to smaller p
    best_p, best_value = float(p[best]), float(values[best])

    refine = objective == "paoi" or _single_local_minimum(values, stable)
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

