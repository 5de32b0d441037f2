"""Closed-form average AoI and peak AoI for the three computing schemes.

The three schemes are one tandem: edge computation, then transmission,
then local computation. Local (p = 0) and edge (p = 1) computing only turn
one stage into a pass-through of rate +inf. For UE n, summing over the
stages k, with mu_k a stage's effective service rate and lambda_k its
arrival rate (lambda at the shared edge and transmission queues, lambda_n
at the UE's own local queue):

    PAoI_n = 1/lambda_n + sum_k 1/(mu_k - lambda_k)
    AoI_n  = 1/lambda_n + sum_k 1/mu_k + lambda_n sum_k E[Y_j W_k]

Y_j is the inter-generation gap and W_k the waiting time at stage k. A
pass-through stage contributes 0 to every sum: 1/inf == 0, and it has no
waiting time. system_metrics is these two lines. _stage_terms is the one
place that chooses the form of each E[Y_j W_k] from the scheme; it takes
one UE's rates as floats or all UEs' as numpy arrays.

The PAoI identity is exact for stable M/M/1 stages. The edge-stage term
E[Y_j W_edge] is exact for any N: the edge queue is the first stage of the
tandem, a multi-source FCFS M/M/1 queue, and the term follows from its
transient workload transform (_e_yw_first_stage).

The transmission- and local-stage terms split, per stage, into two
contributions conditioned on whether the packet catches up with its
predecessor (phi_bjd / phi_bju) or finds it already gone (phi_ljd /
phi_lju). The split terms are rational functions of the rates, written
with their removable singularities cancelled, so coincident rates such
as mu_B = p mu_D evaluate directly. They, and the local scheme's
first-stage transmission term, are exact for N = 1 and first-order
approximations for N > 1.

system_metrics runs _stage_terms once per UE on floats, or once on numpy
arrays over all UEs, with the same values. It takes the arrays when there
are at least ARRAY_MIN_UES UEs and numpy is already loaded. This module
never imports numpy itself, so `import aoi_mec` and the `analytic`
command stay on the standard library, and small N keeps the per-UE loop,
which is faster there.

All functions are pure; heterogeneous per-UE rates are supported wherever
the underlying formula is stated per UE.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .model import (
    EDGE,
    LOCAL,
    PARTIAL,
    DerivedRates,
    NotHomogeneous,
    Scheme,
    SystemConfig,
    check_stability,
    derive_rates,
    is_homogeneous,
    require_stable,
)

# Fewest UEs for which system_metrics takes the array pass (when numpy is
# loaded). Measured on 2 cores, Python 3.11, numpy 2.4: below about 60 UEs
# the pass costs a flat 37 / 75 / 122 us (local / edge / partial), the loop
# 1.2 / 2.5 / 4.0 us per UE. They break even at 27-28 / 28-30 / 30-31 UEs.
ARRAY_MIN_UES = 30


@dataclass(frozen=True)
class AoiMetrics:
    """Per-UE and system-averaged AoI / peak AoI (time units)."""

    per_ue_aoi: tuple[float, ...]
    per_ue_paoi: tuple[float, ...]
    system_aoi: float
    system_paoi: float


@dataclass(frozen=True)
class PhiTerms:
    """The four correlation-term contributions (time^2 units).

    phi_bjd + phi_ljd = E[Y_j W_tx]; phi_bju + phi_lju = E[Y_j W_local].
    For the edge scheme the local stage is a pass-through, so phi_bju and
    phi_lju are zero.
    """

    phi_bjd: float
    phi_ljd: float
    phi_bju: float
    phi_lju: float


@dataclass(frozen=True)
class AoiBounds:
    """Closed-form bracket on the system average AoI (homogeneous UEs).

    upper is the system average peak AoI (including the 1/lambda_h term).
    lower is the AoI line with the paper's lower-bound terms
    (e_yw_lower_bounds) in place of the E[Y_j W] terms; gap = upper - lower
    and lower = upper - gap exactly; gap_ratio = gap / upper.
    """

    lower: float
    upper: float
    gap: float
    gap_ratio: float


@dataclass(frozen=True)
class POptResult:
    """Closed-form peak-AoI-minimizing offloading ratio.

    branch: which case fired ("local" for p=0, "edge" for p=1, "interior").
    condition: human-readable inequality that selected the branch.
    stable: whether the system is stable at the returned p.
    """

    p: float
    branch: str
    condition: str
    stable: bool


# ---------------------------------------------------------------------------
# Correlation terms.
#
# The raw formulas square by multiplication, never with ** 2: numpy squares
# arrays that way, while a float's ** 2 calls the C library's pow, which
# can be 1 ulp off. So the float and array passes agree to the bit.
#
# Rate symbols used throughout the raw formulas:
#   lam - total generation rate, ln - tagged UE's generation rate,
#   lo  - combined rate of the other UEs (lam - ln),
#   a   - effective edge computation rate, d - transmission rate,
#   u   - tagged UE's effective local computation rate.
# ---------------------------------------------------------------------------


def _e_yw_first_stage(ln, lo, a, sqrt=math.sqrt):
    """Exact E[Y_j W_j] at a multi-source FCFS M/M/1 first stage.

    Packet j-1 of the tagged UE leaves a workload T ~ Exp(g), g = a - lam
    (its sojourn time). During the gap Y ~ Exp(ln) that workload drains at
    unit rate and grows only with other-UE arrivals (rate lo, Exp(a) jobs),
    and W_j is the workload V(Y) found by packet j. With
    M(s) = integral of exp(-s t) E[V(t)] dt
         = (1/g + g/(eta (g + eta)))/s - (1 - lo/a)/s^2,
    where eta(s) is the positive root of eta^2 + (a - lo - s) eta - s a = 0,
    E[Y W] = -ln M'(ln).

    The form below is that expression with the 1/ln^2 terms cancelled
    through the quadratic, and eta taken from its cancellation-free root
    (at s = ln the linear coefficient a - lo - ln is g > 0), so it keeps
    full relative precision as ln / lam -> 0. Every term is positive. At
    lo = 0 it reduces to the textbook M/M/1 value ln / (a^2 g). The rates
    may be numpy arrays when sqrt is numpy's.
    """
    g = a - lo - ln
    b = a - lo
    eta = 2.0 * ln * a / (g + sqrt(g * g + 4.0 * ln * a))
    q = eta * eta + 2.0 * a * eta + a * b
    # "others" vanishes at lo = 0, leaving the single-source M/M/1 value
    others = lo * (2.0 * eta * eta + 3.0 * a * eta + a * b) / (a * eta * (eta + b))
    h = g + eta
    own = eta * (q + g * lo) / (g * (h * h))
    return (a + eta) / ((eta + b) * q) * (others + own)


def _e_yw_first_order(ln, lo, lam, a):
    """First-order E[Y_j W_j] at an M/M/1 first stage of rate a.

    Exact for lo = 0 (where it equals _e_yw_first_stage) and too low for
    lo > 0. Kept for the local scheme's transmission stage: the partial
    scheme's transmission terms tend to this form as p -> 0, so the exact
    form there alone would make the AoI jump at p = 0. It is also the
    paper's lower bound on the edge and transmission terms.

    The published lam/(ln a c) + ln lo/(a x^3) - 1/x^2, with c = a - lam
    and x = a - lo, written as positive terms and as chains of ratios (see
    the split terms below).
    """
    c, x = a - lam, a - lo
    return lo / ln * c / a / x / x + lam / a / c / x + ln / a * lo / x / x / x


# The four split terms. Their published forms divide by a - d, a - u - lo
# and d - u - lo; each such factor is cancelled below, e.g. in bjd
# (1/y^2 - 1/x^2) / (a - d) = (x + y) / (x^2 y^2). With the positive
# differences c = a - lam, e = d - lam, v = u - ln, x = a - lo, y = d - lo
# and s = c + y (= a + d - lam - lo), every sum adds positive terms, so
# no digits cancel at coincident rates or near saturation. Products are
# written as chains of ratios, so no intermediate is of more than second
# degree in the rates and extreme rate scales neither overflow nor
# underflow.


def _phi_bjd_raw(ln, lo, lam, a, d):
    # Transmission-queue contribution when the packet arrives there before
    # its predecessor has left for the local queue: residual-delay part
    # (t1, t2) plus the backlog generated during the gap (t3, t4).
    c, e, x, y = a - lam, d - lam, a - lo, d - lo
    s = c + y
    t1 = ln / a * (c + d) / e / s / s
    t2 = ln / x * c / e * (x + y) / y / y / s
    t3 = 2.0 * ln / x * lo / d * c / s * (x * x + x * y + y * y) / x / y / y / y
    t4 = 2.0 * ln / a * lo / d * (c + d) / s / s / s
    return t1 + t2 + t3 + t4


def _phi_ljd_raw(ln, lo, lam, a, d):
    # Transmission-queue contribution when the predecessor is already gone:
    # only the stationary backlog left by the other UEs matters. The
    # published 1/ln minus two terms, over one denominator, has e as a
    # factor and positive terms otherwise.
    c, e, x, y = a - lam, d - lam, a - lo, d - lo
    s = c + y
    h, r = c * (y + ln) / y / y, ln / s
    return lo / ln * e / a / d / y * (h + r + h * r + (h + r) * lo / x * (s + ln) / s)


def _phi_bju_raw(ln, lo, lam, a, d, u):
    # Local-queue contribution when the packet reaches the transmission
    # queue before its predecessor reaches the local queue. t12 is the
    # difference of two terms over a - d: with p = d - lam + u and
    # big_d = (d + u) a - lam d + (d - a) ln, big_d - d p = (a - d)(d + v).
    c, e, v, x = a - lam, d - lam, u - ln, a - lo
    s, p = c + (d - lo), e + u
    big_d = d * x + a * v
    w = (d + v) / p
    t12 = ln / v * c / s * x / d * (w * w) * (big_d + d * p) / big_d / big_d
    # b is the published denominator root over (a + e)(d + v)
    b = x + lo * (d * e + c * v + v * (d + e)) / ((a + e) * (d + v))
    t3 = ln / v * a / (a + e) * d / (d + v) / b / b
    return t12 + t3


def _phi_lju_raw(ln, lo, lam, a, d, u):
    # Local-queue contribution when the predecessor already reached the
    # local queue. Every term shares the (d + u - lam) factor in its
    # denominator; dropping it breaks dimensional consistency and the
    # local-scheme limit. t1's bracket over d - u - lo is f(X) - f(s) with
    # f(z) = (z + lo)/z^2, X = big_x; t23 is the difference of two terms
    # over d - u - lo.
    c, e, x, y = a - lam, d - lam, a - lo, d - lo
    big_x, s = c + u, c + y
    k = ln / (u - ln) * e / (e + u)
    t1 = k * y / a / big_x / s * (1.0 + lo * (big_x + s) / (big_x * s))
    q = (c * (u + y) + u * u + u * y + y * y) / (u * y) + (c + u + y) / x
    t23 = k * c / u / big_x / s * q
    return t1 + t23


def _phi_raw(ln, lo, lam, a, d, u, with_local):
    """The four phi terms (bjd, ljd, bju, lju).

    with_local=False evaluates only the transmission-queue pair (edge
    scheme / u = +inf), where the local stage is a pass-through.
    """
    bjd = _phi_bjd_raw(ln, lo, lam, a, d)
    ljd = _phi_ljd_raw(ln, lo, lam, a, d)
    if not with_local:
        return (bjd, ljd, 0.0, 0.0)
    return (bjd, ljd, _phi_bju_raw(ln, lo, lam, a, d, u), _phi_lju_raw(ln, lo, lam, a, d, u))


def _ue(rates: DerivedRates, ue_index: int):
    """(ln, lo, lam, a, d, u) of one UE: the rate arguments of _stage_terms."""
    return (rates.gen_rates[ue_index], rates.others_gen[ue_index], rates.total_gen,
            rates.eff_edge, rates.tx_rate, rates.eff_local[ue_index])


def phi_terms_partial(rates: DerivedRates, ue_index: int) -> PhiTerms:
    """Correlation-term contributions for the partial scheme (0 < p < 1)."""
    a = rates.eff_edge
    u = rates.eff_local[ue_index]
    if not (math.isfinite(a) and math.isfinite(u)):
        raise ValueError("partial-scheme correlation terms need 0 < p < 1")
    return PhiTerms(*_phi_raw(*_ue(rates, ue_index), with_local=True))


def phi_terms_edge(rates: DerivedRates, ue_index: int) -> PhiTerms:
    """Correlation-term contributions for the edge scheme (local pass-through)."""
    a = rates.eff_edge
    if not math.isfinite(a):
        raise ValueError("edge-scheme correlation terms need a finite edge rate")
    return PhiTerms(*_phi_raw(*_ue(rates, ue_index), with_local=False))


# ---------------------------------------------------------------------------
# Correlation expectations E[Y_j W] per stage. These are the targets the
# simulator's estimators are validated against.
# ---------------------------------------------------------------------------


def _kind(p, a):
    """The scheme whose stage forms apply at ratio p and edge rate a.

    Partial(0) and Partial(1) take the local and edge forms, and so does
    a ratio small enough that mu_B / p overflows to +inf.
    """
    return LOCAL if math.isinf(a) else EDGE if p == 1.0 else PARTIAL


def _stage_terms(kind, ln, lo, lam, a, d, u, sqrt=math.sqrt):
    """(E[Y_j W_edge], E[Y_j W_tx], E[Y_j W_local]) under scheme kind.

    The one place that picks each stage's form from the scheme. A
    pass-through stage's entry is 0. The rates may be numpy arrays over
    the UEs when sqrt is numpy's.
    """
    if kind == LOCAL:
        # The transmission queue is the first stage; see _e_yw_first_order
        # for why it does not use _e_yw_first_stage. The local-stage term
        # is the published ln (d + v) / (d v (e + u)^2)
        # + ln e (y + u) / (u^2 y v (e + u)), as chains of ratios over the
        # positive differences e = d - lam, v = u - ln and y = d - lo.
        e, v, y = d - lam, u - ln, d - lo
        local = (ln / d * (d + v) / v / (e + u) / (e + u)
                 + ln / u * e / u * (y + u) / y / v / (e + u))
        return (0.0, _e_yw_first_order(ln, lo, lam, d), local)
    bjd, ljd, bju, lju = _phi_raw(ln, lo, lam, a, d, u, kind == PARTIAL)
    return (_e_yw_first_stage(ln, lo, a, sqrt), bjd + ljd, bju + lju)


def _lower_terms(ln, lo, lam, a, d, u):
    """The paper's lower bounds on the three entries of _stage_terms.

    Each lets the stages upstream of its own become instantaneous: the
    first-order term at the edge and transmission stages, and
    ln / (u^2 (u - ln)) at the local stage. A pass-through stage's entry
    is 0.
    """
    edge = 0.0 if math.isinf(a) else _e_yw_first_order(ln, lo, lam, a)
    return (edge, _e_yw_first_order(ln, lo, lam, d), ln / u / u / (u - ln))


def e_yw(cfg: SystemConfig, ue_index: int) -> tuple[float, float, float]:
    """(E[Y_j W_edge], E[Y_j W_tx], E[Y_j W_local]) of one UE, any scheme.

    A pass-through stage's entry is 0. The order is that of
    e_yw_lower_bounds.
    """
    rates = derive_rates(cfg)
    return _stage_terms(_kind(cfg.scheme.p, rates.eff_edge), *_ue(rates, ue_index))


def e_yw_lower_bounds(cfg: SystemConfig, ue_index: int) -> tuple[float, float, float]:
    """The paper's lower bounds on (E[Y W_edge], E[Y W_tx], E[Y W_local]).

    These are the terms aoi_bounds' lower bound is built from. The
    edge-stage entry lies below the exact term of e_yw; the other two
    bound its closed forms, which are exact for N = 1 and first-order
    approximations for N > 1.
    """
    return _lower_terms(*_ue(derive_rates(cfg), ue_index))


# ---------------------------------------------------------------------------
# Per-UE and system closed forms.
# ---------------------------------------------------------------------------


# The two per-UE lines below take floats or numpy arrays alike.


def _aoi(ln, a, d, u, yw):
    """AoI_n = 1/lambda_n + sum_k 1/mu_k + lambda_n sum_k E[Y_j W_k].

    yw is the (edge, tx, local) triple of _stage_terms; a pass-through
    adds 0.
    """
    yw_edge, yw_tx, yw_local = yw
    return 1.0 / ln + 1.0 / a + 1.0 / d + 1.0 / u + ln * (yw_edge + yw_tx + yw_local)


def _paoi(ln, lam, a, d, u):
    """PAoI_n = 1/lambda_n + sum_k 1/(mu_k - lambda_k); a pass-through adds 0."""
    return 1.0 / ln + 1.0 / (a - lam) + 1.0 / (d - lam) + 1.0 / (u - ln)


def system_metrics(cfg: SystemConfig) -> AoiMetrics:
    """Per-UE and system-averaged AoI / peak AoI for any scheme.

    The rates are derived as derive_rates does and tested with
    check_stability's expressions; only a config that fails the test goes
    to require_stable, which raises with its usual message. _stage_terms
    then runs once on numpy arrays over the UEs when there are at least
    ARRAY_MIN_UES of them and numpy is already loaded, and once per UE
    otherwise. Both give the same values.
    """
    p = cfg.scheme.p
    lam = math.fsum(cfg.gen_rates)
    a = math.inf if p == 0.0 else cfg.edge_rate / p
    d = cfg.tx_rate
    kind = _kind(p, a)
    np = sys.modules.get("numpy") if cfg.num_ues >= ARRAY_MIN_UES else None
    if np is None:
        ln = cfg.gen_rates
        u = ((math.inf,) * cfg.num_ues if p == 1.0
             else tuple(mu / (1.0 - p) for mu in cfg.local_rates))
        local_ok = all(x < v for x, v in zip(ln, u))
    else:
        ln = np.array(cfg.gen_rates)
        u = (np.full(cfg.num_ues, math.inf) if p == 1.0
             else np.array(cfg.local_rates) / (1.0 - p))
        local_ok = bool(np.all(ln < u))
    if not (lam < a and lam < d and local_ok):
        require_stable(cfg)

    def per_ue(ln, u, sqrt=math.sqrt):
        yw = _stage_terms(kind, ln, lam - ln, lam, a, d, u, sqrt)
        return _aoi(ln, a, d, u, yw), _paoi(ln, lam, a, d, u)

    if np is None:
        aoi, paoi = zip(*map(per_ue, ln, u))
    else:
        aoi, paoi = (x.tolist() for x in per_ue(ln, u, np.sqrt))
    return AoiMetrics(
        per_ue_aoi=tuple(aoi),
        per_ue_paoi=tuple(paoi),
        system_aoi=math.fsum(aoi) / cfg.num_ues,
        system_paoi=math.fsum(paoi) / cfg.num_ues,
    )


# ---------------------------------------------------------------------------
# Bounds and the closed-form optimal offloading ratio (homogeneous UEs).
# ---------------------------------------------------------------------------


def aoi_bounds(cfg: SystemConfig) -> AoiBounds:
    """Bracket the system average AoI between PAoI and the paper's lower bound."""
    if not is_homogeneous(cfg):
        raise NotHomogeneous("AoI bounds are defined for homogeneous UEs only")
    require_stable(cfg)
    lh, lo, lam, a, d, u = _ue(derive_rates(cfg), 0)
    upper = _paoi(lh, lam, a, d, u)
    gap = upper - _aoi(lh, a, d, u, _lower_terms(lh, lo, lam, a, d, u))
    return AoiBounds(lower=upper - gap, upper=upper, gap=gap, gap_ratio=gap / upper)


def p_opt_paoi(cfg: SystemConfig) -> POptResult:
    """Closed-form offloading ratio minimizing the system average peak AoI."""
    if not is_homogeneous(cfg):
        raise NotHomogeneous("the closed-form optimal ratio assumes homogeneous UEs")
    lh = cfg.gen_rates[0]
    mh = cfg.local_rates[0]
    mb = cfg.edge_rate
    lam = cfg.num_ues * lh

    if mb <= (mh - lh) ** 2 / mh:
        p, branch = 0.0, "local"
        condition = f"mu_B = {mb:g} <= (mu_h - lambda_h)^2 / mu_h = {(mh - lh) ** 2 / mh:g}"
    elif mh <= (mb - lam) ** 2 / mb:
        p, branch = 1.0, "edge"
        condition = f"mu_h = {mh:g} <= (mu_B - lambda)^2 / mu_B = {(mb - lam) ** 2 / mb:g}"
    else:
        p = (math.sqrt(mb * mh) + lh - mh) / ((1.0 + cfg.num_ues * math.sqrt(mh / mb)) * lh)
        p = min(1.0, max(0.0, p))
        branch = "interior"
        condition = "stationary point of the peak-AoI curve, clamped to [0, 1]"

    return POptResult(p=p, branch=branch, condition=condition,
                      stable=check_stability(cfg.with_scheme(Scheme.partial(p))).stable)
