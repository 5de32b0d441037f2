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
waiting time. system_metrics is these two lines. _e_yw_stages chooses the
form of each E[Y_j W_k] for one UE, and system_metrics' array pass makes
the same choice for all UEs at once.

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

system_metrics evaluates the UEs in one of two ways, with the same values.
The per-UE loop runs the formulas on floats, one UE at a time. The array
pass runs the same functions once, on numpy arrays over all UEs. It is
taken when there are at least ARRAY_MIN_UES UEs and numpy is already
loaded. This module never imports numpy itself, so `import aoi_mec` and
the `analytic` command stay on the standard library, and small N keeps
the loop, which is faster there.

All functions are pure; heterogeneous per-UE rates are supported wherever
the underlying formula is stated per UE.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .model import (
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
# loaded). Measured on 2 cores, Python 3.11, numpy 2.4: below about 50 UEs
# the pass costs a flat 38 / 76 / 118 us (local / edge / partial), the loop
# 2.1 / 4.3 / 5.6 us per UE. They break even at 18 / 18 / 21 UEs.
ARRAY_MIN_UES = 20


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

    upper is the system average peak AoI (including the 1/lambda_h term);
    lower = upper - gap exactly; gap_ratio = gap / upper.
    upper_excl_gen is a diagnostic variant of the upper bound without the
    1/lambda_h term (the two conventions differ in the literature; the
    inclusive one is what the waiting-time correlation argument proves).
    """

    lower: float
    upper: float
    gap: float
    gap_ratio: float
    upper_excl_gen: float


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
    own = eta * (q + g * lo) / (g * (g + eta) ** 2)
    return (a + eta) / ((eta + b) * q) * (others + own)


def _e_yw_first_order(ln, lo, lam, a):
    """First-order E[Y_j W_j] at an M/M/1 first stage of rate a.

    Exact for lo = 0 (where it equals _e_yw_first_stage) and too low for
    lo > 0. Kept for the local scheme's transmission stage: the partial
    scheme's transmission terms tend to this form as p -> 0, so the exact
    form there alone would make the AoI jump at p = 0.
    """
    return (lam / (ln * a * (a - lam))
            + ln * lo / (a * (a - lo) ** 3)
            - 1.0 / (a - lo) ** 2)


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
    t12 = ln / v * c / s * x / d * ((d + v) / p) ** 2 * (big_d + d * p) / big_d / big_d
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


def phi_terms_partial(rates: DerivedRates, ue_index: int) -> PhiTerms:
    """Correlation-term contributions for the partial scheme (0 < p < 1)."""
    a = rates.eff_edge
    u = rates.eff_local[ue_index]
    if not (math.isfinite(a) and math.isfinite(u)):
        raise ValueError("partial-scheme correlation terms need 0 < p < 1")
    return PhiTerms(*_phi_raw(rates.gen_rate(ue_index), rates.others_gen[ue_index],
                              rates.total_gen, a, rates.tx_rate, u, with_local=True))


def phi_terms_edge(rates: DerivedRates, ue_index: int) -> PhiTerms:
    """Correlation-term contributions for the edge scheme (local pass-through)."""
    a = rates.eff_edge
    if not math.isfinite(a):
        raise ValueError("edge-scheme correlation terms need a finite edge rate")
    return PhiTerms(*_phi_raw(rates.gen_rate(ue_index), rates.others_gen[ue_index],
                              rates.total_gen, a, rates.tx_rate, math.inf,
                              with_local=False))


# ---------------------------------------------------------------------------
# Correlation expectations E[Y_j W] per stage. These are the targets the
# simulator's estimators are validated against.
# ---------------------------------------------------------------------------


def _e_yw_stages(rates: DerivedRates, ue_index: int) -> tuple[float, float, float]:
    """(E[Y_j W_edge], E[Y_j W_tx], E[Y_j W_local]) of one UE.

    Picks each stage's form, as _per_ue_array does over all UEs. The
    scheme is read from the pass-through stage (rate +inf), whose entry
    is 0.
    """
    a = rates.eff_edge
    ln = rates.gen_rate(ue_index)
    lo = rates.others_gen[ue_index]
    if math.isinf(a):
        return _e_yw_local_scheme(ln, lo, rates.total_gen, rates.tx_rate,
                                  rates.eff_local[ue_index])
    if math.isinf(rates.eff_local[ue_index]):
        phi = phi_terms_edge(rates, ue_index)
    else:
        phi = phi_terms_partial(rates, ue_index)
    return _e_yw_queued(ln, lo, a, phi)


def _e_yw_local_scheme(ln, lo, lam, d, u):
    """The stage terms of _e_yw_stages for the local scheme (no edge stage).

    The transmission queue is the first stage; see _e_yw_first_order for
    why it does not use _e_yw_first_stage. The rates may be numpy arrays.
    """
    local = (ln * (d + u - ln) / (d * (u - ln) * (d + u - lam) ** 2)
             + ln * (d - lam) * (d + u - lo)
             / (u ** 2 * (d - lo) * (u - ln) * (d + u - lam)))
    return (0.0, _e_yw_first_order(ln, lo, lam, d), local)


def _e_yw_queued(ln, lo, a, phi: PhiTerms, sqrt=math.sqrt):
    """The stage terms of _e_yw_stages when the edge stage is a queue.

    The exact first stage, then the transmission and local split pairs.
    The rates and phi's fields may be numpy arrays when sqrt is numpy's.
    """
    return (_e_yw_first_stage(ln, lo, a, sqrt),
            phi.phi_bjd + phi.phi_ljd,
            phi.phi_bju + phi.phi_lju)


def e_yw(cfg: SystemConfig, ue_index: int) -> tuple[float, float, float]:
    """(E[Y_j W_edge], E[Y_j W_tx], E[Y_j W_local]) of one UE, any scheme.

    A pass-through stage's entry is 0. The order is that of
    e_yw_lower_bounds.
    """
    return _e_yw_stages(derive_rates(cfg), ue_index)


def e_yw_lower_bounds(cfg: SystemConfig, ue_index: int) -> tuple[float, float, float]:
    """Component lower bounds on (E[Y W_edge], E[Y W_tx], E[Y W_local]).

    The edge-stage entry is the exact expectation itself. The other two
    are bounded from below by letting the upstream stages become
    instantaneous; they bound the closed forms in e_yw, which are exact
    for N = 1 and first-order approximations for N > 1.
    """
    rates = derive_rates(cfg)
    ln = cfg.gen_rates[ue_index]
    u = rates.eff_local[ue_index]
    b_edge = _e_yw_stages(rates, ue_index)[0]
    b_tx = _e_yw_first_order(ln, rates.others_gen[ue_index], rates.total_gen, rates.tx_rate)
    b_local = 0.0 if math.isinf(u) else 1.0 / (u * (u - ln)) - 1.0 / u ** 2
    return (b_edge, b_tx, b_local)


# ---------------------------------------------------------------------------
# Per-UE and system closed forms.
# ---------------------------------------------------------------------------


# The two per-UE lines below take floats or numpy arrays alike.


def _aoi(ln, a, d, u, yw):
    """AoI_n = 1/lambda_n + sum_k 1/mu_k + lambda_n sum_k E[Y_j W_k].

    yw is the (edge, tx, local) triple of _e_yw_stages; a pass-through
    adds 0.
    """
    yw_edge, yw_tx, yw_local = yw
    return 1.0 / ln + 1.0 / a + 1.0 / d + 1.0 / u + ln * (yw_edge + yw_tx + yw_local)


def _paoi(ln, lam, a, d, u):
    """PAoI_n = 1/lambda_n + sum_k 1/(mu_k - lambda_k); a pass-through adds 0."""
    return 1.0 / ln + 1.0 / (a - lam) + 1.0 / (d - lam) + 1.0 / (u - ln)


def system_metrics(cfg: SystemConfig) -> AoiMetrics:
    """Per-UE and system-averaged AoI / peak AoI for any scheme.

    One array pass over the UEs when there are at least ARRAY_MIN_UES of
    them and numpy is already loaded; the per-UE loop otherwise. Both give
    the same values.
    """
    if cfg.num_ues >= ARRAY_MIN_UES and "numpy" in sys.modules:
        aoi, paoi = _per_ue_array(cfg)
    else:
        aoi, paoi = _per_ue_loop(cfg)
    return AoiMetrics(
        per_ue_aoi=tuple(aoi),
        per_ue_paoi=tuple(paoi),
        system_aoi=math.fsum(aoi) / cfg.num_ues,
        system_paoi=math.fsum(paoi) / cfg.num_ues,
    )


def _per_ue_loop(cfg: SystemConfig) -> tuple[list[float], list[float]]:
    """Per-UE AoI and PAoI lists, one UE at a time."""
    require_stable(cfg)
    rates = derive_rates(cfg)
    lam = rates.total_gen
    a = rates.eff_edge
    d = rates.tx_rate
    aoi, paoi = [], []
    for n, (ln, u) in enumerate(zip(cfg.gen_rates, rates.eff_local)):
        aoi.append(_aoi(ln, a, d, u, _e_yw_stages(rates, n)))
        paoi.append(_paoi(ln, lam, a, d, u))
    return aoi, paoi


def _per_ue_array(cfg: SystemConfig) -> tuple[list[float], list[float]]:
    """_per_ue_loop as one pass over numpy arrays of the UEs.

    The rates are derived as derive_rates does and tested with
    check_stability's expressions; require_stable raises with its usual
    message.
    """
    np = sys.modules["numpy"]
    ln = np.array(cfg.gen_rates)
    lam = math.fsum(cfg.gen_rates)
    lo = lam - ln
    p = cfg.scheme.p
    a = math.inf if p == 0.0 else cfg.edge_rate / p
    d = cfg.tx_rate
    if p == 1.0:
        u = np.full(cfg.num_ues, math.inf)
    else:
        u = np.array(cfg.local_rates) / (1.0 - p)
    if not (lam < a and lam < d and bool(np.all(ln < u))):
        require_stable(cfg)
    if math.isinf(a):
        yw = _e_yw_local_scheme(ln, lo, lam, d, u)
    else:
        phi = PhiTerms(*_phi_raw(ln, lo, lam, a, d, u, p < 1.0))
        yw = _e_yw_queued(ln, lo, a, phi, np.sqrt)
    return (_aoi(ln, a, d, u, yw).tolist(), _paoi(ln, lam, a, d, u).tolist())


# ---------------------------------------------------------------------------
# Bounds and the closed-form optimal offloading ratio (homogeneous UEs).
# ---------------------------------------------------------------------------


def aoi_bounds(cfg: SystemConfig) -> AoiBounds:
    """Bracket the system average AoI between PAoI and PAoI minus a gap."""
    if not is_homogeneous(cfg):
        raise NotHomogeneous("AoI bounds are defined for homogeneous UEs only")
    require_stable(cfg)
    rates = derive_rates(cfg)
    lh = cfg.gen_rates[0]
    lo = rates.others_gen[0]
    lam = rates.total_gen
    a = rates.eff_edge
    d = cfg.tx_rate
    u = rates.eff_local[0]
    # Effective-rate limits make the corresponding terms vanish at p = 0 / 1.
    omega = _paoi(lh, lam, a, d, u)
    gap = (lh / (a - lo) ** 2
           + lh / (d - lo) ** 2
           + lh / u ** 2
           - lh ** 2 * lo / (a * (a - lo) ** 3)
           - lh ** 2 * lo / (d * (d - lo) ** 3))
    return AoiBounds(
        lower=omega - gap,
        upper=omega,
        gap=gap,
        gap_ratio=gap / omega,
        upper_excl_gen=omega - 1.0 / lh,
    )


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
