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
phi_lju). The split terms are rational functions of the rates with three
removable singularities, handled by a two-sided perturbation policy. They,
and the local scheme's first-stage transmission term, are exact for N = 1
and first-order approximations for N > 1.

system_metrics evaluates the UEs in one of two ways, with the same values.
The per-UE loop runs the formulas on floats, one UE at a time. The array
pass runs the same functions once, on numpy arrays over all UEs, and
redoes each UE that the singularity trigger flags through the scalar
policy. The array pass is taken when there are at least ARRAY_MIN_UES
UEs and numpy is already loaded. This module never imports numpy itself,
so `import aoi_mec` and the `analytic` command stay on the standard
library, and small N keeps the loop, which is faster there.

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
    SingularityUnresolved,
    SystemConfig,
    check_stability,
    derive_rates,
    is_homogeneous,
    require_stable,
)

# Two-sided perturbation policy for the removable singularities in the
# correlation terms: trigger threshold (relative), perturbation size
# (relative), and the max allowed disagreement between the two sides.
SINGULARITY_TRIGGER = 1e-9
SINGULARITY_EPS = 1e-6
SINGULARITY_TOL = 1e-3

# Fewest UEs for which system_metrics takes the array pass (when numpy is
# loaded). Measured on 2 cores, Python 3.11, numpy 2.4: below about 50 UEs
# the pass costs a flat 32 / 82 / 160 us (local / edge / partial), the loop
# 1.8 / 4.7 / 6.5 us per UE. They break even at 18 / 18 / 24 UEs.
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

    def total(self) -> float:
        return self.phi_bjd + self.phi_ljd + self.phi_bju + self.phi_lju


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


def _phi_bjd_raw(ln, lo, lam, a, d):
    # Transmission-queue contribution when the packet arrives there before
    # its predecessor has left for the local queue: residual-delay part
    # (t1, t2) plus the backlog generated during the gap (t3, t4).
    t1 = ln * (a + d - lam) / (a * (d - lam) * (a + d - lam - lo) ** 2)
    t2 = (ln * (a - lam) * (a - lo)
          * (1.0 / (d - lo) ** 2 - 1.0 / (a - lo) ** 2)
          / ((a - d) * (d - lam) * (a + d - lam - lo)))
    t3 = (ln * lo * (a - lam) * (a - lo)
          * (2.0 / (d - lo) ** 3 - 2.0 / (a - lo) ** 3)
          / (d * (a - d) * (a + d - lam - lo)))
    t4 = 2.0 * ln * lo * (a + d - lam) / (a * d * (a + d - lam - lo) ** 3)
    return t1 + t2 + t3 + t4


def _phi_ljd_raw(ln, lo, lam, a, d):
    # Transmission-queue contribution when the predecessor is already gone:
    # only the stationary backlog left by the other UEs matters.
    inner = (1.0 / ln
             - ln * (a + d - lam) / (a * (a + d - lam - lo) ** 2)
             - ln * (a - lam)
             * (1.0 / (a - lo) - (a - lo) / (d - lo) ** 2)
             / ((d - a) * (a + d - lam - lo)))
    return lo / (d * (d - lo)) * inner


def _phi_bju_raw(ln, lo, lam, a, d, u):
    # Local-queue contribution when the packet reaches the transmission
    # queue before its predecessor reaches the local queue.
    t1 = (ln * (a - lam) * (a - lo) * (d + u - ln)
          / (d * (d - lam + u) ** 2 * (u - ln) * (a - d) * (a + d - lam - lo)))
    t2 = (ln * d * (a - lam) * (a - lo) * (d + u - ln)
          / ((u - ln) * (a - d) * (a + d - lam - lo)
             * ((d + u) * a - lam * d + (d - a) * ln) ** 2))
    big = ((a + d - lam) * (d + u - ln) * (a - lo)
           + lo * (d * d + (2.0 * u - 2.0 * ln - lam) * d + (a - 2.0 * lam) * (u - ln)))
    t3 = ln * a * d * (d + u - ln) * (a + d - lam) / ((u - ln) * big ** 2)
    return t1 - t2 + t3


def _phi_lju_raw(ln, lo, lam, a, d, u):
    # Local-queue contribution when the predecessor already reached the
    # local queue. The third term shares the (d + u - lam) factor of the
    # first two in its denominator; dropping it breaks dimensional
    # consistency and the local-scheme limit.
    t1 = (ln * (d - lam) * (d - lo)
          / (a * (u - ln) * (d - u - lo) * (d + u - lam))
          * ((a + u - ln) / (a + u - lam) ** 2
             - (a + d - lam) / (a + d - lam - lo) ** 2))
    t2 = (ln * (a - lam) * (a - lo) * (d - lam) * (d - lo)
          * (1.0 / u ** 2 - 1.0 / (a - lo) ** 2)
          / ((u - ln) * (d - u - lo) * (d + u - lam)
             * (a + u - lam) * (a - u - lo)))
    t3 = (ln * (a - lam) * (a - lo) * (d - lam) * (d - lo)
          * (1.0 / (d - lo) ** 2 - 1.0 / (a - lo) ** 2)
          / ((u - ln) * (d - u - lo) * (d + u - lam)
             * (a - d) * (a + d - lam - lo)))
    return t1 + t2 - t3


def _near_singular(a, d, u, lo):
    """True if any of the three removable denominators is relatively tiny.

    The critical differences are a - d, a - (u + lo), d - (u + lo). u may be
    +inf (edge scheme): the u-differences are then infinite and never
    flagged. Each test |x - y| < T max(x, y) is written as two comparisons
    (rounding is monotone, so they agree exactly), which lets the rates be
    numpy arrays as well as floats.
    """
    t = SINGULARITY_TRIGGER
    ulo = u + lo
    ad, au, du = abs(a - d), abs(a - u - lo), abs(d - u - lo)
    return ((ad < t * a) | (ad < t * d) | (au < t * a) | (au < t * ulo)
            | (du < t * d) | (du < t * ulo))


def _phi_raw(ln, lo, lam, a, d, u, with_local):
    """The four phi terms (bjd, ljd, bju, lju), no singularity policy.

    with_local=False evaluates only the transmission-queue pair (edge
    scheme / u = +inf), where the local stage is a pass-through.
    """
    bjd = _phi_bjd_raw(ln, lo, lam, a, d)
    ljd = _phi_ljd_raw(ln, lo, lam, a, d)
    if not with_local:
        return (bjd, ljd, 0.0, 0.0)
    return (bjd, ljd, _phi_bju_raw(ln, lo, lam, a, d, u), _phi_lju_raw(ln, lo, lam, a, d, u))


def _phi_eval(ln, lo, lam, a, d, u, with_local: bool):
    """Evaluate the (up to) four phi terms, applying the singularity policy."""
    if not _near_singular(a, d, u, lo):
        return PhiTerms(*_phi_raw(ln, lo, lam, a, d, u, with_local))

    # Perturb the edge and transmission rates in opposite directions; this
    # strictly moves all three critical differences. If a perturbed point is
    # itself near-singular (double-degenerate input), escalate epsilon.
    eps = SINGULARITY_EPS
    for _ in range(3):
        hi = (a * (1.0 + eps), d * (1.0 - eps))
        lo_ = (a * (1.0 - eps), d * (1.0 + eps))
        if not _near_singular(hi[0], hi[1], u, lo) and not _near_singular(lo_[0], lo_[1], u, lo):
            break
        eps *= 1.618
    else:
        raise SingularityUnresolved(
            "could not step away from the removable singularity "
            f"(a = {a:g}, d = {d:g}, u = {u:g}, others = {lo:g})"
        )

    plus = _phi_raw(ln, lo, lam, hi[0], hi[1], u, with_local)
    minus = _phi_raw(ln, lo, lam, lo_[0], lo_[1], u, with_local)
    names = ("phi_bjd", "phi_ljd", "phi_bju", "phi_lju")
    out = []
    for name, vp, vm in zip(names, plus, minus):
        scale = max(abs(vp), abs(vm), 1e-30)
        if abs(vp - vm) > SINGULARITY_TOL * scale:
            raise SingularityUnresolved(
                f"{name}: two-sided evaluations disagree "
                f"({vp:.12g} vs {vm:.12g}) near the removable singularity"
            )
        out.append(0.5 * (vp + vm))
    return PhiTerms(*out)


def phi_terms_partial(rates: DerivedRates, ue_index: int) -> PhiTerms:
    """Correlation-term contributions for the partial scheme (0 < p < 1)."""
    a = rates.eff_edge
    u = rates.eff_local[ue_index]
    if not (math.isfinite(a) and math.isfinite(u)):
        raise ValueError("partial-scheme correlation terms need 0 < p < 1")
    return _phi_eval(rates.gen_rate(ue_index), rates.others_gen[ue_index],
                     rates.total_gen, a, rates.tx_rate, u, with_local=True)


def phi_terms_edge(rates: DerivedRates, ue_index: int) -> PhiTerms:
    """Correlation-term contributions for the edge scheme (local pass-through)."""
    a = rates.eff_edge
    if not math.isfinite(a):
        raise ValueError("edge-scheme correlation terms need a finite edge rate")
    return _phi_eval(rates.gen_rate(ue_index), rates.others_gen[ue_index],
                     rates.total_gen, a, rates.tx_rate, math.inf,
                     with_local=False)


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
    message. The four phi terms are taken raw, and every UE that the
    singularity trigger flags is redone through the scalar _phi_eval.
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
        with_local = p < 1.0
        # a flagged UE may divide by zero here; its raw terms are replaced
        with np.errstate(divide="ignore", invalid="ignore"):
            bjd, ljd, bju, lju = _phi_raw(ln, lo, lam, a, d, u, with_local)
        for i in np.flatnonzero(_near_singular(a, d, u, lo)):
            phi = _phi_eval(float(ln[i]), float(lo[i]), lam, a, d, float(u[i]), with_local)
            bjd[i], ljd[i] = phi.phi_bjd, phi.phi_ljd
            if with_local:
                bju[i], lju[i] = phi.phi_bju, phi.phi_lju
        yw = _e_yw_queued(ln, lo, a, PhiTerms(bjd, ljd, bju, lju), np.sqrt)
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
