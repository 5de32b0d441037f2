"""Oracle and property tests for the closed-form AoI / peak-AoI expressions.

The worked values below were obtained by direct substitution into the
defining formulas (documented next to each test); the single-queue and
tandem reductions are independent oracles computed from first principles
inside the test file, not from the module under test.
"""

import math
import random

import numpy  # noqa: F401  (system_metrics takes its array pass only once numpy is loaded)
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aoi_mec.model import (
    LOCAL,
    NotHomogeneous,
    Scheme,
    SystemConfig,
    UnstableConfig,
    check_stability,
    derive_rates,
    require_stable,
)
from aoi_mec import analytic as an


def homog(n, lam_h, mu_b, mu_d, mu_h, scheme):
    return SystemConfig.homogeneous(n, lam_h, mu_b, mu_d, mu_h, scheme)


def mm1_aoi(lam, mu):
    """Average AoI of a single M/M/1 FCFS queue (independent textbook form)."""
    rho = lam / mu
    return (1.0 / mu) * (1.0 + 1.0 / rho + rho ** 2 / (1.0 - rho))


def stable_homog_configs(draw):
    """Strategy helper: random stable homogeneous partial configs."""
    n = draw(st.integers(1, 8))
    lam_h = draw(st.floats(0.01, 0.8))
    mu_b = draw(st.floats(0.1, 5.0))
    mu_d = draw(st.floats(0.1, 5.0))
    mu_h = draw(st.floats(0.05, 3.0))
    p = draw(st.floats(0.02, 0.98))
    cfg = homog(n, lam_h, mu_b, mu_d, mu_h, Scheme.partial(p))
    rep = check_stability(cfg)
    assume(rep.stable and not rep.near_unstable)
    return cfg


stable_partial = st.composite(stable_homog_configs)()


# ---------------------------------------------------------------------------
# Worked values (direct substitution into the closed forms).
# ---------------------------------------------------------------------------


class TestWorkedValues:
    def test_paoi_partial(self):
        # 1/0.1 + 1/(2-0.2) + 1/(2-0.2) + 1/(1-0.1) = 10 + 1/1.8 + 1/1.8 + 1/0.9
        cfg = homog(2, 0.1, 1.0, 2.0, 0.5, Scheme.partial(0.5))
        assert an.system_metrics(cfg).per_ue_paoi[0] == pytest.approx(12.222222, rel=1e-6)

    def test_paoi_local(self):
        # 1/0.5 + 1/(2-0.5) + 1/(1-0.5) = 2 + 2/3 + 2
        cfg = homog(1, 0.5, 1.0, 2.0, 1.0, Scheme.local())
        assert an.system_metrics(cfg).per_ue_paoi[0] == pytest.approx(4.666667, rel=1e-6)

    def test_paoi_edge(self):
        # 1/0.1 + 1/(1-0.6) + 1/(3-0.6) = 10 + 2.5 + 5/12
        cfg = homog(6, 0.1, 1.0, 3.0, 0.2, Scheme.edge())
        assert an.system_metrics(cfg).per_ue_paoi[0] == pytest.approx(12.916667, rel=1e-6)

    def test_bounds_worked(self):
        # gap = 2*(0.1/1.9^2) + 0.1/1^2 - 2*(0.01*0.1/(2*1.9^3))
        cfg = homog(2, 0.1, 1.0, 2.0, 0.5, Scheme.partial(0.5))
        b = an.aoi_bounds(cfg)
        assert b.upper == pytest.approx(12.222222, rel=1e-6)
        assert b.gap == pytest.approx(0.155256, rel=1e-5)
        assert b.lower == pytest.approx(12.066966, rel=1e-6)

    def test_p_opt_interior_worked(self):
        # (sqrt(0.375) + 0.2 - 0.25) / ((1 + 6*sqrt(1/6)) * 0.2)
        cfg = homog(6, 0.2, 1.5, 1.8, 0.25, Scheme.partial(0.5))
        res = an.p_opt_paoi(cfg)
        assert res.branch == "interior"
        assert res.p == pytest.approx(0.81515, abs=1e-5)
        assert res.stable

    def test_p_opt_edge_branch(self):
        # (mu_B - lambda)^2 / mu_B = (2-0.4)^2/2 = 1.28 >= mu_h = 0.5
        cfg = homog(4, 0.1, 2.0, 3.0, 0.5, Scheme.partial(0.5))
        res = an.p_opt_paoi(cfg)
        assert res.p == 1.0 and res.branch == "edge"

    def test_p_opt_local_branch(self):
        # (mu_h - lambda_h)^2 / mu_h = 4.5^2/5 = 4.05 >= mu_B = 4
        cfg = homog(1, 0.5, 4.0, 9.0, 5.0, Scheme.partial(0.5))
        res = an.p_opt_paoi(cfg)
        assert res.p == 0.0 and res.branch == "local"


# ---------------------------------------------------------------------------
# Single-queue and tandem reductions (independent oracles).
# ---------------------------------------------------------------------------


HUGE = 1e9  # a stage this fast contributes ~1e-9 delay; tolerances are 1e-6


class TestReductions:
    @pytest.mark.parametrize("lam,mu", [(0.5, 1.0), (0.2, 1.3), (0.7, 0.9)])
    def test_local_aoi_collapses_to_mm1(self, lam, mu):
        # transmission stage made negligible: only the local M/M/1 remains
        cfg = homog(1, lam, 1.0, HUGE, mu, Scheme.local())
        assert an.system_metrics(cfg).per_ue_aoi[0] == pytest.approx(mm1_aoi(lam, mu), rel=1e-6)

    @pytest.mark.parametrize("lam,mu", [(0.5, 1.0), (0.3, 2.0)])
    def test_edge_aoi_collapses_to_mm1(self, lam, mu):
        # exercises the correlation terms on the edge path as well
        cfg = homog(1, lam, mu, HUGE, 0.1, Scheme.edge())
        assert an.system_metrics(cfg).per_ue_aoi[0] == pytest.approx(mm1_aoi(lam, mu), rel=1e-6)

    def test_local_paoi_collapses_to_mm1(self):
        cfg = homog(1, 0.5, 1.0, HUGE, 1.0, Scheme.local())
        # 1/lambda + 1/(mu - lambda) = 2 + 2 = 4
        assert an.system_metrics(cfg).per_ue_paoi[0] == pytest.approx(4.0, rel=1e-6)

    def test_partial_collapses_to_two_stage_tandem(self):
        # mu_D negligible: partial(p=0.5, mu_B=1, mu_n=0.4) is the tandem
        # (rate 2.0) -> (rate 0.8), which the local-scheme formula also
        # expresses with its two stages -- independent transcriptions.
        cfg_p = homog(1, 0.3, 1.0, HUGE, 0.4, Scheme.partial(0.5))
        cfg_t = homog(1, 0.3, 123.0, 2.0, 0.8, Scheme.local())
        assert an.system_metrics(cfg_p).per_ue_aoi[0] == pytest.approx(
            an.system_metrics(cfg_t).per_ue_aoi[0], rel=1e-6)

    def test_partial_collapses_to_edge_scheme(self):
        # local stage negligible: partial(p=0.5, mu_B=1) matches the edge
        # scheme at mu_B=2 including the multi-UE correlation terms.
        cfg_p = homog(4, 0.1, 1.0, 1.7, 0.5 * HUGE, Scheme.partial(0.5))
        cfg_e = homog(4, 0.1, 2.0, 1.7, 0.2, Scheme.edge())
        assert an.system_metrics(cfg_p).per_ue_aoi[0] == pytest.approx(
            an.system_metrics(cfg_e).per_ue_aoi[0], rel=1e-6)

    def test_limit_consistency_p_to_0_and_1(self):
        base = homog(6, 0.1, 1.5, 1.8, 0.25, Scheme.partial(0.5))
        loc = an.system_metrics(base.with_scheme(Scheme.local())).per_ue_aoi[0]
        edg = an.system_metrics(base.with_scheme(Scheme.edge())).per_ue_aoi[0]
        lo_gaps, hi_gaps = [], []
        for eps in (1e-4, 1e-5, 1e-6):
            lo_gaps.append(abs(an.system_metrics(
                base.with_scheme(Scheme.partial(eps))).per_ue_aoi[0] - loc))
            hi_gaps.append(abs(an.system_metrics(
                base.with_scheme(Scheme.partial(1 - eps))).per_ue_aoi[0] - edg))
        assert lo_gaps[0] > lo_gaps[1] > lo_gaps[2]
        assert hi_gaps[0] > hi_gaps[1] > hi_gaps[2]
        assert lo_gaps[2] < 1e-3 * loc and hi_gaps[2] < 1e-3 * edg
        # and the p=1e-6 point is within 1e-3 relative of the boundary form
        assert lo_gaps[2] / loc < 1e-3


# ---------------------------------------------------------------------------
# Decomposition: AoI = 1/lambda_n + sum 1/mu + lambda_n * sum E[YW].
# system_metrics is built on this identity, so for the partial and edge
# schemes these tests check only that it is applied to the per-stage
# terms. The local scheme's AoI was also transcribed on its own, as one
# expression (local_scheme_aoi), so test_local is a genuine cross-check of
# its two E[YW] forms.
# ---------------------------------------------------------------------------


def local_scheme_aoi(ln, lo, d, u):
    """Average AoI of one UE under the local scheme, transcribed as a whole."""
    lam = ln + lo
    return (1.0 / ln + 1.0 / d + 1.0 / u
            + lo / (d * (d - lo))
            + ln ** 2 * lo / (d * (d - lo) ** 3)
            + ln ** 2 / ((d - lam) * (d - lo) ** 2)
            + ln ** 2 * (d + u - ln) / (d * (u - ln) * (d + u - lam) ** 2)
            + ln ** 2 * (d - lam) * (d + u - lo)
            / (u ** 2 * (d - lo) * (u - ln) * (d + u - lam)))


class TestDecomposition:
    def test_partial(self):
        cfg = homog(5, 0.08, 1.2, 1.5, 0.3, Scheme.partial(0.6))
        r = derive_rates(cfg)
        expected = (1 / 0.08 + 1 / r.eff_edge + 1 / cfg.tx_rate + 1 / r.eff_local[0]
                    + 0.08 * sum(an.e_yw(cfg, 0)))
        assert an.system_metrics(cfg).per_ue_aoi[0] == pytest.approx(expected, rel=1e-12)

    def test_local(self):
        cfg = homog(5, 0.08, 1.2, 1.5, 0.3, Scheme.local())
        yw_edge, yw_tx, yw_local = an.e_yw(cfg, 0)
        expected = (1 / 0.08 + 1 / 1.5 + 1 / 0.3 + 0.08 * (yw_tx + yw_local))
        oracle = local_scheme_aoi(0.08, 4 * 0.08, 1.5, 0.3)
        assert oracle == pytest.approx(expected, rel=1e-12)
        assert an.system_metrics(cfg).per_ue_aoi[0] == pytest.approx(oracle, rel=1e-12)
        assert yw_edge == 0.0

    def test_edge(self):
        cfg = homog(5, 0.08, 1.2, 1.5, 0.3, Scheme.edge())
        yw_edge, yw_tx, yw_local = an.e_yw(cfg, 0)
        expected = (1 / 0.08 + 1 / 1.2 + 1 / 1.5 + 0.08 * (yw_edge + yw_tx))
        assert an.system_metrics(cfg).per_ue_aoi[0] == pytest.approx(expected, rel=1e-12)
        assert yw_local == 0.0

    @given(cfg=stable_partial)
    @settings(max_examples=100, deadline=None)
    def test_lower_bounds_lie_below_exact(self, cfg):
        lbs = an.e_yw_lower_bounds(cfg, 0)
        for lb, ex in zip(lbs, an.e_yw(cfg, 0)):
            assert lb <= ex + 1e-9 * abs(ex)


# ---------------------------------------------------------------------------
# Exact first-stage term E[Y W_edge] of the multi-source FCFS M/M/1 edge
# queue. Reference: the transient-workload transform
#   M(s) = (1/g + g/(eta (g + eta)))/s - (1 - lo/a)/s^2,
#   eta^2 + (a - lo - s) eta - s a = 0,   g = a - lam,
# and E[Y W] = -ln M'(ln), evaluated as written (with its cancellations)
# in high-precision arithmetic.
# ---------------------------------------------------------------------------


def first_stage_reference(ln, lo, a):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        ln, lo, a = mp.mpf(ln), mp.mpf(lo), mp.mpf(a)
        g = a - lo - ln
        c = 1 - lo / a
        s = ln
        lin = a - lo - s
        eta = (-lin + mp.sqrt(lin * lin + 4 * s * a)) / 2
        d_eta = (eta + a) / (2 * eta + lin)
        h = 1 / g + g / (eta * (g + eta))
        d_h = -g * (g + 2 * eta) * d_eta / (eta * (g + eta)) ** 2
        d_m = d_h / s - h / s ** 2 + 2 * c / s ** 3
        return float(-s * d_m)


class TestFirstStageTerm:
    def test_matches_high_precision_transform(self):
        pytest.importorskip("mpmath")
        rng = random.Random(20260815)
        # (a, lam, ln / lam): a fixed extreme where the transform form as
        # written loses ~18 digits, then random stable rates
        cases = [(1.0, 0.8, 1e-9)]
        for _ in range(200):
            a = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
            cases.append((a, a * rng.uniform(0.01, 0.99),
                           10.0 ** rng.uniform(-9.0, 0.0)))
        worst = 0.0
        for a, lam, share in cases:
            ln = lam * share
            cfg = SystemConfig(2, (ln, lam - ln), a, 2.0 * a, (1.0, 1.0),
                               Scheme.edge())
            got = an.e_yw(cfg, 0)[0]
            want = first_stage_reference(ln, derive_rates(cfg).others_gen[0], a)
            worst = max(worst, abs(got - want) / want)
        assert worst < 1e-10

    @pytest.mark.parametrize("lam,mu_b,p", [(0.5, 1.0, 1.0), (0.3, 2.0, 1.0),
                                            (0.9, 1.0, 1.0), (1e-6, 3.0, 1.0),
                                            (0.4, 1.0, 0.5)])
    def test_single_ue_is_textbook_mm1(self, lam, mu_b, p):
        # E[Y (T - Y)^+] with T ~ Exp(a - lam), Y ~ Exp(lam), a = mu_b / p
        cfg = homog(1, lam, mu_b, 5.0, 4.0, Scheme.partial(p))
        a = mu_b / p
        assert an.e_yw(cfg, 0)[0] == pytest.approx(
            lam / (a ** 2 * (a - lam)), rel=1e-12)

    @given(cfg=stable_partial)
    @settings(max_examples=200, deadline=None)
    def test_first_order_lower_bound_lies_below_exact(self, cfg):
        # the edge entry of e_yw_lower_bounds, the paper's first-order
        # term, is the exact term for one UE and below it for more
        low, exact = an.e_yw_lower_bounds(cfg, 0)[0], an.e_yw(cfg, 0)[0]
        if cfg.num_ues == 1:
            assert low == pytest.approx(exact, rel=1e-12)
        else:
            assert low <= exact


# ---------------------------------------------------------------------------
# Correlation terms.
# ---------------------------------------------------------------------------


class TestPhiTerms:
    def test_single_ue_ljd_vanishes(self):
        cfg = homog(1, 0.3, 1.0, 1.5, 0.4, Scheme.partial(0.5))
        phi = an.phi_terms_partial(derive_rates(cfg), 0)
        assert phi.phi_ljd == 0.0

    def test_rare_ue_keeps_its_own_rate(self):
        # lambda_0 / lambda ~ 1e-9: recovering lambda_0 as lambda - lambda_{-0}
        # loses about eight digits, so the terms must use the given rate.
        cfg = SystemConfig(2, (1.2e-9, 1.0), 3.0, 4.0, (2.0, 2.0),
                           Scheme.partial(0.5))
        r = derive_rates(cfg)
        got = an.phi_terms_partial(r, 0)
        want = an.PhiTerms(*an._phi_raw(cfg.gen_rates[0], r.others_gen[0], r.total_gen,
                                        r.eff_edge, r.tx_rate, r.eff_local[0], True))
        for name in ("phi_bjd", "phi_ljd", "phi_bju", "phi_lju"):
            assert getattr(got, name) == pytest.approx(getattr(want, name),
                                                       rel=1e-15, abs=0.0)

    def test_single_ue_edge_ljd_vanishes(self):
        cfg = homog(1, 0.3, 1.0, 1.5, 0.4, Scheme.edge())
        phi = an.phi_terms_edge(derive_rates(cfg), 0)
        assert phi.phi_ljd == 0.0
        assert phi.phi_bju == 0.0 and phi.phi_lju == 0.0

    def test_edge_terms_require_finite_edge_rate(self):
        cfg = homog(1, 0.3, 1.0, 1.5, 0.4, Scheme.local())
        with pytest.raises(ValueError):
            an.phi_terms_edge(derive_rates(cfg), 0)

    def test_partial_terms_require_interior_ratio(self):
        cfg = homog(1, 0.3, 1.0, 1.5, 0.4, Scheme.partial(0.0))
        with pytest.raises(ValueError):
            an.phi_terms_partial(derive_rates(cfg), 0)

    @given(cfg=stable_partial)
    @settings(max_examples=150, deadline=None)
    def test_terms_finite_and_nonnegative(self, cfg):
        # non-negativity is an empirical property of the decomposition
        # (each term contributes to an E[YW] >= 0 split); report any
        # violation loudly -- it has not been observed on stable configs.
        phi = an.phi_terms_partial(derive_rates(cfg), 0)
        for name in ("phi_bjd", "phi_ljd", "phi_bju", "phi_lju"):
            v = getattr(phi, name)
            assert math.isfinite(v), f"{name} not finite on {cfg}"
            assert v >= -1e-12, f"{name} = {v} < 0 on {cfg}"
        assert phi.phi_bjd + phi.phi_ljd + phi.phi_bju + phi.phi_lju >= 0.0


def published_phi(ln, lo, lam, a, d, u):
    """The four split terms in their published form, at 60 digits.

    These divide by a - d, a - u - lo and d - u - lo. Exactly on one of
    those coincidences they are evaluated with u (or, for a = d, a) moved
    1e-30 relative off it, which moves a 60-digit value by about 1e-30.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        ln, lo, lam, a, d, u = (mp.mpf(v) for v in (ln, lo, lam, a, d, u))
        if a == d:
            a *= 1 + mp.mpf("1e-30")
        if a - u - lo == 0 or d - u - lo == 0:
            u *= 1 + mp.mpf("1e-30")
        s = a + d - lam - lo
        bjd = (ln * (a + d - lam) / (a * (d - lam) * s ** 2)
               + ln * (a - lam) * (a - lo) * (1 / (d - lo) ** 2 - 1 / (a - lo) ** 2)
               / ((a - d) * (d - lam) * s)
               + ln * lo * (a - lam) * (a - lo) * (2 / (d - lo) ** 3 - 2 / (a - lo) ** 3)
               / (d * (a - d) * s)
               + 2 * ln * lo * (a + d - lam) / (a * d * s ** 3))
        ljd = lo / (d * (d - lo)) * (
            1 / ln - ln * (a + d - lam) / (a * s ** 2)
            - ln * (a - lam) * (1 / (a - lo) - (a - lo) / (d - lo) ** 2) / ((d - a) * s))
        common = ln * (a - lam) * (a - lo) * (d + u - ln) / ((u - ln) * (a - d) * s)
        big = ((a + d - lam) * (d + u - ln) * (a - lo)
               + lo * (d * d + (2 * u - 2 * ln - lam) * d + (a - 2 * lam) * (u - ln)))
        bju = (common / (d * (d - lam + u) ** 2)
               - common * d / ((d + u) * a - lam * d + (d - a) * ln) ** 2
               + ln * a * d * (d + u - ln) * (a + d - lam) / ((u - ln) * big ** 2))
        k = ln * (d - lam) * (d - lo) / ((u - ln) * (d - u - lo) * (d + u - lam))
        lju = (k / a * ((a + u - ln) / (a + u - lam) ** 2 - (a + d - lam) / s ** 2)
               + k * (a - lam) * (a - lo) * (1 / u ** 2 - 1 / (a - lo) ** 2)
               / ((a + u - lam) * (a - u - lo))
               - k * (a - lam) * (a - lo) * (1 / (d - lo) ** 2 - 1 / (a - lo) ** 2)
               / ((a - d) * s))
        return (bjd, ljd, bju, lju)


class TestSplitTermsExact:
    def test_at_and_beside_each_removable_singularity(self):
        pytest.importorskip("mpmath")
        rng = random.Random(20261020)

        def dyadic(v):  # so that differences of rates are exact
            return round(v * 2 ** 30) / 2 ** 30

        worst = 0.0
        for _ in range(12):
            ln = dyadic(10.0 ** rng.uniform(-4.0, 0.0))
            lo = dyadic(rng.choice([0.0, 0.01, 1.0, 10.0]) * rng.uniform(0.5, 2.0))
            lam = ln + lo
            # utilizations from moderate up to 0.9999
            a, d = (dyadic(lam * (1.0 + 10.0 ** rng.uniform(-4.0, 0.5))) for _ in "ad")
            u = dyadic(ln * (1.0 + 10.0 ** rng.uniform(-4.0, 1.0)))
            for delta in (0.0, 1e-12, 1e-9, 1e-6):
                points = [(d * (1.0 + delta), d, u),               # a = d
                          (a, d, (a - lo) * (1.0 + delta)),        # a = u + lo
                          (a, d, (d - lo) * (1.0 + delta))]        # d = u + lo
                for aa, dd, uu in points:
                    got = an._phi_raw(ln, lo, lam, aa, dd, uu, True)
                    want = published_phi(ln, lo, lam, aa, dd, uu)
                    for g, w in zip(got, want):
                        if w != 0:
                            worst = max(worst, float(abs((g - w) / w)))
        assert worst < 1e-14


def published_local_scheme(ln, lo, a, d, u):
    """The first-order term at rate a and the local scheme's local-stage
    term in their published forms, at 60 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        ln, lo, a, d, u = (mp.mpf(v) for v in (ln, lo, a, d, u))
        lam = ln + lo
        first = lam / (ln * a * (a - lam)) + ln * lo / (a * (a - lo) ** 3) - 1 / (a - lo) ** 2
        local = (ln * (d + u - ln) / (d * (u - ln) * (d + u - lam) ** 2)
                 + ln * (d - lam) * (d + u - lo) / (u ** 2 * (d - lo) * (u - ln) * (d + u - lam)))
        return first, local


class TestLocalSchemeTerms:
    def test_match_published_forms_at_any_rate_scale(self):
        # rates on a 2^-30 grid times a power of two, so that lam = ln + lo
        # and the scaling are exact; utilizations up to 0.9999, scales
        # from 2^-450 to 2^450 (about 1e-135 to 1e135), where every value
        # is inside the float range
        pytest.importorskip("mpmath")
        rng = random.Random(20261020)

        def dyadic(v):
            return round(v * 2 ** 30) / 2 ** 30

        worst = 0.0
        for _ in range(300):
            ln = dyadic(10.0 ** rng.uniform(-4.0, 0.0))
            lo = dyadic(rng.choice([0.0, 0.01, 1.0, 10.0]) * rng.uniform(0.5, 2.0))
            lam = ln + lo
            a, d = (dyadic(lam * (1.0 + 10.0 ** rng.uniform(-4.0, 0.5))) for _ in "ad")
            u = dyadic(ln * (1.0 + 10.0 ** rng.uniform(-4.0, 1.0)))
            s = 2.0 ** rng.randint(-450, 450)
            ln, lo, lam, a, d, u = (v * s for v in (ln, lo, lam, a, d, u))
            got = (an._e_yw_first_order(ln, lo, lam, a),
                   an._stage_terms(LOCAL, ln, lo, lam, math.inf, d, u)[2])
            for g, w in zip(got, published_local_scheme(ln, lo, a, d, u)):
                worst = max(worst, float(abs((g - w) / w)))
        assert worst < 1e-14

    @pytest.mark.parametrize("scale", [1e65, 1e-65])
    @pytest.mark.parametrize("scheme", [Scheme.local(), Scheme.edge(), Scheme.partial(0.5)])
    def test_values_scale_with_the_rates(self, scheme, scale):
        # every rate times s divides every time by s; the README config
        base = homog(3, 0.05, 1.5, 1.8, 0.25, scheme)
        scaled = homog(3, 0.05 * scale, 1.5 * scale, 1.8 * scale, 0.25 * scale, scheme)
        b, bs = an.aoi_bounds(base), an.aoi_bounds(scaled)
        assert bs.lower * scale == pytest.approx(b.lower, rel=1e-12)
        assert bs.upper * scale == pytest.approx(b.upper, rel=1e-12)
        for path in ("loop", "array"):
            m, ms = metrics_by(path, base), metrics_by(path, scaled)
            assert ms.system_aoi * scale == pytest.approx(m.system_aoi, rel=1e-12), path
            assert ms.system_paoi * scale == pytest.approx(m.system_paoi, rel=1e-12), path


class TestSingularityPolicy:
    def test_exact_coincidence_matches_perturbed(self):
        # eff_edge == tx_rate exactly (mu_B = p * mu_D)
        base = dict(n=6, lam_h=0.1, mu_d=1.8, mu_h=0.25, p=0.5)
        cfg0 = homog(6, 0.1, 0.9, 1.8, 0.25, Scheme.partial(0.5))
        v0 = an.system_metrics(cfg0).per_ue_aoi[0]
        for sign in (+1, -1):
            cfg1 = homog(6, 0.1, 0.9 * (1 + sign * 1e-6), 1.8, 0.25,
                         Scheme.partial(0.5))
            v1 = an.system_metrics(cfg1).per_ue_aoi[0]
            assert v0 == pytest.approx(v1, rel=1e-4)

    def test_edge_scheme_singularity(self):
        # mu_B == mu_D for the edge scheme; compare the two perturbed sides
        cfg_hi = homog(1, 0.5, 2.0, 2.0 + 1e-6, 0.1, Scheme.edge())
        cfg_lo = homog(1, 0.5, 2.0, 2.0 - 1e-6, 0.1, Scheme.edge())
        v_hi = an.system_metrics(cfg_hi).per_ue_aoi[0]
        v_lo = an.system_metrics(cfg_lo).per_ue_aoi[0]
        assert v_hi == pytest.approx(v_lo, rel=1e-4)
        cfg_on = homog(1, 0.5, 2.0, 2.0, 0.1, Scheme.edge())
        assert an.system_metrics(cfg_on).per_ue_aoi[0] == pytest.approx(v_hi, rel=1e-4)

    def test_second_denominator_coincidence(self):
        # eff_edge == eff_local + others  (a - u - lo = 0)
        # N=2, p=0.5: a = 2*mu_B, u = 2*mu_h, lo = lam_h
        # pick mu_B = 1, lam_h = 0.2 -> a = 2; mu_h = 0.9 -> u = 1.8, u+lo = 2
        cfg = homog(2, 0.2, 1.0, 3.0, 0.9, Scheme.partial(0.5))
        v = an.system_metrics(cfg).per_ue_aoi[0]
        assert math.isfinite(v)
        cfg_near = homog(2, 0.2, 1.0 * (1 + 1e-5), 3.0, 0.9, Scheme.partial(0.5))
        assert v == pytest.approx(an.system_metrics(cfg_near).per_ue_aoi[0], rel=1e-3)

    @pytest.mark.parametrize("mu_d", [1.0 / 0.998, 1.0000005])
    @pytest.mark.parametrize("p", [1.0, 0.5])
    def test_coincident_rates_near_saturation(self, mu_d, p):
        # a = d (mu_B = p mu_D) at transmission utilization 0.998 and
        # 1 - 5e-7: finite, and inside the bounds
        cfg = homog(2, 0.5, p * mu_d, mu_d, 1.0,
                    Scheme.edge() if p == 1.0 else Scheme.partial(p))
        m = an.system_metrics(cfg)
        assert all(math.isfinite(v) for v in m.per_ue_aoi + m.per_ue_paoi)
        b = an.aoi_bounds(cfg)
        assert b.lower <= m.system_aoi <= b.upper

    def test_third_denominator_coincidence(self):
        # tx_rate == eff_local + others  (d - u - lo = 0)
        cfg = homog(2, 0.2, 1.5, 2.0, 0.9, Scheme.partial(0.5))
        v = an.system_metrics(cfg).per_ue_aoi[0]
        assert math.isfinite(v)
        cfg_near = homog(2, 0.2, 1.5, 2.0 * (1 + 1e-5), 0.9, Scheme.partial(0.5))
        assert v == pytest.approx(an.system_metrics(cfg_near).per_ue_aoi[0], rel=1e-3)


# ---------------------------------------------------------------------------
# Bounds.
# ---------------------------------------------------------------------------


class TestBounds:
    def test_invariants_exact(self):
        cfg = homog(4, 0.25, 1.5, 2.0, 0.6, Scheme.partial(0.5))
        b = an.aoi_bounds(cfg)
        assert b.lower == b.upper - b.gap  # exact float identity
        assert 0.0 <= b.gap_ratio < 1.0
        assert b.lower <= b.upper

    def test_bracket_on_named_config(self):
        cfg = homog(4, 0.25, 1.5, 2.0, 0.6, Scheme.partial(0.5))
        aoi = an.system_metrics(cfg).per_ue_aoi[0]
        b = an.aoi_bounds(cfg)
        assert b.lower <= aoi <= b.upper

    @given(cfg=stable_partial)
    @settings(max_examples=150, deadline=None)
    def test_bracket_random(self, cfg):
        aoi = an.system_metrics(cfg).per_ue_aoi[0]
        b = an.aoi_bounds(cfg)
        assert b.lower - 1e-9 <= aoi <= b.upper + 1e-9

    def test_boundary_p_uses_rate_limits(self):
        # p=0: edge terms of the gap vanish; bracket still holds vs the
        # local-scheme evaluation path
        cfg0 = homog(4, 0.2, 1.5, 2.0, 0.6, Scheme.partial(0.0))
        b0 = an.aoi_bounds(cfg0)
        aoi0 = an.system_metrics(cfg0.with_scheme(Scheme.local())).per_ue_aoi[0]
        assert b0.lower - 1e-12 <= aoi0 <= b0.upper + 1e-12
        # p=1: local terms vanish
        cfg1 = homog(4, 0.2, 1.5, 2.0, 0.6, Scheme.partial(1.0))
        b1 = an.aoi_bounds(cfg1)
        aoi1 = an.system_metrics(cfg1.with_scheme(Scheme.edge())).per_ue_aoi[0]
        assert b1.lower - 1e-12 <= aoi1 <= b1.upper + 1e-12

    def test_gap_ratio_vanishes_for_rare_updates(self):
        cfg = homog(2, 1e-6, 1.0, 2.0, 0.5, Scheme.partial(0.5))
        assert an.aoi_bounds(cfg).gap_ratio < 1e-4

    def test_heterogeneous_rejected(self):
        cfg = SystemConfig(2, (0.1, 0.2), 1.0, 2.0, (0.5, 0.5), Scheme.partial(0.5))
        with pytest.raises(NotHomogeneous):
            an.aoi_bounds(cfg)

    def test_unstable_rejected(self):
        cfg = homog(2, 2.0, 1.0, 2.0, 0.5, Scheme.partial(0.5))
        with pytest.raises(UnstableConfig):
            an.aoi_bounds(cfg)


# ---------------------------------------------------------------------------
# Optimal offloading ratio.
# ---------------------------------------------------------------------------


class TestPOptPaoi:
    def test_heterogeneous_rejected(self):
        cfg = SystemConfig(2, (0.1, 0.2), 1.0, 2.0, (0.5, 0.5), Scheme.partial(0.5))
        with pytest.raises(NotHomogeneous):
            an.p_opt_paoi(cfg)

    def test_condition_strings_name_the_branch(self):
        res = an.p_opt_paoi(homog(4, 0.1, 2.0, 3.0, 0.5, Scheme.partial(0.5)))
        assert "mu_h" in res.condition
        res = an.p_opt_paoi(homog(1, 0.5, 4.0, 9.0, 5.0, Scheme.partial(0.5)))
        assert "mu_B" in res.condition

    def test_unstable_point_reported_not_raised(self):
        # tx queue unstable regardless of p -> p_opt still returns, flags it
        cfg = homog(4, 1.0, 10.0, 2.0, 10.0, Scheme.partial(0.5))
        res = an.p_opt_paoi(cfg)
        assert not res.stable

    @given(n=st.integers(1, 8), lam_h=st.floats(0.01, 1.0),
           mu_b=st.floats(0.05, 5.0), mu_h=st.floats(0.05, 5.0))
    @settings(max_examples=200, deadline=None)
    def test_result_in_unit_interval_and_branch_consistent(self, n, lam_h, mu_b, mu_h):
        cfg = homog(n, lam_h, mu_b, 10.0, mu_h, Scheme.partial(0.5))
        res = an.p_opt_paoi(cfg)
        assert 0.0 <= res.p <= 1.0
        assert res.branch in ("local", "edge", "interior")
        if res.branch == "local":
            assert res.p == 0.0
        if res.branch == "edge":
            assert res.p == 1.0

    @pytest.mark.parametrize("cfg", [
        homog(6, 0.2, 1.5, 1.8, 0.25, Scheme.partial(0.5)),
        homog(2, 0.1, 1.0, 2.0, 0.5, Scheme.partial(0.5)),
        homog(4, 0.1, 2.0, 3.0, 0.5, Scheme.partial(0.5)),   # edge branch
        homog(1, 0.5, 4.0, 9.0, 5.0, Scheme.partial(0.5)),   # local branch
    ])
    def test_argmin_against_coarse_grid(self, cfg):
        res = an.p_opt_paoi(cfg)
        assert res.stable
        best = an.system_metrics(cfg.with_scheme(Scheme.partial(res.p))).system_paoi
        for k in range(101):
            p = k / 100.0
            c = cfg.with_scheme(Scheme.partial(p))
            if not check_stability(c).stable:
                continue
            assert best <= an.system_metrics(c).system_paoi + 1e-9

    def test_paoi_convex_in_p_on_stable_grid(self):
        # discrete convexity witness on the interior of the stable interval
        cfg = homog(6, 0.2, 1.5, 1.8, 0.25, Scheme.partial(0.5))
        ps = [0.05 + 0.9 * k / 60 for k in range(61)]
        vals = []
        for p in ps:
            c = cfg.with_scheme(Scheme.partial(p))
            if check_stability(c).stable:
                vals.append(an.system_metrics(c).system_paoi)
            else:
                vals.append(None)
        runs = [v for v in vals if v is not None]
        second = [runs[i - 1] - 2 * runs[i] + runs[i + 1] for i in range(1, len(runs) - 1)]
        assert all(s >= -1e-9 for s in second)


# ---------------------------------------------------------------------------
# System-level dispatch and symmetry.
# ---------------------------------------------------------------------------


class TestSystemMetrics:
    def test_homogeneous_average_equals_per_ue(self):
        cfg = homog(6, 0.1, 1.5, 1.8, 0.25, Scheme.partial(0.5))
        m = an.system_metrics(cfg)
        assert len(set(m.per_ue_aoi)) == 1
        assert m.system_aoi == pytest.approx(m.per_ue_aoi[0], rel=1e-12)
        assert m.system_paoi == pytest.approx(m.per_ue_paoi[0], rel=1e-12)

    def test_heterogeneous_mean(self):
        cfg = SystemConfig(2, (0.05, 0.15), 1.0, 2.0, (0.5, 0.5), Scheme.partial(0.5))
        m = an.system_metrics(cfg)
        # a = d = 2, lambda = 0.2, u = 1: 1/lambda_n + 2/1.8 + 1/(1 - lambda_n)
        o1 = 1 / 0.05 + 2 / 1.8 + 1 / 0.95
        o2 = 1 / 0.15 + 2 / 1.8 + 1 / 0.85
        assert m.system_paoi == pytest.approx((o1 + o2) / 2, rel=1e-12)
        assert m.per_ue_paoi == (pytest.approx(o1), pytest.approx(o2))

    def test_boundary_partial_dispatches_to_pure_schemes(self):
        cfg = homog(3, 0.1, 1.0, 2.0, 0.5, Scheme.partial(0.0))
        m = an.system_metrics(cfg)
        loc = an.system_metrics(cfg.with_scheme(Scheme.local())).per_ue_aoi[0]
        assert m.per_ue_aoi[0] == pytest.approx(loc, rel=1e-15)
        cfg1 = homog(3, 0.1, 1.0, 2.0, 0.5, Scheme.partial(1.0))
        m1 = an.system_metrics(cfg1)
        edg = an.system_metrics(cfg1.with_scheme(Scheme.edge())).per_ue_aoi[0]
        assert m1.per_ue_aoi[0] == pytest.approx(edg, rel=1e-15)

    def test_unstable_raises(self):
        cfg = homog(2, 5.0, 1.0, 2.0, 0.5, Scheme.partial(0.5))
        with pytest.raises(UnstableConfig):
            an.system_metrics(cfg)

    def test_exchange_symmetry(self):
        cfg = SystemConfig(3, (0.05, 0.1, 0.15), 2.0, 3.0, (0.4, 0.5, 0.6),
                           Scheme.partial(0.5))
        perm = (2, 0, 1)
        cfg_p = SystemConfig(3, tuple(cfg.gen_rates[i] for i in perm), 2.0, 3.0,
                             tuple(cfg.local_rates[i] for i in perm),
                             Scheme.partial(0.5))
        m = an.system_metrics(cfg)
        m_p = an.system_metrics(cfg_p)
        for k, i in enumerate(perm):
            assert m_p.per_ue_aoi[k] == pytest.approx(m.per_ue_aoi[i], rel=1e-12)
            assert m_p.per_ue_paoi[k] == pytest.approx(m.per_ue_paoi[i], rel=1e-12)
        assert m_p.system_aoi == pytest.approx(m.system_aoi, rel=1e-12)

    @pytest.mark.parametrize("scheme", [Scheme.local(), Scheme.edge(), Scheme.partial(0.5)])
    def test_rates_derived_and_checked_once(self, scheme, monkeypatch):
        # a per-UE re-derivation makes system_metrics O(N^2) in time; both
        # paths derive the rates and test stability inline, and a stable
        # config never reaches require_stable
        calls = {"derive_rates": 0, "require_stable": 0}
        for name in calls:
            def counted(cfg, _real=getattr(an, name), _name=name):
                calls[_name] += 1
                return _real(cfg)
            monkeypatch.setattr(an, name, counted)
        n = 200
        cfg = SystemConfig(n, tuple(0.001 * (1 + k / n) for k in range(n)), 1.5, 1.8,
                           tuple(0.25 + 0.001 * k for k in range(n)), scheme)
        for path in ("loop", "array"):
            calls.update(derive_rates=0, require_stable=0)
            metrics_by(path, cfg)
            assert calls == {"derive_rates": 0, "require_stable": 0}, path

    def test_deterministic_across_calls(self):
        cfg = homog(6, 0.1, 1.5, 1.8, 0.25, Scheme.partial(0.7))
        a = an.system_metrics(cfg)
        b = an.system_metrics(cfg)
        assert a == b  # bit-identical


# ---------------------------------------------------------------------------
# The array pass of system_metrics against the per-UE loop.
# ---------------------------------------------------------------------------


def hetero_config(draw, n, kind):
    """N UEs with spread generation and local rates, stable under `kind`."""
    total = draw.uniform(0.5, 1.2)
    weights = [draw.uniform(0.5, 1.5) for _ in range(n)]
    lam = tuple(w * total / sum(weights) for w in weights)
    mu_local = tuple(ln + draw.uniform(0.1, 0.4) for ln in lam)
    scheme = {"local": Scheme.local(), "edge": Scheme.edge(),
              "partial": Scheme.partial(draw.uniform(0.2, 0.8))}[kind]
    return SystemConfig(n, lam, draw.uniform(1.3, 4.0), draw.uniform(1.3, 3.0), mu_local, scheme)


def metrics_by(path, cfg):
    """system_metrics through the array pass or the per-UE loop, at any N."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(an, "ARRAY_MIN_UES", 1 if path == "array" else math.inf)
        return an.system_metrics(cfg)


class TestArrayPass:
    def test_matches_per_ue_loop(self):
        draw = random.Random(20)
        t = an.ARRAY_MIN_UES
        values = differ = 0
        for kind in ("local", "edge", "partial"):
            for n in (t - 1, t, 100, 1000):
                for _ in range(8):
                    cfg = hetero_config(draw, n, kind)
                    want, got = metrics_by("loop", cfg), metrics_by("array", cfg)
                    pairs = list(zip(want.per_ue_aoi + want.per_ue_paoi
                                     + (want.system_aoi, want.system_paoi),
                                     got.per_ue_aoi + got.per_ue_paoi
                                     + (got.system_aoi, got.system_paoi)))
                    for w, g in pairs:
                        assert g == pytest.approx(w, rel=1e-12, abs=0.0), (kind, n)
                    values += len(pairs)
                    differ += sum(w != g for w, g in pairs)
        print(f"array pass: {differ} of {values} values not bit-equal to the loop")
        # the kernel squares by multiplication, as numpy does, never with pow
        assert differ == 0

    def test_every_ue_flagged_on_the_edge_scheme(self):
        # a == d: every UE is on the singularity
        cfg = SystemConfig(50, tuple(0.01 + 0.0002 * k for k in range(50)), 1.8, 1.8,
                           tuple(0.3 + 0.001 * k for k in range(50)), Scheme.edge())
        got = metrics_by("array", cfg)
        assert all(math.isfinite(v) for v in got.per_ue_aoi)
        assert got == metrics_by("loop", cfg)

    @pytest.mark.parametrize("case", ["edge", "tx_at_boundary", "local_at_boundary", "all"])
    def test_unstable_raises_require_stable_message(self, case):
        n, p = 200, 0.5
        lam_n = tuple(0.004 + 0.00002 * k for k in range(n))
        lam = math.fsum(lam_n)
        mu_b, mu_d = 2.0, 1.8
        mu_local = [ln + 0.2 for ln in lam_n]
        if case in ("edge", "all"):
            mu_b = 0.5 * p * lam
        if case in ("tx_at_boundary", "all"):
            mu_d = lam
        if case in ("local_at_boundary", "all"):
            mu_local[3] = lam_n[3] * (1.0 - p)  # u == lambda_3 exactly
        cfg = SystemConfig(n, lam_n, mu_b, mu_d, tuple(mu_local), Scheme.partial(p))
        with pytest.raises(UnstableConfig) as want:
            require_stable(cfg)
        with pytest.raises(UnstableConfig) as got:
            metrics_by("array", cfg)
        assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# Peak-AoI monotonicity and shape.
# ---------------------------------------------------------------------------


class TestPaoiShape:
    def test_strictly_decreasing_in_service_rates(self):
        base = homog(4, 0.2, 1.5, 2.0, 0.6, Scheme.partial(0.5))
        v0 = an.system_metrics(base).per_ue_paoi[0]
        assert an.system_metrics(
            homog(4, 0.2, 1.6, 2.0, 0.6, Scheme.partial(0.5))).per_ue_paoi[0] < v0
        assert an.system_metrics(
            homog(4, 0.2, 1.5, 2.1, 0.6, Scheme.partial(0.5))).per_ue_paoi[0] < v0
        assert an.system_metrics(
            homog(4, 0.2, 1.5, 2.0, 0.7, Scheme.partial(0.5))).per_ue_paoi[0] < v0

    def test_u_shape_in_generation_rate(self):
        # sparse updates dominate at low rates, queueing at high rates
        vals = []
        for lam_h in [0.02 * k for k in range(1, 18)]:
            cfg = homog(6, lam_h, 1.5, 1.8, 0.25, Scheme.partial(0.5))
            if check_stability(cfg).stable:
                vals.append(an.system_metrics(cfg).system_paoi)
        diffs = [b - a for a, b in zip(vals, vals[1:])]
        sign_changes = sum(1 for x, y in zip(diffs, diffs[1:]) if x < 0 <= y)
        assert diffs[0] < 0            # decreasing at the left edge
        assert diffs[-1] > 0           # increasing near instability
        assert sign_changes == 1       # single interior minimum

    def test_paoi_diverges_at_local_pole(self):
        cfg = homog(1, 0.5, 4.0, 9.0, (0.5 + 1e-8) * 0.5, Scheme.partial(0.5))
        # eff_local = mu_h / 0.5 = 0.5 + 1e-8, just above lambda
        assert an.system_metrics(cfg).per_ue_paoi[0] > 1e7
