"""Tests for the system model: config validation, derived rates, stability."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoi_mec.model import (
    EDGE,
    LOCAL,
    PARTIAL,
    NEAR_UNSTABLE_UTIL,
    Scheme,
    SystemConfig,
    UnstableConfig,
    check_stability,
    derive_rates,
    is_homogeneous,
    require_stable,
)

rates = st.floats(min_value=0.01, max_value=100.0,
                  allow_nan=False, allow_infinity=False)
ratios = st.floats(min_value=0.0, max_value=1.0,
                   allow_nan=False, allow_infinity=False)


def homog(n, lam_h, mu_b, mu_d, mu_h, scheme):
    return SystemConfig.homogeneous(n, lam_h, mu_b, mu_d, mu_h, scheme)


# ---------------------------------------------------------------------------
# Scheme
# ---------------------------------------------------------------------------


class TestScheme:
    def test_constructors(self):
        assert Scheme.local() == Scheme(LOCAL, 0.0)
        assert Scheme.edge() == Scheme(EDGE, 1.0)
        assert Scheme.partial(0.3).p == 0.3
        assert Scheme.partial(0.3).kind == PARTIAL

    @pytest.mark.parametrize("p", [-0.1, 1.0001, 2.0])
    def test_ratio_out_of_range(self, p):
        with pytest.raises(ValueError):
            Scheme.partial(p)

    def test_kind_ratio_consistency(self):
        with pytest.raises(ValueError):
            Scheme(LOCAL, 0.5)
        with pytest.raises(ValueError):
            Scheme(EDGE, 0.5)
        with pytest.raises(ValueError):
            Scheme("cloud", 0.5)

    def test_boundary_ratios_are_legal_partials(self):
        # Partial(0)/Partial(1) construct fine; they differ from Local and
        # Edge only in their label.
        assert Scheme.partial(0.0).p == 0.0
        assert Scheme.partial(1.0).p == 1.0


# ---------------------------------------------------------------------------
# SystemConfig
# ---------------------------------------------------------------------------


class TestSystemConfig:
    def test_homogeneous_builder(self):
        cfg = homog(3, 0.1, 1.0, 2.0, 0.5, Scheme.local())
        assert cfg.num_ues == 3
        assert cfg.gen_rates == (0.1, 0.1, 0.1)
        assert cfg.local_rates == (0.5, 0.5, 0.5)
        assert cfg.edge_rate == 1.0 and cfg.tx_rate == 2.0

    def test_sequences_coerced_to_float_tuples(self):
        cfg = SystemConfig(2, [1, 2], 5.0, 5.0, [3, 4], Scheme.local())
        assert cfg.gen_rates == (1.0, 2.0)
        assert isinstance(cfg.gen_rates, tuple)
        assert cfg.local_rates == (3.0, 4.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            SystemConfig(3, (0.1, 0.1), 1.0, 1.0, (0.5,) * 3, Scheme.local())
        with pytest.raises(ValueError):
            SystemConfig(3, (0.1,) * 3, 1.0, 1.0, (0.5,) * 2, Scheme.local())

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    @pytest.mark.parametrize("slot", range(4))
    def test_rates_strictly_positive_and_finite(self, bad, slot):
        args = [0.1, 1.0, 1.0, 0.5]
        args[slot] = bad
        with pytest.raises(ValueError):
            homog(2, *args, Scheme.local())

    def test_num_ues_at_least_one(self):
        with pytest.raises(ValueError):
            SystemConfig(0, (), 1.0, 1.0, (), Scheme.local())

    def test_with_scheme_leaves_original(self):
        cfg = homog(2, 0.1, 1.0, 2.0, 0.5, Scheme.local())
        cfg2 = cfg.with_scheme(Scheme.partial(0.4))
        assert cfg.scheme == Scheme.local()
        assert cfg2.scheme.p == 0.4
        assert cfg2.gen_rates == cfg.gen_rates

    def test_is_homogeneous(self):
        assert is_homogeneous(homog(4, 0.1, 1.0, 1.0, 0.5, Scheme.local()))
        het_gen = SystemConfig(2, (0.1, 0.2), 1.0, 1.0, (0.5, 0.5), Scheme.local())
        het_loc = SystemConfig(2, (0.1, 0.1), 1.0, 1.0, (0.5, 0.6), Scheme.local())
        assert not is_homogeneous(het_gen)
        assert not is_homogeneous(het_loc)
        assert is_homogeneous(homog(1, 0.1, 1.0, 1.0, 0.5, Scheme.local()))


# ---------------------------------------------------------------------------
# derive_rates
# ---------------------------------------------------------------------------


class TestDeriveRates:
    def test_worked_example(self):
        # N=2, lambda=(0.1,0.1), p=0.5, mu_B=1, mu_n=0.5.
        cfg = homog(2, 0.1, 1.0, 9.0, 0.5, Scheme.partial(0.5))
        r = derive_rates(cfg)
        assert r.total_gen == pytest.approx(0.2)
        assert r.others_gen == (pytest.approx(0.1), pytest.approx(0.1))
        assert r.eff_edge == pytest.approx(2.0)
        assert r.eff_local == (pytest.approx(1.0), pytest.approx(1.0))
        assert r.tx_rate == 9.0

    def test_local_boundary(self):
        cfg = homog(2, 0.1, 1.0, 9.0, 0.5, Scheme.partial(0.0))
        r = derive_rates(cfg)
        assert math.isinf(r.eff_edge)
        assert r.eff_local == (0.5, 0.5)

    def test_edge_boundary(self):
        cfg = homog(2, 0.1, 1.0, 9.0, 0.5, Scheme.partial(1.0))
        r = derive_rates(cfg)
        assert r.eff_edge == 1.0
        assert all(math.isinf(u) for u in r.eff_local)

    def test_heterogeneous_aggregates(self):
        cfg = SystemConfig(3, (0.1, 0.2, 0.3), 2.0, 5.0, (1.0, 1.5, 2.0),
                           Scheme.partial(0.25))
        r = derive_rates(cfg)
        lam = 0.1 + 0.2 + 0.3
        assert r.total_gen == pytest.approx(lam, rel=1e-15)
        for n, ln in enumerate(cfg.gen_rates):
            assert r.others_gen[n] == r.total_gen - ln  # exact by construction
            assert r.gen_rates[n] == ln
        assert r.eff_edge == pytest.approx(8.0)
        assert r.eff_local == tuple(pytest.approx(mu / 0.75) for mu in cfg.local_rates)

    @given(n=st.integers(1, 8), lam_h=rates, mu_b=rates, mu_h=rates, p=ratios)
    @settings(max_examples=200, deadline=None)
    def test_effective_rates_dominate_raw(self, n, lam_h, mu_b, mu_h, p):
        cfg = homog(n, lam_h, mu_b, 1.0, mu_h, Scheme.partial(p))
        r = derive_rates(cfg)
        assert r.eff_edge >= mu_b
        assert all(u >= mu_h for u in r.eff_local)
        # homogeneous: every UE sees the same others-rate, (N-1) * lambda_h
        assert len(set(r.others_gen)) == 1
        assert r.others_gen[0] == pytest.approx((n - 1) * lam_h, rel=1e-12, abs=1e-15)

    @given(n=st.integers(1, 6), lam_h=rates, p=ratios)
    @settings(max_examples=100, deadline=None)
    def test_deterministic(self, n, lam_h, p):
        cfg = homog(n, lam_h, 1.0, 1.0, 1.0, Scheme.partial(p))
        assert derive_rates(cfg) == derive_rates(cfg)


# ---------------------------------------------------------------------------
# check_stability
# ---------------------------------------------------------------------------


class TestStability:
    def test_stable_edge_scheme(self):
        cfg = homog(6, 0.1, 1.0, 3.0, 0.2, Scheme.edge())
        rep = check_stability(cfg)
        assert rep.stable and rep.edge_ok and rep.tx_ok and all(rep.local_ok)
        assert rep.edge_util == pytest.approx(0.6)
        assert rep.tx_util == pytest.approx(0.2)
        assert rep.local_utils == (0.0,) * 6  # pass-through stage
        assert rep.violations == ()

    def test_unstable_edge_queue(self):
        cfg = homog(6, 0.2, 1.0, 3.0, 0.2, Scheme.edge())
        rep = check_stability(cfg)
        assert not rep.stable and not rep.edge_ok
        assert rep.tx_ok
        assert any("edge" in v for v in rep.violations)

    def test_optimal_ratio_point_is_stable(self):
        cfg = homog(6, 0.2, 1.5, 1.8, 0.25, Scheme.partial(0.8152))
        rep = check_stability(cfg)
        assert rep.stable
        r = derive_rates(cfg)
        assert r.eff_edge == pytest.approx(1.5 / 0.8152, rel=1e-12)
        assert r.eff_local[0] == pytest.approx(0.25 / (1 - 0.8152), rel=1e-12)

    def test_instability_is_report_not_fault(self):
        cfg = homog(2, 10.0, 1.0, 1.0, 1.0, Scheme.partial(0.5))
        rep = check_stability(cfg)
        assert not rep.stable
        assert len(rep.violations) >= 2

    def test_require_stable_raises_with_reason(self):
        cfg = homog(6, 0.2, 1.0, 3.0, 0.2, Scheme.edge())
        with pytest.raises(UnstableConfig, match="edge computation queue"):
            require_stable(cfg)

    def test_near_unstable_flag(self):
        # utilization 0.96 at the transmission queue, all else comfortable
        cfg = homog(1, 0.96, 100.0, 1.0, 100.0, Scheme.partial(0.5))
        rep = check_stability(cfg)
        assert rep.stable and rep.near_unstable
        cfg2 = homog(1, 0.5, 100.0, 1.0, 100.0, Scheme.partial(0.5))
        assert not check_stability(cfg2).near_unstable
        assert math.isclose(NEAR_UNSTABLE_UTIL, 0.95)

    def test_exactly_critical_is_unstable(self):
        # strict inequality required: lambda == mu_D fails
        cfg = homog(1, 1.0, 100.0, 1.0, 100.0, Scheme.partial(0.5))
        assert not check_stability(cfg).stable

    @given(lam_h=rates, mu_b=rates, mu_h=rates,
           p_lo=ratios, p_hi=ratios, n=st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_edge_stability_monotone_in_p(self, lam_h, mu_b, mu_h, p_lo, p_hi, n):
        # raising p lowers mu_B'; an unstable edge queue can never recover
        if p_lo > p_hi:
            p_lo, p_hi = p_hi, p_lo
        cfg = homog(n, lam_h, mu_b, 1.0, mu_h, Scheme.partial(p_lo))
        rep_lo = check_stability(cfg)
        rep_hi = check_stability(cfg.with_scheme(Scheme.partial(p_hi)))
        if not rep_lo.edge_ok:
            assert not rep_hi.edge_ok

