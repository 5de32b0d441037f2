"""Simulator tests: hand-computable paths, engine invariants, and
analytic oracles at desk scale.

The expensive high-power comparisons live in test_acceptance; here the
runs are sized to finish in seconds, so the statistical checks use wide
(3 standard error) bands on quantities whose closed forms are exact.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aoi_mec.model import (
    InsufficientData,
    InvalidParams,
    Scheme,
    SystemConfig,
)
from aoi_mec import analytic as an
from aoi_mec.simulate import (
    PACKET_DTYPE,
    CorrelationTerms,
    DivergenceWarning,
    SimParams,
    aoi_from_path,
    estimate_correlation_terms,
    paoi_from_path,
    simulate_mec,
)


def mm1_aoi(lam, mu):
    # M/M/1 FCFS average AoI, independent oracle
    rho = lam / mu
    return (1.0 / mu) * (1.0 + 1.0 / rho + rho * rho / (1.0 - rho))


def make_records(gen, local_done, ue=0, **waits):
    rows = np.zeros(len(gen), dtype=PACKET_DTYPE)
    rows["ue"] = ue
    rows["counted"] = True
    rows["gen"] = gen
    rows["local_done"] = local_done
    for key, val in waits.items():
        rows[key] = val
    return rows


# ---------------------------------------------------------------------------
# Path estimators on hand-built records
# ---------------------------------------------------------------------------


class TestAoiFromPath:
    def test_single_gap_contribution(self):
        # Y=2, T=1 -> Q = 2^2/2 + 2*1 = 4
        est, q = aoi_from_path(make_records([0.0, 2.0], [0.5, 3.0]))
        assert q == pytest.approx([4.0])
        assert est == pytest.approx(2.0)

    def test_zero_gap_contributes_nothing(self):
        # Y=0 gives Q=0 no matter how long the system time is
        _, q = aoi_from_path(make_records([0.0, 1.0, 1.0], [0.5, 1.5, 6.0]))
        assert q[1] == 0.0

    def test_three_packet_hand_value(self):
        # Y=(2,2), T=(1,1): (4+4)/(2+2) = 2
        est, q = aoi_from_path(make_records([0.0, 2.0, 4.0], [1.0, 3.0, 5.0]))
        assert est == pytest.approx(2.0)
        assert list(q) == pytest.approx([4.0, 4.0])

    def test_needs_two_packets(self):
        with pytest.raises(InsufficientData):
            aoi_from_path(make_records([1.0], [2.0]))

    def test_all_gaps_zero_rejected(self):
        with pytest.raises(InsufficientData, match="coincide"):
            aoi_from_path(make_records([1.0, 1.0], [2.0, 3.0]))

    def test_unsorted_generation_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            aoi_from_path(make_records([2.0, 1.0], [3.0, 4.0]))

    def test_mixed_ues_rejected(self):
        rows = make_records([0.0, 1.0], [1.0, 2.0])
        rows["ue"] = [0, 1]
        with pytest.raises(ValueError, match="single UE"):
            aoi_from_path(rows)

    def test_out_of_order_delivery_is_an_engine_bug(self):
        # FCFS stages cannot reorder one UE's deliveries
        with pytest.raises(AssertionError, match="engine bug"):
            aoi_from_path(make_records([0.0, 1.0], [5.0, 4.0]))

    @given(scale=st.floats(0.01, 100.0), shift=st.floats(0.0, 50.0))
    def test_time_rescaling(self, scale, shift):
        # AoI is a time: shifting the origin does nothing, scaling scales it
        gen = np.array([0.0, 1.0, 3.0, 3.5, 7.0])
        done = gen + np.array([0.9, 1.1, 0.4, 2.0, 0.3])
        base, _ = aoi_from_path(make_records(gen, done))
        moved, _ = aoi_from_path(make_records(gen * scale + shift,
                                              done * scale + shift))
        assert moved == pytest.approx(base * scale, rel=1e-9)


class TestPaoiFromPath:
    def test_single_packet(self):
        # Y=2 (from the t=0 anchor), T=1 -> peak 3
        assert paoi_from_path(make_records([2.0], [3.0])) == pytest.approx(3.0)

    def test_two_packet_mean(self):
        # Y=(2,4), T=(1,1) -> (3+5)/2 = 4
        rows = make_records([2.0, 6.0], [3.0, 7.0])
        assert paoi_from_path(rows) == pytest.approx(4.0)

    def test_custom_anchor(self):
        rows = make_records([2.0], [3.0])
        assert paoi_from_path(rows, anchor_time=1.0) == pytest.approx(2.0)

    def test_anchor_after_first_gen_rejected(self):
        with pytest.raises(ValueError):
            paoi_from_path(make_records([2.0], [3.0]), anchor_time=2.5)

    def test_needs_one_packet(self):
        with pytest.raises(InsufficientData):
            paoi_from_path(make_records([], []))


class TestEstimateCorrelationTerms:
    def test_needs_hundred_packets(self):
        gen = np.arange(99, dtype=float)
        with pytest.raises(InsufficientData, match="100"):
            estimate_correlation_terms(make_records(gen, gen + 0.5))

    def test_local_scheme_edge_term_is_exactly_zero(self):
        cfg = SystemConfig.homogeneous(2, 0.2, 1.0, 2.0, 0.8, Scheme.local())
        res = simulate_mec(cfg, SimParams(seed=5, packets_per_ue=2_000,
                                          replications=1, keep_records=True))
        rows = res.records[0]
        rows_ue = rows[(rows["ue"] == 0) & rows["counted"]]
        terms = estimate_correlation_terms(rows_ue)
        assert isinstance(terms, CorrelationTerms)
        assert terms.yw_edge == 0.0
        assert terms.yw_edge_se == 0.0
        assert terms.yw_tx > 0.0

    def test_single_ue_edge_term_matches_closed_form(self):
        # With no interfering UEs the first-stage E[Y W] closed form is
        # exact: lam/(ln a (a-lam)) - 1/a^2 at lam_others=0.
        lam, mu_b, p = 0.4, 1.0, 0.5
        cfg = SystemConfig.homogeneous(1, lam, mu_b, 5.0, 4.0,
                                       Scheme.partial(p))
        a = mu_b / p
        want = lam / (lam * a * (a - lam)) - 1.0 / a ** 2
        res = simulate_mec(cfg, SimParams(seed=11, packets_per_ue=60_000,
                                          replications=1, keep_records=True))
        rows = res.records[0]
        terms = estimate_correlation_terms(rows[rows["counted"]])
        assert terms.yw_edge == pytest.approx(want, abs=3 * terms.yw_edge_se)

    def test_estimates_dominate_lower_bounds(self):
        cfg = SystemConfig.homogeneous(3, 0.15, 1.2, 1.6, 0.7,
                                       Scheme.partial(0.5))
        res = simulate_mec(cfg, SimParams(seed=12, packets_per_ue=30_000,
                                          replications=1, keep_records=True))
        rows = res.records[0]
        rows_ue = rows[(rows["ue"] == 0) & rows["counted"]]
        terms = estimate_correlation_terms(rows_ue)
        lows = an.e_yw_lower_bounds(cfg, 0)
        assert terms.yw_edge >= lows[0] - 3 * terms.yw_edge_se
        assert terms.yw_tx >= lows[1] - 3 * terms.yw_tx_se
        assert terms.yw_local >= lows[2] - 3 * terms.yw_local_se


# ---------------------------------------------------------------------------
# Engine contracts: parameters, determinism, records
# ---------------------------------------------------------------------------


class TestSimParams:
    @pytest.mark.parametrize("kwargs", [
        dict(seed=-1, packets_per_ue=100),
        dict(seed=2 ** 64, packets_per_ue=100),
        dict(seed=1, packets_per_ue=0),
        dict(seed=1, packets_per_ue=100, warmup_packets_per_ue=100),
        dict(seed=1, packets_per_ue=100, warmup_packets_per_ue=-1),
        dict(seed=1, packets_per_ue=100, replications=0),
        dict(seed=1, packets_per_ue=100, queue_cap=0),
    ])
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(InvalidParams):
            SimParams(**kwargs)

    def test_default_warmup_is_ten_percent(self):
        assert SimParams(seed=1, packets_per_ue=1000).warmup() == 100

    def test_too_few_retained_packets(self):
        cfg = SystemConfig.homogeneous(1, 0.5, 1.0, 2.0, 1.5, Scheme.local())
        with pytest.raises(InvalidParams, match="retained"):
            simulate_mec(cfg, SimParams(seed=1, packets_per_ue=2,
                                        warmup_packets_per_ue=1))


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        cfg = SystemConfig.homogeneous(2, 0.3, 1.5, 2.0, 1.0,
                                       Scheme.partial(0.4))
        params = SimParams(seed=77, packets_per_ue=3_000, replications=3)
        a = simulate_mec(cfg, params)
        b = simulate_mec(cfg, params)
        assert a.system_aoi == b.system_aoi
        assert a.system_paoi == b.system_paoi
        assert a.per_ue_aoi == b.per_ue_aoi
        assert a.diagnostics == b.diagnostics

    def test_different_seed_differs(self):
        cfg = SystemConfig.homogeneous(2, 0.3, 1.5, 2.0, 1.0,
                                       Scheme.partial(0.4))
        a = simulate_mec(cfg, SimParams(seed=77, packets_per_ue=3_000))
        b = simulate_mec(cfg, SimParams(seed=78, packets_per_ue=3_000))
        assert a.system_aoi.value != b.system_aoi.value

    def test_boundary_partial_matches_pure_scheme_bitwise(self):
        # Partial(0)/Partial(1) normalize to Local/Edge inside the engine,
        # and the stream layout keeps the randomness identical.
        base = SystemConfig.homogeneous(2, 0.25, 1.4, 2.2, 0.9, Scheme.local())
        params = SimParams(seed=9, packets_per_ue=4_000, replications=2)
        res_local = simulate_mec(base, params)
        res_p0 = simulate_mec(base.with_scheme(Scheme.partial(0.0)), params)
        assert res_local.system_aoi == res_p0.system_aoi
        assert res_local.per_ue_paoi == res_p0.per_ue_paoi

        edge = base.with_scheme(Scheme.edge())
        res_edge = simulate_mec(edge, params)
        res_p1 = simulate_mec(base.with_scheme(Scheme.partial(1.0)), params)
        assert res_edge.system_aoi == res_p1.system_aoi

    def test_generation_shared_across_offload_ratios(self):
        # Common random numbers: changing p must not change when packets
        # are generated, only how they move through the stages.
        base = SystemConfig.homogeneous(2, 0.25, 1.4, 2.2, 0.9,
                                        Scheme.partial(0.3))
        params = SimParams(seed=13, packets_per_ue=1_000, replications=1,
                           keep_records=True)
        r1 = simulate_mec(base, params)
        r2 = simulate_mec(base.with_scheme(Scheme.partial(0.7)), params)
        g1 = np.sort(r1.records[0]["gen"][r1.records[0]["counted"]])
        g2 = np.sort(r2.records[0]["gen"][r2.records[0]["counted"]])
        assert np.array_equal(g1, g2)


@pytest.fixture(scope="module")
def run():
    cfg = SystemConfig.homogeneous(3, 0.2, 1.2, 1.8, 0.6, Scheme.partial(0.5))
    params = SimParams(seed=21, packets_per_ue=2_000, replications=2,
                       keep_records=True)
    return cfg, params, simulate_mec(cfg, params)


class TestRecords:
    def test_stage_ordering(self, run):
        _, _, res = run
        for rows in res.records:
            assert np.all(rows["gen"] <= rows["edge_done"])
            assert np.all(rows["edge_done"] <= rows["tx_done"])
            assert np.all(rows["tx_done"] <= rows["local_done"])

    def test_wait_service_decomposition(self, run):
        _, _, res = run
        rows = res.records[0]
        assert np.allclose(rows["edge_done"],
                           rows["gen"] + rows["wait_edge"] + rows["serv_edge"])
        assert np.allclose(rows["tx_done"],
                           rows["edge_done"] + rows["wait_tx"] + rows["serv_tx"])
        assert np.allclose(rows["local_done"],
                           rows["tx_done"] + rows["wait_local"]
                           + rows["serv_local"])
        for key in ("wait_edge", "serv_edge", "wait_tx", "serv_tx",
                    "wait_local", "serv_local"):
            assert np.all(rows[key] >= 0.0)

    def test_fcfs_departure_order(self, run):
        _, _, res = run
        rows = res.records[0]
        # shared stages never reorder the merged stream
        assert np.all(np.diff(rows["edge_done"]) >= 0)
        assert np.all(np.diff(rows["tx_done"]) >= 0)
        for n in range(3):
            mine = rows[rows["ue"] == n]
            assert np.all(np.diff(mine["local_done"]) >= 0)

    def test_counted_packets_per_ue(self, run):
        cfg, params, res = run
        rows = res.records[0]
        for n in range(cfg.num_ues):
            mine = rows[rows["ue"] == n]
            assert int(mine["counted"].sum()) == params.packets_per_ue
            # padding keeps the shared queues loaded after a UE's own
            # quota is met; it is generated strictly later
            pad = mine[~mine["counted"]]
            if len(pad):
                assert pad["gen"].min() > mine["gen"][mine["counted"]].max()

    def test_delivered_counts_and_finite_cis(self, run):
        cfg, params, res = run
        assert res.diagnostics.delivered == (params.packets_per_ue,) * 3
        assert res.diagnostics.replications == 2
        assert math.isfinite(res.system_aoi.ci95)
        for est in res.per_ue_paoi:
            assert math.isfinite(est.ci95)
            assert est.se > 0.0

    def test_single_replication_has_nan_uncertainty(self):
        cfg = SystemConfig.homogeneous(1, 0.4, 1.0, 3.0, 1.2, Scheme.local())
        res = simulate_mec(cfg, SimParams(seed=3, packets_per_ue=1_000,
                                          replications=1))
        assert math.isnan(res.system_aoi.se)
        assert math.isnan(res.system_aoi.ci95)
        assert math.isfinite(res.system_aoi.value)

    @settings(max_examples=12, deadline=None)
    @given(
        n=st.integers(1, 3),
        lam=st.floats(0.05, 0.3),
        p=st.floats(0.05, 0.95),
        seed=st.integers(0, 2 ** 32),
    )
    def test_invariants_hold_over_random_runs(self, n, lam, p, seed):
        cfg = SystemConfig.homogeneous(n, lam, 1.5, 2.0, 1.0,
                                       Scheme.partial(p))
        res = simulate_mec(cfg, SimParams(seed=seed, packets_per_ue=300,
                                          replications=1, keep_records=True))
        rows = res.records[0]
        assert np.all(rows["gen"] <= rows["edge_done"])
        assert np.all(rows["edge_done"] <= rows["tx_done"])
        assert np.all(rows["tx_done"] <= rows["local_done"])
        assert np.all(np.diff(rows["tx_done"]) >= 0)


class TestSchemeStages:
    def test_local_scheme_skips_edge_stage(self):
        cfg = SystemConfig.homogeneous(2, 0.3, 1.0, 2.0, 1.5, Scheme.local())
        res = simulate_mec(cfg, SimParams(seed=4, packets_per_ue=500,
                                          replications=1, keep_records=True))
        rows = res.records[0]
        assert np.all(rows["wait_edge"] == 0.0)
        assert np.all(rows["serv_edge"] == 0.0)
        assert np.array_equal(rows["edge_done"], rows["gen"])
        assert res.diagnostics.max_edge_queue == 0

    def test_edge_scheme_skips_local_stage(self):
        cfg = SystemConfig.homogeneous(2, 0.3, 1.0, 2.0, 1.5, Scheme.edge())
        res = simulate_mec(cfg, SimParams(seed=4, packets_per_ue=500,
                                          replications=1, keep_records=True))
        rows = res.records[0]
        assert np.all(rows["wait_local"] == 0.0)
        assert np.all(rows["serv_local"] == 0.0)
        assert np.array_equal(rows["local_done"], rows["tx_done"])
        assert res.diagnostics.max_local_queues == (0, 0)


# ---------------------------------------------------------------------------
# Statistical agreement with exact closed forms (desk scale, 3 SE bands)
# ---------------------------------------------------------------------------


class TestAnalyticOracles:
    def test_single_queue_reduction_aoi(self):
        # N=1, local scheme, transmission essentially instantaneous: the
        # tandem collapses to one M/M/1 whose AoI has a textbook form.
        lam, mu = 0.5, 1.0
        cfg = SystemConfig.homogeneous(1, lam, 1.0, 1e6, mu, Scheme.local())
        res = simulate_mec(cfg, SimParams(seed=31, packets_per_ue=100_000,
                                          replications=10))
        want = mm1_aoi(lam, mu)
        z = (res.system_aoi.value - want) / res.system_aoi.se
        assert abs(z) < 3, f"AoI {res.system_aoi.value} vs {want}, z={z:.2f}"
        # and the library closed form agrees with the same run
        z2 = (res.system_aoi.value - an.system_metrics(cfg).system_aoi)
        assert abs(z2 / res.system_aoi.se) < 3

    def test_edge_reduction_matches_mm1(self):
        lam, mu_b = 0.45, 1.0
        cfg = SystemConfig.homogeneous(1, lam, mu_b, 1e5, 0.7, Scheme.edge())
        res = simulate_mec(cfg, SimParams(seed=32, packets_per_ue=30_000,
                                          replications=10))
        z = (res.system_aoi.value - mm1_aoi(lam, mu_b)) / res.system_aoi.se
        assert abs(z) < 3

    def test_multi_ue_edge_term_exact(self):
        # The edge queue is a multi-source FCFS M/M/1 first stage, so its
        # E[Y W] closed form is exact for N > 1 too. The first-order form
        # lam/(ln a (a-lam)) + ln lo/(a (a-lo)^3) - 1/(a-lo)^2 is exact only
        # at N = 1; this run resolves its shortfall, so the check has power.
        cfg = SystemConfig.homogeneous(4, 0.15, 1.0, 3.0, 1.0, Scheme.edge())
        res = simulate_mec(cfg, SimParams(seed=41, packets_per_ue=20_000,
                                          replications=10,
                                          record_correlations=True))
        ln, lo, lam, a = 0.15, 0.45, 0.6, 1.0
        first_order = (lam / (ln * a * (a - lam)) + ln * lo / (a * (a - lo) ** 3)
                       - 1.0 / (a - lo) ** 2)
        for n, est in enumerate(res.correlations.yw_edge):
            want = an.e_yw(cfg, n)[0]
            assert abs(est.value - want) < 3 * est.se, (n, est, want)
            assert est.value - first_order > 3 * est.se, (n, est, first_order)

    def test_heterogeneous_edge_term_exact(self):
        cfg = SystemConfig(3, (0.05, 0.15, 0.3), 1.0, 3.0, (1.0, 1.0, 1.0),
                           Scheme.edge())
        res = simulate_mec(cfg, SimParams(seed=42, packets_per_ue=20_000,
                                          replications=10,
                                          record_correlations=True))
        for n, est in enumerate(res.correlations.yw_edge):
            want = an.e_yw(cfg, n)[0]
            assert abs(est.value - want) < 3 * est.se, (n, est, want)

    def test_paoi_closed_form_three_stage(self):
        # Peak AoI needs only per-stage mean sojourns, so its closed form
        # is exact for any N and the engine must land within noise of it.
        cfg = SystemConfig.homogeneous(3, 0.2, 1.2, 1.8, 0.8,
                                       Scheme.partial(0.5))
        res = simulate_mec(cfg, SimParams(seed=33, packets_per_ue=30_000,
                                          replications=10))
        want = an.system_metrics(cfg).system_paoi
        z = (res.system_paoi.value - want) / res.system_paoi.se
        assert abs(z) < 3, f"PAoI {res.system_paoi.value} vs {want}, z={z:.2f}"

    def test_paoi_grid_point_within_two_percent(self):
        # N=6 grid point at p=1: closed form 12.916667
        cfg = SystemConfig.homogeneous(6, 0.1, 1.0, 3.0, 0.2, Scheme.edge())
        want = an.system_metrics(cfg).system_paoi
        assert want == pytest.approx(12.916667, abs=1e-6)
        res = simulate_mec(cfg, SimParams(seed=34, packets_per_ue=20_000,
                                          replications=5))
        assert res.system_paoi.value == pytest.approx(want, rel=0.02)

    def test_paoi_mid_grid_partial_within_two_percent(self):
        cfg = SystemConfig.homogeneous(6, 0.1, 1.5, 1.8, 0.25,
                                       Scheme.partial(0.5))
        want = an.system_metrics(cfg).system_paoi
        res = simulate_mec(cfg, SimParams(seed=35, packets_per_ue=20_000,
                                          replications=5))
        assert res.system_paoi.value == pytest.approx(want, rel=0.02)

    def test_more_replications_shrink_uncertainty(self):
        cfg = SystemConfig.homogeneous(2, 0.3, 1.5, 2.0, 1.0,
                                       Scheme.partial(0.4))
        few = simulate_mec(cfg, SimParams(seed=36, packets_per_ue=4_000,
                                          replications=6))
        many = simulate_mec(cfg, SimParams(seed=36, packets_per_ue=4_000,
                                           replications=24))
        ratio = few.system_paoi.se / many.system_paoi.se
        # expect ~2 with plenty of slack for the noisy variance estimates
        assert 1.2 < ratio < 3.3


class TestGeometricOccupancy:
    def test_other_ue_count_is_geometric_given_own_idle(self):
        # At a tagged generation instant with none of the tagged UE's own
        # packets at the edge node, the other-UE count there is geometric
        # with ratio (other load)/(effective edge rate).
        cfg = SystemConfig.homogeneous(2, 0.25, 1.0, 3.0, 1.5,
                                       Scheme.partial(0.5))
        res = simulate_mec(cfg, SimParams(seed=41, packets_per_ue=40_000,
                                          replications=5,
                                          record_correlations=True))
        corr = res.correlations
        alpha = 0.25 / (1.0 / 0.5)  # lam_others / eff_edge
        hist = np.array(corr.edge_others_hist_own0[0], dtype=float)
        total = hist.sum()
        assert total == corr.edge_own0_samples[0] > 10_000
        # chi-square against the geometric pmf, tail pooled
        kmax = len(hist) - 1
        pmf = (1 - alpha) * alpha ** np.arange(kmax + 1)
        expected = total * pmf
        # pool bins with tiny expected counts into the tail
        keep = expected >= 5.0
        obs = np.append(hist[keep], hist[~keep].sum())
        exp = np.append(expected[keep], total - expected[keep].sum())
        from scipy import stats
        chi2 = float(((obs - exp) ** 2 / exp).sum())
        pval = float(stats.chi2.sf(chi2, df=len(obs) - 1))
        assert pval > 0.01, f"chi2={chi2:.1f}, p={pval:.4f}"

    def test_covariances_nonpositive(self):
        # longer generation gaps leave emptier queues behind
        cfg = SystemConfig.homogeneous(3, 0.2, 1.2, 1.8, 0.8,
                                       Scheme.partial(0.5))
        res = simulate_mec(cfg, SimParams(seed=42, packets_per_ue=20_000,
                                          replications=8,
                                          record_correlations=True))
        corr = res.correlations
        for field in ("cov_y_wedge", "cov_y_wtx", "cov_y_wlocal"):
            for est in getattr(corr, field):
                assert est.value <= 3 * est.se

    def test_splits_sum_to_stage_terms(self):
        cfg = SystemConfig.homogeneous(2, 0.2, 1.0, 1.5, 0.8,
                                       Scheme.partial(0.5))
        res = simulate_mec(cfg, SimParams(seed=43, packets_per_ue=10_000,
                                          replications=3,
                                          record_correlations=True))
        corr = res.correlations
        for n in range(2):
            assert (corr.phi_bjd[n].value + corr.phi_ljd[n].value
                    == pytest.approx(corr.yw_tx[n].value, rel=1e-9))
            assert (corr.phi_bju[n].value + corr.phi_lju[n].value
                    == pytest.approx(corr.yw_local[n].value, rel=1e-9))

    def test_correlations_absent_by_default(self):
        cfg = SystemConfig.homogeneous(1, 0.3, 1.0, 2.0, 1.0, Scheme.local())
        res = simulate_mec(cfg, SimParams(seed=44, packets_per_ue=1_000))
        assert res.correlations is None
        assert res.records is None


class TestDivergence:
    def test_unstable_run_warns_and_flags(self):
        cfg = SystemConfig.homogeneous(1, 2.0, 5.0, 5.0, 1.0, Scheme.local())
        params = SimParams(seed=51, packets_per_ue=5_000, replications=1,
                           queue_cap=200)
        with pytest.warns(DivergenceWarning):
            res = simulate_mec(cfg, params)
        assert res.diagnostics.diverged
        assert res.diagnostics.near_unstable
        assert math.isfinite(res.system_aoi.value)

    def test_stable_run_does_not_warn(self):
        cfg = SystemConfig.homogeneous(1, 0.4, 5.0, 5.0, 1.0, Scheme.local())
        with warnings.catch_warnings():
            warnings.simplefilter("error", DivergenceWarning)
            res = simulate_mec(cfg, SimParams(seed=52, packets_per_ue=5_000,
                                              replications=1))
        assert not res.diagnostics.diverged
        assert not res.diagnostics.near_unstable
