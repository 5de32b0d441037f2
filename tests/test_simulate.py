"""Simulator tests: hand-computable paths, engine invariants, and
analytic oracles at desk scale.

The expensive high-power comparisons live in test_acceptance; here the
runs are sized to finish in seconds, so the statistical checks use wide
(3 standard error) bands on quantities whose closed forms are exact.
"""

import math
import multiprocessing
import os
import pickle
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aoi_mec.model import (
    InvalidParams,
    Scheme,
    SystemConfig,
)
from aoi_mec import analytic as an
from aoi_mec import simulate
from aoi_mec.simulate import (
    PARALLEL_MIN_PACKETS,
    DivergenceWarning,
    Estimate,
    SimParams,
    _estimate_ue,
    _found,
    _peak,
    _run_replication,
    _t_quantile,
    simulate_mec,
)


def mm1_aoi(lam, mu):
    # M/M/1 FCFS average AoI, independent oracle
    rho = lam / mu
    return (1.0 / mu) * (1.0 + 1.0 / rho + rho * rho / (1.0 - rho))


def estimate_path(gen, local_done, M=None, W=0):
    """_estimate_ue on one hand-built delivery path (no waits)."""
    ue = {"gen": np.asarray(gen, dtype=float),
          "local_done": np.asarray(local_done, dtype=float)}
    return _estimate_ue(ue, len(gen) if M is None else M, W, False)


def ue_ranges(offsets):
    return [slice(offsets[n], offsets[n + 1]) for n in range(len(offsets) - 1)]


# ---------------------------------------------------------------------------
# The sawtooth-area estimator on hand-built paths (no warm-up)
# ---------------------------------------------------------------------------


class TestAoiFromPath:
    def test_single_gap_contribution(self):
        # Y=2, T=1 -> integrated age 2^2/2 + 2*1 = 4 over time 2
        assert estimate_path([0.0, 2.0], [0.5, 3.0])["aoi"] == pytest.approx(2.0)

    def test_zero_gap_contributes_nothing(self):
        # Y=0 adds no age and no time, however long the system time is
        with_zero = estimate_path([0.0, 1.0, 1.0], [0.5, 1.5, 6.0])["aoi"]
        without = estimate_path([0.0, 1.0], [0.5, 1.5])["aoi"]
        assert with_zero == without == pytest.approx(1.0)

    def test_three_packet_hand_value(self):
        # Y=(2,2), T=(1,1): (4+4)/(2+2) = 2
        est = estimate_path([0.0, 2.0, 4.0], [1.0, 3.0, 5.0])
        assert est["aoi"] == pytest.approx(2.0)

    def test_window_skips_warmup_and_padding(self):
        # only pairs inside [W, M) count: here the packets at 10, 11 and 13
        gen = [0.0, 10.0, 11.0, 13.0, 50.0]
        done = [9.0, 10.5, 12.0, 13.5, 99.0]
        assert estimate_path(gen, done, M=4, W=1) == estimate_path(gen[1:4], done[1:4])

    def test_needs_two_packets(self):
        # the estimator needs one generation pair; simulate_mec guards it
        cfg = SystemConfig.homogeneous(1, 0.5, 1.0, 2.0, 1.5, Scheme.local())
        with pytest.raises(InvalidParams, match="retained"):
            simulate_mec(cfg, SimParams(seed=1, packets_per_ue=1))

    def test_out_of_order_delivery_is_an_engine_bug(self):
        # FCFS stages cannot reorder one UE's deliveries, in any scheme
        for scheme in (Scheme.local(), Scheme.edge(), Scheme.partial(0.5)):
            cfg = SystemConfig.homogeneous(3, 0.2, 1.2, 1.8, 0.6, scheme)
            cols, offsets, _ = _run_replication(
                cfg, SimParams(seed=6, packets_per_ue=500), 0)
            for ue in ue_ranges(offsets):
                assert np.all(np.diff(cols["gen"][ue]) > 0)
                assert np.all(np.diff(cols["local_done"][ue]) >= 0)

    @given(scale=st.floats(0.01, 100.0), shift=st.floats(0.0, 50.0))
    def test_time_rescaling(self, scale, shift):
        # AoI is a time: shifting the origin does nothing, scaling scales it
        gen = np.array([0.0, 1.0, 3.0, 3.5, 7.0])
        done = gen + np.array([0.9, 1.1, 0.4, 2.0, 0.3])
        base = estimate_path(gen, done)["aoi"]
        moved = estimate_path(gen * scale + shift, done * scale + shift)["aoi"]
        assert moved == pytest.approx(base * scale, rel=1e-9)


class TestPaoiFromPath:
    def test_single_packet(self):
        # Y=2 (from the predecessor at t=0), T=1 -> peak 3
        assert estimate_path([0.0, 2.0], [0.5, 3.0])["paoi"] == pytest.approx(3.0)

    def test_two_packet_mean(self):
        # Y=(2,4), T=(1,1) -> (3+5)/2 = 4
        est = estimate_path([0.0, 2.0, 6.0], [1.0, 3.0, 7.0])
        assert est["paoi"] == pytest.approx(4.0)


class TestEstimateCorrelationTerms:
    def test_local_scheme_edge_term_is_exactly_zero(self):
        cfg = SystemConfig.homogeneous(2, 0.2, 1.0, 2.0, 0.8, Scheme.local())
        res = simulate_mec(cfg, SimParams(seed=5, packets_per_ue=1_000,
                                          replications=2,
                                          record_correlations=True))
        corr = res.correlations
        assert corr.yw_edge[0] == Estimate(0.0, 0.0, 0.0)
        assert corr.yw_tx[0].value > 0.0

    def test_single_ue_edge_term_matches_closed_form(self):
        # With no interfering UEs the first-stage E[Y W] closed form is
        # exact: lam/(ln a (a-lam)) - 1/a^2 at lam_others=0.
        lam, mu_b, p = 0.4, 1.0, 0.5
        cfg = SystemConfig.homogeneous(1, lam, mu_b, 5.0, 4.0,
                                       Scheme.partial(p))
        a = mu_b / p
        want = lam / (lam * a * (a - lam)) - 1.0 / a ** 2
        res = simulate_mec(cfg, SimParams(seed=11, packets_per_ue=6_000,
                                          replications=10,
                                          record_correlations=True))
        est = res.correlations.yw_edge[0]
        assert est.value == pytest.approx(want, abs=3 * est.se)

    def test_estimates_dominate_lower_bounds(self):
        cfg = SystemConfig.homogeneous(3, 0.15, 1.2, 1.6, 0.7,
                                       Scheme.partial(0.5))
        res = simulate_mec(cfg, SimParams(seed=12, packets_per_ue=3_000,
                                          replications=10,
                                          record_correlations=True))
        corr = res.correlations
        lows = an.e_yw_lower_bounds(cfg, 0)
        for est, low in zip((corr.yw_edge[0], corr.yw_tx[0], corr.yw_local[0]),
                            lows):
            assert est.value >= low - 3 * est.se


# ---------------------------------------------------------------------------
# Engine contracts: parameters, determinism, replication columns
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


class TestTQuantile:
    # the 95 % CI half-width multiplier of _aggregate, against scipy
    def test_matches_scipy_for_df_1_to_1000(self):
        stats = pytest.importorskip("scipy.stats")
        df = np.arange(1, 1001)
        ref = stats.t.ppf(0.975, df)
        got = np.array([_t_quantile(0.975, int(d)) for d in df])
        assert np.max(np.abs(got / ref - 1.0)) < 1e-13

    @pytest.mark.parametrize("p", [0.5, 0.6, 0.9, 0.995])
    def test_other_levels(self, p):
        stats = pytest.importorskip("scipy.stats")
        for df in range(1, 60):
            assert _t_quantile(p, df) == pytest.approx(stats.t.ppf(p, df),
                                                       rel=1e-13, abs=1e-15)

    def test_closed_forms_are_exact(self):
        stats = pytest.importorskip("scipy.stats")
        for df in (1, 2):
            assert _t_quantile(0.975, df) == float(stats.t.ppf(0.975, df))


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

    def test_fixed_seed_output_is_pinned(self):
        # Exact values from a fixed seed: any change to the stream layout,
        # the merge order or the estimators' arithmetic shows here.
        cfg = SystemConfig.homogeneous(2, 0.2, 1.0, 1.5, 0.8,
                                       Scheme.partial(0.5))
        res = simulate_mec(cfg, SimParams(seed=2024, packets_per_ue=2_000,
                                          replications=2,
                                          record_correlations=True))
        assert repr(res.system_aoi) == (
            "Estimate(value=7.096579135720725, se=0.10788329760574111, "
            "ci95=1.3707872669922119)")
        assert repr(res.system_paoi) == (
            "Estimate(value=7.29007390848982, se=0.05111799636823333, "
            "ci95=0.6495157275578072)")
        assert repr(res.correlations.yw_tx[1]) == (
            "Estimate(value=0.6538401396562373, se=0.09237708729450056, "
            "ci95=1.1737621840954062)")
        # the queue counts: peaks and the edge-occupancy histogram
        assert repr(res.diagnostics) == (
            "Diagnostics(max_edge_queue=6, max_tx_queue=7, "
            "max_local_queues=(5, 5), sim_time=10339.171744537625, "
            "diverged=False, near_unstable=False, replications=2)")
        assert res.correlations.edge_others_hist_own0 == (
            (2861, 290, 26, 2, 0, 1), (2851, 327, 28, 2))

    def test_fixed_seed_output_is_pinned_without_correlations(self):
        # The same run with correlations off takes the path that builds no
        # edge occupancy column; its estimates and queue peaks must not move.
        cfg = SystemConfig.homogeneous(2, 0.2, 1.0, 1.5, 0.8,
                                       Scheme.partial(0.5))
        res = simulate_mec(cfg, SimParams(seed=2024, packets_per_ue=2_000,
                                          replications=2,
                                          record_correlations=False))
        assert res.correlations is None
        assert repr(res.system_aoi) == (
            "Estimate(value=7.096579135720725, se=0.10788329760574111, "
            "ci95=1.3707872669922119)")
        assert repr(res.system_paoi) == (
            "Estimate(value=7.29007390848982, se=0.05111799636823333, "
            "ci95=0.6495157275578072)")
        assert repr(res.diagnostics) == (
            "Diagnostics(max_edge_queue=6, max_tx_queue=7, "
            "max_local_queues=(5, 5), sim_time=10339.171744537625, "
            "diverged=False, near_unstable=False, replications=2)")

    def test_fixed_seed_output_is_pinned_at_ten_replications(self):
        # Ten replications of nine UEs: the pooled means and spreads reduce
        # at least 8 values, numpy's pairwise-summation block, so a change
        # in the order the replications are summed shows here.
        cfg = SystemConfig.homogeneous(9, 0.06, 1.5, 1.8, 0.5,
                                       Scheme.partial(0.5))
        res = simulate_mec(cfg, SimParams(seed=2025, packets_per_ue=2_000,
                                          replications=10,
                                          record_correlations=True))
        assert repr(res.system_aoi) == (
            "Estimate(value=18.809874987142628, se=0.07370507308258807, "
            "ci95=0.16673245900834177)")
        assert repr(res.correlations.yw_tx[4]) == (
            "Estimate(value=3.324868114520327, se=0.1260446882253804, "
            "ci95=0.28513289430171085)")
        assert repr(res.diagnostics) == (
            "Diagnostics(max_edge_queue=8, max_tx_queue=9, "
            "max_local_queues=(4, 5, 4, 4, 4, 4, 4, 4, 4), "
            "sim_time=35806.93878942731, diverged=False, "
            "near_unstable=False, replications=10)")
        assert res.correlations.edge_others_hist_own0[4] == (
            14768, 2376, 346, 51, 11, 3)

    def test_boundary_partial_matches_pure_scheme_bitwise(self):
        # The engine reads the scheme only through derive_rates, which sees
        # p alone (Local has p = 0 and Edge p = 1), and the stream layout
        # keeps the randomness identical.
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
        params = SimParams(seed=13, packets_per_ue=1_000, replications=1)
        c1, o1, _ = _run_replication(base, params, 0)
        c2, o2, _ = _run_replication(base.with_scheme(Scheme.partial(0.7)),
                                     params, 0)
        M = params.packets_per_ue
        for n in range(base.num_ues):
            assert np.array_equal(c1["gen"][o1[n]:o1[n] + M],
                                  c2["gen"][o2[n]:o2[n] + M])


@pytest.fixture(scope="module")
def run():
    cfg = SystemConfig.homogeneous(3, 0.2, 1.2, 1.8, 0.6, Scheme.partial(0.5))
    params = SimParams(seed=21, packets_per_ue=2_000, replications=2)
    reps = [_run_replication(cfg, params, rep) for rep in range(2)]
    return cfg, params, simulate_mec(cfg, params), reps


class TestRecords:
    def test_stage_ordering(self, run):
        *_, reps = run
        for cols, _, _ in reps:
            assert np.all(cols["gen"] <= cols["edge_done"])
            assert np.all(cols["edge_done"] <= cols["tx_done"])
            assert np.all(cols["tx_done"] <= cols["local_done"])

    def test_wait_service_decomposition(self, run):
        # done = arrival + wait + service at every stage; the service times
        # this leaves are positive with the stage's mean
        cfg, *_, reps = run
        cols, offsets, _ = reps[0]
        serv_edge = cols["edge_done"] - cols["gen"] - cols["wait_edge"]
        serv_tx = cols["tx_done"] - cols["edge_done"] - cols["wait_tx"]
        serv_local = cols["local_done"] - cols["tx_done"] - cols["wait_local"]
        for key in ("wait_edge", "wait_tx", "wait_local"):
            assert np.all(cols[key] >= 0.0)
        p = cfg.scheme.p
        for serv, rate in ((serv_edge, cfg.edge_rate / p),
                           (serv_tx, cfg.tx_rate),
                           (serv_local, cfg.local_rates[0] / (1 - p))):
            assert np.all(serv > 0.0)
            assert np.mean(serv) == pytest.approx(1.0 / rate, rel=0.05)
        for ue in ue_ranges(offsets):
            assert np.mean(serv_local[ue]) == pytest.approx(
                (1 - p) / cfg.local_rates[0], rel=0.08)

    def test_fcfs_departure_order(self, run):
        *_, reps = run
        cols, offsets, _ = reps[0]
        # shared stages never reorder the merged stream
        order = np.argsort(cols["gen"], kind="stable")
        assert np.all(np.diff(cols["gen"][order]) >= 0)
        assert np.all(np.diff(cols["edge_done"][order]) >= 0)
        assert np.all(np.diff(cols["tx_done"][order]) >= 0)
        for ue in ue_ranges(offsets):
            assert np.all(np.diff(cols["local_done"][ue]) >= 0)

    def test_counted_packets_per_ue(self, run):
        cfg, params, _, reps = run
        M = params.packets_per_ue
        cols, offsets, _ = reps[0]
        assert offsets[0] == 0 and offsets[-1] == len(cols["gen"])
        for ue in ue_ranges(offsets):
            mine = cols["gen"][ue]
            assert len(mine) >= M
            # padding keeps the shared queues loaded after a UE's own
            # quota is met; it is generated strictly later
            if len(mine) > M:
                assert mine[M:].min() > mine[:M].max()

    def test_replication_count_and_finite_cis(self, run):
        _, _, res, _ = run
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
        cols, offsets, _ = _run_replication(
            cfg, SimParams(seed=seed, packets_per_ue=300, replications=1), 0)
        assert np.all(cols["gen"] <= cols["edge_done"])
        assert np.all(cols["edge_done"] <= cols["tx_done"])
        assert np.all(cols["tx_done"] <= cols["local_done"])
        order = np.argsort(cols["gen"], kind="stable")
        assert np.all(np.diff(cols["tx_done"][order]) >= 0)
        assert np.all(np.diff(offsets) >= 300)


class TestSchemeStages:
    def test_local_scheme_skips_edge_stage(self):
        cfg = SystemConfig.homogeneous(2, 0.3, 1.0, 2.0, 1.5, Scheme.local())
        params = SimParams(seed=4, packets_per_ue=500, replications=1)
        cols, _, _ = _run_replication(cfg, params, 0)
        assert np.all(cols["wait_edge"] == 0.0)
        assert np.array_equal(cols["edge_done"], cols["gen"])
        assert simulate_mec(cfg, params).diagnostics.max_edge_queue == 0

    def test_edge_scheme_skips_local_stage(self):
        cfg = SystemConfig.homogeneous(2, 0.3, 1.0, 2.0, 1.5, Scheme.edge())
        params = SimParams(seed=4, packets_per_ue=500, replications=1)
        cols, _, _ = _run_replication(cfg, params, 0)
        assert np.all(cols["wait_local"] == 0.0)
        assert np.array_equal(cols["local_done"], cols["tx_done"])
        assert simulate_mec(cfg, params).diagnostics.max_local_queues == (0, 0)


def in_system(arrivals, departures, t):
    # brute force: packets that arrived before t and leave after it
    return int(np.sum((arrivals < t) & (departures > t)))


class TestQueueCounts:
    def test_found_counts_and_tie_rules(self):
        # packet 0 leaves at 1 exactly as packet 1 arrives: gone. Packet 2
        # arrives at 1 too, later in service order: it finds packet 1.
        arrivals = np.array([0.0, 1.0, 1.0, 2.0, 3.0])
        departures = np.array([1.0, 1.5, 2.0, 3.5, 4.0])
        assert _found(arrivals, departures).tolist() == [0, 0, 1, 0, 1]

    def test_peaks_match_a_brute_force_count(self):
        cfg = SystemConfig.homogeneous(2, 0.3, 1.0, 1.4, 0.7,
                                       Scheme.partial(0.5))
        cols, offsets, peaks = _run_replication(
            cfg, SimParams(seed=8, packets_per_ue=300), 0)
        gen, edge, tx, local = (cols[k] for k in
                                ("gen", "edge_done", "tx_done", "local_done"))
        # each arrival counts itself, hence the + 1
        want = [1 + max(in_system(a, d, t) for t in a)
                for a, d in ((gen, edge), (edge, tx))]
        want += [1 + max(in_system(tx[ue], local[ue], t) for t in tx[ue])
                 for ue in ue_ranges(offsets)]
        assert peaks == want

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 17, 300])
    def test_peak_matches_the_full_count(self, n):
        # Seeded FCFS paths built one packet at a time, with times rounded
        # to a coarse grid (ties between arrivals and departures), some
        # zero services, and loads from light to overloaded.
        rng = np.random.default_rng(n)
        for rho in (0.05, 0.3, 0.7, 0.99, 1.3):
            for _ in range(40):
                arrivals = np.round(np.cumsum(rng.exponential(1.0, n)), 1)
                services = np.round(rng.exponential(rho, n), 1)
                services[rng.random(n) < 0.2] = 0.0
                departures = np.empty(n)
                free = 0.0
                for k in range(n):
                    free = max(free, arrivals[k]) + services[k]
                    departures[k] = free
                want = int(_found(arrivals, departures).max()) + 1
                assert _peak(arrivals, departures) == want

    def test_peaks_do_not_depend_on_recording_correlations(self):
        # the edge peak is searched on its own, not read off the edge
        # occupancy column that only a correlations run builds
        for scheme in (Scheme.edge(), Scheme.partial(0.5), Scheme.local()):
            cfg = SystemConfig.homogeneous(3, 0.28, 1.0, 1.2, 0.5, scheme)
            on, off = (simulate_mec(cfg, SimParams(
                seed=5, packets_per_ue=3_000, replications=2,
                record_correlations=corr)) for corr in (True, False))
            assert on.diagnostics == off.diagnostics

    def test_occupancy_histogram_matches_a_brute_force_count(self):
        self.check_histogram(SimParams(seed=17, packets_per_ue=400,
                                       replications=1,
                                       record_correlations=True))

    def test_occupancy_histogram_without_warmup(self):
        # with no warm-up the first generation of each UE is counted too
        self.check_histogram(SimParams(seed=17, packets_per_ue=400,
                                       warmup_packets_per_ue=0,
                                       replications=1,
                                       record_correlations=True))

    @staticmethod
    def check_histogram(params):
        cfg = SystemConfig.homogeneous(3, 0.2, 1.0, 1.5, 0.8,
                                       Scheme.partial(0.6))
        cols, offsets, _ = _run_replication(cfg, params, 0)
        corr = simulate_mec(cfg, params).correlations
        M, W = params.packets_per_ue, params.warmup()
        gen, edge = cols["gen"], cols["edge_done"]
        for n, ue in enumerate(ue_ranges(offsets)):
            mine = np.zeros(len(gen), dtype=bool)
            mine[ue] = True
            counts = [in_system(gen[~mine], edge[~mine], t)
                      for t in gen[ue][W:M]
                      if in_system(gen[mine], edge[mine], t) == 0]
            assert corr.edge_others_hist_own0[n] == tuple(np.bincount(counts))


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


class TestDivergence:
    def test_unstable_run_warns_and_flags(self):
        cfg = SystemConfig.homogeneous(1, 2.0, 5.0, 5.0, 1.0, Scheme.local())
        params = SimParams(seed=51, packets_per_ue=5_000, replications=1,
                           queue_cap=200)
        with pytest.warns(DivergenceWarning) as record:
            res = simulate_mec(cfg, params)
        assert [w.filename for w in record] == [__file__]
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


class TestReplicationSummary:
    """What a replication hands to the fold, from a worker or a plain loop."""

    cfg = SystemConfig.homogeneous(3, 0.2, 1.5, 1.8, 0.5, Scheme.partial(0.5))

    def test_no_column_leaves_a_replication(self):
        # a summary is O(N * estimates + histogram length), not O(packets)
        sizes = [len(pickle.dumps(simulate._replication_summary(
            self.cfg, SimParams(seed=4, packets_per_ue=packets,
                                record_correlations=True), 0)))
            for packets in (2_000, 20_000)]
        assert sizes[1] < 2 * sizes[0]

    def test_histograms_are_empty_when_not_recorded(self):
        for cfg, corr in ((self.cfg, False),
                          (self.cfg.with_scheme(Scheme.local()), True)):
            _, hists, _, _ = simulate._replication_summary(
                cfg, SimParams(seed=4, packets_per_ue=500,
                               record_correlations=corr), 0)
            assert [h.size for h in hists] == [0, 0, 0]


class ReplicationFailed(Exception):
    """Raised inside a replication by TestReplicationPool."""


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the replication pool needs the fork start method")
class TestReplicationPool:
    """A call at the pool threshold, with correlations, on 1 to 3 workers."""

    cfg = SystemConfig.homogeneous(3, 0.3, 1.5, 2.0, 1.0, Scheme.partial(0.5))
    params = SimParams(seed=31, packets_per_ue=-(-PARALLEL_MIN_PACKETS // 9),
                       replications=3, record_correlations=True)

    def test_any_worker_count_gives_the_same_result(self, monkeypatch, pools):
        results = []
        for workers in ("1", "2", "3"):
            monkeypatch.setenv("AOI_MEC_THREADS", workers)
            results.append(simulate_mec(self.cfg, self.params))
            assert multiprocessing.active_children() == []
        assert pools == [2, 3]
        assert results[0] == results[1] == results[2]

    def test_a_threaded_caller_runs_serially(self, monkeypatch, pools):
        monkeypatch.setenv("AOI_MEC_THREADS", "1")
        serial = simulate_mec(self.cfg, self.params)
        monkeypatch.setenv("AOI_MEC_THREADS", "2")
        out = []
        thread = threading.Thread(
            target=lambda: out.append(simulate_mec(self.cfg, self.params)))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert pools == []
        assert out == [serial]

    def test_an_error_in_a_worker_keeps_its_type(self, monkeypatch, pools):
        real = simulate._run_replication

        def failing(cfg, params, rep):
            if rep == 1:
                raise ReplicationFailed(os.getpid())
            return real(cfg, params, rep)

        monkeypatch.setattr(simulate, "_run_replication", failing)
        monkeypatch.setenv("AOI_MEC_THREADS", "2")
        with pytest.raises(ReplicationFailed) as info:
            simulate_mec(self.cfg, self.params)
        assert info.value.args[0] != os.getpid()
        assert pools == [2]
        assert multiprocessing.active_children() == []


def batch(packets):
    """Mixed jobs for simulate_many: 24 UE-replications of `packets` each."""
    cfg = SystemConfig.homogeneous(2, 0.3, 1.5, 2.0, 1.0, Scheme.local())
    hetero = SystemConfig(3, (0.1, 0.2, 0.3), 1.5, 2.0, (0.8, 1.0, 1.2),
                          Scheme.partial(0.4))
    return [
        (cfg, SimParams(seed=61, packets_per_ue=packets, replications=3)),
        (cfg.with_scheme(Scheme.edge()),
         SimParams(seed=62, packets_per_ue=packets, replications=2)),
        (cfg.with_scheme(Scheme.partial(0.5)),
         SimParams(seed=63, packets_per_ue=packets, replications=3,
                   record_correlations=True)),
        (hetero, SimParams(seed=64, packets_per_ue=packets, replications=2,
                           record_correlations=True)),
        (cfg, SimParams(seed=65, packets_per_ue=packets, replications=1)),
    ]


class TestSimulateMany:
    """A batch equals its calls one by one, and shares one pool."""

    @pytest.mark.parametrize("packets, opened", [
        (2_000, []),  # 48k packets: a plain loop
        (-(-PARALLEL_MIN_PACKETS // 24), [2]),  # at the threshold: one pool
    ])
    def test_batch_equals_calls_one_by_one(self, monkeypatch, pools, packets,
                                           opened):
        monkeypatch.setenv("AOI_MEC_THREADS", "2")
        jobs = batch(packets)
        results = simulate.simulate_many(jobs)
        assert pools == opened
        # each job alone is below the threshold, so these run serially
        assert results == [simulate_mec(cfg, params) for cfg, params in jobs]
        assert pools == opened
        assert multiprocessing.active_children() == []

    def test_short_job_fails_before_any_replication(self, monkeypatch, pools):
        runs = []
        real = simulate._run_replication
        monkeypatch.setattr(simulate, "_run_replication",
                            lambda *args: runs.append(args) or real(*args))
        monkeypatch.setenv("AOI_MEC_THREADS", "2")
        jobs = batch(-(-PARALLEL_MIN_PACKETS // 24))
        short = SimParams(seed=66, packets_per_ue=10, warmup_packets_per_ue=9)
        jobs.insert(2, (jobs[0][0], short))
        with pytest.raises(InvalidParams, match="2 retained packets"):
            simulate.simulate_many(jobs)
        assert pools == []
        assert runs == []

    def test_one_warning_per_diverged_job_at_the_caller(self):
        unstable = SystemConfig.homogeneous(1, 2.0, 5.0, 5.0, 1.0, Scheme.local())
        stable = SystemConfig.homogeneous(1, 0.4, 5.0, 5.0, 1.0, Scheme.local())
        jobs = [(unstable, SimParams(seed=51, packets_per_ue=5_000,
                                     replications=1, queue_cap=200)),
                (stable, SimParams(seed=52, packets_per_ue=5_000, replications=1)),
                (unstable, SimParams(seed=53, packets_per_ue=5_000,
                                     replications=1, queue_cap=150))]
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            results = simulate.simulate_many(jobs)
        assert [r.diagnostics.diverged for r in results] == [True, False, True]
        caught = [w for w in record if w.category is DivergenceWarning]
        assert [w.filename for w in caught] == [__file__, __file__]
        assert ["200" in str(w.message) for w in caught] == [True, False]
        assert ["150" in str(w.message) for w in caught] == [False, True]

    def test_empty_batch(self, pools):
        assert simulate.simulate_many([]) == []
        assert pools == []
