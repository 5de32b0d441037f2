"""Acceptance battery: one test per criterion, one pass/fail line each.

The closed forms are validated against the simulator at desk scale, the
bracket/optimum algebra against independent re-derivations, and the
statistical premises against distributional tests.  Simulation seeds are
fixed a priori, so every verdict here is reproducible bit for bit.

Criteria 2 and 3 probe the per-stage waiting-time correlation closed
forms at high utilization and at per-term resolution (see README,
"Validity of the closed forms").  The edge-stage term is exact, so
criterion 2 is expected to pass on the whole grid.  The transmission-
and local-stage split terms are first-order approximations for N > 1,
so criterion 3 is expected to fail honestly on the multi-UE
configurations; its failure message carries the full per-config table.

Runtime is dominated by the criterion-1/2 grid (each point simulates
10 x 225k packets per UE for 6 UEs); the whole battery runs in several
minutes on one core.
"""

import math

import numpy as np
import pytest
from scipy import stats

import conftest

from aoi_mec import analytic, optimize
from aoi_mec.model import (
    Scheme,
    SystemConfig,
    check_stability,
    derive_rates,
)
from aoi_mec.simulate import SimParams, simulate_many, simulate_mec

GRID_SEED = 20260814     # criteria 1-2 and the other simulation criteria
DRAW_SEED = 20250814     # criterion 3 random config draws

# Reference homogeneous parameter set used by criteria 1, 2, and 7a.
REF_N, REF_MU_B, REF_MU_H, REF_MU_D = 6, 1.5, 0.25, 1.8
GRID_P = (0.0, 0.5, 0.9, 1.0)
GRID_STEP = 0.02
GRID_UTIL_CAP = 0.95     # "stable limit": highest utilization kept on the grid


def _ref_cfg(lambda_h, p):
    return SystemConfig.homogeneous(REF_N, lambda_h, REF_MU_B, REF_MU_D,
                                    REF_MU_H, Scheme.partial(p))


def _max_util(cfg):
    rates = derive_rates(cfg)
    utils = [rates.total_gen / cfg.tx_rate]
    if math.isfinite(rates.eff_edge):
        utils.append(rates.total_gen / rates.eff_edge)
    for ln, u in zip(cfg.gen_rates, rates.eff_local):
        if math.isfinite(u):
            utils.append(ln / u)
    return max(utils)


def _grid_lambdas(p):
    out = []
    k = 1
    while True:
        lh = GRID_STEP * k
        if _max_util(_ref_cfg(lh, p)) > GRID_UTIL_CAP:
            return out
        out.append(lh)
        k += 1


def _verdict(label, ok, detail=""):
    line = "[%s] %s" % ("PASS" if ok else "FAIL", label)
    print(line)
    conftest.ACCEPTANCE_VERDICTS.append(line)
    if not ok:
        pytest.fail("[FAIL] %s\n%s" % (label, detail), pytrace=False)


# ---------------------------------------------------------------------------
# Criteria 1 + 2 share one simulation per grid point.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def grid_results():
    """(p, lambda_h) -> (analytic metrics, simulation result).

    225k packets per UE with the default 10% warmup leaves 202.5k counted
    deliveries per UE per replication (>= the required 2e5), 10 replications.
    """
    results = {}
    index = 0
    for p in GRID_P:
        for lh in _grid_lambdas(p):
            cfg = _ref_cfg(lh, p)
            params = SimParams(seed=GRID_SEED + index, packets_per_ue=225_000,
                               replications=10)
            results[(p, lh)] = (analytic.system_metrics(cfg), simulate_mec(cfg, params))
            index += 1
    return results


def _grid_table(rows):
    header = "   p     lambda_h   util    analytic      simulated     rel_err"
    lines = [header]
    for p, lh, util, ref, sim, rel in rows:
        lines.append("  %4.2f   %8.2f   %5.3f   %11.6f   %11.6f   %+8.5f"
                     % (p, lh, util, ref, sim, rel))
    return "\n".join(lines)


def test_criterion_01_peak_aoi_grid_within_2pct(grid_results):
    """Simulated peak AoI within 2% of the closed form on the whole grid."""
    bad, worst = [], 0.0
    for (p, lh), (metrics, res) in sorted(grid_results.items()):
        rel = (res.system_paoi.value - metrics.system_paoi) / metrics.system_paoi
        worst = max(worst, abs(rel))
        if abs(rel) > 0.02:
            bad.append((p, lh, _max_util(_ref_cfg(lh, p)),
                        metrics.system_paoi, res.system_paoi.value, rel))
    _verdict("criterion 1: peak AoI within 2%% on the reference grid "
             "(%d points, worst |rel| = %.4f)" % (len(grid_results), worst),
             not bad, _grid_table(bad))


def test_criterion_02_aoi_grid_within_3pct(grid_results):
    """Simulated average AoI within 3% of the closed form on the whole grid.

    Expected to pass. The edge-stage correlation term is exact; the
    transmission- and local-stage terms are first-order approximations
    for N > 1 that leave the closed form biased low (simulation above
    it) near saturation, by up to ~2% at p = 0.5.
    """
    bad, worst = [], 0.0
    for (p, lh), (metrics, res) in sorted(grid_results.items()):
        rel = (res.system_aoi.value - metrics.system_aoi) / metrics.system_aoi
        worst = max(worst, abs(rel))
        if abs(rel) > 0.03:
            bad.append((p, lh, _max_util(_ref_cfg(lh, p)),
                        metrics.system_aoi, res.system_aoi.value, rel))
    _verdict("criterion 2: average AoI within 3%% on the reference grid "
             "(%d points, worst |rel| = %.4f)" % (len(grid_results), worst),
             not bad,
             "%d/%d points out of tolerance (all at the top of the "
             "utilization range; see README on closed-form validity):\n%s"
             % (len(bad), len(grid_results), _grid_table(bad)))


# ---------------------------------------------------------------------------
# Criterion 3: per-term correlation decomposition on random configs.
# ---------------------------------------------------------------------------

PARTIAL_TERMS = ("phi_bjd", "phi_ljd", "phi_bju", "phi_lju")
EDGE_TERMS = ("phi_bjd", "phi_ljd")


def _draw_phi_configs():
    """20 partial + 10 edge stable configs, utilization <= 0.85."""
    rng = np.random.default_rng(DRAW_SEED)
    partial_cfgs, edge_cfgs = [], []
    while len(partial_cfgs) < 20 or len(edge_cfgs) < 10:
        want_edge = len(partial_cfgs) >= 20
        n = int(rng.integers(1, 7))
        gens = tuple(float(v) for v in np.exp(rng.uniform(np.log(0.02), np.log(0.25), n)))
        locs = tuple(float(v) for v in np.exp(rng.uniform(np.log(0.2), np.log(1.5), n)))
        mu_b = float(np.exp(rng.uniform(np.log(0.8), np.log(3.0))))
        mu_d = float(np.exp(rng.uniform(np.log(0.8), np.log(3.0))))
        p = float(rng.uniform(0.05, 0.95))
        scheme = Scheme.edge() if want_edge else Scheme.partial(p)
        cfg = SystemConfig(n, gens, mu_b, mu_d, locs, scheme)
        if _max_util(cfg) > 0.85:
            continue
        (edge_cfgs if want_edge else partial_cfgs).append(cfg)
    return partial_cfgs, edge_cfgs


def _phi_expected(cfg, terms):
    rates = derive_rates(cfg)
    per_stage = []
    for name in terms:
        if cfg.scheme.kind == "edge":
            vals = [getattr(analytic.phi_terms_edge(rates, n), name)
                    for n in range(cfg.num_ues)]
        else:
            vals = [getattr(analytic.phi_terms_partial(rates, n), name)
                    for n in range(cfg.num_ues)]
        per_stage.append(float(np.mean(vals)))
    return per_stage


def _phi_z_scores(cfg, index, terms, reps=10):
    """UE-pooled per-replication estimates -> one z per term.

    Packets per replication are sized so the config totals >= 1e6 counted
    deliveries across the 10 replications.
    """
    packets = max(2_000, math.ceil(100_000 / (0.9 * cfg.num_ues)))
    per_rep = np.empty((reps, len(terms)))
    results = simulate_many([(cfg, SimParams(seed=DRAW_SEED + 1_000 * index + r,
                                             packets_per_ue=packets, replications=1,
                                             record_correlations=True))
                             for r in range(reps)])
    for r, result in enumerate(results):
        for t, name in enumerate(terms):
            per_rep[r, t] = np.mean([est.value for est in getattr(result.correlations, name)])
    mean = per_rep.mean(axis=0)
    se = per_rep.std(axis=0, ddof=1) / math.sqrt(reps)
    expected = _phi_expected(cfg, terms)
    # se == 0 means the term is structurally a constant (e.g. the
    # single-UE catch-up split is exactly zero): require exact equality.
    return [(name, exp, m,
             (m - exp) / s if s > 0 else (0.0 if m == exp else math.inf))
            for name, exp, m, s in zip(terms, expected, mean, se)]


def test_criterion_03_correlation_terms_within_3se():
    """Each per-stage correlation term matches its closed form within 3 SE.

    Expected to fail for most multi-UE configs: the per-stage forms carry
    systematic opposite-signed biases that 1e6-packet resolution detects
    even at moderate utilization (the biases largely cancel in the AoI
    total, which is why criteria 1/2 hold over most of their grid).
    """
    partial_cfgs, edge_cfgs = _draw_phi_configs()
    bad_lines, n_configs_bad, total = [], 0, 0
    for index, cfg in enumerate(partial_cfgs + edge_cfgs):
        terms = EDGE_TERMS if cfg.scheme.kind == "edge" else PARTIAL_TERMS
        rows = _phi_z_scores(cfg, index, terms)
        total += 1
        failed = [(name, exp, m, z) for name, exp, m, z in rows if abs(z) > 3.0]
        if failed:
            n_configs_bad += 1
            head = ("config %2d: %s N=%d p=%.3f util=%.2f"
                    % (index, cfg.scheme.kind, cfg.num_ues, cfg.scheme.p,
                       _max_util(cfg)))
            bad_lines.append(head)
            for name, exp, m, z in failed:
                bad_lines.append("    %-8s expected %10.6f  simulated %10.6f  z=%+7.2f"
                                 % (name, exp, m, z))
    _verdict("criterion 3: correlation-term decomposition within 3 SE "
             "(20 partial + 10 edge configs)",
             n_configs_bad == 0,
             "%d/%d configs have out-of-tolerance terms "
             "(systematic approximation bias; see README):\n%s"
             % (n_configs_bad, total, "\n".join(bad_lines)))


# ---------------------------------------------------------------------------
# Criterion 4: bound bracket on random homogeneous configs.
# ---------------------------------------------------------------------------


def _draw_homogeneous(rng, with_p=None):
    n = int(rng.integers(1, 9))
    lh = float(np.exp(rng.uniform(np.log(0.02), np.log(0.5))))
    mu_b = float(np.exp(rng.uniform(np.log(0.5), np.log(4.0))))
    mu_d = float(np.exp(rng.uniform(np.log(0.5), np.log(4.0))))
    mu_h = float(np.exp(rng.uniform(np.log(0.1), np.log(2.0))))
    p = float(rng.uniform(0.0, 1.0)) if with_p is None else with_p
    return SystemConfig.homogeneous(n, lh, mu_b, mu_d, mu_h, Scheme.partial(p))


def test_criterion_04_bracket_on_100_random_configs():
    """aoi_low <= aoi <= aoi_up with slack >= -1e-9, and low == up - gap."""
    rng = np.random.default_rng(GRID_SEED + 4)
    checked, bad = 0, []
    while checked < 100:
        p_forced = 0.0 if checked % 10 == 0 else (1.0 if checked % 10 == 5 else None)
        cfg = _draw_homogeneous(rng, with_p=p_forced)
        if not check_stability(cfg).stable:
            continue
        checked += 1
        aoi = analytic.system_metrics(cfg).system_aoi
        b = analytic.aoi_bounds(cfg)
        slack = min(aoi - b.lower, b.upper - aoi)
        identity = abs(b.lower - (b.upper - b.gap)) / max(abs(b.lower), 1e-300)
        if slack < -1e-9 or identity > 1e-12:
            bad.append("config %d: slack=%.3e identity=%.3e (%s)"
                       % (checked, slack, identity, cfg))
    _verdict("criterion 4: bound bracket holds on 100 random stable configs "
             "(slack >= -1e-9, identity to 1e-12 relative)",
             not bad, "\n".join(bad))


# ---------------------------------------------------------------------------
# Criterion 5: closed-form optimal ratio vs grid argmin.
# ---------------------------------------------------------------------------


def test_criterion_05_p_opt_matches_grid_argmin():
    """|closed-form p_opt - 1e-3-grid argmin of peak AoI| <= 1e-3, all branches."""
    rng = np.random.default_rng(GRID_SEED + 5)
    seen = {"local": 0, "edge": 0, "interior": 0}
    bad, kept = [], 0
    while kept < 50:
        cfg = _draw_homogeneous(rng)
        interval = optimize.stable_p_interval(cfg)
        if interval is None:
            continue
        popt = analytic.p_opt_paoi(cfg)
        if not popt.stable:
            continue
        kept += 1
        seen[popt.branch] += 1
        lo, hi = interval
        grid = [float(p) for p in np.linspace(lo, hi, int(math.ceil((hi - lo) / 1e-3)) + 1)
                if check_stability(cfg.with_scheme(Scheme.partial(float(p)))).stable]

        def paoi_at(p):
            at_p = cfg.with_scheme(Scheme.partial(p))
            return analytic.system_metrics(at_p).system_paoi

        values = [paoi_at(p) for p in grid]
        argmin = grid[int(np.argmin(values))]
        if abs(popt.p - argmin) > 1e-3 + 1e-12:
            bad.append("config %d (%s branch): p_opt=%.6f grid argmin=%.6f"
                       % (kept, popt.branch, popt.p, argmin))
    coverage_ok = all(seen[b] > 0 for b in seen)

    worked = SystemConfig.homogeneous(6, 0.2, 1.5, REF_MU_D, 0.25, Scheme.partial(0.5))
    worked_p = analytic.p_opt_paoi(worked).p
    worked_ok = round(worked_p, 5) == 0.81515

    _verdict("criterion 5: p_opt within 1e-3 of grid argmin on 50 configs, "
             "branches local/edge/interior = %d/%d/%d, worked value %.5f"
             % (seen["local"], seen["edge"], seen["interior"], worked_p),
             not bad and coverage_ok and worked_ok,
             "\n".join(bad) + ("" if coverage_ok else "\nmissing branch coverage: %s" % seen)
             + ("" if worked_ok else "\nworked value %.7f != 0.81515" % worked_p))


# ---------------------------------------------------------------------------
# Criterion 6: AoI penalty of the peak-AoI-optimal ratio.
# ---------------------------------------------------------------------------


def test_criterion_06_paoi_optimum_near_aoi_optimum():
    """AoI at the closed-form peak-AoI optimum is within 2% of the AoI optimum."""
    bad, points, worst = [], 0, 0.0
    for n in (2, 4, 8):
        k = 1
        while True:
            lh = GRID_STEP * k
            k += 1
            cfg = SystemConfig.homogeneous(n, lh, 2.0, 3.0, 0.5, Scheme.partial(0.5))
            if optimize.stable_p_interval(cfg) is None:
                break
            points += 1
            best_aoi = optimize.search_p(cfg, objective="aoi", resolution=1e-3)
            popt = analytic.p_opt_paoi(cfg)
            if not popt.stable:
                bad.append("N=%d lambda_h=%.2f: closed-form optimum unstable" % (n, lh))
                continue
            at_popt = cfg.with_scheme(Scheme.partial(popt.p))
            aoi_at_popt = analytic.system_metrics(at_popt).system_aoi
            gap = (aoi_at_popt - best_aoi.best_value) / best_aoi.best_value
            worst = max(worst, gap)
            if gap > 0.02:
                bad.append("N=%d lambda_h=%.2f: gap=%.4f" % (n, lh, gap))
    _verdict("criterion 6: AoI penalty of the peak-AoI-optimal ratio <= 2%% "
             "(%d points, worst %.5f)" % (points, worst),
             not bad, "\n".join(bad))


# ---------------------------------------------------------------------------
# Criterion 7: qualitative shapes.
# ---------------------------------------------------------------------------


def _one_sign_change(values):
    diffs = np.diff(values)
    signs = [bool(d > 0) for d in diffs if d != 0]
    changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    return changes == 1 and not signs[0] and signs[-1]


def test_criterion_07_shape_properties():
    """U-shape in lambda_h; AoI grows with N; edge wins small N, loses large N."""
    problems = []

    for p in GRID_P:
        lams = _grid_lambdas(p)
        aoi = [analytic.system_metrics(_ref_cfg(lh, p)).system_aoi for lh in lams]
        if not _one_sign_change(aoi):
            problems.append("p=%.1f: AoI over lambda_h grid is not U-shaped: %s"
                            % (p, ["%.3f" % v for v in aoi]))

    # second reference set: lambda_h=0.1, mu_B=1, mu_h=0.2, mu_D=3, N=1..9
    schemes = (("local", Scheme.local()), ("partial", Scheme.partial(0.5)),
               ("edge", Scheme.edge()))
    by_scheme = {}
    for name, scheme in schemes:
        aoi_n = []
        for n in range(1, 10):
            cfg = SystemConfig.homogeneous(n, 0.1, 1.0, 3.0, 0.2, scheme)
            assert check_stability(cfg).stable
            aoi_n.append(analytic.system_metrics(cfg).system_aoi)
        by_scheme[name] = aoi_n
        if not all(b > a for a, b in zip(aoi_n, aoi_n[1:])):
            problems.append("%s: AoI not strictly increasing in N: %s"
                            % (name, ["%.3f" % v for v in aoi_n]))

    if not by_scheme["edge"][0] < by_scheme["local"][0]:
        problems.append("edge does not beat local at N=1")
    if not by_scheme["edge"][-1] > by_scheme["local"][-1]:
        problems.append("edge does not lose to local at N=9")

    _verdict("criterion 7: shape properties (U-shape, growth in N, "
             "edge-vs-local crossover)", not problems, "\n".join(problems))


# ---------------------------------------------------------------------------
# Criterion 8: single-queue reduction.
# ---------------------------------------------------------------------------


def test_criterion_08_degenerate_tandem_oracle():
    """N=1 edge with a 1e4x faster transmission stage behaves as one queue."""
    cfg = SystemConfig.homogeneous(1, 0.5, 1.0, 1e4, 0.7, Scheme.edge())
    expected = analytic.system_metrics(cfg).system_aoi
    res = simulate_mec(cfg, SimParams(seed=GRID_SEED + 800,
                                      packets_per_ue=100_000, replications=10))
    err = abs(res.system_aoi.value - expected)
    within_ci = err <= res.system_aoi.ci95

    cfg2 = SystemConfig.homogeneous(1, 0.5, 1.0, 2e4, 0.7, Scheme.edge())
    sensitivity = abs(analytic.system_metrics(cfg2).system_aoi - expected) / expected
    _verdict("criterion 8: degenerate tandem: simulated AoI within CI "
             "(err %.4f vs half-width %.4f) and doubling the transmission "
             "rate moves the closed form by %.2e (< 1e-3)"
             % (err, res.system_aoi.ci95, sensitivity),
             within_ci and sensitivity < 1e-3,
             "err=%.5f ci95=%.5f sensitivity=%.3e" % (err, res.system_aoi.ci95,
                                                      sensitivity))


# ---------------------------------------------------------------------------
# Criterion 9: coincident effective rates.
# ---------------------------------------------------------------------------


def test_criterion_09_singularity_robustness():
    """AoI is finite and continuous where the effective edge rate equals mu_D."""
    cases = [
        # (p, mu_d): mu_b = p * mu_d makes the effective edge rate hit mu_d
        (0.5, 1.8, 3, 0.1, 0.5),
        (0.25, 2.0, 2, 0.15, 0.8),
        (0.8, 1.25, 4, 0.05, 0.6),
    ]
    problems = []
    for p, mu_d, n, lh, mu_h in cases:
        mu_b = p * mu_d
        cfg = SystemConfig.homogeneous(n, lh, mu_b, mu_d, mu_h, Scheme.partial(p))
        assert derive_rates(cfg).eff_edge == mu_d  # exact coincidence
        base = analytic.system_metrics(cfg).system_aoi
        if not math.isfinite(base):
            problems.append("p=%.2f mu_d=%.2f: AoI not finite at coincidence" % (p, mu_d))
            continue
        for sign in (-1.0, 1.0):
            pert_cfg = SystemConfig.homogeneous(n, lh, mu_b * (1.0 + sign * 1e-6),
                                                mu_d, mu_h, Scheme.partial(p))
            pert = analytic.system_metrics(pert_cfg).system_aoi
            rel = abs(pert - base) / base
            if rel > 1e-4:
                problems.append("p=%.2f mu_d=%.2f sign=%+.0f: rel jump %.2e"
                                % (p, mu_d, sign, rel))
    _verdict("criterion 9: coincident-rate evaluations finite and within "
             "1e-4 of +/-1e-6 perturbations", not problems, "\n".join(problems))


# ---------------------------------------------------------------------------
# Criterion 10: distributional premises.
# ---------------------------------------------------------------------------


def test_criterion_10_statistical_structure():
    """Other-UE edge occupancy is geometric; cov(Y, W) is non-positive."""
    cfg = SystemConfig.homogeneous(3, 0.2, 1.2, 1.8, 0.6, Scheme.partial(0.5))
    res = simulate_mec(cfg, SimParams(seed=GRID_SEED + 1000,
                                      packets_per_ue=50_000, replications=10,
                                      record_correlations=True))
    corr = res.correlations
    problems = []

    rates = derive_rates(cfg)
    alpha = rates.others_gen[0] / rates.eff_edge
    hist = np.array(corr.edge_others_hist_own0[0], dtype=float)
    total = hist.sum()
    pmf = (1 - alpha) * alpha ** np.arange(len(hist))
    expected = total * pmf
    keep = expected >= 5.0
    obs = np.append(hist[keep], hist[~keep].sum())
    exp = np.append(expected[keep], total - expected[keep].sum())
    chi2 = float(((obs - exp) ** 2 / exp).sum())
    pval = float(stats.chi2.sf(chi2, df=len(obs) - 1))
    if pval <= 0.01:
        problems.append("geometric occupancy rejected: chi2=%.1f p=%.4f" % (chi2, pval))

    for field in ("cov_y_wedge", "cov_y_wtx", "cov_y_wlocal"):
        for ue, est in enumerate(getattr(corr, field)):
            if not est.value <= 3 * est.se:
                problems.append("%s[%d] = %.3e > 3 se (%.3e)"
                                % (field, ue, est.value, est.se))

    _verdict("criterion 10: occupancy geometric (chi-square p=%.3f > 0.01) "
             "and cov(Y, W) <= 0 within 3 SE" % pval,
             not problems, "\n".join(problems))
