"""Optimizer tests: stable-interval algebra, search-vs-closed-form
agreement, the float grid against the array grid, and the three schemes
compared side by side."""

import contextlib
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from aoi_mec.model import (
    EmptyStableInterval,
    NotHomogeneous,
    Scheme,
    SimParams,
    SystemConfig,
    check_stability,
)
from aoi_mec import analytic as an
from aoi_mec import cli
from aoi_mec.optimize import (
    OptResult,
    _float_grid,
    _grid_values,
    _objective,
    search_p,
    stable_p_interval,
)


def homog(n, lh, mb, md, mh, p=0.5):
    return SystemConfig.homogeneous(n, lh, mb, md, mh, Scheme.partial(p))


class TestStableInterval:
    def test_worked_interval_is_full(self):
        # mu_b=1.5, lam=1.2, mu_h=0.25, lam_h=0.2: both constraints clamp
        cfg = homog(6, 0.2, 1.5, 1.8, 0.25)
        assert stable_p_interval(cfg) == (0.0, 1.0)

    def test_transmission_overload_empties_interval(self):
        cfg = homog(2, 1.0, 5.0, 1.5, 5.0)
        assert stable_p_interval(cfg) is None

    def test_generous_rates_full_interval(self):
        cfg = homog(3, 0.1, 50.0, 10.0, 40.0)
        assert stable_p_interval(cfg) == (0.0, 1.0)

    def test_active_constraints(self):
        # mu_h < lam_h forces offloading, mu_b < lam caps it
        cfg = homog(4, 0.5, 1.0, 3.0, 0.3)
        lo, hi = stable_p_interval(cfg)
        assert lo == pytest.approx(1 - 0.3 / 0.5)
        assert hi == pytest.approx(1.0 / 2.0)

    def test_both_constraints_active_but_incompatible(self):
        # needs p > 0.5 for the local queues and p < 0.5 for the edge queue
        assert stable_p_interval(homog(4, 0.5, 1.0, 3.0, 0.25)) is None

    def test_heterogeneous_rejected(self):
        cfg = SystemConfig(2, (0.1, 0.2), 1.0, 3.0, (1.0, 1.0),
                           Scheme.partial(0.5))
        with pytest.raises(NotHomogeneous):
            stable_p_interval(cfg)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 6),
        lh=st.floats(0.05, 1.0),
        mb=st.floats(0.2, 5.0),
        md=st.floats(0.2, 5.0),
        mh=st.floats(0.2, 5.0),
        t=st.floats(0.01, 0.99),
    )
    def test_interior_points_are_stable(self, n, lh, mb, md, mh, t):
        cfg = homog(n, lh, mb, md, mh)
        interval = stable_p_interval(cfg)
        assume(interval is not None)
        lo, hi = interval
        p = lo + t * (hi - lo)
        assume(lo + 1e-9 < p < hi - 1e-9)
        assert check_stability(cfg.with_scheme(Scheme.partial(p))).stable

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 6),
        lh=st.floats(0.2, 1.0),
        p_lo=st.floats(0.05, 0.45),
        p_hi=st.floats(0.55, 0.95),
        t=st.floats(0.05, 0.95),
    )
    def test_points_outside_are_unstable(self, n, lh, p_lo, p_hi, t):
        # build rates so the interval is exactly (p_lo, p_hi)
        lam = n * lh
        cfg = homog(n, lh, lam * p_hi, lam * 1.5 + 0.1, lh * (1 - p_lo))
        assert stable_p_interval(cfg) == pytest.approx((p_lo, p_hi))
        for p in (p_lo * (1 - t), p_hi + (1 - p_hi) * t):
            assert not check_stability(cfg.with_scheme(Scheme.partial(p))).stable


class TestSearchP:
    def test_worked_paoi_optimum(self):
        cfg = homog(6, 0.2, 1.5, 1.8, 0.25)
        res = search_p(cfg, "paoi")
        assert isinstance(res, OptResult)
        assert res.best_p == pytest.approx(0.81515, abs=1e-3)
        assert res.best_p == pytest.approx(an.p_opt_paoi(cfg).p, abs=1e-5)
        assert res.method == "golden"
        assert res.objective == "paoi"
        assert res.stable_interval == (0.0, 1.0)
        assert res.evaluations > 0
        assert math.isfinite(res.best_value)

    def test_edge_branch_returns_exact_boundary(self):
        cfg = homog(4, 0.1, 2.0, 3.0, 0.5)
        assert an.p_opt_paoi(cfg).branch == "edge"
        assert search_p(cfg, "paoi").best_p == 1.0

    def test_local_branch_returns_exact_boundary(self):
        cfg = homog(1, 0.5, 4.0, 6.0, 5.0)
        assert an.p_opt_paoi(cfg).branch == "local"
        assert search_p(cfg, "paoi").best_p == 0.0

    def test_empty_interval_raises(self):
        with pytest.raises(EmptyStableInterval):
            search_p(homog(2, 1.0, 5.0, 1.5, 5.0), "paoi")

    def test_bad_objective_and_resolution(self):
        cfg = homog(2, 0.2, 1.5, 2.0, 1.0)
        with pytest.raises(ValueError, match="objective"):
            search_p(cfg, "latency")
        with pytest.raises(ValueError, match="resolution"):
            search_p(cfg, "paoi", resolution=0.0)
        with pytest.raises(ValueError, match="resolution"):
            search_p(cfg, "paoi", resolution=1e-7)

    def test_unstable_interval_ends_are_skipped_not_counted(self):
        # both interval ends come from active constraints, so neither is
        # stable; at resolution 0.05 only the midpoint 0.45 survives on the
        # grid, and the bounded refinement then searches the open interval
        cfg = homog(4, 0.5, 1.0, 3.0, 0.3)
        assert stable_p_interval(cfg) == pytest.approx((0.4, 0.5))
        fine = search_p(cfg, "paoi")
        assert (fine.evaluations, fine.best_p) == (117, 0.46866088649567816)
        coarse = search_p(cfg, "paoi", resolution=0.05)
        assert coarse.best_p == pytest.approx(fine.best_p, abs=1e-5)
        assert (coarse.evaluations, coarse.best_p) == (28, 0.4686607589062479)
        assert coarse.method == "golden"

    @pytest.mark.parametrize("resolution", [0.05, 0.01])
    @pytest.mark.parametrize("objective", ["aoi", "paoi"])
    def test_refines_toward_an_unstable_end(self, objective, resolution):
        # interval [0.73666, 0.74431]: the optimum sits in the cell next to
        # the unstable p_max, which the refinement must search
        cfg = homog(3, 0.4572, 1.0209, 2.171, 0.1204)
        fine = search_p(cfg, objective, resolution=1e-3)
        coarse = search_p(cfg, objective, resolution=resolution)
        assert coarse.best_p == pytest.approx(fine.best_p, abs=1e-5)
        assert coarse.best_value <= fine.best_value * (1 + 1e-9)

    @pytest.mark.parametrize("cfg", [
        # both interval ends unstable: the grid was only the two ends
        homog(3, 0.457214, 1.020854, 2.171, 0.120377),
        # p_min counts as stable by rounding alone, at a value of ~1.8e16
        homog(3, 0.4572, 1.0209, 2.171, 0.1204),
        # [0.48, 0.49], both ends unstable: the lone stable grid point, the
        # midpoint, is refined (unrefined, its PAoI is 12 % too high)
        homog(4, 0.5, 0.98, 3.0, 0.26),
    ])
    @pytest.mark.parametrize("objective", ["aoi", "paoi"])
    def test_interval_narrower_than_resolution(self, cfg, objective):
        # the midpoint keeps a stable point on the grid
        lo, hi = stable_p_interval(cfg)
        assert hi - lo < 0.05
        coarse = search_p(cfg, objective, resolution=0.05)
        fine = search_p(cfg, objective, resolution=1e-3)
        assert lo < coarse.best_p < hi
        assert math.isfinite(coarse.best_value)
        assert coarse.best_value == pytest.approx(fine.best_value, rel=1e-3)

    @pytest.mark.parametrize("objective", ["aoi", "paoi"])
    def test_grid_point_on_a_removable_singularity(self, objective):
        # p = 0.75 is on the grid and has a - u - lo = 0; the array grid
        # evaluates it directly, to the scalar value
        cfg = homog(6, 0.2, 1.5, 1.8, 0.25)
        p = np.linspace(0.0, 1.0, 1001)
        assert p[750] == 0.75
        values, _ = _grid_values(cfg, p, objective)
        assert math.isfinite(values[750])
        assert values[750] == _objective(cfg, objective, 0.75)

    def test_deterministic(self):
        cfg = homog(3, 0.2, 1.4, 2.0, 0.6)
        assert search_p(cfg, "aoi") == search_p(cfg, "aoi")

    def test_finer_resolution_never_worse(self):
        cfg = homog(6, 0.2, 1.5, 1.8, 0.25)
        coarse = search_p(cfg, "aoi", resolution=1e-1)
        default = search_p(cfg, "aoi", resolution=1e-3)
        assert default.best_value <= coarse.best_value + 1e-12

    def test_aoi_optimum_beats_grid_neighbors(self):
        cfg = homog(4, 0.25, 1.6, 2.2, 0.5)
        res = search_p(cfg, "aoi")
        f = lambda p: an.system_metrics(cfg.with_scheme(Scheme.partial(p))).system_aoi
        for dp in (-5e-4, 5e-4):
            p = min(max(res.best_p + dp, 0.0), 1.0)
            assert res.best_value <= f(p) + 1e-12

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 6),
        lh=st.floats(0.05, 0.5),
        mb=st.floats(0.5, 4.0),
        mh=st.floats(0.1, 4.0),
    )
    def test_matches_closed_form_within_grid_step(self, n, lh, mb, mh):
        md = 1.2 * n * lh + 0.5  # keep the transmission queue stable
        cfg = homog(n, lh, mb, md, mh)
        assume(stable_p_interval(cfg) is not None)
        opt = an.p_opt_paoi(cfg)
        assume(opt.stable)
        res = search_p(cfg, "paoi")
        assert abs(res.best_p - opt.p) <= 1e-3


def _equivalence_configs():
    draw = random.Random(20261018)
    cfgs = [homog(6, 0.2, 1.5, 1.8, 0.25),  # README; singular at p = 0.75
            homog(3, 0.4572, 1.0209, 2.171, 0.1204)]  # p_min stable by rounding
    while len(cfgs) < 102:
        n = draw.randint(1, 8)
        lh = draw.uniform(0.02, 0.5)
        cfg = homog(n, lh, draw.uniform(0.2, 2.0) * n * lh, draw.uniform(1.05, 3.0) * n * lh,
                    draw.uniform(0.3, 3.0) * lh)
        if stable_p_interval(cfg) is not None:
            cfgs.append(cfg)
    return cfgs


class TestGridValues:
    """The array grid of search_p against scalar system_metrics."""

    @staticmethod
    def grids(cfg):
        # the search's own grid, and a [0, 1] grid crossing the unstable part
        lo, hi = stable_p_interval(cfg)
        steps = max(2, int(math.ceil((hi - lo) / 0.01)))
        return np.linspace(lo, hi, steps + 1), np.linspace(0.0, 1.0, 101)

    def test_stability_mask_is_check_stability(self):
        for cfg in _equivalence_configs():
            for p in self.grids(cfg):
                _, stable = _grid_values(cfg, p, "paoi")
                want = [check_stability(cfg.with_scheme(Scheme.partial(float(x)))).stable
                        for x in p]
                assert stable.tolist() == want, cfg

    def test_values_match_system_metrics(self):
        points = inexact = 0
        for cfg in _equivalence_configs():
            p = self.grids(cfg)[0]
            aoi, stable = _grid_values(cfg, p, "aoi")
            paoi, _ = _grid_values(cfg, p, "paoi")
            assert np.isnan(aoi[~stable]).all() and np.isnan(paoi[~stable]).all()
            for x, got_aoi, got_paoi in zip(p[stable], aoi[stable], paoi[stable]):
                m = an.system_metrics(cfg.with_scheme(Scheme.partial(float(x))))
                for got, want in ((got_aoi, m.system_aoi), (got_paoi, m.system_paoi)):
                    assert got == pytest.approx(want, rel=1e-12, abs=0), (cfg, x)
                    points += 1
                    inexact += got != want
        print(f"grid vs system_metrics: {inexact} of {points} values not bit-equal")
        assert points > 10_000


@contextlib.contextmanager
def numpy_unloaded():
    """What search_p sees in a process that has not imported numpy."""
    saved = sys.modules.pop("numpy")
    try:
        yield
    finally:
        sys.modules["numpy"] = saved


@st.composite
def grid_cases(draw):
    """A homogeneous config with a stable ratio interval, and a resolution.

    An edge-rate ratio below 1 makes p_max = mu_B / lambda an active
    (unstable) interval end, one above 1 clamps it at 1; a local-rate
    ratio below 1 makes p_min = 1 - mu_h / lambda_h active, one above 1
    clamps it at 0. The coarser resolutions make many intervals narrower
    than one cell.
    """
    n = draw(st.integers(1, 8))
    lh = draw(st.floats(0.01, 0.5))
    cfg = homog(n, lh, draw(st.floats(0.1, 2.5)) * n * lh,
                draw(st.floats(1.05, 3.0)) * n * lh, draw(st.floats(0.1, 3.0)) * lh)
    assume(stable_p_interval(cfg) is not None)
    return cfg, draw(st.sampled_from([1e-3, 0.0137, 0.05, 0.5]))


class TestGridPaths:
    """search_p's float grid, taken while numpy is not loaded, against its
    array grid."""

    @settings(max_examples=80, deadline=None)
    @given(case=grid_cases())
    @example(case=(homog(6, 0.2, 1.5, 1.8, 0.25), 1e-3))  # [0, 1]; singular at 0.75
    @example(case=(homog(4, 0.5, 1.0, 3.0, 0.3), 0.01))  # [0.4, 0.5], both ends active
    @example(case=(homog(2, 0.3, 0.45, 1.0, 0.45), 0.01))  # [0, 0.75], p_max active
    @example(case=(homog(2, 0.3, 1.2, 1.0, 0.15), 0.01))  # [0.5, 1], p_min active
    @example(case=(homog(4, 0.5, 0.98, 3.0, 0.26), 0.05))  # [0.48, 0.49]: one cell
    @example(case=(homog(3, 0.4572, 1.0209, 2.171, 0.1204), 0.05))  # p_min stable by rounding
    @example(case=(homog(7, 0.5, 3.5, 7.0, 0.25), 1e-3))  # at p = 0.86, pow(x, 2) != x * x
    def test_float_grid_is_the_array_grid(self, case):
        cfg, resolution = case
        lo, hi = stable_p_interval(cfg)
        steps = max(2, int(math.ceil((hi - lo) / resolution)))
        grid = np.linspace(lo, hi, steps + 1)
        assert _float_grid(lo, hi, steps) == grid.tolist()
        for objective in ("aoi", "paoi"):
            values, stable = _grid_values(cfg, grid.tolist(), objective)
            want, want_stable = _grid_values(cfg, grid, objective)
            assert stable == want_stable.tolist()
            assert np.array_equal(values, want, equal_nan=True)
            with numpy_unloaded():
                cold = search_p(cfg, objective, resolution)
            # best_p, best_value, method, evaluations and the interval
            assert cold == search_p(cfg, objective, resolution)


class TestCompareSchemes:
    """The three schemes side by side, as a sweep with schemes = local,
    edge, partial:P tabulates them; P is the closed-form peak-AoI-optimal
    ratio."""

    KINDS = ("local", "edge", "partial")

    @classmethod
    def rows(cls, cfg):
        """{kind: sweep row} of cfg under the three schemes."""
        schemes = (Scheme.local(), Scheme.edge(), Scheme.partial(an.p_opt_paoi(cfg).p))
        spec = cli.SweepSpec(swept="n_ues", values=(cfg.num_ues,), base=cfg, schemes=schemes,
                             simulate=False, params=SimParams(seed=1, packets_per_ue=10))
        return dict(zip(cls.KINDS, cli.run_sweep(spec)))

    @classmethod
    def best(cls, rows, metric):
        """The scheme with the least metric among the stable rows; ties go
        to the first of local, edge, partial."""
        stable = [k for k in cls.KINDS if rows[k].status == "ok"]
        return min(stable, key=lambda k: getattr(rows[k], metric))

    def test_small_n_prefers_edge(self):
        rows = self.rows(homog(2, 0.1, 1.0, 3.0, 0.2))
        assert self.best(rows, "aoi") == "edge"
        assert rows["edge"].aoi < rows["local"].aoi

    def test_large_n_drops_edge(self):
        rows = self.rows(homog(9, 0.1, 1.0, 3.0, 0.2))
        assert self.best(rows, "aoi") != "edge"
        assert rows["local"].aoi < rows["edge"].aoi

    def test_unstable_scheme_reported_unstable(self):
        # lam = 1.0 = mu_b: the edge scheme cannot be stable
        rows = self.rows(homog(10, 0.1, 1.0, 3.0, 0.2))
        assert rows["edge"].status == "unstable"
        assert rows["edge"].aoi is None and rows["edge"].paoi is None
        assert self.best(rows, "aoi") != "edge"
        assert self.best(rows, "paoi") != "edge"

    @pytest.mark.parametrize("cfg", [homog(2, 0.1, 1.0, 3.0, 0.2), homog(6, 0.2, 1.5, 1.8, 0.25),
                                     homog(9, 0.1, 1.0, 3.0, 0.2), homog(3, 0.05, 1.5, 1.8, 0.25)])
    def test_each_row_is_system_metrics_of_its_scheme(self, cfg):
        rows = self.rows(cfg)
        schemes = (Scheme.local(), Scheme.edge(), Scheme.partial(an.p_opt_paoi(cfg).p))
        for kind, scheme in zip(self.KINDS, schemes):
            row, at = rows[kind], cfg.with_scheme(scheme)
            assert row.cfg == at
            if not check_stability(at).stable:
                assert row.status == "unstable"
                continue
            m, b = an.system_metrics(at), an.aoi_bounds(at)
            assert (row.aoi, row.paoi) == (m.system_aoi, m.system_paoi), kind
            assert (row.aoi_low, row.aoi_up, row.gap_ratio) == (b.lower, b.upper, b.gap_ratio)

    @settings(max_examples=20, deadline=None)
    @given(scale=st.floats(0.1, 10.0))
    def test_labels_invariant_under_time_rescaling(self, scale):
        base = homog(4, 0.15, 1.2, 2.0, 0.4)
        scaled = homog(4, 0.15 * scale, 1.2 * scale, 2.0 * scale, 0.4 * scale)
        a, b = self.rows(base), self.rows(scaled)
        assert ([self.best(a, m) for m in ("aoi", "paoi")]
                == [self.best(b, m) for m in ("aoi", "paoi")])
        assert b["local"].aoi == pytest.approx(a["local"].aoi / scale, rel=1e-9)
        assert b["partial"].cfg.scheme.p == pytest.approx(a["partial"].cfg.scheme.p, rel=1e-9)
