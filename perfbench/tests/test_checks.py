"""The benchmark's checks: they accept the program's outputs and reject corrupted ones.

    python -m pytest perfbench/tests
"""

import math
from pathlib import Path

import pytest

import checks
import inputs
from checks import Cfg

README = inputs.README
HETERO = Cfg(3, (0.05, 0.08, 0.03), 1.5, 1.8, (0.3, 0.25, 0.4), "partial", 0.4)


def program_metrics(cfg):
    from worker import system_config
    from aoi_mec import analytic
    return analytic.system_metrics(system_config(cfg))


def run_cli(*args):
    """stdout of one in-process CLI command."""
    import contextlib
    import io
    from aoi_mec import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(args)) == 0
    return out.getvalue()


@pytest.fixture
def workdir():
    # inside the checkout, like every file the benchmark writes
    path = Path(checks.__file__).resolve().parent / "out" / "test-checks"
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# References.
# ---------------------------------------------------------------------------


def test_t_quantile_matches_known_values():
    # t(0.975) for 1, 2, 9 and 30 degrees of freedom, from standard tables
    for df, q in ((1, 12.7062047), (2, 4.30265273), (9, 2.26215716), (30, 2.04227246)):
        assert checks.t_quantile(0.975, df) == pytest.approx(q, rel=1e-8)


def test_t_quantile_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    for df in (1, 2, 3, 4, 9, 29, 60):
        for prob in (0.9, 0.975, 1 - 1e-4, 1 - 5e-6):
            assert checks.t_quantile(prob, df) == pytest.approx(stats.t.ppf(prob, df), rel=1e-8)


def test_band_is_bonferroni_corrected():
    assert checks.band_multiplier(9, 9) > checks.band_multiplier(9, 1)
    assert checks.band_multiplier(9, 1) == pytest.approx(
        checks.t_quantile(1 - checks.ALPHA_RUN / 2, 9))


@pytest.mark.parametrize("cfg", [README, HETERO, README._replace(kind="local", p=0.0),
                                 README._replace(kind="edge", p=1.0)])
def test_program_passes_metric_checks(cfg):
    m = program_metrics(cfg)
    assert checks.check_metrics("m", cfg, m.per_ue_aoi, m.per_ue_paoi,
                                m.system_aoi, m.system_paoi) == []


def test_paoi_optimum_matches_the_program():
    from worker import system_config
    from aoi_mec import analytic
    rng = inputs.rng(7, 0)
    for branch, cfg in inputs.search_configs(rng):
        got = checks.paoi_optimum_of(cfg)
        closed = analytic.p_opt_paoi(system_config(cfg))
        assert got[0] == branch == closed.branch
        assert got[1] == pytest.approx(closed.p, abs=1e-12)


# ---------------------------------------------------------------------------
# Each check rejects a corrupted value.
# ---------------------------------------------------------------------------


def test_paoi_off_by_1e9_relative_is_rejected():
    m = program_metrics(HETERO)
    bad = list(m.per_ue_paoi)
    bad[1] *= 1 + 1e-9
    assert checks.check_metrics("m", HETERO, m.per_ue_aoi, bad, m.system_aoi, m.system_paoi)
    assert checks.check_metrics("m", HETERO, m.per_ue_aoi, m.per_ue_paoi, m.system_aoi,
                                m.system_paoi * (1 - 1e-9))


def test_printed_paoi_off_by_one_digit_is_rejected():
    expected = checks.system_paoi_ref(README)
    text = "%.9g" % expected
    assert checks.check_printed("p", text, expected) == []
    bumped = "%.9g" % (float(text) + 2 * checks.half_digit(expected))
    assert checks.check_printed("p", bumped, expected)


def test_aoi_outside_bracket_or_below_floor_is_rejected():
    assert checks.check_bracket("b", 1.0, 2.0, 3.0) == []
    assert checks.check_bracket("b", 1.0, 3.5, 3.0)
    assert checks.check_bracket("b", 1.0, 0.5, 3.0)
    floor = checks.aoi_floor(README, 0)
    assert checks.check_floor("f", floor * (1 - 1e-9), floor)


def test_simulated_paoi_outside_band_is_rejected():
    # a 6-SE shift is caught wherever the corrected band is narrower than
    # 6 SE (here 30 replications, 7 terms)...
    wide_df = checks.band_multiplier(29, 7)
    assert wide_df < 6
    assert checks.check_band("s", 10.0 + 6 * 0.01, 10.0, 0.01, wide_df)
    assert checks.check_band("s", 10.0 + 5 * 0.01, 10.0, 0.01, wide_df) == []
    # ...and at the settings the workloads use, anything past their band is
    # caught; with 10 replications and 9 rows the band is 8.7 SE wide
    for df, terms in ((9, 9), (2, 28), (3, 7)):
        band = checks.band_multiplier(df, terms)
        assert checks.check_band("s", 10.0 + 1.01 * band * 0.01, 10.0, 0.01, band)
        assert checks.check_band("s", 10.0 + 0.99 * band * 0.01, 10.0, 0.01, band) == []


@pytest.mark.parametrize("call", range(3))
def test_simulated_paoi_past_its_tolerance_is_rejected_at_simulate_long_settings(call):
    """The t-band is hundreds of SE wide at 3 replications; the relative
    tolerance is what rejects a PAoI error on simulate-long."""
    import dataclasses
    from aoi_mec import simulate
    from worker import check_simulation, system_config
    calls, seed = inputs.simulate_long(11)
    label, cfg, packets, reps, _ = calls[call]
    terms = sum(c.n + 1 for _, c, _, _, _ in calls)
    result = simulate.simulate_mec(system_config(cfg), simulate.SimParams(
        seed=seed, packets_per_ue=packets, replications=reps))
    assert check_simulation(label, cfg, result, packets, reps, terms) == []
    ue_rel, system_rel = checks.ref_paoi_tolerance(cfg.kind, packets, reps)
    band = checks.band_multiplier(reps - 1, terms)

    def shifted(estimate, exact, rel):
        return dataclasses.replace(estimate, value=exact * (1 + 1.01 * rel))
    per_ue = list(result.per_ue_paoi)
    per_ue[2] = shifted(per_ue[2], checks.paoi_ref(cfg, 2), ue_rel)
    assert checks.check_band("s", per_ue[2].value, checks.paoi_ref(cfg, 2), per_ue[2].se,
                             band) == []
    assert check_simulation(label, cfg, dataclasses.replace(result, per_ue_paoi=tuple(per_ue)),
                            packets, reps, terms)
    system = shifted(result.system_paoi, checks.system_paoi_ref(cfg), -system_rel)
    assert check_simulation(label, cfg, dataclasses.replace(result, system_paoi=system),
                            packets, reps, terms)
    # on the partial and edge schemes a 2 % PAoI error is past the tolerance
    assert ue_rel < 0.02 or cfg.kind == "local"


def test_search_p_that_is_off_is_rejected():
    branch, p_star = "interior", 0.815153077
    assert checks.check_paoi_search("s", p_star + 5e-6, branch, p_star) == []
    assert checks.check_paoi_search("s", p_star + 3e-5, branch, p_star)
    assert checks.check_paoi_search("s", 0.9999, "edge", 1.0)
    assert checks.check_aoi_search("s", 8.6, [8.7, 8.59, 9.0])


def test_analytic_output_checks(workdir):
    path = workdir / "readme.cfg"
    path.write_text(README.config_text())
    stdout = run_cli("analytic", "--config", str(path))
    assert checks.check_analytic_output(README, stdout) == []
    # corrupt the lower bound so the system AoI falls outside the bracket
    bounds = checks.parse_cli(stdout)["aoi bounds"]
    lower, aoi = bounds.split()[0], bounds.split()[2]
    bad = stdout.replace(f"{lower} <= {aoi}", f"{float(aoi) * 1.001:.9g} <= {aoi}")
    assert checks.check_analytic_output(README, bad)
    paoi = checks.parse_cli(stdout)["system paoi"]
    bad = stdout.replace(f"system paoi: {paoi}", "system paoi: %.9g" % (float(paoi) * 1.0001))
    assert checks.check_analytic_output(README, bad)


def test_optimize_output_checks(workdir):
    from worker import aoi_on_grid
    cfg = Cfg.homogeneous(6, 0.2, 1.5, 1.8, 0.25, "partial", 0.5)
    path = workdir / "interior.cfg"
    path.write_text(cfg.config_text())
    stdout = run_cli("optimize", "--config", str(path))
    grid = aoi_on_grid(cfg)
    assert checks.check_optimize_output(cfg, stdout, grid) == []
    line = checks.parse_cli(stdout)["search (paoi)"]
    p = line.split()[0][2:]
    bad = stdout.replace(f"p={p}", "p=%.9g" % (float(p) + 1e-4), 1)
    assert checks.check_optimize_output(cfg, bad, grid)
    # an AoI search value above some grid point
    aoi_value = checks.parse_cli(stdout)["search (aoi)"].split()[1][6:]
    bad = stdout.replace(f"value={aoi_value}", "value=%.9g" % (min(grid) * 1.001))
    assert checks.check_optimize_output(cfg, bad, grid)


def test_sweep_csv_checks(workdir):
    text, values, _, reps = inputs.sweep_sim(5, small=True)
    spec, out = workdir / "sweep.cfg", workdir / "sweep.csv"
    spec.write_text(text)
    run_cli("sweep", "--simulate", "--config", str(spec), "--out", str(out))
    table = out.read_text()
    args = (values, 4, inputs.MU_B, inputs.MU_D, 0.25, reps)
    assert checks.check_sweep_csv(table, *args) == [[]] * 9

    lines = table.splitlines()
    header = lines[0].split(",")
    cells = lines[3].split(",")
    ci = float(cells[header.index("sim_paoi_ci")])
    se = ci / checks.t_quantile(0.975, 3)
    band = checks.band_multiplier(3, 9)
    exact = float(cells[header.index("paoi")])
    cells[header.index("sim_paoi")] = "%.9g" % (exact + 1.05 * band * se)
    shifted = "\n".join(lines[:3] + [",".join(cells)] + lines[4:]) + "\n"
    verdict = checks.check_sweep_csv(shifted, *args)
    assert verdict[2] and not any(verdict[:2] + verdict[3:])

    cells = lines[1].split(",")
    cells[header.index("status")] = "diverged"
    flagged = "\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n"
    assert checks.check_sweep_csv(flagged, *args)[0]
    assert all(checks.check_sweep_csv(table.replace(lines[5] + "\n", ""), *args))


def test_cli_config_text_round_trips(workdir):
    from aoi_mec import cli
    from worker import system_config
    for cfg in (README, HETERO, README._replace(kind="local", p=0.0)):
        path = workdir / "round.cfg"
        path.write_text(cfg.config_text())
        assert cli.load_config(str(path)) == system_config(cfg)
        assert math.isfinite(checks.system_paoi_ref(cfg))
