"""CLI tests: config diagnostics, exit codes, output format, determinism,
and the analytic-vs-simulation validation report."""

import math
import os
import subprocess
import sys

import pytest

import aoi_mec
from aoi_mec import analytic, cli, optimize, validation
from aoi_mec.model import ConfigParseError, Scheme, SystemConfig
from aoi_mec.simulate import SimParams


REF_CFG = """\
# reference homogeneous system
n_ues = 6
lambda = 0.1
mu_b = 1.5
mu_d = 1.8
mu_local = 0.25
scheme = partial
p = 0.5
"""

# the README's example system
LOW_UTIL_CFG = """\
n_ues = 3
lambda = 0.05
mu_b = 1.5
mu_d = 1.8
mu_local = 0.25
scheme = partial
p = 0.5
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [dict(zip(header, line.rstrip("\n").split(","))) for line in fh]
    return header, rows


def ref_config():
    return SystemConfig.homogeneous(6, 0.1, 1.5, 1.8, 0.25, Scheme.partial(0.5))


# ---------------------------------------------------------------------------
# Config parsing.
# ---------------------------------------------------------------------------


class TestConfigParsing:
    def test_valid_config(self, tmp_path):
        cfg = cli.load_config(write(tmp_path, "a.cfg", REF_CFG))
        assert cfg == ref_config()

    def test_per_ue_lists(self, tmp_path):
        text = ("n_ues = 2\nlambda = 0.1, 0.2\nmu_b = 1.5\nmu_d = 1.8\n"
                "mu_local = 0.3, 0.4\nscheme = local\n")
        cfg = cli.load_config(write(tmp_path, "b.cfg", text))
        assert cfg.gen_rates == (0.1, 0.2)
        assert cfg.local_rates == (0.3, 0.4)
        assert cfg.scheme == Scheme.local()

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        text = "\n# header\n" + REF_CFG.replace("p = 0.5", "p = 0.5  # ratio")
        cfg = cli.load_config(write(tmp_path, "c.cfg", text))
        assert cfg == ref_config()

    def test_missing_equals_has_line_number(self, tmp_path):
        path = write(tmp_path, "d.cfg", "n_ues = 2\nlambda 0.2\n")
        with pytest.raises(ConfigParseError, match=r"d\.cfg:2: expected 'key = value'"):
            cli.load_config(path)

    def test_duplicate_key(self, tmp_path):
        path = write(tmp_path, "e.cfg", "n_ues = 2\nn_ues = 3\n")
        with pytest.raises(ConfigParseError, match=r"e\.cfg:2: duplicate key 'n_ues'"):
            cli.load_config(path)

    def test_missing_key_named(self, tmp_path):
        path = write(tmp_path, "f.cfg", "n_ues = 2\nlambda = 0.2\nmu_b = 1.5\n")
        with pytest.raises(ConfigParseError, match="missing required key 'mu_d'"):
            cli.load_config(path)

    def test_unknown_key_with_line(self, tmp_path):
        path = write(tmp_path, "g.cfg", REF_CFG + "typo_key = 3\n")
        with pytest.raises(ConfigParseError, match=r"g\.cfg:9: unknown key 'typo_key'"):
            cli.load_config(path)

    def test_bad_number(self, tmp_path):
        path = write(tmp_path, "h.cfg", REF_CFG.replace("mu_b = 1.5", "mu_b = fast"))
        with pytest.raises(ConfigParseError, match=r"h\.cfg:4: mu_b must be a number"):
            cli.load_config(path)

    def test_list_length_mismatch(self, tmp_path):
        path = write(tmp_path, "i.cfg", REF_CFG.replace("lambda = 0.1", "lambda = 0.1, 0.2"))
        with pytest.raises(ConfigParseError, match="lambda has 2 entries for n_ues = 6"):
            cli.load_config(path)

    def test_p_rejected_for_local(self, tmp_path):
        text = "n_ues = 1\nlambda = 0.2\nmu_b = 1.5\nmu_d = 1.8\nmu_local = 0.6\nscheme = local\np = 0.3\n"
        with pytest.raises(ConfigParseError, match="'p' only applies to scheme = partial"):
            cli.load_config(write(tmp_path, "j.cfg", text))

    def test_partial_requires_p(self, tmp_path):
        path = write(tmp_path, "k.cfg", REF_CFG.replace("p = 0.5\n", ""))
        with pytest.raises(ConfigParseError, match="scheme = partial requires a 'p' key"):
            cli.load_config(path)

    def test_p_out_of_range(self, tmp_path):
        path = write(tmp_path, "l.cfg", REF_CFG.replace("p = 0.5", "p = 1.5"))
        with pytest.raises(ConfigParseError, match=r"l\.cfg:8: offloading ratio"):
            cli.load_config(path)

    def test_unknown_scheme(self, tmp_path):
        path = write(tmp_path, "m.cfg", REF_CFG.replace("scheme = partial", "scheme = cloud"))
        with pytest.raises(ConfigParseError, match="unknown scheme 'cloud'"):
            cli.load_config(path)

    def test_negative_rate(self, tmp_path):
        path = write(tmp_path, "n.cfg", REF_CFG.replace("mu_b = 1.5", "mu_b = -1"))
        with pytest.raises(ConfigParseError, match="edge_rate"):
            cli.load_config(path)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigParseError, match="cannot read"):
            cli.load_config(str(tmp_path / "nope.cfg"))


class TestSweepSpecParsing:
    BASE = "n_ues = 6\nmu_b = 1.5\nmu_d = 1.8\nmu_local = 0.25\n"

    def test_lambda_sweep_parsed(self, tmp_path):
        text = "sweep = lambda_h\nvalues = 0.1, 0.2\nschemes = local, edge, partial:0.5\n" + self.BASE
        spec = cli.load_sweep_spec(write(tmp_path, "s.cfg", text))
        assert spec.swept == "lambda_h"
        assert spec.values == (0.1, 0.2)
        assert spec.schemes == (Scheme.local(), Scheme.edge(), Scheme.partial(0.5))
        assert not spec.simulate

    def test_empty_values_rejected(self, tmp_path):
        text = "sweep = lambda_h\nvalues =\nschemes = local\n" + self.BASE
        with pytest.raises(ConfigParseError, match="values"):
            cli.load_sweep_spec(write(tmp_path, "s.cfg", text))

    def test_non_increasing_values_rejected(self, tmp_path):
        text = "sweep = lambda_h\nvalues = 0.2, 0.2\nschemes = local\n" + self.BASE
        with pytest.raises(ConfigParseError, match="strictly increasing"):
            cli.load_sweep_spec(write(tmp_path, "s.cfg", text))

    @pytest.mark.parametrize("swept, values, extra", [
        ("n_ues", "nan", "schemes = edge\nlambda = 0.1\n"),
        ("n_ues", "2, inf", "schemes = edge\nlambda = 0.1\n"),
        ("lambda_h", "0.1, inf", "schemes = local\nn_ues = 6\n"),
        ("p", "nan", "lambda = 0.1\nn_ues = 6\n"),
    ], ids=["n_ues-nan", "n_ues-inf", "lambda_h-inf", "p-nan"])
    def test_non_finite_values_rejected(self, tmp_path, capsys, swept, values, extra):
        text = (f"sweep = {swept}\nvalues = {values}\n{extra}"
                "mu_b = 1.5\nmu_d = 1.8\nmu_local = 0.25\n")
        path = write(tmp_path, "s.cfg", text)
        code = cli.main(["sweep", "--config", path, "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert f"config error: {path}:2: values must be finite" in capsys.readouterr().err

    def test_p_sweep_owns_the_scheme(self, tmp_path):
        text = ("sweep = p\nvalues = 0.2, 0.4\nschemes = local, edge\n"
                "lambda = 0.1\n" + self.BASE)
        with pytest.raises(ConfigParseError, match="p sweep varies the partial scheme"):
            cli.load_sweep_spec(write(tmp_path, "s.cfg", text))

    def test_p_values_range_checked(self, tmp_path):
        text = "sweep = p\nvalues = 0.5, 1.5\nlambda = 0.1\n" + self.BASE
        with pytest.raises(ConfigParseError, match=r"\[0, 1\]"):
            cli.load_sweep_spec(write(tmp_path, "s.cfg", text))

    def test_n_ues_values_must_be_integers(self, tmp_path):
        text = ("sweep = n_ues\nvalues = 2, 2.5\nschemes = edge\nlambda = 0.1\n"
                "mu_b = 1.5\nmu_d = 1.8\nmu_local = 0.25\n")
        with pytest.raises(ConfigParseError, match="positive integers"):
            cli.load_sweep_spec(write(tmp_path, "s.cfg", text))

    def test_lambda_sweep_requires_scalar_mu_local(self, tmp_path):
        text = ("sweep = lambda_h\nvalues = 0.1\nschemes = local\nn_ues = 2\n"
                "mu_b = 1.5\nmu_d = 1.8\nmu_local = 0.25, 0.3\n")
        with pytest.raises(ConfigParseError, match="scalar mu_local"):
            cli.load_sweep_spec(write(tmp_path, "s.cfg", text))

    @pytest.mark.parametrize("swept, values, key, text", [
        ("lambda_h", "0.1", "mu_local", "n_ues = 2\nmu_local = 0.25, 0.3\n"),
        ("n_ues", "2, 3", "lambda", "lambda = 0.1, 0.2\nmu_local = 0.25\n"),
    ])
    def test_homogeneous_axes_reject_per_ue_lists(self, tmp_path, capsys, swept,
                                                   values, key, text):
        spec = (f"sweep = {swept}\nvalues = {values}\nschemes = local\n"
                f"mu_b = 1.5\nmu_d = 1.8\n{text}")
        code = cli.main(["sweep", "--config", write(tmp_path, "s.cfg", spec),
                         "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert f"sweeping {swept} needs a scalar {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("token, message", [
        ("partial:x", "p must be a number, got 'x'"),
        ("cloud", "unknown scheme 'cloud'"),
        ("partial:1.5", "offloading ratio must be in [0, 1], got 1.5"),
        ("partial", "unknown scheme 'partial' (expected local, edge, or partial:P)"),
    ])
    def test_bad_scheme_token_has_line(self, tmp_path, capsys, token, message):
        text = f"sweep = lambda_h\nvalues = 0.1\nschemes = local, {token}\n" + self.BASE
        path = write(tmp_path, "s.cfg", text)
        code = cli.main(["sweep", "--config", path, "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert f"config error: {path}:3: {message}" in capsys.readouterr().err

    def test_file_key_checked_under_a_flag(self, tmp_path, capsys):
        text = ("sweep = lambda_h\nvalues = 0.1\nschemes = local\nseed = abc\n"
                + self.BASE)
        path = write(tmp_path, "s.cfg", text)
        code = cli.main(["sweep", "--config", path, "--out", str(tmp_path / "x.csv"),
                         "--seed", "3"])
        assert code == 2
        assert f"{path}:4: seed must be an integer" in capsys.readouterr().err

    def test_cli_overrides_beat_file_keys(self, tmp_path):
        text = ("sweep = lambda_h\nvalues = 0.1\nschemes = local\nseed = 1\n"
                "packets = 100\nreps = 4\n" + self.BASE)
        spec = cli.load_sweep_spec(write(tmp_path, "s.cfg", text), seed=9, packets=500)
        assert spec.params.seed == 9
        assert spec.params.packets_per_ue == 500
        assert spec.params.replications == 4


# ---------------------------------------------------------------------------
# analytic subcommand.
# ---------------------------------------------------------------------------


class TestAnalyticCommand:
    def test_report_and_bounds_line(self, tmp_path, capsys):
        code = cli.main(["analytic", "--config", write(tmp_path, "a.cfg", REF_CFG)])
        out = capsys.readouterr().out
        assert code == 0
        bounds_line = next(l for l in out.splitlines() if l.startswith("aoi bounds:"))
        low, aoi, up = (float(tok) for tok in bounds_line.split()[2:7:2])
        assert low <= aoi <= up

    def test_printed_aoi_is_the_library_value(self, tmp_path, capsys):
        cli.main(["analytic", "--config", write(tmp_path, "a.cfg", REF_CFG)])
        out = capsys.readouterr().out
        printed = next(l for l in out.splitlines() if l.startswith("system aoi:"))
        value = float(printed.split()[-1])
        exact = analytic.system_metrics(ref_config()).system_aoi
        assert value == float("%.9g" % exact)

    def test_unstable_names_transmission_queue(self, tmp_path, capsys):
        text = REF_CFG.replace("lambda = 0.1", "lambda = 0.4")
        code = cli.main(["analytic", "--config", write(tmp_path, "u.cfg", text)])
        err = capsys.readouterr().err
        assert code == 3
        assert "transmission queue" in err

    def test_machine_row(self, tmp_path, capsys):
        out_path = str(tmp_path / "row.csv")
        cli.main(["analytic", "--config", write(tmp_path, "a.cfg", REF_CFG),
                  "--out", out_path])
        capsys.readouterr()
        header, rows = read_csv(out_path)
        assert list(header) == list(cli.RESULT_HEADER)
        assert len(rows) == 1
        row = rows[0]
        metrics = analytic.system_metrics(ref_config())
        assert float(row["aoi"]) == float("%.9g" % metrics.system_aoi)
        assert row["status"] == "ok"
        assert row["sim_aoi"] == ""

    def test_config_error_exit_code(self, tmp_path, capsys):
        code = cli.main(["analytic", "--config", str(tmp_path / "missing.cfg")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_coincident_rates_near_saturation(self, tmp_path, capsys):
        # mu_B = mu_D on the edge scheme, at transmission utilization
        # 1 - 5e-7: a removable singularity of the split terms
        text = ("n_ues = 2\nlambda = 0.5\nmu_b = 1.0000005\nmu_d = 1.0000005\n"
                "mu_local = 1\nscheme = edge\n")
        code = cli.main(["analytic", "--config", write(tmp_path, "s.cfg", text)])
        out, err = capsys.readouterr()
        assert code == 0
        assert "Traceback" not in err
        aoi = float(next(l for l in out.splitlines() if l.startswith("system aoi:")).split()[-1])
        assert math.isfinite(aoi)

    def test_heterogeneous_report_skips_bounds(self, tmp_path, capsys):
        text = ("n_ues = 2\nlambda = 0.1, 0.2\nmu_b = 1.5\nmu_d = 1.8\n"
                "mu_local = 0.5, 0.6\nscheme = edge\n")
        code = cli.main(["analytic", "--config", write(tmp_path, "h.cfg", text)])
        out = capsys.readouterr().out
        assert code == 0
        assert "n/a (heterogeneous" in out


# ---------------------------------------------------------------------------
# sweep subcommand.
# ---------------------------------------------------------------------------


class TestSweepCommand:
    def test_aoi_u_shaped_in_lambda(self, tmp_path, capsys):
        values = ", ".join("%g" % (0.02 * k) for k in range(1, 15))
        text = ("sweep = lambda_h\nvalues = %s\nschemes = partial:0.5\n"
                "n_ues = 6\nmu_b = 1.5\nmu_d = 1.8\nmu_local = 0.25\n" % values)
        out_path = str(tmp_path / "ref.csv")
        code = cli.main(["sweep", "--config", write(tmp_path, "s.cfg", text),
                         "--out", out_path])
        capsys.readouterr()
        assert code == 0
        _, rows = read_csv(out_path)
        aoi = [float(r["aoi"]) for r in rows]
        diffs = [b - a for a, b in zip(aoi, aoi[1:])]
        signs = [d > 0 for d in diffs]
        assert signs[0] is False and signs[-1] is True
        assert sum(1 for a, b in zip(signs, signs[1:]) if a != b) == 1

    def test_p_sweep_bracket_holds_everywhere(self, tmp_path, capsys):
        values = ", ".join("%g" % (0.1 * k) for k in range(11))
        text = ("sweep = p\nvalues = %s\nn_ues = 4\nlambda = 0.3\n"
                "mu_b = 1.5\nmu_d = 2\nmu_local = 0.6\n" % values)
        out_path = str(tmp_path / "psweep.csv")
        code = cli.main(["sweep", "--config", write(tmp_path, "s.cfg", text),
                         "--out", out_path])
        capsys.readouterr()
        assert code == 0
        _, rows = read_csv(out_path)
        assert len(rows) == 11
        for row in rows:
            assert row["status"] == "ok"
            low, aoi, up = float(row["aoi_low"]), float(row["aoi"]), float(row["aoi_up"])
            assert low - 1e-9 <= aoi <= up + 1e-9

    def test_unstable_rows_flagged_not_numeric(self, tmp_path, capsys):
        text = ("sweep = lambda_h\nvalues = 0.1, 0.2, 0.25, 0.3\nschemes = local\n"
                "n_ues = 6\nmu_b = 1.5\nmu_d = 1.8\nmu_local = 0.25\n")
        out_path = str(tmp_path / "u.csv")
        code = cli.main(["sweep", "--config", write(tmp_path, "s.cfg", text),
                         "--out", out_path])
        capsys.readouterr()
        assert code == 0  # the sweep continues past bad rows
        _, rows = read_csv(out_path)
        statuses = [r["status"] for r in rows]
        assert statuses == ["ok", "ok", "unstable", "unstable"]
        for row in rows:
            if row["status"] == "unstable":
                assert row["aoi"] == "" and row["paoi"] == ""
            else:
                assert float(row["aoi"]) > 0

    def test_simulated_columns_carry_ci(self, tmp_path, capsys):
        text = ("sweep = p\nvalues = 0, 0.5, 1\nn_ues = 2\nlambda = 0.2\n"
                "mu_b = 1.5\nmu_d = 1.8\nmu_local = 0.6\n"
                "simulate = true\npackets = 4000\nreps = 3\nseed = 99\n")
        out_path = str(tmp_path / "sim.csv")
        cli.main(["sweep", "--config", write(tmp_path, "s.cfg", text), "--out", out_path])
        capsys.readouterr()
        _, rows = read_csv(out_path)
        for row in rows:
            sim, ci = float(row["sim_aoi"]), float(row["sim_aoi_ci"])
            assert ci > 0 and float(row["sim_paoi_ci"]) > 0
            assert abs(sim - float(row["aoi"])) / float(row["aoi"]) < 0.10

    def test_reruns_are_byte_identical_across_thread_counts(self, tmp_path, capsys,
                                                            monkeypatch, pools):
        # 3 rows x 2 UEs x 2 replications: 24k packets, then at the pool threshold
        for packets, opened in ((2000, []), (21_000, [4, 2])):
            text = ("sweep = p\nvalues = 0, 0.5, 1\nn_ues = 2\nlambda = 0.2\n"
                    "mu_b = 1.5\nmu_d = 1.8\nmu_local = 0.6\n"
                    f"simulate = true\npackets = {packets}\nreps = 2\nseed = 7\n")
            spec_path = write(tmp_path, "s.cfg", text)
            outputs = []
            pools.clear()
            for threads, name in (("1", "a.csv"), ("4", "b.csv"), ("2", "c.csv")):
                monkeypatch.setenv("AOI_MEC_THREADS", threads)
                out_path = str(tmp_path / name)
                assert cli.main(["sweep", "--config", spec_path, "--out", out_path]) == 0
                outputs.append(open(out_path, "rb").read())
            capsys.readouterr()
            assert pools == opened
            assert outputs[0] == outputs[1] == outputs[2]

    def test_simulate_flag_overrides_spec(self, tmp_path, capsys):
        text = ("sweep = lambda_h\nvalues = 0.1\nschemes = edge\n"
                "n_ues = 2\nmu_b = 1.5\nmu_d = 1.8\nmu_local = 0.6\n"
                "packets = 2000\nreps = 2\n")
        out_path = str(tmp_path / "s.csv")
        cli.main(["sweep", "--config", write(tmp_path, "s.cfg", text),
                  "--out", out_path, "--simulate", "--seed", "5"])
        capsys.readouterr()
        _, rows = read_csv(out_path)
        assert rows[0]["sim_aoi"] != ""

    def test_n_ues_sweep_rows(self, tmp_path, capsys):
        text = ("sweep = n_ues\nvalues = 2, 4, 6\nschemes = edge\nlambda = 0.1\n"
                "mu_b = 1.5\nmu_d = 1.8\nmu_local = 0.25\n")
        out_path = str(tmp_path / "n.csv")
        cli.main(["sweep", "--config", write(tmp_path, "s.cfg", text), "--out", out_path])
        capsys.readouterr()
        _, rows = read_csv(out_path)
        assert [r["n_ues"] for r in rows] == ["2", "4", "6"]
        aoi = [float(r["aoi"]) for r in rows]
        assert aoi[0] < aoi[1] < aoi[2]

    def test_bad_threads_env(self, tmp_path, capsys, monkeypatch):
        # only simulation reads the variable
        monkeypatch.setenv("AOI_MEC_THREADS", "zero")
        text = ("sweep = lambda_h\nvalues = 0.1\nschemes = local\n"
                "n_ues = 2\nmu_b = 1.5\nmu_d = 1.8\nmu_local = 0.6\n"
                "simulate = true\npackets = 200\nreps = 2\n")
        code = cli.main(["sweep", "--config", write(tmp_path, "s.cfg", text),
                         "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "AOI_MEC_THREADS" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Entry point: `python -m aoi_mec.cli` in a fresh interpreter.
# ---------------------------------------------------------------------------


def run_python(*args):
    src = os.path.dirname(os.path.dirname(aoi_mec.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)


class TestEntryPoint:
    def test_module_run_is_warning_free(self, tmp_path):
        # the package importing its CLI made runpy warn on every command
        proc = run_python("-W", "error", "-m", "aoi_mec.cli", "analytic",
                          "--config", write(tmp_path, "r.cfg", LOW_UTIL_CFG))
        assert proc.returncode == 0
        assert proc.stderr == ""

    def test_package_import_leaves_cli_out(self):
        proc = run_python("-c", "import sys, aoi_mec; print('aoi_mec.cli' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


# The closed forms and the optimizer need only the standard library; numpy
# loads with the simulator, on first use, and with a search grid of at
# least optimize.ARRAY_MIN_POINTS points. scipy is for the tests only.
HEAVY = "sorted(m for m in ('numpy', 'scipy') if m in sys.modules)"


class TestLazyImports:
    def test_package_import_loads_neither_numpy_nor_scipy(self):
        proc = run_python("-c", f"import sys, aoi_mec; print({HEAVY})")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_analytic_command_loads_neither_numpy_nor_scipy(self, tmp_path):
        path = write(tmp_path, "r.cfg", LOW_UTIL_CFG)
        proc = run_python("-c", "import sys; from aoi_mec import cli; "
                                f"code = cli.main(['analytic', '--config', {path!r}]); "
                                f"print(code, {HEAVY}, 'concurrent.futures' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 [] False"

    def test_optimize_command_loads_neither_numpy_nor_scipy(self, tmp_path):
        path = write(tmp_path, "r.cfg", LOW_UTIL_CFG)
        proc = run_python("-c", "import sys; from aoi_mec import cli; "
                                f"code = cli.main(['optimize', '--config', {path!r}]); "
                                f"print(code, {HEAVY}, 'concurrent.futures' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 [] False"

    def test_fine_optimize_resolution_loads_numpy_and_prints_the_warm_values(self, tmp_path):
        # a grid of ARRAY_MIN_POINTS points or more is scanned on arrays,
        # with numpy imported for it; the stable interval here is [0, 1]
        path = write(tmp_path, "r.cfg", LOW_UTIL_CFG)
        resolution = repr(1.0 / (optimize.ARRAY_MIN_POINTS - 1))
        run = ("from aoi_mec import cli; "
               f"code = cli.main(['optimize', '--config', {path!r}, "
               f"'--resolution', {resolution!r}]); print(code, {HEAVY})")
        cold = run_python("-c", "import sys; " + run)
        warm = run_python("-c", "import sys, numpy; " + run)
        assert cold.returncode == 0, cold.stderr
        assert warm.returncode == 0, warm.stderr
        assert cold.stdout.splitlines()[-1] == "0 ['numpy']"
        assert len(cold.stdout.splitlines()) > 6 and cold.stdout == warm.stdout

    def test_search_p_cold_and_warm_agree(self):
        # the float grid without numpy, the array grid with it
        script = f"""if True:
            import random, sys
            from aoi_mec.model import Scheme, SystemConfig
            from aoi_mec.optimize import search_p, stable_p_interval
            draw, done = random.Random(2035), 0
            while done < 24:
                n, lh = draw.randint(1, 8), draw.uniform(0.02, 0.5)
                cfg = SystemConfig.homogeneous(
                    n, lh, draw.uniform(0.2, 2.0) * n * lh, draw.uniform(1.05, 3.0) * n * lh,
                    draw.uniform(0.3, 3.0) * lh, Scheme.partial(0.5))
                if stable_p_interval(cfg) is None:
                    continue
                done += 1
                for objective in ("aoi", "paoi"):
                    for resolution in (1e-3, 0.0137, 0.05):
                        print(repr(search_p(cfg, objective, resolution)))
            print({HEAVY})"""
        cold = run_python("-c", script)
        warm = run_python("-c", "import numpy\n" + script)
        assert cold.returncode == 0, cold.stderr
        assert warm.returncode == 0, warm.stderr
        cold_lines, warm_lines = cold.stdout.splitlines(), warm.stdout.splitlines()
        assert (cold_lines[-1], warm_lines[-1]) == ("[]", "['numpy']")
        assert len(cold_lines) == 24 * 6 + 1 and cold_lines[:-1] == warm_lines[:-1]

    def test_library_source_never_imports_scipy(self):
        package = os.path.dirname(aoi_mec.__file__)
        offenders = []
        for name in sorted(os.listdir(package)):
            if name.endswith(".py"):
                with open(os.path.join(package, name), encoding="utf-8") as fh:
                    offenders += [f"{name}:{i}" for i, line in enumerate(fh, 1)
                                  if line.lstrip().startswith(("import scipy", "from scipy"))]
        assert offenders == []

    def test_every_exported_name_resolves(self):
        proc = run_python("-c", """if True:
            import aoi_mec
            from aoi_mec import cli, simulate, optimize, validation
            missing = [n for n in aoi_mec.__all__ if not hasattr(aoi_mec, n)]
            assert missing == [], missing
            assert aoi_mec.simulate_mec is simulate.simulate_mec
            assert aoi_mec.SimParams is simulate.SimParams
            assert aoi_mec.DivergenceWarning is simulate.DivergenceWarning
            assert aoi_mec.search_p is optimize.search_p
            assert aoi_mec.run_validation is validation.run_validation
            assert cli.simulate_mec is simulate.simulate_mec
            print("ok")""")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"

    def test_unknown_names_still_raise(self):
        with pytest.raises(AttributeError):
            aoi_mec.no_such_name
        with pytest.raises(AttributeError):
            cli.no_such_name

    def test_readme_quickstart_import(self):
        path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
        with open(path, encoding="utf-8") as fh:
            readme = fh.read()
        start = readme.index("from aoi_mec import (")
        line = readme[start:readme.index(")", start) + 1]
        proc = run_python("-c", f"{line}\nprint(simulate_mec.__module__)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "aoi_mec.simulate"

    def test_analytic_command_prints_the_array_pass_values_without_numpy(self, tmp_path):
        # a cold command keeps the per-UE loop; with numpy loaded the same
        # config takes system_metrics' array pass: one stage-term call on
        # arrays in place of one call per UE on floats
        n = analytic.ARRAY_MIN_UES + 5
        lam = ", ".join(repr(0.01 + 0.0007 * k) for k in range(n))
        mu = ", ".join(repr(0.2 + 0.003 * k) for k in range(n))
        path = write(tmp_path, "h.cfg", f"n_ues = {n}\nlambda = {lam}\nmu_b = 1.5\n"
                                        f"mu_d = 1.8\nmu_local = {mu}\nscheme = partial\np = 0.4\n")
        run = ("from aoi_mec import analytic, cli; passes = []; real = analytic._stage_terms; "
               "analytic._stage_terms = lambda *a: passes.append(type(a[1]).__name__) or real(*a); "
               f"code = cli.main(['analytic', '--config', {path!r}]); "
               f"print(code, {HEAVY}, passes.count('ndarray'))")
        cold = run_python("-c", "import sys; " + run)
        warm = run_python("-c", "import sys, numpy; " + run)
        assert cold.returncode == 0, cold.stderr
        assert warm.returncode == 0, warm.stderr
        cold_lines, warm_lines = cold.stdout.splitlines(), warm.stdout.splitlines()
        assert cold_lines[-1] == "0 [] 0"
        assert warm_lines[-1] == "0 ['numpy'] 1"
        assert len(cold_lines) > 4 and cold_lines[:-1] == warm_lines[:-1]


# ---------------------------------------------------------------------------
# validate subcommand.
# ---------------------------------------------------------------------------


class TestValidateCommand:
    def test_low_utilization_all_terms_pass(self, tmp_path, capsys):
        code = cli.main(["validate", "--config", write(tmp_path, "v.cfg", LOW_UTIL_CFG),
                         "--packets", "15000", "--reps", "10", "--seed", "21"])
        out = capsys.readouterr().out
        assert code == 0
        assert "result: PASS (11/11" in out

    def test_degenerate_edge_single_queue_passes(self, tmp_path, capsys):
        text = ("n_ues = 1\nlambda = 0.5\nmu_b = 1.0\nmu_d = 10000.0\n"
                "mu_local = 0.7\nscheme = edge\n")
        code = cli.main(["validate", "--config", write(tmp_path, "v.cfg", text),
                         "--packets", "20000", "--reps", "5", "--seed", "11"])
        out = capsys.readouterr().out
        assert code == 0
        assert "result: PASS" in out

    def test_corrupted_constant_fails_and_is_named(self, tmp_path, capsys, monkeypatch):
        real = analytic._stage_terms

        def corrupted(*args):
            edge, tx, local = real(*args)
            return edge, tx + 0.5, local

        monkeypatch.setattr("aoi_mec.analytic._stage_terms", corrupted)
        # 10 replications: the bound is 4.85 standard errors, against 13.3 at 4
        code = cli.main(["validate", "--config", write(tmp_path, "v.cfg", LOW_UTIL_CFG),
                         "--packets", "5000", "--reps", "10", "--seed", "21"])
        out = capsys.readouterr().out
        assert code == 4
        failed = {l.split()[0] for l in out.splitlines() if l.rstrip().endswith("FAIL")}
        assert {"yw_tx[0]", "yw_tx[1]", "yw_tx[2]"} <= failed
        assert "result: FAIL" in out

    def test_unstable_config_exit_3(self, tmp_path, capsys):
        text = LOW_UTIL_CFG.replace("lambda = 0.05", "lambda = 0.7")
        code = cli.main(["validate", "--config", write(tmp_path, "v.cfg", text)])
        assert code == 3
        assert "unstable" in capsys.readouterr().err

    def test_single_replication_rejected(self, tmp_path, capsys):
        code = cli.main(["validate", "--config", write(tmp_path, "v.cfg", LOW_UTIL_CFG),
                         "--packets", "2000", "--reps", "1"])
        assert code == 2
        assert "replications" in capsys.readouterr().err

    def test_report_csv(self, tmp_path, capsys):
        out_path = str(tmp_path / "report.csv")
        cli.main(["validate", "--config", write(tmp_path, "v.cfg", LOW_UTIL_CFG),
                  "--packets", "3000", "--reps", "3", "--seed", "2", "--out", out_path])
        capsys.readouterr()
        header, rows = read_csv(out_path)
        assert header == ["term", "analytic", "simulated", "se", "z", "verdict"]
        assert len(rows) == 2 + 3 * 3
        assert {r["verdict"] for r in rows} <= {"pass", "fail"}
        assert all("nan" not in v.lower() for r in rows for v in r.values())


class TestRunValidation:
    def params(self, **kw):
        defaults = dict(seed=21, packets_per_ue=4000, replications=4)
        defaults.update(kw)
        return SimParams(**defaults)

    def cfg(self):
        return SystemConfig.homogeneous(3, 0.05, 1.5, 1.8, 0.25, Scheme.partial(0.5))

    def test_override_corrupts_one_term(self, monkeypatch):
        real = analytic._stage_terms
        calls = []

        def corrupted(*args):
            # the three UEs are evaluated one call each, in UE order
            edge, tx, local = real(*args)
            n = len(calls) % 3
            calls.append(n)
            return edge, tx + 0.7 if n == 1 else tx, local

        monkeypatch.setattr("aoi_mec.analytic._stage_terms", corrupted)
        report = validation.run_validation(self.cfg(), self.params(replications=10))
        assert not report.passed
        bad = next(r for r in report.rows if r.name == "yw_tx[1]")
        assert not bad.ok and abs(bad.z) > 3
        # the corruption must not leak into any other term
        peers = [r for r in report.rows if r.name.startswith("yw_tx") and r is not bad]
        assert all(abs(r.z) < abs(bad.z) for r in peers)

    def test_rates_derived_once(self, monkeypatch):
        # one derivation for the run, not one per UE: the closed-form side
        # of a validation stays O(N)
        calls = []
        for module in (analytic, validation):
            monkeypatch.setattr(module, "derive_rates",
                                lambda cfg, _real=module.derive_rates: calls.append(1) or _real(cfg))
        n = 200
        cfg = SystemConfig(n, tuple(0.001 * (1 + k / n) for k in range(n)), 1.5, 1.8,
                           tuple(0.25 + 0.001 * k for k in range(n)), Scheme.partial(0.5))
        report = validation.run_validation(cfg, self.params(packets_per_ue=20, replications=2))
        assert len(report.rows) == 2 + 3 * n
        assert len(calls) == 1

    def test_exact_zero_terms_compare_exactly(self):
        cfg = SystemConfig.homogeneous(2, 0.2, 1.5, 1.8, 0.6, Scheme.edge())
        report = validation.run_validation(cfg, self.params())
        row = next(r for r in report.rows if r.name == "yw_local[0]")
        assert row.analytic == 0.0 and row.estimate == 0.0 and row.ok
        assert row.z == 0.0

    def test_bound_is_the_sidak_corrected_t_quantile(self):
        stats = pytest.importorskip("scipy.stats")
        for reps in (2, 3, 4, 10, 30):
            for terms in (5, 11, 62):
                level = 1.0 - (1.0 - validation.FAMILY_LEVEL) ** (1.0 / terms)
                expected = stats.t.ppf(1.0 - level / 2.0, reps - 1)
                assert validation.z_bound(reps, terms) == pytest.approx(expected, rel=1e-10)
        report = validation.run_validation(self.cfg(), self.params())
        assert report.bound == validation.z_bound(4, 11)


# ---------------------------------------------------------------------------
# optimize subcommand.
# ---------------------------------------------------------------------------


INTERIOR_CFG = """\
n_ues = 6
lambda = 0.2
mu_b = 1.5
mu_d = 1.8
mu_local = 0.25
scheme = partial
p = 0.5
"""


class TestOptimizeCommand:
    def test_interior_worked_example(self, tmp_path, capsys):
        code = cli.main(["optimize", "--config", write(tmp_path, "o.cfg", INTERIOR_CFG)])
        out = capsys.readouterr().out
        assert code == 0
        closed = next(l for l in out.splitlines() if l.startswith("closed-form"))
        p = float(closed.split()[4])
        assert round(p, 5) == 0.81515
        assert "branch=interior" in closed
        penalty = next(l for l in out.splitlines() if l.startswith("aoi penalty"))
        assert float(penalty.split()[-1]) <= 0.02

    def test_edge_branch_with_condition(self, tmp_path, capsys):
        text = ("n_ues = 4\nlambda = 0.1\nmu_b = 2\nmu_d = 3\nmu_local = 0.5\n"
                "scheme = partial\np = 0.5\n")
        code = cli.main(["optimize", "--config", write(tmp_path, "o.cfg", text)])
        out = capsys.readouterr().out
        assert code == 0
        closed = next(l for l in out.splitlines() if l.startswith("closed-form"))
        assert float(closed.split()[4]) == 1.0
        assert "branch=edge" in closed
        assert "condition: mu_h" in out

    def test_unstable_everywhere_exit_3(self, tmp_path, capsys):
        text = INTERIOR_CFG.replace("lambda = 0.2", "lambda = 0.4")
        code = cli.main(["optimize", "--config", write(tmp_path, "o.cfg", text)])
        assert code == 3
        assert "unstable" in capsys.readouterr().err

    def test_heterogeneous_rejected(self, tmp_path, capsys):
        text = ("n_ues = 2\nlambda = 0.1, 0.2\nmu_b = 1.5\nmu_d = 1.8\n"
                "mu_local = 0.5, 0.6\nscheme = edge\n")
        code = cli.main(["optimize", "--config", write(tmp_path, "o.cfg", text)])
        assert code == 2
        assert "homogeneous" in capsys.readouterr().err

    def test_machine_row_tracks_objective(self, tmp_path, capsys):
        out_path = str(tmp_path / "opt.csv")
        cli.main(["optimize", "--config", write(tmp_path, "o.cfg", INTERIOR_CFG),
                  "--out", out_path, "--objective", "aoi"])
        capsys.readouterr()
        header, rows = read_csv(out_path)
        row = rows[0]
        assert row["objective"] == "aoi"
        assert row["p_selected"] == row["p_aoi"]
        assert float(row["aoi_gap_ratio"]) <= 0.02

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "2", "1e-300", "1e-7"])
    def test_resolution_out_of_range_exit_2(self, tmp_path, capsys, value):
        with pytest.raises(SystemExit) as info:
            cli.main(["optimize", "--config", write(tmp_path, "o.cfg", INTERIOR_CFG),
                      "--resolution", value])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"--resolution: must lie in [1e-06, 0.5], got {value}\n" in err
        assert "Traceback" not in err

    def test_search_values_match_library(self, tmp_path, capsys):
        from aoi_mec import optimize as opt
        cli.main(["optimize", "--config", write(tmp_path, "o.cfg", INTERIOR_CFG)])
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("search (paoi)"))
        printed_p = float(line.split()[2].split("=")[1])
        cfg = SystemConfig.homogeneous(6, 0.2, 1.5, 1.8, 0.25, Scheme.partial(0.5))
        res = opt.search_p(cfg, objective="paoi", resolution=1e-3)
        assert printed_p == float("%.9g" % res.best_p)


# ---------------------------------------------------------------------------
# Output files.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("command, config, extra", [
    ("analytic", LOW_UTIL_CFG, []),
    ("sweep", "sweep = lambda_h\nvalues = 0.1\nschemes = local\n"
              "n_ues = 2\nmu_b = 1.5\nmu_d = 1.8\nmu_local = 0.6\n", []),
    ("validate", LOW_UTIL_CFG, ["--packets", "500", "--reps", "2"]),
    ("optimize", INTERIOR_CFG, []),
], ids=["analytic", "sweep", "validate", "optimize"])
def test_unwritable_output_exits_2(tmp_path, capsys, command, config, extra):
    out_path = tmp_path / "missing" / "x.csv"
    code = cli.main([command, "--config", write(tmp_path, "c.cfg", config),
                     "--out", str(out_path), *extra])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1
    assert err[0].startswith(f"config error: {out_path}: cannot write output file (")
