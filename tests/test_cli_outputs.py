"""Pinned CLI output, byte for byte: the README's sample runs and the
files that `--out` writes.

The expected texts were printed by the CLI itself. A change to how the
CLI reads its inputs or writes its tables must leave every printed digit,
cell, line end and exit code as it is, or update these texts on purpose.
"""

import os

import pytest

from aoi_mec import cli


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


def readme_block(after, fence="```\n"):
    """The first fenced block of README.md that opens after the text `after`."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    start = text.index(fence, text.index(after)) + len(fence)
    return text[start:text.index("```", start)]


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def readme_config(tmp_path):
    """The README's own config file, inline comments and all."""
    return write(tmp_path, "readme.cfg", readme_block("## Command line", "```ini\n"))


# The N=6 system of the README's optimize sample.
OPTIMIZE_CFG = """\
n_ues = 6
lambda = 0.2
mu_b = 1.5
mu_d = 1.8
mu_local = 0.25
scheme = partial
p = 0.5
"""


class TestReadmeSamples:
    def test_analytic(self, tmp_path, capsys):
        code = cli.main(["analytic", "--config", readme_config(tmp_path)])
        assert capsys.readouterr().out == readme_block("### `aoi-mec analytic")
        assert code == 0

    def test_validate_at_the_default_seed(self, tmp_path, capsys):
        code = cli.main(["validate", "--config", readme_config(tmp_path)])
        assert capsys.readouterr().out == readme_block("### `aoi-mec validate")
        assert code == 0  # a 3-SE gate failed this run: yw_edge[1] is at z = 4.44

    def test_optimize(self, tmp_path, capsys):
        code = cli.main(["optimize", "--config", write(tmp_path, "o.cfg", OPTIMIZE_CFG)])
        assert capsys.readouterr().out == readme_block("### `aoi-mec optimize")
        assert code == 0


ANALYTIC_ROW = """\
sweep,value,scheme,p,n_ues,lambda,mu_b,mu_d,mu_local,aoi,paoi,aoi_low,aoi_up,gap_ratio,sim_aoi,sim_aoi_ci,sim_paoi,sim_paoi_ci,status
,,partial,0.5,3,0.05,1.5,1.8,0.25,22.9578487,23.17916,22.9559454,23.17916,0.00962997169,,,,,ok
"""

LAMBDA_SWEEP = """\
sweep = lambda_h
values = 0.05, 0.1, 0.2, 0.3
schemes = local, edge, partial:0.5
n_ues = 4
mu_b = 1.5
mu_d = 1.8
mu_local = 0.25
"""

LAMBDA_TABLE = """\
sweep,value,scheme,p,n_ues,lambda,mu_b,mu_d,mu_local,aoi,paoi,aoi_low,aoi_up,gap_ratio,sim_aoi,sim_aoi_ci,sim_paoi,sim_paoi_ci,status
lambda_h,0.05,local,0,4,0.05,1.5,1.8,0.25,24.80992,25.625,24.8066809,25.625,0.0319344037,,,,,ok
lambda_h,0.05,edge,1,4,0.05,1.5,1.8,0.25,21.3491153,21.3942308,21.3485784,21.3942308,0.00213386158,,,,,ok
lambda_h,0.05,partial,0.5,4,0.05,1.5,1.8,0.25,22.9818857,23.2043651,22.9798956,23.2043651,0.00967358664,,,,,ok
lambda_h,0.1,local,0,4,0.1,1.5,1.8,0.25,15.7527553,17.3809524,15.7370018,17.3809524,0.0945834602,,,,,ok
lambda_h,0.1,edge,1,4,0.1,1.5,1.8,0.25,11.5151024,11.6233766,11.511139,11.6233766,0.00965620043,,,,,ok
lambda_h,0.1,partial,0.5,4,0.1,1.5,1.8,0.25,13.1506287,13.5989011,13.1412839,13.5989011,0.033651045,,,,,ok
lambda_h,0.2,local,0,4,0.2,1.5,1.8,0.25,22.7683827,26,22.6688272,26,0.128122032,,,,,ok
lambda_h,0.2,edge,1,4,0.2,1.5,1.8,0.25,7.12234174,7.42857143,7.07243288,7.42857143,0.0479417273,,,,,ok
lambda_h,0.2,partial,0.5,4,0.2,1.5,1.8,0.25,8.87631451,9.78787879,8.82256243,9.78787879,0.0986236527,,,,,ok
lambda_h,0.3,local,0,4,0.3,1.5,1.8,0.25,,,,,,,,,,unstable
lambda_h,0.3,edge,1,4,0.3,1.5,1.8,0.25,7.74385381,8.33333333,7.44135802,8.33333333,0.107037037,,,,,ok
lambda_h,0.3,partial,0.5,4,0.3,1.5,1.8,0.25,9.16746568,10.5555556,8.98180182,10.5555556,0.149092459,,,,,ok
"""

# Per-UE rates, so the rate cells are lists and the bounds cells stay empty.
SIMULATED_P_SWEEP = """\
sweep = p
values = 0, 0.5, 1
n_ues = 2
lambda = 0.2, 0.1
mu_b = 1.5
mu_d = 1.8
mu_local = 0.6
simulate = true
packets = 2000
reps = 2
seed = 7
"""

SIMULATED_P_TABLE = """\
sweep,value,scheme,p,n_ues,lambda,mu_b,mu_d,mu_local,aoi,paoi,aoi_low,aoi_up,gap_ratio,sim_aoi,sim_aoi_ci,sim_paoi,sim_paoi_ci,status
p,0,partial,0,2,0.2;0.1,1.5,1.8,0.6,9.95781875,10.4166667,,,,10.0166781,0.961363293,10.3151764,1.783548,ok
p,0.5,partial,0.5,2,0.2;0.1,1.5,1.8,0.6,9.32245155,9.49158249,,,,9.12870376,0.935227079,9.38941326,0.329873689,ok
p,1,partial,1,2,0.2;0.1,1.5,1.8,0.6,8.87119204,9,,,,8.74258156,0.681414016,8.91541629,0.957037699,ok
"""

VALIDATION_REPORT = """\
term,analytic,simulated,se,z,verdict
system_aoi,22.9578487,22.8457969,0.0903680213,-1.23995025,pass
system_paoi,23.17916,23.0922677,0.147179641,-0.590382859,pass
yw_edge[0],0.232109918,0.214058413,0.0317854898,-0.567916528,pass
yw_tx[0],0.667055725,0.786607261,0.0256540101,4.66015003,pass
yw_local[0],0.480031283,0.515187932,0.0296987376,1.18377586,pass
yw_edge[1],0.232109918,0.230220388,0.0193206762,-0.0977982963,pass
yw_tx[1],0.667055725,0.679392781,0.0634025754,0.194582888,pass
yw_local[1],0.480031283,0.478259411,0.032426162,-0.0546432922,pass
yw_edge[2],0.232109918,0.202366552,0.0321925767,-0.923920007,pass
yw_tx[2],0.667055725,0.642480583,0.0415260969,-0.591799944,pass
yw_local[2],0.480031283,0.456166752,0.0105893259,-2.25364024,pass
"""

OPTIMIZE_ROW = """\
n_ues,lambda,mu_b,mu_d,mu_local,p_closed,branch,p_paoi,paoi_min,p_aoi,aoi_min,aoi_gap_ratio,objective,p_selected
6,0.2,1.5,1.8,0.25,0.815153077,interior,0.815153296,9.09651353,0.79760945,8.5911208,0.000473768414,aoi,0.79760945
"""


class TestGoldenFiles:
    def test_analytic_row(self, tmp_path, capsys):
        out = str(tmp_path / "row.csv")
        assert cli.main(["analytic", "--config", readme_config(tmp_path), "--out", out]) == 0
        capsys.readouterr()
        assert read_bytes(out) == ANALYTIC_ROW.encode()

    @pytest.mark.parametrize("spec, table, flagged", [
        (LAMBDA_SWEEP, LAMBDA_TABLE, 1),
        (SIMULATED_P_SWEEP, SIMULATED_P_TABLE, 0),
    ], ids=["lambda_h-analytic", "p-simulated"])
    def test_sweep_table(self, tmp_path, capsys, spec, table, flagged):
        out = str(tmp_path / "table.csv")
        assert cli.main(["sweep", "--config", write(tmp_path, "s.cfg", spec),
                         "--out", out]) == 0
        rows = table.count("\n") - 1
        assert capsys.readouterr().out == f"sweep: {rows} rows ({flagged} flagged) -> {out}\n"
        assert read_bytes(out) == table.encode()

    def test_validation_report(self, tmp_path, capsys):
        out = str(tmp_path / "report.csv")
        code = cli.main(["validate", "--config", readme_config(tmp_path), "--packets", "3000",
                         "--reps", "3", "--seed", "2", "--out", out])
        capsys.readouterr()
        assert code == 0  # z = 4.66 lies within the t(2) bound, 33.07
        assert read_bytes(out) == VALIDATION_REPORT.encode()

    def test_optimize_row(self, tmp_path, capsys):
        out = str(tmp_path / "opt.csv")
        assert cli.main(["optimize", "--config", write(tmp_path, "o.cfg", OPTIMIZE_CFG),
                         "--out", out, "--objective", "aoi"]) == 0
        capsys.readouterr()
        assert read_bytes(out) == OPTIMIZE_ROW.encode()
