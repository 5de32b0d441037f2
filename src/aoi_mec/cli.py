"""Command-line front end.

Four subcommands, all reading the same flat key-value config format:

    aoi-mec analytic --config system.cfg [--out row.csv]
    aoi-mec sweep    --config sweep.cfg  --out data.csv [--simulate ...]
    aoi-mec validate --config system.cfg [--seed S --packets M --reps R]
    aoi-mec optimize --config system.cfg [--resolution R --objective paoi]

Config files are `key = value` lines, `#` starts a comment, lists are
comma-separated.  System keys: n_ues, lambda (scalar or per-UE list),
mu_b, mu_d, mu_local (scalar or list), scheme (local|edge|partial), p
(partial only).  Sweep files add: sweep (lambda_h|n_ues|p), values,
schemes (e.g. "local, edge, partial:0.5"), simulate, and optionally
seed/packets/warmup/reps.

Output files are comma-separated text with a header row, 9 significant
digits, no NaNs (inapplicable cells are empty, bad rows carry a status
flag).  Exit codes: 0 ok, 2 config error, 3 instability, 4 validation
failure.  Outputs depend only on the inputs, flags, and seed, so reruns
are byte-identical.  AOI_MEC_THREADS caps the worker processes of a
simulation batch (a sweep simulates all its rows in one) made on a
single-threaded process; up to that many replications are in memory.
"""

import argparse
import math
import sys
import warnings
from dataclasses import dataclass, replace
from typing import Optional

from . import analytic
from .model import (
    ConfigParseError,
    DivergenceWarning,
    EmptyStableInterval,
    InvalidParams,
    NotHomogeneous,
    Scheme,
    SimParams,
    SystemConfig,
    UnstableConfig,
    check_stability,
    is_homogeneous,
    require_stable,
)

DEFAULT_SEED = 12345
DEFAULT_PACKETS = 20_000
DEFAULT_REPS = 10

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNSTABLE = 3
EXIT_VALIDATION = 4


def __getattr__(name):
    # The simulator loads numpy, so the CLI imports it on first use and
    # the closed-form commands never do. simulate_mec stays an attribute
    # of the CLI module, served from its home module.
    if name == "simulate_mec":
        from . import simulate
        return simulate.simulate_mec
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _fmt(x) -> str:
    """One number -> text at the output precision; None/NaN -> empty cell."""
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, int):
        return str(x)
    if math.isnan(x):
        return ""
    return "%.9g" % x


def _rates_cell(values) -> str:
    if len(set(values)) == 1:
        return _fmt(values[0])
    return ";".join(_fmt(v) for v in values)


CONFIG_HEADER = ("n_ues", "lambda", "mu_b", "mu_d", "mu_local")


def _config_cells(cfg: SystemConfig):
    """The CONFIG_HEADER cells of one system."""
    return (cfg.num_ues, _rates_cell(cfg.gen_rates), cfg.edge_rate, cfg.tx_rate,
            _rates_cell(cfg.local_rates))


def _write_table(path, header, rows):
    """Comma-separated text: the header, then one line of cells per row."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for cells in (header, *rows):
                fh.write(",".join(_fmt(cell) for cell in cells) + "\n")
    except OSError as exc:
        raise ConfigParseError(f"{path}: cannot write output file ({exc})")


# ---------------------------------------------------------------------------
# Key-value config files.
# ---------------------------------------------------------------------------


def _floats(text):
    """A scalar or a comma-separated list -> list of floats."""
    return [float(part) for part in text.split(",")]


def _flag(text):
    lowered = text.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(text)


# What each value parser accepts, in the words of its error message.
_ACCEPTS = {
    float: "a number",
    int: "an integer",
    _floats: "a number or comma-separated list",
    _flag: "true or false",
}


class _KeyValues:
    """Parsed `key = value` file with line numbers kept for diagnostics."""

    def __init__(self, path):
        self.path = path
        self.entries = {}  # key -> raw value, until taken
        self.lines = {}  # key -> line number
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ConfigParseError(f"{path}: cannot read config file ({exc})")
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                self.error(lineno, f"expected 'key = value', got {line!r}")
            key, value = line.split("=", 1)
            key = key.strip().lower()
            if not key:
                self.error(lineno, "empty key")
            if key in self.lines:
                self.error(lineno, f"duplicate key {key!r} (first set on line {self.lines[key]})")
            self.entries[key] = value.strip()
            self.lines[key] = lineno

    def error(self, lineno, message):
        where = self.path if lineno is None else f"{self.path}:{lineno}"
        raise ConfigParseError(f"{where}: {message}")

    def take(self, key, parse=str, required=False, default=None):
        """Remove key and return its value through parse; default if absent."""
        if key not in self.entries:
            if required:
                self.error(None, f"missing required key {key!r}")
            return default
        return self.convert(key, self.entries.pop(key), self.lines[key], parse)

    def convert(self, key, text, lineno, parse):
        """parse(text), or a `key must be ...` error at lineno."""
        try:
            return parse(text)
        except ValueError:
            self.error(lineno, f"{key} must be {_ACCEPTS[parse]}, got {text!r}")

    def finish(self):
        """Reject unknown keys so typos never pass silently."""
        if self.entries:
            key = next(iter(self.entries))
            self.error(self.lines[key], f"unknown key {key!r}")


def _scheme(kv, kind, ratio, lineno, ratio_line) -> Scheme:
    """Lower-case local | edge | partial, plus the ratio text p for partial -> Scheme.

    A config file writes the ratio as its own `p` key; a sweep's schemes
    list writes it as `partial:P`, on the line of the list.
    """
    if kind not in ("local", "edge", "partial"):
        kv.error(lineno, f"unknown scheme {kind!r} (expected local, edge, or partial)")
    if kind != "partial":
        if ratio is not None:
            kv.error(ratio_line, f"'p' only applies to scheme = partial (scheme is {kind})")
        return Scheme.local() if kind == "local" else Scheme.edge()
    if ratio is None:
        kv.error(lineno, "scheme = partial requires a 'p' key")
    p = kv.convert("p", ratio, ratio_line, float)
    try:
        return Scheme.partial(p)
    except ValueError as exc:
        kv.error(ratio_line, str(exc))


def _per_ue(kv, key, values, n_ues):
    """Broadcast a scalar to n_ues entries; check list lengths."""
    if len(values) == 1:
        return tuple(values) * n_ues
    if len(values) != n_ues:
        kv.error(kv.lines[key], f"{key} has {len(values)} entries for n_ues = {n_ues}")
    return tuple(values)


def load_config(path) -> SystemConfig:
    """Read a system config file; raises ConfigParseError with file:line."""
    kv = _KeyValues(path)
    cfg = _config_from(kv)
    kv.finish()
    return cfg


def _config_from(kv: _KeyValues, swept=None, first=None, scheme=None) -> SystemConfig:
    """Read the system keys; raises ConfigParseError with file:line.

    A sweep passes its axis, the axis's first value and a scheme in place
    of the keys it leaves out of the file: lambda for lambda_h, n_ues for
    n_ues, and scheme/p for every axis.
    """
    n_ues = int(first) if swept == "n_ues" else kv.take("n_ues", int, required=True)
    lambdas = [first] if swept == "lambda_h" else kv.take("lambda", _floats, required=True)
    mu_b = kv.take("mu_b", float, required=True)
    mu_d = kv.take("mu_d", float, required=True)
    mu_local = kv.take("mu_local", _floats, required=True)
    if scheme is None:
        kind = kv.take("scheme", str.lower, required=True)
        scheme = _scheme(kv, kind, kv.take("p"), kv.lines["scheme"], kv.lines.get("p"))
    if swept in ("lambda_h", "n_ues"):
        # These axes rescale homogeneous systems, so scalars only.
        for key, values in (("mu_local", mu_local), ("lambda", lambdas)):
            if len(values) != 1:
                kv.error(kv.lines[key], f"sweeping {swept} needs a scalar {key} (homogeneous UEs)")

    if n_ues < 1:
        kv.error(None, f"n_ues must be >= 1, got {n_ues}")
    gen = _per_ue(kv, "lambda", lambdas, n_ues)
    loc = _per_ue(kv, "mu_local", mu_local, n_ues)
    try:
        return SystemConfig(n_ues, gen, mu_b, mu_d, loc, scheme)
    except ValueError as exc:
        kv.error(None, str(exc))


# ---------------------------------------------------------------------------
# Sweep specs.
# ---------------------------------------------------------------------------

SWEPT_PARAMETERS = ("lambda_h", "n_ues", "p")


@dataclass(frozen=True)
class SweepSpec:
    """One experiment sweep: a parameter axis crossed with a list of schemes.

    base is the system of the first row. For swept = "p" the schemes list
    is a single placeholder and every row is the partial scheme at the
    row's value.
    """

    swept: str
    values: tuple
    base: SystemConfig
    schemes: tuple
    simulate: bool
    params: SimParams


def load_sweep_spec(path, *, seed=None, packets=None, warmup=None, reps=None,
                    force_simulate=False) -> SweepSpec:
    """Read a sweep file; CLI keyword overrides beat file keys."""
    kv = _KeyValues(path)

    swept = kv.take("sweep", str.lower, required=True)
    if swept == "n":
        swept = "n_ues"
    if swept not in SWEPT_PARAMETERS:
        kv.error(kv.lines["sweep"],
                 f"sweep must be one of {', '.join(SWEPT_PARAMETERS)}, got {swept!r}")

    values = kv.take("values", _floats, required=True)
    values_line = kv.lines["values"]
    for v in values:
        if not math.isfinite(v):
            kv.error(values_line, f"values must be finite numbers, got {v:g}")
    for prev, cur in zip(values, values[1:]):
        if not cur > prev:
            kv.error(values_line, f"values must be strictly increasing ({prev:g} then {cur:g})")

    schemes_text = kv.take("schemes", required=swept != "p")
    schemes_line = kv.lines.get("schemes")
    if swept == "p":
        if schemes_text is not None and schemes_text.strip().lower() != "partial":
            kv.error(schemes_line, "a p sweep varies the partial scheme; drop the schemes key")
        for v in values:
            if not 0.0 <= v <= 1.0:
                kv.error(values_line, f"offloading ratios must lie in [0, 1], got {v:g}")
        schemes = [Scheme.partial(values[0])]
    else:
        schemes = []
        for token in schemes_text.split(","):
            token = token.strip().lower()
            kind, colon, ratio = token.partition(":")
            if bool(colon) != (kind == "partial"):
                kv.error(schemes_line,
                         f"unknown scheme {token!r} (expected local, edge, or partial:P)")
            schemes.append(_scheme(kv, kind, ratio if colon else None,
                                   schemes_line, schemes_line))

    if swept == "n_ues":
        for v in values:
            if v != int(v) or v < 1:
                kv.error(values_line, f"n_ues values must be positive integers, got {v:g}")
    if swept == "lambda_h":
        for v in values:
            if not v > 0.0:
                kv.error(values_line, f"lambda_h values must be positive, got {v:g}")

    simulate = kv.take("simulate", _flag, default=False) or force_simulate
    params = _sim_params(dict(seed=seed, packets=packets, warmup=warmup, reps=reps), kv)
    base = _config_from(kv, swept, values[0], schemes[0])
    kv.finish()
    return SweepSpec(swept, tuple(values), base, tuple(schemes), simulate, params)


def _sim_params(flags, kv=None) -> SimParams:
    """Simulation settings: the flag, else the file key, else the default.

    A file key is read and checked even when a flag overrides it.
    """
    def pick(key, default):
        in_file = kv.take(key, int) if kv is not None else None
        if flags[key] is not None:
            return flags[key]
        return default if in_file is None else in_file

    return SimParams(seed=pick("seed", DEFAULT_SEED),
                     packets_per_ue=pick("packets", DEFAULT_PACKETS),
                     warmup_packets_per_ue=pick("warmup", None),
                     replications=pick("reps", DEFAULT_REPS))


# ---------------------------------------------------------------------------
# Result rows.
# ---------------------------------------------------------------------------

RESULT_HEADER = (
    "sweep", "value", "scheme", "p", *CONFIG_HEADER, "aoi", "paoi", "aoi_low",
    "aoi_up", "gap_ratio", "sim_aoi", "sim_aoi_ci", "sim_paoi", "sim_paoi_ci", "status",
)

VALIDATION_HEADER = ("term", "analytic", "simulated", "se", "z", "verdict")

OPTIMIZE_HEADER = (
    *CONFIG_HEADER, "p_closed", "branch", "p_paoi", "paoi_min", "p_aoi", "aoi_min",
    "aoi_gap_ratio", "objective", "p_selected",
)


@dataclass
class ResultRow:
    """One output line: inputs, analytic values, optional simulated values."""

    sweep: str
    value: Optional[float]
    cfg: SystemConfig
    aoi: Optional[float] = None
    paoi: Optional[float] = None
    aoi_low: Optional[float] = None
    aoi_up: Optional[float] = None
    gap_ratio: Optional[float] = None
    sim_aoi: Optional[float] = None
    sim_aoi_ci: Optional[float] = None
    sim_paoi: Optional[float] = None
    sim_paoi_ci: Optional[float] = None
    status: str = "ok"

    def cells(self):
        """The RESULT_HEADER cells."""
        return (
            self.sweep, self.value, self.cfg.scheme.kind, self.cfg.scheme.p,
            *_config_cells(self.cfg), self.aoi, self.paoi, self.aoi_low, self.aoi_up,
            self.gap_ratio, self.sim_aoi, self.sim_aoi_ci, self.sim_paoi, self.sim_paoi_ci,
            self.status,
        )


def _fill_analytic(row: ResultRow) -> Optional[analytic.AoiMetrics]:
    """Populate analytic fields and return the metrics; None (and a flag) if unstable."""
    if not check_stability(row.cfg).stable:
        row.status = "unstable"
        return None
    metrics = analytic.system_metrics(row.cfg)
    row.aoi = metrics.system_aoi
    row.paoi = metrics.system_paoi
    if is_homogeneous(row.cfg):
        bounds = analytic.aoi_bounds(row.cfg)
        row.aoi_low = bounds.lower
        row.aoi_up = bounds.upper
        row.gap_ratio = bounds.gap_ratio
    return metrics


def _evaluate_sweep_row(spec: SweepSpec, value, scheme) -> ResultRow:
    """The row of one (value, scheme) pair, with its analytic cells filled."""
    base = spec.base
    if spec.swept == "p":
        cfg = replace(base, scheme=Scheme.partial(value))
    else:
        n = int(value) if spec.swept == "n_ues" else base.num_ues
        lambda_h = value if spec.swept == "lambda_h" else base.gen_rates[0]
        cfg = replace(base, num_ues=n, gen_rates=(lambda_h,) * n,
                      local_rates=base.local_rates[:1] * n, scheme=scheme)
    row = ResultRow(spec.swept, value, cfg)
    _fill_analytic(row)
    return row


def run_sweep(spec: SweepSpec):
    """Every (value, scheme) row, in input order; a simulating sweep
    simulates the stable ones in one batch, row i at the base seed + i."""
    rows = [_evaluate_sweep_row(spec, value, scheme)
            for value in spec.values for scheme in spec.schemes]
    if not spec.simulate:
        return rows
    from . import simulate

    stable = [(row, replace(spec.params, seed=(spec.params.seed + index) % 2 ** 64))
              for index, row in enumerate(rows) if row.status == "ok"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DivergenceWarning)
        results = simulate.simulate_many([(row.cfg, params) for row, params in stable])
    for (row, _), result in zip(stable, results):
        if result.diagnostics.diverged:
            row.status = "diverged"
            continue
        row.sim_aoi = result.system_aoi.value
        row.sim_aoi_ci = result.system_aoi.ci95
        row.sim_paoi = result.system_paoi.value
        row.sim_paoi_ci = result.system_paoi.ci95
        if result.diagnostics.near_unstable:
            row.status = "near_unstable"
    return rows


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def _describe_config(cfg: SystemConfig) -> str:
    scheme = cfg.scheme.kind
    if scheme == "partial":
        scheme += " p=%s" % _fmt(cfg.scheme.p)
    return ("N=%s  lambda=%s  mu_B=%s  mu_D=%s  mu_local=%s  scheme=%s"
            % (*map(_fmt, _config_cells(cfg)), scheme))


def cmd_analytic(args) -> int:
    cfg = load_config(args.config)
    print("config:", _describe_config(cfg))
    require_stable(cfg)

    row = ResultRow("", None, cfg)
    metrics = _fill_analytic(row)
    print("per-ue aoi: ", "  ".join(_fmt(v) for v in metrics.per_ue_aoi))
    print("per-ue paoi:", "  ".join(_fmt(v) for v in metrics.per_ue_paoi))
    print("system aoi:  %s" % _fmt(row.aoi))
    print("system paoi: %s" % _fmt(row.paoi))
    if is_homogeneous(cfg):
        print("aoi bounds:  %s <= %s <= %s  (gap ratio %s)"
              % (_fmt(row.aoi_low), _fmt(row.aoi), _fmt(row.aoi_up), _fmt(row.gap_ratio)))
        popt = analytic.p_opt_paoi(cfg)
        print("p_opt (peak aoi): %s  branch=%s  stable=%s"
              % (_fmt(popt.p), popt.branch, popt.stable))
        print("  condition: %s" % popt.condition)
    else:
        print("aoi bounds:  n/a (heterogeneous UEs)")

    if args.out:
        _write_table(args.out, RESULT_HEADER, [row.cells()])
    return EXIT_OK


def cmd_sweep(args) -> int:
    spec = load_sweep_spec(args.config, seed=args.seed, packets=args.packets,
                           warmup=args.warmup, reps=args.reps,
                           force_simulate=args.simulate)
    rows = run_sweep(spec)
    _write_table(args.out, RESULT_HEADER, [row.cells() for row in rows])
    flagged = sum(1 for row in rows if row.status != "ok")
    print("sweep: %d rows (%d flagged) -> %s" % (len(rows), flagged, args.out))
    return EXIT_OK


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    params = _sim_params(vars(args))
    print("config:", _describe_config(cfg))
    print("simulation: %d packets/UE, %d replications, seed %d"
          % (params.packets_per_ue, params.replications, params.seed))
    from . import validation

    report = validation.run_validation(cfg, params)

    print("%-14s %14s %14s %12s %8s  %s" % VALIDATION_HEADER)
    for row in report.rows:
        print("%-14s %14s %14s %12s %8.2f  %s"
              % (row.name, _fmt(row.analytic), _fmt(row.estimate), _fmt(row.se),
                 row.z, "pass" if row.ok else "FAIL"))
    n_ok = sum(1 for row in report.rows if row.ok)
    verdict = "PASS" if report.passed else "FAIL"
    print("result: %s (%d/%d terms within %.2f standard errors, the t(%d) "
          "bound at a %g%% family level)"
          % (verdict, n_ok, len(report.rows), report.bound, params.replications - 1,
             100 * validation.FAMILY_LEVEL))

    if args.out:
        _write_table(args.out, VALIDATION_HEADER,
                     [(row.name, row.analytic, row.estimate, row.se, row.z,
                       "pass" if row.ok else "fail") for row in report.rows])
    return EXIT_OK if report.passed else EXIT_VALIDATION


def cmd_optimize(args) -> int:
    from . import optimize

    cfg = load_config(args.config)
    if not is_homogeneous(cfg):
        raise NotHomogeneous("optimization over p assumes homogeneous UEs")
    print("config:", _describe_config(cfg))

    interval = optimize.stable_p_interval(cfg)
    if interval is None:
        raise UnstableConfig("no offloading ratio in [0, 1] stabilizes this config")
    print("stable p interval: [%s, %s]" % (_fmt(interval[0]), _fmt(interval[1])))

    closed = analytic.p_opt_paoi(cfg)
    print("closed-form p_opt (peak aoi): %s  branch=%s  stable=%s"
          % (_fmt(closed.p), closed.branch, closed.stable))
    print("  condition: %s" % closed.condition)

    results = {}
    for objective in ("paoi", "aoi"):
        res = optimize.search_p(cfg, objective=objective, resolution=args.resolution)
        results[objective] = res
        print("search (%s): p=%s  value=%s  method=%s  evaluations=%d"
              % (objective, _fmt(res.best_p), _fmt(res.best_value), res.method,
                 res.evaluations))

    aoi_min = results["aoi"].best_value
    at_paoi_opt = cfg.with_scheme(Scheme.partial(results["paoi"].best_p))
    gap = (analytic.system_metrics(at_paoi_opt).system_aoi - aoi_min) / aoi_min
    print("aoi penalty of the paoi-optimal ratio: %s" % _fmt(gap))

    if args.out:
        _write_table(args.out, OPTIMIZE_HEADER, [(
            *_config_cells(cfg), closed.p, closed.branch,
            results["paoi"].best_p, results["paoi"].best_value,
            results["aoi"].best_p, results["aoi"].best_value,
            gap, args.objective, results[args.objective].best_p)])
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing and entry point.
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aoi-mec",
        description="Average AoI / peak AoI for multi-user MEC offloading: "
                    "closed forms, sweeps, simulation validation, and "
                    "offloading-ratio optimization.")
    sub = parser.add_subparsers(dest="command", required=True)

    def sim_flags(sp):
        sp.add_argument("--seed", type=int, default=None, help="base RNG seed")
        sp.add_argument("--packets", type=int, default=None,
                        help="generated packets per UE per replication")
        sp.add_argument("--warmup", type=int, default=None,
                        help="warm-up packets per UE to discard (default 10%%)")
        sp.add_argument("--reps", type=int, default=None, help="replications")

    def resolution(text):
        from . import optimize  # here, so that `analytic` does not import it
        if not optimize.REFINE_TOL <= float(text) <= 0.5:
            raise argparse.ArgumentTypeError(
                f"must lie in [{optimize.REFINE_TOL:g}, 0.5], got {text}")
        return float(text)

    sp = sub.add_parser("analytic", help="closed-form report for one config")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", default=None, help="also write a machine-readable row")
    sp.set_defaults(func=cmd_analytic)

    sp = sub.add_parser("sweep", help="evaluate a parameter sweep into a data table")
    sp.add_argument("--config", required=True, help="sweep spec file")
    sp.add_argument("--out", required=True, help="output table path")
    sp.add_argument("--simulate", action="store_true",
                    help="add simulated columns regardless of the spec file")
    sim_flags(sp)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("validate", help="simulate one config and compare to the closed forms")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", default=None)
    sim_flags(sp)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("optimize", help="optimal offloading ratio, closed form and search")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", default=None)
    sp.add_argument("--resolution", type=resolution, default=1e-3,
                    help="grid resolution for the p search")
    sp.add_argument("--objective", choices=("aoi", "paoi"), default="paoi",
                    help="objective reported as selected in the output row")
    sp.set_defaults(func=cmd_optimize)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigParseError, NotHomogeneous, InvalidParams) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (UnstableConfig, EmptyStableInterval) as exc:
        print(f"unstable: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE


if __name__ == "__main__":
    sys.exit(main())
