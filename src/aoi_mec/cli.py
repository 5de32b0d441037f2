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
are byte-identical.  AOI_MEC_THREADS caps sweep parallelism.
"""

import argparse
import math
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
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
    # The simulator, the optimizer and the validation report load numpy,
    # so the commands that need them import them on first use
    # and the closed-form commands never do. These two names stay
    # attributes of the CLI module, served from their home modules.
    if name == "simulate_mec":
        from . import simulate
        return simulate.simulate_mec
    if name == "run_validation":
        from . import validation
        return validation.run_validation
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


# ---------------------------------------------------------------------------
# Key-value config files.
# ---------------------------------------------------------------------------


class _KeyValues:
    """Parsed `key = value` file with line numbers kept for diagnostics."""

    def __init__(self, path):
        self.path = path
        self.entries = {}  # key -> (raw value, line number)
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
            value = value.strip()
            if not key:
                self.error(lineno, "empty key")
            if key in self.entries:
                first = self.entries[key][1]
                self.error(lineno, f"duplicate key {key!r} (first set on line {first})")
            self.entries[key] = (value, lineno)

    def error(self, lineno, message):
        where = self.path if lineno is None else f"{self.path}:{lineno}"
        raise ConfigParseError(f"{where}: {message}")

    def take(self, key, required=False):
        """Remove and return (value, lineno), or (None, None) if absent."""
        if key not in self.entries:
            if required:
                self.error(None, f"missing required key {key!r}")
            return None, None
        return self.entries.pop(key)

    def take_float(self, key, required=False, default=None):
        value, lineno = self.take(key, required)
        if value is None:
            return default
        try:
            return float(value)
        except ValueError:
            self.error(lineno, f"{key} must be a number, got {value!r}")

    def take_int(self, key, required=False, default=None):
        value, lineno = self.take(key, required)
        if value is None:
            return default
        try:
            return int(value)
        except ValueError:
            self.error(lineno, f"{key} must be an integer, got {value!r}")

    def take_float_list(self, key, required=False):
        """Scalar or comma-separated list -> list of floats (None if absent)."""
        value, lineno = self.take(key, required)
        if value is None:
            return None, None
        parts = [part.strip() for part in value.split(",")]
        try:
            return [float(part) for part in parts], lineno
        except ValueError:
            self.error(lineno, f"{key} must be a number or comma-separated list, got {value!r}")

    def take_bool(self, key, default=False):
        value, lineno = self.take(key)
        if value is None:
            return default
        lowered = value.lower()
        if lowered in ("true", "yes", "1", "on"):
            return True
        if lowered in ("false", "no", "0", "off"):
            return False
        self.error(lineno, f"{key} must be true or false, got {value!r}")

    def finish(self):
        """Reject unknown keys so typos never pass silently."""
        if self.entries:
            key, (_, lineno) = next(iter(self.entries.items()))
            self.error(lineno, f"unknown key {key!r}")


def _parse_scheme_token(token, kv, lineno):
    """'local' | 'edge' | 'partial:P' -> Scheme."""
    token = token.strip().lower()
    if token == "local":
        return Scheme.local()
    if token == "edge":
        return Scheme.edge()
    if token.startswith("partial:"):
        text = token.split(":", 1)[1]
        try:
            p = float(text)
        except ValueError:
            kv.error(lineno, f"bad offloading ratio in scheme {token!r}")
        try:
            return Scheme.partial(p)
        except ValueError as exc:
            kv.error(lineno, str(exc))
    kv.error(lineno, f"unknown scheme {token!r} (expected local, edge, or partial:P)")


def _per_ue(kv, key, values, lineno, n_ues):
    """Broadcast a scalar to n_ues entries; check list lengths."""
    if len(values) == 1:
        return tuple(values) * n_ues
    if len(values) != n_ues:
        kv.error(lineno, f"{key} has {len(values)} entries for n_ues = {n_ues}")
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
    n_ues = int(first) if swept == "n_ues" else kv.take_int("n_ues", required=True)
    lambdas, lam_line = (([first], None) if swept == "lambda_h"
                         else kv.take_float_list("lambda", required=True))
    mu_b = kv.take_float("mu_b", required=True)
    mu_d = kv.take_float("mu_d", required=True)
    mu_local, mul_line = kv.take_float_list("mu_local", required=True)
    if scheme is None:
        scheme = _scheme_from(kv)
    if swept in ("lambda_h", "n_ues"):
        # These axes rescale homogeneous systems, so scalars only.
        for key, values, lineno in (("mu_local", mu_local, mul_line),
                                    ("lambda", lambdas, lam_line)):
            if len(values) != 1:
                kv.error(lineno, f"sweeping {swept} needs a scalar {key} (homogeneous UEs)")

    if n_ues < 1:
        kv.error(None, f"n_ues must be >= 1, got {n_ues}")
    gen = _per_ue(kv, "lambda", lambdas, lam_line, n_ues)
    loc = _per_ue(kv, "mu_local", mu_local, mul_line, n_ues)
    try:
        return SystemConfig(n_ues, gen, mu_b, mu_d, loc, scheme)
    except ValueError as exc:
        kv.error(None, str(exc))


def _scheme_from(kv: _KeyValues) -> Scheme:
    """The scheme key, plus p for the partial scheme."""
    scheme_text, scheme_line = kv.take("scheme", required=True)
    p_text, p_line = kv.take("p")
    scheme_text = scheme_text.lower()
    if scheme_text == "partial":
        if p_text is None:
            kv.error(scheme_line, "scheme = partial requires a 'p' key")
        try:
            p = float(p_text)
        except ValueError:
            kv.error(p_line, f"p must be a number, got {p_text!r}")
        try:
            return Scheme.partial(p)
        except ValueError as exc:
            kv.error(p_line, str(exc))
    if scheme_text in ("local", "edge"):
        if p_text is not None:
            kv.error(p_line, f"'p' only applies to scheme = partial (scheme is {scheme_text})")
        return Scheme.local() if scheme_text == "local" else Scheme.edge()
    kv.error(scheme_line, f"unknown scheme {scheme_text!r} (expected local, edge, or partial)")


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

    swept, swept_line = kv.take("sweep", required=True)
    swept = swept.lower()
    if swept == "n":
        swept = "n_ues"
    if swept not in SWEPT_PARAMETERS:
        kv.error(swept_line, f"sweep must be one of {', '.join(SWEPT_PARAMETERS)}, got {swept!r}")

    values, values_line = kv.take_float_list("values", required=True)
    if not values:
        kv.error(values_line, "values must be a nonempty list")
    for prev, cur in zip(values, values[1:]):
        if not cur > prev:
            kv.error(values_line, f"values must be strictly increasing ({prev:g} then {cur:g})")

    schemes_text, schemes_line = kv.take("schemes")
    if swept == "p":
        if schemes_text is not None and schemes_text.strip().lower() != "partial":
            kv.error(schemes_line, "a p sweep varies the partial scheme; drop the schemes key")
        for v in values:
            if not 0.0 <= v <= 1.0:
                kv.error(values_line, f"offloading ratios must lie in [0, 1], got {v:g}")
        schemes = (Scheme.partial(values[0]),)
    else:
        if schemes_text is None:
            kv.error(None, "missing required key 'schemes'")
        schemes = tuple(_parse_scheme_token(tok, kv, schemes_line)
                        for tok in schemes_text.split(","))

    if swept == "n_ues":
        for v in values:
            if v != int(v) or v < 1:
                kv.error(values_line, f"n_ues values must be positive integers, got {v:g}")
    if swept == "lambda_h":
        for v in values:
            if not v > 0.0:
                kv.error(values_line, f"lambda_h values must be positive, got {v:g}")

    simulate = kv.take_bool("simulate", default=False) or force_simulate
    params = _sim_params(dict(seed=seed, packets=packets, warmup=warmup, reps=reps), kv)
    base = _config_from(kv, swept, values[0], schemes[0])
    kv.finish()
    return SweepSpec(swept, tuple(values), base, schemes, simulate, params)


def _sim_params(flags, kv=None) -> SimParams:
    """Simulation settings: the flag, else the file key, else the default.

    A file key is read and checked even when a flag overrides it.
    """
    def pick(key, default):
        in_file = kv.take_int(key) if kv is not None else None
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
    "sweep", "value", "scheme", "p", "n_ues", "lambda", "mu_b", "mu_d",
    "mu_local", "aoi", "paoi", "aoi_low", "aoi_up", "gap_ratio",
    "sim_aoi", "sim_aoi_ci", "sim_paoi", "sim_paoi_ci", "status",
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
        cfg = self.cfg
        return (
            self.sweep, _fmt(self.value), cfg.scheme.kind, _fmt(cfg.scheme.p),
            str(cfg.num_ues), _rates_cell(cfg.gen_rates), _fmt(cfg.edge_rate),
            _fmt(cfg.tx_rate), _rates_cell(cfg.local_rates),
            _fmt(self.aoi), _fmt(self.paoi), _fmt(self.aoi_low),
            _fmt(self.aoi_up), _fmt(self.gap_ratio),
            _fmt(self.sim_aoi), _fmt(self.sim_aoi_ci),
            _fmt(self.sim_paoi), _fmt(self.sim_paoi_ci), self.status,
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


def _fill_simulated(row: ResultRow, params: SimParams):
    from . import simulate  # loaded by run_sweep before its threads start

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DivergenceWarning)
        result = simulate.simulate_mec(row.cfg, params)
    if result.diagnostics.diverged:
        row.status = "diverged"
        return
    row.sim_aoi = result.system_aoi.value
    row.sim_aoi_ci = result.system_aoi.ci95
    row.sim_paoi = result.system_paoi.value
    row.sim_paoi_ci = result.system_paoi.ci95
    if result.diagnostics.near_unstable:
        row.status = "near_unstable"


def _sweep_row_config(spec: SweepSpec, value, scheme) -> SystemConfig:
    base = spec.base
    if spec.swept == "p":
        return replace(base, scheme=Scheme.partial(value))
    n = int(value) if spec.swept == "n_ues" else base.num_ues
    lambda_h = value if spec.swept == "lambda_h" else base.gen_rates[0]
    return replace(base, num_ues=n, gen_rates=(lambda_h,) * n,
                   local_rates=base.local_rates[:1] * n, scheme=scheme)


def _evaluate_sweep_row(spec: SweepSpec, index, value, scheme) -> ResultRow:
    row = ResultRow(spec.swept, value, _sweep_row_config(spec, value, scheme))
    if _fill_analytic(row) is not None and spec.simulate:
        # Distinct seeds per row; row order fixes them, so parallel
        # execution cannot change the output.
        params = replace(spec.params, seed=(spec.params.seed + index) % 2 ** 64)
        _fill_simulated(row, params)
    return row


def _max_workers(n_rows) -> int:
    raw = os.environ.get("AOI_MEC_THREADS")
    if raw is not None:
        try:
            cap = int(raw)
        except ValueError:
            cap = 0
        if cap < 1:
            raise ConfigParseError(
                f"AOI_MEC_THREADS must be a positive integer, got {raw!r}")
    else:
        cap = os.cpu_count() or 1
    return max(1, min(cap, n_rows))


def run_sweep(spec: SweepSpec):
    """Evaluate every (value, scheme) row; rows come back in input order."""
    tasks = [(index, value, scheme)
             for index, (value, scheme) in enumerate(
                 (v, s) for v in spec.values for s in spec.schemes)]
    workers = _max_workers(len(tasks))
    if spec.simulate:
        from . import simulate  # noqa: F401  (import once, not on a row thread)
    if workers == 1:
        return [_evaluate_sweep_row(spec, *task) for task in tasks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda task: _evaluate_sweep_row(spec, *task), tasks))


def _write_rows(path, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(RESULT_HEADER) + "\n")
        for row in rows:
            fh.write(",".join(row.cells()) + "\n")


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def _describe_config(cfg: SystemConfig) -> str:
    scheme = cfg.scheme.kind
    if cfg.scheme.kind == "partial":
        scheme += " p=%s" % _fmt(cfg.scheme.p)
    return ("N=%d  lambda=%s  mu_B=%s  mu_D=%s  mu_local=%s  scheme=%s"
            % (cfg.num_ues, _rates_cell(cfg.gen_rates), _fmt(cfg.edge_rate),
               _fmt(cfg.tx_rate), _rates_cell(cfg.local_rates), scheme))


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
        _write_rows(args.out, [row])
    return EXIT_OK


def cmd_sweep(args) -> int:
    spec = load_sweep_spec(args.config, seed=args.seed, packets=args.packets,
                           warmup=args.warmup, reps=args.reps,
                           force_simulate=args.simulate)
    rows = run_sweep(spec)
    _write_rows(args.out, rows)
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

    print("%-14s %14s %14s %12s %8s  %s"
          % ("term", "analytic", "simulated", "se", "z", "verdict"))
    for row in report.rows:
        print("%-14s %14s %14s %12s %8.2f  %s"
              % (row.name, _fmt(row.analytic), _fmt(row.estimate), _fmt(row.se),
                 row.z, "pass" if row.ok else "FAIL"))
    n_ok = sum(1 for row in report.rows if row.ok)
    verdict = "PASS" if report.passed else "FAIL"
    print("result: %s (%d/%d terms within 3 standard errors)"
          % (verdict, n_ok, len(report.rows)))

    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("term,analytic,simulated,se,z,verdict\n")
            for row in report.rows:
                fh.write(",".join((row.name, _fmt(row.analytic), _fmt(row.estimate),
                                   _fmt(row.se), _fmt(row.z),
                                   "pass" if row.ok else "fail")) + "\n")
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
        selected = results[args.objective]
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("n_ues,lambda,mu_b,mu_d,mu_local,p_closed,branch,"
                     "p_paoi,paoi_min,p_aoi,aoi_min,aoi_gap_ratio,objective,p_selected\n")
            fh.write(",".join((
                str(cfg.num_ues), _rates_cell(cfg.gen_rates), _fmt(cfg.edge_rate),
                _fmt(cfg.tx_rate), _rates_cell(cfg.local_rates),
                _fmt(closed.p), closed.branch,
                _fmt(results["paoi"].best_p), _fmt(results["paoi"].best_value),
                _fmt(results["aoi"].best_p), _fmt(results["aoi"].best_value),
                _fmt(gap), args.objective, _fmt(selected.best_p))) + "\n")
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
    sp.add_argument("--resolution", type=float, default=1e-3,
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
