"""Reference values and output checks, computed apart from the program.

Nothing here imports aoi_mec, numpy or scipy: every reference is derived
from the configuration alone, with the standard library.

A configuration is a `Cfg`: N, per-UE generation rates lambda_n, the raw
edge rate mu_B, the transmission rate mu_D, per-UE raw local rates mu_n,
and the scheme with its offloading ratio p. Each check returns a list of
failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import io
import math
import re
from typing import NamedTuple

# Chance that a correct simulator fails one run's confidence-band checks;
# the per-term quantile is Bonferroni-corrected for the terms a run checks.
ALPHA_RUN = 1e-4
# In-process closed forms must match the references to this relative error.
REL_EXACT = 1e-12
# Documented agreement of the simulated system AoI with the closed form.
AOI_SIM_REL = 0.03
# Simulated PAoI on the reference system (N=6, lambda_h=0.2, mu_B=1.5,
# mu_D=1.8, mu_h=0.25) is also held to a relative tolerance, which, unlike
# the t-band, does not widen when replications are few. The sd of its
# relative error falls as 1/sqrt(packets per UE x replications); per scheme,
# this is that sd times the square root, per UE and for the system mean,
# measured over seeds 1000-1009 at 225 000 packets x 3 replications and
# rounded up.
REF_PAOI_NOISE = {"local": (7.0, 2.5), "partial": (1.0, 0.65), "edge": (1.9, 1.8)}
# The tolerance in those sds. The errors are sample means over 10^5 and
# more packets, so close to normal: a correct simulator falls outside 8 sd
# about once in 10^15 terms.
REF_PAOI_SDS = 8.0


class Cfg(NamedTuple):
    n: int
    lam: tuple
    mu_b: float
    mu_d: float
    mu_local: tuple
    kind: str  # "local" | "edge" | "partial"
    p: float

    @classmethod
    def homogeneous(cls, n, lam_h, mu_b, mu_d, mu_h, kind, p=None):
        p = {"local": 0.0, "edge": 1.0}.get(kind, p)
        return cls(n, (lam_h,) * n, mu_b, mu_d, (mu_h,) * n, kind, float(p))

    def config_text(self) -> str:
        """The CLI's `key = value` config format."""
        def cell(values):
            return ", ".join(repr(float(v)) for v in values)
        lines = [f"n_ues = {self.n}", f"lambda = {cell(self.lam)}",
                 f"mu_b = {self.mu_b!r}", f"mu_d = {self.mu_d!r}",
                 f"mu_local = {cell(self.mu_local)}", f"scheme = {self.kind}"]
        if self.kind == "partial":
            lines.append(f"p = {self.p!r}")
        return "\n".join(lines) + "\n"


def stages(cfg: Cfg, n: int):
    """(service rate, arrival rate) of the real stages UE n passes.

    The edge stage is a pass-through at p = 0 and the local stage at
    p = 1; neither delays a packet, so both drop out.
    """
    lam = math.fsum(cfg.lam)
    out = []
    if cfg.p > 0.0:
        out.append((cfg.mu_b / cfg.p, lam))
    out.append((cfg.mu_d, lam))
    if cfg.p < 1.0:
        out.append((cfg.mu_local[n] / (1.0 - cfg.p), cfg.lam[n]))
    return out


def paoi_ref(cfg: Cfg, n: int) -> float:
    """Exact peak AoI of UE n: 1/lambda_n + sum_k 1/(mu_k - lambda_k)."""
    return 1.0 / cfg.lam[n] + math.fsum(1.0 / (mu - arr) for mu, arr in stages(cfg, n))


def system_paoi_ref(cfg: Cfg) -> float:
    return math.fsum(paoi_ref(cfg, n) for n in range(cfg.n)) / cfg.n


def aoi_floor(cfg: Cfg, n: int) -> float:
    """1/lambda_n + sum_k 1/mu_k: the AoI without its E[Y W] terms, which are >= 0."""
    return 1.0 / cfg.lam[n] + math.fsum(1.0 / mu for mu, _ in stages(cfg, n))


def stable(cfg: Cfg) -> bool:
    return all(arr < mu for n in range(cfg.n) for mu, arr in stages(cfg, n))


# ---------------------------------------------------------------------------
# Optimal offloading ratio for the peak AoI (homogeneous UEs).
# ---------------------------------------------------------------------------


def _paoi_slope(p, n, lam_h, mu_b, mu_h):
    """d/dp of the p-dependent peak-AoI terms p/(mu_B - p lam) + (1-p)/(mu_h - (1-p) lam_h)."""
    lam = n * lam_h
    return mu_b / (mu_b - p * lam) ** 2 - mu_h / (mu_h - (1.0 - p) * lam_h) ** 2


def paoi_optimum(n, lam_h, mu_b, mu_h):
    """(branch, p*) minimising the peak AoI over p in [0, 1].

    The p-dependent part is convex, so the sign of its slope at the ends
    picks the branch, and bisection on the slope finds an interior
    optimum. Assumes every p in [0, 1] is stable.
    """
    if _paoi_slope(0.0, n, lam_h, mu_b, mu_h) >= 0.0:
        return "local", 0.0
    if _paoi_slope(1.0, n, lam_h, mu_b, mu_h) <= 0.0:
        return "edge", 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        if _paoi_slope(mid, n, lam_h, mu_b, mu_h) < 0.0:
            lo = mid
        else:
            hi = mid
    return "interior", 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Student-t quantiles (integer degrees of freedom).
# ---------------------------------------------------------------------------


def t_central(t: float, df: int) -> float:
    """P(|T| <= t) for Student's t with integer df (Abramowitz-Stegun 26.7.3/4)."""
    theta = math.atan(t / math.sqrt(df))
    s, c = math.sin(theta), math.cos(theta)
    if df % 2:
        total, term = 0.0, c
        for k in range(1, (df - 1) // 2):
            total += term
            term *= c * c * (2 * k) / (2 * k + 1)
        if df > 1:
            total += term
        return 2.0 / math.pi * (theta + s * total) if df > 1 else 2.0 * theta / math.pi
    total, term = 0.0, 1.0
    for k in range(1, df // 2 + 1):
        total += term
        term *= c * c * (2 * k - 1) / (2 * k)
    return s * total


def t_quantile(prob: float, df: int) -> float:
    """q with P(T <= q) = prob, for 0.5 < prob < 1."""
    target = 2.0 * prob - 1.0
    lo, hi = 0.0, 1.0
    while t_central(hi, df) < target:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if t_central(mid, df) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * hi:
            break
    return 0.5 * (lo + hi)


def band_multiplier(df: int, terms: int, alpha: float = ALPHA_RUN) -> float:
    """Half-width of the band in standard errors, corrected for `terms` checks."""
    return t_quantile(1.0 - alpha / (2.0 * terms), df)


def ref_paoi_tolerance(kind: str, packets: int, reps: int):
    """(per-UE, system) relative tolerance of simulated PAoI on the reference system."""
    root = math.sqrt(packets * reps)
    return tuple(REF_PAOI_SDS * noise / root for noise in REF_PAOI_NOISE[kind])


# ---------------------------------------------------------------------------
# Checks.
# ---------------------------------------------------------------------------


def check_close(name, value, expected, rel=REL_EXACT):
    if abs(value - expected) <= rel * abs(expected):
        return []
    return [f"{name}: {value!r} differs from the reference {expected!r}"]


def half_digit(x: float) -> float:
    """Half a unit in the last place of `%.9g` x (0 for x = 0)."""
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(x))) - 8) if x else 0.0


def check_printed(name, text, expected):
    """A `%.9g` cell agrees with the reference to its 9 printed digits."""
    try:
        value = float(text)
    except ValueError:
        return [f"{name}: {text!r} is not a number"]
    if abs(value - expected) <= half_digit(expected) + REL_EXACT * abs(expected):
        return []
    return [f"{name}: printed {text} against the reference {expected!r}"]


def check_bracket(name, lower, aoi, upper):
    if lower <= aoi <= upper:
        return []
    return [f"{name}: AoI {aoi!r} outside its bounds [{lower!r}, {upper!r}]"]


def check_floor(name, aoi, floor):
    if aoi >= floor * (1.0 - REL_EXACT):
        return []
    return [f"{name}: AoI {aoi!r} below 1/lambda_n + sum 1/mu_k = {floor!r}"]


def check_band(name, estimate, exact, se, multiplier):
    if not se > 0.0:
        return [f"{name}: standard error {se!r} is not positive"]
    z = (estimate - exact) / se
    if abs(z) <= multiplier:
        return []
    return [f"{name}: simulated {estimate!r} is {z:+.2f} SE from {exact!r} "
            f"(band {multiplier:.2f})"]


def check_rel(name, value, expected, rel):
    if abs(value - expected) <= rel * abs(expected):
        return []
    return [f"{name}: {value!r} is {(value - expected) / expected:+.2%} from {expected!r}"]


def check_paoi_search(name, best_p, branch, p_star, tol=1e-5):
    """The peak-AoI search lands on p* (interior) or on the interval end."""
    if abs(best_p - p_star) <= tol:
        return []
    return [f"{name}: search p {best_p!r} is not within {tol} of the {branch} optimum {p_star!r}"]


def check_aoi_search(name, best_value, grid_values):
    """The AoI search value is no higher than the AoI anywhere on a coarse grid."""
    worst = min(grid_values)
    if best_value <= worst * (1.0 + REL_EXACT):
        return []
    return [f"{name}: search value {best_value!r} above the grid minimum {worst!r}"]


def check_metrics(name, cfg: Cfg, per_ue_aoi, per_ue_paoi, system_aoi, system_paoi,
                  printed=False):
    """Per-UE and system PAoI against the reference; every AoI above its floor.

    With printed=True the values are `%.9g` strings from the CLI.
    """
    out = []
    for n in range(cfg.n):
        expected = paoi_ref(cfg, n)
        if printed:
            out += check_printed(f"{name} paoi[{n}]", per_ue_paoi[n], expected)
            aoi = float(per_ue_aoi[n])
        else:
            out += check_close(f"{name} paoi[{n}]", per_ue_paoi[n], expected)
            aoi = per_ue_aoi[n]
        # a %.9g AoI may round below the floor by half a printed digit
        slack = half_digit(aoi) if printed else 0.0
        out += check_floor(f"{name} aoi[{n}]", aoi + slack, aoi_floor(cfg, n))
    expected = system_paoi_ref(cfg)
    if printed:
        out += check_printed(f"{name} system paoi", system_paoi, expected)
    else:
        out += check_close(f"{name} system paoi", system_paoi, expected)
    return out


def homogeneous(cfg: Cfg) -> bool:
    return len(set(cfg.lam)) == 1 and len(set(cfg.mu_local)) == 1


def paoi_optimum_of(cfg: Cfg):
    return paoi_optimum(cfg.n, cfg.lam[0], cfg.mu_b, cfg.mu_local[0])


# ---------------------------------------------------------------------------
# CLI outputs.
# ---------------------------------------------------------------------------


def parse_cli(stdout: str) -> dict:
    """{label: rest of line} for the `label: value` lines the CLI prints."""
    out = {}
    for line in stdout.splitlines():
        label, sep, rest = line.partition(":")
        if sep:
            out[label.strip()] = rest.strip()
    return out


def _branch_line(name, text, cfg):
    """Check a `P  branch=B ...` line against the peak-AoI optimum."""
    match = re.match(r"(\S+)\s+branch=(\w+)", text)
    if not match:
        return [f"{name}: cannot parse {text!r}"]
    branch, p_star = paoi_optimum_of(cfg)
    out = check_printed(name, match.group(1), p_star)
    if match.group(2) != branch:
        out.append(f"{name}: branch {match.group(2)} where the optimum is {branch}")
    return out


def check_analytic_output(cfg: Cfg, stdout: str):
    """`aoi-mec analytic`: PAoI to 9 digits, AoI floor, bracket and p* when homogeneous."""
    fields = parse_cli(stdout)
    try:
        aoi = fields["per-ue aoi"].split()
        paoi = fields["per-ue paoi"].split()
        out = check_metrics("analytic", cfg, aoi, paoi, fields["system aoi"],
                            fields["system paoi"], printed=True)
        if not homogeneous(cfg):
            return out
        bounds = re.match(r"(\S+) <= (\S+) <= (\S+)", fields["aoi bounds"])
        lower, system_aoi, upper = bounds.groups()
        out += check_bracket("analytic bounds", float(lower), float(system_aoi), float(upper))
        out += check_printed("analytic upper bound", upper, system_paoi_ref(cfg))
        return out + _branch_line("analytic p_opt", fields["p_opt (peak aoi)"], cfg)
    except (KeyError, IndexError, AttributeError, ValueError) as exc:
        return [f"analytic output does not parse ({exc!r})"]


def check_optimize_output(cfg: Cfg, stdout: str, aoi_grid):
    """`aoi-mec optimize`: interval, closed-form p*, both searches.

    aoi_grid holds the system AoI on a coarse p-grid, evaluated by the caller.
    """
    fields = parse_cli(stdout)
    lam_h, mu_h = cfg.lam[0], cfg.mu_local[0]
    try:
        lo, hi = re.match(r"\[(\S+), (\S+)\]", fields["stable p interval"]).groups()
        out = check_printed("optimize interval start", lo, max(0.0, 1.0 - mu_h / lam_h))
        out += check_printed("optimize interval end", hi, min(1.0, cfg.mu_b / (cfg.n * lam_h)))
        out += _branch_line("optimize closed form", fields["closed-form p_opt (peak aoi)"], cfg)
        branch, p_star = paoi_optimum_of(cfg)
        p, value = re.match(r"p=(\S+)\s+value=(\S+)", fields["search (paoi)"]).groups()
        out += check_paoi_search("optimize paoi search", float(p), branch, p_star)
        out += check_printed("optimize paoi value", value,
                             system_paoi_ref(cfg._replace(kind="partial", p=float(p))))
        _, value = re.match(r"p=(\S+)\s+value=(\S+)", fields["search (aoi)"]).groups()
        return out + check_aoi_search("optimize aoi search",
                                      float(value) - half_digit(float(value)), aoi_grid)
    except (KeyError, AttributeError, ValueError) as exc:
        return [f"optimize output does not parse ({exc!r})"]


SWEEP_SCHEMES = (("local", 0.0), ("edge", 1.0), ("partial", 0.5))


def check_sweep_csv(text: str, values, n, mu_b, mu_d, mu_h, reps):
    """One problem list per expected row of a simulated lambda_h sweep."""
    rows = list(csv.DictReader(io.StringIO(text)))
    expected = [(v, kind, p) for v in values for kind, p in SWEEP_SCHEMES]
    if len(rows) != len(expected):
        return [[f"sweep wrote {len(rows)} rows, expected {len(expected)}"]] * len(expected)
    # se = ci95 / t(0.975, reps - 1); band corrected for one term per row
    t975 = t_quantile(0.975, reps - 1)
    multiplier = band_multiplier(reps - 1, len(rows))
    out = []
    for i, (row, (lam_h, kind, p)) in enumerate(zip(rows, expected)):
        cfg = Cfg.homogeneous(n, lam_h, mu_b, mu_d, mu_h, kind, p)
        name = f"sweep row {i}"
        try:
            problems = [] if row["status"] == "ok" else [f"{name}: status {row['status']}"]
            if row["scheme"] != kind:
                problems.append(f"{name}: scheme {row['scheme']}, expected {kind}")
            problems += check_printed(f"{name} paoi", row["paoi"], system_paoi_ref(cfg))
            problems += check_printed(f"{name} aoi_up", row["aoi_up"], system_paoi_ref(cfg))
            aoi = float(row["aoi"])
            problems += check_bracket(name, float(row["aoi_low"]), aoi, float(row["aoi_up"]))
            problems += check_floor(name, aoi + half_digit(aoi), aoi_floor(cfg, 0))
            problems += check_band(f"{name} sim_paoi", float(row["sim_paoi"]),
                                   system_paoi_ref(cfg), float(row["sim_paoi_ci"]) / t975,
                                   multiplier)
        except (KeyError, ValueError) as exc:
            problems = [f"{name}: does not parse ({exc!r})"]
        out.append(problems)
    return out
