"""One workload in one fresh interpreter.

    python perfbench/worker.py --workload NAME --seed N --seconds S --workdir DIR
        [--trace 1] [--probe sim,closed,search]

run.py starts this with PYTHONPATH pointing at the checkout's `src`. The
package is imported first, before anything else, so its import time is
measured alone. The workload then runs whole rounds of its operations
until --seconds have passed (at least one round), checks every output,
and prints one JSON object as its last line of standard output. --probe
then measures the component rates the workload does not measure itself
(its peak memory is read before).

With --trace 1, untraced and traced rounds alternate; the spans of the
traced rounds give the per-layer metrics, and the difference of the two
median round times is the tracing overhead. A layer the workload does
not reach is measured on a small fixed layer probe instead, so every
per-layer metric is a measurement.
"""

import sys
import time

_T0 = time.perf_counter()
import aoi_mec  # noqa: E402  (first, so that only its own cost is timed)

IMPORT_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

from aoi_mec import analytic, optimize, simulate  # noqa: E402

import calib  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
from checks import Cfg  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CLI_TIMEOUT_S = 150
AOI_GRID = [i / 20 for i in range(21)]


def system_config(cfg: Cfg):
    if cfg.kind == "local":
        scheme = aoi_mec.Scheme.local()
    elif cfg.kind == "edge":
        scheme = aoi_mec.Scheme.edge()
    else:
        scheme = aoi_mec.Scheme.partial(cfg.p)
    return aoi_mec.SystemConfig(cfg.n, cfg.lam, cfg.mu_b, cfg.mu_d, cfg.mu_local, scheme)


def at_ratio(cfg: Cfg, p: float) -> Cfg:
    return cfg._replace(kind="local" if p == 0.0 else "edge" if p == 1.0 else "partial", p=p)


def aoi_on_grid(cfg: Cfg):
    """System AoI from the program at p = 0, 0.05, ..., 1 (all stable here)."""
    return [analytic.system_metrics(system_config(at_ratio(cfg, p))).system_aoi
            for p in AOI_GRID]


class Ledger:
    """Counts, times and checks operations; hashes their outputs."""

    def __init__(self, workdir: Path, tracer=None):
        self.workdir = workdir
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digest = hashlib.sha256()
        self.calibrator = calib.Calibrator()
        self.spans = []  # (start, end) of every operation that returned

    def fail(self, kind, message):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{kind}: {message}")

    def count(self, kind, problems):
        """An operation checked as part of another one's output."""
        self.attempted += 1
        if problems:
            self.fail(kind, "; ".join(problems[:3]))

    def op(self, kind, call, check):
        """Time `call`, then check its result. check(result) -> (problems, text).

        Returns (result, its (start, end)), or (None, None) if it raised.
        """
        self.attempted += 1
        traced = self.tracer is not None and self.tracer.enabled

        def traced_call():
            with (self.tracer.span(f"op.{kind}", root=True) if traced else nullcontext()):
                return call()
        try:
            result, span = self.calibrator.timed(traced_call)
        except Exception as exc:  # an operation that raises counts as failed
            self.fail(kind, f"raised {exc!r}")
            return None, None
        self.spans.append(span)
        with (self.tracer.paused() if self.tracer is not None else nullcontext()):
            problems, text = check(result)
        self.digest.update(text.encode())
        if problems:
            self.fail(kind, "; ".join(problems[:3]))
        return result, span

    def seconds(self, spans):
        """Reference seconds (calib.py) spent in the given operations."""
        return math.fsum(self.calibrator.reference(s) for s in spans if s is not None)

    def wall(self, spans):
        return math.fsum(t1 - t0 for t0, t1 in spans)

    def cli(self, args, traced):
        """Run one cold CLI command; raises on a non-zero exit."""
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        if traced:
            spans_file = self.workdir / f"spans-{os.getpid()}.json.gz"
            cmd = [sys.executable, str(HERE / "launcher.py"), str(spans_file), "--", *args]
        else:
            cmd = [sys.executable, "-m", "aoi_mec.cli", *args]
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        if traced:
            self.tracer.load(tracing.read_spans(spans_file))
            spans_file.unlink()
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return proc.stdout


def metrics_text(m):
    return repr((m.per_ue_aoi, m.per_ue_paoi, m.system_aoi, m.system_paoi))


# ---------------------------------------------------------------------------
# Workloads. Each round() runs the same operations every time.
# ---------------------------------------------------------------------------


class CliCold:
    name = "cli-cold"

    def __init__(self, seed, small, ledger):
        self.ledger = ledger
        self.commands = inputs.cli_cold(seed, small)
        self.paths = {}
        for command, label, cfg in self.commands:
            path = ledger.workdir / f"cli-cold-{label}.cfg"
            path.write_text(cfg.config_text())
            self.paths[label] = path
        # the AoI search check needs the AoI on a grid; the program's own
        # closed form gives it, evaluated once outside the timed rounds
        self.grids = {label: aoi_on_grid(cfg) for command, label, cfg in self.commands
                      if command == "optimize"}
        self.analytic = []  # spans of the analytic commands

    def round(self, traced):
        for command, label, cfg in self.commands:
            def check(stdout, command=command, label=label, cfg=cfg):
                if command == "analytic":
                    return checks.check_analytic_output(cfg, stdout), stdout
                return checks.check_optimize_output(cfg, stdout, self.grids[label]), stdout
            _, span = self.ledger.op(
                f"cli.{command}",
                lambda command=command, label=label: self.ledger.cli(
                    [command, "--config", str(self.paths[label])], traced),
                check)
            if command == "analytic":
                self.analytic.append(span)

    def metrics(self):
        return {"cold_analytic_s": statistics.median(self.ledger.seconds([s])
                                                     for s in self.analytic if s)}


def check_simulation(name, cfg: Cfg, result, packets, reps, terms):
    """A simulation of the reference system: per-UE and system PAoI in the
    t-band and within the relative tolerance of the exact PAoI; system AoI
    within 3 % of the closed form."""
    if cfg != inputs.reference(cfg.kind):
        raise ValueError(f"{name}: the PAoI tolerance holds for the reference system only")
    multiplier = checks.band_multiplier(reps - 1, terms)
    ue_rel, system_rel = checks.ref_paoi_tolerance(cfg.kind, packets, reps)
    problems = []
    for n, est in enumerate(result.per_ue_paoi):
        exact = checks.paoi_ref(cfg, n)
        problems += checks.check_band(f"{name} paoi[{n}]", est.value, exact, est.se, multiplier)
        problems += checks.check_rel(f"{name} paoi[{n}]", est.value, exact, ue_rel)
    exact = checks.system_paoi_ref(cfg)
    problems += checks.check_band(f"{name} system paoi", result.system_paoi.value, exact,
                                  result.system_paoi.se, multiplier)
    problems += checks.check_rel(f"{name} system paoi", result.system_paoi.value, exact,
                                 system_rel)
    closed = analytic.system_metrics(system_config(cfg)).system_aoi
    problems += checks.check_rel(f"{name} system aoi", result.system_aoi.value, closed,
                                 checks.AOI_SIM_REL)
    if result.diagnostics.diverged:
        problems.append(f"{name}: the run diverged")
    return problems


def sim_text(result):
    corr = result.correlations
    return repr((result.per_ue_aoi, result.per_ue_paoi, result.system_aoi, result.system_paoi,
                 None if corr is None else (corr.yw_edge, corr.yw_tx, corr.yw_local)))


class SimulateLong:
    name = "simulate-long"

    def __init__(self, seed, small, ledger):
        self.ledger = ledger
        self.calls, self.sim_seed = inputs.simulate_long(seed, small)
        self.terms = sum(cfg.n + 1 for _, cfg, _, _, _ in self.calls)
        self.packets = 0
        self.spans = []

    def round(self, traced):
        with_corr = {}
        for label, cfg, packets, reps, corr in self.calls:
            params = simulate.SimParams(seed=self.sim_seed, packets_per_ue=packets,
                                        replications=reps, record_correlations=corr)

            def check(result, label=label, cfg=cfg, packets=packets, reps=reps):
                problems = check_simulation(f"simulate {label}", cfg, result, packets, reps,
                                            self.terms)
                # record_correlations only adds estimates: same seed, same path
                twin = with_corr.get(cfg)
                if twin is not None and (twin.per_ue_aoi, twin.per_ue_paoi) != (
                        result.per_ue_aoi, result.per_ue_paoi):
                    problems.append(f"simulate {label}: estimates change with "
                                    "record_correlations")
                return problems, sim_text(result)

            result, span = self.ledger.op(
                "simulate", lambda cfg=cfg, params=params: simulate.simulate_mec(
                    system_config(cfg), params), check)
            if corr and result is not None:
                with_corr[cfg] = result
            self.packets += cfg.n * packets * reps
            self.spans.append(span)

    def metrics(self):
        return {"sim_packets_per_s": self.packets / self.ledger.seconds(self.spans)}


class ClosedForms:
    """system_metrics and search_p operations, with their rates."""

    def __init__(self, ledger):
        self.ledger = ledger
        self.ues = 0
        self.metrics_spans = []
        self.search_spans = []
        self.grids = {}

    def system_metrics(self, cfg):
        def check(m):
            return (checks.check_metrics("system_metrics", cfg, m.per_ue_aoi, m.per_ue_paoi,
                                         m.system_aoi, m.system_paoi), metrics_text(m))
        result, span = self.ledger.op(
            "system_metrics", lambda: analytic.system_metrics(system_config(cfg)), check)
        self.ues += cfg.n
        self.metrics_spans.append(span)
        return result

    def search(self, branch, cfg, objective):
        p_star = checks.paoi_optimum_of(cfg)[1]
        if objective == "aoi" and cfg not in self.grids:
            self.grids[cfg] = aoi_on_grid(cfg)

        def check(res):
            name = f"search_p {objective} {branch}"
            if objective == "paoi":
                problems = checks.check_paoi_search(name, res.best_p, branch, p_star)
                problems += checks.check_close(
                    name, res.best_value, checks.system_paoi_ref(at_ratio(cfg, res.best_p)))
            else:
                problems = checks.check_aoi_search(name, res.best_value, self.grids[cfg])
            return problems, repr(res)

        _, span = self.ledger.op(
            "search_p", lambda: optimize.search_p(system_config(cfg), objective=objective), check)
        self.search_spans.append(span)

    def metrics(self):
        out = {}
        if self.ues:
            out["closed_form_ue_per_s"] = self.ues / self.ledger.seconds(self.metrics_spans)
        if self.search_spans:
            out["search_s"] = statistics.median(self.ledger.seconds([s])
                                                for s in self.search_spans if s)
        return out


class ClosedFormScale(ClosedForms):
    name = "closed-form-scale"

    def __init__(self, seed, small, ledger):
        super().__init__(ledger)
        self.hetero, self.homog, self.searches = inputs.closed_form_scale(seed, small)
        for _, cfg in self.searches:
            self.grids[cfg] = aoi_on_grid(cfg)

    def round(self, traced):
        for cfg in self.hetero:
            self.system_metrics(cfg)
        for cfg in self.homog:
            m = self.system_metrics(cfg)

            def check(b, cfg=cfg, m=m):
                problems = checks.check_close("aoi_bounds upper", b.upper,
                                              checks.system_paoi_ref(cfg))
                if m is not None:
                    problems += checks.check_bracket("aoi_bounds", b.lower, m.system_aoi, b.upper)
                return problems, repr(b)
            self.ledger.op("aoi_bounds", lambda cfg=cfg: analytic.aoi_bounds(system_config(cfg)),
                           check)
        for branch, cfg in self.searches:
            for objective in ("paoi", "aoi"):
                self.search(branch, cfg, objective)


class SweepSim:
    name = "sweep-sim"

    def __init__(self, seed, small, ledger):
        self.ledger = ledger
        text, self.values, self.packets_per_ue, self.reps = inputs.sweep_sim(seed, small)
        self.spec = ledger.workdir / f"sweep-{os.getpid()}.cfg"
        self.spec.write_text(text)
        self.csv = ledger.workdir / f"sweep-{os.getpid()}.csv"
        self.packets = 0
        self.spans = []

    def round(self, traced):
        row_problems = []

        def check(stdout):
            text = self.csv.read_text()
            row_problems[:] = checks.check_sweep_csv(text, self.values, 4, inputs.MU_B,
                                                     inputs.MU_D, 0.25, self.reps)
            return [], text

        stdout, span = self.ledger.op(
            "cli.sweep", lambda: self.ledger.cli(
                ["sweep", "--simulate", "--config", str(self.spec), "--out", str(self.csv)],
                traced), check)
        # each row is an operation of its own
        expected_rows = 3 * len(self.values)
        for problems in (row_problems or [["sweep wrote no table"]] * expected_rows):
            self.ledger.count("sweep_row", problems)
        if stdout is not None:
            self.packets += expected_rows * 4 * self.packets_per_ue * self.reps
            self.spans.append(span)

    def metrics(self):
        return {"sim_packets_per_s": self.packets / self.ledger.seconds(self.spans)}


WORKLOADS = {w.name: w for w in (CliCold, SimulateLong, ClosedFormScale, SweepSim)}


# ---------------------------------------------------------------------------
# Component probe: the component rates a workload does not measure itself,
# so that every workload reports every end-to-end metric.
# ---------------------------------------------------------------------------


# Sizes of the component probe, chosen so that each rate it gives spreads
# by about a tenth or less across seeds on the reference host.
SIM_PROBE_CALLS = 4
CLOSED_PROBE_PASSES = 8
SEARCH_PROBE_PASSES = 2


def probe(parts, seed, ledger, small=False):
    out = {}
    if "sim" in parts:
        cfg = inputs.reference("partial")
        packets, reps = (30_000, 4) if small else (50_000, 4)
        spans = []
        for offset in range(SIM_PROBE_CALLS):
            params = simulate.SimParams(seed=inputs.sim_seed(seed, offset),
                                        packets_per_ue=packets, replications=reps)
            spans.append(ledger.op(
                "simulate", lambda: simulate.simulate_mec(system_config(cfg), params),
                lambda r: (check_simulation("probe simulate", cfg, r, packets, reps,
                                            SIM_PROBE_CALLS * (cfg.n + 1)), sim_text(r)))[1])
        packets_total = SIM_PROBE_CALLS * cfg.n * packets * reps
        out["sim_packets_per_s"] = packets_total / ledger.seconds(spans)
    closed = ClosedForms(ledger)
    if "closed" in parts:
        for _ in range(CLOSED_PROBE_PASSES):
            for cfg in inputs.closed_form_probe(seed, small):
                closed.system_metrics(cfg)
    if "search" in parts:
        for _ in range(SEARCH_PROBE_PASSES):
            for branch, cfg in inputs.search_configs(inputs.rng(seed, 6)):
                for objective in ("paoi", "aoi"):
                    closed.search(branch, cfg, objective)
    out.update(closed.metrics())
    return out


# The probe part that measures each layer a workload may not reach.
PROBE_FOR = {"model": "closed", "analytic": "closed", "optimize": "search",
             "simulate": "sim", "simulate.corr": "sim", "cli.command": "cli", "cli.sweep": "cli"}


def layer_probe(part, seed, ledger):
    """Reach the layers of one probe part once, traced."""
    if part in ("closed", "search"):
        probe({part}, seed, ledger, small=part == "closed")
    elif part == "sim":
        cfg = inputs.reference("partial")
        for corr in (True, False):
            params = simulate.SimParams(seed=inputs.sim_seed(seed), packets_per_ue=20_000,
                                        replications=2, record_correlations=corr)
            ledger.op("simulate", lambda: simulate.simulate_mec(system_config(cfg), params),
                      lambda r: ([], sim_text(r)))
    else:
        SweepSim(seed, True, ledger).round(traced=True)


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def peak_rss_mb():
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_workload(args, ledger):
    workload = WORKLOADS[args.workload](args.seed, args.small, ledger)
    deadline = time.perf_counter() + args.seconds
    rounds = []  # the spans of each round's operations
    while True:
        before = len(ledger.spans)
        workload.round(traced=False)
        rounds.append(ledger.spans[before:])
        if time.perf_counter() >= deadline:
            break
    metrics = {"run_s": statistics.median(ledger.seconds(r) for r in rounds)}
    metrics.update(workload.metrics())
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics, len(rounds)


def run_traced(args, ledger):
    tracer = tracing.Tracer()
    missing = tracer.install()
    ledger.tracer = tracer
    workload = WORKLOADS[args.workload](args.seed, args.small, ledger)
    deadline = time.perf_counter() + args.seconds
    plain, traced = [], []
    while not (plain and traced and time.perf_counter() >= deadline):
        for enabled, times in ((False, plain), (True, traced)):
            tracer.enabled = enabled
            before = len(ledger.spans)
            workload.round(traced=enabled)
            times.append(ledger.wall(ledger.spans[before:]))
    spans = list(tracer.spans)
    metrics, reached = tracing.layer_metrics(spans, len(traced))
    sources = {layer: "workload" for layer in reached}
    for part in sorted({PROBE_FOR[layer] for layer in tracing.LAYER_OF if layer not in reached}):
        tracer.spans.clear()
        layer_probe(part, args.seed, ledger)
        spans += tracer.spans
        probed, _ = tracing.layer_metrics(tracer.spans, 1)
        for layer in tracing.LAYER_OF:
            if PROBE_FOR[layer] == part and layer not in reached:
                sources[layer] = f"layer probe ({part})"
                for name in tracing.LAYER_OF[layer]:
                    metrics[name] = probed.get(name, 0)
    tracer.enabled = False
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    spans_file = ledger.workdir / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
    tracing.write_spans(spans, spans_file)
    notes = {"sources": sources, "not_wrapped": missing, "spans_file": str(spans_file),
             "traced_rounds": len(traced), "untraced_round_s": plain, "traced_round_s": traced}
    return metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--probe", default="", help="comma list of sim, closed, search")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="shrunken inputs, for tests")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    ledger = Ledger(Path(args.workdir))
    ledger.calibrator.sample()
    out = {"import_s": ledger.calibrator.reference((_T0, _T0 + IMPORT_S))}
    if args.trace:
        # spans hold wall times: scale them by the whole run's loop median
        raw, out["notes"] = run_traced(args, ledger)
        out["metrics"] = calib.scale(raw, tracing.PER_LAYER, ledger.calibrator.factor())
        out["notes"]["raw_metrics"] = raw
    else:
        out["metrics"], out["rounds"] = run_workload(args, ledger)
        out["metrics"].update(probe(set(filter(None, args.probe.split(","))), args.seed,
                                    ledger, args.small))
    out.update(wall_s=ledger.wall(ledger.spans), reference_s=ledger.seconds(ledger.spans),
               loop_samples=[v for _, v in ledger.calibrator.samples],
               attempted=ledger.attempted, failed=ledger.failed, failures=ledger.failures,
               outputs_sha256=ledger.digest.hexdigest())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
