"""The aoi-mec benchmark: one command, four workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                 # every workload, one after another

Run from anywhere inside a checkout that holds `src/aoi_mec`; the package
is imported from that source tree, never from an installed copy. The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; with --trace 0 the metrics are the end-to-end
ones, with --trace 1 the per-layer ones. Each run also writes a record
with every metric, the operation counts and the machine to
perfbench/out/. See perfbench/README.md.
"""

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
from tracing import END_TO_END, PER_LAYER  # noqa: E402

WORKLOADS = ("cli-cold", "simulate-long", "closed-form-scale", "sweep-sim")
# Which end-to-end metrics each workload measures with its own operations;
# the rest come from the worker's component probe, after the workload, and,
# for cold_analytic_s, from cold `analytic` commands on the README config,
# so that every workload reports every metric.
OWN = {
    "cli-cold": {"cold_analytic_s"},
    "simulate-long": {"sim_packets_per_s"},
    "closed-form-scale": {"closed_form_ue_per_s", "search_s"},
    "sweep-sim": {"sim_packets_per_s"},
}
PROBE_PART = {"sim_packets_per_s": "sim", "closed_form_ue_per_s": "closed", "search_s": "search"}
SETUP_SAMPLES = 4       # fresh interpreters timing `import aoi_mec`, besides the worker
COLD_SAMPLES = 6        # cold `analytic` commands where the workload has none
IMPORTTIME_SAMPLES = 3  # `-X importtime` reports in a traced run
DEADLINE_S = 170.0
IMPORT_SNIPPET = ("import time; t = time.perf_counter(); import aoi_mec; "
                  "print(time.perf_counter() - t)")


class BenchmarkError(Exception):
    """A child process failed, or the run ran out of time."""


CALIBRATOR = calib.Calibrator()


def python(args, deadline):
    """Run the interpreter on the checkout's source tree.

    Returns (proc, its (start, end) span on CALIBRATOR's clock).
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchmarkError("out of time before starting a child process")
    return CALIBRATOR.timed(lambda: subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=timeout))


def scale_of(span):
    """Reference seconds per wall second over a child's span."""
    return CALIBRATOR.reference(span) / (span[1] - span[0])


def last_json(proc, what):
    if proc.returncode != 0:
        raise BenchmarkError(f"{what} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worker(args, deadline, extra):
    OUT.mkdir(exist_ok=True)
    proc, _ = python([str(HERE / "worker.py"), "--seed", str(args.seed),
                      "--workdir", str(OUT), *extra] + (["--small"] if args.small else []),
                     deadline)
    return last_json(proc, "worker " + " ".join(extra))


def cold_analytic(deadline, samples):
    """Cold `python -m aoi_mec.cli analytic` on the README config: (seconds, problems)."""
    path = OUT / f"readme-{os.getpid()}.cfg"
    path.write_text(inputs.README.config_text())
    spans, problems = [], []
    for _ in range(samples):
        proc, span = python(["-m", "aoi_mec.cli", "analytic", "--config", str(path)], deadline)
        spans.append(span)
        if proc.returncode != 0:
            problems.append([f"cold analytic exited {proc.returncode}"])
        else:
            problems.append(checks.check_analytic_output(inputs.README, proc.stdout))
    path.unlink()
    return [CALIBRATOR.reference(span) for span in spans], problems


def workload_args(args):
    return ["--workload", args.workload, "--seconds", str(args.seconds),
            "--trace", str(args.trace)]


def run_untraced(args, deadline, record):
    imports = []
    for _ in range(SETUP_SAMPLES):
        proc, span = python(["-c", IMPORT_SNIPPET], deadline)
        if proc.returncode != 0:
            raise BenchmarkError(f"import aoi_mec failed: {proc.stderr.strip()[-2000:]}")
        imports.append((float(proc.stdout.split()[-1]), span))
    parts = sorted({PROBE_PART[m] for m in PROBE_PART if m not in OWN[args.workload]})
    out = worker(args, deadline, workload_args(args) + ["--probe", ",".join(parts)])
    metrics = dict(out["metrics"])
    attempted, failed, failures = out["attempted"], out["failed"], list(out["failures"])
    record["worker"] = {k: out[k] for k in ("wall_s", "reference_s", "loop_samples", "rounds")}
    if "cold_analytic_s" not in OWN[args.workload]:
        times, problems = cold_analytic(deadline, COLD_SAMPLES)
        metrics["cold_analytic_s"] = statistics.median(times)
        attempted += len(problems)
        failed += sum(1 for p in problems if p)
        failures += [msg for p in problems for msg in p[:3]]
        record["cold_analytic_samples"] = times
    # the children's own import timings, scaled by the loop samples around them
    setup = [seconds * scale_of(span) for seconds, span in imports] + [out["import_s"]]
    metrics["setup_s"] = statistics.median(setup)
    record.update(setup_samples=setup, outputs_sha256=out["outputs_sha256"],
                  runner_loop_samples=[v for _, v in CALIBRATOR.samples])
    return metrics, END_TO_END, attempted, failed, failures


def run_traced(args, deadline, record):
    reports = []
    for _ in range(IMPORTTIME_SAMPLES):
        proc, span = python(["-X", "importtime", "-c", tracing.IMPORT_SCRIPT], deadline)
        if proc.returncode != 0:
            raise BenchmarkError(f"import aoi_mec failed: {proc.stderr.strip()[-2000:]}")
        reports.append((tracing.parse_importtime(proc.stderr), span))
    out = worker(args, deadline, workload_args(args))
    samples = {}
    for report, span in reports:
        for name, ms in report.items():
            samples.setdefault(name, []).append(ms * scale_of(span))
    metrics = dict(out["metrics"])
    for name in tracing.IMPORT_MODULES.values():
        metrics[name] = statistics.median(samples.get(name, [0.0]))
    record.update(out["notes"], outputs_sha256=out["outputs_sha256"], import_samples=samples)
    record["worker"] = {k: out[k] for k in ("wall_s", "reference_s", "loop_samples")}
    return metrics, PER_LAYER, out["attempted"], out["failed"], out["failures"]


def run_one(args):
    deadline = time.perf_counter() + DEADLINE_S
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}
    run = run_traced if args.trace else run_untraced
    metrics, units, attempted, failed, failures = run(args, deadline, record)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    record.update(result, failures=failures, machine=machine())
    OUT.mkdir(exist_ok=True)
    name = f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    return result


def machine():
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "platform": platform.platform()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="shrunken inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "aoi_mec" / "__init__.py").is_file():
        print(f"no source tree at {ROOT / 'src' / 'aoi_mec'}", file=sys.stderr)
        return 2
    # byte-compile once, so no timed import pays for compilation
    compileall.compile_dir(str(ROOT / "src" / "aoi_mec"), quiet=1)
    workloads = [args.workload] if args.workload else WORKLOADS
    results = {}
    try:
        for name in workloads:
            args.workload = name
            results[name] = run_one(args)
            if len(workloads) > 1:
                print(f"{name}: {json.dumps(results[name])}", flush=True)
    except (BenchmarkError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(workloads) == 1:
        print(json.dumps(results[workloads[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
