"""Small-size runs of every workload: they finish, pass their checks and repeat exactly.

These start real interpreters and take a few minutes:

    python -m pytest perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
WORKLOADS = ("cli-cold", "simulate-long", "closed-form-scale", "sweep-sim")
sys.path.insert(0, str(BENCH))
import run  # noqa: E402
import tracing  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=900)


def worker(*args, **env):
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--small", "--workdir", str(out), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), **env))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_workload_runs_small_and_passes(trace):
    proc = bench("--seed", "3", "--seconds", "0", "--small", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = run.END_TO_END if trace == "0" else tracing.PER_LAYER
    for workload in WORKLOADS:
        for name, unit in names.items():
            metric = result["metrics"][f"{workload}.{name}"]
            assert metric["unit"] == unit
            assert isinstance(metric["value"], (int, float))
        record = json.loads((BENCH / "out" / f"record-{workload}-seed3-trace{trace}.json")
                            .read_text())
        assert record["machine"]["nproc"] >= 1 and record["machine"]["numpy"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_outputs(workload):
    first = worker("--workload", workload, "--seed", "4", "--seconds", "0")
    second = worker("--workload", workload, "--seed", "4", "--seconds", "0")
    assert first["failed"] == 0
    assert first["outputs_sha256"] == second["outputs_sha256"]


def test_sweep_table_does_not_depend_on_thread_count():
    one = worker("--workload", "sweep-sim", "--seed", "4", "--seconds", "0", AOI_MEC_THREADS="1")
    two = worker("--workload", "sweep-sim", "--seed", "4", "--seconds", "0", AOI_MEC_THREADS="2")
    assert one["outputs_sha256"] == two["outputs_sha256"]


def test_fails_without_the_source_tree():
    bare = BENCH / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = bench("--workload", "cli-cold", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
