"""The benchmark's tracer (perfbench/tracing.py) wraps package functions by
module and attribute name, listed in its WRAPPED table, and its worker
(perfbench/worker.py) calls package names by attribute. A refactor that
moves or renames one of them does not fail there: the benchmark record
only lists the name as not wrapped, or counts the operation as failed.
These tests catch it first. They read both files with `ast`, so they do
not import the benchmark."""

import ast
import importlib
import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
TRACING = os.path.join(PERFBENCH, "tracing.py")
WORKER = os.path.join(PERFBENCH, "worker.py")


def parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read())


def wrapped_table():
    for node in parse(TRACING).body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "WRAPPED" for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no WRAPPED table in {TRACING}")


def test_every_wrapped_name_resolves():
    table = wrapped_table()
    assert table
    missing = [f"aoi_mec.{module}.{attr}" for module, attr, _ in table
               if not callable(getattr(importlib.import_module(f"aoi_mec.{module}"),
                                       attr, None))]
    assert missing == []


# The package names the worker imports, and the module each one names.
WORKER_MODULES = {"aoi_mec": "aoi_mec", "analytic": "aoi_mec.analytic",
                  "optimize": "aoi_mec.optimize", "simulate": "aoi_mec.simulate"}


def test_every_worker_attribute_resolves():
    reads = {(node.value.id, node.attr) for node in ast.walk(parse(WORKER))
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in WORKER_MODULES}
    assert {name for name, _ in reads} == set(WORKER_MODULES)
    missing = sorted(f"{name}.{attr}" for name, attr in reads
                     if not hasattr(importlib.import_module(WORKER_MODULES[name]), attr))
    assert missing == []
