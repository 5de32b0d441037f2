"""The benchmark's tracer (perfbench/tracing.py) wraps package functions by
module and attribute name, listed in its WRAPPED table. A refactor that
moves or renames one of them does not fail there: the benchmark record
only lists the name as not wrapped. This test catches it first. It reads
the table with `ast`, so it does not import the benchmark."""

import ast
import importlib
import os

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def wrapped_table():
    with open(TRACING, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
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
