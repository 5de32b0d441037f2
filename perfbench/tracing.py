"""Spans around the package's public entry points, and the per-layer metrics.

The wrappers are installed from the benchmark's own files by replacing
module attributes; nothing in the package changes. A span records its
name, start, end, parent and thread, plus a few attributes (UEs
evaluated, packets simulated, optimizer evaluations). Spans stay in
memory and are written out when the run ends.

A span's self time is its duration minus the part of it that its child
spans cover. Calls made from worker threads with no open span of their
own take the innermost open root span (an operation, a CLI command or a
sweep) as parent.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import math
import re
import statistics
import threading
import time
import tracemalloc
from contextlib import contextmanager

# (module, attribute, span name). Model calls are counted at the names the
# `analytic` module binds, so they are the calls analytic makes into model.
WRAPPED = (
    ("analytic", "derive_rates", "model.derive_rates"),
    ("analytic", "require_stable", "model.require_stable"),
    ("analytic", "system_metrics", "analytic.system_metrics"),
    ("analytic", "aoi_bounds", "analytic.aoi_bounds"),
    ("analytic", "p_opt_paoi", "analytic.p_opt_paoi"),
    ("optimize", "search_p", "optimize.search_p"),
    ("simulate", "simulate_mec", "simulate.simulate_mec"),
    ("cli", "simulate_mec", "simulate.simulate_mec"),
    ("cli", "run_sweep", "cli.run_sweep"),
    ("cli", "_evaluate_sweep_row", "cli.sweep_row"),
)


def _attrs(name, args, kwargs, result):
    """Work counts of one call, read from its arguments and result."""
    def arg(i, key):
        return args[i] if len(args) > i else kwargs[key]
    if name == "analytic.system_metrics":
        return {"ues": arg(0, "cfg").num_ues}
    if name == "optimize.search_p":
        return {"evaluations": result.evaluations}
    if name == "simulate.simulate_mec":
        cfg, params = arg(0, "cfg"), arg(1, "params")
        return {"packets": cfg.num_ues * params.packets_per_ue * params.replications,
                "corr": bool(params.record_correlations),
                "pair": repr((cfg, params.seed, params.packets_per_ue,
                              params.replications, params.warmup_packets_per_ue))}
    return None


class Tracer:
    """In-memory span store. Spans are [id, name, start, end, parent, thread, attrs]."""

    def __init__(self):
        self.spans = []
        self.enabled = True
        self._roots = []
        self._ids = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._sim_inflight = 0

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name, attrs=None, root=False):
        """Record one span; while a root=True span is open it is the parent
        of spans opened by threads that have no open span of their own."""
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        with self._lock:
            self._ids += 1
            sid = self._ids
            parent = stack[-1] if stack else (self._roots[-1] if self._roots else None)
            if root:
                self._roots.append(sid)
        record = [sid, name, time.perf_counter(), None, parent,
                  threading.get_ident(), dict(attrs or {})]
        stack.append(sid)
        try:
            yield record
        finally:
            record[3] = time.perf_counter()
            stack.pop()
            with self._lock:
                if root:
                    self._roots.remove(sid)
                self.spans.append(record)

    @contextmanager
    def paused(self):
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    def _sim_alloc_start(self):
        with self._lock:
            self._sim_inflight += 1
            if self._sim_inflight == 1:
                tracemalloc.start()

    def _sim_alloc_stop(self, record):
        with self._lock:
            self._sim_inflight -= 1
            if self._sim_inflight == 0:
                record[6]["peak_alloc"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()

    def wrap(self, fn, name):
        if getattr(fn, "__traced__", False):
            return fn
        is_sim = name == "simulate.simulate_mec"
        # sweep rows run on pool threads; they hang under the sweep's span
        is_root = name == "cli.run_sweep"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            with self.span(name, root=is_root) as record:
                if is_sim:
                    self._sim_alloc_start()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    if is_sim:
                        self._sim_alloc_stop(record)
                record[6].update(_attrs(name, args, kwargs, result) or {})
                return result

        wrapper.__traced__ = True
        return wrapper

    def install(self):
        """Wrap the package's entry points; returns the names found missing."""
        missing = []
        wrapped = {}
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(f"aoi_mec.{module_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"aoi_mec.{module_name}.{attr}")
                continue
            key = id(getattr(fn, "__wrapped__", fn))
            wrapped.setdefault(key, self.wrap(fn, name))
            setattr(module, attr, wrapped[key])
        return missing

    def load(self, spans):
        """Append spans recorded in another process, with fresh ids."""
        with self._lock:
            offset = self._ids
            for sid, name, t0, t1, parent, tid, attrs in spans:
                self.spans.append([sid + offset, name, t0, t1,
                                   None if parent is None else parent + offset,
                                   f"{offset}:{tid}", attrs])
                self._ids = max(self._ids, sid + offset)


def write_spans(spans, path):
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def read_spans(path):
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


# ---------------------------------------------------------------------------
# Per-layer metrics.
# ---------------------------------------------------------------------------

END_TO_END = {
    "setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "cold_analytic_s": "s",
    "sim_packets_per_s": "packets/s", "closed_form_ue_per_s": "UE/s", "search_s": "s",
}

PER_LAYER = {
    "import.aoi_mec_ms": "ms", "import.simulate_ms": "ms",
    "import.optimize_ms": "ms", "import.cli_ms": "ms",
    "model.derive_rates_calls": "count", "model.require_stable_calls": "count",
    "model.busy_s": "s",
    "analytic.system_metrics_calls": "count", "analytic.system_metrics_self_s": "s",
    "analytic.us_per_ue": "us",
    "optimize.search_calls": "count", "optimize.evaluations": "count",
    "optimize.search_self_s": "s",
    "simulate.calls": "count", "simulate.packets": "count", "simulate.busy_s": "s",
    "simulate.ns_per_packet": "ns", "simulate.corr_ns_per_packet": "ns",
    "simulate.peak_alloc_mb": "MB",
    "cli.command_self_s": "s", "cli.sweep_row_s": "s", "cli.sweep_busy_ratio": "ratio",
    "trace.overhead_s": "s",
}

# Which metrics each layer yields; a layer a workload does not reach is
# measured on the layer probe instead.
LAYER_OF = {
    "model": ("model.derive_rates_calls", "model.require_stable_calls", "model.busy_s"),
    "analytic": ("analytic.system_metrics_calls", "analytic.system_metrics_self_s",
                 "analytic.us_per_ue"),
    "optimize": ("optimize.search_calls", "optimize.evaluations", "optimize.search_self_s"),
    "simulate": ("simulate.calls", "simulate.packets", "simulate.busy_s",
                 "simulate.ns_per_packet", "simulate.peak_alloc_mb"),
    "simulate.corr": ("simulate.corr_ns_per_packet",),
    "cli.command": ("cli.command_self_s",),
    "cli.sweep": ("cli.sweep_row_s", "cli.sweep_busy_ratio"),
}


def _covered(interval, children):
    """Length of the part of `interval` that the child intervals cover."""
    start, end = interval
    total, reach = 0.0, start
    for c0, c1 in sorted(children):
        c0, c1 = max(c0, reach), min(c1, end)
        if c1 > c0:
            total += c1 - c0
            reach = c1
    return total


def _children(spans):
    out = {}
    for span in spans:
        if span[4] is not None:
            out.setdefault(span[4], []).append(span)
    return out


def self_times(spans):
    """{span id: duration minus the part its children cover}."""
    children = _children(spans)
    return {sid: (t1 - t0) - _covered((t0, t1), [(c[2], c[3]) for c in children.get(sid, ())])
            for sid, _, t0, t1, _, _, _ in spans}


def _command_self(command, children):
    """A CLI command's duration minus what its analytic, optimize and
    simulate descendants cover, on any thread."""
    library, todo = [], list(children.get(command[0], ()))
    while todo:
        span = todo.pop()
        if span[1].split(".")[0] in ("analytic", "optimize", "simulate"):
            library.append((span[2], span[3]))
        else:
            todo += children.get(span[0], ())
    return (command[3] - command[2]) - _covered((command[2], command[3]), library)


def layer_metrics(spans, rounds):
    """Per-layer metrics from one set of spans; sums and counts are per round.

    Returns (metrics, layers reached).
    """
    by_name = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)
    selfs = self_times(spans)

    def dur(span):
        return span[3] - span[2]

    def per_round(x):
        value = x / rounds
        return int(value) if isinstance(x, int) and value == int(value) else value

    out, reached = {}, set()
    derive = by_name.get("model.derive_rates", [])
    stable = by_name.get("model.require_stable", [])
    if derive or stable:
        reached.add("model")
        out["model.derive_rates_calls"] = per_round(len(derive))
        out["model.require_stable_calls"] = per_round(len(stable))
        # nested model calls would count twice; require_stable does not call
        # the analytic-bound names, so the two sets do not overlap
        out["model.busy_s"] = per_round(math.fsum(dur(s) for s in derive + stable))
    metrics_spans = by_name.get("analytic.system_metrics", [])
    if metrics_spans:
        reached.add("analytic")
        ues = sum(s[6]["ues"] for s in metrics_spans)
        out["analytic.system_metrics_calls"] = per_round(len(metrics_spans))
        out["analytic.system_metrics_self_s"] = per_round(
            math.fsum(selfs[s[0]] for s in metrics_spans))
        out["analytic.us_per_ue"] = 1e6 * math.fsum(dur(s) for s in metrics_spans) / ues
    search = by_name.get("optimize.search_p", [])
    if search:
        reached.add("optimize")
        out["optimize.search_calls"] = per_round(len(search))
        out["optimize.evaluations"] = per_round(sum(s[6]["evaluations"] for s in search))
        out["optimize.search_self_s"] = per_round(math.fsum(selfs[s[0]] for s in search))
    sims = by_name.get("simulate.simulate_mec", [])
    if sims:
        reached.add("simulate")
        packets = sum(s[6]["packets"] for s in sims)
        busy = math.fsum(dur(s) for s in sims)
        out["simulate.calls"] = per_round(len(sims))
        out["simulate.packets"] = per_round(packets)
        out["simulate.busy_s"] = per_round(busy)
        out["simulate.ns_per_packet"] = 1e9 * busy / packets
        out["simulate.peak_alloc_mb"] = max(
            s[6].get("peak_alloc", 0) for s in sims) / 2 ** 20
        pairs = {}
        for s in sims:
            pairs.setdefault(s[6]["pair"], {}).setdefault(s[6]["corr"], []).append(s)
        extra = [1e9 * (dur(on) - dur(off)) / on[6]["packets"]
                 for both in pairs.values() if len(both) == 2
                 for on, off in zip(both[True], both[False])]
        if extra:
            reached.add("simulate.corr")
            out["simulate.corr_ns_per_packet"] = statistics.median(extra)
    commands = by_name.get("cli.command", [])
    if commands:
        reached.add("cli.command")
        children = _children(spans)
        out["cli.command_self_s"] = statistics.median(_command_self(s, children)
                                                      for s in commands)
    rows = by_name.get("cli.sweep_row", [])
    sweeps = by_name.get("cli.run_sweep", [])
    if rows and sweeps:
        reached.add("cli.sweep")
        out["cli.sweep_row_s"] = statistics.median(dur(s) for s in rows)
        ratios = []
        for sweep in sweeps:
            mine = [s for s in rows if s[4] == sweep[0]]
            workers = len({s[5] for s in mine})
            ratios.append(math.fsum(dur(s) for s in mine) / (dur(sweep) * workers))
        out["cli.sweep_busy_ratio"] = statistics.median(ratios)
    return out, reached


# ---------------------------------------------------------------------------
# Import cost from `python -X importtime`.
# ---------------------------------------------------------------------------

IMPORT_MODULES = {"aoi_mec": "import.aoi_mec_ms", "aoi_mec.simulate": "import.simulate_ms",
                  "aoi_mec.optimize": "import.optimize_ms", "aoi_mec.cli": "import.cli_ms"}
# Importing the submodules by name after the package makes each appear in
# the report whether or not the package imports it eagerly.
IMPORT_SCRIPT = "import aoi_mec; import aoi_mec.simulate, aoi_mec.optimize, aoi_mec.cli"

_IMPORT_LINE = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s?(\s*)(\S+)\s*$")


def parse_importtime(stderr: str):
    """{metric name: cumulative milliseconds} for the package's modules."""
    out = {}
    for line in stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if match and match.group(4) in IMPORT_MODULES:
            out[IMPORT_MODULES[match.group(4)]] = int(match.group(2)) / 1000.0
    return out
