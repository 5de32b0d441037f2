"""Seeded inputs of every workload.

Each workload draws its inputs from `random.Random` seeded with the
benchmark's --seed and a fixed per-workload offset, so one seed always
gives the same inputs. Draws vary rates inside ranges that keep every
queue stable and every optimisation on the branch the workload names, so
the amount of work per round does not depend on the seed.

`small=True` shrinks the sizes for the benchmark's own tests.
"""

from __future__ import annotations

import random

from checks import Cfg, paoi_optimum, stable

MU_B = 1.5
MU_D = 1.8
# The README's example: N=3, lambda_h=0.05, partial p=0.5.
README = Cfg.homogeneous(3, 0.05, MU_B, MU_D, 0.25, "partial", 0.5)


def reference(kind: str, p: float = 0.5) -> Cfg:
    """The acceptance reference system: N=6, lambda_h=0.2, mu_h=0.25."""
    return Cfg.homogeneous(6, 0.2, MU_B, MU_D, 0.25, kind, p)


def sim_seed(seed: int, offset: int = 0) -> int:
    """The simulator's seed for a benchmark seed (the simulator takes 0 <= seed < 2**64)."""
    return (seed + offset) % 2 ** 32


def rng(seed: int, offset: int) -> random.Random:
    return random.Random(seed * 16 + offset)


def heterogeneous(rng: random.Random, n: int, kind: str) -> Cfg:
    """N UEs with spread generation and local rates, stable under `kind`."""
    total = rng.uniform(0.5, 1.2)
    weights = [rng.uniform(0.5, 1.5) for _ in range(n)]
    scale = total / sum(weights)
    lam = tuple(w * scale for w in weights)
    mu_local = tuple(ln + rng.uniform(0.1, 0.4) for ln in lam)
    p = rng.uniform(0.2, 0.8) if kind == "partial" else {"local": 0.0, "edge": 1.0}[kind]
    return Cfg(n, lam, MU_B, MU_D, mu_local, kind, p)


def _on_branch(rng, branch, draw):
    """Redraw until the homogeneous config's peak-AoI optimum is on `branch`."""
    while True:
        cfg = draw(rng)
        got, _ = paoi_optimum(cfg.n, cfg.lam[0], cfg.mu_b, cfg.mu_local[0])
        if got == branch and all(stable(cfg._replace(kind="partial", p=p))
                                 for p in (0.0, 0.5, 1.0)):
            return cfg


def closed_form_probe(seed: int, small: bool = False):
    """Three heterogeneous configs, one per scheme, for the component probe."""
    draw = rng(seed, 5)
    return [heterogeneous(draw, 60 if small else 300, kind)
            for kind in ("local", "edge", "partial")]


def search_configs(rng: random.Random):
    """Homogeneous N=6 configs whose peak-AoI optimum is local, edge and interior."""
    def local(r):  # slow edge server, fast local servers
        return Cfg.homogeneous(6, r.uniform(0.03, 0.07), r.uniform(0.5, 0.9), MU_D,
                               r.uniform(1.5, 2.5), "partial", 0.5)

    def edge(r):  # fast edge server, slow local servers
        return Cfg.homogeneous(6, r.uniform(0.03, 0.07), MU_B, MU_D,
                               r.uniform(0.2, 0.3), "partial", 0.5)

    def interior(r):  # around the reference system
        return Cfg.homogeneous(6, r.uniform(0.18, 0.22), MU_B, MU_D,
                               r.uniform(0.24, 0.27), "partial", 0.5)

    return [("local", _on_branch(rng, "local", local)),
            ("edge", _on_branch(rng, "edge", edge)),
            ("interior", _on_branch(rng, "interior", interior))]


def cli_cold(seed: int, small: bool = False):
    """Five cold CLI commands: three `analytic`, two `optimize`."""
    draw = rng(seed, 1)
    n_local = draw.randint(2, 8)
    local = Cfg.homogeneous(n_local, draw.uniform(0.02, 0.08), MU_B, MU_D,
                            draw.uniform(0.2, 0.4), "local")
    hetero = heterogeneous(draw, 5, "partial")
    interior = reference("partial")
    boundary = _on_branch(draw, "edge", lambda r: Cfg.homogeneous(
        3, r.uniform(0.03, 0.07), MU_B, MU_D, r.uniform(0.2, 0.3), "partial", 0.5))
    return [("analytic", "readme", README), ("analytic", "local", local),
            ("analytic", "heterogeneous", hetero),
            ("optimize", "interior", interior), ("optimize", "boundary", boundary)]


def simulate_long(seed: int, small: bool = False):
    """(label, cfg, packets/UE, replications, record_correlations) per call."""
    packets = 50_000 if small else 225_000
    reps = 3
    calls = [(kind, reference(kind), packets, reps, True) for kind in ("local", "partial", "edge")]
    calls.append(("partial-nocorr", reference("partial"), packets, reps, False))
    return calls, sim_seed(seed)


def closed_form_scale(seed: int, small: bool = False):
    """Heterogeneous system_metrics configs, homogeneous bound configs, search configs."""
    draw = rng(seed, 3)
    sizes = (60, 20, 8, 3) if small else (1000, 300, 100, 30, 10, 3)
    hetero = [heterogeneous(draw, n, kind)
              for kind in ("local", "edge", "partial") for n in sizes]
    homog = []
    for i in range(12):
        kind = ("local", "edge", "partial")[i % 3]
        homog.append(Cfg.homogeneous(draw.randint(1, 12), draw.uniform(0.01, 0.1), MU_B, MU_D,
                                     draw.uniform(0.15, 0.5), kind, draw.uniform(0.2, 0.8)))
    return hetero, homog, search_configs(draw)


def sweep_sim(seed: int, small: bool = False):
    """(spec text, lambda_h values, packets/UE, replications) of a simulated
    lambda_h x {local, edge, partial:0.5} sweep at N=4."""
    draw = rng(seed, 4)
    values = [draw.uniform(lo, lo + 0.01) for lo in (0.015, 0.035, 0.055)]
    lines = ["sweep = lambda_h",
             "values = " + ", ".join(repr(v) for v in values),
             "schemes = local, edge, partial:0.5",
             "simulate = true",
             f"seed = {sim_seed(seed)}",
             "n_ues = 4", f"mu_b = {MU_B!r}", f"mu_d = {MU_D!r}", "mu_local = 0.25"]
    # the CLI defaults, written out only when shrunk for tests
    packets, reps = 20_000, 10
    if small:
        packets, reps = 2_000, 4
        lines += [f"packets = {packets}", f"reps = {reps}"]
    return "\n".join(lines) + "\n", values, packets, reps
