"""System parameterization, derived rates, stability checks, the error
types, and the simulation controls (SimParams).

The system is a three-stage tandem of FCFS queues shared by N user
equipments (UEs): a single computation queue at the edge server, a single
transmission queue, and one local computation queue per UE. UE n generates
status-update packets as a Poisson process of rate lambda_n. An offloading
ratio p in [0, 1] splits each packet's computational work between the edge
server and the UE, which rescales the service rates: the edge server works
at mu_B' = mu_B / p and the local server of UE n at mu_n' = mu_n / (1 - p).
The boundary values p = 0 (all work local) and p = 1 (all work at the edge)
turn the corresponding stage into a zero-delay pass-through, represented
here by an infinite effective rate.

Everything in this module but max_workers, which reads AOI_MEC_THREADS,
is a pure function over immutable values, and it imports only the
standard library: the closed-form path (model and analytic) never loads
numpy or scipy.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import Optional

LOCAL = "local"
EDGE = "edge"
PARTIAL = "partial"

# Utilization above which a queue is flagged near-unstable: analytic values
# blow up and simulations converge slowly long before utilization reaches 1.
NEAR_UNSTABLE_UTIL = 0.95


class UnstableConfig(Exception):
    """An operation that requires a stable system got an unstable config."""


class NotHomogeneous(Exception):
    """An operation defined only for homogeneous UEs got a heterogeneous config."""


class InvalidParams(Exception):
    """Simulation parameters violate their invariants."""


class ConfigParseError(Exception):
    """A config file could not be parsed; message carries line/field info."""


class EmptyStableInterval(Exception):
    """No offloading ratio stabilizes the system."""


class DivergenceWarning(RuntimeWarning):
    """A queue grew past the configured cap (expected for unstable runs)."""


@dataclass(frozen=True)
class Scheme:
    """Computing scheme: where each packet's computation happens.

    kind is one of LOCAL, EDGE, PARTIAL. The offloading ratio p is the
    fraction of computational work done at the edge server; it is 0 for
    LOCAL and 1 for EDGE by definition.
    """

    kind: str
    p: float

    def __post_init__(self):
        if self.kind not in (LOCAL, EDGE, PARTIAL):
            raise ValueError(f"unknown scheme kind: {self.kind!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"offloading ratio must be in [0, 1], got {self.p}")
        if self.kind == LOCAL and self.p != 0.0:
            raise ValueError("local scheme has p = 0 by definition")
        if self.kind == EDGE and self.p != 1.0:
            raise ValueError("edge scheme has p = 1 by definition")

    @classmethod
    def local(cls) -> "Scheme":
        return cls(LOCAL, 0.0)

    @classmethod
    def edge(cls) -> "Scheme":
        return cls(EDGE, 1.0)

    @classmethod
    def partial(cls, p: float) -> "Scheme":
        return cls(PARTIAL, float(p))


@dataclass(frozen=True)
class SystemConfig:
    """Full parameterization of the MEC system.

    num_ues: N >= 1
    gen_rates: per-UE Poisson generation rates lambda_n (packets/time)
    edge_rate: raw edge computation rate mu_B
    tx_rate: transmission rate mu_D
    local_rates: per-UE raw local computation rates mu_n
    scheme: computing scheme (carries the offloading ratio)
    """

    num_ues: int
    gen_rates: tuple[float, ...]
    edge_rate: float
    tx_rate: float
    local_rates: tuple[float, ...]
    scheme: Scheme

    def __post_init__(self):
        object.__setattr__(self, "gen_rates", tuple(float(x) for x in self.gen_rates))
        object.__setattr__(self, "local_rates", tuple(float(x) for x in self.local_rates))
        if self.num_ues < 1:
            raise ValueError(f"num_ues must be >= 1, got {self.num_ues}")
        if len(self.gen_rates) != self.num_ues:
            raise ValueError(
                f"gen_rates has {len(self.gen_rates)} entries for {self.num_ues} UEs"
            )
        if len(self.local_rates) != self.num_ues:
            raise ValueError(
                f"local_rates has {len(self.local_rates)} entries for {self.num_ues} UEs"
            )
        for name, values in (("gen_rates", self.gen_rates), ("local_rates", self.local_rates)):
            for v in values:
                if not (v > 0.0 and math.isfinite(v)):
                    raise ValueError(f"{name} must be strictly positive and finite, got {v}")
        for name, v in (("edge_rate", self.edge_rate), ("tx_rate", self.tx_rate)):
            if not (v > 0.0 and math.isfinite(v)):
                raise ValueError(f"{name} must be strictly positive and finite, got {v}")

    @classmethod
    def homogeneous(cls, num_ues: int, gen_rate: float, edge_rate: float,
                    tx_rate: float, local_rate: float, scheme: Scheme) -> "SystemConfig":
        """Shortcut for the all-UEs-identical case (lambda_h, mu_h)."""
        return cls(num_ues, (gen_rate,) * num_ues, edge_rate, tx_rate,
                   (local_rate,) * num_ues, scheme)

    def with_scheme(self, scheme: Scheme) -> "SystemConfig":
        return replace(self, scheme=scheme)


def is_homogeneous(cfg: SystemConfig) -> bool:
    """True iff all UEs share one generation rate and one local rate."""
    return (len(set(cfg.gen_rates)) == 1) and (len(set(cfg.local_rates)) == 1)


@dataclass(frozen=True)
class DerivedRates:
    """Aggregate and workload-rescaled rates.

    total_gen: lambda = sum of gen_rates
    gen_rates: per-UE lambda_n, as given
    others_gen: per-UE lambda_{-n} = lambda - lambda_n
    eff_edge: mu_B' = mu_B / p  (+inf when p = 0)
    eff_local: per-UE mu_n' = mu_n / (1 - p)  (+inf when p = 1)
    tx_rate: mu_D, carried through unchanged (the transmission stage has no
             workload split) so downstream evaluators need only this object.
    """

    total_gen: float
    gen_rates: tuple[float, ...]
    others_gen: tuple[float, ...]
    eff_edge: float
    eff_local: tuple[float, ...]
    tx_rate: float


def derive_rates(cfg: SystemConfig) -> DerivedRates:
    """Compute aggregate and effective rates; boundary p maps to +inf rates."""
    lam = math.fsum(cfg.gen_rates)
    others = tuple(lam - ln for ln in cfg.gen_rates)
    p = cfg.scheme.p
    eff_edge = math.inf if p == 0.0 else cfg.edge_rate / p
    if p == 1.0:
        eff_local = (math.inf,) * cfg.num_ues
    else:
        eff_local = tuple(mu / (1.0 - p) for mu in cfg.local_rates)
    return DerivedRates(lam, cfg.gen_rates, others, eff_edge, eff_local, cfg.tx_rate)


@dataclass(frozen=True)
class StabilityReport:
    """Per-queue stability verdicts.

    A queue is stable iff its total arrival rate is strictly below its
    service rate; infinite-rate (pass-through) stages are trivially stable.
    Utilizations are arrival/service (0 for pass-through stages).
    violations lists one human-readable inequality per unstable queue.
    """

    stable: bool
    edge_ok: bool
    tx_ok: bool
    local_ok: tuple[bool, ...]
    edge_util: float
    tx_util: float
    local_utils: tuple[float, ...]
    near_unstable: bool
    violations: tuple[str, ...]


def check_stability(cfg: SystemConfig) -> StabilityReport:
    """Check lambda < mu_B', lambda < mu_D, and lambda_n < mu_n' per UE."""
    rates = derive_rates(cfg)
    lam = rates.total_gen
    violations = []

    edge_util = 0.0 if math.isinf(rates.eff_edge) else lam / rates.eff_edge
    edge_ok = lam < rates.eff_edge
    if not edge_ok:
        violations.append(
            f"edge computation queue: lambda = {lam:g} >= mu_B' = {rates.eff_edge:g}"
        )

    tx_util = lam / cfg.tx_rate
    tx_ok = lam < cfg.tx_rate
    if not tx_ok:
        violations.append(f"transmission queue: lambda = {lam:g} >= mu_D = {cfg.tx_rate:g}")

    local_ok = []
    local_utils = []
    for n, (ln, mu) in enumerate(zip(cfg.gen_rates, rates.eff_local)):
        ok = ln < mu
        local_ok.append(ok)
        local_utils.append(0.0 if math.isinf(mu) else ln / mu)
        if not ok:
            violations.append(
                f"local computation queue of UE {n}: lambda_{n} = {ln:g} >= mu' = {mu:g}"
            )

    utils = [edge_util, tx_util, *local_utils]
    return StabilityReport(
        stable=edge_ok and tx_ok and all(local_ok),
        edge_ok=edge_ok,
        tx_ok=tx_ok,
        local_ok=tuple(local_ok),
        edge_util=edge_util,
        tx_util=tx_util,
        local_utils=tuple(local_utils),
        near_unstable=max(utils) > NEAR_UNSTABLE_UTIL,
        violations=tuple(violations),
    )


def require_stable(cfg: SystemConfig) -> StabilityReport:
    """Return the stability report, raising UnstableConfig if any queue fails."""
    report = check_stability(cfg)
    if not report.stable:
        raise UnstableConfig("; ".join(report.violations))
    return report


@dataclass(frozen=True)
class SimParams:
    """Simulation controls (the simulator is aoi_mec.simulate).

    warmup_packets_per_ue=None discards the first 10% of each UE's packets.
    record_correlations additionally estimates the E[Y W] terms, their
    event-conditioned splits, and the queue-occupancy statistics used by
    the geometric-distribution check.
    """

    seed: int
    packets_per_ue: int
    warmup_packets_per_ue: Optional[int] = None
    replications: int = 10
    record_correlations: bool = False
    queue_cap: int = 100_000

    def __post_init__(self):
        if not 0 <= int(self.seed) < 2 ** 64:
            raise InvalidParams(f"seed must fit in 64 bits, got {self.seed}")
        if self.packets_per_ue < 1:
            raise InvalidParams("packets_per_ue must be >= 1")
        w = self.warmup()
        if not 0 <= w < self.packets_per_ue:
            raise InvalidParams(
                f"need packets_per_ue > warmup >= 0, got {self.packets_per_ue}"
                f" and {w}")
        if self.replications < 1:
            raise InvalidParams("replications must be >= 1")
        if self.queue_cap < 1:
            raise InvalidParams("queue_cap must be >= 1")

    def warmup(self) -> int:
        if self.warmup_packets_per_ue is None:
            return self.packets_per_ue // 10
        return int(self.warmup_packets_per_ue)


def max_workers(tasks: int) -> int:
    """How many workers to use for `tasks` independent tasks.

    AOI_MEC_THREADS caps the count (default os.cpu_count()): it sizes
    only simulate_many's replication processes. A value that is not a
    positive integer raises ConfigParseError.
    """
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
    return max(1, min(cap, tasks))
