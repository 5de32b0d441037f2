"""Discrete-event simulation of the three-stage tandem FCFS system.

Engine design: because every stage is a single FCFS server (the local stage
is per-UE but each UE's packets traverse it in order), completion order
equals arrival order at every stage, so each stage reduces to a Lindley
recursion over the merged arrival sequence. That recursion vectorizes:
with c the cumulative service times, the departure times are
c + running-max of (arrival - preceding cumulative service). The whole run
is a handful of numpy passes instead of an event heap.

A consequence used for run truncation: a packet generated after packet j
can never delay packet j at any stage, so simulating every UE's generation
process up to a common horizon (the latest counted generation time across
UEs) makes the waits of all counted packets exact, with no end-of-run
truncation bias. UEs whose counted packets end before the horizon get
extra "padding" packets that are fully simulated but never counted.

Layout: a replication is a set of plain float columns -- gen, edge_done,
tx_done, local_done, wait_edge, wait_tx, wait_local -- in UE-major order.
UE n's packets are rows offsets[n]:offsets[n + 1], in generation order,
and the first packets_per_ue of them are counted (the rest is padding).
The merge permutation order (a stable argsort of gen: time, then UE, then
sequence number) gives the order in which the shared edge and
transmission servers see the packets. Per-UE data is a slice view.
Each stage's queue is counted once, where _run_replication builds the
stage. The peak queues need only the largest count: since an arrival
finds at most one packet more than its predecessor, the count at every
8th arrival bounds each block of 8, and only blocks whose bound exceeds
the largest of those counts are counted in full (_peak). One integer
column, edge_found, keeps how many packets each generation found at the
edge node, for the occupancy histogram; it is present only when the edge
stage is real and correlations are recorded.

Randomness: one dedicated stream per UE for generation and one per server
for services, each spawned from the master seed by a fixed key. Stream
consumption per run depends only on the generation randomness, so fixed
seeds give common random numbers across offloading ratios and schemes
(Partial(0) and Local produce bit-identical paths).

Parallelism: replications are independent, and each reduces in
_replication_summary to a few floats per UE, the edge-occupancy
histograms and the peak queues; no column leaves it. simulate_many maps
that function over every replication of its batch of calls at once (a
simulating sweep makes one batch of all its rows). A large batch made
from a single-threaded process runs in one process pool of up to
AOI_MEC_THREADS workers (default: one per core), each holding one
replication's columns at a time; smaller batches, and batches from a
process that runs other threads, run in a plain loop. The pool uses
fork, so workers start with numpy loaded and the arguments in memory,
where spawn would re-import the package in each of them; fork is safe
only while no other thread holds a lock, hence the single-threaded
condition. The output cannot depend on the worker count: a
replication's streams depend only on (seed, rep, stream), and each call
folds its summaries in replication order whichever way they were
computed.
"""

from __future__ import annotations

import itertools
import math
import sys
import threading
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

# DivergenceWarning and SimParams live in model, so that the package can
# name them without loading numpy; they are re-exported from here.
from .model import (
    DivergenceWarning,
    InvalidParams,
    SimParams,
    SystemConfig,
    check_stability,
    derive_rates,
    max_workers,
)


@dataclass(frozen=True)
class Estimate:
    """A point estimate with its replication-based uncertainty.

    se and ci95 are NaN when there is a single replication.
    """

    value: float
    se: float
    ci95: float


@dataclass(frozen=True)
class CorrelationEstimates:
    """Per-UE Monte-Carlo estimates of the correlation terms.

    yw_* estimate E[Y_j W_j] per stage. phi_* split the transmission- and
    local-stage products by whether the packet finished its edge service
    before the predecessor left the transmission server (the catch-up
    event); the two splits sum to the corresponding yw_* estimate.
    cov_* are sample covariances cov(Y_j, W_j) per stage (expected <= 0).

    edge_others_hist_own0[n][m] counts retained generation instants of UE n
    that found m other-UE packets and none of its own at the edge node;
    edge_own0_samples[n] is the row sum (histograms pool replications).
    """

    yw_edge: tuple[Estimate, ...]
    yw_tx: tuple[Estimate, ...]
    yw_local: tuple[Estimate, ...]
    phi_bjd: tuple[Estimate, ...]
    phi_ljd: tuple[Estimate, ...]
    phi_bju: tuple[Estimate, ...]
    phi_lju: tuple[Estimate, ...]
    cov_y_wedge: tuple[Estimate, ...]
    cov_y_wtx: tuple[Estimate, ...]
    cov_y_wlocal: tuple[Estimate, ...]
    edge_others_hist_own0: tuple[tuple[int, ...], ...]
    edge_own0_samples: tuple[int, ...]


@dataclass(frozen=True)
class Diagnostics:
    """Run health: queue extremes, horizon, divergence and stability flags."""

    max_edge_queue: int
    max_tx_queue: int
    max_local_queues: tuple[int, ...]
    sim_time: float
    diverged: bool
    near_unstable: bool
    replications: int


@dataclass(frozen=True)
class SimResult:
    per_ue_aoi: tuple[Estimate, ...]
    per_ue_paoi: tuple[Estimate, ...]
    system_aoi: Estimate
    system_paoi: Estimate
    correlations: Optional[CorrelationEstimates]
    diagnostics: Diagnostics


def _lindley(arrivals: np.ndarray, services: np.ndarray):
    """Departure times and waits of a FCFS single server, vectorized.

    arrivals must be non-decreasing (guaranteed stage to stage because FCFS
    preserves order). d_k = max_{i<=k}(t_i + sum services i..k) unrolls to
    cumulative services plus a running maximum.
    """
    # two buffers, filled in place: done starts as the cumulative services
    # c, and waits first holds the boundary t - (c - s), then its maximum
    done = np.cumsum(services)
    total = float(done[-1]) if done.size else 0.0
    waits = np.subtract(done, services)
    np.subtract(arrivals, waits, out=waits)
    np.maximum.accumulate(waits, out=waits)
    np.add(done, waits, out=done)
    # cancellation in the cumulative sums leaves residue of order
    # eps * horizon on waits that are exactly zero, on either side of 0;
    # snap the window to hard zeros (a true wait falls inside it with
    # probability ~1e-8 and the error is then below the window width)
    np.subtract(done, services, out=waits)
    np.subtract(waits, arrivals, out=waits)
    if waits.size:
        tol = 64.0 * np.finfo(np.float64).eps * (abs(float(arrivals[-1]))
                                                 + total)
        snapped = waits <= tol
        np.copyto(waits, 0.0, where=snapped)
        np.add(arrivals, services, out=done, where=snapped)
        np.maximum.accumulate(done, out=done)
    return done, waits


def _stream(seed: int, rep: int, stream_id: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(rep, stream_id)))


def _generate_arrivals(cfg: SystemConfig, seed: int, rep: int, M: int):
    """Per-UE generation times padded to a common horizon.

    Returns a list of per-UE time arrays; entries past index M-1 are
    padding (simulated for cross-UE contention, never counted).
    """
    times = []
    gens = []
    for n in range(cfg.num_ues):
        g = _stream(seed, rep, n)
        t = np.cumsum(g.standard_exponential(M) / cfg.gen_rates[n])
        times.append(t)
        gens.append(g)
    horizon = max(t[M - 1] for t in times)
    for n in range(cfg.num_ues):
        t = times[n]
        while t[-1] < horizon:
            gap = horizon - t[-1]
            k = int(gap * cfg.gen_rates[n] * 1.25) + 16
            extra = t[-1] + np.cumsum(gens[n].standard_exponential(k)
                                      / cfg.gen_rates[n])
            t = np.concatenate([t, extra])
        # keep one packet past the horizon; later ones cannot affect
        # anything counted (FCFS never lets a later generation overtake)
        cut = max(int(np.searchsorted(t, horizon, side="left")) + 1, M)
        times[n] = t[:min(cut, len(t))]
    return times


def _found(arrivals: np.ndarray, departures: np.ndarray) -> np.ndarray:
    """How many packets each arrival finds at a FCFS stage.

    arrivals and departures are the stage's times in service order (both
    non-decreasing). Arrival k finds the k packets ahead of it in that
    order less those already gone: a departure at its very instant has
    left, a simultaneous arrival earlier in the order is present.
    """
    found = np.arange(len(arrivals))
    found -= np.searchsorted(departures, arrivals, side="right")
    return found


_PEAK_BLOCK = 8


def _peak(arrivals: np.ndarray, departures: np.ndarray) -> int:
    """The largest number in system at a FCFS stage: max(_found) + 1.

    Arrival k + 1 finds at most one packet more than arrival k: one more
    packet is ahead of it, and no fewer have left by its instant. So within
    a block of arrivals the count exceeds the one at the block's first
    arrival by at most the block length less one. The counts at every block start give
    a lower bound on the maximum; only blocks whose bound exceeds it are
    searched in full.
    """
    K = len(arrivals)
    starts = np.arange(0, K, _PEAK_BLOCK)
    found = starts - np.searchsorted(departures, arrivals[starts], side="right")
    best = int(found.max())
    reach = found + np.minimum(_PEAK_BLOCK, K - starts) - 1
    open_starts = starts[reach > best]
    if open_starts.size:
        rows = (open_starts[:, None] + np.arange(1, _PEAK_BLOCK)).ravel()
        rows = rows[rows < K]
        best = max(best, int(np.max(
            rows - np.searchsorted(departures, arrivals[rows], side="right"))))
    return best + 1


def _own_idle(gen: np.ndarray, edge_done: np.ndarray, W: int, M: int):
    """Which of one UE's generations W..M-1 find none of its own packets
    at the edge node.

    The UE's packets leave the edge in generation order, so generation j
    finds none of them exactly when packet j - 1 has left by gen[j] and
    packet j itself has not (at j = 0 only the latter applies).
    """
    idle = gen[W:M] < edge_done[W:M]
    if W:
        idle &= edge_done[W - 1:M - 1] <= gen[W:M]
    else:
        idle[1:] &= edge_done[:M - 1] <= gen[1:M]
    return idle


def _run_replication(cfg: SystemConfig, params: SimParams, rep: int):
    """Simulate one replication; returns (cols, offsets, peaks).

    cols maps each column name to an array in UE-major layout (see the
    module docstring) and offsets[n]:offsets[n + 1] is UE n's range.
    peaks lists the largest number in system at the edge, transmission
    and each local queue, in that order; a pass-through stage has 0.
    """
    rates = derive_rates(cfg)
    N = cfg.num_ues
    per_ue_times = _generate_arrivals(cfg, params.seed, rep, params.packets_per_ue)
    offsets = np.zeros(N + 1, dtype=np.intp)
    offsets[1:] = np.cumsum([len(t) for t in per_ue_times])
    gen = np.concatenate(per_ue_times)
    del per_ue_times
    K = len(gen)
    # deterministic merge: time, then UE id, then sequence number (the
    # stable sort keeps the UE-major order among equal times)
    order = np.argsort(gen, kind="stable")
    peaks = [0] * (N + 2)
    cols = {"gen": gen}

    def ue_major(merged):
        out = np.empty_like(merged)
        out[order] = merged
        return out

    # The shared stages run in merge order; each merged array is scattered
    # to UE-major order and released at once, which bounds peak memory.
    # Stage 1: shared edge computation server at the effective rate.
    arrivals = gen[order]
    if math.isinf(rates.eff_edge):
        edge_done, wait_edge = arrivals, np.zeros(K)
    else:
        s_edge = _stream(params.seed, rep, N).standard_exponential(K) / rates.eff_edge
        edge_done, wait_edge = _lindley(arrivals, s_edge)
        del s_edge
        peaks[0] = _peak(arrivals, edge_done)
        if params.record_correlations:
            cols["edge_found"] = ue_major(_found(arrivals, edge_done))
    del arrivals
    cols["wait_edge"] = ue_major(wait_edge)
    del wait_edge

    # Stage 2: shared transmission server (always a real stage).
    s_tx = _stream(params.seed, rep, N + 1).standard_exponential(K) / cfg.tx_rate
    tx_done, wait_tx = _lindley(edge_done, s_tx)
    del s_tx
    peaks[1] = _peak(edge_done, tx_done)
    cols["edge_done"] = ue_major(edge_done)
    del edge_done
    cols["tx_done"] = ue_major(tx_done)
    del tx_done
    cols["wait_tx"] = ue_major(wait_tx)
    del wait_tx

    # Stage 3: one local computation server per UE, over its own range.
    cols["local_done"] = cols["tx_done"].copy()
    cols["wait_local"] = np.zeros(K)
    for n in range(N):
        u = rates.eff_local[n]
        if math.isinf(u):
            continue
        ue = slice(offsets[n], offsets[n + 1])
        s_loc = (_stream(params.seed, rep, N + 2 + n)
                 .standard_exponential(ue.stop - ue.start) / u)
        cols["local_done"][ue], cols["wait_local"][ue] = _lindley(
            cols["tx_done"][ue], s_loc)
        peaks[2 + n] = _peak(cols["tx_done"][ue], cols["local_done"][ue])
    return cols, offsets, peaks


def _estimate_ue(ue: dict, M: int, W: int, want_corr: bool):
    """Point estimates for one UE from one replication.

    ue maps column names to that UE's arrays, in generation order. Uses
    generation pairs (j-1, j) with both packets inside the retained
    window [W, M); the first retained packet only anchors its successor's
    inter-generation gap. Each gap Y_j together with the system time T_j
    adds Y_j^2/2 + Y_j T_j of integrated age, so the AoI estimate is
    sum(Y^2/2 + Y T) / sum(Y) (Kaul, Yates and Gruteser, INFOCOM 2012);
    the age peaks just before each delivery at Y_j + T_j.
    """
    cur, prev = slice(W + 1, M), slice(W, M - 1)
    gen = ue["gen"]
    y = gen[cur] - gen[prev]
    t_sys = ue["local_done"][cur] - gen[cur]
    q = 0.5 * y * y + y * t_sys
    aoi = float(np.sum(q) / np.sum(y))
    paoi = float(np.mean(y + t_sys))
    out = {"aoi": aoi, "paoi": paoi}
    if want_corr:
        w_e = ue["wait_edge"][cur]
        w_d = ue["wait_tx"][cur]
        w_u = ue["wait_local"][cur]
        # catch-up event: packet j clears the edge stage before packet j-1
        # clears the transmission server
        caught = ue["edge_done"][cur] < ue["tx_done"][prev]
        out["yw_edge"] = float(np.mean(y * w_e))
        out["yw_tx"] = float(np.mean(y * w_d))
        out["yw_local"] = float(np.mean(y * w_u))
        out["phi_bjd"] = float(np.mean(y * w_d * caught))
        out["phi_ljd"] = float(np.mean(y * w_d * ~caught))
        out["phi_bju"] = float(np.mean(y * w_u * caught))
        out["phi_lju"] = float(np.mean(y * w_u * ~caught))
        for name, w in (("cov_y_wedge", w_e), ("cov_y_wtx", w_d),
                        ("cov_y_wlocal", w_u)):
            out[name] = float(np.mean(y * w) - np.mean(y) * np.mean(w))
    return out


def _replication_summary(cfg: SystemConfig, params: SimParams, rep: int):
    """One replication reduced to what _fold pools across them.

    Returns (estimates, hists, peaks, sim_time): the _estimate_ue dict of
    each UE; each UE's histogram of the others' packets found at the edge
    node by generations that find none of its own, empty when edge_found
    is not recorded; the peak queues of _run_replication; and the last
    delivery time. Small enough to return from a worker process.
    """
    M = params.packets_per_ue
    W = params.warmup()
    cols, offsets, peaks = _run_replication(cfg, params, rep)
    estimates = []
    hists = []
    for n in range(cfg.num_ues):
        ue = {k: v[offsets[n]:offsets[n + 1]] for k, v in cols.items()}
        estimates.append(_estimate_ue(ue, M, W, params.record_correlations))
        if "edge_found" in ue:
            # the geometric law conditions on finding none of the UE's
            # own packets at the edge node: all it finds is other UEs'
            hists.append(np.bincount(ue["edge_found"][W:M][
                _own_idle(ue["gen"], ue["edge_done"], W, M)]))
        else:
            hists.append(np.zeros(0, np.intp))
    return estimates, hists, peaks, float(cols["local_done"].max())


# Below this many packets (N * M * R) a call runs its replications in a
# plain loop: opening and joining the pool costs about 15-35 ms, more in a
# larger parent, which is more than a second core saves on a short call.
# On 2 cores (3 UEs, partial p = 0.5, medians of 5) the pool took 24 against
# 8 ms serially at 24k packets, broke even near 120k-180k (180k: 68 against
# 59 ms with scipy and pytest loaded), and won from 300k (69-103 against
# 85-145 ms) to 1.5M (253 against 397 ms).
PARALLEL_MIN_PACKETS = 250_000


def _summaries(jobs) -> list:
    """_replication_summary of every (job, rep), job by job, in rep order."""
    cfgs = [cfg for cfg, par in jobs for _ in range(par.replications)]
    params = [par for _, par in jobs for _ in range(par.replications)]
    reps = [rep for _, par in jobs for rep in range(par.replications)]
    workers = max_workers(len(reps))
    packets = sum(c.num_ues * p.packets_per_ue for c, p in zip(cfgs, params))
    if (workers > 1 and packets >= PARALLEL_MIN_PACKETS
            and threading.active_count() == 1):
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(
                    max_workers=workers,
                    mp_context=multiprocessing.get_context("fork")) as pool:
                return list(pool.map(_replication_summary, cfgs, params, reps))
    return list(map(_replication_summary, cfgs, params, reps))


def _t_central_mass(t: float, df: int) -> float:
    """P(|T| < t) for Student's t with integer df >= 1 and t >= 0.

    Abramowitz & Stegun 26.7.3 (odd df) and 26.7.4 (even df), series in
    cos^2(theta) = 1 / (1 + t^2/df). The powers are taken as
    exp(-k * log1p(t^2/df)): cos^2(theta) is close to 1 at large df, and
    rounding it to a double first would cost about k ulps in its k-th
    power.
    """
    x = t * t / df
    log_c2 = -math.log1p(x)
    total, coef = 0.0, 1.0
    if df % 2:
        for k in range((df - 1) // 2):
            total += coef * math.exp(k * log_c2)
            coef *= (2 * k + 2) / (2 * k + 3)
        sin_cos = math.sqrt(x) / (1.0 + x)
        return 2.0 / math.pi * (math.atan(t / math.sqrt(df)) + sin_cos * total)
    for k in range(df // 2):
        total += coef * math.exp(k * log_c2)
        coef *= (2 * k + 1) / (2 * k + 2)
    return math.sqrt(x / (1.0 + x)) * total


def _t_quantile(p: float, df: int) -> float:
    """Quantile of Student's t with integer df >= 1, for 0.5 <= p < 1.

    df 1 and 2 have closed forms. Otherwise Newton's method on the
    central mass, 2p - 1 = P(|T| < t), from t = 0: the mass is concave
    in t >= 0, so the iterates rise monotonically onto the root. At
    p = 0.975 it takes at most 9 steps for df up to 1000, and it
    agrees with scipy.stats.t.ppf to about 1e-14 relative there;
    accuracy degrades in the far tail, where 2p - 1 rounds.
    """
    if df == 1:
        # cot(pi (1 - p)); tan(pi (p - 1/2)) is 1 ulp off at p = 0.975
        q = math.pi * (1.0 - p)
        return math.cos(q) / math.sin(q)
    if df == 2:
        return (2.0 * p - 1.0) / math.sqrt(2.0 * p * (1.0 - p))
    target = 2.0 * p - 1.0
    # twice the density at t = 0; the density at t is this times
    # (1 + t^2/df)^(-(df+1)/2)
    peak = 2.0 * math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2)) \
        / math.sqrt(df * math.pi)
    t = 0.0
    for _ in range(50):  # in the far tail the steps can stall at rounding noise
        slope = peak * math.exp(-(df + 1) / 2 * math.log1p(t * t / df))
        step = (_t_central_mass(t, df) - target) / slope
        t -= step
        if abs(step) <= 1e-12 * t:
            break
    return t


def _aggregate(values: np.ndarray) -> Estimate:
    """Pool replication-level estimates into value / SE / 95% CI."""
    r = len(values)
    mean = float(np.mean(values))
    if r < 2:
        return Estimate(mean, math.nan, math.nan)
    se = float(np.std(values, ddof=1) / math.sqrt(r))
    ci = float(_t_quantile(0.975, r - 1) * se)
    return Estimate(mean, se, ci)


def simulate_mec(cfg: SystemConfig, params: SimParams) -> SimResult:
    """Simulate the tandem system and estimate AoI / peak AoI per UE.

    Stability is not required: unstable systems simulate fine, their
    estimates just grow with run length, and the divergence flag trips
    when a queue exceeds params.queue_cap.
    """
    return simulate_many([(cfg, params)])[0]


def simulate_many(jobs) -> list[SimResult]:
    """simulate_mec of each (cfg, params) pair in the list jobs, as one
    batch (see the module docstring). Every job is checked before any
    replication runs, and each diverged job warns once, in job order."""
    for _, params in jobs:
        if params.packets_per_ue - params.warmup() < 2:
            raise InvalidParams(
                "need at least 2 retained packets per UE to form generation pairs; "
                f"got packets_per_ue={params.packets_per_ue}, warmup={params.warmup()}")
    summaries = iter(_summaries(jobs))
    results = [_fold(cfg, params, itertools.islice(summaries, params.replications))
               for cfg, params in jobs]
    level = 2  # warn at the first caller outside this module
    while sys._getframe(level - 1).f_globals is globals():
        level += 1
    for (_, params), result in zip(jobs, results):
        if result.diagnostics.diverged:
            warnings.warn(
                f"a queue exceeded {params.queue_cap} packets; the system is "
                "likely unstable and the estimates will grow with run length",
                DivergenceWarning, stacklevel=level)
    return results


def _fold(cfg: SystemConfig, params: SimParams, summaries) -> SimResult:
    """Pool one job's replication summaries, in replication order.

    Each estimate is pooled under the name _estimate_ue gives it, from one
    (replications, UEs, estimates) table: aoi and paoi come first, then the
    correlation terms in CorrelationEstimates' order. A UE's histograms add
    bin by bin; they are empty when edge_found is not recorded.
    """
    estimates, hists, peaks, times = zip(*summaries)
    names = list(estimates[0][0])
    table = np.array([[list(est.values()) for est in rep] for rep in estimates])
    # one column at a time: a 1-D reduction keeps numpy's pairwise
    # summation, where an axis-0 reduction of the table adds rows in turn
    per_ue = {name: tuple(_aggregate(table[:, n, i]) for n in range(cfg.num_ues))
              for i, name in enumerate(names)}

    correlations = None
    if params.record_correlations:
        pooled = [tuple(int(sum(bins)) for bins in itertools.zip_longest(*ue, fillvalue=0))
                  for ue in zip(*hists)]
        correlations = CorrelationEstimates(
            **{name: per_ue[name] for name in names[2:]},
            edge_others_hist_own0=tuple(pooled),
            edge_own0_samples=tuple(sum(h) for h in pooled))

    peaks = [max(queue) for queue in zip(*peaks)]
    diag = Diagnostics(
        max_edge_queue=peaks[0],
        max_tx_queue=peaks[1],
        max_local_queues=tuple(peaks[2:]),
        sim_time=max(times),
        diverged=max(peaks) > params.queue_cap,
        near_unstable=check_stability(cfg).near_unstable,
        replications=params.replications,
    )
    return SimResult(
        per_ue_aoi=per_ue["aoi"],
        per_ue_paoi=per_ue["paoi"],
        system_aoi=_aggregate(table[:, :, 0].mean(axis=1)),
        system_paoi=_aggregate(table[:, :, 1].mean(axis=1)),
        correlations=correlations,
        diagnostics=diag,
    )
