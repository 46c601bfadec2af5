"""Information-theoretic quantities: the trajectory-distribution KL upper
bound, a Monte-Carlo KL estimator, and the Birgé-based sample-complexity
lower bound.

All divergences are in nats.  Log plots elsewhere use base 10; convert at
presentation time only.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .numerics import Prng
from .systems import HardFamilyParams, HardPair, InputPolicy, csv_line, open_loop_batch, simulate


class DegenerateNoiseError(ValueError):
    """KL quantities need nondegenerate process noise (sigma_w^2 > 0)."""


@dataclass(frozen=True)
class KlReport:
    """Analytic KL bound beside its Monte-Carlo estimate (both in nats)."""

    analytic_bound: float
    mc_estimate: float
    mc_std_error: float
    horizon: int
    m: float
    sigma_u2: float
    sigma_w2: float
    trials: int
    seed: int

    CSV_HEADER = "horizon,m,sigma_u2,sigma_w2,analytic,mc,mc_se,trials,seed"

    def csv_row(self) -> str:
        return csv_line([
            self.horizon, self.m, self.sigma_u2, self.sigma_w2, self.analytic_bound,
            self.mc_estimate, self.mc_std_error, self.trials, self.seed,
        ])


@dataclass(frozen=True)
class BirgeThreshold:
    exact: float
    relaxed: float


def kl_upper_bound(horizon: int, m: float, sigma_u2: float, sigma_w2: float) -> float:
    """N m^2 sigma_u^2 / (2 sigma_w^2), in nats."""
    if not 0 < sigma_w2 < math.inf:
        raise DegenerateNoiseError("sigma_w2 must be positive and finite for the KL bound")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if not 0 <= sigma_u2 < math.inf:
        raise ValueError("sigma_u2 must be nonnegative and finite")
    if not math.isfinite(m):
        raise ValueError(f"m must be finite, got {m}")
    return horizon * m * m * sigma_u2 / (2.0 * sigma_w2)


def _log_ratios(m: float, u: np.ndarray, w1: np.ndarray, sigma_w2: float) -> np.ndarray:
    """Per-trajectory log-likelihood ratios: the residual form summed over
    the last (time) axis of inputs u and first-coordinate noise w1."""
    return (((w1 - m * u) ** 2 - w1**2) / (2.0 * sigma_w2)).sum(axis=-1)


def _ratios(
    pair: HardPair,
    policy: InputPolicy,
    horizon: int,
    rng: Prng,
    per_chunk: int,
    first: int,
    stop: int,
) -> np.ndarray:
    """Log-ratios of trials first, ..., stop - 1 (trial i on stream
    rng.stream + i), computed per_chunk consecutive trials at a time."""
    n = pair.s1.n
    sigma_w2 = pair.s1.noise_variance
    if policy.kind != "custom":
        streams = rng.spawn(rng.stream + first).streams(stop - first)
    log_ratios = np.empty(stop - first)
    for start in range(first, stop, per_chunk):
        count = min(per_chunk, stop - start)
        if policy.kind == "custom":
            chunk = [rng.spawn(rng.stream + i) for i in range(start, start + count)]
            trajectories = simulate(pair.s1, policy, horizon, chunk)
            u = np.array([traj.inputs for traj in trajectories])
            # b1 = 0 under s1, so the residuals are the noise w1
            w1 = np.array([traj.first_coord_residuals for traj in trajectories])
        else:
            # state feedback never enters the ratio, so states need not be formed
            u, draws = policy.open_loop(streams, count, horizon, n)
            w1 = math.sqrt(sigma_w2) * draws[:, :, 0]
        log_ratios[start - first : start - first + count] = _log_ratios(pair.m, u, w1, sigma_w2)
    return log_ratios


def _usable_cpus() -> int:
    """The CPUs this process may run on, or 1 where that is unknown
    (os.sched_getaffinity is Linux-only) or forking is unsafe: a forked
    child keeps only the calling thread, so a lock that another live thread
    holds would stay held in it for good."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def kl_monte_carlo(
    pair: HardPair,
    policy: InputPolicy,
    horizon: int,
    trials: int,
    rng: Prng,
) -> KlReport:
    """Monte-Carlo estimate of KL between the trajectory laws of the pair.

    Samples under the b1 = 0 system and averages per-trajectory
    log-likelihood ratios.  Only the first coordinate's transition density
    differs between the siblings, so the ratio reduces to the residual form
    ((w - m u)^2 - w^2) / (2 sigma_w^2) summed over steps.  Trial i draws
    from stream index rng.stream + i, so the estimate is deterministic given
    the rng's (seed, stream).  Trials are taken a chunk of
    open_loop_batch(horizon, n) consecutive trials at a time, and each
    chunk's ratios are computed in one array expression.  Open-loop
    policies read the chunk's streams through one Prng.streams() iterator;
    a custom policy rolls the chunk out in lockstep through one simulate()
    call, each trial on its own Prng, so the estimate is bit for bit what
    one simulate() call per trial gives.

    The chunks are split into contiguous parts, one per usable CPU (the CPUs
    os.sched_getaffinity allows, at most one per chunk; one part when that
    call is missing or another thread is alive, since forking then is
    unsafe).  This process computes the first part; each other part is
    computed in a child made with os.fork(), which writes its ratios into an
    array shared with this process.  A trial's ratio depends on its own
    stream only, and the mean and standard error are taken over all trials
    at once, so the report is the same bit for bit for any number of parts.
    A part whose child does not exit with status 0 (a child killed by a
    signal included) is computed again in this process, in trial order, so a
    trial whose state leaves simulate()'s divergence guard (including a
    non-finite state) raises the DivergedTrajectoryError a single process
    raises: at the first step at which any trial of the first such chunk
    does.  No child outlives the call, whether it returns or raises.
    """
    if trials < 100:
        raise ValueError(f"need at least 100 trials, got {trials}")
    sigma_w2 = pair.s1.noise_variance
    if not sigma_w2 > 0:
        raise DegenerateNoiseError("pair noise variance must be positive")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")

    m = pair.m
    n = pair.s1.n
    per_chunk = open_loop_batch(horizon, n)
    chunks = -(-trials // per_chunk)
    workers = min(_usable_cpus(), chunks)
    edges = [min(trials, chunks * k // workers * per_chunk) for k in range(workers + 1)]
    parts = list(zip(edges, edges[1:]))
    work = (pair, policy, horizon, rng, per_chunk)
    import mmap  # not at module level: numpy does not load it, so it would cost start-up time

    # an anonymous mapping is shared across fork: each child writes its part in place
    log_ratios = np.frombuffer(mmap.mmap(-1, 8 * trials))
    children = {}  # part index -> pid of a child not yet reaped
    try:
        for k, (first, stop) in enumerate(parts[1:], 1):
            try:
                pid = os.fork()
            except OSError:  # no process to be had: this process computes the rest
                break
            if pid == 0:
                # never return into the caller's stack, run atexit handlers or flush
                # the parent's stdio buffers: every path leaves through os._exit
                code = 1
                try:
                    log_ratios[first:stop] = _ratios(*work, first, stop)
                    code = 0
                finally:
                    os._exit(code)
            children[k] = pid
        for k, (first, stop) in enumerate(parts):
            if k in children:
                status = os.waitpid(children[k], 0)[1]
                del children[k]
                if os.waitstatus_to_exitcode(status) == 0:
                    continue
            log_ratios[first:stop] = _ratios(*work, first, stop)
    finally:
        if children:
            import signal  # only on this path: the module costs start-up time

            for pid in children.values():
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)

    estimate = float(np.mean(log_ratios))
    std_error = float(np.std(log_ratios, ddof=1) / math.sqrt(trials))
    sigma_u2 = policy.input_power(horizon)
    return KlReport(
        analytic_bound=kl_upper_bound(horizon, m, sigma_u2, sigma_w2)
        if not math.isnan(sigma_u2)
        else float("nan"),
        mc_estimate=estimate,
        mc_std_error=std_error,
        horizon=horizon,
        m=m,
        sigma_u2=sigma_u2,
        sigma_w2=sigma_w2,
        trials=trials,
        seed=rng.seed,
    )


def birge_kl_threshold(delta: float) -> BirgeThreshold:
    """Birgé's two-point KL threshold and its log(1/(3 delta)) relaxation."""
    if not 0 < delta < 0.5:
        raise ValueError(f"delta must lie in (0, 1/2), got {delta}")
    exact = (1 - delta) * math.log((1 - delta) / delta) + delta * math.log(delta / (1 - delta))
    relaxed = math.log(1.0 / (3.0 * delta))
    return BirgeThreshold(exact=exact, relaxed=relaxed)


def birge_min_samples(
    params: HardFamilyParams, delta: float, sigma_u2: float, sigma_w2: float
) -> float:
    """Minimum trajectory length (sigma_w^2 / (2 sigma_u^2)) ((r-1)/(2v))^(2n)
    log(1/(3 delta)) below which high-confidence stabilization is impossible."""
    relaxed = birge_kl_threshold(delta).relaxed
    if not (0 < sigma_u2 < math.inf and 0 < sigma_w2 < math.inf):
        raise ValueError("sigma_u2 and sigma_w2 must be positive and finite")
    ratio = (params.r - 1.0) / (2.0 * params.v)
    return sigma_w2 / (2.0 * sigma_u2) * ratio ** (2 * params.n) * relaxed
