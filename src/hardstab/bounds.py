"""Information-theoretic quantities: the trajectory-distribution KL upper
bound, a Monte-Carlo KL estimator, and the Birgé-based sample-complexity
lower bound.

All divergences are in nats.  Log plots elsewhere use base 10; convert at
presentation time only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import Prng
from .systems import CSV_FLOAT, HardFamilyParams, HardPair, InputPolicy, simulate


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
    trials: int = 0
    seed: int = 0

    CSV_HEADER = "horizon,m,sigma_u2,sigma_w2,analytic,mc,mc_se,trials,seed"

    def csv_row(self) -> str:
        fields = [
            str(self.horizon),
            CSV_FLOAT % self.m,
            CSV_FLOAT % self.sigma_u2,
            CSV_FLOAT % self.sigma_w2,
            CSV_FLOAT % self.analytic_bound,
            CSV_FLOAT % self.mc_estimate,
            CSV_FLOAT % self.mc_std_error,
            str(self.trials),
            str(self.seed),
        ]
        return ",".join(fields)


@dataclass(frozen=True)
class BirgeSpec:
    """Inputs of the sample-complexity lower bound."""

    delta: float
    params: HardFamilyParams
    sigma_u2: float
    sigma_w2: float

    def __post_init__(self):
        if not 0 < self.delta < 0.5:
            raise ValueError(f"confidence level delta must lie in (0, 1/2), got {self.delta}")
        if not (self.sigma_u2 > 0 and self.sigma_w2 > 0):
            raise ValueError("sigma_u2 and sigma_w2 must be positive")


@dataclass(frozen=True)
class BirgeThreshold:
    exact: float
    relaxed: float


@dataclass(frozen=True)
class BirgeBound:
    min_samples: float
    theorem_m: float


def kl_upper_bound(horizon: int, m: float, sigma_u2: float, sigma_w2: float) -> float:
    """N m^2 sigma_u^2 / (2 sigma_w^2), in nats."""
    if not sigma_w2 > 0:
        raise DegenerateNoiseError("sigma_w2 must be positive for the KL bound")
    if horizon < 0 or not sigma_u2 >= 0:
        raise ValueError("horizon and sigma_u2 must be nonnegative")
    return horizon * m * m * sigma_u2 / (2.0 * sigma_w2)


# Cap on the float64 stream draws kl_monte_carlo holds at once (64 KiB): a
# chunk of trials of at most this many draws, but at least one trial.
# The chunk and its log-ratio temporaries add to peak memory; 2**14 measurably
# raised it, 2**13 did not and was as fast.
_CHUNK_ELEMENTS = 1 << 13


def _log_ratios(m: float, u: np.ndarray, w1: np.ndarray, sigma_w2: float) -> np.ndarray:
    """Per-trajectory log-likelihood ratios: the residual form summed over
    the last (time) axis of inputs u and first-coordinate noise w1."""
    return (((w1 - m * u) ** 2 - w1**2) / (2.0 * sigma_w2)).sum(axis=-1)


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
    the rng's (seed, stream).  Trials are taken a chunk of consecutive
    trials at a time, and each chunk's ratios are computed in one array
    expression.  Open-loop policies read the chunk's streams through one
    Prng.streams() iterator; a custom policy rolls the chunk out in lockstep
    through one simulate() call, each trial on its own Prng, so the
    estimate is bit for bit what one simulate() call per trial gives.  A
    trial whose state leaves simulate()'s divergence guard (including a
    non-finite state) raises DivergedTrajectoryError at the first step at
    which any trial of its chunk does.
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
    sigma_w = math.sqrt(sigma_w2)
    streams = rng.streams(trials)
    per_chunk = max(1, _CHUNK_ELEMENTS // (horizon * (n + 1)))
    log_ratios = np.empty(trials)
    for start in range(0, trials, per_chunk):
        count = min(per_chunk, trials - start)
        if policy.kind == "custom":
            chunk = [rng.spawn(rng.stream + i) for i in range(start, start + count)]
            trajectories = simulate(pair.s1, policy, horizon, chunk)
            u = np.array([traj.inputs for traj in trajectories])
            # b1 = 0 under s1, so the residuals are the noise w1
            w1 = np.array([traj.first_coord_residuals for traj in trajectories])
        else:
            # state feedback never enters the ratio, so states need not be formed
            u, draws = policy.open_loop(streams, count, horizon, n)
            w1 = sigma_w * draws[:, :, 0]
        log_ratios[start : start + count] = _log_ratios(m, u, w1, sigma_w2)

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


def birge_min_samples(spec: BirgeSpec) -> BirgeBound:
    """Minimum trajectory length (sigma_w^2 / (2 sigma_u^2)) ((r-1)/(2v))^(2n)
    log(1/(3 delta)) below which high-confidence stabilization is impossible."""
    params = spec.params
    ratio = (params.r - 1.0) / (2.0 * params.v)
    min_samples = (
        spec.sigma_w2
        / (2.0 * spec.sigma_u2)
        * ratio ** (2 * params.n)
        * birge_kl_threshold(spec.delta).relaxed
    )
    return BirgeBound(min_samples=min_samples, theorem_m=params.theorem_m)
