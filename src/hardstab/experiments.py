"""Experiment harnesses: the certainty-equivalent LQR minimum-sample search
and the co-stabilizability bisection sweep, with CSV emission.

The LQR experiment regresses the unknown first input coefficient from
exploration data and records the smallest trajectory length at which the
certainty-equivalent gain stabilizes the truth in enough trials.  A gain
stabilizes exactly when the estimate lies in an interval located once per
dimension, so the search counts interval membership and runs synthesis only
to check the answer.  Regression data uses the exact transition
residuals b1 u + w recorded at generation time: re-deriving them from stored
states is numerically impossible here, because open-loop states grow like
r^t and swallow the O(1) residual information long before the divergence
guard trips.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Generator, Iterator, Optional, Sequence

import numpy as np

from .lmi import BISECTION_TOLERANCE, bisect_largest_m
from .numerics import Prng
from .synthesis import FeedbackGain, ce_lqr_gain, is_stabilizing
from .systems import CSV_FLOAT, HardFamilyParams, InputPolicy, hard_system


@dataclass(frozen=True)
class CeLqrConfig:
    """Defaults follow the reference experiment: 200 trials, 90% success,
    sigma_u^2 = 32, sigma_w^2 = 0.005, r = 3.2."""

    n_values: Sequence[int] = (2, 3, 4, 5, 6, 7, 8)
    r: float = 3.2
    v: float = 1.01
    true_b1: float = 0.0
    sigma_u2: float = 32.0
    sigma_w2: float = 0.005
    trials: int = 200
    success_threshold: float = 0.9
    max_probe_length: int = 10**6
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.success_threshold <= 1:
            raise ValueError("success threshold must lie in (0, 1]")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        # sigma_u2 = 0 would make every estimate 0/0, and a negative variance
        # has no square root; either row would stream to max_probe_length
        if not self.sigma_u2 > 0:
            raise ValueError("sigma_u2 must be positive")
        if not self.sigma_w2 >= 0:
            raise ValueError("sigma_w2 must be nonnegative")


@dataclass(frozen=True)
class CeLqrRow:
    n: int
    min_n: Optional[int]
    rate_at_min_n: float
    synthesis_failures: int
    # "ok": min_N found and the direct check agrees with interval membership;
    # "saturated": no N up to max_probe_length reaches the threshold;
    # "interval-mismatch": direct synthesis contradicted interval membership
    # at a checked N, so min_N rests on a model the row disproved.
    status: str
    wall_time_s: float


@dataclass(frozen=True)
class CeLqrResult:
    config: CeLqrConfig
    rows: tuple[CeLqrRow, ...]

    CSV_HEADER = "n,min_N,rate_at_min_N,synthesis_failures,status,wall_time_s"

    def csv_lines(self, include_wall_time: bool = True) -> list[str]:
        lines = [self.CSV_HEADER if include_wall_time else self.CSV_HEADER.rsplit(",", 1)[0]]
        for row in self.rows:
            fields = [
                str(row.n),
                "" if row.min_n is None else str(row.min_n),
                CSV_FLOAT % row.rate_at_min_n,
                str(row.synthesis_failures),
                row.status,
            ]
            if include_wall_time:
                fields.append("%.3f" % row.wall_time_s)
            lines.append(",".join(fields))
        return lines


class _CeDecision:
    """Stabilization decision of the certainty-equivalent gain as a function
    of the estimate: one decision for a float, an array of them for a 1-D
    array of estimates, from one stacked Riccati solve and one stacked
    stability test."""

    def __init__(self, params: HardFamilyParams):
        self.params = params
        self.true_system = hard_system(params)

    def outcomes(self, b1_hats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(stable, failed) masks for a 1-D array of estimates; an estimate
        whose Riccati solve failed does not stabilize."""
        gains, failed = ce_lqr_gain(self.params, b1_hats)
        stable = np.zeros(failed.shape, dtype=bool)
        if not failed.all():
            solved = FeedbackGain(k=gains.k[~failed])
            stable[~failed] = is_stabilizing(self.true_system, solved).stable
        return stable, failed

    def __call__(self, b1_hat):
        stable, _ = self.outcomes(np.atleast_1d(b1_hat))
        return stable if np.ndim(b1_hat) else bool(stable[0])


def _stable_edge(center: float, step: float) -> Generator[float, bool, float]:
    """Search for the farthest stable estimate from the stable truth
    ``center`` in the direction of ``step``, as a generator that yields each
    estimate to decide and is sent its decision: double the offset from the
    truth while it stays stable (up to 1e6), then bisect between the last
    stable and the first unstable estimate until their midpoint rounds to
    one of them (at most 60 times).  Returns the edge; no estimate is
    decided twice."""
    stable, offset = center, step
    while (yield center + offset):
        stable, offset = center + offset, 2 * offset
        if abs(offset) > 1e6:
            break
    unstable = center + offset
    for _ in range(60):
        mid = 0.5 * (stable + unstable)
        if mid == stable or mid == unstable:
            break
        if (yield mid):
            stable = mid
        else:
            unstable = mid
    return stable


def _stability_interval(
    decide: _CeDecision, center: float, scale: float
) -> tuple[float, float]:
    """Connected component (lo, hi) of the stable estimate set around the
    truth ``center``, located by doubling expansion and bisection; (center,
    center) when the truth itself does not stabilize.  The two edges are
    searched in lockstep: each call decides the next estimate of every side
    still searching, as one stack, so each side sees the decisions it would
    see alone."""
    if not decide(center):
        return (center, center)
    searches = [_stable_edge(center, -scale), _stable_edge(center, scale)]
    pending = {side: next(search) for side, search in enumerate(searches)}
    edges = [center, center]
    while pending:
        sides = list(pending)
        stable = decide(np.array([pending[side] for side in sides]))
        for side, verdict in zip(sides, stable):
            try:
                pending[side] = searches[side].send(bool(verdict))
            except StopIteration as done:
                edges[side] = done.value
                del pending[side]
    return (edges[0], edges[1])


# Successive trajectory lengths the search stops at grow by this factor
_GRID_RATIO = 1.2


def _grid_points(start: int, cap: int) -> list[int]:
    points = [start]
    while points[-1] < cap:
        nxt = max(points[-1] + 1, int(round(points[-1] * _GRID_RATIO)))
        points.append(min(nxt, cap))
    return points


# Estimates held at once per stream chunk (a trials x columns float64 array),
# so long segments near max_probe_length stay a few MiB.
_CHUNK_ESTIMATES = 1 << 18


def _estimate_chunks(
    config: CeLqrConfig, n: int, stops: Sequence[int]
) -> Iterator[tuple[int, np.ndarray, bool]]:
    """Yield (N0, estimates, at_stop) for the least-squares estimates
    b1_hat(N) = sum(u res) / sum(u u) of every trial (one row each) at
    N = N0 + 1 .. N0 + width, chunk by chunk; chunks end at every stop, where
    at_stop is True.

    Trial i owns the persistent stream Prng(seed, i), read by the i.i.d.
    Gaussian policy's InputPolicy.open_loop, as simulate() reads it.  The
    prefix sums continue from the previous chunk's last column, so every
    estimate is bit-identical to a cumsum over the whole path.
    """
    generators = [Prng(config.seed, i).generator for i in range(config.trials)]
    policy = InputPolicy.iid_gaussian(config.sigma_u2)
    sigma_w = np.sqrt(config.sigma_w2)
    chunk = max(1, _CHUNK_ESTIMATES // config.trials)
    sums_uu = np.zeros(config.trials)  # each trial's sums up to N0
    sums_ur = np.zeros(config.trials)
    consumed = 0
    for stop in stops:
        while consumed < stop:
            width = min(chunk, stop - consumed)
            b_hats = np.empty((config.trials, width))
            for i, gen in enumerate(generators):
                u, noise = policy.open_loop((gen,), 1, width, n)
                u = u[0]
                res = config.true_b1 * u + sigma_w * noise[0, :, 0]
                cum_uu = np.cumsum(np.concatenate(([sums_uu[i]], u * u)))[1:]
                cum_ur = np.cumsum(np.concatenate(([sums_ur[i]], u * res)))[1:]
                sums_uu[i] = cum_uu[-1]
                sums_ur[i] = cum_ur[-1]
                np.divide(cum_ur, cum_uu, out=b_hats[i])
            yield consumed, b_hats, consumed + width == stop
            consumed += width


def _run_ce_lqr_single(config: CeLqrConfig, n: int) -> CeLqrRow:
    """Minimum-sample search in one streaming pass.

    Each decision depends on the estimate only, and the stable estimates
    form the interval located once by _stability_interval, so the rate at
    every N is the share of trials whose estimate lies inside it.  Streams
    advance from one grid point to the next; at the first grid point whose
    rate reaches the threshold, min_N is the smallest N since the previous
    grid point that does.  Direct CE-LQR synthesis then decides every trial
    at min_N and min_N - 1 (at the last grid point when the search
    saturates), each length as one stack; any disagreement with interval
    membership marks the row "interval-mismatch".  The reported rate is the
    direct one, and the stacks' failure masks give synthesis_failures.
    """
    t0 = time.perf_counter()
    params = HardFamilyParams(n=n, r=config.r, v=config.v, b1=config.true_b1)
    decide = _CeDecision(params)
    lower, upper = _stability_interval(decide, params.b1, scale=1e-6)

    trials = config.trials
    threshold = config.success_threshold
    grid = _grid_points(n + 1, config.max_probe_length)

    min_n = None
    hit = None  # (N, estimates at N and N - 1): first pass since the last failing point
    previous = None  # estimates at the last N streamed
    for start, b_hats, at_point in _estimate_chunks(config, n, grid):
        members = np.count_nonzero((b_hats > lower) & (b_hats < upper), axis=0)
        passing = members / trials >= threshold
        if hit is None and passing.any():
            k = int(np.argmax(passing))
            before = b_hats[:, k - 1].copy() if k else previous
            hit = (start + 1 + k, b_hats[:, k].copy(), before)
        previous = b_hats[:, -1].copy()
        if not at_point:
            continue
        if passing[-1]:
            min_n, at_min, before = hit
            checked = [at_min] if before is None else [at_min, before]
            break
        hit = None
    else:
        checked = [previous]

    outcomes = [decide.outcomes(estimates) for estimates in checked]
    if not all(
        np.array_equal(direct, (estimates > lower) & (estimates < upper))
        for (direct, _), estimates in zip(outcomes, checked)
    ):
        status = "interval-mismatch"
    else:
        status = "saturated" if min_n is None else "ok"
    return CeLqrRow(
        n=n,
        min_n=min_n,
        rate_at_min_n=float(outcomes[0][0].mean()),
        synthesis_failures=sum(int(np.count_nonzero(failed)) for _, failed in outcomes),
        status=status,
        wall_time_s=time.perf_counter() - t0,
    )


def run_ce_lqr(config: CeLqrConfig) -> CeLqrResult:
    """Minimum-sample search across dimensions; deterministic given the seed
    (wall times excepted)."""
    rows = tuple(_run_ce_lqr_single(config, n) for n in config.n_values)
    return CeLqrResult(config=config, rows=rows)


LMI_SWEEP_HEADER = "n,r,v,largest_m,log10_largest_m,sup_bound,iterations,status"


@dataclass(frozen=True)
class LmiSweepRow:
    n: int
    r: float
    v: float
    largest_m: float
    sup_bound: float
    iterations: int
    status: str

    def csv_fields(self) -> list[str]:
        log10_m = np.log10(self.largest_m) if self.largest_m > 0 else float("-inf")
        return [
            str(self.n),
            CSV_FLOAT % self.r,
            CSV_FLOAT % self.v,
            CSV_FLOAT % self.largest_m,
            CSV_FLOAT % log10_m,
            CSV_FLOAT % self.sup_bound,
            str(self.iterations),
            self.status,
        ]


def run_lmi_sweep(
    n_values: Sequence[int], r: float, v: float, tolerance: float = BISECTION_TOLERANCE
) -> list[LmiSweepRow]:
    rows = []
    for n in n_values:
        params = HardFamilyParams(n=n, r=r, v=v)
        result = bisect_largest_m(params, tolerance=tolerance)
        rows.append(
            LmiSweepRow(
                n=n,
                r=r,
                v=v,
                largest_m=result.largest_feasible_m,
                sup_bound=result.sup_bound,
                iterations=result.iterations,
                status="conservative" if result.conservative else "ok",
            )
        )
    return rows


def lmi_sweep_csv_lines(rows: Sequence[LmiSweepRow]) -> list[str]:
    return [LMI_SWEEP_HEADER] + [",".join(row.csv_fields()) for row in rows]


def write_csv_lines(path, lines: Sequence[str]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
