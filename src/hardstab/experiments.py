"""Experiment harnesses: the certainty-equivalent LQR minimum-sample search
and the co-stabilizability bisection sweep, with CSV emission.

The LQR experiment regresses the unknown first input coefficient from
exploration data and records the smallest trajectory length at which the
certainty-equivalent gain stabilizes the truth in enough trials.  A gain
stabilizes exactly when the estimate lies in an interval around the truth,
so the search counts interval membership, locating the interval's edges only
as precisely as the streamed estimates need, and runs synthesis only to
check the answer.  Regression data uses the exact transition
residuals b1 u + w recorded at generation time: re-deriving them from stored
states is numerically impossible here, because open-loop states grow like
r^t and swallow the O(1) residual information long before the divergence
guard trips.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .lmi import BISECTION_TOLERANCE, BisectionResult, bisect_largest_m
from .numerics import Prng
from .synthesis import ce_lqr_gain, is_stabilizing
from .systems import HardFamilyParams, InputPolicy, csv_line, hard_system, open_loop_batch


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
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.success_threshold <= 1:
            raise ValueError("success threshold must lie in (0, 1]")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        # sigma_u2 = 0 would make every estimate 0/0, an infinite variance
        # makes every estimate NaN, and a negative one has no square root;
        # each row would stream to _MAX_PROBE_LENGTH
        if not 0 < self.sigma_u2 < np.inf:
            raise ValueError("sigma_u2 must be positive and finite")
        if not 0 <= self.sigma_w2 < np.inf:
            raise ValueError("sigma_w2 must be nonnegative and finite")


@dataclass(frozen=True)
class CeLqrRow:
    n: int
    min_n: Optional[int]
    rate_at_min_n: float
    synthesis_failures: int
    # "ok": min_N found and the direct check agrees with interval membership;
    # "saturated": no N up to _MAX_PROBE_LENGTH reaches the threshold;
    # "interval-riccati-failure": a Riccati solve failed on a decision the
    # interval's edges rest on, so membership, and min_N, may be wrong;
    # "interval-mismatch": direct synthesis contradicted interval membership
    # at a checked N, so min_N rests on a model the row disproved.
    status: str
    wall_time_s: float


@dataclass(frozen=True)
class CeLqrResult:
    rows: tuple[CeLqrRow, ...]

    CSV_HEADER = "n,min_N,rate_at_min_N,synthesis_failures,status,wall_time_s"

    def csv_lines(self, include_wall_time: bool = True) -> list[str]:
        lines = [self.CSV_HEADER if include_wall_time else self.CSV_HEADER.rsplit(",", 1)[0]]
        for row in self.rows:
            fields = [row.n, row.min_n, row.rate_at_min_n, row.synthesis_failures, row.status]
            if include_wall_time:
                fields.append("%.3f" % row.wall_time_s)
            lines.append(csv_line(fields))
        return lines


class _CeDecision:
    """Stabilization decisions of the certainty-equivalent gain for a 1-D
    array of estimates, from one stacked Riccati solve and one stacked
    stability test; each estimate gets the bits it would get alone."""

    def __init__(self, params: HardFamilyParams, true_b1: float):
        self.params = params
        self.true_system = hard_system(params, true_b1)

    def outcomes(self, b1_hats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(stable, failed) masks for a 1-D array of estimates; an estimate
        whose Riccati solve failed does not stabilize."""
        gains, failed = ce_lqr_gain(self.params, b1_hats)
        stable = np.zeros(failed.shape, dtype=bool)
        if not failed.all():
            stable[~failed] = is_stabilizing(self.true_system, gains[~failed]).stable
        return stable, failed


# The interval search's doubling ladder: offsets 1e-6 * 2^j from the truth.
# Rungs up to 1e6 (j < 40) are decided; the last rung, past 1e6, counts as
# unstable without a decision.
_LADDER = 1e-6 * 2.0 ** np.arange(41)
# Bisection steps per edge; with a nonzero truth and an edge near 0 the
# bracket can halve far more often before its midpoint rounds to an end.
# A multiple of _SUBTREE_DEPTH, so every subtree is decided whole.
_MAX_BISECTIONS = 60
# Levels of each edge's bisection subtree decided per Riccati stack: 15
# estimates per side, of which the bisection takes at most 4.  A stack costs
# its slowest estimate's passes, so deeper trees save stacks until the
# extra estimates' work outweighs them (on a 2-core Xeon, depths 3 and 4
# timed alike over n = 2..6, and 5 and 6 slower).
_SUBTREE_DEPTH = 4


def _bisection_subtrees(stable: np.ndarray, unstable: np.ndarray) -> np.ndarray:
    """Midpoints of the bisection subtree of _SUBTREE_DEPTH levels below each
    bracket (stable[k], unstable[k]), one row per bracket in heap order:
    node i splits its bracket at 0.5 * (stable + unstable), and its children
    2i + 1 and 2i + 2 hold the brackets that a stable and an unstable
    verdict leave.  A node whose midpoint rounds to one of its ends is NaN,
    and so is every node below it."""
    s, u = stable[:, None], unstable[:, None]
    levels = []
    for _ in range(_SUBTREE_DEPTH):
        mid = 0.5 * (s + u)
        mid[(mid == s) | (mid == u)] = np.nan
        levels.append(mid)
        s = np.stack([mid, s], axis=2).reshape(len(stable), -1)
        u = np.stack([u, mid], axis=2).reshape(len(stable), -1)
    return np.concatenate(levels, axis=1)


class _StableInterval:
    """Connected component of the stable estimate set around the truth
    ``center``, searched only as far as the estimates asked about need.

    ``outcomes`` maps a 1-D array of estimates to their (stable, failed)
    masks, as _CeDecision.outcomes does.  One stack decides the truth, then
    the doubling ladder center -/+ _LADDER on both sides; on each side the
    last stable rung (or the truth) and the first unstable rung bracket the
    edge.  If the truth does not stabilize, both edges are the truth and the
    interval is empty.  Each later stack decides, for both sides at once,
    every midpoint of the bisection subtree _SUBTREE_DEPTH levels below each
    side's bracket; each side then walks down the path its verdicts pick,
    which is the run of midpoints a plain bisection would decide, until a
    midpoint rounds to one of its ends or the side has taken
    _MAX_BISECTIONS steps.  Each decision depends only on its estimate, so
    each edge is the one a side searched alone would find, and the nodes
    off a side's path lie outside its final bracket, so no estimate is
    decided twice.

    contains() decides the next stack only while one of its estimates lies
    in the bracket of a side that can still narrow, (unstable, stable] on
    the left and [stable, unstable) on the right.  A side's final edge lies
    in its bracket, so an estimate outside it has the same membership
    against every later edge, and the answer is the one the fully refined
    edges give.  ``failed`` tells whether a Riccati solve failed on a
    decision the edges found so far rest on: the truth, a rung up to the
    first unstable one, or a midpoint on a side's path.
    """

    def __init__(self, outcomes, center: float):
        self._outcomes = outcomes
        self._subtrees = np.zeros(2, dtype=int)  # subtree stacks each side took
        ladder = center + np.outer([-1.0, 1.0], _LADDER)
        stable, failed = outcomes(np.append(center, ladder[:, :-1]))
        if not stable[0]:
            self.failed = bool(failed[0])
            self._stable = self._unstable = np.full(2, center)
            return
        climbed = stable[1:].reshape(2, -1).cumprod(axis=1).sum(axis=1)
        used = np.arange(len(_LADDER) - 1) <= climbed[:, None]
        self.failed = bool((failed[1:].reshape(2, -1) & used).any())
        sides = np.arange(2)
        self._stable = np.where(climbed > 0, ladder[sides, climbed - 1], center)
        self._unstable = ladder[sides, climbed]

    def contains(self, b1_hats: np.ndarray) -> np.ndarray:
        """Membership of each estimate in the open interval between the
        edges."""
        while True:
            lo, hi = self._stable
            lo_unstable, hi_unstable = self._unstable
            pending = np.array(
                [
                    np.any((b1_hats > lo_unstable) & (b1_hats <= lo)),
                    np.any((b1_hats >= hi) & (b1_hats < hi_unstable)),
                ]
            )
            if not (pending.any() and self._bisect(pending)):
                return (b1_hats > lo) & (b1_hats < hi)

    def edges(self) -> tuple[float, float]:
        """(lo, hi), both sides refined to the end."""
        while self._bisect(np.ones(2, dtype=bool)):
            pass
        return (float(self._stable[0]), float(self._stable[1]))

    def _bisect(self, wanted: np.ndarray) -> bool:
        """Unless no wanted side can still narrow (False), decide one
        subtree stack for every side that can and walk each down its
        verdicts."""
        mids = _bisection_subtrees(self._stable, self._unstable)
        grow = ~np.isnan(mids[:, 0]) & (self._subtrees < _MAX_BISECTIONS // _SUBTREE_DEPTH)
        if not (wanted & grow).any():
            return False
        built = ~np.isnan(mids) & grow[:, None]
        verdicts = np.zeros(mids.shape, dtype=bool)
        failed = np.zeros(mids.shape, dtype=bool)
        verdicts[built], failed[built] = self._outcomes(mids[built])
        sides, node = np.arange(2), np.zeros(2, dtype=int)
        for _ in range(_SUBTREE_DEPTH):
            on, verdict, mid = built[sides, node], verdicts[sides, node], mids[sides, node]
            self.failed |= bool((on & failed[sides, node]).any())
            self._stable = np.where(on & verdict, mid, self._stable)
            self._unstable = np.where(on & ~verdict, mid, self._unstable)
            node = 2 * node + np.where(verdict, 1, 2)
        self._subtrees += grow
        return True


# Successive trajectory lengths the search stops at grow by this factor
_GRID_RATIO = 1.2
# Longest trajectory the search streams before it reports "saturated"
_MAX_PROBE_LENGTH = 10**6


def _grid_points(start: int, cap: int) -> list[int]:
    points = [start]
    while points[-1] < cap:
        nxt = max(points[-1] + 1, int(round(points[-1] * _GRID_RATIO)))
        points.append(min(nxt, cap))
    return points


# Running sums held at once per stream chunk (two trials x columns float64
# arrays, the second overwritten by the estimates), so long segments near
# _MAX_PROBE_LENGTH stay a few MiB.
_CHUNK_ESTIMATES = 1 << 18


def _estimate_chunks(
    config: CeLqrConfig, n: int, stops: Sequence[int]
) -> Iterator[tuple[int, np.ndarray, bool]]:
    """Yield (N0, estimates, at_stop) for the least-squares estimates
    b1_hat(N) = sum(u res) / sum(u u) of every trial (one row each) at
    N = N0 + 1 .. N0 + width, chunk by chunk; chunks end at every stop, where
    at_stop is True.

    Trial i owns the persistent stream Prng(seed, i), read by the i.i.d.
    Gaussian policy's InputPolicy.open_loop, as simulate() reads it, in
    batches of open_loop_batch(width, n) consecutive trials.  Each batch's
    products u u and u res fill its trials' rows of one (2, trials,
    width + 1) array whose first column holds the sums carried from the
    previous chunk; one cumsum along the path turns it into prefix sums, and
    one divide writes the estimates over the u res row.  A cumsum along an
    axis adds in path order, so every estimate is bit-identical to a cumsum
    over the whole path of that trial alone.
    """
    generators = [Prng(config.seed, i).generator for i in range(config.trials)]
    policy = InputPolicy.iid_gaussian(config.sigma_u2)
    sigma_w = np.sqrt(config.sigma_w2)
    chunk = max(1, _CHUNK_ESTIMATES // (2 * config.trials))
    carried = np.zeros((2, config.trials))  # each trial's sums up to N0
    consumed = 0
    for stop in stops:
        while consumed < stop:
            width = min(chunk, stop - consumed)
            batch = open_loop_batch(width, n)
            sums = np.empty((2, config.trials, width + 1))
            sums[:, :, 0] = carried
            for first in range(0, config.trials, batch):
                part = generators[first : first + batch]
                u, noise = policy.open_loop(part, len(part), width, n)
                res = config.true_b1 * u + sigma_w * noise[:, :, 0]
                rows = slice(first, first + len(part))
                np.multiply(u, u, out=sums[0, rows, 1:])
                np.multiply(u, res, out=sums[1, rows, 1:])
            np.cumsum(sums, axis=2, out=sums)
            carried = sums[:, :, -1].copy()
            b_hats = np.divide(sums[1, :, 1:], sums[0, :, 1:], out=sums[1, :, 1:])
            yield consumed, b_hats, consumed + width == stop
            consumed += width


def _run_ce_lqr_single(config: CeLqrConfig, params: HardFamilyParams) -> CeLqrRow:
    """Minimum-sample search in one streaming pass.

    Each decision depends on the estimate only, and the stable estimates
    form an interval, so the rate at every N is the share of trials whose
    estimate lies inside it.  The row's _StableInterval refines its edges
    only as far as the streamed estimates need.  Streams advance from one
    grid point to the next; at the first grid point whose rate reaches the
    threshold, min_N is the smallest N since the previous grid point that
    does.  Direct CE-LQR synthesis then decides every trial at min_N and
    min_N - 1 (at the last grid point when the search saturates) as one
    stack, min_N's estimates first.  A Riccati failure on a decision the
    interval's edges rest on marks the row "interval-riccati-failure";
    otherwise any disagreement of the direct decisions with interval
    membership marks it "interval-mismatch".  The reported rate is the
    direct one at min_N, and the stack's failure mask gives
    synthesis_failures.
    """
    t0 = time.perf_counter()
    decide = _CeDecision(params, config.true_b1)
    interval = _StableInterval(decide.outcomes, config.true_b1)

    trials = config.trials
    threshold = config.success_threshold
    grid = _grid_points(params.n + 1, _MAX_PROBE_LENGTH)

    min_n = None
    hit = None  # (N, estimates at N then N - 1): first pass since the last failing point
    previous = np.empty(0)  # estimates at the last N streamed (none before N = 1)
    for start, b_hats, at_point in _estimate_chunks(config, params.n, grid):
        members = np.count_nonzero(interval.contains(b_hats), axis=0)
        passing = members / trials >= threshold
        if hit is None and passing.any():
            k = int(np.argmax(passing))
            before = b_hats[:, k - 1] if k else previous
            hit = (start + 1 + k, np.concatenate([b_hats[:, k], before]))
        previous = b_hats[:, -1].copy()
        if not at_point:
            continue
        if passing[-1]:
            min_n, checked = hit
            break
        hit = None
    else:
        checked = previous

    stable, failed = decide.outcomes(checked)
    members = interval.contains(checked)
    if interval.failed:
        status = "interval-riccati-failure"
    elif not np.array_equal(stable, members):
        status = "interval-mismatch"
    else:
        status = "saturated" if min_n is None else "ok"
    return CeLqrRow(
        n=params.n,
        min_n=min_n,
        rate_at_min_n=float(stable[:trials].mean()),
        synthesis_failures=int(np.count_nonzero(failed)),
        status=status,
        wall_time_s=time.perf_counter() - t0,
    )


def run_ce_lqr(config: CeLqrConfig) -> CeLqrResult:
    """Minimum-sample search across dimensions; deterministic given the seed
    (wall times excepted); every row's family is checked first."""
    families = [HardFamilyParams(n=n, r=config.r, v=config.v) for n in config.n_values]
    rows = tuple(_run_ce_lqr_single(config, params) for params in families)
    return CeLqrResult(rows=rows)


LMI_SWEEP_HEADER = "n,r,v,largest_m,log10_largest_m,sup_bound,iterations,status"


def run_lmi_sweep(
    n_values: Sequence[int], r: float, v: float, tolerance: float = BISECTION_TOLERANCE
) -> list[BisectionResult]:
    """One bisection per n, each a row of the sweep; every row's family is
    checked first."""
    families = [HardFamilyParams(n=n, r=r, v=v) for n in n_values]
    return [bisect_largest_m(params, tolerance=tolerance) for params in families]


def lmi_sweep_csv_lines(rows: Sequence[BisectionResult]) -> list[str]:
    lines = [LMI_SWEEP_HEADER]
    for row in rows:
        params, m = row.params, row.largest_feasible_m
        log10_m = np.log10(m) if m > 0 else float("-inf")
        lines.append(csv_line([
            params.n, params.r, params.v, m, log10_m, params.sup_bound, row.iterations, row.status
        ]))
    return lines


def write_csv_lines(path, lines: Sequence[str]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
