"""The parametric hard-to-stabilize family, trajectory simulation under
pluggable input policies, and single-parameter least-squares estimation.

The family is x_{t+1} = A x_t + B u_t + w_t with A carrying ``r`` in the
top-left corner and ``v`` on the superdiagonal, B = (b1, 0, ..., 0, v)',
w_t i.i.d. N(0, sigma_w^2 I), and x_0 = 0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .numerics import Prng

DIVERGENCE_LIMIT = 1e300


class ParameterError(ValueError):
    """Family parameters outside their admissible range."""


class NoExcitationError(RuntimeError):
    """Least-squares estimation attempted on an all-zero input sequence."""


class DivergedTrajectoryError(RuntimeError):
    """A state left the divergence guard (magnitude above DIVERGENCE_LIMIT,
    or not finite) during simulation; ``seed_record`` is the (seed, stream)
    of the trial whose state did."""

    def __init__(self, step: int, seed_record: tuple[int, int]):
        self.step = step
        self.seed_record = seed_record
        super().__init__(
            f"trajectory of stream {seed_record} diverged "
            f"(|state| > {DIVERGENCE_LIMIT:g} or not finite) at step {step}"
        )

    def __reduce__(self):
        # pickle rebuilds from the constructor's arguments, not from args
        return type(self), (self.step, self.seed_record)


@dataclass(frozen=True)
class LtiSystem:
    """System matrices plus isotropic process-noise variance (per coordinate)."""

    a: np.ndarray
    b: np.ndarray
    noise_variance: float = 0.0

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float).reshape(a.shape[0], 1)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"A must be square, got shape {a.shape}")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("system matrices must be finite")
        if not 0 <= self.noise_variance < np.inf:
            raise ValueError("noise variance must be nonnegative and finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class HardFamilyParams:
    """Parameters (n, r, v) of the hard family; validated on construction.
    The first input coefficient b1 is not one of them: it picks a member
    (see hard_system)."""

    n: int
    r: float
    v: float

    def __post_init__(self):
        if self.n < 2:
            raise ParameterError(f"dimension must be >= 2, got {self.n}")
        if not 1 < self.r < np.inf:
            raise ParameterError(f"r must be finite and exceed 1, got {self.r}")
        if not 0 < self.v < (self.r - 1) / 2:
            raise ParameterError(
                f"v must lie in (0, (r-1)/2) = (0, {(self.r - 1) / 2}), got {self.v}"
            )

    @property
    def sup_bound(self) -> float:
        """Co-stabilizability ceiling (2v/(r-1))^n: the supremum over stable
        pole sets of the perturbation one gain can absorb."""
        return (2 * self.v / (self.r - 1)) ** self.n

    @property
    def theorem_m(self) -> float:
        """Twice the ceiling: at this perturbation no common stabilizing
        gain exists."""
        return 2 * self.sup_bound

    @property
    def scale(self) -> float:
        """v^n / r^(n-1): the congruence T = diag(balance) with the input
        scaled by 1/v maps the pair at m to the normalized pair at
        mu = m / scale, so every LMI and co-stabilizability threshold is
        mu*(n, r) * scale.  The LMI boundary measures mu* ~ 2/(r - 1) at
        every n; that is a measured conjecture, not a proven value, and
        bisect_largest_m uses it only as the point its bracket widens from:
        every verdict still comes from a probe.  The LMI solver takes the
        HardPair itself and starts cold in the coordinates T."""
        return self.v**self.n / self.r ** (self.n - 1)

    @property
    def balance(self) -> np.ndarray:
        """The diagonal (v/r)^(n-j), j = 1..n, of the congruence T that
        equalizes the family's gain ladder (see scale); the LMI solver's
        cold-start preconditioner."""
        return (self.v / self.r) ** (self.n - np.arange(1, self.n + 1, dtype=float))


def hard_matrices(n: int, r: float, v: float, b1) -> tuple[np.ndarray, np.ndarray]:
    """Raw (A, B) of the family; does not enforce the parameter range.  A 1-D
    array of b1 values gives a stack of input columns, shaped (k, n, 1)."""
    a = np.zeros((n, n))
    a[0, 0] = r
    for i in range(n - 1):
        a[i, i + 1] = v
    b1 = np.asarray(b1, dtype=float)
    b = np.zeros(b1.shape + (n, 1))
    b[..., 0, 0] = b1
    b[..., -1, 0] = v
    return a, b


def hard_system(params: HardFamilyParams, b1: float = 0.0, noise_variance: float = 0.0) -> LtiSystem:
    """The family member with first input coefficient b1."""
    if not 0 <= b1 < np.inf:
        raise ParameterError(f"b1 must be nonnegative and finite, got {b1}")
    a, b = hard_matrices(params.n, params.r, params.v, b1)
    return LtiSystem(a=a, b=b, noise_variance=noise_variance)


@dataclass(frozen=True)
class HardPair:
    """Sibling systems sharing A, with b1 = 0 and b1 = m respectively."""

    s1: LtiSystem
    s2: LtiSystem
    m: float
    params: HardFamilyParams


def make_hard_pair(params: HardFamilyParams, m: float, noise_variance: float = 0.0) -> HardPair:
    if not 0 <= m < np.inf:
        raise ParameterError(f"perturbation m must be nonnegative and finite, got {m}")
    return HardPair(
        s1=hard_system(params, 0.0, noise_variance),
        s2=hard_system(params, m, noise_variance),
        m=m,
        params=params,
    )


def controllability_matrix(sys: LtiSystem) -> np.ndarray:
    """[B, AB, ..., A^(n-1)B] stacked as columns."""
    cols = [sys.b]
    for _ in range(sys.n - 1):
        cols.append(sys.a @ cols[-1])
    return np.hstack(cols)


@dataclass(frozen=True)
class InputPolicy:
    """Exploration input law: i.i.d. Gaussian, zero, impulse, or a custom
    history map."""

    kind: str
    sigma_u2: float = 0.0
    impulse_time: int = 0
    amplitude: float = 1.0
    history_map: Optional[Callable] = None

    @staticmethod
    def iid_gaussian(sigma_u2: float) -> "InputPolicy":
        if not 0 <= sigma_u2 < np.inf:
            raise ValueError("sigma_u2 must be nonnegative and finite")
        return InputPolicy(kind="iid-gaussian", sigma_u2=sigma_u2)

    @staticmethod
    def zero() -> "InputPolicy":
        return InputPolicy(kind="zero")

    @staticmethod
    def impulse(time: int = 0, amplitude: float = 1.0) -> "InputPolicy":
        return InputPolicy(kind="impulse", impulse_time=time, amplitude=amplitude)

    @staticmethod
    def custom(history_map: Callable) -> "InputPolicy":
        """history_map(t, inputs_so_far, states_so_far, generator) -> u_t.

        The map must not carry state between calls: simulate() calls it
        once per trial per step, interleaving a chunk's trials, and
        kl_monte_carlo() calls it for some trials in forked child
        processes, whose changes to the map's state never reach the
        caller."""
        return InputPolicy(kind="custom", history_map=history_map)

    def open_loop(
        self, generators: Iterable[np.random.Generator], count: int, horizon: int, n: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """(inputs, standard-normal noise draws) of ``count`` open-loop
        rollouts of ``horizon`` steps of an n-dimensional system, one from
        each of the next ``count`` generators of ``generators``, shaped
        (count, horizon) and (count, horizon, n).

        The one stream layout: per step, one input draw (i.i.d. Gaussian
        policy only), then the n noise coordinates, read from a rollout's
        generator as one (horizon, draws + n) block, so a longer rollout's
        prefix matches a shorter one bitwise.  Each generator is read in
        full before the next is taken and no more than ``count`` are taken,
        so ``generators`` may be one Prng.streams() iterator shared by
        successive calls.  A custom policy has no open-loop form: it draws
        step by step inside simulate().
        """
        if self.kind == "custom":
            raise ValueError("a custom policy has no open-loop form; use simulate()")
        if self.kind not in ("iid-gaussian", "zero", "impulse"):
            raise ValueError(f"unknown policy kind {self.kind!r}")
        draws = 1 if self.kind == "iid-gaussian" else 0
        block = np.empty((count, horizon, draws + n))
        taken = 0
        for generator in itertools.islice(generators, count):
            generator.standard_normal(out=block[taken])
            taken += 1
        if taken < count:
            raise ValueError(f"{count} rollouts need {count} generators, got {taken}")
        if draws:
            inputs = math.sqrt(self.sigma_u2) * block[:, :, 0]
        else:
            inputs = np.zeros((count, horizon))
            if self.kind == "impulse" and 0 <= self.impulse_time < horizon:
                inputs[:, self.impulse_time] = self.amplitude
        return inputs, block[:, :, draws:]

    def input_power(self, horizon: int) -> float:
        """Mean input power per step over ``horizon`` steps (the sigma_u^2 of
        the KL bound): 0 for an impulse outside the horizon, which applies no
        input, and NaN for a custom policy, whose law is not known."""
        if self.kind == "iid-gaussian":
            return self.sigma_u2
        if self.kind == "zero":
            return 0.0
        if self.kind == "impulse":
            applied = 0 <= self.impulse_time < horizon
            return self.amplitude**2 / horizon if applied else 0.0
        return float("nan")


# Float64 stream draws (64 KiB) that a batched open-loop reader holds at
# once.  A batch and its temporaries add to peak memory: in kl_monte_carlo
# 2**14 measurably raised it, 2**13 did not and was as fast.
_BATCH_DRAWS = 1 << 13


def open_loop_batch(horizon: int, n: int) -> int:
    """Rollouts per InputPolicy.open_loop call that keep its draws, horizon
    steps of one input and n noise coordinates each, within _BATCH_DRAWS;
    at least one."""
    return max(1, _BATCH_DRAWS // (horizon * (n + 1)))


@dataclass(frozen=True)
class Trajectory:
    """Input/state sample path with its (seed, stream) provenance.

    ``first_coord_residuals[t-1]`` records x_t^(1) - (A x_{t-1})^(1) =
    b1 u_{t-1} + w^(1)_{t-1} exactly as realized during simulation.  It is
    the only residual channel: for unstable open-loop rollouts the same
    quantity re-derived from stored states loses all accuracy once |x|
    passes ~1/eps.
    """

    inputs: np.ndarray
    states: np.ndarray
    seed_record: tuple[int, int]
    first_coord_residuals: np.ndarray

    @property
    def horizon(self) -> int:
        return len(self.inputs)


def simulate(
    sys: LtiSystem, policy: InputPolicy, horizon: int, rng: Union[Prng, Sequence[Prng]]
) -> Union[Trajectory, list[Trajectory]]:
    """Roll the dynamics forward from x_0 = 0 for ``horizon`` steps.

    ``rng`` is one Prng, which gives one Trajectory, or a sequence of them,
    which gives one Trajectory per stream, each bit for bit what a separate
    call on that stream returns.  A sequence is rolled out in lockstep: per
    step, every trial's input and noise are drawn in turn (a custom history
    map is called once per trial, with that trial's own history and
    generator, so it must not carry state between calls), then the whole
    stack's states are updated and guarded at once.  Per step each stream
    is consumed in a fixed order (the policy's input draws first, then the
    n noise coordinates; see InputPolicy.open_loop), so a longer
    simulation's prefix matches a shorter one on the same stream bitwise.

    DivergedTrajectoryError is raised at the first step at which any trial's
    state is not finite or exceeds DIVERGENCE_LIMIT in magnitude, naming
    the first such trial's stream.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    single = isinstance(rng, Prng)
    rngs = (rng,) if single else tuple(rng)
    count = len(rngs)
    n = sys.n
    sigma_w = float(np.sqrt(sys.noise_variance))
    b_col = sys.b.ravel()
    generators = [r.generator for r in rngs]

    states = np.zeros((count, horizon + 1, n))
    custom = policy.kind == "custom"
    if custom:
        if policy.history_map is None:
            raise ValueError("custom policy requires a history map")
        inputs = np.zeros((count, horizon))
        noise = np.empty((count, horizon, n))
    else:
        inputs, draws = policy.open_loop(generators, count, horizon, n)
        noise = sigma_w * draws

    x = states[:, 0]
    for t in range(horizon):
        if custom:
            # the input may depend on the history, so it is drawn step by step
            for gen, u, xs, w in zip(generators, inputs, states, noise):
                u[t] = float(policy.history_map(t, u[:t], xs[: t + 1], gen))
                gen.standard_normal(out=w[t])
            noise[:, t] *= sigma_w
        # stacked matrix-vector products round as a @ x does for one state
        # (x @ a.T, a matrix product, does not for n >= 2)
        x = np.matmul(sys.a, x[:, :, None])[:, :, 0] + b_col * inputs[:, t, None] + noise[:, t]
        guarded = np.abs(x) <= DIVERGENCE_LIMIT
        if not guarded.all():
            first = int(np.argmin(guarded.all(axis=1)))
            raise DivergedTrajectoryError(t + 1, (rngs[first].seed, rngs[first].stream))
        states[:, t + 1] = x

    residuals = b_col[0] * inputs + noise[:, :, 0]
    trajectories = [
        Trajectory(
            inputs=inputs[i],
            states=states[i],
            seed_record=(r.seed, r.stream),
            first_coord_residuals=residuals[i],
        )
        for i, r in enumerate(rngs)
    ]
    return trajectories[0] if single else trajectories


def ls_estimate_b1(traj: Trajectory) -> float:
    """Least-squares estimate of b1 with (r, v) known: the exact minimizer
    of sum_t (res_t - b u_{t-1})^2 over the recorded residuals
    res_t = x_t^(1) - r x_{t-1}^(1) - v x_{t-1}^(2)."""
    u = traj.inputs
    denominator = float(u @ u)
    if denominator == 0.0:
        raise NoExcitationError("all inputs are zero; b1 is unidentifiable")
    return float(u @ traj.first_coord_residuals) / denominator


# Every CSV float: 17 significant digits, enough to round-trip a float64
CSV_FLOAT = "%.17g"


def csv_line(values) -> str:
    """One CSV row, by the rule every table follows: a float is written as
    CSV_FLOAT, None as an empty field, and anything else as str gives it."""
    return ",".join(
        "" if value is None else CSV_FLOAT % value if isinstance(value, float) else str(value)
        for value in values
    )


def trajectory_csv_lines(traj: Trajectory) -> list[str]:
    """CSV lines with header t,u,x1,...,xn; row t carries u_t and x_t (u
    empty at t = N)."""
    n = traj.states.shape[1]
    return [csv_line(["t", "u"] + [f"x{i + 1}" for i in range(n)])] + [
        csv_line([t, traj.inputs[t] if t < traj.horizon else None, *traj.states[t]])
        for t in range(traj.states.shape[0])
    ]

