"""Numerical substrate: polynomial arithmetic, root finding, spectral radius,
a discrete Riccati solver, and seeded Gaussian streams.

Polynomials are plain 1-D float arrays of coefficients in ascending degree
order (``coeffs[k]`` multiplies ``z**k``).  Matrices are dense float64
``numpy`` arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

# Gain and cost magnitudes in the hard family grow like (r/v)**n, so float64
# accuracy degrades noticeably past this dimension.
CONDITIONING_DIMENSION = 12


class RootFindingError(RuntimeError):
    """Root iteration failed to converge for a polynomial."""

    def __init__(self, coeffs, iterations):
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.iterations = iterations
        super().__init__(
            f"root finding did not converge after {iterations} iterations "
            f"for polynomial with ascending coefficients {self.coeffs.tolist()}"
        )


class DareError(RuntimeError):
    """Riccati iteration failed; carries the last residual when available."""

    def __init__(self, message, residual=None):
        self.residual = residual
        if residual is not None:
            message = f"{message} (last residual {residual:.3e})"
        super().__init__(message)


def _philox_key(seed: int, stream: int) -> tuple[int, int]:
    """The two 64-bit Philox key words of stream ``stream`` of ``seed``."""
    return seed % 2**64, stream % 2**64


@dataclass
class Prng:
    """Counter-based random stream addressed by a (seed, stream) pair.

    Identical (seed, stream) pairs reproduce the same sample sequence
    exactly; distinct stream indices give statistically independent
    streams, so parallel trials can each own stream ``trial_index``.
    """

    seed: int
    stream: int = 0
    _generator: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        key = np.array(_philox_key(self.seed, self.stream), dtype=np.uint64)
        self._generator = np.random.Generator(np.random.Philox(key=key))

    @property
    def generator(self) -> np.random.Generator:
        return self._generator

    def spawn(self, stream: int) -> "Prng":
        """Fresh stream with the same seed and the given stream index."""
        return Prng(self.seed, stream)

    def streams(self, count: int) -> Iterator[np.random.Generator]:
        """Generators of streams stream, ..., stream + count - 1 (mod 2**64),
        in order, each equal bit for bit to ``Prng(seed, stream + i).generator``.

        One Philox and one Generator serve every stream: before each yield
        the Philox is re-keyed and its counter and buffered output are reset
        to those of a freshly keyed Philox, which costs a fraction of
        building a new one.  So each yielded generator is valid only until
        the next one is taken; a caller must finish drawing from it first.
        """
        key = np.zeros(2, dtype=np.uint64)
        bit_generator = np.random.Philox(key=key)
        generator = np.random.Generator(bit_generator)
        fresh = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        for i in range(count):
            key[:] = _philox_key(self.seed, self.stream + i)
            bit_generator.state = fresh  # copies the arrays it is given
            yield generator


def gaussian_sample(rng: Prng, mean: float, variance: float, count: int) -> np.ndarray:
    """i.i.d. normal samples; deterministic given the rng's (seed, stream)."""
    if not variance >= 0:
        raise ValueError(f"variance must be nonnegative, got {variance}")
    return rng.generator.normal(mean, np.sqrt(variance), size=count)


def poly_trim(coeffs) -> np.ndarray:
    """Drop trailing (highest-degree) zero coefficients."""
    c = np.atleast_1d(np.asarray(coeffs, dtype=float))
    nz = np.nonzero(c)[0]
    if nz.size == 0:
        return np.zeros(1)
    return c[: nz[-1] + 1]


def poly_eval(coeffs, z):
    """Evaluate at ``z`` (scalar or array, real or complex) by Horner."""
    c = np.asarray(coeffs)
    z_arr = np.asarray(z)
    out = np.zeros(z_arr.shape, dtype=np.result_type(z_arr.dtype, c.dtype, float))
    for ck in c[::-1]:
        out = out * z_arr + ck
    return out if out.shape else out[()]


def poly_from_roots(roots) -> np.ndarray:
    """Monic polynomial with the given roots, ascending real coefficients."""
    coeffs = np.array([1.0 + 0j])
    for root in np.asarray(roots, dtype=complex):
        coeffs = np.concatenate(([0.0], coeffs)) - root * np.concatenate((coeffs, [0.0]))
    return coeffs.real


_DK_PHASE_RNG_KEY = np.array([0x9E3779B97F4A7C15, 0], dtype=np.uint64)


def poly_roots(coeffs, max_iterations: int = 500, step_tolerance: float = 1e-12) -> np.ndarray:
    """All complex roots via Durand-Kerner simultaneous iteration.

    Initial guesses sit on a circle of radius 1 + max|coeff| with random
    phases drawn from a fixed internal stream, so results are deterministic.
    Raises RootFindingError when the residual check |p(root)| <= 1e-8 *
    max|coeff| fails after the iteration cap.
    """
    original = poly_trim(coeffs)
    degree = original.size - 1
    if degree < 1:
        raise ValueError("poly_roots requires degree >= 1")
    monic = (original / original[-1]).astype(complex)

    if degree == 1:
        return np.array([-monic[0]], dtype=complex)

    phase_rng = np.random.Generator(np.random.Philox(key=_DK_PHASE_RNG_KEY))
    radius = 1.0 + np.max(np.abs(original))
    angles = 2 * np.pi * (np.arange(degree) + phase_rng.random(degree)) / degree
    z = radius * np.exp(1j * angles)

    for _ in range(max_iterations):
        values = poly_eval(monic, z)
        denom = np.ones(degree, dtype=complex)
        for i in range(degree):
            diff = z[i] - np.delete(z, i)
            denom[i] = np.prod(diff)
        step = values / denom
        z = z - step
        if np.max(np.abs(step)) < step_tolerance:
            break

    residuals = np.abs(poly_eval(original, z))
    if np.max(residuals) > 1e-8 * np.max(np.abs(original)):
        raise RootFindingError(original, max_iterations)
    return z


def spectral_radius(m) -> float:
    """Largest eigenvalue modulus of a square matrix."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"spectral_radius needs a square matrix, got shape {a.shape}")
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def characteristic_polynomial(m) -> np.ndarray:
    """Ascending coefficients of det(zI - M) via the Faddeev-LeVerrier recursion."""
    a = np.asarray(m, dtype=float)
    n = a.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    mk = np.eye(n)
    for k in range(1, n + 1):
        mk = a @ mk
        ck = -np.trace(mk) / k
        coeffs[n - k] = ck
        mk = mk + ck * np.eye(n)
    return coeffs


@dataclass
class DareSolution:
    """Stabilizing Riccati fixed point with the optimal feedback row."""

    p: np.ndarray
    gain: np.ndarray  # 1 x n row; u = gain @ x, closed loop a + b @ gain
    residual: float
    iterations: int


def solve_dare(
    a,
    b,
    q,
    r,
    tolerance: float = 1e-9,
    rel_tolerance: float = 0.0,
    max_iterations: int = 100_000,
) -> DareSolution:
    """Fixed-point iteration P <- A'PA - A'PB(R + B'PB)^-1 B'PA + Q from P0 = Q.

    Success means the float64 residual ||P - f(P)||_F fell below
    max(tolerance, rel_tolerance * ||P||_F); rounding noise makes the plain
    1e-9 floor unreachable once ||P|| is large, so callers handling badly
    scaled systems pass a relative tolerance.  The default contract is the
    absolute tolerance alone (rel_tolerance = 0).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float).reshape(a.shape[0], -1)
    q = np.asarray(q, dtype=float)
    r = np.asarray(r, dtype=float).reshape(b.shape[1], b.shape[1])
    n = a.shape[0]
    if a.shape != (n, n) or q.shape != (n, n):
        raise ValueError("solve_dare: inconsistent matrix dimensions")

    p = q.copy()
    best_residual = np.inf
    stall = 0
    for iteration in range(1, max_iterations + 1):
        btp = b.T @ p
        gram = r + btp @ b
        try:
            gain_part = np.linalg.solve(gram, btp @ a)
        except np.linalg.LinAlgError:
            raise DareError("singular input-weight Gram matrix R + B'PB")
        p_next = a.T @ p @ a - (a.T @ btp.T) @ gain_part + q
        residual = float(np.linalg.norm(p_next - p))
        threshold = max(tolerance, rel_tolerance * float(np.linalg.norm(p_next)))
        if residual <= threshold:
            gain = -np.linalg.solve(r + b.T @ p @ b, b.T @ p @ a)
            return DareSolution(p=p, gain=gain, residual=residual, iterations=iteration)
        if residual < 0.999 * best_residual:
            best_residual = residual
            stall = 0
        else:
            stall += 1
            if stall > 500:
                raise DareError(
                    "Riccati iteration stalled above tolerance", residual=residual
                )
        p = p_next
    raise DareError("Riccati iteration cap reached", residual=residual)
