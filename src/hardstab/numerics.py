"""Numerical substrate: polynomial arithmetic, root finding, spectral radius,
a discrete Riccati solver, and seeded Gaussian streams.

Polynomials are plain 1-D float arrays of coefficients in ascending degree
order (``coeffs[k]`` multiplies ``z**k``).  Matrices are dense float64
``numpy`` arrays.
"""

from __future__ import annotations

import math
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

    def __reduce__(self):
        # pickle rebuilds from the constructor's arguments, not from args
        return type(self), (self.coeffs, self.iterations)


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
# Durand-Kerner stops after this many sweeps, or once no root moves farther
# than the step tolerance
_DK_MAX_ITERATIONS = 500
_DK_STEP_TOLERANCE = 1e-12


def poly_roots(coeffs) -> np.ndarray:
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

    for _ in range(_DK_MAX_ITERATIONS):
        values = poly_eval(monic, z)
        denom = np.ones(degree, dtype=complex)
        for i in range(degree):
            diff = z[i] - np.delete(z, i)
            denom[i] = np.prod(diff)
        step = values / denom
        z = z - step
        if np.max(np.abs(step)) < _DK_STEP_TOLERANCE:
            break

    residuals = np.abs(poly_eval(original, z))
    if np.max(residuals) > 1e-8 * np.max(np.abs(original)):
        raise RootFindingError(original, _DK_MAX_ITERATIONS)
    return z


def spectral_radius(m):
    """Largest eigenvalue modulus of a square matrix, as a float; of a stack
    of square matrices (..., n, n), an array of them from one eigvals call."""
    a = np.asarray(m, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"spectral_radius needs square matrices, got shape {a.shape}")
    rho = np.abs(np.linalg.eigvals(a)).max(axis=-1)
    return float(rho) if a.ndim == 2 else rho


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


_DARE_MAX_ITERATIONS = 100_000
# Absolute Riccati residual every solve accepts
_DARE_TOLERANCE = 1e-9


@dataclass
class DareStack:
    """solve_dare on a stack of k input matrices, element by element.  A
    failed element's p and gain are NaN, and its error says which exit it
    took."""

    p: np.ndarray  # k x n x n
    gain: np.ndarray  # k x m x n
    residual: np.ndarray  # each element's last residual (NaN for a singular Gram matrix)
    errors: tuple  # each element's DareError, or None where it converged
    iterations: int  # fixed-point iterations summed over the elements

    @property
    def failed(self) -> np.ndarray:
        return np.array([error is not None for error in self.errors], dtype=bool)


def _frobenius(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack, bit for bit as
    np.linalg.norm gives it for one matrix (a BLAS dot of its entries)."""
    flat = m.reshape(m.shape[0], 1, -1)
    return np.sqrt(flat @ flat.transpose(0, 2, 1)).reshape(-1)


def _solve_each(gram: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.solve on each system of a stack, and the mask of the
    singular ones, whose solutions are NaN."""
    singular = np.zeros(len(gram), dtype=bool)
    try:
        return np.linalg.solve(gram, rhs), singular
    except np.linalg.LinAlgError:
        pass
    out = np.full(rhs.shape, np.nan)
    for i in range(len(gram)):
        try:
            out[i] = np.linalg.solve(gram[i], rhs[i])
        except np.linalg.LinAlgError:
            singular[i] = True
    return out, singular


def _dare_error(singular: bool, residual: float) -> DareError:
    if singular:
        return DareError("singular input-weight Gram matrix R + B'PB")
    if not math.isfinite(residual):
        return DareError("Riccati residual is not finite", residual=residual)
    return DareError("Riccati iteration stalled above tolerance", residual=residual)


def solve_dare(
    a,
    b,
    q,
    r,
    rel_tolerance: float = 0.0,
) -> DareStack:
    """Fixed-point iteration P <- A'PA - A'PB(R + B'PB)^-1 B'PA + Q from P0 = Q.

    b is a stack of k n x m input matrices, shaped (k, n, m), that share a,
    q and r; the whole stack runs through one loop.  One system is a stack
    of one, b[np.newaxis].

    Success means the float64 residual ||P - f(P)||_F fell below
    max(1e-9, rel_tolerance * ||P||_F); rounding noise makes the plain
    1e-9 floor unreachable once ||P|| is large, so callers handling badly
    scaled systems pass a relative tolerance.  The default contract is the
    absolute tolerance alone (rel_tolerance = 0).

    Exits, per element: converged, when that test passes, with the gain
    -(R + B'PB)^-1 B'PA at the returned P that the last step solved for;
    non-finite, as soon as the residual overflows (the relative threshold
    would be inf too and pass it); stalled, after more than 500 steps in a
    row without a 0.1% residual decrease; the iteration cap; and a singular
    R + B'PB.  Each failure is a DareError, which carries the last residual
    unless the Gram matrix was singular.  An element leaves the stack at the
    iteration where it exits, so it runs the steps, and gets the bits, that
    it would get alone.

    Returns a DareStack and raises for no element: p (k, n, n) and gain
    (k, m, n), NaN where an element failed; each element's last residual
    (k,); errors, each failed element's DareError and None elsewhere
    (``failed`` is that mask); and iterations, summed over the elements.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    b = np.asarray(b, dtype=float)
    q = np.asarray(q, dtype=float)
    if a.shape != (n, n) or q.shape != (n, n) or b.ndim != 3 or b.shape[1] != n:
        raise ValueError(
            f"solve_dare: inconsistent matrix dimensions: a {a.shape}, q {q.shape}, "
            f"b {b.shape} (a (k, n, m) stack)"
        )
    count, _, m = b.shape
    r = np.asarray(r, dtype=float).reshape(m, m)

    p_out = np.full((count, n, n), np.nan)
    gain_out = np.full((count, m, n), np.nan)
    residual_out = np.full(count, np.nan)
    errors = [None] * count
    iterations = 0
    active = np.arange(count)  # the stack index of each element still iterating
    p = np.repeat(q[np.newaxis], count, axis=0)
    best_residual = np.full(count, np.inf)
    stall = np.zeros(count, dtype=int)
    # an overflowing iterate is the non-finite exit, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_DARE_MAX_ITERATIONS):
            iterations += active.size
            btp = b.transpose(0, 2, 1) @ p
            gain_part, singular = _solve_each(r + btp @ b, btp @ a)
            p_next = a.T @ p @ a - (a.T @ btp.transpose(0, 2, 1)) @ gain_part + q
            residual = _frobenius(p_next - p)
            threshold = np.maximum(_DARE_TOLERANCE, rel_tolerance * _frobenius(p_next))
            improved = residual < 0.999 * best_residual
            np.copyto(best_residual, residual, where=improved)
            stall += 1
            stall[improved] = 0
            # a singular Gram matrix leaves a NaN residual
            going = (residual > threshold) & (residual < np.inf) & (stall <= 500)
            if not going.all():
                exits = ~going
                converged = exits & (residual <= threshold) & np.isfinite(residual)
                residual_out[active[exits]] = residual[exits]
                p_out[active[converged]] = p[converged]
                gain_out[active[converged]] = -gain_part[converged]
                for i in np.flatnonzero(exits & ~converged):
                    errors[active[i]] = _dare_error(singular[i], float(residual[i]))
                active, b, p_next, best_residual, stall, residual = (
                    x[going] for x in (active, b, p_next, best_residual, stall, residual)
                )
                if not active.size:
                    break
            p = p_next
        else:
            for k, last in zip(active, residual):
                residual_out[k] = last
                errors[k] = DareError("Riccati iteration cap reached", residual=float(last))

    return DareStack(p_out, gain_out, residual_out, tuple(errors), iterations)
