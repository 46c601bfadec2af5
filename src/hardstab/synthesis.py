"""Gain synthesis and stability analysis for single-input systems: pole
placement, Jury necessary conditions, closed-loop characteristic polynomials,
and the co-stabilizability ceiling of the hard family."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .numerics import (
    CONDITIONING_DIMENSION,
    poly_eval,
    poly_roots,
    poly_trim,
    solve_dare,
    spectral_radius,
)
from .systems import HardFamilyParams, LtiSystem, controllability_matrix, hard_matrices


class IllConditionedError(RuntimeError):
    """Controllability matrix too ill conditioned for reliable placement."""


class PoleSetError(ValueError):
    """Requested pole set is not closed under conjugation or not stable."""


_CONJUGATE_TOL = 1e-9


def _validate_conjugate_closed(poles: Sequence[complex], n: int) -> np.ndarray:
    """Return the n poles as a complex array, failing unless the multiset is
    closed under conjugation (required for a real gain)."""
    p = np.atleast_1d(np.asarray(poles, dtype=complex))
    scale = max(1.0, float(np.max(np.abs(p))))
    remaining = list(p)
    while remaining:
        z = remaining.pop()
        if abs(z.imag) <= _CONJUGATE_TOL * scale:
            continue
        match = None
        for i, w in enumerate(remaining):
            if abs(w - np.conj(z)) <= _CONJUGATE_TOL * scale:
                match = i
                break
        if match is None:
            raise PoleSetError(f"pole set is not conjugate-closed: unmatched {z}")
        remaining.pop(match)
    if p.size != n:
        raise PoleSetError(f"need {n} poles, got {p.size}")
    return p


def _stable_poles(poles: Sequence[complex], n: int) -> np.ndarray:
    """The n poles as by _validate_conjugate_closed, all strictly inside the
    unit circle."""
    p = _validate_conjugate_closed(poles, n)
    if np.any(np.abs(p) >= 1):
        raise PoleSetError("closed-loop poles must lie strictly inside the unit circle")
    return p


def _warn_if_large(n: int) -> None:
    if n > CONDITIONING_DIMENSION:
        warnings.warn(
            f"gain magnitudes grow geometrically with dimension; float64 results "
            f"are unreliable past n = {CONDITIONING_DIMENSION} (requested n = {n})",
            RuntimeWarning,
            stacklevel=3,
        )


def _gain_array(gain, n: int) -> np.ndarray:
    """A row gain K (u = K x) as a float array, (n,) for one gain or (k, n)
    for a stack of them, failing unless its last axis has length n."""
    k = np.asarray(gain, dtype=float)
    if k.ndim == 0 or k.shape[-1] != n:
        raise ValueError(f"gain shape {k.shape} does not match dimension {n}")
    return k


@dataclass(frozen=True)
class StabilityReport:
    """One verdict, or arrays of them for a stack of gains."""

    stable: bool
    spectral_radius: float


@dataclass(frozen=True)
class JuryReport:
    """The two Jury necessary quantities; pass needs both strictly positive."""

    passed: bool
    at_one: float
    signed_at_minus_one: float


def closed_loop_matrix_polynomial(a: np.ndarray, poles: np.ndarray) -> np.ndarray:
    """prod_i (A - p_i I) for a conjugate-closed pole set, whose product is
    real up to rounding."""
    n = a.shape[0]
    result = np.eye(n, dtype=complex)
    for p in poles:
        result = result @ (a - p * np.eye(n))
    return result.real


def ackermann_gain(sys: LtiSystem, poles: Sequence[complex]) -> np.ndarray:
    """Unique state feedback placing the closed-loop poles, via
    K = -e_n' Ctr^-1 Delta_cl(A) with the inverse row obtained from a solve."""
    p = _validate_conjugate_closed(poles, sys.n)
    _warn_if_large(sys.n)
    ctr = controllability_matrix(sys)
    condition = np.linalg.cond(ctr)
    if not np.isfinite(condition) or condition > 1e12:
        raise IllConditionedError(
            f"controllability matrix condition {condition:.2e} exceeds 1e12"
        )
    e_n = np.zeros(sys.n)
    e_n[-1] = 1.0
    last_row = np.linalg.solve(ctr.T, e_n)
    return -(last_row @ closed_loop_matrix_polynomial(sys.a, p))


def k1_closed_form(params: HardFamilyParams, poles: Sequence[complex]) -> float:
    """First gain element -prod_i (r - p_i) / v^n for the b1 = 0 family."""
    p = _stable_poles(poles, params.n)
    _warn_if_large(params.n)
    product = complex(np.prod(params.r - p))
    return -product.real / params.v**params.n


def closed_loop_charpoly(params: HardFamilyParams, gain: np.ndarray) -> np.ndarray:
    """Ascending coefficients of det(zI - A - B1 K) for the b1 = 0 family;
    takes one (n,) gain, not a stack."""
    n = params.n
    k = _gain_array(gain, n)
    if k.ndim != 1:
        raise ValueError(f"gain shape {k.shape} is not one gain of dimension {n}")
    r, v = params.r, params.v
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    coeffs[n - 1] = -(r + v * k[n - 1])
    for j in range(n - 1):
        coeffs[j] = v ** (n - j - 1) * (r * k[j + 1] - v * k[j])
    return coeffs


def perturbed_charpoly(base: np.ndarray, m: float, k1: float) -> np.ndarray:
    """Shift the z^(n-1) coefficient by -m*k1: det(zI - A - B2 K) from the
    b1 = 0 polynomial."""
    coeffs = np.asarray(base, dtype=float).copy()
    degree = poly_trim(coeffs).size - 1
    if degree < 1 or abs(coeffs[-1] - 1.0) > 1e-12 or coeffs.size != degree + 1:
        raise ValueError("base polynomial must be monic")
    coeffs[degree - 1] -= m * k1
    return coeffs


def jury_necessary(p: np.ndarray) -> JuryReport:
    """Necessary stability conditions Delta(1) > 0 and (-1)^n Delta(-1) > 0."""
    coeffs = poly_trim(p)
    if coeffs[-1] <= 0:
        raise ValueError("leading coefficient must be positive; normalize first")
    n = coeffs.size - 1
    at_one = float(poly_eval(coeffs, 1.0))
    signed_at_minus_one = float((-1) ** n * poly_eval(coeffs, -1.0))
    return JuryReport(
        passed=at_one > 0 and signed_at_minus_one > 0,
        at_one=at_one,
        signed_at_minus_one=signed_at_minus_one,
    )


def costab_bound(params: HardFamilyParams, poles: Sequence[complex]) -> float:
    """Perturbation ceiling v^n prod (1 + p_i)/(r - p_i) for the given stable
    closed-loop poles; its supremum over all stable sets is params.sup_bound."""
    p = _stable_poles(poles, params.n)
    return (complex(np.prod((1 + p) / (params.r - p))) * params.v**params.n).real


def is_stabilizing(sys: LtiSystem, gain: np.ndarray) -> StabilityReport:
    """Strict spectral-radius test of A + B K; for a (k, n) stack of gains,
    one test per gain, from one eigenvalue call, reported as arrays."""
    k = _gain_array(gain, sys.n)
    rho = spectral_radius(sys.a + sys.b @ k[..., np.newaxis, :])
    return StabilityReport(stable=rho < 1.0, spectral_radius=rho)


def ce_lqr_gain(params: HardFamilyParams, b1_hat):
    """Certainty-equivalent LQR gain for (A, B(b1_hat)) with Q = I, R = 1.

    The Riccati solve uses a scale-aware residual tolerance because the cost
    matrix norm grows like (r/v)^(2n); see solve_dare.  Synthesis succeeding
    says nothing about stability on the true system.

    Estimates are solved as one stack.  A float estimate, a stack of one,
    gives its (n,) gain and raises that element's DareError when the solve
    fails.  A 1-D array of estimates gives (gains, failed): a (k, n) array
    with one gain row per estimate, NaN where its solve failed, and the
    mask of those rows.
    """
    a, b = hard_matrices(params.n, params.r, params.v, np.atleast_1d(b1_hat))
    _warn_if_large(params.n)
    stack = solve_dare(a, b, np.eye(params.n), np.array([[1.0]]), rel_tolerance=1e-8)
    if np.ndim(b1_hat):
        return stack.gain[:, 0], stack.failed
    if stack.errors[0] is not None:
        raise stack.errors[0]
    return stack.gain[0, 0]


def recovered_poles(params: HardFamilyParams, gain: np.ndarray) -> np.ndarray:
    """Closed-loop poles of the b1 = 0 loop recovered from the characteristic
    polynomial; carries root-finding error for externally supplied gains."""
    return poly_roots(closed_loop_charpoly(params, gain))

