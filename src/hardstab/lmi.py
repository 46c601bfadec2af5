"""Common-Lyapunov co-stabilizability feasibility test and bisection over
the perturbation size.

The pair condition "find K, P with (A + B_i K)' P (A + B_i K) < P for both
siblings and P > 0" is convexified by Q = P^-1, Y = K Q: for i in {1, 2}

    [[Q, (A Q + B_i Y)'], [A Q + B_i Y, Q]] > 0,   Q > 0,

with K = Y Q^-1 and P = Q^-1 recovered from any solution.  Feasibility is
decided by maximizing the smallest block eigenvalue with a log-determinant
barrier and damped Newton steps.  Certificates for this family are
intrinsically ill conditioned (their conditioning grows geometrically with
n), so the solver works in congruence-transformed coordinates that keep the
current iterate near the identity, re-preconditioning as it converges; every
returned certificate is re-verified in the original variables by direct
substitution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .numerics import spectral_radius
from .synthesis import FeedbackGain
from .systems import HardFamilyParams, HardPair, make_hard_pair

_EPS = np.finfo(float).eps
# Newton steps per barrier centering
_MAX_NEWTON = 60
# check_feasible gives up after this many barrier levels ("inconclusive"), or
# after this many levels in a row without a new best margin ("infeasible")
_MAX_LEVELS = 400
_STALL_LIMIT = 50
# Relative bracket width at which bisect_largest_m stops
BISECTION_TOLERANCE = 1e-3


class BisectionError(RuntimeError):
    """Bisection observed inconsistent feasibility decisions."""


@dataclass(frozen=True)
class CostabLmiProblem:
    """Block data of the convexified pair-feasibility problem."""

    a: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    params: HardFamilyParams

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def blocks(self, q: np.ndarray, y: np.ndarray) -> list[np.ndarray]:
        """The three symmetric blocks [M1, M2, Q] evaluated at (Q, Y), each a
        fresh array: M_i = [[Q, (A Q + B_i Y)'], [A Q + B_i Y, Q]]."""
        n = self.n
        y = np.asarray(y, dtype=float).reshape(1, -1)
        aq = self.a @ q
        pair = np.empty((2, 2 * n, 2 * n))
        pair[:, :n, :n] = pair[:, n:, n:] = q
        pair[0, n:, :n] = aq + self.b1 @ y
        pair[1, n:, :n] = aq + self.b2 @ y
        pair[:, :n, n:] = pair[:, n:, :n].transpose(0, 2, 1)
        return [pair[0], pair[1], np.array(q, dtype=float)]

    def balance(self) -> np.ndarray:
        """Diagonal scaling d_j = (v/r)^(n-j) that equalizes the family's
        gain ladder; used as the cold-start preconditioner."""
        p = self.params
        return (p.v / p.r) ** (p.n - np.arange(1, p.n + 1, dtype=float))


def build_costab_lmi(pair: HardPair) -> CostabLmiProblem:
    return CostabLmiProblem(a=pair.s1.a, b1=pair.s1.b, b2=pair.s2.b, params=pair.params)


@dataclass(frozen=True)
class LmiCertificate:
    """Verified solution: margins are recomputed from the stored (Q, Y) by
    direct substitution, never taken from the solver."""

    q: np.ndarray
    y: np.ndarray
    recovered_k: FeedbackGain
    recovered_p: np.ndarray
    margin: float  # smallest eigenvalue over the three Schur blocks
    p_min_eigenvalue: float
    lyapunov_margins: tuple[float, float]  # -lambda_max((A+B_iK)'P(A+B_iK) - P)
    spectral_radii: tuple[float, float]

    @property
    def feasible(self) -> bool:
        return True


@dataclass(frozen=True)
class InfeasibleReport:
    """No verified certificate.  Status 'infeasible' means the margin climb
    stopped (a stall or a level-set collapse) and 'inconclusive' that it was
    cut off first; see check_feasible.  Neither is checked: best_margin is
    the largest margin reached, measured in the solver coordinates of its
    moment, not a bound on the true maximum."""

    best_margin: float
    status: str  # "infeasible" | "inconclusive"

    @property
    def feasible(self) -> bool:
        return False


@dataclass(frozen=True)
class BisectionResult:
    largest_feasible_m: float
    bracket: tuple[float, float]
    iterations: int
    certificate: Optional[LmiCertificate]
    sup_bound: float
    theorem_m: float
    conservative: bool
    trace: tuple = ()


def _verify_certificate(
    problem: CostabLmiProblem, q: np.ndarray, y: np.ndarray, tolerance: float
) -> Optional[LmiCertificate]:
    """Direct-substitution check in the original variables.

    Schur blocks must be positive beyond the eigenvalue noise floor and the
    recovered (K, P) must satisfy the strict pair inequalities with margin at
    least tolerance/2.  Feasibility is invariant under (Q, Y) -> (aQ, aY),
    so the certificate is normalized to trace(Q) = n first.
    """
    q = 0.5 * (q + q.T)
    scale = problem.n / float(np.trace(q))
    if not np.isfinite(scale) or scale <= 0:
        return None
    q = scale * q
    y = scale * np.asarray(y, dtype=float)
    blocks = problem.blocks(q, y)
    schur_margin = math.inf
    for block in blocks:
        lam_min = float(np.linalg.eigvalsh(block)[0])
        floor = 50.0 * _EPS * max(1.0, float(np.linalg.norm(block, 2)))
        if lam_min <= floor:
            return None
        schur_margin = min(schur_margin, lam_min)
    try:
        k_row = np.linalg.solve(q, y.reshape(-1, 1)).reshape(1, -1)
        p = np.linalg.inv(q)
    except np.linalg.LinAlgError:
        return None
    p = 0.5 * (p + p.T)
    p_min = float(np.linalg.eigvalsh(p)[0])
    if p_min < tolerance / 2:
        return None
    lyapunov = []
    radii = []
    for b in (problem.b1, problem.b2):
        closed = problem.a + b @ k_row
        decrement = closed.T @ p @ closed - p
        lyapunov.append(-float(np.linalg.eigvalsh(decrement)[-1]))
        radii.append(spectral_radius(closed))
    if min(lyapunov) < tolerance / 2 or max(radii) >= 1.0:
        return None
    return LmiCertificate(
        q=q,
        y=np.asarray(y, dtype=float).reshape(1, -1),
        recovered_k=FeedbackGain(k=k_row.ravel()),
        recovered_p=p,
        margin=schur_margin,
        p_min_eigenvalue=p_min,
        lyapunov_margins=(lyapunov[0], lyapunov[1]),
        spectral_radii=(radii[0], radii[1]),
    )


class _BarrierState:
    """Margin maximization in congruence-transformed coordinates.

    Variables are x = (svec(Q), Y) with trace(Q) = n fixed; the three blocks
    are affine in x.  ``transform`` maps solver coordinates back to the
    original ones: Q_orig = T Q T', Y_orig = Y T'.

    The start is Q = I in coordinates set by the warm start (Q_w, Y_w):
    T = chol(sym(Q_w)), Y = Y_w T^-T.  Without one, or if that factor or its
    inverse fails, the cold start takes T = diag(balance()), which balances
    the gain ladder, and the uniform balanced deadbeat gain Y = -r/v.
    """

    def __init__(self, problem: CostabLmiProblem, warm: Optional[tuple] = None):
        self.n = n = problem.n
        transform = None
        if warm is not None:
            q_w, y_w = warm
            try:
                transform = np.linalg.cholesky(0.5 * (q_w + q_w.T))
                t_inv = np.linalg.inv(transform)
                y = y_w @ t_inv.T
            except np.linalg.LinAlgError:
                transform = None
        if transform is None:
            transform = np.diag(problem.balance())
            t_inv = np.linalg.inv(transform)
            y = np.full(n, -problem.params.r / problem.params.v)
        self.transform = transform
        # the same problem in solver coordinates
        self.scaled = replace(
            problem,
            a=t_inv @ problem.a @ transform,
            b1=t_inv @ problem.b1,
            b2=t_inv @ problem.b2,
        )
        # svec(Q) is the upper triangle of Q, row by row
        self.q_rows, self.q_cols = np.triu_indices(n)
        self.q_dim = len(self.q_rows)
        self.dim = self.q_dim + n
        self._build_basis()
        # trace(Q) = n selector; its Q part is svec(I), the start's Q
        self.trace_vector = np.zeros(self.dim)
        self.trace_vector[: self.q_dim] = self.q_rows == self.q_cols
        self.start = np.concatenate([self.trace_vector[: self.q_dim], np.ravel(y)])

    def _build_basis(self):
        n, k, d = self.n, self.q_dim, self.dim
        # e[a] is the symmetric unit matrix of svec coordinate a
        e = np.zeros((k, n, n))
        e[np.arange(k), self.q_rows, self.q_cols] = 1.0
        e[np.arange(k), self.q_cols, self.q_rows] = 1.0
        ae = self.scaled.a @ e
        tensors = []
        for b in (self.scaled.b1, self.scaled.b2):
            g = np.zeros((d, 2 * n, 2 * n))
            g[:k, :n, :n] = e
            g[:k, n:, n:] = e
            g[:k, n:, :n] = ae
            g[:k, :n, n:] = ae.transpose(0, 2, 1)
            for j in range(n):
                g[k + j, n:, j] = b.ravel()
                g[k + j, j, n:] = b.ravel()
            tensors.append(g)
        gq = np.zeros((d, n, n))
        gq[:k] = e
        tensors.append(gq)
        self.basis = tensors
        self.basis_flat = [g.reshape(self.dim, -1) for g in tensors]

    def unpack(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        q = np.zeros((self.n, self.n))
        q[self.q_rows, self.q_cols] = x[: self.q_dim]
        q[self.q_cols, self.q_rows] = x[: self.q_dim]
        y = x[self.q_dim :].reshape(1, self.n)
        return q, y

    def blocks(self, x: np.ndarray) -> list[np.ndarray]:
        return self.scaled.blocks(*self.unpack(x))

    def spectra(self, x: np.ndarray) -> list[np.ndarray]:
        """Ascending eigenvalues of each of the blocks [M1, M2, Q] at x."""
        return [np.linalg.eigvalsh(m) for m in self.blocks(x)]

    def to_original(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        q, y = self.unpack(x)
        t = self.transform
        return t @ q @ t.T, y @ t.T

    def _barrier_value(self, x: np.ndarray, level: float) -> Optional[tuple]:
        """-(sum of log dets) of the blocks shifted down by level, with the
        shifted blocks, or None outside the cone."""
        shifted = self.blocks(x)
        value = 0.0
        for m in shifted:
            # m - level * I, in place: off the diagonal it subtracted 0.0
            m.reshape(-1)[:: m.shape[0] + 1] -= level
            try:
                diag = np.linalg.cholesky(m).diagonal()
            except np.linalg.LinAlgError:
                return None
            if (diag <= 0).any():
                return None
            value -= 2.0 * float(np.log(diag).sum())
        return value, shifted

    def center(self, x: np.ndarray, level: float) -> np.ndarray:
        """Damped Newton minimization of the barrier at the given level,
        staying on the trace(Q) = n plane.

        Ends when the Newton decrement is at most 2e-10; when the
        backtracking line search fails, or its sufficient-decrease demand
        0.01 * alpha * |slope| has fallen to the rounding floor
        _EPS * |value| of the barrier value, so that only noise could pass
        it; or after _MAX_NEWTON steps."""
        barrier = self._barrier_value(x, level)
        if barrier is None:
            raise ValueError("centering started outside the level set")
        value, shifted = barrier
        for _ in range(_MAX_NEWTON):
            grad = np.zeros(self.dim)
            hess = np.zeros((self.dim, self.dim))
            for m, basis, basis_flat in zip(shifted, self.basis, self.basis_flat):
                inv = np.linalg.inv(m)
                inv = 0.5 * (inv + inv.T)
                grad -= basis_flat @ inv.ravel()
                w = np.matmul(inv, basis)
                wt = w.transpose(0, 2, 1).reshape(self.dim, -1)
                hess += w.reshape(self.dim, -1) @ wt.T
            kkt = np.zeros((self.dim + 1, self.dim + 1))
            kkt[: self.dim, : self.dim] = hess
            kkt[: self.dim, self.dim] = self.trace_vector
            kkt[self.dim, : self.dim] = self.trace_vector
            rhs = np.concatenate([-grad, [0.0]])
            try:
                step = np.linalg.solve(kkt, rhs)[: self.dim]
            except np.linalg.LinAlgError:
                jitter = 1e-12 * (1.0 + np.trace(hess) / self.dim)
                kkt[: self.dim, : self.dim] += jitter * np.eye(self.dim)
                step = np.linalg.solve(kkt, rhs)[: self.dim]
            decrement = float(step @ hess @ step)
            if decrement <= 2e-10:
                break
            slope = float(grad @ step)
            alpha = 1.0
            improved = False
            for _ in range(60):
                if 0.01 * alpha * abs(slope) <= _EPS * abs(value):
                    break
                candidate = x + alpha * step
                barrier = self._barrier_value(candidate, level)
                if barrier is not None and barrier[0] <= value + 0.01 * alpha * slope:
                    x = candidate
                    value, shifted = barrier
                    improved = True
                    break
                alpha *= 0.5
            if not improved:
                break
        return x


def check_feasible(
    problem: CostabLmiProblem,
    tolerance: float = 1e-6,
    warm_start: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> LmiCertificate | InfeasibleReport:
    """Decide strict feasibility of the convexified pair problem.

    Returns a verified LmiCertificate or an InfeasibleReport.  The margin is
    climbed level by level: each level re-centers the log-det barrier of the
    shifted blocks, then the level moves 85% of the remaining gap.  Each
    level reads the block spectra of the centered iterate once: the margin
    is their smallest eigenvalue, and once the Q block's condition number
    passes 1e6 the state is rebuilt around the current certificate, which
    becomes the identity; this resets the margin lower.

    "infeasible" is not a proof: the climb stopped without a verified
    certificate, because _STALL_LIMIT (50) levels in a row (counted across
    re-preconditionings) gave no new best margin, as in most infeasible
    probes, or because the level set collapsed onto the margin, as in the
    probes next to the boundary.  "inconclusive": _MAX_LEVELS (400) ran out, or Q
    left the positive definite cone, first.
    """
    state = _BarrierState(problem, warm_start)
    x = state.start
    g = min(float(eigs[0]) for eigs in state.spectra(x))
    level = g - max(1.0, 0.25 * abs(g))
    best_margin = -math.inf
    stall = 0

    for _ in range(_MAX_LEVELS):
        x = state.center(x, level)
        spectra = state.spectra(x)
        g = min(float(eigs[0]) for eigs in spectra)
        gap = g - level
        if g > 0:
            q_orig, y_orig = state.to_original(x)
            certificate = _verify_certificate(problem, q_orig, y_orig, tolerance)
            if certificate is not None:
                return certificate
        if g > best_margin + max(1e-14, 1e-7 * abs(g)):
            best_margin = max(best_margin, g)
            stall = 0
        else:
            stall += 1
            if stall >= _STALL_LIMIT:
                return InfeasibleReport(best_margin=best_margin, status="infeasible")
        # the level set collapsed onto the margin: the climb is over
        if gap <= max(1e-13, 1e-7 * abs(g)) or (
            g < -1e-12 and gap <= 0.02 * abs(g)
        ):
            return InfeasibleReport(best_margin=best_margin, status="infeasible")
        # re-precondition once the certificate drifts far from the identity
        q_eigs = spectra[-1]
        if q_eigs[0] <= 0:
            break
        if q_eigs[-1] / q_eigs[0] > 1e6:
            state = _BarrierState(problem, state.to_original(x))
            x = state.start
            g = min(float(eigs[0]) for eigs in state.spectra(x))
            level = g - max(1e-12, 0.5 * abs(g))
            continue
        level = g - 0.15 * gap

    return InfeasibleReport(best_margin=best_margin, status="inconclusive")


def bisect_largest_m(
    params: HardFamilyParams, tolerance: float = BISECTION_TOLERANCE
) -> BisectionResult:
    """Largest perturbation for which the pair problem stays feasible.

    The bracket starts at [0, params.theorem_m]; the upper end cannot admit a
    common gain at all, so it is infeasible without solving.  Probes treat an
    inconclusive solver status as infeasible and flag the result as
    conservative.  The feasible endpoint's certificate warm-starts each probe.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    theorem_m = params.theorem_m

    lo = 0.0
    outcome = check_feasible(build_costab_lmi(make_hard_pair(params, 0.0)))
    if not outcome.feasible:
        raise RuntimeError(
            f"could not certify feasibility at m = 0 for n = {params.n}; "
            f"solver status {outcome.status}"
        )
    certificate = outcome

    hi = theorem_m
    trace = [(0.0, "feasible"), (theorem_m, "infeasible-analytic")]
    conservative = False
    iterations = 0
    while hi - lo > tolerance * max(lo, theorem_m * 1e-9):
        mid = 0.5 * (lo + hi)
        problem = build_costab_lmi(make_hard_pair(params, mid))
        outcome = check_feasible(problem, warm_start=(certificate.q, certificate.y))
        iterations += 1
        if outcome.feasible:
            lo = mid
            certificate = outcome
            trace.append((mid, "feasible"))
        else:
            hi = mid
            conservative = conservative or outcome.status == "inconclusive"
            trace.append((mid, outcome.status))
        if iterations > 200:
            break

    feasible_ms = [m for m, status in trace if status == "feasible"]
    infeasible_ms = [m for m, status in trace if status != "feasible"]
    if feasible_ms and infeasible_ms and max(feasible_ms) >= min(infeasible_ms):
        raise BisectionError(
            f"non-monotone feasibility observed: feasible at {max(feasible_ms)} "
            f"but infeasible at {min(infeasible_ms)}"
        )

    return BisectionResult(
        largest_feasible_m=lo,
        bracket=(lo, hi),
        iterations=iterations,
        certificate=certificate,
        sup_bound=params.sup_bound,
        theorem_m=theorem_m,
        conservative=conservative,
        trace=tuple(trace),
    )
