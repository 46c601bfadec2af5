"""Common-Lyapunov co-stabilizability feasibility test and bisection over
the perturbation size.

The pair condition "find K, P with (A + B_i K)' P (A + B_i K) < P for both
siblings and P > 0" is convexified by Q = P^-1, Y = K Q: for i in {1, 2}

    [[Q, (A Q + B_i Y)'], [A Q + B_i Y, Q]] > 0,   Q > 0,

with K = Y Q^-1 and P = Q^-1 recovered from any solution.  Feasibility is
decided on the margin problem

    maximize t  subject to  M1 - t I >= 0,  M2 - t I >= 0,  trace(Q) = n,

by infeasible-start primal-dual path following (HKM direction, Mehrotra
predictor-corrector).  Q - t I is the leading n x n block of each M_i - t I,
so M_i >= t I implies Q >= t I, and the solver carries only the pair as one
(2, 2n, 2n) stack.  Certificates for this family are intrinsically ill
conditioned (their conditioning grows geometrically with n), so the solver
works in congruence-transformed coordinates that make a start point the
identity, and re-preconditions between rounds; every returned certificate
is re-verified in the original variables by direct substitution of all
three blocks.  A probe is "feasible" when a certificate verifies,
"infeasible" when the duality gap closes first with the margin t at most
the gap, "unverified" when it closes with t above the gap, and
"inconclusive" when the iteration cap or a numerical breakdown comes first.

bisect_largest_m's bracket starts at [0, theorem_m] and first widens
around (2 / (r - 1)) * HardFamilyParams.scale, where the boundary is
measured to lie, then bisects; the sweep's ``iterations`` column counts its
probes after m = 0.

The solver takes the HardPair itself: A and the two input columns come
from its siblings s1 and s2, and the cold start reads its
HardFamilyParams.  costab_blocks is the one statement of the block layout:
it builds the pair [M1, M2] from (A, B1, B2, Q, Y); the substitution check
calls it with the HardPair's matrices and reads Q besides, the solver with
its congruence-transformed ones.  The pair is linear in (Q, Y), so the
solver's derivative basis is the pair evaluated at unit vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .numerics import spectral_radius
from .systems import HardFamilyParams, HardPair, make_hard_pair

_EPS = np.finfo(float).eps
# Path-following iterations per round
_MAX_ITERATIONS = 50
# Rounds per check_feasible call, each after the first re-preconditioned
_MAX_ROUNDS = 3
# Duality gap <X, S> at which a round counts as closed
_GAP_CLOSED = 1e-9
# Share of the largest step inside the cone that an iterate takes
_STEP_FRACTION = 0.95
# Ridge added to the Schur complement, relative to its trace
_RIDGE = 1e-15
# Relative bracket width at which bisect_largest_m stops
BISECTION_TOLERANCE = 1e-3
# Probes bisect_largest_m makes after m = 0 before it stops unconverged
_MAX_PROBES = 200
# Least eigenvalue of P, and least Lyapunov decrement margin of each
# sibling, that a recovered (K, P) must show under substitution
_SUBSTITUTION_MARGIN = 5e-7


def costab_blocks(
    a: np.ndarray, b1: np.ndarray, b2: np.ndarray, q: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """The pair [M1, M2] of the siblings (A, B1), (A, B2) evaluated at
    (Q, Y), one fresh (2, 2n, 2n) array: M_i = [[Q, (A Q + B_i Y)'],
    [A Q + B_i Y, Q]], so the third block, Q, leads each M_i.  Q may be a
    stack (..., n, n) with Y (..., 1, n); the pair is then (2, ..., 2n, 2n)."""
    n = a.shape[0]
    q = np.asarray(q, dtype=float)
    y = np.asarray(y, dtype=float).reshape(q.shape[:-2] + (1, n))
    aq = a @ q
    pair = np.empty((2,) + q.shape[:-2] + (2 * n, 2 * n))
    pair[..., :n, :n] = pair[..., n:, n:] = q
    pair[0, ..., n:, :n] = aq + b1 @ y
    pair[1, ..., n:, :n] = aq + b2 @ y
    pair[..., :n, n:] = np.swapaxes(pair[..., n:, :n], -1, -2)
    return pair


@dataclass(frozen=True)
class LmiCertificate:
    """Verified solution: margins are recomputed from the stored (Q, Y) by
    direct substitution, never taken from the solver."""

    q: np.ndarray
    y: np.ndarray
    recovered_k: np.ndarray  # the (n,) gain K = Y Q^-1
    recovered_p: np.ndarray
    margin: float  # smallest eigenvalue over the three Schur blocks
    p_min_eigenvalue: float
    lyapunov_margins: tuple[float, float]  # -lambda_max((A+B_iK)'P(A+B_iK) - P)
    spectral_radii: tuple[float, float]
    iterations: int = 0  # path-following iterations over all rounds

    @property
    def feasible(self) -> bool:
        return True


@dataclass(frozen=True)
class InfeasibleReport:
    """No verified certificate; see check_feasible.  Status 'infeasible'
    means a round's duality gap closed first with best_margin <= gap,
    'unverified' that it closed with best_margin > gap, and 'inconclusive'
    that every round hit the iteration cap or broke down.  best_margin and
    gap are the margin t and the duality gap <X, S> at the end of the last
    round whose gap closed, or of the last round when none did, in that
    round's solver coordinates; neither is checked."""

    best_margin: float
    status: str  # "infeasible" | "unverified" | "inconclusive"
    iterations: int = 0  # path-following iterations over all rounds
    gap: float = math.nan

    @property
    def feasible(self) -> bool:
        return False


@dataclass(frozen=True)
class BisectionResult:
    """One bisection of bisect_largest_m, and one row of the LMI sweep."""

    params: HardFamilyParams  # the family bisected
    largest_feasible_m: float
    bracket: tuple[float, float]
    iterations: int
    # the verified certificate at largest_feasible_m; None when m = 0
    # could not be certified
    certificate: Optional[LmiCertificate]
    conservative: bool
    trace: tuple = ()
    # the probe cap stopped the bisection while its bracket could still
    # shrink towards the tolerance
    capped: bool = False

    @property
    def status(self) -> str:
        """'uncertified' when not even m = 0 could be certified, else
        'unconverged' when the probe cap stopped the bisection short of its
        tolerance, else 'conservative' when an inconclusive or unverified
        probe was counted as infeasible, else 'ok'."""
        if self.certificate is None:
            return "uncertified"
        if self.capped:
            return "unconverged"
        return "conservative" if self.conservative else "ok"


def _verify_certificate(pair: HardPair, q: np.ndarray, y: np.ndarray) -> Optional[LmiCertificate]:
    """Direct-substitution check in the original variables.

    The Schur blocks M1, M2 and Q must be positive beyond the eigenvalue
    noise floor, and the recovered (K, P) must satisfy the strict pair
    inequalities: P and both Lyapunov decrements with margin at least
    _SUBSTITUTION_MARGIN, both closed loops with spectral radius below 1.
    These checks verify the (K, P) that the certificate reports; the margin
    moves no bisection boundary.  Feasibility is invariant under
    (Q, Y) -> (aQ, aY), so the certificate is normalized to trace(Q) = n first.
    """
    a, b1, b2 = pair.s1.a, pair.s1.b, pair.s2.b
    q = 0.5 * (q + q.T)
    scale = pair.params.n / float(np.trace(q))
    if not np.isfinite(scale) or scale <= 0:
        return None
    q = scale * q
    y = scale * np.asarray(y, dtype=float)
    schur_margin = math.inf
    for block in (*costab_blocks(a, b1, b2, q, y), q):
        lam = np.linalg.eigvalsh(block)
        lam_min = float(lam[0])
        # the 2-norm of a symmetric block is max(-lam_min, lam_max)
        floor = 50.0 * _EPS * max(1.0, -lam_min, float(lam[-1]))
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
    if p_min < _SUBSTITUTION_MARGIN:
        return None
    lyapunov = []
    radii = []
    for b in (b1, b2):
        closed = a + b @ k_row
        decrement = closed.T @ p @ closed - p
        lyapunov.append(-float(np.linalg.eigvalsh(decrement)[-1]))
        radii.append(spectral_radius(closed))
    if min(lyapunov) < _SUBSTITUTION_MARGIN or max(radii) >= 1.0:
        return None
    return LmiCertificate(
        q=q,
        y=np.asarray(y, dtype=float).reshape(1, -1),
        recovered_k=k_row.ravel(),
        recovered_p=p,
        margin=schur_margin,
        p_min_eigenvalue=p_min,
        lyapunov_margins=(lyapunov[0], lyapunov[1]),
        spectral_radii=(radii[0], radii[1]),
    )


class _SolverFrame:
    """The solver's coordinate frame: the margin problem in
    congruence-transformed coordinates of a HardPair.

    Variables are x = (svec(Q), Y) with trace(Q) = n fixed; the pair
    (M1, M2), all that the solver carries, is linear in x, with no constant
    term.  ``transform`` maps solver coordinates back to the original ones:
    Q_orig = T Q T', Y_orig = Y T'; ``a``, ``b1`` and ``b2`` are the
    siblings' matrices in solver coordinates, T^-1 A T and T^-1 B_i.

    The start is Q = I in coordinates set by the warm start (Q_w, Y_w):
    T = chol(sym(Q_w)), Y = Y_w T^-T.  Without one, or if that factor or its
    inverse fails, the cold start takes T = diag(HardFamilyParams.balance),
    which balances the gain ladder, and the uniform balanced deadbeat gain
    Y = -r/v; ``warm`` says which start was taken.
    """

    def __init__(self, pair: HardPair, warm: Optional[tuple] = None):
        params = pair.params
        self.n = n = params.n
        transform = None
        if warm is not None:
            q_w, y_w = warm
            try:
                transform = np.linalg.cholesky(0.5 * (q_w + q_w.T))
                t_inv = np.linalg.inv(transform)
                y = y_w @ t_inv.T
            except np.linalg.LinAlgError:
                transform = None
        self.warm = transform is not None
        if transform is None:
            transform = np.diag(params.balance)
            t_inv = np.linalg.inv(transform)
            y = np.full(n, -params.r / params.v)
        self.transform = transform
        # the siblings in solver coordinates
        self.a = t_inv @ pair.s1.a @ transform
        self.b1 = t_inv @ pair.s1.b
        self.b2 = t_inv @ pair.s2.b
        # svec(Q) is the upper triangle of Q, row by row
        self.q_rows, self.q_cols = np.triu_indices(n)
        self.q_dim = len(self.q_rows)
        self.dim = self.q_dim + n
        # trace(Q) = n selector; its Q part is svec(I), the start's Q
        trace_vector = np.zeros(self.dim)
        trace_vector[: self.q_dim] = self.q_rows == self.q_cols
        self.start = np.concatenate([trace_vector[: self.q_dim], np.ravel(y)])
        # orthonormal directions of the trace(Q) = n plane
        self.plane = np.linalg.qr(trace_vector[:, None], mode="complete")[0][:, 1:]
        self._build_basis()

    def _build_basis(self):
        """basis[i, j] is the derivative of the slack block M_i(x) - t I along
        coordinate j of y = (z, t), where x = start + plane @ z: dim - 1
        directions in the plane, then t.  The pair is linear in x, so its
        derivative along coordinate a of x is the pair at the unit vector
        e_a."""
        tensors = self.blocks(np.eye(self.dim))
        in_plane = np.moveaxis(np.tensordot(self.plane, tensors, axes=(0, 1)), 0, 1)
        along_t = np.broadcast_to(-np.eye(2 * self.n), tensors[:, :1].shape)
        self.basis = np.concatenate([in_plane, along_t], axis=1)
        # row j holds both blocks of coordinate j
        self.basis_flat = np.moveaxis(self.basis, 0, 1).reshape(self.dim, -1)

    def unpack(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(Q, Y) of x, or of each row of a stack x (..., dim) as (..., n, n)
        and (..., 1, n)."""
        stack = x.shape[:-1]
        q = np.zeros(stack + (self.n, self.n))
        q[..., self.q_rows, self.q_cols] = x[..., : self.q_dim]
        q[..., self.q_cols, self.q_rows] = x[..., : self.q_dim]
        y = x[..., self.q_dim :].reshape(stack + (1, self.n))
        return q, y

    def blocks(self, x: np.ndarray) -> np.ndarray:
        return costab_blocks(self.a, self.b1, self.b2, *self.unpack(x))

    def to_original(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        q, y = self.unpack(x)
        t = self.transform
        return t @ q @ t.T, y @ t.T


class _Round(NamedTuple):
    """How one round of path following ended, at its last iterate (x, t).
    A round without a certificate closed exactly when gap <= _GAP_CLOSED:
    every other end carries a larger gap, or NaN."""

    certificate: Optional[LmiCertificate]
    x: np.ndarray
    t: float
    gap: float  # <X, S>
    iterations: int


def _transpose(stack: np.ndarray) -> np.ndarray:
    return np.swapaxes(stack, -1, -2)


def _max_step(factor_inv: np.ndarray, step: np.ndarray) -> float:
    """Largest alpha with L L' + alpha * step >= 0 for every block of the
    stack, given the stack of L^-1."""
    lam = float(np.linalg.eigvalsh(factor_inv @ step @ _transpose(factor_inv))[:, 0].min())
    return math.inf if lam >= 0 else -1.0 / lam


def _path_follow(pair: HardPair, frame: _SolverFrame) -> _Round:
    """One round of infeasible-start primal-dual path following on the
    margin problem in the frame's coordinates.

    The cone is the pair (M1, M2) alone, as (2, 2n, 2n) stacks of barrier
    order 4n: Q - t I is a principal block of each M_i - t I, so Q >= t I is
    implied.  The dual iterate is y = (z, t) with x = start + plane @ z and
    slack S = M(x) - t I, rebuilt from (x, t) at every iterate, so the dual
    residual stays zero; it starts at t = lambda_min(M(start)) - 1.  The
    primal iterate X starts at I / 4n, off its equality constraints; its
    steps restore them.  Each iteration takes the HKM direction (Helmberg,
    Rendl, Vanderbei and Wolkowicz 1996) with a Mehrotra predictor-corrector
    step; X and y each move _STEP_FRACTION of their largest step inside the
    cone.

    Every iterate with t > 0 is checked by substitution of all three blocks.
    The round ends at the first verified certificate, once the duality gap
    <X, S> is at most _GAP_CLOSED, when X or S loses its Cholesky factor
    (breakdown), or after _MAX_ITERATIONS iterations."""
    x = frame.start
    t = float(np.linalg.eigvalsh(frame.blocks(x))[:, 0].min()) - 1.0
    order = 4 * frame.n
    xs = np.tile(np.eye(2 * frame.n) / order, (2, 1, 1))
    target = np.zeros(frame.dim)  # the objective t
    target[-1] = 1.0
    gap = math.nan
    iterations = 0
    while True:
        ss = frame.blocks(x) - t * np.eye(2 * frame.n)
        try:
            x_factor = np.linalg.cholesky(xs)
            s_inv = np.linalg.inv(np.linalg.cholesky(ss))
        except np.linalg.LinAlgError:
            return _Round(None, x, t, gap, iterations)
        gap = float(np.vdot(xs, ss))
        if t > 0:
            certificate = _verify_certificate(pair, *frame.to_original(x))
            if certificate is not None:
                return _Round(certificate, x, t, gap, iterations)
        if gap <= _GAP_CLOSED:
            return _Round(None, x, t, gap, iterations)
        if iterations == _MAX_ITERATIONS:
            return _Round(None, x, t, gap, iterations)
        iterations += 1

        x_inv = np.linalg.inv(x_factor)
        zs = _transpose(s_inv) @ s_inv  # S^-1
        # Schur complement <D_j, X D_k S^-1> = sum_i <U_ij, U_ik>, U_ij =
        # Lx_i' D_ij Ls_i^-T.  Its conditioning grows like 1/gap^2 on these
        # degenerate problems, and a plain Cholesky factor fails near gap 1e-7;
        # a ridge of 1e-15 of its trace keeps it until the gap nears 1e-13.
        u = _transpose(x_factor)[:, None] @ frame.basis @ _transpose(s_inv)[:, None]
        u = u.reshape(2, frame.dim, -1)
        schur = (u @ _transpose(u)).sum(axis=0)
        schur.reshape(-1)[:: frame.dim + 1] += _RIDGE * np.trace(schur)
        try:
            factor = np.linalg.cholesky(schur)
        except np.linalg.LinAlgError:
            return _Round(None, x, t, gap, iterations)

        def direction(rhs, centre, second):
            """HKM direction: dS = sum dy_j D_j, and dX the symmetric part of
            centre S^-1 - X - (X dS + second) S^-1."""
            dy = np.linalg.solve(factor.T, np.linalg.solve(factor, rhs))
            ds = (dy @ frame.basis_flat).reshape(zs.shape)
            w = centre * zs - xs - (xs @ ds + second) @ zs
            return dy, 0.5 * (w + _transpose(w)), ds

        def steps(dx, ds, fraction):
            primal = _max_step(x_inv, dx)
            dual = _max_step(s_inv, ds)
            return min(1.0, fraction * primal), min(1.0, fraction * dual)

        mu = gap / order
        _, dx, ds = direction(target, 0.0, 0.0)
        alpha_x, alpha_s = steps(dx, ds, 1.0)
        mu_affine = float(np.vdot(xs + alpha_x * dx, ss + alpha_s * ds)) / order
        sigma = min(1.0, (mu_affine / mu) ** 3)
        second = dx @ ds
        # basis_flat @ W.ravel() is sum_i <D_ij, W_i> for each coordinate j
        rhs = target + frame.basis_flat @ (sigma * mu * zs - second @ zs).ravel()
        dy, dx, ds = direction(rhs, sigma * mu, second)
        alpha_x, alpha_s = steps(dx, ds, _STEP_FRACTION)
        xs = xs + alpha_x * dx
        x = x + alpha_s * (frame.plane @ dy[:-1])
        t += alpha_s * dy[-1]


def check_feasible(
    pair: HardPair, *, warm_start: Optional[tuple[np.ndarray, np.ndarray]] = None
) -> LmiCertificate | InfeasibleReport:
    """Decide strict feasibility of the convexified pair problem of a
    HardPair, optionally warm-started from an earlier certificate's (Q, Y).

    Returns a verified LmiCertificate or an InfeasibleReport.  Each round
    runs _path_follow on the margin problem (maximize t with M1, M2 >= t I,
    which implies Q >= t I, on the trace(Q) = n plane).  A round without a
    certificate is followed by one in coordinates re-centred on its last
    iterate, whose Q becomes the identity, while that Q is positive definite
    and fewer than _MAX_ROUNDS rounds have run, unless its gap closed in
    warm coordinates.  The balanced cold start is a guess that fits large n
    badly: at m = 0, n = 11 the cold round closes at t ~ -7e-11 and the
    next verifies at t ~ 0.07.

    "feasible": a certificate passed _verify_certificate, which checks M1,
    M2 and Q with a fixed substitution margin (_SUBSTITUTION_MARGIN).
    The last round whose duality gap closed with no certificate verified
    decides the other verdicts: the largest margin in its coordinates is
    its t to within its gap.
    "infeasible": t <= gap.  Such a t is a numerical zero (-2.5e-7 to
    -2.7e-11 on the sweep's probes at n = 2..12).
    "unverified": t > gap.  Below the boundary t is positive (9.1e-8 to 0.14
    on those probes) while no iterate's certificate passes substitution:
    in the original variables its Schur margins sit below the rounding
    floor.  The margin says feasible and no certificate confirms it.
    "inconclusive": no round closed; every one hit _MAX_ITERATIONS or broke
    down first.
    """
    frame = _SolverFrame(pair, warm_start)
    iterations = 0
    closed = None  # the last round whose gap closed
    for _ in range(_MAX_ROUNDS):
        outcome = _path_follow(pair, frame)
        iterations += outcome.iterations
        if outcome.certificate is not None:
            return replace(outcome.certificate, iterations=iterations)
        if outcome.gap <= _GAP_CLOSED:
            closed = outcome
            if frame.warm:
                break
        if np.linalg.eigvalsh(frame.unpack(outcome.x)[0])[0] <= 0:
            break
        frame = _SolverFrame(pair, frame.to_original(outcome.x))
    if closed is None:
        status = "inconclusive"
    else:
        outcome = closed
        status = "unverified" if closed.t > closed.gap else "infeasible"
    return InfeasibleReport(
        best_margin=outcome.t, status=status, iterations=iterations, gap=outcome.gap
    )


def _widening_offsets(tolerance: float):
    """Relative offsets of bisect_largest_m's widening probes: tolerance / 2,
    then square roots while below 1/4, then doublings, so an offset passes 1
    within about log2(log2(1 / tolerance)) + 3 steps."""
    offset = 0.5 * tolerance
    while True:
        yield offset
        offset = math.sqrt(offset) if offset < 0.25 else 2.0 * offset


def bisect_largest_m(
    params: HardFamilyParams, tolerance: float = BISECTION_TOLERANCE
) -> BisectionResult:
    """Largest perturbation for which the pair problem stays feasible.

    m = 0 is probed first; the bracket's upper end, params.theorem_m, cannot
    admit a common gain at all, so it is infeasible without solving.  The
    bracket then widens around the seed c = (2 / (r - 1)) * params.scale
    (see HardFamilyParams.scale), the same for every call: probes at
    c (1 - w) until one is feasible, then at c (1 + w) until one is
    infeasible, w running through _widening_offsets; a widening that passes
    an end of the bracket stops there.  Bisection then stops at the relative
    tolerance, or earlier once the midpoint rounds to an end of the bracket;
    one stopped first by the _MAX_PROBES cap, which counts the widening
    probes too, reports status 'unconverged'.

    Probes treat an inconclusive or unverified solver status as infeasible
    and flag the result as conservative.  The feasible endpoint's
    certificate warm-starts each probe.  Each probe lies strictly inside the
    bracket and becomes its lower end when feasible, its upper end
    otherwise, so no probe repeats and every feasible probe in the trace
    lies below every infeasible one.  ``iterations`` counts the probes after
    m = 0.  When m = 0 cannot be certified, the result has status
    'uncertified', largest m 0, no certificate and no probes.
    """
    if not 0 < tolerance < math.inf:
        raise ValueError("tolerance must be positive and finite")
    theorem_m = params.theorem_m

    lo = 0.0
    hi = theorem_m
    outcome = check_feasible(make_hard_pair(params, 0.0))
    if not outcome.feasible:
        return BisectionResult(
            params=params,
            largest_feasible_m=lo,
            bracket=(lo, hi),
            iterations=0,
            certificate=None,
            conservative=False,
            trace=((0.0, outcome.status),),
        )
    certificate = outcome

    trace = [(0.0, "feasible"), (theorem_m, "infeasible-analytic")]
    conservative = False
    capped = False
    iterations = 0

    def probe(m: float) -> bool:
        """Decide m, move the bracket's end on its side, and say whether m
        was feasible."""
        nonlocal lo, hi, certificate, conservative, iterations
        outcome = check_feasible(
            make_hard_pair(params, m), warm_start=(certificate.q, certificate.y)
        )
        iterations += 1
        if outcome.feasible:
            lo = m
            certificate = outcome
            trace.append((m, "feasible"))
        else:
            hi = m
            conservative = conservative or outcome.status in ("inconclusive", "unverified")
            trace.append((m, outcome.status))
        return outcome.feasible

    # an offset below float resolution rounds m onto the seed, which the
    # bracket checks keep from being probed twice
    seed = 2.0 / (params.r - 1.0) * params.scale
    for offset in _widening_offsets(tolerance):
        m = seed * (1.0 - offset)
        if m <= lo:
            break
        if m < hi and probe(m):
            break
    for offset in _widening_offsets(tolerance):
        m = seed * (1.0 + offset)
        if m >= hi:
            break
        if m > lo and not probe(m):
            break

    while hi - lo > tolerance * max(lo, theorem_m * 1e-9):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # the bracket cannot shrink further
            break
        if iterations >= _MAX_PROBES:
            capped = True
            break
        probe(mid)

    return BisectionResult(
        params=params,
        largest_feasible_m=lo,
        bracket=(lo, hi),
        iterations=iterations,
        certificate=certificate,
        conservative=conservative,
        trace=tuple(trace),
        capped=capped,
    )
