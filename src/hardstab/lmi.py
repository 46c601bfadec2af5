"""Common-Lyapunov co-stabilizability feasibility test and bisection over
the perturbation size.

The pair condition "find K, P with (A + B_i K)' P (A + B_i K) < P for both
siblings and P > 0" is convexified by Q = P^-1, Y = K Q: for i in {1, 2}

    [[Q, (A Q + B_i Y)'], [A Q + B_i Y, Q]] > 0,   Q > 0,

with K = Y Q^-1 and P = Q^-1 recovered from any solution.  Feasibility is
decided on the margin problem

    maximize t  subject to  M1 - t I >= 0,  M2 - t I >= 0,  Q - t I >= 0,
    trace(Q) = n,

by infeasible-start primal-dual path following (HKM direction, Mehrotra
predictor-corrector).  Certificates for this family are intrinsically ill
conditioned (their conditioning grows geometrically with n), so the solver
works in congruence-transformed coordinates that make a start point the
identity, and re-preconditions between rounds; every returned certificate
is re-verified in the original variables by direct substitution.  A probe
is "feasible" when a certificate verifies, "infeasible" when the duality gap
closes first, and "inconclusive" when the iteration cap or a numerical
breakdown comes first.

bisect_largest_m's bracket starts at [0, theorem_m] and first widens
around (2 / (r - 1)) * HardFamilyParams.scale, where the boundary is
measured to lie, then bisects; the sweep's ``iterations`` column counts its
probes after m = 0.

CostabLmiProblem.blocks is the one statement of the block layout.  The
blocks are linear in (Q, Y), so the solver's derivative basis is those
blocks evaluated at unit vectors, and the solver and the substitution check
read the same problem.
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
        fresh array: M_i = [[Q, (A Q + B_i Y)'], [A Q + B_i Y, Q]].  Q may be
        a stack (..., n, n) with Y (..., 1, n); each block is then the stack
        of the elements' blocks."""
        n = self.n
        q = np.asarray(q, dtype=float)
        y = np.asarray(y, dtype=float).reshape(q.shape[:-2] + (1, n))
        aq = self.a @ q
        pair = np.empty((2,) + q.shape[:-2] + (2 * n, 2 * n))
        pair[..., :n, :n] = pair[..., n:, n:] = q
        pair[0, ..., n:, :n] = aq + self.b1 @ y
        pair[1, ..., n:, :n] = aq + self.b2 @ y
        pair[..., :n, n:] = np.swapaxes(pair[..., n:, :n], -1, -2)
        return [pair[0], pair[1], q.copy()]

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
    means a round's duality gap closed first, 'inconclusive' that every
    round hit the iteration cap or broke down.  best_margin and gap are the
    margin t and the duality gap <X, S> of the last iterate, in the solver
    coordinates of the last round; neither is checked."""

    best_margin: float
    status: str  # "infeasible" | "inconclusive"
    iterations: int = 0  # path-following iterations over all rounds
    gap: float = math.nan

    @property
    def feasible(self) -> bool:
        return False


@dataclass(frozen=True)
class BisectionResult:
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
        tolerance, else 'conservative' when an inconclusive probe was
        counted as infeasible, else 'ok'."""
        if self.certificate is None:
            return "uncertified"
        if self.capped:
            return "unconverged"
        return "conservative" if self.conservative else "ok"


def _verify_certificate(
    problem: CostabLmiProblem, q: np.ndarray, y: np.ndarray
) -> Optional[LmiCertificate]:
    """Direct-substitution check in the original variables.

    Schur blocks must be positive beyond the eigenvalue noise floor, and the
    recovered (K, P) must satisfy the strict pair inequalities: P and both
    Lyapunov decrements with margin at least _SUBSTITUTION_MARGIN, both
    closed loops with spectral radius below 1.  These checks verify the
    (K, P) that the certificate reports; the margin moves no bisection
    boundary.  Feasibility is invariant under (Q, Y) -> (aQ, aY), so the
    certificate is normalized to trace(Q) = n first.
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
    if p_min < _SUBSTITUTION_MARGIN:
        return None
    lyapunov = []
    radii = []
    for b in (problem.b1, problem.b2):
        closed = problem.a + b @ k_row
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
    congruence-transformed coordinates.

    Variables are x = (svec(Q), Y) with trace(Q) = n fixed; the three blocks
    are linear in x, with no constant term.  ``transform`` maps solver
    coordinates back to the original ones: Q_orig = T Q T', Y_orig = Y T'.

    The start is Q = I in coordinates set by the warm start (Q_w, Y_w):
    T = chol(sym(Q_w)), Y = Y_w T^-T.  Without one, or if that factor or its
    inverse fails, the cold start takes T = diag(balance()), which balances
    the gain ladder, and the uniform balanced deadbeat gain Y = -r/v;
    ``warm`` says which start was taken.
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
        self.warm = transform is not None
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
        # trace(Q) = n selector; its Q part is svec(I), the start's Q
        trace_vector = np.zeros(self.dim)
        trace_vector[: self.q_dim] = self.q_rows == self.q_cols
        self.start = np.concatenate([trace_vector[: self.q_dim], np.ravel(y)])
        # orthonormal directions of the trace(Q) = n plane
        self.plane = np.linalg.qr(trace_vector[:, None], mode="complete")[0][:, 1:]
        self._build_basis()

    def _build_basis(self):
        """basis[i][j] is the derivative of the slack block F_i(x) - t I along
        coordinate j of y = (z, t), where x = start + plane @ z: dim - 1
        directions in the plane, then t.  F is linear in x, so its
        derivative along coordinate a of x is F at the unit vector e_a."""
        tensors = self.scaled.blocks(*self.unpack(np.eye(self.dim)))
        self.basis = [
            np.concatenate([np.tensordot(self.plane.T, g, axes=1), -np.eye(g.shape[1])[None]])
            for g in tensors
        ]
        self.basis_flat = [g.reshape(self.dim, -1) for g in self.basis]

    def unpack(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(Q, Y) of x, or of each row of a stack x (..., dim) as (..., n, n)
        and (..., 1, n)."""
        stack = x.shape[:-1]
        q = np.zeros(stack + (self.n, self.n))
        q[..., self.q_rows, self.q_cols] = x[..., : self.q_dim]
        q[..., self.q_cols, self.q_rows] = x[..., : self.q_dim]
        y = x[..., self.q_dim :].reshape(stack + (1, self.n))
        return q, y

    def blocks(self, x: np.ndarray) -> list[np.ndarray]:
        return self.scaled.blocks(*self.unpack(x))

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


def _max_step(factor_inv: np.ndarray, step: np.ndarray) -> float:
    """Largest alpha with L L' + alpha * step >= 0, given L^-1."""
    lam = float(np.linalg.eigvalsh(factor_inv @ step @ factor_inv.T)[0])
    return math.inf if lam >= 0 else -1.0 / lam


def _path_follow(problem: CostabLmiProblem, frame: _SolverFrame) -> _Round:
    """One round of infeasible-start primal-dual path following on the
    margin problem in the frame's coordinates.

    The dual iterate is y = (z, t) with x = start + plane @ z and slack
    S = F(x) - t I, rebuilt from (x, t) at every iterate, so the dual
    residual stays zero; it starts at t = lambda_min(F(start)) - 1.  The
    primal iterate X, one block per slack block, starts at I / N (N the
    total order), off its equality constraints; its steps restore them.
    Each iteration takes the HKM direction (Helmberg, Rendl, Vanderbei and
    Wolkowicz 1996) with a Mehrotra predictor-corrector step; X and y each
    move _STEP_FRACTION of their largest step inside the cone.

    Every iterate with t > 0 is checked by substitution.  The round ends at
    the first verified certificate, once the duality gap <X, S> is at most
    _GAP_CLOSED, when X or S loses its Cholesky factor (breakdown), or after
    _MAX_ITERATIONS iterations."""
    x = frame.start
    t = min(float(np.linalg.eigvalsh(m)[0]) for m in frame.blocks(x)) - 1.0
    order = sum(basis.shape[1] for basis in frame.basis)
    xs = [np.eye(basis.shape[1]) / order for basis in frame.basis]
    target = np.zeros(frame.dim)  # the objective t
    target[-1] = 1.0
    gap = math.nan
    iterations = 0
    while True:
        ss = frame.blocks(x)
        for s in ss:
            s.reshape(-1)[:: s.shape[0] + 1] -= t
        try:
            x_factors = [np.linalg.cholesky(m) for m in xs]
            s_inv = [np.linalg.inv(np.linalg.cholesky(m)) for m in ss]
        except np.linalg.LinAlgError:
            return _Round(None, x, t, gap, iterations)
        gap = sum(float(np.vdot(xm, s)) for xm, s in zip(xs, ss))
        if t > 0:
            certificate = _verify_certificate(problem, *frame.to_original(x))
            if certificate is not None:
                return _Round(certificate, x, t, gap, iterations)
        if gap <= _GAP_CLOSED:
            return _Round(None, x, t, gap, iterations)
        if iterations == _MAX_ITERATIONS:
            return _Round(None, x, t, gap, iterations)
        iterations += 1

        x_inv = [np.linalg.inv(lx) for lx in x_factors]
        zs = [si.T @ si for si in s_inv]  # S^-1
        # Schur complement <D_i, X D_j S^-1> = <U_i, U_j>, U_i = Lx' D_i Ls^-T.
        # Its conditioning grows like 1/gap^2 on these degenerate problems, and
        # a plain Cholesky factor fails near gap 1e-7; a ridge of 1e-15 of its
        # trace keeps it until the gap nears 1e-13.
        schur = np.zeros((frame.dim, frame.dim))
        for basis, lx, si in zip(frame.basis, x_factors, s_inv):
            u = (lx.T @ basis @ si.T).reshape(frame.dim, -1)
            schur += u @ u.T
        schur.reshape(-1)[:: frame.dim + 1] += _RIDGE * np.trace(schur)
        try:
            factor = np.linalg.cholesky(schur)
        except np.linalg.LinAlgError:
            return _Round(None, x, t, gap, iterations)

        def direction(rhs, centre, second):
            """HKM direction: dS = sum dy_j D_j, and dX the symmetric part of
            centre S^-1 - X - (X dS + second) S^-1."""
            dy = np.linalg.solve(factor.T, np.linalg.solve(factor, rhs))
            ds = [(dy @ flat).reshape(z.shape) for flat, z in zip(frame.basis_flat, zs)]
            dx = []
            for xm, d, z, c in zip(xs, ds, zs, second):
                w = centre * z - xm - (xm @ d + c) @ z
                dx.append(0.5 * (w + w.T))
            return dy, dx, ds

        def steps(dx, ds, fraction):
            primal = min(_max_step(xi, d) for xi, d in zip(x_inv, dx))
            dual = min(_max_step(si, d) for si, d in zip(s_inv, ds))
            return min(1.0, fraction * primal), min(1.0, fraction * dual)

        def pairing(ws):
            """(sum over the blocks i of <D_ij, W_i>) for each coordinate j."""
            return sum(flat @ w.ravel() for flat, w in zip(frame.basis_flat, ws))

        mu = gap / order
        _, dx, ds = direction(target, 0.0, [0.0] * len(xs))
        alpha_x, alpha_s = steps(dx, ds, 1.0)
        mu_affine = sum(
            float(np.vdot(xm + alpha_x * a, s + alpha_s * b))
            for xm, a, s, b in zip(xs, dx, ss, ds)
        ) / order
        sigma = min(1.0, (mu_affine / mu) ** 3)
        second = [a @ b for a, b in zip(dx, ds)]
        rhs = target + sigma * mu * pairing(zs) - pairing([c @ z for c, z in zip(second, zs)])
        dy, dx, ds = direction(rhs, sigma * mu, second)
        alpha_x, alpha_s = steps(dx, ds, _STEP_FRACTION)
        xs = [xm + alpha_x * a for xm, a in zip(xs, dx)]
        x = x + alpha_s * (frame.plane @ dy[:-1])
        t += alpha_s * dy[-1]


def check_feasible(
    problem: CostabLmiProblem, *, warm_start: Optional[tuple[np.ndarray, np.ndarray]] = None
) -> LmiCertificate | InfeasibleReport:
    """Decide strict feasibility of the convexified pair problem.

    Returns a verified LmiCertificate or an InfeasibleReport.  Each round
    runs _path_follow on the margin problem (maximize t with M1, M2 and Q
    all >= t I on the trace(Q) = n plane).  A round without a certificate
    is followed by one in coordinates re-centred on its last iterate, whose
    Q becomes the identity, while that Q is positive definite and fewer
    than _MAX_ROUNDS rounds have run, unless its gap closed in warm
    coordinates.  The balanced cold start is a guess that fits large n
    badly: at m = 0, n = 11 the cold round closes at t ~ -4e-11 and the
    next verifies at t ~ 0.07.

    "feasible": a certificate passed _verify_certificate, whose
    substitution margin is fixed (_SUBSTITUTION_MARGIN).
    "infeasible": a round's duality gap closed with no certificate verified,
    so the largest margin in its coordinates is t to within the gap.  That
    t is mostly a numerical zero (about -1e-10).  Next to the boundary it
    can be positive (up to 1e-2 at n = 10) while no iterate's certificate
    passes substitution: in the original variables its Schur margins sit
    below the rounding floor.
    "inconclusive": every round hit _MAX_ITERATIONS or broke down first.
    """
    frame = _SolverFrame(problem, warm_start)
    iterations = 0
    closed = False
    for _ in range(_MAX_ROUNDS):
        outcome = _path_follow(problem, frame)
        iterations += outcome.iterations
        if outcome.certificate is not None:
            return replace(outcome.certificate, iterations=iterations)
        if outcome.gap <= _GAP_CLOSED:
            closed = True
            if frame.warm:
                break
        if np.linalg.eigvalsh(frame.unpack(outcome.x)[0])[0] <= 0:
            break
        frame = _SolverFrame(problem, frame.to_original(outcome.x))
    return InfeasibleReport(
        best_margin=outcome.t,
        status="infeasible" if closed else "inconclusive",
        iterations=iterations,
        gap=outcome.gap,
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

    Probes treat an inconclusive solver status as infeasible and flag the
    result as conservative.  The feasible endpoint's certificate warm-starts
    each probe.  Each probe lies strictly inside the bracket and becomes its
    lower end when feasible, its upper end otherwise, so no probe repeats and
    every feasible probe in the trace lies below every infeasible one.
    ``iterations`` counts the probes after m = 0.  When m = 0 cannot be
    certified, the result has status 'uncertified', largest m 0, no
    certificate and no probes.
    """
    if not 0 < tolerance < math.inf:
        raise ValueError("tolerance must be positive and finite")
    theorem_m = params.theorem_m

    lo = 0.0
    hi = theorem_m
    outcome = check_feasible(build_costab_lmi(make_hard_pair(params, 0.0)))
    if not outcome.feasible:
        return BisectionResult(
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
            build_costab_lmi(make_hard_pair(params, m)),
            warm_start=(certificate.q, certificate.y),
        )
        iterations += 1
        if outcome.feasible:
            lo = m
            certificate = outcome
            trace.append((m, "feasible"))
        else:
            hi = m
            conservative = conservative or outcome.status == "inconclusive"
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
        largest_feasible_m=lo,
        bracket=(lo, hi),
        iterations=iterations,
        certificate=certificate,
        conservative=conservative,
        trace=tuple(trace),
        capped=capped,
    )
