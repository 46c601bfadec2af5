from types import SimpleNamespace

import numpy as np
import pytest

from hardstab import lmi
from hardstab.experiments import lmi_sweep_csv_lines, run_lmi_sweep
from hardstab.lmi import InfeasibleReport, bisect_largest_m, build_costab_lmi, check_feasible
from hardstab.synthesis import is_stabilizing
from hardstab.systems import HardFamilyParams, make_hard_pair

PARAMS2 = HardFamilyParams(n=2, r=3.2, v=1.01)


@pytest.fixture(scope="module")
def golden_runs():
    """The v = 1.01 sweep's bisections at n = 2, 3 and 4, run once, each with
    the path-following iterations its probes reported."""
    runs = {}
    reported = []

    def counted(*args, **kwargs):
        outcome = check_feasible(*args, **kwargs)
        reported.append(outcome.iterations)
        return outcome

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lmi, "check_feasible", counted)
        for n in (2, 3, 4):
            reported.clear()
            result = bisect_largest_m(HardFamilyParams(n=n, r=3.2, v=1.01), tolerance=1e-3)
            runs[n] = (result, sum(reported))
    return runs


@pytest.fixture(scope="module")
def golden_bisections(golden_runs):
    return {n: result for n, (result, _) in golden_runs.items()}


@pytest.fixture(scope="module")
def coarse_n2_bisection():
    """The n = 2, tolerance 1e-2 bisection, run once."""
    return bisect_largest_m(PARAMS2, tolerance=1e-2)


def assert_certificate_sound(problem, cert, tolerance):
    """Direct substitution of the recovered pair into the strict conditions."""
    p = cert.recovered_p
    k = cert.recovered_k.k.reshape(1, -1)
    assert np.linalg.eigvalsh(p)[0] >= tolerance / 2
    for b in (problem.b1, problem.b2):
        closed = problem.a + b @ k
        decrement = closed.T @ p @ closed - p
        assert np.linalg.eigvalsh(decrement)[-1] <= -tolerance / 2
        assert np.max(np.abs(np.linalg.eigvals(closed))) < 1.0
    for block in problem.blocks(cert.q, cert.y):
        assert np.linalg.eigvalsh(block)[0] > 0


class TestProblemConstruction:
    def test_block_shapes_n2(self):
        problem = build_costab_lmi(make_hard_pair(PARAMS2, 0.1))
        q = np.eye(2)
        y = np.zeros((1, 2))
        blocks = problem.blocks(q, y)
        assert [b.shape for b in blocks] == [(4, 4), (4, 4), (2, 2)]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("m", [0.0, 0.1])
    def test_blocks_match_reference(self, n, m):
        problem = build_costab_lmi(make_hard_pair(HardFamilyParams(n=n, r=3.2, v=1.01), m))
        rng = np.random.default_rng(100 * n + int(10 * m))
        g = rng.standard_normal((n, n))
        q = g + g.T
        y = rng.standard_normal((1, n))
        q_before, y_before = q.copy(), y.copy()
        blocks = problem.blocks(q, y)
        for block, b in zip(blocks, (problem.b1, problem.b2)):
            off = problem.a @ q + b @ y
            np.testing.assert_array_equal(block, np.block([[q, off.T], [off, q]]))
        np.testing.assert_array_equal(blocks[2], q)
        # the blocks share no memory with each other or with (Q, Y)
        expected = [block.copy() for block in blocks]
        for i, block in enumerate(blocks):
            block += 1.0
            for j, other in enumerate(blocks):
                if j != i:
                    np.testing.assert_array_equal(other, expected[j])
            np.testing.assert_array_equal(q, q_before)
            np.testing.assert_array_equal(y, y_before)
            block[...] = expected[i]
        # a (2, 3) stack of (Q, Y) gives each element's blocks, bit for bit
        g = rng.standard_normal((2, 3, n, n))
        qs = g + np.swapaxes(g, -1, -2)
        ys = rng.standard_normal((2, 3, 1, n))
        stacked = problem.blocks(qs, ys)
        assert [block.shape for block in stacked] == [(2, 3, 2 * n, 2 * n)] * 2 + [(2, 3, n, n)]
        for index in np.ndindex(2, 3):
            for block, alone in zip(stacked, problem.blocks(qs[index], ys[index])):
                np.testing.assert_array_equal(block[index], alone)

    def test_duplicate_blocks_at_m_zero(self):
        problem = build_costab_lmi(make_hard_pair(PARAMS2, 0.0))
        q = np.array([[2.0, 0.3], [0.3, 1.0]])
        y = np.array([[0.5, -1.0]])
        blocks = problem.blocks(q, y)
        np.testing.assert_array_equal(blocks[0], blocks[1])

    def test_schur_equivalence(self):
        # a feasible certificate satisfies the original strict inequalities
        problem = build_costab_lmi(make_hard_pair(PARAMS2, 0.05))
        cert = check_feasible(problem)
        assert cert.feasible
        assert_certificate_sound(problem, cert, 1e-6)


class TestSolverFrame:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("warm", [False, True])
    def test_basis_is_the_derivative_of_the_slack_blocks(self, n, warm):
        # the blocks are linear in x = (svec Q, Y), so at y = (z, t) the slack
        # blocks F(start + plane @ z) - t I are F(start) + sum_j y_j basis[j];
        # Q is rebuilt from svec (upper triangle, row by row) here, apart
        # from the frame's unpack
        problem = build_costab_lmi(make_hard_pair(HardFamilyParams(n=n, r=3.2, v=1.01), 1e-3))
        certificate = check_feasible(problem) if warm else None
        frame = lmi._SolverFrame(problem, certificate and (certificate.q, certificate.y))
        assert frame.warm == warm
        rows, cols = np.triu_indices(n)

        def slack_blocks(x, t):
            q = np.zeros((n, n))
            q[rows, cols] = x[: rows.size]
            q += np.triu(q, 1).T
            blocks = frame.scaled.blocks(q, x[rows.size :].reshape(1, n))
            return [block - t * np.eye(len(block)) for block in blocks]

        rng = np.random.default_rng(10 * n + warm)
        for _ in range(3):
            y = rng.standard_normal(frame.dim)
            expected = slack_blocks(frame.start + frame.plane @ y[:-1], y[-1])
            for block, at_start, basis in zip(expected, slack_blocks(frame.start, 0.0), frame.basis):
                np.testing.assert_allclose(
                    at_start + np.tensordot(y, basis, axes=1),
                    block,
                    rtol=0,
                    atol=1e-12 * np.abs(block).max(),
                )


class TestCheckFeasible:
    def test_m_zero_feasible(self):
        cert = check_feasible(build_costab_lmi(make_hard_pair(PARAMS2, 0.0)))
        assert cert.feasible
        assert cert.iterations > 0
        truth = make_hard_pair(PARAMS2, 0.0)
        assert is_stabilizing(truth.s1, cert.recovered_k).stable

    def test_small_m_feasible(self):
        cert = check_feasible(build_costab_lmi(make_hard_pair(PARAMS2, 1e-6)))
        assert cert.feasible

    def test_theorem_m_infeasible(self):
        theorem_m = 2 * (2 * 1.01 / 2.2) ** 2
        out = check_feasible(build_costab_lmi(make_hard_pair(PARAMS2, theorem_m)))
        assert not out.feasible
        assert out.status == "infeasible"
        assert 0 < out.gap <= lmi._GAP_CLOSED
        assert out.best_margin <= 0
        assert out.iterations > 0

    @pytest.mark.parametrize("v", [1.01, 1.09])
    @pytest.mark.parametrize("n", [9, 10, 11])
    def test_cold_start_certifies_m_zero(self, n, v):
        params = HardFamilyParams(n=n, r=3.2, v=v)
        cert = check_feasible(build_costab_lmi(make_hard_pair(params, 0.0)))
        assert cert.feasible

    def test_re_preconditioning_round_certifies_n11(self, monkeypatch):
        # the cold round alone closes its gap at t ~ -4e-11; the round
        # re-centred on its last iterate certifies at t ~ 0.07
        params = HardFamilyParams(n=11, r=3.2, v=1.01)
        monkeypatch.setattr(lmi, "_MAX_ROUNDS", 1)
        out = check_feasible(build_costab_lmi(make_hard_pair(params, 0.0)))
        assert not out.feasible and out.status == "infeasible"

    def test_verified_margins_reported(self):
        cert = check_feasible(build_costab_lmi(make_hard_pair(PARAMS2, 0.1)))
        assert cert.margin > 0
        assert min(cert.lyapunov_margins) >= 5e-7
        assert cert.p_min_eigenvalue >= 5e-7
        assert max(cert.spectral_radii) < 1.0

    def test_recovered_gain_stabilizes_both(self):
        pair = make_hard_pair(PARAMS2, 0.2)
        cert = check_feasible(build_costab_lmi(pair))
        assert cert.feasible
        assert is_stabilizing(pair.s1, cert.recovered_k).stable
        assert is_stabilizing(pair.s2, cert.recovered_k).stable

    def test_warm_start_agreement(self):
        problem_a = build_costab_lmi(make_hard_pair(PARAMS2, 0.05))
        cert_a = check_feasible(problem_a)
        problem_b = build_costab_lmi(make_hard_pair(PARAMS2, 0.08))
        cert_b = check_feasible(problem_b, warm_start=(cert_a.q, cert_a.y))
        assert cert_b.feasible
        assert_certificate_sound(problem_b, cert_b, 1e-6)

    def test_warm_start_is_keyword_only(self):
        # the substitution margin is a module constant; a positional second
        # argument is refused, not read as a warm start
        problem = build_costab_lmi(make_hard_pair(PARAMS2, 0.05))
        with pytest.raises(TypeError):
            check_feasible(problem, 1e-6)

    def test_warm_start_without_positive_q_falls_back_to_cold(self):
        # Q = -I has no Cholesky factor, so the solver starts cold
        params = HardFamilyParams(n=3, r=3.2, v=1.01)
        problem = build_costab_lmi(make_hard_pair(params, 0.05))
        cold = check_feasible(problem)
        warm = check_feasible(problem, warm_start=(-np.eye(3), np.zeros((1, 3))))
        assert cold.feasible and warm.feasible
        np.testing.assert_array_equal(warm.q, cold.q)
        np.testing.assert_array_equal(warm.y, cold.y)


class TestBisection:
    def test_golden_v101(self, golden_bisections):
        # the sweep's boundaries at r = 3.2, v = 1.01, tolerance 1e-3, bit for bit
        two, three = golden_bisections[2], golden_bisections[3]
        assert two.largest_feasible_m == 0.2895953116929235
        assert three.largest_feasible_m == 0.09142123754717726
        assert (two.iterations, three.iterations) == (13, 15)
        assert {result.status for result in golden_bisections.values()} == {"ok"}
        feasible, infeasible = "feasible", "infeasible"
        assert [status for _, status in two.trace] == (
            [feasible, "infeasible-analytic", infeasible, infeasible, feasible]
            + [infeasible, feasible, infeasible] + [feasible] * 7
        )
        assert [status for _, status in three.trace] == (
            [feasible, "infeasible-analytic"] + [infeasible] * 4 + [feasible] * 4
            + [infeasible] * 3 + [feasible] * 4
        )

    def test_golden_v101_n4(self, golden_bisections):
        # the benchmark's largest row, bit for bit
        four = golden_bisections[4]
        assert four.largest_feasible_m == 0.02884804989361597
        assert four.iterations == 16
        assert not four.conservative
        feasible, infeasible = "feasible", "infeasible"
        assert [status for _, status in four.trace] == (
            [feasible, "infeasible-analytic"] + [infeasible] * 5
            + [feasible, infeasible, feasible] + [infeasible] * 2
            + [feasible] * 2 + [infeasible] * 2 + [feasible, infeasible]
        )

    def test_boundary_meets_its_closed_form(self, golden_bisections):
        # analytic oracle (a conjecture from measurement, not a proof): the
        # boundary is 2 v^n / (r^(n-1) (r - 1)), and the bisection's feasible
        # end lies just below it (closed form / m* measured 1.0005-1.0008 at
        # n = 2..4 with tolerance 1e-3)
        r, v = 3.2, 1.01
        for n, result in golden_bisections.items():
            closed_form = 2 * v**n / (r ** (n - 1) * (r - 1))
            assert 1.0 < closed_form / result.largest_feasible_m <= 1.002

    def test_path_following_work(self, golden_runs):
        # the n = 2 bisection's 14 probes report 82 path-following
        # iterations in all
        _, iterations = golden_runs[2]
        assert iterations <= 120

    def test_n2_boundary(self, golden_bisections):
        result = golden_bisections[2]
        assert 0 < result.largest_feasible_m < PARAMS2.sup_bound
        # cross-validated against two interior-point solvers on the same
        # convexification; regression baseline thereafter
        assert result.largest_feasible_m == pytest.approx(0.2888, abs=5e-3)
        assert result.certificate is not None
        assert not result.conservative

    def test_bracket_invariant(self, coarse_n2_bisection):
        result = coarse_n2_bisection
        lo, hi = result.bracket
        assert lo <= result.largest_feasible_m <= hi
        assert hi - lo <= 1e-2 * max(lo, 1e-12) + 1e-12 or hi - lo <= 1e-2 * hi

    def test_feasibility_monotone_on_trace(self, coarse_n2_bisection):
        result = coarse_n2_bisection
        feasible = [m for m, s in result.trace if s == "feasible"]
        infeasible = [m for m, s in result.trace if s != "feasible"]
        assert max(feasible) < min(infeasible)

    def test_bisection_stops_once_the_bracket_cannot_shrink(self, monkeypatch):
        # a tolerance below float resolution: the bisection ends when the
        # midpoint rounds to an end, without repeating a probe
        probed = []

        def boundary_at_one_tenth(problem, warm_start=None):
            m = float(problem.b2[0, 0] - problem.b1[0, 0])
            probed.append(m)
            if m <= 0.1:
                return SimpleNamespace(feasible=True, q=None, y=None, status="feasible")
            return InfeasibleReport(best_margin=-1.0, status="infeasible")

        monkeypatch.setattr(lmi, "check_feasible", boundary_at_one_tenth)
        result = bisect_largest_m(PARAMS2, tolerance=1e-300)
        assert len(probed) == len(set(probed))
        assert len(probed) < 70
        lo, hi = result.bracket
        assert lo <= 0.1 < hi and np.nextafter(lo, np.inf) == hi
        assert result.status == "ok"

    @pytest.mark.parametrize("tolerance", [0.0, -1e-3, np.nan, np.inf])
    def test_tolerance_must_be_positive_and_finite(self, tolerance):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            bisect_largest_m(PARAMS2, tolerance=tolerance)

    @pytest.mark.parametrize("status", ["infeasible", "inconclusive"])
    def test_uncertified_zero_reports_a_status(self, monkeypatch, status):
        # past n = 12 even m = 0 may not be certified; the bisection then
        # probes nothing further and reports largest m 0 without a certificate
        probed = []

        def never_feasible(problem, warm_start=None):
            probed.append(float(problem.b2[0, 0] - problem.b1[0, 0]))
            return InfeasibleReport(best_margin=-1.0, status=status)

        monkeypatch.setattr(lmi, "check_feasible", never_feasible)
        result = bisect_largest_m(PARAMS2)
        assert probed == [0.0]
        assert result.status == "uncertified"
        assert result.largest_feasible_m == 0.0
        assert result.certificate is None
        assert result.iterations == 0
        assert result.bracket == (0.0, PARAMS2.theorem_m)

    def test_probe_cap_reports_unconverged(self, monkeypatch):
        # feasible only at m = 0: the bracket halves towards 0 for over a
        # thousand steps before its midpoint rounds, so the probe cap stops
        # it short of the tolerance, and the status says so
        probed = []

        def feasible_at_zero_only(problem, warm_start=None):
            m = float(problem.b2[0, 0] - problem.b1[0, 0])
            probed.append(m)
            if m == 0.0:
                return SimpleNamespace(feasible=True, q=None, y=None, status="feasible")
            return InfeasibleReport(best_margin=-1.0, status="infeasible")

        monkeypatch.setattr(lmi, "check_feasible", feasible_at_zero_only)
        result = bisect_largest_m(PARAMS2, tolerance=1e-300)
        assert result.iterations == lmi._MAX_PROBES and len(probed) == lmi._MAX_PROBES + 1
        lo, hi = result.bracket
        assert lo == 0.0 < hi and 0.5 * hi > 0.0
        assert result.capped and not result.conservative
        assert result.status == "unconverged"
        rows = run_lmi_sweep([2], r=3.2, v=1.01, tolerance=1e-300)
        assert lmi_sweep_csv_lines(rows)[1].split(",")[-1] == "unconverged"

    def test_n3_below_sup_bound(self):
        params = HardFamilyParams(n=3, r=3.2, v=1.01)
        result = bisect_largest_m(params, tolerance=1e-2)
        assert 0 < result.largest_feasible_m <= params.sup_bound
        assert_certificate_sound(
            build_costab_lmi(make_hard_pair(params, 0.0)), result.certificate, 0.0
        )


@pytest.mark.slow
class TestAgainstConvexSolver:
    def test_boundary_matches_cvxpy(self):
        cp = pytest.importorskip("cvxpy")

        def cvxpy_feasible(params, m):
            pair = make_hard_pair(params, m)
            problem = build_costab_lmi(pair)
            n = params.n
            q = cp.Variable((n, n), symmetric=True)
            y = cp.Variable((1, n))
            t = cp.Variable()
            cons = [q >> t * np.eye(n), cp.trace(q) == n]
            for b in (problem.b1, problem.b2):
                block = cp.bmat(
                    [
                        [q, (problem.a @ q + b @ y).T],
                        [problem.a @ q + b @ y, q],
                    ]
                )
                cons.append(block >> t * np.eye(2 * n))
            solver_problem = cp.Problem(cp.Maximize(t), cons)
            try:
                solver_problem.solve(solver=cp.CLARABEL)
            except Exception:
                return None
            if t.value is None or q.value is None:
                return None
            from hardstab.lmi import _verify_certificate

            return _verify_certificate(problem, q.value, y.value) is not None

        for n in (2, 3, 4):
            params = HardFamilyParams(n=n, r=3.2, v=1.01)
            result = bisect_largest_m(params, tolerance=1e-2)
            boundary = result.largest_feasible_m
            assert cvxpy_feasible(params, 0.5 * boundary) is True
            assert cvxpy_feasible(params, 2.0 * boundary) is not True
