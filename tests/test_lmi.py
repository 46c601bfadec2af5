from types import SimpleNamespace

import numpy as np
import pytest

from hardstab import lmi
from hardstab.experiments import lmi_sweep_csv_lines, run_lmi_sweep
from hardstab.lmi import InfeasibleReport, bisect_largest_m, check_feasible
from hardstab.synthesis import is_stabilizing
from hardstab.systems import HardFamilyParams, make_hard_pair

PARAMS2 = HardFamilyParams(n=2, r=3.2, v=1.01)
# the bisection's seed for PARAMS2, 2/(r - 1) in mu = m / scale units
SEED2 = 2.0 / (PARAMS2.r - 1.0) * PARAMS2.scale


def pair_blocks(pair, q, y):
    """The pair [M1, M2] of a HardPair's siblings at (Q, Y)."""
    return lmi.costab_blocks(pair.s1.a, pair.s1.b, pair.s2.b, q, y)


@pytest.fixture(scope="module")
def golden_runs():
    """The v = 1.01 sweep's bisections at n = 2..6, run once, each with the
    (pair, outcome) of every probe it made."""
    runs = {}

    def recorded(pair, **kwargs):
        outcome = check_feasible(pair, **kwargs)
        probes.append((pair, outcome))
        return outcome

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lmi, "check_feasible", recorded)
        for n in range(2, 7):
            probes = []
            result = bisect_largest_m(HardFamilyParams(n=n, r=3.2, v=1.01), tolerance=1e-3)
            runs[n] = (result, probes)
    return runs


@pytest.fixture(scope="module")
def golden_bisections(golden_runs):
    return {n: result for n, (result, _) in golden_runs.items()}


@pytest.fixture(scope="module")
def coarse_n2_bisection():
    """The n = 2, tolerance 1e-2 bisection, run once."""
    return bisect_largest_m(PARAMS2, tolerance=1e-2)


def assert_certificate_sound(pair, cert, tolerance):
    """Direct substitution of the recovered pair into the strict conditions."""
    p = cert.recovered_p
    k = cert.recovered_k.reshape(1, -1)
    assert np.linalg.eigvalsh(p)[0] >= tolerance / 2
    for sibling in (pair.s1, pair.s2):
        closed = sibling.a + sibling.b @ k
        decrement = closed.T @ p @ closed - p
        assert np.linalg.eigvalsh(decrement)[-1] <= -tolerance / 2
        assert np.max(np.abs(np.linalg.eigvals(closed))) < 1.0
    for block in (*pair_blocks(pair, cert.q, cert.y), cert.q):
        assert np.linalg.eigvalsh(block)[0] > 0


class TestProblemConstruction:
    def test_block_shapes_n2(self):
        pair = make_hard_pair(PARAMS2, 0.1)
        q = np.eye(2)
        y = np.zeros((1, 2))
        assert pair_blocks(pair, q, y).shape == (2, 4, 4)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("m", [0.0, 0.1])
    def test_blocks_match_reference(self, n, m):
        hard_pair = make_hard_pair(HardFamilyParams(n=n, r=3.2, v=1.01), m)
        rng = np.random.default_rng(100 * n + int(10 * m))
        g = rng.standard_normal((n, n))
        q = g + g.T
        y = rng.standard_normal((1, n))
        q_before, y_before = q.copy(), y.copy()
        pair = pair_blocks(hard_pair, q, y)
        assert pair.shape == (2, 2 * n, 2 * n)
        for block, sibling in zip(pair, (hard_pair.s1, hard_pair.s2), strict=True):
            off = sibling.a @ q + sibling.b @ y
            np.testing.assert_array_equal(block, np.block([[q, off.T], [off, q]]))
            # Q, the third block, leads each of the pair
            np.testing.assert_array_equal(block[:n, :n], q)
        # the pair is a fresh array, sharing no memory with (Q, Y)
        pair += 1.0
        np.testing.assert_array_equal(q, q_before)
        np.testing.assert_array_equal(y, y_before)
        # a (2, 3) stack of (Q, Y) gives each element's pair, bit for bit
        g = rng.standard_normal((2, 3, n, n))
        qs = g + np.swapaxes(g, -1, -2)
        ys = rng.standard_normal((2, 3, 1, n))
        stacked = pair_blocks(hard_pair, qs, ys)
        assert stacked.shape == (2, 2, 3, 2 * n, 2 * n)
        for index in np.ndindex(2, 3):
            alone = pair_blocks(hard_pair, qs[index], ys[index])
            np.testing.assert_array_equal(stacked[(slice(None),) + index], alone)

    def test_q_block_is_implied_by_the_pair(self):
        # Q - t I is the leading n x n principal block of each M_i - t I, so
        # by Cauchy interlacing its least eigenvalue is at least the pair's;
        # this is why the solver's cone carries M1 and M2 only
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
        @hypothesis.given(
            st.integers(2, 8),
            st.floats(0.0, 1.0),
            st.integers(0, 2**32 - 1),
            st.floats(-10.0, 10.0),
        )
        def check(n, share, seed, t):
            params = HardFamilyParams(n=n, r=3.2, v=1.01)
            frame = lmi._SolverFrame(make_hard_pair(params, share * params.theorem_m))
            z = np.random.default_rng(seed).standard_normal(frame.dim - 1)
            x = frame.start + frame.plane @ z
            q = frame.unpack(x)[0]
            pair = frame.blocks(x) - t * np.eye(2 * n)
            np.testing.assert_array_equal(pair[:, :n, :n], [q - t * np.eye(n)] * 2)
            q_least = np.linalg.eigvalsh(q - t * np.eye(n))[0]
            pair_least = np.linalg.eigvalsh(pair)[:, 0].min()
            assert q_least >= pair_least - 1e-12 * max(1.0, np.abs(pair).max())

        check()

    def test_duplicate_blocks_at_m_zero(self):
        q = np.array([[2.0, 0.3], [0.3, 1.0]])
        y = np.array([[0.5, -1.0]])
        blocks = pair_blocks(make_hard_pair(PARAMS2, 0.0), q, y)
        np.testing.assert_array_equal(blocks[0], blocks[1])

    def test_schur_equivalence(self):
        # a feasible certificate satisfies the original strict inequalities
        pair = make_hard_pair(PARAMS2, 0.05)
        cert = check_feasible(pair)
        assert cert.feasible
        assert_certificate_sound(pair, cert, 1e-6)


class TestSolverFrame:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("warm", [False, True])
    def test_basis_is_the_derivative_of_the_slack_blocks(self, n, warm):
        # the pair is linear in x = (svec Q, Y), so at y = (z, t) each slack
        # block M_i(start + plane @ z) - t I is M_i(start) + sum_j y_j
        # basis[i, j]; Q is rebuilt from svec (upper triangle, row by row)
        # here, apart from the frame's unpack, and a basis with a block
        # missing or extra fails the strict zip
        pair = make_hard_pair(HardFamilyParams(n=n, r=3.2, v=1.01), 1e-3)
        certificate = check_feasible(pair) if warm else None
        frame = lmi._SolverFrame(pair, certificate and (certificate.q, certificate.y))
        assert frame.warm == warm
        rows, cols = np.triu_indices(n)

        def slack_blocks(x, t):
            q = np.zeros((n, n))
            q[rows, cols] = x[: rows.size]
            q += np.triu(q, 1).T
            y = x[rows.size :].reshape(1, n)
            return lmi.costab_blocks(frame.a, frame.b1, frame.b2, q, y) - t * np.eye(2 * n)

        assert frame.basis.shape == (2, frame.dim, 2 * n, 2 * n)
        rng = np.random.default_rng(10 * n + warm)
        for _ in range(3):
            y = rng.standard_normal(frame.dim)
            expected = slack_blocks(frame.start + frame.plane @ y[:-1], y[-1])
            at_start = slack_blocks(frame.start, 0.0)
            for block, start_block, basis in zip(expected, at_start, frame.basis, strict=True):
                np.testing.assert_allclose(
                    start_block + np.tensordot(y, basis, axes=1),
                    block,
                    rtol=0,
                    atol=1e-12 * np.abs(block).max(),
                )


class TestCheckFeasible:
    def test_m_zero_feasible(self):
        cert = check_feasible(make_hard_pair(PARAMS2, 0.0))
        assert cert.feasible
        assert cert.iterations > 0
        truth = make_hard_pair(PARAMS2, 0.0)
        assert is_stabilizing(truth.s1, cert.recovered_k).stable

    def test_small_m_feasible(self):
        cert = check_feasible(make_hard_pair(PARAMS2, 1e-6))
        assert cert.feasible

    def test_theorem_m_infeasible(self):
        theorem_m = 2 * (2 * 1.01 / 2.2) ** 2
        out = check_feasible(make_hard_pair(PARAMS2, theorem_m))
        assert not out.feasible
        assert out.status == "infeasible"
        assert 0 < out.gap <= lmi._GAP_CLOSED
        assert out.best_margin <= 0
        assert out.iterations > 0

    @pytest.mark.parametrize(
        "margin, status", [(1e-3, "unverified"), (-0.25 * lmi._GAP_CLOSED, "infeasible")]
    )
    def test_closing_margin_decides_the_verdict(self, monkeypatch, margin, status):
        # every round closes at gap _GAP_CLOSED / 2 without a certificate: a
        # margin above the gap reads 'unverified', one at -gap / 2 'infeasible'
        gap = 0.5 * lmi._GAP_CLOSED

        def closing(pair, frame):
            return lmi._Round(None, frame.start, margin, gap, 7)

        monkeypatch.setattr(lmi, "_path_follow", closing)
        out = check_feasible(make_hard_pair(PARAMS2, 0.1))
        assert not out.feasible and out.status == status
        assert (out.best_margin, out.gap) == (margin, gap)

    @pytest.mark.parametrize("v", [1.01, 1.09])
    @pytest.mark.parametrize("n", [9, 10, 11])
    def test_cold_start_certifies_m_zero(self, n, v):
        params = HardFamilyParams(n=n, r=3.2, v=v)
        cert = check_feasible(make_hard_pair(params, 0.0))
        assert cert.feasible

    def test_re_preconditioning_round_certifies_n11(self, monkeypatch):
        # the cold round alone closes its gap at t ~ -7e-11; the round
        # re-centred on its last iterate certifies at t ~ 0.07
        params = HardFamilyParams(n=11, r=3.2, v=1.01)
        monkeypatch.setattr(lmi, "_MAX_ROUNDS", 1)
        out = check_feasible(make_hard_pair(params, 0.0))
        assert not out.feasible and out.status == "infeasible"

    def test_verified_margins_reported(self):
        cert = check_feasible(make_hard_pair(PARAMS2, 0.1))
        assert cert.margin > 0
        assert min(cert.lyapunov_margins) >= 5e-7
        assert cert.p_min_eigenvalue >= 5e-7
        assert max(cert.spectral_radii) < 1.0

    def test_recovered_gain_stabilizes_both(self):
        pair = make_hard_pair(PARAMS2, 0.2)
        cert = check_feasible(pair)
        assert cert.feasible
        assert is_stabilizing(pair.s1, cert.recovered_k).stable
        assert is_stabilizing(pair.s2, cert.recovered_k).stable

    def test_warm_start_agreement(self):
        cert_a = check_feasible(make_hard_pair(PARAMS2, 0.05))
        pair_b = make_hard_pair(PARAMS2, 0.08)
        cert_b = check_feasible(pair_b, warm_start=(cert_a.q, cert_a.y))
        assert cert_b.feasible
        assert_certificate_sound(pair_b, cert_b, 1e-6)

    def test_warm_start_is_keyword_only(self):
        # the substitution margin is a module constant; a positional second
        # argument is refused, not read as a warm start
        pair = make_hard_pair(PARAMS2, 0.05)
        with pytest.raises(TypeError):
            check_feasible(pair, 1e-6)

    def test_warm_start_without_positive_q_falls_back_to_cold(self):
        # Q = -I has no Cholesky factor, so the solver starts cold
        params = HardFamilyParams(n=3, r=3.2, v=1.01)
        pair = make_hard_pair(params, 0.05)
        cold = check_feasible(pair)
        warm = check_feasible(pair, warm_start=(-np.eye(3), np.zeros((1, 3))))
        assert cold.feasible and warm.feasible
        np.testing.assert_array_equal(warm.q, cold.q)
        np.testing.assert_array_equal(warm.y, cold.y)


class TestBisection:
    def test_golden_v101(self, golden_bisections):
        # the sweep's boundaries at r = 3.2, v = 1.01, tolerance 1e-3, bit for
        # bit: the widening's first probe below the seed is feasible, the
        # first above it infeasible, and one midpoint meets the tolerance
        two, three = golden_bisections[2], golden_bisections[3]
        assert two.largest_feasible_m == 0.2896562357954545
        assert three.largest_feasible_m == 0.09142274942294033
        assert (two.iterations, three.iterations) == (3, 3)
        assert two.bracket == (0.2896562357954545, 0.2898011363636363)
        assert three.bracket == (0.09142274942294033, 0.09146848366477271)
        assert {result.status for result in golden_bisections.values()} == {"ok"}
        pattern = ["feasible", "infeasible-analytic", "feasible", "infeasible", "infeasible"]
        assert [status for _, status in two.trace] == pattern
        assert [status for _, status in three.trace] == pattern

    def test_golden_v101_n4(self, golden_bisections):
        # the benchmark's largest row, bit for bit
        four = golden_bisections[4]
        assert four.largest_feasible_m == 0.028855305286615538
        assert four.iterations == 3
        assert four.bracket == (0.028855305286615538, 0.028869740156693885)
        assert not four.conservative
        assert [status for _, status in four.trace] == [
            "feasible", "infeasible-analytic", "feasible", "infeasible", "infeasible"
        ]

    def test_unverified_probes_make_the_row_conservative(self):
        # at n = 7 a probe below the boundary closes with a positive margin
        # and no certificate; it counts as infeasible, so the boundary stays
        # where it was and the row says it may lie short
        result = bisect_largest_m(HardFamilyParams(n=7, r=3.2, v=1.01), tolerance=1e-3)
        assert result.largest_feasible_m == 9.0665680034019249e-4
        assert [status for _, status in result.trace].count("unverified") == 1
        assert result.conservative and result.status == "conservative"

    def test_widening_starts_at_the_seed(self, golden_bisections):
        # the first probe after m = 0 is the seed c (1 - tolerance / 2),
        # c = (2 / (r - 1)) v^n / r^(n-1), whichever n
        for n, result in golden_bisections.items():
            params = HardFamilyParams(n=n, r=3.2, v=1.01)
            seed = 2.0 / (params.r - 1.0) * params.scale
            assert result.trace[:3] == (
                (0.0, "feasible"),
                (params.theorem_m, "infeasible-analytic"),
                (seed * (1.0 - 0.5e-3), "feasible"),
            )
            assert result.trace[3] == (seed * (1.0 + 0.5e-3), "infeasible")

    def test_boundary_meets_its_closed_form(self, golden_bisections):
        # analytic oracle (a conjecture from measurement, not a proof): the
        # boundary is 2 v^n / (r^(n-1) (r - 1)), and the bisection's feasible
        # end lies just below it (closed form / m* measured 1.0005-1.0008 at
        # n = 2..4 with tolerance 1e-3)
        r, v = 3.2, 1.01
        for n, result in golden_bisections.items():
            closed_form = 2 * v**n / (r ** (n - 1) * (r - 1))
            assert 1.0 < closed_form / result.largest_feasible_m <= 1.002

    def test_recovered_gain_is_the_certified_gain(self, golden_bisections):
        # recovered_k is the (n,) float gain whose closed loops gave the
        # certificate's spectral radii, bit for bit
        for n, result in golden_bisections.items():
            cert = result.certificate
            assert cert.recovered_k.dtype == np.float64 and cert.recovered_k.shape == (n,)
            params = HardFamilyParams(n=n, r=3.2, v=1.01)
            pair = make_hard_pair(params, result.largest_feasible_m)
            radii = tuple(
                is_stabilizing(s, cert.recovered_k).spectral_radius for s in (pair.s1, pair.s2)
            )
            assert radii == cert.spectral_radii

    def test_path_following_work(self, golden_runs):
        # the n = 2 bisection's 4 probes (m = 0 included) report 36
        # path-following iterations in all
        _, probes = golden_runs[2]
        assert sum(outcome.iterations for _, outcome in probes) <= 120

    def test_every_certificate_passes_all_three_blocks(self, golden_runs):
        # the solver carries M1 and M2 only; every certificate it returns
        # still has M1, M2 and Q positive beyond the verifier's floor in the
        # original variables, and passes the verifier again
        certified = 0
        for result, probes in golden_runs.values():
            for pair, outcome in probes:
                if not outcome.feasible:
                    continue
                certified += 1
                for block in (*pair_blocks(pair, outcome.q, outcome.y), outcome.q):
                    floor = 50.0 * lmi._EPS * max(1.0, np.linalg.norm(block, 2))
                    assert np.linalg.eigvalsh(block)[0] > floor
                assert lmi._verify_certificate(pair, outcome.q, outcome.y) is not None
        # m = 0 and the first widening probe of each of the five bisections
        assert certified >= 10

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

        def boundary_at_one_tenth(pair, warm_start=None):
            m = pair.m
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

    @pytest.mark.parametrize("status", ["infeasible", "unverified", "inconclusive"])
    def test_uncertified_zero_reports_a_status(self, monkeypatch, status):
        # past n = 12 even m = 0 may not be certified; the bisection then
        # probes nothing further and reports largest m 0 without a certificate
        probed = []

        def never_feasible(pair, warm_start=None):
            probed.append(pair.m)
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

        def feasible_at_zero_only(pair, warm_start=None):
            m = pair.m
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

    @pytest.mark.parametrize(
        "boundary, plain_probes",
        [
            # a synthetic boundary, and the probes a plain bisection of
            # [0, theorem_m] makes for it at tolerance 1e-3 and 1e-300
            (1e-6 * SEED2, (33, 75)),
            (0.1, (15, 57)),
            (0.5 * SEED2, (14, 56)),
            (0.9 * PARAMS2.theorem_m, (11, 53)),
        ],
        ids=["near-zero", "one-tenth", "half-seed", "near-theorem-m"],
    )
    def test_wrong_seed_costs_few_probes(self, monkeypatch, boundary, plain_probes):
        # a boundary far from the seed still ends bracketed, without a repeated
        # probe, and at most 8 probes above plain bisection: the widening
        # offsets reach 1 in O(log log(1 / tolerance)) probes
        for tolerance, plain in zip((1e-3, 1e-300), plain_probes):
            probed = []

            def synthetic(pair, warm_start=None):
                m = pair.m
                probed.append(m)
                if m <= boundary:
                    return SimpleNamespace(feasible=True, q=None, y=None, status="feasible")
                return InfeasibleReport(best_margin=-1.0, status="infeasible")

            monkeypatch.setattr(lmi, "check_feasible", synthetic)
            result = bisect_largest_m(PARAMS2, tolerance=tolerance)
            lo, hi = result.bracket
            assert lo <= boundary < hi
            assert len(probed) == len(set(probed))
            assert result.iterations <= plain + 8
            assert result.status == "ok"

    def test_boundary_is_v_free_in_mu(self):
        # ROADMAP item 8: the pair at m is congruent to the normalized pair at
        # mu = m / scale, so the bisected mu* must not depend on v
        for n in range(2, 7):
            mus = [
                bisect_largest_m(params).largest_feasible_m / params.scale
                for params in (HardFamilyParams(n=n, r=3.2, v=v) for v in (1.01, 1.05, 1.09))
            ]
            assert max(mus) - min(mus) <= lmi.BISECTION_TOLERANCE * max(mus), (n, mus)

    def test_n3_below_sup_bound(self):
        params = HardFamilyParams(n=3, r=3.2, v=1.01)
        result = bisect_largest_m(params, tolerance=1e-2)
        assert 0 < result.largest_feasible_m <= params.sup_bound
        assert_certificate_sound(make_hard_pair(params, 0.0), result.certificate, 0.0)


@pytest.mark.slow
class TestAgainstConvexSolver:
    def test_boundary_matches_cvxpy(self):
        cp = pytest.importorskip("cvxpy")

        def cvxpy_feasible(params, m):
            pair = make_hard_pair(params, m)
            n = params.n
            q = cp.Variable((n, n), symmetric=True)
            y = cp.Variable((1, n))
            t = cp.Variable()
            cons = [q >> t * np.eye(n), cp.trace(q) == n]
            for sibling in (pair.s1, pair.s2):
                off = sibling.a @ q + sibling.b @ y
                block = cp.bmat([[q, off.T], [off, q]])
                cons.append(block >> t * np.eye(2 * n))
            program = cp.Problem(cp.Maximize(t), cons)
            try:
                program.solve(solver=cp.CLARABEL)
            except Exception:
                return None
            if t.value is None or q.value is None:
                return None
            from hardstab.lmi import _verify_certificate

            return _verify_certificate(pair, q.value, y.value) is not None

        for n in (2, 3, 4):
            params = HardFamilyParams(n=n, r=3.2, v=1.01)
            result = bisect_largest_m(params, tolerance=1e-2)
            boundary = result.largest_feasible_m
            assert cvxpy_feasible(params, 0.5 * boundary) is True
            assert cvxpy_feasible(params, 2.0 * boundary) is not True
