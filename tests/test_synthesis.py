import numpy as np
import pytest

from hardstab.numerics import DareError, poly_roots, solve_dare, spectral_radius
from hardstab.synthesis import (
    IllConditionedError,
    PoleSetError,
    ackermann_gain,
    ce_lqr_gain,
    closed_loop_charpoly,
    costab_bound,
    is_stabilizing,
    jury_necessary,
    k1_closed_form,
    perturbed_charpoly,
    recovered_poles,
)
from hardstab.systems import HardFamilyParams, LtiSystem, hard_matrices, make_hard_pair

PARAMS2 = HardFamilyParams(n=2, r=3.2, v=1.01)


def random_stable_conjugate_poles(rng, n):
    """Stable pole set closed under conjugation."""
    poles = []
    while len(poles) < n:
        if n - len(poles) >= 2 and rng.random() < 0.5:
            radius = rng.uniform(0.0, 0.95)
            angle = rng.uniform(0.0, np.pi)
            z = radius * np.exp(1j * angle)
            poles.extend([z, np.conj(z)])
        else:
            poles.append(complex(rng.uniform(-0.95, 0.95)))
    return np.array(poles[:n])


def charpoly_by_interpolation(m):
    """det(zI - M) from determinant samples at the (n+1)-th roots of unity.

    The node Vandermonde is a scaled DFT, so the only error is the rounding
    of the determinant samples themselves; returns that scale too.
    """
    n = m.shape[0]
    nodes = np.exp(2j * np.pi * np.arange(n + 1) / (n + 1))
    values = np.array([np.linalg.det(z * np.eye(n) - m) for z in nodes])
    powers = np.vander(nodes, n + 1, increasing=True)
    coeffs = np.linalg.solve(powers, values).real
    return coeffs, float(np.max(np.abs(values)))


class TestAckermann:
    def test_deadbeat_n2(self):
        pair = make_hard_pair(PARAMS2, 0.0)
        gain = ackermann_gain(pair.s1, [0.0, 0.0])
        np.testing.assert_allclose(gain, [-10.0382, -3.1683], atol=1e-4)
        assert is_stabilizing(pair.s1, gain).spectral_radius < 1e-6

    def test_open_loop_poles_give_zero_gain(self):
        # requesting the open-loop spectrum makes Delta_cl(A) = 0 by
        # Cayley-Hamilton, so K = 0
        pair = make_hard_pair(HardFamilyParams(n=3, r=3.2, v=1.01), 0.0)
        poles = np.linalg.eigvals(pair.s1.a)
        gain = ackermann_gain(pair.s1, poles)
        np.testing.assert_allclose(gain, 0.0, atol=1e-10)

    def test_places_requested_poles(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            r = rng.uniform(1.5, 4.0)
            params = HardFamilyParams(n=n, r=r, v=rng.uniform(0.1, 0.9) * (r - 1) / 2)
            pair = make_hard_pair(params, 0.0)
            poles = random_stable_conjugate_poles(rng, n)
            gain = ackermann_gain(pair.s1, poles)
            achieved = np.linalg.eigvals(pair.s1.a + pair.s1.b @ gain.reshape(1, -1))
            np.testing.assert_allclose(
                np.sort_complex(achieved), np.sort_complex(poles), atol=1e-6
            )

    def test_rejects_unpaired_complex(self):
        pair = make_hard_pair(PARAMS2, 0.0)
        with pytest.raises(PoleSetError):
            ackermann_gain(pair.s1, [0.5 + 0.2j, 0.1])

    def test_uncontrollable_system_is_ill_conditioned(self):
        # B reaches only the first coordinate of a diagonal A, so the
        # controllability matrix is singular
        sys_ = LtiSystem(a=np.diag([0.5, 0.3]), b=np.array([1.0, 0.0]))
        with pytest.raises(IllConditionedError, match="controllability matrix condition"):
            ackermann_gain(sys_, [0.0, 0.0])


class TestK1ClosedForm:
    def test_hand_value_n2(self):
        assert k1_closed_form(PARAMS2, [0.0, 0.0]) == pytest.approx(
            -10.24 / 1.0201, rel=1e-12
        )

    def test_hand_value_n4(self):
        params = HardFamilyParams(n=4, r=3.2, v=1.01)
        value = k1_closed_form(params, [0.5] * 4)
        assert value == pytest.approx(-(2.7**4) / (1.01**4), rel=1e-12)
        assert value == pytest.approx(-51.0704, abs=1e-3)

    def test_always_negative_for_stable_poles(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            params = HardFamilyParams(n=n, r=rng.uniform(1.6, 4.0), v=0.25)
            assert k1_closed_form(params, random_stable_conjugate_poles(rng, n)) < 0

    def test_matches_ackermann_first_entry(self):
        rng = np.random.default_rng(29)
        for _ in range(60):
            n = int(rng.integers(2, 11))
            r = rng.uniform(1.5, 4.0)
            v = rng.uniform(0.1, 0.95) * (r - 1) / 2
            params = HardFamilyParams(n=n, r=r, v=v)
            poles = random_stable_conjugate_poles(rng, n)
            k1 = k1_closed_form(params, poles)
            gain = ackermann_gain(make_hard_pair(params, 0.0).s1, poles)
            assert gain[0] == pytest.approx(k1, rel=1e-8)

    def test_rejects_unstable_poles(self):
        with pytest.raises(PoleSetError):
            k1_closed_form(PARAMS2, [1.5, 0.0])


class TestClosedLoopCharpoly:
    def test_deadbeat_n2(self):
        gain = ackermann_gain(make_hard_pair(PARAMS2, 0.0).s1, [0.0, 0.0])
        coeffs = closed_loop_charpoly(PARAMS2, gain)
        assert coeffs[2] == pytest.approx(1.0)
        assert abs(coeffs[1]) < 1e-10
        assert abs(coeffs[0]) < 1e-10

    def test_zero_gain_is_open_loop(self):
        for n in (2, 4, 6):
            params = HardFamilyParams(n=n, r=3.2, v=1.01)
            coeffs = closed_loop_charpoly(params, np.zeros(n))
            expected = np.zeros(n + 1)
            expected[n] = 1.0
            expected[n - 1] = -params.r
            np.testing.assert_allclose(coeffs, expected, atol=1e-12)

    def test_matches_determinant_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            params = HardFamilyParams(n=n, r=3.2, v=1.01)
            gain = rng.normal(scale=2.0, size=n)
            coeffs = closed_loop_charpoly(params, gain)
            a, b = hard_matrices(n, params.r, params.v, 0.0)
            closed = a + b @ gain.reshape(1, -1)
            oracle, sample_scale = charpoly_by_interpolation(closed)
            np.testing.assert_allclose(
                coeffs, oracle, rtol=1e-8, atol=1e-9 * max(1.0, sample_scale)
            )


class TestPerturbedCharpoly:
    def test_zero_perturbation(self):
        base = np.array([0.5, -0.2, 1.0])
        np.testing.assert_array_equal(perturbed_charpoly(base, 0.0, -3.0), base)

    def test_worked_example_unstable_at_m_0p1(self):
        gain = ackermann_gain(make_hard_pair(PARAMS2, 0.0).s1, [0.0, 0.0])
        base = closed_loop_charpoly(PARAMS2, gain)
        shifted = perturbed_charpoly(base, 0.1, gain[0])
        assert shifted[1] == pytest.approx(1.00382, abs=1e-4)
        roots = poly_roots(shifted)
        assert np.max(np.abs(roots)) == pytest.approx(1.00382, abs=1e-4)

    def test_worked_example_stable_at_m_0p09(self):
        gain = ackermann_gain(make_hard_pair(PARAMS2, 0.0).s1, [0.0, 0.0])
        base = closed_loop_charpoly(PARAMS2, gain)
        shifted = perturbed_charpoly(base, 0.09, gain[0])
        assert shifted[1] == pytest.approx(0.90344, abs=1e-4)
        assert np.max(np.abs(poly_roots(shifted))) < 1.0

    def test_matches_determinant_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            params = HardFamilyParams(n=n, r=3.2, v=1.01)
            poles = random_stable_conjugate_poles(rng, n)
            gain = ackermann_gain(make_hard_pair(params, 0.0).s1, poles)
            m = rng.uniform(0.0, 0.3)
            shifted = perturbed_charpoly(closed_loop_charpoly(params, gain), m, gain[0])
            a, b2 = hard_matrices(n, params.r, params.v, m)
            closed = a + b2 @ gain.reshape(1, -1)
            oracle, sample_scale = charpoly_by_interpolation(closed)
            np.testing.assert_allclose(
                shifted, oracle, rtol=1e-8, atol=1e-9 * max(1.0, sample_scale)
            )

    def test_rejects_non_monic(self):
        with pytest.raises(ValueError):
            perturbed_charpoly(np.array([1.0, 2.0]), 0.1, -1.0)


class TestJury:
    def test_stable_quadratic(self):
        report = jury_necessary(np.array([-0.5, 0.0, 1.0]))
        assert report.passed
        assert report.at_one == pytest.approx(0.5)
        assert report.signed_at_minus_one == pytest.approx(0.5)

    def test_root_outside(self):
        report = jury_necessary(np.array([-2.0, 1.0]))
        assert not report.passed
        assert report.at_one == pytest.approx(-1.0)

    def test_product_identities(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            poles = random_stable_conjugate_poles(rng, n) if n > 1 else np.array(
                [rng.uniform(-0.9, 0.9)]
            )
            from hardstab.numerics import poly_from_roots

            coeffs = poly_from_roots(poles)
            report = jury_necessary(coeffs)
            assert report.passed
            assert report.at_one == pytest.approx(
                np.prod(1 - poles).real, rel=1e-9, abs=1e-12
            )
            assert report.signed_at_minus_one == pytest.approx(
                np.prod(1 + poles).real, rel=1e-9, abs=1e-12
            )

    def test_rejects_nonpositive_leading(self):
        with pytest.raises(ValueError):
            jury_necessary(np.array([1.0, -1.0]))

    def test_never_contradicts_spectral_radius(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            params = HardFamilyParams(n=n, r=3.2, v=1.01)
            pair = make_hard_pair(params, 0.0)
            gain = ackermann_gain(pair.s1, random_stable_conjugate_poles(rng, n))
            if is_stabilizing(pair.s1, gain).stable:
                assert jury_necessary(closed_loop_charpoly(params, gain)).passed


class TestCostabBound:
    def test_hand_values(self):
        bound = costab_bound(PARAMS2, [0.0, 0.0])
        assert bound == pytest.approx((1.01 / 3.2) ** 2, rel=1e-12)
        assert bound == pytest.approx(0.09961, abs=1e-4)
        assert PARAMS2.sup_bound == pytest.approx((2.02 / 2.2) ** 2, rel=1e-12)
        assert PARAMS2.sup_bound == pytest.approx(0.84307, abs=1e-4)
        assert PARAMS2.theorem_m == pytest.approx(1.68613, abs=1e-4)

    def test_monotone_toward_sup(self):
        bound = costab_bound(PARAMS2, [0.999, 0.999])
        scaling = (1.999 / 2) ** 2 * ((3.2 - 1) / (3.2 - 0.999)) ** 2
        assert bound == pytest.approx(PARAMS2.sup_bound * scaling, rel=0.01)
        lower = costab_bound(PARAMS2, [0.9, 0.9])
        assert lower < bound < PARAMS2.sup_bound

    def test_ordering_invariant(self):
        rng = np.random.default_rng(47)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            params = HardFamilyParams(n=n, r=3.2, v=1.01)
            bound = costab_bound(params, random_stable_conjugate_poles(rng, n))
            assert 0 < bound < params.sup_bound < params.theorem_m

    def test_rejects_unstable(self):
        with pytest.raises(PoleSetError):
            costab_bound(PARAMS2, [1.0, 0.0])


class TestNonFiniteRejected:
    # a NaN pole passes the |p| >= 1 test, and a NaN or infinite
    # coefficient gives NaN Jury quantities or a "pass"
    @pytest.mark.parametrize(
        "poles", [[np.nan, 0.0], [np.inf, 0.0], [0.1 + np.inf * 1j, 0.1 - np.inf * 1j]]
    )
    @pytest.mark.parametrize(
        "use",
        [
            lambda poles: costab_bound(PARAMS2, poles),
            lambda poles: k1_closed_form(PARAMS2, poles),
            lambda poles: ackermann_gain(make_hard_pair(PARAMS2, 0.0).s1, poles),
        ],
        ids=["costab_bound", "k1_closed_form", "ackermann_gain"],
    )
    def test_pole(self, use, poles):
        with pytest.raises(PoleSetError, match="poles must be finite"):
            use(poles)

    @pytest.mark.parametrize("coeffs", [[0.5, np.inf], [1.0, np.nan], [-np.inf, 0.0, 1.0]])
    def test_jury_coefficient(self, coeffs):
        with pytest.raises(ValueError, match="coefficients must be finite"):
            jury_necessary(np.array(coeffs))


class TestPoleCountRejected:
    # one pole too few or too many is refused, not placed as a lower- or
    # higher-degree polynomial
    @pytest.mark.parametrize("count", [1, 3])
    @pytest.mark.parametrize(
        "use",
        [
            lambda poles: costab_bound(PARAMS2, poles),
            lambda poles: k1_closed_form(PARAMS2, poles),
            lambda poles: ackermann_gain(make_hard_pair(PARAMS2, 0.0).s1, poles),
        ],
        ids=["costab_bound", "k1_closed_form", "ackermann_gain"],
    )
    def test_wrong_count(self, use, count):
        with pytest.raises(PoleSetError, match=f"need 2 poles, got {count}"):
            use([0.1] * count)


class TestIsStabilizing:
    def test_by_construction(self):
        pair = make_hard_pair(PARAMS2, 0.0)
        gain = ackermann_gain(pair.s1, [0.3, -0.2])
        assert is_stabilizing(pair.s1, gain).stable

    def test_open_loop_unstable(self):
        pair = make_hard_pair(PARAMS2, 0.0)
        report = is_stabilizing(pair.s1, np.zeros(2))
        assert not report.stable
        assert report.spectral_radius == pytest.approx(3.2)

    def test_deadbeat_gain_fails_on_sibling(self):
        pair = make_hard_pair(PARAMS2, 0.1)
        gain = ackermann_gain(pair.s1, [0.0, 0.0])
        report = is_stabilizing(pair.s2, gain)
        assert not report.stable
        assert report.spectral_radius == pytest.approx(1.00382, abs=1e-4)


class TestGainShape:
    @pytest.mark.parametrize(
        "gain", [np.zeros(1), np.zeros(3), np.float64(0.5)], ids=["n-1", "n+1", "0-d"]
    )
    def test_wrong_length_rejected(self, gain):
        sys1 = make_hard_pair(PARAMS2, 0.0).s1
        with pytest.raises(ValueError, match="does not match dimension 2"):
            is_stabilizing(sys1, gain)
        with pytest.raises(ValueError, match="does not match dimension 2"):
            closed_loop_charpoly(PARAMS2, gain)
        with pytest.raises(ValueError, match="does not match dimension 2"):
            recovered_poles(PARAMS2, gain)

    @pytest.mark.parametrize("shape", [(2, 3), (4, 3)])
    def test_stack_rejected_where_one_gain_is_taken(self, shape):
        # a (k, n) stack's rows have the right length, but the charpoly
        # takes one gain
        params = HardFamilyParams(n=3, r=3.2, v=1.01)
        message = rf"gain shape \({shape[0]}, 3\) is not one gain of dimension 3"
        with pytest.raises(ValueError, match=message):
            closed_loop_charpoly(params, np.zeros(shape))
        with pytest.raises(ValueError, match=message):
            recovered_poles(params, np.zeros(shape))

    def test_stack_gives_one_verdict_per_row(self):
        pair = make_hard_pair(PARAMS2, 0.0)
        stack = np.array(
            [ackermann_gain(pair.s1, [0.0, 0.0]), np.zeros(2), ackermann_gain(pair.s1, [0.3, -0.2])]
        )
        report = is_stabilizing(pair.s1, stack)
        assert report.stable.tolist() == [True, False, True]
        for row, stable, rho in zip(stack, report.stable, report.spectral_radius):
            single = is_stabilizing(pair.s1, row)
            assert (single.stable, single.spectral_radius) == (stable, rho)


class TestCeLqrGain:
    def test_exact_model_stabilizes(self):
        for n in (2, 4, 6):
            params = HardFamilyParams(n=n, r=3.2, v=1.01)
            gain = ce_lqr_gain(params, 0.0)
            truth = make_hard_pair(params, 0.0).s1
            assert is_stabilizing(truth, gain).stable

    def test_far_estimate_synthesis_still_succeeds(self):
        gain = ce_lqr_gain(PARAMS2, 10.0)
        truth = make_hard_pair(PARAMS2, 0.0).s1
        assert gain.shape == (2,)
        assert not is_stabilizing(truth, gain).stable

    def test_tiny_estimate_error_still_stabilizes(self):
        params = HardFamilyParams(n=4, r=3.2, v=1.01)
        truth = make_hard_pair(params, 0.0).s1
        gain = ce_lqr_gain(params, 1e-9)
        assert is_stabilizing(truth, gain).stable

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_failed_float_solve_raises(self):
        # the PBH-uncontrollable estimate b1 = -v^2/r at n = 2: the Riccati
        # iterate overflows, and the float form raises that element's error
        with pytest.raises(DareError, match="not finite") as err:
            ce_lqr_gain(PARAMS2, -(1.01**2) / 3.2)
        assert not np.isfinite(err.value.residual)


class TestStackedCeLqr:
    def test_stack_matches_one_estimate_at_a_time(self):
        # the 1,407-estimate grid: 201 estimates in [-0.05, 0.05] at each of
        # n = 2..8, solved as one stack per n and one by one; gains, failure
        # positions, spectral radii and decisions must agree bit for bit
        estimates = np.linspace(-0.05, 0.05, 201)
        failures = 0
        for n in range(2, 9):
            params = HardFamilyParams(n=n, r=3.2, v=1.01)
            truth = make_hard_pair(params, 0.0).s1
            gains, failed = ce_lqr_gain(params, estimates)
            a, b = hard_matrices(n, 3.2, 1.01, estimates)
            stack = solve_dare(a, b, np.eye(n), [[1.0]], rel_tolerance=1e-8)
            np.testing.assert_array_equal(stack.failed, failed)
            assert gains.tobytes() == stack.gain.tobytes()
            closed = truth.a + truth.b @ gains[~failed][:, np.newaxis, :]
            assert spectral_radius(closed).tolist() == [spectral_radius(m) for m in closed]
            stable = is_stabilizing(truth, gains[~failed]).stable

            single_failed, single_stable = [], []
            for i, b1_hat in enumerate(estimates):
                single = solve_dare(a, b[i : i + 1], np.eye(n), [[1.0]], rel_tolerance=1e-8)
                single_failed.append(bool(single.failed[0]))
                if single.failed[0]:
                    with pytest.raises(DareError):
                        ce_lqr_gain(params, float(b1_hat))
                    continue
                assert single.gain[0].tobytes() == stack.gain[i].tobytes()
                assert single.p[0].tobytes() == stack.p[i].tobytes()
                gain = ce_lqr_gain(params, float(b1_hat))
                single_stable.append(is_stabilizing(truth, gain).stable)
            assert failed.tolist() == single_failed
            assert stable.tolist() == single_stable
            failures += int(failed.sum())
        assert failures > 0


class TestCeLqrRiccatiOracle:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_gain_matches_scipy(self, n):
        pytest.importorskip("scipy")
        from scipy.linalg import solve_discrete_are

        params = HardFamilyParams(n=n, r=3.2, v=1.01)
        for b1_hat in (0.0, 1e-3, 0.05, -0.02):
            a, b = hard_matrices(n, 3.2, 1.01, b1_hat)
            p = solve_discrete_are(a, b, np.eye(n), np.eye(1))
            oracle = -np.linalg.solve(np.eye(1) + b.T @ p @ b, b.T @ p @ a).ravel()
            np.testing.assert_allclose(ce_lqr_gain(params, b1_hat), oracle, rtol=1e-6)


class TestConditioningWarning:
    def test_large_dimension_warns(self):
        params = HardFamilyParams(n=13, r=3.2, v=1.01)
        with pytest.warns(RuntimeWarning, match="float64"):
            k1_closed_form(params, [0.0] * 13)

    def test_supported_range_silent(self):
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            k1_closed_form(PARAMS2, [0.0, 0.0])


class TestRecoveredPoles:
    def test_roundtrip(self):
        rng = np.random.default_rng(53)
        poles = random_stable_conjugate_poles(rng, 4)
        params = HardFamilyParams(n=4, r=3.2, v=1.01)
        gain = ackermann_gain(make_hard_pair(params, 0.0).s1, poles)
        recovered = recovered_poles(params, gain)
        np.testing.assert_allclose(
            np.sort_complex(recovered), np.sort_complex(poles), atol=1e-6
        )


class TestProp2Contrapositive:
    def test_gain_fails_on_sibling_at_or_above_bound(self):
        rng = np.random.default_rng(59)
        checked = 0
        while checked < 200:
            n = int(rng.integers(2, 8))
            r = rng.uniform(1.6, 4.0)
            v = rng.uniform(0.15, 0.9) * (r - 1) / 2
            params = HardFamilyParams(n=n, r=r, v=v)
            poles = random_stable_conjugate_poles(rng, n)
            gain = ackermann_gain(make_hard_pair(params, 0.0).s1, poles)
            if not is_stabilizing(make_hard_pair(params, 0.0).s1, gain).stable:
                continue
            bound = costab_bound(params, poles)
            m = bound * rng.uniform(1.000001, 50.0)
            pair = make_hard_pair(params, m)
            assert is_stabilizing(pair.s2, gain).spectral_radius >= 1.0
            checked += 1
