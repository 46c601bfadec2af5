import numpy as np
import pytest

from hardstab.numerics import (
    DareError,
    Prng,
    characteristic_polynomial,
    gaussian_sample,
    poly_eval,
    poly_from_roots,
    poly_roots,
    poly_trim,
    solve_dare,
    spectral_radius,
)


def sorted_roots(values):
    return np.sort_complex(np.asarray(values, dtype=complex))


class TestPolyRoots:
    def test_difference_of_squares(self):
        roots = sorted_roots(poly_roots([-1.0, 0.0, 1.0]))
        np.testing.assert_allclose(roots, [-1.0, 1.0], atol=1e-10)

    def test_linear(self):
        np.testing.assert_allclose(poly_roots([-2.0, 1.0]), [2.0], atol=1e-12)

    def test_factored_z(self):
        # z^2 + 1.00382 z, the perturbed closed-loop polynomial of the n=2
        # worked example
        roots = sorted_roots(poly_roots([0.0, 1.00382, 1.0]))
        np.testing.assert_allclose(roots, [-1.00382, 0.0], atol=1e-9)

    def test_reexpansion_recovers_coefficients(self):
        rng = np.random.default_rng(5)
        for degree in range(2, 13):
            roots = rng.normal(size=degree) + 1j * rng.normal(size=degree)
            roots = np.concatenate([roots[: degree // 2], np.conj(roots[: degree // 2])])
            if len(roots) < degree:
                roots = np.concatenate([roots, rng.normal(size=degree - len(roots))])
            coeffs = poly_from_roots(roots)
            recovered = poly_from_roots(poly_roots(coeffs))
            np.testing.assert_allclose(
                np.sort(recovered), np.sort(coeffs), rtol=1e-6, atol=1e-8
            )

    def test_residual_contract(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            coeffs = rng.normal(size=rng.integers(2, 10))
            coeffs[-1] = coeffs[-1] if abs(coeffs[-1]) > 0.1 else 1.0
            roots = poly_roots(coeffs)
            residuals = np.abs(poly_eval(coeffs, roots))
            assert np.max(residuals) <= 1e-8 * np.max(np.abs(coeffs))

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            poly_roots([3.0])

    def test_trim(self):
        np.testing.assert_array_equal(poly_trim([1.0, 2.0, 0.0, 0.0]), [1.0, 2.0])


class TestSpectralRadius:
    def test_identity(self):
        assert spectral_radius(np.eye(3)) == pytest.approx(1.0)

    def test_hard_family_upper_triangular(self):
        a = np.array([[3.2, 1.01], [0.0, 0.0]])
        assert spectral_radius(a) == pytest.approx(3.2)

    def test_matches_charpoly_root_oracle(self):
        rng = np.random.default_rng(3)
        for n in range(2, 9):
            for _ in range(5):
                m = rng.normal(size=(n, n))
                rho = spectral_radius(m)
                oracle = np.max(np.abs(poly_roots(characteristic_polynomial(m))))
                assert rho == pytest.approx(oracle, rel=1e-6, abs=1e-9)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            spectral_radius(np.ones((2, 3)))
        with pytest.raises(ValueError):
            spectral_radius(np.ones((4, 2, 3)))
        with pytest.raises(ValueError):
            spectral_radius(np.ones(3))

    def test_stack_matches_each_matrix(self):
        stack = np.random.default_rng(4).normal(size=(30, 5, 5))
        radii = spectral_radius(stack)
        assert radii.shape == (30,)
        assert radii.tolist() == [spectral_radius(m) for m in stack]


def reference_dare(a, b, q, r, rel_tolerance):
    """The fixed-point loop one 2-D system at a time, as written before
    solve_dare took stacks: (P, gain) at convergence, None on any failure."""
    p = q.copy()
    best, stall = np.inf, 0
    for _ in range(100_000):
        btp = b.T @ p
        gain_part = np.linalg.solve(r + btp @ b, btp @ a)
        p_next = a.T @ p @ a - (a.T @ btp.T) @ gain_part + q
        residual = float(np.linalg.norm(p_next - p))
        if not np.isfinite(residual):
            return None
        if residual <= max(1e-9, rel_tolerance * float(np.linalg.norm(p_next))):
            return p, -gain_part
        if residual < 0.999 * best:
            best, stall = residual, 0
        else:
            stall += 1
            if stall > 500:
                return None
        p = p_next
    return None


class TestSolveDare:
    def test_scalar_no_dynamics(self):
        sol = solve_dare([[0.0]], [[[1.0]]], [[1.0]], [[1.0]])
        assert sol.p[0][0, 0] == pytest.approx(1.0)
        assert sol.gain[0][0, 0] == pytest.approx(0.0)

    def test_scalar_hand_algebra(self):
        # the fixed point reduces to p^2 = 1 + 0.25 p, so p = (1 + sqrt(65))/8
        sol = solve_dare([[0.5]], [[[1.0]]], [[1.0]], [[1.0]])
        p = sol.p[0][0, 0]
        assert p == pytest.approx((1 + np.sqrt(65)) / 8, rel=1e-9)
        assert p == pytest.approx(1.13278, abs=1e-5)
        assert sol.gain[0][0, 0] == pytest.approx(-0.26557, abs=1e-5)

    def test_residual_definition(self):
        a = np.array([[0.9, 0.2], [0.0, 0.4]])
        b = np.array([[0.0], [1.0]])
        q = np.eye(2)
        r = np.array([[1.0]])
        p = solve_dare(a, b[np.newaxis], q, r).p[0]
        step = (
            a.T @ p @ a
            - (a.T @ p @ b) @ np.linalg.solve(r + b.T @ p @ b, b.T @ p @ a)
            + q
        )
        assert np.linalg.norm(step - p) <= 1e-9

    def test_hard_family_n3_stabilizes(self):
        from hardstab.systems import hard_matrices

        a, b = hard_matrices(3, 3.2, 1.01, 0.0)
        sol = solve_dare(a, b[np.newaxis], np.eye(3), [[1.0]], rel_tolerance=1e-8)
        assert spectral_radius(a + b @ sol.gain[0]) < 1.0

    def test_absolute_tolerance_failure_is_explicit(self):
        # cost magnitudes ~1e8 make the absolute 1e-9 residual unreachable
        from hardstab.systems import hard_matrices

        a, b = hard_matrices(8, 3.2, 1.01, [0.0])
        (error,) = solve_dare(a, b, np.eye(8), [[1.0]]).errors
        assert isinstance(error, DareError)
        assert error.residual is not None

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowed_iterate_is_a_failure(self):
        # the PBH-uncontrollable estimate b1 = -v^2/r at n = 2: P overflows,
        # and a relative threshold is then as infinite as the residual; the
        # overflow is this exit, not a warning
        from hardstab.systems import hard_matrices

        a, b = hard_matrices(2, 3.2, 1.01, [-(1.01**2) / 3.2])
        (error,) = solve_dare(a, b, np.eye(2), [[1.0]], rel_tolerance=1e-8).errors
        assert isinstance(error, DareError)
        assert not np.isfinite(error.residual)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_stacked_failure_stays_with_its_element(self):
        # the overflowing estimate among good ones: only its element fails,
        # and every other element is bit for bit its one-element solve
        from hardstab.systems import hard_matrices

        estimates = np.array([0.0, 0.02, -(1.01**2) / 3.2, -0.03, 1e-3])
        a, b = hard_matrices(2, 3.2, 1.01, estimates)
        stack = solve_dare(a, b, np.eye(2), [[1.0]], rel_tolerance=1e-8)
        np.testing.assert_array_equal(stack.failed, [False, False, True, False, False])
        assert isinstance(stack.errors[2], DareError)
        assert "not finite" in str(stack.errors[2])
        assert np.isnan(stack.gain[2]).all() and np.isnan(stack.p[2]).all()
        iterations = 0
        for i in (0, 1, 3, 4):
            single = solve_dare(a, b[i : i + 1], np.eye(2), [[1.0]], rel_tolerance=1e-8)
            assert stack.gain[i].tobytes() == single.gain[0].tobytes()
            assert stack.p[i].tobytes() == single.p[0].tobytes()
            assert stack.residual[i] == single.residual[0]
            iterations += single.iterations
        assert stack.iterations > iterations

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_stack_matches_the_one_system_loop(self):
        # same arithmetic as the plain loop, bit for bit, failures included
        from hardstab.systems import hard_matrices

        for n in range(2, 9):
            pbh = -1.01 * (1.01 / 3.2) ** (n - 1)
            estimates = np.append(np.linspace(-0.05, 0.05, 21), pbh)
            a, b = hard_matrices(n, 3.2, 1.01, estimates)
            stack = solve_dare(a, b, np.eye(n), [[1.0]], rel_tolerance=1e-8)
            for i in range(estimates.size):
                ref = reference_dare(a, b[i], np.eye(n), np.eye(1), 1e-8)
                assert stack.failed[i] == (ref is None)
                if ref is not None:
                    assert stack.p[i].tobytes() == ref[0].tobytes()
                    assert stack.gain[i].tobytes() == ref[1].tobytes()

    def test_singular_gram_fails_only_its_element(self):
        # with R = 0, a zero input column makes R + B'PB singular
        a = np.array([[0.5, 0.1], [0.0, 0.3]])
        b = np.array([[[0.0], [1.0]], [[0.0], [0.0]], [[1.0], [1.0]]])
        stack = solve_dare(a, b, np.eye(2), [[0.0]])
        np.testing.assert_array_equal(stack.failed, [False, True, False])
        assert "singular" in str(stack.errors[1])
        for i in (0, 2):
            single = solve_dare(a, b[i : i + 1], np.eye(2), [[0.0]])
            assert stack.gain[i].tobytes() == single.gain[0].tobytes()
        (error,) = solve_dare(a, b[1:2], np.eye(2), [[0.0]]).errors
        assert isinstance(error, DareError)
        assert "singular" in str(error)

    def test_single_input_matrix_is_rejected(self):
        # b must be a (k, n, m) stack; one system is b[np.newaxis]
        a = np.array([[0.5, 0.1], [0.0, 0.3]])
        with pytest.raises(ValueError, match=r"inconsistent matrix dimensions.*b \(2, 1\)"):
            solve_dare(a, np.array([[0.0], [1.0]]), np.eye(2), [[1.0]])


class TestPrng:
    def test_same_seed_same_stream(self):
        a = gaussian_sample(Prng(42, 3), 0.0, 1.0, 16)
        b = gaussian_sample(Prng(42, 3), 0.0, 1.0, 16)
        np.testing.assert_array_equal(a, b)

    def test_different_stream_differs(self):
        a = gaussian_sample(Prng(42, 0), 0.0, 1.0, 16)
        b = gaussian_sample(Prng(42, 1), 0.0, 1.0, 16)
        assert not np.array_equal(a, b)

    def test_zero_variance_degenerate(self):
        samples = gaussian_sample(Prng(1), 2.5, 0.0, 8)
        np.testing.assert_array_equal(samples, np.full(8, 2.5))

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            gaussian_sample(Prng(1), 0.0, -1.0, 4)
        with pytest.raises(ValueError):
            gaussian_sample(Prng(1), 0.0, float("nan"), 4)

    def test_large_sample_variance(self):
        samples = gaussian_sample(Prng(2024), 0.0, 32.0, 10**6)
        assert np.var(samples) == pytest.approx(32.0, rel=0.01)

    def test_streams_match_fresh_generators(self):
        # re-keyed streams equal Prng(seed, stream + i) bit for bit
        streams = [g.standard_normal((9, 3)) for g in Prng(42, 7).streams(4)]
        fresh = [Prng(42, 7 + i).generator.standard_normal((9, 3)) for i in range(4)]
        np.testing.assert_array_equal(streams, fresh)

    def test_streams_reset_buffered_output(self):
        # an odd count of 32-bit draws leaves half of a 64-bit word pending
        # (has_uint32), and 2 + 5 words leave the Philox output buffer partly
        # used; neither may leak into the next stream
        taken = []
        for g in Prng(5, 3).streams(3):
            taken.append((g.random(5), g.integers(0, 2**32, size=3, dtype=np.uint32)))
            state = g.bit_generator.state
            assert state["has_uint32"] == 1 and state["buffer_pos"] < 4
        for i, (doubles, ints) in enumerate(taken):
            fresh = Prng(5, 3 + i).generator
            np.testing.assert_array_equal(doubles, fresh.random(5))
            np.testing.assert_array_equal(ints, fresh.integers(0, 2**32, size=3, dtype=np.uint32))

    def test_streams_wrap_at_two_to_the_64(self):
        wrapped = [g.standard_normal(6) for g in Prng(9, 2**64 - 1).streams(3)]
        fresh = [Prng(9, stream).generator.standard_normal(6) for stream in (2**64 - 1, 0, 1)]
        np.testing.assert_array_equal(wrapped, fresh)

    def test_split_prefix_property(self):
        g1 = Prng(7, 5).generator
        g2 = Prng(7, 5).generator
        joined = g1.standard_normal(40)
        split = np.concatenate([g2.standard_normal(13), g2.standard_normal(27)])
        np.testing.assert_array_equal(joined, split)
