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


class TestSolveDare:
    def test_scalar_no_dynamics(self):
        sol = solve_dare([[0.0]], [[1.0]], [[1.0]], [[1.0]])
        assert sol.p[0, 0] == pytest.approx(1.0)
        assert sol.gain[0, 0] == pytest.approx(0.0)

    def test_scalar_hand_algebra(self):
        # the fixed point reduces to p^2 = 1 + 0.25 p, so p = (1 + sqrt(65))/8
        sol = solve_dare([[0.5]], [[1.0]], [[1.0]], [[1.0]])
        p = sol.p[0, 0]
        assert p == pytest.approx((1 + np.sqrt(65)) / 8, rel=1e-9)
        assert p == pytest.approx(1.13278, abs=1e-5)
        assert sol.gain[0, 0] == pytest.approx(-0.26557, abs=1e-5)

    def test_residual_definition(self):
        a = np.array([[0.9, 0.2], [0.0, 0.4]])
        b = np.array([[0.0], [1.0]])
        q = np.eye(2)
        r = np.array([[1.0]])
        sol = solve_dare(a, b, q, r)
        step = (
            a.T @ sol.p @ a
            - (a.T @ sol.p @ b) @ np.linalg.solve(r + b.T @ sol.p @ b, b.T @ sol.p @ a)
            + q
        )
        assert np.linalg.norm(step - sol.p) <= 1e-9

    def test_hard_family_n3_stabilizes(self):
        from hardstab.systems import hard_matrices

        a, b = hard_matrices(3, 3.2, 1.01, 0.0)
        sol = solve_dare(a, b, np.eye(3), [[1.0]], rel_tolerance=1e-8)
        assert spectral_radius(a + b @ sol.gain) < 1.0

    def test_absolute_tolerance_failure_is_explicit(self):
        # cost magnitudes ~1e8 make the absolute 1e-9 residual unreachable
        from hardstab.systems import hard_matrices

        a, b = hard_matrices(8, 3.2, 1.01, 0.0)
        with pytest.raises(DareError) as err:
            solve_dare(a, b, np.eye(8), [[1.0]])
        assert err.value.residual is not None


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
