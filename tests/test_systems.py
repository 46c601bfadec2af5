import numpy as np
import pytest

from hardstab.experiments import write_csv_lines
from hardstab.numerics import Prng
from hardstab.systems import (
    DivergedTrajectoryError,
    HardFamilyParams,
    InputPolicy,
    LtiSystem,
    NoExcitationError,
    ParameterError,
    controllability_matrix,
    csv_line,
    hard_matrices,
    ls_estimate_b1,
    make_hard_pair,
    read_trajectory_csv,
    simulate,
    trajectory_csv_lines,
)

PARAMS2 = HardFamilyParams(n=2, r=3.2, v=1.01)


class TestHardPair:
    def test_n2_structure(self):
        pair = make_hard_pair(PARAMS2, 0.1)
        np.testing.assert_allclose(pair.s1.a, [[3.2, 1.01], [0.0, 0.0]])
        np.testing.assert_allclose(pair.s1.b.ravel(), [0.0, 1.01])
        np.testing.assert_allclose(pair.s2.b.ravel(), [0.1, 1.01])

    def test_n3_sparsity(self):
        pair = make_hard_pair(HardFamilyParams(n=3, r=3.2, v=1.01), 0.0)
        a = pair.s1.a
        expected = np.zeros((3, 3))
        expected[0, 0] = 3.2
        expected[0, 1] = 1.01
        expected[1, 2] = 1.01
        np.testing.assert_allclose(a, expected)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            HardFamilyParams(n=2, r=3.2, v=1.2)  # v >= (r-1)/2
        with pytest.raises(ParameterError):
            HardFamilyParams(n=1, r=3.2, v=1.01)
        with pytest.raises(ParameterError):
            HardFamilyParams(n=2, r=0.9, v=0.01)
        with pytest.raises(ParameterError):
            make_hard_pair(PARAMS2, -0.5)
        for value in (float("inf"), float("nan")):
            with pytest.raises(ParameterError, match="r must be finite and exceed 1"):
                HardFamilyParams(n=2, r=value, v=1.01)
            with pytest.raises(ParameterError, match="b1 must be nonnegative and finite"):
                HardFamilyParams(n=2, r=3.2, v=1.01, b1=value)
        for variance in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="noise variance must be nonnegative and finite"):
                make_hard_pair(PARAMS2, 0.1, noise_variance=variance)

    def test_shared_a(self):
        pair = make_hard_pair(PARAMS2, 0.25)
        assert pair.s1.a is pair.s2.a or np.array_equal(pair.s1.a, pair.s2.a)


class TestControllability:
    def test_n2_by_hand(self):
        pair = make_hard_pair(PARAMS2, 0.0)
        ctr = controllability_matrix(pair.s1)
        np.testing.assert_allclose(ctr, [[0.0, 1.0201], [1.01, 0.0]])

    def test_uncontrollable_b1(self):
        # b1 = -v^n / r^(n-1) makes the family uncontrollable
        n, r, v = 2, 3.2, 1.01
        a, b = hard_matrices(n, r, v, -(v**n) / r ** (n - 1))
        ctr = controllability_matrix(LtiSystem(a=a, b=b))
        assert abs(np.linalg.det(ctr)) <= 1e-9 * np.linalg.norm(ctr)

    def test_inverse_last_row_identity(self):
        # last row of Ctr^-1 is (v^-n, 0, ..., 0) when b1 = 0
        for n in range(2, 11):
            params = HardFamilyParams(n=n, r=2.7, v=0.6)
            ctr = controllability_matrix(make_hard_pair(params, 0.0).s1)
            last_row = np.linalg.inv(ctr)[-1]
            expected = np.zeros(n)
            expected[0] = params.v ** (-n)
            np.testing.assert_allclose(last_row, expected, rtol=1e-10, atol=1e-10)


class TestSimulate:
    def test_zero_noise_zero_policy(self):
        pair = make_hard_pair(PARAMS2, 0.0)
        traj = simulate(pair.s1, InputPolicy.zero(), 10, Prng(0))
        np.testing.assert_array_equal(traj.states, np.zeros((11, 2)))

    def test_impulse_response(self):
        pair = make_hard_pair(PARAMS2, 0.0)
        traj = simulate(pair.s1, InputPolicy.impulse(0, 1.0), 3, Prng(0))
        b = pair.s1.b.ravel()
        np.testing.assert_allclose(traj.states[1], b)
        np.testing.assert_allclose(traj.states[2], pair.s1.a @ b)

    def test_reproducibility(self):
        pair = make_hard_pair(PARAMS2, 0.0, noise_variance=0.005)
        policy = InputPolicy.iid_gaussian(32.0)
        t1 = simulate(pair.s1, policy, 50, Prng(123, 4))
        t2 = simulate(pair.s1, policy, 50, Prng(123, 4))
        np.testing.assert_array_equal(t1.states, t2.states)
        np.testing.assert_array_equal(t1.inputs, t2.inputs)

    def test_prefix_consistency(self):
        pair = make_hard_pair(PARAMS2, 0.0, noise_variance=0.005)
        policy = InputPolicy.iid_gaussian(32.0)
        long = simulate(pair.s1, policy, 60, Prng(5, 9))
        short = simulate(pair.s1, policy, 25, Prng(5, 9))
        np.testing.assert_array_equal(long.states[:26], short.states)
        np.testing.assert_array_equal(long.inputs[:25], short.inputs)

    def test_replay_matches_recursion(self):
        pair = make_hard_pair(PARAMS2, 0.0, noise_variance=0.0)
        policy = InputPolicy.iid_gaussian(32.0)
        traj = simulate(pair.s1, policy, 30, Prng(77))
        x = np.zeros(2)
        for t in range(30):
            x = pair.s1.a @ x + pair.s1.b.ravel() * traj.inputs[t]
            np.testing.assert_array_equal(traj.states[t + 1], x)

    def test_divergence_guard(self):
        a = np.array([[1e4]])
        sys_ = LtiSystem(a=a, b=np.array([[1.0]]))
        policy = InputPolicy.impulse(0, 1e250)
        with pytest.raises(DivergedTrajectoryError) as err:
            simulate(sys_, policy, 100, Prng(0))
        assert err.value.step >= 1

    def test_non_finite_state_is_rejected_where_it_appears(self):
        # NaN compares False with the limit, so the guard must test finiteness
        pair = make_hard_pair(PARAMS2, 0.0, noise_variance=0.005)
        policy = InputPolicy.custom(lambda t, u, x, gen: float("nan") if t == 3 else 0.0)
        with pytest.raises(DivergedTrajectoryError, match=r"stream \(6, 2\)") as err:
            simulate(pair.s1, policy, 10, Prng(6, 2))
        assert err.value.step == 4
        assert err.value.seed_record == (6, 2)

    def test_stack_divergence_names_the_first_diverging_trial(self):
        pair = make_hard_pair(PARAMS2, 0.0, noise_variance=0.005)
        rngs = [Prng(6, 1), Prng(6, 2), Prng(6, 3), Prng(6, 4)]
        late, early = rngs[1].generator, rngs[2].generator

        # trial 1 leaves the guard at step 3, trial 2 already at step 2
        def history_map(t, u, x, gen):
            if gen is late and t == 2:
                return 1e301
            if gen is early and t == 1:
                return float("nan")
            return 0.0

        with pytest.raises(DivergedTrajectoryError) as err:
            simulate(pair.s1, InputPolicy.custom(history_map), 10, rngs)
        assert err.value.step == 2
        assert err.value.seed_record == (6, 3)

    def test_noise_only_variance(self):
        pair = make_hard_pair(PARAMS2, 0.0, noise_variance=0.005)
        first_states = []
        for trial in range(10_000):
            traj = simulate(pair.s1, InputPolicy.zero(), 1, Prng(31, trial))
            first_states.append(traj.states[1])
        var = np.var(np.array(first_states), axis=0)
        np.testing.assert_allclose(var, 0.005, rtol=0.05)

    def test_custom_policy(self):
        pair = make_hard_pair(PARAMS2, 0.0)
        policy = InputPolicy.custom(lambda t, u, x, gen: float(t))
        traj = simulate(pair.s1, policy, 4, Prng(0))
        np.testing.assert_array_equal(traj.inputs, [0.0, 1.0, 2.0, 3.0])

    def test_custom_gaussian_policy_matches_iid_stream_layout(self):
        # both policy paths read the stream as input draw, then n noise draws
        sys_ = LtiSystem(*hard_matrices(3, 3.2, 1.01, 0.02), noise_variance=0.005)
        sigma_u2 = 32.0
        drawn = InputPolicy.custom(lambda t, u, x, gen: np.sqrt(sigma_u2) * gen.standard_normal())
        custom = simulate(sys_, drawn, 30, Prng(5, 1))
        iid = simulate(sys_, InputPolicy.iid_gaussian(sigma_u2), 30, Prng(5, 1))
        np.testing.assert_array_equal(custom.inputs, iid.inputs)
        np.testing.assert_array_equal(custom.states, iid.states)
        np.testing.assert_array_equal(custom.first_coord_residuals, iid.first_coord_residuals)

    @pytest.mark.parametrize("n", [2, 5])
    @pytest.mark.parametrize(
        "policy",
        [
            InputPolicy.zero(),
            InputPolicy.impulse(2, 1.5),
            InputPolicy.iid_gaussian(32.0),
            # reads its own trial's last state, so a wrong history view shows
            InputPolicy.custom(
                lambda t, u, x, gen: -0.1 * x[-1][0] + np.sqrt(32.0) * gen.standard_normal()
            ),
        ],
        ids=["zero", "impulse", "iid-gaussian", "custom-feedback"],
    )
    def test_stack_rows_match_separate_calls(self, policy, n):
        sys_ = LtiSystem(*hard_matrices(n, 3.2, 1.01, 0.02), noise_variance=0.005)
        rngs = [Prng(11, stream) for stream in (3, 4, 5, 9, 2**64 - 1)]
        stack = simulate(sys_, policy, 25, rngs)
        assert len(stack) == len(rngs)
        for rng, row in zip(rngs, stack):
            single = simulate(sys_, policy, 25, Prng(rng.seed, rng.stream))
            assert row.seed_record == single.seed_record == (rng.seed, rng.stream)
            np.testing.assert_array_equal(row.inputs, single.inputs)
            np.testing.assert_array_equal(row.states, single.states)
            np.testing.assert_array_equal(row.first_coord_residuals, single.first_coord_residuals)

    def test_one_prng_gives_one_trajectory(self):
        pair = make_hard_pair(PARAMS2, 0.0, noise_variance=0.005)
        policy = InputPolicy.iid_gaussian(32.0)
        single = simulate(pair.s1, policy, 6, Prng(3, 1))
        (row,) = simulate(pair.s1, policy, 6, [Prng(3, 1)])
        assert single.states.shape == (7, 2) and single.inputs.shape == (6,)
        np.testing.assert_array_equal(single.states, row.states)
        assert simulate(pair.s1, policy, 6, []) == []


class TestInputPolicy:
    def test_open_loop_stream_layout(self):
        # per step: one input draw (i.i.d. policy only), then n noise draws
        block = Prng(4, 2).generator.standard_normal((6, 4))
        u, noise = InputPolicy.iid_gaussian(9.0).open_loop([Prng(4, 2).generator], 1, 6, 3)
        np.testing.assert_array_equal(u, [3.0 * block[:, 0]])
        np.testing.assert_array_equal(noise, [block[:, 1:]])
        u, noise = InputPolicy.impulse(2, 1.5).open_loop([Prng(4, 2).generator], 1, 6, 4)
        np.testing.assert_array_equal(u, [[0.0, 0.0, 1.5, 0.0, 0.0, 0.0]])
        np.testing.assert_array_equal(noise, [block])
        u, noise = InputPolicy.zero().open_loop([Prng(4, 2).generator], 1, 6, 4)
        np.testing.assert_array_equal(u, np.zeros((1, 6)))
        np.testing.assert_array_equal(noise, [block])

    def test_open_loop_batch_rows(self):
        # row i is the rollout of the i-th generator taken; a shared stream
        # iterator gives no generator beyond the requested count
        policy = InputPolicy.iid_gaussian(9.0)
        streams = Prng(4, 10).streams(5)
        first_u, first_noise = policy.open_loop(streams, 2, 6, 3)
        rest_u, rest_noise = policy.open_loop(streams, 3, 6, 3)
        u = np.concatenate([first_u, rest_u])
        noise = np.concatenate([first_noise, rest_noise])
        assert u.shape == (5, 6) and noise.shape == (5, 6, 3)
        for i in range(5):
            single_u, single_noise = policy.open_loop([Prng(4, 10 + i).generator], 1, 6, 3)
            np.testing.assert_array_equal(u[i], single_u[0])
            np.testing.assert_array_equal(noise[i], single_noise[0])
        impulse_u, _ = InputPolicy.impulse(1, 2.0).open_loop(Prng(4).streams(3), 3, 4, 2)
        np.testing.assert_array_equal(impulse_u, [[0.0, 2.0, 0.0, 0.0]] * 3)

    def test_open_loop_needs_count_generators(self):
        with pytest.raises(ValueError, match="3 rollouts need 3 generators, got 2"):
            InputPolicy.zero().open_loop(Prng(0).streams(2), 3, 5, 2)

    def test_open_loop_rejects_custom_and_unknown_kinds(self):
        generators = [Prng(0).generator]
        with pytest.raises(ValueError, match="custom"):
            InputPolicy.custom(lambda t, u, x, gen: 0.0).open_loop(generators, 1, 5, 2)
        with pytest.raises(ValueError, match="unknown policy kind 'bogus'"):
            InputPolicy(kind="bogus").open_loop(generators, 1, 5, 2)

    @pytest.mark.parametrize("sigma_u2", [-1.0, float("nan"), float("inf")])
    def test_iid_gaussian_rejects_bad_variance(self, sigma_u2):
        with pytest.raises(ValueError, match="sigma_u2 must be nonnegative"):
            InputPolicy.iid_gaussian(sigma_u2)

    def test_input_power(self):
        assert InputPolicy.iid_gaussian(32.0).input_power(10) == 32.0
        assert InputPolicy.zero().input_power(10) == 0.0
        assert InputPolicy.impulse(0, 2.0).input_power(8) == 0.5
        # an impulse outside [0, horizon) is never applied
        assert InputPolicy.impulse(8, 2.0).input_power(8) == 0.0
        assert InputPolicy.impulse(-1, 2.0).input_power(8) == 0.0
        assert np.isnan(InputPolicy.custom(lambda t, u, x, gen: 0.0).input_power(10))


class TestLsEstimate:
    def test_noiseless_recovery(self):
        pair = make_hard_pair(PARAMS2, 0.1, noise_variance=0.0)
        traj = simulate(pair.s2, InputPolicy.iid_gaussian(32.0), 40, Prng(8))
        assert ls_estimate_b1(traj, PARAMS2) == pytest.approx(0.1, rel=1e-12)

    def test_noiseless_recovery_from_states(self):
        # short horizon: the state-difference residuals lose the O(1) signal
        # to rounding once |x| ~ r^t reaches 1/eps
        pair = make_hard_pair(PARAMS2, 0.1, noise_variance=0.0)
        traj = simulate(pair.s2, InputPolicy.iid_gaussian(32.0), 12, Prng(8))
        stripped = traj.__class__(
            inputs=traj.inputs,
            states=traj.states,
            seed_record=traj.seed_record,
            first_coord_residuals=None,
        )
        assert ls_estimate_b1(stripped, PARAMS2) == pytest.approx(0.1, rel=1e-8)

    def test_zero_input_error(self):
        pair = make_hard_pair(PARAMS2, 0.1, noise_variance=0.005)
        traj = simulate(pair.s2, InputPolicy.zero(), 20, Prng(8))
        with pytest.raises(NoExcitationError):
            ls_estimate_b1(traj, PARAMS2)

    def test_unbiasedness_monte_carlo(self):
        pair = make_hard_pair(PARAMS2, 0.1, noise_variance=0.005)
        policy = InputPolicy.iid_gaussian(32.0)
        # one stacked rollout; each row is what simulate(..., Prng(444, k)) gives
        trajectories = simulate(pair.s2, policy, 100, [Prng(444, k) for k in range(10_000)])
        estimates = np.array([ls_estimate_b1(traj, PARAMS2) for traj in trajectories])
        std_error = estimates.std(ddof=1) / np.sqrt(len(estimates))
        assert abs(estimates.mean() - 0.1) <= 3 * std_error


class TestTrajectoryCsv:
    def test_roundtrip(self, tmp_path):
        pair = make_hard_pair(PARAMS2, 0.0, noise_variance=0.005)
        traj = simulate(pair.s1, InputPolicy.iid_gaussian(32.0), 12, Prng(2))
        path = tmp_path / "traj.csv"
        write_csv_lines(path, trajectory_csv_lines(traj))
        header = path.read_text().splitlines()[0]
        assert header == "t,u,x1,x2"
        loaded = read_trajectory_csv(path)
        np.testing.assert_allclose(loaded.states, traj.states)
        np.testing.assert_allclose(loaded.inputs, traj.inputs)


class TestCsvLine:
    def test_floats_round_trip_at_17_significant_digits(self):
        values = [0.1, 1 / 3, np.float64(2.0) ** 0.5, -1e-300]
        line = csv_line(values)
        assert line == "0.10000000000000001,0.33333333333333331,1.4142135623730951,-1e-300"
        assert [float(field) for field in line.split(",")] == [float(value) for value in values]

    def test_non_finite_floats(self):
        assert csv_line([float("-inf"), np.float64(np.inf), float("nan")]) == "-inf,inf,nan"

    def test_none_is_an_empty_field(self):
        assert csv_line([3, None, 0.5]) == "3,,0.5"
        assert csv_line([None, None]) == ","

    def test_ints_and_strings_are_written_as_str(self):
        assert csv_line([7, np.int64(12), "ok", "interval-mismatch"]) == (
            "7,12,ok,interval-mismatch"
        )
        # an int is not a float: it keeps every digit
        assert csv_line([10**20]) == "100000000000000000000"

    def test_trajectory_lines(self):
        traj = simulate(
            make_hard_pair(PARAMS2, 0.0).s1, InputPolicy.impulse(0, 1.0), 2, Prng(5)
        )
        assert trajectory_csv_lines(traj) == [
            "t,u,x1,x2",
            "0,1,0,0",
            "1,0,0,1.01",
            "2,,1.0201,0",
        ]
