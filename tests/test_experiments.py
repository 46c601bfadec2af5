import numpy as np
import pytest

from hardstab import experiments
from hardstab.experiments import (
    CeLqrConfig,
    LmiSweepRow,
    lmi_sweep_csv_lines,
    run_ce_lqr,
    run_lmi_sweep,
    write_csv_lines,
)
from hardstab.numerics import DareError, Prng
from hardstab.synthesis import ce_lqr_gain, is_stabilizing
from hardstab.systems import (
    HardFamilyParams,
    InputPolicy,
    hard_system,
    make_hard_pair,
    simulate,
)


def _estimates(config, n, length):
    """Every trial's estimate from its first ``length`` samples, summed in
    path order as the search sums them."""
    estimates = []
    for trial in range(config.trials):
        block = Prng(config.seed, trial).generator.standard_normal((length, 1 + n))
        u = np.sqrt(config.sigma_u2) * block[:, 0]
        res = config.true_b1 * u + np.sqrt(config.sigma_w2) * block[:, 1]
        estimates.append(float(np.cumsum(u * res)[-1] / np.cumsum(u * u)[-1]))
    return estimates


def _direct_rate(config, n, length):
    """Share of trials whose estimate from the first ``length`` samples gives
    a stabilizing CE-LQR gain, by synthesis on every trial."""
    params = HardFamilyParams(n=n, r=config.r, v=config.v, b1=config.true_b1)
    truth = hard_system(params)
    stable = 0
    for b1_hat in _estimates(config, n, length):
        try:
            gain = ce_lqr_gain(params, b1_hat)
        except (DareError, np.linalg.LinAlgError):
            continue
        stable += is_stabilizing(truth, gain).stable
    return stable / config.trials


class TestCeLqrConfig:
    def test_defaults_match_reference_experiment(self):
        config = CeLqrConfig()
        assert config.trials == 200
        assert config.success_threshold == 0.9
        assert config.sigma_u2 == 32.0
        assert config.sigma_w2 == 0.005
        assert config.r == 3.2

    def test_validation(self):
        with pytest.raises(ValueError):
            CeLqrConfig(success_threshold=0.0)
        with pytest.raises(ValueError):
            CeLqrConfig(trials=0)
        # zero input power makes every estimate 0/0; negative noise power
        # has no square root
        with pytest.raises(ValueError, match="sigma_u2"):
            CeLqrConfig(sigma_u2=0.0)
        with pytest.raises(ValueError, match="sigma_w2"):
            CeLqrConfig(sigma_w2=-0.005)
        assert CeLqrConfig(sigma_w2=0.0).sigma_w2 == 0.0


class TestStabilityInterval:
    def test_no_estimate_decided_twice(self):
        # each decision is a Riccati solve; the search must not repeat one,
        # and it stops at adjacent floats across each edge
        decide = experiments._CeDecision(HardFamilyParams(n=4, r=3.2, v=1.01))
        decided = []

        def recording(b1_hat):
            decided.append(b1_hat)
            return decide(b1_hat)

        lower, upper = experiments._stability_interval(recording, scale=1e-6)
        assert len(decided) == len(set(decided))
        assert lower < 0.0 < upper
        assert decide(lower) and decide(upper)
        assert not decide(np.nextafter(lower, -np.inf))
        assert not decide(np.nextafter(upper, np.inf))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_dense_scan_decides_by_interval_membership(self, n):
        # the search counts interval membership, which is only sound if the
        # stable estimates form one interval; rounding may flip decisions
        # within a few ulps of an edge, so those points are not judged
        decide = experiments._CeDecision(HardFamilyParams(n=n, r=3.2, v=1.01))
        lower, upper = experiments._stability_interval(decide, scale=1e-6)
        width = upper - lower
        scan = np.linspace(lower - width / 2, upper + width / 2, 801)
        decided = np.array([decide(float(b1_hat)) for b1_hat in scan])
        judged = np.minimum(np.abs(scan - lower), np.abs(scan - upper)) > 1e-9 * width
        np.testing.assert_array_equal(
            decided[judged], ((scan > lower) & (scan < upper))[judged]
        )


class TestRunCeLqr:
    def test_small_dimensions(self):
        config = CeLqrConfig(n_values=(2, 3, 4), trials=100, seed=11)
        result = run_ce_lqr(config)
        min_ns = [row.min_n for row in result.rows]
        assert all(m is not None for m in min_ns)
        assert min_ns == sorted(min_ns)
        assert all(row.rate_at_min_n >= 0.9 for row in result.rows)

    def test_deterministic_under_seed(self):
        config = CeLqrConfig(n_values=(2, 3), trials=60, seed=21)
        first = run_ce_lqr(config).csv_lines(include_wall_time=False)
        second = run_ce_lqr(config).csv_lines(include_wall_time=False)
        assert first == second

    def test_seed_changes_data(self):
        base = CeLqrConfig(n_values=(4,), trials=60, seed=1)
        other = CeLqrConfig(n_values=(4,), trials=60, seed=2)
        # min_N at n=4 is sensitive to the sample path
        rows1 = run_ce_lqr(base).rows
        rows2 = run_ce_lqr(other).rows
        assert rows1[0].rate_at_min_n > 0 and rows2[0].rate_at_min_n > 0

    def test_threshold_monotonicity(self):
        lo = CeLqrConfig(n_values=(4,), trials=100, seed=31, success_threshold=0.85)
        hi = CeLqrConfig(n_values=(4,), trials=100, seed=31, success_threshold=0.95)
        assert run_ce_lqr(lo).rows[0].min_n <= run_ce_lqr(hi).rows[0].min_n

    def test_prefix_data_matches_simulation(self):
        # the experiment's per-trial stream must agree with simulate() on the
        # same stream: same inputs, same first-coordinate residuals
        config = CeLqrConfig(n_values=(3,), trials=4, seed=77)
        params = HardFamilyParams(n=3, r=config.r, v=config.v, b1=config.true_b1)
        pair = make_hard_pair(params, 0.0, noise_variance=config.sigma_w2)
        policy = InputPolicy.iid_gaussian(config.sigma_u2)
        horizon = 25
        for trial in range(4):
            traj = simulate(pair.s1, policy, horizon, Prng(config.seed, trial))
            gen = Prng(config.seed, trial).generator
            block = gen.standard_normal((horizon, 1 + 3))
            u = np.sqrt(config.sigma_u2) * block[:, 0]
            res = config.true_b1 * u + np.sqrt(config.sigma_w2) * block[:, 1]
            np.testing.assert_array_equal(traj.inputs, u)
            np.testing.assert_array_equal(traj.first_coord_residuals, res)

    def test_csv_shape(self):
        config = CeLqrConfig(n_values=(2,), trials=50, seed=5)
        lines = run_ce_lqr(config).csv_lines()
        assert lines[0].startswith("n,min_N,rate_at_min_N")
        assert len(lines) == 2

    def test_noiseless_recovery_at_first_sample(self):
        # exact estimates from any nonzero input: every trial stabilizes at
        # the first probe
        config = CeLqrConfig(n_values=(3,), trials=40, seed=3, sigma_w2=0.0)
        row = run_ce_lqr(config).rows[0]
        assert row.min_n == 1
        assert row.rate_at_min_n == 1.0

    def test_default_seed_golden(self):
        result = run_ce_lqr(CeLqrConfig(n_values=(2, 3, 4, 5, 6), seed=20240814))
        assert [row.min_n for row in result.rows] == [1, 2, 6, 52, 381]
        assert [row.rate_at_min_n for row in result.rows] == [0.95, 0.945, 0.905, 0.9, 0.9]
        assert all(row.status == "ok" for row in result.rows)

    def test_chunked_streams_match_whole_segments(self, monkeypatch):
        # prefix sums carried across chunk boundaries reproduce the search
        # exactly, however the streams are cut
        config = CeLqrConfig(n_values=(4, 5), trials=60, seed=7)
        whole = run_ce_lqr(config).csv_lines(include_wall_time=False)
        monkeypatch.setattr(experiments, "_CHUNK_ESTIMATES", 3 * config.trials)
        assert run_ce_lqr(config).csv_lines(include_wall_time=False) == whole

    def test_direct_check_decides_min_n_and_the_length_before(self, monkeypatch):
        # after the interval search, synthesis runs on exactly the trials'
        # estimates at min_N and then at min_N - 1
        decided = []

        def recording_gain(params, b1_hat):
            decided.append(b1_hat)
            return ce_lqr_gain(params, b1_hat)

        monkeypatch.setattr(experiments, "ce_lqr_gain", recording_gain)
        config = CeLqrConfig(n_values=(4,), trials=50, seed=20240814)
        row = run_ce_lqr(config).rows[0]
        assert row.min_n > 1
        expected = _estimates(config, 4, row.min_n) + _estimates(config, 4, row.min_n - 1)
        assert decided[-len(expected) :] == expected

    def test_saturated_search_reports_the_direct_rate_at_the_cap(self):
        config = CeLqrConfig(n_values=(6,), trials=50, seed=20240814, max_probe_length=40)
        row = run_ce_lqr(config).rows[0]
        assert row.status == "saturated"
        assert row.min_n is None
        assert row.rate_at_min_n == _direct_rate(config, 6, 40) < 0.9

    def test_narrowed_interval_is_reported_as_mismatch(self, monkeypatch):
        # a wrong interval model must show up in the row, with the rate that
        # direct synthesis measures at the N the model chose
        real = experiments._stability_interval

        def narrowed(decide, scale):
            lower, upper = real(decide, scale)
            return (0.5 * lower, 0.5 * upper)

        monkeypatch.setattr(experiments, "_stability_interval", narrowed)
        config = CeLqrConfig(n_values=(4,), seed=20240814)
        row = run_ce_lqr(config).rows[0]
        assert row.status == "interval-mismatch"
        assert row.min_n is not None
        assert row.rate_at_min_n == _direct_rate(config, 4, row.min_n)

    def test_wider_chain_coupling_eases_the_search(self):
        # larger v widens the stabilizable-estimate interval, so fewer
        # samples suffice (trend check at one dimension)
        narrow = CeLqrConfig(n_values=(5,), trials=100, seed=13, v=1.01)
        wide = CeLqrConfig(n_values=(5,), trials=100, seed=13, v=1.09)
        assert run_ce_lqr(wide).rows[0].min_n <= run_ce_lqr(narrow).rows[0].min_n


class TestLmiSweep:
    def test_rows_and_invariants(self):
        rows = run_lmi_sweep([2, 3], r=3.2, v=1.01, tolerance=1e-2)
        assert len(rows) == 2
        for row in rows:
            assert 0 < row.largest_m <= row.sup_bound
        assert rows[1].largest_m < rows[0].largest_m

    def test_csv_lines(self, tmp_path):
        rows = [
            LmiSweepRow(
                n=2, r=3.2, v=1.01, largest_m=0.28, sup_bound=0.84, iterations=10, status="ok"
            )
        ]
        lines = lmi_sweep_csv_lines(rows)
        assert lines[0] == "n,r,v,largest_m,log10_largest_m,sup_bound,iterations,status"
        path = tmp_path / "sweep.csv"
        write_csv_lines(path, lines)
        assert path.read_text().count("\n") == 2
