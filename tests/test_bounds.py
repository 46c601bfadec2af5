import math
import os
import threading

import numpy as np
import pytest

from hardstab import bounds
from hardstab.bounds import (
    BirgeSpec,
    DegenerateNoiseError,
    birge_kl_threshold,
    birge_min_samples,
    kl_monte_carlo,
    kl_upper_bound,
)
from hardstab.numerics import Prng
from hardstab.systems import (
    DivergedTrajectoryError,
    HardFamilyParams,
    InputPolicy,
    make_hard_pair,
    simulate,
)

PARAMS2 = HardFamilyParams(n=2, r=3.2, v=1.01)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestKlUpperBound:
    def test_reference_values(self):
        assert kl_upper_bound(100, 0.1, 32.0, 0.005) == pytest.approx(3200.0)
        assert kl_upper_bound(100, 0.0, 32.0, 0.005) == 0.0

    def test_linear_in_horizon(self):
        one = kl_upper_bound(50, 0.01, 32.0, 0.005)
        assert kl_upper_bound(100, 0.01, 32.0, 0.005) == pytest.approx(2 * one)

    def test_degenerate_noise_rejected(self):
        with pytest.raises(DegenerateNoiseError):
            kl_upper_bound(10, 0.1, 32.0, 0.0)
        with pytest.raises(DegenerateNoiseError):
            kl_upper_bound(10, 0.1, 32.0, float("nan"))
        with pytest.raises(ValueError):
            kl_upper_bound(10, 0.1, float("nan"), 0.005)


class TestKlMonteCarlo:
    @pytest.fixture(autouse=True)
    def no_child_left(self):
        # kl_monte_carlo forks workers; none may outlive a call, error paths included
        yield
        assert_no_child_left()

    def test_identical_systems_exact_zero(self):
        pair = make_hard_pair(PARAMS2, 0.0, noise_variance=0.005)
        report = kl_monte_carlo(pair, InputPolicy.iid_gaussian(32.0), 20, 500, Prng(1))
        assert report.mc_estimate == 0.0
        assert report.mc_std_error == 0.0

    def test_iid_inputs_match_bound(self):
        # i.i.d. inputs make the bound an equality in expectation
        pair = make_hard_pair(PARAMS2, 0.05, noise_variance=0.005)
        report = kl_monte_carlo(pair, InputPolicy.iid_gaussian(32.0), 30, 20_000, Prng(3))
        assert abs(report.mc_estimate - report.analytic_bound) <= 3 * report.mc_std_error
        assert report.analytic_bound == pytest.approx(30 * 0.05**2 * 32.0 / 0.01)

    def test_deterministic_single_step_policy(self):
        # constant input c over one step: the ratio is (m c)^2/(2 s2) in
        # expectation, with spread from the noise cross term
        c, m, sigma_w2 = 1.5, 0.2, 0.01
        pair = make_hard_pair(PARAMS2, m, noise_variance=sigma_w2)
        policy = InputPolicy.impulse(0, c)
        report = kl_monte_carlo(pair, policy, 1, 50_000, Prng(5))
        expected = m**2 * c**2 / (2 * sigma_w2)
        assert abs(report.mc_estimate - expected) <= 3 * report.mc_std_error

    def test_impulse_outside_horizon_applies_nothing(self):
        pair = make_hard_pair(PARAMS2, 0.05, noise_variance=0.005)
        report = kl_monte_carlo(pair, InputPolicy.impulse(500, 1.5), 50, 100, Prng(2))
        assert report.analytic_bound == 0.0
        assert report.sigma_u2 == 0.0
        assert report.mc_estimate == 0.0

    def test_custom_policy_path_agrees(self):
        pair = make_hard_pair(PARAMS2, 0.05, noise_variance=0.005)
        constant = InputPolicy.custom(lambda t, u, x, gen: 2.0)
        report = kl_monte_carlo(pair, constant, 10, 500, Prng(7))
        expected = 10 * 0.05**2 * 4.0 / 0.01
        assert report.mc_estimate == pytest.approx(expected, rel=0.2)

    @pytest.mark.parametrize(
        "policy",
        [
            InputPolicy.iid_gaussian(32.0),
            InputPolicy.zero(),
            InputPolicy.impulse(3, 1.5),
            InputPolicy.custom(lambda t, u, x, gen: math.sqrt(32.0) * gen.standard_normal()),
        ],
        ids=["iid-gaussian", "zero", "impulse", "custom-gaussian"],
    )
    def test_open_loop_path_matches_simulate(self, policy, monkeypatch):
        # the estimator reads trial i's stream Prng(s, k + i) exactly as
        # one simulate() call per trial does (the open-loop policies through
        # Prng.streams, the custom one through a stacked simulate() call),
        # so the log-ratio mean is the same bit for bit, whatever the
        # chunking: a trial here is 12 steps x 3 draws = 36 elements, so the
        # default cap (2**13) puts all 150 trials in one chunk, a cap of 1
        # gives one trial per chunk and 7 * 36 + 5 gives 7 trials per chunk
        # (150 = 21 * 7 + 3)
        pair = make_hard_pair(PARAMS2, 0.05, noise_variance=0.005)
        seed, first, horizon, trials = 17, 40, 12, 150
        log_ratios = np.empty(trials)
        for i in range(trials):
            traj = simulate(pair.s1, policy, horizon, Prng(seed, first + i))
            w1, u = traj.first_coord_residuals, traj.inputs
            terms = ((w1 - pair.m * u) ** 2 - w1**2) / (2.0 * pair.s1.noise_variance)
            log_ratios[i] = terms.sum()
        # and whatever the number of parts the chunks are split into (one,
        # or the parent's plus one or two forked children's; never more
        # parts than chunks, so the default cap always runs one)
        for workers in (1, 2, 3):
            monkeypatch.setattr(bounds, "_usable_cpus", lambda: workers)
            for chunk_elements in (bounds._CHUNK_ELEMENTS, 1, 7 * 36 + 5):
                monkeypatch.setattr(bounds, "_CHUNK_ELEMENTS", chunk_elements)
                report = kl_monte_carlo(pair, policy, horizon, trials, Prng(seed, first))
                assert report.mc_estimate == float(np.mean(log_ratios))
                assert report.mc_std_error == float(np.std(log_ratios, ddof=1) / math.sqrt(trials))
                assert_no_child_left()

    def test_non_finite_custom_input_is_an_error(self, monkeypatch):
        # a NaN input must stop the estimate, not turn it into NaN; with one
        # trial per chunk and three parts, the parent's own part raises while
        # the children still run, and they must not outlive the call
        pair = make_hard_pair(PARAMS2, 0.05, noise_variance=0.005)
        policy = InputPolicy.custom(lambda t, u, x, gen: float("nan") if t == 3 else 1.0)
        for workers, chunk_elements in ((1, bounds._CHUNK_ELEMENTS), (3, 1)):
            monkeypatch.setattr(bounds, "_usable_cpus", lambda: workers)
            monkeypatch.setattr(bounds, "_CHUNK_ELEMENTS", chunk_elements)
            with pytest.raises(DivergedTrajectoryError) as err:
                kl_monte_carlo(pair, policy, 10, 200, Prng(7, 30))
            assert err.value.step == 4
            assert err.value.seed_record == (7, 30)
            assert_no_child_left()

    @pytest.mark.parametrize("seed, step, stream", [(2, 21, 1001), (5, 41, 739), (56, 5, 785)])
    def test_divergence_in_a_child_part_is_the_serial_error(self, seed, step, stream, monkeypatch):
        # 2,000 trials at horizon 50 make 38 chunks of 54 trials; with three
        # parts the children's start at trials 648 and 1350, so the first
        # diverging trial lies in a child's part, which fails and is computed
        # again in the parent, raising what one process raises; at seed 56
        # trials 1402 and 1945 of the second child's part diverge too, so
        # the parts must be taken in trial order
        pair = make_hard_pair(PARAMS2, 0.05, noise_variance=0.005)
        policy = InputPolicy.custom(
            lambda t, u, x, gen: float("nan") if gen.standard_normal() > 4.3 else 0.0
        )
        for workers in (1, 2, 3):
            monkeypatch.setattr(bounds, "_usable_cpus", lambda: workers)
            with pytest.raises(DivergedTrajectoryError) as err:
                kl_monte_carlo(pair, policy, 50, 2_000, Prng(seed))
            assert (err.value.step, err.value.seed_record) == (step, (seed, stream))
            assert_no_child_left()
        assert stream >= 648

    def test_parts_split_on_chunk_boundaries(self, monkeypatch):
        # the parent's own part holds whole chunks, so its simulate() stacks
        # are the first stacks of a one-process run
        pair = make_hard_pair(PARAMS2, 0.05, noise_variance=0.005)
        policy = InputPolicy.custom(lambda t, u, x, gen: gen.standard_normal())
        stacks = []

        def recording(sys, policy, horizon, rngs):
            stacks.append([rng.stream for rng in rngs])
            return simulate(sys, policy, horizon, rngs)

        monkeypatch.setattr(bounds, "simulate", recording)
        monkeypatch.setattr(bounds, "_usable_cpus", lambda: 1)
        kl_monte_carlo(pair, policy, 50, 2_000, Prng(3))
        serial, stacks[:] = stacks[:], []
        monkeypatch.setattr(bounds, "_usable_cpus", lambda: 3)
        kl_monte_carlo(pair, policy, 50, 2_000, Prng(3))
        assert len(stacks) == 12 and stacks == serial[:12]

    @pytest.mark.parametrize("failure", ["exit-3", "short-result"])
    def test_failed_child_part_is_computed_in_the_parent(self, failure, monkeypatch):
        pair = make_hard_pair(PARAMS2, 0.05, noise_variance=0.005)
        policy = InputPolicy.iid_gaussian(32.0)
        monkeypatch.setattr(bounds, "_CHUNK_ELEMENTS", 1)
        monkeypatch.setattr(bounds, "_usable_cpus", lambda: 1)
        serial = kl_monte_carlo(pair, policy, 12, 150, Prng(17, 40))
        parent, ratios = os.getpid(), bounds._ratios

        def failing_in_a_child(*part):
            if os.getpid() == parent:
                return ratios(*part)
            if failure == "exit-3":
                os._exit(3)
            return ratios(*part)[1:]  # short, and misaligned if it were taken

        monkeypatch.setattr(bounds, "_ratios", failing_in_a_child)
        monkeypatch.setattr(bounds, "_usable_cpus", lambda: 3)
        assert kl_monte_carlo(pair, policy, 12, 150, Prng(17, 40)) == serial

    def test_failed_fork_leaves_the_parts_to_the_parent(self, monkeypatch):
        pair = make_hard_pair(PARAMS2, 0.05, noise_variance=0.005)
        policy = InputPolicy.iid_gaussian(32.0)
        monkeypatch.setattr(bounds, "_CHUNK_ELEMENTS", 1)
        monkeypatch.setattr(bounds, "_usable_cpus", lambda: 1)
        serial = kl_monte_carlo(pair, policy, 12, 150, Prng(17, 40))
        fork = os.fork
        forks = []

        def second_fork_fails():
            if forks:
                raise BlockingIOError("Resource temporarily unavailable")
            forks.append(fork())
            return forks[-1]

        monkeypatch.setattr(os, "fork", second_fork_fails)
        monkeypatch.setattr(bounds, "_usable_cpus", lambda: 3)
        assert kl_monte_carlo(pair, policy, 12, 150, Prng(17, 40)) == serial

    @pytest.mark.parametrize("case", ["thread-alive", "no-sched-getaffinity"])
    def test_no_fork_where_it_is_unsafe_or_unsized(self, case, monkeypatch):
        pair = make_hard_pair(PARAMS2, 0.05, noise_variance=0.005)
        policy = InputPolicy.iid_gaussian(32.0)
        monkeypatch.setattr(bounds, "_CHUNK_ELEMENTS", 1)
        expected = kl_monte_carlo(pair, policy, 12, 150, Prng(17, 40))

        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        if case == "thread-alive":
            thread.start()
        else:
            monkeypatch.delattr(os, "sched_getaffinity")
        try:
            assert bounds._usable_cpus() == 1
            assert kl_monte_carlo(pair, policy, 12, 150, Prng(17, 40)) == expected
        finally:
            release.set()
            if thread.is_alive():
                thread.join(timeout=10)
        assert not thread.is_alive()

    def test_trial_floor(self):
        pair = make_hard_pair(PARAMS2, 0.05, noise_variance=0.005)
        with pytest.raises(ValueError):
            kl_monte_carlo(pair, InputPolicy.iid_gaussian(32.0), 10, 50, Prng(1))

    def test_noise_required(self):
        pair = make_hard_pair(PARAMS2, 0.05, noise_variance=0.0)
        with pytest.raises(DegenerateNoiseError):
            kl_monte_carlo(pair, InputPolicy.iid_gaussian(32.0), 10, 200, Prng(1))

    def test_bounded_policy_respects_upper_bound(self):
        pair = make_hard_pair(PARAMS2, 0.05, noise_variance=0.005)
        report = kl_monte_carlo(pair, InputPolicy.iid_gaussian(32.0), 25, 5_000, Prng(11))
        assert report.mc_estimate <= report.analytic_bound + 3 * report.mc_std_error

    def test_csv_row(self):
        pair = make_hard_pair(PARAMS2, 0.05, noise_variance=0.005)
        report = kl_monte_carlo(pair, InputPolicy.iid_gaussian(32.0), 10, 200, Prng(13))
        row = report.csv_row()
        assert len(row.split(",")) == len(report.CSV_HEADER.split(","))


class TestBirgeThreshold:
    def test_reference_delta(self):
        threshold = birge_kl_threshold(0.1)
        assert threshold.exact == pytest.approx(0.9 * math.log(9) + 0.1 * math.log(1 / 9))
        assert threshold.exact == pytest.approx(1.75786, abs=1e-4)
        assert threshold.relaxed == pytest.approx(math.log(10 / 3))
        assert threshold.relaxed == pytest.approx(1.20397, abs=1e-4)

    def test_vanishes_at_half(self):
        assert birge_kl_threshold(0.4999999).exact == pytest.approx(0.0, abs=1e-5)

    def test_exact_dominates_relaxation(self):
        for delta in np.linspace(1e-4, 0.4999, 1000):
            threshold = birge_kl_threshold(float(delta))
            assert threshold.exact >= threshold.relaxed

    def test_domain(self):
        with pytest.raises(ValueError):
            birge_kl_threshold(0.5)
        with pytest.raises(ValueError):
            birge_kl_threshold(0.0)


class TestBirgeMinSamples:
    def test_zero_at_one_third(self):
        spec = BirgeSpec(delta=1 / 3, params=PARAMS2, sigma_u2=32.0, sigma_w2=0.005)
        assert birge_min_samples(spec).min_samples == pytest.approx(0.0, abs=1e-15)

    def test_reference_value(self):
        spec = BirgeSpec(delta=0.1, params=PARAMS2, sigma_u2=32.0, sigma_w2=0.005)
        bound = birge_min_samples(spec)
        expected = 0.005 / 64.0 * (2.2 / 2.02) ** 4 * math.log(10 / 3)
        assert bound.min_samples == pytest.approx(expected, rel=1e-12)
        assert bound.min_samples == pytest.approx(1.323e-4, rel=1e-3)
        assert bound.theorem_m == pytest.approx(2 * (2.02 / 2.2) ** 2, rel=1e-12)

    def test_dimension_ratio(self):
        for n in range(2, 8):
            lo = BirgeSpec(
                delta=0.1,
                params=HardFamilyParams(n=n, r=3.2, v=1.01),
                sigma_u2=32.0,
                sigma_w2=0.005,
            )
            hi = BirgeSpec(
                delta=0.1,
                params=HardFamilyParams(n=n + 1, r=3.2, v=1.01),
                sigma_u2=32.0,
                sigma_w2=0.005,
            )
            ratio = birge_min_samples(hi).min_samples / birge_min_samples(lo).min_samples
            assert ratio == pytest.approx((2.2 / 2.02) ** 2, rel=1e-9)

    def test_monotone_in_n_and_delta(self):
        values = [
            birge_min_samples(
                BirgeSpec(
                    delta=0.1,
                    params=HardFamilyParams(n=n, r=3.2, v=1.01),
                    sigma_u2=32.0,
                    sigma_w2=0.005,
                )
            ).min_samples
            for n in range(2, 9)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))
        deltas = [0.05, 0.1, 0.2, 0.3]
        by_delta = [
            birge_min_samples(
                BirgeSpec(delta=d, params=PARAMS2, sigma_u2=32.0, sigma_w2=0.005)
            ).min_samples
            for d in deltas
        ]
        assert all(b < a for a, b in zip(by_delta, by_delta[1:]))

    def test_delta_domain(self):
        with pytest.raises(ValueError):
            BirgeSpec(delta=0.6, params=PARAMS2, sigma_u2=32.0, sigma_w2=0.005)

    @pytest.mark.parametrize(
        "sigma_u2, sigma_w2",
        [(0.0, 0.005), (32.0, -1.0), (float("nan"), 0.005), (32.0, float("nan"))],
    )
    def test_variance_domain(self, sigma_u2, sigma_w2):
        with pytest.raises(ValueError, match="must be positive"):
            BirgeSpec(delta=0.1, params=PARAMS2, sigma_u2=sigma_u2, sigma_w2=sigma_w2)
