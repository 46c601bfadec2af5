import numpy as np
import pytest

from hardstab import experiments, lmi, systems
from hardstab.experiments import (
    CeLqrConfig,
    lmi_sweep_csv_lines,
    run_ce_lqr,
    run_lmi_sweep,
    write_csv_lines,
)
from hardstab.lmi import BisectionResult, InfeasibleReport
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
    params = HardFamilyParams(n=n, r=config.r, v=config.v)
    truth = hard_system(params, config.true_b1)
    stable = 0
    for b1_hat in _estimates(config, n, length):
        try:
            gain = ce_lqr_gain(params, b1_hat)
        except (DareError, np.linalg.LinAlgError):
            continue
        stable += is_stabilizing(truth, gain).stable
    return stable / config.trials


def _never_failing(decide):
    """(stable, failed) outcomes of a synthetic stable-mask rule ``decide``
    whose decisions never fail."""
    return lambda b1_hats: (decide(b1_hats), np.zeros(b1_hats.shape, dtype=bool))


def _decide_one(outcomes, b1_hat):
    """One estimate's decision, from a stack of one."""
    return bool(outcomes(np.array([b1_hat]))[0][0])


def _one_sided_edge(outcomes, center, step):
    """Reference search for one edge, one decision per call: double the
    offset from the stable truth while it stays stable (deciding offsets up
    to 1e6; the next counts as unstable), then bisect between the last
    stable and the first unstable estimate until the midpoint rounds to one
    of them, at most 60 times."""
    stable, offset = center, step
    while _decide_one(outcomes, center + offset):
        stable, offset = center + offset, 2 * offset
        if abs(offset) > 1e6:
            break
    unstable = center + offset
    for _ in range(60):
        mid = 0.5 * (stable + unstable)
        if mid == stable or mid == unstable:
            break
        if _decide_one(outcomes, mid):
            stable = mid
        else:
            unstable = mid
    return stable


def _reference_chunks(config, n, stops):
    """Reference stream, one trial at a time: each trial's inputs and
    residuals from InputPolicy.open_loop, then its own prefix sums, carried
    from the previous segment, and their quotient; one segment per stop."""
    generators = [Prng(config.seed, i).generator for i in range(config.trials)]
    policy = InputPolicy.iid_gaussian(config.sigma_u2)
    sigma_w = np.sqrt(config.sigma_w2)
    sums_uu = np.zeros(config.trials)
    sums_ur = np.zeros(config.trials)
    consumed = 0
    for stop in stops:
        width = stop - consumed
        b_hats = np.empty((config.trials, width))
        for i, gen in enumerate(generators):
            u, noise = policy.open_loop((gen,), 1, width, n)
            u = u[0]
            res = config.true_b1 * u + sigma_w * noise[0, :, 0]
            cum_uu = np.cumsum(np.concatenate(([sums_uu[i]], u * u)))[1:]
            cum_ur = np.cumsum(np.concatenate(([sums_ur[i]], u * res)))[1:]
            sums_uu[i] = cum_uu[-1]
            sums_ur[i] = cum_ur[-1]
            np.divide(cum_ur, cum_uu, out=b_hats[i])
        yield consumed, b_hats, True
        consumed = stop


class _Memo:
    """A _CeDecision's (stable, failed) outcomes with each estimate decided
    once, in a stack of the estimates not seen before; sound because each
    estimate gets the bits it would get alone."""

    def __init__(self, decide):
        self.decide, self.known = decide, {}

    def __call__(self, b1_hats):
        new = [b for b in dict.fromkeys(b1_hats.tolist()) if b not in self.known]
        if new:
            stable, failed = self.decide.outcomes(np.array(new))
            self.known.update(zip(new, zip(stable.tolist(), failed.tolist())))
        stable, failed = zip(*(self.known[b] for b in b1_hats.tolist()))
        return np.array(stable), np.array(failed)


def _full_edges(outcomes, center):
    """Edges of the interval searched to the end, from the same outcomes."""
    return experiments._StableInterval(outcomes, center).edges()


def _lazy_equals_full(outcomes, center, points):
    """Lazy membership of each point alone, from a fresh interval each, and
    of all points at once, against membership in the full edges."""
    lower, upper = _full_edges(outcomes, center)
    points = np.asarray(points, dtype=float)
    expected = (points > lower) & (points < upper)
    alone = [
        experiments._StableInterval(outcomes, center).contains(points[k : k + 1])[0]
        for k in range(points.size)
    ]
    np.testing.assert_array_equal(alone, expected)
    together = experiments._StableInterval(outcomes, center).contains(points)
    np.testing.assert_array_equal(together, expected)


def _bracket_points(outcomes, center):
    """Both ends, the midpoint and the float neighbours of each of these, of
    every bracket the search passes through, the final ones included."""
    interval = experiments._StableInterval(outcomes, center)
    points = []
    while True:
        for stable, unstable in zip(interval._stable, interval._unstable):
            for point in (stable, unstable, 0.5 * (stable + unstable)):
                points += [point, np.nextafter(point, -np.inf), np.nextafter(point, np.inf)]
        if not interval._bisect(np.ones(2, dtype=bool)):
            return points


def _whole_stream(chunks):
    """(every estimate as one trials x N array, the N of every chunk that
    ends at a stop), checking that chunks follow each other."""
    columns, stops = [], []
    for start, b_hats, at_stop in chunks:
        assert start == sum(block.shape[1] for block in columns)
        columns.append(np.array(b_hats))
        if at_stop:
            stops.append(start + b_hats.shape[1])
    return np.concatenate(columns, axis=1), stops


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

    @pytest.mark.parametrize("field", ["sigma_u2", "sigma_w2"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_variance_is_rejected(self, field, value):
        # an infinite variance makes every estimate NaN, so the row would
        # stream to the cap and read "saturated"
        with pytest.raises(ValueError, match=f"{field} must be .* finite"):
            CeLqrConfig(**{field: value})


class TestStabilityInterval:
    def test_no_estimate_decided_twice(self):
        # each decision is a Riccati solve; the search must not repeat one,
        # and it stops at adjacent floats across each edge
        decide = experiments._CeDecision(HardFamilyParams(n=4, r=3.2, v=1.01), 0.0)
        decided = []

        def recording(b1_hat):
            decided.extend(np.ravel(b1_hat).tolist())
            return decide.outcomes(b1_hat)

        lower, upper = _full_edges(recording, 0.0)
        assert len(decided) == len(set(decided))
        assert lower < 0.0 < upper
        assert _decide_one(decide.outcomes, lower) and _decide_one(decide.outcomes, upper)
        assert not _decide_one(decide.outcomes, np.nextafter(lower, -np.inf))
        assert not _decide_one(decide.outcomes, np.nextafter(upper, np.inf))

    def test_ladder_stack_then_subtrees_inside_brackets(self):
        # one call for the truth and the whole doubling ladder of both sides,
        # then calls of at most one bisection subtree per side, every
        # estimate strictly inside the bracket that a plain bisection of that
        # side has reached on the verdicts decided so far
        decide = experiments._CeDecision(HardFamilyParams(n=4, r=3.2, v=1.01), 0.0)
        depth = experiments._SUBTREE_DEPTH
        calls, verdicts, brackets = [], {}, []

        def bracket(sign):
            # the plain bisection replayed on the verdicts decided so far
            stable, offset = 0.0, sign * 1e-6
            while verdicts.get(offset) and abs(offset) <= 1e6:
                stable, offset = offset, 2 * offset
            unstable = offset
            mid = 0.5 * (stable + unstable)
            while mid != stable and mid != unstable and mid in verdicts:
                stable, unstable = (mid, unstable) if verdicts[mid] else (stable, mid)
                mid = 0.5 * (stable + unstable)
            return min(stable, unstable), max(stable, unstable)

        def recording(b1_hats):
            if calls:
                brackets.append((bracket(-1.0), bracket(1.0)))
            calls.append(b1_hats.copy())
            stable, failed = decide.outcomes(b1_hats)
            verdicts.update(zip(b1_hats.tolist(), stable.tolist()))
            return stable, failed

        _full_edges(recording, 0.0)
        ladder, *subtrees = calls
        assert ladder[0] == 0.0
        assert np.count_nonzero(ladder < 0.0) == np.count_nonzero(ladder > 0.0) == 40
        assert np.abs(ladder).max() <= 1e6
        assert subtrees and len(calls) <= 1 + experiments._MAX_BISECTIONS // depth
        for call, sides in zip(subtrees, brackets):
            for estimates, (lo, hi) in zip((call[call < 0.0], call[call > 0.0]), sides):
                assert estimates.size <= 2**depth - 1
                assert np.all((estimates > lo) & (estimates < hi))

    @pytest.mark.parametrize("n, b1", [(n, 0.0) for n in range(2, 9)] + [(2, 0.2), (3, 0.2)])
    def test_edges_match_a_one_sided_search(self, n, b1):
        # each edge is the float that a plain search of that side alone finds
        outcomes = experiments._CeDecision(HardFamilyParams(n=n, r=3.2, v=1.01), b1).outcomes
        lower, upper = _full_edges(outcomes, b1)
        assert lower.hex() == _one_sided_edge(outcomes, b1, -1e-6).hex()
        assert upper.hex() == _one_sided_edge(outcomes, b1, 1e-6).hex()

    def test_ladder_reaches_1e6_and_no_further(self):
        # a stable set wider than the ladder: the left edge stops just inside
        # the undecided rung -1e-6 * 2^40, as the one-sided search does
        outcomes = _never_failing(lambda b1_hats: (b1_hats > -3e6) & (b1_hats < 7e5))
        lower, upper = _full_edges(outcomes, 0.0)
        assert lower.hex() == _one_sided_edge(outcomes, 0.0, -1e-6).hex()
        assert upper.hex() == _one_sided_edge(outcomes, 0.0, 1e-6).hex()
        assert -1e-6 * 2**40 < lower < -1e6

    def test_bisection_cap_binds_as_in_a_one_sided_search(self):
        # an edge at 1e-200 below the truth 5: the left bracket would halve
        # hundreds of times before its midpoint rounded, so the 60-step cap
        # ends that side, at the float the one-sided search stops at
        outcomes = _never_failing(lambda b1_hats: (b1_hats > 1e-200) & (b1_hats < 7.0))
        lower, upper = _full_edges(outcomes, 5.0)
        assert lower.hex() == _one_sided_edge(outcomes, 5.0, -1e-6).hex()
        assert upper.hex() == _one_sided_edge(outcomes, 5.0, 1e-6).hex()
        assert 1e-200 < lower < 1e-17 and _decide_one(outcomes, np.nextafter(lower, -np.inf))
        assert np.nextafter(upper, np.inf) == 7.0

    def test_interval_around_a_nonzero_truth(self):
        # the estimate 0 does not stabilize the truth b1 = 0.2; the search
        # starts from the truth
        outcomes = experiments._CeDecision(HardFamilyParams(n=3, r=3.2, v=1.01), 0.2).outcomes
        lower, upper = _full_edges(outcomes, 0.2)
        assert not _decide_one(outcomes, 0.0)
        assert lower < 0.2 < upper
        assert _decide_one(outcomes, lower) and _decide_one(outcomes, upper)
        assert not _decide_one(outcomes, np.nextafter(lower, -np.inf))
        assert not _decide_one(outcomes, np.nextafter(upper, np.inf))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_dense_scan_decides_by_interval_membership(self, n):
        # the search counts interval membership, which is only sound if the
        # stable estimates form one interval.  Points within 1e-9 of the
        # width of an edge are not judged: at n = 2..6 no decision off the
        # edge floats disagrees with membership, but from n = 7 rounding
        # flips decisions over up to 3e-8 of the edge's value (n = 8), so
        # the decision is not monotone there; the rows' direct check guards
        # the estimates they count
        decide = experiments._CeDecision(HardFamilyParams(n=n, r=3.2, v=1.01), 0.0)
        lower, upper = _full_edges(decide.outcomes, 0.0)
        width = upper - lower
        scan = np.linspace(lower - width / 2, upper + width / 2, 801)
        decided = decide.outcomes(scan)[0]
        judged = np.minimum(np.abs(scan - lower), np.abs(scan - upper)) > 1e-9 * width
        np.testing.assert_array_equal(
            decided[judged], ((scan > lower) & (scan < upper))[judged]
        )


    @pytest.mark.parametrize("v", [1.01, 1.09])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_interval_meets_its_closed_form(self, n, v):
        # analytic oracle: the stable interval is about +-(v/r)^n around the
        # truth (measured: width 1.0016-1.0148 times 2 (v/r)^n, midpoint
        # 0.25-1.24% of the width from the truth)
        params = HardFamilyParams(n=n, r=3.2, v=v)
        lower, upper = _full_edges(experiments._CeDecision(params, 0.0).outcomes, 0.0)
        width = upper - lower
        assert width / (2 * (v / params.r) ** n) == pytest.approx(1.0, abs=0.02)
        assert abs(0.5 * (lower + upper)) <= 0.02 * width


class TestLazyInterval:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_membership_of_streamed_estimates_matches_full_edges(self, n):
        # one lazy interval asked about every chunk a default-seed row
        # streams (and more: the rows stop by N = 446) answers as the edges
        # searched to the end do
        config = CeLqrConfig(seed=20240814)
        outcomes = _Memo(experiments._CeDecision(HardFamilyParams(n=n, r=3.2, v=1.01), 0.0))
        lower, upper = _full_edges(outcomes, 0.0)
        interval = experiments._StableInterval(outcomes, 0.0)
        stops = experiments._grid_points(n + 1, 500)
        for _, b_hats, _ in experiments._estimate_chunks(config, n, stops):
            np.testing.assert_array_equal(
                interval.contains(b_hats), (b_hats > lower) & (b_hats < upper)
            )

    @pytest.mark.parametrize("n, b1", [(2, 0.0), (4, 0.0), (6, 0.0), (3, 0.2)])
    def test_bracket_points_and_final_edges(self, n, b1):
        # the estimates where laziness could go wrong: every bracket's ends,
        # midpoint and their float neighbours, the final edges among them
        outcomes = _Memo(experiments._CeDecision(HardFamilyParams(n=n, r=3.2, v=1.01), b1))
        points = _bracket_points(outcomes, b1)
        lower, upper = _full_edges(outcomes, b1)
        edges = [lower, upper, np.nextafter(lower, -np.inf), np.nextafter(upper, np.inf)]
        assert set(edges) <= set(points)
        _lazy_equals_full(outcomes, b1, points)

    def test_empty_interval_when_the_truth_is_unstable(self):
        decided = []

        def outcomes(b1_hats):
            decided.append(b1_hats.size)
            return (b1_hats > 1.0) & (b1_hats < 2.0), np.zeros(b1_hats.shape, dtype=bool)

        interval = experiments._StableInterval(outcomes, 0.0)
        points = np.array([0.0, np.nextafter(0.0, 1.0), -1e-6, 1e-6, 1.5, -1.0])
        assert not interval.contains(points).any()
        assert interval.edges() == (0.0, 0.0)
        assert decided == [81] and not interval.failed

    def test_bisection_cap(self):
        # the 1e-200 edge that the 60-step cap stops short of, as in
        # TestStabilityInterval: the capped edge answers as the full one
        def outcomes(b1_hats):
            return (b1_hats > 1e-200) & (b1_hats < 7.0), np.zeros(b1_hats.shape, dtype=bool)

        lower, upper = _full_edges(outcomes, 5.0)
        points = _bracket_points(outcomes, 5.0)
        points += [0.0, 1e-300, 1e-200, np.nextafter(1e-200, 1.0), 1e-100, 1e-17, 7.0]
        points += [0.5 * lower, 2.0 * lower, np.nextafter(7.0, 0.0)]
        _lazy_equals_full(outcomes, 5.0, points)

    def test_default_seed_n6_row_decides_few_interval_stacks(self, monkeypatch):
        # the n = 6 row's estimates leave the brackets after the ladder and
        # a few subtree stacks; the full search takes 1 + 13
        calls = []

        def recording_gain(params, b1_hat):
            calls.append(np.size(b1_hat))
            return ce_lqr_gain(params, b1_hat)

        monkeypatch.setattr(experiments, "ce_lqr_gain", recording_gain)
        row = run_ce_lqr(CeLqrConfig(n_values=(6,), seed=20240814)).rows[0]
        assert (row.min_n, row.status) == (381, "ok")
        assert calls[-1] == 400  # the direct check; every other call is the interval's
        assert len(calls) - 1 <= 6

    def test_lazy_membership_property(self):
        # floats around the n = 2..4 edges, a few at a time, each set asked
        # of a fresh lazy interval
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        cases = {}
        for n in (2, 3, 4):
            outcomes = _Memo(experiments._CeDecision(HardFamilyParams(n=n, r=3.2, v=1.01), 0.0))
            cases[n] = outcomes, _full_edges(outcomes, 0.0)

        def near(edge):
            ulps = st.integers(-(2**12), 2**12).map(lambda k: edge + k * np.spacing(edge))
            relative = st.floats(-1e-3, 1e-3).map(lambda t: edge * (1.0 + t))
            return st.one_of(ulps, relative)

        @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
        @hypothesis.given(st.sampled_from([2, 3, 4]), st.data())
        def check(n, data):
            outcomes, (lower, upper) = cases[n]
            points = np.array(
                data.draw(st.lists(st.one_of(near(lower), near(upper)), min_size=1, max_size=4))
            )
            got = experiments._StableInterval(outcomes, 0.0).contains(points)
            np.testing.assert_array_equal(got, (points > lower) & (points < upper))

        check()


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
        # the experiment's per-trial stream must agree with simulate() of the
        # truth on the same stream: same inputs, same first-coordinate
        # residuals
        for true_b1 in (0.0, 0.2):
            config = CeLqrConfig(n_values=(3,), trials=4, seed=77, true_b1=true_b1)
            params = HardFamilyParams(n=3, r=config.r, v=config.v)
            pair = make_hard_pair(params, config.true_b1, noise_variance=config.sigma_w2)
            policy = InputPolicy.iid_gaussian(config.sigma_u2)
            horizon = 25
            for trial in range(4):
                traj = simulate(pair.s2, policy, horizon, Prng(config.seed, trial))
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

    @pytest.mark.slow
    def test_default_seed_golden_n7_n8(self):
        result = run_ce_lqr(CeLqrConfig(n_values=(7, 8), seed=20240814))
        assert [row.min_n for row in result.rows] == [4018, 50481]
        assert [row.rate_at_min_n for row in result.rows] == [0.9, 0.9]
        assert [row.synthesis_failures for row in result.rows] == [0, 0]
        assert all(row.status == "ok" for row in result.rows)

    @pytest.mark.parametrize(
        "n, overrides",
        [(n, {}) for n in range(2, 7)]
        + [(3, {"true_b1": 0.2}), (4, {"sigma_w2": 0.0}), (5, {"trials": 37})],
    )
    def test_stacked_stream_matches_a_per_trial_stream(self, n, overrides):
        # one cumsum over the (2, trials, width + 1) stack adds in the same
        # order as each trial's own cumsum, so every estimate is the same float
        config = CeLqrConfig(seed=20240814, **overrides)
        stops = experiments._grid_points(n + 1, 400)
        stacked, at_stops = _whole_stream(experiments._estimate_chunks(config, n, stops))
        reference, _ = _whole_stream(_reference_chunks(config, n, stops))
        assert at_stops == stops
        np.testing.assert_array_equal(stacked, reference)

    @pytest.mark.parametrize("columns", [1, 2, 3])
    def test_narrow_chunks_match_a_per_trial_stream(self, monkeypatch, columns):
        # sums carried across chunks of 1 to 3 columns give the same floats
        config = CeLqrConfig(seed=7, trials=37, true_b1=0.2)
        monkeypatch.setattr(experiments, "_CHUNK_ESTIMATES", 2 * columns * config.trials)
        stops = experiments._grid_points(4, 40)
        chunks = list(experiments._estimate_chunks(config, 3, stops))
        assert max(b_hats.shape[1] for _, b_hats, _ in chunks) == columns
        stacked, at_stops = _whole_stream(chunks)
        reference, _ = _whole_stream(_reference_chunks(config, 3, stops))
        assert at_stops == stops
        np.testing.assert_array_equal(stacked, reference)

    @pytest.mark.parametrize("cap, trials", [(None, 200), (1, 37), (80, 37)])
    def test_trial_batches_match_a_per_trial_stream(self, monkeypatch, cap, trials):
        # each chunk reads its trials through open_loop in batches of at most
        # systems._BATCH_DRAWS draws: the default cap, one-trial batches,
        # and (cap 80, five-column chunks at n = 3) batches of 4 trials
        # whose last holds 1; every estimate is the per-trial stream's float
        config = CeLqrConfig(seed=7, trials=trials, true_b1=0.2)
        if cap is not None:
            monkeypatch.setattr(systems, "_BATCH_DRAWS", cap)
            monkeypatch.setattr(experiments, "_CHUNK_ESTIMATES", 2 * 5 * trials)
        counts = []
        open_loop = InputPolicy.open_loop

        def recording(policy, generators, count, horizon, n):
            counts.append(count)
            return open_loop(policy, generators, count, horizon, n)

        monkeypatch.setattr(InputPolicy, "open_loop", recording)
        stops = experiments._grid_points(4, 400)
        batched, _ = _whole_stream(experiments._estimate_chunks(config, 3, stops))
        batches = list(counts)
        reference, _ = _whole_stream(_reference_chunks(config, 3, stops))
        np.testing.assert_array_equal(batched, reference)
        if cap is None:
            assert max(batches) == trials and 1 < min(batches) < trials
        elif cap == 1:
            assert set(batches) == {1}
        else:
            assert {4, 1} <= set(batches)

    def test_chunked_streams_match_whole_segments(self, monkeypatch):
        # prefix sums carried across chunk boundaries reproduce the search
        # exactly, however the streams are cut
        config = CeLqrConfig(n_values=(4, 5), trials=60, seed=7)
        whole = run_ce_lqr(config).csv_lines(include_wall_time=False)
        monkeypatch.setattr(experiments, "_CHUNK_ESTIMATES", 3 * config.trials)
        assert run_ce_lqr(config).csv_lines(include_wall_time=False) == whole

    def test_direct_check_decides_min_n_and_the_length_before(self, monkeypatch):
        # after the interval search, synthesis runs on exactly the trials'
        # estimates at min_N and then at min_N - 1, as one stacked call
        calls = []

        def recording_gain(params, b1_hat):
            calls.append(np.ravel(b1_hat).tolist())
            return ce_lqr_gain(params, b1_hat)

        monkeypatch.setattr(experiments, "ce_lqr_gain", recording_gain)
        config = CeLqrConfig(n_values=(4,), trials=50, seed=20240814)
        row = run_ce_lqr(config).rows[0]
        assert row.min_n > 1
        decided = [b1_hat for call in calls for b1_hat in call]
        columns = [_estimates(config, 4, row.min_n), _estimates(config, 4, row.min_n - 1)]
        expected = columns[0] + columns[1]
        assert decided[-len(expected) :] == expected
        assert calls[-1] == expected

    def test_synthesis_failures_count_the_direct_check(self, monkeypatch):
        # synthesis_failures is read from the failure mask of the direct
        # check's stacked call, both lengths' estimates; failures while the
        # interval is searched (the stack of the truth and the 80-rung ladder,
        # then the bisection subtrees' stacks of up to 30) are not trial
        # decisions
        def failing_gain(params, b1_hat):
            gains, failed = ce_lqr_gain(params, b1_hat)
            if failed.size == 2 * config.trials:
                failed = failed.copy()
                failed[:3] = failed[config.trials : config.trials + 3] = True
            return gains, failed

        config = CeLqrConfig(n_values=(4,), trials=50, seed=20240814)
        monkeypatch.setattr(experiments, "ce_lqr_gain", failing_gain)
        row = run_ce_lqr(config).rows[0]
        assert row.min_n > 1
        assert row.synthesis_failures == 6

    @pytest.mark.parametrize("rung, status", [(0, "interval-riccati-failure"), (39, "ok")])
    def test_failed_ladder_rung_marks_the_row(self, monkeypatch, rung, status):
        # a Riccati failure counts as "does not stabilize".  On the stable
        # rung 1e-6 it ends the right side's climb, so the edges rest on it
        # and the row says so (the narrowed interval would also read as a
        # mismatch); on a rung past the first unstable one it is never used
        failing = 1e-6 * 2.0**rung

        def failing_gain(params, b1_hat):
            gains, failed = ce_lqr_gain(params, b1_hat)
            return gains, failed | (np.ravel(b1_hat) == failing)

        monkeypatch.setattr(experiments, "_MAX_PROBE_LENGTH", 200)
        config = CeLqrConfig(n_values=(4,), trials=50, seed=20240814)
        clean = run_ce_lqr(config).rows[0]
        monkeypatch.setattr(experiments, "ce_lqr_gain", failing_gain)
        row = run_ce_lqr(config).rows[0]
        assert row.status == status
        assert row.synthesis_failures == 0
        if status == "ok":
            assert (row.min_n, row.rate_at_min_n) == (clean.min_n, clean.rate_at_min_n)

    def test_saturated_search_reports_the_direct_rate_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(experiments, "_MAX_PROBE_LENGTH", 40)
        config = CeLqrConfig(n_values=(6,), trials=50, seed=20240814)
        row = run_ce_lqr(config).rows[0]
        assert row.status == "saturated"
        assert row.min_n is None
        assert row.rate_at_min_n == _direct_rate(config, 6, 40) < 0.9

    def test_narrowed_interval_is_reported_as_mismatch(self, monkeypatch):
        # a wrong interval model must show up in the row, with the rate that
        # direct synthesis measures at the N the model chose.  Membership of
        # 2 b1_hat around the truth 0 is membership in the halved interval
        class Narrowed(experiments._StableInterval):
            def contains(self, b1_hats):
                return super().contains(2.0 * b1_hats)

        monkeypatch.setattr(experiments, "_StableInterval", Narrowed)
        config = CeLqrConfig(n_values=(4,), seed=20240814)
        row = run_ce_lqr(config).rows[0]
        assert row.status == "interval-mismatch"
        assert row.min_n is not None
        assert row.rate_at_min_n == _direct_rate(config, 4, row.min_n)

    def test_nonzero_truth_rows_agree_with_direct_synthesis(self, monkeypatch):
        # b1_hat = 0 does not stabilize this truth, so an interval searched
        # from 0 instead of the truth disagrees with direct synthesis
        monkeypatch.setattr(experiments, "_MAX_PROBE_LENGTH", 2000)
        config = CeLqrConfig(n_values=(2, 3), true_b1=0.2, seed=20240814)
        rows = run_ce_lqr(config).rows
        assert [row.status for row in rows] == ["ok", "ok"]
        for row in rows:
            assert row.rate_at_min_n == _direct_rate(config, row.n, row.min_n) >= 0.9

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
            assert 0 < row.largest_feasible_m <= row.params.sup_bound
        assert rows[1].largest_feasible_m < rows[0].largest_feasible_m

    def test_inconclusive_probes_make_the_row_conservative(self, monkeypatch):
        check = lmi.check_feasible

        def inconclusive_above_zero(pair, *args, **kwargs):
            if pair.m == 0:
                return check(pair, *args, **kwargs)
            return InfeasibleReport(best_margin=-1.0, status="inconclusive")

        monkeypatch.setattr(lmi, "check_feasible", inconclusive_above_zero)
        params = HardFamilyParams(n=2, r=3.2, v=1.01)
        result = lmi.bisect_largest_m(params)
        assert result.conservative and result.status == "conservative"
        assert result.largest_feasible_m == 0.0
        assert {status for _, status in result.trace[2:]} == {"inconclusive"}
        rows = run_lmi_sweep([2], r=3.2, v=1.01)
        assert rows[0].status == "conservative"
        assert lmi_sweep_csv_lines(rows)[1].split(",")[-1] == "conservative"

    def test_csv_lines(self, tmp_path):
        params = HardFamilyParams(n=2, r=3.2, v=1.01)
        rows = [
            BisectionResult(
                params=params,
                largest_feasible_m=0.28,
                bracket=(0.28, 0.29),
                iterations=10,
                certificate=lmi.check_feasible(make_hard_pair(params, 0.0)),
                conservative=False,
            )
        ]
        lines = lmi_sweep_csv_lines(rows)
        assert lines[0] == "n,r,v,largest_m,log10_largest_m,sup_bound,iterations,status"
        path = tmp_path / "sweep.csv"
        write_csv_lines(path, lines)
        assert path.read_text().count("\n") == 2
