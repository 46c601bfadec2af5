"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 8's slope clause is asserted exactly as stated even though the
verified feasibility boundary provably decays much faster than the ceiling
it is compared against (measured: ~v/r per dimension versus 2v/(r-1));
that single test is expected to fail on a correct implementation.
"""

import math
import time

import numpy as np
import pytest

from hardstab.bounds import birge_kl_threshold, birge_min_samples, kl_upper_bound
from hardstab.bounds import kl_monte_carlo
from hardstab.experiments import CeLqrConfig, run_ce_lqr, run_lmi_sweep
from hardstab.lmi import check_feasible
from hardstab.numerics import (
    Prng,
    characteristic_polynomial,
    gaussian_sample,
    poly_roots,
    solve_dare,
    spectral_radius,
)
from hardstab.synthesis import (
    ackermann_gain,
    closed_loop_charpoly,
    costab_bound,
    is_stabilizing,
    k1_closed_form,
    perturbed_charpoly,
)
from hardstab.systems import HardFamilyParams, InputPolicy, make_hard_pair

ACCEPT_SEED = 20240814


def criterion(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\n[criterion {number:02d}] {status}: {detail}")
    assert passed, f"criterion {number} FAILED: {detail}"


def random_stable_conjugate_poles(rng, n):
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


def random_params(rng, n_max):
    n = int(rng.integers(2, n_max + 1))
    r = rng.uniform(1.5, 4.5)
    v = rng.uniform(0.1, 0.9) * (r - 1) / 2
    return HardFamilyParams(n=n, r=r, v=v)


def fit_line(x, y):
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * np.asarray(x) + intercept
    residual = np.sum((np.asarray(y) - predicted) ** 2)
    total = np.sum((np.asarray(y) - np.mean(y)) ** 2)
    r_squared = 1.0 - residual / total if total > 0 else 1.0
    return slope, r_squared


def test_criterion_01_first_gain_element_closed_form():
    start = time.perf_counter()
    rng = np.random.default_rng(ACCEPT_SEED)
    worst = 0.0
    for _ in range(200):
        params = random_params(rng, 10)
        poles = random_stable_conjugate_poles(rng, params.n)
        closed_form = k1_closed_form(params, poles)
        gain = ackermann_gain(make_hard_pair(params, 0.0).s1, poles)
        worst = max(worst, abs(closed_form - gain[0]) / abs(closed_form))
    elapsed = time.perf_counter() - start
    criterion(
        1,
        worst <= 1e-8 and elapsed < 10.0,
        f"closed-form k1 vs placement gain: worst rel err {worst:.2e} "
        f"(<=1e-8), {elapsed:.1f}s (<10s)",
    )


def test_criterion_02_pole_placement_accuracy():
    start = time.perf_counter()
    rng = np.random.default_rng(ACCEPT_SEED + 1)
    worst = 0.0
    for _ in range(200):
        params = random_params(rng, 8)
        poles = random_stable_conjugate_poles(rng, params.n)
        sys1 = make_hard_pair(params, 0.0).s1
        gain = ackermann_gain(sys1, poles)
        achieved = np.linalg.eigvals(sys1.a + sys1.b @ gain.reshape(1, -1))
        err = np.max(np.abs(np.sort_complex(achieved) - np.sort_complex(poles)))
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    criterion(
        2,
        worst <= 1e-6 and elapsed < 30.0,
        f"placed eigenvalues vs requested: worst abs err {worst:.2e} "
        f"(<=1e-6), {elapsed:.1f}s (<30s)",
    )


def test_criterion_03_perturbation_ceiling_contrapositive():
    start = time.perf_counter()
    rng = np.random.default_rng(ACCEPT_SEED + 2)
    violations = 0
    checked = 0
    while checked < 1000:
        params = random_params(rng, 8)
        poles = random_stable_conjugate_poles(rng, params.n)
        sys1 = make_hard_pair(params, 0.0).s1
        gain = ackermann_gain(sys1, poles)
        if not is_stabilizing(sys1, gain).stable:
            continue
        bound = costab_bound(params, poles)
        m = bound * rng.uniform(1.000001, 100.0)
        sibling = make_hard_pair(params, m).s2
        if is_stabilizing(sibling, gain).spectral_radius < 1.0:
            violations += 1
        checked += 1
    elapsed = time.perf_counter() - start
    criterion(
        3,
        violations == 0 and elapsed < 60.0,
        f"sibling destabilized in {checked} cases with m >= ceiling: "
        f"{violations} violations (=0), {elapsed:.1f}s (<60s)",
    )


def test_criterion_04_worked_two_dimensional_example():
    params = HardFamilyParams(n=2, r=3.2, v=1.01)
    pair = make_hard_pair(params, 0.0)
    gain = ackermann_gain(pair.s1, [0.0, 0.0])
    k1 = k1_closed_form(params, [0.0, 0.0])
    base = closed_loop_charpoly(params, gain)
    at_p1 = perturbed_charpoly(base, 0.1, gain[0])
    at_p09 = perturbed_charpoly(base, 0.09, gain[0])
    bound = costab_bound(params, [0.0, 0.0])
    checks = {
        "k1": abs(k1 - (-10.0382)) <= 1e-3,
        "shifted coeff at m=0.1": abs(at_p1[1] - 1.00382) <= 1e-4,
        "unstable at m=0.1": np.max(np.abs(poly_roots(at_p1))) >= 1.0,
        "shifted coeff at m=0.09": abs(at_p09[1] - 0.90344) <= 1e-4,
        "stable at m=0.09": np.max(np.abs(poly_roots(at_p09))) < 1.0,
        "ceiling": abs(bound - 0.09961) <= 1e-4,
    }
    criterion(
        4,
        all(checks.values()),
        "worked n=2 example: "
        + ", ".join(f"{name} {'ok' if ok else 'BAD'}" for name, ok in checks.items()),
    )


def test_criterion_05_kl_tightness_monte_carlo():
    start = time.perf_counter()
    params = HardFamilyParams(n=2, r=3.2, v=1.01)
    policy = InputPolicy.iid_gaussian(32.0)
    pair = make_hard_pair(params, 0.01, noise_variance=0.005)
    report = kl_monte_carlo(pair, policy, horizon=50, trials=100_000, rng=Prng(ACCEPT_SEED))
    analytic = kl_upper_bound(50, 0.01, 32.0, 0.005)
    tight = abs(report.mc_estimate - analytic) <= 3 * report.mc_std_error
    pair0 = make_hard_pair(params, 0.0, noise_variance=0.005)
    zero_report = kl_monte_carlo(pair0, policy, horizon=50, trials=1000, rng=Prng(ACCEPT_SEED))
    elapsed = time.perf_counter() - start
    criterion(
        5,
        tight and zero_report.mc_estimate == 0.0 and elapsed < 120.0,
        f"MC {report.mc_estimate:.4f} vs analytic {analytic:.1f} nats within "
        f"3 SE ({3 * report.mc_std_error:.4f}); m=0 estimate exactly "
        f"{zero_report.mc_estimate}; {elapsed:.1f}s (<2min)",
    )


def test_criterion_06_birge_arithmetic():
    threshold = birge_kl_threshold(0.1)
    exact_ok = abs(threshold.exact - 1.75786) <= 1e-4
    relaxed_ok = abs(threshold.relaxed - 1.20397) <= 1e-4
    rng = np.random.default_rng(ACCEPT_SEED + 3)
    worst = 0.0
    for _ in range(100):
        params = random_params(rng, 10)
        delta = float(rng.uniform(0.01, 0.49))
        sigma_u2 = float(rng.uniform(0.5, 64.0))
        sigma_w2 = float(rng.uniform(1e-4, 1.0))
        min_samples = birge_min_samples(params, delta, sigma_u2, sigma_w2)
        # independent re-implementation through logarithms
        log_value = (
            math.log(sigma_w2)
            - math.log(2 * sigma_u2)
            + 2 * params.n * (math.log(params.r - 1) - math.log(2 * params.v))
        )
        reference = math.exp(log_value) * math.log(1 / (3 * delta))
        if reference != 0:
            worst = max(worst, abs(min_samples - reference) / abs(reference))
    criterion(
        6,
        exact_ok and relaxed_ok and worst <= 1e-12,
        f"threshold exact {threshold.exact:.6f} (~1.75786), relaxed "
        f"{threshold.relaxed:.6f} (~1.20397), formula vs log-path oracle "
        f"worst rel {worst:.2e} (<=1e-12)",
    )


@pytest.fixture(scope="module")
def lmi_sweep_results():
    start = time.perf_counter()
    results = {
        v: run_lmi_sweep(range(2, 11), r=3.2, v=v, tolerance=1e-3)
        for v in (1.01, 1.05, 1.09)
    }
    return results, time.perf_counter() - start


@pytest.mark.slow
def test_criterion_07_lmi_certificate_soundness():
    start = time.perf_counter()
    tolerance = 1e-6
    sound = True
    details = []
    for n in range(2, 9):
        params = HardFamilyParams(n=n, r=3.2, v=1.01)
        sup = (2 * params.v / (params.r - 1)) ** n
        for m in (0.0, 0.1 * 0.2888 * (params.v / params.r) ** (n - 2)):
            cert = check_feasible(make_hard_pair(params, m))
            if not cert.feasible:
                sound = False
                details.append(f"n={n} m={m:.2e} unexpectedly infeasible")
                continue
            substitution_ok = (
                cert.p_min_eigenvalue >= tolerance / 2
                and min(cert.lyapunov_margins) >= tolerance / 2
                and max(cert.spectral_radii) < 1.0
            )
            if not substitution_ok:
                sound = False
                details.append(f"n={n} m={m:.2e} certificate fails substitution")
        outcome = check_feasible(make_hard_pair(params, 2 * sup))
        if outcome.feasible:
            sound = False
            details.append(f"n={n} feasible at theorem m")
    elapsed = time.perf_counter() - start
    criterion(
        7,
        sound and elapsed < 300.0,
        f"certificates verified and theorem-m infeasible for n=2..8 "
        f"{'(' + '; '.join(details) + ')' if details else ''}, "
        f"{elapsed:.1f}s (<5min)",
    )


@pytest.mark.slow
def test_criterion_08_costabilizability_sweep_trend(lmi_sweep_results):
    results, elapsed = lmi_sweep_results
    decreasing = True
    below_ceiling = True
    dominance = True
    for v, rows in results.items():
        values = [row.largest_m for row in rows]
        logs = [math.log10(value) for value in values]
        if not all(b < a for a, b in zip(logs, logs[1:])):
            decreasing = False
        if not all(row.largest_m <= row.sup_bound * (1 + 1e-12) for row in rows):
            below_ceiling = False
    for row_low, row_high in zip(results[1.01], results[1.09]):
        if row_high.largest_m <= row_low.largest_m:
            dominance = False
    criterion(
        8,
        decreasing and below_ceiling and dominance and elapsed < 900.0,
        f"sweep n=2..10, v in {{1.01,1.05,1.09}}: strictly decreasing "
        f"log10 {decreasing}, ceiling respected {below_ceiling}, larger v "
        f"dominates {dominance}, {elapsed:.0f}s (<15min)",
    )


@pytest.mark.slow
def test_criterion_08_slope_matches_ceiling_scaling(lmi_sweep_results):
    # As stated, the per-dimension log-slope must match log(2v/(r-1)) within
    # 15%.  The verified feasibility boundary instead contracts like ~v/r per
    # dimension (the common-certificate requirement is far more conservative
    # than the ceiling, and two independent interior-point solvers plus a
    # direct parameter search agree), so this clause fails as stated.
    results, _ = lmi_sweep_results
    within = True
    measured = {}
    for v, rows in results.items():
        slope, _ = fit_line([row.n for row in rows], [math.log(row.largest_m) for row in rows])
        target = math.log(2 * v / (3.2 - 1))
        measured[v] = (slope, target)
        if abs(slope - target) > 0.15 * abs(target):
            within = False
    criterion(
        8,
        within,
        "log-slope vs log(2v/(r-1)): "
        + ", ".join(
            f"v={v}: measured {slope:.4f} target {target:.4f}"
            for v, (slope, target) in measured.items()
        ),
    )


@pytest.mark.slow
def test_lmi_sweep_rows_meet_their_closed_form(lmi_sweep_results):
    # the LMI boundary is 2 v^n / (r^(n-1) (r - 1)), and at n = 2..6 the
    # bisection's feasible end lies within its 1e-3 tolerance below it, at
    # every v of the sweep
    results, _ = lmi_sweep_results
    ratios = {}
    for v, rows in results.items():
        for row in rows:
            if row.n <= 6:
                closed_form = 2 * v**row.n / (row.r ** (row.n - 1) * (row.r - 1))
                ratios[row.n, v] = closed_form / row.largest_m
    assert sorted(ratios) == [(n, v) for n in range(2, 7) for v in (1.01, 1.05, 1.09)]
    outside = {key: ratio for key, ratio in ratios.items() if not 1.0 < ratio <= 1.002}
    assert not outside, outside


@pytest.fixture(scope="module")
def ce_lqr_outcome():
    config = CeLqrConfig(n_values=(2, 3, 4, 5, 6, 7, 8), seed=ACCEPT_SEED)
    start = time.perf_counter()
    result = run_ce_lqr(config)
    elapsed = time.perf_counter() - start
    return config, result, elapsed


@pytest.mark.slow
def test_criterion_09_minimum_samples_trend(ce_lqr_outcome):
    config, result, elapsed = ce_lqr_outcome
    min_ns = [row.min_n for row in result.rows]
    found_all = all(m is not None for m in min_ns)
    nondecreasing = found_all and all(b >= a for a, b in zip(min_ns, min_ns[1:]))
    slope, r_squared = (
        fit_line([row.n for row in result.rows], [math.log(m) for m in min_ns])
        if found_all
        else (0.0, 0.0)
    )
    rerun = run_ce_lqr(config)
    deterministic = result.csv_lines(include_wall_time=False) == rerun.csv_lines(
        include_wall_time=False
    )
    criterion(
        9,
        found_all
        and nondecreasing
        and slope > 0
        and r_squared >= 0.8
        and deterministic
        and elapsed < 1800.0,
        f"min_N {min_ns}: nondecreasing {nondecreasing}, log-fit slope "
        f"{slope:.3f} (>0), R^2 {r_squared:.3f} (>=0.8), deterministic "
        f"{deterministic}, {elapsed:.0f}s (<30min)",
    )


def test_criterion_10_substrate_invariants():
    # Riccati residual contract at the default absolute tolerance
    dare_ok = True
    cases = [
        (np.array([[0.0]]), np.array([[1.0]]), np.eye(1)),
        (np.array([[0.5]]), np.array([[1.0]]), np.eye(1)),
        (np.array([[0.9, 0.2], [0.0, 0.4]]), np.array([[0.0], [1.0]]), np.eye(2)),
        (np.array([[1.1, 0.3, 0.0], [0.0, 0.7, 0.2], [0.1, 0.0, 0.5]]),
         np.array([[0.0], [0.0], [1.0]]), np.eye(3)),
    ]
    worst_residual = 0.0
    for a, b, q in cases:
        p = solve_dare(a, b[np.newaxis], q, np.array([[1.0]])).p[0]
        step = (
            a.T @ p @ a
            - (a.T @ p @ b)
            @ np.linalg.solve(np.array([[1.0]]) + b.T @ p @ b, b.T @ p @ a)
            + q
        )
        worst_residual = max(worst_residual, float(np.linalg.norm(p - step)))
    dare_ok = worst_residual <= 1e-9

    rng = np.random.default_rng(ACCEPT_SEED + 4)
    worst_rho = 0.0
    for n in range(2, 9):
        for _ in range(5):
            matrix = rng.normal(size=(n, n))
            rho = spectral_radius(matrix)
            oracle = np.max(np.abs(poly_roots(characteristic_polynomial(matrix))))
            worst_rho = max(worst_rho, abs(rho - oracle) / max(1.0, oracle))

    streams_ok = np.array_equal(
        gaussian_sample(Prng(ACCEPT_SEED, 7), 0.0, 32.0, 4096),
        gaussian_sample(Prng(ACCEPT_SEED, 7), 0.0, 32.0, 4096),
    )
    criterion(
        10,
        dare_ok and worst_rho <= 1e-6 and streams_ok,
        f"DARE residual {worst_residual:.2e} (<=1e-9), spectral radius vs "
        f"root oracle worst {worst_rho:.2e} (<=1e-6), stream reproducibility "
        f"{streams_ok}",
    )
