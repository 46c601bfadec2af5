"""The benchmark's workloads and the correctness checks on their tables.

Each workload drives hardstab through the entry point a user calls: the CLI
for the two experiments, the Python API for the KL Monte Carlo (the CLI has
no custom-policy flag).  ``table()`` produces the workload's table files and
returns the slowest row's time when it can see row boundaries (the KL
slices), else None; then ``largest_row()`` re-runs the largest-n row alone
(it is None where ``table()`` times the rows).  ``read_table()`` returns the
table's wall-time-free CSV lines and ``check()`` judges them.  A check
returns one verdict per row it judged: None for a pass, else the reason.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import time
from pathlib import Path
from typing import Optional

import numpy as np

from hardstab import bounds, cli, experiments, numerics, synthesis, systems

DEFAULT_SEED = 20240814
R = 3.2
V = 1.01
SIGMA_U2 = 32.0
SIGMA_W2 = 0.005

# Largest co-stabilizable m for r = 3.2, v = 1.01, tolerance 1e-3 (the
# ROADMAP's golden sweep fixture).
LMI_TOLERANCE = 1e-3
LMI_REFERENCE = {
    2: 2.8960e-1,
    3: 9.1421e-2,
    4: 2.8848e-2,
    5: 9.1064e-3,
    6: 2.8732e-3,
    7: 9.0666e-4,
    8: 2.8544e-4,
}

# min_N of the CE-LQR search for the default seed, 200 trials, 90% success.
CE_TRIALS = 200
CE_THRESHOLD = 0.9
CE_GOLDEN = {2: 1, 3: 2, 4: 6, 5: 52, 6: 381, 7: 4018, 8: 50481}

Verdicts = list[Optional[str]]


def parse_csv(lines: list[str]) -> list[dict]:
    return list(csv.DictReader(lines))


def _cli(argv: list[str]) -> None:
    """Run the CLI as a user would; its table echo is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(argv)
    if status != 0:
        raise RuntimeError(f"hardstab {argv[0]} exited with {status}")


def _read_lines(path: Path, drop_column: Optional[str] = None) -> list[str]:
    rows = list(csv.reader(path.read_text().splitlines()))
    if drop_column is not None:
        drop = rows[0].index(drop_column)
        rows = [row[:drop] + row[drop + 1 :] for row in rows]
    return [",".join(row) for row in rows]


# ----------------------------------------------------------------- checks


def check_lmi_rows(rows: list[dict]) -> Verdicts:
    """Every row 'ok', largest_m strictly decreasing in n and below
    sup_bound, and within the bisection tolerance of the reference."""
    verdicts = []
    previous = math.inf
    for row in rows:
        n = int(row["n"])
        largest = float(row["largest_m"])
        problems = []
        if row["status"] != "ok":
            problems.append(f"status {row['status']}")
        if not largest < float(row["sup_bound"]):
            problems.append("largest_m not below sup_bound")
        if not largest < previous:
            problems.append("largest_m not decreasing in n")
        reference = LMI_REFERENCE.get(n)
        if reference is None:
            problems.append("no reference boundary for this n")
        elif abs(largest - reference) > LMI_TOLERANCE * reference:
            problems.append(f"largest_m {largest:.6e} vs reference {reference:.6e}")
        previous = largest
        verdicts.append("; ".join(problems) or None)
    return verdicts


def stabilization_rates(n: int, lengths: list[int], seed: int) -> list[float]:
    """Share of the CE_TRIALS trials whose estimate from the first N samples
    of stream Prng(seed, i) gives a CE-LQR gain that stabilizes the truth
    (b1 = 0), for each N in ``lengths``.  Re-derived from the streams,
    independently of the search that produced the table."""
    params = systems.HardFamilyParams(n=n, r=R, v=V)
    truth = systems.hard_system(params)
    sigma_u, sigma_w = math.sqrt(SIGMA_U2), math.sqrt(SIGMA_W2)
    longest = max(lengths)
    successes = np.zeros(len(lengths))
    for trial in range(CE_TRIALS):
        block = numerics.Prng(seed, trial).generator.standard_normal((longest, 1 + n))
        u = sigma_u * block[:, 0]
        residual = sigma_w * block[:, 1]
        for k, length in enumerate(lengths):
            b1_hat = float(u[:length] @ residual[:length]) / float(u[:length] @ u[:length])
            try:
                gain = synthesis.ce_lqr_gain(params, b1_hat)
            except (numerics.DareError, np.linalg.LinAlgError):
                continue
            successes[k] += synthesis.is_stabilizing(truth, gain).stable
    return list(successes / CE_TRIALS)


def check_ce_lqr_rows(rows: list[dict], seed: int) -> Verdicts:
    """min_N exists with rate >= 0.9, and the re-derived rate is >= 0.9 at
    min_N and < 0.9 at min_N - 1 (vacuous at min_N = 1, where no shorter
    record exists)."""
    verdicts = []
    for row in rows:
        if row["min_N"] == "":
            verdicts.append(f"no min_N (status {row['status']})")
            continue
        n, min_n = int(row["n"]), int(row["min_N"])
        problems = []
        if float(row["rate_at_min_N"]) < CE_THRESHOLD:
            problems.append(f"reported rate {row['rate_at_min_N']} below threshold")
        lengths = [min_n] + ([min_n - 1] if min_n > 1 else [])
        rates = stabilization_rates(n, lengths, seed)
        if rates[0] < CE_THRESHOLD:
            problems.append(f"re-derived rate {rates[0]} at min_N = {min_n}")
        if len(rates) > 1 and rates[1] >= CE_THRESHOLD:
            problems.append(f"re-derived rate {rates[1]} already passes at N = {min_n - 1}")
        verdicts.append("; ".join(problems) or None)
    return verdicts


def check_ce_lqr_golden(rows: list[dict]) -> Verdicts:
    """The default seed reproduces the recorded min_N of every row."""
    verdicts = []
    for row in rows:
        expected = CE_GOLDEN.get(int(row["n"]))
        got = row["min_N"]
        ok = expected is not None and got == str(expected)
        verdicts.append(None if ok else f"min_N {got or 'none'} vs golden {expected}")
    return verdicts


def check_kl_estimate(estimate: float, std_error: float, exact: float) -> Optional[str]:
    """The estimate lies within 4 standard errors of the exact KL."""
    if abs(estimate - exact) <= 4.0 * std_error:
        return None
    return f"estimate {estimate:.6g} is {abs(estimate - exact) / std_error:.1f} SE from {exact:.6g}"


# -------------------------------------------------------------- workloads


class _CliExperiment:
    """An experiment subcommand writing the table CSV, then ``plot`` of one
    of its columns; the largest-n row is the same subcommand for that n."""

    subcommand: str
    n_values: tuple
    plot_y: str
    wall_column: Optional[str] = None

    def __init__(self, seed: int, work_dir: Path, flags: list[str]):
        self.seed = seed
        self.csv = work_dir / f"{self.name}.csv"
        self.svg = work_dir / f"{self.name}.svg"
        self.row_csv = work_dir / f"{self.name}-row.csv"
        n_list = ",".join(map(str, self.n_values))
        self.table_argv = [self.subcommand, "--n-values", n_list, *flags, "--out", str(self.csv)]
        self.plot_argv = ["plot", "--csv", str(self.csv), "--x", "n", "--y", self.plot_y]
        self.plot_argv += ["--svg", str(self.svg)]
        self.row_argv = [self.subcommand, "--n-values", str(self.n_values[-1]), *flags]
        self.row_argv += ["--out", str(self.row_csv)]

    def table(self) -> Optional[float]:
        _cli(self.table_argv)
        _cli(self.plot_argv)
        return None

    def largest_row(self) -> None:
        _cli(self.row_argv)

    def read_table(self) -> list[str]:
        return _read_lines(self.csv, self.wall_column)

    def read_row(self) -> str:
        return _read_lines(self.row_csv, self.wall_column)[-1]

    def _plotted(self, verdicts: Verdicts) -> Verdicts:
        if self.svg.is_file() and self.svg.stat().st_size > 0:
            return verdicts
        return [verdict or "no SVG written" for verdict in verdicts]


class LmiSweep(_CliExperiment):
    """``exp-lmi-sweep`` at r = 3.2, v = 1.01, tolerance 1e-3, then ``plot``
    of n against log10_largest_m.  Nearly all its time is in
    lmi.check_feasible (feasible and infeasible probes); it makes no Riccati
    solves and builds no streams.  It has no random input: the seed is only
    recorded."""

    name = "lmi-sweep"
    subcommand = "exp-lmi-sweep"
    n_values = (2, 3, 4)
    plot_y = "log10_largest_m"
    expected_sites = (
        "hardstab.cli.main",
        "hardstab.experiments.run_lmi_sweep",
        "hardstab.experiments.bisect_largest_m",
        "hardstab.lmi.check_feasible",
        "hardstab.experiments.write_csv_lines",
        "hardstab.plotting.render_plot",
    )

    def __init__(self, seed: int, work_dir: Path):
        flags = ["--r", str(R), "--v", str(V), "--tolerance", str(LMI_TOLERANCE)]
        super().__init__(seed, work_dir, flags)

    def check(self, lines: list[str]) -> tuple[Verdicts, Verdicts]:
        """Verdicts on the table's rows, and on extra rows the check ran."""
        return self._plotted(check_lmi_rows(parse_csv(lines))), []


class CeLqr(_CliExperiment):
    """``exp-ce-lqr`` with 200 trials, then ``plot`` of n against min_N.
    Most of its time is Riccati solves (numerics.solve_dare) inside CE-LQR
    synthesis, plus stabilization tests; it makes no LMI calls."""

    name = "ce-lqr"
    subcommand = "exp-ce-lqr"
    n_values = (2, 3, 4, 5, 6)
    plot_y = "min_N"
    wall_column = "wall_time_s"
    expected_sites = (
        "hardstab.cli.main",
        "hardstab.experiments.run_ce_lqr",
        "hardstab.experiments.ce_lqr_gain",
        "hardstab.synthesis.solve_dare",
        "hardstab.experiments.is_stabilizing",
        "hardstab.experiments.Prng",
        "hardstab.experiments.write_csv_lines",
        "hardstab.plotting.render_plot",
    )

    def __init__(self, seed: int, work_dir: Path):
        flags = ["--r", str(R), "--v", str(V), "--trials", str(CE_TRIALS)]
        flags += ["--threshold", str(CE_THRESHOLD), "--seed", str(seed)]
        super().__init__(seed, work_dir, flags)

    def check(self, lines: list[str]) -> tuple[Verdicts, Verdicts]:
        """The property check on every row; the golden min_N on the same rows
        for the default seed, else on an extra default-seed table."""
        rows = parse_csv(lines)
        verdicts = self._plotted(check_ce_lqr_rows(rows, self.seed))
        if self.seed == DEFAULT_SEED:
            golden = check_ce_lqr_golden(rows)
            return [mine or theirs for mine, theirs in zip(verdicts, golden)], []
        config = experiments.CeLqrConfig(
            n_values=self.n_values, r=R, v=V, trials=CE_TRIALS,
            success_threshold=CE_THRESHOLD, seed=DEFAULT_SEED,
        )
        default_rows = parse_csv(experiments.run_ce_lqr(config).csv_lines(False))
        return verdicts, check_ce_lqr_golden(default_rows)


def _gaussian_input(t, inputs, states, generator) -> float:
    """Custom policy with the i.i.d. Gaussian law, drawn step by step."""
    return math.sqrt(SIGMA_U2) * generator.standard_normal()


class KlMonteCarlo:
    """``bounds.kl_monte_carlo`` at n = 2, m = 0.01 in two slices: the
    i.i.d. Gaussian policy (many short streams, dominated by building
    generators) and a custom policy of the same law (the per-step path of
    systems.simulate).  The table is both reports written with
    ``experiments.write_csv_lines``.  No Riccati solves, no LMI calls."""

    name = "kl-mc"
    n = 2
    m = 0.01
    slices = (("iid-gaussian", 100_000, 100), ("custom", 2_000, 50))
    expected_sites = (
        "hardstab.bounds.kl_monte_carlo",
        "hardstab.numerics.Prng",
        "hardstab.bounds.simulate",
        "hardstab.experiments.write_csv_lines",
    )

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.csv = work_dir / "kl-mc.csv"
        params = systems.HardFamilyParams(n=self.n, r=R, v=V)
        self.pair = systems.make_hard_pair(params, self.m, noise_variance=SIGMA_W2)
        self.policies = {
            "iid-gaussian": systems.InputPolicy.iid_gaussian(SIGMA_U2),
            "custom": systems.InputPolicy.custom(_gaussian_input),
        }

    def table(self) -> Optional[float]:
        lines = [bounds.KlReport.CSV_HEADER]
        slowest = 0.0
        first_stream = 0
        for kind, trials, horizon in self.slices:
            start = time.perf_counter()
            report = bounds.kl_monte_carlo(
                self.pair, self.policies[kind], horizon, trials,
                numerics.Prng(self.seed, first_stream),
            )
            slowest = max(slowest, time.perf_counter() - start)
            lines.append(report.csv_row())
            first_stream += trials
        experiments.write_csv_lines(self.csv, lines)
        return slowest

    largest_row = None

    def read_table(self) -> list[str]:
        return _read_lines(self.csv)

    def check(self, lines: list[str]) -> tuple[Verdicts, Verdicts]:
        verdicts = []
        for row, (_, trials, horizon) in zip(parse_csv(lines), self.slices):
            exact = bounds.kl_upper_bound(horizon, self.m, SIGMA_U2, SIGMA_W2)
            verdict = check_kl_estimate(float(row["mc"]), float(row["mc_se"]), exact)
            if int(row["trials"]) != trials or int(row["horizon"]) != horizon:
                verdict = f"row for {row['trials']} trials at horizon {row['horizon']}"
            verdicts.append(verdict)
        return verdicts, []


WORKLOADS = {w.name: w for w in (LmiSweep, CeLqr, KlMonteCarlo)}
