"""Self-test of the benchmark harness: span arithmetic, the tracer, the
correctness checks (each must reject a deliberately perturbed table) and
the agreement of BENCHMARK.json with the code.

    python3 perfbench/selftest.py        # or: python3 -m pytest perfbench/selftest.py
"""

import json
import sys
import types
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Target, Tracer, self_times  # noqa: E402
from hardstab import bounds, experiments, numerics, systems  # noqa: E402


def nested_trace() -> list[Span]:
    """root [0, 10] holds a [1, 4] (which holds [2, 3]) and b [5, 9]."""
    return [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("leaf", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
    ]


def test_self_time_subtracts_direct_children_only():
    assert self_times(nested_trace()) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_children_once():
    spans = [Span("p", 0.0, 10.0, -1), Span("c", 1.0, 5.0, 0), Span("c", 3.0, 7.0, 0)]
    assert self_times(spans)[0] == 4.0


def test_tracer_records_parents_outcomes_and_restores():
    fake = types.ModuleType("fake")
    fake.outer = lambda: fake.inner(2)
    fake.inner = lambda k: types.SimpleNamespace(iterations=k)

    def fail():
        raise numerics.DareError("boom")

    fake.fail = fail
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    targets = [
        Target(fake, "outer", "outer"),
        Target(fake, "inner", "inner", layers._iterations),
        Target(fake, "fail", "fail"),
    ]
    originals = [fake.outer, fake.inner, fake.fail]
    with tracer.installed(targets):
        fake.outer()
        try:
            fake.fail()
        except numerics.DareError:
            pass
    assert [fake.outer, fake.inner, fake.fail] == originals
    spans = tracer.take()
    assert [(s.name, s.parent) for s in spans] == [("outer", -1), ("inner", 0), ("fail", -1)]
    assert spans[1].info == {"iterations": 2}
    assert spans[2].info == {"error": "DareError"}
    assert tracer.hits["fake.inner"] == 1 and tracer.spans == []
    assert layers.missing_hits(tracer.hits, ["fake.outer", "fake.never"]) == ["fake.never"]


def test_tracer_fails_loudly_on_a_missing_site():
    fake = types.ModuleType("fake")
    try:
        with Tracer().installed([Target(fake, "renamed", "x")]):
            pass
    except AttributeError:
        return
    raise AssertionError("a missing call site must raise")


def test_layer_metrics_split_self_time_from_children():
    spans = [
        Span("synthesis.ce_lqr_gain", 0.0, 5.0, -1),
        Span("numerics.solve_dare", 1.0, 4.0, 0, {"iterations": 7}),
        Span("synthesis.ce_lqr_gain", 5.0, 6.0, -1, {"error": "DareError"}),
        Span("numerics.solve_dare", 5.0, 5.5, 2, {"error": "DareError"}),
        Span("lmi.check_feasible", 6.0, 8.0, -1, {"status": "feasible"}),
        Span("lmi.check_feasible", 8.0, 11.0, -1, {"status": "inconclusive"}),
    ]
    got = layers.layer_metrics(spans)
    assert got["synthesis.ce_lqr_gain.calls"] == 2
    assert got["synthesis.ce_lqr_gain.self_s"] == 2.5
    assert got["numerics.solve_dare.calls"] == 2
    assert got["numerics.solve_dare.failed"] == 1
    assert got["numerics.solve_dare.iterations"] == 7
    assert got["numerics.solve_dare.busy_s"] == 3.5
    assert got["lmi.check_feasible.feasible_s"] == 2.0
    assert got["lmi.check_feasible.infeasible_s"] == 3.0
    assert got["lmi.check_feasible.inconclusive"] == 1
    assert got["systems.simulate.calls"] == 0


def lmi_rows(values: dict) -> list[dict]:
    return [
        {"n": str(n), "largest_m": repr(m), "sup_bound": repr((2 * 1.01 / 2.2) ** n), "status": "ok"}
        for n, m in values.items()
    ]


def test_lmi_check_rejects_a_shifted_boundary():
    reference = {n: workloads.LMI_REFERENCE[n] for n in (2, 3, 4)}
    assert workloads.check_lmi_rows(lmi_rows(reference)) == [None, None, None]
    shifted = {**reference, 3: reference[3] * (1 + 3 * workloads.LMI_TOLERANCE)}
    verdicts = workloads.check_lmi_rows(lmi_rows(shifted))
    assert verdicts[0] is None and verdicts[2] is None and "reference" in verdicts[1]
    conservative = lmi_rows(reference)
    conservative[0]["status"] = "conservative"
    assert workloads.check_lmi_rows(conservative)[0] == "status conservative"


def test_ce_lqr_check_rejects_min_n_one_too_small():
    seed = workloads.DEFAULT_SEED
    config = experiments.CeLqrConfig(n_values=(4, 5), seed=seed)
    rows = workloads.parse_csv(experiments.run_ce_lqr(config).csv_lines(False))
    assert workloads.check_ce_lqr_rows(rows, seed) == [None, None]
    assert workloads.check_ce_lqr_golden(rows) == [None, None]
    early = [dict(row, min_N=str(int(row["min_N"]) - 1)) for row in rows]
    assert all(workloads.check_ce_lqr_rows(early, seed))
    assert all(workloads.check_ce_lqr_golden(early))


def test_kl_check_rejects_an_estimate_moved_by_ten_se():
    params = systems.HardFamilyParams(n=2, r=workloads.R, v=workloads.V)
    pair = systems.make_hard_pair(params, 0.01, noise_variance=workloads.SIGMA_W2)
    policy = systems.InputPolicy.iid_gaussian(workloads.SIGMA_U2)
    report = bounds.kl_monte_carlo(pair, policy, 50, 2000, numerics.Prng(7))
    exact = bounds.kl_upper_bound(50, 0.01, workloads.SIGMA_U2, workloads.SIGMA_W2)
    se = report.mc_std_error
    assert workloads.check_kl_estimate(report.mc_estimate, se, exact) is None
    assert workloads.check_kl_estimate(report.mc_estimate + 10 * se, se, exact)
    assert workloads.check_kl_estimate(report.mc_estimate - 10 * se, se, exact)


class FakeWorkload:
    largest_row = None

    def check(self, lines):
        return [None] * (len(lines) - 1), ["golden mismatch"]


def test_judge_counts_rows_that_do_not_repeat():
    table = ["h", "1,a", "2,b"]
    result = run.Run(outputs=[table, table, ["h", "1,a", "2,c"]])
    attempted, failed, failures = run.judge(FakeWorkload(), result)
    assert (attempted, failed) == (2 + 1 + 2 + 2, 2)
    assert failures == ["extra row 1: golden mismatch", "table 3 row 2: differs from table 1"]


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(workloads.WORKLOADS) == sorted(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert spec["run_seconds"] == run.DEFAULT_SECONDS
    expected = {site for w in workloads.WORKLOADS.values() for site in w.expected_sites}
    assert {t.site for t in layers.TARGETS} == expected


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failures = 0
    for name, fn in tests:
        try:
            fn()
        except Exception as exc:  # report every test, then fail
            failures += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failures} passed, {failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
