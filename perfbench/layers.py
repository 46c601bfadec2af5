"""Call sites wrapped by the traced run and the per-layer metrics computed
from their spans.

Every site is the module attribute through which the *caller* reaches the
function, so patching it intercepts exactly the calls the workloads make.
"""

from __future__ import annotations

from collections import defaultdict

from hardstab import bounds, cli, experiments, lmi, numerics, plotting, synthesis
from spans import Span, Target, self_times


def _verdict(args, kwargs, result):
    return {"status": "feasible" if result.feasible else result.status}


def _iterations(args, kwargs, result):
    return {"iterations": int(result.iterations)}


def _argument(position: int, keyword: str, label: str):
    def describe(args, kwargs, result):
        value = kwargs[keyword] if keyword in kwargs else args[position]
        return {label: int(value)}

    return describe


TARGETS = (
    Target(cli, "main", "cli.main"),
    Target(experiments, "run_lmi_sweep", "experiments.run_lmi_sweep"),
    Target(experiments, "run_ce_lqr", "experiments.run_ce_lqr"),
    Target(experiments, "write_csv_lines", "experiments.write_csv_lines"),
    Target(experiments, "bisect_largest_m", "lmi.bisect_largest_m", _iterations),
    Target(lmi, "check_feasible", "lmi.check_feasible", _verdict),
    Target(experiments, "ce_lqr_gain", "synthesis.ce_lqr_gain"),
    Target(experiments, "is_stabilizing", "synthesis.is_stabilizing"),
    Target(synthesis, "solve_dare", "numerics.solve_dare", _iterations),
    # Prng is built in experiments (per trial) and in numerics (Prng.spawn)
    Target(experiments, "Prng", "numerics.prng"),
    Target(numerics, "Prng", "numerics.prng"),
    Target(bounds, "kl_monte_carlo", "bounds.kl_monte_carlo", _argument(3, "trials", "trials")),
    Target(bounds, "simulate", "systems.simulate", _argument(2, "horizon", "steps")),
    Target(plotting, "render_plot", "plotting.render_plot"),
)

# (name, unit) of every per-layer metric, in report order; BENCHMARK.json
# lists the same names.
PER_LAYER = (
    ("lmi.check_feasible.calls", "count"),
    ("lmi.check_feasible.feasible", "count"),
    ("lmi.check_feasible.infeasible", "count"),
    ("lmi.check_feasible.inconclusive", "count"),
    ("lmi.check_feasible.feasible_s", "s"),
    ("lmi.check_feasible.infeasible_s", "s"),
    ("lmi.bisect_largest_m.probes", "count"),
    ("lmi.bisect_largest_m.self_s", "s"),
    ("numerics.solve_dare.calls", "count"),
    ("numerics.solve_dare.failed", "count"),
    ("numerics.solve_dare.iterations", "count"),
    ("numerics.solve_dare.busy_s", "s"),
    ("numerics.prng.streams", "count"),
    ("numerics.prng.busy_s", "s"),
    ("synthesis.ce_lqr_gain.calls", "count"),
    ("synthesis.ce_lqr_gain.self_s", "s"),
    ("synthesis.is_stabilizing.calls", "count"),
    ("synthesis.is_stabilizing.busy_s", "s"),
    ("systems.simulate.calls", "count"),
    ("systems.simulate.steps", "count"),
    ("systems.simulate.busy_s", "s"),
    ("bounds.kl_monte_carlo.trials", "count"),
    ("bounds.kl_monte_carlo.self_s", "s"),
    ("experiments.run_ce_lqr.self_s", "s"),
    ("experiments.run_lmi_sweep.self_s", "s"),
    ("experiments.write_csv_lines.busy_s", "s"),
    ("plotting.render_plot.busy_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.table_s", "s"),
    ("trace.untraced_table_s", "s"),
    ("trace.overhead_s", "s"),
)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced table (the trace.* entries are added
    by the caller, which also times the untraced tables)."""
    grouped: dict[str, list[tuple[Span, float]]] = defaultdict(list)
    for span, own in zip(spans, self_times(spans)):
        grouped[span.name].append((span, own))

    def calls(name, keep=lambda span: True):
        return sum(1 for span, _ in grouped[name] if keep(span))

    def busy(name, keep=lambda span: True):
        return sum(span.end - span.start for span, _ in grouped[name] if keep(span))

    def own(name):
        return sum(own for _, own in grouped[name])

    def total(name, key):
        return sum(span.info.get(key, 0) for span, _ in grouped[name])

    def status(value):
        return lambda span: span.info.get("status") == value

    def refuted(span):  # InfeasibleReport, whatever its status
        return span.info.get("status") not in (None, "feasible")

    return {
        "lmi.check_feasible.calls": calls("lmi.check_feasible"),
        "lmi.check_feasible.feasible": calls("lmi.check_feasible", status("feasible")),
        "lmi.check_feasible.infeasible": calls("lmi.check_feasible", status("infeasible")),
        "lmi.check_feasible.inconclusive": calls("lmi.check_feasible", status("inconclusive")),
        "lmi.check_feasible.feasible_s": busy("lmi.check_feasible", status("feasible")),
        "lmi.check_feasible.infeasible_s": busy("lmi.check_feasible", refuted),
        "lmi.bisect_largest_m.probes": total("lmi.bisect_largest_m", "iterations"),
        "lmi.bisect_largest_m.self_s": own("lmi.bisect_largest_m"),
        "numerics.solve_dare.calls": calls("numerics.solve_dare"),
        "numerics.solve_dare.failed": calls(
            "numerics.solve_dare", lambda span: span.info.get("error") == "DareError"
        ),
        "numerics.solve_dare.iterations": total("numerics.solve_dare", "iterations"),
        "numerics.solve_dare.busy_s": busy("numerics.solve_dare"),
        "numerics.prng.streams": calls("numerics.prng"),
        "numerics.prng.busy_s": busy("numerics.prng"),
        "synthesis.ce_lqr_gain.calls": calls("synthesis.ce_lqr_gain"),
        "synthesis.ce_lqr_gain.self_s": own("synthesis.ce_lqr_gain"),
        "synthesis.is_stabilizing.calls": calls("synthesis.is_stabilizing"),
        "synthesis.is_stabilizing.busy_s": busy("synthesis.is_stabilizing"),
        "systems.simulate.calls": calls("systems.simulate"),
        "systems.simulate.steps": total("systems.simulate", "steps"),
        "systems.simulate.busy_s": busy("systems.simulate"),
        "bounds.kl_monte_carlo.trials": total("bounds.kl_monte_carlo", "trials"),
        "bounds.kl_monte_carlo.self_s": own("bounds.kl_monte_carlo"),
        "experiments.run_ce_lqr.self_s": own("experiments.run_ce_lqr"),
        "experiments.run_lmi_sweep.self_s": own("experiments.run_lmi_sweep"),
        "experiments.write_csv_lines.busy_s": busy("experiments.write_csv_lines"),
        "plotting.render_plot.busy_s": busy("plotting.render_plot"),
        "cli.main.self_s": own("cli.main"),
    }


def missing_hits(hits, expected_sites) -> list[str]:
    """Expected call sites that the traced run never entered."""
    return [site for site in expected_sites if hits[site] == 0]
