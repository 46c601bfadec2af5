"""Command-line surface: family construction, gain synthesis, bound
calculators, experiments, and plotting.

A config file of ``key = value`` lines (keys named like the long flags)
supplies defaults; explicit flags win.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import bounds, experiments, lmi, plotting, synthesis, systems
from .experiments import CeLqrConfig
from .numerics import Prng

DEFAULT_SEED = 20240814


def _list_type(name: str, item):
    """argparse type for a comma-separated list of ``item`` values; the usage
    error for a malformed list names the flag and ``name``."""
    def parse(text: str) -> tuple:
        return tuple(item(part) for part in text.split(","))
    parse.__name__ = name
    return parse


def _output_path(path: str) -> str:
    """argparse type for a file a command writes, checked before any work: a
    missing or unwritable directory, or a path that is a directory or an
    unwritable file, is a usage error that names the flag."""
    if not path:
        raise argparse.ArgumentTypeError("empty path")
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise argparse.ArgumentTypeError(f"directory {directory!r} does not exist")
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"{path!r} is a directory")
    target = path if os.path.exists(path) else directory
    if not os.access(target, os.W_OK):
        raise argparse.ArgumentTypeError(f"cannot write {path!r}")
    return path


def _input_path(path: str) -> str:
    """argparse type for a file a command reads, checked before any work: a
    path that is not a readable file is a usage error that names the flag."""
    if not os.path.isfile(path) or not os.access(path, os.R_OK):
        raise argparse.ArgumentTypeError(f"cannot read {path!r}")
    return path


_int_list = _list_type("integer list", int)
_float_list = _list_type("float list", float)
_complex_list = _list_type("complex list", lambda part: complex(part.replace(" ", "")))


def _format_matrix(name: str, matrix: np.ndarray) -> str:
    body = np.array2string(np.asarray(matrix), precision=10, suppress_small=False)
    return f"{name} =\n{body}"


def read_config(path) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line is not 'key = value': {line!r}")
            key, _, value = line.partition("=")
            values[key.strip().replace("_", "-")] = value.strip()
    return values


def _add_rv_flags(parser):
    parser.add_argument("--r", type=float, default=CeLqrConfig.r, help="unstable entry of A")
    parser.add_argument("--v", type=float, default=CeLqrConfig.v, help="superdiagonal entry of A")


def _add_noise_flags(parser):
    parser.add_argument("--sigma-u2", type=float, default=CeLqrConfig.sigma_u2)
    parser.add_argument("--sigma-w2", type=float, default=CeLqrConfig.sigma_w2)


def _add_family_flags(parser, include_m=False, include_b1=False):
    parser.add_argument("--n", type=int, default=2, help="system dimension")
    _add_rv_flags(parser)
    if include_m:
        parser.add_argument("--m", type=float, default=0.1, help="first input coefficient of the sibling")
    if include_b1:
        parser.add_argument("--b1", type=float, default=0.0, help="first input coefficient")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardstab",
        description="Numerical laboratory for hard-to-stabilize linear system families",
        allow_abbrev=False,
    )
    parser.add_argument("--config", default=None, help="key = value defaults file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pair", help="print the sibling system matrices")
    _add_family_flags(p, include_m=True)

    p = sub.add_parser("simulate", help="simulate a trajectory and write CSV")
    _add_family_flags(p, include_b1=True)
    _add_noise_flags(p)
    p.add_argument("--horizon", type=int, default=100)
    p.add_argument("--policy", choices=["iid-gaussian", "zero", "impulse"], default="iid-gaussian")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--out", type=_output_path, default=None, help="trajectory CSV path")

    p = sub.add_parser("ackermann", help="pole-placement gain for the family")
    _add_family_flags(p, include_b1=True)
    p.add_argument("--poles", type=_complex_list, required=True, help="comma-separated closed-loop poles")

    p = sub.add_parser("jury", help="Jury necessary conditions for a polynomial")
    p.add_argument("--coeffs", type=_float_list, required=True, help="ascending coefficients c0,c1,...")

    p = sub.add_parser("costab-bound", help="pole-specific co-stabilizability ceiling")
    _add_family_flags(p)
    p.add_argument("--poles", type=_complex_list, required=True, help="comma-separated closed-loop poles")

    p = sub.add_parser("kl-bound", help="analytic trajectory KL upper bound")
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--m", type=float, required=True)
    _add_noise_flags(p)

    p = sub.add_parser("kl-mc", help="Monte-Carlo trajectory KL estimate")
    _add_family_flags(p, include_m=True)
    _add_noise_flags(p)
    p.add_argument("--horizon", type=int, default=50)
    p.add_argument("--trials", type=int, default=CeLqrConfig.trials)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", type=_output_path, default=None, help="append-style CSV path")

    p = sub.add_parser("birge", help="sample-complexity lower bound")
    _add_family_flags(p)
    p.add_argument("--delta", type=float, default=0.1)
    _add_noise_flags(p)

    p = sub.add_parser("lmi-bisect", help="largest co-stabilizable perturbation")
    _add_family_flags(p)
    p.add_argument("--tolerance", type=float, default=lmi.BISECTION_TOLERANCE)

    p = sub.add_parser("exp-ce-lqr", help="minimum-sample search experiment")
    p.add_argument("--n-values", type=_int_list, default=CeLqrConfig.n_values)
    _add_rv_flags(p)
    p.add_argument("--true-b1", type=float, default=CeLqrConfig.true_b1)
    _add_noise_flags(p)
    p.add_argument("--trials", type=int, default=CeLqrConfig.trials)
    p.add_argument(
        "--threshold", dest="success_threshold", metavar="THRESHOLD",
        type=float, default=CeLqrConfig.success_threshold,
    )
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", type=_output_path, default=None, help="result CSV path")

    p = sub.add_parser("exp-lmi-sweep", help="co-stabilizability sweep over dimensions")
    p.add_argument("--n-values", type=_int_list, default="2,3,4,5,6,7,8,9,10")
    _add_rv_flags(p)
    p.add_argument("--tolerance", type=float, default=lmi.BISECTION_TOLERANCE)
    p.add_argument("--out", type=_output_path, default=None, help="result CSV path")

    p = sub.add_parser("plot", help="render an SVG line chart from a CSV")
    p.add_argument("--csv", type=_input_path, required=True, help="input CSV path")
    p.add_argument("--x", required=True, help="x column name")
    p.add_argument("--y", required=True, help="y column name")
    p.add_argument("--svg", type=_output_path, required=True, help="output SVG path")

    return parser


def _apply_config(argv: list[str], parser: argparse.ArgumentParser) -> list[str]:
    """Inject config-file values as flags right after the subcommand so that
    explicit flags, parsed later, win.  ``--config PATH`` and
    ``--config=PATH`` are found by argparse, anywhere in ``argv``."""
    finder = argparse.ArgumentParser(prog="hardstab", add_help=False, allow_abbrev=False)
    finder.add_argument("--config")
    found, rest = finder.parse_known_args(argv)
    if found.config is None:
        return argv
    try:
        values = read_config(found.config)
    except OSError as error:
        parser.error(str(error))
    if not rest:
        return rest
    command = rest[0]
    sub_actions = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    known = set()
    if sub_actions and command in sub_actions[0].choices:
        known = set(sub_actions[0].choices[command]._option_string_actions)
    # --flag=value keeps a value that starts with "-" from reading as a flag
    injected = [f"--{key}={value}" for key, value in values.items() if f"--{key}" in known]
    return [command] + injected + rest[1:]


def main(argv=None) -> int:
    """Run one subcommand.  A value the library or the config reader rejects
    (a ValueError such as ParameterError or PoleSetError) ends like any bad
    flag: a usage message and exit status 2.  Numerical faults (the
    RuntimeError subclasses, and numpy's LinAlgError) keep their traceback."""
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        _run(parser.parse_args(_apply_config(argv, parser)))
    except np.linalg.LinAlgError:
        raise
    except ValueError as error:
        parser.error(str(error))
    return 0


def _params(args: argparse.Namespace) -> systems.HardFamilyParams:
    return systems.HardFamilyParams(n=args.n, r=args.r, v=args.v)


def _write(path, lines: list[str]) -> None:
    experiments.write_csv_lines(path, lines)
    print(f"wrote {path}")


def _emit(lines: list[str], out) -> None:
    """Print a CSV table and, given a path, write it there as well."""
    print(*lines, sep="\n")
    if out:
        _write(out, lines)


def _run(args: argparse.Namespace) -> None:
    if args.command == "pair":
        pair = systems.make_hard_pair(_params(args), args.m)
        print(_format_matrix("A", pair.s1.a))
        print(_format_matrix("B1", pair.s1.b.ravel()))
        print(_format_matrix("B2", pair.s2.b.ravel()))

    elif args.command == "simulate":
        sys_ = systems.hard_system(_params(args), args.b1, args.sigma_w2)
        if args.policy == "iid-gaussian":
            policy = systems.InputPolicy.iid_gaussian(args.sigma_u2)
        elif args.policy == "zero":
            policy = systems.InputPolicy.zero()
        else:
            policy = systems.InputPolicy.impulse(0, 1.0)
        traj = systems.simulate(sys_, policy, args.horizon, Prng(args.seed, args.stream))
        print(f"simulated {traj.horizon} steps; final state {traj.states[-1]}")
        if args.out:
            _write(args.out, systems.trajectory_csv_lines(traj))

    elif args.command == "ackermann":
        params = _params(args)
        sys_ = systems.hard_system(params, args.b1)
        gain = synthesis.ackermann_gain(sys_, args.poles)
        print(f"K = {gain}")
        report = synthesis.is_stabilizing(sys_, gain)
        print(f"closed-loop spectral radius = {report.spectral_radius:.12g}")
        if args.b1 == 0.0:
            print(f"k1 closed form = {synthesis.k1_closed_form(params, args.poles):.12g}")

    elif args.command == "jury":
        report = synthesis.jury_necessary(args.coeffs)
        print(f"Delta(1) = {report.at_one:.12g}")
        print(f"(-1)^n Delta(-1) = {report.signed_at_minus_one:.12g}")
        print("pass" if report.passed else "fail")

    elif args.command == "costab-bound":
        params = _params(args)
        print(f"bound = {synthesis.costab_bound(params, args.poles):.12g}")
        print(f"sup_bound = {params.sup_bound:.12g}")
        print(f"theorem_m = {params.theorem_m:.12g}")

    elif args.command == "kl-bound":
        value = bounds.kl_upper_bound(args.horizon, args.m, args.sigma_u2, args.sigma_w2)
        print(f"analytic bound = {value:.12g} nats")

    elif args.command == "kl-mc":
        pair = systems.make_hard_pair(_params(args), args.m, noise_variance=args.sigma_w2)
        policy = systems.InputPolicy.iid_gaussian(args.sigma_u2)
        report = bounds.kl_monte_carlo(
            pair, policy, args.horizon, args.trials, Prng(args.seed)
        )
        print(f"analytic bound = {report.analytic_bound:.12g} nats")
        print(f"mc estimate    = {report.mc_estimate:.12g} +- {report.mc_std_error:.3g} nats")
        if args.out:
            _write(args.out, [report.CSV_HEADER, report.csv_row()])

    elif args.command == "birge":
        params = _params(args)
        threshold = bounds.birge_kl_threshold(args.delta)
        min_samples = bounds.birge_min_samples(params, args.delta, args.sigma_u2, args.sigma_w2)
        print(f"exact KL threshold   = {threshold.exact:.12g} nats")
        print(f"relaxed KL threshold = {threshold.relaxed:.12g} nats")
        print(f"minimum samples      = {min_samples:.12g}")
        print(f"theorem m            = {params.theorem_m:.12g}")

    elif args.command == "lmi-bisect":
        params = _params(args)
        result = lmi.bisect_largest_m(params, tolerance=args.tolerance)
        print(f"largest feasible m = {result.largest_feasible_m:.12g}")
        print(f"bracket = [{result.bracket[0]:.12g}, {result.bracket[1]:.12g}]")
        print(f"sup bound = {params.sup_bound:.12g}, theorem m = {params.theorem_m:.12g}")
        print(f"iterations = {result.iterations}")
        print(f"status = {result.status}")
        if result.certificate is not None:
            print(f"certificate margin = {result.certificate.margin:.6g}")

    elif args.command == "exp-ce-lqr":
        fields = {field.name for field in dataclasses.fields(CeLqrConfig)}
        config = CeLqrConfig(**{key: value for key, value in vars(args).items() if key in fields})
        _emit(experiments.run_ce_lqr(config).csv_lines(), args.out)

    elif args.command == "exp-lmi-sweep":
        rows = experiments.run_lmi_sweep(args.n_values, args.r, args.v, args.tolerance)
        _emit(experiments.lmi_sweep_csv_lines(rows), args.out)

    elif args.command == "plot":
        path = plotting.render_plot(args.csv, args.x, args.y, args.svg)
        print(f"wrote {path}")


if __name__ == "__main__":
    raise SystemExit(main())
