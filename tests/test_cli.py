import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hardstab import cli, experiments, systems
from hardstab.cli import main, read_config
from hardstab.lmi import InfeasibleReport
from hardstab.numerics import DareError
from hardstab.plotting import NamedColumnError, render_plot


def run_cli(capsys, *argv):
    code = main(list(argv))
    assert code == 0
    return capsys.readouterr().out


class TestSubcommands:
    def test_pair(self, capsys):
        out = run_cli(capsys, "pair", "--n", "2", "--m", "0.1")
        assert "3.2" in out and "1.01" in out and "0.1" in out

    def test_ackermann_reports_closed_form(self, capsys):
        out = run_cli(capsys, "ackermann", "--n", "2", "--poles", "0,0")
        assert "k1 closed form" in out
        match = re.search(r"k1 closed form = (-?\d+\.\d+)", out)
        assert float(match.group(1)) == pytest.approx(-10.0382, abs=1e-3)

    def test_jury(self, capsys):
        out = run_cli(capsys, "jury", "--coeffs=-0.5,0,1")
        assert "pass" in out

    def test_costab_bound(self, capsys):
        out = run_cli(capsys, "costab-bound", "--n", "2", "--poles", "0,0")
        assert "0.0996" in out

    def test_kl_bound(self, capsys):
        out = run_cli(capsys, "kl-bound", "--horizon", "100", "--m", "0.1")
        assert "3200" in out

    def test_birge(self, capsys):
        out = run_cli(capsys, "birge", "--n", "2", "--delta", "0.1")
        assert "1.75778" in out or "1.7577" in out

    def test_kl_mc_csv(self, capsys, tmp_path):
        path = tmp_path / "kl.csv"
        out = run_cli(
            capsys,
            "kl-mc",
            "--n", "2", "--m", "0.01", "--horizon", "10",
            "--trials", "200", "--seed", "3", "--out", str(path),
        )
        assert path.exists()
        header = path.read_text().splitlines()[0]
        assert header == "horizon,m,sigma_u2,sigma_w2,analytic,mc,mc_se,trials,seed"

    def test_simulate_writes_trajectory(self, capsys, tmp_path):
        path = tmp_path / "traj.csv"
        run_cli(
            capsys,
            "simulate",
            "--n", "2", "--horizon", "20", "--seed", "9", "--out", str(path),
        )
        lines = path.read_text().splitlines()
        assert lines[0] == "t,u,x1,x2"
        assert len(lines) == 22

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--n", "2", "--horizon", "5"],
            ["kl-mc", "--n", "2", "--trials", "100", "--horizon", "5"],
            ["exp-ce-lqr", "--n-values", "2", "--trials", "20"],
            ["exp-lmi-sweep", "--n-values", "2"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_written_csv_has_lf_line_endings(self, capsys, tmp_path, argv):
        path = tmp_path / "out.csv"
        run_cli(capsys, *argv, "--out", str(path))
        data = path.read_bytes()
        assert b"\r" not in data and data.endswith(b"\n")

    def test_exp_ce_lqr_determinism(self, capsys, tmp_path):
        argv = [
            "exp-ce-lqr",
            "--n-values", "2,3",
            "--trials", "50",
            "--seed", "17",
        ]
        out1 = run_cli(capsys, *argv)
        out2 = run_cli(capsys, *argv)

        def strip_wall(text):
            return [",".join(line.split(",")[:-1]) for line in text.splitlines() if "," in line]

        assert strip_wall(out1) == strip_wall(out2)

    @pytest.mark.parametrize("policy", ["zero", "impulse"])
    def test_simulate_open_loop_policies(self, capsys, tmp_path, policy):
        # without noise the zero policy stays at rest, and the unit impulse
        # at t = 0 gives x1 = B, then x2 = A B
        path = tmp_path / "traj.csv"
        argv = ["simulate", "--n", "3", "--b1", "0.5", "--sigma-w2", "0", "--horizon", "4"]
        run_cli(capsys, *argv, "--policy", policy, "--out", str(path))
        rows = [line.split(",") for line in path.read_text().splitlines()]
        assert rows[0] == ["t", "u", "x1", "x2", "x3"]
        states = np.array([[float(x) for x in row[2:]] for row in rows[1:]])
        sys_ = systems.hard_system(systems.HardFamilyParams(n=3, r=3.2, v=1.01), 0.5)
        if policy == "zero":
            np.testing.assert_array_equal(states, np.zeros((5, 3)))
        else:
            assert rows[1][1] == "1"
            np.testing.assert_array_equal(states[0], np.zeros(3))
            np.testing.assert_array_equal(states[1], sys_.b.ravel())
            np.testing.assert_array_equal(states[2], (sys_.a @ sys_.b).ravel())

    def test_lmi_bisect_reports_status(self, capsys, monkeypatch):
        # the words of the exp-lmi-sweep status column
        assert "status = ok\n" in run_cli(capsys, "lmi-bisect", "--n", "2")
        check = cli.lmi.check_feasible

        def inconclusive_above_zero(pair, *args, **kwargs):
            if pair.m == 0:
                return check(pair, *args, **kwargs)
            return InfeasibleReport(best_margin=-1.0, status="inconclusive")

        monkeypatch.setattr(cli.lmi, "check_feasible", inconclusive_above_zero)
        assert "status = conservative\n" in run_cli(capsys, "lmi-bisect", "--n", "2")
        # far below float resolution at m = 0 the probe cap stops it first
        capped = run_cli(capsys, "lmi-bisect", "--n", "2", "--tolerance", "1e-300")
        assert "status = unconverged\n" in capped

    def test_uncertified_zero_is_a_sweep_status(self, capsys, monkeypatch):
        # no certificate even at m = 0: the row says so instead of raising
        def inconclusive(pair, *args, **kwargs):
            return InfeasibleReport(best_margin=-1.0, status="inconclusive")

        monkeypatch.setattr(cli.lmi, "check_feasible", inconclusive)
        assert "status = uncertified\n" in run_cli(capsys, "lmi-bisect", "--n", "2")
        out = run_cli(capsys, "exp-lmi-sweep", "--n-values", "2")
        assert out.splitlines()[1].endswith(",0,-inf,0.84305785123966925,0,uncertified")

    def test_config_file_defaults_and_flag_override(self, capsys, tmp_path):
        config = tmp_path / "lab.cfg"
        config.write_text("n = 3\nr = 3.2\nv = 1.01\n")
        out = run_cli(capsys, "--config", str(config), "pair", "--m", "0.0")
        # config n=3 applies
        assert out.count("0.  ") > 0 or "0." in out
        out_override = run_cli(
            capsys, "--config", str(config), "pair", "--n", "2", "--m", "0.0"
        )
        assert "[[3.2  1.01]" in out_override

    @pytest.mark.parametrize("config_first", [True, False])
    def test_config_equals_form_applies_the_file(self, capsys, tmp_path, config_first):
        config = tmp_path / "lab.cfg"
        config.write_text("n = 3\n")
        flag = f"--config={config}"
        out = run_cli(capsys, *([flag, "pair"] if config_first else ["pair", flag]))
        assert "[[3.2  1.01 0.  ]" in out

    def test_config_value_may_start_with_a_minus(self, capsys, tmp_path):
        config = tmp_path / "jury.cfg"
        config.write_text("coeffs = -0.5,0,1\n")
        assert "pass" in run_cli(capsys, "--config", str(config), "jury")

    def test_read_config_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("not a key value line\n")
        with pytest.raises(ValueError):
            read_config(bad)


# Wall-time-free tables at fixed seeds, pinned byte for byte
GOLDEN_TABLES = {
    "ce-lqr-seed-20240814": (
        ["exp-ce-lqr", "--n-values", "2,3,4,5,6", "--seed", "20240814"],
        [
            "n,min_N,rate_at_min_N,synthesis_failures,status",
            "2,1,0.94999999999999996,0,ok",
            "3,2,0.94499999999999995,0,ok",
            "4,6,0.90500000000000003,0,ok",
            "5,52,0.90000000000000002,0,ok",
            "6,381,0.90000000000000002,0,ok",
        ],
    ),
    "ce-lqr-seed-7": (
        ["exp-ce-lqr", "--n-values", "2,3,4,5,6", "--seed", "7"],
        [
            "n,min_N,rate_at_min_N,synthesis_failures,status",
            "2,1,0.93000000000000005,0,ok",
            "3,2,0.93500000000000005,0,ok",
            "4,7,0.93999999999999995,0,ok",
            "5,43,0.91500000000000004,0,ok",
            "6,490,0.90500000000000003,0,ok",
        ],
    ),
    "lmi-sweep-v-1.01": (
        ["exp-lmi-sweep", "--n-values", "2,3,4", "--v", "1.01"],
        [
            "n,r,v,largest_m,log10_largest_m,sup_bound,iterations,status",
            "2,3.2000000000000002,1.01,0.28965623579545452,-0.53811711745871016,"
            "0.84305785123966925,3,ok",
            "3,3.2000000000000002,1.01,0.091422749422940333,-1.0389457219959735,"
            "0.77408039068369627,3,ok",
            "4,3.2000000000000002,1.01,0.028855305286615538,-1.5397743265332371,"
            "0.71074654053684827,3,ok",
        ],
    ),
}


@pytest.mark.parametrize("table", GOLDEN_TABLES)
def test_golden_table(capsys, table):
    argv, expected = GOLDEN_TABLES[table]
    lines = run_cli(capsys, *argv).splitlines()
    if argv[0] == "exp-ce-lqr":
        lines = [line.rsplit(",", 1)[0] for line in lines]  # drop wall_time_s
    assert lines == expected


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["birge", "--n", "2", "--sigma-u2", "nan"], "sigma_u2 and sigma_w2 must be positive"),
            (["pair", "--n", "1"], "dimension must be >= 2, got 1"),
            (["exp-ce-lqr", "--threshold", "0"], "success threshold must lie in (0, 1]"),
            (["--config"], "argument --config: expected one argument"),
            (["pair", "--config"], "argument --config: expected one argument"),
            (["--conf", "lab.cfg", "pair"], "argument command: invalid choice: 'lab.cfg'"),
            # a non-finite value would otherwise end in a wrong "ok" or
            # "saturated" row
            (["lmi-bisect", "--n", "2", "--tolerance", "nan"], "tolerance must be positive and finite"),
            (
                ["exp-lmi-sweep", "--n-values", "2,3", "--tolerance", "inf"],
                "tolerance must be positive and finite",
            ),
            (["exp-ce-lqr", "--sigma-u2", "inf"], "sigma_u2 must be positive and finite"),
            (["exp-ce-lqr", "--sigma-w2", "inf"], "sigma_w2 must be nonnegative and finite"),
            # an infinite variance would otherwise print a NaN estimate or
            # end in a DivergedTrajectoryError traceback
            (["kl-mc", "--sigma-w2", "inf"], "noise variance must be nonnegative and finite"),
            (["kl-mc", "--sigma-u2", "inf"], "sigma_u2 must be nonnegative and finite"),
            (["simulate", "--sigma-w2", "inf"], "noise variance must be nonnegative and finite"),
            (["simulate", "--sigma-u2", "inf"], "sigma_u2 must be nonnegative and finite"),
            (["kl-bound", "--horizon", "10", "--m", "nan"], "m must be finite, got nan"),
            # an infinite variance would otherwise print a bound of 0 or inf
            (
                ["kl-bound", "--horizon", "10", "--m", "0.1", "--sigma-w2", "inf"],
                "sigma_w2 must be positive and finite for the KL bound",
            ),
            (
                ["kl-bound", "--horizon", "10", "--m", "0.1", "--sigma-u2", "inf"],
                "sigma_u2 must be nonnegative and finite",
            ),
            # an infinite variance would otherwise print a bound of 0 or inf
            (
                ["birge", "--n", "2", "--sigma-u2", "inf"],
                "sigma_u2 and sigma_w2 must be positive and finite",
            ),
            (
                ["birge", "--n", "2", "--sigma-w2", "inf"],
                "sigma_u2 and sigma_w2 must be positive and finite",
            ),
            (["birge", "--n", "2", "--delta", "0.6"], "delta must lie in (0, 1/2), got 0.6"),
            # an infinite r would otherwise print a bound of inf or 0
            (["birge", "--n", "2", "--r", "inf"], "r must be finite and exceed 1, got inf"),
            (
                ["costab-bound", "--n", "2", "--r", "inf", "--poles", "0.3,0.3"],
                "r must be finite and exceed 1, got inf",
            ),
            (["birge", "--n", "2", "--r", "nan"], "r must be finite and exceed 1, got nan"),
            (
                ["exp-ce-lqr", "--n-values", "2", "--true-b1", "inf"],
                "b1 must be nonnegative and finite, got inf",
            ),
            (
                ["exp-ce-lqr", "--n-values", "2", "--true-b1", "nan"],
                "b1 must be nonnegative and finite, got nan",
            ),
            # simulate and ackermann check the family like every other command
            # (n = 0 would otherwise end in an IndexError traceback, and n = 1
            # simulate a system whose b1 entry was overwritten with v)
            (["simulate", "--n", "0"], "dimension must be >= 2, got 0"),
            (["ackermann", "--n", "0", "--poles", "0"], "dimension must be >= 2, got 0"),
            (["simulate", "--n", "1", "--horizon", "3"], "dimension must be >= 2, got 1"),
            (["simulate", "--v", "5"], "v must lie in (0, (r-1)/2)"),
            (["simulate", "--b1", "-1"], "b1 must be nonnegative and finite, got -1.0"),
            (["pair", "--m", "inf"], "perturbation m must be nonnegative and finite, got inf"),
            (["pair", "--m", "nan"], "perturbation m must be nonnegative and finite, got nan"),
            (["kl-mc", "--m", "nan"], "perturbation m must be nonnegative and finite, got nan"),
            # a non-finite coefficient would otherwise print "pass" or NaN
            # quantities, and a non-finite pole a bound of nan or a
            # LinAlgError traceback
            (["jury", "--coeffs", "0.5,inf"], "coefficients must be finite, got [0.5, inf]"),
            (["jury", "--coeffs", "1,nan"], "coefficients must be finite, got [1.0, nan]"),
            (["costab-bound", "--n", "2", "--poles", "nan,0"], "poles must be finite, got (nan+0j)"),
            (["ackermann", "--n", "2", "--poles", "nan,0"], "poles must be finite, got (nan+0j)"),
            (["ackermann", "--n", "2", "--poles", "inf,0"], "poles must be finite, got (inf+0j)"),
            # one pole short of the dimension
            (["costab-bound", "--n", "3", "--poles", "0.1,0.2"], "need 3 poles, got 2"),
        ],
    )
    def test_rejected_value_exits_with_usage_message(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert f"hardstab: error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, row_runner",
        [
            (["exp-lmi-sweep", "--n-values", "10,1"], "bisect_largest_m"),
            (["exp-ce-lqr", "--n-values", "8,1"], "_run_ce_lqr_single"),
        ],
    )
    def test_bad_dimension_exits_before_the_first_row(self, capsys, monkeypatch, argv, row_runner):
        # every row's family is checked first, so a bad n late in the list
        # costs no row's work
        calls = []
        monkeypatch.setattr(experiments, row_runner, lambda *args, **kwargs: calls.append(args))
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "hardstab: error: dimension must be >= 2, got 1" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["exp-lmi-sweep", "--n-values", "2,x"],
                "argument --n-values: invalid integer list value: '2,x'",
            ),
            (
                ["ackermann", "--n", "2", "--poles", "0,q"],
                "argument --poles: invalid complex list value: '0,q'",
            ),
        ],
    )
    def test_malformed_list_names_its_flag(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert f"hardstab {argv[0]}: error: {message}" in capsys.readouterr().err

    def test_unreadable_config_exits_with_usage_message(self, capsys, tmp_path):
        missing = tmp_path / "missing.cfg"
        with pytest.raises(SystemExit) as exit_info:
            main(["--config", str(missing), "pair"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "hardstab: error:" in err and str(missing) in err

    def test_config_line_without_equals_exits_with_usage_message(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("n 3\n")
        with pytest.raises(SystemExit) as exit_info:
            main(["--config", str(config), "pair"])
        assert exit_info.value.code == 2
        assert "hardstab: error: config line is not 'key = value'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--horizon", "2", "--out"],
            ["kl-mc", "--trials", "10", "--out"],
            ["exp-ce-lqr", "--n-values", "2", "--out"],
            ["exp-lmi-sweep", "--n-values", "2", "--out"],
            ["plot", "--csv", "data.csv", "--x", "n", "--y", "m", "--svg"],
        ],
    )
    def test_output_in_missing_directory_fails_before_any_work(
        self, capsys, monkeypatch, tmp_path, argv
    ):
        monkeypatch.setattr(cli, "_run", lambda args: pytest.fail("the command ran"))
        monkeypatch.chdir(tmp_path)
        (tmp_path / "data.csv").write_text("n,m\n2,0.1\n")  # plot's input exists
        missing = tmp_path / "missing"
        with pytest.raises(SystemExit) as exit_info:
            main(argv + [str(missing / "table.csv")])
        assert exit_info.value.code == 2
        assert (
            f"hardstab {argv[0]}: error: argument {argv[-1]}: "
            f"directory {str(missing)!r} does not exist"
        ) in capsys.readouterr().err

    def test_output_path_that_is_a_directory_is_a_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", "--horizon", "2", "--out", str(tmp_path)])
        assert exit_info.value.code == 2
        assert f"argument --out: {str(tmp_path)!r} is a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("exists", [False, True])
    def test_unwritable_output_is_a_usage_error(self, capsys, monkeypatch, tmp_path, exists):
        path = tmp_path / "sweep.csv"
        if exists:
            path.write_text("kept\n")
        monkeypatch.setattr(cli.os, "access", lambda target, mode: False)
        with pytest.raises(SystemExit) as exit_info:
            main(["exp-lmi-sweep", "--n-values", "2", "--out", str(path)])
        assert exit_info.value.code == 2
        assert f"argument --out: cannot write {str(path)!r}" in capsys.readouterr().err
        assert path.exists() == exists

    @pytest.mark.parametrize("kind", ["missing", "directory", "unreadable"])
    def test_plot_input_is_checked_before_any_work(self, capsys, monkeypatch, tmp_path, kind):
        monkeypatch.setattr(cli, "_run", lambda args: pytest.fail("the command ran"))
        path = tmp_path / "data.csv"
        if kind == "directory":
            path.mkdir()
        elif kind == "unreadable":
            path.write_text("n,m\n2,0.1\n")
            monkeypatch.setattr(cli.os, "access", lambda target, mode: False)
        argv = ["plot", "--csv", str(path), "--x", "n", "--y", "m"]
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--svg", str(tmp_path / "out.svg")])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"hardstab plot: error: argument --csv: cannot read {str(path)!r}" in err
        assert not (tmp_path / "out.svg").exists()

    @pytest.mark.parametrize(
        "fault", [DareError("stalled"), np.linalg.LinAlgError("singular")]
    )
    def test_numerical_fault_keeps_its_traceback(self, monkeypatch, fault):
        def failing(params, tolerance):
            raise fault

        monkeypatch.setattr(cli.lmi, "bisect_largest_m", failing)
        with pytest.raises(type(fault)):
            main(["lmi-bisect", "--n", "2"])


def test_readme_cli_examples_parse(monkeypatch, tmp_path):
    """Every ``hardstab ...`` line of README's CLI block parses with today's
    flags, and the block shows every subcommand.  Paths are checked at parse
    time, relative to a fresh working directory; each example's output file
    is created after it parses, since a later example may read it."""
    monkeypatch.chdir(tmp_path)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    examples = [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("hardstab ")
    ]
    parser = cli.build_parser()
    for argv in examples:
        args = parser.parse_args(argv)
        for written in (getattr(args, "out", None), getattr(args, "svg", None)):
            if written:
                Path(written).touch()
    subcommands = next(a for a in parser._actions if a.dest == "command").choices
    assert {argv[0] for argv in examples} == set(subcommands)


def test_import_starts_no_process_machinery():
    """Importing the package, its CLI and its plotting loads none of
    multiprocessing, concurrent.futures or subprocess: every CLI call pays
    its imports, and these three cost tens of milliseconds.
    kl_monte_carlo's workers use os.fork and os.pipe, which import nothing."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); "
        "import hardstab, hardstab.cli, hardstab.plotting; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('multiprocessing', 'concurrent', 'subprocess')))"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_importing_a_module_loads_only_what_it_uses():
    """The package root re-exports nothing, so importing hardstab.numerics
    loads no other hardstab module."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); "
        "import hardstab.numerics; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'hardstab'))"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "['hardstab', 'hardstab.numerics']"


class TestPlot:
    def make_csv(self, tmp_path, rows):
        path = tmp_path / "data.csv"
        path.write_text("\n".join(["a,b"] + rows) + "\n")
        return path

    def test_two_point_polyline(self, tmp_path):
        csv_path = self.make_csv(tmp_path, ["1,2", "3,4"])
        svg_path = tmp_path / "plot.svg"
        render_plot(csv_path, "a", "b", svg_path)
        svg = svg_path.read_text()
        assert svg.count("<polyline") == 1
        points = re.search(r'points="([^"]+)"', svg).group(1)
        assert len(points.split(" ")) == 2

    def test_missing_column(self, tmp_path):
        csv_path = self.make_csv(tmp_path, ["1,2"])
        svg_path = tmp_path / "plot.svg"
        for x, y in (("a", "missing"), ("missing", "b")):
            with pytest.raises(NamedColumnError, match="column 'missing' not found"):
                render_plot(csv_path, x, y, svg_path)
        assert not svg_path.exists()

    def test_plot_command_renders_a_sweep_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        sweep = ["exp-lmi-sweep", "--n-values", "2,3", "--tolerance", "1e-2"]
        run_cli(capsys, *sweep, "--out", str(csv_path))
        svg_path = tmp_path / "sweep.svg"
        argv = ["plot", "--csv", str(csv_path), "--x", "n", "--y", "log10_largest_m"]
        out = run_cli(capsys, *argv, "--svg", str(svg_path))
        assert out == f"wrote {svg_path}\n"
        reference = tmp_path / "reference.svg"
        render_plot(csv_path, "n", "log10_largest_m", reference)
        assert svg_path.read_bytes() == reference.read_bytes()

    def test_empty_rows_error(self, tmp_path):
        csv_path = self.make_csv(tmp_path, [])
        svg_path = tmp_path / "plot.svg"
        with pytest.raises(ValueError):
            render_plot(csv_path, "a", "b", svg_path)
        assert not svg_path.exists()

    def test_non_finite_rows_are_skipped(self, tmp_path):
        # a sweep row with largest m = 0 has log10_largest_m = -inf
        csv_path = self.make_csv(tmp_path, ["2,-inf", "3,1", "4,nan", "5,2", "inf,3"])
        svg_path = tmp_path / "plot.svg"
        render_plot(csv_path, "a", "b", svg_path)
        svg = svg_path.read_text()
        points = re.search(r'points="([^"]+)"', svg).group(1)
        assert len(points.split(" ")) == 2
        assert "nan" not in svg and "inf" not in svg
        finite = tmp_path / "finite.svg"
        render_plot(self.make_csv(tmp_path, ["3,1", "5,2"]), "a", "b", finite)
        assert finite.read_bytes() == svg_path.read_bytes()

    def test_only_non_finite_rows_error(self, tmp_path):
        csv_path = self.make_csv(tmp_path, ["2,-inf", "3,nan"])
        svg_path = tmp_path / "plot.svg"
        with pytest.raises(ValueError, match="no plottable data rows"):
            render_plot(csv_path, "a", "b", svg_path)
        assert not svg_path.exists()

    def test_deterministic_bytes(self, tmp_path):
        csv_path = self.make_csv(tmp_path, ["1,5", "2,3", "3,8"])
        first = tmp_path / "one.svg"
        second = tmp_path / "two.svg"
        render_plot(csv_path, "a", "b", first)
        render_plot(csv_path, "a", "b", second)
        assert first.read_bytes() == second.read_bytes()

    def test_monotone_decreasing_series_renders_decreasing_pixels(self, tmp_path):
        csv_path = self.make_csv(
            tmp_path, [f"{n},{y}" for n, y in zip(range(2, 7), [5, 4, 3, 2, 1])]
        )
        svg_path = tmp_path / "trend.svg"
        render_plot(csv_path, "a", "b", svg_path)
        points = re.search(r'points="([^"]+)"', svg_path.read_text()).group(1)
        ys = [float(pair.split(",")[1]) for pair in points.split(" ")]
        assert ys == sorted(ys)  # SVG y grows downward
