import re

import numpy as np
import pytest

from hardstab import cli
from hardstab.cli import main, read_config
from hardstab.lmi import BisectionError
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

    def test_read_config_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("not a key value line\n")
        with pytest.raises(ValueError):
            read_config(bad)


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["birge", "--n", "2", "--sigma-u2", "nan"], "sigma_u2 and sigma_w2 must be positive"),
            (["pair", "--n", "1"], "dimension must be >= 2, got 1"),
            (["exp-ce-lqr", "--threshold", "0"], "success threshold must lie in (0, 1]"),
        ],
    )
    def test_rejected_value_exits_with_usage_message(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert f"hardstab: error: {message}" in capsys.readouterr().err

    def test_config_line_without_equals_exits_with_usage_message(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("n 3\n")
        with pytest.raises(SystemExit) as exit_info:
            main(["--config", str(config), "pair"])
        assert exit_info.value.code == 2
        assert "hardstab: error: config line is not 'key = value'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fault", [BisectionError("non-monotone"), np.linalg.LinAlgError("singular")]
    )
    def test_numerical_fault_keeps_its_traceback(self, monkeypatch, fault):
        def failing(params, tolerance):
            raise fault

        monkeypatch.setattr(cli.lmi, "bisect_largest_m", failing)
        with pytest.raises(type(fault)):
            main(["lmi-bisect", "--n", "2"])


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
        with pytest.raises(NamedColumnError):
            render_plot(csv_path, "a", "missing", svg_path)
        assert not svg_path.exists()

    def test_empty_rows_error(self, tmp_path):
        csv_path = self.make_csv(tmp_path, [])
        svg_path = tmp_path / "plot.svg"
        with pytest.raises(ValueError):
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
