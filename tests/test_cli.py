from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from bhhpm.cli import main

#: A steep, fast front: 1 + tanh(kappa*phi) is 0 to 30 digits at every
#: default grid point, where the wave's logistic form keeps its digits.
STEEP_BETA = Fraction(1000000007, 8)

DATA = Path(__file__).parent / "data"


@pytest.fixture()
def runner():
    return CliRunner()


class TestRun:
    def test_preset_csv_to_stdout(self, runner):
        result = runner.invoke(main, ["run", "--case", "1", "--format", "csv"])
        assert result.exit_code == 0
        assert "t,m,x,percent_relative_error" in result.output
        assert "0.1,1,1,1.693168743e-2" in result.output
        assert "max relative error over grid" in result.output

    def test_preset_markdown(self, runner):
        result = runner.invoke(main, ["run", "--case", "2"])
        assert result.exit_code == 0
        assert result.output.count("| 0.1 | S") == 4

    def test_config_file_with_output(self, runner, tmp_path):
        config = tmp_path / "run.conf"
        out = tmp_path / "table.csv"
        config.write_text(
            f"case = case1\norders = 3\nreport_orders = 1, 2\n"
            f"format = csv\nout = {out}\n"
        )
        result = runner.invoke(main, ["run", "--config", str(config)])
        assert result.exit_code == 0
        assert out.read_text().startswith("t,m,x,")
        plot = tmp_path / "table.csv.plot.csv"
        assert plot.read_text().startswith("m,max_percent_relative_error")

    def test_cli_orders_override(self, runner):
        result = runner.invoke(main, ["run", "--case", "1", "--orders", "2", "--format", "csv"])
        assert result.exit_code == 0
        assert "0.1,3,1," in result.output      # fallback layout 1..3
        assert ",6," not in result.output

    def test_config_and_case_conflict(self, runner, tmp_path):
        config = tmp_path / "c.conf"
        config.write_text("case = case1\n")
        result = runner.invoke(main, ["run", "--config", str(config), "--case", "2"])
        assert result.exit_code == 2

    def test_requires_some_problem(self, runner):
        result = runner.invoke(main, ["run"])
        assert result.exit_code == 2
        assert "configuration error" in result.output

    def test_bad_config_exits_2(self, runner, tmp_path):
        config = tmp_path / "bad.conf"
        config.write_text("alpha = 1/0\n")
        result = runner.invoke(main, ["run", "--config", str(config)])
        assert result.exit_code == 2
        assert "line 1" in result.output

    def test_uncertifiable_radicand_exits_2(self, runner, tmp_path):
        config = tmp_path / "steep.conf"
        config.write_text("alpha = 0\nbeta = 1000036000099/8\ngamma = 1\n")
        result = runner.invoke(main, ["run", "--config", str(config)])
        assert result.exit_code == 2
        assert result.output.startswith("configuration error: ")
        assert "cannot certify square-free part of 1000036000099" in result.output
        assert result.output.count("\n") == 1

    def test_steep_front_has_defined_cells(self, runner, tmp_path):
        config = tmp_path / "steep.conf"
        config.write_text(f"alpha = 0\nbeta = {STEEP_BETA}\ngamma = 1\n")
        result = runner.invoke(main, ["run", "--config", str(config)])
        assert result.exit_code == 0
        # t = 2/5 lies far past the t-radius of convergence at x = 1
        assert result.stderr.count("\n") == 1
        assert result.stderr.startswith("warning: t = 2/5 is 3.16e+3 times the t-radius")
        assert "undefined" not in result.stdout
        assert "max relative error over grid" in result.stdout

    @pytest.mark.parametrize("cid", [1, 2, 3])
    def test_paper_grid_inside_radius_of_convergence(self, runner, cid):
        # the paper's t <= 0.4 stays inside R(x): R(3) = 2.54 for case 3
        result = runner.invoke(main, ["run", "--case", str(cid)])
        assert result.exit_code == 0
        assert result.stderr == ""

    def test_unknown_flag_exits_2(self, runner):
        result = runner.invoke(main, ["run", "--nope"])
        assert result.exit_code == 2


class TestGolden:
    def test_reference_comparison_reports_noise_floor(self, runner):
        # cells at the reference data's precision floor fail the strict rule
        result = runner.invoke(main, ["golden", "--case", "3"])
        assert result.exit_code == 1
        assert "case 3: FAIL (32/36 cells)" in result.output
        assert "worst cell" in result.output

    def test_insufficient_orders_is_usage_error(self, runner):
        result = runner.invoke(main, ["golden", "--case", "1", "--orders", "2"])
        assert result.exit_code == 2
        assert result.output.startswith("configuration error: golden needs --orders >= 5")
        assert result.output.count("\n") == 1


class TestTerms:
    def test_prints_series(self, runner):
        result = runner.invoke(main, ["terms", "--case", "1"])
        assert result.exit_code == 0
        assert "kappa = 1/4*sqrt(2)" in result.output
        assert "v_0 = (E^2)/(E^2 + 1)" in result.output
        assert "v_1 = (-1/2*E^2)/(E^4 + 2*E^2 + 1) * t" in result.output
        assert "v_3" in result.output

    def test_case_required(self, runner):
        result = runner.invoke(main, ["terms"])
        assert result.exit_code == 2


class TestTaylorCheck:
    def test_single_case_passes(self, runner):
        result = runner.invoke(main, ["taylor-check", "--case", "1", "--orders", "4"])
        assert result.exit_code == 0
        assert "case 1" in result.output and "PASS" in result.output


class TestOutputFixtures:
    """Stdout and exit code of whole commands, pinned line for line."""

    @pytest.mark.parametrize(
        "args,fixture,exit_code",
        [(["golden"], "golden.txt", 1)]
        + [(["run", "--case", str(c), "--format", "csv"], f"run_case{c}.csv", 0)
           for c in (1, 2, 3)],
        ids=["golden", "run-case1", "run-case2", "run-case3"],
    )
    def test_stdout_matches_fixture(self, runner, monkeypatch, args, fixture, exit_code):
        monkeypatch.delenv("HPM_PRECISION", raising=False)
        result = runner.invoke(main, args)
        assert result.exit_code == exit_code
        expected = (DATA / fixture).read_text(encoding="utf-8").splitlines()
        assert result.stdout.splitlines() == expected


class TestPrecisionEnv:
    def test_env_override_accepted(self, runner, monkeypatch):
        monkeypatch.setenv("HPM_PRECISION", "35")
        result = runner.invoke(main, ["run", "--case", "1", "--orders", "1", "--format", "csv"])
        assert result.exit_code == 0

    def test_env_override_validated(self, runner, monkeypatch):
        monkeypatch.setenv("HPM_PRECISION", "ten")
        result = runner.invoke(main, ["run", "--case", "1"])
        assert result.exit_code == 2
        assert "HPM_PRECISION" in result.output


def _rationals(low, high, denominator=4):
    return st.fractions(min_value=low, max_value=high, max_denominator=denominator)


@st.composite
def run_configs(draw) -> str:
    """Small random explicit configs, including the steep front's beta."""
    values = {
        "alpha": draw(_rationals(-3, 3)),
        "beta": draw(st.one_of(_rationals(0, 3), st.just(STEEP_BETA))),
        "gamma": draw(_rationals(-2, 3)),
        "n": draw(st.sampled_from([1, 2])),
        "branch": draw(st.sampled_from(["upper", "lower"])),
        "orders": draw(st.integers(1, 3)),
        "grid_x": ", ".join(str(x) for x in draw(
            st.lists(_rationals(-3, 3), min_size=1, max_size=3, unique=True))),
        "grid_t": str(draw(_rationals(0, Fraction(2, 5), 10))),
    }
    if draw(st.booleans()):
        values["report_orders"] = ", ".join(str(m) for m in draw(
            st.lists(st.integers(1, values["orders"] + 1), min_size=1, max_size=3, unique=True)))
    return "".join(f"{key} = {value}\n" for key, value in values.items())


@st.composite
def commands(draw) -> list[str]:
    """``run --case``, ``golden``, ``terms`` or ``taylor-check``, each with
    options drawn from its own."""
    name = draw(st.sampled_from(["run", "golden", "terms", "taylor-check"]))
    args = [name]
    if name in ("run", "terms") or draw(st.booleans()):
        args += ["--case", str(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        args += ["--orders", str(draw(st.integers(1, 8)))]
    if name != "terms" and draw(st.booleans()):
        args += ["--precision", str(draw(st.integers(30, 40)))]
    if name == "golden" and draw(st.booleans()):
        args.append("--verbose")
    if name == "run" and draw(st.booleans()):
        args += ["--format", draw(st.sampled_from(["csv", "md"]))]
    return args


@st.composite
def overrides(draw) -> list[str]:
    """Optional --orders and --precision options next to a config."""
    args = []
    if draw(st.booleans()):
        args += ["--orders", str(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        args += ["--precision", str(draw(st.integers(30, 40)))]
    return args


class TestExitCodes:
    @settings(max_examples=30, deadline=None)
    @given(text=run_configs(), args=overrides())
    def test_any_config_exits_0_1_or_2_with_one_line(self, text, args):
        runner = CliRunner()
        with runner.isolated_filesystem():
            with open("run.conf", "w", encoding="utf-8") as handle:
                handle.write(text)
            result = runner.invoke(main, ["run", "--config", "run.conf", *args])
        assert result.exception is None or isinstance(result.exception, SystemExit), (text, args)
        assert result.exit_code in (0, 1, 2), (text, args)
        assert result.stderr.count("\n") <= 1, (text, args)
        assert "Traceback" not in result.output, (text, args)

    @settings(max_examples=30, deadline=None)
    @given(args=commands())
    def test_any_command_exits_0_1_or_2_with_one_line(self, args):
        result = CliRunner().invoke(main, args)
        assert result.exception is None or isinstance(result.exception, SystemExit), args
        assert result.exit_code in (0, 1, 2), args
        assert result.stderr.count("\n") <= 1, args
        assert "Traceback" not in result.output, args
