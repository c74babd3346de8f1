import pytest
from click.testing import CliRunner

from bhhpm.cli import main


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
