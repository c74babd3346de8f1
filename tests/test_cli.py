import errno
import io
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bhhpm.cli import main
from bhhpm.config import MAX_ORDERS, MAX_PRECISION
from bhhpm.errors import ContractViolation

from conftest import run_cli

#: A steep, fast front: 1 + tanh(kappa*phi) is 0 to 30 digits at every
#: default grid point, where the wave's logistic form keeps its digits.
STEEP_BETA = Fraction(1000000007, 8)

DATA = Path(__file__).parent / "data"

#: Far-tail grid points and shifts, signed: 10^6 lies inside the bound on a
#: point's sigma for slow fronts, 10^12 and 10^30 past it for every front.
TAILS = [sign * 10**e for e in (6, 12, 30) for sign in (1, -1)]

#: Configs whose one grid point lies past that bound.
FAR_TAILS = {
    "case1-x-1e12": "case = case1\ngrid_x = 1000000000000\n",
    "case1-x-1e30": f"case = case1\ngrid_x = {10**30}\n",
    "case1-x-minus-1e30": f"case = case1\ngrid_x = {-10**30}\n",
    "x0-1e12": "alpha = 0\nbeta = 1\ngamma = 1\nx0 = 1000000000000\n",
}

#: A config whose alpha and beta carry different square roots: the
#: discriminant alpha^2 + 4*(n + 1)*beta mixes sqrt(2) and sqrt(3).
MIXED_RADICANDS = "alpha = 1+sqrt(2)\nbeta = 1+sqrt(3)\ngamma = 1\n"


class TestRun:
    def test_preset_csv_to_stdout(self):
        result = run_cli(["run", "--case", "1", "--format", "csv"])
        assert result.exit_code == 0
        assert "t,m,x,relative_error" in result.output
        assert "0.1,1,1,1.693168743e-2" in result.output
        assert "max relative error over grid" in result.output

    def test_preset_markdown(self):
        result = run_cli(["run", "--case", "2"])
        assert result.exit_code == 0
        assert result.output.count("| 0.1 | S") == 4

    def test_config_file_with_output(self, tmp_path):
        config = tmp_path / "run.conf"
        out = tmp_path / "table.csv"
        config.write_text(
            f"case = case1\norders = 3\nreport_orders = 1, 2\n"
            f"format = csv\nout = {out}\n"
        )
        result = run_cli(["run", "--config", str(config)])
        assert result.exit_code == 0
        assert out.read_text().startswith("t,m,x,")
        plot = tmp_path / "table.csv.plot.csv"
        assert plot.read_text().startswith("m,max_relative_error")

    @pytest.mark.parametrize("text", FAR_TAILS.values(), ids=FAR_TAILS)
    def test_far_tail_point_is_a_config_error(self, text, tmp_path):
        config = tmp_path / "tail.conf"
        config.write_text(text)
        result = run_cli(["run", "--config", str(config)])
        assert result.exit_code == 2
        assert result.stderr.count("\n") == 1
        assert result.stderr.startswith("configuration error: x + x0 = ")
        assert "Traceback" not in result.output

    def test_mixed_radicands_are_a_config_error(self, tmp_path):
        config = tmp_path / "mixed.conf"
        config.write_text(MIXED_RADICANDS)
        result = run_cli(["run", "--config", str(config)])
        assert result.exit_code == 2
        assert result.exception is None
        assert result.stderr == (
            "configuration error: beta carries sqrt(3), but alpha carries sqrt(2)\n"
        )

    def test_sqrt_zero_alpha_is_zero_alpha(self, tmp_path):
        outputs = []
        for alpha in ("sqrt(0)", "0"):
            config = tmp_path / "run.conf"
            config.write_text(f"alpha = {alpha}\nbeta = 1\ngamma = 1\n")
            result = run_cli(["run", "--config", str(config)])
            assert result.exit_code == 0
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]

    def test_cli_orders_override(self):
        result = run_cli(["run", "--case", "1", "--orders", "2", "--format", "csv"])
        assert result.exit_code == 0
        assert "0.1,3,1," in result.output      # fallback layout 1..3
        assert ",6," not in result.output

    @pytest.mark.parametrize("cid", [1, 2, 3])
    @pytest.mark.parametrize("options", [["--format", "csv"], ["--format", "md", "--orders", "3"]],
                             ids=["csv", "md-orders-3"])
    def test_case_option_equals_case_config(self, tmp_path, cid, options):
        config = tmp_path / "run.conf"
        config.write_text(f"case = case{cid}\n")
        by_option = run_cli(["run", "--case", str(cid), *options])
        by_config = run_cli(["run", "--config", str(config), *options])
        assert by_option.exit_code == by_config.exit_code == 0
        assert by_option.stdout == by_config.stdout

    def test_options_take_config_spellings_and_messages(self):
        # the options parse with their config keys' own parsers
        by_name = run_cli(["run", "--case", "case2", "--format", "markdown", "--orders", "3"])
        by_number = run_cli(["run", "--case", "2", "--format", "md", "--orders", "3"])
        assert by_name.exit_code == by_number.exit_code == 0
        assert by_name.stdout == by_number.stdout
        result = run_cli(["run", "--case", "1", "--precision", "29"])
        assert result.stderr.endswith("argument --precision: precision must be at least 30\n")

    def test_orders_option_keeps_config_report_orders(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("case = case1\nreport_orders = 1, 2\nformat = csv\n")
        result = run_cli(["run", "--config", str(config), "--orders", "4"])
        assert result.exit_code == 0
        rows = {line.split(",")[1] for line in result.stdout.splitlines()
                if line.startswith("0.1,")}
        assert rows == {"1", "2"}

    def test_orders_option_checks_config_report_orders(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("case = case1\nreport_orders = 1, 6\n")
        result = run_cli(["run", "--config", str(config), "--orders", "4"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("configuration error: report_orders [6] outside ")
        assert "(orders from --orders) at line 2" in result.stderr
        assert result.stderr.count("\n") == 1

    def test_config_and_case_conflict(self, tmp_path):
        config = tmp_path / "c.conf"
        config.write_text("case = case1\n")
        result = run_cli(["run", "--config", str(config), "--case", "2"])
        assert result.exit_code == 2
        assert result.stderr.startswith("usage error: ")
        assert result.stderr.count("\n") == 1

    def test_requires_some_problem(self):
        result = run_cli(["run"])
        assert result.exit_code == 2
        assert "usage error" in result.output

    def test_bad_config_exits_2(self, tmp_path):
        config = tmp_path / "bad.conf"
        config.write_text("alpha = 1/0\n")
        result = run_cli(["run", "--config", str(config)])
        assert result.exit_code == 2
        assert "line 1" in result.output

    def test_uncertifiable_radicand_exits_2(self, tmp_path):
        config = tmp_path / "steep.conf"
        config.write_text("alpha = 0\nbeta = 1000073001431003663/8\ngamma = 1\n")
        result = run_cli(["run", "--config", str(config)])
        assert result.exit_code == 2
        assert result.output.startswith("configuration error: ")
        assert "cannot certify square-free part of 1000073001431003663" in result.output
        assert result.output.count("\n") == 1

    def test_steep_front_has_defined_cells(self, tmp_path):
        config = tmp_path / "steep.conf"
        config.write_text(f"alpha = 0\nbeta = {STEEP_BETA}\ngamma = 1\n")
        result = run_cli(["run", "--config", str(config)])
        assert result.exit_code == 0
        # t = 2/5 lies far past the t-radius of convergence at x = 1
        assert result.stderr.count("\n") == 1
        assert result.stderr.startswith("warning: t = 2/5 is 3.16e+3 times the t-radius")
        assert "undefined" not in result.stdout
        assert "max relative error over grid" in result.stdout

    @pytest.mark.parametrize("t,warned", [("6.2832", True), ("6.2831", False)])
    def test_warning_starts_at_the_t_radius(self, tmp_path, t, warned):
        # case 1 has R(0) = 2*pi = 6.28318..., so the two t lie just past and just inside it
        config = tmp_path / "edge.conf"
        config.write_text(f"case = case1\ngrid_x = 0\ngrid_t = {t}\n")
        result = run_cli(["run", "--config", str(config)])
        assert result.exit_code == 0
        warning = ("warning: t = 3927/625 is 1.0 times the t-radius of convergence R(x) "
                   "at x = 0; the partial sums diverge there\n")
        assert result.stderr == (warning if warned else "")

    @pytest.mark.parametrize("cid", [1, 2, 3])
    def test_paper_grid_inside_radius_of_convergence(self, cid):
        # the paper's t <= 0.4 stays inside R(x): R(3) = 2.54 for case 3
        result = run_cli(["run", "--case", str(cid)])
        assert result.exit_code == 0
        assert result.stderr == ""

    def test_unknown_flag_exits_2(self):
        result = run_cli(["run", "--nope"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("via", ["option", "config"])
    def test_unwritable_out_exits_2(self, tmp_path, via):
        out = tmp_path / "missing" / "x.csv"
        if via == "option":
            result = run_cli(["run", "--case", "1", "--out", str(out)])
        else:
            config = tmp_path / "run.conf"
            config.write_text(f"case = case1\nout = {out}\n")
            result = run_cli(["run", "--config", str(config)])
        assert result.exit_code == 2
        assert result.exception is None
        assert result.stderr.startswith(f"configuration error: cannot write table to '{out}': ")
        assert result.stderr.count("\n") == 1

    @pytest.mark.parametrize("out", ["r#1.csv", " x.csv", "x.csv ", "a\nb.csv", ""])
    def test_out_no_config_line_holds_exits_2(self, out):
        # '#' starts a comment, a line break ends the line and edge spaces are
        # stripped, so render_config could not write such a path back
        result = run_cli(["run", "--case", "1", f"--out={out}"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("usage error: bhhpm run: argument --out: out must be ")
        assert result.stderr.count("\n") == 1

    def test_unwritable_plot_path_exits_2(self, tmp_path):
        out = tmp_path / "x.csv"
        (tmp_path / "x.csv.plot.csv").mkdir()
        result = run_cli(["run", "--case", "1", "--out", str(out)])
        assert result.exit_code == 2
        assert result.stderr.startswith(
            f"configuration error: cannot write table to '{out}.plot.csv': ")
        assert result.stderr.count("\n") == 1

    @pytest.mark.parametrize("kind", ["not-utf8", "missing", "directory"])
    def test_unreadable_config_exits_2(self, tmp_path, kind):
        config = tmp_path / "run.conf"
        if kind == "not-utf8":
            config.write_bytes(b"case = 1\n\xff\xfe\n")
        elif kind == "directory":
            config.mkdir()
        result = run_cli(["run", "--config", str(config)])
        assert result.exit_code == 2
        assert result.exception is None
        assert result.stderr.startswith(f"configuration error: cannot read config '{config}': ")
        assert result.stderr.count("\n") == 1


class TestUsageErrors:
    @pytest.mark.parametrize("args", [
        ["run", "--case", "4"],
        ["run", "--case", "1", "--orders", "0"],
        ["run", "--case", "1", "--precision", "29"],
        ["run", "--case", "1", "--format", "xml"],
        ["terms", "--case", "1", "--orders", "five"],
        ["plot"],
        [],
    ], ids=["case-4", "orders-0", "precision-29", "format-xml", "orders-nan",
            "unknown-command", "no-command"])
    def test_one_line_exit_2(self, args):
        result = run_cli(args)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("usage error: bhhpm")
        assert result.stderr.count("\n") == 1

    def test_help_exits_0(self):
        result = run_cli(["run", "--help"])
        assert result.exit_code == 0
        assert "--config PATH" in result.stdout


class TestImports:
    """The CLI starts without click, dataclasses or inspect."""

    @pytest.mark.parametrize("module", ["bhhpm", "bhhpm.cli"])
    def test_import_set(self, module):
        code = (f"import sys, {module}; "
                "print(' '.join(m for m in ('click', 'dataclasses', 'inspect') if m in sys.modules))")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                text=True, check=True).stdout.split()
        assert loaded == []


class TestGolden:
    def test_reference_comparison_reports_noise_floor(self):
        # cells at the reference data's precision floor fail the strict rule
        result = run_cli(["golden", "--case", "3"])
        assert result.exit_code == 1
        assert "case 3: FAIL (32/36 cells)" in result.output
        assert "worst cell" in result.output

    def test_insufficient_orders_is_usage_error(self):
        # golden always runs to S6, the last reference row, so it takes no --orders
        result = run_cli(["golden", "--orders", "5"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("usage error: bhhpm")
        assert result.stderr.count("\n") == 1


class BrokenPipe(io.StringIO):
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


class TestClosedStdout:
    """A closed stdout (``bhhpm golden | head -1``) ends in exit 1 with
    nothing on stderr: no traceback and no "Exception ignored" line."""

    @pytest.mark.parametrize("args", [["golden"], ["run", "--case", "1", "--format", "csv"]],
                             ids=["golden", "run"])
    def test_in_process(self, args):
        err = io.StringIO()
        with redirect_stdout(BrokenPipe()), redirect_stderr(err):
            assert main(args) == 1
        assert err.getvalue() == ""

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_process(self, unbuffered):
        # no reader ever exists, so the first write (unbuffered) or the flush
        # (buffered) fails
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)
        try:
            result = subprocess.run([sys.executable, "-m", "bhhpm", "run", "--case", "1"],
                                    env=env, stdout=write, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write)
        assert (result.returncode, result.stderr) == (1, "")


class TestTerms:
    def test_prints_series(self):
        result = run_cli(["terms", "--case", "1"])
        assert result.exit_code == 0
        assert "kappa = 1/4*sqrt(2)" in result.output
        assert "v_0 = (E^2)/(E^2 + 1)" in result.output
        assert "v_1 = (-1/2*E^2)/(E^4 + 2*E^2 + 1) * t" in result.output
        assert "v_3" in result.output

    def test_case_required(self):
        result = run_cli(["terms"])
        assert result.exit_code == 2


class TestTaylorCheck:
    def test_single_case_passes(self):
        result = run_cli(["taylor-check", "--case", "1", "--orders", "4"])
        assert result.exit_code == 0
        assert "case 1" in result.output and "PASS" in result.output


class TestOutputFixtures:
    """Stdout and exit code of whole commands, pinned line for line."""

    @pytest.mark.parametrize(
        "args,fixture,exit_code",
        [(["golden"], "golden.txt", 1),
         (["golden", "--verbose"], "golden_verbose.txt", 1),
         (["taylor-check"], "taylor_check.txt", 0),
         (["run", "--case", "2", "--format", "md"], "run_case2.md", 0),
         (["run", "--config", str(DATA / "run_config.conf")], "run_config.md", 0)]
        + [(["run", "--case", str(c), "--format", "csv"], f"run_case{c}.csv", 0)
           for c in (1, 2, 3)],
        ids=["golden", "golden-verbose", "taylor-check", "run-case2-md", "run-config-md",
             "run-case1", "run-case2", "run-case3"],
    )
    def test_stdout_matches_fixture(self, args, fixture, exit_code):
        result = run_cli(args)
        assert result.exit_code == exit_code
        expected = (DATA / fixture).read_text(encoding="utf-8").splitlines()
        assert result.stdout.splitlines() == expected


class TestPrecisionEnv:
    def test_env_is_ignored(self, monkeypatch):
        # precision comes from --precision or the config's precision key only
        monkeypatch.setenv("HPM_PRECISION", "ten")
        result = run_cli(["run", "--case", "1", "--format", "csv"])
        assert result.exit_code == 0
        assert result.stdout == (DATA / "run_case1.csv").read_text(encoding="utf-8")


def _rationals(low, high, denominator=4):
    return st.fractions(min_value=low, max_value=high, max_denominator=denominator)


def _numbers(rationals):
    """A literal from ``rationals`` or a + b*sqrt(r) with a from ``rationals``
    and r in {2, 3, 5}, drawn anew for each key, so that two keys may carry
    different square roots."""
    surds = st.builds(lambda a, b, r: f"{a}{'-' if b < 0 else '+'}{abs(b)}*sqrt({r})",
                      rationals, _rationals(-2, 2), st.sampled_from([2, 3, 5]))
    return st.one_of(rationals.map(str), surds)


@st.composite
def run_configs(draw) -> str:
    """Small random explicit configs, including the steep front's beta,
    quadratic alpha, beta, gamma and x0, and far-tail grid points and shifts;
    n, branch and the shift x0 are each set or left to their defaults."""
    values = {
        "alpha": draw(_numbers(_rationals(-3, 3))),
        "beta": draw(st.one_of(_numbers(_rationals(0, 3)), st.just(STEEP_BETA))),
        "gamma": draw(_numbers(_rationals(-2, 3))),
        "orders": draw(st.integers(1, 3)),
        "grid_x": ", ".join(str(x) for x in draw(
            st.lists(st.one_of(_rationals(-3, 3), st.sampled_from(TAILS)),
                     min_size=1, max_size=3, unique=True))),
        "grid_t": str(draw(_rationals(0, Fraction(2, 5), 10))),
    }
    if draw(st.booleans()):
        values["n"] = draw(st.sampled_from([1, 2]))
    if draw(st.booleans()):
        values["branch"] = draw(st.sampled_from(["upper", "lower"]))
    if draw(st.booleans()):
        values["x0"] = draw(st.one_of(_numbers(_rationals(-2, 2)), st.sampled_from(TAILS)))
    if draw(st.booleans()):
        values["report_orders"] = ", ".join(str(m) for m in draw(
            st.lists(st.integers(1, values["orders"] + 1), min_size=1, max_size=3, unique=True)))
    return "".join(f"{key} = {value}\n" for key, value in values.items())


@st.composite
def commands(draw) -> list[str]:
    """``run``, ``golden``, ``terms`` or ``taylor-check``, each with options
    drawn from its own (``golden`` has no ``--orders``), in range or just
    outside it (``--case 0|4``, ``--orders 0|101``, ``--precision 29|10001``,
    ``--format xml``), and ``run`` at times without its required ``--case``;
    or an unknown sub-command, or none at all."""
    name = draw(st.sampled_from(["run", "golden", "terms", "taylor-check", "plot", None]))
    if name is None:
        return []
    args = [name]
    if name == "terms" or draw(st.booleans()):
        args += ["--case", str(draw(st.integers(0, 4)))]
    if name != "golden" and draw(st.booleans()):
        args += ["--orders", str(draw(st.integers(0, 8) | st.just(MAX_ORDERS + 1)))]
    if name != "terms" and draw(st.booleans()):
        args += ["--precision", str(draw(st.integers(29, 40) | st.just(MAX_PRECISION + 1)))]
    if name == "golden" and draw(st.booleans()):
        args.append("--verbose")
    if name == "run" and draw(st.booleans()):
        args += ["--format", draw(st.sampled_from(["csv", "md", "xml"]))]
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
    def test_contract_violation_exits_3_with_one_line(self, monkeypatch):
        def broken(problem, order):
            raise ContractViolation("broken engine")
        monkeypatch.setattr("bhhpm.cli.run_hpm", broken)
        result = run_cli(["run", "--case", "1"])
        assert result.exception is None
        assert result.exit_code == 3
        assert result.stderr == "internal contract violation: broken engine\n"
        assert result.stdout == ""

    @settings(max_examples=30, deadline=None)
    @given(text=run_configs(), args=overrides())
    @example(text=MIXED_RADICANDS, args=[])
    def test_any_config_exits_0_1_or_2_with_one_line(self, text, args):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.conf")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            result = run_cli(["run", "--config", path, *args])
        assert result.exception is None or isinstance(result.exception, SystemExit), (text, args)
        assert result.exit_code in (0, 1, 2), (text, args)
        assert result.stderr.count("\n") <= 1, (text, args)
        assert "Traceback" not in result.output, (text, args)

    @settings(max_examples=40, deadline=None)
    @given(args=commands())
    # each bound itself, once, on the cheapest command that reaches it
    @example(args=["run", "--case", "2", "--orders", str(MAX_ORDERS), "--format", "csv"])
    @example(args=["taylor-check", "--case", "2", "--orders", "1",
                   "--precision", str(MAX_PRECISION)])
    def test_any_command_exits_0_1_or_2_with_one_line(self, args):
        result = run_cli(args)
        assert result.exception is None or isinstance(result.exception, SystemExit), args
        assert result.exit_code in (0, 1, 2), args
        assert result.stderr.count("\n") <= 1, args
        assert "Traceback" not in result.output, args
