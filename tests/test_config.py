import io
import random
from contextlib import redirect_stderr
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bhhpm import (
    ConfigConflictError,
    ConfigNumberError,
    ConfigSyntaxError,
    RunConfig,
    parse_config,
    render_config,
)
from bhhpm.cli import build_parser
from bhhpm.config import (
    MAX_ORDERS, MAX_PRECISION, PARSERS, ConfigError, default_report_orders, parse_number,
)
from bhhpm.errors import ProblemDomainError
from bhhpm.problem import BHProblem, case_preset
from bhhpm.scalars import DEFAULT_DIGITS

from conftest import quad, run_cli


class TestNumbers:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("-2", quad(-2)),
            ("3/4", quad(Fraction(3, 4))),
            ("0.25", quad(Fraction(1, 4))),
            ("-0.1", quad(Fraction(-1, 10))),
            ("sqrt(2)", quad(0, 1, 2)),
            ("-sqrt(3)", quad(0, -1, 3)),
            ("3*sqrt(2)", quad(0, 3, 2)),
            ("3/4*sqrt(2)", quad(0, Fraction(3, 4), 2)),
            ("1/2+1/2*sqrt(3)", quad(Fraction(1, 2), Fraction(1, 2), 3)),
            ("-3/4+3/4*sqrt(3)", quad(Fraction(-3, 4), Fraction(3, 4), 3)),
            ("1-sqrt(2)", quad(1, -1, 2)),
            ("0.5*sqrt(8)", quad(0, 1, 2)),
            ("+sqrt(2)", quad(0, 1, 2)),
            ("1+-sqrt(2)", quad(1, -1, 2)),
            ("1--sqrt(2)", quad(1, 1, 2)),
            ("1+sqrt(4)", quad(3)),
            ("sqrt(12)", quad(0, 2, 3)),
            ("-1/2-3*sqrt(5)", quad(Fraction(-1, 2), -3, 5)),
            ("sqrt(0)", quad(0)),
        ],
    )
    def test_valid_literals(self, text, expected):
        assert parse_number(text) == expected

    @pytest.mark.parametrize(
        "text", ["", "1/0", "abc", "1+", "sqrt(-2)", "sqrt(2)+sqrt(3)", "1..2", "2e-3",
                 "--sqrt(2)", "sqrt(2)+1", "1/0+sqrt(2)", "1/2+3/0*sqrt(2)"]
    )
    def test_invalid_literals(self, text):
        with pytest.raises(ConfigNumberError):
            parse_number(text, line=4)

    def test_error_carries_position(self):
        with pytest.raises(ConfigNumberError, match="line 4"):
            parse_number("1/0", line=4)

    def test_render_round_trip(self):
        rng = random.Random(2)
        for _ in range(50):
            if rng.random() < 0.5:
                value = quad(Fraction(rng.randint(-99, 99), rng.randint(1, 99)))
            else:
                value = quad(
                    Fraction(rng.randint(-99, 99), rng.randint(1, 99)),
                    Fraction(rng.randint(-99, 99), rng.randint(1, 99)),
                    rng.choice([2, 3, 5]),
                )
            assert parse_number(str(value)) == value


class TestParsing:
    def test_minimal_preset(self):
        cfg = parse_config("case = case1\norders = 5")
        assert cfg.problem == case_preset(1)
        assert cfg.orders == 5
        assert cfg.report_orders == (1, 2, 3, 6)
        assert cfg.grid_x == (Fraction(1), Fraction(2), Fraction(3))
        assert cfg.grid_t == (Fraction(1, 10), Fraction(3, 10), Fraction(2, 5))
        assert cfg.precision == 30
        assert cfg.format == "markdown"
        assert cfg.problem.gamma == 1

    def test_explicit_case3_parameters(self):
        cfg = parse_config(
            "alpha = -2\nbeta = 1\ngamma = 3\nn = 1\nbranch = lower"
        )
        problem = cfg.problem
        assert problem.alpha == -2
        assert problem.gamma == 3
        assert problem.branch == "lower"
        assert problem.radicand == 3
        assert cfg.report_orders == (1, 2, 3, 4, 5, 6)

    def test_comments_and_blank_lines(self):
        cfg = parse_config(
            "# run setup\n\ncase = case2   # second benchmark\n\norders = 4\n"
        )
        assert cfg.problem == case_preset(2) and cfg.orders == 4
        # printed layout needs 6 terms; falls back to the full range
        assert cfg.report_orders == (1, 2, 3, 4, 5)

    def test_grids_and_output(self):
        cfg = parse_config(
            "case = case1\ngrid_x = 0.5, 1, 3/2\ngrid_t = 0.05\n"
            "format = md\nout = table.csv\nprecision = 40\nreport_orders = 1, 2"
        )
        assert cfg.grid_x == (Fraction(1, 2), Fraction(1), Fraction(3, 2))
        assert cfg.grid_t == (Fraction(1, 20),)
        assert cfg.format == "markdown"
        assert cfg.out == "table.csv"
        assert cfg.precision == 40
        assert cfg.report_orders == (1, 2)

    def test_quadratic_literals_in_problem(self):
        cfg = parse_config("alpha = 0\nbeta = 1\ngamma = 1+1*sqrt(2)\nbranch = upper")
        assert cfg.problem.gamma == quad(1, 1, 2)

    @pytest.mark.parametrize("cid", [1, 2, 3])
    def test_case_names_resolve_to_presets(self, cid):
        assert parse_config(f"case = case{cid}").problem == case_preset(cid)

    def test_omitted_problem_keys_take_problem_defaults(self):
        cfg = parse_config("alpha = -1\nbeta = 2\ngamma = 3/2")
        assert cfg.problem == BHProblem(quad(-1), quad(2), quad(Fraction(3, 2)))


class TestParseErrors:
    def test_invalid_number_literal(self):
        with pytest.raises(ConfigNumberError, match="line 1"):
            parse_config("alpha = 1/0\nbeta = 1\ngamma = 1")

    def test_syntax_error_with_line(self):
        with pytest.raises(ConfigSyntaxError, match="line 2"):
            parse_config("case = case1\nthis is not a config line")

    def test_unknown_key(self):
        with pytest.raises(ConfigSyntaxError, match="unknown key"):
            parse_config("case = case1\ncolor = red")

    def test_duplicate_key(self):
        with pytest.raises(ConfigConflictError, match="duplicate"):
            parse_config("case = case1\ncase = case2")

    def test_preset_override_conflict(self):
        with pytest.raises(ConfigConflictError, match="conflicts with preset"):
            parse_config("case = case1\nalpha = 3")

    def test_preset_conflict_names_its_source(self):
        with pytest.raises(ConfigConflictError) as line:
            parse_config("case = case1\nalpha = 3")
        assert str(line.value) == "'alpha' conflicts with preset 'case' (line 1) at line 2"
        with pytest.raises(ConfigConflictError) as argument:
            parse_config("alpha = 1", case=1)
        assert str(argument.value) == ("'alpha' conflicts with preset 'case' "
                                       "(the case argument) at line 1")

    def test_no_problem(self):
        with pytest.raises(ConfigConflictError, match="selects no problem"):
            parse_config("orders = 5")

    def test_partial_explicit_problem(self):
        with pytest.raises(ConfigConflictError, match="needs 'beta'"):
            parse_config("alpha = 1\ngamma = 1")

    def test_bad_branch_value(self):
        with pytest.raises(ConfigSyntaxError, match="branch"):
            parse_config("alpha = 0\nbeta = 1\ngamma = 1\nbranch = up")

    def test_bad_case_name(self):
        with pytest.raises(ConfigSyntaxError, match="unknown case"):
            parse_config("case = case9")

    def test_report_orders_out_of_range(self):
        with pytest.raises(ConfigConflictError, match="report_orders"):
            parse_config("case = case1\norders = 5\nreport_orders = 1, 9")

    def test_missing_value(self):
        with pytest.raises(ConfigSyntaxError, match="missing value"):
            parse_config("case =")

    def test_precision_floor(self):
        with pytest.raises(ConfigNumberError, match="precision"):
            parse_config("case = case1\nprecision = 10")

    def test_empty_list_entry(self):
        with pytest.raises(ConfigSyntaxError, match="empty list"):
            parse_config("case = case1\ngrid_x = 1,,2")

    def test_bad_problem_parameters_raise_in_parse(self):
        with pytest.raises(ProblemDomainError, match="beta"):
            parse_config("alpha = 0\nbeta = -1\ngamma = 1")

    def test_problem_is_checked_after_every_other_key(self):
        with pytest.raises(ConfigSyntaxError, match="format.*line 4"):
            parse_config("alpha = 0\nbeta = -1\ngamma = 1\nformat = xml")

    def test_uncertifiable_literal(self):
        text = "alpha = sqrt(1000073001431003663)\nbeta = 1\ngamma = 1"
        with pytest.raises(ConfigNumberError) as info:
            parse_config(text)
        assert str(info.value) == ("invalid number literal 'sqrt(1000073001431003663)': "
                                   "cannot certify square-free part of 1000073001431003663 "
                                   "at line 1")


#: A faulty value for every key in ``PARSERS``.  No config line holds a
#: faulty ``out`` (a line is cut at '#' and stripped), so it comes as an option.
FAULTY = {
    "case": "case9", "alpha": "1/0", "beta": "1/0", "gamma": "1/0", "x0": "1/0", "n": "0",
    "branch": "up", "orders": "0", "precision": "10", "report_orders": "99, 0",
    "grid_x": "1, oops", "grid_t": "0.1, oops", "format": "xml", "out": " table.csv",
}

#: Configs whose only fault is a rule across keys.
CROSS_KEY_FAULTS = {
    "preset-conflict": {"case": "case1", "alpha": "3"},
    "missing-beta": {"alpha": "1"},
    "report-orders-above-orders": {"case": "case1", "report_orders": "1, 99"},
}


def config_text(entries: dict[str, str]) -> str:
    return "".join(f"{key} = {value}\n" for key, value in entries.items())


class TestPrecedence:
    """With several faults, a faulty value is reported before a fault across
    keys, whatever its place in ``PARSERS``."""

    @pytest.mark.parametrize(
        "text,error,message",
        [
            ("alpha = 1\norders = 0", ConfigNumberError, "orders must be at least 1 at line 2"),
            ("case = 1\nalpha = 1\nformat = xml", ConfigSyntaxError,
             "format must be 'csv' or 'markdown', got 'xml' at line 3"),
            ("case = 2\nreport_orders = 1, 99\ngrid_t = 0.1, oops", ConfigNumberError,
             "invalid number literal 'oops' at line 3"),
        ],
    )
    def test_faulty_value_outranks_cross_key_fault(self, text, error, message):
        with pytest.raises(error) as info:
            parse_config(text)
        assert type(info.value) is error and str(info.value) == message

    @pytest.mark.parametrize("fault", CROSS_KEY_FAULTS)
    @pytest.mark.parametrize("key", PARSERS)
    def test_every_faulty_value_outranks_each_cross_key_fault(self, key, fault):
        entries = dict(CROSS_KEY_FAULTS[fault])
        with pytest.raises(ConfigConflictError):
            parse_config(config_text(entries))
        options = {}
        if key == "out":
            line, options["out"] = 0, FAULTY[key]
        else:
            entries[key] = FAULTY[key]  # in place of the key's own line, or last
            line = list(entries).index(key) + 1
        with pytest.raises(ConfigError) as expected:
            PARSERS[key](FAULTY[key], line)
        with pytest.raises(ConfigError) as info:
            parse_config(config_text(entries), **options)
        assert type(info.value) is type(expected.value)
        assert str(info.value) == str(expected.value)
        assert info.value.line == line


def random_config(rng: random.Random) -> RunConfig:
    orders = rng.randint(2, 7)
    if rng.random() < 0.5:
        cfg = RunConfig(case_preset(rng.choice([1, 2, 3])))
    else:
        # n, branch and x0 are each left to BHProblem's default half the time
        optional = {
            "n": rng.randint(1, 3),
            "branch": rng.choice(["upper", "lower"]),
            "x0": quad(Fraction(rng.randint(-4, 4), 2)),
        }
        cfg = RunConfig(BHProblem(
            alpha=quad(rng.randint(-3, 0)),
            beta=quad(rng.randint(0, 3)),
            gamma=quad(Fraction(rng.randint(1, 6), 2)),
            **{key: value for key, value in optional.items() if rng.random() < 0.5},
        ))
    cfg.orders = orders
    cfg.report_orders = tuple(
        sorted(rng.sample(range(1, orders + 2), rng.randint(1, orders)))
    )
    cfg.grid_x = tuple(
        Fraction(rng.randint(-20, 20), rng.choice([1, 2, 4, 10])) for _ in range(3)
    )
    cfg.grid_t = tuple(
        Fraction(rng.randint(0, 10), rng.choice([5, 10])) for _ in range(2)
    )
    cfg.precision = rng.choice([30, 35, 50])
    cfg.format = rng.choice(["csv", "markdown"])
    cfg.out = rng.choice([None, "out.csv", "report.md"])
    return cfg


#: The upper bound of each bounded setting.
BOUNDS = {"orders": MAX_ORDERS, "precision": MAX_PRECISION}


@st.composite
def run_settings(draw) -> dict[str, str]:
    """The text of each setting that both a config line and a ``run`` option
    set, from the domain of its parser in ``PARSERS`` or at its upper bound or
    one past it; ``out`` is any text."""
    near = lambda low, high, bound: st.one_of(st.integers(low, high),
                                              st.sampled_from([bound, bound + 1]))
    return {
        "case": draw(st.sampled_from(PARSERS["case"].spellings)),
        "orders": str(draw(near(1, 12, MAX_ORDERS))),
        "precision": str(draw(near(DEFAULT_DIGITS, 80, MAX_PRECISION))),
        "format": draw(st.sampled_from(PARSERS["format"].spellings)),
        "out": draw(st.text()),
    }


class TestBounds:
    """The documented bounds, written out: 100 orders and 10000 digits."""

    def test_the_bounds_are_accepted(self):
        cfg = parse_config("case = 1\norders = 100\nprecision = 10000\n")
        assert (cfg.orders, cfg.precision) == (100, 10000)

    @pytest.mark.parametrize("option,message", [
        ("--orders=101", "orders must be at most 100"),
        ("--precision=10001", "precision must be at most 10000"),
    ])
    def test_one_past_a_bound_exits_2(self, option, message):
        result = run_cli(["run", "--case", "1", option])
        assert result.exit_code == 2
        assert result.stderr.count("\n") == 1 and result.stderr.endswith(f": {message}\n")


class TestRoundTrip:
    def test_presets_round_trip(self):
        for cid in (1, 2, 3):
            cfg = RunConfig(case_preset(cid))
            cfg.report_orders = default_report_orders(cid, cfg.orders)
            assert parse_config(render_config(cfg)) == cfg

    def test_random_round_trip(self):
        rng = random.Random(31)
        for _ in range(30):
            cfg = random_config(rng)
            again = parse_config(render_config(cfg))
            assert again == cfg

    @pytest.mark.parametrize("out", ["run#2.csv", " x.csv"])
    def test_out_no_config_line_holds_is_rejected(self, out):
        # a config line would read these back as 'run' and 'x.csv'
        with pytest.raises(ConfigSyntaxError, match="out must be"):
            parse_config("case = 1", out=out)

    @settings(max_examples=200, deadline=None)
    @given(values=run_settings())
    @example(values={"case": "1", "orders": "5", "precision": "30", "format": "csv",
                     "out": "run#2.csv"})
    @example(values={"case": "1", "orders": "5", "precision": "30", "format": "csv",
                     "out": " x.csv"})
    @example(values={"case": "1", "orders": "101", "precision": "30", "format": "csv",
                     "out": "x.csv"})
    @example(values={"case": "1", "orders": "5", "precision": "10001", "format": "csv",
                     "out": "x.csv"})
    def test_options_either_fail_or_give_a_config_that_round_trips(self, values):
        argv = ["run", *[f"--{key}={value}" for key, value in values.items()]]
        try:
            with redirect_stderr(io.StringIO()) as err:
                args = build_parser().parse_args(argv)
        except SystemExit as exc:
            # out, or orders or precision past its bound, lies outside its parser's
            # domain: one usage line, exit 2, which names the first bound passed
            assert exc.code == 2 and err.getvalue().count("\n") == 1
            past = [key for key, bound in BOUNDS.items() if int(values[key]) > bound]
            if not past:
                with pytest.raises(ConfigError):
                    PARSERS["out"](values["out"])
                return
            key = past[0]
            assert err.getvalue().endswith(f"{key} must be at most {BOUNDS[key]}\n")
            # as config lines (out left out) it is refused the same way
            lines = "".join(f"{k} = {v}\n" for k, v in values.items() if k != "out")
            with pytest.raises(ConfigNumberError) as info:
                parse_config(lines)
            line = list(values).index(key) + 1
            assert str(info.value) == f"{key} must be at most {BOUNDS[key]} at line {line}"
            return
        cfg = parse_config("", case=args.case, orders=args.orders, precision=args.precision,
                           format=args.format, out=args.out)
        assert parse_config(render_config(cfg)) == cfg
        # the same settings as config lines give the same config
        assert parse_config("".join(f"{key} = {value}\n" for key, value in values.items())) == cfg
