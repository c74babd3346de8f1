import random
from fractions import Fraction

import pytest

from bhhpm import (
    ConfigConflictError,
    ConfigNumberError,
    ConfigSyntaxError,
    RunConfig,
    parse_config,
    render_config,
)
from bhhpm.config import default_report_orders, parse_number
from bhhpm.errors import ProblemDomainError
from bhhpm.problem import BHProblem, case_preset

from conftest import quad


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
